//! Node-major lane storage for the lockstep SIMD executor.
//!
//! The CM-2 broadcast one instruction stream to every node at once
//! (§4.3: the dynamic parts are streamed cycle by cycle to *all* FPUs).
//! The scalar interpreter inverts that — node-outer, step-inner — and so
//! pays instruction dispatch once per node per step. The lockstep
//! executor restores the machine's own loop order: step-outer,
//! node-inner. To make the node-inner sweep a contiguous vector
//! operation, [`LaneMemory`] stores the *same word of every node side by
//! side*: word `w` of nodes `0..n` lives at `w*n .. (w+1)*n`. One
//! [`crate::exec::ResolvedPart`] then turns into one fused
//! multiply-add swept over a contiguous `&mut [f32]` of node lanes —
//! exactly the shape LLVM autovectorizes.
//!
//! Node memory is large and mostly untouched by any one kernel, so the
//! lane mirror covers only the address ranges a plan actually references:
//! a [`LaneView`] records those ranges once (halo buffers, constant
//! pages, coefficient arrays, the result array) and provides the
//! node-address → lane-word translation plus the gather/scatter that
//! moves data between per-node memories and the lane mirror around a
//! lockstep run. Only ranges marked writable are scattered back, so
//! read-only operands (halos, coefficients) cost one copy per run, not
//! two.

use crate::memory::NodeMemory;

/// One contiguous node-memory range mirrored into lane storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneRange {
    /// First node-memory address of the range.
    pub node_base: usize,
    /// First lane word (index into the mirror, in words) of the range.
    pub lane_base: usize,
    /// Length in words.
    pub len: usize,
    /// Whether kernels may store into the range (only writable ranges
    /// are scattered back to node memory after a lockstep run).
    pub writable: bool,
    /// Whether the range is lane-private scratch: kernels may store into
    /// it (when also `writable`), but it has no node-memory image — it is
    /// skipped by both gather and scatter. Temporal tiling parks the
    /// intermediate fused-step states here.
    pub private: bool,
}

impl LaneRange {
    fn contains(&self, addr: usize) -> bool {
        addr >= self.node_base && addr < self.node_base + self.len
    }
}

/// The address map of a lockstep execution: which node-memory ranges are
/// mirrored into lane storage, and where each lands.
///
/// Built once per execution plan. Ranges keep their insertion order, so
/// rebuilding a view from same-length ranges (a plan rebind: the result
/// array moved, its length did not) yields identical lane addresses —
/// pre-translated strips stay valid and only the gather/scatter bases
/// change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneView {
    ranges: Vec<LaneRange>,
    words: usize,
}

impl LaneView {
    /// Builds a view over `(node_base, len, writable)` ranges, assigning
    /// lane words in order.
    ///
    /// Returns `None` when any two ranges overlap in node memory (the
    /// caller bound one array to two roles; the scalar engine handles
    /// that aliasing, the lane mirror cannot) or when a range is empty.
    pub fn new(ranges: &[(usize, usize, bool)]) -> Option<LaneView> {
        let with_private: Vec<(usize, usize, bool, bool)> = ranges
            .iter()
            .map(|&(base, len, writable)| (base, len, writable, false))
            .collect();
        Self::new_with_private(&with_private)
    }

    /// [`LaneView::new`] over `(node_base, len, writable, private)`
    /// ranges. Private ranges reserve lane words like any other but are
    /// excluded from gather and scatter — lane-resident scratch with no
    /// node-memory image. Their `node_base` must still be a real,
    /// non-overlapping node allocation so `locate` stays unambiguous
    /// (temporal plans back scratch with persistent node fields, which
    /// the node-domain fallback path then uses directly).
    pub fn new_with_private(ranges: &[(usize, usize, bool, bool)]) -> Option<LaneView> {
        let mut out = Vec::with_capacity(ranges.len());
        let mut lane_base = 0;
        for &(node_base, len, writable, private) in ranges {
            if len == 0 {
                return None;
            }
            out.push(LaneRange {
                node_base,
                lane_base,
                len,
                writable,
                private,
            });
            lane_base += len;
        }
        // Overlap check: sort by node base, adjacent ranges must not meet.
        let mut sorted: Vec<&LaneRange> = out.iter().collect();
        sorted.sort_by_key(|r| r.node_base);
        for pair in sorted.windows(2) {
            if pair[0].node_base + pair[0].len > pair[1].node_base {
                return None;
            }
        }
        Some(LaneView {
            ranges: out,
            words: lane_base,
        })
    }

    /// Total lane words the view mirrors.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Lane words a full [`LaneMemory::gather`] copies per node (every
    /// non-private range).
    pub fn gather_words(&self) -> usize {
        self.ranges
            .iter()
            .filter(|r| !r.private)
            .map(|r| r.len)
            .sum()
    }

    /// Lane words a [`LaneMemory::scatter`] copies back per node
    /// (writable, non-private ranges).
    pub fn scatter_words(&self) -> usize {
        self.ranges
            .iter()
            .filter(|r| r.writable && !r.private)
            .map(|r| r.len)
            .sum()
    }

    /// The mirrored ranges, in insertion order.
    pub fn ranges(&self) -> &[LaneRange] {
        &self.ranges
    }

    /// The range containing node address `addr`, and the address's lane
    /// word within the mirror. `None` when the address is outside every
    /// range.
    pub fn locate(&self, addr: usize) -> Option<(usize, &LaneRange)> {
        self.ranges
            .iter()
            .find(|r| r.contains(addr))
            .map(|r| (r.lane_base + (addr - r.node_base), r))
    }
}

/// A node-memory → lane-word strided rectangle copy, applied uniformly
/// to every lane: `rows` runs of `cols` words, read from node addresses
/// `src0 + r*src_stride` and written to lane words `dst0 + r*dst_stride`.
///
/// The execution plan precomputes one per source to refresh a halo
/// buffer's interior directly in a resident mirror (the lane-domain
/// `fill_interior`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RectCopy {
    /// Node-memory address of the rectangle's first word.
    pub src0: usize,
    /// Node-memory words between consecutive source runs.
    pub src_stride: usize,
    /// Lane word the first run lands on.
    pub dst0: usize,
    /// Lane words between consecutive destination runs.
    pub dst_stride: usize,
    /// Number of runs.
    pub rows: usize,
    /// Words per run.
    pub cols: usize,
}

/// The lane mirror: every viewed word of every node, node-major.
///
/// Word `w`'s lanes occupy `data[w*nodes .. (w+1)*nodes]`, one entry per
/// node, in node order. A group of host threads may each own a
/// `LaneMemory` over a disjoint contiguous slice of the machine's nodes;
/// lanes never interact, so the partition is invisible to results.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneMemory {
    data: Vec<f32>,
    nodes: usize,
}

impl LaneMemory {
    /// Allocates a zeroed mirror of `words` lane words across `nodes`
    /// lanes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(words: usize, nodes: usize) -> Self {
        assert!(nodes > 0, "lane memory needs at least one lane");
        LaneMemory {
            data: vec![0.0; words * nodes],
            nodes,
        }
    }

    /// Builds a mirror of `words × nodes` reusing `scratch`'s allocation
    /// (resized only when the required length changed). The initial
    /// contents are unspecified — callers must [`LaneMemory::gather`]
    /// before running, which overwrites every viewed word.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn from_scratch(mut scratch: Vec<f32>, words: usize, nodes: usize) -> Self {
        assert!(nodes > 0, "lane memory needs at least one lane");
        let needed = words * nodes;
        if scratch.len() != needed {
            scratch.clear();
            scratch.resize(needed, 0.0);
        }
        LaneMemory {
            data: scratch,
            nodes,
        }
    }

    /// Consumes the mirror, returning its allocation for reuse via
    /// [`LaneMemory::from_scratch`].
    pub fn into_scratch(self) -> Vec<f32> {
        self.data
    }

    /// Number of node lanes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// All lanes of lane word `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    #[inline]
    pub fn word(&self, w: usize) -> &[f32] {
        &self.data[w * self.nodes..(w + 1) * self.nodes]
    }

    /// All lanes of lane word `w`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    #[inline]
    pub fn word_mut(&mut self, w: usize) -> &mut [f32] {
        &mut self.data[w * self.nodes..(w + 1) * self.nodes]
    }

    /// The `count` floats at pre-resolved flat offset `off` of the
    /// backing store — the kernel tier's addressing mode, where
    /// `word * nodes` products are computed once per strip instead of
    /// once per access.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline]
    pub(crate) fn flat(&self, off: usize, count: usize) -> &[f32] {
        &self.data[off..off + count]
    }

    /// [`Self::flat`], mutably.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline]
    pub(crate) fn flat_mut(&mut self, off: usize, count: usize) -> &mut [f32] {
        &mut self.data[off..off + count]
    }

    /// Lane `lane`'s value of lane word `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `lane` is out of range.
    #[inline]
    pub fn lane_value(&self, w: usize, lane: usize) -> f32 {
        assert!(lane < self.nodes, "lane out of range");
        self.data[w * self.nodes + lane]
    }

    /// Sets lane `lane`'s value of lane word `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `lane` is out of range.
    #[inline]
    pub fn set_lane_value(&mut self, w: usize, lane: usize, value: f32) {
        assert!(lane < self.nodes, "lane out of range");
        self.data[w * self.nodes + lane] = value;
    }

    /// `count` consecutive lanes of lane word `w`, starting at `lane`.
    ///
    /// # Panics
    ///
    /// Panics if the lane run leaves the word row or `w` is out of range.
    #[inline]
    pub fn lanes(&self, w: usize, lane: usize, count: usize) -> &[f32] {
        assert!(lane + count <= self.nodes, "lane run out of range");
        &self.data[w * self.nodes + lane..w * self.nodes + lane + count]
    }

    /// `count` consecutive lanes of lane word `w`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the lane run leaves the word row or `w` is out of range.
    #[inline]
    pub fn lanes_mut(&mut self, w: usize, lane: usize, count: usize) -> &mut [f32] {
        assert!(lane + count <= self.nodes, "lane run out of range");
        &mut self.data[w * self.nodes + lane..w * self.nodes + lane + count]
    }

    /// Copies `count` consecutive lanes of word `src_w` (from
    /// `src_lane`) onto word `dst_w` (from `dst_lane`) within this
    /// memory — one `memmove`, overlap-safe.
    ///
    /// # Panics
    ///
    /// Panics if either lane run leaves its word row.
    #[inline]
    pub fn copy_lanes_within(
        &mut self,
        src_w: usize,
        src_lane: usize,
        dst_w: usize,
        dst_lane: usize,
        count: usize,
    ) {
        assert!(src_lane + count <= self.nodes, "lane run out of range");
        assert!(dst_lane + count <= self.nodes, "lane run out of range");
        let s = src_w * self.nodes + src_lane;
        let d = dst_w * self.nodes + dst_lane;
        self.data.copy_within(s..s + count, d);
    }

    /// Copies every non-private viewed range from `mems` (one per lane,
    /// in order) into the mirror. Private ranges are lane-resident
    /// scratch with no node image — their contents are left as-is.
    ///
    /// # Panics
    ///
    /// Panics if `mems.len()` differs from the lane count or a range is
    /// out of a node memory's bounds.
    pub fn gather(&mut self, view: &LaneView, mems: &[NodeMemory]) {
        assert_eq!(mems.len(), self.nodes, "one node memory per lane");
        let nodes = self.nodes;
        for range in view.ranges().iter().filter(|r| !r.private) {
            let srcs: Vec<&[f32]> = mems
                .iter()
                .map(|m| m.slice(range.node_base, range.len))
                .collect();
            let dst =
                &mut self.data[range.lane_base * nodes..(range.lane_base + range.len) * nodes];
            transpose_in(dst, &srcs, 0);
        }
    }

    /// Copies the rectangle `rect` describes from every node's memory
    /// into the mirror.
    ///
    /// This is the lane-domain equivalent of a per-node strided copy: the
    /// plan uses it to refresh a halo buffer's interior directly in the
    /// mirror, without touching the node-side halo storage.
    ///
    /// # Panics
    ///
    /// Panics if `mems.len()` differs from the lane count or a run is out
    /// of bounds on either side.
    pub fn gather_rows(&mut self, mems: &[NodeMemory], rect: &RectCopy) {
        assert_eq!(mems.len(), self.nodes, "one node memory per lane");
        if rect.rows == 0 {
            return;
        }
        let nodes = self.nodes;
        // One slice per node spanning every run; each run is then an
        // offset into it.
        let span = (rect.rows - 1) * rect.src_stride + rect.cols;
        let srcs: Vec<&[f32]> = mems.iter().map(|m| m.slice(rect.src0, span)).collect();
        for r in 0..rect.rows {
            let d0 = rect.dst0 + r * rect.dst_stride;
            let dst = &mut self.data[d0 * nodes..(d0 + rect.cols) * nodes];
            transpose_in(dst, &srcs, r * rect.src_stride);
        }
    }

    /// Copies every *writable*, non-private viewed range from the mirror
    /// back into `mems`.
    ///
    /// # Panics
    ///
    /// Panics if `mems.len()` differs from the lane count or a range is
    /// out of a node memory's bounds.
    pub fn scatter(&self, view: &LaneView, mems: &mut [NodeMemory]) {
        assert_eq!(mems.len(), self.nodes, "one node memory per lane");
        let nodes = self.nodes;
        for range in view.ranges().iter().filter(|r| r.writable && !r.private) {
            let mut dsts: Vec<&mut [f32]> = mems
                .iter_mut()
                .map(|m| m.slice_mut(range.node_base, range.len))
                .collect();
            let src = &self.data[range.lane_base * nodes..(range.lane_base + range.len) * nodes];
            transpose_out(src, &mut dsts);
        }
    }
}

/// Words per lane that one step of a blocked transpose moves.
///
/// Node streams sit a power of two apart (node memories are 2^22 words),
/// so the same word of every lane maps to the same cache sets: copying
/// word by word across all lanes evicts each node-side line before it
/// fills. A block instead covers `TRANSPOSE_BLOCK` words of every lane —
/// 4 KiB of mirror at 16 lanes, which stays in L1 — and walks it lane by
/// lane, so each node stream is read or written as one contiguous run of
/// whole cache lines. Measured on a 16-lane 128×128-per-node scatter into
/// node-major buffers (Xeon, 48 KiB L1d): 32 and 64 words ran at
/// ~0.12–0.13 ms against ~1.1 ms unblocked, 128 at ~0.17 ms; gathers
/// were flat across the three, so 64 is kept.
const TRANSPOSE_BLOCK: usize = 64;

/// Node → lane transpose: fills the word-major `dst` (`dst.len() /
/// srcs.len()` lane words, lane `l` of word `w` at `w * lanes + l`) from
/// lane `l`'s node-side run `srcs[l][off..]`, one [`TRANSPOSE_BLOCK`] at
/// a time.
fn transpose_in(dst: &mut [f32], srcs: &[&[f32]], off: usize) {
    let lanes = srcs.len();
    for (b, block) in dst.chunks_mut(TRANSPOSE_BLOCK * lanes).enumerate() {
        let w0 = off + b * TRANSPOSE_BLOCK;
        let words = block.len() / lanes;
        for (lane, src) in srcs.iter().enumerate() {
            for (k, &value) in src[w0..w0 + words].iter().enumerate() {
                block[k * lanes + lane] = value;
            }
        }
    }
}

/// Lane → node transpose, the inverse of [`transpose_in`]: writes lane
/// `l` of the word-major `src` into `dsts[l]`, one [`TRANSPOSE_BLOCK`] at
/// a time.
fn transpose_out(src: &[f32], dsts: &mut [&mut [f32]]) {
    let lanes = dsts.len();
    for (b, block) in src.chunks(TRANSPOSE_BLOCK * lanes).enumerate() {
        let w0 = b * TRANSPOSE_BLOCK;
        let words = block.len() / lanes;
        for (lane, dst) in dsts.iter_mut().enumerate() {
            for (k, slot) in dst[w0..w0 + words].iter_mut().enumerate() {
                *slot = block[k * lanes + lane];
            }
        }
    }
}

/// A persistent lane mirror of the whole machine, partitioned into one
/// [`LaneMemory`] per host worker thread.
///
/// The partition is by contiguous node chunks of `ceil(nodes/threads)`,
/// matching how the lockstep runner splits node memories across threads,
/// so each worker owns exactly one group. Lane-domain copies and fills
/// (the halo exchange translated onto the mirror) address *machine* node
/// indices and cross group boundaries transparently.
///
/// The mirror is meant to live inside a long-lived execution plan: its
/// buffers are recycled across executes, and [`LaneMirror::allocations`]
/// counts every buffer (re)allocation so a steady state can be asserted
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct LaneMirror {
    groups: Vec<LaneMemory>,
    nodes: usize,
    chunk: usize,
    words: usize,
    allocations: u64,
    gathered_words: u64,
    row_gathered_words: u64,
    scattered_words: u64,
    lane_copied_words: u64,
}

/// Machine-total words below which mirror copies stay on the calling
/// thread: spawn/join overhead beats the memory bandwidth win for small
/// transfers, and every group already runs serially when the mirror has
/// a single group.
const PAR_COPY_THRESHOLD: usize = 1 << 15;

impl LaneMirror {
    /// An empty mirror; shape it with [`LaneMirror::ensure`].
    pub fn new() -> Self {
        LaneMirror::default()
    }

    /// Shapes the mirror to `words` lane words across `nodes` nodes split
    /// into `threads` contiguous groups (clamped to `1..=nodes`). A
    /// no-op when the shape already matches; otherwise buffers are
    /// recycled where lengths allow and the allocation counter records
    /// every buffer that had to grow or be created. Reshaping leaves the
    /// contents unspecified — gather before running.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn ensure(&mut self, words: usize, nodes: usize, threads: usize) {
        assert!(nodes > 0, "lane mirror needs at least one node");
        let threads = threads.clamp(1, nodes);
        let chunk = nodes.div_ceil(threads);
        if self.nodes == nodes && self.chunk == chunk && self.words == words {
            return;
        }
        let mut scratch: Vec<Vec<f32>> = self
            .groups
            .drain(..)
            .map(LaneMemory::into_scratch)
            .collect();
        let mut start = 0;
        while start < nodes {
            let group_nodes = chunk.min(nodes - start);
            let buf = scratch.pop().unwrap_or_default();
            if buf.len() != words * group_nodes {
                self.allocations += 1;
            }
            self.groups
                .push(LaneMemory::from_scratch(buf, words, group_nodes));
            start += group_nodes;
        }
        self.nodes = nodes;
        self.chunk = chunk;
        self.words = words;
    }

    /// Total machine nodes mirrored (zero before the first `ensure`).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Buffer (re)allocations performed since the mirror was created.
    /// Constant across steady-state reuse.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Machine-total words copied into the mirror by full-view gathers
    /// since the mirror was created. Monotonic; callers difference it
    /// around a run to attribute traffic.
    pub fn gathered_words(&self) -> u64 {
        self.gathered_words
    }

    /// Machine-total words copied into the mirror by rectangle gathers
    /// ([`LaneMirror::gather_rows`] — the lane-domain interior refresh).
    pub fn row_gathered_words(&self) -> u64 {
        self.row_gathered_words
    }

    /// Machine-total words scattered back to node memories (writable
    /// ranges only).
    pub fn scattered_words(&self) -> u64 {
        self.scattered_words
    }

    /// Words moved between lane columns by [`LaneMirror::copy_lane_run`]
    /// (the lane-domain halo exchange).
    pub fn lane_copied_words(&self) -> u64 {
        self.lane_copied_words
    }

    /// The per-thread groups, mutably — one contiguous node chunk each,
    /// in node order. This is what the lockstep runner fans out over.
    pub fn groups_mut(&mut self) -> &mut [LaneMemory] {
        &mut self.groups
    }

    #[inline]
    fn locate_lane(&self, node: usize) -> (usize, usize) {
        assert!(node < self.nodes, "node out of range");
        (node / self.chunk, node % self.chunk)
    }

    /// Runs `op(group, its node slice)` for every group — on the calling
    /// thread for small transfers, fanned across one host thread per
    /// group when `moved` machine-total words make it worthwhile. Groups
    /// own disjoint contiguous node chunks, so the fan-out is borrow-safe
    /// and (lanes never interacting) bit-deterministic.
    fn for_each_group(
        groups: &mut [LaneMemory],
        mems: &[NodeMemory],
        moved: usize,
        op: impl Fn(&mut LaneMemory, &[NodeMemory]) + Sync,
    ) {
        if groups.len() > 1 && moved >= PAR_COPY_THRESHOLD {
            std::thread::scope(|scope| {
                let mut rest = mems;
                for group in groups.iter_mut() {
                    let (mine, tail) = rest.split_at(group.nodes());
                    rest = tail;
                    let op = &op;
                    scope.spawn(move || op(group, mine));
                }
            });
        } else {
            let mut base = 0;
            for group in groups {
                let n = group.nodes();
                op(group, &mems[base..base + n]);
                base += n;
            }
        }
    }

    /// Copies every non-private viewed range of every node into the
    /// mirror, fanning groups across host threads for large views.
    ///
    /// # Panics
    ///
    /// Panics if `mems.len()` differs from the mirrored node count.
    pub fn gather(&mut self, view: &LaneView, mems: &[NodeMemory]) {
        assert_eq!(mems.len(), self.nodes, "one node memory per lane");
        let moved = view.gather_words() * self.nodes;
        let _t = cmcc_obs::trace::scope(cmcc_obs::trace::TraceOp::MirrorGather, moved as u64);
        Self::for_each_group(&mut self.groups, mems, moved, |group, mine| {
            group.gather(view, mine);
        });
        self.gathered_words += moved as u64;
    }

    /// Copies every *writable*, non-private viewed range back into node
    /// memories, fanning groups across host threads for large views.
    ///
    /// # Panics
    ///
    /// Panics if `mems.len()` differs from the mirrored node count.
    pub fn scatter(&mut self, view: &LaneView, mems: &mut [NodeMemory]) {
        assert_eq!(mems.len(), self.nodes, "one node memory per lane");
        let moved = view.scatter_words() * self.nodes;
        let _t = cmcc_obs::trace::scope(cmcc_obs::trace::TraceOp::MirrorScatter, moved as u64);
        if self.groups.len() > 1 && moved >= PAR_COPY_THRESHOLD {
            std::thread::scope(|scope| {
                let mut rest = &mut mems[..];
                for group in &self.groups {
                    let (mine, tail) = std::mem::take(&mut rest).split_at_mut(group.nodes());
                    rest = tail;
                    scope.spawn(move || group.scatter(view, mine));
                }
            });
        } else {
            let mut base = 0;
            for group in &self.groups {
                let n = group.nodes();
                group.scatter(view, &mut mems[base..base + n]);
                base += n;
            }
        }
        self.scattered_words += moved as u64;
    }

    /// Copies a rectangle of every node's memory into the mirror — see
    /// [`LaneMemory::gather_rows`]. Fans groups across host threads for
    /// large rectangles.
    ///
    /// # Panics
    ///
    /// Panics if `mems.len()` differs from the mirrored node count or a
    /// run is out of bounds.
    pub fn gather_rows(&mut self, mems: &[NodeMemory], rect: &RectCopy) {
        assert_eq!(mems.len(), self.nodes, "one node memory per lane");
        let moved = rect.rows * rect.cols * self.nodes;
        Self::for_each_group(&mut self.groups, mems, moved, |group, mine| {
            group.gather_rows(mine, rect);
        });
        self.row_gathered_words += moved as u64;
    }

    /// Like [`LaneMirror::gather_rows`], but counts the words as
    /// (partial) gather traffic — used to re-read one read-only operand
    /// whose node-memory image changed instead of re-gathering the
    /// whole view.
    ///
    /// # Panics
    ///
    /// Panics if `mems.len()` differs from the mirrored node count or a
    /// run is out of bounds.
    pub fn gather_rect(&mut self, mems: &[NodeMemory], rect: &RectCopy) {
        assert_eq!(mems.len(), self.nodes, "one node memory per lane");
        let moved = rect.rows * rect.cols * self.nodes;
        let _t = cmcc_obs::trace::scope(cmcc_obs::trace::TraceOp::MirrorGather, moved as u64);
        Self::for_each_group(&mut self.groups, mems, moved, |group, mine| {
            group.gather_rows(mine, rect);
        });
        self.gathered_words += moved as u64;
    }

    /// Whether node `node`'s lane column holds, bit for bit, what `rect`
    /// would copy from `mem` (that node's memory) — the check that a
    /// skipped refresh skipped nothing that changed.
    ///
    /// # Panics
    ///
    /// Panics if the node index or a run is out of range.
    pub fn holds_rect(&self, mem: &NodeMemory, node: usize, rect: &RectCopy) -> bool {
        let (g, l) = self.locate_lane(node);
        (0..rect.rows).all(|r| {
            let d0 = rect.dst0 + r * rect.dst_stride;
            mem.slice(rect.src0 + r * rect.src_stride, rect.cols)
                .iter()
                .enumerate()
                .all(|(k, v)| v.to_bits() == self.groups[g].lane_value(d0 + k, l).to_bits())
        })
    }

    /// Copies `len` lane words starting at `src` of node `from`'s lane
    /// column into `dst..` of node `to`'s — the lane-domain form of one
    /// halo-exchange copy. Source and destination runs must not overlap
    /// (exchange copies read a halo interior and write the halo ring,
    /// which are disjoint by construction).
    ///
    /// # Panics
    ///
    /// Panics if a node index or word run is out of range.
    pub fn copy_lane_run(&mut self, from: usize, src: usize, to: usize, dst: usize, len: usize) {
        let (gf, lf) = self.locate_lane(from);
        let (gt, lt) = self.locate_lane(to);
        for k in 0..len {
            let value = self.groups[gf].lane_value(src + k, lf);
            self.groups[gt].set_lane_value(dst + k, lt, value);
        }
        self.lane_copied_words += len as u64;
    }

    /// The vectorized form of `count` consecutive [`Self::copy_lane_run`]
    /// calls — node `from0 + i` to node `to0 + i` for `i < count`, all
    /// with the same word runs: per lane word, whole lane sub-slices move
    /// as single slice copies instead of `count × len` scalar transfers.
    /// Segments at thread-group boundaries on either side.
    ///
    /// The source and destination word runs must not overlap (halo
    /// exchange programs copy between disjoint buffers by construction);
    /// the *lane* runs may — within one group `copy_within` handles it.
    ///
    /// # Panics
    ///
    /// Panics if a node index or word run is out of range.
    pub fn copy_lane_span(
        &mut self,
        from0: usize,
        to0: usize,
        count: usize,
        src: usize,
        dst: usize,
        len: usize,
    ) {
        let mut done = 0;
        while done < count {
            let (gf, lf) = self.locate_lane(from0 + done);
            let (gt, lt) = self.locate_lane(to0 + done);
            let seg = (count - done)
                .min(self.groups[gf].nodes() - lf)
                .min(self.groups[gt].nodes() - lt);
            if gf == gt {
                let group = &mut self.groups[gf];
                for w in 0..len {
                    group.copy_lanes_within(src + w, lf, dst + w, lt, seg);
                }
            } else {
                let (lo, hi) = self.groups.split_at_mut(gf.max(gt));
                let (src_g, dst_g) = if gf < gt {
                    (&lo[gf], &mut hi[0])
                } else {
                    (&hi[0], &mut lo[gt])
                };
                for w in 0..len {
                    dst_g
                        .lanes_mut(dst + w, lt, seg)
                        .copy_from_slice(src_g.lanes(src + w, lf, seg));
                }
            }
            done += seg;
        }
        self.lane_copied_words += (count * len) as u64;
    }

    /// Fills `len` lane words starting at `w0` of node `node`'s lane
    /// column with `value` — the lane-domain form of one boundary
    /// zero-fill span.
    ///
    /// # Panics
    ///
    /// Panics if the node index or word run is out of range.
    pub fn fill_lane_run(&mut self, node: usize, w0: usize, len: usize, value: f32) {
        let (g, l) = self.locate_lane(node);
        for k in 0..len {
            self.groups[g].set_lane_value(w0 + k, l, value);
        }
    }
}

/// A bounded free-list of [`LaneMirror`]s shared across plan instances.
///
/// Tenants of a concurrent session come and go, and each instance owns a
/// mirror sized `view.words() × nodes`. Without pooling, every new
/// instance pays a fresh mirror allocation even when an identically
/// shaped tenant just retired. The pool recycles retired mirrors:
/// [`MirrorPool::take`] hands out the most recently returned one (its
/// buffers are reshaped by the next `ensure`, which is a no-op when the
/// shape matches — [`LaneMirror::allocations`] then stays flat), and
/// [`MirrorPool::put`] accepts a mirror back until the pool is full.
///
/// The pool is a plain mutex around a vec: take/put happen once per
/// instance creation/retirement, never on the per-iteration path.
#[derive(Debug, Default)]
pub struct MirrorPool {
    free: std::sync::Mutex<Vec<LaneMirror>>,
    capacity: usize,
    reused: std::sync::atomic::AtomicU64,
    returned: std::sync::atomic::AtomicU64,
    missed: std::sync::atomic::AtomicU64,
}

impl MirrorPool {
    /// An empty pool holding at most `capacity` retired mirrors.
    pub fn new(capacity: usize) -> Self {
        MirrorPool {
            free: std::sync::Mutex::new(Vec::new()),
            capacity,
            reused: std::sync::atomic::AtomicU64::new(0),
            returned: std::sync::atomic::AtomicU64::new(0),
            missed: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The most retired mirrors the pool will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hands out a pooled mirror, or a fresh empty one when the pool is
    /// dry. Pooled contents are unspecified — prime before use.
    pub fn take(&self) -> LaneMirror {
        self.take_counted().0
    }

    /// Like [`MirrorPool::take`], but also reports whether the take
    /// missed (found the free list empty and had to hand out a fresh
    /// mirror) — the signal the session turns into its
    /// `mirror_pool_misses` telemetry.
    pub fn take_counted(&self) -> (LaneMirror, bool) {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        match free.pop() {
            Some(m) => {
                self.reused
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                (m, false)
            }
            None => {
                self.missed
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                (LaneMirror::new(), true)
            }
        }
    }

    /// Returns a retired mirror to the pool; dropped when the pool is
    /// full or the mirror never allocated (nothing worth recycling).
    pub fn put(&self, mirror: LaneMirror) {
        if mirror.nodes() == 0 {
            return;
        }
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        if free.len() < self.capacity {
            free.push(mirror);
            self.returned
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Mirrors currently waiting in the pool.
    pub fn len(&self) -> usize {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the pool is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many takes were served from the pool instead of allocating.
    pub fn reuses(&self) -> u64 {
        self.reused.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// How many retired mirrors were accepted back into the pool.
    pub fn returns(&self) -> u64 {
        self.returned.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// How many takes found the pool dry and allocated a fresh mirror.
    /// The first take per distinct shape always misses; a steadily
    /// climbing count under a stable tenant load means the capacity is
    /// too small for the working set.
    pub fn misses(&self) -> u64 {
        self.missed.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Drops every pooled mirror (their host buffers free immediately).
    pub fn clear(&self) {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_assigns_lane_words_in_order() {
        let view = LaneView::new(&[(100, 4, false), (10, 2, true)]).unwrap();
        assert_eq!(view.words(), 6);
        assert_eq!(view.locate(100), Some((0, &view.ranges()[0])));
        assert_eq!(view.locate(103).unwrap().0, 3);
        assert_eq!(view.locate(10).unwrap().0, 4);
        assert_eq!(view.locate(11).unwrap().0, 5);
        assert!(view.locate(104).is_none());
        assert!(view.locate(12).is_none());
        assert!(view.locate(0).is_none());
    }

    #[test]
    fn overlapping_or_empty_ranges_are_rejected() {
        assert!(LaneView::new(&[(0, 4, false), (3, 4, false)]).is_none());
        assert!(LaneView::new(&[(0, 4, false), (0, 4, true)]).is_none());
        assert!(LaneView::new(&[(0, 0, false)]).is_none());
        // Touching (adjacent) ranges are fine.
        assert!(LaneView::new(&[(0, 4, false), (4, 4, false)]).is_some());
    }

    #[test]
    fn gather_transposes_node_major() {
        let view = LaneView::new(&[(2, 3, true)]).unwrap();
        let mut mems: Vec<NodeMemory> = (0..2).map(|_| NodeMemory::new(8)).collect();
        for (n, mem) in mems.iter_mut().enumerate() {
            for w in 0..3 {
                mem.write(2 + w, (10 * n + w) as f32);
            }
        }
        let mut lanes = LaneMemory::new(view.words(), 2);
        lanes.gather(&view, &mems);
        assert_eq!(lanes.word(0), &[0.0, 10.0]);
        assert_eq!(lanes.word(1), &[1.0, 11.0]);
        assert_eq!(lanes.word(2), &[2.0, 12.0]);
    }

    #[test]
    fn scatter_writes_only_writable_ranges() {
        let view = LaneView::new(&[(0, 2, false), (4, 2, true)]).unwrap();
        let mut mems: Vec<NodeMemory> = (0..2).map(|_| NodeMemory::new(8)).collect();
        let mut lanes = LaneMemory::new(view.words(), 2);
        for w in 0..4 {
            lanes
                .word_mut(w)
                .copy_from_slice(&[(w) as f32, (w + 10) as f32]);
        }
        lanes.scatter(&view, &mut mems);
        // Read-only range untouched…
        assert_eq!(mems[0].read(0), 0.0);
        assert_eq!(mems[1].read(1), 0.0);
        // …writable range landed, lane-per-node.
        assert_eq!(mems[0].read(4), 2.0);
        assert_eq!(mems[1].read(4), 12.0);
        assert_eq!(mems[0].read(5), 3.0);
        assert_eq!(mems[1].read(5), 13.0);
    }

    #[test]
    fn private_ranges_are_skipped_by_gather_and_scatter() {
        // word layout: [ro 0..2, private rw 4..6, rw 8..10]
        let view = LaneView::new_with_private(&[
            (0, 2, false, false),
            (4, 2, true, true),
            (8, 2, true, false),
        ])
        .unwrap();
        assert_eq!(view.words(), 6);
        assert_eq!(view.gather_words(), 4);
        assert_eq!(view.scatter_words(), 2);
        let mut mems: Vec<NodeMemory> = (0..2).map(|_| NodeMemory::new(12)).collect();
        for (n, mem) in mems.iter_mut().enumerate() {
            mem.write(4, 100.0 + n as f32);
            mem.write(5, 200.0 + n as f32);
        }
        let mut lanes = LaneMemory::new(view.words(), 2);
        for w in 0..6 {
            lanes
                .word_mut(w)
                .copy_from_slice(&[w as f32, (w + 10) as f32]);
        }
        lanes.gather(&view, &mems);
        // Private lane words survive the gather untouched…
        assert_eq!(lanes.word(2), &[2.0, 12.0]);
        assert_eq!(lanes.word(3), &[3.0, 13.0]);
        // …while the plain writable range was gathered over. Emulate a
        // kernel rewriting it so the scatter has something to land.
        lanes.word_mut(4).copy_from_slice(&[4.0, 14.0]);
        lanes.word_mut(5).copy_from_slice(&[5.0, 15.0]);
        lanes.scatter(&view, &mut mems);
        // …and the node image behind them survives the scatter.
        assert_eq!(mems[0].read(4), 100.0);
        assert_eq!(mems[1].read(5), 201.0);
        // The plain writable range still lands.
        assert_eq!(mems[0].read(8), 4.0);
        assert_eq!(mems[1].read(9), 15.0);
    }

    /// A distinct, exactly representable value per (node, address).
    fn pattern(node: usize, addr: usize) -> f32 {
        (node * 1000 + addr) as f32 * 0.25 + 0.125
    }

    fn patterned_mems(nodes: usize, words: usize) -> Vec<NodeMemory> {
        (0..nodes)
            .map(|n| {
                let mut mem = NodeMemory::new(words);
                for w in 0..words {
                    mem.write(w, pattern(n, w));
                }
                mem
            })
            .collect()
    }

    fn bits(data: &[f32]) -> Vec<u32> {
        data.iter().map(|v| v.to_bits()).collect()
    }

    /// The unblocked word-outer, lane-inner order every copy used before
    /// blocking — the reference the blocked copies must equal.
    fn reference_gather(lanes: &mut LaneMemory, view: &LaneView, mems: &[NodeMemory]) {
        for range in view.ranges().iter().filter(|r| !r.private) {
            for w in 0..range.len {
                for (lane, mem) in mems.iter().enumerate() {
                    lanes.set_lane_value(range.lane_base + w, lane, mem.read(range.node_base + w));
                }
            }
        }
    }

    fn reference_gather_rows(lanes: &mut LaneMemory, mems: &[NodeMemory], rect: &RectCopy) {
        for r in 0..rect.rows {
            for w in 0..rect.cols {
                for (lane, mem) in mems.iter().enumerate() {
                    let value = mem.read(rect.src0 + r * rect.src_stride + w);
                    lanes.set_lane_value(rect.dst0 + r * rect.dst_stride + w, lane, value);
                }
            }
        }
    }

    fn reference_scatter(lanes: &LaneMemory, view: &LaneView, mems: &mut [NodeMemory]) {
        for range in view.ranges().iter().filter(|r| r.writable && !r.private) {
            for w in 0..range.len {
                for (lane, mem) in mems.iter_mut().enumerate() {
                    mem.write(
                        range.node_base + w,
                        lanes.lane_value(range.lane_base + w, lane),
                    );
                }
            }
        }
    }

    /// Node memory words the blocking cases below address.
    const MEM_WORDS: usize = 8 * TRANSPOSE_BLOCK;

    /// Ranges covering a run shorter than one block, an exact block
    /// multiple and a ragged tail.
    fn blocking_view() -> LaneView {
        LaneView::new(&[
            (3, 5, true),
            (16, 2 * TRANSPOSE_BLOCK, false),
            (3 * TRANSPOSE_BLOCK, 2 * TRANSPOSE_BLOCK + 7, true),
        ])
        .unwrap()
    }

    /// Three ragged runs, strided wider than they are long.
    fn blocking_rect() -> RectCopy {
        RectCopy {
            src0: 9,
            src_stride: TRANSPOSE_BLOCK + 11,
            dst0: 2,
            dst_stride: TRANSPOSE_BLOCK + 3,
            rows: 3,
            cols: TRANSPOSE_BLOCK + 5,
        }
    }

    #[test]
    fn blocked_copies_match_the_reference_order() {
        let view = blocking_view();
        let rect = blocking_rect();
        for nodes in [1, 5, 16] {
            let mems = patterned_mems(nodes, MEM_WORDS);
            // gather
            let mut blocked = LaneMemory::new(view.words(), nodes);
            blocked.gather(&view, &mems);
            let mut reference = LaneMemory::new(view.words(), nodes);
            reference_gather(&mut reference, &view, &mems);
            assert_eq!(
                bits(&blocked.data),
                bits(&reference.data),
                "gather, {nodes} lanes"
            );
            // gather_rows
            let mut blocked = LaneMemory::new(view.words(), nodes);
            blocked.gather_rows(&mems, &rect);
            let mut reference = LaneMemory::new(view.words(), nodes);
            reference_gather_rows(&mut reference, &mems, &rect);
            assert_eq!(
                bits(&blocked.data),
                bits(&reference.data),
                "gather_rows, {nodes} lanes"
            );
            // scatter, from a mirror whose every lane word is distinct
            let mut lanes = LaneMemory::new(view.words(), nodes);
            for w in 0..view.words() {
                for lane in 0..nodes {
                    lanes.set_lane_value(w, lane, -pattern(lane, w));
                }
            }
            let mut blocked = patterned_mems(nodes, MEM_WORDS);
            lanes.scatter(&view, &mut blocked);
            let mut reference = patterned_mems(nodes, MEM_WORDS);
            reference_scatter(&lanes, &view, &mut reference);
            assert_eq!(blocked, reference, "scatter, {nodes} lanes");
        }
    }

    /// `mems` with every word negated: a second image to refresh from.
    fn negated(mems: &[NodeMemory]) -> Vec<NodeMemory> {
        mems.iter()
            .map(|m| {
                let mut m = m.clone();
                for w in 0..m.capacity() {
                    m.write(w, -m.read(w));
                }
                m
            })
            .collect()
    }

    /// Builds a mirror of `mems.len()` nodes over `threads` groups,
    /// gathered from `mems`, then refreshed through `rect` from their
    /// negation so the rectangle copy shows in what gets scattered.
    fn primed_mirror(
        view: &LaneView,
        mems: &[NodeMemory],
        rect: &RectCopy,
        threads: usize,
    ) -> LaneMirror {
        let mut mirror = LaneMirror::new();
        mirror.ensure(view.words(), mems.len(), threads);
        mirror.gather(view, mems);
        mirror.gather_rows(&negated(mems), rect);
        mirror
    }

    /// Above `PAR_COPY_THRESHOLD` every copy fans out across threads; 5
    /// nodes over 2 groups (3+2) must give bit for bit what one serial
    /// group gives, with equal word counters.
    #[test]
    fn mirror_threaded_copies_match_serial_for_large_views() {
        let words = PAR_COPY_THRESHOLD / 4 + 7;
        let view = LaneView::new(&[(5, 40, false), (64, words, true)]).unwrap();
        let rect = RectCopy {
            src0: 70,
            src_stride: 130,
            dst0: 41,
            dst_stride: 129,
            rows: words / 130,
            cols: 111,
        };
        assert!(rect.rows * rect.cols * 5 >= PAR_COPY_THRESHOLD);
        let mems = patterned_mems(5, 64 + words);
        let run = |threads: usize| {
            let mut mirror = primed_mirror(&view, &mems, &rect, threads);
            let lanes: Vec<u32> = (0..view.words())
                .flat_map(|w| {
                    let mirror = &mirror;
                    (0..5).map(move |n| {
                        let (g, l) = mirror.locate_lane(n);
                        mirror.groups[g].lane_value(w, l).to_bits()
                    })
                })
                .collect();
            let mut direct = patterned_mems(5, 64 + words);
            mirror.scatter(&view, &mut direct);
            let counters = (
                mirror.gathered_words(),
                mirror.row_gathered_words(),
                mirror.scattered_words(),
            );
            (lanes, direct, counters)
        };
        let (par_lanes, par_direct, par_counters) = run(2);
        let (ser_lanes, ser_direct, ser_counters) = run(1);
        assert_eq!(par_lanes, ser_lanes, "gather + gather_rows diverged");
        assert_eq!(par_direct, ser_direct, "scatter diverged");
        assert_eq!(par_counters, ser_counters);
    }

    #[test]
    fn mirror_partitions_nodes_into_contiguous_groups() {
        let view = LaneView::new(&[(0, 3, true)]).unwrap();
        let mut mems: Vec<NodeMemory> = (0..5).map(|_| NodeMemory::new(8)).collect();
        for (n, mem) in mems.iter_mut().enumerate() {
            for w in 0..3 {
                mem.write(w, (100 * n + w) as f32);
            }
        }
        // 5 nodes over 2 threads → chunks of 3 and 2.
        let mut mirror = LaneMirror::new();
        mirror.ensure(view.words(), 5, 2);
        assert_eq!(mirror.groups_mut().len(), 2);
        assert_eq!(mirror.groups_mut()[0].nodes(), 3);
        assert_eq!(mirror.groups_mut()[1].nodes(), 2);
        mirror.gather(&view, &mems);
        assert_eq!(mirror.groups_mut()[0].word(1), &[1.0, 101.0, 201.0]);
        assert_eq!(mirror.groups_mut()[1].word(1), &[301.0, 401.0]);
        // Scatter lands every lane back in its own node.
        let mut out: Vec<NodeMemory> = (0..5).map(|_| NodeMemory::new(8)).collect();
        mirror.scatter(&view, &mut out);
        for (n, mem) in out.iter().enumerate() {
            for w in 0..3 {
                assert_eq!(mem.read(w), (100 * n + w) as f32);
            }
        }
    }

    #[test]
    fn mirror_reuse_performs_no_allocations() {
        let mut mirror = LaneMirror::new();
        mirror.ensure(6, 4, 2);
        let after_first = mirror.allocations();
        assert!(after_first > 0);
        for _ in 0..10 {
            mirror.ensure(6, 4, 2);
        }
        assert_eq!(
            mirror.allocations(),
            after_first,
            "steady-state ensure reallocates"
        );
        // Reshaping to the same total lengths recycles the buffers.
        mirror.ensure(6, 4, 2);
        assert_eq!(mirror.allocations(), after_first);
    }

    #[test]
    fn mirror_copies_lane_runs_across_group_boundaries() {
        let mut mirror = LaneMirror::new();
        mirror.ensure(4, 4, 2); // two groups of 2 nodes
        for w in 0..4 {
            mirror.fill_lane_run(1, w, 1, (10 + w) as f32);
        }
        // node 1 (group 0) → node 3 (group 1)
        mirror.copy_lane_run(1, 1, 3, 0, 3);
        assert_eq!(mirror.groups_mut()[1].lane_value(0, 1), 11.0);
        assert_eq!(mirror.groups_mut()[1].lane_value(1, 1), 12.0);
        assert_eq!(mirror.groups_mut()[1].lane_value(2, 1), 13.0);
        // Same-group copy: node 3 → node 2.
        mirror.copy_lane_run(3, 0, 2, 0, 2);
        assert_eq!(mirror.groups_mut()[1].lane_value(0, 0), 11.0);
        assert_eq!(mirror.groups_mut()[1].lane_value(1, 0), 12.0);
        // Untouched lanes stay zero.
        assert_eq!(mirror.groups_mut()[0].lane_value(0, 0), 0.0);
    }

    /// `copy_lane_span` must equal `count` scalar `copy_lane_run`s for
    /// every segmentation the group layout can force: spans fully inside
    /// one group (including overlapping source/destination lane runs,
    /// the `copy_within` path), spans crossing a group boundary on one
    /// side only, and spans that segment at different points on the two
    /// sides because source and destination straddle the boundary at
    /// different offsets.
    #[test]
    fn span_copy_segments_exactly_like_scalar_runs() {
        // 7 nodes over 3 threads → groups of 3, 2, 2: boundaries at
        // nodes 3 and 5.
        let (words, nodes, threads, len) = (6, 7, 3, 2);
        let fresh = || {
            let mut mirror = LaneMirror::new();
            mirror.ensure(words, nodes, threads);
            for node in 0..nodes {
                for w in 0..words {
                    mirror.fill_lane_run(node, w, 1, (node * 100 + w * 7) as f32);
                }
            }
            mirror
        };
        // (from0, to0, count): same-group overlap, boundary-crossing,
        // asymmetric straddle (source crosses at node 3 while the
        // destination crosses at node 5), and a whole-machine sweep.
        let cases = [(0, 1, 2), (1, 4, 3), (2, 4, 3), (0, 0, 7), (5, 1, 2)];
        for (from0, to0, count) in cases {
            let mut spanned = fresh();
            spanned.copy_lane_span(from0, to0, count, 1, 4, len);
            let mut scalar = fresh();
            for i in 0..count {
                scalar.copy_lane_run(from0 + i, 1, to0 + i, 4, len);
            }
            assert_eq!(
                spanned.lane_copied_words(),
                scalar.lane_copied_words(),
                "span ({from0},{to0},{count}): word accounting diverged"
            );
            for node in 0..nodes {
                for w in 0..words {
                    let (g, l) = spanned.locate_lane(node);
                    assert_eq!(
                        spanned.groups_mut()[g].lane_value(w, l),
                        scalar.groups_mut()[g].lane_value(w, l),
                        "span ({from0},{to0},{count}): node {node} word {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn mirror_gather_rows_mirrors_a_node_rectangle() {
        let mut mems: Vec<NodeMemory> = (0..3).map(|_| NodeMemory::new(16)).collect();
        for (n, mem) in mems.iter_mut().enumerate() {
            for w in 0..16 {
                mem.write(w, (100 * n + w) as f32);
            }
        }
        let mut mirror = LaneMirror::new();
        mirror.ensure(12, 3, 3); // one node per group
                                 // 2 rows × 3 cols from node address 4, stride 4 → lane words 1..,
                                 // stride 5.
        mirror.gather_rows(
            &mems,
            &RectCopy {
                src0: 4,
                src_stride: 4,
                dst0: 1,
                dst_stride: 5,
                rows: 2,
                cols: 3,
            },
        );
        for n in 0..3 {
            assert_eq!(
                mirror.groups_mut()[n].lane_value(1, 0),
                (100 * n + 4) as f32
            );
            assert_eq!(
                mirror.groups_mut()[n].lane_value(3, 0),
                (100 * n + 6) as f32
            );
            assert_eq!(
                mirror.groups_mut()[n].lane_value(6, 0),
                (100 * n + 8) as f32
            );
            assert_eq!(
                mirror.groups_mut()[n].lane_value(8, 0),
                (100 * n + 10) as f32
            );
        }
    }

    #[test]
    fn gather_scatter_round_trips() {
        let view = LaneView::new(&[(1, 5, true)]).unwrap();
        let mut mems: Vec<NodeMemory> = (0..3).map(|_| NodeMemory::new(8)).collect();
        for (n, mem) in mems.iter_mut().enumerate() {
            for w in 0..5 {
                mem.write(1 + w, (n * 100 + w * 7) as f32);
            }
        }
        let before: Vec<NodeMemory> = mems.clone();
        let mut lanes = LaneMemory::new(view.words(), 3);
        lanes.gather(&view, &mems);
        lanes.scatter(&view, &mut mems);
        assert_eq!(mems, before);
    }

    #[test]
    fn mirror_pool_recycles_shaped_mirrors_without_reallocating() {
        let pool = MirrorPool::new(2);
        assert!(pool.is_empty());

        // A fresh take allocates nothing by itself; shaping it does.
        let mut m = pool.take();
        assert_eq!(pool.reuses(), 0);
        m.ensure(6, 4, 2);
        let allocs = m.allocations();
        assert!(allocs > 0);

        // Unshaped mirrors are not worth pooling.
        pool.put(LaneMirror::new());
        assert!(pool.is_empty());

        pool.put(m);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.returns(), 1);

        // A same-shape tenant reuses the buffers: `ensure` is a no-op
        // and the allocation counter stays flat.
        let mut again = pool.take();
        assert_eq!(pool.reuses(), 1);
        again.ensure(6, 4, 2);
        assert_eq!(again.allocations(), allocs);

        // The pool is bounded: a third return on capacity 2 is dropped.
        pool.put(again);
        let mut b = LaneMirror::new();
        b.ensure(3, 2, 1);
        let mut c = LaneMirror::new();
        c.ensure(3, 2, 1);
        pool.put(b);
        pool.put(c);
        assert_eq!(pool.len(), 2);

        pool.clear();
        assert!(pool.is_empty());
    }
}
