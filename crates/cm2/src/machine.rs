//! The simulated machine: a SIMD array of nodes plus the shared field
//! allocator and the node grid.
//!
//! # Parallel execution
//!
//! The real CM-2 runs every node *simultaneously*; this simulator can
//! too. Per-node state lives in disjoint [`NodeMemory`] values, so the
//! borrow checker proves that node executions cannot alias:
//! [`Machine::par_nodes_mut`] yields every node's memory exactly once,
//! [`Machine::node_slices_mut`] partitions the nodes into contiguous
//! disjoint slices for worker threads, and
//! [`Machine::run_schedule_all`] fans a whole strip schedule out across
//! host threads — one SIMD instruction stream, many cores. The kernel,
//! strip contexts, and machine configuration are plain shared data
//! (`Send + Sync`), so no locks are needed and results are bit-identical
//! to the serial path by construction.

use crate::config::MachineConfig;
use crate::exec::{
    run_resolved_strip, run_strip, ExecMode, HazardError, ResolvedStrip, ScheduleStep, StripRun,
};
use crate::grid::{NodeGrid, NodeId};
use crate::memory::{Field, FieldAllocator, NodeMemory, OutOfMemory};
use std::collections::HashMap;

/// A simulated CM-2: `rows × cols` nodes, each with its own memory,
/// executing identical instruction streams (SIMD).
///
/// # Examples
///
/// ```
/// use cmcc_cm2::config::MachineConfig;
/// use cmcc_cm2::machine::Machine;
///
/// let mut machine = Machine::new(MachineConfig::tiny_4())?;
/// let field = machine.alloc_field(64)?;
/// machine.mem_mut(cmcc_cm2::grid::NodeId(0)).fill_field(field, 3.0);
/// assert_eq!(machine.mem(cmcc_cm2::grid::NodeId(0)).field(field)[0], 3.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    grid: NodeGrid,
    nodes: Vec<NodeMemory>,
    allocator: FieldAllocator,
    /// The write generation of every allocated field, keyed by field
    /// base: a machine-wide monotonic stamp taken at allocation and at
    /// every write through [`Machine::note_write`]. Lane-resident plans
    /// remember the stamp of each operand they copied into their mirror
    /// and re-read exactly the operands whose stamp moved. Entries of
    /// freed fields linger until their base is allocated again, which
    /// re-stamps it — stamps are never reused, so a record taken
    /// against an old field can never match a new one.
    generations: HashMap<usize, u64>,
    /// The last stamp handed out.
    generation_clock: u64,
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// # Errors
    ///
    /// Returns the configuration's own validation message if it is
    /// inconsistent.
    pub fn new(config: MachineConfig) -> Result<Self, String> {
        config.validate()?;
        let grid = NodeGrid::new(config.grid_rows, config.grid_cols);
        let nodes = (0..grid.len())
            .map(|_| NodeMemory::new(config.node_memory_words))
            .collect();
        let allocator = FieldAllocator::new(config.node_memory_words);
        Ok(Machine {
            config,
            grid,
            nodes,
            allocator,
            generations: HashMap::new(),
            generation_clock: 0,
        })
    }

    /// Records a write to `field`: stamps it with a fresh generation.
    /// Every path that stores into a user array calls this once per
    /// write — the host array API, every in-place engine for its result,
    /// and the lane-resident scatter. Plan-private fields (halo buffers,
    /// constant and literal pages, scratch) need no stamps: only their
    /// own plan reads them.
    pub fn note_write(&mut self, field: Field) {
        self.generation_clock += 1;
        self.generations.insert(field.base(), self.generation_clock);
    }

    /// The write generation of `field` (see [`Machine::note_write`]).
    /// Two equal readings bracket a span in which nothing wrote it.
    /// Zero for a base this machine never allocated.
    pub fn generation(&self, field: Field) -> u64 {
        self.generations.get(&field.base()).copied().unwrap_or(0)
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The node grid.
    pub fn grid(&self) -> NodeGrid {
        self.grid
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.grid.len()
    }

    /// Allocates a field of `len` words on every node (SIMD addressing:
    /// the same addresses are valid machine-wide).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when node memory is exhausted.
    pub fn alloc_field(&mut self, len: usize) -> Result<Field, OutOfMemory> {
        let field = self.allocator.alloc(len)?;
        self.note_write(field);
        Ok(field)
    }

    /// Allocates a plan-lifetime field on every node from the persistent
    /// arena at the top of memory. Unlike [`Machine::alloc_field`], the
    /// allocation survives [`Machine::release_to`] and must be returned
    /// with [`Machine::free_field_persistent`].
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when node memory is exhausted.
    pub fn alloc_field_persistent(&mut self, len: usize) -> Result<Field, OutOfMemory> {
        let field = self.allocator.alloc_persistent(len)?;
        self.note_write(field);
        Ok(field)
    }

    /// Returns a persistent field to the arena.
    ///
    /// # Panics
    ///
    /// Panics if `field` was not allocated with
    /// [`Machine::alloc_field_persistent`].
    pub fn free_field_persistent(&mut self, field: Field) {
        self.allocator.free_persistent(field);
    }

    /// Total successful field allocations so far (temporary and
    /// persistent). Subtract two readings to assert a code path performs
    /// no allocations.
    pub fn alloc_count(&self) -> u64 {
        self.allocator.alloc_count()
    }

    /// Words currently held by the persistent arena (per node).
    pub fn persistent_used(&self) -> usize {
        self.allocator.persistent_used()
    }

    /// Checkpoint for LIFO release of temporary fields.
    pub fn alloc_mark(&self) -> usize {
        self.allocator.mark()
    }

    /// Releases all fields allocated after `mark` (on every node).
    pub fn release_to(&mut self, mark: usize) {
        self.allocator.release_to(mark);
    }

    /// One node's memory.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn mem(&self, id: NodeId) -> &NodeMemory {
        &self.nodes[id.0]
    }

    /// One node's memory, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn mem_mut(&mut self, id: NodeId) -> &mut NodeMemory {
        &mut self.nodes[id.0]
    }

    /// Two distinct nodes' memories, mutably (for exchanges).
    ///
    /// # Panics
    ///
    /// Panics if the ids are equal or out of range.
    pub fn mem_pair_mut(&mut self, a: NodeId, b: NodeId) -> (&mut NodeMemory, &mut NodeMemory) {
        assert_ne!(a, b, "mem_pair_mut requires distinct nodes");
        if a.0 < b.0 {
            let (lo, hi) = self.nodes.split_at_mut(b.0);
            (&mut lo[a.0], &mut hi[0])
        } else {
            let (lo, hi) = self.nodes.split_at_mut(a.0);
            (&mut hi[0], &mut lo[b.0])
        }
    }

    /// Copies `len` words from `src_addr` on node `src` to `dst_addr` on
    /// node `dst`. This is the data-movement half of a grid exchange; the
    /// caller separately charges the cycle cost from [`crate::news`].
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes or addresses.
    pub fn copy_region(
        &mut self,
        src: NodeId,
        src_addr: usize,
        dst: NodeId,
        dst_addr: usize,
        len: usize,
    ) {
        if src == dst {
            self.mem_mut(src).copy_within(src_addr, dst_addr, len);
            return;
        }
        let (s, d) = self.mem_pair_mut(src, dst);
        d.copy_from(dst_addr, s.slice(src_addr, len));
    }

    /// Every node's memory, mutably, each exactly once, in node order.
    ///
    /// The disjointness is structural (one `&mut` per vector element), so
    /// overlapping access is unrepresentable: the iterator is the only
    /// borrow of `self` while it lives.
    pub fn par_nodes_mut(
        &mut self,
    ) -> impl ExactSizeIterator<Item = (NodeId, &mut NodeMemory)> + '_ {
        self.nodes
            .iter_mut()
            .enumerate()
            .map(|(i, mem)| (NodeId(i), mem))
    }

    /// Partitions the nodes into at most `parts` contiguous, disjoint
    /// slices (the unit of work one host thread takes in
    /// [`Machine::run_schedule_all`]). `parts` is clamped to
    /// `1..=node_count`; every node appears in exactly one slice, in node
    /// order.
    pub fn node_slices_mut(&mut self, parts: usize) -> Vec<NodeSlice<'_>> {
        let parts = parts.clamp(1, self.nodes.len());
        let chunk = self.nodes.len().div_ceil(parts);
        self.nodes
            .chunks_mut(chunk)
            .enumerate()
            .map(|(i, mems)| NodeSlice {
                first: NodeId(i * chunk),
                mems,
            })
            .collect()
    }

    /// The machine configuration together with every node memory as one
    /// disjoint mutable slice — the split borrow the parallel engine
    /// needs (config shared and immutable, node state exclusive).
    pub fn exec_parts_mut(&mut self) -> (&MachineConfig, &mut [NodeMemory]) {
        (&self.config, &mut self.nodes)
    }

    /// The shared-borrow counterpart of [`Machine::exec_parts_mut`]: the
    /// configuration plus every node memory, read-only. This is the view
    /// a lane-resident execute refreshes its private mirror from — many
    /// tenants may hold it at once under a shared machine lock, because
    /// the refresh only *reads* node memory. The kernel sweep then runs
    /// on the mirror with no lock held, and the result's scatter back
    /// takes [`Machine::exec_parts_mut`] under a brief exclusive lock.
    pub fn exec_parts(&self) -> (&MachineConfig, &[NodeMemory]) {
        (&self.config, &self.nodes)
    }

    /// Executes an entire strip schedule on every node, fanning the nodes
    /// out over up to `threads` host threads (`1` = the serial path;
    /// clamped to `1..=node_count`).
    ///
    /// Returns one [`StripRun`] per schedule step. The reduction over
    /// nodes is deterministic and thread-count invariant: the machine is
    /// a lockstep SIMD array, so per-step cycle counts agree across nodes
    /// (checked with a debug assertion) and the reduced count is the
    /// per-step maximum — the array advances at the pace of its slowest
    /// node. Nodes are reduced in node order regardless of which thread
    /// ran them, so the result is bit-identical for every `threads`
    /// value.
    ///
    /// # Errors
    ///
    /// Returns [`HazardError`] if the kernel is miscompiled (cycle mode);
    /// when several nodes fault, the lowest-numbered node's error is
    /// returned, again independent of thread count.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (a kernel addressing bug).
    pub fn run_schedule_all(
        &mut self,
        schedule: &[ScheduleStep<'_>],
        mode: ExecMode,
        threads: usize,
    ) -> Result<Vec<StripRun>, HazardError> {
        if schedule.is_empty() {
            return Ok(Vec::new());
        }
        let threads = threads.clamp(1, self.nodes.len());
        let config = &self.config;
        let run_node = |mem: &mut NodeMemory| -> Result<Vec<StripRun>, HazardError> {
            schedule
                .iter()
                .map(|step| run_strip(step.kernel, &step.ctx, mem, config, mode))
                .collect()
        };
        let per_node: Vec<Result<Vec<StripRun>, HazardError>> = if threads == 1 {
            self.nodes.iter_mut().map(run_node).collect()
        } else {
            let run_node = &run_node;
            let chunk = self.nodes.len().div_ceil(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .nodes
                    .chunks_mut(chunk)
                    .map(|mems| {
                        scope.spawn(move || mems.iter_mut().map(run_node).collect::<Vec<_>>())
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("node worker panicked"))
                    .collect()
            })
        };
        reduce_node_runs(per_node)
    }

    /// Executes a pre-resolved strip sequence on every node, fanning the
    /// nodes out over up to `threads` host threads — the plan-execution
    /// counterpart of [`Machine::run_schedule_all`], with the same
    /// deterministic, thread-count-invariant reduction (per-strip cycles
    /// agree across the lockstep SIMD nodes; the per-node totals are
    /// absorbed into one [`StripRun`]).
    ///
    /// # Errors
    ///
    /// Returns [`HazardError`] if a strip is miscompiled (cycle mode);
    /// when several nodes fault, the lowest-numbered node's error wins,
    /// independent of thread count.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (a kernel addressing bug).
    pub fn run_resolved_all(
        &mut self,
        strips: &[ResolvedStrip],
        mode: ExecMode,
        threads: usize,
    ) -> Result<StripRun, HazardError> {
        if strips.is_empty() {
            return Ok(StripRun::default());
        }
        let _t = cmcc_obs::trace::scope(cmcc_obs::trace::TraceOp::KernelSweep, strips.len() as u64);
        cmcc_obs::add(
            cmcc_obs::Counter::ScalarSteps,
            strips.iter().map(|s| s.steps()).sum(),
        );
        let threads = threads.clamp(1, self.nodes.len());
        let config = &self.config;
        let run_node = |mem: &mut NodeMemory| -> Result<StripRun, HazardError> {
            let mut total = StripRun::default();
            for strip in strips {
                total.absorb(&run_resolved_strip(strip, mem, config, mode)?);
            }
            Ok(total)
        };
        let per_node: Vec<Result<StripRun, HazardError>> = if threads == 1 {
            let _cpu = cmcc_obs::span(cmcc_obs::Phase::ExecuteWorkers);
            self.nodes.iter_mut().map(run_node).collect()
        } else {
            let run_node = &run_node;
            let chunk = self.nodes.len().div_ceil(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .nodes
                    .chunks_mut(chunk)
                    .map(|mems| {
                        scope.spawn(move || {
                            let _cpu = cmcc_obs::span(cmcc_obs::Phase::ExecuteWorkers);
                            mems.iter_mut().map(run_node).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("node worker panicked"))
                    .collect()
            })
        };
        let mut reduced: Option<StripRun> = None;
        for result in per_node {
            let run = result?;
            match &mut reduced {
                None => reduced = Some(run),
                Some(acc) => {
                    debug_assert_eq!(*acc, run, "SIMD nodes must agree on cycle counts");
                    acc.cycles = acc.cycles.max(run.cycles);
                }
            }
        }
        Ok(reduced.expect("machine has at least one node"))
    }
}

/// A contiguous group of nodes handed to one worker thread.
///
/// Produced only by [`Machine::node_slices_mut`], whose `chunks_mut`
/// construction guarantees the slices are disjoint and cover every node
/// exactly once.
#[derive(Debug)]
pub struct NodeSlice<'a> {
    first: NodeId,
    mems: &'a mut [NodeMemory],
}

impl<'a> NodeSlice<'a> {
    /// The first node in the slice.
    pub fn first(&self) -> NodeId {
        self.first
    }

    /// Number of nodes in the slice.
    pub fn len(&self) -> usize {
        self.mems.len()
    }

    /// Whether the slice is empty (never true for
    /// [`Machine::node_slices_mut`] output).
    pub fn is_empty(&self) -> bool {
        self.mems.is_empty()
    }

    /// Iterates the slice's nodes in node order.
    pub fn iter_mut(&mut self) -> impl ExactSizeIterator<Item = (NodeId, &mut NodeMemory)> + '_ {
        let first = self.first.0;
        self.mems
            .iter_mut()
            .enumerate()
            .map(move |(i, mem)| (NodeId(first + i), mem))
    }
}

/// Reduces per-node schedule results (in node order) to one result per
/// step: first error in node order wins; otherwise per-step cycles take
/// the max over nodes (they agree — lockstep SIMD — which a debug
/// assertion checks) and the remaining counters are the shared per-node
/// values.
fn reduce_node_runs(
    per_node: Vec<Result<Vec<StripRun>, HazardError>>,
) -> Result<Vec<StripRun>, HazardError> {
    let mut reduced: Option<Vec<StripRun>> = None;
    for result in per_node {
        let runs = result?;
        match &mut reduced {
            None => reduced = Some(runs),
            Some(acc) => {
                debug_assert_eq!(acc.len(), runs.len());
                for (a, r) in acc.iter_mut().zip(&runs) {
                    debug_assert_eq!(a, r, "SIMD nodes must agree on cycle counts");
                    a.cycles = a.cycles.max(r.cycles);
                }
            }
        }
    }
    Ok(reduced.expect("machine has at least one node"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::StripContext;
    use crate::grid::Direction;
    use crate::isa::Kernel;

    fn machine() -> Machine {
        Machine::new(MachineConfig::tiny_4()).unwrap()
    }

    #[test]
    fn construction_matches_config() {
        let m = machine();
        assert_eq!(m.node_count(), 4);
        assert_eq!(m.grid().rows(), 2);
    }

    /// Write generations: every allocation and every noted write takes
    /// a fresh stamp, per field, and a base allocated again after a
    /// release never reuses an old stamp.
    #[test]
    fn write_generations_are_per_field_and_never_reused() {
        let mut m = machine();
        let mark = m.alloc_mark();
        let a = m.alloc_field(8).unwrap();
        let b = m.alloc_field(8).unwrap();
        let (ga, gb) = (m.generation(a), m.generation(b));
        assert!(ga > 0 && gb > ga, "allocation stamps each field");
        m.note_write(b);
        assert_eq!(m.generation(a), ga, "a write to b leaves a alone");
        assert!(m.generation(b) > gb);
        let seen = m.generation(b);
        m.release_to(mark);
        let again = m.alloc_field(8).unwrap();
        assert_eq!(again.base(), a.base());
        assert!(
            m.generation(again) > seen,
            "a reallocated base is restamped"
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = MachineConfig::tiny_4();
        cfg.grid_cols = 0;
        assert!(Machine::new(cfg).is_err());
    }

    #[test]
    fn fields_are_shared_addresses_private_data() {
        let mut m = machine();
        let f = m.alloc_field(8).unwrap();
        let n0 = m.grid().id(0, 0);
        let n1 = m.grid().id(0, 1);
        m.mem_mut(n0).fill_field(f, 1.0);
        m.mem_mut(n1).fill_field(f, 2.0);
        assert_eq!(m.mem(n0).field(f)[0], 1.0);
        assert_eq!(m.mem(n1).field(f)[0], 2.0);
    }

    #[test]
    fn copy_region_moves_between_nodes() {
        let mut m = machine();
        let f = m.alloc_field(4).unwrap();
        let a = m.grid().id(0, 0);
        let b = m.grid().neighbor(a, Direction::East);
        m.mem_mut(a).fill_field(f, 5.0);
        m.copy_region(a, f.base(), b, f.base(), 4);
        assert_eq!(m.mem(b).field(f), &[5.0; 4]);
    }

    #[test]
    fn copy_region_within_one_node() {
        let mut m = machine();
        let f = m.alloc_field(8).unwrap();
        let a = m.grid().id(1, 1);
        m.mem_mut(a).write(f.addr(0), 9.0);
        m.copy_region(a, f.base(), a, f.base() + 4, 2);
        assert_eq!(m.mem(a).read(f.base() + 4), 9.0);
    }

    #[test]
    fn mem_pair_mut_orders_do_not_matter() {
        let mut m = machine();
        let f = m.alloc_field(1).unwrap();
        let a = m.grid().id(0, 0);
        let b = m.grid().id(1, 1);
        {
            let (ma, mb) = m.mem_pair_mut(a, b);
            ma.write(f.base(), 1.0);
            mb.write(f.base(), 2.0);
        }
        {
            let (mb2, ma2) = m.mem_pair_mut(b, a);
            assert_eq!(mb2.read(f.base()), 2.0);
            assert_eq!(ma2.read(f.base()), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn mem_pair_mut_same_node_panics() {
        let mut m = machine();
        let a = m.grid().id(0, 0);
        let _ = m.mem_pair_mut(a, a);
    }

    #[test]
    fn par_nodes_mut_covers_every_node_exactly_once() {
        let mut m = machine();
        let f = m.alloc_field(1).unwrap();
        let mut ids = Vec::new();
        for (id, mem) in m.par_nodes_mut() {
            ids.push(id);
            mem.write(f.base(), id.0 as f32 + 1.0);
        }
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        // Each write landed on its own node: no overlap, no omission.
        for i in 0..4 {
            assert_eq!(m.mem(NodeId(i)).read(f.base()), i as f32 + 1.0);
        }
    }

    #[test]
    fn node_slices_partition_exactly() {
        let mut m = machine();
        for parts in 1..=6 {
            let mut covered = Vec::new();
            for mut slice in m.node_slices_mut(parts) {
                assert!(!slice.is_empty());
                for (id, _) in slice.iter_mut() {
                    covered.push(id);
                }
            }
            assert_eq!(
                covered,
                vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
                "parts = {parts}"
            );
        }
    }

    #[test]
    fn node_slices_clamp_degenerate_part_counts() {
        let mut m = machine();
        // Zero parts clamps to one slice holding everything…
        let slices = m.node_slices_mut(0);
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].len(), 4);
        assert_eq!(slices[0].first(), NodeId(0));
        // …and more parts than nodes clamps to one node per slice.
        let slices = m.node_slices_mut(100);
        assert_eq!(slices.len(), 4);
        assert!(slices.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn node_slice_first_ids_match_offsets() {
        let mut m = machine();
        let slices = m.node_slices_mut(2);
        assert_eq!(slices[0].first(), NodeId(0));
        assert_eq!(slices[1].first(), NodeId(2));
    }

    #[test]
    fn exec_parts_expose_all_nodes() {
        let mut m = machine();
        let (cfg, nodes) = m.exec_parts_mut();
        assert_eq!(cfg.node_count(), nodes.len());
    }

    #[test]
    fn shared_execution_inputs_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MachineConfig>();
        assert_send_sync::<Kernel>();
        assert_send_sync::<StripContext<'static>>();
        assert_send_sync::<ScheduleStep<'static>>();
        assert_send_sync::<NodeMemory>();
    }

    /// A minimal schedule (one store of the ones page into the result
    /// field per step) whose execution writes real data on every node —
    /// enough to observe that serial and threaded runs agree bitwise.
    fn store_schedule_fixture(m: &mut Machine) -> (Field, Field, Kernel) {
        use crate::isa::{DynamicPart, MemRef, Reg, StaticPart};
        let consts = m.alloc_field(2).unwrap();
        let res = m.alloc_field(4).unwrap();
        for (_, mem) in m.par_nodes_mut() {
            mem.write(consts.addr(0), 1.0);
            mem.write(consts.addr(1), 0.0);
        }
        let kernel = Kernel {
            static_part: StaticPart::ChainedMac,
            width: 1,
            row_step: -1,
            prologue: vec![],
            body: vec![vec![
                DynamicPart::Load {
                    src: MemRef::Ones,
                    dest: Reg(2),
                },
                DynamicPart::Nop,
                DynamicPart::Nop,
                DynamicPart::Nop,
                DynamicPart::Store {
                    src: Reg(2),
                    dest: MemRef::Result { col: 0 },
                },
            ]],
            useful_flops_per_line: 0,
        };
        (consts, res, kernel)
    }

    #[test]
    fn schedule_runs_are_thread_count_invariant() {
        use crate::exec::FieldLayout;
        let mut runs_by_threads = Vec::new();
        for threads in [1usize, 2, 3, 8] {
            let mut m = machine();
            let (consts, res, kernel) = store_schedule_fixture(&mut m);
            let ctx = StripContext {
                srcs: &[],
                res: FieldLayout {
                    base: res.base(),
                    row_stride: 1,
                    row_offset: 0,
                    col_offset: 0,
                },
                coeffs: &[],
                ones_addr: consts.addr(0),
                zeros_addr: consts.addr(1),
                start_row: 3,
                lines: 4,
                col0: 0,
            };
            let steps = vec![
                ScheduleStep {
                    kernel: &kernel,
                    ctx: ctx.clone(),
                };
                3
            ];
            let runs = m
                .run_schedule_all(&steps, ExecMode::Cycle, threads)
                .unwrap();
            assert_eq!(runs.len(), 3);
            for (_, mem) in m.par_nodes_mut() {
                assert_eq!(mem.field(res), &[1.0; 4]);
            }
            runs_by_threads.push(runs);
        }
        for other in &runs_by_threads[1..] {
            assert_eq!(&runs_by_threads[0], other);
        }
    }

    #[test]
    fn empty_schedule_is_a_no_op() {
        let mut m = machine();
        let runs = m.run_schedule_all(&[], ExecMode::Cycle, 8).unwrap();
        assert!(runs.is_empty());
    }

    #[test]
    fn release_to_reclaims_temporaries() {
        let mut m = machine();
        let _persistent = m.alloc_field(16).unwrap();
        let mark = m.alloc_mark();
        let t1 = m.alloc_field(100).unwrap();
        m.release_to(mark);
        let t2 = m.alloc_field(10).unwrap();
        assert_eq!(t1.base(), t2.base());
    }
}
