//! # cmcc — the Connection Machine Convolution Compiler, reproduced
//!
//! A Rust reproduction of *"Fortran at Ten Gigaflops: The Connection
//! Machine Convolution Compiler"* (Bromley, Heller, McNerney & Steele,
//! PLDI 1991): a compiler that turns Fortran 90 array assignment
//! statements of the sum-of-products `CSHIFT` form into chained
//! multiply-add kernels, executed here on a cycle-level simulator of the
//! CM-2's floating-point node array.
//!
//! The workspace splits the way the paper splits the system:
//!
//! | crate | paper role |
//! |---|---|
//! | [`front`] | Fortran 90 subset + `defstencil` front ends |
//! | [`core`] | the compiler module: recognition, multistencils, ring-buffer register allocation, kernel scheduling |
//! | [`cm2`] | the machine: WTL3164 pipeline, sequencer, node grid, communication primitives |
//! | [`runtime`] | the run-time library: distributed arrays, halo exchange, strip mining |
//! | [`baseline`] | comparators: generic slicewise CM Fortran and the 1989 hand-coded library |
//!
//! # Quickstart
//!
//! ```
//! use cmcc::Session;
//!
//! let mut session = Session::tiny()?;
//! let blur = session.compile(
//!     "R = 0.25 * CSHIFT(X, 1, -1) + 0.5 * X + 0.25 * CSHIFT(X, 1, +1)",
//! )?;
//! let x = session.array(8, 8)?;
//! let r = session.array(8, 8)?;
//! x.fill_with(&mut session.machine_mut(), |row, _| row as f32);
//! let measurement = session.run(&blur, &r, &x, &[])?;
//! assert_eq!(r.get(&session.machine(), 4, 0), 4.0);
//! println!("{:.1} Mflops", measurement.mflops(session.config()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Concurrency
//!
//! A [`Session`] is a cheap clonable handle over shared state: the
//! machine (behind a read-write lock), the compiler, a sharded plan
//! cache of immutable [`CompiledPlan`] artifacts, and a lane-mirror
//! pool. Clone the session once per thread and run concurrently — the
//! first tenant to request a given (statement, shape, options) builds
//! its plan exactly once (a per-entry build lock serializes racing
//! tenants onto the same artifact), and every handle keeps its own
//! mutable [`runtime::PlanInstance`] state, so tenants never observe
//! each other's bindings.
//!
//! Executes are admitted through a **region-lease table**: each run
//! leases the node-memory ranges it touches, and runs whose leases
//! don't conflict (disjoint, or read-read overlap) proceed
//! concurrently; a conflicting run waits its turn in fair FIFO order.
//! The machine lock guards only node-memory copies: a lane-resident
//! run refreshes its private mirror under the *shared* lock, sweeps
//! its kernels with no lock held, and scatters its result under a
//! brief exclusive lock, exactly as a CM-2 node computes in its own
//! memory and meets the others only to communicate. See
//! [`Session::lease_stats`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use cmcc_baseline as baseline;
pub use cmcc_cm2 as cm2;
pub use cmcc_core as core;
pub use cmcc_front as front;
pub use cmcc_obs as obs;
pub use cmcc_runtime as runtime;

pub use cmcc_cm2::{CycleBreakdown, Machine, MachineConfig, Measurement};
pub use cmcc_core::{CompileError, CompiledStencil, Compiler, PaperPattern};
pub use cmcc_runtime::{
    convolve, convolve_multi, convolve_volume, CmArray, CmVolume, CompiledPlan, ExecEngine,
    ExecOptions, ExecutionPlan, LeaseRange, PlanLifetime, RuntimeError, StencilBinding,
};

use cmcc_cm2::lane::MirrorPool;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Everything needed for typical use, in one import.
pub mod prelude {
    pub use crate::{
        convolve, CmArray, CompiledStencil, Compiler, ExecOptions, Machine, MachineConfig,
        Measurement, PaperPattern, Session,
    };
}

/// A combined error for [`Session`] operations.
#[derive(Debug)]
pub enum SessionError {
    /// Machine construction failed.
    Machine(String),
    /// Compilation failed.
    Compile(CompileError),
    /// A run-time library error.
    Runtime(RuntimeError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Machine(msg) => write!(f, "machine error: {msg}"),
            SessionError::Compile(e) => e.fmt(f),
            SessionError::Runtime(e) => e.fmt(f),
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Machine(_) => None,
            SessionError::Compile(e) => Some(e),
            SessionError::Runtime(e) => Some(e),
        }
    }
}

impl From<CompileError> for SessionError {
    fn from(e: CompileError) -> Self {
        SessionError::Compile(e)
    }
}

impl From<RuntimeError> for SessionError {
    fn from(e: RuntimeError) -> Self {
        SessionError::Runtime(e)
    }
}

/// The plan cache key: a statement [`CompiledStencil::fingerprint`], the
/// global array shape, and the execution options. Two calls with equal
/// keys are guaranteed to want the same [`CompiledPlan`] (possibly
/// instantiated over different arrays of that shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    fingerprint: u64,
    rows: usize,
    cols: usize,
    opts: ExecOptions,
}

/// Number of shards in the concurrent plan cache. Lookups hash the
/// plan key (statement fingerprint, shape, options) to a shard, so
/// tenants working on distinct stencils rarely touch the same lock.
pub const PLAN_CACHE_SHARDS: usize = 8;

/// One cache entry's build-once cell. The slot is created *before* the
/// plan exists: the first tenant to lock `plan` and find `None` builds
/// the artifact while racing tenants block on the same mutex and wake to
/// a populated slot — the per-fingerprint build lock that makes "built
/// exactly once" a structural guarantee rather than a race outcome.
#[derive(Debug)]
struct PlanSlot {
    plan: Mutex<Option<Arc<CompiledPlan>>>,
    /// Global LRU tick of the last lookup (monotonic, cache-wide).
    last_used: AtomicU64,
}

#[derive(Debug)]
struct CacheEntry {
    key: PlanKey,
    slot: Arc<PlanSlot>,
}

/// The sharded concurrent plan cache: [`PLAN_CACHE_SHARDS`] independent
/// `RwLock`ed entry lists plus global (atomic) accounting. The capacity
/// bound and LRU order are global across shards — eviction scans every
/// shard — so the cache behaves like one LRU map that merely avoids a
/// single lock on the lookup path.
#[derive(Debug)]
struct PlanCache {
    shards: [RwLock<Vec<CacheEntry>>; PLAN_CACHE_SHARDS],
    capacity: AtomicUsize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    shard_evictions: [AtomicU64; PLAN_CACHE_SHARDS],
    /// Evicted artifacts still referenced by in-flight instances. The
    /// `Arc` keeps the artifact (and its node-memory fields) alive;
    /// sweeps reclaim each one when its last instance drops.
    retired: Mutex<Vec<Arc<CompiledPlan>>>,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        PlanCache {
            shards: std::array::from_fn(|_| RwLock::new(Vec::new())),
            capacity: AtomicUsize::new(capacity),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            shard_evictions: std::array::from_fn(|_| AtomicU64::new(0)),
            retired: Mutex::new(Vec::new()),
        }
    }

    fn shard_index(key: &PlanKey) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % PLAN_CACHE_SHARDS
    }

    fn retire(&self, cp: Arc<CompiledPlan>) {
        self.retired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(cp);
    }
}

/// Hit/miss counters plus occupancy for a session's plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Runs served from an already-built shared plan (including tenants
    /// that waited on a racing builder).
    pub hits: u64,
    /// Runs that built (and cached) a fresh plan — one per distinct
    /// artifact, however many tenants raced for it.
    pub misses: u64,
    /// Cached plans evicted (LRU bound or capacity shrink), summed over
    /// shards.
    pub evictions: u64,
    /// The cache's current plan capacity (global, across all shards).
    pub capacity: usize,
    /// Plans currently cached, per shard.
    pub shard_occupancy: [usize; PLAN_CACHE_SHARDS],
    /// Evictions performed, per shard. Sums to `evictions`.
    pub shard_evictions: [u64; PLAN_CACHE_SHARDS],
    /// Shared artifacts currently held beyond the cache itself: cached
    /// plans with at least one live tenant instance, plus evicted plans
    /// kept alive by in-flight instances awaiting their final sweep.
    pub shared_in_flight: usize,
}

/// Default number of distinct (statement, shape, options) plans a session
/// keeps alive.
const DEFAULT_PLAN_CACHE_CAPACITY: usize = 8;

/// Default number of retired lane mirrors the session pool holds for
/// recycling across tenant instances (see
/// [`Session::with_config_and_mirror_pool`] to override).
pub const DEFAULT_MIRROR_POOL_CAPACITY: usize = 32;

/// Mutable state of the region-lease table, behind one mutex.
#[derive(Debug, Default)]
struct LeaseState {
    /// Live leases: one entry per in-flight execute, keyed by ticket.
    live: Vec<(u64, Vec<LeaseRange>)>,
    /// Conflicted requests waiting their turn, in arrival order.
    queue: VecDeque<(u64, Vec<LeaseRange>)>,
    next_ticket: u64,
    /// Executes currently holding a lease.
    in_flight: usize,
    /// Highest `in_flight` ever observed (monotone).
    peak: usize,
    /// Portion of `peak` already emitted to
    /// [`cmcc_obs::Counter::ConcurrentExecutesPeak`]; the counter is fed
    /// monotone deltas so its global sum equals the peak itself.
    reported_peak: usize,
    conflicts: u64,
}

/// The region-lease table: admission control for concurrent executes.
///
/// Every execute acquires a lease over the node-memory ranges it will
/// touch ([`ExecutionPlan::lease_ranges`]) before touching the machine
/// lock, and holds it until its result is in node memory. Disjoint (or
/// read-read overlapping) leases are granted immediately and may run
/// concurrently; a conflicting request queues FIFO behind every earlier
/// request it conflicts with, and once granted runs exactly like a
/// clean one. Lock order: lease table → machine lock, never the
/// reverse.
#[derive(Debug, Default)]
struct LeaseTable {
    state: Mutex<LeaseState>,
    granted: Condvar,
    /// Lane-resident executes admitted, conflicted or not.
    region_grants: AtomicU64,
}

/// A live region lease. Dropping it — normally or during a panic
/// unwind — releases the ranges and wakes every queued waiter.
#[derive(Debug)]
struct LeaseGuard<'a> {
    table: &'a LeaseTable,
    ticket: u64,
}

fn ranges_conflict(a: &[LeaseRange], b: &[LeaseRange]) -> bool {
    a.iter().any(|ra| b.iter().any(|rb| ra.conflicts(rb)))
}

impl LeaseTable {
    /// Acquires a lease over `ranges`, blocking while any live or
    /// earlier-queued lease conflicts. Returns the guard plus whether
    /// the request ever conflicted (and so waited), for the caller to
    /// count.
    fn acquire(&self, ranges: Vec<LeaseRange>) -> (LeaseGuard<'_>, bool) {
        // Flight-recorder lease lifecycle: the `lease_acquire` slice runs
        // from request to grant (its duration is the time-to-grant, and
        // its end event's arg says whether the request conflicted); the
        // `lease_held` slice runs from grant to release.
        cmcc_obs::trace::record(
            cmcc_obs::trace::TraceKind::Begin,
            cmcc_obs::trace::TraceOp::LeaseAcquire,
            0,
        );
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        let blocked = |st: &LeaseState| {
            st.live.iter().any(|(_, lr)| ranges_conflict(lr, &ranges))
                || st
                    .queue
                    .iter()
                    .take_while(|(t, _)| *t != ticket)
                    .any(|(_, qr)| ranges_conflict(qr, &ranges))
        };
        let conflicted = blocked(&st);
        if conflicted {
            st.conflicts += 1;
            st.queue.push_back((ticket, ranges.clone()));
            while blocked(&st) {
                st = self.granted.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            let pos = st
                .queue
                .iter()
                .position(|(t, _)| *t == ticket)
                .expect("queued lease ticket vanished");
            st.queue.remove(pos);
        }
        st.live.push((ticket, ranges));
        st.in_flight += 1;
        if st.in_flight > st.peak {
            st.peak = st.in_flight;
            let delta = (st.peak - st.reported_peak) as u64;
            st.reported_peak = st.peak;
            cmcc_obs::add(cmcc_obs::Counter::ConcurrentExecutesPeak, delta);
        }
        drop(st);
        cmcc_obs::trace::record(
            cmcc_obs::trace::TraceKind::End,
            cmcc_obs::trace::TraceOp::LeaseAcquire,
            conflicted as u64,
        );
        cmcc_obs::trace::record(
            cmcc_obs::trace::TraceKind::Begin,
            cmcc_obs::trace::TraceOp::LeaseHeld,
            ticket,
        );
        (
            LeaseGuard {
                table: self,
                ticket,
            },
            conflicted,
        )
    }

    fn stats(&self) -> LeaseStats {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        LeaseStats {
            region_grants: self.region_grants.load(Ordering::Relaxed),
            conflicts: st.conflicts,
            peak_concurrent: st.peak,
            live: st.live.len(),
            queued: st.queue.len(),
        }
    }
}

impl Drop for LeaseGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.table.state.lock().unwrap_or_else(|e| e.into_inner());
        st.live.retain(|(t, _)| *t != self.ticket);
        st.in_flight -= 1;
        drop(st);
        self.table.granted.notify_all();
        cmcc_obs::trace::record(
            cmcc_obs::trace::TraceKind::End,
            cmcc_obs::trace::TraceOp::LeaseHeld,
            self.ticket,
        );
    }
}

/// A snapshot of the session's region-lease table (shared across handle
/// clones): grants, conflicts, the concurrency high-water mark, and the
/// instantaneous live/queued population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LeaseStats {
    /// Lane-resident executes a lease admitted, conflicted or not:
    /// executes that held the machine lock only for their copy windows
    /// (see [`ExecutionPlan::execute_locked`]).
    pub region_grants: u64,
    /// Requests that conflicted with a live or queued lease and waited
    /// their FIFO turn.
    pub conflicts: u64,
    /// Highest number of simultaneously leased executes ever observed.
    pub peak_concurrent: usize,
    /// Leases live right now.
    pub live: usize,
    /// Requests queued on a conflict right now.
    pub queued: usize,
}

/// The state every [`Session`] handle shares: the machine behind a
/// read-write lock, the compiler, the sharded plan cache, the
/// lane-mirror pool, and the region-lease table that admits executes.
#[derive(Debug)]
struct SessionShared {
    machine: RwLock<Machine>,
    compiler: Compiler,
    config: MachineConfig,
    cache: PlanCache,
    mirrors: MirrorPool,
    leases: LeaseTable,
}

/// A shared read guard over the session's [`Machine`]. Dereferences to
/// [`Machine`]; any number of handles may read concurrently.
#[derive(Debug)]
pub struct MachineGuard<'a> {
    inner: RwLockReadGuard<'a, Machine>,
}

impl Deref for MachineGuard<'_> {
    type Target = Machine;
    fn deref(&self) -> &Machine {
        &self.inner
    }
}

/// An exclusive write guard over the session's [`Machine`].
/// Dereferences mutably to [`Machine`].
#[derive(Debug)]
pub struct MachineGuardMut<'a> {
    inner: RwLockWriteGuard<'a, Machine>,
}

impl Deref for MachineGuardMut<'_> {
    type Target = Machine;
    fn deref(&self) -> &Machine {
        &self.inner
    }
}

impl DerefMut for MachineGuardMut<'_> {
    fn deref_mut(&mut self) -> &mut Machine {
        &mut self.inner
    }
}

impl SessionShared {
    fn machine_read(&self) -> MachineGuard<'_> {
        MachineGuard {
            inner: self.machine.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    fn machine_write(&self) -> MachineGuardMut<'_> {
        MachineGuardMut {
            inner: self.machine.write().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// The cache-aware lookup: returns the shared artifact for `key`,
    /// building it exactly once across all handles and threads.
    ///
    /// Lock order (must never be violated elsewhere): lease table →
    /// shard lock → slot build lock → machine lock. The machine lock is
    /// always innermost (builds take it *without* a lease — they only
    /// touch freshly allocated fields, and the write lock itself
    /// excludes every concurrent reader), and eviction only ever
    /// *try*-locks slots.
    fn lookup_or_build(
        &self,
        binding: &StencilBinding<'_>,
        key: PlanKey,
        opts: &ExecOptions,
    ) -> Result<Arc<CompiledPlan>, SessionError> {
        let cache = &self.cache;
        let shard = &cache.shards[PlanCache::shard_index(&key)];
        // Fast path: find the entry under the shard read lock.
        let found = {
            let guard = shard.read().unwrap_or_else(|e| e.into_inner());
            guard
                .iter()
                .find(|e| e.key == key)
                .map(|e| Arc::clone(&e.slot))
        };
        let slot = match found {
            Some(slot) => slot,
            None => {
                let mut guard = shard.write().unwrap_or_else(|e| e.into_inner());
                match guard.iter().find(|e| e.key == key) {
                    Some(e) => Arc::clone(&e.slot),
                    None => {
                        let slot = Arc::new(PlanSlot {
                            plan: Mutex::new(None),
                            last_used: AtomicU64::new(0),
                        });
                        guard.push(CacheEntry {
                            key,
                            slot: Arc::clone(&slot),
                        });
                        slot
                    }
                }
            }
        };
        slot.last_used.store(
            cache.tick.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );

        // The build-once lock: whoever finds the slot empty builds;
        // racing tenants block here and wake to the populated slot.
        let mut plan_guard = slot.plan.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(cp) = plan_guard.as_ref() {
            cache.hits.fetch_add(1, Ordering::Relaxed);
            cmcc_obs::add(cmcc_obs::Counter::PlanCacheHits, 1);
            return Ok(Arc::clone(cp));
        }
        cache.misses.fetch_add(1, Ordering::Relaxed);
        cmcc_obs::add(cmcc_obs::Counter::PlanCacheMisses, 1);
        let built = {
            let mut machine = self.machine_write();
            CompiledPlan::build(&mut machine, binding, opts, PlanLifetime::Persistent)
        };
        match built {
            Ok(cp) => {
                let cp = Arc::new(cp);
                *plan_guard = Some(Arc::clone(&cp));
                Ok(cp)
            }
            Err(e) => {
                // Unpublish the empty entry so the next tenant retries
                // as a builder instead of adopting a dead slot.
                drop(plan_guard);
                let mut guard = shard.write().unwrap_or_else(|e2| e2.into_inner());
                guard.retain(|entry| !(entry.key == key && Arc::ptr_eq(&entry.slot, &slot)));
                Err(e.into())
            }
        }
    }

    /// Frees every retired artifact whose last instance has dropped.
    /// Drains the retired list *before* touching the machine lock, so
    /// the machine lock stays innermost.
    fn sweep_retired(&self) {
        let drained: Vec<Arc<CompiledPlan>> = {
            let mut retired = self.cache.retired.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *retired)
        };
        if drained.is_empty() {
            return;
        }
        let mut still_shared = Vec::new();
        let mut free = Vec::new();
        for arc in drained {
            match Arc::try_unwrap(arc) {
                Ok(cp) => free.push(cp),
                Err(arc) => still_shared.push(arc),
            }
        }
        if !free.is_empty() {
            let mut machine = self.machine_write();
            for cp in free {
                cp.release(&mut machine);
            }
        }
        if !still_shared.is_empty() {
            self.cache
                .retired
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(still_shared);
        }
    }
}

/// One handle-local tenant instance over a shared artifact.
#[derive(Debug)]
struct LocalPlan {
    key: PlanKey,
    plan: ExecutionPlan,
    last_used: u64,
}

/// A machine plus a compiler targeting it: the convenient front door.
///
/// Every `run*` call is served through a **plan cache**: the first call
/// for a given (statement fingerprint, array shape, options) builds a
/// shared [`CompiledPlan`] — halo buffers, exchange programs,
/// pre-resolved strip schedule — and later calls replay it through a
/// handle-local [`runtime::PlanInstance`], rebased onto whichever arrays
/// are passed. Results and [`Measurement`]s are bit-identical to
/// uncached execution. The cache is bounded (least-recently-used plans
/// are evicted and their node memory freed once their last in-flight
/// instance retires) and is scoped to the session's shared state, so a
/// different machine configuration — a session created fresh — can never
/// observe a stale plan. A shape or options change simply keys a new
/// plan.
///
/// `Session` is a **cheap clonable handle**: clones share the machine,
/// compiler, plan cache, cache statistics, and mirror pool, while each
/// clone keeps its own plan instances and per-handle report. Clone one
/// session per thread for concurrent multi-tenant execution; a plan is
/// built exactly once no matter how many tenants race for it.
///
/// See the crate-level example. For full control (execution options,
/// alternative front ends, baselines) use the constituent crates
/// directly.
#[derive(Debug)]
pub struct Session {
    shared: Arc<SessionShared>,
    /// This handle's tenant instances over shared artifacts.
    plans: Vec<LocalPlan>,
    local_tick: u64,
    /// Telemetry delta of the most recent `run*` call (empty when
    /// profiling is disabled — see [`cmcc_obs::set_enabled`]).
    last_report: cmcc_obs::RunReport,
    /// Cache key of the most recent `run*` call, for [`Session::last_plan`].
    last_key: Option<PlanKey>,
}

impl Clone for Session {
    /// Clones the handle: the machine, compiler, plan cache, mirror
    /// pool, and lease table are shared; plan instances and per-handle
    /// state start empty.
    fn clone(&self) -> Self {
        Session {
            shared: Arc::clone(&self.shared),
            plans: Vec::new(),
            local_tick: 0,
            last_report: cmcc_obs::RunReport::default(),
            last_key: None,
        }
    }
}

impl Drop for Session {
    /// Retires this handle's instances, recycling their lane mirrors
    /// into the shared pool for future tenants.
    fn drop(&mut self) {
        for mut entry in self.plans.drain(..) {
            self.shared.mirrors.put(entry.plan.take_mirror());
        }
    }
}

impl Session {
    /// A session on the given machine configuration, with the default
    /// mirror-pool capacity ([`DEFAULT_MIRROR_POOL_CAPACITY`]).
    ///
    /// # Errors
    ///
    /// [`SessionError::Machine`] if the configuration is invalid.
    pub fn with_config(config: MachineConfig) -> Result<Self, SessionError> {
        Self::with_config_and_mirror_pool(config, DEFAULT_MIRROR_POOL_CAPACITY)
    }

    /// A session on the given machine configuration holding at most
    /// `mirror_pool` retired lane mirrors for recycling across tenant
    /// instances. Size it to the expected number of concurrently
    /// resident plans; takes past the pool's supply are counted as
    /// [`cmcc_obs::Counter::MirrorPoolMisses`].
    ///
    /// # Errors
    ///
    /// [`SessionError::Machine`] if the configuration is invalid.
    pub fn with_config_and_mirror_pool(
        config: MachineConfig,
        mirror_pool: usize,
    ) -> Result<Self, SessionError> {
        let machine = Machine::new(config.clone()).map_err(SessionError::Machine)?;
        Ok(Session {
            shared: Arc::new(SessionShared {
                machine: RwLock::new(machine),
                compiler: Compiler::new(config.clone()),
                config,
                cache: PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY),
                mirrors: MirrorPool::new(mirror_pool),
                leases: LeaseTable::default(),
            }),
            plans: Vec::new(),
            local_tick: 0,
            last_report: cmcc_obs::RunReport::default(),
            last_key: None,
        })
    }

    /// The paper's 16-node measurement board (4×4 nodes).
    ///
    /// # Errors
    ///
    /// Never in practice; propagates machine construction.
    pub fn test_board() -> Result<Self, SessionError> {
        Self::with_config(MachineConfig::test_board_16())
    }

    /// A full 2,048-node CM-2.
    ///
    /// # Errors
    ///
    /// Never in practice; propagates machine construction.
    pub fn full_machine() -> Result<Self, SessionError> {
        Self::with_config(MachineConfig::full_machine_2048())
    }

    /// A tiny 2×2-node machine for tests and doc examples.
    ///
    /// # Errors
    ///
    /// Never in practice; propagates machine construction.
    pub fn tiny() -> Result<Self, SessionError> {
        Self::with_config(MachineConfig::tiny_4())
    }

    /// The machine, behind a shared read guard. Hold it across several
    /// reads in one expression (`r.get(&session.machine(), 1, 1)`); it
    /// unlocks when the guard drops. Taking [`Session::machine_mut`] on
    /// the *same handle* while a guard from this method is live would
    /// deadlock — the `&mut self` receiver there makes that a
    /// compile-time error instead.
    pub fn machine(&self) -> MachineGuard<'_> {
        self.shared.machine_read()
    }

    /// The machine, behind an exclusive write guard.
    pub fn machine_mut(&mut self) -> MachineGuardMut<'_> {
        self.shared.machine_write()
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.shared.config
    }

    /// The compiler.
    pub fn compiler(&self) -> &Compiler {
        &self.shared.compiler
    }

    /// Compiles a Fortran array assignment statement.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`].
    pub fn compile(&self, statement: &str) -> Result<CompiledStencil, SessionError> {
        Ok(self.shared.compiler.compile_assignment(statement)?)
    }

    /// Compiles a statement under the multi-source extension (several
    /// shifted arrays fused into one kernel — the paper's §9 future
    /// work).
    ///
    /// # Errors
    ///
    /// Any [`CompileError`].
    pub fn compile_extended(&self, statement: &str) -> Result<CompiledStencil, SessionError> {
        Ok(self
            .shared
            .compiler
            .compile_assignment_extended(statement)?)
    }

    /// Allocates a distributed array.
    ///
    /// # Errors
    ///
    /// Shape or memory errors from the run-time library.
    pub fn array(&mut self, rows: usize, cols: usize) -> Result<CmArray, SessionError> {
        Ok(CmArray::new(&mut self.machine_mut(), rows, cols)?)
    }

    /// Runs a compiled stencil with default options (cycle-accurate).
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`].
    pub fn run(
        &mut self,
        compiled: &CompiledStencil,
        result: &CmArray,
        source: &CmArray,
        coeffs: &[&CmArray],
    ) -> Result<Measurement, SessionError> {
        self.run_with_multi(compiled, result, &[source], coeffs, &ExecOptions::default())
    }

    /// Runs a compiled multi-source stencil with default options.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`].
    pub fn run_multi(
        &mut self,
        compiled: &CompiledStencil,
        result: &CmArray,
        sources: &[&CmArray],
        coeffs: &[&CmArray],
    ) -> Result<Measurement, SessionError> {
        self.run_with_multi(compiled, result, sources, coeffs, &ExecOptions::default())
    }

    /// Runs a compiled multi-source stencil with explicit options.
    ///
    /// This is the cache-aware core every other `run*` method funnels
    /// into: the shared artifact is looked up (or built, exactly once
    /// across all handles) in the sharded cache, this handle's instance
    /// over it is rebound to the given arrays, and the instance executes
    /// under a lease over the node memory it touches, holding the
    /// machine lock only while it copies node memory (see
    /// [`ExecutionPlan::execute_locked`]; no allocation, no schedule
    /// rebuild on the steady path).
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`].
    pub fn run_with_multi(
        &mut self,
        compiled: &CompiledStencil,
        result: &CmArray,
        sources: &[&CmArray],
        coeffs: &[&CmArray],
        opts: &ExecOptions,
    ) -> Result<Measurement, SessionError> {
        // Bind first: argument validation must not depend on the cache.
        let binding = StencilBinding::new(compiled, result, sources, coeffs)?;
        let key = PlanKey {
            fingerprint: compiled.fingerprint(),
            rows: result.rows(),
            cols: result.cols(),
            opts: *opts,
        };
        let shared = Arc::clone(&self.shared);
        let before = cmcc_obs::snapshot();
        self.last_key = Some(key);

        if shared.cache.capacity.load(Ordering::Relaxed) == 0 {
            // Caching disabled: build, run, and free in one breath. The
            // build allocates and releases node memory, so this path
            // leases the whole machine — it conflicts with (and so
            // serializes against) every concurrent execute.
            shared.cache.misses.fetch_add(1, Ordering::Relaxed);
            cmcc_obs::add(cmcc_obs::Counter::PlanCacheMisses, 1);
            let whole_machine = vec![LeaseRange {
                start: 0,
                end: usize::MAX,
                writable: true,
            }];
            let (lease, conflicted) = shared.leases.acquire(whole_machine);
            if conflicted {
                cmcc_obs::add(cmcc_obs::Counter::LeaseConflicts, 1);
            }
            let measurement = {
                let mut machine = shared.machine_write();
                let mut plan =
                    ExecutionPlan::build(&mut machine, &binding, opts, PlanLifetime::Persistent)?;
                let measurement = plan.execute(&mut machine)?;
                plan.release(&mut machine);
                measurement
            };
            drop(lease);
            self.last_report = cmcc_obs::snapshot().delta(&before);
            self.last_key = None;
            return Ok(measurement);
        }

        let cp = shared.lookup_or_build(&binding, key, opts)?;

        // This handle's instance over the artifact: reuse it when it
        // still tracks the cached artifact, replace it when the cache
        // entry was evicted and rebuilt behind our back.
        self.local_tick += 1;
        let existing = self.plans.iter().position(|e| e.key == key);
        let idx = match existing {
            Some(i) if Arc::ptr_eq(self.plans[i].plan.shared(), &cp) => i,
            other => {
                if let Some(i) = other {
                    let mut stale = self.plans.swap_remove(i);
                    shared.mirrors.put(stale.plan.take_mirror());
                }
                let mut plan = ExecutionPlan::from_shared(&cp, &binding)?;
                // Only lockstep instances touch a mirror; scalar and
                // cycle-mode instances would hold a pooled one idle.
                if plan.uses_lockstep() {
                    let (mirror, missed) = shared.mirrors.take_counted();
                    if missed {
                        cmcc_obs::add(cmcc_obs::Counter::MirrorPoolMisses, 1);
                    }
                    plan.install_mirror(mirror);
                }
                self.plans.push(LocalPlan {
                    key,
                    plan,
                    last_used: 0,
                });
                self.plans.len() - 1
            }
        };
        self.plans[idx].last_used = self.local_tick;
        self.plans[idx].plan.rebind(result, sources, coeffs)?;

        // Admission: lease the ranges this execute will touch. The lease
        // is held across the whole execute, so between its lock windows
        // no overlapping execute can write what it read or touch what it
        // is about to write. A conflicted request has already waited its
        // FIFO turn, so it runs exactly like a clean one.
        let ranges = self.plans[idx].plan.lease_ranges();
        let (lease, conflicted) = shared.leases.acquire(ranges);
        if conflicted {
            cmcc_obs::add(cmcc_obs::Counter::LeaseConflicts, 1);
        }
        if self.plans[idx].plan.uses_lockstep() {
            shared.leases.region_grants.fetch_add(1, Ordering::Relaxed);
            cmcc_obs::add(cmcc_obs::Counter::RegionLeases, 1);
        }
        let measurement = self.plans[idx].plan.execute_locked(&shared.machine)?;
        drop(lease);
        self.last_report = cmcc_obs::snapshot().delta(&before);

        self.evict_over_capacity();
        self.trim_local_instances();
        shared.sweep_retired();
        Ok(measurement)
    }

    /// Evicts global-LRU cache entries until the cache fits its
    /// capacity. Entries mid-build (slot lock held by a builder) are
    /// skipped — they are by definition the most recently wanted.
    /// Evicted artifacts move to the retired list; their node memory is
    /// reclaimed by the next sweep once the last instance drops.
    fn evict_over_capacity(&mut self) {
        let shared = Arc::clone(&self.shared);
        let cache = &shared.cache;
        let capacity = cache.capacity.load(Ordering::Relaxed);
        let mut entries: Vec<(u64, usize, PlanKey)> = Vec::new();
        for (si, shard) in cache.shards.iter().enumerate() {
            let guard = shard.read().unwrap_or_else(|e| e.into_inner());
            for e in guard.iter() {
                entries.push((e.slot.last_used.load(Ordering::Relaxed), si, e.key));
            }
        }
        if entries.len() <= capacity {
            return;
        }
        entries.sort_unstable_by_key(|&(tick, _, _)| tick);
        let mut to_evict = entries.len() - capacity;
        for &(_, si, key) in entries.iter() {
            if to_evict == 0 {
                break;
            }
            let removed = {
                let mut guard = cache.shards[si].write().unwrap_or_else(|e| e.into_inner());
                match guard.iter().position(|e| e.key == key) {
                    Some(pos) => {
                        // Skip entries a builder currently holds.
                        let ready = guard[pos]
                            .slot
                            .plan
                            .try_lock()
                            .map(|g| g.is_some())
                            .unwrap_or(false);
                        if ready {
                            Some(guard.swap_remove(pos).slot)
                        } else {
                            None
                        }
                    }
                    None => None,
                }
            };
            if let Some(slot) = removed {
                to_evict -= 1;
                cache.evictions.fetch_add(1, Ordering::Relaxed);
                cache.shard_evictions[si].fetch_add(1, Ordering::Relaxed);
                cmcc_obs::add(cmcc_obs::Counter::PlanCacheEvictions, 1);
                // Our own instance over the evicted artifact is dead
                // weight now — retire it so the sweep can free the
                // artifact as soon as every other handle's has gone.
                self.drop_local_instance(&key);
                if let Some(cp) = slot.plan.lock().unwrap_or_else(|e| e.into_inner()).take() {
                    cache.retire(cp);
                }
            }
        }
    }

    fn drop_local_instance(&mut self, key: &PlanKey) {
        if let Some(i) = self.plans.iter().position(|e| e.key == *key) {
            let mut old = self.plans.swap_remove(i);
            self.shared.mirrors.put(old.plan.take_mirror());
        }
    }

    /// Bounds this handle's instance list by the cache capacity,
    /// retiring least-recently-used instances (their mirrors recycle
    /// through the pool).
    fn trim_local_instances(&mut self) {
        let cap = self.shared.cache.capacity.load(Ordering::Relaxed).max(1);
        while self.plans.len() > cap {
            let Some(i) = self
                .plans
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            else {
                break;
            };
            let mut old = self.plans.swap_remove(i);
            self.shared.mirrors.put(old.plan.take_mirror());
        }
    }

    /// Plan-cache hit/miss/eviction counters, capacity, per-shard
    /// occupancy and evictions, and the in-flight shared-plan count.
    /// Shared across handle clones (one cache, one set of numbers).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        let cache = &self.shared.cache;
        let mut stats = PlanCacheStats {
            hits: cache.hits.load(Ordering::Relaxed),
            misses: cache.misses.load(Ordering::Relaxed),
            evictions: cache.evictions.load(Ordering::Relaxed),
            capacity: cache.capacity.load(Ordering::Relaxed),
            ..PlanCacheStats::default()
        };
        for (i, shard) in cache.shards.iter().enumerate() {
            stats.shard_evictions[i] = cache.shard_evictions[i].load(Ordering::Relaxed);
            let guard = shard.read().unwrap_or_else(|e| e.into_inner());
            stats.shard_occupancy[i] = guard.len();
            for e in guard.iter() {
                if let Ok(slot) = e.slot.plan.try_lock() {
                    if let Some(cp) = slot.as_ref() {
                        if Arc::strong_count(cp) > 1 {
                            stats.shared_in_flight += 1;
                        }
                    }
                }
            }
        }
        stats.shared_in_flight += self
            .shared
            .cache
            .retired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len();
        stats
    }

    /// A snapshot of the region-lease table shared by every clone of
    /// this session: region grants, conflicts that waited, the
    /// concurrency high-water mark, and the live/queued population
    /// (both zero whenever no execute is in flight).
    pub fn lease_stats(&self) -> LeaseStats {
        self.shared.leases.stats()
    }

    /// The shared mirror pool's capacity (see
    /// [`Session::with_config_and_mirror_pool`]).
    pub fn mirror_pool_capacity(&self) -> usize {
        self.shared.mirrors.capacity()
    }

    /// Mirror takes this session served with a fresh allocation because
    /// the pool was empty — the lifetime total behind
    /// [`cmcc_obs::Counter::MirrorPoolMisses`].
    pub fn mirror_pool_misses(&self) -> u64 {
        self.shared.mirrors.misses()
    }

    /// Telemetry recorded by the most recent `run*` call on *this
    /// handle*: the global [`cmcc_obs`] counter and span deltas
    /// bracketing that call. Empty when profiling was disabled (the
    /// counters never moved) or before the first run. Under concurrent
    /// tenants the bracket can include other threads' work — per-tenant
    /// attribution uses [`cmcc_obs::thread_snapshot`] instead.
    pub fn last_report(&self) -> cmcc_obs::RunReport {
        self.last_report
    }

    /// The plan instance the most recent `run*` call on this handle
    /// used, when it is still held — for inspecting analytic plan
    /// properties like [`ExecutionPlan::steady_state_copy_words`].
    pub fn last_plan(&self) -> Option<&ExecutionPlan> {
        let key = self.last_key?;
        self.plans.iter().find(|e| e.key == key).map(|e| &e.plan)
    }

    /// Number of plans currently cached, across all shards.
    pub fn cached_plans(&self) -> usize {
        self.shared
            .cache
            .shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Changes how many plans the cache keeps globally (evicting
    /// immediately if the new bound is smaller — eviction accounting,
    /// including the per-shard counters, reflects the shrink). A
    /// capacity of zero disables caching for subsequent runs. Shared
    /// across handle clones.
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        self.shared
            .cache
            .capacity
            .store(capacity, Ordering::Relaxed);
        self.evict_over_capacity();
        self.trim_local_instances();
        self.shared.sweep_retired();
    }

    /// Drops every cached plan and frees its node memory (for artifacts
    /// other handles still execute, the memory follows when their last
    /// instance retires). Call after anything a plan could have captured
    /// changes out from under the cache — there is nothing of that kind
    /// today (machine configuration is fixed per session, and shape or
    /// option changes key new plans), but explicit invalidation keeps
    /// the escape hatch cheap.
    pub fn clear_plan_cache(&mut self) {
        for mut entry in self.plans.drain(..) {
            self.shared.mirrors.put(entry.plan.take_mirror());
        }
        self.last_key = None;
        let cache = &self.shared.cache;
        for shard in &cache.shards {
            let drained: Vec<CacheEntry> = {
                let mut guard = shard.write().unwrap_or_else(|e| e.into_inner());
                guard.drain(..).collect()
            };
            for entry in drained {
                if let Some(cp) = entry
                    .slot
                    .plan
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                {
                    cache.retire(cp);
                }
            }
        }
        self.shared.sweep_retired();
    }

    /// Runs with explicit options.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`].
    pub fn run_with(
        &mut self,
        compiled: &CompiledStencil,
        result: &CmArray,
        source: &CmArray,
        coeffs: &[&CmArray],
        opts: &ExecOptions,
    ) -> Result<Measurement, SessionError> {
        self.run_with_multi(compiled, result, &[source], coeffs, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_round_trip() {
        let mut s = Session::tiny().unwrap();
        let c = s.compile("R = 0.5 * X + 0.5 * CSHIFT(X, 2, 1)").unwrap();
        let x = s.array(4, 4).unwrap();
        let r = s.array(4, 4).unwrap();
        x.fill(&mut s.machine_mut(), 2.0);
        let m = s.run(&c, &r, &x, &[]).unwrap();
        assert_eq!(r.get(&s.machine(), 1, 1), 2.0);
        assert!(m.cycles.total() > 0);
    }

    #[test]
    fn compile_errors_surface() {
        let s = Session::tiny().unwrap();
        let err = s.compile("R = X - Y").unwrap_err();
        assert!(err.to_string().contains("subtraction") || err.to_string().contains("stencil"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn cloned_handles_share_cache_and_machine() {
        let mut a = Session::tiny().unwrap();
        let c = a.compile("R = 0.5 * X + 0.5 * CSHIFT(X, 2, 1)").unwrap();
        let x = a.array(4, 4).unwrap();
        let r = a.array(4, 4).unwrap();
        x.fill(&mut a.machine_mut(), 3.0);
        a.run(&c, &r, &x, &[]).unwrap();
        assert_eq!(a.plan_cache_stats().misses, 1);

        // The clone sees the artifact the original built: no new build.
        let mut b = a.clone();
        b.run(&c, &r, &x, &[]).unwrap();
        let stats = b.plan_cache_stats();
        assert_eq!(stats.misses, 1, "clone rebuilt a cached plan");
        assert_eq!(stats.hits, 1);
        assert_eq!(r.get(&b.machine(), 1, 1), 3.0);
        assert!(stats.shared_in_flight >= 1);
        assert_eq!(
            stats.shard_occupancy.iter().sum::<usize>(),
            a.cached_plans()
        );
    }

    fn rw(start: usize, end: usize) -> LeaseRange {
        LeaseRange {
            start,
            end,
            writable: true,
        }
    }

    fn ro(start: usize, end: usize) -> LeaseRange {
        LeaseRange {
            start,
            end,
            writable: false,
        }
    }

    #[test]
    fn lease_table_grants_disjoint_and_read_read_overlap_immediately() {
        let table = LeaseTable::default();
        let (a, ca) = table.acquire(vec![ro(0, 100)]);
        let (b, cb) = table.acquire(vec![ro(50, 150)]); // read-read overlap
        let (c, cc) = table.acquire(vec![rw(150, 250)]); // end-exclusive: adjacent writer
        assert!(!ca && !cb && !cc, "no request may be marked conflicted");
        let stats = table.stats();
        assert_eq!(stats.live, 3);
        assert_eq!(stats.conflicts, 0);
        assert_eq!(stats.peak_concurrent, 3);
        drop(a);
        drop(b);
        drop(c);
        let stats = table.stats();
        assert_eq!(stats.live, 0, "released leases must leave the table");
        assert_eq!(stats.peak_concurrent, 3, "the high-water mark is monotone");
    }

    #[test]
    fn lease_conflict_blocks_fifo_but_disjoint_requests_barge_past() {
        let table = LeaseTable::default();
        std::thread::scope(|scope| {
            let (a, ca) = table.acquire(vec![rw(0, 100)]);
            assert!(!ca);
            let waiter = scope.spawn(|| {
                // Write-read overlap with the live lease: queued FIFO.
                let (g, conflicted) = table.acquire(vec![ro(50, 150)]);
                assert!(conflicted, "overlapping request must report the conflict");
                drop(g);
            });
            while table.stats().queued == 0 {
                std::thread::yield_now();
            }
            // A request disjoint from both the live lease and the queued
            // waiter is granted immediately — FIFO fairness never stalls
            // unrelated executes.
            let (d, dc) = table.acquire(vec![rw(300, 400)]);
            assert!(
                !dc,
                "disjoint request must not inherit the queue's conflict"
            );
            drop(d);
            assert_eq!(
                table.stats().queued,
                1,
                "the waiter stays queued until release"
            );
            drop(a);
            waiter.join().expect("waiter panicked");
        });
        let stats = table.stats();
        assert_eq!(
            stats.conflicts, 1,
            "exactly the overlapping request conflicts"
        );
        assert_eq!(stats.live, 0);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn lease_released_when_the_holder_panics() {
        let table = LeaseTable::default();
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let (_lease, _) = table.acquire(vec![rw(0, 100)]);
                    panic!("execute dies while holding its lease");
                })
                .join()
        });
        assert!(died.is_err(), "holder thread must have panicked");
        let stats = table.stats();
        assert_eq!(stats.live, 0, "unwind must release the lease");
        assert_eq!(stats.queued, 0);
        // The range is immediately reacquirable with no queueing — the
        // table survived the poison and the dead holder's ticket.
        let (_lease, conflicted) = table.acquire(vec![rw(0, 100)]);
        assert!(!conflicted, "a released range must not conflict");
    }
}
