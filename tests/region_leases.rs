//! Region-leased machine access: admission-control guarantees under
//! racing tenants. Disjoint lane-resident plans execute concurrently
//! with zero conflicts (the conflict predicate predicts exactly which
//! executes must serialize); overlapping plans wait their FIFO turn,
//! counted, and still produce bit-identical results; a failed execute
//! releases its lease; and a tenant releasing a plan while a neighbor
//! holds a lease on an adjacent field range neither deadlocks nor
//! corrupts the neighbor's results. After every drain the lease table
//! must be empty.

use cmcc::cm2::exec::{ExecEngine, ExecMode};
use cmcc::core::recognize::CoeffSpec;
use cmcc::runtime::{CmArray, ExecOptions};
use cmcc::{CompiledStencil, PaperPattern, Session};
use std::sync::Barrier;

const SUBGRID: (usize, usize) = (8, 8);
const ITERS: usize = 6;

/// The tenants' plans race on distinct paper patterns — distinct plan
/// keys, so each tenant leases its own disjoint field ranges.
const PATTERNS: [PaperPattern; 4] = [
    PaperPattern::Square9,
    PaperPattern::Cross5,
    PaperPattern::Star9,
    PaperPattern::Diamond13,
];

/// Lane-resident lockstep execution: the mode whose executes hold the
/// machine lock only for their copy windows.
fn exec_opts() -> ExecOptions {
    let mut opts = ExecOptions::default()
        .with_threads(1)
        .with_engine(ExecEngine::Lockstep);
    opts.mode = ExecMode::Fast;
    opts
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One tenant: a session handle plus its private plan and arrays.
struct Tenant {
    session: Session,
    compiled: CompiledStencil,
    x: CmArray,
    r: CmArray,
    coeffs: Vec<CmArray>,
}

impl Tenant {
    fn run(&mut self) {
        let coeffs: Vec<&CmArray> = self.coeffs.iter().collect();
        self.session
            .run_with_multi(&self.compiled, &self.r, &[&self.x], &coeffs, &exec_opts())
            .expect("tenant execute succeeds");
    }

    fn result(&self) -> Vec<f32> {
        self.r.gather(&self.session.machine())
    }
}

/// Builds one tenant per pattern on clones of `root`: same machine,
/// same plan cache, fully disjoint arrays (the field allocator never
/// overlaps live fields). Inputs are deterministic so an oracle built
/// from a second root sees identical data.
fn make_tenants(root: &Session) -> Vec<Tenant> {
    let rows = SUBGRID.0 * root.machine().grid().rows();
    let cols = SUBGRID.1 * root.machine().grid().cols();
    PATTERNS
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut session = root.clone();
            let compiled = session.compile(&p.fortran()).expect("pattern compiles");
            let x = session.array(rows, cols).expect("source fits");
            x.fill_with(&mut session.machine_mut(), |r, c| {
                ((r * 13 + c * 7 + i * 29) % 31) as f32 * 0.25 - 3.5
            });
            let named = compiled
                .spec()
                .coeffs
                .iter()
                .filter(|c| matches!(c, CoeffSpec::Named(_)))
                .count();
            let coeffs: Vec<CmArray> = (0..named)
                .map(|k| {
                    let a = session.array(rows, cols).expect("coeff fits");
                    a.fill_with(&mut session.machine_mut(), |r, c| {
                        ((r * 5 + c * 11 + k * 17) % 19) as f32 * 0.125 - 1.0
                    });
                    a
                })
                .collect();
            let r = session.array(rows, cols).expect("result fits");
            Tenant {
                session,
                compiled,
                x,
                r,
                coeffs,
            }
        })
        .collect()
}

/// Racing tenants on disjoint plans must be bit-identical to a
/// sequential oracle, run every execute lane-resident (zero conflicts —
/// the overlap predicate predicted no wait, and none may be taken), and
/// drain the lease table.
#[test]
fn racing_disjoint_tenants_use_region_path_and_match_oracle() {
    cmcc::obs::set_enabled(true);

    // Sequential oracle: its own machine, same deterministic inputs.
    let oracle_root = Session::test_board().unwrap();
    let mut oracle = make_tenants(&oracle_root);
    for t in oracle.iter_mut() {
        for _ in 0..=ITERS {
            t.run();
        }
    }
    let want: Vec<Vec<f32>> = oracle.iter().map(Tenant::result).collect();

    let root = Session::test_board().unwrap();
    let mut tenants = make_tenants(&root);
    // Warmup builds every plan (and takes its first lease).
    for t in tenants.iter_mut() {
        t.run();
    }
    assert!(
        tenants
            .iter()
            .all(|t| t.session.last_plan().is_some_and(|p| p.uses_lockstep())),
        "every tenant's plan must run lane-resident"
    );

    // Overlap in time is scheduling-dependent (a tenant can finish its
    // few short executes before another wakes from the barrier), so
    // race in rounds until two leases were live at once. Every round
    // must match the oracle and wait for nothing.
    let barrier = Barrier::new(tenants.len());
    let mut rounds = 0;
    while root.lease_stats().peak_concurrent <= 1 && rounds < 20 {
        rounds += 1;
        std::thread::scope(|scope| {
            for t in tenants.iter_mut() {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    for _ in 0..ITERS {
                        t.run();
                    }
                });
            }
        });
        let got: Vec<Vec<f32>> = tenants.iter().map(Tenant::result).collect();
        for (g, w) in got.iter().zip(&want) {
            assert!(
                bits_equal(g, w),
                "racing tenant diverges from the sequential oracle"
            );
        }
    }

    let stats = root.lease_stats();
    assert_eq!(
        stats.conflicts, 0,
        "disjoint plans must never wait for each other"
    );
    assert_eq!(
        stats.region_grants,
        (PATTERNS.len() * (1 + ITERS * rounds)) as u64,
        "every lane-resident execute must count as a grant"
    );
    assert_eq!(stats.live, 0, "leases leaked after the pool drained");
    assert_eq!(stats.queued, 0, "waiters leaked after the pool drained");
    if cores() >= 2 {
        assert!(
            stats.peak_concurrent > 1,
            "no two disjoint executes ever overlapped in {rounds} rounds on a {}-core host",
            cores()
        );
    } else if stats.peak_concurrent <= 1 {
        eprintln!("note: peak-concurrency assertion skipped (1 host core)");
    }
}

/// Overlapping executes — two handles racing the same plan into the
/// same result array — wait their FIFO turn *counted*, never silently:
/// each conflicted execute counts once in `conflicts` and, since it
/// still runs lane-resident, once in `region_grants` like every other.
/// The result stays the same pure function of the input regardless of
/// interleaving, bit for bit what a sequential oracle computes.
/// Sequential overlapping executes never overlap in time, so they must
/// count zero conflicts: a request waits exactly when predicted.
#[test]
fn overlapping_executes_wait_their_turn_and_stay_exact() {
    cmcc::obs::set_enabled(true);
    let oracle_root = Session::test_board().unwrap();
    let mut oracle = make_tenants(&oracle_root).remove(0);
    oracle.run();
    let want = oracle.result();

    let root = Session::test_board().unwrap();
    let mut a = make_tenants(&root).remove(0);
    a.run();
    // A second handle bound to the *same* plan and result array: its
    // lease overlaps a's writable result range.
    let mut b = Tenant {
        session: a.session.clone(),
        compiled: a.compiled.clone(),
        x: a.x,
        r: a.r,
        coeffs: a.coeffs.clone(),
    };
    b.run();
    let stats = root.lease_stats();
    assert_eq!(
        stats.conflicts, 0,
        "sequential executes never hold overlapping leases at once"
    );
    assert!(
        bits_equal(&a.result(), &want),
        "sequential executes diverge from the oracle"
    );

    // Overlap in time is scheduling-dependent: race in rounds until a
    // conflict is counted (first round on every host we have seen).
    const RUNS: usize = 8;
    let mut rounds = 0;
    while root.lease_stats().conflicts == stats.conflicts && rounds < 50 {
        rounds += 1;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..RUNS {
                    a.run();
                }
            });
            scope.spawn(|| {
                for _ in 0..RUNS {
                    b.run();
                }
            });
        });
    }
    let after = root.lease_stats();
    let conflicts = after.conflicts - stats.conflicts;
    assert_eq!(
        after.region_grants - stats.region_grants,
        (2 * RUNS * rounds) as u64,
        "every execute, conflicted or not, runs lane-resident and counts as a grant"
    );
    assert!(
        bits_equal(&a.result(), &want),
        "racing overlapped executes diverge from the sequential oracle"
    );
    assert_eq!(after.live, 0, "leases leaked after the race drained");
    assert_eq!(after.queued, 0);
    if cores() >= 2 {
        assert!(
            conflicts > 0,
            "overlapping executes never counted a conflict in {rounds} rounds"
        );
    } else if conflicts == 0 {
        eprintln!("note: conflict assertion skipped (1 host core, no overlap observed)");
    }
}

/// A failed execute must release its lease. With caching disabled the
/// whole build + execute runs under one whole-machine lease, so a plan
/// build that dies on node-memory exhaustion exercises the error path
/// while the lease is held.
#[test]
fn failed_execute_releases_its_lease() {
    let mut s = Session::tiny().unwrap();
    s.set_plan_cache_capacity(0);
    // Temporal fusion allocates array-sized scratch fields at plan
    // build, so exhausting memory with array-shaped fillers guarantees
    // the build fails once allocation does.
    let opts = ExecOptions::default()
        .with_threads(1)
        .with_temporal_depth(3);
    let c = s.compile("R = 0.5 * X + 0.5 * CSHIFT(X, 2, 1)").unwrap();
    let x = s.array(8, 12).unwrap();
    let r = s.array(8, 12).unwrap();
    x.fill(&mut s.machine_mut(), 1.0);
    s.run_with_multi(&c, &r, &[&x], &[], &opts)
        .expect("runs while memory is plentiful");
    assert_eq!(s.lease_stats().live, 0);

    let mut fillers = Vec::new();
    while let Ok(a) = s.array(8, 12) {
        fillers.push(a);
    }
    let failed = s.run_with_multi(&c, &r, &[&x], &[], &opts);
    assert!(
        failed.is_err(),
        "plan build must fail with node memory exhausted"
    );
    let stats = s.lease_stats();
    assert_eq!(stats.live, 0, "failed execute leaked its lease");
    assert_eq!(stats.queued, 0);
    // The table is not wedged: the retry acquires immediately (and
    // fails the same way, not by blocking behind a ghost lease).
    assert!(s.run_with_multi(&c, &r, &[&x], &[], &opts).is_err());
    assert_eq!(s.lease_stats().live, 0);
}

/// One tenant releases its plan (cache clear retires the artifact and
/// frees its fields) while a neighbor executes on adjacent ranges the
/// whole time: no deadlock, the neighbor's results stay bit-exact, and
/// the lease table drains.
#[test]
fn plan_release_under_a_live_adjacent_lease_stays_exact() {
    cmcc::obs::set_enabled(true);
    const A_STENCIL: &str = "R = 0.5 * X + 0.5 * CSHIFT(X, 2, 1)";
    const B_STENCIL: &str = "R = 0.25 * CSHIFT(X, 1, -1) + 0.5 * X + 0.25 * CSHIFT(X, 1, +1)";
    let opts = exec_opts();
    let fill_a = |r: usize, c: usize| (r * 3 + c) as f32 * 0.5 - 4.0;

    // Oracle for tenant A on a private machine.
    let mut oracle = Session::tiny().unwrap();
    let co = oracle.compile(A_STENCIL).unwrap();
    let xo = oracle.array(8, 12).unwrap();
    let ro = oracle.array(8, 12).unwrap();
    xo.fill_with(&mut oracle.machine_mut(), fill_a);
    oracle.run_with_multi(&co, &ro, &[&xo], &[], &opts).unwrap();
    let want = ro.gather(&oracle.machine());

    let root = Session::tiny().unwrap();
    let mut a = root.clone();
    let ca = a.compile(A_STENCIL).unwrap();
    let xa = a.array(8, 12).unwrap();
    let ra = a.array(8, 12).unwrap();
    xa.fill_with(&mut a.machine_mut(), fill_a);
    // B's arrays and plan fields allocate right after A's: adjacent
    // node-memory ranges, never overlapping ones.
    let mut b = root.clone();
    let cb = b.compile(B_STENCIL).unwrap();
    let xb = b.array(8, 12).unwrap();
    let rb = b.array(8, 12).unwrap();
    xb.fill_with(&mut b.machine_mut(), |r, c| (r + c * 2) as f32 * 0.25);

    a.run_with_multi(&ca, &ra, &[&xa], &[], &opts).unwrap();
    b.run_with_multi(&cb, &rb, &[&xb], &[], &opts).unwrap();

    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..16 {
                a.run_with_multi(&ca, &ra, &[&xa], &[], &opts).unwrap();
            }
        });
        // Meanwhile B releases every cached plan — including A's shared
        // artifact, forcing A to rebuild mid-race — and rebuilds its own.
        for _ in 0..4 {
            b.clear_plan_cache();
            b.run_with_multi(&cb, &rb, &[&xb], &[], &opts).unwrap();
        }
    });

    let got = ra.gather(&a.machine());
    assert!(
        bits_equal(&got, &want),
        "plan release under a live adjacent lease corrupted the neighbor"
    );
    let stats = root.lease_stats();
    assert_eq!(stats.live, 0, "leases leaked after the race drained");
    assert_eq!(stats.queued, 0);
}
