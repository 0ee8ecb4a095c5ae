//! Serve-pool throughput benchmark: region leases vs one execute at a
//! time.
//!
//! Four tenant threads share one [`Session`] (one machine, one plan
//! cache) and each repeatedly executes its own stencil on its own
//! arrays — fully disjoint plans, the stencil-as-a-service steady
//! state. The same workload runs in two phases: concurrent, admitted
//! through the region-lease table (disjoint executes proceed at once,
//! each holding the machine lock only for its node-memory copies), and
//! serialized by an external mutex around every execute — the behavior
//! of a session whose global lock admits one execute at a time.
//!
//! One phase takes about a tenth of a second, so a single timing of
//! each reads anywhere from well below to well above the true ratio.
//! The phases therefore alternate over [`ROUNDS`] rounds (the first
//! phase flipping each round), and the speedup is the ratio of the
//! per-phase minimums — the round least disturbed by the rest of the
//! host. `BENCH_serve.json` records the round count and each phase's
//! min/median/IQR next to it, plus the lease counters and an
//! overlapping-plan conflict probe.
//!
//! ```sh
//! cargo run --release -p cmcc-bench --bin repro_serve
//! cargo run --release -p cmcc-bench --bin repro_serve -- --smoke
//! ```
//!
//! `--smoke` drops the iterations per round (for CI), never the rounds.
//! The ≥1.5× speedup assertion applies only on hosts with 2+ cores; on
//! one core the numbers are still recorded, with the skip reason in the
//! JSON.

use cmcc::Session;
use cmcc_bench::Spread;
use cmcc_cm2::exec::{ExecEngine, ExecMode};
use cmcc_core::compiler::CompiledStencil;
use cmcc_core::patterns::PaperPattern;
use cmcc_core::recognize::CoeffSpec;
use cmcc_runtime::array::CmArray;
use cmcc_runtime::convolve::ExecOptions;
use cmcc_testkit::Rng;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

const WORKERS: usize = 4;
const SUBGRID: (usize, usize) = (64, 64);
/// Iterations per tenant per phase per round.
const FULL_ITERS: usize = 30;
const SMOKE_ITERS: usize = 4;
/// Alternating rounds of the two phases, in both modes.
const ROUNDS: usize = 7;

/// One tenant: a session handle plus its private plan and arrays.
struct Tenant {
    session: Session,
    compiled: CompiledStencil,
    x: CmArray,
    r: CmArray,
    coeffs: Vec<CmArray>,
}

impl Tenant {
    fn run(&mut self, opts: &ExecOptions) {
        let coeff_refs: Vec<&CmArray> = self.coeffs.iter().collect();
        self.session
            .run_with_multi(&self.compiled, &self.r, &[&self.x], &coeff_refs, opts)
            .expect("bench execute succeeds");
    }

    /// The result array's bits.
    fn result(&self) -> Vec<u32> {
        let values = self.r.gather(&self.session.machine());
        values.iter().map(|v| v.to_bits()).collect()
    }
}

/// Runs every tenant for `iters` iterations on its own thread,
/// optionally serializing each execute through `lock` (the one-at-a-time
/// baseline). Returns elapsed wall-clock seconds for the whole pool.
fn timed_pool(tenants: &mut [Tenant], iters: usize, lock: Option<&Mutex<()>>) -> f64 {
    let opts = exec_opts();
    let barrier = Barrier::new(tenants.len());
    let barrier = &barrier;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in tenants.iter_mut() {
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..iters {
                    match lock {
                        Some(m) => {
                            let _serialized = m.lock().unwrap_or_else(|e| e.into_inner());
                            t.run(&opts);
                        }
                        None => t.run(&opts),
                    }
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// Lane-resident lockstep execution, one host thread per tenant so the
/// pool's parallelism comes from the lease table.
fn exec_opts() -> ExecOptions {
    let mut opts = ExecOptions::default()
        .with_threads(1)
        .with_engine(ExecEngine::Lockstep);
    opts.mode = ExecMode::Fast;
    opts
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { SMOKE_ITERS } else { FULL_ITERS };
    let cores = cmcc_bench::host_cores();

    println!("Serve-pool throughput benchmark: region leases vs one execute at a time");
    println!(
        "{WORKERS} tenants x disjoint plans, {}x{} per node on the 16-node board, \
         {cores} host core(s), {ROUNDS} rounds x {iters} iters per tenant per phase\n",
        SUBGRID.0, SUBGRID.1
    );

    // One shared session; each tenant compiles its own pattern and
    // allocates its own arrays — disjoint node-memory ranges by
    // construction (the field allocator never overlaps live fields).
    let root = Session::test_board().expect("test board constructs");
    let patterns = [
        PaperPattern::Square9,
        PaperPattern::Cross5,
        PaperPattern::Star9,
        PaperPattern::Diamond13,
    ];
    let rows = SUBGRID.0 * root.machine().grid().rows();
    let cols = SUBGRID.1 * root.machine().grid().cols();
    let mut rng = Rng::new(0x1991_0626);
    let mut tenants: Vec<Tenant> = patterns
        .iter()
        .map(|p| {
            let mut session = root.clone();
            let compiled = session.compile(&p.fortran()).expect("pattern compiles");
            let mut fill = |session: &mut Session, lo: f32, hi: f32| {
                let a = session.array(rows, cols).expect("array fits");
                let data: Vec<f32> = (0..rows * cols).map(|_| rng.f32_in(lo, hi)).collect();
                a.scatter(&mut session.machine_mut(), &data);
                a
            };
            let x = fill(&mut session, -1.0, 1.0);
            let named = compiled
                .spec()
                .coeffs
                .iter()
                .filter(|c| matches!(c, CoeffSpec::Named(_)))
                .count();
            let coeffs: Vec<CmArray> = (0..named).map(|_| fill(&mut session, -0.5, 0.5)).collect();
            let r = session.array(rows, cols).expect("result fits");
            Tenant {
                session,
                compiled,
                x,
                r,
                coeffs,
            }
        })
        .collect();

    // Warmup: build every plan and prime the lane mirrors, so both
    // timed phases replay the steady state.
    let opts = exec_opts();
    for t in tenants.iter_mut() {
        t.run(&opts);
    }
    let lane_resident: Vec<bool> = tenants
        .iter()
        .map(|t| t.session.last_plan().is_some_and(|p| p.uses_lockstep()))
        .collect();

    // The two phases alternate, the first flipping each round. The
    // serialized phase is the baseline: one execute at a time, enforced
    // by an external mutex around every execute. Every phase computes
    // the same pure function of the inputs, so every phase's results
    // must equal the first's bit for bit.
    let serialize = Mutex::new(());
    let mut concurrent = Vec::with_capacity(ROUNDS);
    let mut serialized = Vec::with_capacity(ROUNDS);
    let mut first_results = None;
    let mut bit_identical = true;
    let mut region_grants = 0;
    for round in 0..ROUNDS {
        for serial in [round % 2 == 1, round % 2 == 0] {
            let before = root.lease_stats().region_grants;
            let secs = timed_pool(&mut tenants, iters, serial.then_some(&serialize));
            if serial {
                serialized.push(secs);
            } else {
                concurrent.push(secs);
                region_grants += root.lease_stats().region_grants - before;
            }
            let results: Vec<Vec<u32>> = tenants.iter().map(Tenant::result).collect();
            bit_identical &= *first_results.get_or_insert_with(|| results.clone()) == results;
        }
    }
    let concurrent = Spread::of(&concurrent);
    let serialized = Spread::of(&serialized);
    let peak_concurrent = root.lease_stats().peak_concurrent;

    // Overlap probe: two handles race the *same* plan bound to the same
    // result array, so their leases overlap on a writable range — the
    // later request must wait its turn *counted*, never silently.
    // Overlap in time is scheduling-dependent, so retry in rounds.
    let conflicts_before = root.lease_stats().conflicts;
    let mut overlap_rounds = 0;
    while root.lease_stats().conflicts == conflicts_before && overlap_rounds < 20 {
        overlap_rounds += 1;
        let pair = &mut tenants[..2];
        let (a, b) = pair.split_at_mut(1);
        let shared_r = &a[0].r;
        let b = &mut b[0];
        let mut b_clone = Tenant {
            session: b.session.clone(),
            compiled: a[0].compiled.clone(),
            x: a[0].x,
            r: *shared_r,
            coeffs: a[0].coeffs.clone(),
        };
        let a = &mut a[0];
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..8 {
                    a.run(&exec_opts());
                }
            });
            scope.spawn(|| {
                for _ in 0..8 {
                    b_clone.run(&exec_opts());
                }
            });
        });
    }
    let overlap_conflicts = root.lease_stats().conflicts - conflicts_before;
    let final_leases = root.lease_stats();

    let speedup = serialized.min / concurrent.min;
    let runs = (WORKERS * iters) as f64;
    for (phase, s) in [("concurrent", concurrent), ("serialized", serialized)] {
        println!(
            "  {phase}: min {:.3} s ({:.1} runs/s), median {:.3} s, IQR {:.3} s",
            s.min,
            runs / s.min,
            s.median,
            s.iqr,
        );
    }
    println!("  speedup (ratio of minimums over {ROUNDS} rounds): {speedup:.2}x");
    println!(
        "  leases: {region_grants} region grants, peak {peak_concurrent} concurrent, \
         overlap probe counted {overlap_conflicts} conflicts in {overlap_rounds} round(s), \
         {} live after drain",
        final_leases.live,
    );

    let gate = if cores >= 2 {
        "asserted (>=1.5x over the serialized baseline)".to_owned()
    } else {
        format!("skipped ({cores} host core: no parallelism to measure)")
    };
    let resident_json: Vec<String> = lane_resident.iter().map(bool::to_string).collect();
    let json = format!(
        "{{\n  \"workers\": {WORKERS},\n  \"subgrid\": [{}, {}],\n  \"host_cores\": {cores},\n  \
         \"iters\": {iters},\n  \"rounds\": {ROUNDS},\n  \
         \"concurrent_secs\": {:.6},\n  \"serialized_secs\": {:.6},\n  \
         \"concurrent\": {},\n  \"serialized\": {},\n  \
         \"concurrent_runs_per_sec\": {:.4},\n  \"serialized_runs_per_sec\": {:.4},\n  \
         \"speedup\": {speedup:.4},\n  \"region_grants\": {region_grants},\n  \
         \"peak_concurrent\": {peak_concurrent},\n  \
         \"overlap_conflicts\": {overlap_conflicts},\n  \
         \"live_leases_after\": {},\n  \"lane_resident\": [{}],\n  \
         \"bit_identical\": {bit_identical},\n  \"gate\": \"{gate}\",\n  \
         \"scaling_gate\": \"{gate}\"\n}}\n",
        SUBGRID.0,
        SUBGRID.1,
        concurrent.min,
        serialized.min,
        concurrent.to_json(),
        serialized.to_json(),
        runs / concurrent.min,
        runs / serialized.min,
        final_leases.live,
        resident_json.join(", "),
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("  wrote BENCH_serve.json");

    assert!(
        bit_identical,
        "a phase's results diverge from the first phase's"
    );
    assert_eq!(
        final_leases.live, 0,
        "leases leaked: {} still live after the pool drained",
        final_leases.live
    );
    assert!(
        region_grants > 0,
        "disjoint lane-resident plans never counted a region grant"
    );
    if cores >= 2 {
        assert!(
            overlap_conflicts > 0,
            "overlapping plans never counted a conflict"
        );
        assert!(
            speedup >= 1.5,
            "expected >=1.5x serve throughput on {cores} cores, got {speedup:.2}x"
        );
    } else {
        println!("  ({gate})");
    }
}
