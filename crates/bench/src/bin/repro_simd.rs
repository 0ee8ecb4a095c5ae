//! Lockstep SIMD executor benchmark: scalar vs lockstep fast mode,
//! plus the kernel tier vs the interpreted lockstep baseline.
//!
//! Runs the 9-point square stencil on the simulated 16-node test board
//! with a 128×128 per-node subgrid (a 512×512 global array) in fast
//! functional mode, once with the node-outer scalar interpreter and once
//! with the step-outer lockstep broadcast engine. Both use a persistent
//! execution plan (built once, replayed), a single host thread, and
//! identically seeded data, so the measured ratio isolates the executor:
//! per-step dispatch amortized over all node lanes plus contiguous
//! lane-major inner loops, exactly the paper's §4.3 broadcast of one
//! instruction stream to every node.
//!
//! Results must be bit-identical and `Measurement`s exactly equal; the
//! steady-state speedup is asserted ≥2× in full mode and written to
//! `BENCH_simd.json` either way. A lockstep plan is always lane-resident
//! (its mirror persists across executes and only the result range is
//! scattered back), so part of the ratio is the copy traffic residency
//! saves; both engines' steady-state copy bytes per iteration are
//! reported.
//!
//! A second ratio isolates plan-time kernel generation: the same
//! lockstep plan is replayed with the kernel tier toggled off
//! (`ExecutionPlan::set_kernel_tier`), timing the monomorphized kernels
//! against the per-step interpreter. Full mode asserts the kernels win
//! by ≥2×, and the profiled pass asserts `interpreted_steps == 0` — on
//! this workload every strip must classify into the family, which is
//! also the CI smoke gate (it runs under `--quick` too).
//!
//! A third pass measures what `cmcc_obs` profiling costs the lockstep
//! engine, with the flight recorder pinned *off*, and asserts it stays
//! under 2% in full mode. The design is paired: one plan alternates
//! profiling-disabled and profiling-enabled batches of executes (which
//! batch goes first flips each pair), each pair yields one on/off time
//! ratio, and the overhead is the median ratio minus one, with the
//! ratios' IQR recorded next to it. Comparing minimums of two separately
//! built plans instead let host noise pick the sign: one such run read
//! −20.71%. The disabled batches run the same instrumented build, so
//! the bound also covers the disabled instrumentation paths
//! (branch-on-a-relaxed-atomic for the counters, one relaxed load per
//! would-be trace event) that every build carries.
//!
//! ```sh
//! cargo run --release -p cmcc-bench --bin repro_simd
//! cargo run --release -p cmcc-bench --bin repro_simd -- --quick
//! ```
//!
//! `--quick` runs 2 timed iterations per engine and checks equivalence
//! only (for CI, where wall-clock ratios on shared runners are noise).

use cmcc_bench::{Spread, Workload};
use cmcc_cm2::config::MachineConfig;
use cmcc_cm2::timing::Measurement;
use cmcc_core::patterns::PaperPattern;
use cmcc_runtime::array::CmArray;
use cmcc_runtime::convolve::ExecOptions;
use cmcc_runtime::plan::{ExecutionPlan, PlanLifetime, StencilBinding};
use cmcc_runtime::ExecEngine;
use std::time::Instant;

const SUBGRID: (usize, usize) = (128, 128);
const FULL_ITERS: usize = 20;
const WARMUP: usize = 2;
/// Profiling on/off batch pairs, and executes per batch, in full mode
/// (`--quick` runs 5 pairs of 1).
const OVERHEAD_PAIRS: usize = 15;
const OVERHEAD_BATCH: usize = 5;

/// Times profiling on against profiling off on one lockstep plan over
/// `w`: `pairs` pairs of `batch`-execute batches, alternating which
/// setting runs first, each pair giving one on/off time ratio. The
/// flight recorder stays off and profiling ends disabled. Returns the
/// ratios' spread, the kernelized and interpreted lockstep steps counted
/// while enabled, the measurement, and the gathered result.
fn profiling_overhead(
    w: &mut Workload,
    pairs: usize,
    batch: usize,
) -> (Spread, u64, u64, Measurement, Vec<f32>) {
    let opts = ExecOptions::fast()
        .with_engine(ExecEngine::Lockstep)
        .with_threads(1);
    let refs: Vec<&CmArray> = w.coeffs.iter().collect();
    let binding =
        StencilBinding::new(&w.compiled, &w.r, &[&w.x], &refs).expect("bench binding is valid");
    let mark = w.machine.alloc_mark();
    let mut plan = ExecutionPlan::build(&mut w.machine, &binding, &opts, PlanLifetime::Scoped)
        .expect("bench plan builds");
    cmcc_obs::trace::set_trace_enabled(false);
    let mut m = plan.execute(&mut w.machine).expect("bench plan executes");
    for _ in 1..WARMUP {
        m = plan.execute(&mut w.machine).expect("bench plan executes");
    }
    let counters_before = cmcc_obs::snapshot();
    let mut ratios = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        let mut secs = [0.0f64; 2];
        for enabled in [pair % 2 == 1, pair % 2 == 0] {
            cmcc_obs::set_enabled(enabled);
            let start = Instant::now();
            for _ in 0..batch {
                m = plan.execute(&mut w.machine).expect("bench plan executes");
            }
            secs[enabled as usize] = start.elapsed().as_secs_f64();
        }
        ratios.push(secs[1] / secs[0]);
    }
    cmcc_obs::set_enabled(false);
    let counters = cmcc_obs::snapshot().delta(&counters_before);
    let result = w.r.gather(&w.machine);
    w.machine.release_to(mark);
    (
        Spread::of(&ratios),
        counters.get(cmcc_obs::Counter::KernelizedSteps),
        counters.get(cmcc_obs::Counter::InterpretedSteps),
        m,
        result,
    )
}

/// Builds a persistent plan for `w` under `engine`, replays it
/// `WARMUP + iters` times, and returns the best steady-state seconds per
/// iteration, the measurement, the gathered result, and the bytes each
/// steady-state iteration copies (machine-total, from the plan's own
/// accounting).
fn time_engine(
    w: &mut Workload,
    engine: ExecEngine,
    iters: usize,
    kernel_tier: bool,
) -> (f64, Measurement, Vec<f32>, usize) {
    let opts = ExecOptions::fast().with_engine(engine).with_threads(1);
    let refs: Vec<&CmArray> = w.coeffs.iter().collect();
    let binding =
        StencilBinding::new(&w.compiled, &w.r, &[&w.x], &refs).expect("bench binding is valid");
    let mark = w.machine.alloc_mark();
    let mut plan = ExecutionPlan::build(&mut w.machine, &binding, &opts, PlanLifetime::Scoped)
        .expect("bench plan builds");
    assert_eq!(
        plan.uses_lockstep(),
        engine == ExecEngine::Lockstep,
        "a clean single-source binding must lane-map iff lockstep is requested"
    );
    plan.set_kernel_tier(kernel_tier);
    if engine == ExecEngine::Lockstep && kernel_tier {
        assert!(
            plan.kernelized_strips() > 0,
            "the 9-point workload must compile against the kernel family"
        );
    }
    let copy_bytes = plan.steady_state_copy_words() * 4;
    let mut m = plan.execute(&mut w.machine).expect("bench plan executes");
    for _ in 1..WARMUP {
        m = plan.execute(&mut w.machine).expect("bench plan executes");
    }
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        m = plan.execute(&mut w.machine).expect("bench plan executes");
        best = best.min(start.elapsed().as_secs_f64());
    }
    let result = w.r.gather(&w.machine);
    w.machine.release_to(mark);
    (best, m, result, copy_bytes)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let iters = if quick { 2 } else { FULL_ITERS };

    println!("Lockstep SIMD executor benchmark (fast mode, 1 host thread)");
    println!(
        "9-point square, {}x{} per node on the 16-node board (512x512 global), \
         warmup {WARMUP} + {iters} iters per engine\n",
        SUBGRID.0, SUBGRID.1
    );

    // Two identically-seeded workloads, so any divergence is the
    // executor's fault, not the data's.
    let mut scalar_w = Workload::new(
        MachineConfig::test_board_16(),
        PaperPattern::Square9,
        SUBGRID,
    );
    let mut lockstep_w = Workload::new(
        MachineConfig::test_board_16(),
        PaperPattern::Square9,
        SUBGRID,
    );

    let (scalar_secs, scalar_m, scalar_r, scalar_copy_bytes) =
        time_engine(&mut scalar_w, ExecEngine::Scalar, iters, true);
    println!("  scalar:   {scalar_secs:.6} s/iter, {scalar_copy_bytes} copy bytes/iter");
    let (lockstep_secs, lockstep_m, lockstep_r, lockstep_copy_bytes) =
        time_engine(&mut lockstep_w, ExecEngine::Lockstep, iters, true);
    println!("  lockstep: {lockstep_secs:.6} s/iter, {lockstep_copy_bytes} copy bytes/iter");

    // Kernel tier vs interpreted lockstep: the same plan with the tier
    // toggled off, so this ratio isolates the step engine itself — the
    // thing plan-time kernel generation changes.
    let mut interp_w = Workload::new(
        MachineConfig::test_board_16(),
        PaperPattern::Square9,
        SUBGRID,
    );
    let (interp_secs, interp_m, interp_r, _) =
        time_engine(&mut interp_w, ExecEngine::Lockstep, iters, false);
    println!("  lockstep (interpreted): {interp_secs:.6} s/iter");
    assert_eq!(
        interp_m, lockstep_m,
        "the kernel tier must not change the Measurement"
    );
    assert!(
        interp_r
            .iter()
            .zip(&lockstep_r)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "the kernel tier must not change results"
    );

    // Third pass: profiling on against profiling off, paired on one
    // lockstep plan over an identical workload — and the kernel
    // coverage gate: on the 9-point workload no lockstep step may fall
    // back to the interpreter.
    let mut profiled_w = Workload::new(
        MachineConfig::test_board_16(),
        PaperPattern::Square9,
        SUBGRID,
    );
    let (pairs, batch) = if quick {
        (5, 1)
    } else {
        (OVERHEAD_PAIRS, OVERHEAD_BATCH)
    };
    let (ratios, kernelized_steps, interpreted_steps, profiled_m, profiled_r) =
        profiling_overhead(&mut profiled_w, pairs, batch);
    assert!(
        kernelized_steps > 0,
        "the profiled lockstep batches must run kernelized steps"
    );
    assert_eq!(
        interpreted_steps, 0,
        "no lockstep step may fall back to the interpreter on the 9-point workload"
    );
    let profile_overhead = ratios.median - 1.0;
    let overhead_iqr = ratios.iqr;
    println!(
        "  lockstep profiling overhead: {:+.2}% (median of {pairs} paired on/off batch \
         ratios, IQR {:.2}%)",
        profile_overhead * 100.0,
        overhead_iqr * 100.0
    );
    assert_eq!(
        profiled_m, lockstep_m,
        "profiling must not change the Measurement"
    );
    assert!(
        profiled_r
            .iter()
            .zip(&lockstep_r)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "profiling must not change results"
    );

    let bit_identical = scalar_r.len() == lockstep_r.len()
        && scalar_r
            .iter()
            .zip(&lockstep_r)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let measurement_equal = scalar_m == lockstep_m;
    let speedup = scalar_secs / lockstep_secs;
    let kernel_speedup = interp_secs / lockstep_secs;
    println!(
        "\n  speedup {speedup:.2}x (kernels over interpreted lockstep: {kernel_speedup:.2}x); \
         bit-identical: {bit_identical}; measurements equal: {measurement_equal}"
    );

    // The JSON records the per-execute step count of the profiled
    // batches, so it is invariant to the batch sizes.
    let kernelized_steps_per_run = kernelized_steps / (pairs * batch) as u64;
    let cores = cmcc_bench::host_cores();
    let scaling_gate = if quick {
        "recorded only (--quick: wall-clock ratios not asserted)".to_owned()
    } else {
        "asserted (>=2x lockstep, >=2x kernel tier, <2% profiling overhead)".to_owned()
    };
    let json = format!(
        "{{\n  \"pattern\": \"{}\",\n  \"global_grid\": [512, 512],\n  \"subgrid\": [{}, {}],\n  \
         \"host_cores\": {cores},\n  \"scaling_gate\": \"{scaling_gate}\",\n  \
         \"threads\": 1,\n  \"warmup\": {WARMUP},\n  \"iters\": {iters},\n  \
         \"scalar_secs_per_iter\": {scalar_secs:.6},\n  \
         \"lockstep_secs_per_iter\": {lockstep_secs:.6},\n  \
         \"lockstep_interpreted_secs_per_iter\": {interp_secs:.6},\n  \
         \"scalar_copy_bytes_per_iter\": {scalar_copy_bytes},\n  \
         \"lockstep_copy_bytes_per_iter\": {lockstep_copy_bytes},\n  \
         \"profiling_pairs\": {pairs},\n  \"profiling_batch\": {batch},\n  \
         \"profiling_overhead\": {profile_overhead:.4},\n  \
         \"profiling_overhead_iqr\": {overhead_iqr:.4},\n  \
         \"kernelized_steps_per_run\": {kernelized_steps_per_run},\n  \
         \"interpreted_steps_per_run\": {interpreted_steps},\n  \
         \"speedup\": {speedup:.4},\n  \"kernel_speedup\": {kernel_speedup:.4},\n  \
         \"bit_identical\": {bit_identical},\n  \
         \"measurement_equal\": {measurement_equal}\n}}\n",
        PaperPattern::Square9.name(),
        SUBGRID.0,
        SUBGRID.1,
    );
    std::fs::write("BENCH_simd.json", &json).expect("write BENCH_simd.json");
    println!("  wrote BENCH_simd.json");

    assert!(bit_identical, "lockstep results diverge from scalar");
    assert!(
        measurement_equal,
        "lockstep Measurement differs from scalar"
    );
    if quick {
        println!("  (--quick: speedup and overhead recorded but not asserted)");
    } else {
        assert!(
            speedup >= 2.0,
            "expected >=2x lockstep speedup, got {speedup:.2}x"
        );
        assert!(
            kernel_speedup >= 2.0,
            "expected >=2x kernel-tier speedup over interpreted lockstep, got {kernel_speedup:.2}x"
        );
        assert!(
            profile_overhead < 0.02,
            "profiling overhead {:.2}% exceeds the 2% budget",
            profile_overhead * 100.0
        );
    }
}
