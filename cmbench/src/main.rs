//! The cmcc benchmark: end-to-end and per-layer metrics of three
//! workloads on the simulated 16-node CM-2 test board.
//!
//! ```sh
//! cargo run --release --manifest-path cmbench/Cargo.toml -- \
//!     --workload steady_square9 --seed 1 --seconds 50 --trace 0
//! ```
//!
//! * `steady_square9`: one tenant time-steps the paper's 9-point square
//!   (nine coefficient arrays) at 128×128 per node in fast lockstep
//!   lane-resident mode, swapping source and result every step.
//! * `serve_mixed`: two tenant threads share one `Session` in a closed
//!   loop at 32×32 per node: executes of the paper's patterns and a
//!   literal heat step fused four deep, host reads and writes, and a few
//!   executes on a plan and result both tenants share.
//! * `cold_cycle`: a seeded set of distinct statements, each compiled
//!   and run cycle-accurately once per pass with the plan cache cleared
//!   between passes.
//!
//! `BENCHMARK.json` lists `steady_square9` and `cold_cycle`.
//! `serve_mixed` runs on request: its two tenant threads share the
//! host's two cores, so a tenant the hypervisor stalls while it holds
//! the machine lock or a lease stalls the other too. The gauge cannot
//! see that, and its rates and tails drift with the host by more than
//! any bound a regression check could use.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs half the
//! time untraced and half with the recorder on (`cmcc::obs`) and prints
//! the per-layer metrics. `--workload all` runs every workload in one
//! process and prefixes each metric with its workload. The last line of
//! standard output is one JSON object; the exit code is 1 when any
//! output failed its oracle check or a field held a subnormal value.
//!
//! Every timed metric, `setup_s` included, is a time at reference host
//! speed: a plain-Rust stencil the benchmark owns (the gauge, `gauge.rs`)
//! is timed on a slice of its field just before and just after every
//! measured operation, and the operation's wall time is scaled by how
//! much slower or faster than its reference time the gauge ran around
//! it (damped, as the program follows the gauge only in part); rates
//! use wall time in quarter-second batches scaled the same way. A shared host whose speed drifts then moves the gauge and the
//! program alike, and the scaled figures hold still; a change to the
//! program moves them as it moves wall time. The untraced run prints the
//! median scaling factor and the unscaled wall time as a note.
//!
//! Latency tails are robust to a burst of contention too: each `*_p99`
//! is the median of the nearest-rank p99s of up to five consecutive
//! stretches of the samples, of at least 1,000 each (`stats.rs`).
//!
//! Step, statement and request latencies are defined the same way on
//! every workload: a step is one time step of a stencil (an execute's
//! latency divided by the steps it fuses), a statement call is one
//! execute (in `cold_cycle`, compile plus execute), and a request is any
//! closed-loop operation of the client (in `serve_mixed` host reads and
//! writes too). Where a workload has one kind of operation, these read
//! alike.

mod cold;
mod gauge;
mod gen;
mod oracle;
mod serve;
mod spans;
mod stats;
mod steady;
mod tally;

use cmcc::obs::{self, trace};
use gauge::Gauge;
use spans::SpanLog;
use std::process::ExitCode;
use std::time::Instant;
use tally::{end_to_end, p99_warnings, per_layer, Metric, Simulated, Tally, Traced};

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

/// A benchmark workload.
pub trait Workload {
    /// Name on the command line.
    const NAME: &'static str;
    /// Whether the cycle engine is the measured window's own work (its
    /// host time is then read from the window's execute spans).
    const CYCLE_IN_WINDOW: bool = false;
    /// Everything the window runs on.
    type World;
    /// Builds the workload from its seed until it is warm: plans built,
    /// mirrors primed. Parse and compile timings go to `tally`.
    fn setup(seed: u64, tally: &mut Tally) -> Self::World;
    /// Runs the closed loop for `seconds`, its timings scaled to
    /// reference host speed by `gauge`. With a span log (traced run) the
    /// recorder is drained into it between batches.
    fn window(
        world: &mut Self::World,
        seed: u64,
        seconds: f64,
        gauge: &mut Gauge,
        log: Option<&mut SpanLog>,
    ) -> Tally;
    /// Checks the final fields: range, and no subnormal values.
    fn finish(world: &mut Self::World, tally: &mut Tally);
    /// The cycle-accurate runs behind `sim_gflops`.
    fn simulate(world: &mut Self::World, tally: &mut Tally) -> Simulated;
    /// Median scratch-memory entries of the compiled statements.
    fn scratch_entries(world: &Self::World) -> f64;
}

/// What one workload run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    subnormals: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.subnormals == 0
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Builds the workload and returns it with its set-up time at reference
/// host speed, in seconds.
fn timed_setup<W: Workload>(seed: u64, gauge: &mut Gauge, tally: &mut Tally) -> (W::World, f64) {
    let before = gauge.read();
    let t = Instant::now();
    let world = W::setup(seed, tally);
    let secs = t.elapsed().as_secs_f64();
    let after = gauge.read();
    (world, secs * gauge.factor((before + after) / 2))
}

/// Runs one workload: untraced for the end-to-end metrics, or traced
/// for the per-layer ones.
fn run<W: Workload>(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut gauge = Gauge::default();
    if !traced {
        let mut scratch = Tally::default();
        let (mut world, first) = timed_setup::<W>(seed, &mut gauge, &mut scratch);
        let mut setup_s = vec![first];
        let mut tally = W::window(&mut world, seed, seconds, &mut gauge, None);
        W::finish(&mut world, &mut tally);
        let sim = W::simulate(&mut world, &mut tally);
        let rss = peak_rss_mib();
        // More set-ups for a steadier `setup_s`, after the peak was read.
        // They stay alive until all are timed: freeing one session's
        // node memory can make the allocator serve the next from reused
        // heap pages that it must zero, which would skew the timing.
        let mut extra = Vec::new();
        for _ in 1..SETUPS {
            let (world, secs) = timed_setup::<W>(seed, &mut gauge, &mut scratch);
            extra.push(world);
            setup_s.push(secs);
        }
        drop(extra);
        let metrics = end_to_end(&tally, stats::median_f64(&setup_s), sim.gflops, rss);
        let mut notes = tally.notes.clone();
        notes.extend(p99_warnings(&tally));
        notes.push(host_speed(&tally));
        notes.push(format!(
            "set-ups at reference host speed: {}",
            setup_s
                .iter()
                .map(|s| format!("{s:.4} s"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        return Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            subnormals: tally.subnormals,
            metrics,
            notes,
        };
    }

    let half = seconds / 2.0;
    let untraced = {
        let mut scratch = Tally::default();
        let mut world = W::setup(seed, &mut scratch);
        let mut t = W::window(&mut world, seed, half, &mut gauge, None);
        W::finish(&mut world, &mut t);
        t
    };

    obs::reset();
    obs::set_enabled(true);
    trace::reset_trace();
    trace::set_trace_enabled(true);
    let mut log = SpanLog::new();
    let mut setup = Tally::default();
    let mut world = W::setup(seed, &mut setup);
    let mut tally = W::window(&mut world, seed, half, &mut gauge, Some(&mut log));
    log.drain();
    trace::set_trace_enabled(false);
    let whole = obs::snapshot();
    obs::set_enabled(false);
    W::finish(&mut world, &mut tally);
    let mut sim = W::simulate(&mut world, &mut tally);
    if W::CYCLE_IN_WINDOW {
        sim.exec_ns = log.durations(trace::TraceOp::Execute).to_vec();
    }
    tally.parse_ns.extend(setup.parse_ns);
    tally.compile_ns.extend(setup.compile_ns);

    for (depth, exchanges, steps) in std::mem::take(&mut tally.exchange_checks) {
        if exchanges * depth as u64 != steps {
            tally.fail(format!(
                "{exchanges} halo exchanges over {steps} steps at temporal depth {depth}"
            ));
        }
    }
    if log.drops > 0 {
        tally.fail(format!("the recorder dropped {} events", log.drops));
    }
    let metrics = per_layer(&Traced {
        tally: &tally,
        spans: &log,
        whole,
        scratch_entries: W::scratch_entries(&world),
        request_p50: (
            stats::median(&untraced.request_ns),
            stats::median(&tally.request_ns),
        ),
        sim: &sim,
    });
    let mut notes = untraced.notes.clone();
    notes.extend(tally.notes.iter().cloned());
    Outcome {
        attempted: untraced.attempted + tally.attempted,
        failed: untraced.failed + tally.failed,
        subnormals: untraced.subnormals + tally.subnormals,
        metrics,
        notes,
    }
}

/// How fast the host ran in the window, against the gauge's reference.
fn host_speed(t: &Tally) -> String {
    format!(
        "host speed: median batch factor x{:.3} to reference speed over {} batches; \
         {:.3} s of wall time read as {:.3} s",
        stats::median_f64(&t.batch_factors),
        t.batch_factors.len(),
        t.raw_wall_ns as f64 / 1e9,
        t.wall_ns as f64 / 1e9,
    )
}

/// A JSON number: finite values as Rust prints them (shortest
/// round-trip form), anything else as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 50.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

const WORKLOADS: [&str; 3] = [steady::Steady::NAME, serve::Serve::NAME, cold::Cold::NAME];

fn run_named(name: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    match name {
        steady::Steady::NAME => run::<steady::Steady>(seed, seconds, traced),
        serve::Serve::NAME => run::<serve::Serve>(seed, seconds, traced),
        _ => run::<cold::Cold>(seed, seconds, traced),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cmbench: {e}");
            eprintln!(
                "usage: cmbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else if let Some(n) = WORKLOADS.iter().find(|n| **n == args.workload) {
        vec![n]
    } else {
        eprintln!("cmbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    // The untraced run keeps both recorders off whatever the environment
    // says.
    obs::set_enabled(false);
    trace::set_trace_enabled(false);
    trace::set_tenant(Some(0));

    let prefix = names.len() > 1;
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut fields = Vec::new();
    for name in names {
        let out = run_named(name, args.seed, args.seconds, args.trace);
        println!(
            "{name}: seed {} | {} operations, {} failed, {} subnormal values",
            args.seed, out.attempted, out.failed, out.subnormals
        );
        if out.attempted > 0 {
            println!(
                "  {:<32} {:>16} fraction",
                "failed_frac",
                out.failed as f64 / out.attempted as f64
            );
        }
        for m in &out.metrics {
            println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
            let key = if prefix {
                format!("{name}.{}", m.name)
            } else {
                m.name.to_owned()
            };
            fields.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            ));
        }
        for n in &out.notes {
            println!("  note: {n}");
        }
        attempted += out.attempted;
        failed += out.failed;
        correct &= out.correct();
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
