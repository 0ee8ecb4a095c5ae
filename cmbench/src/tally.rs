//! Raw observations of one measured window, and the metrics derived
//! from them.

use crate::gauge::Scale;
use crate::spans::SpanLog;
use crate::stats::{beyond, median, percentile, sorted, stretch_p99};
use cmcc::obs::trace::TraceOp;
use cmcc::obs::{Counter, Phase, RunReport};
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Raw samples and counts of one window (or one tenant's share of it).
/// Latencies are nanoseconds, one sample per operation.
#[derive(Debug, Default)]
pub struct Tally {
    /// Wall time of the window.
    pub wall_ns: u64,
    /// Per time step: an execute's latency divided by the steps it
    /// advanced.
    pub step_ns: Vec<u64>,
    /// Per statement call: an execute (and, in `cold_cycle`, the
    /// compile before it).
    pub statement_ns: Vec<u64>,
    /// Per closed-loop request of any kind.
    pub request_ns: Vec<u64>,
    /// Grid points advanced: points per field times time steps.
    pub points: u64,
    /// Time steps advanced.
    pub steps: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that erred or failed their check.
    pub failed: u64,
    /// Subnormal values seen in checked fields.
    pub subnormals: u64,
    /// Outside timings of `cmcc::front::parse_assignment`.
    pub parse_ns: Vec<u64>,
    /// Outside timings of `Session::compile`.
    pub compile_ns: Vec<u64>,
    /// Outside timings of `Session::machine`/`machine_mut` guard
    /// acquisition.
    pub lock_wait_ns: Vec<u64>,
    /// Outside timings of host reads and writes (`gather`/`scatter`,
    /// guard included).
    pub host_io_ns: Vec<u64>,
    /// Recorder counters of the measured operations only (oracle runs
    /// excluded), summed from per-operation thread snapshots; kept only
    /// in the traced run.
    pub report: RunReport,
    /// The part of `report` recorded by executes that advanced a time
    /// step, for the per-step counts.
    pub step_report: RunReport,
    /// `(tenant, start, end)` of every `run_with_multi` call, in
    /// recorder time; kept only in the traced run.
    pub calls: Vec<(u32, u64, u64)>,
    /// Exact per-class halo-exchange checks: `(depth, exchanges, steps)`.
    pub exchange_checks: Vec<(usize, u64, u64)>,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
    /// Per closed batch, the factor that scaled its wall time to
    /// reference host speed (see [`crate::gauge`]).
    pub batch_factors: Vec<f64>,
    /// Wall time of the closed batches, unscaled.
    pub raw_wall_ns: u64,
}

impl Tally {
    /// Records a failed operation with a description.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    /// How many step, statement and request samples there are, for
    /// [`Tally::scale_since`].
    pub fn marks(&self) -> [usize; 3] {
        [
            self.step_ns.len(),
            self.statement_ns.len(),
            self.request_ns.len(),
        ]
    }

    /// Scales the step, statement and request samples taken since
    /// `marks` to reference host speed.
    pub fn scale_since(&mut self, marks: [usize; 3], scale: Scale) {
        for (samples, from) in [
            &mut self.step_ns,
            &mut self.statement_ns,
            &mut self.request_ns,
        ]
        .into_iter()
        .zip(marks)
        {
            for v in &mut samples[from..] {
                *v = scale.of(*v);
            }
        }
    }

    /// Ends a batch of the window that took `wall_ns`, scaled to
    /// reference host speed by `factor`. Its samples were scaled as they
    /// were taken.
    pub fn close_batch(&mut self, wall_ns: u64, factor: f64) {
        self.raw_wall_ns += wall_ns;
        self.wall_ns += (wall_ns as f64 * factor).round() as u64;
        self.batch_factors.push(factor);
    }

    /// Adds another tenant's observations (the wall time is the
    /// window's, so the larger one is kept).
    pub fn merge(&mut self, other: Tally) {
        self.wall_ns = self.wall_ns.max(other.wall_ns);
        self.raw_wall_ns = self.raw_wall_ns.max(other.raw_wall_ns);
        self.batch_factors.extend(other.batch_factors);
        self.step_ns.extend(other.step_ns);
        self.statement_ns.extend(other.statement_ns);
        self.request_ns.extend(other.request_ns);
        self.points += other.points;
        self.steps += other.steps;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.subnormals += other.subnormals;
        self.parse_ns.extend(other.parse_ns);
        self.compile_ns.extend(other.compile_ns);
        self.lock_wait_ns.extend(other.lock_wait_ns);
        self.host_io_ns.extend(other.host_io_ns);
        self.report = self.report.merge(&other.report);
        self.step_report = self.step_report.merge(&other.step_report);
        self.calls.extend(other.calls);
        self.exchange_checks.extend(other.exchange_checks);
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn p50(samples: &[u64]) -> u64 {
    median(samples)
}

fn p99(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    percentile(&sorted(samples.to_vec()), 99)
}

fn per_sec(count: usize, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        count as f64 / (wall_ns as f64 / 1e9)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Warnings for p99 figures with fewer than ten samples beyond them.
pub fn p99_warnings(t: &Tally) -> Vec<String> {
    [
        ("step", t.step_ns.len()),
        ("statement", t.statement_ns.len()),
        ("request", t.request_ns.len()),
    ]
    .iter()
    .filter(|(_, n)| *n > 0 && beyond(*n, 99) < 10)
    .map(|(what, n)| format!("{what} p99 rests on {n} samples, fewer than 10 beyond it"))
    .collect()
}

/// The end-to-end metrics of an untraced window.
pub fn end_to_end(t: &Tally, setup_s: f64, sim_gflops: f64, peak_rss_mib: f64) -> Vec<Metric> {
    vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "mpoints_per_s",
            value: t.points as f64 / (t.wall_ns as f64 / 1e9) / 1e6,
            unit: "Mpoints/s",
        },
        Metric {
            name: "step_ms_p50",
            value: ms(p50(&t.step_ns)),
            unit: "ms",
        },
        Metric {
            name: "step_ms_p99",
            value: ms(stretch_p99(&t.step_ns)),
            unit: "ms",
        },
        Metric {
            name: "requests_per_s",
            value: per_sec(t.request_ns.len(), t.wall_ns),
            unit: "1/s",
        },
        Metric {
            name: "request_ms_p50",
            value: ms(p50(&t.request_ns)),
            unit: "ms",
        },
        Metric {
            name: "request_ms_p99",
            value: ms(stretch_p99(&t.request_ns)),
            unit: "ms",
        },
        Metric {
            name: "statements_per_s",
            value: per_sec(t.statement_ns.len(), t.wall_ns),
            unit: "1/s",
        },
        Metric {
            name: "statement_ms_p50",
            value: ms(p50(&t.statement_ns)),
            unit: "ms",
        },
        Metric {
            name: "statement_ms_p99",
            value: ms(stretch_p99(&t.statement_ns)),
            unit: "ms",
        },
        Metric {
            name: "sim_gflops",
            value: sim_gflops,
            unit: "Gflops",
        },
        Metric {
            name: "peak_rss_mib",
            value: peak_rss_mib,
            unit: "MiB",
        },
    ]
}

/// The workload's cycle-accurate runs: the simulated CM-2 rate and the
/// host cost of simulating it.
#[derive(Debug, Default)]
pub struct Simulated {
    /// Geometric mean over the workload's statements of the simulated
    /// rate, extrapolated to 2,048 nodes.
    pub gflops: f64,
    /// Host time of each cycle-accurate execute, nanoseconds.
    pub exec_ns: Vec<u64>,
    /// Simulated cycles those executes covered.
    pub exec_cycles: u64,
    /// Simulated cycles of one pass over the workload's statements.
    pub pass_cycles: u64,
}

/// What the traced run observed, besides the window's own tally.
pub struct Traced<'a> {
    /// The traced window (and the traced set-up's parse and compile
    /// samples).
    pub tally: &'a Tally,
    /// Spans of the traced set-up and window.
    pub spans: &'a SpanLog,
    /// Recorder counters over the traced set-up and window, for the
    /// compile phases.
    pub whole: RunReport,
    /// Median scratch-memory entries of the compiled statements.
    pub scratch_entries: f64,
    /// Request p50 of the untraced and the traced window, nanoseconds.
    pub request_p50: (u64, u64),
    /// The cycle-accurate runs.
    pub sim: &'a Simulated,
}

/// The per-layer metrics of a traced run. Layers a workload does not
/// run read 0.
pub fn per_layer(x: &Traced<'_>) -> Vec<Metric> {
    let t = x.tally;
    let w = &t.report;
    let ws = &t.step_report;
    let steps = t.steps;
    let compiles = t.compile_ns.len() as u64;
    let per_compile_us = |phase: Phase| ratio(x.whole.phase_nanos(phase), compiles) / 1e3;
    let span_p50 = |op: TraceOp| us(p50(x.spans.durations(op)));
    let sweep_ns = x.spans.total_ns(TraceOp::KernelSweep);
    let held = x.spans.total_ns(TraceOp::LeaseHeld);
    let executed = x.spans.total_ns(TraceOp::Execute);
    let cycle_secs = x.sim.exec_ns.iter().sum::<u64>() as f64 / 1e9;
    let (u, tr) = x.request_p50;
    vec![
        Metric {
            name: "front.parse_us_p50",
            value: us(p50(&t.parse_ns)),
            unit: "us",
        },
        Metric {
            name: "core.compile_us_p50",
            value: us(p50(&t.compile_ns)),
            unit: "us",
        },
        Metric {
            name: "core.recognize_us",
            value: per_compile_us(Phase::Recognize),
            unit: "us",
        },
        Metric {
            name: "core.regalloc_us",
            value: per_compile_us(Phase::Regalloc),
            unit: "us",
        },
        Metric {
            name: "core.unroll_us",
            value: per_compile_us(Phase::Unroll),
            unit: "us",
        },
        Metric {
            name: "core.scratch_entries",
            value: x.scratch_entries,
            unit: "count",
        },
        Metric {
            name: "plan.build_us_p50",
            value: span_p50(TraceOp::PlanBuild),
            unit: "us",
        },
        Metric {
            name: "plan.rebind_us_p50",
            value: span_p50(TraceOp::PlanRebind),
            unit: "us",
        },
        Metric {
            name: "plan.cache_hit_frac",
            value: ratio(
                w.get(Counter::PlanCacheHits),
                w.get(Counter::PlanCacheHits) + w.get(Counter::PlanCacheMisses),
            ),
            unit: "fraction",
        },
        Metric {
            name: "plan.builds",
            value: w.get(Counter::PlanBuilds) as f64,
            unit: "count",
        },
        Metric {
            name: "plan.evictions",
            value: w.get(Counter::PlanCacheEvictions) as f64,
            unit: "count",
        },
        Metric {
            name: "halo.exchange_us_p50",
            value: span_p50(TraceOp::HaloExchange),
            unit: "us",
        },
        Metric {
            name: "halo.exchanges_per_step",
            value: ratio(ws.get(Counter::HaloExchanges), steps),
            unit: "1/step",
        },
        Metric {
            name: "halo.exchange_words_per_step",
            value: ratio(
                ws.get(Counter::ExchangeEdgeWords) + ws.get(Counter::ExchangeCornerWords),
                steps,
            ),
            unit: "words/step",
        },
        Metric {
            name: "halo.refresh_us_p50",
            value: span_p50(TraceOp::InteriorRefresh),
            unit: "us",
        },
        Metric {
            name: "halo.refresh_words_per_step",
            value: ratio(ws.get(Counter::InteriorRefreshWords), steps),
            unit: "words/step",
        },
        Metric {
            name: "sweep.us_p50",
            value: span_p50(TraceOp::KernelSweep),
            unit: "us",
        },
        Metric {
            name: "sweep.gflops",
            value: ratio(w.get(Counter::UsefulFlops), sweep_ns),
            unit: "Gflops",
        },
        Metric {
            name: "sweep.kernelized_frac",
            value: ratio(
                w.get(Counter::KernelizedSteps),
                w.get(Counter::LockstepSteps),
            ),
            unit: "fraction",
        },
        Metric {
            name: "lane.gather_words_per_step",
            value: ratio(ws.get(Counter::GatherWords), steps),
            unit: "words/step",
        },
        Metric {
            name: "lane.scatter_words_per_step",
            value: ratio(ws.get(Counter::ScatterWords), steps),
            unit: "words/step",
        },
        Metric {
            name: "lane.mirror_allocs_steady",
            value: w.get(Counter::MirrorAllocations) as f64,
            unit: "count",
        },
        Metric {
            name: "cycle.exec_ms_p50",
            value: ms(p50(&x.sim.exec_ns)),
            unit: "ms",
        },
        Metric {
            name: "cycle.sim_cycles_per_host_s",
            value: if cycle_secs > 0.0 {
                x.sim.exec_cycles as f64 / cycle_secs
            } else {
                0.0
            },
            unit: "cycles/s",
        },
        Metric {
            name: "cycle.sim_cycles_total",
            value: x.sim.pass_cycles as f64,
            unit: "cycles",
        },
        Metric {
            name: "lease.acquire_us_p50",
            value: span_p50(TraceOp::LeaseAcquire),
            unit: "us",
        },
        Metric {
            name: "lease.acquire_us_p99",
            value: us(p99(x.spans.durations(TraceOp::LeaseAcquire))),
            unit: "us",
        },
        Metric {
            name: "lease.conflicts",
            value: w.get(Counter::LeaseConflicts) as f64,
            unit: "count",
        },
        Metric {
            name: "lease.held_minus_execute_frac",
            value: if held == 0 {
                0.0
            } else {
                (held as f64 - executed as f64) / held as f64
            },
            unit: "fraction",
        },
        Metric {
            name: "session.commit_us_p50",
            value: span_p50(TraceOp::RegionCommit),
            unit: "us",
        },
        Metric {
            name: "session.lock_wait_us_p99",
            value: us(p99(&t.lock_wait_ns)),
            unit: "us",
        },
        Metric {
            name: "session.host_io_us_p50",
            value: us(p50(&t.host_io_ns)),
            unit: "us",
        },
        Metric {
            name: "session.mirror_pool_misses",
            value: w.get(Counter::MirrorPoolMisses) as f64,
            unit: "count",
        },
        Metric {
            name: "obs.trace_overhead_frac",
            value: if u == 0 {
                0.0
            } else {
                tr as f64 / u as f64 - 1.0
            },
            unit: "fraction",
        },
        Metric {
            name: "obs.trace_drops",
            value: x.spans.drops as f64,
            unit: "count",
        },
        Metric {
            name: "obs.unattributed_frac",
            value: x.spans.unattributed_frac(&t.calls),
            unit: "fraction",
        },
    ]
}
