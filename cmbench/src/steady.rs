//! `steady_square9`: one tenant time-steps the paper's 9-point square at
//! 128×128 per node (512×512 global) in fast mode on the lockstep engine
//! with lane residency, one host thread and temporal depth 1, swapping
//! source and result every step.

use crate::gauge::{Batches, Gauge};
use crate::gen;
use crate::oracle::{bit_identical, first_difference, in_range};
use crate::spans::SpanLog;
use crate::tally::{ns_since, Simulated, Tally};
use crate::Workload;
use cmcc::obs::{self, trace, Counter};
use cmcc::{CmArray, CompiledStencil, ExecEngine, ExecOptions, PaperPattern, Session};
use cmcc_testkit::Rng;
use std::time::{Duration, Instant};

/// Per-node subgrid edge.
const SUBGRID: usize = 128;
/// Steps between recorder drains in the traced run.
const DRAIN_EVERY: usize = 100;

/// The workload.
pub struct Steady;

/// The session, the statement and its arrays.
pub struct World {
    session: Session,
    compiled: CompiledStencil,
    cur: CmArray,
    next: CmArray,
    /// Result array of the scalar-engine oracle steps.
    check: CmArray,
    coeffs: Vec<CmArray>,
    fast: ExecOptions,
    scalar: ExecOptions,
    rows: usize,
    cols: usize,
}

impl World {
    fn step(&mut self, into_check: bool, opts: ExecOptions) -> Result<(), String> {
        let coeffs: Vec<&CmArray> = self.coeffs.iter().collect();
        let dst = if into_check { &self.check } else { &self.next };
        self.session
            .run_with_multi(&self.compiled, dst, &[&self.cur], &coeffs, &opts)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

impl Workload for Steady {
    const NAME: &'static str = "steady_square9";
    type World = World;

    fn setup(seed: u64, tally: &mut Tally) -> World {
        let mut session = Session::test_board().expect("the test board builds");
        let text = PaperPattern::Square9.fortran();
        let t = Instant::now();
        cmcc::front::parse_assignment(&text).expect("the paper's 9-point square parses");
        tally.parse_ns.push(ns_since(t));
        let t = Instant::now();
        let compiled = session
            .compile(&text)
            .expect("the paper's 9-point square compiles");
        tally.compile_ns.push(ns_since(t));

        let rows = SUBGRID * session.config().grid_rows;
        let cols = SUBGRID * session.config().grid_cols;
        let n = rows * cols;
        let mut rng = Rng::new(seed ^ 0x5EAD_9000_0000_0001);
        let source = gen::field(&mut rng, n);
        let host = gen::coefficients_for(&mut rng, compiled.spec(), n);
        let (worst, negative) = gen::convexity_error(compiled.spec(), &host, n);
        assert!(
            gen::convex_enough(worst) && !negative,
            "coefficients not convex: {worst}"
        );

        let mut alloc = || session.array(rows, cols).expect("512x512 arrays fit");
        let (cur, next, check) = (alloc(), alloc(), alloc());
        let coeffs: Vec<CmArray> = host.iter().map(|_| alloc()).collect();
        {
            let mut m = session.machine_mut();
            cur.scatter(&mut m, &source);
            for (a, data) in coeffs.iter().zip(&host) {
                a.scatter(&mut m, data);
            }
        }
        let fast = ExecOptions::fast()
            .with_engine(ExecEngine::Lockstep)
            .with_threads(1)
            .with_lane_resident(true)
            .with_temporal_depth(1);
        let scalar = ExecOptions::fast()
            .with_engine(ExecEngine::Scalar)
            .with_threads(1);
        let mut world = World {
            session,
            compiled,
            cur,
            next,
            check,
            coeffs,
            fast,
            scalar,
            rows,
            cols,
        };
        // Warm: the oracle plan, then both ping-pong bindings of the
        // lockstep plan, priming its mirror.
        world.step(true, scalar).expect("the scalar plan runs");
        for _ in 0..2 {
            world.step(false, fast).expect("the lockstep plan runs");
            std::mem::swap(&mut world.cur, &mut world.next);
        }
        world
    }

    fn window(
        w: &mut World,
        seed: u64,
        seconds: f64,
        gauge: &mut Gauge,
        mut log: Option<&mut SpanLog>,
    ) -> Tally {
        let mut t = Tally::default();
        let traced = log.is_some();
        let mut rng = Rng::new(seed ^ 0xC4EC_0000_0000_0002);
        let probe = (rng.usize_in(0, w.rows), rng.usize_in(0, w.cols));
        // Seeded checkpoints: two consecutive steps each, checked
        // against the scalar engine run from the same state.
        let mut checkpoint = rng.usize_in(20, 120);
        let points = (w.rows * w.cols) as u64;
        let fast = w.fast;
        let scalar = w.scalar;
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut batches = Batches::new(gauge);
        let mut step = 0usize;
        while Instant::now() < deadline {
            let checking = step == checkpoint || step == checkpoint + 1;
            if checking {
                if let Err(e) = w.step(true, scalar) {
                    t.fail(format!("scalar oracle step failed: {e}"));
                }
            }
            let g0 = batches.start_op();
            let before = traced.then(obs::thread_snapshot);
            let s0 = trace::now_ns();
            let t0 = Instant::now();
            let res = w.step(false, fast);
            let ns = ns_since(t0);
            if let Some(before) = before {
                t.calls.push((0, s0, trace::now_ns()));
                let d = obs::thread_snapshot().delta(&before);
                t.report = t.report.merge(&d);
                t.step_report = t.step_report.merge(&d);
            }
            let ns = batches.end_op(g0).of(ns);
            t.attempted += 1;
            t.step_ns.push(ns);
            t.statement_ns.push(ns);
            t.request_ns.push(ns);
            t.steps += 1;
            t.points += points;
            if let Err(e) = res {
                t.fail(format!("step {step} failed: {e}"));
            }
            let tg = Instant::now();
            let m = w.session.machine();
            t.lock_wait_ns.push(ns_since(tg));
            let v = w.next.get(&m, probe.0, probe.1);
            drop(m);
            if !in_range(v) {
                t.fail(format!("step {step}: value {v} left the convex range"));
            }
            if checking {
                let tio = Instant::now();
                let (got, want) = {
                    let m = w.session.machine();
                    (w.next.gather(&m), w.check.gather(&m))
                };
                t.host_io_ns.push(ns_since(tio));
                t.subnormals += gen::subnormals(&got);
                if !bit_identical(&got, &want) {
                    t.fail(format!(
                        "step {step} differs from the scalar engine at index {:?}",
                        first_difference(&got, &want)
                    ));
                }
                if step == checkpoint + 1 {
                    checkpoint += rng.usize_in(150, 400);
                }
            }
            std::mem::swap(&mut w.cur, &mut w.next);
            step += 1;
            if let Some(log) = log.as_deref_mut() {
                if step.is_multiple_of(DRAIN_EVERY) {
                    log.drain();
                }
            }
            if batches.due() {
                batches.close(&mut t);
            }
        }
        batches.close(&mut t);
        if traced {
            t.exchange_checks
                .push((1, t.report.get(Counter::HaloExchanges), t.steps));
        }
        t
    }

    fn finish(w: &mut World, t: &mut Tally) {
        let m = w.session.machine();
        for field in [&w.cur, &w.next] {
            let data = field.gather(&m);
            t.subnormals += gen::subnormals(&data);
            if let Some(v) = data.iter().find(|v| !in_range(**v)) {
                t.fail(format!("final field holds {v}, outside the convex range"));
            }
        }
    }

    fn simulate(w: &mut World, t: &mut Tally) -> Simulated {
        // The same step cycle-accurately: once to build, once timed.
        let opts = ExecOptions::default().with_threads(1);
        let coeffs: Vec<&CmArray> = w.coeffs.iter().collect();
        let mut run = || {
            w.session
                .run_with_multi(&w.compiled, &w.check, &[&w.cur], &coeffs, &opts)
                .expect("the cycle-accurate step runs")
        };
        let first = run();
        let t0 = Instant::now();
        let m = run();
        let ns = ns_since(t0);
        if m != first {
            t.fail("two cycle-accurate runs of one step disagree".to_owned());
        }
        Simulated {
            gflops: m.extrapolate(2048).gflops(w.session.config()),
            exec_ns: vec![ns],
            exec_cycles: m.cycles.total(),
            pass_cycles: m.cycles.total(),
        }
    }

    fn scratch_entries(w: &World) -> f64 {
        w.compiled.scratch_entries() as f64
    }
}
