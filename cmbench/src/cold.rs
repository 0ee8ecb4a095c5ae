//! `cold_cycle`: a seeded set of distinct statements, each compiled and
//! run once per pass, cycle-accurately on one host thread at 32×32 per
//! node. The plan cache is cleared before every pass, so every run
//! misses it: the window measures the front end, the compiler, plan
//! build and the cycle engine.

use crate::gauge::{Batches, Gauge};
use crate::gen;
use crate::oracle::{bit_identical, first_difference, reference};
use crate::spans::SpanLog;
use crate::stats::{geomean, median_f64};
use crate::tally::{ns_since, Simulated, Tally};
use crate::Workload;
use cmcc::core::recognize::recognize;
use cmcc::obs::{self, trace};
use cmcc::{CmArray, ExecOptions, Session};
use cmcc_testkit::Rng;
use std::time::{Duration, Instant};

/// Per-node subgrid edge.
const SUBGRID: usize = 32;
/// Statements in the set: the paper's five patterns plus random ones.
const STATEMENTS: usize = 256;
/// Statements between recorder drains in the traced run.
const DRAIN_EVERY: usize = 32;

/// The workload.
pub struct Cold;

/// One statement of the set with its coefficient arrays.
struct Entry {
    text: String,
    coeffs: Vec<CmArray>,
    host: Vec<Vec<f32>>,
    /// Simulated cycles and extrapolated rate of the first pass.
    first: Option<(u64, f64)>,
    scratch_entries: usize,
}

/// The session, the shared source and result, and the statement set.
pub struct World {
    session: Session,
    x: CmArray,
    r: CmArray,
    source: Vec<f32>,
    entries: Vec<Entry>,
    rows: usize,
    cols: usize,
    /// Simulated cycles of every execute in the window.
    exec_cycles: u64,
}

impl Workload for Cold {
    const NAME: &'static str = "cold_cycle";
    const CYCLE_IN_WINDOW: bool = true;
    type World = World;

    fn setup(seed: u64, _tally: &mut Tally) -> World {
        let mut session = Session::test_board().expect("the test board builds");
        let rows = SUBGRID * session.config().grid_rows;
        let cols = SUBGRID * session.config().grid_cols;
        let n = rows * cols;
        let mut rng = Rng::new(seed ^ 0xC01D_0000_0000_0005);
        let x = session.array(rows, cols).expect("arrays fit");
        let r = session.array(rows, cols).expect("arrays fit");
        let source = gen::field(&mut rng, n);
        x.scatter(&mut session.machine_mut(), &source);
        let entries = gen::statements(seed, STATEMENTS)
            .into_iter()
            .map(|text| {
                // The coefficient list decides which arrays to make.
                let spec = cmcc::front::parse_assignment(&text)
                    .map_err(|e| e.to_string())
                    .and_then(|s| recognize(&s).map_err(|e| e.to_string()))
                    .unwrap_or_else(|e| panic!("generated statement `{text}` is invalid: {e}"));
                let host = gen::coefficients_for(&mut rng, &spec, n);
                let (worst, negative) = gen::convexity_error(&spec, &host, n);
                assert!(
                    gen::convex_enough(worst) && !negative,
                    "coefficients of `{text}` not convex: {worst}"
                );
                let coeffs = host
                    .iter()
                    .map(|data| {
                        let a = session.array(rows, cols).expect("arrays fit");
                        a.scatter(&mut session.machine_mut(), data);
                        a
                    })
                    .collect();
                Entry {
                    text,
                    coeffs,
                    host,
                    first: None,
                    scratch_entries: 0,
                }
            })
            .collect();
        World {
            session,
            x,
            r,
            source,
            entries,
            rows,
            cols,
            exec_cycles: 0,
        }
    }

    fn window(
        w: &mut World,
        _seed: u64,
        seconds: f64,
        gauge: &mut Gauge,
        mut log: Option<&mut SpanLog>,
    ) -> Tally {
        let mut t = Tally::default();
        let traced = log.is_some();
        let opts = ExecOptions::default().with_threads(1);
        let points = (w.rows * w.cols) as u64;
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut batches = Batches::new(gauge);
        let mut pass = 0;
        let mut run = 0usize;
        'passes: loop {
            w.session.clear_plan_cache();
            for e in &mut w.entries {
                if pass > 0 && Instant::now() >= deadline {
                    break 'passes;
                }
                if traced {
                    let tp = Instant::now();
                    if let Err(err) = cmcc::front::parse_assignment(&e.text) {
                        t.fail(format!("`{}` does not parse: {err}", e.text));
                    }
                    t.parse_ns.push(ns_since(tp));
                }
                let g0 = batches.start_op();
                let before = traced.then(obs::thread_snapshot);
                t.attempted += 1;
                let t0 = Instant::now();
                let compiled = match w.session.compile(&e.text) {
                    Ok(c) => c,
                    Err(err) => {
                        t.fail(format!("`{}` does not compile: {err}", e.text));
                        continue;
                    }
                };
                t.compile_ns.push(ns_since(t0));
                let coeffs: Vec<&CmArray> = e.coeffs.iter().collect();
                let s1 = trace::now_ns();
                let t1 = Instant::now();
                let res = w
                    .session
                    .run_with_multi(&compiled, &w.r, &[&w.x], &coeffs, &opts);
                let run_ns = ns_since(t1);
                let ns = ns_since(t0);
                if let Some(before) = before {
                    t.calls.push((0, s1, trace::now_ns()));
                    let d = obs::thread_snapshot().delta(&before);
                    t.report = t.report.merge(&d);
                    t.step_report = t.step_report.merge(&d);
                }
                let scale = batches.end_op(g0);
                let (run_ns, ns) = (scale.of(run_ns), scale.of(ns));
                t.step_ns.push(run_ns);
                t.statement_ns.push(ns);
                t.request_ns.push(ns);
                t.steps += 1;
                t.points += points;
                let m = match res {
                    Ok(m) => m,
                    Err(err) => {
                        t.fail(format!("`{}` failed to run: {err}", e.text));
                        continue;
                    }
                };
                w.exec_cycles += m.cycles.total();
                match e.first {
                    None => {
                        e.first = Some((
                            m.cycles.total(),
                            m.extrapolate(2048).gflops(w.session.config()),
                        ));
                        e.scratch_entries = compiled.scratch_entries();
                    }
                    Some((cycles, _)) if cycles != m.cycles.total() => t.fail(format!(
                        "`{}` took {} simulated cycles, {cycles} in the first pass",
                        e.text,
                        m.cycles.total()
                    )),
                    Some(_) => {}
                }
                let tio = Instant::now();
                let mg = w.session.machine();
                t.lock_wait_ns.push(ns_since(tio));
                let got = w.r.gather(&mg);
                drop(mg);
                t.host_io_ns.push(ns_since(tio));
                t.subnormals += gen::subnormals(&got);
                let want = reference(&compiled, w.rows, w.cols, &w.source, &e.host, 1);
                if !bit_identical(&got, &want) {
                    t.fail(format!(
                        "`{}` differs from the reference at index {:?}",
                        e.text,
                        first_difference(&got, &want)
                    ));
                }
                run += 1;
                if let Some(log) = log.as_deref_mut() {
                    if run.is_multiple_of(DRAIN_EVERY) {
                        log.drain();
                    }
                }
                if batches.due() {
                    batches.close(&mut t);
                }
            }
            pass += 1;
        }
        batches.close(&mut t);
        t
    }

    fn finish(_w: &mut World, _t: &mut Tally) {
        // Every result was gathered and checked in the window.
    }

    fn simulate(w: &mut World, _t: &mut Tally) -> Simulated {
        let firsts: Vec<(u64, f64)> = w.entries.iter().filter_map(|e| e.first).collect();
        Simulated {
            gflops: geomean(&firsts.iter().map(|f| f.1).collect::<Vec<_>>()),
            exec_ns: Vec::new(),
            exec_cycles: w.exec_cycles,
            pass_cycles: firsts.iter().map(|f| f.0).sum(),
        }
    }

    fn scratch_entries(w: &World) -> f64 {
        let v: Vec<f64> = w.entries.iter().map(|e| e.scratch_entries as f64).collect();
        median_f64(&v)
    }
}
