//! `serve_mixed`: two tenant threads share one `Session` in a closed
//! loop, each with its own arrays at 32×32 per node (128×128 global).
//! Each statement of a tenant time-steps its own pair of fields.
//!
//! Each tenant draws its requests from a seeded mix:
//! * 68%: a ping-pong execute of one of the paper's four table patterns;
//! * 8%: a literal five-point heat step fused four deep (temporal
//!   tiling);
//! * 10%: a host read of a statement's current field, checked against
//!   the reference model applied to its previous field;
//! * 10%: a host write of a new field, which invalidates lane mirrors;
//! * 4%: an execute of a plan and result shared by both tenants, so
//!   region leases really conflict.

use crate::gauge::{Batches, Gauge};
use crate::gen;
use crate::oracle::{bit_identical, first_difference, in_range, reference};
use crate::spans::SpanLog;
use crate::stats::median_f64;
use crate::tally::{ns_since, Simulated, Tally};
use crate::Workload;
use cmcc::obs::{self, trace, Counter};
use cmcc::{CmArray, CompiledStencil, ExecEngine, ExecOptions, PaperPattern, Session};
use cmcc_testkit::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Per-node subgrid edge.
const SUBGRID: usize = 32;
/// Tenant threads.
const TENANTS: usize = 2;
/// Temporal depth of the heat statement.
const HEAT_DEPTH: usize = 4;

/// The workload.
pub struct Serve;

/// A statement of the mix.
struct Stmt {
    compiled: CompiledStencil,
    opts: ExecOptions,
    /// Time steps one execute advances.
    depth: usize,
}

/// What the tenant's current field holds.
enum Last {
    /// The result of statement `k` applied to the other field.
    Executed(usize),
    /// Data the host wrote.
    Written(Vec<f32>),
}

/// The two fields one statement of a tenant ping-pongs between.
struct Pair {
    fields: [CmArray; 2],
    /// Index of the current field in `fields`.
    cur: usize,
    last: Last,
}

impl Pair {
    fn current(&self) -> &CmArray {
        &self.fields[self.cur]
    }

    fn previous(&self) -> &CmArray {
        &self.fields[1 - self.cur]
    }
}

/// One tenant: its session handle, and per statement its fields and
/// coefficients.
struct Tenant {
    id: u32,
    session: Session,
    pairs: Vec<Pair>,
    /// Coefficient arrays per statement, with host copies.
    coeffs: Vec<Vec<CmArray>>,
    coeff_host: Vec<Vec<Vec<f32>>>,
    /// Per depth class `[depth 1, depth 4]`: (exchanges, steps) seen by
    /// executes in the traced run.
    exchanges: [(u64, u64); 2],
}

/// The plan and result both tenants execute.
struct Shared {
    x: CmArray,
    r: CmArray,
    coeffs: Vec<CmArray>,
    expected: Vec<f32>,
}

/// The session, statements, tenants and shared arrays.
pub struct World {
    session: Session,
    stmts: Vec<Stmt>,
    tenants: Vec<Tenant>,
    shared: Shared,
    rows: usize,
    cols: usize,
}

/// Fixed facts every tenant request needs.
struct Ctx<'a> {
    stmts: &'a [Stmt],
    shared: &'a Shared,
    rows: usize,
    cols: usize,
    traced: bool,
    probe: (usize, usize),
}

impl Tenant {
    /// Runs and times one execute into `t`, then probes one value of
    /// its result.
    fn timed_execute(
        &mut self,
        cx: &Ctx<'_>,
        k: usize,
        shared: bool,
        t: &mut Tally,
    ) -> Result<(), String> {
        let stmt = &cx.stmts[k];
        let (dst, src, coeffs): (&CmArray, &CmArray, Vec<&CmArray>) = if shared {
            (
                &cx.shared.r,
                &cx.shared.x,
                cx.shared.coeffs.iter().collect(),
            )
        } else {
            let pair = &self.pairs[k];
            (
                pair.previous(),
                pair.current(),
                self.coeffs[k].iter().collect(),
            )
        };
        let before = cx.traced.then(obs::thread_snapshot);
        let s0 = trace::now_ns();
        let t0 = Instant::now();
        let res = self
            .session
            .run_with_multi(&stmt.compiled, dst, &[src], &coeffs, &stmt.opts);
        let ns = ns_since(t0);
        // A shared execute recomputes a fixed result from a fixed
        // source: a statement call, but no time step.
        if let Some(before) = before {
            t.calls.push((self.id, s0, trace::now_ns()));
            let d = obs::thread_snapshot().delta(&before);
            t.report = t.report.merge(&d);
            if !shared {
                t.step_report = t.step_report.merge(&d);
                let class = &mut self.exchanges[usize::from(stmt.depth > 1)];
                class.0 += d.get(Counter::HaloExchanges);
                class.1 += stmt.depth as u64;
            }
        }
        t.statement_ns.push(ns);
        t.request_ns.push(ns);
        if !shared {
            t.step_ns.push(ns / stmt.depth as u64);
            t.steps += stmt.depth as u64;
            t.points += (cx.rows * cx.cols * stmt.depth) as u64;
        }
        res.map(|_| ()).map_err(|e| e.to_string())?;
        let tg = Instant::now();
        let m = self.session.machine();
        t.lock_wait_ns.push(ns_since(tg));
        let v = dst.get(&m, cx.probe.0, cx.probe.1);
        drop(m);
        if !shared {
            let pair = &mut self.pairs[k];
            pair.cur = 1 - pair.cur;
            pair.last = Last::Executed(k);
        }
        if in_range(v) {
            Ok(())
        } else {
            Err(format!("value {v} left the convex range"))
        }
    }

    /// Runs one request of the mix between two gauge slices, and scales
    /// its timings to reference host speed.
    fn request(&mut self, cx: &Ctx<'_>, rng: &mut Rng, t: &mut Tally, batches: &mut Batches<'_>) {
        let g0 = batches.start_op();
        let marks = t.marks();
        self.mixed_request(cx, rng, t);
        t.scale_since(marks, batches.end_op(g0));
    }

    fn mixed_request(&mut self, cx: &Ctx<'_>, rng: &mut Rng, t: &mut Tally) {
        t.attempted += 1;
        let draw = rng.u64_below(100);
        let outcome = match draw {
            0..=9 => self.host_read(cx, draw as usize % cx.stmts.len(), t),
            10..=19 => {
                self.host_write(rng, cx, draw as usize % cx.stmts.len(), t);
                Ok(())
            }
            20..=23 => self.timed_execute(cx, 0, true, t).and_then(|()| {
                let got = cx.shared.r.gather(&self.session.machine());
                t.subnormals += gen::subnormals(&got);
                if bit_identical(&got, &cx.shared.expected) {
                    Ok(())
                } else {
                    Err("the shared result differs from the reference".to_owned())
                }
            }),
            _ => {
                let k = if draw < 92 { (draw % 4) as usize } else { 4 };
                self.timed_execute(cx, k, false, t)
            }
        };
        if let Err(e) = outcome {
            t.fail(format!("tenant {}: {e}", self.id));
        }
    }

    fn host_read(&mut self, cx: &Ctx<'_>, j: usize, t: &mut Tally) -> Result<(), String> {
        let pair = &self.pairs[j];
        let t0 = Instant::now();
        let m = self.session.machine();
        t.lock_wait_ns.push(ns_since(t0));
        let got = pair.current().gather(&m);
        drop(m);
        let ns = ns_since(t0);
        t.host_io_ns.push(ns);
        t.request_ns.push(ns);
        t.subnormals += gen::subnormals(&got);
        let want = match &pair.last {
            Last::Written(data) => data.clone(),
            Last::Executed(k) => {
                let prev = pair.previous().gather(&self.session.machine());
                let stmt = &cx.stmts[*k];
                reference(
                    &stmt.compiled,
                    cx.rows,
                    cx.cols,
                    &prev,
                    &self.coeff_host[*k],
                    stmt.depth,
                )
            }
        };
        if bit_identical(&got, &want) {
            Ok(())
        } else {
            Err(format!(
                "host read after {} differs from the reference at index {:?}",
                match &pair.last {
                    Last::Written(_) => "a host write".to_owned(),
                    Last::Executed(k) => format!("statement {k}"),
                },
                first_difference(&got, &want)
            ))
        }
    }

    fn host_write(&mut self, rng: &mut Rng, cx: &Ctx<'_>, j: usize, t: &mut Tally) {
        let data = gen::field(rng, cx.rows * cx.cols);
        let t0 = Instant::now();
        let mut m = self.session.machine_mut();
        t.lock_wait_ns.push(ns_since(t0));
        self.pairs[j].current().scatter(&mut m, &data);
        drop(m);
        let ns = ns_since(t0);
        t.host_io_ns.push(ns);
        t.request_ns.push(ns);
        self.pairs[j].last = Last::Written(data);
    }
}

impl Workload for Serve {
    const NAME: &'static str = "serve_mixed";
    type World = World;

    fn setup(seed: u64, tally: &mut Tally) -> World {
        let mut session = Session::test_board().expect("the test board builds");
        let rows = SUBGRID * session.config().grid_rows;
        let cols = SUBGRID * session.config().grid_cols;
        let n = rows * cols;
        let fast = ExecOptions::fast()
            .with_engine(ExecEngine::Lockstep)
            .with_threads(1)
            .with_lane_resident(true);
        let mut texts: Vec<(String, usize)> = PaperPattern::TABLE
            .iter()
            .map(|p| (p.fortran(), 1))
            .collect();
        texts.push((gen::HEAT.to_owned(), HEAT_DEPTH));
        let stmts: Vec<Stmt> = texts
            .iter()
            .map(|(text, depth)| {
                let t = Instant::now();
                cmcc::front::parse_assignment(text).expect("the mix parses");
                tally.parse_ns.push(ns_since(t));
                let t = Instant::now();
                let compiled = session.compile(text).expect("the mix compiles");
                tally.compile_ns.push(ns_since(t));
                Stmt {
                    compiled,
                    opts: fast.with_temporal_depth(*depth),
                    depth: *depth,
                }
            })
            .collect();

        let mut rng = Rng::new(seed ^ 0x5E7E_0000_0000_0003);
        let arrays_for = |session: &mut Session, rng: &mut Rng, stmt: &Stmt| {
            let host = gen::coefficients_for(rng, stmt.compiled.spec(), n);
            let (worst, negative) = gen::convexity_error(stmt.compiled.spec(), &host, n);
            assert!(
                gen::convex_enough(worst) && !negative,
                "coefficients not convex: {worst}"
            );
            let arrays: Vec<CmArray> = host
                .iter()
                .map(|data| {
                    let a = session.array(rows, cols).expect("arrays fit");
                    a.scatter(&mut session.machine_mut(), data);
                    a
                })
                .collect();
            (arrays, host)
        };
        let mut tenants = Vec::new();
        for id in 1..=TENANTS as u32 {
            let pairs = stmts
                .iter()
                .map(|_| {
                    let fields = [
                        session.array(rows, cols).expect("arrays fit"),
                        session.array(rows, cols).expect("arrays fit"),
                    ];
                    let source = gen::field(&mut rng, n);
                    fields[0].scatter(&mut session.machine_mut(), &source);
                    Pair {
                        fields,
                        cur: 0,
                        last: Last::Written(source),
                    }
                })
                .collect();
            let (coeffs, coeff_host) = stmts
                .iter()
                .map(|s| arrays_for(&mut session, &mut rng, s))
                .unzip();
            tenants.push(Tenant {
                id,
                session: session.clone(),
                pairs,
                coeffs,
                coeff_host,
                exchanges: [(0, 0); 2],
            });
        }
        let x = session.array(rows, cols).expect("arrays fit");
        let r = session.array(rows, cols).expect("arrays fit");
        let source = gen::field(&mut rng, n);
        x.scatter(&mut session.machine_mut(), &source);
        let (coeffs, host) = arrays_for(&mut session, &mut rng, &stmts[0]);
        let expected = reference(&stmts[0].compiled, rows, cols, &source, &host, 1);
        let mut world = World {
            session,
            stmts,
            tenants,
            shared: Shared {
                x,
                r,
                coeffs,
                expected,
            },
            rows,
            cols,
        };
        // Warm: every tenant runs every statement in both ping-pong
        // bindings, and the shared plan once.
        let cx = Ctx {
            stmts: &world.stmts,
            shared: &world.shared,
            rows,
            cols,
            traced: false,
            probe: (0, 0),
        };
        let mut scratch = Tally::default();
        for tenant in &mut world.tenants {
            for k in 0..cx.stmts.len() {
                for _ in 0..2 {
                    tenant
                        .timed_execute(&cx, k, false, &mut scratch)
                        .expect("warm-up executes succeed");
                }
            }
            tenant
                .timed_execute(&cx, 0, true, &mut scratch)
                .expect("the shared plan runs");
        }
        world
    }

    fn window(
        w: &mut World,
        seed: u64,
        seconds: f64,
        gauge: &mut Gauge,
        log: Option<&mut SpanLog>,
    ) -> Tally {
        let traced = log.is_some();
        let barrier = Barrier::new(TENANTS + 1);
        let done = AtomicBool::new(false);
        let mut probe_rng = Rng::new(seed ^ 0x9E0B_0000_0000_0004);
        let cx = Ctx {
            stmts: &w.stmts,
            shared: &w.shared,
            rows: w.rows,
            cols: w.cols,
            traced,
            probe: (probe_rng.usize_in(0, w.rows), probe_rng.usize_in(0, w.cols)),
        };
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut gauges = vec![gauge.clone(); TENANTS];
        let tallies: Vec<Tally> = std::thread::scope(|s| {
            let handles: Vec<_> = w
                .tenants
                .iter_mut()
                .zip(&mut gauges)
                .map(|(tenant, gauge)| {
                    let (cx, barrier, done) = (&cx, &barrier, &done);
                    s.spawn(move || {
                        trace::set_tenant(Some(tenant.id));
                        tenant.exchanges = [(0, 0); 2];
                        let mut rng = Rng::new(seed ^ (u64::from(tenant.id) << 48));
                        let mut t = Tally::default();
                        let mut batches = Batches::new(gauge);
                        loop {
                            while !batches.due() && Instant::now() < deadline {
                                tenant.request(cx, &mut rng, &mut t, &mut batches);
                            }
                            batches.close(&mut t);
                            // The main thread drains the recorder while
                            // no call is in flight, and the next batches
                            // of both tenants start together.
                            barrier.wait();
                            barrier.wait();
                            if done.load(Ordering::SeqCst) {
                                break;
                            }
                        }
                        if traced {
                            for (depth, (ex, steps)) in [1, HEAT_DEPTH].iter().zip(tenant.exchanges)
                            {
                                t.exchange_checks.push((*depth, ex, steps));
                            }
                        }
                        t
                    })
                })
                .collect();
            let mut log = log;
            loop {
                barrier.wait();
                if let Some(log) = log.as_deref_mut() {
                    log.drain();
                }
                let fin = Instant::now() >= deadline;
                done.store(fin, Ordering::SeqCst);
                barrier.wait();
                if fin {
                    break;
                }
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("tenant thread panicked"))
                .collect()
        });
        let mut t = Tally::default();
        for each in tallies {
            t.merge(each);
        }
        t
    }

    fn finish(w: &mut World, t: &mut Tally) {
        let m = w.session.machine();
        let mut fields: Vec<&CmArray> = w
            .tenants
            .iter()
            .flat_map(|x| x.pairs.iter().flat_map(|p| &p.fields))
            .collect();
        fields.push(&w.shared.r);
        for field in fields {
            let data = field.gather(&m);
            t.subnormals += gen::subnormals(&data);
            if let Some(v) = data.iter().find(|v| !in_range(**v)) {
                t.fail(format!("final field holds {v}, outside the convex range"));
            }
        }
    }

    fn simulate(w: &mut World, t: &mut Tally) -> Simulated {
        // Each statement once cycle-accurately on tenant 1's fields (the
        // cycle engine runs temporal depth 1): once to build, once timed.
        let opts = ExecOptions::default().with_threads(1);
        let tenant = &w.tenants[0];
        let mut sim = Simulated::default();
        let mut rates = Vec::new();
        for (k, stmt) in w.stmts.iter().enumerate() {
            let (dst, src) = (tenant.pairs[k].previous(), tenant.pairs[k].current());
            let coeffs: Vec<&CmArray> = tenant.coeffs[k].iter().collect();
            let mut run = || {
                w.session
                    .run_with_multi(&stmt.compiled, dst, &[src], &coeffs, &opts)
                    .expect("the cycle-accurate run succeeds")
            };
            let first = run();
            let t0 = Instant::now();
            let m = run();
            sim.exec_ns.push(ns_since(t0));
            if m != first {
                t.fail("two cycle-accurate runs of one statement disagree".to_owned());
            }
            sim.exec_cycles += m.cycles.total();
            rates.push(m.extrapolate(2048).gflops(w.session.config()));
        }
        sim.pass_cycles = sim.exec_cycles;
        sim.gflops = crate::stats::geomean(&rates);
        sim
    }

    fn scratch_entries(w: &World) -> f64 {
        let v: Vec<f64> = w
            .stmts
            .iter()
            .map(|s| s.compiled.scratch_entries() as f64)
            .collect();
        median_f64(&v)
    }
}
