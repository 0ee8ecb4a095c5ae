//! Lane-mirror invalidation by per-array write generations.
//!
//! A lane-resident plan keeps copies of its sources and coefficients in
//! its mirror between executes and re-reads exactly the operands whose
//! write generation moved. These cases write a bound operand through
//! every kind of writer — another plan's result, a host scatter — and
//! then re-execute with an identical binding. Each must stay bit-identical
//! to the scalar engine running the same sequence, on the session's
//! region path and on both plan-level paths (exclusive write-through and
//! region-staged commit).
//!
//! The copy-accounting case pins the cost side: a Square9 ping-pong
//! re-gathers no coefficient words at all, and one host write into one
//! coefficient array costs exactly that array's words.

use cmcc::cm2::exec::{ExecEngine, ExecMode};
use cmcc::cm2::lane::RegionStage;
use cmcc::core::recognize::CoeffSpec;
use cmcc::obs::{self, Counter};
use cmcc::{
    CmArray, CompiledStencil, ExecOptions, ExecutionPlan, PaperPattern, PlanLifetime, Session,
    StencilBinding,
};

/// Per-node subgrid edge of the staleness cases: 128×128 global points
/// on the 16-node test board.
const SUBGRID: usize = 32;

/// How a rig executes its statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// `Session::run_with_multi`: one tenant never conflicts, so every
    /// lane-resident execute takes the region (shared-lock) path.
    Session,
    /// `ExecutionPlan::execute`: the exclusive write-through path a
    /// conflicted session execute falls back to.
    Exclusive,
    /// `ExecutionPlan::execute_region` plus the commit a session makes:
    /// apply the stage, stamp the result.
    Region,
}

fn lockstep() -> ExecOptions {
    let mut opts = ExecOptions::default()
        .with_threads(1)
        .with_engine(ExecEngine::Lockstep);
    opts.mode = ExecMode::Fast;
    opts
}

fn scalar() -> ExecOptions {
    let mut opts = ExecOptions::default()
        .with_threads(1)
        .with_engine(ExecEngine::Scalar);
    opts.mode = ExecMode::Fast;
    opts
}

/// A session plus, for the plan-level paths, one persistent plan per
/// statement, rebound on every call exactly as the session rebinds its
/// cached instance.
struct Rig {
    path: Path,
    opts: ExecOptions,
    session: Session,
    plans: Vec<(u64, ExecutionPlan)>,
    stage: RegionStage,
}

impl Rig {
    fn new(path: Path, opts: ExecOptions) -> Rig {
        Rig {
            path,
            opts,
            session: Session::test_board().expect("the test board builds"),
            plans: Vec::new(),
            stage: RegionStage::new(),
        }
    }

    fn array(&mut self, seed: usize) -> CmArray {
        let n = SUBGRID * 4;
        let a = self.session.array(n, n).expect("array fits");
        a.fill_with(&mut self.session.machine_mut(), |r, c| {
            ((r * 13 + c * 7 + seed * 29) % 31) as f32 * 0.03125 + 0.25
        });
        a
    }

    /// One coefficient array per named coefficient of `compiled`.
    fn coeffs(&mut self, compiled: &CompiledStencil, seed: usize) -> Vec<CmArray> {
        let named = compiled
            .spec()
            .coeffs
            .iter()
            .filter(|c| matches!(c, CoeffSpec::Named(_)))
            .count();
        (0..named).map(|k| self.array(seed + 100 + k)).collect()
    }

    fn run(
        &mut self,
        compiled: &CompiledStencil,
        result: &CmArray,
        source: &CmArray,
        coeffs: &[CmArray],
    ) {
        let coeffs: Vec<&CmArray> = coeffs.iter().collect();
        if self.path == Path::Session {
            self.session
                .run_with_multi(compiled, result, &[source], &coeffs, &self.opts)
                .expect("statement runs");
            return;
        }
        let mut machine = self.session.machine_mut();
        let fingerprint = compiled.fingerprint();
        let idx = match self.plans.iter().position(|(f, _)| *f == fingerprint) {
            Some(i) => i,
            None => {
                let binding =
                    StencilBinding::new(compiled, result, &[source], &coeffs).expect("binds");
                let plan = ExecutionPlan::build(
                    &mut machine,
                    &binding,
                    &self.opts,
                    PlanLifetime::Persistent,
                )
                .expect("plan builds");
                self.plans.push((fingerprint, plan));
                self.plans.len() - 1
            }
        };
        let plan = &mut self.plans[idx].1;
        plan.rebind(result, &[source], &coeffs).expect("rebinds");
        assert!(plan.uses_lockstep(), "the case needs a lane-resident plan");
        match self.path {
            Path::Exclusive => {
                plan.execute(&mut machine).expect("executes");
            }
            Path::Region => {
                plan.execute_region(&machine, &mut self.stage);
                self.stage.apply(machine.exec_parts_mut().1);
                machine.note_write(result.field());
            }
            Path::Session => unreachable!(),
        }
    }

    fn gather(&self, a: &CmArray) -> Vec<u32> {
        a.gather(&self.session.machine())
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }
}

fn differing(a: &[u32], b: &[u32]) -> usize {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Runs `case` on the scalar oracle and on every lane-resident path, and
/// requires every snapshot the case returns to match bit for bit.
fn check_every_path(name: &str, case: impl Fn(&mut Rig) -> Vec<Vec<u32>>) {
    let oracle = case(&mut Rig::new(Path::Session, scalar()));
    for path in [Path::Session, Path::Exclusive, Path::Region] {
        let mut rig = Rig::new(path, lockstep());
        let got = case(&mut rig);
        for (i, (want, got)) in oracle.iter().zip(&got).enumerate() {
            assert_eq!(
                differing(want, got),
                0,
                "{name}, {path:?} path: snapshot {i} differs from the scalar engine"
            );
        }
        if path == Path::Session {
            let stats = rig.session.lease_stats();
            assert_eq!(stats.conflicts, 0, "a single tenant never conflicts");
            assert!(stats.region_grants > 0, "the session took the region path");
        }
    }
}

/// Cross5 B←A, Star9 A←B, then Cross5 B←A again with the identical
/// binding: the third call must read the A that Star9 wrote, not the
/// copy its mirror took on the first call.
#[test]
fn source_written_by_another_plan_is_reread() {
    check_every_path("source written by another plan", |rig| {
        let cross = rig
            .session
            .compile(&PaperPattern::Cross5.fortran())
            .unwrap();
        let star = rig.session.compile(&PaperPattern::Star9.fortran()).unwrap();
        let (a, b) = (rig.array(1), rig.array(2));
        let (cc, sc) = (rig.coeffs(&cross, 10), rig.coeffs(&star, 20));
        rig.run(&cross, &b, &a, &cc);
        let first = rig.gather(&b);
        rig.run(&star, &a, &b, &sc);
        rig.run(&cross, &b, &a, &cc);
        let third = rig.gather(&b);
        assert!(
            differing(&first, &third) > 0,
            "the case must change B, or it tests nothing"
        );
        vec![first, rig.gather(&a), third]
    })
}

/// Another plan writes its result into plan P's coefficient array; P
/// then re-executes with an identical binding and must read the new
/// coefficients (and repack its coefficient streams).
#[test]
fn coefficient_written_by_another_plan_is_reread() {
    check_every_path("coefficient written by another plan", |rig| {
        let cross = rig
            .session
            .compile(&PaperPattern::Cross5.fortran())
            .unwrap();
        let smooth = rig
            .session
            .compile("R = 0.5 * CSHIFT(X, 1, 1) + 0.5 * X")
            .unwrap();
        let (x, r, y) = (rig.array(1), rig.array(2), rig.array(3));
        let cc = rig.coeffs(&cross, 10);
        rig.run(&cross, &r, &x, &cc);
        let first = rig.gather(&r);
        rig.run(&smooth, &cc[2], &y, &[]);
        rig.run(&cross, &r, &x, &cc);
        let second = rig.gather(&r);
        assert!(
            differing(&first, &second) > 0,
            "the case must change R, or it tests nothing"
        );
        vec![first, rig.gather(&cc[2]), second]
    })
}

/// A host scatter into the source between two identical-binding
/// executes is observed by the second.
#[test]
fn host_scatter_into_a_source_is_reread() {
    check_every_path("host scatter into a source", |rig| {
        let star = rig.session.compile(&PaperPattern::Star9.fortran()).unwrap();
        let (x, r) = (rig.array(1), rig.array(2));
        let sc = rig.coeffs(&star, 20);
        rig.run(&star, &r, &x, &sc);
        let first = rig.gather(&r);
        let n = x.rows() * x.cols();
        let data: Vec<f32> = (0..n).map(|i| (i % 37) as f32 * 0.0625 + 0.5).collect();
        x.scatter(&mut rig.session.machine_mut(), &data);
        rig.run(&star, &r, &x, &sc);
        let second = rig.gather(&r);
        assert!(
            differing(&first, &second) > 0,
            "the case must change R, or it tests nothing"
        );
        vec![first, second]
    })
}

/// Square9 ping-pong at 128×128 per node: after warm-up a step gathers
/// no words into the mirror and repacks no coefficient stream; its copy
/// words are exactly `rebind_cycle_copy_words`. One host scatter into
/// one coefficient array makes the next step gather exactly that array
/// (128×128 words on each of 16 nodes) and repack the streams reading
/// it — every kernelized strip, since each strip of the 9-point square
/// reads all nine coefficients.
#[test]
fn square9_ping_pong_copies_only_what_changed() {
    obs::set_enabled(true);
    let mut session = Session::test_board().expect("the test board builds");
    let compiled = session.compile(&PaperPattern::Square9.fortran()).unwrap();
    let n = 128 * 4;
    let mut alloc = |seed: usize| {
        let a = session.array(n, n).expect("512x512 fits");
        a.fill_with(&mut session.machine_mut(), |r, c| {
            ((r * 5 + c * 3 + seed * 11) % 23) as f32 * 0.0078125 + 0.25
        });
        a
    };
    let (mut cur, mut next) = (alloc(0), alloc(1));
    let coeffs: Vec<CmArray> = (0..9).map(|k| alloc(2 + k)).collect();
    let refs: Vec<&CmArray> = coeffs.iter().collect();
    let opts = lockstep();

    let step = |session: &mut Session, cur: &CmArray, next: &CmArray| {
        let before = obs::thread_snapshot();
        let packs = session.last_plan().map(ExecutionPlan::coeff_stream_packs);
        session
            .run_with_multi(&compiled, next, &[cur], &refs, &opts)
            .expect("step runs");
        let d = obs::thread_snapshot().delta(&before);
        let plan = session.last_plan().expect("the plan is held");
        let repacked = plan.coeff_stream_packs() - packs.unwrap_or(0);
        (
            d,
            repacked,
            plan.rebind_cycle_copy_words() as u64,
            plan.kernelized_strips() as u64,
        )
    };

    // Warm-up: prime the mirror on both bindings of the ping-pong.
    for _ in 0..2 {
        step(&mut session, &cur, &next);
        std::mem::swap(&mut cur, &mut next);
    }
    for _ in 0..3 {
        let (d, repacked, cycle_words, _) = step(&mut session, &cur, &next);
        assert_eq!(
            d.get(Counter::GatherWords),
            0,
            "steady steps gather nothing"
        );
        assert_eq!(d.get(Counter::InteriorRefreshWords), 128 * 128 * 16);
        assert_eq!(d.get(Counter::HaloExchanges), 1);
        assert_eq!(d.copy_words(), cycle_words, "copy words follow the model");
        assert_eq!(repacked, 0, "unchanged coefficients keep their streams");
        std::mem::swap(&mut cur, &mut next);
    }

    let data: Vec<f32> = (0..n * n).map(|i| (i % 29) as f32 * 0.001 + 0.1).collect();
    coeffs[4].scatter(&mut session.machine_mut(), &data);
    let (d, repacked, cycle_words, kernelized) = step(&mut session, &cur, &next);
    assert_eq!(
        d.get(Counter::GatherWords),
        128 * 128 * 16,
        "exactly the written coefficient array is gathered"
    );
    assert_eq!(d.copy_words(), cycle_words + 128 * 128 * 16);
    assert!(kernelized > 0, "Square9 runs kernelized");
    assert_eq!(
        repacked, kernelized,
        "every strip reading the array repacks"
    );
}
