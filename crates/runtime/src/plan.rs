//! Compile once, run many: the bind → plan → execute pipeline.
//!
//! The paper's system compiles a stencil statement once and then calls it
//! "many times — typically thousands" (§1). The original [`crate::convolve()`]
//! entry point repeated every run-time decision on each call: allocating
//! halo storage, materializing constant pages, computing exchange
//! addresses, and rebuilding the strip schedule. This module splits those
//! out:
//!
//! 1. **compile** — [`cmcc_core::Compiler`] produces a
//!    [`CompiledStencil`] (unchanged), now carrying a stable
//!    [`CompiledStencil::fingerprint`];
//! 2. **bind** — [`StencilBinding`] attaches result/source/coefficient
//!    arrays to the compiled stencil and validates shapes and counts
//!    once;
//! 3. **plan** — [`ExecutionPlan::build`] allocates halo buffers and
//!    constant pages, compiles the halo exchange into an
//!    [`ExchangeProgram`] per source, and pre-resolves the entire strip
//!    schedule into [`ResolvedStrip`]s (every kernel operand address
//!    computed ahead of time);
//! 4. **execute** — [`ExecutionPlan::execute`] performs only the halo
//!    exchange, the pre-resolved kernel runs, and the paper's cycle
//!    accounting. No allocation, no address computation, no schedule
//!    construction.
//!
//! Results and [`Measurement`]s are bit-identical to the rebuild-per-call
//! path — the resolved executor mirrors the legacy interpreter step for
//! step — so plans are purely a host-side performance feature, exactly
//! like the paper's distinction between compile-time and run-time work.

use crate::array::CmArray;
use crate::convolve::ExecOptions;
use crate::error::RuntimeError;
use crate::halo::{ExchangeProgram, FillProgram, HaloBuffer, LaneExchangeProgram, LaneFillProgram};
use crate::strips::{full_strip, halfstrips, plan_strips};
use cmcc_cm2::exec::{ExecEngine, ExecMode, FieldLayout, ResolvedStrip, StripContext, StripRun};
use cmcc_cm2::kernels::{run_lockstep_groups_kernelized, CoeffStreams, StripKernels};
use cmcc_cm2::lane::{LaneMirror, LaneView, RectCopy};
use cmcc_cm2::machine::Machine;
use cmcc_cm2::memory::Field;
use cmcc_cm2::timing::{CycleBreakdown, Measurement};
use cmcc_core::compiler::CompiledStencil;
use cmcc_core::recognize::CoeffSpec;
use cmcc_core::regalloc::Walk;
use std::sync::{Arc, PoisonError, RwLock};

/// A compiled stencil bound to concrete distributed arrays, with all
/// shape and count validation done up front (the front end's job on the
/// real machine).
///
/// Binding is cheap — [`CmArray`] handles are `Copy` — and performs no
/// machine allocation; it exists so that validation errors surface before
/// any planning work starts.
#[derive(Debug, Clone)]
pub struct StencilBinding<'a> {
    compiled: &'a CompiledStencil,
    result: CmArray,
    sources: Vec<CmArray>,
    coeffs: Vec<CmArray>,
}

impl<'a> StencilBinding<'a> {
    /// Validates and records the argument arrays for one stencil call.
    ///
    /// `sources` supplies one array per entry of
    /// [`cmcc_core::recognize::StencilSpec::sources`]; `coeffs` one array
    /// per *named* coefficient, in [`StencilSpec::coeffs`] order (literal
    /// coefficients are materialized by the plan).
    ///
    /// [`StencilSpec::coeffs`]: cmcc_core::recognize::StencilSpec::coeffs
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WrongSourceCount`], [`RuntimeError::WrongCoeffCount`],
    /// or [`RuntimeError::ShapeMismatch`] when the argument lists do not
    /// match the statement.
    pub fn new(
        compiled: &'a CompiledStencil,
        result: &CmArray,
        sources: &[&CmArray],
        coeffs: &[&CmArray],
    ) -> Result<Self, RuntimeError> {
        let spec = compiled.spec();
        let stencil = compiled.stencil();

        let expected_sources = stencil.source_count().max(1);
        if sources.len() != expected_sources {
            return Err(RuntimeError::WrongSourceCount {
                expected: expected_sources,
                got: sources.len(),
            });
        }
        for (i, s) in sources.iter().enumerate() {
            if !result.same_shape(s) {
                return Err(RuntimeError::ShapeMismatch {
                    what: format!(
                        "result is {}x{} but source {i} is {}x{}",
                        result.rows(),
                        result.cols(),
                        s.rows(),
                        s.cols()
                    ),
                });
            }
        }
        let named: Vec<&str> = spec
            .coeffs
            .iter()
            .filter_map(|c| match c {
                CoeffSpec::Named(n) => Some(n.as_str()),
                CoeffSpec::Literal(_) => None,
            })
            .collect();
        if coeffs.len() != named.len() {
            return Err(RuntimeError::WrongCoeffCount {
                expected: named.len(),
                got: coeffs.len(),
            });
        }
        for (arr, name) in coeffs.iter().zip(&named) {
            if !arr.same_shape(result) {
                return Err(RuntimeError::ShapeMismatch {
                    what: format!(
                        "coefficient `{name}` is {}x{}, expected {}x{}",
                        arr.rows(),
                        arr.cols(),
                        result.rows(),
                        result.cols()
                    ),
                });
            }
        }

        Ok(StencilBinding {
            compiled,
            result: *result,
            sources: sources.iter().map(|s| **s).collect(),
            coeffs: coeffs.iter().map(|c| **c).collect(),
        })
    }

    /// The compiled stencil this binding attaches arrays to.
    pub fn compiled(&self) -> &'a CompiledStencil {
        self.compiled
    }

    /// The bound result array.
    pub fn result(&self) -> &CmArray {
        &self.result
    }

    /// The bound source arrays.
    pub fn sources(&self) -> &[CmArray] {
        &self.sources
    }

    /// The bound named-coefficient arrays.
    pub fn coeffs(&self) -> &[CmArray] {
        &self.coeffs
    }
}

/// Where a plan's node-memory fields live, which decides how they are
/// reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanLifetime {
    /// Fields come from the bump region and are reclaimed by the caller's
    /// [`Machine::release_to`] — the one-shot [`crate::convolve()`] path.
    Scoped,
    /// Fields come from the persistent arena and survive across calls
    /// until [`ExecutionPlan::release`] — the cached-plan path.
    Persistent,
}

/// The immutable half of an execution plan: everything plan-build
/// computes that does **not** depend on which concrete arrays a tenant
/// binds — the resolved strip schedule (against the build-time binding,
/// the rebase baseline), the lane translation and kernel classification,
/// the compiled halo-exchange programs, and the plan-owned node-memory
/// fields (halo buffers, constant and literal pages).
///
/// A `CompiledPlan` is shared between any number of [`PlanInstance`]s
/// through an [`Arc`]: the session plan cache hands every tenant the same
/// artifact, and evicting it from the cache cannot invalidate in-flight
/// instances — the `Arc` keeps it alive until the last instance drops.
/// Its node-memory fields are returned to the persistent arena by
/// [`CompiledPlan::release`] once ownership is unique.
#[derive(Debug)]
pub struct CompiledPlan {
    /// The strip schedule resolved against the build-time binding — the
    /// baseline instances rebase from (never mutated).
    strips: Vec<ResolvedStrip>,
    /// The strip schedule translated into lane-word addresses, when the
    /// build binding ran on the lockstep engine (fast mode, no array
    /// aliasing). Empty otherwise. Lane addresses depend only on the
    /// view's range lengths and order — both rebind-invariant — so every
    /// instance over same-shape arrays shares this translation verbatim.
    lane_strips: Vec<ResolvedStrip>,
    /// The kernel tier: each lane strip's compiled monomorphized form,
    /// parallel to `lane_strips` (`None` where the classifier fell back
    /// to the interpreter).
    lane_kernels: Vec<Option<StripKernels>>,
    halos: Vec<HaloBuffer>,
    exchanges: Vec<ExchangeProgram>,
    consts: Field,
    /// Literal coefficient pages, in `spec.coeffs` order (named entries
    /// skipped): the field plus the constant streamed through it.
    literal_pages: Vec<(Field, f32)>,
    /// Indices into `spec.coeffs` of the named coefficients, parallel to
    /// `coeffs` — the rebase slots an instance binding must shift.
    named_slots: Vec<u16>,
    /// Total coefficient slots (`spec.coeffs.len()`): rebase deltas must
    /// cover literal slots too (always zero — their pages never move).
    coeff_slot_count: usize,
    /// The build-time binding: the baseline `strips` were resolved
    /// against, from which instance bindings compute rebase deltas.
    result: CmArray,
    sources: Vec<CmArray>,
    coeffs: Vec<CmArray>,
    useful_flops: u64,
    call_overhead: u64,
    dispatch: u64,
    nodes: usize,
    opts: ExecOptions,
    fingerprint: u64,
    lifetime: PlanLifetime,
    /// Resolved half-strips per kernel width (index 0 → width 8, then
    /// 4, 2, 1) — the paper's strip-mine distribution, replayed verbatim
    /// by every execute and reported through `cmcc_obs`.
    strip_widths: [u64; 4],
    /// The temporal-tiling schedule: `Some` when the plan fuses two or
    /// more time steps per halo exchange ([`ExecOptions::temporal_depth`]
    /// honored), `None` for the classic one-step plan.
    temporal: Option<TemporalPlan>,
    /// Why a requested `temporal_depth > 1` was clamped back to 1, when
    /// it was. `None` when the request was honored (or never made).
    temporal_fallback: Option<&'static str>,
}

/// The shared artifacts of a temporally tiled plan: `depth` fused time
/// steps share one deepened (`depth·radius`) halo exchange per execute,
/// ping-ponging intermediate states through plan-owned scratch buffers.
/// Every node computes a shrinking extended region per inner step — the
/// classic redundant-compute trade: margin points are recomputed locally
/// instead of communicated.
#[derive(Debug)]
struct TemporalPlan {
    /// Fused time steps per execute (≥ 2).
    depth: usize,
    /// Ping-pong intermediate-state buffers, each padded to the full
    /// `depth·radius` frame: none for depth 1, one for depth 2, two
    /// beyond (consecutive states always land in different buffers).
    scratch: Vec<Field>,
    /// Per-named-coefficient halo buffers, padded `(depth−1)·radius`:
    /// intermediate steps read coefficients at margin positions, which
    /// live on neighbor nodes just like source halo words do.
    coeff_halos: Vec<HaloBuffer>,
    /// The halo exchange for each coefficient halo above.
    coeff_exchanges: Vec<ExchangeProgram>,
    /// The beyond-global-edge fill fix-up per scratch buffer: a
    /// zero-fill boundary requires margin reads past the global edge to
    /// see the fill value, but intermediate steps write computed garbage
    /// there; this restores the invariant after every non-final step.
    /// Empty programs under a circular boundary (wrapped margin values
    /// are recomputed bit-identically, no fix-up needed).
    scratch_fills: Vec<FillProgram>,
    /// Prefix boundaries into `strips`/`lane_strips` per inner step:
    /// step `j` runs the index range `step_bounds[j]..step_bounds[j+1]`.
    step_bounds: Vec<usize>,
}

/// The mutable half of an execution plan: one tenant's binding and
/// execution state over a shared [`CompiledPlan`] — the rebased strip
/// schedule, the lane view over the tenant's arrays, the persistent lane
/// mirror with a record of what it holds, and the packed coefficient
/// streams.
///
/// Instances are cheap to create (no machine allocation — they reuse the
/// compiled plan's halo buffers and pages) and fully independent: two
/// instances over the same `CompiledPlan` can be rebound and executed
/// without observing each other, as long as machine access is serialized
/// by the caller (the session's machine lock).
#[derive(Debug, Clone)]
pub struct PlanInstance {
    /// The shared schedule rebased onto this instance's binding, less
    /// the pending deltas below.
    strips: Vec<ResolvedStrip>,
    /// Base deltas of the result and of every coefficient slot that
    /// `strips` has not absorbed yet. The lane-resident path never reads
    /// the node-domain schedule, so `bind` only accumulates them and
    /// [`PlanInstance::rebase_node_strips`] applies them once a
    /// node-domain reader needs the strips.
    pending_result_delta: i64,
    pending_coeff_deltas: Vec<i64>,
    /// A private lane translation (strips plus kernel classifications),
    /// used only when the shared plan has none to offer — it was built
    /// from an aliased binding (empty `lane_strips`) and this instance's
    /// binding is clean. `None` means the instance runs the shared
    /// translation; lane addresses are rebind-invariant, so that is the
    /// common case.
    lane_strips_override: Option<(Vec<ResolvedStrip>, Vec<Option<StripKernels>>)>,
    /// Whether `execute` dispatches through the compiled kernels. On by
    /// default; [`ExecutionPlan::set_kernel_tier`] turns it off after
    /// build (for interpreted-baseline benchmarking) without touching
    /// the plan-cache key.
    kernel_tier: bool,
    /// The node-memory ↔ lane-word map for the lockstep engine. `Some`
    /// means `execute` runs the lane-resident steady state: the mirror
    /// below persists across executes, sources are refreshed and the
    /// halo exchange runs directly on it, and only writable ranges are
    /// scattered back. `None` when the engine is scalar, the mode is
    /// cycle-accurate, or the current binding cannot be lane-mapped
    /// (aliased arrays, or a strip, exchange or interior copy that does
    /// not translate); `execute` then runs the scalar path. Rebind
    /// recomputes it in place.
    lane_view: Option<LaneView>,
    /// The instance-owned persistent lane mirror. Shaped on first
    /// execute, recycled afterwards (zero steady-state allocations);
    /// `held_operands` and `held_interiors` record what it holds.
    /// Poolable across instances via [`ExecutionPlan::take_mirror`] /
    /// [`ExecutionPlan::install_mirror`].
    lane_mirror: LaneMirror,
    /// The halo exchange translated onto the mirror — one per source,
    /// then (temporal plans) one per coefficient halo. Translated by the
    /// first lane-mapped binding and kept across rebinds (it
    /// touches only plan-owned halo buffers); empty before that.
    lane_exchanges: Vec<LaneExchangeProgram>,
    /// Interior refresh on the mirror (the lane-domain `fill_interior`),
    /// parallel to `lane_exchanges`: sources first, then (temporal
    /// plans) the bound named-coefficient arrays into their halos.
    /// Empty without a lane view.
    lane_interiors: Vec<MirrorCopy>,
    /// The scratch-buffer boundary fix-ups translated onto the mirror,
    /// parallel to the shared plan's `TemporalPlan::scratch_fills`;
    /// translated and kept together with `lane_exchanges` (empty for
    /// classic plans).
    lane_scratch_fills: Vec<LaneFillProgram>,
    /// The view's read-only ranges outside the halo buffers, each
    /// copied straight into the mirror: the constant pair, the literal
    /// pages and (classic plans) the named coefficient arrays. Empty
    /// without a lane view; rebind recomputes it (bases move).
    lane_operands: Vec<MirrorCopy>,
    /// What the mirror holds of each `lane_operands` entry, `None` when
    /// it holds nothing yet. An execute re-gathers exactly the entries
    /// whose record differs from the bound field's current base and
    /// write generation; all `None` means the mirror is unprimed.
    held_operands: Vec<Option<Held>>,
    /// What the mirror's halo interiors hold, parallel to
    /// `lane_interiors`: an execute refreshes and exchanges exactly the
    /// halos whose record differs from the bound array's current base
    /// and write generation.
    held_interiors: Vec<Option<Held>>,
    /// The packed coefficient streams the kernel tier reads (the
    /// paper's §4 access-order coefficient layout), cached across
    /// executes — one per fused inner step (a single entry for classic
    /// plans; the stream cache is keyed on a step's kernel list, so
    /// steps cannot share one). Every mirror range an execute re-reads
    /// invalidates the strips that read it; retranslated strips
    /// invalidate everything.
    lane_streams: Vec<CoeffStreams>,
    result: CmArray,
    sources: Vec<CmArray>,
    coeffs: Vec<CmArray>,
}

/// Everything a stencil call decides ahead of its first iteration:
/// halo buffers, compiled exchange programs, constant/literal pages, and
/// the fully address-resolved strip schedule.
///
/// Internally an `ExecutionPlan` is a shared immutable [`CompiledPlan`]
/// (held through an [`Arc`], so cloned plans and concurrent tenants share
/// one compiled artifact) plus a private mutable [`PlanInstance`] (this
/// plan's binding, lane mirror, and the record of what the mirror holds).
///
/// Build once with [`ExecutionPlan::build`], run any number of times with
/// [`ExecutionPlan::execute`], retarget to other same-shape arrays with
/// [`ExecutionPlan::rebind`], or attach a fresh instance to an existing
/// artifact with [`ExecutionPlan::from_shared`]. A steady-state execute
/// performs **zero** field allocations (observable via
/// [`Machine::alloc_count`]) and zero schedule rebuilds.
///
/// # Examples
///
/// ```
/// use cmcc_cm2::{Machine, MachineConfig};
/// use cmcc_core::Compiler;
/// use cmcc_runtime::{CmArray, ExecOptions, ExecutionPlan, PlanLifetime, StencilBinding};
///
/// let mut machine = Machine::new(MachineConfig::tiny_4())?;
/// let compiled = Compiler::new(machine.config().clone())
///     .compile_assignment("R = 0.25 * CSHIFT(X, 1, -1) + 0.75 * X")?;
/// let x = CmArray::new(&mut machine, 8, 8)?;
/// let r = CmArray::new(&mut machine, 8, 8)?;
/// x.fill(&mut machine, 4.0);
///
/// let binding = StencilBinding::new(&compiled, &r, &[&x], &[])?;
/// let mut plan = ExecutionPlan::build(
///     &mut machine,
///     &binding,
///     &ExecOptions::default(),
///     PlanLifetime::Persistent,
/// )?;
/// let first = plan.execute(&mut machine)?;
/// let again = plan.execute(&mut machine)?;
/// assert_eq!(r.get(&machine, 3, 3), 4.0);
/// assert_eq!(first, again); // deterministic, allocation-free replay
/// plan.release(&mut machine);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    shared: Arc<CompiledPlan>,
    inst: PlanInstance,
}

impl CompiledPlan {
    /// Plans every *shared* per-call decision for `binding` under `opts`.
    ///
    /// Allocates the halo buffers and constant pages (from the region
    /// `lifetime` selects), fills the constant pages, compiles one
    /// [`ExchangeProgram`] per source, resolves the complete strip
    /// schedule to absolute operand addresses, translates it onto the
    /// lane domain, and classifies every lane strip against the kernel
    /// family. The result is immutable: tenants attach to it with
    /// [`ExecutionPlan::from_shared`], which rebases onto their arrays
    /// without touching the artifact.
    ///
    /// Counts one `PlanBuilds` — the exactly-once build assertion
    /// concurrent sessions rely on.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::SubgridTooSmall`] when the stencil's halo is deeper
    /// than the per-node subgrid, or [`RuntimeError::OutOfMemory`].
    pub fn build(
        machine: &mut Machine,
        binding: &StencilBinding<'_>,
        opts: &ExecOptions,
        lifetime: PlanLifetime,
    ) -> Result<Self, RuntimeError> {
        let _span = cmcc_obs::span(cmcc_obs::Phase::PlanBuild);
        cmcc_obs::add(cmcc_obs::Counter::PlanBuilds, 1);
        let compiled = binding.compiled();
        let spec = compiled.spec();
        let stencil = compiled.stencil();
        let result = *binding.result();
        let sub_rows = result.sub_rows();
        let sub_cols = result.sub_cols();
        let pad = stencil.borders().max_width() as usize;
        let persistent = lifetime == PlanLifetime::Persistent;

        // Temporal tiling: fuse `depth` time steps per halo exchange by
        // deepening the halo to `depth·radius` and recomputing margin
        // points locally (the redundant-compute trade). Eligibility is
        // exactly the set of plans the fused schedule below can express;
        // anything else clamps back to one step per exchange and records
        // why, both in the counter and on the plan.
        let requested_depth = opts.temporal_depth.max(1);
        let mut temporal_fallback = None;
        let depth = if requested_depth == 1 {
            1
        } else {
            let reason = if opts.mode != ExecMode::Fast {
                Some("cycle-accurate mode")
            } else if opts.engine != ExecEngine::Lockstep {
                Some("scalar engine")
            } else if binding.sources().len() != 1 {
                Some("multi-source stencil")
            } else if pad == 0 {
                Some("pointwise stencil")
            } else if requested_depth * pad > sub_rows.min(sub_cols) {
                Some("subgrid smaller than depth x radius")
            } else {
                None
            };
            match reason {
                Some(why) => {
                    cmcc_obs::add(cmcc_obs::Counter::TemporalFallbacks, 1);
                    temporal_fallback = Some(why);
                    1
                }
                None => requested_depth,
            }
        };
        // The deepest margin any inner step computes: step j writes a
        // `(depth-1-j)·radius`-deep extension of the subgrid, so step 0
        // reads `depth·radius` (the source halo) and every step reads
        // coefficients at up to `(depth-1)·radius` beyond the edge.
        let halo_pad = depth * pad;
        let coeff_pad = (depth - 1) * pad;

        let halos: Vec<HaloBuffer> = binding
            .sources()
            .iter()
            .map(|_| {
                if persistent {
                    HaloBuffer::new_persistent(machine, sub_rows, sub_cols, halo_pad)
                } else {
                    HaloBuffer::new(machine, sub_rows, sub_cols, halo_pad)
                }
            })
            .collect::<Result<_, _>>()?;

        let alloc = |machine: &mut Machine, len: usize| {
            if persistent {
                machine.alloc_field_persistent(len)
            } else {
                machine.alloc_field(len)
            }
        };

        // Constant pages: one word each of 1.0 and 0.0, plus one page
        // per literal coefficient (streamed with a zero row stride).
        // Temporal plans widen the pages by the deepest intermediate
        // margin so extended-region columns stay in bounds.
        let consts = alloc(machine, 2)?;
        let page_cols = sub_cols + 2 * coeff_pad;
        let mut pages: Vec<Option<(Field, f32)>> = Vec::with_capacity(spec.coeffs.len());
        for c in &spec.coeffs {
            match c {
                CoeffSpec::Literal(v) => pages.push(Some((alloc(machine, page_cols)?, *v))),
                CoeffSpec::Named(_) => pages.push(None),
            }
        }
        let ones_addr = consts.addr(0);
        let zeros_addr = consts.addr(1);
        for (_, mem) in machine.par_nodes_mut() {
            mem.write(ones_addr, 1.0);
            mem.write(zeros_addr, 0.0);
            for &(page, value) in pages.iter().flatten() {
                mem.fill_field(page, value);
            }
        }

        // The halo exchange, compiled: neighbor lookups, copy addresses,
        // fill spans, and the cycle price are all fixed by (shape, grid,
        // boundary, primitive).
        // Fused steps always need corners: composing the stencil with
        // itself reaches diagonal neighbors even when one application
        // does not.
        let need_corners = if opts.skip_corners_when_possible {
            stencil.needs_corner_exchange() || depth > 1
        } else {
            pad > 0
        };
        let grid = machine.grid();
        let exchanges: Vec<ExchangeProgram> = halos
            .iter()
            .map(|halo| {
                ExchangeProgram::new(
                    halo,
                    grid,
                    machine.config(),
                    stencil.boundary(),
                    stencil.fill(),
                    need_corners,
                    opts.primitive,
                )
            })
            .collect();

        // Temporal plans read named coefficients at margin positions,
        // which live on neighbor nodes: each gets its own (shallower)
        // halo buffer and exchange, refreshed alongside the source halo.
        let mut coeff_halos: Vec<HaloBuffer> = Vec::new();
        let mut coeff_exchanges: Vec<ExchangeProgram> = Vec::new();
        if depth > 1 {
            for _ in binding.coeffs() {
                let halo = if persistent {
                    HaloBuffer::new_persistent(machine, sub_rows, sub_cols, coeff_pad)?
                } else {
                    HaloBuffer::new(machine, sub_rows, sub_cols, coeff_pad)?
                };
                coeff_exchanges.push(ExchangeProgram::new(
                    &halo,
                    grid,
                    machine.config(),
                    stencil.boundary(),
                    stencil.fill(),
                    need_corners,
                    opts.primitive,
                ));
                coeff_halos.push(halo);
            }
        }

        // Intermediate-state scratch, ping-ponged between inner steps.
        // Padded to the full halo frame so every step's extended write
        // region (and the next step's reads one radius beyond it) stays
        // in bounds at non-negative padded coordinates.
        let scratch_count = match depth {
            1 => 0,
            2 => 1,
            _ => 2,
        };
        let scratch_stride = sub_cols + 2 * halo_pad;
        let scratch: Vec<Field> = (0..scratch_count)
            .map(|_| alloc(machine, (sub_rows + 2 * halo_pad) * scratch_stride))
            .collect::<Result<_, _>>()?;
        let scratch_layout = |f: &Field| FieldLayout {
            base: f.base(),
            row_stride: scratch_stride,
            row_offset: halo_pad as i64,
            col_offset: halo_pad as i64,
        };
        let scratch_fills: Vec<FillProgram> = scratch
            .iter()
            .map(|&f| {
                FillProgram::boundary(
                    &HaloBuffer::over(f, sub_rows, sub_cols, halo_pad),
                    grid,
                    stencil.boundary(),
                    stencil.fill(),
                )
            })
            .collect();

        // Coefficient address tables, indexed like `MemRef::Coeff.array`.
        // Temporal plans read named coefficients through their plan-owned
        // halo buffers (margin positions included) instead of the bound
        // arrays directly; literal pages carry the margin as a column
        // offset (their row stride is zero either way).
        let mut named_iter = binding.coeffs().iter();
        let mut coeff_halo_iter = coeff_halos.iter();
        let mut named_slots = Vec::with_capacity(binding.coeffs().len());
        let coeff_layouts: Vec<FieldLayout> = spec
            .coeffs
            .iter()
            .zip(&pages)
            .enumerate()
            .map(|(i, (c, page))| match c {
                CoeffSpec::Named(_) => {
                    named_slots.push(i as u16);
                    let bound = named_iter.next().expect("coefficient count was validated");
                    match coeff_halo_iter.next() {
                        Some(halo) => halo.layout(),
                        None => bound.layout(),
                    }
                }
                CoeffSpec::Literal(_) => {
                    let (page, _) = page.expect("literal page was allocated");
                    // The row offset keeps margin-shifted rows (down to
                    // `-coeff_pad`) non-negative; with a zero row stride
                    // it never moves the address.
                    FieldLayout {
                        base: page.base(),
                        row_stride: 0,
                        row_offset: coeff_pad as i64,
                        col_offset: coeff_pad as i64,
                    }
                }
            })
            .collect();

        // The strip schedule, resolved: identical on every node (SIMD),
        // built once in the same order the rebuild-per-call path emits,
        // with every memory operand turned into an absolute address.
        // Temporal plans concatenate one sub-schedule per fused inner
        // step: step `j` computes a `(depth-1-j)·radius`-deep extension
        // of the subgrid (reads reach one radius further — exactly the
        // previous step's write margin), reading the deepened source
        // halo (step 0) or the previous scratch state, and writing the
        // next scratch state or (final step) the bound result.
        let src_layouts: Vec<FieldLayout> = halos.iter().map(HaloBuffer::layout).collect();
        let mut strips = Vec::new();
        let mut strip_widths = [0u64; 4];
        let mut step_bounds = vec![0usize];
        for step in 0..depth {
            let margin = (depth - 1 - step) * pad;
            let step_srcs: Vec<FieldLayout> = if step == 0 {
                src_layouts.clone()
            } else {
                vec![scratch_layout(&scratch[(step - 1) % 2])]
            };
            let step_res = if step + 1 == depth {
                result.layout()
            } else {
                scratch_layout(&scratch[step % 2])
            };
            let halves = if opts.half_strips {
                halfstrips(sub_rows + 2 * margin)
            } else {
                full_strip(sub_rows + 2 * margin)
            };
            for strip in plan_strips(compiled, sub_cols + 2 * margin) {
                let sk = compiled
                    .widest_kernel_for(strip.width)
                    .expect("plan_strips used compiled widths");
                debug_assert_eq!(sk.width, strip.width);
                for half in &halves {
                    let kernel = match half.walk {
                        Walk::North => &sk.north,
                        Walk::South => &sk.south,
                    };
                    let ctx = StripContext {
                        srcs: &step_srcs,
                        res: step_res,
                        coeffs: &coeff_layouts,
                        ones_addr,
                        zeros_addr,
                        start_row: half.start_row as i64 - margin as i64,
                        lines: half.lines,
                        col0: strip.col0 as i64 - margin as i64,
                    };
                    let mut resolved = ResolvedStrip::new(kernel, &ctx);
                    if depth > 1 {
                        // Scratch and coefficient-halo addresses are
                        // plan-owned and never move on rebind: freeze
                        // them so rebase shifts only the final step's
                        // result operands.
                        resolved.freeze_slots(step + 1 < depth, true);
                    }
                    strips.push(resolved);
                    if let Some(slot) = width_slot(strip.width) {
                        strip_widths[slot] += 1;
                    }
                }
            }
            step_bounds.push(strips.len());
        }

        // Lane mapping for the lockstep engine: mirror exactly the
        // buffers the schedule touches, translate the schedule into lane
        // words. Either step can fail — aliased arrays overlap, or an
        // address walk escapes its buffer — and then the plan simply
        // keeps the scalar path. Only the translation is kept: lane
        // addresses depend on range lengths and order alone, both
        // binding-invariant, so the artifact shares it with every
        // instance; the view itself (gather/scatter bases) and the
        // resident exchange/interior programs are per-binding and are
        // recomputed by [`PlanInstance::for_binding`].
        let literal_pages: Vec<(Field, f32)> = pages.into_iter().flatten().collect();
        let mut lane_strips = Vec::new();
        if opts.mode == ExecMode::Fast && opts.engine == ExecEngine::Lockstep {
            let view = if depth > 1 {
                LaneView::new_with_private(&lane_ranges_temporal(
                    &halos,
                    consts,
                    &literal_pages,
                    &coeff_halos,
                    &scratch,
                    &result,
                ))
            } else {
                LaneView::new(&lane_ranges(
                    &halos,
                    consts,
                    &literal_pages,
                    binding.coeffs(),
                    &result,
                ))
            };
            if let Some(view) = view {
                if let Some(translated) = strips
                    .iter()
                    .map(|s| s.translate(&view))
                    .collect::<Option<Vec<_>>>()
                {
                    lane_strips = translated;
                }
            }
        }

        // The kernel tier: classify every lane strip against the
        // monomorphized family. Strips the classifier rejects keep a
        // `None` and run interpreted — visible as `interpreted_steps`.
        let lane_kernels: Vec<Option<StripKernels>> =
            lane_strips.iter().map(StripKernels::compile).collect();

        let cfg = machine.config();
        Ok(CompiledPlan {
            strips,
            lane_strips,
            lane_kernels,
            halos,
            exchanges,
            consts,
            literal_pages,
            named_slots,
            coeff_slot_count: spec.coeffs.len(),
            result,
            sources: binding.sources().to_vec(),
            coeffs: binding.coeffs().to_vec(),
            useful_flops: stencil.useful_flops_per_point()
                * (result.rows() * result.cols()) as u64
                * depth as u64,
            call_overhead: u64::from(cfg.call_overhead_cycles),
            dispatch: u64::from(cfg.frontend_dispatch_cycles),
            nodes: machine.node_count(),
            opts: *opts,
            fingerprint: compiled.fingerprint(),
            lifetime,
            strip_widths,
            temporal: (depth > 1).then_some(TemporalPlan {
                depth,
                scratch,
                coeff_halos,
                coeff_exchanges,
                scratch_fills,
                step_bounds,
            }),
            temporal_fallback,
        })
    }

    /// Validates that a candidate binding can attach to this artifact:
    /// argument counts equal the build binding's, and every array has
    /// the compiled shape. `what` prefixes error messages ("rebind",
    /// "bound").
    fn validate_binding(
        &self,
        what: &str,
        result: &CmArray,
        sources: &[&CmArray],
        coeffs: &[&CmArray],
    ) -> Result<(), RuntimeError> {
        if sources.len() != self.sources.len() {
            return Err(RuntimeError::WrongSourceCount {
                expected: self.sources.len(),
                got: sources.len(),
            });
        }
        if coeffs.len() != self.coeffs.len() {
            return Err(RuntimeError::WrongCoeffCount {
                expected: self.coeffs.len(),
                got: coeffs.len(),
            });
        }
        let check = |kind: &str, arr: &CmArray| -> Result<(), RuntimeError> {
            if !arr.same_shape(&self.result) {
                return Err(RuntimeError::ShapeMismatch {
                    what: format!(
                        "{what} {kind} is {}x{} but the plan was built for {}x{}",
                        arr.rows(),
                        arr.cols(),
                        self.result.rows(),
                        self.result.cols()
                    ),
                });
            }
            Ok(())
        };
        check("result", result)?;
        for s in sources {
            check("source", s)?;
        }
        for c in coeffs {
            check("coefficient", c)?;
        }
        Ok(())
    }

    /// The [`CompiledStencil::fingerprint`] this artifact was built from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Global rows of the compiled shape.
    pub fn rows(&self) -> usize {
        self.result.rows()
    }

    /// Global columns of the compiled shape.
    pub fn cols(&self) -> usize {
        self.result.cols()
    }

    /// The execution options the artifact was built under.
    pub fn options(&self) -> &ExecOptions {
        &self.opts
    }

    /// Where the artifact's node-memory fields live.
    pub fn lifetime(&self) -> PlanLifetime {
        self.lifetime
    }

    /// Words of node memory the artifact's halo buffers, constant pages,
    /// and (temporal plans) coefficient halos and scratch states occupy.
    pub fn words(&self) -> usize {
        self.halos.iter().map(HaloBuffer::words).sum::<usize>()
            + self.consts.len()
            + self
                .literal_pages
                .iter()
                .map(|(p, _)| p.len())
                .sum::<usize>()
            + self.temporal.as_ref().map_or(0, |tp| {
                tp.coeff_halos.iter().map(HaloBuffer::words).sum::<usize>()
                    + tp.scratch.iter().map(Field::len).sum::<usize>()
            })
    }

    /// Fused time steps per execute: the effective temporal depth (1 for
    /// classic plans, including clamped requests).
    pub fn temporal_depth(&self) -> usize {
        self.temporal.as_ref().map_or(1, |tp| tp.depth)
    }

    /// Why a requested temporal depth above 1 was clamped back to one
    /// step per exchange, when it was.
    pub fn temporal_fallback(&self) -> Option<&'static str> {
        self.temporal_fallback
    }

    /// Returns the artifact's persistent fields to the arena. The caller
    /// must hold the *only* reference (the session sweeps retired plans
    /// through [`Arc::try_unwrap`] before calling this), because
    /// instances read the halo buffers and pages on every execute.
    ///
    /// # Panics
    ///
    /// Panics if the artifact was built with [`PlanLifetime::Scoped`] —
    /// scoped fields fall away with the caller's [`Machine::release_to`].
    pub fn release(self, machine: &mut Machine) {
        assert_eq!(
            self.lifetime,
            PlanLifetime::Persistent,
            "scoped plans are reclaimed by release_to, not release"
        );
        if let Some(tp) = self.temporal {
            for field in tp.scratch.into_iter().rev() {
                machine.free_field_persistent(field);
            }
            for halo in tp.coeff_halos.into_iter().rev() {
                halo.release(machine);
            }
        }
        for &(page, _) in self.literal_pages.iter().rev() {
            machine.free_field_persistent(page);
        }
        machine.free_field_persistent(self.consts);
        for halo in self.halos.into_iter().rev() {
            halo.release(machine);
        }
    }
}

impl PlanInstance {
    /// Creates the per-tenant state for `cp` bound to the given arrays:
    /// rebases the shared schedule onto this binding, recomputes the
    /// lane view over these arrays, and translates the resident
    /// exchange/interior programs. Performs no machine allocation. The
    /// mirror starts out holding nothing: the first execute primes it.
    fn for_binding(
        cp: &CompiledPlan,
        result: &CmArray,
        sources: &[CmArray],
        coeffs: &[CmArray],
    ) -> Self {
        // Start from the build binding the shared schedule was resolved
        // against; `bind` records the deltas from there.
        let mut inst = PlanInstance {
            strips: cp.strips.clone(),
            pending_result_delta: 0,
            pending_coeff_deltas: vec![0; cp.coeff_slot_count],
            lane_strips_override: None,
            kernel_tier: true,
            lane_view: None,
            lane_mirror: LaneMirror::new(),
            lane_exchanges: Vec::new(),
            lane_interiors: Vec::new(),
            lane_scratch_fills: Vec::new(),
            lane_operands: Vec::new(),
            held_operands: Vec::new(),
            held_interiors: Vec::new(),
            lane_streams: (0..cp.temporal_depth())
                .map(|_| CoeffStreams::new())
                .collect(),
            result: cp.result,
            sources: cp.sources.clone(),
            coeffs: cp.coeffs.clone(),
        };
        let sources: Vec<&CmArray> = sources.iter().collect();
        let coeffs: Vec<&CmArray> = coeffs.iter().collect();
        inst.bind(cp, result, &sources, &coeffs);
        inst
    }

    /// Points the instance at new arrays of the compiled shape: records
    /// the base deltas the node-domain schedule owes (applied lazily, see
    /// [`PlanInstance::rebase_node_strips`]), recomputes the lane view
    /// (or falls back to the scalar path when the arrays alias), and
    /// retargets the mirror copies at the new bases. The held
    /// records are kept — the next execute compares them with the new
    /// fields and re-reads just the operands that differ — and so are
    /// the lane exchange programs and scratch fix-ups: they move words
    /// between plan-owned halo and scratch buffers at lane addresses,
    /// which depend only on range lengths and order, so no binding can
    /// change them.
    fn bind(
        &mut self,
        cp: &CompiledPlan,
        result: &CmArray,
        sources: &[&CmArray],
        coeffs: &[&CmArray],
    ) {
        self.pending_result_delta +=
            result.field().base() as i64 - self.result.field().base() as i64;
        for ((&slot, old), new) in cp.named_slots.iter().zip(&self.coeffs).zip(coeffs) {
            self.pending_coeff_deltas[slot as usize] +=
                new.field().base() as i64 - old.field().base() as i64;
        }
        self.result = *result;
        self.sources.clear();
        self.sources.extend(sources.iter().map(|s| **s));
        self.coeffs.clear();
        self.coeffs.extend(coeffs.iter().map(|c| **c));

        // The lane view is per-binding (gather/scatter bases move with
        // the arrays), but lane *addresses* depend only on range lengths
        // and order, so a translation, once made, stays valid: the
        // shared one whenever the artifact has it, else a private one,
        // made only when the artifact was compiled from an aliased
        // binding (no shared lane strips) and this binding is clean. A
        // rebind can also turn the lockstep path off (the new binding
        // aliases arrays) or back on.
        self.lane_view = None;
        if cp.opts.mode == ExecMode::Fast && cp.opts.engine == ExecEngine::Lockstep {
            if let Some(view) = instance_lane_view(cp, &self.sources, &self.coeffs, &self.result) {
                let lane_len = self
                    .lane_strips_override
                    .as_ref()
                    .map_or(cp.lane_strips.len(), |(s, _)| s.len());
                if lane_len == self.strips.len() {
                    self.lane_view = Some(view);
                } else if let Some(translated) = self
                    .rebase_node_strips()
                    .iter()
                    .map(|s| s.translate(&view))
                    .collect::<Option<Vec<_>>>()
                {
                    let kernels = translated.iter().map(StripKernels::compile).collect();
                    self.lane_strips_override = Some((translated, kernels));
                    for streams in &mut self.lane_streams {
                        streams.invalidate();
                    }
                    self.lane_view = Some(view);
                }
            }
        }

        // A lockstep plan is lane-resident or it is not lane-mapped at
        // all: a view whose exchanges or interior refreshes do not
        // translate is dropped, and the binding runs scalar.
        self.lane_interiors.clear();
        self.lane_operands.clear();
        if let Some(view) = self.lane_view.take() {
            if self.lane_exchanges.is_empty() {
                if let Some((exchanges, scratch_fills)) = lane_programs(cp, &view) {
                    self.lane_exchanges = exchanges;
                    self.lane_scratch_fills = scratch_fills;
                }
            }
            let interiors = if self.lane_exchanges.is_empty() {
                None
            } else {
                lane_interiors(cp, &view, &self.sources, &self.coeffs)
            };
            if let Some(interiors) = interiors {
                self.lane_interiors = interiors;
                self.lane_operands = mirror_operands(cp, &view, &self.coeffs);
                self.lane_view = Some(view);
            }
        }
        // Without a lane view the mirror sits idle; records for ranges
        // that no longer exist are dropped (the mirror is primed again).
        self.held_operands.resize(self.lane_operands.len(), None);
        self.held_interiors.resize(self.lane_interiors.len(), None);
    }

    /// Applies the pending base deltas to the node-domain schedule and
    /// returns it. Rebases compose by addition, so one pass here equals
    /// one pass per intervening `bind`.
    fn rebase_node_strips(&mut self) -> &[ResolvedStrip] {
        if self.pending_result_delta != 0 || self.pending_coeff_deltas.iter().any(|&d| d != 0) {
            for strip in &mut self.strips {
                strip.rebase(self.pending_result_delta, &self.pending_coeff_deltas);
            }
            self.pending_result_delta = 0;
            self.pending_coeff_deltas.fill(0);
        }
        &self.strips
    }

    /// Forgets what the mirror holds: the next execute primes it again.
    fn forget_mirror(&mut self) {
        self.held_operands.fill(None);
        self.held_interiors.fill(None);
    }

    /// Brings the lane-resident mirror up to date with node memory and
    /// returns the modeled exchange cycles, the halo words moved, and a
    /// summary of what was re-read. The rule is one comparison per
    /// bound operand: a record that still matches the field's base and
    /// write generation means the mirror's copy is current and is
    /// skipped; anything else is re-read, and the coefficient streams
    /// reading the re-read range are repacked. An unprimed mirror takes
    /// one full gather first.
    fn sync_mirror(&mut self, cp: &CompiledPlan, machine: &Machine) -> (u64, usize, MirrorSync) {
        let (_, mems) = machine.exec_parts();
        let view = self
            .lane_view
            .as_ref()
            .expect("resident plans are lane-mapped");
        self.lane_mirror
            .ensure(view.words(), cp.nodes, cp.opts.threads);
        let (_, kernels) = lane_schedule(&self.lane_strips_override, cp);
        let streams = &mut self.lane_streams;
        let invalidate = |streams: &mut Vec<CoeffStreams>, words: std::ops::Range<usize>| {
            for (step, cache) in streams.iter_mut().enumerate() {
                let (lo, hi) = step_bounds(cp, step, kernels.len());
                cache.invalidate_words(&kernels[lo..hi], words.clone());
            }
        };
        let mut sync = MirrorSync::default();
        let prime = self.held_operands.iter().all(Option::is_none);
        if prime {
            self.lane_mirror.gather(view, mems);
            for s in streams.iter_mut() {
                s.invalidate();
            }
            sync.others += 1;
        }
        for (copy, held) in self.lane_operands.iter().zip(&mut self.held_operands) {
            let now = Held::of(machine, copy.field);
            if *held != Some(now) {
                if !prime {
                    self.lane_mirror.gather_rect(mems, &copy.rect);
                    invalidate(streams, copy.lanes.clone());
                    sync.others += 1;
                }
                *held = Some(now);
            } else {
                debug_assert!(
                    self.lane_mirror.holds_rect(&mems[0], 0, &copy.rect),
                    "a bound operand changed without a new write generation"
                );
            }
        }
        let mut comm = 0u64;
        let mut exchange_words = 0usize;
        for (i, ((copy, held), exchange)) in self
            .lane_interiors
            .iter()
            .zip(&mut self.held_interiors)
            .zip(&self.lane_exchanges)
            .enumerate()
        {
            // The modeled NEWS cycles are charged every iteration — the
            // CM-2 exchanges every time. Skipping the host-side copies of
            // an unchanged source must not perturb the `Measurement`.
            comm += exchange.cycles();
            let now = Held::of(machine, copy.field);
            if *held == Some(now) {
                debug_assert!(
                    self.lane_mirror.holds_rect(&mems[0], 0, &copy.rect),
                    "an array feeding a halo changed without a new write generation"
                );
                continue;
            }
            {
                let _t = cmcc_obs::trace::scope(
                    cmcc_obs::trace::TraceOp::InteriorRefresh,
                    (copy.rect.rows * copy.rect.cols) as u64,
                );
                self.lane_mirror.gather_rows(mems, &copy.rect);
            }
            exchange_words += exchange.words_moved();
            let _ = exchange.run(&mut self.lane_mirror);
            *held = Some(now);
            // The refresh and exchange rewrote the whole halo buffer: a
            // temporal plan's coefficient halos feed packed streams.
            invalidate(streams, copy.lanes.clone());
            if i < cp.halos.len() {
                sync.sources += 1;
            } else {
                sync.others += 1;
            }
        }
        (comm, exchange_words, sync)
    }

    /// Runs every fused step's kernels on the lane-resident mirror. Touches
    /// no node memory, so a locked execute holds no machine lock here.
    fn sweep(&mut self, cp: &CompiledPlan) -> StripRun {
        let (lane_strips, lane_kernels) = lane_schedule(&self.lane_strips_override, cp);
        let kernels: &[Option<StripKernels>] = if self.kernel_tier { lane_kernels } else { &[] };
        let mut run = StripRun::default();
        for step in 0..cp.temporal_depth() {
            let (lo, hi) = step_bounds(cp, step, lane_strips.len());
            let step_kernels = if kernels.is_empty() {
                kernels
            } else {
                &kernels[lo..hi]
            };
            let _t = cmcc_obs::trace::scope(cmcc_obs::trace::TraceOp::KernelSweep, step as u64);
            run.absorb(&run_lockstep_groups_kernelized(
                &lane_strips[lo..hi],
                step_kernels,
                &mut self.lane_streams[step],
                self.lane_mirror.groups_mut(),
            ));
            if step + 1 < cp.temporal_depth() {
                self.lane_scratch_fills[step % 2].run(&mut self.lane_mirror);
            }
        }
        run
    }

    /// The lane-resident execute's only node-memory write: stamps the
    /// result's write generation and scatters the mirror's writable
    /// ranges straight into node memory. A debug build proves the
    /// scatter left every read-only and lane-private viewed range
    /// untouched (node 0 stands in for all — SIMD).
    fn scatter_result(&mut self, machine: &mut Machine) {
        let view = self
            .lane_view
            .as_ref()
            .expect("resident plans are lane-mapped");
        let _t = cmcc_obs::trace::scope(
            cmcc_obs::trace::TraceOp::RegionCommit,
            view.ranges()
                .iter()
                .filter(|r| r.writable && !r.private)
                .count() as u64,
        );
        machine.note_write(self.result.field());
        let (_, mems) = machine.exec_parts_mut();
        #[cfg(debug_assertions)]
        let before = read_only_bits(view, &mems[0]);
        self.lane_mirror.scatter(view, mems);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            before,
            read_only_bits(view, &mems[0]),
            "scatter touched a read-only or lane-private range"
        );
    }

    /// Runs one iteration over the shared artifact `cp`, borrowing the
    /// machine through `machine` — see [`ExecutionPlan::execute`] and
    /// [`ExecutionPlan::execute_locked`]. A lane-resident plan reads node
    /// memory to bring its mirror up to date, sweeps the mirror, and
    /// writes node memory once, to scatter the result; every other plan
    /// writes node memory as it goes and borrows it exclusively
    /// throughout.
    fn execute(
        &mut self,
        cp: &CompiledPlan,
        mut machine: MachineAccess<'_>,
    ) -> Result<Measurement, RuntimeError> {
        let _span = cmcc_obs::span(cmcc_obs::Phase::Execute);
        if self.lane_view.is_none() {
            return machine.write(|m| self.execute_in_place(cp, m));
        }
        let mirror_base = MirrorWords::of(&self.lane_mirror);
        let (comm, exchange_words, sync) = machine.read(|m| self.sync_mirror(cp, m));
        let run = self.sweep(cp);
        machine.write(|m| self.scatter_result(m));
        Ok(self.finish(
            cp,
            ExecTally {
                run,
                comm,
                interior_words: 0,
                exchange_words,
                mirror_base,
                sync: Some(sync),
            },
        ))
    }

    /// The execute body of a plan off the lane mirror (scalar engine,
    /// cycle mode, an aliased binding, the node-domain temporal
    /// fallback): halo refresh and exchange in node memory, then the
    /// node-domain schedule writing the result in place.
    fn execute_in_place(
        &mut self,
        cp: &CompiledPlan,
        machine: &mut Machine,
    ) -> Result<Measurement, RuntimeError> {
        // Every engine below writes the bound result in node memory.
        // Stamping first also covers an engine that fails part-way (a
        // hazard); nothing can read the stamp before the write lands,
        // because this execute holds the machine exclusively.
        machine.note_write(self.result.field());
        let mirror_base = MirrorWords::of(&self.lane_mirror);
        let mut interior_words = 0usize;
        let mut exchange_words = 0usize;
        let mut comm = 0;
        for ((halo, program), src) in cp.halos.iter().zip(&cp.exchanges).zip(&self.sources) {
            interior_words += halo.fill_interior(machine, src);
            exchange_words += program.words_moved();
            comm += program.run(machine);
        }
        let run = match &cp.temporal {
            None => machine.run_resolved_all(
                self.rebase_node_strips(),
                cp.opts.mode,
                cp.opts.threads,
            )?,
            Some(tp) => {
                // The node-domain fused loop: the fallback for temporal
                // plans whose binding cannot ride the lane mirror
                // (aliased arrays, a failed translation). One deepened
                // exchange per execute, then every inner step runs its
                // sub-schedule against node memory, with the scratch
                // boundary fix-up between steps.
                for ((halo, program), arr) in tp
                    .coeff_halos
                    .iter()
                    .zip(&tp.coeff_exchanges)
                    .zip(&self.coeffs)
                {
                    interior_words += halo.fill_interior(machine, arr);
                    exchange_words += program.words_moved();
                    comm += program.run(machine);
                }
                let depth = cp.temporal_depth();
                let strips = self.rebase_node_strips();
                let mut run = StripRun::default();
                for step in 0..depth {
                    let (lo, hi) = (tp.step_bounds[step], tp.step_bounds[step + 1]);
                    run.absorb(&machine.run_resolved_all(
                        &strips[lo..hi],
                        cp.opts.mode,
                        cp.opts.threads,
                    )?);
                    if step + 1 < depth {
                        tp.scratch_fills[step % 2].run(machine);
                    }
                }
                run
            }
        };
        Ok(self.finish(
            cp,
            ExecTally {
                run,
                comm,
                interior_words,
                exchange_words,
                mirror_base,
                sync: None,
            },
        ))
    }

    /// The execute epilogue shared by the lane-resident and in-place paths:
    /// telemetry, the analytic copy-word cross-checks, and the paper's
    /// cycle accounting rolled into a [`Measurement`].
    fn finish(&self, cp: &CompiledPlan, tally: ExecTally) -> Measurement {
        let ExecTally {
            run,
            comm,
            interior_words,
            exchange_words,
            mirror_base,
            sync,
        } = tally;
        let d = MirrorWords::of(&self.lane_mirror).minus(&mirror_base);
        cmcc_obs::add(
            if self.lane_view.is_some() {
                cmcc_obs::Counter::LockstepRuns
            } else {
                cmcc_obs::Counter::ScalarRuns
            },
            1,
        );
        cmcc_obs::add(cmcc_obs::Counter::FusedSteps, cp.temporal_depth() as u64);
        cmcc_obs::add(cmcc_obs::Counter::UsefulFlops, cp.useful_flops);
        cmcc_obs::add(
            cmcc_obs::Counter::TotalFlops,
            2 * run.macs * cp.nodes as u64,
        );
        cmcc_obs::add(cmcc_obs::Counter::GatherWords, d.gathered);
        cmcc_obs::add(cmcc_obs::Counter::ScatterWords, d.scattered);
        cmcc_obs::add(cmcc_obs::Counter::InteriorRefreshWords, d.row_gathered);
        cmcc_obs::add(cmcc_obs::Counter::MirrorAllocations, d.allocations);
        for (slot, &n) in cp.strip_widths.iter().enumerate() {
            cmcc_obs::add(WIDTH_COUNTERS[slot], n);
        }

        // Debug builds prove the analytic predictions against observed
        // traffic, however the execute borrowed the machine. Off the
        // resident path every execute is a steady one; on it, an execute
        // that re-read nothing is the steady state, and one that re-read
        // exactly the sources (a ping-pong step: the previous step wrote
        // the new source) is the rebind cycle.
        if cfg!(debug_assertions) {
            let observed = (interior_words + exchange_words) as u64
                + d.row_gathered
                + d.gathered
                + d.scattered;
            if sync.is_none_or(|s| s.is_steady()) {
                assert_eq!(
                    observed,
                    self.steady_copy_words(cp) as u64,
                    "steady-state copy words diverged from the analytic prediction"
                );
            } else if sync.is_some_and(|s| s.is_source_swap(cp.halos.len())) {
                assert_eq!(
                    observed,
                    self.rebind_cycle_copy_words(cp) as u64,
                    "rebind-cycle copy words diverged from the analytic prediction"
                );
            }
            if sync.is_some() {
                assert_eq!(
                    d.lane_copied, exchange_words as u64,
                    "lane exchange moved a different word count than its program records"
                );
            }
        }

        // One front-end microcode dispatch per half-strip, exactly as the
        // rebuild path charges.
        let frontend = cp.call_overhead + cp.dispatch * self.strips.len() as u64;

        Measurement {
            useful_flops: cp.useful_flops,
            cycles: CycleBreakdown {
                comm,
                compute: run.cycles,
                frontend,
            },
            nodes: cp.nodes,
        }
    }

    /// Retargets the instance to different arrays of identical shape
    /// over the shared artifact `cp`. See [`ExecutionPlan::rebind`].
    fn rebind(
        &mut self,
        cp: &CompiledPlan,
        result: &CmArray,
        sources: &[&CmArray],
        coeffs: &[&CmArray],
    ) -> Result<(), RuntimeError> {
        let _span = cmcc_obs::span(cmcc_obs::Phase::PlanRebind);
        cmcc_obs::add(cmcc_obs::Counter::PlanRebinds, 1);
        cp.validate_binding("rebind", result, sources, coeffs)?;
        self.bind(cp, result, sources, coeffs);
        Ok(())
    }

    /// Machine-total words copied per steady-state `execute` — the body
    /// behind [`ExecutionPlan::steady_state_copy_words`].
    fn steady_copy_words(&self, cp: &CompiledPlan) -> usize {
        if let Some(view) = &self.lane_view {
            return view
                .ranges()
                .iter()
                .filter(|r| r.writable && !r.private)
                .map(|r| r.len)
                .sum::<usize>()
                * cp.nodes;
        }
        // Node-domain refresh: every source interior, plus (temporal
        // plans only) every named-coefficient interior feeding the
        // widened coefficient halos.
        let coeff_interior = match &cp.temporal {
            Some(tp) if !tp.coeff_halos.is_empty() => {
                self.coeffs
                    .iter()
                    .map(|c| c.sub_rows() * c.sub_cols())
                    .sum::<usize>()
                    * cp.nodes
            }
            _ => 0,
        };
        let interior: usize = self
            .sources
            .iter()
            .map(|s| s.sub_rows() * s.sub_cols())
            .sum::<usize>()
            * cp.nodes
            + coeff_interior;
        let exchange: usize = cp
            .exchanges
            .iter()
            .map(ExchangeProgram::words_moved)
            .sum::<usize>()
            + cp.temporal.as_ref().map_or(0, |tp| {
                tp.coeff_exchanges
                    .iter()
                    .map(ExchangeProgram::words_moved)
                    .sum()
            });
        interior + exchange
    }

    /// Machine-total words copied by a ping-pong execute on the
    /// lane-resident path — result and sources swapped, so every source
    /// was written since the mirror read it, and nothing else changed:
    /// the source interior refreshes, their halo exchanges, and the
    /// result scatter. Coefficients, constants and literal pages cost
    /// nothing. Off the resident path this is the same as the
    /// steady-state figure (every execute already pays the full
    /// refresh).
    fn rebind_cycle_copy_words(&self, cp: &CompiledPlan) -> usize {
        if self.lane_view.is_none() {
            return self.steady_copy_words(cp);
        }
        let sources = cp.halos.len();
        let interior: usize = self.lane_interiors[..sources]
            .iter()
            .map(|c| c.rect.rows * c.rect.cols)
            .sum::<usize>()
            * cp.nodes;
        let exchange: usize = self.lane_exchanges[..sources]
            .iter()
            .map(LaneExchangeProgram::words_moved)
            .sum();
        interior + exchange + self.steady_copy_words(cp)
    }
}

impl ExecutionPlan {
    /// Plans every per-call decision for `binding` under `opts`.
    ///
    /// Builds the shared [`CompiledPlan`] (halo buffers, constant pages,
    /// exchange programs, the resolved and lane-translated strip
    /// schedule) and attaches the binding's own [`PlanInstance`] to it.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::SubgridTooSmall`] when the stencil's halo is deeper
    /// than the per-node subgrid, or [`RuntimeError::OutOfMemory`].
    pub fn build(
        machine: &mut Machine,
        binding: &StencilBinding<'_>,
        opts: &ExecOptions,
        lifetime: PlanLifetime,
    ) -> Result<Self, RuntimeError> {
        let shared = CompiledPlan::build(machine, binding, opts, lifetime)?;
        let inst = PlanInstance::for_binding(
            &shared,
            binding.result(),
            binding.sources(),
            binding.coeffs(),
        );
        Ok(ExecutionPlan {
            shared: Arc::new(shared),
            inst,
        })
    }

    /// Attaches a fresh per-tenant instance to an existing shared
    /// artifact — the multi-tenant fast path: no machine access, no
    /// field allocation, no strip resolution, just a rebase of the
    /// shared schedule onto this binding's arrays.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShapeMismatch`] when the binding's compiled
    /// stencil fingerprint or array shapes do not match the artifact;
    /// [`RuntimeError::WrongSourceCount`] / [`RuntimeError::WrongCoeffCount`]
    /// on argument-count mismatches.
    pub fn from_shared(
        shared: &Arc<CompiledPlan>,
        binding: &StencilBinding<'_>,
    ) -> Result<Self, RuntimeError> {
        if binding.compiled().fingerprint() != shared.fingerprint {
            return Err(RuntimeError::ShapeMismatch {
                what: format!(
                    "compiled stencil fingerprint {:#018x} does not match the shared plan's {:#018x}",
                    binding.compiled().fingerprint(),
                    shared.fingerprint
                ),
            });
        }
        let srcs: Vec<&CmArray> = binding.sources().iter().collect();
        let cfs: Vec<&CmArray> = binding.coeffs().iter().collect();
        shared.validate_binding("bound", binding.result(), &srcs, &cfs)?;
        let inst = PlanInstance::for_binding(
            shared,
            binding.result(),
            binding.sources(),
            binding.coeffs(),
        );
        Ok(ExecutionPlan {
            shared: Arc::clone(shared),
            inst,
        })
    }

    /// The shared compiled artifact this plan executes. Cloning the
    /// returned [`Arc`] keeps the artifact (and its node-memory fields)
    /// alive independently of cache eviction.
    pub fn shared(&self) -> &Arc<CompiledPlan> {
        &self.shared
    }

    /// Runs one iteration: halo exchange, pre-resolved kernel execution,
    /// and the paper's accounting. Performs no field allocation and no
    /// schedule construction; the lane-resident path (lockstep engine,
    /// the default) additionally performs no host allocation and
    /// re-reads only the bound operands written since its mirror copied
    /// them — every write to an array stamps its
    /// [`Machine::generation`], whether it came from the host or from
    /// another plan. Stamps this execute's result as written.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Hazard`] on a pipeline hazard (a compiler bug).
    pub fn execute(&mut self, machine: &mut Machine) -> Result<Measurement, RuntimeError> {
        self.inst
            .execute(&self.shared, MachineAccess::Owned(machine))
    }

    /// [`ExecutionPlan::execute`] on a machine behind a lock, holding
    /// the lock only while node memory is copied. A lane-resident plan
    /// ([`ExecutionPlan::uses_lockstep`]) takes the read lock to bring
    /// its private mirror up to date (priming gather, operand re-reads,
    /// interior refresh and lane exchange), runs the kernel sweep with
    /// no lock held, and takes the write lock to stamp and scatter the
    /// result. Any other plan writes node memory as it goes and holds
    /// the write lock for the whole execute.
    ///
    /// Results, [`Measurement`]s and telemetry are bit-identical to
    /// `execute`. Between the windows other lock holders may run, so the
    /// caller must keep every conflicting writer out for the whole call
    /// — the session does so with a lease over
    /// [`ExecutionPlan::lease_ranges`]. A poisoned lock is entered
    /// anyway, as the session does.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Hazard`] on a pipeline hazard (a compiler bug).
    pub fn execute_locked(
        &mut self,
        machine: &RwLock<Machine>,
    ) -> Result<Measurement, RuntimeError> {
        self.inst
            .execute(&self.shared, MachineAccess::Locked(machine))
    }

    /// The node-memory ranges this plan's next execute touches, with
    /// write flags — what the session leases before admitting the
    /// execute. Covers the bound arrays (result writable; sources and
    /// coefficients read-only) plus every plan-owned field: halo
    /// buffers, the constant pair, literal coefficient pages, and —
    /// temporal plans — coefficient halos and ping-pong scratch. On the
    /// lane-resident path the plan-owned fields are read-only (the
    /// refresh and exchange run on the instance's private mirror); off
    /// it, `fill_interior` and the node-domain fused loop write them, so
    /// two instances of one shared artifact must serialize.
    pub fn lease_ranges(&self) -> Vec<LeaseRange> {
        let cp = &*self.shared;
        let owned_writable = self.inst.lane_view.is_none();
        let mut out = Vec::new();
        let mut push = |f: Field, writable: bool| {
            if !f.is_empty() {
                out.push(LeaseRange {
                    start: f.base(),
                    end: f.base() + f.len(),
                    writable,
                });
            }
        };
        for halo in &cp.halos {
            push(halo.field(), owned_writable);
        }
        push(cp.consts, false);
        for &(page, _) in &cp.literal_pages {
            push(page, false);
        }
        if let Some(tp) = &cp.temporal {
            for halo in &tp.coeff_halos {
                push(halo.field(), owned_writable);
            }
            for f in &tp.scratch {
                push(*f, owned_writable);
            }
        }
        for s in &self.inst.sources {
            push(s.field(), false);
        }
        for c in &self.inst.coeffs {
            push(c.field(), false);
        }
        push(self.inst.result.field(), true);
        out
    }

    /// Retargets the plan to different arrays of identical shape without
    /// rebuilding anything: source swaps are free (sources are read
    /// through the plan's own halo buffers) and result/coefficient swaps
    /// are a single in-place rebase of the resolved addresses. The lane
    /// mirror is not touched: the next execute compares what it holds
    /// with the new arrays' bases and write generations and re-reads
    /// just the operands that differ, so a ping-pong swap re-reads the
    /// source and leaves unchanged coefficients in place.
    ///
    /// This is what makes ping-pong time stepping (`swap(cur, next)`) and
    /// volume sweeps reuse one plan.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WrongSourceCount`], [`RuntimeError::WrongCoeffCount`],
    /// or [`RuntimeError::ShapeMismatch`] when the new arrays do not match
    /// the plan's shapes.
    pub fn rebind(
        &mut self,
        result: &CmArray,
        sources: &[&CmArray],
        coeffs: &[&CmArray],
    ) -> Result<(), RuntimeError> {
        self.inst.rebind(&self.shared, result, sources, coeffs)
    }

    /// Returns the plan's persistent fields to the arena — if this was
    /// the artifact's last instance. While other instances (or the plan
    /// cache) still hold the shared artifact, the fields stay live and
    /// this is a no-op beyond dropping the instance.
    ///
    /// Scoped plans skip this — their fields fall away with the caller's
    /// [`Machine::release_to`].
    ///
    /// # Panics
    ///
    /// Panics if the plan was built with [`PlanLifetime::Scoped`] and
    /// this was the last reference to the artifact.
    pub fn release(self, machine: &mut Machine) {
        let ExecutionPlan { shared, inst } = self;
        drop(inst);
        if let Ok(cp) = Arc::try_unwrap(shared) {
            cp.release(machine);
        }
    }

    /// Detaches the instance's lane mirror, for pooling across tenants.
    /// The plan falls back to an unprimed (but still valid) state: its
    /// next execute re-shapes whatever mirror it holds and primes it.
    pub fn take_mirror(&mut self) -> LaneMirror {
        self.inst.forget_mirror();
        std::mem::take(&mut self.inst.lane_mirror)
    }

    /// Installs a (possibly recycled) lane mirror into the instance.
    /// The mirror's buffers are reused when shapes match — this is how
    /// the session mirror pool keeps steady-state allocations at zero
    /// across tenants; contents are treated as garbage and re-primed.
    pub fn install_mirror(&mut self, mirror: LaneMirror) {
        self.inst.lane_mirror = mirror;
        self.inst.forget_mirror();
    }

    /// The [`CompiledStencil::fingerprint`] this plan was built from.
    pub fn fingerprint(&self) -> u64 {
        self.shared.fingerprint
    }

    /// Global rows of the bound arrays.
    pub fn rows(&self) -> usize {
        self.inst.result.rows()
    }

    /// Global columns of the bound arrays.
    pub fn cols(&self) -> usize {
        self.inst.result.cols()
    }

    /// The execution options the plan was built under.
    pub fn options(&self) -> &ExecOptions {
        &self.shared.opts
    }

    /// Where the plan's fields live.
    pub fn lifetime(&self) -> PlanLifetime {
        self.shared.lifetime
    }

    /// Pre-resolved half-strip runs per iteration (front-end dispatches).
    pub fn dispatches(&self) -> usize {
        self.inst.strips.len()
    }

    /// Whether `execute` currently runs the lockstep broadcast engine
    /// (fast mode, lockstep engine selected, current binding lane-mapped
    /// without aliasing). A lockstep plan is always lane-resident: the
    /// mirror persists across executes, sources and the halo exchange
    /// are applied directly to lane storage, and only writable ranges
    /// are scattered back. False means the scalar fallback.
    pub fn uses_lockstep(&self) -> bool {
        self.inst.lane_view.is_some()
    }

    /// Turns the kernel tier on or off for subsequent executes. On by
    /// default. A post-build toggle only — results are bit-identical
    /// either way, so it is not an [`ExecOptions`] field and does not
    /// enter the plan-cache key; its one real use is timing the
    /// interpreted lockstep baseline (`repro_simd`).
    pub fn set_kernel_tier(&mut self, on: bool) {
        self.inst.kernel_tier = on;
    }

    /// How many of the plan's lane strips compiled against the kernel
    /// family (the rest run interpreted). Zero when the plan is not
    /// lane-mapped or the tier is off.
    pub fn kernelized_strips(&self) -> usize {
        if !self.inst.kernel_tier {
            return 0;
        }
        match &self.inst.lane_strips_override {
            Some((_, kernels)) => kernels.iter().flatten().count(),
            None => self.shared.lane_kernels.iter().flatten().count(),
        }
    }

    /// Lane-mirror buffer allocations performed so far. Steady state
    /// (repeated `execute` without rebinding a different shape) must not
    /// move this counter; benches and tests assert on the delta.
    pub fn lane_mirror_allocations(&self) -> u64 {
        self.inst.lane_mirror.allocations()
    }

    /// Packed coefficient streams (one per kernelized strip per lane
    /// group) this plan has packed so far. Monotonic: an execute that
    /// re-read no coefficient leaves it unchanged.
    pub fn coeff_stream_packs(&self) -> u64 {
        self.inst
            .lane_streams
            .iter()
            .map(CoeffStreams::packed_streams)
            .sum()
    }

    /// Machine-total words copied per steady-state `execute` under the
    /// current engine. Lockstep plans reach a fixed point: while
    /// nothing writes a bound source or coefficient, the mirror's copies
    /// stay current (the kernels write only the result range), so a
    /// steady iteration copies nothing but the writable-range scatter.
    /// The scalar path refreshes per iteration: interior source copy +
    /// halo-exchange moves. Computed from the plan's structure, so it
    /// cannot drift from what `execute` actually does.
    /// Fill words (border zeroing) are excluded: they are stores, not
    /// copies.
    pub fn steady_state_copy_words(&self) -> usize {
        self.inst.steady_copy_words(&self.shared)
    }

    /// Machine-total words a ping-pong execute moves on the lane-resident
    /// path — result and sources swapped, coefficients unchanged: the
    /// source interior refreshes, their halo exchanges, and the scatter.
    /// Equals [`Self::steady_state_copy_words`] off that path.
    pub fn rebind_cycle_copy_words(&self) -> usize {
        self.inst.rebind_cycle_copy_words(&self.shared)
    }

    /// Fused time steps a single `execute` advances: the plan's
    /// effective temporal depth (1 when temporal tiling is off or was
    /// clamped).
    pub fn temporal_depth(&self) -> usize {
        self.shared.temporal_depth()
    }

    /// Why a requested `temporal_depth > 1` was clamped to 1, if it
    /// was; `None` when the requested depth took effect.
    pub fn temporal_fallback(&self) -> Option<&'static str> {
        self.shared.temporal_fallback()
    }

    /// Words of node memory the plan's halo buffers and constant pages
    /// occupy.
    pub fn words(&self) -> usize {
        self.shared.words()
    }
}

/// `cmcc_obs` strip counters in `strip_widths` slot order (8, 4, 2, 1).
const WIDTH_COUNTERS: [cmcc_obs::Counter; 4] = [
    cmcc_obs::Counter::StripsWidth8,
    cmcc_obs::Counter::StripsWidth4,
    cmcc_obs::Counter::StripsWidth2,
    cmcc_obs::Counter::StripsWidth1,
];

/// Maps a kernel width to its `strip_widths` slot. The compiler only
/// emits the paper's widths (8, 4, 2, 1); anything else is uncounted.
fn width_slot(width: usize) -> Option<usize> {
    match width {
        8 => Some(0),
        4 => Some(1),
        2 => Some(2),
        1 => Some(3),
        _ => None,
    }
}

/// How one execute borrows the machine: outright, or through a lock
/// taken separately for each node-memory window.
enum MachineAccess<'a> {
    Owned(&'a mut Machine),
    Locked(&'a RwLock<Machine>),
}

impl MachineAccess<'_> {
    /// Runs `f` with shared access to the machine.
    fn read<R>(&self, f: impl FnOnce(&Machine) -> R) -> R {
        match self {
            MachineAccess::Owned(m) => f(m),
            MachineAccess::Locked(lock) => f(&lock.read().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Runs `f` with exclusive access to the machine.
    fn write<R>(&mut self, f: impl FnOnce(&mut Machine) -> R) -> R {
        match self {
            MachineAccess::Owned(m) => f(m),
            MachineAccess::Locked(lock) => {
                f(&mut lock.write().unwrap_or_else(PoisonError::into_inner))
            }
        }
    }
}

/// What one execute accumulated on its way to the shared epilogue
/// ([`PlanInstance::finish`]): the kernel run, modeled exchange cycles,
/// observed copy traffic, and — on the lane-resident path — what the
/// mirror re-read, which the debug cross-checks key on.
struct ExecTally {
    run: StripRun,
    comm: u64,
    interior_words: usize,
    exchange_words: usize,
    mirror_base: MirrorWords,
    sync: Option<MirrorSync>,
}

/// What one lane-resident execute re-read into its mirror.
#[derive(Debug, Clone, Copy, Default)]
struct MirrorSync {
    /// Source halos refreshed and exchanged.
    sources: usize,
    /// Everything else re-read: the priming gather, re-gathered
    /// operands, and temporal coefficient halos.
    others: usize,
}

impl MirrorSync {
    /// Nothing was re-read: only the result scatter moved words.
    fn is_steady(&self) -> bool {
        self.sources == 0 && self.others == 0
    }

    /// Exactly the `sources` source halos were re-read — a ping-pong
    /// step over unchanged coefficients.
    fn is_source_swap(&self, sources: usize) -> bool {
        self.sources == sources && self.others == 0
    }
}

/// What a lane mirror holds of one node-memory operand: the field's
/// base and the write generation ([`Machine::generation`]) it had when
/// the mirror copied it. The copy is current exactly while the bound
/// field still has this base and this generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Held {
    base: usize,
    generation: u64,
}

impl Held {
    /// The record a copy of `field` taken now would carry.
    fn of(machine: &Machine, field: Field) -> Held {
        Held {
            base: field.base(),
            generation: machine.generation(field),
        }
    }
}

/// One read-only operand's copy into a lane mirror: the field copied,
/// the rectangle that copies it, and the mirror words a re-read
/// redefines (for a halo refresh, the whole halo buffer — the exchange
/// that follows rewrites its ring).
#[derive(Debug, Clone)]
struct MirrorCopy {
    field: Field,
    rect: RectCopy,
    lanes: std::ops::Range<usize>,
}

/// One node-memory address range an execute touches, with whether it may
/// write it — the unit of the session's region-lease table.
///
/// Two executes may run concurrently exactly when no writable range of
/// either overlaps any range of the other: read-read overlap is harmless
/// (tenants of one shared artifact all read its constant pages and halo
/// buffers), while any overlap involving a write must serialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseRange {
    /// First node-memory address of the range.
    pub start: usize,
    /// One past the last address (exclusive).
    pub end: usize,
    /// Whether the execute may store into the range.
    pub writable: bool,
}

impl LeaseRange {
    /// Whether two leased ranges cannot be held concurrently: they
    /// overlap and at least one side writes.
    pub fn conflicts(&self, other: &LeaseRange) -> bool {
        self.start < other.end && other.start < self.end && (self.writable || other.writable)
    }
}

/// Snapshot of [`LaneMirror`]'s monotonic word counters, differenced
/// around one execute to attribute that execute's mirror traffic.
#[derive(Clone, Copy, Debug, PartialEq)]
struct MirrorWords {
    gathered: u64,
    row_gathered: u64,
    scattered: u64,
    lane_copied: u64,
    allocations: u64,
}

impl MirrorWords {
    fn of(mirror: &LaneMirror) -> Self {
        MirrorWords {
            gathered: mirror.gathered_words(),
            row_gathered: mirror.row_gathered_words(),
            scattered: mirror.scattered_words(),
            lane_copied: mirror.lane_copied_words(),
            allocations: mirror.allocations(),
        }
    }

    fn minus(&self, base: &MirrorWords) -> MirrorWords {
        MirrorWords {
            gathered: self.gathered - base.gathered,
            row_gathered: self.row_gathered - base.row_gathered,
            scattered: self.scattered - base.scattered,
            lane_copied: self.lane_copied - base.lane_copied,
            allocations: self.allocations - base.allocations,
        }
    }
}

/// The node-memory ranges a plan's schedule can touch, in the fixed
/// order the lane view mirrors them: halo buffers, the constant pair,
/// literal coefficient pages, named coefficient arrays (all read-only),
/// then the result array (the one range scattered back). The order and
/// lengths are rebind-invariant, which is what keeps lane-translated
/// strips valid across rebinds.
/// The temporal-plan variant of [`lane_ranges`]: named-coefficient
/// *arrays* are replaced by the plan-owned coefficient halos (refreshed
/// like source halos), and the ping-pong scratch states join as
/// writable **lane-private** ranges — their contents are produced and
/// consumed entirely on the mirror within one execute, so neither
/// gather nor scatter ever copies them.
fn lane_ranges_temporal(
    halos: &[HaloBuffer],
    consts: Field,
    literal_pages: &[(Field, f32)],
    coeff_halos: &[HaloBuffer],
    scratch: &[Field],
    result: &CmArray,
) -> Vec<(usize, usize, bool, bool)> {
    let mut ranges = Vec::new();
    for halo in halos {
        let f = halo.field();
        ranges.push((f.base(), f.len(), false, false));
    }
    ranges.push((consts.base(), consts.len(), false, false));
    for &(page, _) in literal_pages {
        ranges.push((page.base(), page.len(), false, false));
    }
    for halo in coeff_halos {
        let f = halo.field();
        ranges.push((f.base(), f.len(), false, false));
    }
    for f in scratch {
        ranges.push((f.base(), f.len(), true, true));
    }
    let f = result.field();
    ranges.push((f.base(), f.len(), true, false));
    ranges
}

/// The lane view over an instance binding of `cp`, or `None` when the
/// binding cannot run on the lockstep engine. Classic plans let the
/// view's own overlap check reject aliased bindings; temporal plans
/// view only plan-owned buffers plus the result, so a result aliased
/// onto a source or coefficient array would slip through — the explicit
/// check here rejects it instead (the fixed-point refresh assumes
/// sources and coefficients are read-only across executes), sending the
/// binding to the node-domain fused loop.
fn instance_lane_view(
    cp: &CompiledPlan,
    sources: &[CmArray],
    coeffs: &[CmArray],
    result: &CmArray,
) -> Option<LaneView> {
    match &cp.temporal {
        Some(tp) => {
            let rf = result.field();
            let overlaps =
                |f: Field| f.base() < rf.base() + rf.len() && rf.base() < f.base() + f.len();
            if sources.iter().chain(coeffs).any(|a| overlaps(a.field())) {
                return None;
            }
            LaneView::new_with_private(&lane_ranges_temporal(
                &cp.halos,
                cp.consts,
                &cp.literal_pages,
                &tp.coeff_halos,
                &tp.scratch,
                result,
            ))
        }
        None => LaneView::new(&lane_ranges(
            &cp.halos,
            cp.consts,
            &cp.literal_pages,
            coeffs,
            result,
        )),
    }
}

fn lane_ranges(
    halos: &[HaloBuffer],
    consts: Field,
    literal_pages: &[(Field, f32)],
    coeffs: &[CmArray],
    result: &CmArray,
) -> Vec<(usize, usize, bool)> {
    let mut ranges = Vec::new();
    for halo in halos {
        let f = halo.field();
        ranges.push((f.base(), f.len(), false));
    }
    ranges.push((consts.base(), consts.len(), false));
    for &(page, _) in literal_pages {
        ranges.push((page.base(), page.len(), false));
    }
    for c in coeffs {
        let f = c.field();
        ranges.push((f.base(), f.len(), false));
    }
    let f = result.field();
    ranges.push((f.base(), f.len(), true));
    ranges
}

/// The read-only operands of `view` outside the halo buffers — the
/// constant pair, the literal pages and (classic plans) the named
/// coefficient arrays — each as a single-run copy into the mirror.
/// Temporal plans read named coefficients through their coefficient
/// halos, which the interior refresh fills instead.
fn mirror_operands(cp: &CompiledPlan, view: &LaneView, coeffs: &[CmArray]) -> Vec<MirrorCopy> {
    let named = if cp.temporal.is_none() { coeffs } else { &[] };
    std::iter::once(cp.consts)
        .chain(cp.literal_pages.iter().map(|&(page, _)| page))
        .chain(named.iter().map(CmArray::field))
        .map(|field| {
            let (lane0, _) = view
                .locate(field.base())
                .expect("every read-only operand is viewed");
            MirrorCopy {
                field,
                rect: RectCopy {
                    src0: field.base(),
                    src_stride: 0,
                    dst0: lane0,
                    dst_stride: 0,
                    rows: 1,
                    cols: field.len(),
                },
                lanes: lane0..lane0 + field.len(),
            }
        })
        .collect()
}

/// The effective lane schedule of an instance: its private translation
/// `over` when the shared artifact `cp` has none to offer (it was built
/// from an aliased binding and this binding is clean), else the shared
/// one.
fn lane_schedule<'a>(
    over: &'a Option<(Vec<ResolvedStrip>, Vec<Option<StripKernels>>)>,
    cp: &'a CompiledPlan,
) -> (&'a [ResolvedStrip], &'a [Option<StripKernels>]) {
    match over {
        Some((s, k)) => (s.as_slice(), k.as_slice()),
        None => (cp.lane_strips.as_slice(), cp.lane_kernels.as_slice()),
    }
}

/// The index range of fused step `step` within a schedule of `len`
/// strips: the temporal plan's step bounds, or the whole schedule.
fn step_bounds(cp: &CompiledPlan, step: usize, len: usize) -> (usize, usize) {
    match &cp.temporal {
        Some(tp) => (tp.step_bounds[step], tp.step_bounds[step + 1]),
        None => (0, len),
    }
}

/// The bits of every read-only or lane-private viewed range of one node
/// memory — the snapshot a debug build compares around a scatter.
#[cfg(debug_assertions)]
fn read_only_bits(view: &LaneView, mem: &cmcc_cm2::memory::NodeMemory) -> Vec<u32> {
    view.ranges()
        .iter()
        .filter(|r| !r.writable || r.private)
        .flat_map(|r| mem.slice(r.node_base, r.len).iter().map(|v| v.to_bits()))
        .collect()
}

/// The binding-invariant half of the lane-resident programs for `view`:
/// every halo exchange (sources first, then temporal coefficient halos)
/// and the scratch boundary fix-ups of a temporal plan, translated onto
/// the mirror. `None` when any fails to translate — the binding then
/// runs scalar.
fn lane_programs(
    cp: &CompiledPlan,
    view: &LaneView,
) -> Option<(Vec<LaneExchangeProgram>, Vec<LaneFillProgram>)> {
    let mut exchanges: Vec<LaneExchangeProgram> = cp
        .exchanges
        .iter()
        .map(|p| LaneExchangeProgram::translate(p, view))
        .collect::<Option<_>>()?;
    let mut scratch_fills = Vec::new();
    if let Some(tp) = &cp.temporal {
        for p in &tp.coeff_exchanges {
            exchanges.push(LaneExchangeProgram::translate(p, view)?);
        }
        for p in &tp.scratch_fills {
            scratch_fills.push(LaneFillProgram::translate(p, view)?);
        }
    }
    Some((exchanges, scratch_fills))
}

/// The per-binding half: every interior refresh, parallel to the
/// exchanges of [`lane_programs`] — the sources into their halos, then
/// (temporal plans) the named coefficient arrays into theirs.
fn lane_interiors(
    cp: &CompiledPlan,
    view: &LaneView,
    sources: &[CmArray],
    coeffs: &[CmArray],
) -> Option<Vec<MirrorCopy>> {
    let mut interiors = lane_interior_copies(view, &cp.halos, sources)?;
    if let Some(tp) = &cp.temporal {
        interiors.extend(lane_interior_copies(view, &tp.coeff_halos, coeffs)?);
    }
    Some(interiors)
}

/// Translates each source's interior refresh onto the lane mirror: one
/// [`RectCopy`] per source rewrites the mirror rows holding its halo
/// buffer's interior from the (mirror-external) source array — the
/// lane-resident `fill_interior`. Returns `None` when any halo buffer is
/// not wholly inside one viewed range (then the binding runs scalar).
fn lane_interior_copies(
    view: &LaneView,
    halos: &[HaloBuffer],
    sources: &[CmArray],
) -> Option<Vec<MirrorCopy>> {
    halos
        .iter()
        .zip(sources)
        .map(|(halo, src)| {
            let hl = halo.layout();
            let sl = src.layout();
            let f = halo.field();
            let (lane0, range) = view.locate(f.base())?;
            if f.base() + f.len() > range.node_base + range.len {
                return None;
            }
            Some(MirrorCopy {
                field: src.field(),
                rect: RectCopy {
                    src0: sl.addr(0, 0),
                    src_stride: sl.row_stride,
                    dst0: lane0 + (hl.addr(0, 0) - f.base()),
                    dst_stride: hl.row_stride,
                    rows: src.sub_rows(),
                    cols: src.sub_cols(),
                },
                lanes: lane0..lane0 + f.len(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolve::convolve;
    use cmcc_cm2::config::MachineConfig;
    use cmcc_core::compiler::Compiler;
    use cmcc_core::patterns::PaperPattern;

    fn machine() -> Machine {
        Machine::new(MachineConfig::tiny_4()).unwrap()
    }

    fn compile(m: &Machine, text: &str) -> CompiledStencil {
        Compiler::new(m.config().clone())
            .compile_assignment(text)
            .unwrap()
    }

    #[test]
    fn plan_matches_fresh_convolve_bit_for_bit() {
        let mut m = machine();
        let compiled = compile(&m, &PaperPattern::Cross5.fortran());
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        x.fill_with(&mut m, |r, c| ((r * 13 + c * 7) % 11) as f32 * 0.5 - 2.0);
        let coeffs: Vec<CmArray> = (0..5)
            .map(|i| {
                let a = CmArray::new(&mut m, 8, 8).unwrap();
                a.fill(&mut m, 0.11 * (i + 1) as f32);
                a
            })
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let r_fresh = CmArray::new(&mut m, 8, 8).unwrap();
        let r_plan = CmArray::new(&mut m, 8, 8).unwrap();
        let opts = ExecOptions::default();

        let fresh = convolve(&mut m, &compiled, &r_fresh, &x, &refs, &opts).unwrap();

        let binding = StencilBinding::new(&compiled, &r_plan, &[&x], &refs).unwrap();
        let mut plan =
            ExecutionPlan::build(&mut m, &binding, &opts, PlanLifetime::Persistent).unwrap();
        for _ in 0..3 {
            let planned = plan.execute(&mut m).unwrap();
            assert_eq!(planned, fresh);
        }
        let want = r_fresh.gather(&m);
        let got = r_plan.gather(&m);
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        plan.release(&mut m);
    }

    #[test]
    fn steady_state_execute_performs_no_allocations() {
        let mut m = machine();
        let compiled = compile(&m, "R = 0.25 * CSHIFT(X, 1, -1) + 0.75 * X");
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        x.fill(&mut m, 1.0);
        let binding = StencilBinding::new(&compiled, &r, &[&x], &[]).unwrap();
        let mut plan = ExecutionPlan::build(
            &mut m,
            &binding,
            &ExecOptions::fast(),
            PlanLifetime::Persistent,
        )
        .unwrap();
        let allocs = m.alloc_count();
        let mark = m.alloc_mark();
        for _ in 0..10 {
            plan.execute(&mut m).unwrap();
        }
        assert_eq!(m.alloc_count(), allocs, "execute must not allocate");
        assert_eq!(m.alloc_mark(), mark, "execute must not move the bump mark");
        plan.release(&mut m);
    }

    #[test]
    fn steady_state_execute_reuses_the_lane_mirror() {
        let mut m = machine();
        let compiled = compile(&m, &PaperPattern::Square9.fortran());
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        x.fill_with(&mut m, |r, c| ((r * 7 + c) % 13) as f32 * 0.5);
        let coeffs: Vec<CmArray> = (0..9)
            .map(|i| {
                let a = CmArray::new(&mut m, 8, 8).unwrap();
                a.fill(&mut m, (i as f32 - 4.0) * 0.125);
                a
            })
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        let binding = StencilBinding::new(&compiled, &r, &[&x], &refs).unwrap();
        let mut plan = ExecutionPlan::build(
            &mut m,
            &binding,
            &ExecOptions::fast(),
            PlanLifetime::Persistent,
        )
        .unwrap();
        assert!(plan.uses_lockstep(), "a clean binding is lane-mapped");

        // The first execute shapes the mirror; every later one recycles it.
        let first = plan.execute(&mut m).unwrap();
        let mirror_allocs = plan.lane_mirror_allocations();
        assert!(mirror_allocs > 0, "the priming execute shapes the mirror");
        let node_allocs = m.alloc_count();
        for _ in 0..10 {
            let again = plan.execute(&mut m).unwrap();
            assert_eq!(again, first);
        }
        assert_eq!(
            plan.lane_mirror_allocations(),
            mirror_allocs,
            "steady state must not grow or reshape the lane mirror"
        );
        assert_eq!(m.alloc_count(), node_allocs, "execute must not allocate");

        // The steady state copies nothing but the writable scatter: the
        // result range, on every node.
        assert_eq!(
            plan.steady_state_copy_words(),
            r.field().len() * m.node_count()
        );
        plan.release(&mut m);
    }

    #[test]
    fn release_returns_every_persistent_word() {
        let mut m = machine();
        let compiled = compile(&m, &PaperPattern::Square9.fortran());
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        let coeffs: Vec<CmArray> = (0..9)
            .map(|_| CmArray::new(&mut m, 8, 8).unwrap())
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let before = m.persistent_used();
        let binding = StencilBinding::new(&compiled, &r, &[&x], &refs).unwrap();
        let plan = ExecutionPlan::build(
            &mut m,
            &binding,
            &ExecOptions::default(),
            PlanLifetime::Persistent,
        )
        .unwrap();
        assert!(m.persistent_used() > before);
        plan.release(&mut m);
        assert_eq!(m.persistent_used(), before);
    }

    #[test]
    fn rebind_retargets_result_source_and_coeffs() {
        let mut m = machine();
        let compiled = compile(&m, "R = C * CSHIFT(X, 2, 1) + 0.5 * X");
        let mk = |m: &mut Machine, seed: usize| {
            let a = CmArray::new(m, 8, 8).unwrap();
            a.fill_with(m, move |r, c| ((r * 5 + c * 3 + seed) % 17) as f32 * 0.25);
            a
        };
        let x1 = mk(&mut m, 1);
        let c1 = mk(&mut m, 2);
        let x2 = mk(&mut m, 3);
        let c2 = mk(&mut m, 4);
        let r1 = CmArray::new(&mut m, 8, 8).unwrap();
        let r2 = CmArray::new(&mut m, 8, 8).unwrap();
        let opts = ExecOptions::default();

        let binding = StencilBinding::new(&compiled, &r1, &[&x1], &[&c1]).unwrap();
        let mut plan =
            ExecutionPlan::build(&mut m, &binding, &opts, PlanLifetime::Persistent).unwrap();
        plan.execute(&mut m).unwrap();
        plan.rebind(&r2, &[&x2], &[&c2]).unwrap();
        let rebound = plan.execute(&mut m).unwrap();

        // A fresh convolve on the second argument set must agree exactly.
        let r_fresh = CmArray::new(&mut m, 8, 8).unwrap();
        let fresh = convolve(&mut m, &compiled, &r_fresh, &x2, &[&c2], &opts).unwrap();
        assert_eq!(rebound, fresh);
        assert_eq!(r2.gather(&m), r_fresh.gather(&m));

        // And rebinding back retargets cleanly (round trip).
        plan.rebind(&r1, &[&x1], &[&c1]).unwrap();
        plan.execute(&mut m).unwrap();
        let r_fresh1 = CmArray::new(&mut m, 8, 8).unwrap();
        convolve(&mut m, &compiled, &r_fresh1, &x1, &[&c1], &opts).unwrap();
        assert_eq!(r1.gather(&m), r_fresh1.gather(&m));
        plan.release(&mut m);
    }

    #[test]
    fn rebind_rejects_mismatched_shapes_and_counts() {
        let mut m = machine();
        let compiled = compile(&m, "R = C * X");
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        let c = CmArray::new(&mut m, 8, 8).unwrap();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        let wrong = CmArray::new(&mut m, 8, 12).unwrap();
        let binding = StencilBinding::new(&compiled, &r, &[&x], &[&c]).unwrap();
        let mut plan = ExecutionPlan::build(
            &mut m,
            &binding,
            &ExecOptions::default(),
            PlanLifetime::Persistent,
        )
        .unwrap();
        assert!(matches!(
            plan.rebind(&wrong, &[&x], &[&c]),
            Err(RuntimeError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            plan.rebind(&r, &[&x], &[]),
            Err(RuntimeError::WrongCoeffCount { .. })
        ));
        assert!(matches!(
            plan.rebind(&r, &[], &[&c]),
            Err(RuntimeError::WrongSourceCount { .. })
        ));
        plan.release(&mut m);
    }

    #[test]
    fn lockstep_plan_matches_scalar_plan_bit_for_bit() {
        let mut m = machine();
        let compiled = compile(&m, &PaperPattern::Square9.fortran());
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        x.fill_with(&mut m, |r, c| ((r * 13 + c * 7) % 11) as f32 * 0.5 - 2.0);
        let coeffs: Vec<CmArray> = (0..9)
            .map(|i| {
                let a = CmArray::new(&mut m, 8, 8).unwrap();
                a.fill_with(&mut m, move |r, c| {
                    ((r * 3 + c * 5 + i) % 7) as f32 * 0.125 - 0.25
                });
                a
            })
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let r_scalar = CmArray::new(&mut m, 8, 8).unwrap();
        let r_lock = CmArray::new(&mut m, 8, 8).unwrap();

        let scalar_opts = ExecOptions::fast().with_engine(ExecEngine::Scalar);
        let b = StencilBinding::new(&compiled, &r_scalar, &[&x], &refs).unwrap();
        let mut scalar_plan =
            ExecutionPlan::build(&mut m, &b, &scalar_opts, PlanLifetime::Persistent).unwrap();
        assert!(!scalar_plan.uses_lockstep());
        let scalar_meas = scalar_plan.execute(&mut m).unwrap();

        let lock_opts = ExecOptions::fast().with_engine(ExecEngine::Lockstep);
        let b = StencilBinding::new(&compiled, &r_lock, &[&x], &refs).unwrap();
        let mut lock_plan =
            ExecutionPlan::build(&mut m, &b, &lock_opts, PlanLifetime::Persistent).unwrap();
        assert!(lock_plan.uses_lockstep());
        let lock_meas = lock_plan.execute(&mut m).unwrap();

        assert_eq!(scalar_meas, lock_meas);
        let want = r_scalar.gather(&m);
        let got = r_lock.gather(&m);
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        scalar_plan.release(&mut m);
        lock_plan.release(&mut m);
    }

    #[test]
    fn aliased_binding_falls_back_to_scalar() {
        let mut m = machine();
        let compiled = compile(&m, "R = C * X");
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        x.fill(&mut m, 2.0);
        let c = CmArray::new(&mut m, 8, 8).unwrap();
        c.fill(&mut m, 3.0);
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        let opts = ExecOptions::fast();
        assert_eq!(opts.engine, ExecEngine::Lockstep);

        // Result aliased to the coefficient array: the lane mirror cannot
        // represent one buffer in two roles, so the plan must fall back —
        // and still compute the correct result through the scalar path.
        let b = StencilBinding::new(&compiled, &c, &[&x], &[&c]).unwrap();
        let mut plan = ExecutionPlan::build(&mut m, &b, &opts, PlanLifetime::Persistent).unwrap();
        assert!(!plan.uses_lockstep());
        plan.execute(&mut m).unwrap();
        assert_eq!(c.get(&m, 3, 3), 6.0);
        plan.release(&mut m);

        // A clean binding keeps the lockstep engine.
        let b = StencilBinding::new(&compiled, &r, &[&x], &[&c]).unwrap();
        let plan = ExecutionPlan::build(&mut m, &b, &opts, PlanLifetime::Persistent).unwrap();
        assert!(plan.uses_lockstep());
        plan.release(&mut m);
    }

    #[test]
    fn rebind_keeps_lockstep_matching_fresh_convolve() {
        let mut m = machine();
        let compiled = compile(&m, "R = C * CSHIFT(X, 2, 1) + 0.5 * X");
        let mk = |m: &mut Machine, seed: usize| {
            let a = CmArray::new(m, 8, 8).unwrap();
            a.fill_with(m, move |r, c| ((r * 5 + c * 3 + seed) % 17) as f32 * 0.25);
            a
        };
        let x1 = mk(&mut m, 1);
        let c1 = mk(&mut m, 2);
        let x2 = mk(&mut m, 3);
        let c2 = mk(&mut m, 4);
        let r1 = CmArray::new(&mut m, 8, 8).unwrap();
        let r2 = CmArray::new(&mut m, 8, 8).unwrap();
        let opts = ExecOptions::fast();

        let binding = StencilBinding::new(&compiled, &r1, &[&x1], &[&c1]).unwrap();
        let mut plan =
            ExecutionPlan::build(&mut m, &binding, &opts, PlanLifetime::Persistent).unwrap();
        assert!(plan.uses_lockstep());
        plan.execute(&mut m).unwrap();
        plan.rebind(&r2, &[&x2], &[&c2]).unwrap();
        assert!(plan.uses_lockstep(), "rebind must keep the lane view");
        plan.execute(&mut m).unwrap();

        // Rebinding onto an aliased pair turns the engine off…
        plan.rebind(&c1, &[&x1], &[&c1]).unwrap();
        assert!(!plan.uses_lockstep());
        // …and a clean rebind turns it back on.
        plan.rebind(&r1, &[&x1], &[&c1]).unwrap();
        assert!(plan.uses_lockstep());
        plan.execute(&mut m).unwrap();

        let r_fresh = CmArray::new(&mut m, 8, 8).unwrap();
        convolve(
            &mut m,
            &compiled,
            &r_fresh,
            &x2,
            &[&c2],
            &ExecOptions::fast().with_engine(ExecEngine::Scalar),
        )
        .unwrap();
        assert_eq!(r2.gather(&m), r_fresh.gather(&m));
        let r_fresh1 = CmArray::new(&mut m, 8, 8).unwrap();
        convolve(
            &mut m,
            &compiled,
            &r_fresh1,
            &x1,
            &[&c1],
            &ExecOptions::fast().with_engine(ExecEngine::Scalar),
        )
        .unwrap();
        assert_eq!(r1.gather(&m), r_fresh1.gather(&m));
        plan.release(&mut m);
    }

    /// `rebind` defers the node-domain rebase; deltas from several
    /// rebinds must compose, whether nothing ran in between (scalar
    /// engine) or only lane-resident executes that never read the
    /// node-domain schedule, until an aliased binding falls back to it.
    #[test]
    fn deferred_rebases_compose_across_rebinds() {
        let mut m = machine();
        let compiled = compile(&m, "R = C * CSHIFT(X, 2, 1) + 0.5 * X");
        let mk = |m: &mut Machine, seed: usize| {
            let a = CmArray::new(m, 8, 8).unwrap();
            a.fill_with(m, move |r, c| ((r * 5 + c * 3 + seed) % 17) as f32 * 0.25);
            a
        };
        let xs: Vec<CmArray> = (0..3).map(|i| mk(&mut m, i)).collect();
        let cs: Vec<CmArray> = (3..6).map(|i| mk(&mut m, i)).collect();
        let rs: Vec<CmArray> = (0..3)
            .map(|_| CmArray::new(&mut m, 8, 8).unwrap())
            .collect();
        let scalar = ExecOptions::fast().with_engine(ExecEngine::Scalar);
        let expect = |m: &mut Machine, x: &CmArray, c: &CmArray| {
            let r = CmArray::new(m, 8, 8).unwrap();
            convolve(m, &compiled, &r, x, &[c], &scalar).unwrap();
            r.gather(m)
        };

        // Scalar engine: two rebinds with no execute between them.
        let b = StencilBinding::new(&compiled, &rs[0], &[&xs[0]], &[&cs[0]]).unwrap();
        let mut plan = ExecutionPlan::build(&mut m, &b, &scalar, PlanLifetime::Persistent).unwrap();
        plan.rebind(&rs[1], &[&xs[1]], &[&cs[1]]).unwrap();
        plan.rebind(&rs[2], &[&xs[2]], &[&cs[2]]).unwrap();
        plan.execute(&mut m).unwrap();
        assert_eq!(rs[2].gather(&m), expect(&mut m, &xs[2], &cs[2]));
        plan.release(&mut m);

        // Lane-resident executes between rebinds, then an aliased
        // binding (result over the coefficient) that runs the scalar
        // fallback on the node-domain schedule.
        let b = StencilBinding::new(&compiled, &rs[0], &[&xs[0]], &[&cs[0]]).unwrap();
        let fast = ExecOptions::fast();
        let mut plan = ExecutionPlan::build(&mut m, &b, &fast, PlanLifetime::Persistent).unwrap();
        for i in [0, 1, 2, 1] {
            plan.rebind(&rs[i], &[&xs[i]], &[&cs[i]]).unwrap();
            assert!(plan.uses_lockstep());
            plan.execute(&mut m).unwrap();
        }
        let want = expect(&mut m, &xs[2], &cs[1]);
        plan.rebind(&cs[1], &[&xs[2]], &[&cs[1]]).unwrap();
        assert!(!plan.uses_lockstep());
        plan.execute(&mut m).unwrap();
        assert_eq!(cs[1].gather(&m), want);
        plan.release(&mut m);
    }

    /// `execute_locked` is `execute` with the machine behind a lock: on
    /// two identically built machines, a ping-pong sequence of rebinds
    /// gives the same result bits, write stamps, `Measurement`s and
    /// mirror copy counters, for lane plans at temporal depth 1 and 4
    /// and for a scalar plan.
    #[test]
    fn execute_locked_matches_execute_bit_for_bit() {
        let text = "R = C * CSHIFT(X, 2, 1) + 0.25 * CSHIFT(X, 1, -1) + 0.5 * X";
        for (opts, depth) in [
            (ExecOptions::fast(), 1),
            (ExecOptions::fast().with_temporal_depth(4), 4),
            (ExecOptions::fast().with_engine(ExecEngine::Scalar), 1),
        ] {
            let setup = || {
                let mut m = machine();
                let compiled = compile(&m, text);
                let arrays: Vec<CmArray> = (0..3)
                    .map(|seed| {
                        let a = CmArray::new(&mut m, 16, 16).unwrap();
                        a.fill_with(&mut m, |r, c| ((r * 5 + c * 3 + seed) % 17) as f32 * 0.25);
                        a
                    })
                    .collect();
                let (x, r, c) = (&arrays[0], &arrays[1], &arrays[2]);
                let binding = StencilBinding::new(&compiled, r, &[x], &[c]).unwrap();
                let plan = ExecutionPlan::build(&mut m, &binding, &opts, PlanLifetime::Persistent)
                    .unwrap();
                assert_eq!(plan.uses_lockstep(), opts.engine == ExecEngine::Lockstep);
                assert_eq!(plan.temporal_depth(), depth);
                (m, plan, arrays)
            };
            let (mut owned, mut plan, arrays) = setup();
            let (locked, mut locked_plan, _) = setup();
            let locked = RwLock::new(locked);
            let bits = |a: &CmArray, m: &Machine| -> Vec<u32> {
                a.gather(m).iter().map(|v| v.to_bits()).collect()
            };
            for step in 0..4 {
                let (src, dst, c) = (&arrays[step % 2], &arrays[1 - step % 2], &arrays[2]);
                plan.rebind(dst, &[src], &[c]).unwrap();
                locked_plan.rebind(dst, &[src], &[c]).unwrap();
                let want = plan.execute(&mut owned).unwrap();
                assert_eq!(locked_plan.execute_locked(&locked).unwrap(), want);
                let lm = locked.read().unwrap();
                assert_eq!(bits(dst, &lm), bits(dst, &owned), "{opts:?} step {step}");
                assert_eq!(lm.generation(dst.field()), owned.generation(dst.field()));
                assert_eq!(
                    MirrorWords::of(&locked_plan.inst.lane_mirror),
                    MirrorWords::of(&plan.inst.lane_mirror)
                );
            }
            plan.release(&mut owned);
            locked_plan.release(&mut locked.write().unwrap());
        }
    }

    #[test]
    fn binding_validation_matches_convolve() {
        let mut m = machine();
        let compiled = compile(&m, "R = C1 * X + C2 * CSHIFT(X, 1, 1)");
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        assert!(matches!(
            StencilBinding::new(&compiled, &r, &[&x], &[]),
            Err(RuntimeError::WrongCoeffCount {
                expected: 2,
                got: 0
            })
        ));
        assert!(matches!(
            StencilBinding::new(&compiled, &r, &[], &[]),
            Err(RuntimeError::WrongSourceCount { .. })
        ));
    }
}
