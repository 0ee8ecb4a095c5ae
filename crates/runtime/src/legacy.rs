//! The pre-plan, rebuild-per-iteration stencil executor, preserved
//! verbatim as a differential reference.
//!
//! Before the compile → bind → plan → execute split ([`crate::plan`]),
//! every [`crate::convolve()`] call re-did all one-time work: it cloned
//! the machine config, allocated fresh halo buffers and constant/literal
//! pages, refilled them on every node, rebuilt the coefficient address
//! tables, re-planned strips, re-materialized the schedule, and resolved
//! every memory address per step inside
//! [`cmcc_cm2::machine::Machine::run_schedule_all`].
//!
//! That behavior is kept here, unoptimized on purpose, for two jobs:
//!
//! * **differential testing** — the plan pipeline must stay bit-identical
//!   (results *and* [`Measurement`]s) to this path, which the convolve
//!   and plan test suites assert;
//! * **benchmarking** — `repro_plan_cache` uses it as the honest
//!   rebuild-per-iteration baseline when measuring what plan reuse buys.
//!
//! New code should call [`crate::convolve()`] or build an
//! [`crate::plan::ExecutionPlan`]; nothing besides tests and benches
//! should depend on this module.

use crate::array::CmArray;
use crate::error::RuntimeError;
use crate::halo::HaloBuffer;
use crate::strips::{full_strip, halfstrips, plan_strips};
use cmcc_cm2::exec::{FieldLayout, ScheduleStep, StripContext};
use cmcc_cm2::machine::Machine;
use cmcc_cm2::timing::{CycleBreakdown, Measurement};
use cmcc_core::compiler::CompiledStencil;
use cmcc_core::recognize::CoeffSpec;
use cmcc_core::regalloc::Walk;

use crate::convolve::ExecOptions;

/// Executes a (possibly multi-source) stencil the way the run-time
/// library did before execution plans existed: all setup redone on every
/// call, every address resolved per step.
///
/// Produces results and [`Measurement`]s bit-identical to
/// [`crate::convolve_multi`] — the refactor's central invariant.
///
/// # Errors
///
/// As [`crate::convolve_multi`]: shape mismatches, halo-too-deep
/// subgrids, wrong source/coefficient counts, node-memory exhaustion, or
/// (indicating a compiler bug) a pipeline hazard.
pub fn convolve_per_call(
    machine: &mut Machine,
    compiled: &CompiledStencil,
    result: &CmArray,
    sources: &[&CmArray],
    coeffs: &[&CmArray],
    opts: &ExecOptions,
) -> Result<Measurement, RuntimeError> {
    let spec = compiled.spec();
    let stencil = compiled.stencil();

    // Argument checking (the front end's job on the real machine).
    let expected_sources = stencil.source_count().max(1);
    if sources.len() != expected_sources {
        return Err(RuntimeError::WrongSourceCount {
            expected: expected_sources,
            got: sources.len(),
        });
    }
    let source = sources[0];
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
        if !arr.same_shape(source) {
            return Err(RuntimeError::ShapeMismatch {
                what: format!(
                    "coefficient `{name}` is {}x{}, expected {}x{}",
                    arr.rows(),
                    arr.cols(),
                    source.rows(),
                    source.cols()
                ),
            });
        }
    }

    // Per-call work the plan pipeline hoists out of the iteration loop —
    // preserved here deliberately; this module *is* the baseline.
    let cfg = machine.config().clone();
    let sub_rows = source.sub_rows();
    let sub_cols = source.sub_cols();
    let pad = stencil.borders().max_width() as usize;

    // Temporary allocations live only for this call (§5: the run-time
    // library "takes care of allocating temporary memory space").
    let mark = machine.alloc_mark();
    let outcome = (|| {
        let halos: Vec<HaloBuffer> = sources
            .iter()
            .map(|_| HaloBuffer::new(machine, sub_rows, sub_cols, pad))
            .collect::<Result<_, _>>()?;
        // Constant pages: one word each of 1.0 and 0.0, plus one
        // `sub_cols`-wide page per literal coefficient (streamed with a
        // zero row stride).
        let consts = machine.alloc_field(2)?;
        let mut literal_pages = Vec::new();
        for c in &spec.coeffs {
            match c {
                CoeffSpec::Literal(v) => {
                    let page = machine.alloc_field(sub_cols)?;
                    literal_pages.push(Some((page, *v)));
                }
                CoeffSpec::Named(_) => literal_pages.push(None),
            }
        }
        for node in machine.grid().iter().collect::<Vec<_>>() {
            let mem = machine.mem_mut(node);
            mem.write(consts.addr(0), 1.0);
            mem.write(consts.addr(1), 0.0);
            for page in literal_pages.iter().flatten() {
                mem.fill_field(page.0, page.1);
            }
        }

        let need_corners = if opts.skip_corners_when_possible {
            stencil.needs_corner_exchange()
        } else {
            pad > 0
        };
        let mut comm = 0;
        for (halo, src) in halos.iter().zip(sources) {
            halo.fill_interior(machine, src);
            comm += halo.exchange_with_fill(
                machine,
                stencil.boundary(),
                stencil.fill(),
                need_corners,
                opts.primitive,
            );
        }

        // Coefficient address tables, indexed like `MemRef::Coeff.array`.
        let mut named_iter = coeffs.iter();
        let coeff_layouts: Vec<FieldLayout> = spec
            .coeffs
            .iter()
            .zip(&literal_pages)
            .map(|(c, page)| match c {
                CoeffSpec::Named(_) => named_iter
                    .next()
                    .expect("coefficient count was validated")
                    .layout(),
                CoeffSpec::Literal(_) => {
                    let (page, _) = page.expect("literal page was allocated");
                    FieldLayout {
                        base: page.base(),
                        row_stride: 0,
                        row_offset: 0,
                        col_offset: 0,
                    }
                }
            })
            .collect();

        // Strip mining: build the whole schedule, then run it per node
        // with per-step address resolution.
        let mut compute: u64 = 0;
        let mut frontend: u64 = u64::from(cfg.call_overhead_cycles);
        let halves = if opts.half_strips {
            halfstrips(sub_rows)
        } else {
            full_strip(sub_rows)
        };
        let src_layouts: Vec<FieldLayout> = halos.iter().map(HaloBuffer::layout).collect();
        let mut schedule = Vec::new();
        for strip in plan_strips(compiled, sub_cols) {
            let sk = compiled
                .widest_kernel_for(strip.width)
                .expect("plan_strips used compiled widths");
            debug_assert_eq!(sk.width, strip.width);
            for half in &halves {
                let kernel = match half.walk {
                    Walk::North => &sk.north,
                    Walk::South => &sk.south,
                };
                schedule.push(ScheduleStep {
                    kernel,
                    ctx: StripContext {
                        srcs: &src_layouts,
                        res: result.layout(),
                        coeffs: &coeff_layouts,
                        ones_addr: consts.addr(0),
                        zeros_addr: consts.addr(1),
                        start_row: half.start_row as i64,
                        lines: half.lines,
                        col0: strip.col0 as i64,
                    },
                });
            }
        }
        machine.note_write(result.field());
        for run in machine.run_schedule_all(&schedule, opts.mode, opts.threads)? {
            compute += run.cycles;
            frontend += u64::from(cfg.frontend_dispatch_cycles);
        }

        Ok(Measurement {
            useful_flops: stencil.useful_flops_per_point() * (source.rows() * source.cols()) as u64,
            cycles: CycleBreakdown {
                comm,
                compute,
                frontend,
            },
            nodes: machine.node_count(),
        })
    })();
    machine.release_to(mark);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolve::convolve_multi;
    use cmcc_cm2::config::MachineConfig;
    use cmcc_cm2::exec::ExecMode;
    use cmcc_core::compiler::Compiler;
    use cmcc_core::patterns::PaperPattern;

    /// The refactor's central invariant, asserted against the preserved
    /// pre-plan path itself: the plan pipeline matches the old per-call
    /// path bit for bit, results and measurements.
    #[test]
    fn plan_pipeline_matches_the_old_per_call_path() {
        for pattern in PaperPattern::ALL {
            for mode in [ExecMode::Cycle, ExecMode::Fast] {
                let mut m = Machine::new(MachineConfig::tiny_4()).unwrap();
                let compiled = Compiler::new(m.config().clone())
                    .compile_assignment(&pattern.fortran())
                    .unwrap();
                let spec = compiled.spec();
                let (rows, cols) = (8usize, 12usize);

                let x = CmArray::new(&mut m, rows, cols).unwrap();
                x.fill_with(&mut m, |r, c| ((r * 31 + c * 17) % 23) as f32 * 0.375 - 3.0);
                let mut coeff_arrays = Vec::new();
                for (i, c) in spec.coeffs.iter().enumerate() {
                    if matches!(c, CoeffSpec::Named(_)) {
                        let arr = CmArray::new(&mut m, rows, cols).unwrap();
                        arr.fill_with(&mut m, move |r, c| {
                            ((r * 7 + c * 3 + i * 11) % 13) as f32 * 0.25 - 1.0
                        });
                        coeff_arrays.push(arr);
                    }
                }
                let r_old = CmArray::new(&mut m, rows, cols).unwrap();
                let r_new = CmArray::new(&mut m, rows, cols).unwrap();
                let refs: Vec<&CmArray> = coeff_arrays.iter().collect();
                let opts = ExecOptions {
                    mode,
                    ..ExecOptions::serial()
                };

                let m_old =
                    convolve_per_call(&mut m, &compiled, &r_old, &[&x], &refs, &opts).unwrap();
                let m_new = convolve_multi(&mut m, &compiled, &r_new, &[&x], &refs, &opts).unwrap();

                assert_eq!(
                    m_old,
                    m_new,
                    "{} ({mode:?}): measurements differ",
                    pattern.name()
                );
                let old = r_old.gather(&m);
                let new = r_new.gather(&m);
                for i in 0..old.len() {
                    assert_eq!(
                        old[i].to_bits(),
                        new[i].to_bits(),
                        "{} ({mode:?}): element {i} diverged",
                        pattern.name()
                    );
                }
            }
        }
    }
}
