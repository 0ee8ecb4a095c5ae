//! Seeded inputs: stencil statements for `cold_cycle`, and fields and
//! coefficients that keep every value in the normal `f32` range.
//!
//! Coefficients are convex: non-negative and summing to 1 at every
//! point (up to rounding). Sources are drawn from `[0.25, 1)`. A convex
//! combination of such values stays in that interval however many steps
//! run, so no field can drift into subnormal numbers, whose slow
//! arithmetic would otherwise dominate the timings.

use cmcc::core::recognize::{CoeffSpec, StencilSpec};
use cmcc::core::stencil::CoeffRef;
use cmcc::PaperPattern;
use cmcc_testkit::Rng;
use std::fmt::Write as _;

/// Lowest source value; every field value stays at or above it.
pub const FIELD_LO: f32 = 0.25;
/// Upper bound of source values; every field value stays below it.
pub const FIELD_HI: f32 = 1.0;

/// A row-major source field with values in `[FIELD_LO, FIELD_HI)`.
pub fn field(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.f32_in(FIELD_LO, FIELD_HI)).collect()
}

/// `count` coefficient arrays of `len` points whose values are positive
/// and sum to `total` at every point.
fn convex_arrays(rng: &mut Rng, count: usize, len: usize, total: f32) -> Vec<Vec<f32>> {
    let mut out = vec![Vec::with_capacity(len); count];
    let mut raw = vec![0.0f32; count];
    for _ in 0..len {
        for r in raw.iter_mut() {
            *r = rng.f32_in(0.5, 1.5);
        }
        let sum: f32 = raw.iter().sum();
        for (arr, r) in out.iter_mut().zip(&raw) {
            arr.push(r / sum * total);
        }
    }
    out
}

/// How often each entry of `spec.coeffs` is a tap's coefficient, and the
/// sum of the literal coefficients over all taps.
fn tap_uses(spec: &StencilSpec) -> (Vec<usize>, f64) {
    let mut uses = vec![0usize; spec.coeffs.len()];
    let mut literal = 0.0;
    for tap in spec.stencil.taps() {
        if let CoeffRef::Array(i) = tap.coeff {
            uses[i] += 1;
            if let CoeffSpec::Literal(v) = spec.coeffs[i] {
                literal += f64::from(v);
            }
        }
    }
    (uses, literal)
}

/// The coefficient arrays a statement needs, one per named coefficient
/// in the statement's order: positive, and together with the literals
/// summing to 1 over the taps at every point.
pub fn coefficients_for(rng: &mut Rng, spec: &StencilSpec, len: usize) -> Vec<Vec<f32>> {
    let (uses, literal) = tap_uses(spec);
    let named: Vec<usize> = spec
        .coeffs
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c, CoeffSpec::Named(_)))
        .map(|(i, _)| uses[i].max(1))
        .collect();
    let mut arrays = convex_arrays(rng, named.len(), len, (1.0 - literal) as f32);
    for (array, u) in arrays.iter_mut().zip(named) {
        for v in array.iter_mut() {
            *v /= u as f32;
        }
    }
    arrays
}

/// The largest distance from 1 of the per-point sum of tap
/// coefficients, and whether any coefficient is negative. `arrays` holds
/// the named coefficients in the statement's order.
pub fn convexity_error(spec: &StencilSpec, arrays: &[Vec<f32>], len: usize) -> (f64, bool) {
    let (uses, literal) = tap_uses(spec);
    let negative = spec
        .coeffs
        .iter()
        .any(|c| matches!(c, CoeffSpec::Literal(v) if *v < 0.0))
        || arrays.iter().flatten().any(|&v| v < 0.0);
    let named_uses: Vec<f64> = spec
        .coeffs
        .iter()
        .zip(&uses)
        .filter(|(c, _)| matches!(c, CoeffSpec::Named(_)))
        .map(|(_, &u)| u as f64)
        .collect();
    let worst = (0..len)
        .map(|i| {
            let named: f64 = arrays
                .iter()
                .zip(&named_uses)
                .map(|(a, u)| f64::from(a[i]) * u)
                .sum();
            (literal + named - 1.0).abs()
        })
        .fold(0.0, f64::max);
    (worst, negative)
}

/// Whether a convexity error is within rounding.
pub fn convex_enough(worst: f64) -> bool {
    worst <= 1e-5
}

/// Number of subnormal values in a field.
pub fn subnormals(data: &[f32]) -> u64 {
    data.iter().filter(|v| v.is_subnormal()).count() as u64
}

/// A literal five-point heat step. Circular shifts conserve the field's
/// mass, and the weights sum to 1.
pub const HEAT: &str = "R = 0.2 * CSHIFT(X, 1, -1) + 0.2 * CSHIFT(X, 2, -1) + 0.2 * X \
                        + 0.2 * CSHIFT(X, 2, +1) + 0.2 * CSHIFT(X, 1, +1)";

/// The `cold_cycle` statement set for a seed: the paper's five patterns
/// followed by `count - 5` distinct random statements within radius 2,
/// mixing literal and named coefficients. Equal seeds give equal sets.
///
/// The random statements are stratified so that every seed draws the
/// same mix of sizes and shapes: they alternate between shapes without
/// and with diagonal taps, and cycle through every tap count the shape
/// allows (2 to 9 on the axes, 2 to 13 with diagonals), and through
/// every count of named coefficients from none to all. Only the tap
/// positions, their order, which of them are named and the coefficients
/// are random, so neither the timing nor the memory of a set hinges on
/// how many large statements or coefficient arrays a seed happened to
/// draw.
pub fn statements(seed: u64, count: usize) -> Vec<String> {
    let mut out: Vec<String> = PaperPattern::ALL.iter().map(|p| p.fortran()).collect();
    let mut rng = Rng::new(seed ^ 0xC0FF_EE00_5EED_0001);
    let first = out.len();
    while out.len() < count {
        let k = out.len() - first;
        let diagonal = k % 2 == 1;
        let max_taps = if diagonal { 13 } else { 9 };
        let taps = 2 + (k / 2) % (max_taps - 1);
        let named = (7 * k + 3) % (taps + 1);
        let s = random_statement(&mut rng, diagonal, taps, named);
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out.truncate(count);
    out
}

/// One random statement of `taps` taps, `named` of them with named
/// coefficients and the rest literal, with at least one diagonal tap if
/// `diagonal`, else with none.
fn random_statement(rng: &mut Rng, diagonal: bool, taps: usize, named: usize) -> String {
    let mut offsets: Vec<(i32, i32)> = Vec::new();
    for dr in -2..=2 {
        for dc in -2..=2 {
            if diagonal || dr == 0 || dc == 0 {
                offsets.push((dr, dc));
            }
        }
    }
    // Partial Fisher-Yates: the first `taps` entries are the tap set.
    for i in 0..taps {
        let j = rng.usize_in(i, offsets.len());
        offsets.swap(i, j);
    }
    offsets.truncate(taps);
    if diagonal && !offsets.iter().any(|&(dr, dc)| dr != 0 && dc != 0) {
        offsets[0] = (rng.i32_in(1, 2), -rng.i32_in(1, 2));
    }
    // Raw weights in [0.5, 1.5) normalized to 1; literal terms print
    // their share, named terms get theirs from convex arrays later.
    let raw: Vec<f64> = (0..taps).map(|_| 0.5 + rng.f64_unit()).collect();
    let total: f64 = raw.iter().sum();
    let mut is_named: Vec<bool> = (0..taps).map(|i| i < named).collect();
    for i in (1..taps).rev() {
        is_named.swap(i, rng.usize_in(0, i + 1));
    }
    let mut text = String::from("R =");
    let mut names = 0;
    for (i, &(dr, dc)) in offsets.iter().enumerate() {
        let coeff = if is_named[i] {
            names += 1;
            format!("C{names}")
        } else {
            format!("{:.6}", raw[i] / total)
        };
        let shifted = match (dr, dc) {
            (0, 0) => "X".to_owned(),
            (dr, 0) => format!("CSHIFT(X, 1, {dr:+})"),
            (0, dc) => format!("CSHIFT(X, 2, {dc:+})"),
            (dr, dc) => format!("CSHIFT(CSHIFT(X, 1, {dr:+}), 2, {dc:+})"),
        };
        let sep = if i == 0 { " " } else { " + " };
        let _ = write!(text, "{sep}{coeff} * {shifted}");
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmcc::{Compiler, MachineConfig};

    #[test]
    fn same_seed_same_statements() {
        assert_eq!(statements(7, 40), statements(7, 40));
        assert_ne!(statements(7, 40), statements(8, 40));
    }

    #[test]
    fn statements_are_distinct_and_cover_the_mix() {
        let set = statements(3, 96);
        assert_eq!(set.len(), 96);
        for (i, s) in set.iter().enumerate() {
            assert!(!set[..i].contains(s), "duplicate statement {s}");
        }
        for p in PaperPattern::ALL {
            assert!(set.contains(&p.fortran()), "missing paper pattern {p}");
        }
        let literal = set.iter().filter(|s| s.contains("0.")).count();
        let named = set.iter().filter(|s| s.contains("C1")).count();
        assert!(
            literal > 10 && named > 10,
            "{literal} literal, {named} named"
        );
    }

    #[test]
    fn every_statement_compiles_within_the_shape_limits() {
        let compiler = Compiler::new(MachineConfig::test_board_16());
        for seed in [1, 2, 3, 11, 12] {
            let mut diagonal = 0;
            let mut axis = 0;
            for s in statements(seed, 96) {
                let c = compiler
                    .compile_assignment(&s)
                    .unwrap_or_else(|e| panic!("`{s}` does not compile: {e}"));
                let taps = c.stencil().taps();
                assert!((2..=13).contains(&taps.len()), "{s}");
                assert!(taps
                    .iter()
                    .all(|t| t.offset.drow.abs() <= 2 && t.offset.dcol.abs() <= 2));
                if taps
                    .iter()
                    .any(|t| t.offset.drow != 0 && t.offset.dcol != 0)
                {
                    diagonal += 1;
                } else {
                    axis += 1;
                }
                let mut rng = Rng::new(seed);
                let arrays = coefficients_for(&mut rng, c.spec(), 64);
                let (worst, negative) = convexity_error(c.spec(), &arrays, 64);
                assert!(convex_enough(worst) && !negative, "{s}: {worst}");
            }
            assert!(
                diagonal > 10 && axis > 10,
                "{diagonal} diagonal, {axis} axis"
            );
        }
    }

    #[test]
    fn every_seed_names_as_many_coefficients() {
        // Named coefficients print as `C1`, `C2`, ...
        let arrays = |seed| {
            statements(seed, 96)
                .iter()
                .map(|s| s.matches('C').count() - s.matches("CSHIFT").count())
                .sum::<usize>()
        };
        assert_eq!(arrays(1), arrays(2));
        assert_eq!(arrays(1), arrays(17));
    }

    #[test]
    fn repeated_literals_count_once_per_tap() {
        let compiler = Compiler::new(MachineConfig::test_board_16());
        let heat = compiler.compile_assignment(HEAT).unwrap();
        let arrays = coefficients_for(&mut Rng::new(1), heat.spec(), 16);
        assert!(arrays.is_empty());
        let (worst, _) = convexity_error(heat.spec(), &arrays, 16);
        assert!(convex_enough(worst), "{worst}");
    }

    #[test]
    fn fields_stay_normal() {
        let mut rng = Rng::new(5);
        let f = field(&mut rng, 1000);
        assert!(f.iter().all(|&v| (FIELD_LO..FIELD_HI).contains(&v)));
        assert_eq!(subnormals(&f), 0);
        assert_eq!(subnormals(&[f32::MIN_POSITIVE / 2.0, 1.0]), 1);
    }
}
