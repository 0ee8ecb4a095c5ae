//! The golden model the workloads check against:
//! `cmcc::runtime::reference::reference_convolve`, which accumulates in
//! the statement's term order, so compiled results must match it bit for
//! bit.

use crate::gen::{FIELD_HI, FIELD_LO};
use cmcc::core::recognize::CoeffSpec;
use cmcc::runtime::reference::{reference_convolve, CoeffValue};
use cmcc::CompiledStencil;

/// `depth` reference steps of `compiled` from `x`, with the named
/// coefficients' host copies `host` (in the statement's order).
pub fn reference(
    compiled: &CompiledStencil,
    rows: usize,
    cols: usize,
    x: &[f32],
    host: &[Vec<f32>],
    depth: usize,
) -> Vec<f32> {
    let mut named = host.iter();
    let values: Vec<CoeffValue<'_>> = compiled
        .spec()
        .coeffs
        .iter()
        .map(|c| match c {
            CoeffSpec::Named(_) => {
                CoeffValue::Array(named.next().expect("one host array per named coefficient"))
            }
            CoeffSpec::Literal(v) => CoeffValue::Literal(*v),
        })
        .collect();
    let mut out = reference_convolve(compiled.stencil(), rows, cols, x, &values);
    for _ in 1..depth {
        out = reference_convolve(compiled.stencil(), rows, cols, &out, &values);
    }
    out
}

/// Whether two fields are equal bit for bit.
pub fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether a value lies in the range convex steps keep fields in. The
/// slack covers coefficient sums that are 1 only up to rounding,
/// compounded over thousands of steps.
pub fn in_range(v: f32) -> bool {
    (FIELD_LO * 0.99..=FIELD_HI * 1.01).contains(&v)
}

/// The first index where `a` and `b` differ in bits, for failure notes.
pub fn first_difference(a: &[f32], b: &[f32]) -> Option<usize> {
    a.iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
}
