//! Shared harness code for the table/figure regenerators and wall-clock
//! benches.
//!
//! Each helper builds the measurement setup the paper's §7 describes:
//! the 16-node test board, per-node subgrids of the given size, random
//! source data, one coefficient array per tap, and a cycle-accurate run
//! of one iteration (the CM-2 is fully synchronous, so every iteration
//! costs the same and sustained rates follow from a single measured
//! iteration — the paper's own extrapolation argument).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use cmcc_cm2::config::MachineConfig;
use cmcc_cm2::machine::Machine;
use cmcc_cm2::timing::Measurement;
use cmcc_core::compiler::{CompiledStencil, Compiler};
use cmcc_core::patterns::PaperPattern;
use cmcc_core::recognize::CoeffSpec;
use cmcc_runtime::array::CmArray;
use cmcc_runtime::convolve::{convolve, ExecOptions};
use cmcc_testkit::Rng;

pub mod microbench;

/// The per-node subgrid sizes of the paper's results table.
pub const TABLE_SUBGRIDS: [(usize, usize); 5] =
    [(64, 64), (64, 128), (128, 128), (128, 256), (256, 256)];

/// Paper-reported (measured Mflops on 16 nodes, extrapolated Gflops to
/// 2,048 nodes) for a pattern block at a subgrid size, where the table
/// prints one. The block↔pattern mapping follows EXPERIMENTS.md's stated
/// assumption (the OCR of the table makes it ambiguous).
pub fn paper_reference(pattern: PaperPattern, subgrid: (usize, usize)) -> Option<(f64, f64)> {
    let rows = match pattern {
        // Block 1 (three sizes only).
        PaperPattern::Cross5 => vec![
            ((64, 128), (44.6, 5.31)),
            ((128, 256), (69.5, 8.90)),
            ((256, 256), (72.8, 9.29)),
        ],
        // Block 2.
        PaperPattern::Square9 => vec![
            ((64, 64), (68.8, 8.80)),
            ((64, 128), (91.7, 11.74)),
            ((128, 128), (89.8, 11.50)),
            ((128, 256), (86.7, 11.10)),
            ((256, 256), (88.6, 11.34)),
        ],
        // Block 3.
        PaperPattern::Star9 => vec![
            ((64, 64), (56.8, 7.27)),
            ((64, 128), (68.0, 8.70)),
            ((128, 128), (72.9, 9.34)),
            ((128, 256), (85.3, 10.92)),
            ((256, 256), (85.6, 10.95)),
        ],
        // Block 4.
        PaperPattern::Diamond13 => vec![
            ((64, 64), (71.6, 9.16)),
            ((64, 128), (82.0, 10.50)),
            ((128, 128), (87.7, 11.23)),
            ((128, 256), (85.6, 10.95)),
            ((256, 256), (85.9, 11.00)),
        ],
        PaperPattern::Asymmetric5 => vec![],
    };
    rows.into_iter()
        .find(|(s, _)| *s == subgrid)
        .map(|(_, v)| v)
}

/// The host's available parallelism (1 when it cannot be queried).
/// Every `BENCH_*.json` records this next to its `scaling_gate`
/// disposition so a reader can judge wall-clock numbers without
/// guessing what machine produced them.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Order statistics of repeated timings: the minimum, the median and
/// the interquartile range (quartiles by linear interpolation). Benches
/// that gate on a ratio take it from repeated rounds through this
/// rather than from one sample, and record all three next to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Smallest sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// Third quartile minus first quartile.
    pub iqr: f64,
}

impl Spread {
    /// The spread of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or holds a NaN.
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "a spread needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        let quantile = |q: f64| {
            let pos = q * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Spread {
            min: sorted[0],
            median: quantile(0.5),
            iqr: quantile(0.75) - quantile(0.25),
        }
    }

    /// The spread as a JSON object, `{"min":…,"median":…,"iqr":…}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"min\": {:.6}, \"median\": {:.6}, \"iqr\": {:.6}}}",
            self.min, self.median, self.iqr
        )
    }
}

/// A ready-to-run measurement setup.
pub struct Workload {
    /// The machine under test.
    pub machine: Machine,
    /// The compiled stencil.
    pub compiled: CompiledStencil,
    /// Source array.
    pub x: CmArray,
    /// Result array.
    pub r: CmArray,
    /// Coefficient arrays (one per named coefficient).
    pub coeffs: Vec<CmArray>,
}

impl Workload {
    /// Builds the paper's measurement setup for `pattern` with the given
    /// per-node `subgrid` on a machine described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on allocation failure (the bench configs are sized to fit).
    pub fn new(cfg: MachineConfig, pattern: PaperPattern, subgrid: (usize, usize)) -> Self {
        Self::from_source(cfg, &pattern.fortran(), subgrid)
    }

    /// Builds a workload from Fortran source.
    ///
    /// # Panics
    ///
    /// Panics on compile or allocation failure.
    pub fn from_source(cfg: MachineConfig, source: &str, subgrid: (usize, usize)) -> Self {
        let compiler = Compiler::new(cfg.clone());
        let compiled = compiler
            .compile_assignment(source)
            .expect("bench statements compile");
        let mut machine = Machine::new(cfg).expect("bench config is valid");
        let rows = subgrid.0 * machine.grid().rows();
        let cols = subgrid.1 * machine.grid().cols();
        let mut rng = Rng::new(0x1991_0626);
        let x = CmArray::new(&mut machine, rows, cols).expect("source fits");
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.f32_in(-1.0, 1.0)).collect();
        x.scatter(&mut machine, &data);
        let named = compiled
            .spec()
            .coeffs
            .iter()
            .filter(|c| matches!(c, CoeffSpec::Named(_)))
            .count();
        let coeffs: Vec<CmArray> = (0..named)
            .map(|_| {
                let a = CmArray::new(&mut machine, rows, cols).expect("coefficient fits");
                let data: Vec<f32> = (0..rows * cols).map(|_| rng.f32_in(-0.5, 0.5)).collect();
                a.scatter(&mut machine, &data);
                a
            })
            .collect();
        let r = CmArray::new(&mut machine, rows, cols).expect("result fits");
        Workload {
            machine,
            compiled,
            x,
            r,
            coeffs,
        }
    }

    /// Runs one iteration with the given options.
    ///
    /// # Panics
    ///
    /// Panics on run-time errors (the bench setups are validated).
    pub fn run(&mut self, opts: &ExecOptions) -> Measurement {
        let refs: Vec<&CmArray> = self.coeffs.iter().collect();
        convolve(
            &mut self.machine,
            &self.compiled,
            &self.r,
            &self.x,
            &refs,
            opts,
        )
        .expect("bench convolution succeeds")
    }

    /// Runs one cycle-accurate iteration with default options.
    ///
    /// # Panics
    ///
    /// Panics on run-time errors.
    pub fn measure(&mut self) -> Measurement {
        self.run(&ExecOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_takes_interpolated_quartiles() {
        let s = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.min, s.median, s.iqr), (1.0, 3.0, 2.0));
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.min, s.median, s.iqr), (1.0, 2.5, 1.5));
        assert_eq!(Spread::of(&[7.0]).iqr, 0.0);
    }

    #[test]
    fn workload_round_trips() {
        let mut w = Workload::new(MachineConfig::tiny_4(), PaperPattern::Cross5, (8, 8));
        let m = w.measure();
        assert!(m.cycles.total() > 0);
        // 8×8 subgrids on a 2×2 grid: a 16×16 global array at 9
        // flops/point.
        assert_eq!(m.useful_flops, 9 * 16 * 16);
    }

    #[test]
    fn paper_reference_covers_the_blocks() {
        assert!(paper_reference(PaperPattern::Cross5, (256, 256)).is_some());
        assert!(paper_reference(PaperPattern::Cross5, (64, 64)).is_none());
        assert!(paper_reference(PaperPattern::Diamond13, (64, 64)).is_some());
        assert!(paper_reference(PaperPattern::Asymmetric5, (64, 64)).is_none());
    }
}
