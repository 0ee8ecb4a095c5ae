//! Host speed. The benchmark runs on shared hosts whose speed drifts by
//! tens of percent within seconds and by up to twofold over minutes, as
//! neighbours load the cores and the memory system. A gauge, a fixed
//! plain-Rust 9-point stencil that no program change can touch, is timed
//! on a slice of its field just before and just after every measured
//! operation; the operation's wall time is scaled by how much slower or
//! faster than its reference time the gauge ran around it (damped, see
//! [`SENSITIVITY`]). Timings are
//! therefore times at a reference host speed: on a host where the gauge
//! runs at its reference time they read as plain wall times, and a
//! program change moves them in proportion to the wall time it saves or
//! costs. Bracketing each operation, rather than a longer stretch of
//! them, also scales the slow tail that short bursts of contention add.

use crate::stats::median_f64;
use crate::tally::{ns_since, Tally};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Slices timed per full reading; the reading is their median.
const READS: usize = 5;
/// Length of one batch of a window.
const BATCH: Duration = Duration::from_millis(250);
/// Edge of the gauge's field.
const EDGE: usize = 128;
/// Interior rows one slice computes: with the nine coefficient rows
/// each reads, 45 KiB, so that a slice runs from the core's caches
/// and disturbs the program's little.
const ROWS: usize = 8;
/// Time of one slice at reference host speed, nanoseconds: chosen so
/// that scaled times read close to wall times on a quiet two-vCPU Xeon
/// host.
const REFERENCE_NS: f64 = 8.0e3;
/// How strongly the measured programs follow the gauge. A slice is
/// arithmetic on cached data, and contention for the core slows it more
/// than the programs, which also wait on memory: over runs at host
/// speeds from 0.5 to 0.9 of reference, scaling by the full ratio of
/// slice times left `steady_square9` times following that ratio to the
/// power 0.26 and `cold_cycle` times to the power 0.13. Scaling by the
/// ratio to the power 0.8 leaves little of either.
const SENSITIVITY: f64 = 0.8;

/// A 9-point square stencil with nine coefficient arrays over a small
/// field, in code the benchmark owns.
#[derive(Clone)]
pub struct Gauge {
    src: Vec<f32>,
    dst: Vec<f32>,
    coeffs: Vec<Vec<f32>>,
}

impl Default for Gauge {
    fn default() -> Self {
        let n = EDGE * EDGE;
        let src: Vec<f32> = (0..n).map(|i| 0.25 + (i % 97) as f32 / 130.0).collect();
        // Convex weights: each point's nine weights sum to one.
        let weight = |i: usize, k: usize| 1.0 + ((i + 31 * k) % 7) as f32 / 8.0;
        let coeffs = (0..9)
            .map(|k| {
                (0..n)
                    .map(|i| weight(i, k) / (0..9).map(|j| weight(i, j)).sum::<f32>())
                    .collect()
            })
            .collect();
        Gauge {
            dst: src.clone(),
            src,
            coeffs,
        }
    }
}

impl Gauge {
    /// Computes the slice's rows of the result from the source.
    fn pass(&mut self) {
        let e = EDGE;
        let (src, dst) = (&self.src, &mut self.dst);
        for r in 1..=ROWS {
            for c in 1..e - 1 {
                let i = r * e + c;
                let mut acc = 0.0f32;
                let mut k = 0;
                for dr in [i - e, i, i + e] {
                    for p in [dr - 1, dr, dr + 1] {
                        acc += self.coeffs[k][i] * src[p];
                        k += 1;
                    }
                }
                dst[i] = acc;
            }
        }
        black_box(&self.dst);
    }

    /// Time of one slice, nanoseconds. An untimed pass first brings the
    /// slice's data back into the caches, so that the timed pass does
    /// not depend on how much of them the program just used.
    pub fn slice(&mut self) -> u64 {
        self.pass();
        let t = Instant::now();
        self.pass();
        ns_since(t)
    }

    /// Median time of a few slices, nanoseconds.
    pub fn read(&mut self) -> u64 {
        let mut ns: Vec<u64> = (0..READS).map(|_| self.slice()).collect();
        ns.sort_unstable();
        ns[READS / 2]
    }

    /// The factor that turns a wall time measured while a slice took
    /// `slice_ns` into a time at reference host speed.
    pub fn factor(&self, slice_ns: u64) -> f64 {
        (REFERENCE_NS / slice_ns.max(1) as f64).powf(SENSITIVITY)
    }
}

/// A measured window cut into short batches. Every operation is timed
/// between two gauge slices, and a batch's wall time, less those
/// slices, is scaled by the median of its operations' factors.
pub struct Batches<'a> {
    gauge: &'a mut Gauge,
    start: Instant,
    slices_ns: u64,
    factors: Vec<f64>,
}

impl<'a> Batches<'a> {
    /// Opens the first batch.
    pub fn new(gauge: &'a mut Gauge) -> Self {
        Batches {
            gauge,
            start: Instant::now(),
            slices_ns: 0,
            factors: Vec::new(),
        }
    }

    /// Times a gauge slice before an operation; pass the result to
    /// [`Batches::end_op`] after it.
    pub fn start_op(&mut self) -> u64 {
        let ns = self.gauge.slice();
        self.slices_ns += ns;
        ns
    }

    /// Times a gauge slice after an operation and returns the factor
    /// that scales the operation's wall time to reference host speed.
    pub fn end_op(&mut self, before: u64) -> Scale {
        let after = self.gauge.slice();
        self.slices_ns += after;
        let f = self.gauge.factor((before + after) / 2);
        self.factors.push(f);
        Scale(f)
    }

    /// Whether the open batch has run its length.
    pub fn due(&self) -> bool {
        self.start.elapsed() >= BATCH
    }

    /// Closes the open batch into `t` and opens the next.
    pub fn close(&mut self, t: &mut Tally) {
        let wall = ns_since(self.start).saturating_sub(self.slices_ns);
        if !self.factors.is_empty() {
            t.close_batch(wall, median_f64(&self.factors));
        }
        self.factors.clear();
        self.slices_ns = 0;
        self.start = Instant::now();
    }
}

/// The factor from an operation's wall time to reference host speed.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    /// `ns` of wall time at reference host speed.
    pub fn of(self, ns: u64) -> u64 {
        (ns as f64 * self.0).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_keeps_the_field_in_range() {
        let mut g = Gauge::default();
        g.read();
        assert!(g.dst.iter().all(|v| (0.25..1.0).contains(v)));
    }

    #[test]
    fn the_factor_follows_the_reading() {
        let g = Gauge::default();
        assert_eq!(g.factor(REFERENCE_NS as u64), 1.0);
        let ratio = g.factor(1000) / g.factor(2000);
        assert!((ratio - 2f64.powf(SENSITIVITY)).abs() < 1e-12);
        assert_eq!(Scale(0.5).of(1001), 501);
    }
}
