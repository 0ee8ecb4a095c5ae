//! Log-bucketed latency histograms: power-of-two octaves split into
//! linear sub-buckets, mergeable across threads.
//!
//! The driver distills the flight recorder's event stream into these to
//! report p50/p95/p99/max per tenant and per phase without retaining
//! every sample. The layout is the classic HDR shape: values below
//! 2^[`SUB_BUCKET_BITS`] are exact; above that, each power-of-two octave
//! is split into 2^[`SUB_BUCKET_BITS`] equal-width linear sub-buckets,
//! so the quantization error is bounded by 1/16 (≈6%) of the value —
//! ample for tail-latency reporting.
//!
//! Percentiles are *bucket-exact*: [`Histogram::percentile`] returns the
//! upper bound of the bucket holding the rank-⌈p/100·n⌉ sample, which is
//! precisely [`Histogram::quantize`] of the true rank-order statistic.
//! Tests exploit this to compare against a sorted-oracle computation
//! with `==`, not a tolerance.

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BUCKET_BITS` linear buckets.
pub const SUB_BUCKET_BITS: u32 = 4;

const SUB: u64 = 1 << SUB_BUCKET_BITS;

/// Number of buckets: `SUB` exact small-value buckets plus
/// `(64 - SUB_BUCKET_BITS) · SUB` octave sub-buckets — covers all of
/// `u64` with no clamping.
pub const HIST_SLOTS: usize = (SUB as usize) + (64 - SUB_BUCKET_BITS as usize) * SUB as usize;

/// A mergeable log-bucketed histogram of `u64` samples (nanoseconds, in
/// this crate's usage, but unit-agnostic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; HIST_SLOTS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index of `v`.
    fn slot_of(v: u64) -> usize {
        if v < SUB {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros() as u64; // >= SUB_BUCKET_BITS
            let octave = msb - SUB_BUCKET_BITS as u64; // 0-based octave above the exact range
            let sub = (v >> octave) - SUB; // 0..SUB within the octave
            SUB as usize + (octave as usize * SUB as usize) + sub as usize
        }
    }

    /// The largest value mapping to bucket `slot` — the bucket's
    /// representative, what [`percentile`](Histogram::percentile)
    /// reports.
    fn value_at(slot: usize) -> u64 {
        if slot < SUB as usize {
            slot as u64
        } else {
            let idx = (slot - SUB as usize) as u64;
            let octave = idx / SUB;
            let sub = idx % SUB;
            let low = (SUB + sub) << octave;
            let width = 1u64 << octave;
            low + (width - 1)
        }
    }

    /// `v` rounded up to its bucket's representative: the value
    /// [`percentile`](Histogram::percentile) would report for a
    /// distribution whose rank-order statistic is `v`. Monotone
    /// non-decreasing, identity below 2^[`SUB_BUCKET_BITS`].
    pub fn quantize(v: u64) -> u64 {
        Self::value_at(Self::slot_of(v))
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::slot_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self` bucket by bucket.
    pub fn merge(&mut self, other: &Histogram) {
        for (d, s) in self.counts.iter_mut().zip(&other.counts) {
            *d += s;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The exact maximum recorded sample (not quantized; 0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The bucket-exact `p`-th percentile (`0 < p ≤ 100`): the
    /// representative ([`quantize`](Histogram::quantize)) of the bucket
    /// containing the rank-⌈p/100·n⌉ sample, clamped to the exact
    /// [`max`](Histogram::max) — a representative rounds up, and no
    /// percentile may report more than the largest sample. 0 when
    /// empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut cum = 0u64;
        for (slot, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::value_at(slot).min(self.max);
            }
        }
        self.max
    }

    /// Renders the histogram's summary as a fixed-key JSON object:
    /// `{"count":..,"p50_ns":..,"p95_ns":..,"p99_ns":..,"max_ns":..}`.
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            self.count,
            self.percentile(50.0),
            self.percentile(95.0),
            self.percentile(99.0),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle the driver and tests share: sort, take the
    /// rank-⌈p/100·n⌉ sample, quantize it, clamp it to the maximum.
    fn oracle(sorted: &[u64], p: f64) -> u64 {
        let rank = (((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize).min(sorted.len());
        Histogram::quantize(sorted[rank - 1]).min(*sorted.last().unwrap())
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB {
            assert_eq!(Histogram::quantize(v), v);
        }
    }

    #[test]
    fn quantize_is_monotone_and_bounded() {
        let mut prev = 0;
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let q = Histogram::quantize(v);
            assert!(q >= v, "representative below value at {v}");
            assert!(q <= v + v / SUB, "error above 1/{SUB} at {v}: {q}");
            assert!(q >= prev, "non-monotone at {v}");
            prev = q;
            v = v * 3 + 1;
        }
    }

    #[test]
    fn percentiles_match_sorted_oracle() {
        // Deterministic xorshift so the distribution spans many octaves.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut samples: Vec<u64> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % (1 << (x % 40))
            })
            .collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for p in [1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), oracle(&samples, p), "p{p}");
        }
        assert_eq!(h.count(), 5000);
        assert_eq!(h.max(), *samples.last().unwrap());
    }

    /// A lone outlier in a wide bucket: its bucket's representative
    /// lies above it, but the tail percentiles report the exact sample.
    #[test]
    fn percentiles_never_exceed_the_max() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(1_000);
        }
        let outlier = 33_606_472;
        assert!(Histogram::quantize(outlier) > outlier, "the bucket is wide");
        h.record(outlier);
        assert_eq!(h.max(), outlier);
        assert_eq!(h.percentile(99.0), Histogram::quantize(1_000));
        assert_eq!(h.percentile(99.5), outlier);
        assert_eq!(h.percentile(100.0), outlier);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (mut a, mut b, mut whole) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [0, 1, 15, 16, 17, 1000, 123456789, u64::MAX] {
            whole.record(v);
            if v % 2 == 0 { &mut a } else { &mut b }.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn summary_json_shape() {
        let mut h = Histogram::new();
        h.record(10);
        let json = h.summary_json();
        for key in [
            "\"count\":1",
            "\"p50_ns\":10",
            "\"p95_ns\":10",
            "\"p99_ns\":10",
            "\"max_ns\":10",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
