//! Order statistics over raw samples.
//!
//! Percentiles use the nearest-rank rule on the exact sorted samples, so
//! a reported percentile is always one of the samples and never exceeds
//! the maximum (unlike bucket bounds of a histogram).

/// Nearest-rank percentile `pct` (0 < pct <= 100) of `sorted`, which
/// must be sorted ascending: the smallest sample with at least `pct`
/// percent of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty or `pct` is outside `1..=100`.
pub fn percentile(sorted: &[u64], pct: usize) -> u64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// The 1-based nearest rank of percentile `pct` among `n` samples.
///
/// # Panics
///
/// Panics if `n == 0` or `pct` is outside `1..=100`.
pub fn rank(n: usize, pct: usize) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    (pct * n).div_ceil(100)
}

/// How many samples lie strictly beyond the rank of percentile `pct`.
pub fn beyond(n: usize, pct: usize) -> usize {
    n - rank(n, pct)
}

/// Sorts raw samples in place and returns them, for the percentile
/// functions.
pub fn sorted(mut samples: Vec<u64>) -> Vec<u64> {
    samples.sort_unstable();
    samples
}

/// Most stretches [`stretch_p99`] splits samples into.
const STRETCHES: usize = 5;
/// Fewest samples in one stretch: ten lie beyond its p99.
const STRETCH_MIN: usize = 1000;

/// The p99 of samples in the order they were taken, robust to a burst
/// of host contention: the samples are cut into up to five consecutive
/// stretches of at least 1,000 each, and the result is the median of
/// the stretches' nearest-rank p99s (the plain p99 when there are fewer
/// than 2,000 samples). Like every percentile here it is one of the
/// samples, never above the maximum. `0` when empty.
pub fn stretch_p99(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let k = (samples.len() / STRETCH_MIN).clamp(1, STRETCHES);
    let len = samples.len() / k;
    let p99s: Vec<u64> = (0..k)
        .map(|i| {
            let end = if i + 1 == k {
                samples.len()
            } else {
                (i + 1) * len
            };
            percentile(&sorted(samples[i * len..end].to_vec()), 99)
        })
        .collect();
    median(&p99s)
}

/// Nearest-rank median of unsorted samples (`0` when empty).
pub fn median(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    percentile(&sorted(samples.to_vec()), 50)
}

/// Median of unsorted floating-point values (nearest rank; `0.0` when
/// empty).
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), 50) - 1]
}

/// Geometric mean of positive values (`0.0` when empty or when any value
/// is not positive).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&s, 50), 5);
        assert_eq!(percentile(&s, 90), 9);
        assert_eq!(percentile(&s, 91), 10);
        assert_eq!(percentile(&s, 100), 10);
        assert_eq!(percentile(&s, 1), 1);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn p99_is_exact_and_never_above_the_max() {
        // 1000 samples: rank 990, ten samples beyond it.
        let s: Vec<u64> = sorted((0..1000).rev().map(|i| i * 3 + 1).collect());
        assert_eq!(percentile(&s, 99), s[989]);
        assert_eq!(beyond(s.len(), 99), 10);
        assert!(percentile(&s, 99) <= *s.last().unwrap());
        // A heavy tail: the p99 of 999 small values and one huge one is
        // a small value, not the outlier.
        let mut t = vec![5u64; 999];
        t.push(1_000_000);
        let t = sorted(t);
        assert_eq!(percentile(&t, 99), 5);
        assert_eq!(percentile(&t, 100), 1_000_000);
    }

    #[test]
    fn rank_avoids_floating_point_rounding() {
        // 0.99 * 1000 is 990.0000000000001 in floating point; a float
        // ceil would give rank 991.
        assert_eq!(rank(1000, 99), 990);
        assert_eq!(rank(100, 50), 50);
        assert_eq!(rank(101, 50), 51);
    }

    #[test]
    fn stretch_p99_is_the_median_stretch() {
        // Under 2,000 samples: the plain p99.
        let few: Vec<u64> = (1..=1500).rev().collect();
        assert_eq!(stretch_p99(&few), percentile(&sorted(few.clone()), 99));
        // Five stretches of 1,000, one with a burst of slow samples:
        // the burst sets that stretch's p99 only.
        let mut v: Vec<u64> = (0..5000).map(|i| 100 + i % 1000).collect();
        for x in &mut v[1000..1100] {
            *x = 1_000_000;
        }
        assert_eq!(percentile(&sorted(v.clone()), 99), 1_000_000);
        assert_eq!(stretch_p99(&v), 1089);
        assert_eq!(stretch_p99(&[]), 0);
    }

    #[test]
    fn medians_and_geomean() {
        assert_eq!(median(&[3, 1, 2]), 2);
        assert_eq!(median(&[]), 0);
        assert_eq!(median_f64(&[0.5, 0.1, 0.9, 0.3]), 0.3);
        let g = geomean(&[1.0, 4.0, 16.0]);
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
