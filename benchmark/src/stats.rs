//! Sample statistics: nearest-rank percentiles with the sample-count
//! rule, medians, and the quartile spread the regression gate uses.

/// A percentile is *supported* when at least this many samples lie
/// beyond it; below that the tail value is one or two outliers, not a
/// percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Sorts a sample ascending. Benchmark samples are never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("sample is not NaN"));
}

/// 1-based nearest-rank index of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at rank 9 990: the product is
    // not exact in binary and would otherwise round up one rank.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending-sorted
/// sample; 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether percentile `p` of `n` samples has enough samples beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// The highest of the percentiles this benchmark prints that `n`
/// samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| supported(n, p))
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method) — the driver's definition.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn sample_count_rule() {
        // p95 of 199 samples leaves 9 beyond it; 200 leave 10.
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert!(!supported(199, 95.0));
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert!(supported(200, 95.0));
        // p99 needs a thousand samples, the median twenty.
        assert!(!supported(999, 99.0));
        assert!(supported(1_000, 99.0));
        assert!(!supported(19, 50.0));
        assert!(supported(20, 50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(150), Some(90.0));
        assert_eq!(highest_supported(5_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
