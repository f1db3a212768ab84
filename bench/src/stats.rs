//! Order statistics the benchmark reports with.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the benchmark
//! contract's spread check computes; everything else is nearest-rank.

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` exactly as `statistics.quantiles(values, n=4)`
/// gives them. Fewer than two values have no spread: all three are the
/// single value (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The contract's spread of a sample: interquartile distance as a share
/// of the median (0 for a zero median).
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, mid, q3) = quartiles(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

/// Nearest-rank `p`-th percentile (`p` in `[0, 100]`) of an ascending
/// slice; 0 when empty.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest of p50/p90/p99/p99.9/p99.99 that still has at least ten
/// samples beyond it in a sample of `n` — the tail a sample of that size
/// supports.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // In hundredths of a percent, so that 1 000 samples support p99 exactly.
    [9_999u64, 9_990, 9_900, 9_000]
        .into_iter()
        .find(|p| n as u64 * (10_000 - p) >= 100_000)
        .map_or(50.0, |p| p as f64 / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50.0);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(999), 90.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(500_000), 99.99);
    }
}
