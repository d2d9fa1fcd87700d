//! Order statistics for latency reporting.

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1)`) of ascending `sorted`, or
/// `None` when fewer than [`BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= BEYOND).then(|| sorted[rank - 1])
}

/// The highest percentile `sorted` supports, as `(p, value)`: the
/// sample with exactly [`BEYOND`] samples beyond it.
pub fn highest_supported(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    (n > BEYOND).then(|| {
        let rank = n - BEYOND;
        (rank as f64 / n as f64, sorted[rank - 1])
    })
}

/// Percentile `p` if supported, else the highest supported percentile,
/// else the median; with the percentile actually reported.
pub fn percentile_or_highest(sorted: &[f64], p: f64) -> (f64, f64) {
    if let Some(v) = percentile(sorted, p) {
        return (p, v);
    }
    if let Some((q, v)) = highest_supported(sorted) {
        if q < p {
            return (q, v);
        }
    }
    (0.5, median(sorted))
}

/// Median of ascending `sorted` (0 when empty).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Median of unsorted values.
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median(&v)
}

/// Mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.99), None, "only one sample beyond p99");
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None, "nine beyond");
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None, "nine beyond the median");
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn the_fallback_names_the_percentile_it_reports() {
        let s = ramp(60);
        assert_eq!(highest_supported(&s), Some((50.0 / 60.0, 50.0)));
        assert_eq!(percentile_or_highest(&s, 0.99), (50.0 / 60.0, 50.0));
        assert_eq!(percentile_or_highest(&s, 0.5), (0.5, 30.0));
        assert_eq!(percentile_or_highest(&ramp(5), 0.9), (0.5, 3.0));
        assert_eq!(highest_supported(&ramp(10)), None);
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&ramp(4)), 2.5);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&ramp(4)), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }
}
