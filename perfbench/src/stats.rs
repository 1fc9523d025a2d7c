//! Order statistics of timing samples.

/// Samples a percentile must leave above its rank before it is reported:
/// a tail rank resting on fewer samples moves with every outlier.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `q ∈ (0, 1)` of `samples`, or `None` when fewer
/// than [`MIN_SAMPLES_BEYOND`] samples lie beyond the rank (or a sample is
/// NaN).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (q * n as f64).ceil().max(1.0) as usize;
    if n < rank || n - rank < MIN_SAMPLES_BEYOND || samples.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(rank - 1).copied()
}

/// Smallest sample; `None` when empty or when a sample is NaN.
pub fn min(samples: &[f64]) -> Option<f64> {
    if samples.iter().any(|x| x.is_nan()) {
        return None;
    }
    samples.iter().copied().reduce(f64::min)
}

/// Median (mean of the middle pair for even counts); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the interpolating "exclusive" rule of
/// Python's `statistics.quantiles(values, n=4)`; `None` for fewer than two
/// samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    // Python's rule, including its linear extrapolation when the clamped
    // index leaves `delta` outside [0, 4] (only for n < 3).
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_ranks_without_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000: rank 990, ten samples beyond.
        assert_eq!(percentile(&samples, 0.99), Some(990.0));
        assert_eq!(percentile(&samples[..999], 0.99), None);
        // p50 needs 20 samples, p90 needs 100.
        assert_eq!(percentile(&samples[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(percentile(&samples[..100], 0.9), Some(90.0));
        assert_eq!(percentile(&samples[..99], 0.9), None);
        assert_eq!(percentile(&[], 0.5), None);
        let mut poisoned = samples.clone();
        poisoned[3] = f64::NAN;
        assert_eq!(percentile(&poisoned, 0.5), None);
    }

    #[test]
    fn percentile_ignores_sample_order() {
        let mut samples: Vec<f64> = (0..40).map(|i| f64::from((i * 17) % 40)).collect();
        assert_eq!(percentile(&samples, 0.5), Some(19.0));
        samples.reverse();
        assert_eq!(percentile(&samples, 0.5), Some(19.0));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn min_is_the_smallest_sample() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(min(&[]), None);
        assert_eq!(min(&[1.0, f64::NAN]), None);
    }
}
