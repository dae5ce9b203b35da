//! Order statistics over job wall times.

/// Percentiles tried for the tail, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail percentile is reported only with at least this many samples
/// strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `75.0`.
    pub percentile: f64,
    /// The nearest-rank value at the percentile.
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples ranked strictly beyond the percentile.
    pub beyond: usize,
}

/// The `percentile` of `xs`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond its nearest rank.
pub fn percentile(xs: &[f64], percentile: f64) -> Option<Tail> {
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let rank = ((percentile / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    (beyond >= MIN_BEYOND).then(|| Tail {
        percentile,
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// The highest of the standard tail percentiles that still has
/// [`MIN_BEYOND`] samples beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    TAIL_PERCENTILES.iter().find_map(|&p| percentile(xs, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        // 19 samples: p50 is rank 10, leaving 9 beyond.
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: p50 is rank 10 with exactly 10 beyond.
        let t = percentile(&ramp(20), 50.0).expect("ten beyond");
        assert_eq!((t.beyond, t.value), (10, 10.0));
        // p90 of 99 samples leaves 9 beyond: refused.
        assert_eq!(percentile(&ramp(99), 90.0), None);
    }

    #[test]
    fn tail_picks_the_highest_admissible_percentile() {
        let t = tail(&ramp(40)).expect("p75 of 40");
        assert_eq!((t.percentile, t.samples, t.beyond), (75.0, 40, 10));
        let t = tail(&ramp(49)).expect("p75 of 49");
        assert_eq!((t.percentile, t.beyond), (75.0, 12));
        let t = tail(&ramp(1000)).expect("p99 of 1000");
        assert_eq!((t.percentile, t.beyond, t.value), (99.0, 10, 990.0));
    }
}
