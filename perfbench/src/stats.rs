//! Exact-sample statistics. Every latency sample is kept, so percentiles
//! are order statistics of the data, never bucket bounds.

/// Samples that must lie beyond the high percentile for it to be reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The percentile wanted for the tail figure, as parts per thousand.
pub const WANTED_HIGH_PER_MILLE: usize = 990;

/// Median and tail of one exact sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Number of samples.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The highest percentile, at most the wanted one (p99), that leaves
    /// at least [`MIN_TAIL_SAMPLES`] samples beyond it — as a fraction.
    pub high_quantile: f64,
    /// The sample at that percentile.
    pub high: f64,
}

/// 1-based nearest rank of the quantile `per_mille / 1000` among `n`
/// samples: `ceil(n · per_mille / 1000)`, at least 1.
pub fn nearest_rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).max(1)
}

/// The median and the highest supported percentile of `samples`, or
/// `None` when fewer than `MIN_TAIL_SAMPLES + 1` samples exist.
pub fn percentiles(samples: &[f64]) -> Option<Percentiles> {
    let n = samples.len();
    if n <= MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let high_rank = nearest_rank(n, WANTED_HIGH_PER_MILLE).min(n - MIN_TAIL_SAMPLES);
    Some(Percentiles {
        count: n,
        p50: sorted[nearest_rank(n, 500) - 1],
        high_quantile: high_rank as f64 / n as f64,
        high: sorted[high_rank - 1],
    })
}

/// Nearest-rank quantile of an arbitrary sample (`per_mille / 1000`).
pub fn quantile(samples: &[f64], per_mille: usize) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), per_mille) - 1])
}

/// Median of a non-empty sample (nearest rank, so always a sample value).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousand_samples_give_a_true_p99() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentiles(&v).unwrap();
        assert_eq!(p.p50, 500.0);
        assert_eq!(p.high, 990.0);
        assert_eq!(p.high_quantile, 0.99);
        // Exactly ten samples lie beyond the reported tail.
        assert_eq!(v.iter().filter(|&&x| x > p.high).count(), 10);
    }

    #[test]
    fn small_samples_report_a_lower_supported_percentile() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p = percentiles(&v).unwrap();
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.high, 90.0);
        assert_eq!(p.high_quantile, 0.9);
        assert!(percentiles(&v[..10]).is_none());
    }

    #[test]
    fn quantiles_are_sample_values() {
        let v = [3.0, 1.0, 2.0, 10.0];
        assert_eq!(median(&v), Some(2.0));
        assert_eq!(quantile(&v, 950), Some(10.0));
        assert_eq!(median(&[]), None);
    }
}
