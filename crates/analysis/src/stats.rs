//! Descriptive statistics used across the analysis modules: means,
//! medians, percentiles, standard deviation — computed once, tested once.

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// 5th percentile.
    pub p05: f64,
    /// 95th percentile.
    pub p95: f64,
}

/// Percentile by linear interpolation between closest ranks; `q` in 0..=1.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    let frac = rank - low as f64;
    sorted[low] * (1.0 - frac) + sorted[high] * frac
}

impl Summary {
    /// Computes the summary; returns `None` for empty input.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let variance = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        Some(Summary {
            count,
            mean,
            median: percentile(&sorted, 0.5),
            std_dev: variance.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            p05: percentile(&sorted, 0.05),
            p95: percentile(&sorted, 0.95),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std_dev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_is_order_independent() {
        let a = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        let b = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_yields_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p05, 7.0);
        assert_eq!(s.p95, 7.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [0.0, 10.0];
        assert_eq!(percentile(&sorted, 0.0), 0.0);
        assert_eq!(percentile(&sorted, 0.5), 5.0);
        assert_eq!(percentile(&sorted, 1.0), 10.0);
        assert_eq!(percentile(&sorted, 0.25), 2.5);
    }

    #[test]
    fn even_count_median_averages() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.median, 2.5);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn percentile_rejects_out_of_range() {
        percentile(&[1.0], 1.5);
    }

    proptest::proptest! {
        #[test]
        fn prop_invariants(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = Summary::of(&samples).unwrap();
            proptest::prop_assert!(s.min <= s.p05);
            proptest::prop_assert!(s.p05 <= s.median);
            proptest::prop_assert!(s.median <= s.p95);
            proptest::prop_assert!(s.p95 <= s.max);
            proptest::prop_assert!(s.min <= s.mean && s.mean <= s.max);
            proptest::prop_assert!(s.std_dev >= 0.0);
        }
    }
}
