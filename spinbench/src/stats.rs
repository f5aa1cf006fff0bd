//! Order statistics for benchmark samples.

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = median_sorted(&sorted)?;
        let (q1, q3) = quartiles_sorted(&sorted);
        Some(Summary {
            median,
            q1,
            q3,
            n: sorted.len(),
        })
    }

    /// Interquartile distance as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so the benchmark's spreads match the
/// ones computed over its results by that function. A single sample is
/// its own quartiles.
fn quartiles_sorted(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    if len < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Percentiles a distribution may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest of p99.9, p99, p90 and p50 that has at least ten of `n`
/// samples beyond it; `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The `p`-th percentile (0–100) of `samples` by the nearest-rank rule.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}
