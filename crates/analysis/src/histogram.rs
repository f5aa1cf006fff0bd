//! Generic binned histogram used by the figure modules.

use serde::{Deserialize, Serialize};

/// A histogram over explicit bin edges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Bin edges: bin `i` covers `[edges[i], edges[i+1])`; the first bin
    /// is open below and the last open above.
    pub edges: Vec<f64>,
    /// Counts per bin (`edges.len() + 1` entries, including the two open
    /// end bins).
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Creates an empty histogram over `edges` (must be strictly
    /// increasing, non-empty).
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(!edges.is_empty(), "need at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly increasing"
        );
        let n = edges.len() + 1;
        Histogram {
            edges,
            counts: vec![0; n],
        }
    }

    /// Adds one value.
    pub fn add(&mut self, value: f64) {
        let idx = self.edges.partition_point(|&e| e <= value);
        self.counts[idx] += 1;
    }

    /// Adds the counts of a histogram over the same edges.
    pub fn merge(&mut self, other: Histogram) {
        assert_eq!(self.edges, other.edges, "histograms must share edges");
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
    }

    /// Total number of values.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `count` as a share of all values (zero for an empty histogram).
    pub fn share_of(&self, count: u64) -> f64 {
        count as f64 / self.total().max(1) as f64
    }

    /// Relative frequencies per bin.
    pub fn shares(&self) -> Vec<f64> {
        self.counts.iter().map(|&c| self.share_of(c)).collect()
    }

    /// Share of values strictly below `threshold` (must be an edge).
    pub fn share_below(&self, threshold: f64) -> f64 {
        let idx = self
            .edges
            .iter()
            .position(|&e| e == threshold)
            .expect("threshold must be an edge");
        self.share_of(self.counts[..=idx].iter().sum())
    }

    /// Human-readable bin label.
    pub fn bin_label(&self, idx: usize) -> String {
        if idx == 0 {
            format!("< {}", self.edges[0])
        } else if idx == self.edges.len() {
            format!(">= {}", self.edges[idx - 1])
        } else {
            format!("[{}, {})", self.edges[idx - 1], self.edges[idx])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_land_in_expected_bins() {
        let mut h = Histogram::new(vec![0.0, 10.0, 20.0]);
        h.add(-5.0); // bin 0 (< 0)
        h.add(0.0); // bin 1 [0,10)
        h.add(9.9); // bin 1
        h.add(10.0); // bin 2 [10,20)
        h.add(25.0); // bin 3 (>= 20)
        assert_eq!(h.counts, vec![1, 2, 1, 1]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn shares_sum_to_one() {
        let mut h = Histogram::new(vec![0.0, 1.0]);
        for i in 0..10 {
            h.add(i as f64 / 5.0 - 1.0);
        }
        let sum: f64 = h.shares().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn share_below_counts_lower_bins() {
        let mut h = Histogram::new(vec![0.0, 25.0, 200.0]);
        for v in [-10.0, 5.0, 10.0, 30.0, 250.0] {
            h.add(v);
        }
        assert!((h.share_below(25.0) - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts_in_any_order() {
        let mut a = Histogram::new(vec![0.0, 10.0]);
        let mut b = a.clone();
        a.add(-1.0);
        b.add(5.0);
        b.add(15.0);
        let mut ab = a.clone();
        ab.merge(b.clone());
        b.merge(a);
        assert_eq!(ab, b);
        assert_eq!(ab.counts, vec![1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "share edges")]
    fn merge_rejects_other_edges() {
        Histogram::new(vec![0.0]).merge(Histogram::new(vec![1.0]));
    }

    #[test]
    fn bin_labels() {
        let h = Histogram::new(vec![0.0, 25.0]);
        assert_eq!(h.bin_label(0), "< 0");
        assert_eq!(h.bin_label(1), "[0, 25)");
        assert_eq!(h.bin_label(2), ">= 25");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_edges_rejected() {
        Histogram::new(vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "must be an edge")]
    fn share_below_requires_edge() {
        Histogram::new(vec![0.0, 1.0]).share_below(0.5);
    }

    #[test]
    fn empty_histogram_shares_are_zero() {
        let h = Histogram::new(vec![0.0]);
        assert_eq!(h.total(), 0);
        assert_eq!(h.shares(), vec![0.0, 0.0]);
    }

    proptest::proptest! {
        #[test]
        fn prop_every_value_lands_somewhere(values in proptest::collection::vec(-1e6f64..1e6, 0..100)) {
            let mut h = Histogram::new(vec![-100.0, 0.0, 100.0]);
            for &v in &values {
                h.add(v);
            }
            proptest::prop_assert_eq!(h.total(), values.len() as u64);
        }
    }
}
