//! Fig. 4: histogram of the mapped ratio of spin vs. stack RTT means.
//!
//! The ratio divides the larger mean by the smaller and is negated when
//! the spin bit underestimates, so `+1` is a perfect match, `+3` a 3×
//! overestimation, `-2` a 2× underestimation (§5.1).

use crate::histogram::Histogram;
use quicspin_core::FlowClassification;
use quicspin_scanner::ConnectionRecord;
use serde::{Deserialize, Serialize};

/// The paper's Fig. 4 bin edges (mapped ratio).
pub fn fig4_edges() -> Vec<f64> {
    vec![-3.0, -2.0, -1.25, 0.0, 1.25, 2.0, 3.0]
}

/// One series of Fig. 4: a histogram of mapped ratios plus the counts
/// behind its shares, each a count over [`connections`](Self::connections).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatioSeries {
    /// Histogram of mapped ratios.
    pub histogram: Histogram,
    /// Connections within ±25 % (ratio in (0, 1.25]) — the paper's
    /// accuracy bar.
    pub within_25pct: u64,
    /// Connections within a factor of two (ratio in (0, 2]).
    pub within_factor2: u64,
    /// Connections overestimating by more than 3× (ratio > 3).
    pub over_3x: u64,
    /// Connections underestimating (ratio < 0).
    pub underestimates: u64,
    /// Connections underestimating by at most a factor 2 (ratio in
    /// [-2, 0)), relevant for the paper's Grease discussion.
    pub under_within_factor2: u64,
}

impl Default for RatioSeries {
    fn default() -> Self {
        RatioSeries {
            histogram: Histogram::new(fig4_edges()),
            within_25pct: 0,
            within_factor2: 0,
            over_3x: 0,
            underestimates: 0,
            under_within_factor2: 0,
        }
    }
}

impl RatioSeries {
    /// Adds one connection's mapped ratio.
    pub fn add(&mut self, ratio: f64) {
        self.histogram.add(ratio);
        self.within_25pct += u64::from(ratio > 0.0 && ratio <= 1.25);
        self.within_factor2 += u64::from(ratio > 0.0 && ratio <= 2.0);
        self.over_3x += u64::from(ratio > 3.0);
        self.underestimates += u64::from(ratio < 0.0);
        self.under_within_factor2 += u64::from((-2.0..0.0).contains(&ratio));
    }

    /// Adds a series accumulated over other connections.
    pub fn merge(&mut self, other: RatioSeries) {
        self.histogram.merge(other.histogram);
        self.within_25pct += other.within_25pct;
        self.within_factor2 += other.within_factor2;
        self.over_3x += other.over_3x;
        self.underestimates += other.underestimates;
        self.under_within_factor2 += other.under_within_factor2;
    }

    /// Number of contributing connections.
    pub fn connections(&self) -> u64 {
        self.histogram.total()
    }

    /// Share within ±25 %.
    pub fn within_25pct_share(&self) -> f64 {
        self.histogram.share_of(self.within_25pct)
    }

    /// Share within a factor of two.
    pub fn within_factor2_share(&self) -> f64 {
        self.histogram.share_of(self.within_factor2)
    }

    /// Share overestimating by more than 3×.
    pub fn over_3x_share(&self) -> f64 {
        self.histogram.share_of(self.over_3x)
    }

    /// Share underestimating.
    pub fn underestimate_share(&self) -> f64 {
        self.histogram.share_of(self.underestimates)
    }

    /// Share underestimating by at most a factor 2.
    pub fn under_within_factor2_share(&self) -> f64 {
        self.histogram.share_of(self.under_within_factor2)
    }
}

/// Fig. 4: all four series.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RatioAccuracyFigure {
    /// Spinning connections, received order.
    pub spin_received: RatioSeries,
    /// Spinning connections, sorted order.
    pub spin_sorted: RatioSeries,
    /// Greased connections, received order.
    pub grease_received: RatioSeries,
    /// Greased connections, sorted order.
    pub grease_sorted: RatioSeries,
}

impl RatioAccuracyFigure {
    /// Computes Fig. 4 from connection records.
    pub fn from_records<'a>(records: impl Iterator<Item = &'a ConnectionRecord>) -> Self {
        let mut fig = Self::default();
        records.for_each(|r| fig.add(r));
        fig
    }

    /// Adds one record: a spinning or greased connection contributes its
    /// finite received- and sorted-order ratios; any other record nothing.
    pub fn add(&mut self, record: &ConnectionRecord) {
        let Some(report) = &record.report else { return };
        let (received, sorted) = match report.classification {
            FlowClassification::Spinning => (&mut self.spin_received, &mut self.spin_sorted),
            FlowClassification::Greased => (&mut self.grease_received, &mut self.grease_sorted),
            _ => return,
        };
        for (series, acc) in [
            (received, report.accuracy_received()),
            (sorted, report.accuracy_sorted()),
        ] {
            if let Some(ratio) = acc.map(|a| a.mapped_ratio()).filter(|r| r.is_finite()) {
                series.add(ratio);
            }
        }
    }

    /// Adds a figure accumulated over other records.
    pub fn merge(&mut self, other: RatioAccuracyFigure) {
        self.spin_received.merge(other.spin_received);
        self.spin_sorted.merge(other.spin_sorted);
        self.grease_received.merge(other.grease_received);
        self.grease_sorted.merge(other.grease_sorted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_core::ObserverReport;
    use quicspin_scanner::ScanOutcome;
    use quicspin_webpop::{IpVersion, ListKind, Org};

    fn record(class: FlowClassification, spin_us: u64, stack_us: u64) -> ConnectionRecord {
        let mut r = ConnectionRecord::failed(
            0,
            ListKind::ZoneComNetOrg,
            Org::Hostinger,
            0,
            IpVersion::V4,
            ScanOutcome::Ok,
        );
        r.report = Some(ObserverReport {
            classification: class,
            packets: 10,
            spin_samples_received_us: vec![spin_us],
            spin_samples_sorted_us: vec![spin_us],
            stack_samples_us: vec![stack_us],
        });
        r
    }

    #[test]
    fn shares_computed_from_ratios() {
        let records = [
            record(FlowClassification::Spinning, 44_000, 40_000), // 1.1 (within 25%)
            record(FlowClassification::Spinning, 70_000, 40_000), // 1.75 (within 2x)
            record(FlowClassification::Spinning, 200_000, 40_000), // 5.0 (>3x)
            record(FlowClassification::Spinning, 20_000, 40_000), // -2.0 (under)
        ];
        let fig = RatioAccuracyFigure::from_records(records.iter());
        let s = &fig.spin_received;
        assert_eq!(s.connections(), 4);
        assert!((s.within_25pct_share() - 0.25).abs() < 1e-12);
        assert!((s.within_factor2_share() - 0.5).abs() < 1e-12);
        assert!((s.over_3x_share() - 0.25).abs() < 1e-12);
        assert!((s.underestimate_share() - 0.25).abs() < 1e-12);
        assert!((s.under_within_factor2_share() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ratio_magnitudes_never_fall_in_open_unit_gap() {
        // Mapped ratios have |r| >= 1, so the (0, 1.25] bin only collects
        // [1, 1.25] and the (-1.25, 0) bin only (-1.25, -1].
        let records = [
            record(FlowClassification::Spinning, 40_000, 40_000), // exactly 1.0
        ];
        let fig = RatioAccuracyFigure::from_records(records.iter());
        assert_eq!(fig.spin_received.within_25pct_share(), 1.0);
    }

    #[test]
    fn grease_series_separate() {
        let records = [
            record(FlowClassification::Greased, 10_000, 40_000),
            record(FlowClassification::Spinning, 45_000, 40_000),
        ];
        let fig = RatioAccuracyFigure::from_records(records.iter());
        assert_eq!(fig.grease_received.connections(), 1);
        assert_eq!(fig.spin_received.connections(), 1);
        assert!(fig.grease_received.underestimate_share() > 0.99);
    }

    #[test]
    fn edges_are_symmetric_about_zero() {
        let edges = fig4_edges();
        assert!(edges.contains(&1.25) && edges.contains(&-1.25));
        assert!(edges.contains(&3.0) && edges.contains(&-3.0));
    }
}
