//! Fig. 3: histogram of the absolute difference between the per-connection
//! means of the spin-bit and QUIC-stack RTT estimates.

use crate::histogram::Histogram;
use quicspin_core::FlowClassification;
use quicspin_scanner::ConnectionRecord;
use serde::{Deserialize, Serialize};

/// The paper's Fig. 3 bin edges in milliseconds.
pub fn fig3_edges() -> Vec<f64> {
    vec![-200.0, -100.0, -50.0, -25.0, 0.0, 25.0, 50.0, 100.0, 200.0]
}

/// One series of Fig. 3 (e.g. Spin in received order): a histogram of
/// per-connection mean differences (ms) plus the counts behind its shares.
/// Every share is a count over [`connections`](Self::connections), so a
/// series merged from any split of the records is the same series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracySeries {
    /// The histogram of mean differences (ms).
    pub histogram: Histogram,
    /// Connections overestimating (diff > 0).
    pub overestimates: u64,
    /// Connections with |diff| ≤ 25 ms.
    pub within_25ms: u64,
    /// Connections overestimating by more than 200 ms.
    pub over_200ms: u64,
}

impl Default for AccuracySeries {
    fn default() -> Self {
        AccuracySeries {
            histogram: Histogram::new(fig3_edges()),
            overestimates: 0,
            within_25ms: 0,
            over_200ms: 0,
        }
    }
}

impl AccuracySeries {
    /// Adds one connection's mean difference (ms).
    pub fn add(&mut self, diff_ms: f64) {
        self.histogram.add(diff_ms);
        self.overestimates += u64::from(diff_ms > 0.0);
        self.within_25ms += u64::from(diff_ms.abs() <= 25.0);
        self.over_200ms += u64::from(diff_ms > 200.0);
    }

    /// Adds a series accumulated over other connections.
    pub fn merge(&mut self, other: AccuracySeries) {
        self.histogram.merge(other.histogram);
        self.overestimates += other.overestimates;
        self.within_25ms += other.within_25ms;
        self.over_200ms += other.over_200ms;
    }

    /// Number of connections contributing.
    pub fn connections(&self) -> u64 {
        self.histogram.total()
    }

    /// Share of connections overestimating (diff > 0).
    pub fn overestimate_share(&self) -> f64 {
        self.histogram.share_of(self.overestimates)
    }

    /// Share with |diff| ≤ 25 ms.
    pub fn within_25ms_share(&self) -> f64 {
        self.histogram.share_of(self.within_25ms)
    }

    /// Share overestimating by more than 200 ms.
    pub fn over_200ms_share(&self) -> f64 {
        self.histogram.share_of(self.over_200ms)
    }
}

/// Fig. 3: all four series (Spin/Grease × received/sorted order).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AbsoluteAccuracyFigure {
    /// Spinning connections, received order (R).
    pub spin_received: AccuracySeries,
    /// Spinning connections, sorted by packet number (S).
    pub spin_sorted: AccuracySeries,
    /// Grease-filtered connections, received order.
    pub grease_received: AccuracySeries,
    /// Grease-filtered connections, sorted order.
    pub grease_sorted: AccuracySeries,
}

impl AbsoluteAccuracyFigure {
    /// Computes Fig. 3 from connection records.
    pub fn from_records<'a>(records: impl Iterator<Item = &'a ConnectionRecord>) -> Self {
        let mut fig = Self::default();
        records.for_each(|r| fig.add(r));
        fig
    }

    /// Adds one record: a spinning or greased connection contributes its
    /// received- and sorted-order differences; any other record nothing.
    pub fn add(&mut self, record: &ConnectionRecord) {
        let Some(report) = &record.report else { return };
        let (received, sorted) = match report.classification {
            FlowClassification::Spinning => (&mut self.spin_received, &mut self.spin_sorted),
            FlowClassification::Greased => (&mut self.grease_received, &mut self.grease_sorted),
            _ => return,
        };
        if let Some(acc) = report.accuracy_received() {
            received.add(acc.abs_diff_ms());
        }
        if let Some(acc) = report.accuracy_sorted() {
            sorted.add(acc.abs_diff_ms());
        }
    }

    /// Adds a figure accumulated over other records.
    pub fn merge(&mut self, other: AbsoluteAccuracyFigure) {
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
    fn spin_series_counts_diffs() {
        let records = [
            record(FlowClassification::Spinning, 50_000, 40_000), // +10 ms
            record(FlowClassification::Spinning, 300_000, 40_000), // +260 ms
            record(FlowClassification::Spinning, 30_000, 40_000), // -10 ms
            record(FlowClassification::Greased, 1_000, 40_000),   // grease
            record(FlowClassification::AllZero, 0, 40_000),       // excluded
        ];
        let fig = AbsoluteAccuracyFigure::from_records(records.iter());
        assert_eq!(fig.spin_received.connections(), 3);
        assert_eq!(fig.grease_received.connections(), 1);
        assert!((fig.spin_received.overestimate_share() - 2.0 / 3.0).abs() < 1e-12);
        assert!((fig.spin_received.within_25ms_share() - 2.0 / 3.0).abs() < 1e-12);
        assert!((fig.spin_received.over_200ms_share() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_zero_records_do_not_contribute() {
        let records = [record(FlowClassification::AllZero, 0, 40_000)];
        let fig = AbsoluteAccuracyFigure::from_records(records.iter());
        assert_eq!(fig.spin_received.connections(), 0);
        assert_eq!(fig.grease_received.connections(), 0);
    }

    #[test]
    fn histogram_covers_all_contributions() {
        let records: Vec<_> = (0..20)
            .map(|i| record(FlowClassification::Spinning, 40_000 + i * 20_000, 40_000))
            .collect();
        let fig = AbsoluteAccuracyFigure::from_records(records.iter());
        assert_eq!(fig.spin_received.histogram.total(), 20);
        let shares: f64 = fig.spin_received.histogram.shares().iter().sum();
        assert!((shares - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merged_halves_equal_one_pass() {
        let records: Vec<_> = (0..9)
            .map(|i| record(FlowClassification::Spinning, 10_000 + i * 30_000, 40_000))
            .collect();
        let whole = AbsoluteAccuracyFigure::from_records(records.iter());
        let mut back = AbsoluteAccuracyFigure::from_records(records[4..].iter());
        back.merge(AbsoluteAccuracyFigure::from_records(records[..4].iter()));
        assert_eq!(back, whole);
        assert_eq!(
            back.spin_received.over_200ms_share(),
            whole.spin_received.over_200ms_share()
        );
    }

    #[test]
    fn edges_match_paper_bins() {
        let edges = fig3_edges();
        assert!(edges.contains(&25.0) && edges.contains(&-25.0));
        assert!(edges.contains(&200.0));
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
    }
}
