//! §5.2's reordering impact statistics: how often does processing packets
//! in received order (R) versus packet-number order (S) change the
//! outcome, and by how much?

use quicspin_scanner::ConnectionRecord;
use serde::{Deserialize, Serialize};

/// Aggregate reordering-impact statistics over a set of connections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ReorderingImpact {
    /// Connections with spin activity considered.
    pub connections: u64,
    /// Connections where the R and S sample lists differ (paper: 0.28 %).
    pub differing: u64,
    /// Among differing: mean |Δ| < 1 ms (paper: 98.7 %).
    pub small_delta: u64,
    /// Among differing: sorting moved the mean closer to the stack mean
    /// (paper: 93.1 % improved).
    pub improved: u64,
}

impl ReorderingImpact {
    /// Computes the statistics from records with spin activity (Spin +
    /// Grease classes, as both have samples).
    pub fn from_records<'a>(records: impl Iterator<Item = &'a ConnectionRecord>) -> Self {
        let mut out = ReorderingImpact::default();
        records.for_each(|r| out.add(r));
        out
    }

    /// Adds one record; records without spin activity count nothing.
    pub fn add(&mut self, record: &ConnectionRecord) {
        let Some(report) = &record.report else { return };
        if !report.classification.has_activity() {
            return;
        }
        self.connections += 1;
        if !report.reordering_changed_result() {
            return;
        }
        self.differing += 1;
        let (Some(mean_r), Some(mean_s)) =
            (report.spin_rtt_mean_ms(), report.spin_rtt_mean_sorted_ms())
        else {
            return;
        };
        if (mean_r - mean_s).abs() < 1.0 {
            self.small_delta += 1;
        }
        if let Some(stack) = report.stack_rtt_mean_ms() {
            if (mean_s - stack).abs() < (mean_r - stack).abs() {
                self.improved += 1;
            }
        }
    }

    /// Merges counters accumulated over a disjoint record set. All
    /// fields are plain counts, so the merge is order-independent.
    pub fn merge(&mut self, other: ReorderingImpact) {
        self.connections += other.connections;
        self.differing += other.differing;
        self.small_delta += other.small_delta;
        self.improved += other.improved;
    }

    /// Share of connections where R and S differ.
    pub fn differing_share(&self) -> f64 {
        if self.connections == 0 {
            0.0
        } else {
            self.differing as f64 / self.connections as f64
        }
    }

    /// Among differing connections, the share with |Δmean| < 1 ms.
    pub fn small_delta_share(&self) -> f64 {
        if self.differing == 0 {
            0.0
        } else {
            self.small_delta as f64 / self.differing as f64
        }
    }

    /// Among differing connections, the share where sorting improved the
    /// estimate.
    pub fn improved_share(&self) -> f64 {
        if self.differing == 0 {
            0.0
        } else {
            self.improved as f64 / self.differing as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_core::{FlowClassification, ObserverReport};
    use quicspin_scanner::ScanOutcome;
    use quicspin_webpop::{IpVersion, ListKind, Org};

    fn record(received_us: Vec<u64>, sorted_us: Vec<u64>) -> ConnectionRecord {
        let mut r = ConnectionRecord::failed(
            0,
            ListKind::ZoneComNetOrg,
            Org::Hostinger,
            0,
            IpVersion::V4,
            ScanOutcome::Ok,
        );
        r.report = Some(ObserverReport {
            classification: FlowClassification::Spinning,
            packets: 10,
            spin_samples_received_us: received_us,
            spin_samples_sorted_us: sorted_us,
            stack_samples_us: vec![40_000],
        });
        r
    }

    #[test]
    fn identical_orders_do_not_differ() {
        let records = [record(vec![40_000], vec![40_000])];
        let impact = ReorderingImpact::from_records(records.iter());
        assert_eq!(impact.connections, 1);
        assert_eq!(impact.differing, 0);
        assert_eq!(impact.differing_share(), 0.0);
        assert_eq!(impact.small_delta_share(), 0.0);
    }

    #[test]
    fn differing_orders_counted_and_improvement_detected() {
        // R has a reordering artefact (1 ms bogus sample) → mean 20.5 ms;
        // S is the clean 41 ms, much closer to the 40 ms stack mean.
        let records = [
            record(vec![1_000, 40_000], vec![41_000]),
            record(vec![40_000], vec![40_000]),
        ];
        let impact = ReorderingImpact::from_records(records.iter());
        assert_eq!(impact.connections, 2);
        assert_eq!(impact.differing, 1);
        assert!((impact.differing_share() - 0.5).abs() < 1e-12);
        assert_eq!(impact.improved, 1);
        assert_eq!(impact.improved_share(), 1.0);
        // Mean delta is 20.5 ms, not small.
        assert_eq!(impact.small_delta, 0);
    }

    #[test]
    fn small_delta_detected() {
        // Means differ by 0.5 ms.
        let records = [record(vec![40_000, 41_000], vec![40_000, 42_000])];
        let impact = ReorderingImpact::from_records(records.iter());
        assert_eq!(impact.differing, 1);
        assert_eq!(impact.small_delta, 1);
        assert_eq!(impact.small_delta_share(), 1.0);
    }

    #[test]
    fn non_active_flows_excluded() {
        let mut r = record(vec![], vec![]);
        r.report.as_mut().unwrap().classification = FlowClassification::AllZero;
        let impact = ReorderingImpact::from_records(std::iter::once(&r));
        assert_eq!(impact.connections, 0);
    }
}
