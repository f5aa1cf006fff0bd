//! Per-connection observer report: everything the analysis pipeline needs
//! about one connection, in one structure.

use crate::accuracy::AccuracySample;
use crate::classify::{classify, FlowClassification};
use crate::edge::{EdgeMachine, EdgePolicy};
use crate::grease::GreaseFilter;
use crate::observation::PacketObservation;
use crate::reorder::ReorderComparison;
use serde::{Deserialize, Serialize};

/// The complete spin-bit assessment of one connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObserverReport {
    /// Table 3 classification.
    pub classification: FlowClassification,
    /// Number of observed 1-RTT packets.
    pub packets: usize,
    /// Spin RTT samples, received order (µs) — the paper's R mode.
    pub spin_samples_received_us: Vec<u64>,
    /// Spin RTT samples, packet-number order (µs) — the paper's S mode.
    pub spin_samples_sorted_us: Vec<u64>,
    /// The QUIC stack's RTT samples (µs), when available.
    pub stack_samples_us: Vec<u64>,
}

impl ObserverReport {
    /// Builds the report for one connection.
    ///
    /// `observations` is the received-order packet sequence (§3.3);
    /// `stack_samples_us` are the endpoint's own RTT estimates used both
    /// as the accuracy baseline and for the grease filter. One
    /// [`EdgePolicy::RAW`] pass over the received order feeds both the
    /// classification and the R side of the R/S comparison.
    pub fn build(
        observations: &[PacketObservation],
        stack_samples_us: Vec<u64>,
        grease: GreaseFilter,
    ) -> Self {
        let min_stack = stack_samples_us.iter().copied().min();
        let (received, samples) = EdgeMachine::fold(observations, &EdgePolicy::RAW);
        let classification = classify(&received, &samples, min_stack, grease);
        let cmp = ReorderComparison::with_received(observations, samples);
        ObserverReport {
            classification,
            packets: observations.len(),
            spin_samples_received_us: cmp.samples_received_us,
            spin_samples_sorted_us: cmp.samples_sorted_us,
            stack_samples_us,
        }
    }

    /// Mean spin RTT (received order) in ms.
    pub fn spin_rtt_mean_ms(&self) -> Option<f64> {
        mean_ms(&self.spin_samples_received_us)
    }

    /// Mean spin RTT (sorted order) in ms.
    pub fn spin_rtt_mean_sorted_ms(&self) -> Option<f64> {
        mean_ms(&self.spin_samples_sorted_us)
    }

    /// Mean stack RTT in ms.
    pub fn stack_rtt_mean_ms(&self) -> Option<f64> {
        mean_ms(&self.stack_samples_us)
    }

    /// Fig. 3/4 accuracy sample, received order.
    pub fn accuracy_received(&self) -> Option<AccuracySample> {
        AccuracySample::from_samples_us(&self.spin_samples_received_us, &self.stack_samples_us)
    }

    /// Fig. 3/4 accuracy sample, sorted order.
    pub fn accuracy_sorted(&self) -> Option<AccuracySample> {
        AccuracySample::from_samples_us(&self.spin_samples_sorted_us, &self.stack_samples_us)
    }

    /// Whether R and S orders disagree (§5.2 reordering impact).
    pub fn reordering_changed_result(&self) -> bool {
        self.spin_samples_received_us != self.spin_samples_sorted_us
    }
}

fn mean_ms(samples: &[u64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(t_ms: u64, pn: u64, spin: bool) -> PacketObservation {
        PacketObservation::qlog(t_ms * 1000, pn, spin)
    }

    fn clean_flow() -> Vec<PacketObservation> {
        vec![
            obs(0, 0, false),
            obs(40, 1, true),
            obs(80, 2, false),
            obs(120, 3, true),
        ]
    }

    #[test]
    fn report_for_clean_spinning_flow() {
        let report =
            ObserverReport::build(&clean_flow(), vec![40_000, 40_000], GreaseFilter::paper());
        assert_eq!(report.classification, FlowClassification::Spinning);
        assert_eq!(report.packets, 4);
        assert_eq!(report.spin_rtt_mean_ms(), Some(40.0));
        assert_eq!(report.stack_rtt_mean_ms(), Some(40.0));
        assert!(!report.reordering_changed_result());
        let acc = report.accuracy_received().unwrap();
        assert_eq!(acc.mapped_ratio(), 1.0);
    }

    #[test]
    fn report_for_overestimating_flow() {
        // Spin period inflated by 200 ms server processing.
        let seq = vec![obs(0, 0, false), obs(240, 1, true), obs(480, 2, false)];
        let report = ObserverReport::build(&seq, vec![40_000], GreaseFilter::paper());
        let acc = report.accuracy_received().unwrap();
        assert!(acc.overestimates());
        assert_eq!(acc.mapped_ratio(), 6.0);
        assert_eq!(acc.abs_diff_ms(), 200.0);
    }

    #[test]
    fn report_for_all_zero_flow_has_no_accuracy() {
        let seq = vec![obs(0, 0, false), obs(40, 1, false)];
        let report = ObserverReport::build(&seq, vec![40_000], GreaseFilter::paper());
        assert_eq!(report.classification, FlowClassification::AllZero);
        assert!(report.accuracy_received().is_none());
    }

    #[test]
    fn greased_flow_flagged() {
        let seq: Vec<_> = (0..10).map(|t| obs(t, t, t % 2 == 0)).collect();
        let report = ObserverReport::build(&seq, vec![40_000], GreaseFilter::paper());
        assert_eq!(report.classification, FlowClassification::Greased);
        // Accuracy is still computable for greased flows — the paper's
        // Fig. 3/4 include a Grease series.
        assert!(report.accuracy_received().is_some());
    }

    #[test]
    fn no_stack_samples_no_accuracy() {
        let report = ObserverReport::build(&clean_flow(), vec![], GreaseFilter::paper());
        assert!(report.accuracy_received().is_none());
        assert!(report.accuracy_sorted().is_none());
        assert_eq!(report.stack_rtt_mean_ms(), None);
    }

    #[test]
    fn serde_roundtrip() {
        let report = ObserverReport::build(&clean_flow(), vec![40_000], GreaseFilter::paper());
        let json = serde_json::to_string(&report).unwrap();
        let back: ObserverReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
