//! The Table 3 flow taxonomy: how does a connection set its spin bit?

use crate::edge::{EdgeMachine, EdgePolicy};
use crate::grease::GreaseFilter;
use crate::observation::PacketObservation;
use serde::{Deserialize, Serialize};

/// How a connection used the spin bit, per the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowClassification {
    /// No 1-RTT packets were observed (nothing to classify).
    NoShortPackets,
    /// Every observed packet carried spin 0 — the dominant way of
    /// disabling the spin bit in the wild (includes per-connection
    /// greasing that happened to pick 0).
    AllZero,
    /// Every observed packet carried spin 1 (rare; includes
    /// per-connection greasing that picked 1).
    AllOne,
    /// The bit flipped and the resulting RTT estimates are consistent
    /// with a genuine spin signal.
    Spinning,
    /// The bit flipped but at least one spin RTT estimate undercuts the
    /// stack minimum — presumed per-packet greasing (§3.3 filter).
    Greased,
}

impl FlowClassification {
    /// Whether the connection showed *any* spin activity (flips),
    /// i.e. it lands in the paper's "Spin" candidate column before
    /// grease filtering.
    pub fn has_activity(self) -> bool {
        matches!(
            self,
            FlowClassification::Spinning | FlowClassification::Greased
        )
    }
}

impl core::fmt::Display for FlowClassification {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            FlowClassification::NoShortPackets => "no-short-packets",
            FlowClassification::AllZero => "all-zero",
            FlowClassification::AllOne => "all-one",
            FlowClassification::Spinning => "spinning",
            FlowClassification::Greased => "greased",
        })
    }
}

/// Classifies a connection from its observations and the QUIC stack's
/// minimum RTT estimate (µs), applying the grease filter when available.
pub fn classify_flow(
    observations: &[PacketObservation],
    min_stack_rtt_us: Option<u64>,
    grease_filter: GreaseFilter,
) -> FlowClassification {
    let (machine, samples) = EdgeMachine::fold(observations, &EdgePolicy::RAW);
    classify(&machine, &samples, min_stack_rtt_us, grease_filter)
}

/// Classifies a connection from the [`EdgePolicy::RAW`] machine that ran
/// over its received packets and the samples that machine yielded.
pub fn classify(
    machine: &EdgeMachine,
    samples_us: &[u64],
    min_stack_rtt_us: Option<u64>,
    grease_filter: GreaseFilter,
) -> FlowClassification {
    let (zeros, ones) = machine.value_counts();
    if zeros + ones == 0 {
        return FlowClassification::NoShortPackets;
    }
    if ones == 0 {
        return FlowClassification::AllZero;
    }
    if zeros == 0 {
        return FlowClassification::AllOne;
    }
    if let Some(min_stack) = min_stack_rtt_us {
        if grease_filter.is_greased(samples_us, min_stack) {
            return FlowClassification::Greased;
        }
    }
    FlowClassification::Spinning
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(t_ms: u64, spin: bool) -> PacketObservation {
        PacketObservation::wire(t_ms * 1000, spin)
    }

    #[test]
    fn empty_is_no_short_packets() {
        assert_eq!(
            classify_flow(&[], Some(40_000), GreaseFilter::paper()),
            FlowClassification::NoShortPackets
        );
    }

    #[test]
    fn all_zero() {
        let seq = vec![obs(0, false), obs(10, false), obs(20, false)];
        assert_eq!(
            classify_flow(&seq, Some(40_000), GreaseFilter::paper()),
            FlowClassification::AllZero
        );
    }

    #[test]
    fn all_one() {
        let seq = vec![obs(0, true), obs(10, true)];
        assert_eq!(
            classify_flow(&seq, Some(40_000), GreaseFilter::paper()),
            FlowClassification::AllOne
        );
    }

    #[test]
    fn genuine_spin() {
        // 40 ms square wave against a 40 ms stack minimum.
        let seq = vec![obs(0, false), obs(40, true), obs(80, false), obs(120, true)];
        assert_eq!(
            classify_flow(&seq, Some(40_000), GreaseFilter::paper()),
            FlowClassification::Spinning
        );
    }

    #[test]
    fn per_packet_grease_detected() {
        // Flips every 1 ms against a 40 ms path.
        let seq: Vec<_> = (0..10).map(|t| obs(t, t % 2 == 0)).collect();
        assert_eq!(
            classify_flow(&seq, Some(40_000), GreaseFilter::paper()),
            FlowClassification::Greased
        );
    }

    #[test]
    fn without_stack_rtt_flips_count_as_spinning() {
        // No baseline available → grease filter cannot run (paper requires
        // the QUIC stack estimate to apply it).
        let seq: Vec<_> = (0..10).map(|t| obs(t, t % 2 == 0)).collect();
        assert_eq!(
            classify_flow(&seq, None, GreaseFilter::paper()),
            FlowClassification::Spinning
        );
    }

    #[test]
    fn single_packet_classifies_by_value() {
        assert_eq!(
            classify_flow(&[obs(0, false)], None, GreaseFilter::paper()),
            FlowClassification::AllZero
        );
        assert_eq!(
            classify_flow(&[obs(0, true)], None, GreaseFilter::paper()),
            FlowClassification::AllOne
        );
    }

    #[test]
    fn activity_flag() {
        assert!(FlowClassification::Spinning.has_activity());
        assert!(FlowClassification::Greased.has_activity());
        assert!(!FlowClassification::AllZero.has_activity());
        assert!(!FlowClassification::AllOne.has_activity());
        assert!(!FlowClassification::NoShortPackets.has_activity());
    }

    #[test]
    fn display_names() {
        assert_eq!(FlowClassification::Spinning.to_string(), "spinning");
        assert_eq!(FlowClassification::AllZero.to_string(), "all-zero");
    }
}
