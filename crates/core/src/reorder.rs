//! §5.1's R/S methodology: received order vs. packet-number order.
//!
//! The paper runs every RTT computation twice — once over the packets in
//! the order they were received (**R**), potentially including
//! reordering, and once with the packets sorted by packet number (**S**)
//! — and compares the outcomes to quantify how much reordering actually
//! disturbs spin measurements in the wild (§5.2: almost not at all).

use crate::edge::{EdgeMachine, EdgePolicy};
use crate::observation::PacketObservation;
use serde::{Deserialize, Serialize};

/// Sorts observations by packet number (stable for equal/missing numbers).
///
/// Observations without packet numbers keep their relative received order
/// (a passive observer without oracle access cannot sort at all — the
/// paper can, because it reads its own client's qlog).
pub fn sort_by_packet_number(observations: &[PacketObservation]) -> Vec<PacketObservation> {
    let mut sorted = observations.to_vec();
    sorted.sort_by_key(|o| o.packet_number.unwrap_or(u64::MAX));
    sorted
}

/// Outcome of running the observer in both R and S modes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReorderComparison {
    /// Spin RTT samples in received order (µs).
    pub samples_received_us: Vec<u64>,
    /// Spin RTT samples in sorted order (µs).
    pub samples_sorted_us: Vec<u64>,
}

impl ReorderComparison {
    /// Runs the comparison for one connection.
    pub fn run(observations: &[PacketObservation]) -> Self {
        let (_, received) = EdgeMachine::fold(observations, &EdgePolicy::RAW);
        Self::with_received(observations, received)
    }

    /// Completes the comparison from the samples an [`EdgePolicy::RAW`]
    /// pass over the received order already yielded: only the sorted
    /// pass runs.
    pub fn with_received(
        observations: &[PacketObservation],
        samples_received_us: Vec<u64>,
    ) -> Self {
        let sorted = sort_by_packet_number(observations);
        let (_, samples_sorted_us) = EdgeMachine::fold(&sorted, &EdgePolicy::RAW);
        ReorderComparison {
            samples_received_us,
            samples_sorted_us,
        }
    }

    /// Mean of the received-order samples in ms.
    pub fn mean_received_ms(&self) -> Option<f64> {
        mean_ms(&self.samples_received_us)
    }

    /// Mean of the sorted-order samples in ms.
    pub fn mean_sorted_ms(&self) -> Option<f64> {
        mean_ms(&self.samples_sorted_us)
    }

    /// Whether sorting changed the outcome at all (the paper: only 0.28 %
    /// of connections differ).
    pub fn differs(&self) -> bool {
        self.samples_received_us != self.samples_sorted_us
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

    #[test]
    fn sort_orders_by_pn() {
        let seq = vec![obs(0, 2, false), obs(1, 0, false), obs(2, 1, true)];
        let sorted = sort_by_packet_number(&seq);
        let pns: Vec<u64> = sorted.iter().map(|o| o.packet_number.unwrap()).collect();
        assert_eq!(pns, vec![0, 1, 2]);
    }

    #[test]
    fn observations_without_pn_sink_to_end_stably() {
        let a = PacketObservation::wire(1, true);
        let b = PacketObservation::wire(2, false);
        let seq = vec![a, obs(0, 5, false), b];
        let sorted = sort_by_packet_number(&seq);
        assert_eq!(sorted[0].packet_number, Some(5));
        assert_eq!(sorted[1], a);
        assert_eq!(sorted[2], b);
    }

    #[test]
    fn in_order_flow_shows_no_difference() {
        let seq = vec![
            obs(0, 0, false),
            obs(40, 1, true),
            obs(80, 2, false),
            obs(120, 3, true),
        ];
        let cmp = ReorderComparison::run(&seq);
        assert!(!cmp.differs());
        assert_eq!(cmp.mean_received_ms(), Some(40.0));
    }

    #[test]
    fn reordered_edge_detected_and_repaired_by_sorting() {
        // Packet 2 (spin=1, the edge) overtakes packet 1 (spin=0):
        // received order sees edges at 39 and 41 → one bogus 2 ms sample.
        let seq = vec![
            obs(0, 0, false),
            obs(39, 2, true),  // overtook
            obs(41, 1, false), // stale
            obs(42, 3, true),
            obs(80, 4, false),
        ];
        let cmp = ReorderComparison::run(&seq);
        assert!(cmp.differs());
        // Sorted order: 0(f) 1(f) 2(t)@39 3(t) 4(f)@80 → edges at 39, 80.
        assert_eq!(cmp.samples_sorted_us, vec![41_000]);
        // Received order: edges at 39(t), 41(f), 42(t), 80(f).
        assert_eq!(cmp.samples_received_us, vec![2_000, 1_000, 38_000]);
        // Sorting improves accuracy toward the real ~40 ms RTT.
        let real = 40.0;
        assert!(
            (cmp.mean_sorted_ms().unwrap() - real).abs()
                < (cmp.mean_received_ms().unwrap() - real).abs()
        );
    }

    proptest::proptest! {
        #[test]
        fn prop_in_order_flows_never_differ(
            rtt_ms in 1u64..500,
            periods in 2usize..20,
        ) {
            // A clean square wave delivered in order must be R/S identical.
            let mut seq = Vec::new();
            for i in 0..periods {
                seq.push(obs(i as u64 * rtt_ms, i as u64, i % 2 == 1));
            }
            let cmp = ReorderComparison::run(&seq);
            proptest::prop_assert!(!cmp.differs());
        }

        #[test]
        fn prop_sorted_mode_is_permutation_invariant(
            perm_seed in 0u64..1000,
        ) {
            // Shuffling the received order must not change the S results.
            let base: Vec<PacketObservation> =
                (0..12u64).map(|i| obs(i * 40, i, i % 2 == 1)).collect();
            let mut shuffled = base.clone();
            // Deterministic Fisher-Yates from the seed.
            let mut state = perm_seed.wrapping_add(1);
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                shuffled.swap(i, j);
            }
            let a = ReorderComparison::run(&base);
            let b = ReorderComparison::run(&shuffled);
            proptest::prop_assert_eq!(a.samples_sorted_us, b.samples_sorted_us);
        }
    }
}
