//! The spin-edge machine: one fixed-size state per flow direction.
//!
//! Every spin RTT in the workspace comes from the same rule: the spin
//! value of one direction is a square wave whose half-period is one
//! round trip, because each flip must reach the peer and be reflected
//! back before the next flip can appear (RFC 9000 §17.4). An
//! [`EdgeMachine`] watches one direction, detects **edges** (packets
//! whose spin differs from the kept value) and turns the time between
//! consecutive accepted edges into an RTT sample.
//!
//! The client-side extraction (Fig. 3/4) and the on-path observer both
//! run this one machine; they differ only in the [`EdgePolicy`] they
//! pass:
//!
//! * [`EdgePolicy::RAW`] — the paper's baseline: every edge after the
//!   first yields a sample.
//! * [`EdgePolicy::ON_PATH`] — RFC 9312 §4.2 validity heuristics against
//!   the median of the last [`PERIOD_WINDOW`] accepted periods. A period
//!   below `min_period_frac` × median is a reordering artifact (a stale
//!   packet faking an edge): it is rejected *without* taking its value
//!   or moving the clock, so the packet that flips back matches the kept
//!   state and the wave re-synchronizes. A period above
//!   `max_period_factor` × median is a loss gap: the edge is real (the
//!   clock moves) but the sample is dropped.
//!
//! The state holds no heap field — the period window is a 16-slot ring,
//! the size budget of a per-flow register set on a programmable switch.
//! [`EdgeMachine::observe`] hands each accepted sample to the caller,
//! who keeps a sample list only if it needs one.
//!
//! A tap that sees both directions also splits the RTT at its own
//! position (RFC 9312 §4.2.1): [`component`] pairs an accepted edge with
//! the opposite direction's last accepted edge.

use crate::observation::PacketObservation;
use crate::vec_counter::VEC_MAX;
use serde::{Deserialize, Serialize};

/// Accepted periods the running median looks back over.
pub const PERIOD_WINDOW: usize = 16;

/// The settable validity rules of an [`EdgeMachine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgePolicy {
    /// Reject an edge as reordering when its period is below this
    /// fraction of the running median period. 0 disables the check.
    pub min_period_frac: f64,
    /// Reject a sample as a loss gap when its period exceeds this
    /// multiple of the running median period. 0 disables the check.
    pub max_period_factor: f64,
    /// Only edges carried by a saturated Valid Edge Counter (VEC == 3)
    /// move the clock and yield samples. Plain RFC 9000 endpoints send
    /// VEC 0, which would suppress every sample.
    pub require_valid_edge: bool,
}

impl EdgePolicy {
    /// Every edge after the first yields a sample (the paper's baseline).
    pub const RAW: EdgePolicy = EdgePolicy {
        min_period_frac: 0.0,
        max_period_factor: 0.0,
        require_valid_edge: false,
    };

    /// The on-path observer's reordering and loss-gap heuristics.
    pub const ON_PATH: EdgePolicy = EdgePolicy {
        min_period_frac: 0.25,
        max_period_factor: 4.0,
        require_valid_edge: false,
    };

    fn uses_median(&self) -> bool {
        self.min_period_frac > 0.0 || self.max_period_factor > 0.0
    }
}

/// Which direction a packet crossed the tap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Client → server.
    Upstream,
    /// Server → client.
    Downstream,
}

impl Direction {
    /// Index of this direction in a `[_; 2]` pair (upstream first).
    pub fn index(self) -> usize {
        match self {
            Direction::Upstream => 0,
            Direction::Downstream => 1,
        }
    }
}

/// A spin edge: when it was seen and the spin value it flipped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// When the edge was observed (µs).
    pub time_us: u64,
    /// The spin value after the flip.
    pub value: bool,
}

/// An edge the machine accepted, i.e. one that moved its period clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceptedEdge {
    /// The edge.
    pub edge: Edge,
    /// The RTT sample it completed (µs), unless it was the first edge or
    /// a loss gap.
    pub sample: Option<u64>,
}

/// Count, sum and range of a sample stream, without the samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleSummary {
    count: u64,
    sum_us: u64,
    min_us: u64,
    max_us: u64,
}

impl SampleSummary {
    /// Adds one sample (µs).
    pub fn add(&mut self, sample_us: u64) {
        if self.count == 0 {
            self.min_us = sample_us;
            self.max_us = sample_us;
        } else {
            self.min_us = self.min_us.min(sample_us);
            self.max_us = self.max_us.max(sample_us);
        }
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(sample_us);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean in µs, rounded down.
    pub fn mean_us(&self) -> Option<u64> {
        (self.count > 0).then(|| self.sum_us / self.count)
    }

    /// Mean in ms.
    pub fn mean_ms(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_us as f64 / self.count as f64 / 1000.0)
    }

    /// Smallest sample (µs).
    pub fn min_us(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min_us)
    }

    /// Largest sample (µs).
    pub fn max_us(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max_us)
    }
}

/// The last [`PERIOD_WINDOW`] accepted periods, oldest overwritten first.
#[derive(Debug, Clone, Copy, Default)]
struct PeriodRing {
    periods: [u64; PERIOD_WINDOW],
    len: u8,
    next: u8,
}

impl PeriodRing {
    fn push(&mut self, period_us: u64) {
        self.periods[self.next as usize] = period_us;
        self.next = ((self.next as usize + 1) % PERIOD_WINDOW) as u8;
        if (self.len as usize) < PERIOD_WINDOW {
            self.len += 1;
        }
    }

    fn median(&self) -> Option<f64> {
        let n = self.len as usize;
        if n == 0 {
            return None;
        }
        let mut sorted = self.periods;
        let sorted = &mut sorted[..n];
        sorted.sort_unstable();
        Some(if n % 2 == 1 {
            sorted[n / 2] as f64
        } else {
            (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0
        })
    }
}

/// Spin-edge state of one flow direction. Fixed size: nothing in it
/// grows with the flow.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeMachine {
    last_spin: Option<bool>,
    last_edge: Option<Edge>,
    edges: u64,
    zeros: u64,
    ones: u64,
    rejected_reorder: u64,
    rejected_gap: u64,
    samples: SampleSummary,
    periods: PeriodRing,
}

impl EdgeMachine {
    /// A machine that has seen nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs a whole observation sequence through a fresh machine; returns
    /// it with the accepted samples in order.
    pub fn fold(observations: &[PacketObservation], policy: &EdgePolicy) -> (Self, Vec<u64>) {
        let mut machine = EdgeMachine::new();
        let samples = observations
            .iter()
            .filter_map(|o| machine.observe(o, policy))
            .collect();
        (machine, samples)
    }

    /// Feeds one packet. Returns the RTT sample (µs) if the packet
    /// completed an accepted spin period.
    pub fn observe(&mut self, obs: &PacketObservation, policy: &EdgePolicy) -> Option<u64> {
        self.observe_edge(obs, policy)?.sample
    }

    /// Feeds one packet. Returns the edge it carried if the machine
    /// accepted it (moved its period clock), with the sample it completed.
    pub fn observe_edge(
        &mut self,
        obs: &PacketObservation,
        policy: &EdgePolicy,
    ) -> Option<AcceptedEdge> {
        if obs.spin {
            self.ones += 1;
        } else {
            self.zeros += 1;
        }
        let prev = match self.last_spin {
            None => {
                // The first packet sets the level a wave needs before an
                // edge can appear.
                self.last_spin = Some(obs.spin);
                return None;
            }
            Some(v) => v,
        };
        if prev == obs.spin {
            return None;
        }
        self.edges += 1;
        let edge = Edge {
            time_us: obs.time_us,
            value: obs.spin,
        };
        if policy.require_valid_edge && obs.vec != VEC_MAX {
            // An edge the VEC marks invalid: take its value, but do not
            // restart the period clock from it.
            self.last_spin = Some(obs.spin);
            return None;
        }
        let Some(prev_edge) = self.last_edge else {
            // The first edge starts the period clock: no sample yet.
            self.last_spin = Some(obs.spin);
            self.last_edge = Some(edge);
            return Some(AcceptedEdge { edge, sample: None });
        };
        // Saturating: a corrupt capture with non-monotonic times yields a
        // zero period, never a panic.
        let period = obs.time_us.saturating_sub(prev_edge.time_us);
        let median = if policy.uses_median() {
            self.periods.median()
        } else {
            None
        };
        if let Some(m) = median {
            if policy.min_period_frac > 0.0 && (period as f64) < policy.min_period_frac * m {
                // Reordering: keep the pre-edge state so the flip-back
                // packet re-synchronizes instead of faking a second edge.
                self.rejected_reorder += 1;
                return None;
            }
        }
        self.last_spin = Some(obs.spin);
        self.last_edge = Some(edge);
        if let Some(m) = median {
            if policy.max_period_factor > 0.0 && (period as f64) > policy.max_period_factor * m {
                // A lost edge inflated this period to a multiple of the
                // RTT; the edge is real but the sample is not.
                self.rejected_gap += 1;
                return Some(AcceptedEdge { edge, sample: None });
            }
        }
        self.periods.push(period);
        self.samples.add(period);
        Some(AcceptedEdge {
            edge,
            sample: Some(period),
        })
    }

    /// Raw edges seen, including rejected and VEC-invalid ones.
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// Packets seen with spin == 0 and spin == 1.
    pub fn value_counts(&self) -> (u64, u64) {
        (self.zeros, self.ones)
    }

    /// Packets seen.
    pub fn packets(&self) -> u64 {
        self.zeros + self.ones
    }

    /// Edges rejected as reordering artifacts.
    pub fn rejected_reorder(&self) -> u64 {
        self.rejected_reorder
    }

    /// Periods rejected as loss gaps.
    pub fn rejected_gap(&self) -> u64 {
        self.rejected_gap
    }

    /// The last accepted edge.
    pub fn last_edge(&self) -> Option<Edge> {
        self.last_edge
    }

    /// Count, sum and range of the accepted samples.
    pub fn samples(&self) -> &SampleSummary {
        &self.samples
    }
}

/// One RFC 9312 §4.2.1 component of the RTT, split at the tap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// Tap → server → tap (µs).
    ServerSide(u64),
    /// Tap → client → tap (µs).
    ClientSide(u64),
}

/// The component an accepted `edge` in `dir` closes against the opposite
/// direction's last accepted edge.
///
/// A downstream edge that reflects the last upstream value closes the
/// server-side component; an upstream edge that inverts the last
/// downstream value closes the client-side one. Anything else (no
/// opposite edge yet, a mismatched value, a time running backwards)
/// yields nothing.
pub fn component(dir: Direction, edge: Edge, opposite: Option<Edge>) -> Option<Component> {
    let other = opposite?;
    if edge.time_us < other.time_us {
        return None;
    }
    let gap = edge.time_us - other.time_us;
    match dir {
        Direction::Downstream => (other.value == edge.value).then_some(Component::ServerSide(gap)),
        Direction::Upstream => (other.value != edge.value).then_some(Component::ClientSide(gap)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(time_ms: u64, spin: bool) -> PacketObservation {
        PacketObservation::wire(time_ms * 1000, spin)
    }

    fn raw_fold(seq: &[PacketObservation]) -> (EdgeMachine, Vec<u64>) {
        EdgeMachine::fold(seq, &EdgePolicy::RAW)
    }

    #[test]
    fn square_wave_yields_rtt_samples() {
        // Perfect square wave with a 40 ms period (= RTT 40 ms).
        let seq = [
            obs(0, false),
            obs(10, false),
            obs(40, true), // edge 1
            obs(50, true),
            obs(80, false), // edge 2 → sample 40 ms
            obs(120, true), // edge 3 → sample 40 ms
        ];
        let (m, samples) = raw_fold(&seq);
        assert_eq!(samples, vec![40_000, 40_000]);
        assert_eq!(m.edges(), 3);
        assert_eq!(m.samples().mean_ms(), Some(40.0));
        assert_eq!(m.samples().min_us(), Some(40_000));
    }

    #[test]
    fn first_edge_produces_no_sample() {
        let mut m = EdgeMachine::new();
        let raw = EdgePolicy::RAW;
        assert_eq!(m.observe(&obs(0, false), &raw), None);
        assert_eq!(
            m.observe(&obs(10, true), &raw),
            None,
            "first edge, no period yet"
        );
        assert_eq!(m.observe(&obs(50, false), &raw), Some(40_000));
    }

    #[test]
    fn constant_signal_has_no_edges() {
        let seq: Vec<_> = (0..10).map(|t| obs(t * 10, true)).collect();
        let (m, samples) = raw_fold(&seq);
        assert_eq!(m.edges(), 0);
        assert!(samples.is_empty());
        assert_eq!(m.samples().count(), 0);
        assert_eq!(m.samples().mean_ms(), None);
        assert_eq!(m.value_counts(), (0, 10));
    }

    #[test]
    fn reordering_near_edge_creates_ultra_short_sample() {
        // The Fig. 1b failure mode: a stale spin=0 packet arrives just
        // after the 0→1 edge, creating two bogus edges 1 ms apart.
        let seq = [
            obs(0, false),
            obs(40, true),  // real edge
            obs(41, false), // stale packet → bogus edge, 1 ms sample
            obs(42, true),  // back → bogus edge, 1 ms sample
            obs(80, false), // real edge → 38 ms
        ];
        let (_, samples) = raw_fold(&seq);
        assert_eq!(samples, vec![1000, 1000, 38_000]);
    }

    #[test]
    fn greased_per_packet_signal_yields_garbage_samples() {
        // Alternating every packet at 1 ms spacing → 1 ms "RTT" samples,
        // which is what the paper's grease filter keys on.
        let seq: Vec<_> = (0..20u64).map(|t| obs(t, t % 2 == 0)).collect();
        let (m, _) = raw_fold(&seq);
        assert!(m.samples().min_us().unwrap() <= 1000);
    }

    #[test]
    fn vec_mode_only_accepts_saturated_edges() {
        let policy = EdgePolicy {
            require_valid_edge: true,
            ..EdgePolicy::RAW
        };
        let seq = [
            PacketObservation::wire(0, false),
            PacketObservation::wire(40_000, true).with_vec(1), // invalid edge
            PacketObservation::wire(80_000, false).with_vec(3), // valid edge
            PacketObservation::wire(120_000, true).with_vec(3), // valid edge → sample
        ];
        let (m, samples) = EdgeMachine::fold(&seq, &policy);
        assert_eq!(samples, vec![40_000]);
        assert_eq!(m.edges(), 3, "invalid edges still counted");
    }

    #[test]
    fn value_counts_track_zeros_and_ones() {
        let (m, _) = raw_fold(&[obs(0, false), obs(1, false), obs(2, true)]);
        assert_eq!(m.value_counts(), (2, 1));
        assert_eq!(m.packets(), 3);
    }

    #[test]
    fn saturating_on_nonmonotonic_time() {
        // Observation times should be monotonic, but a defensive machine
        // must not panic if they are not (e.g. corrupt capture).
        let mut m = EdgeMachine::new();
        m.observe(&obs(100, false), &EdgePolicy::RAW);
        m.observe(&obs(100, true), &EdgePolicy::RAW);
        let s = m.observe(&PacketObservation::wire(50_000, false), &EdgePolicy::RAW);
        assert_eq!(s, Some(0), "clamped to zero, no panic");
    }

    #[test]
    fn dynamic_range_seeds_with_first_period_and_rejects_outliers() {
        // The first period seeds the median; a far-too-short one is a
        // reordering artifact, a far-too-long one a loss gap.
        let policy = EdgePolicy {
            min_period_frac: 0.1,
            max_period_factor: 10.0,
            require_valid_edge: false,
        };
        let mut m = EdgeMachine::new();
        let mut feed =
            |t_us: u64, spin: bool| m.observe(&PacketObservation::wire(t_us, spin), &policy);
        assert_eq!(feed(0, false), None);
        assert_eq!(feed(1_000, true), None, "first edge");
        assert_eq!(
            feed(41_000, false),
            Some(40_000),
            "first period always accepted"
        );
        // 100 µs is far below 0.1 × 40 ms → rejected as reordering.
        assert_eq!(feed(41_100, true), None);
        // 45 ms after the kept edge is within range.
        assert_eq!(feed(86_000, true), Some(45_000));
        // 10 s is far above 10 × median → edge kept, sample dropped.
        assert_eq!(feed(10_086_000, false), None);
        assert_eq!(m.rejected_reorder(), 1);
        assert_eq!(m.rejected_gap(), 1);
        assert_eq!(m.samples().count(), 2);
    }

    #[test]
    fn raw_accepts_zero_and_huge_periods() {
        let mut m = EdgeMachine::new();
        let raw = EdgePolicy::RAW;
        m.observe(&PacketObservation::wire(0, false), &raw);
        m.observe(&PacketObservation::wire(0, true), &raw);
        assert_eq!(m.observe(&PacketObservation::wire(0, false), &raw), Some(0));
        let far = u64::MAX / 2;
        assert_eq!(
            m.observe(&PacketObservation::wire(far, true), &raw),
            Some(far)
        );
        assert_eq!(m.rejected_reorder() + m.rejected_gap(), 0);
        assert_eq!(m.samples().count(), 2);
    }

    #[test]
    fn running_median_odd_even() {
        let mut m = EdgeMachine::new();
        assert_eq!(m.periods.median(), None);
        // Edges at 0, 10, 40, 60 µs → periods 10, 30, 20.
        let mut spin = false;
        m.observe(&PacketObservation::wire(0, spin), &EdgePolicy::RAW);
        let mut medians = Vec::new();
        for t in [1, 11, 41, 61] {
            spin = !spin;
            m.observe(&PacketObservation::wire(t, spin), &EdgePolicy::RAW);
            medians.push(m.periods.median());
        }
        assert_eq!(medians, vec![None, Some(10.0), Some(20.0), Some(20.0)]);
    }

    #[test]
    fn median_is_order_independent() {
        let machine = |periods: [u64; 5]| {
            let mut m = EdgeMachine::new();
            let (mut t, mut spin) = (0, false);
            m.observe(&PacketObservation::wire(t, spin), &EdgePolicy::RAW);
            spin = !spin;
            m.observe(&PacketObservation::wire(t, spin), &EdgePolicy::RAW);
            for p in periods {
                t += p;
                spin = !spin;
                m.observe(&PacketObservation::wire(t, spin), &EdgePolicy::RAW);
            }
            m
        };
        let a = machine([5, 1, 9, 3, 7]);
        let b = machine([9, 7, 5, 3, 1]);
        assert_eq!(a.periods.median(), b.periods.median());
        assert_eq!(a.periods.median(), Some(5.0));
    }

    #[test]
    fn median_looks_back_over_the_window_only() {
        let mut m = EdgeMachine::new();
        let (mut t, mut spin) = (0, false);
        m.observe(&PacketObservation::wire(t, spin), &EdgePolicy::RAW);
        // 16 long periods, then 16 short ones: the long ones age out.
        for p in [1_000u64; PERIOD_WINDOW]
            .into_iter()
            .chain([10; PERIOD_WINDOW])
        {
            spin = !spin;
            m.observe(&PacketObservation::wire(t, spin), &EdgePolicy::RAW);
            t += p;
        }
        assert_eq!(m.periods.median(), Some(10.0));
    }

    #[test]
    fn ring_never_grows_over_a_long_wave() {
        let mut m = EdgeMachine::new();
        let mut samples = 0u64;
        for k in 0..100_001u64 {
            samples += u64::from(
                m.observe(&obs(k * 40, k % 2 == 1), &EdgePolicy::ON_PATH)
                    .is_some(),
            );
            assert!(m.periods.len as usize <= PERIOD_WINDOW);
        }
        assert_eq!(m.periods.len as usize, PERIOD_WINDOW);
        assert_eq!(m.edges(), 100_000);
        assert_eq!(samples, 99_999);
        assert_eq!(m.samples().count(), 99_999);
    }

    #[test]
    fn state_size_is_pinned() {
        // No heap field: the whole per-direction state is this many bytes,
        // whatever the flow length.
        assert_eq!(std::mem::size_of::<EdgeMachine>(), 232);
        assert_eq!(std::mem::size_of::<EdgePolicy>(), 24);
    }

    /// A clean loop at a tap 10 ms from the client and 30 ms from the
    /// server (RTT 80 ms): client edge up at t, reflected down at t+60
    /// (tap→server→tap), next client edge up at t+80. Returns the
    /// server- and client-side components.
    fn split_clean_loop(periods: u64) -> (Vec<u64>, Vec<u64>) {
        let mut dirs = [EdgeMachine::new(); 2];
        let (mut server, mut client) = (Vec::new(), Vec::new());
        let mut feed = |dir: Direction, o: PacketObservation| {
            let Some(accepted) = dirs[dir.index()].observe_edge(&o, &EdgePolicy::ON_PATH) else {
                return;
            };
            let opposite = dirs[1 - dir.index()].last_edge();
            match component(dir, accepted.edge, opposite) {
                Some(Component::ServerSide(us)) => server.push(us),
                Some(Component::ClientSide(us)) => client.push(us),
                None => {}
            }
        };
        feed(Direction::Upstream, obs(0, false));
        feed(Direction::Downstream, obs(1, false));
        for k in 0..periods {
            let base = 10 + 80 * k;
            let value = k % 2 == 0;
            feed(Direction::Upstream, obs(base, value));
            feed(Direction::Downstream, obs(base + 60, value));
        }
        (server, client)
    }

    #[test]
    fn components_split_the_rtt_at_the_tap() {
        let (server, client) = split_clean_loop(4);
        // 4 upstream edges → 4 reflections; client components need a
        // previous downstream edge → 3.
        assert_eq!(server, vec![60_000; 4]);
        assert_eq!(client, vec![20_000; 3]);
    }

    #[test]
    fn mismatched_reflection_value_is_ignored() {
        let up = Edge {
            time_us: 10_000,
            value: true,
        };
        let genuine = Edge {
            time_us: 30_000,
            value: true,
        };
        let spurious = Edge {
            time_us: 40_000,
            value: false,
        };
        assert_eq!(
            component(Direction::Downstream, genuine, Some(up)),
            Some(Component::ServerSide(20_000))
        );
        // A downstream flip back to 0 does not reflect upstream value 1.
        assert_eq!(component(Direction::Downstream, spurious, Some(up)), None);
    }

    #[test]
    fn one_direction_only_yields_nothing() {
        let edge = Edge {
            time_us: 40_000,
            value: true,
        };
        assert_eq!(component(Direction::Downstream, edge, None), None);
        assert_eq!(component(Direction::Upstream, edge, None), None);
        // A time running backwards yields nothing either.
        let later = Edge {
            time_us: 50_000,
            value: true,
        };
        assert_eq!(component(Direction::Downstream, edge, Some(later)), None);
    }

    #[test]
    fn sample_summary_tracks_mean_and_range() {
        let mut s = SampleSummary::default();
        assert_eq!((s.mean_us(), s.min_us(), s.max_us()), (None, None, None));
        for v in [30, 10, 20] {
            s.add(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean_us(), Some(20));
        assert_eq!(s.mean_ms(), Some(0.02));
        assert_eq!((s.min_us(), s.max_us()), (Some(10), Some(30)));
    }

    proptest::proptest! {
        #[test]
        fn prop_samples_equal_edge_gaps(times in proptest::collection::vec(0u64..1_000_000, 2..64)) {
            // Build a monotone time sequence with alternating spin.
            let mut sorted = times.clone();
            sorted.sort_unstable();
            sorted.dedup();
            proptest::prop_assume!(sorted.len() >= 2);
            let seq: Vec<PacketObservation> = sorted
                .iter()
                .enumerate()
                .map(|(i, &t)| PacketObservation::wire(t, i % 2 == 0))
                .collect();
            let (_, samples) = raw_fold(&seq);
            // Every packet after the first is an edge; every edge after the
            // second produces a sample equal to the time gap.
            let expected: Vec<u64> = sorted.windows(2).skip(1).map(|w| w[1] - w[0]).collect();
            proptest::prop_assert_eq!(samples, expected);
        }

        #[test]
        fn prop_raw_accepts_every_period(periods in proptest::collection::vec(0u64..100_000, 0..50)) {
            // RAW never rejects: every period after the first edge is a
            // sample, whatever its size.
            let mut m = EdgeMachine::new();
            let (mut t, mut spin) = (0, false);
            m.observe(&PacketObservation::wire(t, spin), &EdgePolicy::RAW);
            spin = !spin;
            m.observe(&PacketObservation::wire(t, spin), &EdgePolicy::RAW);
            let mut samples = Vec::new();
            for &p in &periods {
                t += p;
                spin = !spin;
                samples.extend(m.observe(&PacketObservation::wire(t, spin), &EdgePolicy::RAW));
            }
            proptest::prop_assert_eq!(samples, periods);
            proptest::prop_assert_eq!(m.rejected_reorder() + m.rejected_gap(), 0);
        }
    }
}
