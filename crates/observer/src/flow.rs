//! Per-flow spin observation at the tap.
//!
//! A [`FlowObserver`] consumes [`ObservedPacket`]s of one connection and
//! reconstructs RTT samples the way an on-path device would: one core
//! [`EdgeMachine`] per direction, both under one [`EdgePolicy`]
//! ([`EdgePolicy::ON_PATH`] by default, so a reordered stale packet is
//! rejected without moving the clock and a loss gap moves the clock
//! without a sample). Long-header packets never reach the machines (see
//! [`ObservedPacket`]); the observer only counts them.
//!
//! Every edge a machine accepts is also paired with the opposite
//! direction's last accepted edge ([`component`]), which splits the RTT
//! into its tap→server→tap and tap→client→tap components (RFC 9312
//! §4.2.1). Because only accepted edges take part, a stale reordered
//! packet cannot move the component clock either.
//!
//! With the default policy and a clean path (no loss, no reordering, no
//! jitter) no heuristic fires and the downstream sample stream is exactly
//! the client's own spin RTT stream — the property `lab_parity` pins.
//! The observer keeps no sample list: [`FlowObserver::ingest`] returns
//! each accepted sample to the caller, and [`FlowObserver::stats`]
//! reports counts, means and ranges.

use crate::packet::ObservedPacket;
use quicspin_core::{component, Component, Direction, EdgeMachine, EdgePolicy, SampleSummary};
use serde::{Deserialize, Serialize};

/// Serializable summary of one flow at the tap — everything the campaign
/// artifacts and the flight recorder need, and nothing that could not be
/// derived from observer-legal bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowStats {
    /// Short-header packets observed (both directions).
    pub packets: u64,
    /// Datagrams the observer could not parse as short headers
    /// (long-header handshake packets and garbage); counted, never read.
    pub unobservable: u64,
    /// Raw spin edges seen client→server.
    pub edges_upstream: u64,
    /// Raw spin edges seen server→client.
    pub edges_downstream: u64,
    /// Accepted downstream RTT samples (the canonical stream — the same
    /// wave the measuring client sees).
    pub samples: u64,
    /// Accepted upstream RTT samples.
    pub samples_upstream: u64,
    /// Mean of the accepted downstream samples (µs, rounded down).
    pub mean_us: Option<u64>,
    /// Minimum accepted downstream sample (µs).
    pub min_us: Option<u64>,
    /// Maximum accepted downstream sample (µs).
    pub max_us: Option<u64>,
    /// Mean tap→server→tap component (µs), RFC 9312 §4.2.1 split.
    pub server_side_mean_us: Option<u64>,
    /// Mean tap→client→tap component (µs).
    pub client_side_mean_us: Option<u64>,
    /// Edges rejected as reordering artifacts (both directions).
    pub rejected_reorder: u64,
    /// Samples rejected as loss gaps (both directions).
    pub rejected_gap: u64,
    /// Always 0: the handshake warm-up suppression is gone. The field
    /// stays in `observer.json` until its next schema bump.
    pub suppressed_warmup: u64,
    /// Whether the flow yielded at least one accepted downstream sample.
    pub measurable: bool,
}

/// Streaming per-flow observer: one edge machine per direction plus the
/// RFC 9312 §4.2.1 component split. Fixed size, whatever the flow length.
#[derive(Debug, Clone)]
pub struct FlowObserver {
    policy: EdgePolicy,
    /// Indexed by [`Direction::index`].
    dirs: [EdgeMachine; 2],
    server_side: SampleSummary,
    client_side: SampleSummary,
    unobservable: u64,
}

impl Default for FlowObserver {
    fn default() -> Self {
        FlowObserver::new(EdgePolicy::ON_PATH)
    }
}

impl FlowObserver {
    /// Creates an observer whose machines run under `policy`.
    pub fn new(policy: EdgePolicy) -> Self {
        FlowObserver {
            policy,
            dirs: [EdgeMachine::new(); 2],
            server_side: SampleSummary::default(),
            client_side: SampleSummary::default(),
            unobservable: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> EdgePolicy {
        self.policy
    }

    /// Feeds one observed packet (in tap-crossing order). Returns the RTT
    /// sample (µs) it completed in its own direction, if any.
    pub fn ingest(&mut self, packet: &ObservedPacket) -> Option<u64> {
        let dir = packet.direction();
        let accepted =
            self.dirs[dir.index()].observe_edge(&packet.to_observation(), &self.policy)?;
        match component(dir, accepted.edge, self.dirs[1 - dir.index()].last_edge()) {
            Some(Component::ServerSide(us)) => self.server_side.add(us),
            Some(Component::ClientSide(us)) => self.client_side.add(us),
            None => {}
        }
        accepted.sample
    }

    /// Notes a datagram the privacy boundary refused (long header or
    /// undecodable) — the observer may count it, nothing more.
    pub fn note_unobservable(&mut self) {
        self.unobservable += 1;
    }

    /// Folds a whole tap capture: every record is either narrowed through
    /// the [`ObservedPacket`] boundary or counted as unobservable. Each
    /// accepted sample goes to `on_sample` with its direction.
    pub fn ingest_tap_records(
        &mut self,
        records: &[quicspin_netsim::TapRecord],
        cid_len: usize,
        mut on_sample: impl FnMut(Direction, u64),
    ) {
        for record in records {
            match ObservedPacket::from_tap(record, cid_len) {
                Some(packet) => {
                    if let Some(sample) = self.ingest(&packet) {
                        on_sample(packet.direction(), sample);
                    }
                }
                None => self.note_unobservable(),
            }
        }
    }

    /// Snapshot of everything the campaign stores per flow.
    pub fn stats(&self) -> FlowStats {
        let [up, down] = &self.dirs;
        FlowStats {
            packets: up.packets() + down.packets(),
            unobservable: self.unobservable,
            edges_upstream: up.edges(),
            edges_downstream: down.edges(),
            samples: down.samples().count(),
            samples_upstream: up.samples().count(),
            mean_us: down.samples().mean_us(),
            min_us: down.samples().min_us(),
            max_us: down.samples().max_us(),
            server_side_mean_us: self.server_side.mean_us(),
            client_side_mean_us: self.client_side.mean_us(),
            rejected_reorder: up.rejected_reorder() + down.rejected_reorder(),
            rejected_gap: up.rejected_gap() + down.rejected_gap(),
            suppressed_warmup: 0,
            measurable: down.samples().count() > 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(t_ms: u64, dir: Direction, spin: bool) -> ObservedPacket {
        let h = quicspin_wire::ShortHeader {
            spin,
            vec: 0,
            dcid: quicspin_wire::ConnectionId::new(&[1; 8]).unwrap(),
            packet_number: quicspin_wire::PacketNumber::new(0),
        };
        let mut w = quicspin_wire::Writer::new();
        h.encode(&mut w);
        ObservedPacket::from_datagram(t_ms * 1000, dir, &w.into_bytes(), 8).unwrap()
    }

    fn feed_square_wave(obs: &mut FlowObserver, period_ms: u64, edges: u64) -> Vec<u64> {
        (0..edges)
            .filter_map(|k| obs.ingest(&packet(k * period_ms, Direction::Downstream, k % 2 == 1)))
            .collect()
    }

    #[test]
    fn clean_wave_yields_one_sample_per_edge_after_the_first() {
        let mut obs = FlowObserver::default();
        assert_eq!(feed_square_wave(&mut obs, 40, 6), vec![40_000; 4]);
        let stats = obs.stats();
        assert_eq!(stats.edges_downstream, 5);
        assert_eq!(stats.samples, 4);
        assert_eq!(stats.mean_us, Some(40_000));
        assert!(stats.measurable);
        assert_eq!(stats.rejected_reorder + stats.rejected_gap, 0);
    }

    #[test]
    fn reordered_stale_value_is_rejected_and_state_recovers() {
        let mut obs = FlowObserver::default();
        let mut samples = feed_square_wave(&mut obs, 40, 4); // last value: true at t=120
                                                             // A stale `false` overtakes at t=121 (fake edge), the stream then
                                                             // continues with the genuine value.
        samples.extend(obs.ingest(&packet(121, Direction::Downstream, false)));
        samples.extend(obs.ingest(&packet(122, Direction::Downstream, true)));
        samples.extend(obs.ingest(&packet(160, Direction::Downstream, false))); // genuine edge
        let stats = obs.stats();
        assert_eq!(stats.rejected_reorder, 1);
        // Periods stay clean: the genuine edge measures from t=120.
        assert_eq!(samples, vec![40_000, 40_000, 40_000]);
    }

    #[test]
    fn loss_gap_advances_the_clock_without_a_sample() {
        let mut obs = FlowObserver::default();
        feed_square_wave(&mut obs, 40, 4);
        // The edge at t=160 was lost; the next flip lands at t=200 with a
        // 2-RTT period (80 ms > 4.0 isn't hit; use a bigger gap).
        assert_eq!(
            obs.ingest(&packet(120 + 200, Direction::Downstream, false)),
            None
        );
        let last = obs.ingest(&packet(120 + 240, Direction::Downstream, true));
        let stats = obs.stats();
        assert_eq!(stats.rejected_gap, 1);
        // The post-gap edge measures a clean period again.
        assert_eq!(last, Some(40_000));
    }

    #[test]
    fn permissive_policy_takes_raw_periods() {
        let mut obs = FlowObserver::new(EdgePolicy::RAW);
        feed_square_wave(&mut obs, 40, 4);
        obs.ingest(&packet(121, Direction::Downstream, false));
        let stats = obs.stats();
        assert_eq!(stats.rejected_reorder, 0);
        assert_eq!(stats.samples, 3);
    }

    #[test]
    fn both_directions_feed_the_component_split() {
        let mut obs = FlowObserver::default();
        obs.ingest(&packet(0, Direction::Upstream, false));
        obs.ingest(&packet(1, Direction::Downstream, false));
        for k in 0..4u64 {
            let base = 10 + 80 * k;
            let value = k % 2 == 0;
            obs.ingest(&packet(base, Direction::Upstream, value));
            obs.ingest(&packet(base + 60, Direction::Downstream, value));
        }
        let stats = obs.stats();
        assert_eq!(stats.server_side_mean_us, Some(60_000));
        assert_eq!(stats.client_side_mean_us, Some(20_000));
        assert_eq!(stats.edges_upstream, 4);
        assert_eq!(stats.samples_upstream, 3);
    }

    #[test]
    fn rejected_reorder_edge_does_not_move_the_component_clock() {
        // A clean loop, then a stale upstream packet right after the last
        // upstream edge: rejected, so the next reflection still measures
        // the server side from the genuine upstream edge.
        let mut obs = FlowObserver::default();
        obs.ingest(&packet(0, Direction::Upstream, false));
        obs.ingest(&packet(1, Direction::Downstream, false));
        for k in 0..4u64 {
            let base = 10 + 80 * k;
            let value = k % 2 == 0;
            obs.ingest(&packet(base, Direction::Upstream, value));
            if k == 3 {
                obs.ingest(&packet(base + 1, Direction::Upstream, !value)); // stale
                obs.ingest(&packet(base + 2, Direction::Upstream, value));
            }
            obs.ingest(&packet(base + 60, Direction::Downstream, value));
        }
        let stats = obs.stats();
        assert_eq!(stats.rejected_reorder, 1);
        assert_eq!(stats.server_side_mean_us, Some(60_000));
        assert_eq!(stats.client_side_mean_us, Some(20_000));
    }

    #[test]
    fn no_components_without_edges() {
        let mut obs = FlowObserver::default();
        for t in 0..10 {
            obs.ingest(&packet(t, Direction::Upstream, false));
            obs.ingest(&packet(t, Direction::Downstream, false));
        }
        let stats = obs.stats();
        assert_eq!(stats.server_side_mean_us, None);
        assert_eq!(stats.client_side_mean_us, None);
    }

    #[test]
    fn unmeasurable_flow_reports_counts_only() {
        let mut obs = FlowObserver::default();
        for t in 0..8 {
            obs.ingest(&packet(t * 10, Direction::Downstream, false));
        }
        obs.note_unobservable();
        let stats = obs.stats();
        assert!(!stats.measurable);
        assert_eq!(stats.packets, 8);
        assert_eq!(stats.unobservable, 1);
        assert_eq!(stats.mean_us, None);
    }

    #[test]
    fn stats_serde_roundtrip() {
        let mut obs = FlowObserver::default();
        feed_square_wave(&mut obs, 25, 5);
        let stats = obs.stats();
        let json = serde_json::to_string(&stats).unwrap();
        let back: FlowStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn flow_state_size_is_pinned() {
        // Two fixed-size direction machines, the policy, two component
        // summaries and one counter: nothing grows with the flow.
        assert_eq!(std::mem::size_of::<FlowObserver>(), 560);
    }
}
