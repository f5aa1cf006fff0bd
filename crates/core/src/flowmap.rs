//! Multi-flow demultiplexing for on-path observers.
//!
//! A real tap sees interleaved packets of many connections and must key
//! its spin state per flow — on the wire, the destination connection ID
//! is the only usable key (the paper's qlog approach sidesteps this by
//! having one log per connection; an in-network observer cannot).

use crate::edge::{EdgeMachine, EdgePolicy};
use crate::observation::PacketObservation;
use std::collections::BTreeMap;

/// Per-flow spin observation keyed by an opaque flow key (typically the
/// destination connection ID bytes).
#[derive(Debug, Clone)]
pub struct FlowMap<K: Ord + Clone> {
    policy: EdgePolicy,
    flows: BTreeMap<K, EdgeMachine>,
}

impl<K: Ord + Clone> FlowMap<K> {
    /// Creates an empty map; every flow's machine runs under `policy`.
    pub fn new(policy: EdgePolicy) -> Self {
        FlowMap {
            policy,
            flows: BTreeMap::new(),
        }
    }

    /// Feeds one packet of flow `key`; returns an accepted RTT sample if
    /// the packet completed a spin period.
    pub fn observe(&mut self, key: K, obs: &PacketObservation) -> Option<u64> {
        self.flows
            .entry(key)
            .or_default()
            .observe(obs, &self.policy)
    }

    /// Number of flows seen.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether no flow was seen.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The edge machine of one flow.
    pub fn flow(&self, key: &K) -> Option<&EdgeMachine> {
        self.flows.get(key)
    }

    /// Iterates over `(key, machine)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &EdgeMachine)> {
        self.flows.iter()
    }

    /// Flows with at least one accepted RTT sample.
    pub fn measurable_flows(&self) -> usize {
        self.flows
            .values()
            .filter(|m| m.samples().count() > 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(t_ms: u64, spin: bool) -> PacketObservation {
        PacketObservation::wire(t_ms * 1000, spin)
    }

    #[test]
    fn flows_are_tracked_independently() {
        let mut map: FlowMap<u8> = FlowMap::new(EdgePolicy::RAW);
        // Flow 1: 40 ms square wave. Flow 2: constant zero. Interleaved.
        for k in 0..6u64 {
            map.observe(1, &obs(k * 40, k % 2 == 0));
            map.observe(2, &obs(k * 40 + 1, false));
        }
        assert_eq!(map.len(), 2);
        assert_eq!(map.measurable_flows(), 1);
        let flow1 = map.flow(&1).unwrap();
        assert_eq!(flow1.samples().mean_ms(), Some(40.0));
        let flow2 = map.flow(&2).unwrap();
        assert_eq!(flow2.samples().count(), 0);
        assert_eq!(flow2.value_counts(), (6, 0));
    }

    #[test]
    fn interleaving_does_not_create_cross_flow_edges() {
        let mut map: FlowMap<u8> = FlowMap::new(EdgePolicy::RAW);
        // Two all-constant flows with opposite values: a naive observer
        // that ignored flow keys would see an edge on every packet.
        for k in 0..10u64 {
            map.observe(1, &obs(k, false));
            map.observe(2, &obs(k, true));
        }
        for (_, flow) in map.iter() {
            assert_eq!(flow.edges(), 0, "no intra-flow edges");
        }
    }

    #[test]
    fn empty_map() {
        let map: FlowMap<u64> = FlowMap::new(EdgePolicy::RAW);
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        assert_eq!(map.measurable_flows(), 0);
        assert!(map.flow(&1).is_none());
    }

    #[test]
    fn sample_returned_on_completed_period() {
        let mut map: FlowMap<&'static str> = FlowMap::new(EdgePolicy::RAW);
        assert_eq!(map.observe("a", &obs(0, false)), None);
        assert_eq!(map.observe("a", &obs(40, true)), None);
        assert_eq!(map.observe("a", &obs(80, false)), Some(40_000));
    }
}
