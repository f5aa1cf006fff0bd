//! Endpoint configuration: what differs between endpoints — version,
//! spin policy, VEC and processing latencies. The transport parameters
//! every endpoint shares (CID length, ACK delay and threshold, loss
//! threshold, initial RTT and window, idle timeout, payload size) are
//! RFC-default constants beside the code that reads them in
//! [`crate::conn`].

use quicspin_netsim::{Rng, SimDuration};
use quicspin_wire::Version;

/// How an endpoint sets the spin bit — the behaviours §4.3 of the paper
/// looks for in the wild.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpinPolicy {
    /// Implement RFC 9000 §17.4 faithfully (client inverts, server
    /// reflects).
    Participate,
    /// Disable by sending a constant 0 (the dominant choice in the wild
    /// per Table 3).
    FixedZero,
    /// Disable by sending a constant 1 (rare).
    FixedOne,
    /// Disable by greasing per packet: an independent random value on
    /// every packet (RFC 9312's recommendation).
    GreasePerPacket,
    /// Disable by greasing per connection: one random value chosen at
    /// connection start and kept (indistinguishable from FixedZero /
    /// FixedOne on a single connection).
    GreasePerConnection,
}

impl SpinPolicy {
    /// Applies the RFC 9000 "MUST disable on at least one in every N
    /// connections" rule: with probability `1/n`, a participating endpoint
    /// greases this connection instead. RFC 9000 says one in 16;
    /// RFC 9312 one in eight.
    pub fn with_mandatory_disable(self, n: u32, rng: &mut Rng) -> SpinPolicy {
        if self == SpinPolicy::Participate && n > 0 && rng.chance(1.0 / f64::from(n)) {
            SpinPolicy::GreasePerConnection
        } else {
            self
        }
    }

    /// Whether this policy ever flips the bit within one connection.
    pub fn can_flip_within_connection(self) -> bool {
        matches!(self, SpinPolicy::Participate | SpinPolicy::GreasePerPacket)
    }
}

/// Transport configuration for one endpoint.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// QUIC version to offer/accept.
    pub version: Version,
    /// Spin-bit policy.
    pub spin_policy: SpinPolicy,
    /// Whether to carry the Valid Edge Counter in the reserved bits.
    pub vec_enabled: bool,
    /// Processing latency of *data-bearing* packets: time between the
    /// triggering event and the packet leaving the host, dominated by
    /// application write scheduling. Inflates every spin period (the
    /// spin-edge reply is a data packet) — the §6 end-host-delay
    /// mechanism.
    pub processing_latency: SimDuration,
    /// Processing latency of pure-ACK packets (fast transport path).
    /// This is what the peer's RTT estimator sees, so the gap between the
    /// two latencies is the systematic spin-vs-stack margin.
    pub ack_processing_latency: SimDuration,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            version: Version::V1,
            spin_policy: SpinPolicy::Participate,
            vec_enabled: false,
            processing_latency: SimDuration::ZERO,
            ack_processing_latency: SimDuration::ZERO,
        }
    }
}

impl TransportConfig {
    /// Builder-style: set the spin policy.
    pub fn with_spin_policy(mut self, policy: SpinPolicy) -> Self {
        self.spin_policy = policy;
        self
    }

    /// Builder-style: set the version.
    pub fn with_version(mut self, version: Version) -> Self {
        self.version = version;
        self
    }

    /// Builder-style: enable the VEC extension.
    pub fn with_vec(mut self) -> Self {
        self.vec_enabled = true;
        self
    }

    /// Builder-style: set the endpoint processing latencies (data path,
    /// pure-ACK fast path).
    pub fn with_processing_latency(mut self, data: SimDuration, ack: SimDuration) -> Self {
        self.processing_latency = data;
        self.ack_processing_latency = ack;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_rfc_values() {
        use crate::conn::{INITIAL_CWND_PACKETS, INITIAL_RTT, MAX_ACK_DELAY, PACKET_THRESHOLD};
        assert_eq!(MAX_ACK_DELAY, SimDuration::from_millis(25));
        assert_eq!(PACKET_THRESHOLD, 3);
        assert_eq!(INITIAL_RTT, SimDuration::from_millis(333));
        assert_eq!(INITIAL_CWND_PACKETS, 10);
        let c = TransportConfig::default();
        assert_eq!(c.version, Version::V1);
        assert_eq!(c.spin_policy, SpinPolicy::Participate);
        assert!(!c.vec_enabled);
    }

    #[test]
    fn builders() {
        let c = TransportConfig::default()
            .with_spin_policy(SpinPolicy::FixedZero)
            .with_version(Version::Draft29)
            .with_vec();
        assert_eq!(c.spin_policy, SpinPolicy::FixedZero);
        assert_eq!(c.version, Version::Draft29);
        assert!(c.vec_enabled);
    }

    #[test]
    fn mandatory_disable_rate_is_about_one_in_n() {
        let mut rng = Rng::new(1);
        let n = 16;
        let disabled = (0..100_000)
            .filter(|_| {
                SpinPolicy::Participate.with_mandatory_disable(n, &mut rng)
                    != SpinPolicy::Participate
            })
            .count();
        let rate = disabled as f64 / 100_000.0;
        assert!((rate - 1.0 / 16.0).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn mandatory_disable_leaves_non_participating_policies_alone() {
        let mut rng = Rng::new(2);
        for _ in 0..100 {
            assert_eq!(
                SpinPolicy::FixedZero.with_mandatory_disable(16, &mut rng),
                SpinPolicy::FixedZero
            );
        }
    }

    #[test]
    fn mandatory_disable_n_zero_is_noop() {
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            assert_eq!(
                SpinPolicy::Participate.with_mandatory_disable(0, &mut rng),
                SpinPolicy::Participate
            );
        }
    }

    #[test]
    fn flip_capability() {
        assert!(SpinPolicy::Participate.can_flip_within_connection());
        assert!(SpinPolicy::GreasePerPacket.can_flip_within_connection());
        assert!(!SpinPolicy::FixedZero.can_flip_within_connection());
        assert!(!SpinPolicy::FixedOne.can_flip_within_connection());
        assert!(!SpinPolicy::GreasePerConnection.can_flip_within_connection());
    }
}
