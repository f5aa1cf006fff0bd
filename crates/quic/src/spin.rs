//! The endpoint-side spin-bit generator (RFC 9000 §17.4).
//!
//! > "The client starts the signal by transmitting packets with a value of
//! > 0. The server reflects the value it has received, setting the value
//! > on outgoing packets to the value seen on the latest incoming packet
//! > with the highest packet number. In contrast, the client spins the
//! > bit, i.e., it inverts the latest value." (paper §2.1)
//!
//! The generator also implements every disabling behaviour of
//! [`SpinPolicy`] and, optionally, the Valid
//! Edge Counter carried in the reserved header bits.

use crate::config::SpinPolicy;
use quicspin_core::vec_counter::VecEndpoint;
use quicspin_netsim::Rng;

/// Endpoint role (affects the spin rule: invert vs. reflect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpinRole {
    /// Client: inverts the latest received value.
    Client,
    /// Server: reflects the latest received value.
    Server,
}

/// Per-connection spin-bit state of one endpoint.
#[derive(Debug, Clone)]
pub struct SpinGenerator {
    role: SpinRole,
    policy: SpinPolicy,
    /// Largest 1-RTT packet number received so far.
    largest_pn: Option<u64>,
    /// Spin value of that packet.
    spin_seen: bool,
    /// Value fixed at connection start for per-connection greasing.
    per_conn_value: bool,
    /// Spin value on the most recently sent packet (edge detection for VEC).
    last_sent: Option<bool>,
    /// VEC state (only consulted when enabled).
    vec: VecEndpoint,
    vec_enabled: bool,
    /// Incoming spin edges observed (value flips on the largest-pn chain).
    edges: u64,
}

impl SpinGenerator {
    /// Creates the generator; `rng` seeds per-connection grease choices.
    pub fn new(role: SpinRole, policy: SpinPolicy, vec_enabled: bool, rng: &mut Rng) -> Self {
        SpinGenerator {
            role,
            policy,
            largest_pn: None,
            spin_seen: false,
            per_conn_value: rng.chance(0.5),
            last_sent: None,
            vec: VecEndpoint::new(),
            vec_enabled,
            edges: 0,
        }
    }

    /// Records an incoming 1-RTT packet's spin state. Only the packet with
    /// the largest packet number updates the state (RFC 9000 §17.4 —
    /// reordered stale packets are ignored here *by the endpoint*; the
    /// passive observer has no packet numbers and cannot do the same,
    /// which is exactly the Fig. 1b failure mode).
    pub fn on_receive(&mut self, pn: u64, spin: bool, vec: u8) {
        if self.largest_pn.is_none_or(|l| pn > l) {
            let first = self.largest_pn.is_none();
            self.largest_pn = Some(pn);
            // The VEC tracks the packet that *set* the current spin value
            // (the edge packet); later same-value packets carry VEC 0 and
            // must not clobber the chain (De Vaere et al. §3.2).
            if first || spin != self.spin_seen {
                self.vec.on_spin_update(vec);
            }
            if !first && spin != self.spin_seen {
                self.edges += 1;
            }
            self.spin_seen = spin;
        }
    }

    /// Number of spin-bit transitions observed on received packets. Each
    /// edge marks one half-rotation of the signal, so a healthy
    /// spinning connection accrues roughly one edge per RTT per direction.
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// Computes the spin bit and VEC for the next outgoing 1-RTT packet.
    pub fn next_outgoing(&mut self, rng: &mut Rng) -> (bool, u8) {
        let spin = match self.policy {
            SpinPolicy::Participate => match self.role {
                // Client starts at 0 and inverts once it has seen a packet.
                SpinRole::Client => {
                    if self.largest_pn.is_some() {
                        !self.spin_seen
                    } else {
                        false
                    }
                }
                // Server reflects (0 before anything is received).
                SpinRole::Server => self.spin_seen,
            },
            SpinPolicy::FixedZero => false,
            SpinPolicy::FixedOne => true,
            SpinPolicy::GreasePerPacket => rng.chance(0.5),
            SpinPolicy::GreasePerConnection => self.per_conn_value,
        };

        let is_edge = self.last_sent.map_or(spin, |prev| prev != spin);
        self.last_sent = Some(spin);

        let vec = if self.vec_enabled && self.policy == SpinPolicy::Participate {
            self.vec.outgoing_vec(is_edge, false)
        } else {
            0
        };
        (spin, vec)
    }

    /// The policy in force.
    pub fn policy(&self) -> SpinPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::new(7)
    }

    fn gen(role: SpinRole, policy: SpinPolicy) -> (SpinGenerator, Rng) {
        let mut r = rng();
        (SpinGenerator::new(role, policy, false, &mut r), r)
    }

    #[test]
    fn client_starts_at_zero() {
        let (mut g, mut r) = gen(SpinRole::Client, SpinPolicy::Participate);
        assert!(!g.next_outgoing(&mut r).0);
        assert!(!g.next_outgoing(&mut r).0);
    }

    #[test]
    fn server_reflects() {
        let (mut g, mut r) = gen(SpinRole::Server, SpinPolicy::Participate);
        assert!(!g.next_outgoing(&mut r).0, "reflects 0 initially");
        g.on_receive(0, true, 0);
        assert!(g.next_outgoing(&mut r).0);
        g.on_receive(1, false, 0);
        assert!(!g.next_outgoing(&mut r).0);
    }

    #[test]
    fn client_inverts() {
        let (mut g, mut r) = gen(SpinRole::Client, SpinPolicy::Participate);
        g.on_receive(0, false, 0);
        assert!(g.next_outgoing(&mut r).0);
        g.on_receive(1, true, 0);
        assert!(!g.next_outgoing(&mut r).0);
    }

    #[test]
    fn stale_packets_do_not_regress_state() {
        let (mut g, mut r) = gen(SpinRole::Server, SpinPolicy::Participate);
        g.on_receive(5, true, 0);
        // A reordered packet with a smaller pn must be ignored.
        g.on_receive(3, false, 0);
        assert!(g.next_outgoing(&mut r).0);
    }

    #[test]
    fn full_loop_produces_square_wave() {
        // Simulate the ping-pong of §2.1 Fig. 1a.
        let mut r = rng();
        let mut client =
            SpinGenerator::new(SpinRole::Client, SpinPolicy::Participate, false, &mut r);
        let mut server =
            SpinGenerator::new(SpinRole::Server, SpinPolicy::Participate, false, &mut r);
        let mut pn = 0u64;
        let mut client_values = Vec::new();
        for _ in 0..4 {
            let (cs, _) = client.next_outgoing(&mut r);
            client_values.push(cs);
            server.on_receive(pn, cs, 0);
            pn += 1;
            let (ss, _) = server.next_outgoing(&mut r);
            assert_eq!(ss, cs, "server reflects");
            client.on_receive(pn, ss, 0);
            pn += 1;
        }
        assert_eq!(client_values, vec![false, true, false, true]);
    }

    #[test]
    fn fixed_policies_never_flip() {
        let (mut g0, mut r0) = gen(SpinRole::Client, SpinPolicy::FixedZero);
        let (mut g1, mut r1) = gen(SpinRole::Server, SpinPolicy::FixedOne);
        for pn in 0..20 {
            g0.on_receive(pn, pn % 2 == 0, 0);
            g1.on_receive(pn, pn % 2 == 0, 0);
            assert!(!g0.next_outgoing(&mut r0).0);
            assert!(g1.next_outgoing(&mut r1).0);
        }
    }

    #[test]
    fn per_packet_grease_flips_eventually() {
        let (mut g, mut r) = gen(SpinRole::Client, SpinPolicy::GreasePerPacket);
        let values: Vec<bool> = (0..64).map(|_| g.next_outgoing(&mut r).0).collect();
        assert!(values.iter().any(|&v| v) && values.iter().any(|&v| !v));
    }

    #[test]
    fn per_connection_grease_is_constant() {
        for seed in 0..16 {
            let mut r = Rng::new(seed);
            let mut g = SpinGenerator::new(
                SpinRole::Client,
                SpinPolicy::GreasePerConnection,
                false,
                &mut r,
            );
            let first = g.next_outgoing(&mut r).0;
            for _ in 0..20 {
                assert_eq!(g.next_outgoing(&mut r).0, first);
            }
        }
    }

    #[test]
    fn per_connection_grease_varies_across_connections() {
        let values: Vec<bool> = (0..32)
            .map(|seed| {
                let mut r = Rng::new(seed);
                let mut g = SpinGenerator::new(
                    SpinRole::Client,
                    SpinPolicy::GreasePerConnection,
                    false,
                    &mut r,
                );
                g.next_outgoing(&mut r).0
            })
            .collect();
        assert!(values.iter().any(|&v| v) && values.iter().any(|&v| !v));
    }

    #[test]
    fn vec_counts_up_along_loop() {
        let mut r = rng();
        let mut client =
            SpinGenerator::new(SpinRole::Client, SpinPolicy::Participate, true, &mut r);
        let mut server =
            SpinGenerator::new(SpinRole::Server, SpinPolicy::Participate, true, &mut r);
        let mut pn = 0;
        let mut max_vec_seen = 0u8;
        for _ in 0..6 {
            let (cs, cv) = client.next_outgoing(&mut r);
            server.on_receive(pn, cs, cv);
            pn += 1;
            let (ss, sv) = server.next_outgoing(&mut r);
            client.on_receive(pn, ss, sv);
            pn += 1;
            max_vec_seen = max_vec_seen.max(cv).max(sv);
        }
        assert_eq!(max_vec_seen, 3, "VEC saturates over a clean exchange");
    }

    #[test]
    fn vec_disabled_sends_zero() {
        let (mut g, mut r) = gen(SpinRole::Client, SpinPolicy::Participate);
        g.on_receive(0, false, 3);
        assert_eq!(g.next_outgoing(&mut r).1, 0);
    }

    #[test]
    fn non_edge_packets_carry_vec_zero() {
        let mut r = rng();
        let mut g = SpinGenerator::new(SpinRole::Client, SpinPolicy::Participate, true, &mut r);
        g.on_receive(0, false, 2);
        let (s1, v1) = g.next_outgoing(&mut r);
        assert!(s1);
        assert_eq!(v1, 3, "edge packet increments");
        let (s2, v2) = g.next_outgoing(&mut r);
        assert!(s2);
        assert_eq!(v2, 0, "repeat value, no edge");
    }

    #[test]
    fn edges_count_received_flips_only() {
        let (mut g, _) = gen(SpinRole::Server, SpinPolicy::Participate);
        assert_eq!(g.edges(), 0);
        g.on_receive(0, false, 0); // first packet: baseline, not an edge
        g.on_receive(1, false, 0); // same value: no edge
        g.on_receive(2, true, 0); // flip: edge
        g.on_receive(1, false, 0); // stale pn: ignored entirely
        g.on_receive(3, false, 0); // flip back: edge
        assert_eq!(g.edges(), 2);
    }

    #[test]
    fn policy_accessor() {
        let (g, _) = gen(SpinRole::Client, SpinPolicy::FixedOne);
        assert_eq!(g.policy(), SpinPolicy::FixedOne);
    }
}
