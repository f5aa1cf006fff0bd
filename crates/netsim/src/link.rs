//! Unidirectional link model with smoltcp-style fault injection.
//!
//! A [`Link`] applies, in order: serialization (token-bucket rate limit),
//! propagation delay with jitter, random extra "reorder" delay, random
//! loss, and random duplication. All randomness comes from the caller's
//! [`Rng`], so a link is exactly reproducible.

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// Configuration of one link direction.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Uniform jitter added on top of `delay`: `U[0, jitter]`.
    pub jitter: SimDuration,
    /// Probability a packet is dropped.
    pub loss: f64,
    /// Probability a packet is held back by `reorder_hold`, letting packets
    /// sent after it overtake (this is how real reordering manifests).
    pub reorder: f64,
    /// Extra delay applied to held-back packets.
    pub reorder_hold: SimDuration,
    /// Probability a packet is duplicated (second copy after `dup_gap`).
    pub duplicate: f64,
    /// Gap between a packet and its duplicate.
    pub dup_gap: SimDuration,
    /// Link rate in bytes/second; `None` = infinite (no serialization delay).
    pub rate_bytes_per_sec: Option<u64>,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            delay: SimDuration::from_millis(10),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            reorder: 0.0,
            reorder_hold: SimDuration::from_millis(2),
            duplicate: 0.0,
            dup_gap: SimDuration::from_micros(200),
            rate_bytes_per_sec: None,
        }
    }
}

impl LinkConfig {
    /// An ideal link with only the given one-way delay.
    pub fn ideal(delay: SimDuration) -> Self {
        LinkConfig {
            delay,
            ..LinkConfig::default()
        }
    }

    /// Builder-style: set the loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Builder-style: set the reorder probability.
    pub fn with_reorder(mut self, reorder: f64) -> Self {
        self.reorder = reorder;
        self
    }

    /// Builder-style: set the jitter bound.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }
}

/// Delivery times of one packet at the far end, held inline: none (lost),
/// one, or two (duplicated). Dereferences to a slice of times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deliveries {
    times: [SimTime; 2],
    len: usize,
}

impl Deliveries {
    const NONE: Deliveries = Deliveries {
        times: [SimTime::ZERO; 2],
        len: 0,
    };

    fn push(&mut self, at: SimTime) {
        self.times[self.len] = at;
        self.len += 1;
    }
}

impl core::ops::Deref for Deliveries {
    type Target = [SimTime];

    fn deref(&self) -> &[SimTime] {
        &self.times[..self.len]
    }
}

/// What happened to a packet entering the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transit {
    /// When the packet passes an on-path tap at `position` (set by the
    /// simulator); this is the send time plus serialization plus a fraction
    /// of the propagation delay. Populated for every packet, including
    /// ones dropped later on the path.
    pub tap_time: SimTime,
    /// Delivery times at the far end; empty = lost, two entries = duplicated.
    pub deliveries: Deliveries,
    /// Whether this packet was held back for reordering.
    pub reordered: bool,
    /// Whether this packet was dropped.
    pub lost: bool,
}

/// One direction of a network path.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    /// Time at which the serializer becomes free (token-bucket state).
    next_free: SimTime,
}

impl Link {
    /// Creates a link from its configuration.
    pub fn new(config: LinkConfig) -> Self {
        Link {
            config,
            next_free: SimTime::ZERO,
        }
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Sends a packet of `size` bytes at time `now`; `tap_position` in
    /// `[0, 1]` locates the passive observer along the propagation path.
    pub fn send(&mut self, now: SimTime, size: usize, tap_position: f64, rng: &mut Rng) -> Transit {
        // Serialization: packets queue behind each other at finite rates.
        let start = if now > self.next_free {
            now
        } else {
            self.next_free
        };
        let serialization = match self.config.rate_bytes_per_sec {
            Some(rate) => {
                SimDuration::from_nanos((size as u64).saturating_mul(1_000_000_000) / rate.max(1))
            }
            None => SimDuration::ZERO,
        };
        let wire_time = start + serialization;
        self.next_free = wire_time;

        // Propagation with jitter.
        let jitter = if self.config.jitter > SimDuration::ZERO {
            self.config.jitter.mul_f64(rng.f64())
        } else {
            SimDuration::ZERO
        };
        let mut prop = self.config.delay + jitter;

        // Reordering: hold this packet back so later ones overtake it.
        let reordered = rng.chance(self.config.reorder);
        if reordered {
            prop = prop + self.config.reorder_hold;
        }

        let tap_time = wire_time + prop.mul_f64(tap_position.clamp(0.0, 1.0));
        let arrival = wire_time + prop;

        // Loss.
        let lost = rng.chance(self.config.loss);
        let mut deliveries = Deliveries::NONE;
        if !lost {
            deliveries.push(arrival);
            if rng.chance(self.config.duplicate) {
                deliveries.push(arrival + self.config.dup_gap);
            }
        }

        Transit {
            tap_time,
            deliveries,
            reordered,
            lost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn ideal_link_delivers_after_delay() {
        let mut link = Link::new(LinkConfig::ideal(ms(10)));
        let mut rng = Rng::new(1);
        let t = link.send(SimTime::ZERO, 1200, 0.5, &mut rng);
        assert_eq!(*t.deliveries, [SimTime::ZERO + ms(10)]);
        assert_eq!(t.tap_time, SimTime::ZERO + ms(5));
        assert!(!t.lost && !t.reordered);
    }

    #[test]
    fn loss_drops_all_deliveries_but_tap_still_sees() {
        let cfg = LinkConfig::ideal(ms(10)).with_loss(1.0);
        let mut link = Link::new(cfg);
        let mut rng = Rng::new(2);
        let t = link.send(SimTime::ZERO, 100, 0.0, &mut rng);
        assert!(t.lost);
        assert!(t.deliveries.is_empty());
        assert_eq!(t.tap_time, SimTime::ZERO);
    }

    #[test]
    fn reorder_holds_packet_back() {
        let cfg = LinkConfig {
            reorder: 1.0,
            reorder_hold: ms(5),
            ..LinkConfig::ideal(ms(10))
        };
        let mut link = Link::new(cfg);
        let mut rng = Rng::new(3);
        let t = link.send(SimTime::ZERO, 100, 1.0, &mut rng);
        assert!(t.reordered);
        assert_eq!(*t.deliveries, [SimTime::ZERO + ms(15)]);
    }

    #[test]
    fn held_packet_is_overtaken_by_follower() {
        let cfg = LinkConfig {
            reorder: 1.0,
            reorder_hold: ms(5),
            ..LinkConfig::ideal(ms(10))
        };
        let mut link = Link::new(cfg.clone());
        let mut rng = Rng::new(4);
        let first = link.send(SimTime::ZERO, 100, 0.0, &mut rng);
        // Second packet through an unimpaired link sent 1 ms later.
        let mut clean = Link::new(LinkConfig::ideal(ms(10)));
        let second = clean.send(SimTime::ZERO + ms(1), 100, 0.0, &mut rng);
        assert!(second.deliveries[0] < first.deliveries[0], "overtake");
    }

    #[test]
    fn duplicate_produces_two_deliveries() {
        let cfg = LinkConfig {
            duplicate: 1.0,
            dup_gap: ms(1),
            ..LinkConfig::ideal(ms(10))
        };
        let mut link = Link::new(cfg);
        let mut rng = Rng::new(5);
        let t = link.send(SimTime::ZERO, 100, 0.0, &mut rng);
        assert_eq!(t.deliveries.len(), 2);
        assert_eq!(t.deliveries[1] - t.deliveries[0], ms(1));
    }

    #[test]
    fn rate_limit_serializes_back_to_back_packets() {
        // 1 MB/s → a 1000-byte packet takes 1 ms to serialize.
        let cfg = LinkConfig {
            rate_bytes_per_sec: Some(1_000_000),
            ..LinkConfig::ideal(ms(10))
        };
        let mut link = Link::new(cfg);
        let mut rng = Rng::new(6);
        let a = link.send(SimTime::ZERO, 1000, 0.0, &mut rng);
        let b = link.send(SimTime::ZERO, 1000, 0.0, &mut rng);
        assert_eq!(a.deliveries[0], SimTime::ZERO + ms(11));
        assert_eq!(b.deliveries[0], SimTime::ZERO + ms(12));
    }

    #[test]
    fn jitter_bounded() {
        let cfg = LinkConfig::ideal(ms(10)).with_jitter(ms(4));
        let mut link = Link::new(cfg);
        let mut rng = Rng::new(7);
        for _ in 0..200 {
            let t = link.send(SimTime::ZERO, 100, 0.0, &mut rng);
            let d = t.deliveries[0] - SimTime::ZERO;
            assert!(d >= ms(10) && d <= ms(14), "delay {d}");
        }
    }

    #[test]
    fn loss_rate_statistical() {
        let cfg = LinkConfig::ideal(ms(1)).with_loss(0.3);
        let mut link = Link::new(cfg);
        let mut rng = Rng::new(8);
        let lost = (0..10_000)
            .filter(|_| link.send(SimTime::ZERO, 100, 0.0, &mut rng).lost)
            .count();
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn deterministic_given_same_seed() {
        let cfg = LinkConfig::ideal(ms(10))
            .with_loss(0.1)
            .with_jitter(ms(2))
            .with_reorder(0.1);
        let run = |seed| {
            let mut link = Link::new(cfg.clone());
            let mut rng = Rng::new(seed);
            (0..50)
                .map(|i| {
                    link.send(SimTime::ZERO + ms(i), 100, 0.5, &mut rng)
                        .deliveries
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
