//! Unidirectional link model with smoltcp-style fault injection.
//!
//! A [`Link`] applies, in order: serialization (token-bucket rate limit),
//! propagation delay with jitter, random extra "reorder" delay, and random
//! loss. All randomness comes from the caller's [`Rng`], so a link is
//! exactly reproducible.

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

/// What happened to a packet entering the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transit {
    /// When the packet passes an on-path tap at `position` (set by the
    /// simulator); this is the send time plus serialization plus a fraction
    /// of the propagation delay. Populated for every packet, including
    /// ones dropped later on the path.
    pub tap_time: SimTime,
    /// Delivery time at the far end; `None` = dropped.
    pub delivery: Option<SimTime>,
    /// Whether this packet was held back for reordering.
    pub reordered: bool,
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

        Transit {
            tap_time,
            delivery: (!lost).then_some(arrival),
            reordered,
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
        assert_eq!(t.delivery, Some(SimTime::ZERO + ms(10)));
        assert_eq!(t.tap_time, SimTime::ZERO + ms(5));
        assert!(!t.reordered);
    }

    #[test]
    fn loss_drops_the_delivery_but_tap_still_sees() {
        let cfg = LinkConfig::ideal(ms(10)).with_loss(1.0);
        let mut link = Link::new(cfg);
        let mut rng = Rng::new(2);
        let t = link.send(SimTime::ZERO, 100, 0.0, &mut rng);
        assert_eq!(t.delivery, None);
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
        assert_eq!(t.delivery, Some(SimTime::ZERO + ms(15)));
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
        assert!(second.delivery < first.delivery, "overtake");
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
        assert_eq!(a.delivery, Some(SimTime::ZERO + ms(11)));
        assert_eq!(b.delivery, Some(SimTime::ZERO + ms(12)));
    }

    #[test]
    fn jitter_bounded() {
        let cfg = LinkConfig::ideal(ms(10)).with_jitter(ms(4));
        let mut link = Link::new(cfg);
        let mut rng = Rng::new(7);
        for _ in 0..200 {
            let t = link.send(SimTime::ZERO, 100, 0.0, &mut rng);
            let d = t.delivery.unwrap() - SimTime::ZERO;
            assert!(d >= ms(10) && d <= ms(14), "delay {d}");
        }
    }

    #[test]
    fn loss_rate_statistical() {
        let cfg = LinkConfig::ideal(ms(1)).with_loss(0.3);
        let mut link = Link::new(cfg);
        let mut rng = Rng::new(8);
        let lost = (0..10_000)
            .filter(|_| {
                link.send(SimTime::ZERO, 100, 0.0, &mut rng)
                    .delivery
                    .is_none()
            })
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
                        .delivery
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
