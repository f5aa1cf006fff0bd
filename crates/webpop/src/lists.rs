//! Target-list assembly (paper §3.1): domain toplists and CZDS zones.
//!
//! The paper's target population is the deduplicated union of four
//! toplists (Alexa, Cisco Umbrella, Majestic Million, Tranco) plus the
//! zone files of 1 140 gTLDs from ICANN's Centralized Zone Data Service,
//! dominated by `.com/.net/.org` (84.5 % of the 216.5 M zone domains).
//! This module models both list families: the toplist sources with their
//! pairwise overlap (4 M raw entries deduplicate to 2.73 M), and a zone
//! registry whose size distribution is `.com`-heavy with a Zipf long
//! tail over the other gTLDs.

use quicspin_netsim::{Rng, WeightTable};
use serde::{Deserialize, Serialize};

/// One toplist source (§3.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ToplistSource {
    /// List name.
    pub name: &'static str,
    /// Entries in the raw list.
    pub size: u32,
}

/// The four toplists the paper merges.
pub const TOPLIST_SOURCES: [ToplistSource; 4] = [
    ToplistSource {
        name: "Alexa Top 1M",
        size: 1_000_000,
    },
    ToplistSource {
        name: "Cisco Umbrella",
        size: 1_000_000,
    },
    ToplistSource {
        name: "Majestic Million",
        size: 1_000_000,
    },
    ToplistSource {
        name: "Tranco",
        size: 1_000_000,
    },
];

/// Paper §3.1.1: the four 1 M lists deduplicate to 2 732 702 entries.
pub const DEDUPLICATED_TOPLIST_SIZE: u32 = 2_732_702;

/// Membership bitmask model: the probability that a domain drawn from the
/// deduplicated union appears in `k` of the four sources, derived from
/// the dedup ratio (4 M raw / 2.73 M unique ≈ 1.46 average multiplicity).
pub fn sample_source_membership(rng: &mut Rng) -> u8 {
    // Multiplicity distribution chosen to hit the observed mean ≈ 1.46:
    // P(1)=0.70, P(2)=0.18, P(3)=0.08, P(4)=0.04 → mean 1.46.
    let multiplicity = 1 + rng.weighted_index(&[0.70, 0.18, 0.08, 0.04]);
    // Pick that many distinct sources.
    let mut mask = 0u8;
    while mask.count_ones() < multiplicity as u32 {
        mask |= 1 << rng.index(4);
    }
    mask
}

/// One CZDS zone.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Zone {
    /// The TLD (without dot).
    pub tld: String,
    /// Relative weight (share of zone domains).
    pub weight: u64,
}

/// The registry of zones the campaign covers.
#[derive(Debug, Clone)]
pub struct ZoneRegistry {
    zones: Vec<Zone>,
    /// Zone weights as `f64`, summed once: every zone domain draws here.
    weights: WeightTable,
    total_weight: u64,
}

/// Number of zones in the paper's CW 20/2023 measurement.
pub const ZONE_COUNT: usize = 1_140;

impl Default for ZoneRegistry {
    fn default() -> Self {
        ZoneRegistry::paper()
    }
}

impl ZoneRegistry {
    /// Builds the paper-shaped registry: `.com/.net/.org` carry 84.5 % of
    /// all zone domains (`.com` alone the lion's share), the other 1 137
    /// gTLDs follow a Zipf tail.
    pub fn paper() -> Self {
        let mut zones = Vec::with_capacity(ZONE_COUNT);
        // Weights in thousandths of the total population.
        // com/net/org: 845 combined (paper: 183.0 M / 216.5 M).
        zones.push(Zone {
            tld: "com".into(),
            weight: 723_000,
        });
        zones.push(Zone {
            tld: "net".into(),
            weight: 62_000,
        });
        zones.push(Zone {
            tld: "org".into(),
            weight: 60_000,
        });
        // The remaining 15.5 % over 1 137 gTLDs, Zipf(s = 1).
        let tail_total = 155_000f64;
        let harmonic: f64 = (1..=(ZONE_COUNT - 3)).map(|k| 1.0 / k as f64).sum();
        for k in 1..=(ZONE_COUNT - 3) {
            let weight = (tail_total / harmonic / k as f64).max(1.0) as u64;
            zones.push(Zone {
                tld: synthetic_tld(k),
                weight,
            });
        }
        let weights = WeightTable::new(zones.iter().map(|z| z.weight as f64));
        let total_weight = zones.iter().map(|z| z.weight).sum();
        ZoneRegistry {
            zones,
            weights,
            total_weight,
        }
    }

    /// Number of zones.
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Zone by index.
    pub fn zone(&self, index: u16) -> &Zone {
        &self.zones[usize::from(index)]
    }

    /// Samples a zone index for a new domain, weighted by zone size.
    pub fn sample(&self, rng: &mut Rng) -> u16 {
        rng.weighted(&self.weights) as u16
    }

    /// Whether the zone index is one of `.com/.net/.org`.
    pub fn is_com_net_org(index: u16) -> bool {
        index < 3
    }

    /// Share of domains expected in `.com/.net/.org`.
    pub fn com_net_org_share(&self) -> f64 {
        let cno: u64 = self.zones[..3].iter().map(|z| z.weight).sum();
        cno as f64 / self.total_weight as f64
    }
}

/// The TLD string for a zone index, matching [`ZoneRegistry::paper`]'s
/// construction (0..3 = com/net/org, then the synthetic tail).
pub fn tld_for_index(index: u16) -> String {
    match index {
        0 => "com".into(),
        1 => "net".into(),
        2 => "org".into(),
        k => synthetic_tld(usize::from(k) - 2),
    }
}

/// Deterministic synthetic gTLD names for the long tail ("g001"…).
fn synthetic_tld(k: usize) -> String {
    // A few recognizable ones first, then numbered.
    const NAMED: [&str; 12] = [
        "xyz", "info", "online", "top", "shop", "site", "club", "icu", "vip", "store", "app", "dev",
    ];
    if k <= NAMED.len() {
        NAMED[k - 1].to_string()
    } else {
        format!("g{k:04}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toplist_sources_sum_to_four_million() {
        let total: u32 = TOPLIST_SOURCES.iter().map(|s| s.size).sum();
        assert_eq!(total, 4_000_000);
        assert!(DEDUPLICATED_TOPLIST_SIZE < total, "dedup shrinks the union");
    }

    #[test]
    fn membership_mean_multiplicity_matches_dedup_ratio() {
        let mut rng = Rng::new(1);
        let n = 100_000;
        let total: u32 = (0..n)
            .map(|_| sample_source_membership(&mut rng).count_ones())
            .sum();
        let mean = f64::from(total) / f64::from(n);
        let expected = 4_000_000.0 / f64::from(DEDUPLICATED_TOPLIST_SIZE);
        assert!(
            (mean - expected).abs() < 0.03,
            "mean multiplicity {mean} vs dedup ratio {expected}"
        );
    }

    #[test]
    fn membership_is_nonempty_and_within_four_sources() {
        let mut rng = Rng::new(2);
        for _ in 0..1000 {
            let mask = sample_source_membership(&mut rng);
            assert!(mask != 0 && mask < 16, "mask {mask:#b}");
        }
    }

    #[test]
    fn registry_has_paper_zone_count() {
        let registry = ZoneRegistry::paper();
        assert_eq!(registry.len(), ZONE_COUNT);
        assert!(!registry.is_empty());
        assert_eq!(registry.zone(0).tld, "com");
        assert_eq!(registry.zone(1).tld, "net");
        assert_eq!(registry.zone(2).tld, "org");
        assert_eq!(registry.zone(3).tld, "xyz");
    }

    #[test]
    fn com_net_org_carry_their_share() {
        let registry = ZoneRegistry::paper();
        let share = registry.com_net_org_share();
        assert!(
            (share - 0.845).abs() < 0.01,
            "com/net/org share {share} vs paper 0.845"
        );
    }

    #[test]
    fn sampling_follows_weights() {
        let registry = ZoneRegistry::paper();
        let mut rng = Rng::new(3);
        let n = 50_000;
        let cno = (0..n)
            .filter(|_| ZoneRegistry::is_com_net_org(registry.sample(&mut rng)))
            .count();
        let share = cno as f64 / n as f64;
        assert!((share - 0.845).abs() < 0.01, "sampled share {share}");
    }

    #[test]
    fn zipf_tail_is_decreasing() {
        let registry = ZoneRegistry::paper();
        // Tail zones (index >= 3) have non-increasing weights.
        for i in 4..registry.len() {
            assert!(
                registry.zone(i as u16 - 1).weight >= registry.zone(i as u16).weight || i <= 4,
                "tail must decrease at {i}"
            );
        }
        // And .com dwarfs even the largest tail zone.
        assert!(registry.zone(0).weight > 30 * registry.zone(3).weight);
    }

    #[test]
    fn tld_for_index_matches_registry() {
        let registry = ZoneRegistry::paper();
        for index in [0u16, 1, 2, 3, 10, 100, 1139] {
            assert_eq!(tld_for_index(index), registry.zone(index).tld);
        }
    }

    #[test]
    fn synthetic_tlds_are_unique() {
        let registry = ZoneRegistry::paper();
        let mut tlds: Vec<&str> = (0..registry.len())
            .map(|i| registry.zone(i as u16).tld.as_str())
            .collect();
        tlds.sort_unstable();
        let before = tlds.len();
        tlds.dedup();
        assert_eq!(tlds.len(), before, "no duplicate TLDs");
    }
}
