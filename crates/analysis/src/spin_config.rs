//! Table 3: how QUIC domains set the spin bit (all-zero / all-one /
//! spinning / greased).

use crate::dataset::{DomainClass, ListTally};
use quicspin_scanner::Campaign;
use quicspin_webpop::ListKind;
use serde::{Deserialize, Serialize};

/// One Table 3 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpinConfigRow {
    /// QUIC domains observed.
    pub quic_domains: u64,
    /// Domains whose packets were all zero.
    pub all_zero: u64,
    /// Domains whose packets were all one.
    pub all_one: u64,
    /// Domains with genuine spin activity (post grease filter).
    pub spin: u64,
    /// Domains caught by the grease filter.
    pub grease: u64,
}

impl SpinConfigRow {
    fn pct(&self, part: u64) -> f64 {
        if self.quic_domains == 0 {
            0.0
        } else {
            part as f64 / self.quic_domains as f64 * 100.0
        }
    }

    /// Share of QUIC domains sending all-zero.
    pub fn all_zero_pct(&self) -> f64 {
        self.pct(self.all_zero)
    }

    /// Share sending all-one.
    pub fn all_one_pct(&self) -> f64 {
        self.pct(self.all_one)
    }

    /// Share spinning.
    pub fn spin_pct(&self) -> f64 {
        self.pct(self.spin)
    }

    /// Share filtered as greased.
    pub fn grease_pct(&self) -> f64 {
        self.pct(self.grease)
    }
}

/// Table 3.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpinConfigTable {
    /// Toplists row.
    pub toplists: SpinConfigRow,
    /// CZDS row.
    pub czds: SpinConfigRow,
    /// com/net/org row.
    pub com_net_org: SpinConfigRow,
}

impl SpinConfigTable {
    /// Computes the table from one campaign.
    pub fn from_campaign(campaign: &Campaign) -> Self {
        Self::from_tally(&ListTally::from_campaign(campaign))
    }

    /// Computes the table from a (possibly merged) tally.
    pub(crate) fn from_tally(tally: &ListTally) -> Self {
        SpinConfigTable {
            toplists: Self::row(tally, |l| l == ListKind::Toplist),
            czds: Self::row(tally, ListKind::is_czds),
            com_net_org: Self::row(tally, |l| l == ListKind::ZoneComNetOrg),
        }
    }

    fn row(tally: &ListTally, filter: impl Fn(ListKind) -> bool) -> SpinConfigRow {
        let classes = tally.classes(filter);
        let quic_domains = classes.iter().sum::<u64>() - classes[DomainClass::NoQuic as usize];
        SpinConfigRow {
            quic_domains,
            all_zero: classes[DomainClass::AllZero as usize],
            all_one: classes[DomainClass::AllOne as usize],
            spin: classes[DomainClass::Spin as usize],
            grease: classes[DomainClass::Grease as usize],
        }
    }

    /// Named rows.
    pub fn rows(&self) -> [(&'static str, &SpinConfigRow); 3] {
        [
            ("Toplists", &self.toplists),
            ("CZDS", &self.czds),
            ("com/net/org", &self.com_net_org),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_scanner::{CampaignConfig, NetworkConditions, Scanner};
    use quicspin_webpop::{Population, PopulationConfig};

    fn table(zone_domains: u32, seed: u64) -> SpinConfigTable {
        let pop = Population::generate(PopulationConfig {
            seed,
            toplist_domains: 500,
            zone_domains,
        });
        let campaign = Scanner::new(&pop).run_campaign(&CampaignConfig {
            conditions: NetworkConditions::clean(),
            ..CampaignConfig::default()
        });
        SpinConfigTable::from_campaign(&campaign)
    }

    #[test]
    fn categories_partition_quic_domains() {
        let t = table(20_000, 1);
        for (_, row) in t.rows() {
            assert_eq!(
                row.all_zero + row.all_one + row.spin + row.grease,
                row.quic_domains,
                "categories must partition"
            );
        }
    }

    #[test]
    fn all_zero_dominates_disabled_domains() {
        // Paper: "most domains that do not use the spin bit use a value of
        // zero while only few exclusively send a value of one".
        let t = table(60_000, 2);
        let row = &t.czds;
        assert!(
            row.all_zero > 20 * row.all_one.max(1),
            "all-zero {} ≫ all-one {}",
            row.all_zero,
            row.all_one
        );
    }

    #[test]
    fn grease_filter_catches_few() {
        let t = table(60_000, 3);
        let row = &t.czds;
        assert!(
            row.grease_pct() < 2.0,
            "grease share small: {:.2}%",
            row.grease_pct()
        );
    }

    #[test]
    fn zone_spin_share_near_paper() {
        let t = table(60_000, 4);
        let pct = t.czds.spin_pct();
        assert!(
            (5.0..=18.0).contains(&pct),
            "CZDS spin share ≈10%: {pct:.1}%"
        );
    }

    #[test]
    fn percentages_consistent() {
        let t = table(20_000, 5);
        let row = &t.com_net_org;
        let sum = row.all_zero_pct() + row.all_one_pct() + row.spin_pct() + row.grease_pct();
        if row.quic_domains > 0 {
            assert!((sum - 100.0).abs() < 1e-9, "{sum}");
        }
    }
}
