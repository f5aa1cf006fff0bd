//! Tables 1 and 4: deployment overview per target list.

use crate::dataset::{DomainClass, ListTally};
use quicspin_scanner::Campaign;
use quicspin_webpop::ListKind;
use serde::{Deserialize, Serialize};

/// One row group (Toplists / CZDS / com-net-org) of Table 1 or 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverviewRow {
    /// Total domains targeted.
    pub total_domains: u64,
    /// Domains that resolved.
    pub resolved_domains: u64,
    /// Domains with ≥ 1 established QUIC connection.
    pub quic_domains: u64,
    /// QUIC domains with spin activity.
    pub spin_domains: u64,
    /// Distinct hosts (IPs) serving QUIC domains.
    pub quic_ips: u64,
    /// Hosts with spin activity on ≥ 1 connection.
    pub spin_ips: u64,
}

impl OverviewRow {
    /// Spin share among QUIC domains (the paper's "Spin" percentage).
    pub fn spin_domain_pct(&self) -> f64 {
        percentage(self.spin_domains, self.quic_domains)
    }

    /// Spin share among QUIC hosts.
    pub fn spin_ip_pct(&self) -> f64 {
        percentage(self.spin_ips, self.quic_ips)
    }

    /// QUIC share among resolved domains.
    pub fn quic_pct_of_resolved(&self) -> f64 {
        percentage(self.quic_domains, self.resolved_domains)
    }

    /// Resolution rate.
    pub fn resolved_pct(&self) -> f64 {
        percentage(self.resolved_domains, self.total_domains)
    }

    /// Average domains per IP (the pooling ratio discussed in §4.1).
    pub fn domains_per_ip(&self) -> f64 {
        if self.quic_ips == 0 {
            0.0
        } else {
            self.quic_domains as f64 / self.quic_ips as f64
        }
    }
}

fn percentage(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

/// Table 1 (IPv4) / Table 4 (IPv6), depending on the campaign fed in.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverviewTable {
    /// Toplist row.
    pub toplists: OverviewRow,
    /// All-CZDS row.
    pub czds: OverviewRow,
    /// com/net/org row.
    pub com_net_org: OverviewRow,
}

impl OverviewTable {
    /// Computes the table from one campaign.
    pub fn from_campaign(campaign: &Campaign) -> Self {
        Self::from_tally(&ListTally::from_campaign(campaign))
    }

    /// Computes the table from a (possibly merged) tally.
    pub(crate) fn from_tally(tally: &ListTally) -> Self {
        OverviewTable {
            toplists: Self::row(tally, |l| l == ListKind::Toplist),
            czds: Self::row(tally, ListKind::is_czds),
            com_net_org: Self::row(tally, |l| l == ListKind::ZoneComNetOrg),
        }
    }

    fn row(tally: &ListTally, filter: impl Fn(ListKind) -> bool + Copy) -> OverviewRow {
        let classes = tally.classes(filter);
        let total_domains: u64 = classes.iter().sum();
        let (quic_ips, spin_ips) = tally.hosts(filter);
        OverviewRow {
            total_domains,
            resolved_domains: tally.resolved(filter),
            quic_domains: total_domains - classes[DomainClass::NoQuic as usize],
            spin_domains: classes[DomainClass::Spin as usize],
            quic_ips,
            spin_ips,
        }
    }

    /// The row for a named selection.
    pub fn rows(&self) -> [(&'static str, &OverviewRow); 3] {
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

    fn scan(seed: u64, toplist: u32, zone: u32) -> OverviewTable {
        let pop = Population::generate(PopulationConfig {
            seed,
            toplist_domains: toplist,
            zone_domains: zone,
        });
        let campaign = Scanner::new(&pop).run_campaign(&CampaignConfig {
            conditions: NetworkConditions::clean(),
            ..CampaignConfig::default()
        });
        OverviewTable::from_campaign(&campaign)
    }

    #[test]
    fn totals_match_population() {
        let table = scan(3, 300, 2_000);
        assert_eq!(table.toplists.total_domains, 300);
        assert_eq!(
            table.czds.total_domains, 2_000,
            "CZDS row covers all zone domains"
        );
        assert!(table.com_net_org.total_domains < table.czds.total_domains);
        assert!(table.com_net_org.total_domains > 1_000, "~84.5% of zones");
    }

    #[test]
    fn monotone_funnel() {
        let table = scan(4, 500, 3_000);
        for (_, row) in table.rows() {
            assert!(row.resolved_domains <= row.total_domains);
            assert!(row.quic_domains <= row.resolved_domains);
            assert!(row.spin_domains <= row.quic_domains);
            assert!(row.spin_ips <= row.quic_ips);
        }
    }

    #[test]
    fn percentages_bounded() {
        let table = scan(5, 300, 2_000);
        for (_, row) in table.rows() {
            for pct in [
                row.spin_domain_pct(),
                row.spin_ip_pct(),
                row.quic_pct_of_resolved(),
                row.resolved_pct(),
            ] {
                assert!((0.0..=100.0).contains(&pct), "{pct}");
            }
        }
    }

    #[test]
    fn empty_row_percentages_are_zero() {
        let row = OverviewRow {
            total_domains: 0,
            resolved_domains: 0,
            quic_domains: 0,
            spin_domains: 0,
            quic_ips: 0,
            spin_ips: 0,
        };
        assert_eq!(row.spin_domain_pct(), 0.0);
        assert_eq!(row.domains_per_ip(), 0.0);
    }

    #[test]
    fn zone_domains_pool_more_than_toplists() {
        let table = scan(6, 2_000, 30_000);
        let zone_pool = table.czds.domains_per_ip();
        let top_pool = table.toplists.domains_per_ip();
        assert!(
            zone_pool > top_pool,
            "zones pool harder: zone {zone_pool:.1} vs toplist {top_pool:.1}"
        );
    }

    #[test]
    fn spin_ip_share_exceeds_spin_domain_share_for_zones() {
        // The paper's key §4.1 observation: ~10 % of CZDS domains spin but
        // ~50 % of the IPs serving them do.
        let table = scan(7, 0, 60_000);
        assert!(
            table.czds.spin_ip_pct() > 2.0 * table.czds.spin_domain_pct(),
            "IP spin share {:.1}% must far exceed domain share {:.1}%",
            table.czds.spin_ip_pct(),
            table.czds.spin_domain_pct()
        );
    }
}
