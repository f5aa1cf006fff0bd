//! Table 2: attribution of connections and spin activity to AS
//! organizations (the paper maps IP → ASN via RIPE RIS, then ASN → org
//! via CAIDA as2org; the population model carries the mapping directly).

use quicspin_scanner::{Campaign, ConnectionRecord, ScanOutcome};
use quicspin_webpop::{ListKind, Org, ALL_ORGS};
use serde::{Deserialize, Serialize};

/// One organization's row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrgRow {
    /// Organization.
    pub org: Org,
    /// Established connections attributed to it.
    pub total_connections: u64,
    /// Connections with spin activity.
    pub spin_connections: u64,
    /// Rank by total connections (1 = most; `None` for the unranked
    /// `<other>` remainder row, as in the paper's Table 2).
    pub total_rank: Option<usize>,
    /// Rank by spin connections (1 = most; `None` if zero or unranked).
    pub spin_rank: Option<usize>,
}

impl OrgRow {
    /// Spin share of this org's connections.
    pub fn spin_pct(&self) -> f64 {
        if self.total_connections == 0 {
            0.0
        } else {
            self.spin_connections as f64 / self.total_connections as f64 * 100.0
        }
    }
}

/// Table 2.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrgTable {
    /// All organizations, ordered by total connections (descending).
    pub rows: Vec<OrgRow>,
}

/// Established com/net/org connections and their spinning subset per
/// organization: the fold behind Table 2, indexed by [`Org::index`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrgCounts {
    totals: [u64; ALL_ORGS.len()],
    spins: [u64; ALL_ORGS.len()],
}

impl OrgCounts {
    /// Adds one record: an established com/net/org connection counts for
    /// its organization, as in the paper.
    pub fn add(&mut self, record: &ConnectionRecord) {
        if record.outcome != ScanOutcome::Ok || record.list != ListKind::ZoneComNetOrg {
            return;
        }
        let idx = record.org.index();
        self.totals[idx] += 1;
        self.spins[idx] += u64::from(record.has_spin_activity());
    }

    /// Adds counts accumulated over another, disjoint record set.
    pub fn merge(&mut self, other: OrgCounts) {
        for i in 0..ALL_ORGS.len() {
            self.totals[i] += other.totals[i];
            self.spins[i] += other.spins[i];
        }
    }
}

impl OrgTable {
    /// Computes the table from a campaign, restricted to com/net/org
    /// connections as in the paper.
    pub fn from_campaign(campaign: &Campaign) -> Self {
        let mut counts = OrgCounts::default();
        campaign.records.iter().for_each(|r| counts.add(r));
        Self::ranked(&counts)
    }

    /// Ranks the organizations by their counts.
    pub(crate) fn ranked(counts: &OrgCounts) -> Self {
        let mut rows: Vec<OrgRow> = ALL_ORGS
            .iter()
            .map(|&org| OrgRow {
                org,
                total_connections: counts.totals[org.index()],
                spin_connections: counts.spins[org.index()],
                total_rank: None,
                spin_rank: None,
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.total_connections));
        // The `<other>` aggregate is a remainder row and stays unranked,
        // exactly as in the paper's Table 2.
        let mut rank = 0;
        for row in rows.iter_mut() {
            if row.org != Org::Other {
                rank += 1;
                row.total_rank = Some(rank);
            }
        }
        let mut by_spin: Vec<(Org, u64)> = rows
            .iter()
            .filter(|r| r.org != Org::Other)
            .map(|r| (r.org, r.spin_connections))
            .collect();
        by_spin.sort_by_key(|&(_, spin)| std::cmp::Reverse(spin));
        for (i, (org, spin)) in by_spin.iter().enumerate() {
            if *spin > 0 {
                if let Some(row) = rows.iter_mut().find(|r| r.org == *org) {
                    row.spin_rank = Some(i + 1);
                }
            }
        }
        OrgTable { rows }
    }

    /// The row of one organization.
    pub fn row(&self, org: Org) -> &OrgRow {
        self.rows
            .iter()
            .find(|r| r.org == org)
            .expect("all orgs present")
    }

    /// Total established connections across organizations.
    pub fn total_connections(&self) -> u64 {
        self.rows.iter().map(|r| r.total_connections).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_scanner::{CampaignConfig, NetworkConditions, Scanner};
    use quicspin_webpop::{Population, PopulationConfig};

    fn table(zone_domains: u32, seed: u64) -> OrgTable {
        let pop = Population::generate(PopulationConfig {
            seed,
            toplist_domains: 0,
            zone_domains,
        });
        let campaign = Scanner::new(&pop).run_campaign(&CampaignConfig {
            conditions: NetworkConditions::clean(),
            ..CampaignConfig::default()
        });
        OrgTable::from_campaign(&campaign)
    }

    #[test]
    fn all_orgs_present_and_ranked() {
        let t = table(20_000, 1);
        assert_eq!(t.rows.len(), 9);
        let ranked: Vec<usize> = t.rows.iter().filter_map(|r| r.total_rank).collect();
        assert_eq!(ranked.len(), 8, "all but <other> ranked");
        let mut sorted = ranked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=8).collect::<Vec<_>>());
        assert!(t.row(Org::Other).total_rank.is_none());
        assert!(t.row(Org::Other).spin_rank.is_none());
        // Descending totals.
        for w in t.rows.windows(2) {
            assert!(w[0].total_connections >= w[1].total_connections);
        }
    }

    #[test]
    fn cloudflare_leads_connections_without_spin() {
        let t = table(60_000, 2);
        let cf = t.row(Org::Cloudflare);
        assert_eq!(cf.total_rank, Some(1), "Cloudflare is #1 by connections");
        assert_eq!(cf.spin_connections, 0, "Cloudflare never spins");
        assert_eq!(cf.spin_rank, None);
    }

    #[test]
    fn hostinger_is_top_spin_driver() {
        let t = table(60_000, 3);
        let hostinger = t.row(Org::Hostinger);
        assert_eq!(
            hostinger.spin_rank,
            Some(1),
            "Hostinger leads spin support (spin={}, table={:?})",
            hostinger.spin_connections,
            t.rows
                .iter()
                .map(|r| (r.org, r.spin_connections))
                .collect::<Vec<_>>()
        );
        assert!(
            hostinger.spin_pct() > 35.0 && hostinger.spin_pct() < 65.0,
            "Hostinger spin share ≈ half: {:.1}%",
            hostinger.spin_pct()
        );
    }

    #[test]
    fn broad_other_base_spins() {
        let t = table(60_000, 4);
        let other = t.row(Org::Other);
        assert!(
            other.spin_pct() > 30.0,
            "<other> spin share {:.1}%",
            other.spin_pct()
        );
        assert!(other.spin_connections > 0);
    }

    #[test]
    fn totals_are_consistent() {
        let t = table(20_000, 5);
        assert_eq!(
            t.total_connections(),
            t.rows.iter().map(|r| r.total_connections).sum::<u64>()
        );
    }

    #[test]
    fn only_established_com_net_org_connections_count() {
        use quicspin_webpop::IpVersion;
        let record = |list, outcome| {
            ConnectionRecord::failed(0, list, Org::Hostinger, 0, IpVersion::V4, outcome)
        };
        let mut counts = OrgCounts::default();
        counts.add(&record(ListKind::ZoneComNetOrg, ScanOutcome::Ok));
        counts.add(&record(ListKind::Toplist, ScanOutcome::Ok));
        counts.add(&record(ListKind::ZoneOther, ScanOutcome::Ok));
        counts.add(&record(ListKind::ZoneComNetOrg, ScanOutcome::NoQuic));
        let mut merged = OrgCounts::default();
        merged.merge(counts);
        let table = OrgTable::ranked(&merged);
        assert_eq!(table.total_connections(), 1);
        assert_eq!(table.row(Org::Hostinger).total_connections, 1);
        assert_eq!(table.row(Org::Hostinger).total_rank, Some(1));
    }
}
