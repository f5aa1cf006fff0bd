//! Streaming campaign aggregation: fold scan records into the paper's
//! aggregates as they are produced, without retaining every
//! [`ConnectionRecord`].
//!
//! A full sweep's record vector is the scanner's dominant memory cost
//! (every established record carries an observer report, and optionally a
//! qlog trace). For campaigns that only feed Table-1/4-style overviews
//! and the domain-class taxonomy, [`CampaignAggregates`] folds each
//! domain's records into counters the moment they exist — the engine's
//! [`run_campaign_fold`](quicspin_scanner::Scanner::run_campaign_fold)
//! drives it, so memory stays proportional to the number of distinct
//! (list, host) pairs instead of the number of records.

use crate::dataset::DomainClass;
use crate::overview::{OverviewRow, OverviewTable};
use quicspin_core::FlowClassification;
use quicspin_scanner::{CampaignConfig, ConnectionRecord, RecordRow, ScanOutcome, Scanner};
use quicspin_webpop::{HostAddr, ListKind};
use std::collections::BTreeMap;

/// Per-list domain counters (one overview row before host accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ListCounts {
    total: u64,
    resolved: u64,
    quic: u64,
    spin: u64,
}

/// Incrementally built campaign aggregates.
///
/// Produces exactly the numbers of
/// [`OverviewTable::from_campaign`](crate::overview::OverviewTable::from_campaign)
/// plus domain-class counts, but from a streaming fold. Batch-merge order
/// is handled by the campaign engine; `merge` itself is commutative over
/// disjoint domain sets, so results match the batch pipeline exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignAggregates {
    /// Scanned domains.
    pub domains: u64,
    /// Total records folded in (redirect hops add extra).
    pub records: u64,
    /// Records with an established connection.
    pub established: u64,
    /// Records whose probe errored (handshake failure or unreachable
    /// host) rather than completing with an expected outcome.
    pub probes_errored: u64,
    /// Domains per spin-behaviour class.
    pub class_counts: BTreeMap<DomainClass, u64>,
    lists: BTreeMap<ListKind, ListCounts>,
    /// (list, host) → did any of that list's domains on the host spin?
    hosts: BTreeMap<(ListKind, HostAddr), bool>,
}

impl CampaignAggregates {
    /// Folds one domain's records (all redirect hops) into the aggregates.
    pub fn fold_domain(&mut self, records: &[ConnectionRecord]) {
        self.fold_rows(records.iter().map(RecordRow::of));
    }

    /// A single pass over one domain's rows (all redirect hops).
    fn fold_rows(&mut self, rows: impl Iterator<Item = RecordRow>) {
        let mut first: Option<(ListKind, ScanOutcome)> = None;
        let mut count = 0u64;
        let mut established = 0u64;
        let mut errored = 0u64;
        let mut any_spin = false;
        let mut any_grease = false;
        let mut any_one = false;
        let mut host: Option<HostAddr> = None;
        for row in rows {
            if first.is_none() {
                first = Some((row.list, row.outcome));
            }
            count += 1;
            match row.outcome {
                ScanOutcome::Ok => {
                    established += 1;
                    match row.classification {
                        Some(FlowClassification::Spinning) => any_spin = true,
                        Some(FlowClassification::Greased) => any_grease = true,
                        Some(FlowClassification::AllOne) => any_one = true,
                        Some(FlowClassification::AllZero)
                        | Some(FlowClassification::NoShortPackets)
                        | None => {}
                    }
                }
                ScanOutcome::HandshakeFailed | ScanOutcome::Unreachable => errored += 1,
                ScanOutcome::NotResolved | ScanOutcome::NoQuic => {}
            }
            if host.is_none() {
                host = row.host;
            }
        }
        let Some((list, first_outcome)) = first else {
            return;
        };

        self.domains += 1;
        self.records += count;
        self.established += established;
        self.probes_errored += errored;

        // Any established record means the domain answered QUIC; the
        // class precedence mirrors the paper's taxonomy.
        let quic = established > 0;
        let class = if !quic {
            DomainClass::NoQuic
        } else if any_spin {
            DomainClass::Spin
        } else if any_grease {
            DomainClass::Grease
        } else if any_one {
            DomainClass::AllOne
        } else {
            DomainClass::AllZero
        };
        *self.class_counts.entry(class).or_default() += 1;

        let counts = self.lists.entry(list).or_default();
        counts.total += 1;
        if first_outcome != ScanOutcome::NotResolved {
            counts.resolved += 1;
        }
        if quic {
            counts.quic += 1;
        }
        if class == DomainClass::Spin {
            counts.spin += 1;
        }

        if quic {
            if let Some(host) = host {
                let entry = self.hosts.entry((list, host)).or_insert(false);
                *entry |= class == DomainClass::Spin;
            }
        }
    }

    /// Merges another aggregate (over a disjoint domain set) into this one.
    pub fn merge(&mut self, other: CampaignAggregates) {
        self.domains += other.domains;
        self.records += other.records;
        self.established += other.established;
        self.probes_errored += other.probes_errored;
        for (class, n) in other.class_counts {
            *self.class_counts.entry(class).or_default() += n;
        }
        for (list, counts) in other.lists {
            let mine = self.lists.entry(list).or_default();
            mine.total += counts.total;
            mine.resolved += counts.resolved;
            mine.quic += counts.quic;
            mine.spin += counts.spin;
        }
        for (key, spin) in other.hosts {
            let entry = self.hosts.entry(key).or_insert(false);
            *entry |= spin;
        }
    }

    /// The overview row for a list selection (same semantics as
    /// [`OverviewTable`]'s rows: hosts serving domains in several matching
    /// lists count once).
    pub fn row(&self, filter: impl Fn(ListKind) -> bool) -> OverviewRow {
        let mut row = OverviewRow {
            total_domains: 0,
            resolved_domains: 0,
            quic_domains: 0,
            spin_domains: 0,
            quic_ips: 0,
            spin_ips: 0,
        };
        for (_, counts) in self.lists.iter().filter(|&(&list, _)| filter(list)) {
            row.total_domains += counts.total;
            row.resolved_domains += counts.resolved;
            row.quic_domains += counts.quic;
            row.spin_domains += counts.spin;
        }
        let mut hosts: BTreeMap<HostAddr, bool> = BTreeMap::new();
        for (&(list, host), &spin) in &self.hosts {
            if filter(list) {
                let entry = hosts.entry(host).or_insert(false);
                *entry |= spin;
            }
        }
        row.quic_ips = hosts.len() as u64;
        row.spin_ips = hosts.values().filter(|&&spin| spin).count() as u64;
        row
    }

    /// Assembles the full Table 1 / Table 4 from the aggregates.
    pub fn overview_table(&self) -> OverviewTable {
        OverviewTable {
            toplists: self.row(|l| l == ListKind::Toplist),
            czds: self.row(ListKind::is_czds),
            com_net_org: self.row(|l| l == ListKind::ZoneComNetOrg),
        }
    }
}

/// Sweeps `ids` with the campaign engine, folding straight into
/// [`CampaignAggregates`]: no record vector is ever materialized.
pub fn aggregate_campaign(
    scanner: &Scanner,
    config: &CampaignConfig,
    ids: std::ops::Range<u32>,
) -> CampaignAggregates {
    scanner.run_campaign_fold(
        config,
        ids,
        CampaignAggregates::default,
        |acc, records| acc.fold_domain(records),
        CampaignAggregates::merge,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_scanner::NetworkConditions;
    use quicspin_webpop::{Population, PopulationConfig};

    fn pop() -> Population {
        Population::generate(PopulationConfig {
            seed: 21,
            toplist_domains: 150,
            zone_domains: 1_500,
        })
    }

    fn config(threads: usize) -> CampaignConfig {
        CampaignConfig {
            threads,
            conditions: NetworkConditions::clean(),
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn streaming_matches_batch_overview() {
        let pop = pop();
        let scanner = Scanner::new(&pop);
        let cfg = config(2);
        let campaign = scanner.run_campaign(&cfg);
        let batch = OverviewTable::from_campaign(&campaign);
        let streamed = aggregate_campaign(&scanner, &cfg, 0..pop.len() as u32);
        assert_eq!(streamed.overview_table(), batch);
        assert_eq!(streamed.domains, pop.len() as u64);
        assert_eq!(streamed.records, campaign.len() as u64);
        assert_eq!(streamed.established, campaign.established().count() as u64);
        let errored = campaign
            .records
            .iter()
            .filter(|r| {
                matches!(
                    r.outcome,
                    quicspin_scanner::ScanOutcome::HandshakeFailed
                        | quicspin_scanner::ScanOutcome::Unreachable
                )
            })
            .count() as u64;
        assert_eq!(streamed.probes_errored, errored);
    }

    #[test]
    fn lossy_campaign_surfaces_probe_errors() {
        let pop = pop();
        let scanner = Scanner::new(&pop);
        let cfg = CampaignConfig {
            threads: 2,
            conditions: NetworkConditions {
                loss: 0.25,
                ..NetworkConditions::clean()
            },
            ..CampaignConfig::default()
        };
        let agg = aggregate_campaign(&scanner, &cfg, 0..pop.len() as u32);
        assert!(
            agg.probes_errored > 0,
            "heavy loss must surface as counted probe errors"
        );
    }

    #[test]
    fn streaming_is_thread_count_invariant() {
        let pop = pop();
        let scanner = Scanner::new(&pop);
        let ids = 0..pop.len() as u32;
        let one = aggregate_campaign(&scanner, &config(1), ids.clone());
        let eight = aggregate_campaign(&scanner, &config(8), ids);
        assert_eq!(one, eight);
    }

    #[test]
    fn class_counts_cover_every_domain() {
        let pop = pop();
        let scanner = Scanner::new(&pop);
        let agg = aggregate_campaign(&scanner, &config(4), 0..pop.len() as u32);
        let classified: u64 = agg.class_counts.values().sum();
        assert_eq!(classified, agg.domains);
    }
}
