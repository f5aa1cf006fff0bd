//! The domain-class rule, the per-list domain tally behind Tables 1, 3
//! and 4, and [`Dataset`]: every per-campaign artefact as one fold.

use crate::fig3::AbsoluteAccuracyFigure;
use crate::fig4::RatioAccuracyFigure;
use crate::orgs::{OrgCounts, OrgTable};
use crate::overview::OverviewTable;
use crate::reordering::ReorderingImpact;
use crate::spin_config::SpinConfigTable;
use crate::webserver::WebServerShares;
use quicspin_core::FlowClassification;
use quicspin_scanner::{Campaign, ConnectionRecord, ScanOutcome};
use quicspin_webpop::{HostAddr, ListKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Domain-level spin behaviour (Table 3 taxonomy at domain granularity).
/// Variants are declared in precedence order: a domain takes the highest
/// class any of its established connections shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DomainClass {
    /// No QUIC connection established.
    NoQuic,
    /// All observed packets zero on every connection.
    AllZero,
    /// All observed packets one on some connection, none spinning.
    AllOne,
    /// At least one connection caught by the grease filter (and none
    /// spinning).
    Grease,
    /// At least one genuinely spinning connection.
    Spin,
}

impl DomainClass {
    /// Classifies a domain from all its records (every redirect hop): no
    /// established connection is `NoQuic`; otherwise spinning beats
    /// greased, greased beats all-one and all-one beats all-zero.
    pub fn of(records: &[ConnectionRecord]) -> DomainClass {
        records
            .iter()
            .filter(|r| r.outcome == ScanOutcome::Ok)
            .map(|r| match r.report.as_ref().map(|rep| rep.classification) {
                Some(FlowClassification::Spinning) => DomainClass::Spin,
                Some(FlowClassification::Greased) => DomainClass::Grease,
                Some(FlowClassification::AllOne) => DomainClass::AllOne,
                _ => DomainClass::AllZero,
            })
            .max()
            .unwrap_or(DomainClass::NoQuic)
    }
}

/// The target lists, in [`ListKind`] declaration order: `list as usize`
/// indexes the tally.
const LISTS: [ListKind; 3] = [
    ListKind::Toplist,
    ListKind::ZoneComNetOrg,
    ListKind::ZoneOther,
];

/// Indices of the lists `filter` selects.
fn selected(filter: impl Fn(ListKind) -> bool) -> impl Iterator<Item = usize> {
    LISTS
        .into_iter()
        .filter(move |&list| filter(list))
        .map(|list| list as usize)
}

/// Domain-level tally of one campaign per target list: the fold behind
/// Tables 1, 3 and 4.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ListTally {
    /// Per list: domains per [`DomainClass`] (indexed `class as usize`).
    classes: [[u64; 5]; LISTS.len()],
    /// Per list: domains whose name resolved.
    resolved: [u64; LISTS.len()],
    /// Per host serving a QUIC domain: one bit per list with a QUIC domain
    /// on it, one bit per list with a spinning domain on it.
    hosts: BTreeMap<HostAddr, (u8, u8)>,
}

impl ListTally {
    /// Tallies a campaign, one domain at a time.
    pub fn from_campaign(campaign: &Campaign) -> Self {
        let mut tally = ListTally::default();
        campaign.domains().for_each(|d| tally.fold_domain(d));
        tally
    }

    /// Adds one domain, given all its records.
    pub fn fold_domain(&mut self, records: &[ConnectionRecord]) {
        let Some(first) = records.first() else { return };
        let list = first.list as usize;
        let class = DomainClass::of(records);
        self.classes[list][class as usize] += 1;
        self.resolved[list] += u64::from(first.outcome != ScanOutcome::NotResolved);
        if class == DomainClass::NoQuic {
            return;
        }
        if let Some(host) = records.iter().find_map(|r| r.host) {
            let (quic, spin) = self.hosts.entry(host).or_default();
            *quic |= 1 << list;
            *spin |= u8::from(class == DomainClass::Spin) << list;
        }
    }

    /// Adds a tally over another, disjoint set of domains.
    pub fn merge(&mut self, other: ListTally) {
        for (list, classes) in other.classes.iter().enumerate() {
            for (class, n) in classes.iter().enumerate() {
                self.classes[list][class] += n;
            }
            self.resolved[list] += other.resolved[list];
        }
        for (host, (quic, spin)) in other.hosts {
            let mine = self.hosts.entry(host).or_default();
            mine.0 |= quic;
            mine.1 |= spin;
        }
    }

    /// Domains per class over the lists `filter` selects.
    pub(crate) fn classes(&self, filter: impl Fn(ListKind) -> bool) -> [u64; 5] {
        let mut out = [0; 5];
        for list in selected(filter) {
            for (sum, n) in out.iter_mut().zip(self.classes[list]) {
                *sum += n;
            }
        }
        out
    }

    /// Resolved domains over the lists `filter` selects.
    pub(crate) fn resolved(&self, filter: impl Fn(ListKind) -> bool) -> u64 {
        selected(filter).map(|list| self.resolved[list]).sum()
    }

    /// `(QUIC hosts, spinning hosts)` over the lists `filter` selects. A
    /// host serving domains of several selected lists counts once.
    pub(crate) fn hosts(&self, filter: impl Fn(ListKind) -> bool) -> (u64, u64) {
        let mask = selected(filter).fold(0, |mask, list| mask | 1 << list);
        let quic = self.hosts.values().filter(|(q, _)| q & mask != 0).count();
        let spin = self.hosts.values().filter(|(_, s)| s & mask != 0).count();
        (quic as u64, spin as u64)
    }
}

/// Every per-campaign artefact of the paper as one mergeable accumulator:
/// Tables 1–4 (Table 1 or 4 by the campaign's IP version), Figs. 3/4, the
/// §4.2 web-server shares and the §5.2 reordering counts.
///
/// [`from_campaign`](Self::from_campaign) folds a materialized campaign.
/// The campaign engine folds it during the sweep, without holding the
/// records, as `scanner.run_campaign_fold(&config, ids, Dataset::default,
/// |d, records| d.fold_domain(records), Dataset::merge)`. Every part is a
/// count, so any domain-aligned split merged in any order gives the same
/// dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// Tables 1, 3 and 4.
    pub lists: ListTally,
    /// Table 2.
    pub orgs: OrgCounts,
    /// §4.2 web-server shares.
    pub webserver: WebServerShares,
    /// Fig. 3.
    pub fig3: AbsoluteAccuracyFigure,
    /// Fig. 4.
    pub fig4: RatioAccuracyFigure,
    /// §5.2 reordering impact.
    pub reordering: ReorderingImpact,
}

impl Dataset {
    /// Folds a campaign, one domain at a time.
    pub fn from_campaign(campaign: &Campaign) -> Self {
        let mut dataset = Dataset::default();
        campaign.domains().for_each(|d| dataset.fold_domain(d));
        dataset
    }

    /// Adds one domain, given all its records.
    pub fn fold_domain(&mut self, records: &[ConnectionRecord]) {
        self.lists.fold_domain(records);
        for record in records {
            self.orgs.add(record);
            self.webserver.add(record);
            self.fig3.add(record);
            self.fig4.add(record);
            self.reordering.add(record);
        }
    }

    /// Adds a dataset over another, disjoint set of domains.
    pub fn merge(&mut self, other: Dataset) {
        self.lists.merge(other.lists);
        self.orgs.merge(other.orgs);
        self.webserver.merge(other.webserver);
        self.fig3.merge(other.fig3);
        self.fig4.merge(other.fig4);
        self.reordering.merge(other.reordering);
    }

    /// Table 1 (IPv4) or Table 4 (IPv6).
    pub fn overview(&self) -> OverviewTable {
        OverviewTable::from_tally(&self.lists)
    }

    /// Table 2.
    pub fn org_table(&self) -> OrgTable {
        OrgTable::ranked(&self.orgs)
    }

    /// Table 3.
    pub fn spin_config(&self) -> SpinConfigTable {
        SpinConfigTable::from_tally(&self.lists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_core::ObserverReport;
    use quicspin_webpop::{IpVersion, Org};

    fn record(
        domain_id: u32,
        outcome: ScanOutcome,
        class: Option<FlowClassification>,
    ) -> ConnectionRecord {
        let mut r = ConnectionRecord::failed(
            domain_id,
            ListKind::ZoneComNetOrg,
            Org::Hostinger,
            0,
            IpVersion::V4,
            outcome,
        );
        if outcome == ScanOutcome::Ok {
            r.host = Some(HostAddr {
                version: IpVersion::V4,
                org: Org::Hostinger,
                host_index: u64::from(domain_id % 2),
            });
            r.report = class.map(|c| ObserverReport {
                classification: c,
                packets: 5,
                spin_samples_received_us: vec![],
                spin_samples_sorted_us: vec![],
                stack_samples_us: vec![40_000],
            });
        }
        r
    }

    fn campaign(records: Vec<ConnectionRecord>) -> Campaign {
        Campaign {
            week: 0,
            version: IpVersion::V4,
            records,
        }
    }

    #[test]
    fn domain_classification_priorities() {
        // Spin wins over grease; grease over all-one; all-one over all-zero.
        use FlowClassification::*;
        let class = |records: &[(ScanOutcome, Option<FlowClassification>)]| {
            let records: Vec<_> = records.iter().map(|&(o, c)| record(1, o, c)).collect();
            DomainClass::of(&records)
        };
        let ok = ScanOutcome::Ok;
        assert_eq!(
            class(&[(ok, Some(AllZero)), (ok, Some(Spinning))]),
            DomainClass::Spin
        );
        assert_eq!(
            class(&[(ok, Some(Greased)), (ok, Some(AllOne))]),
            DomainClass::Grease
        );
        assert_eq!(
            class(&[(ok, Some(AllOne)), (ok, None)]),
            DomainClass::AllOne
        );
        assert_eq!(class(&[(ok, Some(NoShortPackets))]), DomainClass::AllZero);
        assert_eq!(class(&[(ScanOutcome::NoQuic, None)]), DomainClass::NoQuic);
        assert_eq!(class(&[]), DomainClass::NoQuic);
    }

    #[test]
    fn tally_counts_classes_and_resolution() {
        let c = campaign(vec![
            record(1, ScanOutcome::Ok, Some(FlowClassification::AllZero)),
            record(1, ScanOutcome::Ok, Some(FlowClassification::Spinning)),
            record(2, ScanOutcome::Ok, Some(FlowClassification::Greased)),
            record(3, ScanOutcome::NoQuic, None),
            record(4, ScanOutcome::NotResolved, None),
        ]);
        let t = ListTally::from_campaign(&c);
        assert_eq!(t.classes(|_| true), [2, 0, 0, 1, 1]);
        assert_eq!(t.resolved(|_| true), 3);
    }

    #[test]
    fn host_rollup_aggregates_spin_over_domains() {
        // Domains 1 (spin) and 3 (all-zero) share host 1; domain 2 on host 0.
        let c = campaign(vec![
            record(1, ScanOutcome::Ok, Some(FlowClassification::Spinning)),
            record(3, ScanOutcome::Ok, Some(FlowClassification::AllZero)),
            record(2, ScanOutcome::Ok, Some(FlowClassification::AllZero)),
        ]);
        let t = ListTally::from_campaign(&c);
        assert_eq!(t.hosts(|_| true), (2, 1), "host with domain 1 spins");
    }

    #[test]
    fn greased_host_is_not_a_spinning_host() {
        let c = campaign(vec![record(
            1,
            ScanOutcome::Ok,
            Some(FlowClassification::Greased),
        )]);
        assert_eq!(ListTally::from_campaign(&c).hosts(|_| true), (1, 0));
    }

    #[test]
    fn list_filters() {
        let mut r1 = record(1, ScanOutcome::Ok, Some(FlowClassification::AllZero));
        r1.list = ListKind::Toplist;
        let r2 = record(2, ScanOutcome::Ok, Some(FlowClassification::Spinning));
        let mut r3 = record(4, ScanOutcome::Ok, Some(FlowClassification::AllZero));
        r3.list = ListKind::ZoneOther;
        let t = ListTally::from_campaign(&campaign(vec![r1, r2, r3]));
        let domains = |f: fn(ListKind) -> bool| t.classes(f).iter().sum::<u64>();
        assert_eq!(domains(|l| l == ListKind::Toplist), 1);
        assert_eq!(domains(ListKind::is_czds), 2);
        // Domains 2 and 4 share host 0 of the two zone lists: one CZDS host.
        assert_eq!(t.hosts(ListKind::is_czds), (1, 1));
        assert_eq!(t.hosts(|l| l == ListKind::ZoneOther), (1, 0));
    }

    #[test]
    fn merged_split_equals_one_pass() {
        let records: Vec<_> = (0..12)
            .map(|id| {
                let class = [
                    FlowClassification::Spinning,
                    FlowClassification::AllZero,
                    FlowClassification::Greased,
                ][id as usize % 3];
                record(id, ScanOutcome::Ok, Some(class))
            })
            .collect();
        let whole = ListTally::from_campaign(&campaign(records.clone()));
        let mut back = ListTally::from_campaign(&campaign(records[5..].to_vec()));
        back.merge(ListTally::from_campaign(&campaign(records[..5].to_vec())));
        assert_eq!(back, whole);
    }

    #[test]
    fn lists_are_indexed_in_declaration_order() {
        for (i, list) in LISTS.into_iter().enumerate() {
            assert_eq!(list as usize, i);
        }
    }
}
