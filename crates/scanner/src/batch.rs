//! Record batches for the streamed campaign path.
//!
//! A [`crate::record::ConnectionRecord`] is built for fidelity, not for
//! aggregation: it drags an optional observer report (spin samples,
//! rejection counters) and an optional qlog trace behind every row. The
//! sinks of a streamed campaign — [`crate::timeseries`]'s cumulative fold
//! and the observer document builder — read a dozen scalar fields per
//! record. A [`RecordBatch`] keeps exactly those fields, one `Copy`
//! [`RecordRow`] per record and one batch per scheduler work unit, so
//! [`run_campaign_streamed`](crate::campaign::Scanner::run_campaign_streamed)
//! drops the heavy parts early and can account its resident bytes
//! precisely.
//!
//! Rows are appended per domain ([`RecordBatch::push_group`]) and read
//! back per domain ([`RecordBatch::groups`]): the group structure mirrors
//! the per-domain fold of the campaign engine, where each domain's
//! records (all redirect hops) arrive as one contiguous run.

use crate::observe::ObserverView;
use crate::record::{ConnectionRecord, ScanOutcome};
use quicspin_core::FlowClassification;
use quicspin_webpop::{HostAddr, ListKind, Org, WebServer};

/// One record's aggregation-relevant fields, copied out of a
/// [`ConnectionRecord`]. Plain `Copy` data — cheap to hand around by
/// value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordRow {
    /// Scanned domain id.
    pub domain_id: u32,
    /// Target list of the domain.
    pub list: ListKind,
    /// Hosting organization.
    pub org: Org,
    /// Outcome of this connection.
    pub outcome: ScanOutcome,
    /// Redirect hop depth (0 = first connection).
    pub redirect_depth: u32,
    /// Answering host, if one was reached.
    pub host: Option<HostAddr>,
    /// Web server from the response header, if parsed.
    pub webserver: Option<WebServer>,
    /// Flow classification of the observer report, if established.
    pub classification: Option<FlowClassification>,
    /// Virtual-clock handshake time (µs), if established.
    pub virtual_handshake_us: Option<u64>,
    /// Virtual-clock total connection time (µs).
    pub virtual_total_us: u64,
    /// Netsim queue high-water mark of this connection.
    pub queue_high_water: u64,
    /// The on-path observer's view, when a tap was attached.
    pub observer: Option<ObserverView>,
}

impl RecordRow {
    /// Extracts the row view of a full record.
    pub fn of(r: &ConnectionRecord) -> RecordRow {
        RecordRow {
            domain_id: r.domain_id,
            list: r.list,
            org: r.org,
            outcome: r.outcome,
            redirect_depth: r.redirect_depth,
            host: r.host,
            webserver: r.webserver,
            classification: r.report.as_ref().map(|rep| rep.classification),
            virtual_handshake_us: r.virtual_handshake_us,
            virtual_total_us: r.virtual_total_us,
            queue_high_water: r.queue_high_water,
            observer: r.observer,
        }
    }
}

/// A batch of record rows, grouped by domain.
#[derive(Debug, Clone, Default)]
pub struct RecordBatch {
    rows: Vec<RecordRow>,
    /// Row offset where each domain group starts; rows of one domain are
    /// contiguous. `group_starts[i]..group_starts[i+1]` (or `len`) is
    /// group `i`.
    group_starts: Vec<u32>,
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> Self {
        RecordBatch::default()
    }

    /// Appends one domain's records (all its redirect hops) as the next
    /// group. Empty groups are ignored — the scanner always produces at
    /// least one record per domain.
    pub fn push_group(&mut self, records: &[ConnectionRecord]) {
        if records.is_empty() {
            return;
        }
        self.group_starts.push(self.rows.len() as u32);
        self.rows.extend(records.iter().map(RecordRow::of));
    }

    /// Number of rows (records).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of domain groups.
    pub fn group_count(&self) -> usize {
        self.group_starts.len()
    }

    /// The row at `index`.
    pub fn row(&self, index: usize) -> RecordRow {
        self.rows[index]
    }

    /// Iterates the rows of group `g`.
    pub fn group(&self, g: usize) -> impl Iterator<Item = RecordRow> + '_ {
        let start = self.group_starts[g] as usize;
        let end = self
            .group_starts
            .get(g + 1)
            .map_or(self.len(), |&s| s as usize);
        self.rows[start..end].iter().copied()
    }

    /// Iterates all groups, each as its row iterator, in append order.
    pub fn groups(&self) -> impl Iterator<Item = impl Iterator<Item = RecordRow> + '_> + '_ {
        (0..self.group_count()).map(move |g| self.group(g))
    }

    /// Approximate resident bytes of the batch (capacities, not lengths
    /// — this is what the streamed path's byte budget accounts).
    pub fn approx_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<RecordRow>()
            + self.group_starts.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ConnectionRecord;
    use quicspin_webpop::IpVersion;

    fn failed(domain_id: u32, outcome: ScanOutcome) -> ConnectionRecord {
        ConnectionRecord::failed(
            domain_id,
            ListKind::Toplist,
            Org::Other,
            0,
            IpVersion::V4,
            outcome,
        )
    }

    #[test]
    fn groups_round_trip_rows() {
        let mut batch = RecordBatch::new();
        let a = vec![failed(3, ScanOutcome::NotResolved)];
        let b = vec![
            failed(4, ScanOutcome::Unreachable),
            failed(4, ScanOutcome::Unreachable),
        ];
        batch.push_group(&a);
        batch.push_group(&[]);
        batch.push_group(&b);

        assert_eq!(batch.len(), 3);
        assert_eq!(batch.group_count(), 2);
        let g0: Vec<RecordRow> = batch.group(0).collect();
        assert_eq!(g0, a.iter().map(RecordRow::of).collect::<Vec<_>>());
        let g1: Vec<RecordRow> = batch.group(1).collect();
        assert_eq!(g1, b.iter().map(RecordRow::of).collect::<Vec<_>>());
        assert_eq!(batch.groups().count(), 2);
    }

    #[test]
    fn groups_round_trip_observed_records() {
        use crate::{CampaignConfig, NetworkConditions, Scanner};
        use quicspin_webpop::{Population, PopulationConfig};
        let pop = Population::generate(PopulationConfig {
            seed: 11,
            toplist_domains: 40,
            zone_domains: 160,
        });
        let config = CampaignConfig {
            tap: Some(0.5),
            conditions: NetworkConditions::clean(),
            ..CampaignConfig::default()
        };
        let campaign = Scanner::new(&pop).run_campaign_over(&config, 0..80);
        let mut batch = RecordBatch::new();
        for domain in campaign.domains() {
            batch.push_group(domain);
        }

        assert_eq!(batch.len(), campaign.len());
        assert_eq!(batch.group_count(), campaign.domains().count());
        for (i, record) in campaign.records.iter().enumerate() {
            assert_eq!(batch.row(i), RecordRow::of(record));
        }
        for (g, domain) in campaign.domains().enumerate() {
            assert!(batch.group(g).eq(domain.iter().map(RecordRow::of)));
        }
        let observed = (0..batch.len())
            .filter(|&i| batch.row(i).observer.is_some())
            .count();
        assert!(observed > 0, "a tapped campaign carries observer views");
    }

    #[test]
    fn row_view_matches_record_fields() {
        let r = failed(9, ScanOutcome::HandshakeFailed);
        let row = RecordRow::of(&r);
        assert_eq!(row.domain_id, 9);
        assert_eq!(row.outcome, ScanOutcome::HandshakeFailed);
        assert_eq!(row.classification, None);
        assert_eq!(row.host, r.host);
    }
}
