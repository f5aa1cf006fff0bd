//! Columnar (structure-of-arrays) record batches for the campaign merge
//! path.
//!
//! A [`crate::record::ConnectionRecord`] is built for fidelity, not for
//! aggregation: it drags an optional observer report (spin samples,
//! rejection counters) and an optional qlog trace behind every row. The
//! sinks of a streamed campaign — [`crate::timeseries`]'s cumulative fold
//! and the observer document builder — touch a dozen scalar fields per
//! record. A [`RecordBatch`] stores exactly those fields in parallel
//! columns, one batch per scheduler work unit, so the sinks walk dense
//! arrays instead of pointer-laden structs and
//! [`run_campaign_streamed`](crate::campaign::Scanner::run_campaign_streamed)
//! can account its resident bytes precisely.
//!
//! Rows are appended per domain ([`RecordBatch::push_group`]) and read
//! back per domain ([`RecordBatch::groups`]): the group structure mirrors
//! the per-domain fold of the campaign engine, where each domain's
//! records (all redirect hops) arrive as one contiguous run.

use crate::observe::ObserverView;
use crate::record::{ConnectionRecord, ScanOutcome};
use quicspin_core::FlowClassification;
use quicspin_webpop::{HostAddr, ListKind, Org, WebServer};

/// One record's aggregation-relevant fields, copied out of a column set
/// (or a [`ConnectionRecord`]). Plain `Copy` data — cheap to hand around
/// by value.
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

/// A structure-of-arrays batch of record rows, grouped by domain.
#[derive(Debug, Clone, Default)]
pub struct RecordBatch {
    domain_ids: Vec<u32>,
    lists: Vec<ListKind>,
    orgs: Vec<Org>,
    outcomes: Vec<ScanOutcome>,
    redirect_depths: Vec<u32>,
    hosts: Vec<Option<HostAddr>>,
    webservers: Vec<Option<WebServer>>,
    classifications: Vec<Option<FlowClassification>>,
    virtual_handshake_us: Vec<Option<u64>>,
    virtual_total_us: Vec<u64>,
    queue_high_waters: Vec<u64>,
    observers: Vec<Option<ObserverView>>,
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
        self.group_starts.push(self.domain_ids.len() as u32);
        for r in records {
            self.domain_ids.push(r.domain_id);
            self.lists.push(r.list);
            self.orgs.push(r.org);
            self.outcomes.push(r.outcome);
            self.redirect_depths.push(r.redirect_depth);
            self.hosts.push(r.host);
            self.webservers.push(r.webserver);
            self.classifications
                .push(r.report.as_ref().map(|rep| rep.classification));
            self.virtual_handshake_us.push(r.virtual_handshake_us);
            self.virtual_total_us.push(r.virtual_total_us);
            self.queue_high_waters.push(r.queue_high_water);
            self.observers.push(r.observer);
        }
    }

    /// Number of rows (records).
    pub fn len(&self) -> usize {
        self.domain_ids.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.domain_ids.is_empty()
    }

    /// Number of domain groups.
    pub fn group_count(&self) -> usize {
        self.group_starts.len()
    }

    /// The row at `index`, reassembled from the columns.
    pub fn row(&self, index: usize) -> RecordRow {
        RecordRow {
            domain_id: self.domain_ids[index],
            list: self.lists[index],
            org: self.orgs[index],
            outcome: self.outcomes[index],
            redirect_depth: self.redirect_depths[index],
            host: self.hosts[index],
            webserver: self.webservers[index],
            classification: self.classifications[index],
            virtual_handshake_us: self.virtual_handshake_us[index],
            virtual_total_us: self.virtual_total_us[index],
            queue_high_water: self.queue_high_waters[index],
            observer: self.observers[index],
        }
    }

    /// Iterates the rows of group `g`.
    pub fn group(&self, g: usize) -> impl Iterator<Item = RecordRow> + '_ {
        let start = self.group_starts[g] as usize;
        let end = self
            .group_starts
            .get(g + 1)
            .map_or(self.len(), |&s| s as usize);
        (start..end).map(move |i| self.row(i))
    }

    /// Iterates all groups, each as its row iterator, in append order.
    pub fn groups(&self) -> impl Iterator<Item = impl Iterator<Item = RecordRow> + '_> + '_ {
        (0..self.group_count()).map(move |g| self.group(g))
    }

    /// Approximate resident bytes of the column storage (capacities, not
    /// lengths — this is what the streamed path's byte budget accounts).
    pub fn approx_bytes(&self) -> usize {
        fn col<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        col(&self.domain_ids)
            + col(&self.lists)
            + col(&self.orgs)
            + col(&self.outcomes)
            + col(&self.redirect_depths)
            + col(&self.hosts)
            + col(&self.webservers)
            + col(&self.classifications)
            + col(&self.virtual_handshake_us)
            + col(&self.virtual_total_us)
            + col(&self.queue_high_waters)
            + col(&self.observers)
            + col(&self.group_starts)
    }

    /// Clears all rows and groups, keeping the column allocations.
    pub fn clear(&mut self) {
        self.domain_ids.clear();
        self.lists.clear();
        self.orgs.clear();
        self.outcomes.clear();
        self.redirect_depths.clear();
        self.hosts.clear();
        self.webservers.clear();
        self.classifications.clear();
        self.virtual_handshake_us.clear();
        self.virtual_total_us.clear();
        self.queue_high_waters.clear();
        self.observers.clear();
        self.group_starts.clear();
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
    fn clear_keeps_capacity_and_resets_groups() {
        let mut batch = RecordBatch::new();
        batch.push_group(&[failed(1, ScanOutcome::NoQuic)]);
        let bytes = batch.approx_bytes();
        assert!(bytes > 0);
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.group_count(), 0);
        // Capacity (and thus the byte estimate) survives the clear.
        assert_eq!(batch.approx_bytes(), bytes);
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
