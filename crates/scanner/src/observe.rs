//! Campaign-level artifacts of the on-path spin observatory.
//!
//! When a campaign runs with a tap attached ([`crate::CampaignConfig`]'s
//! `tap`), every probe narrows its tap capture through the
//! `quicspin-observer` privacy boundary and stores an [`ObserverView`] on
//! the connection record: the tap's [`FlowStats`] next to the measuring
//! client's own spin/stack means, so observer accuracy is assessable per
//! flow. The campaign folds the views into an [`ObserverDoc`]
//! (`observer.json`, written next to `metrics.json`) in record order —
//! batch order is thread-count invariant, so the document is
//! byte-identical for any `--threads`.

use crate::batch::RecordRow;
use crate::record::ConnectionRecord;
use quicspin_core::ObserverReport;
use quicspin_observer::FlowStats;
use serde::{Deserialize, Serialize};

/// Schema version of [`ObserverDoc`].
pub const OBSERVER_SCHEMA_VERSION: u32 = 2;

fn mean_us(samples: &[u64]) -> Option<u64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<u64>() / samples.len() as u64)
    }
}

/// One connection as seen from the tap, stored on the record: the
/// observer's flow statistics plus the endpoint-side baselines they are
/// compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObserverView {
    /// Tap position in millionths of the path (0 = at the client,
    /// 1_000_000 = at the server).
    pub vantage_millionths: u32,
    /// The on-path observer's per-flow statistics.
    pub stats: FlowStats,
    /// Number of spin RTT samples the measuring client itself took.
    pub client_spin_samples: u64,
    /// Client spin RTT mean (µs, rounded down).
    pub client_spin_mean_us: Option<u64>,
    /// Client stack ground-truth RTT mean (µs, rounded down).
    pub stack_mean_us: Option<u64>,
}

impl ObserverView {
    /// Builds the view from a finished flow observation and the client's
    /// report of the same connection.
    pub fn new(position: f64, stats: FlowStats, report: &ObserverReport) -> Self {
        ObserverView {
            vantage_millionths: vantage_millionths(position),
            stats,
            client_spin_samples: report.spin_samples_received_us.len() as u64,
            client_spin_mean_us: mean_us(&report.spin_samples_received_us),
            stack_mean_us: mean_us(&report.stack_samples_us),
        }
    }

    /// Tap position as a fraction of the path.
    pub fn vantage(&self) -> f64 {
        f64::from(self.vantage_millionths) / 1_000_000.0
    }

    /// Relative observer-vs-client RTT divergence, when both measured.
    pub fn divergence(&self) -> Option<f64> {
        let observer = self.stats.mean_us? as f64;
        let client = self.client_spin_mean_us? as f64;
        if client == 0.0 {
            return None;
        }
        Some((observer - client).abs() / client)
    }

    /// Spin edges the observer saw beyond what the client's sample count
    /// implies (`samples + 1` edges start the client's stream).
    pub fn extra_edges(&self) -> u64 {
        let client_edges = match self.client_spin_samples {
            0 => 0,
            n => n + 1,
        };
        self.stats.edges_downstream.saturating_sub(client_edges)
    }
}

/// Converts a tap position to its canonical millionths encoding.
pub fn vantage_millionths(position: f64) -> u32 {
    (position.clamp(0.0, 1.0) * 1_000_000.0).round() as u32
}

/// One row of the `observer.json` per-flow table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObserverFlowRow {
    /// Scanned domain id.
    pub domain_id: u32,
    /// Redirect hop (0 = initial connection).
    pub hop: u32,
    /// The tap's view of the flow.
    pub view: ObserverView,
}

/// Campaign-wide aggregation over every observed flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObserverSummary {
    /// Flows the tap saw (established connections under observation).
    pub flows: u64,
    /// Flows that yielded at least one observer RTT sample.
    pub measurable: u64,
    /// Flows the observer could not measure (grease/disable policies,
    /// too-short exchanges).
    pub unmeasurable: u64,
    /// Total accepted observer RTT samples.
    pub samples: u64,
    /// Edges rejected as reordering artifacts, campaign-wide.
    pub rejected_reorder: u64,
    /// Samples rejected as loss gaps, campaign-wide.
    pub rejected_gap: u64,
    /// Mean of per-flow observer RTT means (µs).
    pub observer_mean_us: Option<u64>,
    /// Mean of per-flow client spin RTT means (µs).
    pub client_mean_us: Option<u64>,
    /// Mean of per-flow stack ground-truth means (µs).
    pub stack_mean_us: Option<u64>,
    /// Largest per-flow observer-vs-client divergence (millionths).
    pub max_divergence_millionths: u64,
}

/// The `observer.json` document: per-flow table plus summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObserverDoc {
    /// Schema version ([`OBSERVER_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Campaign identifier (see `CampaignConfig::campaign_id`).
    pub campaign: String,
    /// Tap position in millionths of the path.
    pub vantage_millionths: u32,
    /// Per-flow rows in record order (domain id, then hop).
    pub flows: Vec<ObserverFlowRow>,
    /// Campaign-wide aggregation.
    pub summary: ObserverSummary,
}

impl ObserverDoc {
    /// Builds the document from materialized records.
    pub fn from_records(campaign: &str, position: f64, records: &[ConnectionRecord]) -> Self {
        let mut builder = ObserverDocBuilder::new(campaign, position);
        for r in records {
            builder.note_record(r);
        }
        builder.finish()
    }

    /// Tap position as a fraction of the path.
    pub fn vantage(&self) -> f64 {
        f64::from(self.vantage_millionths) / 1_000_000.0
    }
}

/// Streaming builder for [`ObserverDoc`] — rows must arrive in record
/// order (which the campaign's in-order batch sink guarantees).
#[derive(Debug, Clone)]
pub struct ObserverDocBuilder {
    campaign: String,
    vantage_millionths: u32,
    flows: Vec<ObserverFlowRow>,
}

impl ObserverDocBuilder {
    /// Creates an empty builder for one campaign at one tap position.
    pub fn new(campaign: &str, position: f64) -> Self {
        ObserverDocBuilder {
            campaign: campaign.to_owned(),
            vantage_millionths: vantage_millionths(position),
            flows: Vec::new(),
        }
    }

    /// Notes one streamed record row (no-op unless it carries a view).
    pub fn note_row(&mut self, row: &RecordRow) {
        if let Some(view) = row.observer {
            self.flows.push(ObserverFlowRow {
                domain_id: row.domain_id,
                hop: row.redirect_depth,
                view,
            });
        }
    }

    /// Notes one materialized record (no-op unless it carries a view).
    pub fn note_record(&mut self, record: &ConnectionRecord) {
        self.note_row(&RecordRow::of(record));
    }

    /// Finalizes the document, computing the summary over all rows.
    pub fn finish(self) -> ObserverDoc {
        let mut summary = ObserverSummary {
            flows: self.flows.len() as u64,
            measurable: 0,
            unmeasurable: 0,
            samples: 0,
            rejected_reorder: 0,
            rejected_gap: 0,
            observer_mean_us: None,
            client_mean_us: None,
            stack_mean_us: None,
            max_divergence_millionths: 0,
        };
        let (mut observer_means, mut client_means, mut stack_means) = (vec![], vec![], vec![]);
        for row in &self.flows {
            let stats = &row.view.stats;
            if stats.measurable {
                summary.measurable += 1;
            } else {
                summary.unmeasurable += 1;
            }
            summary.samples += stats.samples;
            summary.rejected_reorder += stats.rejected_reorder;
            summary.rejected_gap += stats.rejected_gap;
            if let Some(m) = stats.mean_us {
                observer_means.push(m);
            }
            if let Some(m) = row.view.client_spin_mean_us {
                client_means.push(m);
            }
            if let Some(m) = row.view.stack_mean_us {
                stack_means.push(m);
            }
            if let Some(d) = row.view.divergence() {
                let millionths = (d * 1_000_000.0).round() as u64;
                summary.max_divergence_millionths =
                    summary.max_divergence_millionths.max(millionths);
            }
        }
        summary.observer_mean_us = mean_us(&observer_means);
        summary.client_mean_us = mean_us(&client_means);
        summary.stack_mean_us = mean_us(&stack_means);
        ObserverDoc {
            schema_version: OBSERVER_SCHEMA_VERSION,
            campaign: self.campaign,
            vantage_millionths: self.vantage_millionths,
            flows: self.flows,
            summary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_core::FlowClassification;

    fn stats(samples: u64, mean_us: Option<u64>) -> FlowStats {
        FlowStats {
            packets: 20,
            unobservable: 4,
            edges_upstream: samples + 1,
            edges_downstream: samples + 1,
            samples,
            samples_upstream: samples,
            mean_us,
            min_us: mean_us,
            max_us: mean_us,
            server_side_mean_us: None,
            client_side_mean_us: None,
            rejected_reorder: 0,
            rejected_gap: 0,
            measurable: samples > 0,
        }
    }

    fn report(spin_us: &[u64], stack_us: &[u64]) -> ObserverReport {
        ObserverReport {
            classification: FlowClassification::Spinning,
            packets: 20,
            spin_samples_received_us: spin_us.to_vec(),
            spin_samples_sorted_us: spin_us.to_vec(),
            stack_samples_us: stack_us.to_vec(),
        }
    }

    #[test]
    fn view_compares_observer_and_client() {
        let view = ObserverView::new(
            0.25,
            stats(4, Some(44_000)),
            &report(&[40_000, 40_000], &[39_000]),
        );
        assert_eq!(view.vantage_millionths, 250_000);
        assert_eq!(view.vantage(), 0.25);
        assert_eq!(view.client_spin_mean_us, Some(40_000));
        assert_eq!(view.stack_mean_us, Some(39_000));
        assert!((view.divergence().unwrap() - 0.1).abs() < 1e-9);
        // Client took 2 samples → 3 edges; the observer saw 5.
        assert_eq!(view.extra_edges(), 2);
    }

    #[test]
    fn divergence_needs_both_means() {
        let view = ObserverView::new(0.5, stats(0, None), &report(&[40_000], &[]));
        assert_eq!(view.divergence(), None);
    }

    #[test]
    fn doc_summary_aggregates_rows() {
        let mut builder = ObserverDocBuilder::new("week0", 0.5);
        let mut record = ConnectionRecord::failed(
            1,
            quicspin_webpop::ListKind::Toplist,
            quicspin_webpop::Org::Other,
            0,
            quicspin_webpop::IpVersion::V4,
            crate::record::ScanOutcome::Ok,
        );
        record.observer = Some(ObserverView::new(
            0.5,
            stats(4, Some(42_000)),
            &report(&[40_000], &[38_000]),
        ));
        builder.note_record(&record);
        record.domain_id = 2;
        record.observer = Some(ObserverView::new(
            0.5,
            stats(0, None),
            &report(&[], &[38_000]),
        ));
        builder.note_record(&record);
        let doc = builder.finish();
        assert_eq!(doc.schema_version, OBSERVER_SCHEMA_VERSION);
        assert_eq!(doc.flows.len(), 2);
        assert_eq!(doc.summary.flows, 2);
        assert_eq!(doc.summary.measurable, 1);
        assert_eq!(doc.summary.unmeasurable, 1);
        assert_eq!(doc.summary.samples, 4);
        assert_eq!(doc.summary.observer_mean_us, Some(42_000));
        assert_eq!(doc.summary.client_mean_us, Some(40_000));
        assert_eq!(doc.summary.stack_mean_us, Some(38_000));
        assert_eq!(doc.summary.max_divergence_millionths, 50_000);
    }

    #[test]
    fn records_without_views_are_skipped() {
        let record = ConnectionRecord::failed(
            9,
            quicspin_webpop::ListKind::Toplist,
            quicspin_webpop::Org::Other,
            0,
            quicspin_webpop::IpVersion::V4,
            crate::record::ScanOutcome::NoQuic,
        );
        let doc = ObserverDoc::from_records("week0", 0.1, &[record]);
        assert!(doc.flows.is_empty());
        assert_eq!(doc.summary.flows, 0);
    }

    /// Folds one tapped campaign over a small population into the
    /// all-flows document and the spinning-flows-only document.
    fn fold_cell(vantage: f64, loss: f64) -> (ObserverDoc, ObserverDoc) {
        use crate::{CampaignConfig, NetworkConditions, Scanner};
        use quicspin_webpop::{Population, PopulationConfig};
        let pop = Population::generate(PopulationConfig {
            seed: 11,
            toplist_domains: 40,
            zone_domains: 160,
        });
        let config = CampaignConfig {
            tap: Some(vantage),
            conditions: NetworkConditions {
                loss,
                ..NetworkConditions::clean()
            },
            threads: 2,
            ..CampaignConfig::default()
        };
        let campaign = Scanner::new(&pop).run_campaign_over(&config, 0..80);
        let mut all = ObserverDocBuilder::new("cell", vantage);
        let mut spinning = ObserverDocBuilder::new("cell", vantage);
        for record in &campaign.records {
            let row = RecordRow::of(record);
            all.note_row(&row);
            if row.classification == Some(FlowClassification::Spinning) {
                spinning.note_row(&row);
            }
        }
        (all.finish(), spinning.finish())
    }

    /// Mean observer and client RTT (µs) over the flows where both
    /// produced a mean.
    fn paired_means_us(doc: &ObserverDoc) -> (f64, f64) {
        let paired: Vec<(u64, u64)> = doc
            .flows
            .iter()
            .filter_map(|row| Some((row.view.stats.mean_us?, row.view.client_spin_mean_us?)))
            .collect();
        assert!(!paired.is_empty(), "no flow has both means");
        let n = paired.len() as f64;
        let sum = |f: fn(&(u64, u64)) -> u64| paired.iter().map(f).sum::<u64>() as f64 / n;
        (sum(|p| p.0), sum(|p| p.1))
    }

    #[test]
    fn clean_path_observer_matches_the_client_from_any_tap() {
        for vantage in [0.1, 0.5, 0.9] {
            let (doc, _) = fold_cell(vantage, 0.0);
            let s = &doc.summary;
            assert!(s.flows > 0, "vantage {vantage} saw no flows");
            assert!(s.measurable > 0);
            assert_eq!(s.rejected_gap, 0);
            let (observer, client) = paired_means_us(&doc);
            assert!(
                (observer - client).abs() < 10.0,
                "vantage {vantage}: paired observer {observer} µs vs client {client} µs"
            );
        }
    }

    #[test]
    fn lossy_path_observer_tracks_the_client() {
        let (doc, _) = fold_cell(0.5, 0.05);
        let s = &doc.summary;
        assert!(s.flows > 0);
        let observer = s.observer_mean_us.unwrap() as f64;
        let client = s.client_mean_us.unwrap() as f64;
        assert!(
            (observer - client).abs() / client < 0.5,
            "lossy cell: observer {observer} µs vs client {client} µs"
        );
    }

    #[test]
    fn spinning_fold_drops_non_spinning_flows() {
        let (all, spinning) = fold_cell(0.5, 0.0);
        assert!(spinning.summary.flows > 0);
        assert!(
            spinning.summary.flows < all.summary.flows,
            "the spinning fold must drop non-spinning flows"
        );
    }

    #[test]
    fn doc_serde_roundtrip() {
        let mut builder = ObserverDocBuilder::new("week1", 0.75);
        let mut record = ConnectionRecord::failed(
            3,
            quicspin_webpop::ListKind::ZoneComNetOrg,
            quicspin_webpop::Org::Other,
            1,
            quicspin_webpop::IpVersion::V6,
            crate::record::ScanOutcome::Ok,
        );
        record.observer = Some(ObserverView::new(
            0.75,
            stats(2, Some(40_000)),
            &report(&[40_000], &[40_000]),
        ));
        builder.note_record(&record);
        let doc = builder.finish();
        let json = serde_json::to_string(&doc).unwrap();
        let back: ObserverDoc = serde_json::from_str(&json).unwrap();
        assert_eq!(back, doc);
    }
}
