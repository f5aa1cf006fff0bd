//! Deterministic campaign time series and Chrome trace export.
//!
//! The persisted `timeseries.json` must be byte-identical for any
//! worker-thread count, so it cannot be built from wall-clock samples.
//! Instead [`build_timeseries`] replays the merged record stream —
//! which the batch scheduler already guarantees is bit-identical — and
//! samples cumulative *virtual-clock* state one point per probed domain:
//! error rate, redirect and queue behaviour, virtual handshake/total
//! latency quantiles (from a [`HistogramShard`] over the records'
//! `virtual_*_us` fields), and the classification mix. The bounded
//! [`TimeSeries`] ring then downsamples deterministically (see
//! `quicspin_telemetry::timeseries`).
//!
//! [`chrome_trace_export`] renders a flight recording's retained traces —
//! stage spans, spin edges, RTT counters (via `qlog::chrome`) plus one
//! instant mark per detected anomaly — into the Chrome trace-event array
//! form (`trace.json`), loadable in Perfetto or `chrome://tracing`.

use crate::batch::{RecordBatch, RecordRow};
use crate::campaign::{Campaign, CampaignConfig};
use crate::flight::{Anomaly, FlightRecording, RetainedTrace};
use crate::record::ScanOutcome;
use quicspin_core::FlowClassification;
use quicspin_qlog::{chrome_trace_events, decode_trace, ChromeArgs, ChromeEvent};
use quicspin_telemetry::{CounterSnapshot, HistogramShard, TimePoint, TimeSeries, TimeSeriesDoc};
use serde::{Serialize, Serializer};
use std::cell::Cell;
use std::io::{self, Write};

/// The classification mix tracked per sample, in stable order.
const MIX_CLASSES: [FlowClassification; 5] = [
    FlowClassification::NoShortPackets,
    FlowClassification::AllZero,
    FlowClassification::AllOne,
    FlowClassification::Spinning,
    FlowClassification::Greased,
];

/// Cumulative virtual-clock state folded over the record stream.
#[derive(Default)]
struct CumulativeState {
    probes: u64,
    records: u64,
    errors: u64,
    redirects: u64,
    virtual_us: u64,
    queue_high_water: u64,
    handshake_us: HistogramShard,
    total_us: HistogramShard,
    mix: [u64; MIX_CLASSES.len()],
}

impl CumulativeState {
    /// Folds one domain's rows (all its redirect hops) in. Shared by the
    /// record-slice path and the streamed [`RecordBatch`] path.
    fn absorb_group(&mut self, rows: impl Iterator<Item = RecordRow>) {
        self.probes += 1;
        let mut errored = false;
        for row in rows {
            self.records += 1;
            if row.redirect_depth > 0 {
                self.redirects += 1;
            }
            errored |= matches!(
                row.outcome,
                ScanOutcome::HandshakeFailed | ScanOutcome::Unreachable
            );
            self.virtual_us += row.virtual_total_us;
            self.queue_high_water = self.queue_high_water.max(row.queue_high_water);
            if let Some(hs) = row.virtual_handshake_us {
                self.handshake_us.record(hs);
            }
            if row.virtual_total_us > 0 {
                self.total_us.record(row.virtual_total_us);
            }
            if let Some(classification) = row.classification {
                if let Some(slot) = MIX_CLASSES.iter().position(|&c| c == classification) {
                    self.mix[slot] += 1;
                }
            }
        }
        if errored {
            self.errors += 1;
        }
    }

    /// Snapshots the state as one sample point.
    fn point(&self) -> TimePoint {
        TimePoint {
            seq: 0, // assigned by TimeSeries on admission
            probes: self.probes,
            records: self.records,
            errors: self.errors,
            redirects: self.redirects,
            elapsed_us: self.virtual_us,
            queue_high_water: self.queue_high_water,
            handshake_p50_us: self.handshake_us.quantile(0.50),
            handshake_p99_us: self.handshake_us.quantile(0.99),
            total_p50_us: self.total_us.quantile(0.50),
            total_p99_us: self.total_us.quantile(0.99),
            mix: MIX_CLASSES
                .iter()
                .zip(self.mix)
                .map(|(class, value)| CounterSnapshot {
                    name: class.to_string(),
                    value,
                })
                .collect(),
        }
    }
}

/// Incrementally builds the deterministic virtual-clock time series from
/// a stream of domain groups — the streamed campaign path's counterpart
/// of [`build_timeseries`], producing byte-identical output.
///
/// The offer protocol must match the batch builder exactly: every group
/// but the last is a lazy [`TimeSeries::push_with`] offer, and the final
/// group lands unconditionally via [`TimeSeries::push_final`] so the
/// series ends on the campaign's complete cumulative state. Since a
/// stream does not know which group is last, the builder holds each
/// absorbed group's sample back by one: a group's offer happens when the
/// *next* group arrives, and [`TimeSeriesBuilder::finish`] turns the
/// still-held sample into the final point.
pub struct TimeSeriesBuilder {
    series: TimeSeries,
    state: CumulativeState,
    held: bool,
}

impl TimeSeriesBuilder {
    /// A builder downsampling into a ring of `capacity` points.
    pub fn new(capacity: usize) -> Self {
        TimeSeriesBuilder {
            series: TimeSeries::new(capacity),
            state: CumulativeState::default(),
            held: false,
        }
    }

    /// Absorbs one domain's rows (all its redirect hops).
    pub fn push_group(&mut self, rows: impl Iterator<Item = RecordRow>) {
        if self.held {
            let (series, state) = (&mut self.series, &self.state);
            series.push_with(|| state.point());
        }
        self.state.absorb_group(rows);
        self.held = true;
    }

    /// Absorbs every domain group of a row batch, in order.
    pub fn push_batch(&mut self, batch: &RecordBatch) {
        for group in batch.groups() {
            self.push_group(group);
        }
    }

    /// Lands the held final sample and assembles the document.
    pub fn finish(mut self, campaign_id: String) -> TimeSeriesDoc {
        if self.held {
            self.series.push_final(self.state.point());
        }
        self.series.into_doc(campaign_id)
    }
}

/// Builds the deterministic virtual-clock time series of a campaign: one
/// sample offered per probed domain (in record order), downsampled into a
/// ring of `capacity` points. The result depends only on the records, so
/// it is byte-identical for any worker-thread count; the campaign id ties
/// it to its run, and the `threads` entry is deliberately absent from the
/// identity (mirroring the flight recorder's index-config rule).
pub fn build_timeseries(
    campaign: &Campaign,
    config: &CampaignConfig,
    capacity: usize,
) -> TimeSeriesDoc {
    let mut builder = TimeSeriesBuilder::new(capacity);
    for domain in campaign.domains() {
        builder.push_group(domain.iter().map(RecordRow::of));
    }
    builder.finish(config.campaign_id())
}

/// Renders a flight recording as Chrome trace events: every retained
/// trace contributes its stage spans, spin-edge/loss instants and RTT
/// counter series on a `(domain, hop)` process/thread row, and every
/// anomaly of a retained probe becomes an instant mark named after its
/// kind. The output is deterministic (priority order, virtual time).
/// [`ChromeTrace`] writes the same array without collecting it.
pub fn chrome_trace_export(recording: &FlightRecording) -> Vec<ChromeEvent> {
    let anomalies = recording.anomalies();
    recording
        .retained()
        .iter()
        .flat_map(|retained| probe_chrome_events(retained, anomalies))
        .collect()
}

/// The Chrome trace events of one retained probe: its trace's events,
/// then one instant per anomaly of the probe. Empty if the trace does
/// not decode.
fn probe_chrome_events(retained: &RetainedTrace, anomalies: &[Anomaly]) -> Vec<ChromeEvent> {
    let probe = retained.probe;
    let Ok(trace) = decode_trace(&retained.bytes) else {
        return Vec::new();
    };
    let mut events = chrome_trace_events(&trace, probe.domain_id, probe.hop);
    // Anomalies are sorted by (domain, hop, kind): the probe's own are
    // one contiguous run.
    let key = (probe.domain_id, probe.hop);
    let first = anomalies.partition_point(|a| (a.probe.domain_id, a.probe.hop) < key);
    for anomaly in anomalies[first..].iter().take_while(|a| a.probe == probe) {
        events.push(
            ChromeEvent::instant(
                anomaly.kind.name(),
                trace.duration_us(),
                probe.domain_id,
                probe.hop,
                "anomaly",
            )
            .with_args(ChromeArgs {
                severity: Some(u64::from(anomaly.severity)),
                detail: Some(anomaly.detail.clone()),
                ..ChromeArgs::default()
            }),
        );
    }
    events
}

/// A flight recording's Chrome trace as a serializable value: the event
/// array [`chrome_trace_export`] returns, serialized to the same bytes,
/// but built one retained probe at a time, so writing it never holds
/// every event at once. Write it with
/// [`write_json`](crate::artifacts::write_json) under
/// [`CHROME_TRACE_FILE_NAME`](crate::artifacts::CHROME_TRACE_FILE_NAME).
pub struct ChromeTrace<'a> {
    recording: &'a FlightRecording,
    written: Cell<usize>,
}

impl<'a> ChromeTrace<'a> {
    /// The trace of `recording`, not yet serialized.
    pub fn new(recording: &'a FlightRecording) -> Self {
        ChromeTrace {
            recording,
            written: Cell::new(0),
        }
    }

    /// Events the last serialization wrote.
    pub fn events_written(&self) -> usize {
        self.written.get()
    }
}

impl Serialize for ChromeTrace<'_> {
    fn serialize<W: Write>(&self, s: &mut Serializer<W>) -> io::Result<()> {
        let anomalies = self.recording.anomalies();
        let mut array = s.begin_array()?;
        let mut written = 0;
        for retained in self.recording.retained() {
            for event in probe_chrome_events(retained, anomalies) {
                s.element(&mut array, &event)?;
                written += 1;
            }
        }
        self.written.set(written);
        s.end_array(array)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Scanner;
    use crate::flight::FlightConfig;
    use crate::probe::NetworkConditions;
    use quicspin_webpop::{Population, PopulationConfig};

    fn pop() -> Population {
        Population::generate(PopulationConfig {
            seed: 0x51,
            toplist_domains: 60,
            zone_domains: 540,
        })
    }

    fn config() -> CampaignConfig {
        CampaignConfig {
            conditions: NetworkConditions::clean(),
            threads: 2,
            flight: FlightConfig::armed(9),
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn series_tracks_cumulative_campaign_state() {
        let pop = pop();
        let cfg = config();
        let campaign = Scanner::new(&pop).run_campaign(&cfg);
        let doc = build_timeseries(&campaign, &cfg, 128);
        assert_eq!(doc.campaign_id, cfg.campaign_id());
        assert_eq!(doc.clock, "virtual-us");
        assert!(!doc.points.is_empty());
        assert_eq!(doc.offered, pop.len() as u64);

        let last = doc.last_point().unwrap();
        assert_eq!(last.probes, pop.len() as u64);
        assert_eq!(last.records, campaign.len() as u64);
        let mix_total: u64 = last.mix.iter().map(|c| c.value).sum();
        assert_eq!(
            mix_total,
            campaign.established().count() as u64,
            "every established record classifies into the mix"
        );
        assert!(last.total_p50_us > 0, "virtual stage quantiles populated");
        assert!(last.handshake_p99_us >= last.handshake_p50_us);

        // Cumulative fields are monotone along the series.
        for pair in doc.points.windows(2) {
            assert!(pair[0].probes <= pair[1].probes);
            assert!(pair[0].elapsed_us <= pair[1].elapsed_us);
            assert!(pair[0].errors <= pair[1].errors);
        }
    }

    #[test]
    fn series_is_identical_across_thread_counts() {
        let pop = pop();
        let docs: Vec<String> = [1usize, 4, 8]
            .iter()
            .map(|&threads| {
                let cfg = CampaignConfig {
                    threads,
                    ..config()
                };
                let campaign = Scanner::new(&pop).run_campaign(&cfg);
                serde_json::to_string_pretty(&build_timeseries(&campaign, &cfg, 64)).unwrap()
            })
            .collect();
        assert_eq!(docs[0], docs[1]);
        assert_eq!(docs[1], docs[2]);
    }

    #[test]
    fn streamed_builder_is_byte_identical_to_batch_build() {
        let pop = pop();
        let reference = {
            let cfg = config();
            let campaign = Scanner::new(&pop).run_campaign(&cfg);
            serde_json::to_string_pretty(&build_timeseries(&campaign, &cfg, 64)).unwrap()
        };
        for threads in [1usize, 4] {
            let cfg = CampaignConfig {
                threads,
                ..config()
            };
            let mut builder = TimeSeriesBuilder::new(64);
            Scanner::new(&pop).stream(&cfg, 0..pop.len() as u32, 24 * 1024, |batch| {
                builder.push_batch(batch)
            });
            let doc = builder.finish(cfg.campaign_id());
            assert_eq!(
                serde_json::to_string_pretty(&doc).unwrap(),
                reference,
                "streamed series diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn chrome_export_covers_retained_probes_and_anomalies() {
        let pop = pop();
        let mut cfg = config();
        cfg.conditions = NetworkConditions::default();
        cfg.flight.baseline_sample_every = 16;
        let (_campaign, recording) = Scanner::new(&pop).run_campaign_flight(&cfg);
        assert!(
            !recording.retained().is_empty(),
            "campaign must retain traces"
        );
        let events = chrome_trace_export(&recording);
        assert!(!events.is_empty());
        // Every retained probe contributes at least one stage span on its
        // own (pid, tid) row.
        for t in recording.retained() {
            assert!(
                events
                    .iter()
                    .any(|e| e.pid == t.probe.domain_id && e.tid == t.probe.hop && e.ph == "X"),
                "no span for probe {}",
                t.probe
            );
        }
        // Anomaly marks carry severity and detail.
        let mark = events
            .iter()
            .find(|e| e.cat == "anomaly")
            .expect("at least one anomaly mark");
        let args = mark.args.as_ref().unwrap();
        assert!(args.severity.is_some());
        assert!(args.detail.is_some());
    }

    #[test]
    fn streamed_chrome_trace_matches_the_collected_events() {
        let pop = pop();
        let mut cfg = config();
        cfg.conditions = NetworkConditions::default();
        cfg.flight.baseline_sample_every = 16;
        let (_campaign, recording) = Scanner::new(&pop).run_campaign_flight(&cfg);
        let events = chrome_trace_export(&recording);
        let trace = ChromeTrace::new(&recording);
        for pretty in [false, true] {
            let (streamed, collected) = if pretty {
                (
                    serde_json::to_string_pretty(&trace).unwrap(),
                    serde_json::to_string_pretty(&events).unwrap(),
                )
            } else {
                (
                    serde_json::to_string(&trace).unwrap(),
                    serde_json::to_string(&events).unwrap(),
                )
            };
            assert!(streamed == collected, "pretty={pretty}: bytes differ");
            assert_eq!(trace.events_written(), events.len());
        }
        // No retained trace: the empty array, no events.
        let empty = FlightRecording::new(
            Default::default(),
            &cfg.flight,
            "empty".to_string(),
            Vec::new(),
        );
        let trace = ChromeTrace::new(&empty);
        assert_eq!(serde_json::to_string_pretty(&trace).unwrap(), "[]");
        assert_eq!(trace.events_written(), 0);
    }
}
