//! The traced replay: each workload's main command re-run in process
//! through the crates' public functions, with a span around every call
//! into a layer and the program's profiler and telemetry switched on.
//! The per-layer metrics come from those spans, instruments and the
//! artifacts the replay writes.

use crate::catalog::per_layer;
use crate::paper::paper_tables;
use crate::stats::{percentile, tail_percentile};
use crate::trace::{Instruments, Tracer};
use crate::workload::{Inputs, Workload};
use quicspin_scanner::{
    chrome_trace_export, parse_scenario, read_anomaly_index, read_observer, read_run_manifest,
    write_chrome_trace, write_flight_recording, write_observer, write_run_manifest,
    write_timeseries, CampaignConfig, FlightConfig, ObserverDocBuilder, ProbeScratch, ScanOutcome,
    Scanner, TimeSeriesBuilder, ANOMALY_INDEX_FILE_NAME, CHROME_TRACE_FILE_NAME,
    OBSERVER_FILE_NAME,
};
use quicspin_spinctl::report;
use quicspin_telemetry::{GaugeId, Metric, ScopeId, Stage, DEFAULT_TIMESERIES_CAPACITY};
use quicspin_webpop::Population;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resident record-byte budget `spinctl run` streams with by default.
const SWEEP_RECORD_BUDGET: usize = 1 << 20;

/// Every how many domain ids the single-thread pass times one probe.
const PROBE_SAMPLE_EVERY: usize = 10;

/// Facts the replay collects besides spans and instruments.
#[derive(Debug, Default)]
pub struct Extras {
    /// Observer rows held until `ObserverDocBuilder::finish`.
    pub observer_doc_flows: u64,
    /// Anomalies flagged, summed over campaigns.
    pub anomalies: u64,
    /// Probes with at least one anomaly.
    pub flagged: u64,
    /// Flagged traces retained under the budget.
    pub retained: u64,
    /// Bytes of `observer.json` written.
    pub observer_bytes: u64,
    /// Bytes of `anomalies.json` written.
    pub anomalies_bytes: u64,
    /// Bytes of `trace.json` written.
    pub chrome_bytes: u64,
    /// Per-call nanoseconds of sampled probes that reached the lab.
    pub probe_ns: Vec<f64>,
    /// Per-call nanoseconds of sampled probes that failed before the lab.
    pub fastfail_ns: Vec<f64>,
}

/// What the untraced run of the same command measured, for the metrics
/// that compare against it or read its artifacts.
#[derive(Debug, Default, Clone)]
pub struct ChildFacts {
    /// Wall clock of the main command, seconds.
    pub wall_s: f64,
    /// Each matrix cell's campaign wall from its `metrics.json`, ms.
    pub cell_ms: Vec<f64>,
    /// Probes that errored, over every run manifest.
    pub probes_errored: u64,
    /// Probes completed, over every run manifest.
    pub probes_completed: u64,
}

/// Replays the main command of `inputs` into `out`: the `command` span
/// covers what the command does, the read-back spans and the sampled
/// probe pass follow it.
pub fn replay(
    inputs: &Inputs,
    threads: usize,
    out: &Path,
    tr: &mut Tracer,
    ins: &Instruments,
    extras: &mut Extras,
) -> Result<(), String> {
    let (population, config, inspect) = tr.span("command", |tr| {
        command(inputs, threads, out, tr, ins, extras)
    })?;
    read_back(tr, &inspect)?;
    sample_probes(&population, &config, extras);
    Ok(())
}

/// The command part of the replay. Returns the population, the config of
/// its first campaign and the directory a user would inspect.
fn command(
    inputs: &Inputs,
    threads: usize,
    out: &Path,
    tr: &mut Tracer,
    ins: &Instruments,
    extras: &mut Extras,
) -> Result<(Population, CampaignConfig, PathBuf), String> {
    match inputs.workload {
        Workload::Sweep => {
            let population = tr.span("webpop.generate", |_| {
                Population::generate(inputs.population())
            });
            // Mirrors `spinctl run` at its defaults.
            let mut flight = FlightConfig::armed(inputs.population_seed);
            flight.baseline_sample_every = 64;
            let config = CampaignConfig {
                threads,
                flight,
                tap: Some(0.5),
                ..CampaignConfig::default()
            };
            replay_campaign(
                tr,
                &population,
                &config,
                SWEEP_RECORD_BUDGET,
                out,
                ins,
                extras,
            )?;
            Ok((population, config, out.to_path_buf()))
        }
        Workload::LossyToplist | Workload::MatrixGrid => {
            let text = inputs.scenario().expect("matrix workloads have a scenario");
            let matrix = tr.span("scanner.parse_scenario", |_| parse_scenario(&text))?;
            let population = tr.span("webpop.generate", |_| {
                Population::generate(matrix.population.clone())
            });
            for cell in &matrix.cells {
                let config = CampaignConfig {
                    threads,
                    ..cell.config.clone()
                };
                let dir = out.join("cells").join(&cell.id);
                replay_campaign(
                    tr,
                    &population,
                    &config,
                    cell.record_budget,
                    &dir,
                    ins,
                    extras,
                )?;
            }
            let layout = report::MatrixLayout::from_matrix(&matrix);
            tr.span("artifacts.write_other", |_| {
                report::write_matrix_layout(out, &layout)
            })?;
            tr.span("spinctl.report", |_| {
                let (doc, md) = report::generate(out)?;
                report::write_report(out, &doc, &md)
            })?;
            let first = &matrix.cells[0];
            let config = CampaignConfig {
                threads,
                ..first.config.clone()
            };
            Ok((population, config, out.join("cells").join(&first.id)))
        }
        Workload::PaperTables => {
            let population = tr.span("webpop.generate", |_| {
                Population::generate(inputs.population())
            });
            paper_tables(&population, threads, out, tr, ins)?;
            let config = CampaignConfig {
                threads,
                ..CampaignConfig::default()
            };
            Ok((population, config, out.join("v4")))
        }
    }
}

/// One streamed, flight-recorded campaign with every artifact
/// `spinctl run` and `spinctl matrix` write for it.
fn replay_campaign(
    tr: &mut Tracer,
    population: &Population,
    config: &CampaignConfig,
    record_budget: usize,
    dir: &Path,
    ins: &Instruments,
    extras: &mut Extras,
) -> Result<(), String> {
    let config = CampaignConfig {
        telemetry: Arc::clone(&ins.telemetry),
        profiler: Arc::clone(&ins.profiler),
        ..config.clone()
    };
    let mut series = TimeSeriesBuilder::new(DEFAULT_TIMESERIES_CAPACITY);
    let mut observer = config
        .tap
        .map(|p| ObserverDocBuilder::new(&config.campaign_id(), p));
    let scanner = Scanner::new(population);
    let (recording, manifest) = tr.span("scanner.campaign", |tr| {
        scanner.run_campaign_streamed_flight_with_progress(
            &config,
            record_budget,
            Duration::from_secs(3600),
            |_| {},
            |batch| {
                tr.span("scanner.sink", |_| {
                    if let Some(observer) = observer.as_mut() {
                        for i in 0..batch.len() {
                            observer.note_row(&batch.row(i));
                        }
                    }
                    series.push_batch(batch);
                })
            },
        )
    });
    let io = |e: std::io::Error| e.to_string();
    tr.span("artifacts.write_other", |_| {
        write_run_manifest(dir, &manifest)?;
        write_timeseries(dir, &series.finish(config.campaign_id())).map(|_| ())
    })
    .map_err(io)?;
    tr.span("artifacts.write_flight", |_| {
        write_flight_recording(dir, &recording)
    })
    .map_err(io)?;
    tr.span("artifacts.chrome_export", |_| {
        write_chrome_trace(dir, &chrome_trace_export(&recording))
    })
    .map_err(io)?;
    if let Some(observer) = observer {
        let doc = tr.span("artifacts.write_observer", |_| {
            let doc = observer.finish();
            write_observer(dir, &doc).map(|_| doc)
        });
        extras.observer_doc_flows += doc.map_err(io)?.flows.len() as u64;
    }
    extras.anomalies += recording.anomalies().len() as u64;
    extras.flagged += recording.flagged_traces();
    extras.retained += recording.retained().len() as u64;
    let size = |name: &str| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len());
    extras.observer_bytes += size(OBSERVER_FILE_NAME);
    extras.anomalies_bytes += size(ANOMALY_INDEX_FILE_NAME);
    extras.chrome_bytes += size(CHROME_TRACE_FILE_NAME);
    Ok(())
}

/// Reads back what a user inspects: the manifest, and the anomaly index
/// and observer document where the command wrote them.
fn read_back(tr: &mut Tracer, dir: &Path) -> Result<(), String> {
    tr.span("artifacts.read_manifest", |_| read_run_manifest(dir))
        .map_err(|e| e.to_string())?;
    if dir.join(ANOMALY_INDEX_FILE_NAME).exists() {
        tr.span("artifacts.read_anomalies", |_| read_anomaly_index(dir))
            .map_err(|e| e.to_string())?;
    }
    if dir.join(OBSERVER_FILE_NAME).exists() {
        tr.span("artifacts.read_observer", |_| read_observer(dir))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Times `scan_domain_into` on one thread for every
/// [`PROBE_SAMPLE_EVERY`]-th domain, split by whether the probe reached
/// the lab.
fn sample_probes(population: &Population, config: &CampaignConfig, extras: &mut Extras) {
    let scanner = Scanner::new(population);
    let mut scratch = ProbeScratch::default();
    let mut records = Vec::new();
    for id in (0..population.len() as u32).step_by(PROBE_SAMPLE_EVERY) {
        records.clear();
        let started = Instant::now();
        scanner.scan_domain_into(id, config, &mut scratch, &mut records);
        let ns = started.elapsed().as_nanos() as f64;
        let reached_lab = records
            .iter()
            .any(|r| matches!(r.outcome, ScanOutcome::Ok | ScanOutcome::HandshakeFailed));
        if reached_lab {
            extras.probe_ns.push(ns);
        } else {
            extras.fastfail_ns.push(ns);
        }
    }
}

/// One per-layer value and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct LayerValue {
    /// The value, in the catalogue unit.
    pub value: f64,
    /// Samples behind the value (spans, probes, connections, ...).
    pub n: u64,
    /// Which percentile a `.tail` value is, when it is one.
    pub percentile: Option<f64>,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Derives every per-layer metric of one replay.
pub fn layer_values(
    tr: &Tracer,
    ins: &Instruments,
    extras: &Extras,
    child: &ChildFacts,
) -> BTreeMap<&'static str, LayerValue> {
    let mut out = BTreeMap::new();
    let mut put = |name: &'static str, value: f64, n: u64| {
        out.insert(
            name,
            LayerValue {
                value,
                n,
                percentile: None,
            },
        );
    };
    let spans = |name: &str| tr.spans().iter().filter(|s| s.name == name).count() as u64;
    let span = |name: &'static str| (tr.total_s(name), spans(name));
    let reg = &*ins.telemetry;
    let prof = ins.profiler.snapshot();
    let wall = |s: ScopeId| prof.cost(s).wall_ns as f64 / 1e9;
    let enters = |s: ScopeId| prof.cost(s).enters;
    let count = |m: Metric| reg.counter(m);
    // Every lab run attempts a handshake, so this is connections attempted.
    let conns = enters(ScopeId::LabHandshake);
    let per_conn = |n: u64| ratio(n, conns);

    for name in [
        "webpop.generate",
        "scanner.sink",
        "scanner.materialize",
        "scanner.longitudinal",
        "artifacts.chrome_export",
        "artifacts.write_observer",
        "artifacts.write_flight",
        "artifacts.write_other",
        "artifacts.read_observer",
        "artifacts.read_anomalies",
        "artifacts.read_manifest",
        "spinctl.report",
        "analysis.tables",
        "analysis.fig2",
    ] {
        let (s, n) = span(name);
        put(catalogued(&format!("{name}_s")), s, n);
    }
    let campaign: Vec<(f64, u64)> = [
        "scanner.campaign",
        "scanner.materialize",
        "scanner.longitudinal",
    ]
    .iter()
    .map(|n| span(n))
    .collect();
    put(
        "scanner.campaign_s",
        campaign.iter().map(|c| c.0).fold(0.0, |a, b| a + b),
        campaign.iter().map(|c| c.1).sum(),
    );
    put("scanner.plan_s", wall(ScopeId::Plan), enters(ScopeId::Plan));
    put(
        "scanner.record_intern_s",
        wall(ScopeId::RecordIntern),
        enters(ScopeId::RecordIntern),
    );
    put(
        "scanner.batch_mailbox_s",
        wall(ScopeId::BatchMailbox),
        enters(ScopeId::BatchMailbox),
    );
    put(
        "scanner.peak_record_bytes",
        reg.gauge(GaugeId::PeakRecordBytes) as f64,
        1,
    );
    put(
        "scanner.mailbox_depth_max",
        reg.gauge(GaugeId::EventQueueDepth) as f64,
        1,
    );
    put(
        "scanner.observer_doc_flows",
        extras.observer_doc_flows as f64,
        1,
    );
    put(
        "scanner.probe_error_ratio",
        ratio(child.probes_errored, child.probes_completed),
        child.probes_completed,
    );
    put("flight.anomalies", extras.anomalies as f64, 1);
    put(
        "flight.retained_ratio",
        ratio(extras.retained, extras.flagged),
        extras.flagged,
    );
    let cells_s = child.cell_ms.iter().fold(0.0, |a, b| a + b) / 1e3;
    let noncampaign = if child.cell_ms.is_empty() {
        0.0
    } else {
        child.wall_s - cells_s
    };
    put(
        "matrix.noncampaign_s",
        noncampaign,
        child.cell_ms.len() as u64,
    );
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    put("artifacts.observer_mib", mib(extras.observer_bytes), 1);
    put("artifacts.anomalies_mib", mib(extras.anomalies_bytes), 1);
    put("artifacts.chrome_mib", mib(extras.chrome_bytes), 1);
    put(
        "quic.lab_handshake_s",
        wall(ScopeId::LabHandshake),
        enters(ScopeId::LabHandshake),
    );
    put(
        "quic.lab_transfer_s",
        wall(ScopeId::LabTransfer),
        enters(ScopeId::LabTransfer),
    );
    put(
        "quic.lab_self_s",
        prof.cost(ScopeId::Lab).self_ns as f64 / 1e9,
        enters(ScopeId::Lab),
    );
    let sent = count(Metric::PacketsSent);
    put("quic.packets_per_conn", per_conn(sent), conns);
    put(
        "quic.retransmit_ratio",
        ratio(count(Metric::FramesRetransmitted), sent),
        sent,
    );
    put(
        "quic.ptos_per_conn",
        per_conn(count(Metric::PtosFired)),
        conns,
    );
    put(
        "quic.frames_reassembled_per_conn",
        per_conn(enters(ScopeId::Reassembly)),
        conns,
    );
    let pool = count(Metric::DatagramPoolHits) + count(Metric::DatagramPoolMisses);
    put(
        "quic.pool_hit_ratio",
        ratio(count(Metric::DatagramPoolHits), pool),
        pool,
    );
    put(
        "netsim.wheel_push_per_conn",
        per_conn(enters(ScopeId::WheelPush)),
        conns,
    );
    put(
        "netsim.wheel_pop_per_conn",
        per_conn(enters(ScopeId::WheelPop)),
        conns,
    );
    put(
        "netsim.queue_high_water",
        reg.gauge(GaugeId::NetsimQueueHighWater) as f64,
        conns,
    );
    put(
        "netsim.drop_ratio",
        ratio(count(Metric::NetsimDrops), sent),
        sent,
    );
    put(
        "wire.encodes_per_conn",
        per_conn(enters(ScopeId::PacketEncode)),
        conns,
    );
    put(
        "wire.decodes_per_conn",
        per_conn(enters(ScopeId::PacketDecode)),
        conns,
    );
    put(
        "wire.undecodable",
        count(Metric::PacketsUndecodable) as f64,
        sent,
    );
    put(
        "core.spin_extraction_s",
        wall(ScopeId::SpinExtraction),
        enters(ScopeId::SpinExtraction),
    );
    put(
        "core.classify_s",
        wall(ScopeId::Classify),
        enters(ScopeId::Classify),
    );
    put(
        "core.spin_transitions",
        count(Metric::SpinTransitionsObserved) as f64,
        conns,
    );
    put(
        "observer.fold_s",
        wall(ScopeId::ObserverFold),
        enters(ScopeId::ObserverFold),
    );
    let samples = count(Metric::ObserverSamplesAccepted) + count(Metric::ObserverSamplesRejected);
    put(
        "observer.sample_accept_ratio",
        ratio(count(Metric::ObserverSamplesAccepted), samples),
        samples,
    );
    let flows = count(Metric::ObserverFlowsMeasurable) + count(Metric::ObserverFlowsUnmeasurable);
    put(
        "observer.measurable_ratio",
        ratio(count(Metric::ObserverFlowsMeasurable), flows),
        flows,
    );
    put(
        "observer.packets_per_conn",
        ratio(count(Metric::ObserverPacketsObserved), flows),
        flows,
    );
    put(
        "telemetry.trace_overhead_frac",
        if child.wall_s > 0.0 {
            tr.total_s("command") / child.wall_s - 1.0
        } else {
            0.0
        },
        1,
    );

    let to_us = |ns: &[f64]| ns.iter().map(|v| v / 1e3).collect::<Vec<_>>();
    distribution(&mut out, "scanner.probe_us", &to_us(&extras.probe_ns));
    distribution(&mut out, "scanner.fastfail_ns", &extras.fastfail_ns);
    distribution(&mut out, "matrix.cell_ms", &child.cell_ms);
    for (stage, name) in [
        (Stage::Handshake, "quic.handshake_us"),
        (Stage::Transfer, "quic.transfer_us"),
    ] {
        let hist = reg.stage_histogram(stage).to_shard();
        let n = hist.count();
        let us = |q: f64| hist.quantile(q) as f64 / 1e3;
        let tail = tail_percentile(n as usize);
        insert_distribution(
            &mut out,
            name,
            us(0.5),
            tail.map(|p| us(p / 100.0)),
            n,
            tail,
        );
    }
    out
}

/// The catalogue's copy of a per-layer metric name.
fn catalogued(name: &str) -> &'static str {
    per_layer(name)
        .unwrap_or_else(|| panic!("{name} is not a catalogued per-layer metric"))
        .name
}

fn distribution(out: &mut BTreeMap<&'static str, LayerValue>, base: &str, samples: &[f64]) {
    let tail = tail_percentile(samples.len());
    let p50 = percentile(samples, 50.0).unwrap_or(0.0);
    let tail_value = tail.and_then(|p| percentile(samples, p));
    insert_distribution(out, base, p50, tail_value, samples.len() as u64, tail);
}

/// Inserts `base.p50` and `base.tail`; the tail is 0 below ten samples.
fn insert_distribution(
    out: &mut BTreeMap<&'static str, LayerValue>,
    base: &str,
    p50: f64,
    tail_value: Option<f64>,
    n: u64,
    tail: Option<f64>,
) {
    out.insert(
        catalogued(&format!("{base}.p50")),
        LayerValue {
            value: p50,
            n,
            percentile: Some(50.0),
        },
    );
    out.insert(
        catalogued(&format!("{base}.tail")),
        LayerValue {
            value: tail_value.unwrap_or(0.0),
            n,
            percentile: tail,
        },
    );
}
