//! # quicspin-spinctl — flight-recorder command line
//!
//! Operator tooling over the campaign artifacts written by the scanner
//! into one campaign directory: the anomaly index (`anomalies.json`),
//! the binary trace store (`traces.bin`), the run manifest
//! (`metrics.json`), the deterministic campaign time series
//! (`timeseries.json`), the Chrome trace-event export (`trace.json`),
//! and the on-path observer document (`observer.json`).
//!
//! Subcommands:
//!
//! * `spinctl run` — run a small flight-recorded campaign against a
//!   synthetic population, with a passive on-path tap attached by
//!   default, and write all six artifacts;
//! * `spinctl observe` — render `observer.json`: the tap's per-flow
//!   RTT reconstruction next to the client's own spin and stack means;
//! * `spinctl summary` — campaign id, retention budget usage, anomaly
//!   counts by kind, the RTT-divergence distribution, virtual stage
//!   latencies, and the run-manifest counters;
//! * `spinctl anomalies` — list flagged probes, filterable by kind;
//! * `spinctl trace <probe-id>` — decode one retained trace and render
//!   its per-connection timeline (packet numbers, spin values, edge
//!   markers) plus the spin-vs-stack RTT samples side by side;
//! * `spinctl compare <a> <b>` — diff two campaign directories (or,
//!   with `--bench`, two `BENCH_JSON` reports): virtual-latency p99
//!   quantiles against a multiplicative band, error-rate drift, and
//!   classification-mix drift. Exits 2 when a regression is found
//!   (with `--bench`, also when a baseline row is missing);
//! * `spinctl profile <run>` — render a profiled run's hierarchical
//!   cost attribution (`profile.json` + `profile.folded`): the
//!   deterministic scope tree plus the top-N wall-clock self-time
//!   ranking. `--diff` compares two runs' deterministic counts and
//!   exits 2 past the band — the compare/trend workflow's per-scope
//!   regression hunter;
//! * `spinctl trend <dir>...` — tabulate campaign directories as a
//!   per-week compliance view (the paper's Fig. 2 angle: how the
//!   spin-participation mix moves across weekly sweeps).
//!
//! The library half exists so the rendering is testable; `main.rs` is a
//! thin wrapper around [`run`], which returns the process exit code
//! (0 = clean, 2 = regressions found; `Err` renders on stderr as 1).

pub mod report;

use quicspin_analysis::Histogram;
use quicspin_core::reorder::ReorderComparison;
use quicspin_core::PacketObservation;
use quicspin_qlog::render_timeline;
use quicspin_scanner::{
    parse_scenario, profile_folded_stacks, read_anomaly_index, read_flagged_trace, read_json,
    read_observer, read_profile, read_profile_folded, read_run_manifest, read_timeseries,
    write_flight_recording, write_json, write_observer, write_profile, write_profile_folded,
    write_run_manifest, write_timeseries, AnomalyIndex, AnomalyKind, CampaignConfig, ChromeTrace,
    FlightConfig, FlightRecording, ObserverDocBuilder, ProbeId, RunManifest, Scanner,
    ScenarioMatrix, TimeSeriesBuilder, TimeSeriesDoc, ANOMALY_INDEX_FILE_NAME,
    CHROME_TRACE_FILE_NAME, MANIFEST_FILE_NAME, OBSERVER_FILE_NAME, PROFILE_FILE_NAME,
    PROFILE_FOLDED_FILE_NAME, TIMESERIES_FILE_NAME, TRACE_STORE_FILE_NAME,
};
use quicspin_telemetry::{ProfileDoc, ProfilerRegistry, ScopeId, DEFAULT_TIMESERIES_CAPACITY};
use quicspin_webpop::{Population, PopulationConfig};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Default artifact directory when `--dir` is not given.
pub const DEFAULT_DIR: &str = "target/flight";

/// Exit code signalled (via [`run`]'s `Ok`) when `compare` finds at
/// least one regression.
pub const EXIT_REGRESSIONS: i32 = 2;

/// Default `--tap` position of `run`: the middle of the path.
const DEFAULT_TAP: f64 = 0.5;

/// Default multiplicative band of every regression gate on run
/// artifacts: `compare`'s p99 gate, `profile --diff`'s count gate and
/// the matrix report's per-cell p99 verdicts.
const DEFAULT_BAND: f64 = 1.25;

/// Minimum absolute worsening (µs) before a latency quantile can count
/// as regressed; filters noise on near-zero baselines.
const LATENCY_FLOOR_US: u64 = 1_000;

/// Error-rate worsening (absolute fraction) that counts as a
/// regression, in `compare` and in the matrix report's per-cell verdicts.
const ERROR_RATE_DRIFT: f64 = 0.02;

/// Default classification-mix share drift (absolute fraction) past which
/// a class counts as drifted: `compare`'s `--mix-drift` and the matrix
/// report's per-cell verdicts.
const DEFAULT_MIX_DRIFT: f64 = 0.02;

/// Default multiplicative band of `compare --bench` on benchmark means.
const DEFAULT_BENCH_BAND: f64 = 1.5;

/// Minimum absolute worsening (ns) before a benchmark mean can count as
/// regressed.
const BENCH_FLOOR_NS: u64 = 1_000;

/// Minimum absolute growth before a deterministic profile count can
/// count as regressed in `profile --diff`; filters tiny-scope noise.
const PROFILE_COUNT_FLOOR: u64 = 1_000;

/// The help text; each default it states is rendered from its constant.
fn usage() -> String {
    format!(
        "\
spinctl — QUIC spin-bit campaign flight recorder

USAGE:
    spinctl run       [--dir DIR] [--domains N] [--seed S] [--threads T]
                      [--budget-bytes B] [--record-budget B] [--sample-every K]
                      [--loss P] [--tap P] [--profile]
    spinctl matrix    <scenario.toml> [--out DIR] [--threads T]
    spinctl report    [--dir DIR]
    spinctl observe   [--dir DIR] [--limit N]
    spinctl summary   [--dir DIR]
    spinctl anomalies [--dir DIR] [--kind KIND] [--limit N] [--json]
    spinctl trace     (<probe-id> | --first) [--dir DIR]
    spinctl compare   <run-a> <run-b> [--p99-band X] [--mix-drift D]
    spinctl compare   --bench <a.json> <b.json> [--bench-band X]
    spinctl profile   <run> [--top N]
    spinctl profile   --diff <run-a> <run-b> [--count-band X]
    spinctl trend     <dir> [<dir> ...]

`run` sweeps a synthetic population over the streamed, bounded-memory
campaign path (worker record batches fold straight into the artifacts;
--record-budget caps resident record bytes, 0 = unbounded) with the
flight recorder armed, and writes metrics.json, anomalies.json,
traces.bin, timeseries.json, trace.json (Chrome trace-event form; load
in Perfetto), and observer.json into DIR. --tap P places a passive
on-path observer at fraction P of the client->server path (default
{DEFAULT_TAP}; `--tap off` disables it and skips observer.json). `matrix` runs a
declarative scenario grid (TOML: population, base knobs, sweep axes)
through the same streamed path — one campaign directory per cell under
DIR/cells/<id> — then folds every cell into DIR/report.md and
DIR/report.json (byte-identical at any --threads). `report`
re-derives the same bytes from an existing matrix directory. `anomalies
--json` emits the listing as a stable machine-readable document
instead of the table. `observe`
renders observer.json: per-flow RTT as reconstructed from the middle
of the path, next to the client's own spin and stack means.
`compare` diffs two campaign directories — virtual-latency p99s against
a multiplicative band (default {DEFAULT_BAND:.2}), error-rate drift, and
classification-mix drift (default {DEFAULT_MIX_DRIFT:.2}) — or, with --bench, two
BENCH_JSON benchmark reports (band default {DEFAULT_BENCH_BAND:.2}). It exits 2 when it
finds a regression; with --bench, a row of <a.json> that <b.json> lacks
counts as one (MISSING). `run --profile` attributes probe cost to a static
scope tree and additionally writes profile.json (deterministic counts;
byte-identical for any --threads) and profile.folded (collapsed wall
self-time stacks; load in speedscope or flamegraph.pl). `profile`
renders the scope tree plus the top-N self-time ranking; with --diff
it compares two runs' deterministic counts against a multiplicative
band (default {DEFAULT_BAND:.2}) and exits 2 past it. `trend` tabulates campaign
directories by week as a spin-compliance view.
`<probe-id>` is `domain` or `domain:hop`, as printed by `anomalies`.
KIND is one of: rtt-divergence, invalid-spin-edge, classification-flip,
handshake-failure, stage-outlier, baseline-sample, observer-divergence,
observer-extra-edges, observer-unmeasurable.
"
    )
}

/// Executes one spinctl invocation. `args` excludes the program name.
/// All output goes to `out`; the `Ok` value is the process exit code
/// (nonzero only for `compare` regressions). Errors (usage errors and
/// missing/corrupt artifacts alike) come back as the `Err` string for
/// the binary to print on stderr and exit 1.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "run" => cmd_run(rest, out).map(|()| 0),
        "matrix" => cmd_matrix(rest, out).map(|()| 0),
        "report" => cmd_report(rest, out).map(|()| 0),
        "observe" => cmd_observe(rest, out).map(|()| 0),
        "summary" => cmd_summary(rest, out).map(|()| 0),
        "anomalies" => cmd_anomalies(rest, out).map(|()| 0),
        "trace" => cmd_trace(rest, out).map(|()| 0),
        "compare" => cmd_compare(rest, out),
        "profile" => cmd_profile(rest, out),
        "trend" => cmd_trend(rest, out).map(|()| 0),
        "help" | "--help" | "-h" => {
            write!(out, "{}", usage()).map_err(|e| e.to_string())?;
            Ok(0)
        }
        other => Err(format!("unknown subcommand {other:?}\n\n{}", usage())),
    }
}

// ---------------------------------------------------------------------------
// Argument parsing (hand-rolled; no external dependencies)
// ---------------------------------------------------------------------------

struct ParsedArgs {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl ParsedArgs {
    /// Splits `args` into positionals, `--flag value` pairs, and bare
    /// `--switch`es (from `switch_names`).
    fn parse(args: &[String], switch_names: &[&str]) -> Result<ParsedArgs, String> {
        let mut out = ParsedArgs {
            positional: Vec::new(),
            flags: Vec::new(),
            switches: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                if switch_names.contains(&name) {
                    out.switches.push(name.to_string());
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("flag --{name} needs a value\n\n{}", usage()))?;
                    out.flags.push((name.to_string(), value.clone()));
                }
            } else {
                out.positional.push(a.clone());
            }
        }
        Ok(out)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for --{name}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn dir(&self) -> PathBuf {
        PathBuf::from(self.get("dir").unwrap_or(DEFAULT_DIR))
    }

    fn ensure_known(&self, known: &[&str]) -> Result<(), String> {
        for (k, _) in &self.flags {
            if !known.contains(&k.as_str()) {
                return Err(format!("unknown flag --{k}\n\n{}", usage()));
            }
        }
        Ok(())
    }
}

fn load_index(dir: &Path) -> Result<AnomalyIndex, String> {
    read_anomaly_index(dir).map_err(|e| format!("{e} (run `spinctl run --dir ...` first?)"))
}

/// The two artifacts `compare` and `trend` diff: the run manifest and
/// the deterministic time series. Missing or corrupt files are fatal.
struct RunArtifacts {
    manifest: RunManifest,
    series: TimeSeriesDoc,
}

fn load_run(dir: &Path) -> Result<RunArtifacts, String> {
    let manifest = read_run_manifest(dir).map_err(|e| e.to_string())?;
    let series = read_timeseries(dir).map_err(|e| e.to_string())?;
    Ok(RunArtifacts { manifest, series })
}

// ---------------------------------------------------------------------------
// spinctl run
// ---------------------------------------------------------------------------

fn cmd_run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let args = ParsedArgs::parse(args, &["profile"])?;
    args.ensure_known(&[
        "dir",
        "domains",
        "seed",
        "threads",
        "budget-bytes",
        "record-budget",
        "sample-every",
        "loss",
        "tap",
    ])?;
    if !args.positional.is_empty() {
        return Err(format!(
            "unexpected argument {:?}\n\n{}",
            args.positional[0],
            usage()
        ));
    }
    let dir = args.dir();
    let domains: u32 = args.get_parsed("domains", 600)?;
    if domains == 0 {
        return Err("--domains must be at least 1".to_string());
    }
    let seed: u64 = args.get_parsed("seed", 23)?;
    let threads: usize = args.get_parsed("threads", 1)?;
    let budget: u64 = args.get_parsed("budget-bytes", 2 << 20)?;
    let record_budget: usize = args.get_parsed("record-budget", 1 << 20)?;
    let sample_every: u64 = args.get_parsed("sample-every", 64)?;

    let population = Population::generate(PopulationConfig {
        seed,
        toplist_domains: domains / 8 + 1,
        zone_domains: domains - domains / 8 - 1,
    });
    let mut flight = FlightConfig::armed(seed);
    flight.retention_budget_bytes = budget;
    flight.baseline_sample_every = sample_every;
    let mut config = CampaignConfig {
        threads,
        flight,
        ..CampaignConfig::default()
    };
    if args.has("profile") {
        config.profiler = Arc::new(ProfilerRegistry::new());
    }
    config.conditions.loss = args.get_parsed("loss", config.conditions.loss)?;
    if !(0.0..1.0).contains(&config.conditions.loss) {
        return Err(format!(
            "--loss must be in [0, 1), got {}",
            config.conditions.loss
        ));
    }
    // The tap rides along by default: it is passive (records are
    // bit-identical with and without it), and observer.json is the
    // artifact `spinctl observe` renders.
    config.tap = match args.get("tap") {
        Some("off") => None,
        None => Some(DEFAULT_TAP),
        Some(raw) => {
            let p: f64 = raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for --tap"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("--tap must be in [0, 1] or \"off\", got {p}"));
            }
            Some(p)
        }
    };
    let run = stream_campaign(&population, &config, record_budget, Duration::from_secs(2));
    for line in &run.log {
        writeln!(out, "{line}").map_err(|e| e.to_string())?;
    }
    export_campaign(run, &dir, out, None).map(drop)
}

/// One finished streamed campaign, owned and not yet written: what
/// [`stream_campaign`] hands to [`export_campaign`]. Owning everything
/// lets `spinctl matrix` write one cell's artifacts on another thread
/// while the next cell runs.
struct CampaignRun {
    /// Progress lines and the campaign summary, in log order.
    log: Vec<String>,
    series: TimeSeriesBuilder,
    observer: Option<ObserverDocBuilder>,
    rows: u64,
    recording: FlightRecording,
    manifest: RunManifest,
    profiler: Arc<ProfilerRegistry>,
}

/// Runs the streamed, flight-recorded campaign that `spinctl run` and
/// every `spinctl matrix` cell share, and keeps what its artifacts are
/// written from. Nothing touches the disk until [`export_campaign`].
fn stream_campaign(
    population: &Population,
    config: &CampaignConfig,
    record_budget: usize,
    progress_every: Duration,
) -> CampaignRun {
    // The progress sink must be Send, so collect the monitor lines for
    // the log. The batch sink runs on this thread: record batches fold
    // into the time series, the observer document and a row count the
    // moment workers publish them — no record vector.
    let mut log: Vec<String> = Vec::new();
    let mut series = TimeSeriesBuilder::new(DEFAULT_TIMESERIES_CAPACITY);
    let mut observer = config
        .tap
        .map(|p| ObserverDocBuilder::new(&config.campaign_id(), p));
    let mut rows: u64 = 0;
    let (recording, manifest) = Scanner::new(population)
        .run_campaign_streamed_flight_with_progress(
            config,
            record_budget,
            progress_every,
            |line| log.push(line.to_string()),
            |batch| {
                rows += batch.len() as u64;
                if let Some(observer) = observer.as_mut() {
                    for i in 0..batch.len() {
                        observer.note_row(&batch.row(i));
                    }
                }
                series.push_batch(batch);
            },
        );
    log.push(format!(
        "campaign {}: {} domains, {} records, {} anomalies on {} probes",
        recording.campaign_id(),
        population.len(),
        rows,
        recording.anomalies().len(),
        recording.flagged_traces(),
    ));
    log.push(format!(
        "retained {} traces ({} B of {} B budget), evicted {}",
        recording.retained().len(),
        recording.retained_bytes(),
        config.flight.retention_budget_bytes,
        recording.evicted_traces(),
    ));
    log.push(format!(
        "peak resident record bytes {} (budget {}, 0 = unbounded)",
        manifest.counter("peak_record_bytes"),
        record_budget,
    ));
    CampaignRun {
        log,
        series,
        observer,
        rows,
        recording,
        manifest,
        profiler: Arc::clone(&config.profiler),
    }
}

/// Writes every artifact of `run` into `dir`: manifest, flight
/// recording, time series, Chrome trace and, when enabled, the observer
/// document and the profile. An optional artifact the run does not write
/// is removed, so a reused `dir` holds no earlier run's copy. Logs one
/// `wrote` line per artifact to `log`. A failed write or removal names
/// the artifact and `dir`, on one line.
/// Given the run's matrix `slot`, also folds the cell's report row from
/// what it has just written, so the report needs no read-back.
fn export_campaign(
    run: CampaignRun,
    dir: &Path,
    log: &mut dyn Write,
    slot: Option<&report::CellSlot>,
) -> Result<Option<report::CellReport>, String> {
    let failed = |artifact: &str, e: std::io::Error| {
        format!("cannot write {artifact} in {}: {e}", dir.display())
    };
    let mut w = |s: String| writeln!(log, "{s}").map_err(|e| e.to_string());
    let manifest_path =
        write_run_manifest(dir, &run.manifest).map_err(|e| failed(MANIFEST_FILE_NAME, e))?;
    let (index_path, store_path) = write_flight_recording(dir, &run.recording).map_err(|e| {
        failed(
            &format!("{ANOMALY_INDEX_FILE_NAME} or {TRACE_STORE_FILE_NAME}"),
            e,
        )
    })?;
    let series = run.series.finish(run.recording.campaign_id().to_string());
    let series_path =
        write_timeseries(dir, &series).map_err(|e| failed(TIMESERIES_FILE_NAME, e))?;
    let trace = ChromeTrace::new(&run.recording);
    let trace_path = write_json(dir, CHROME_TRACE_FILE_NAME, &trace)
        .map_err(|e| failed(CHROME_TRACE_FILE_NAME, e))?;
    w(format!("wrote {}", manifest_path.display()))?;
    w(format!("wrote {}", index_path.display()))?;
    w(format!("wrote {}", store_path.display()))?;
    w(format!(
        "wrote {} ({} points, stride {})",
        series_path.display(),
        series.points.len(),
        series.stride,
    ))?;
    w(format!(
        "wrote {} ({} trace events; load in Perfetto)",
        trace_path.display(),
        trace.events_written(),
    ))?;
    let observer = run.observer.map(ObserverDocBuilder::finish);
    if let Some(doc) = &observer {
        let observer_path = write_observer(dir, doc).map_err(|e| failed(OBSERVER_FILE_NAME, e))?;
        w(format!(
            "wrote {} ({} observed flows, tap at {:.3} of the path)",
            observer_path.display(),
            doc.flows.len(),
            doc.vantage(),
        ))?;
    } else {
        remove_stale(dir, OBSERVER_FILE_NAME)?;
    }
    let profile = if run.profiler.is_enabled() {
        let snapshot = run.profiler.snapshot();
        let doc = snapshot.doc();
        let profile_path = write_profile(dir, &doc).map_err(|e| failed(PROFILE_FILE_NAME, e))?;
        let stacks = profile_folded_stacks(&snapshot);
        let folded_path =
            write_profile_folded(dir, &stacks).map_err(|e| failed(PROFILE_FOLDED_FILE_NAME, e))?;
        w(format!(
            "wrote {} ({} deterministic scopes)",
            profile_path.display(),
            doc.scopes.len(),
        ))?;
        w(format!(
            "wrote {} ({} stacks; load in speedscope or flamegraph.pl)",
            folded_path.display(),
            stacks.len(),
        ))?;
        Some(doc)
    } else {
        remove_stale(dir, PROFILE_FILE_NAME)?;
        remove_stale(dir, PROFILE_FOLDED_FILE_NAME)?;
        None
    };
    let Some(slot) = slot else {
        return Ok(None);
    };
    let inputs = report::CellInputs {
        manifest: &run.manifest,
        campaign: run.recording.campaign_id(),
        anomaly_counts: &run.recording.index().counts_by_kind(),
        point: report::last_point(&series, dir)?,
        observer: observer.as_ref(),
        profile: profile.as_ref(),
        links: report::CellLinks {
            perfetto_trace: true,
            flamegraph: profile.is_some(),
            trace_store: true,
        },
    };
    Ok(Some(report::fold_cell(slot, &inputs)))
}

/// Removes `dir`'s `artifact`, which this run does not write, if an
/// earlier run left one there.
fn remove_stale(dir: &Path, artifact: &str) -> Result<(), String> {
    match std::fs::remove_file(dir.join(artifact)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(format!(
            "cannot remove stale {artifact} in {}: {e}",
            dir.display()
        )),
        _ => Ok(()),
    }
}

/// Runs `campaign` for each cell in order and hands its result to
/// `export`, which writes cell *i* on a scoped thread while cell *i+1*'s
/// campaign runs. At most one export is in flight. Exports are joined in
/// cell order and each one's output reaches `done` on this thread, so
/// whatever `done` prints keeps cell order. The last cell exports
/// inline. The first failed export ends the run with its error; a
/// panicking export is passed on unchanged.
fn pipeline<C, R, O>(
    cells: &[C],
    mut campaign: impl FnMut(&C) -> R,
    export: impl Fn(&C, R) -> Result<O, String> + Sync,
    mut done: impl FnMut(O) -> Result<(), String>,
) -> Result<(), String>
where
    C: Sync,
    R: Send,
    O: Send,
{
    std::thread::scope(|scope| {
        let export = &export;
        let mut in_flight: Option<std::thread::ScopedJoinHandle<Result<O, String>>> = None;
        for (i, cell) in cells.iter().enumerate() {
            let run = campaign(cell);
            if let Some(handle) = in_flight.take() {
                let exported = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                done(exported?)?;
            }
            if i + 1 == cells.len() {
                done(export(cell, run)?)?;
            } else {
                in_flight = Some(scope.spawn(move || export(cell, run)));
            }
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------------
// spinctl matrix / report
// ---------------------------------------------------------------------------

/// Default matrix out-dir when `--out`/`--dir` is not given.
pub const DEFAULT_MATRIX_DIR: &str = "target/matrix";

fn cmd_matrix(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let args = ParsedArgs::parse(args, &[])?;
    args.ensure_known(&["out", "threads"])?;
    let scenario_path = args
        .positional
        .first()
        .ok_or_else(|| format!("matrix needs a scenario file\n\n{}", usage()))?;
    if args.positional.len() > 1 {
        return Err(format!(
            "unexpected argument {:?}\n\n{}",
            args.positional[1],
            usage()
        ));
    }
    let text = std::fs::read_to_string(scenario_path)
        .map_err(|e| format!("cannot read scenario {scenario_path}: {e}"))?;
    let matrix = parse_scenario(&text)?;
    let out_dir = PathBuf::from(args.get("out").unwrap_or(DEFAULT_MATRIX_DIR));
    let threads: Option<usize> = match args.get("threads") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("invalid value {raw:?} for --threads"))?,
        ),
    };
    run_matrix(&matrix, &out_dir, threads, out)
}

/// Runs every cell of `matrix` into `out_dir/cells/<id>`, then writes
/// `matrix.json` and the report, folded from the runs as they export.
fn run_matrix(
    matrix: &ScenarioMatrix,
    out_dir: &Path,
    threads: Option<usize>,
    out: &mut dyn Write,
) -> Result<(), String> {
    writeln!(
        out,
        "scenario {}: {} cells over {} axis(es)",
        matrix.name,
        matrix.cells.len(),
        matrix.axes.len(),
    )
    .map_err(|e| e.to_string())?;

    let layout = report::MatrixLayout::from_matrix(matrix);
    let cells: Vec<_> = matrix.cells.iter().zip(&layout.cells).collect();
    let population = Population::generate(matrix.population.clone());
    let mut folded = Vec::with_capacity(cells.len());
    pipeline(
        &cells,
        |(cell, _)| {
            let mut config = cell.config.clone();
            if let Some(t) = threads {
                config.threads = t.max(1);
            }
            if cell.profile {
                config.profiler = Arc::new(ProfilerRegistry::new());
            }
            stream_campaign(
                &population,
                &config,
                cell.record_budget,
                Duration::from_secs(3600),
            )
        },
        |(cell, slot), run| {
            let cell_dir = out_dir.join(&slot.dir);
            let line = format!(
                "cell {}: {} records, {} anomalies -> {}",
                cell.id,
                run.rows,
                run.recording.anomalies().len(),
                cell_dir.display(),
            );
            let folded = export_campaign(run, &cell_dir, &mut std::io::sink(), Some(slot))
                .map_err(|e| format!("cell {}: {e}", cell.id))?
                .expect("a slot folds a report row");
            Ok((line, folded))
        },
        |(line, cell)| {
            folded.push(cell);
            writeln!(out, "{line}").map_err(|e| e.to_string())
        },
    )?;

    let layout_path = report::write_matrix_layout(out_dir, &layout)?;
    writeln!(out, "wrote {}", layout_path.display()).map_err(|e| e.to_string())?;
    let (doc, md) = report::assemble(layout, folded);
    let (md_path, json_path) = report::write_report(out_dir, &doc, &md)?;
    writeln!(
        out,
        "wrote {} and {} ({} cells, baseline {})",
        md_path.display(),
        json_path.display(),
        doc.cells.len(),
        doc.baseline,
    )
    .map_err(|e| e.to_string())
}

fn cmd_report(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let args = ParsedArgs::parse(args, &[])?;
    args.ensure_known(&["dir"])?;
    if !args.positional.is_empty() {
        return Err(format!(
            "unexpected argument {:?}\n\n{}",
            args.positional[0],
            usage()
        ));
    }
    let dir = PathBuf::from(args.get("dir").unwrap_or(DEFAULT_MATRIX_DIR));
    let (doc, md) = report::generate(&dir)?;
    let (md_path, json_path) = report::write_report(&dir, &doc, &md)?;
    writeln!(
        out,
        "wrote {} and {} ({} cells, baseline {})",
        md_path.display(),
        json_path.display(),
        doc.cells.len(),
        doc.baseline,
    )
    .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// spinctl observe
// ---------------------------------------------------------------------------

fn cmd_observe(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let args = ParsedArgs::parse(args, &[])?;
    args.ensure_known(&["dir", "limit"])?;
    let dir = args.dir();
    let limit: usize = args.get_parsed("limit", 20)?;
    let doc = read_observer(&dir).map_err(|e| e.to_string())?;
    let cell = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
    let mut text = String::new();
    let _ = writeln!(
        text,
        "campaign {} (observer schema v{}), tap at {:.3} of the client->server path",
        doc.campaign,
        doc.schema_version,
        doc.vantage(),
    );
    let s = &doc.summary;
    let _ = writeln!(
        text,
        "flows: {} observed, {} measurable, {} unmeasurable",
        s.flows, s.measurable, s.unmeasurable
    );
    let _ = writeln!(
        text,
        "samples: {} accepted, {} rejected as reordering, {} dropped as loss gaps",
        s.samples, s.rejected_reorder, s.rejected_gap
    );
    let _ = writeln!(
        text,
        "mean RTT (µs): observer {}, client spin {}, stack {}",
        cell(s.observer_mean_us),
        cell(s.client_mean_us),
        cell(s.stack_mean_us),
    );
    let _ = writeln!(
        text,
        "max observer-vs-client divergence: {:.1}%",
        s.max_divergence_millionths as f64 / 10_000.0
    );
    let _ = writeln!(
        text,
        "\nper-flow observer RTT ({} of {} flows shown):",
        doc.flows.len().min(limit),
        doc.flows.len(),
    );
    let _ = writeln!(
        text,
        "  {:>6} {:>4} {:>8} {:>6} {:>8} {:>10} {:>10} {:>10}  {:>7}",
        "domain", "hop", "packets", "edges", "samples", "obs µs", "client µs", "stack µs", "diverg"
    );
    for row in doc.flows.iter().take(limit) {
        let v = &row.view;
        let diverg = v
            .divergence()
            .map_or("-".to_string(), |d| format!("{:.1}%", d * 100.0));
        let _ = writeln!(
            text,
            "  {:>6} {:>4} {:>8} {:>6} {:>8} {:>10} {:>10} {:>10}  {:>7}",
            row.domain_id,
            row.hop,
            v.stats.packets,
            v.stats.edges_downstream,
            v.stats.samples,
            cell(v.stats.mean_us),
            cell(v.client_spin_mean_us),
            cell(v.stack_mean_us),
            diverg,
        );
    }
    write!(out, "{text}").map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// spinctl summary
// ---------------------------------------------------------------------------

fn cmd_summary(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let args = ParsedArgs::parse(args, &[])?;
    args.ensure_known(&["dir"])?;
    let dir = args.dir();
    let index = load_index(&dir)?;
    // A campaign directory without a readable manifest is broken, not
    // partially summarizable: fail hard so scripts notice.
    let manifest = read_run_manifest(&dir).map_err(|e| e.to_string())?;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "campaign {} (anomaly schema v{})",
        index.campaign_id, index.schema_version
    );
    for entry in &index.config {
        let _ = writeln!(text, "  {:<32} {}", entry.key, entry.value);
    }
    let _ = writeln!(
        text,
        "\nretention: {} probes flagged, {} traces retained ({} B of {} B budget), {} evicted",
        index.flagged_traces,
        index.retained_traces,
        index.retained_bytes,
        index.retention_budget_bytes,
        index.evicted_traces,
    );

    let _ = writeln!(text, "\nanomalies by kind:");
    let counts = index.counts_by_kind();
    if counts.is_empty() {
        let _ = writeln!(text, "  (none)");
    }
    for (kind, n) in counts {
        let _ = writeln!(text, "  {:<20} {n}", kind.name());
    }

    let divergences: Vec<f64> = index
        .of_kind(AnomalyKind::RttDivergence)
        .map(|a| a.value)
        .collect();
    if !divergences.is_empty() {
        let mut hist = Histogram::new(vec![0.10, 0.25, 0.50, 1.00, 2.00]);
        for d in &divergences {
            hist.add(*d);
        }
        let _ = writeln!(
            text,
            "\nspin-vs-stack RTT divergence (fraction of stack RTT, {} flagged probes):",
            hist.total()
        );
        for (idx, share) in hist.shares().iter().enumerate() {
            let _ = writeln!(
                text,
                "  {:<14} {:>5} ({:5.1}%)",
                hist.bin_label(idx),
                hist.counts[idx],
                share * 100.0
            );
        }
    }

    if !index.stages.is_empty() {
        let _ = writeln!(text, "\nvirtual connection stages (simulated time, µs):");
        let _ = writeln!(
            text,
            "  {:<20} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "stage", "count", "p50", "p90", "p99", "max"
        );
        for s in &index.stages {
            let _ = writeln!(
                text,
                "  {:<20} {:>8} {:>10} {:>10} {:>10} {:>10}",
                s.stage, s.count, s.p50_us, s.p90_us, s.p99_us, s.max_us
            );
        }
    }

    let _ = writeln!(text, "\nresource gauges (from metrics.json):");
    let budget = manifest.counter("record_budget_bytes");
    let _ = writeln!(
        text,
        "  {:<28} {:>14}  (streamed-path high water)",
        "peak_record_bytes",
        manifest.counter("peak_record_bytes"),
    );
    let _ = writeln!(
        text,
        "  {:<28} {:>14}  ({})",
        "record_budget_bytes",
        budget,
        if budget == 0 {
            "unbounded"
        } else {
            "resident-byte cap"
        },
    );
    let _ = writeln!(
        text,
        "  {:<28} {:>14}  (pending batches awaiting merge)",
        "event_queue_depth",
        manifest.counter("event_queue_depth"),
    );
    let _ = writeln!(
        text,
        "  {:<28} {:>14}  (netsim event-queue high water)",
        "netsim_queue_high_water",
        manifest.counter("netsim_queue_high_water"),
    );

    // Pre-tap run directories (and --tap off runs) have no
    // observer.json: skip the section rather than failing the summary.
    if dir.join(OBSERVER_FILE_NAME).exists() {
        let doc = read_observer(&dir).map_err(|e| e.to_string())?;
        let cell = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
        let _ = writeln!(
            text,
            "\non-path observer (tap at {:.3} of the client->server path):",
            doc.vantage()
        );
        let _ = writeln!(
            text,
            "  {} flows observed, {} measurable; mean RTT (µs): observer {}, client spin {}",
            doc.summary.flows,
            doc.summary.measurable,
            cell(doc.summary.observer_mean_us),
            cell(doc.summary.client_mean_us),
        );
    }

    let _ = writeln!(text, "\n{}", manifest.summary_table());
    write!(out, "{text}").map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// spinctl anomalies
// ---------------------------------------------------------------------------

/// Schema version of [`AnomalyListDoc`].
pub const ANOMALY_LIST_SCHEMA_VERSION: u32 = 1;

/// Machine-readable `spinctl anomalies --json` output: the same listing
/// as the table (kind filter and limit applied), stable schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnomalyListDoc {
    /// Schema version ([`ANOMALY_LIST_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Deterministic campaign identifier.
    pub campaign: String,
    /// Kind filter applied, if any (kebab-case name).
    pub kind: Option<String>,
    /// Anomalies matching the filter, before the limit.
    pub total: u64,
    /// Anomalies included below (`min(total, limit)`).
    pub shown: u64,
    /// The listed anomalies, index order.
    pub anomalies: Vec<AnomalyListRow>,
}

/// One anomaly inside an [`AnomalyListDoc`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnomalyListRow {
    /// Probe id, `domain` or `domain:hop` form.
    pub probe: String,
    /// Kebab-case anomaly kind name.
    pub kind: String,
    /// Retention priority.
    pub severity: u32,
    /// Kind-specific magnitude.
    pub value: f64,
    /// Human-readable one-liner.
    pub detail: String,
    /// Whether the probe's binary trace survives in traces.bin.
    pub trace_retained: bool,
}

fn cmd_anomalies(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let args = ParsedArgs::parse(args, &["json"])?;
    args.ensure_known(&["dir", "kind", "limit"])?;
    let dir = args.dir();
    let limit: usize = args.get_parsed("limit", 20)?;
    let kind = match args.get("kind") {
        None => None,
        Some(raw) => Some(AnomalyKind::parse(raw).ok_or_else(|| {
            let known: Vec<&str> = AnomalyKind::ALL.iter().map(|k| k.name()).collect();
            format!(
                "unknown kind {raw:?}; expected one of: {}",
                known.join(", ")
            )
        })?),
    };
    let index = load_index(&dir)?;
    let selected: Vec<_> = index
        .anomalies
        .iter()
        .filter(|a| kind.is_none_or(|k| a.kind == k))
        .collect();
    if args.has("json") {
        let doc = AnomalyListDoc {
            schema_version: ANOMALY_LIST_SCHEMA_VERSION,
            campaign: index.campaign_id.clone(),
            kind: kind.map(|k| k.name().to_string()),
            total: selected.len() as u64,
            shown: selected.len().min(limit) as u64,
            anomalies: selected
                .iter()
                .take(limit)
                .map(|a| AnomalyListRow {
                    probe: a.probe.to_string(),
                    kind: a.kind.name().to_string(),
                    severity: a.severity,
                    value: a.value,
                    detail: a.detail.clone(),
                    trace_retained: index.slot(a.probe).is_some(),
                })
                .collect(),
        };
        serde_json::to_writer_pretty(&mut *out, &doc).map_err(|e| e.to_string())?;
        return writeln!(out).map_err(|e| e.to_string());
    }
    writeln!(
        out,
        "{} anomalies{} ({} shown); * = trace retained",
        selected.len(),
        kind.map(|k| format!(" of kind {}", k.name()))
            .unwrap_or_default(),
        selected.len().min(limit)
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "{:<12} {:<20} {:>8} {:>10}  detail",
        "probe", "kind", "severity", "value"
    )
    .map_err(|e| e.to_string())?;
    for a in selected.iter().take(limit) {
        let retained = if index.slot(a.probe).is_some() {
            "*"
        } else {
            " "
        };
        writeln!(
            out,
            "{retained}{:<11} {:<20} {:>8} {:>10.3}  {}",
            a.probe.to_string(),
            a.kind.name(),
            a.severity,
            a.value,
            a.detail
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// spinctl trace
// ---------------------------------------------------------------------------

fn cmd_trace(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let args = ParsedArgs::parse(args, &["first"])?;
    args.ensure_known(&["dir"])?;
    let dir = args.dir();
    let index = load_index(&dir)?;
    let probe: ProbeId = if args.has("first") {
        index
            .traces
            .first()
            .map(|s| s.probe)
            .ok_or("no traces retained in this campaign")?
    } else {
        let raw = args
            .positional
            .first()
            .ok_or(format!("expected a probe id (or --first)\n\n{}", usage()))?;
        raw.parse()
            .map_err(|e: String| format!("invalid probe id {raw:?}: {e}"))?
    };
    let slot = index.slot(probe).ok_or_else(|| {
        format!(
            "probe {probe} has no retained trace (flagged probes with traces: \
             `spinctl anomalies` rows marked *)"
        )
    })?;
    let trace = read_flagged_trace(&dir, slot).map_err(|e| e.to_string())?;

    writeln!(out, "{}", render_timeline(&trace)).map_err(|e| e.to_string())?;

    let anomalies: Vec<_> = index
        .anomalies
        .iter()
        .filter(|a| a.probe == probe)
        .collect();
    writeln!(out, "anomalies on probe {probe}:").map_err(|e| e.to_string())?;
    for a in &anomalies {
        writeln!(
            out,
            "  {:<20} severity {:>4}  value {:>10.3}  {}",
            a.kind.name(),
            a.severity,
            a.value,
            a.detail
        )
        .map_err(|e| e.to_string())?;
    }

    // Re-run the §3.3 comparison on the stored observations: the spin
    // RTT estimate (packet-number sorted, as the paper's analysis does)
    // next to the stack's own samples from the qlog RTT updates.
    let observations: Vec<PacketObservation> = trace
        .spin_observations()
        .iter()
        .map(|&(time_us, pn, spin)| PacketObservation::qlog(time_us, pn, spin))
        .collect();
    let comparison = ReorderComparison::run(&observations);
    let spin = &comparison.samples_sorted_us;
    let stack = trace.rtt_samples_us();
    writeln!(out, "\nRTT samples (µs), spin estimator vs stack:").map_err(|e| e.to_string())?;
    writeln!(
        out,
        "  {:>4} {:>10} {:>10} {:>10}",
        "#", "spin", "stack", "delta"
    )
    .map_err(|e| e.to_string())?;
    for i in 0..spin.len().max(stack.len()) {
        let s = spin.get(i).copied();
        let k = stack.get(i).copied();
        let cell = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
        let delta = match (s, k) {
            (Some(s), Some(k)) => (s as i64 - k as i64).to_string(),
            _ => "-".to_string(),
        };
        writeln!(
            out,
            "  {:>4} {:>10} {:>10} {:>10}",
            i,
            cell(s),
            cell(k),
            delta
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// spinctl compare
// ---------------------------------------------------------------------------

/// Machine-readable benchmark report, as emitted by the bench harness
/// when the `BENCH_JSON` environment variable names a file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report schema version (currently 1).
    pub schema_version: u32,
    /// One record per benchmark that ran.
    pub results: Vec<BenchResult>,
}

/// One benchmark's timings inside a [`BenchReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchResult {
    /// Full benchmark name (`group/case`).
    pub name: String,
    /// Group half of the name (empty for ungrouped benchmarks).
    pub group: String,
    /// Case half of the name.
    pub case: String,
    /// Mean time per iteration.
    pub mean_ns: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
}

/// The one regression rule behind every gate: `b` regressed against
/// `a` when it is worse than the multiplicative band AND past the
/// absolute floor (so a 2 µs → 4 µs wobble on a tiny baseline never
/// trips a gate).
fn regressed(a: u64, b: u64, band: f64, floor: u64) -> bool {
    b as f64 > a as f64 * band && b >= a.saturating_add(floor)
}

fn cmd_compare(args: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let args = ParsedArgs::parse(args, &["bench"])?;
    args.ensure_known(&["p99-band", "mix-drift", "bench-band"])?;
    if args.positional.len() != 2 {
        return Err(format!(
            "compare needs exactly two runs (got {})\n\n{}",
            args.positional.len(),
            usage()
        ));
    }
    let a = PathBuf::from(&args.positional[0]);
    let b = PathBuf::from(&args.positional[1]);
    if args.has("bench") {
        let band: f64 = args.get_parsed("bench-band", DEFAULT_BENCH_BAND)?;
        compare_bench(&a, &b, band, out)
    } else {
        let band: f64 = args.get_parsed("p99-band", DEFAULT_BAND)?;
        let drift: f64 = args.get_parsed("mix-drift", DEFAULT_MIX_DRIFT)?;
        compare_runs(&a, &b, band, drift, out)
    }
}

fn compare_runs(
    a_dir: &Path,
    b_dir: &Path,
    band: f64,
    mix_drift: f64,
    out: &mut dyn Write,
) -> Result<i32, String> {
    let a = load_run(a_dir)?;
    let b = load_run(b_dir)?;
    let no_samples = |dir: &Path| format!("time series in {} has no samples", dir.display());
    let ap = a.series.last_point().ok_or_else(|| no_samples(a_dir))?;
    let bp = b.series.last_point().ok_or_else(|| no_samples(b_dir))?;

    let mut text = String::new();
    let mut regressions: Vec<String> = Vec::new();
    let _ = writeln!(
        text,
        "comparing {} (a) vs {} (b)",
        a.series.campaign_id, b.series.campaign_id
    );
    let side = |tag: &str, dir: &Path, p: &quicspin_telemetry::TimePoint| {
        format!(
            "  {tag}: {} — {} probes, {} records, err {:.1}%",
            dir.display(),
            p.probes,
            p.records,
            p.error_rate() * 100.0,
        )
    };
    let _ = writeln!(text, "{}", side("a", a_dir, ap));
    let _ = writeln!(text, "{}", side("b", b_dir, bp));
    if a.series.offered != b.series.offered {
        let _ = writeln!(
            text,
            "  note: population sizes differ ({} vs {} offered samples)",
            a.series.offered, b.series.offered
        );
    }

    let _ = writeln!(
        text,
        "\nvirtual latency (µs; p99 gate: > a×{band:.2} and ≥ a+{LATENCY_FLOOR_US}):"
    );
    let _ = writeln!(
        text,
        "  {:<18} {:>10} {:>10} {:>10}  verdict",
        "metric", "run-a", "run-b", "delta"
    );
    let quantiles: [(&str, u64, u64, bool); 4] = [
        (
            "handshake_p50_us",
            ap.handshake_p50_us,
            bp.handshake_p50_us,
            false,
        ),
        (
            "handshake_p99_us",
            ap.handshake_p99_us,
            bp.handshake_p99_us,
            true,
        ),
        ("total_p50_us", ap.total_p50_us, bp.total_p50_us, false),
        ("total_p99_us", ap.total_p99_us, bp.total_p99_us, true),
    ];
    for (name, av, bv, gated) in quantiles {
        let worse = gated && regressed(av, bv, band, LATENCY_FLOOR_US);
        if worse {
            regressions.push(name.to_string());
        }
        let verdict = if worse {
            "REGRESSED"
        } else if gated {
            "ok"
        } else {
            "(info)"
        };
        let _ = writeln!(
            text,
            "  {:<18} {:>10} {:>10} {:>+10}  {verdict}",
            name,
            av,
            bv,
            bv as i64 - av as i64
        );
    }

    let (ae, be) = (ap.error_rate(), bp.error_rate());
    let err_regressed = be > ae + ERROR_RATE_DRIFT;
    if err_regressed {
        regressions.push("error_rate".to_string());
    }
    let _ = writeln!(
        text,
        "\nerror rate: {:.2}% -> {:.2}% ({})",
        ae * 100.0,
        be * 100.0,
        if err_regressed { "REGRESSED" } else { "ok" }
    );

    let _ = writeln!(
        text,
        "\nclassification mix (drift gate: |Δshare| > {:.1}pp):",
        mix_drift * 100.0
    );
    let _ = writeln!(
        text,
        "  {:<18} {:>9} {:>9} {:>9}  verdict",
        "class", "run-a", "run-b", "drift"
    );
    let mut class_names: Vec<&str> = ap.mix.iter().map(|c| c.name.as_str()).collect();
    for c in &bp.mix {
        if !class_names.contains(&c.name.as_str()) {
            class_names.push(c.name.as_str());
        }
    }
    for name in class_names {
        let (sa, sb) = (ap.mix_share(name), bp.mix_share(name));
        let drift = sb - sa;
        let drifted = drift.abs() > mix_drift;
        if drifted {
            regressions.push(format!("mix:{name}"));
        }
        let _ = writeln!(
            text,
            "  {:<18} {:>8.1}% {:>8.1}% {:>+7.1}pp  {}",
            name,
            sa * 100.0,
            sb * 100.0,
            drift * 100.0,
            if drifted { "DRIFTED" } else { "ok" }
        );
    }

    let _ = writeln!(
        text,
        "\nwall-clock stage p99 (informational — varies with host load):"
    );
    for sa in &a.manifest.stages {
        if sa.count == 0 {
            continue;
        }
        if let Some(sb) = b.manifest.stage(&sa.stage) {
            let _ = writeln!(
                text,
                "  {:<18} {:>12} ns (n={}) {:>12} ns (n={})",
                sa.stage, sa.p99_ns, sa.count, sb.p99_ns, sb.count
            );
        }
    }

    verdict(text, &regressions, None, out)
}

/// The closing step of every comparison: appends `no regressions
/// detected`, or the regressed names followed by `failure` (a further
/// failure line), writes `text` to `out`, and returns the exit code (0
/// clean, [`EXIT_REGRESSIONS`] otherwise).
fn verdict(
    mut text: String,
    regressions: &[String],
    failure: Option<String>,
    out: &mut dyn Write,
) -> Result<i32, String> {
    let code = if regressions.is_empty() && failure.is_none() {
        let _ = writeln!(text, "\nno regressions detected");
        0
    } else {
        let _ = writeln!(text);
        if !regressions.is_empty() {
            let _ = writeln!(
                text,
                "{} regression(s) detected: {}",
                regressions.len(),
                regressions.join(", ")
            );
        }
        if let Some(line) = failure {
            let _ = writeln!(text, "{line}");
        }
        EXIT_REGRESSIONS
    };
    write!(out, "{text}").map_err(|e| e.to_string())?;
    Ok(code)
}

fn load_bench(path: &Path) -> Result<BenchReport, String> {
    read_json(path, "bench report").map_err(|e| e.to_string())
}

fn compare_bench(
    a_path: &Path,
    b_path: &Path,
    band: f64,
    out: &mut dyn Write,
) -> Result<i32, String> {
    let a = load_bench(a_path)?;
    let b = load_bench(b_path)?;
    let mut text = String::new();
    let mut regressions: Vec<String> = Vec::new();
    // A baseline row the candidate lacks fails the gate too: a bench
    // filter that skips it, or a renamed bench, would otherwise pass
    // unchecked. Rows only in the candidate are new and informational.
    let mut missing: Vec<String> = Vec::new();
    let _ = writeln!(
        text,
        "comparing bench reports (mean gate: > a×{band:.2} and ≥ a+{BENCH_FLOOR_NS}):"
    );
    let _ = writeln!(
        text,
        "  {:<44} {:>12} {:>12}  verdict",
        "benchmark", "a mean ns", "b mean ns"
    );
    for ra in &a.results {
        let Some(rb) = b.results.iter().find(|r| r.name == ra.name) else {
            missing.push(ra.name.clone());
            let _ = writeln!(
                text,
                "  {:<44} {:>12} {:>12}  MISSING",
                ra.name, ra.mean_ns, "-"
            );
            continue;
        };
        let worse = regressed(ra.mean_ns, rb.mean_ns, band, BENCH_FLOOR_NS);
        if worse {
            regressions.push(ra.name.clone());
        }
        let _ = writeln!(
            text,
            "  {:<44} {:>12} {:>12}  {}",
            ra.name,
            ra.mean_ns,
            rb.mean_ns,
            if worse { "REGRESSED" } else { "ok" }
        );
    }
    for rb in &b.results {
        if !a.results.iter().any(|r| r.name == rb.name) {
            let _ = writeln!(text, "  {:<44} only in {}", rb.name, b_path.display());
        }
    }
    let missing_line = (!missing.is_empty()).then(|| {
        format!(
            "{} baseline row(s) missing from {}: {}",
            missing.len(),
            b_path.display(),
            missing.join(", ")
        )
    });
    verdict(text, &regressions, missing_line, out)
}

// ---------------------------------------------------------------------------
// spinctl profile
// ---------------------------------------------------------------------------

fn cmd_profile(args: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let args = ParsedArgs::parse(args, &["diff"])?;
    args.ensure_known(&["top", "count-band"])?;
    if args.has("diff") {
        if args.positional.len() != 2 {
            return Err(format!(
                "profile --diff needs exactly two runs (got {})\n\n{}",
                args.positional.len(),
                usage()
            ));
        }
        let band: f64 = args.get_parsed("count-band", DEFAULT_BAND)?;
        let a = PathBuf::from(&args.positional[0]);
        let b = PathBuf::from(&args.positional[1]);
        profile_diff(&a, &b, band, out)
    } else {
        if args.positional.len() != 1 {
            return Err(format!(
                "profile needs one campaign directory (or --diff with two)\n\n{}",
                usage()
            ));
        }
        let top: usize = args.get_parsed("top", 10)?;
        let dir = PathBuf::from(&args.positional[0]);
        profile_render(&dir, top, out).map(|()| 0)
    }
}

fn load_profile(dir: &Path) -> Result<ProfileDoc, String> {
    read_profile(dir).map_err(|e| format!("{e} (run `spinctl run --profile --dir ...` first?)"))
}

fn profile_render(dir: &Path, top: usize, out: &mut dyn Write) -> Result<(), String> {
    let doc = load_profile(dir)?;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "profile for {} (schema v{})",
        dir.display(),
        doc.schema_version
    );

    let _ = writeln!(
        text,
        "\nscope tree (deterministic counts; identical for any --threads):"
    );
    let _ = writeln!(text, "  {:<36} {:>12}", "scope", "enters");
    for scope in ScopeId::ALL {
        let Some(row) = doc.row(scope.path()) else {
            continue;
        };
        let label = format!("{}{}", "  ".repeat(scope.depth()), scope.name());
        let _ = writeln!(text, "  {:<36} {:>12}", label, row.enters);
    }

    // The wall-clock weights live only in profile.folded (profile.json
    // stays deterministic); an older or partial run without it still
    // gets a ranking, just by enter counts.
    match read_profile_folded(dir) {
        Ok(mut stacks) => {
            let total: u64 = stacks.iter().map(|s| s.weight).sum::<u64>().max(1);
            stacks.sort_by(|x, y| {
                y.weight
                    .cmp(&x.weight)
                    .then_with(|| x.frames.cmp(&y.frames))
            });
            let _ = writeln!(
                text,
                "\ntop {} self-time (wall clock, from profile.folded):",
                top.min(stacks.len())
            );
            for (i, s) in stacks.iter().take(top).enumerate() {
                let _ = writeln!(
                    text,
                    "  {:>2}. {:<36} {:>12} ns {:>5.1}%",
                    i + 1,
                    s.frames.join("/"),
                    s.weight,
                    100.0 * s.weight as f64 / total as f64,
                );
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let mut rows: Vec<_> = doc.scopes.iter().filter(|r| r.enters > 0).collect();
            rows.sort_by(|x, y| y.enters.cmp(&x.enters).then_with(|| x.path.cmp(&y.path)));
            let _ = writeln!(
                text,
                "\nno profile.folded next to profile.json; top {} scopes by enters:",
                top.min(rows.len())
            );
            for (i, r) in rows.iter().take(top).enumerate() {
                let _ = writeln!(text, "  {:>2}. {:<36} {:>12}", i + 1, r.path, r.enters);
            }
        }
        Err(e) => return Err(e.to_string()),
    }
    write!(out, "{text}").map_err(|e| e.to_string())
}

fn profile_diff(a_dir: &Path, b_dir: &Path, band: f64, out: &mut dyn Write) -> Result<i32, String> {
    let a = load_profile(a_dir)?;
    let b = load_profile(b_dir)?;
    let mut text = String::new();
    let mut regressions: Vec<String> = Vec::new();
    let _ = writeln!(
        text,
        "comparing deterministic profiles {} (a) vs {} (b)",
        a_dir.display(),
        b_dir.display()
    );
    let _ = writeln!(
        text,
        "count gate: > a×{band:.2} and ≥ a+{PROFILE_COUNT_FLOOR}"
    );
    let _ = writeln!(
        text,
        "  {:<36} {:>12} {:>12} {:>12}  verdict",
        "scope", "a enters", "b enters", "delta"
    );
    let mut paths: Vec<&str> = a.scopes.iter().map(|r| r.path.as_str()).collect();
    for r in &b.scopes {
        if !paths.contains(&r.path.as_str()) {
            paths.push(r.path.as_str());
        }
    }
    for path in paths {
        let enters = |doc: &ProfileDoc| doc.row(path).map_or(0, |r| r.enters);
        let (ae, be) = (enters(&a), enters(&b));
        let verdict = if regressed(ae, be, band, PROFILE_COUNT_FLOOR) {
            regressions.push(format!("{path}:enters"));
            "REGRESSED (enters)"
        } else {
            "ok"
        };
        let _ = writeln!(
            text,
            "  {:<36} {:>12} {:>12} {:>+12}  {verdict}",
            path,
            ae,
            be,
            be as i64 - ae as i64,
        );
    }
    verdict(text, &regressions, None, out)
}

// ---------------------------------------------------------------------------
// spinctl trend
// ---------------------------------------------------------------------------

fn cmd_trend(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let args = ParsedArgs::parse(args, &[])?;
    args.ensure_known(&[])?;
    if args.positional.is_empty() {
        return Err(format!(
            "trend needs at least one campaign directory\n\n{}",
            usage()
        ));
    }
    // (week, campaign id, pre-rendered row) — sorted by week so the
    // table reads as the paper's longitudinal sweep.
    let mut rows: Vec<(u32, String, String)> = Vec::new();
    for raw in &args.positional {
        let dir = PathBuf::from(raw);
        let run = load_run(&dir)?;
        let point = run
            .series
            .last_point()
            .ok_or_else(|| format!("time series in {} has no samples", dir.display()))?;
        let week: u32 = run
            .manifest
            .config
            .iter()
            .find(|e| e.key == "week")
            .and_then(|e| e.value.parse().ok())
            .unwrap_or(0);
        // Pre-tap run directories lack observer.json; show "-" for the
        // observer column instead of failing the whole table.
        let observed = if dir.join(OBSERVER_FILE_NAME).exists() {
            let doc = read_observer(&dir).map_err(|e| e.to_string())?;
            doc.summary.measurable.to_string()
        } else {
            "-".to_string()
        };
        let row = format!(
            "  {:>4} {:>8} {:>7.1}% {:>7.1}% {:>7.1}% {:>10} {:>10} {:>8}  {}",
            week,
            point.probes,
            point.error_rate() * 100.0,
            point.mix_share("spinning") * 100.0,
            point.mix_share("greased") * 100.0,
            point.handshake_p99_us,
            point.total_p99_us,
            observed,
            run.series.campaign_id,
        );
        rows.push((week, run.series.campaign_id.clone(), row));
    }
    rows.sort_by(|x, y| x.0.cmp(&y.0).then_with(|| x.1.cmp(&y.1)));
    writeln!(out, "campaign trend ({} runs):", rows.len()).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "  {:>4} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8}  campaign",
        "week", "probes", "err", "spin", "grease", "hs_p99", "tot_p99", "obs"
    )
    .map_err(|e| e.to_string())?;
    for (_, _, row) in &rows {
        writeln!(out, "{row}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_code(args: &[&str]) -> Result<(i32, String), String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let code = run(&args, &mut out)?;
        Ok((code, String::from_utf8(out).expect("utf8 output")))
    }

    fn run_str(args: &[&str]) -> Result<String, String> {
        run_code(args).map(|(code, out)| {
            assert_eq!(code, 0, "unexpected exit code {code}; out: {out}");
            out
        })
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("quicspin-spinctl-{tag}-{}", std::process::id()))
    }

    #[test]
    fn unknown_subcommand_and_flags_are_usage_errors() {
        assert!(run_str(&["frobnicate"]).unwrap_err().contains("USAGE"));
        assert!(run_str(&[]).unwrap_err().contains("USAGE"));
        assert!(run_str(&["summary", "--bogus", "x"])
            .unwrap_err()
            .contains("--bogus"));
        assert!(run_str(&["anomalies", "--kind", "nope"])
            .unwrap_err()
            .contains("rtt-divergence"));
        assert!(run_str(&["compare", "just-one"])
            .unwrap_err()
            .contains("exactly two"));
        assert!(run_str(&["trend"]).unwrap_err().contains("at least one"));
        assert!(run_str(&["run", "--loss", "1.5"])
            .unwrap_err()
            .contains("--loss"));
        assert!(run_str(&["run", "--tap", "1.5"])
            .unwrap_err()
            .contains("--tap"));
        assert!(run_str(&["run", "--tap", "nope"])
            .unwrap_err()
            .contains("--tap"));
    }

    #[test]
    fn help_prints_usage() {
        let help = run_str(&["help"]).unwrap();
        assert!(help.contains("spinctl run"));
        assert!(help.contains("spinctl observe"));
        assert!(help.contains("spinctl compare"));
        assert!(help.contains("spinctl trend"));
        assert!(help.contains("observer-divergence"));
    }

    #[test]
    fn usage_states_each_default_from_its_constant() {
        let help = usage();
        let words: Vec<&str> = help.split_whitespace().collect();
        // Every number the help text gives as a default, in order.
        let stated: Vec<f64> = words
            .windows(2)
            .filter(|w| w[0].ends_with("default"))
            .filter_map(|w| w[1].trim_end_matches([')', ';', ',', '.']).parse().ok())
            .collect();
        assert_eq!(
            stated,
            [
                DEFAULT_TAP,
                DEFAULT_BAND,
                DEFAULT_MIX_DRIFT,
                DEFAULT_BENCH_BAND,
                DEFAULT_BAND
            ]
        );
    }

    #[test]
    fn missing_artifacts_fail_with_one_line_diagnostics() {
        let missing = "/nonexistent/quicspin";
        for cmd in [
            vec!["summary", "--dir", missing],
            vec!["anomalies", "--dir", missing],
            vec!["trace", "--first", "--dir", missing],
            vec!["compare", missing, missing],
            vec!["trend", missing],
            vec!["observe", "--dir", missing],
            vec!["profile", missing],
            vec!["profile", "--diff", missing, missing],
        ] {
            let err = run_str(&cmd).unwrap_err();
            assert!(
                err.contains("anomalies.json")
                    || err.contains("metrics.json")
                    || err.contains("observer.json")
                    || err.contains("profile.json"),
                "{cmd:?}: {err}"
            );
            assert!(
                !err.trim().contains('\n'),
                "{cmd:?} diagnostic spans lines: {err}"
            );
        }
    }

    #[test]
    fn truncated_artifacts_fail_with_one_line_diagnostics() {
        let dir = temp_dir("truncated");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dir_s = dir.to_str().unwrap();
        // A truncated JSON document: parseable prefix, then EOF.
        std::fs::write(dir.join("anomalies.json"), "{\"schema_version\": 1,").unwrap();
        let err = run_str(&["summary", "--dir", dir_s]).unwrap_err();
        assert!(err.contains("anomalies.json"), "err: {err}");
        assert!(!err.trim().contains('\n'), "err spans lines: {err}");

        std::fs::write(dir.join("metrics.json"), "{\"schema_version\":").unwrap();
        std::fs::write(dir.join("timeseries.json"), "[1, 2").unwrap();
        let err = run_str(&["compare", dir_s, dir_s]).unwrap_err();
        assert!(err.contains("metrics.json"), "err: {err}");
        assert!(!err.trim().contains('\n'), "err spans lines: {err}");

        let err = run_str(&["trend", dir_s]).unwrap_err();
        assert!(err.contains("metrics.json"), "err: {err}");

        let err = run_str(&["compare", "--bench", dir_s, dir_s]).unwrap_err();
        assert!(err.contains("bench report"), "err: {err}");

        std::fs::write(dir.join("observer.json"), "{\"schema_version\":").unwrap();
        let err = run_str(&["observe", "--dir", dir_s]).unwrap_err();
        assert!(err.contains("observer.json"), "err: {err}");
        assert!(!err.trim().contains('\n'), "err spans lines: {err}");

        std::fs::write(dir.join("profile.json"), "{\"schema_version\":").unwrap();
        let err = run_str(&["profile", dir_s]).unwrap_err();
        assert!(err.contains("profile.json"), "err: {err}");
        assert!(!err.trim().contains('\n'), "err spans lines: {err}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_cli_cycle_on_a_tiny_campaign() {
        let dir = temp_dir("cycle");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap();

        // Seed 9 yields a population where some spinning flows run long
        // enough for the on-path observer to take RTT samples.
        let ran = run_str(&[
            "run",
            "--dir",
            dir_s,
            "--domains",
            "220",
            "--seed",
            "9",
            "--sample-every",
            "16",
        ])
        .unwrap();
        assert!(ran.contains("campaign week0-V4-seed"), "out: {ran}");
        assert!(ran.contains("anomalies.json"), "out: {ran}");
        assert!(ran.contains("timeseries.json"), "out: {ran}");
        assert!(ran.contains("trace.json"), "out: {ran}");
        assert!(ran.contains("observer.json"), "out: {ran}");
        assert!(dir.join("metrics.json").is_file());
        assert!(dir.join("traces.bin").is_file());
        assert!(dir.join("timeseries.json").is_file());
        assert!(dir.join("trace.json").is_file());
        assert!(dir.join("observer.json").is_file());

        let summary = run_str(&["summary", "--dir", dir_s]).unwrap();
        assert!(summary.contains("anomalies by kind"), "out: {summary}");
        assert!(summary.contains("retention:"), "out: {summary}");
        assert!(summary.contains("campaign run manifest"), "out: {summary}");

        let observed = run_str(&["observe", "--dir", dir_s, "--limit", "5"]).unwrap();
        assert!(
            observed.contains("tap at 0.500 of the client->server path"),
            "out: {observed}"
        );
        assert!(
            observed.contains("per-flow observer RTT"),
            "out: {observed}"
        );
        assert!(observed.contains("measurable"), "out: {observed}");
        // The per-flow table reports observer RTT means next to the
        // client's own; a clean default run yields measurable flows.
        let doc = quicspin_scanner::read_observer(&dir).unwrap();
        assert!(
            doc.summary.measurable > 0,
            "no measurable flows: {observed}"
        );
        assert!(doc.summary.observer_mean_us.is_some());

        let listed = run_str(&["anomalies", "--dir", dir_s, "--limit", "5"]).unwrap();
        assert!(listed.contains("severity"), "out: {listed}");

        let traced = run_str(&["trace", "--first", "--dir", dir_s]).unwrap();
        assert!(traced.contains("spin observations"), "out: {traced}");
        assert!(traced.contains("RTT samples"), "out: {traced}");
        assert!(traced.contains("anomalies on probe"), "out: {traced}");

        // The listed probe ids round-trip through the positional form.
        let index = read_anomaly_index(&dir).unwrap();
        let probe = index.traces.first().unwrap().probe;
        let by_id = run_str(&["trace", &probe.to_string(), "--dir", dir_s]).unwrap();
        assert_eq!(by_id, traced);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_run_artifacts_are_thread_count_invariant() {
        let base = temp_dir("streamed");
        let _ = std::fs::remove_dir_all(&base);
        let dir_a = base.join("t1");
        let dir_b = base.join("t4");
        for (dir, threads) in [(&dir_a, "1"), (&dir_b, "4")] {
            run_str(&[
                "run",
                "--dir",
                dir.to_str().unwrap(),
                "--domains",
                "200",
                "--seed",
                "9",
                "--threads",
                threads,
                "--record-budget",
                "16384",
                "--profile",
            ])
            .unwrap();
        }
        let read = |dir: &Path, name: &str| std::fs::read(dir.join(name)).unwrap();
        for artifact in [
            "timeseries.json",
            "anomalies.json",
            "traces.bin",
            "trace.json",
            "observer.json",
            "profile.json",
        ] {
            assert_eq!(
                read(&dir_a, artifact),
                read(&dir_b, artifact),
                "{artifact} must be byte-identical across worker counts"
            );
        }
        let view = |dir: &Path| {
            let m = read_run_manifest(dir).unwrap().deterministic_view();
            serde_json::to_string_pretty(&m).unwrap()
        };
        assert_eq!(view(&dir_a), view(&dir_b));
        // The wall-clock half of the profile rides in profile.folded —
        // present, parseable, but not byte-compared across thread counts.
        assert!(dir_a.join("profile.folded").is_file());
        assert!(!read_profile_folded(&dir_a).unwrap().is_empty());

        let summary = run_str(&["summary", "--dir", dir_a.to_str().unwrap()]).unwrap();
        assert!(summary.contains("resource gauges"), "out: {summary}");
        assert!(summary.contains("peak_record_bytes"), "out: {summary}");
        assert!(summary.contains("event_queue_depth"), "out: {summary}");
        assert!(summary.contains("record_budget_bytes"), "out: {summary}");

        // Disabling the tap skips observer.json without disturbing the
        // rest of the artifact set.
        let dir_off = base.join("off");
        run_str(&[
            "run",
            "--dir",
            dir_off.to_str().unwrap(),
            "--domains",
            "200",
            "--seed",
            "9",
            "--tap",
            "off",
            "--record-budget",
            "16384",
        ])
        .unwrap();
        assert!(!dir_off.join("observer.json").exists());
        assert_eq!(
            read(&dir_a, "timeseries.json"),
            read(&dir_off, "timeseries.json"),
            "the tap must be passive: timeseries.json differs with --tap off"
        );

        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn compare_is_clean_for_identical_seeds_and_flags_inflated_loss() {
        let base = temp_dir("compare");
        let _ = std::fs::remove_dir_all(&base);
        let dir_a = base.join("a");
        let dir_b = base.join("b");
        let dir_c = base.join("c");
        let sweep = |dir: &Path, loss: Option<&str>| {
            let dir_s = dir.to_str().unwrap().to_string();
            let mut args: Vec<String> =
                ["run", "--dir", &dir_s, "--domains", "200", "--seed", "11"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
            if let Some(p) = loss {
                args.push("--loss".to_string());
                args.push(p.to_string());
            }
            let args: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
            run_str(&args).unwrap();
        };
        sweep(&dir_a, None);
        sweep(&dir_b, None);
        sweep(&dir_c, Some("0.30"));

        let (code, report) =
            run_code(&["compare", dir_a.to_str().unwrap(), dir_b.to_str().unwrap()]).unwrap();
        assert_eq!(code, 0, "identical runs must compare clean: {report}");
        assert!(report.contains("no regressions detected"), "out: {report}");
        // Every wall-clock stage percentile carries both sides' sample size.
        let stage_lines: Vec<&str> = report
            .lines()
            .skip_while(|l| !l.starts_with("wall-clock stage p99"))
            .skip(1)
            .take_while(|l| !l.is_empty())
            .collect();
        assert!(!stage_lines.is_empty(), "out: {report}");
        assert!(
            stage_lines.iter().all(|l| l.matches(" (n=").count() == 2),
            "out: {report}"
        );

        let (code, report) =
            run_code(&["compare", dir_a.to_str().unwrap(), dir_c.to_str().unwrap()]).unwrap();
        assert_eq!(
            code, EXIT_REGRESSIONS,
            "30% loss must regress vs baseline: {report}"
        );
        assert!(report.contains("regression(s) detected"), "out: {report}");

        let trend = run_str(&["trend", dir_a.to_str().unwrap(), dir_c.to_str().unwrap()]).unwrap();
        assert!(trend.contains("campaign trend (2 runs)"), "out: {trend}");
        assert!(trend.contains("week0-V4-seed"), "out: {trend}");

        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn profile_cycle_renders_tree_and_self_diff_is_clean() {
        let dir = temp_dir("profile-cycle");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap();
        let ran = run_str(&[
            "run",
            "--dir",
            dir_s,
            "--domains",
            "220",
            "--seed",
            "9",
            "--profile",
        ])
        .unwrap();
        assert!(ran.contains("profile.json"), "out: {ran}");
        assert!(ran.contains("profile.folded"), "out: {ran}");
        assert!(ran.contains("speedscope"), "out: {ran}");

        let rendered = run_str(&["profile", dir_s, "--top", "5"]).unwrap();
        assert!(rendered.contains("scope tree"), "out: {rendered}");
        assert!(rendered.contains("probe"), "out: {rendered}");
        assert!(rendered.contains("queue_push"), "out: {rendered}");
        assert!(rendered.contains("top 5 self-time"), "out: {rendered}");

        let (code, diff) = run_code(&["profile", "--diff", dir_s, dir_s]).unwrap();
        assert_eq!(code, 0, "self-diff must be clean: {diff}");
        assert!(diff.contains("no regressions detected"), "out: {diff}");

        // Without profile.folded the ranking falls back to enter counts
        // instead of failing.
        std::fs::remove_file(dir.join("profile.folded")).unwrap();
        let rendered = run_str(&["profile", dir_s]).unwrap();
        assert!(rendered.contains("by enters"), "out: {rendered}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_diff_flags_inflated_counts() {
        use quicspin_telemetry::{ProfileScopeRow, PROFILE_SCHEMA_VERSION};
        let base = temp_dir("profile-diff");
        let _ = std::fs::remove_dir_all(&base);
        let doc = |enters: u64| ProfileDoc {
            schema_version: PROFILE_SCHEMA_VERSION,
            scopes: vec![ProfileScopeRow {
                path: "probe/lab/packet_encode".to_string(),
                enters,
            }],
        };
        let dir_a = base.join("a");
        let dir_b = base.join("b");
        write_profile(&dir_a, &doc(10_000)).unwrap();
        write_profile(&dir_b, &doc(40_000)).unwrap();
        let a = dir_a.to_str().unwrap();
        let b = dir_b.to_str().unwrap();
        let (code, out) = run_code(&["profile", "--diff", a, b]).unwrap();
        assert_eq!(code, EXIT_REGRESSIONS, "4x enters must regress: {out}");
        assert!(out.contains("packet_encode"), "out: {out}");
        assert!(out.contains("enters"), "out: {out}");
        // Within the band (and below the floor growth) stays clean.
        let (code, out) = run_code(&["profile", "--diff", b, a]).unwrap();
        assert_eq!(code, 0, "shrinking counts are not a regression: {out}");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn run_removes_optional_artifacts_it_does_not_write() {
        let dir = temp_dir("stale-artifacts");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap();
        let optional = [
            OBSERVER_FILE_NAME,
            PROFILE_FILE_NAME,
            PROFILE_FOLDED_FILE_NAME,
        ];
        run_str(&["run", "--dir", dir_s, "--domains", "40", "--profile"]).unwrap();
        for artifact in optional {
            assert!(dir.join(artifact).is_file(), "{artifact} not written");
        }
        run_str(&["run", "--dir", dir_s, "--domains", "40", "--tap", "off"]).unwrap();
        for artifact in optional {
            assert!(!dir.join(artifact).exists(), "stale {artifact} kept");
        }
        // A removal that fails for any reason but absence names the
        // artifact and the directory.
        std::fs::create_dir(dir.join(OBSERVER_FILE_NAME)).unwrap();
        let err = run_str(&["run", "--dir", dir_s, "--domains", "40", "--tap", "off"]).unwrap_err();
        assert!(
            err.starts_with(&format!(
                "cannot remove stale {OBSERVER_FILE_NAME} in {dir_s}: "
            )),
            "err: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_rejects_zero_domains() {
        let dir = temp_dir("zero-domains");
        let err = run_str(&["run", "--dir", dir.to_str().unwrap(), "--domains", "0"]).unwrap_err();
        assert_eq!(err, "--domains must be at least 1");
        assert!(!dir.exists());
    }

    #[test]
    fn summary_and_trend_tolerate_runs_without_observer_json() {
        let dir = temp_dir("no-observer");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap();
        run_str(&["run", "--dir", dir_s, "--domains", "200", "--seed", "9"]).unwrap();

        // With the tap's artifact present, both views show the observer.
        let summary = run_str(&["summary", "--dir", dir_s]).unwrap();
        assert!(summary.contains("on-path observer"), "out: {summary}");
        let trend = run_str(&["trend", dir_s]).unwrap();
        let obs_cell = trend.lines().last().unwrap().split_whitespace().nth(7);
        assert_ne!(obs_cell, Some("-"), "out: {trend}");

        // A pre-tap run directory simply lacks observer.json: the views
        // must skip the observer parts, not fail.
        std::fs::remove_file(dir.join("observer.json")).unwrap();
        let summary = run_str(&["summary", "--dir", dir_s]).unwrap();
        assert!(!summary.contains("on-path observer"), "out: {summary}");
        assert!(summary.contains("campaign run manifest"), "out: {summary}");
        let trend = run_str(&["trend", dir_s]).unwrap();
        let obs_cell = trend.lines().last().unwrap().split_whitespace().nth(7);
        assert_eq!(obs_cell, Some("-"), "out: {trend}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compare_bench_flags_inflated_means() {
        let base = temp_dir("bench-compare");
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let report = |mean: u64| BenchReport {
            schema_version: 1,
            results: vec![BenchResult {
                name: "scanner/probe".to_string(),
                group: "scanner".to_string(),
                case: "probe".to_string(),
                mean_ns: mean,
                min_ns: mean / 2,
                max_ns: mean * 2,
            }],
        };
        let a_path = base.join("a.json");
        let b_path = base.join("b.json");
        std::fs::write(
            &a_path,
            serde_json::to_string_pretty(&report(10_000)).unwrap(),
        )
        .unwrap();
        std::fs::write(
            &b_path,
            serde_json::to_string_pretty(&report(40_000)).unwrap(),
        )
        .unwrap();

        let a = a_path.to_str().unwrap();
        let b = b_path.to_str().unwrap();
        let (code, out) = run_code(&["compare", "--bench", a, a]).unwrap();
        assert_eq!(code, 0, "report vs itself: {out}");
        assert!(out.contains("no regressions detected"), "out: {out}");

        let (code, out) = run_code(&["compare", "--bench", a, b]).unwrap();
        assert_eq!(code, EXIT_REGRESSIONS, "4× mean must regress: {out}");
        assert!(out.contains("scanner/probe"), "out: {out}");

        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn compare_bench_fails_on_a_missing_baseline_row_only() {
        let base = temp_dir("bench-missing");
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let report = |names: &[&str]| BenchReport {
            schema_version: 1,
            results: names
                .iter()
                .map(|name| BenchResult {
                    name: name.to_string(),
                    group: "layer".to_string(),
                    case: name.to_string(),
                    mean_ns: 10_000,
                    min_ns: 5_000,
                    max_ns: 20_000,
                })
                .collect(),
        };
        let write = |file: &str, names: &[&str]| {
            let path = base.join(file);
            std::fs::write(&path, serde_json::to_string_pretty(&report(names)).unwrap()).unwrap();
            path.to_str().unwrap().to_string()
        };
        let both = write("both.json", &["layer/a", "layer/b"]);
        let only_a = write("only_a.json", &["layer/a"]);
        let extra = write("extra.json", &["layer/a", "layer/b", "layer/new"]);

        // The candidate lacks a baseline row: the gate fails on it.
        let (code, out) = run_code(&["compare", "--bench", &both, &only_a]).unwrap();
        assert_eq!(code, EXIT_REGRESSIONS, "missing row must fail: {out}");
        assert!(out.contains("MISSING"), "out: {out}");
        assert!(
            out.contains("1 baseline row(s) missing from") && out.ends_with("layer/b\n"),
            "out: {out}"
        );
        assert!(!out.contains("no regressions detected"), "out: {out}");

        // A row only in the candidate is new, not a failure.
        let (code, out) = run_code(&["compare", "--bench", &both, &extra]).unwrap();
        assert_eq!(code, 0, "extra candidate row is informational: {out}");
        assert!(out.contains("layer/new"), "out: {out}");
        assert!(out.contains("no regressions detected"), "out: {out}");

        let _ = std::fs::remove_dir_all(&base);
    }

    /// A small 2-cell scenario for the matrix tests: loss sweep, tap,
    /// profiler on, so every artifact kind is exercised.
    const MATRIX_SCENARIO: &str = r#"
[scenario]
name = "smoke"
description = "matrix test grid"

[population]
seed = 9
toplist_domains = 12
zone_domains = 78

[campaign]
seed = 9
record_budget_bytes = 16384
sample_every = 16
profile = true

[sweep]
loss = [0.0, 0.05]
vantage = [0.5]
"#;

    #[test]
    fn matrix_reports_are_thread_invariant_and_tolerate_missing_artifacts() {
        let base = temp_dir("matrix");
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let scenario = base.join("smoke.toml");
        std::fs::write(&scenario, MATRIX_SCENARIO).unwrap();
        let scenario_s = scenario.to_str().unwrap();

        let out_a = base.join("t1");
        let out_b = base.join("t4");
        for (dir, threads) in [(&out_a, "1"), (&out_b, "4")] {
            let ran = run_str(&[
                "matrix",
                scenario_s,
                "--out",
                dir.to_str().unwrap(),
                "--threads",
                threads,
            ])
            .unwrap();
            assert!(ran.contains("scenario smoke: 2 cells"), "out: {ran}");
            assert!(ran.contains("report.md"), "out: {ran}");
        }
        let read = |dir: &Path, name: &str| std::fs::read(dir.join(name)).unwrap();
        for artifact in [
            report::REPORT_MD_FILE_NAME,
            report::REPORT_JSON_FILE_NAME,
            report::MATRIX_FILE_NAME,
        ] {
            assert_eq!(
                read(&out_a, artifact),
                read(&out_b, artifact),
                "{artifact} must be byte-identical across --threads"
            );
        }

        // The report renders every artifact kind for cells that have
        // them: metrics (provenance), timeseries (grid), anomalies,
        // observer, profile, plus the per-cell links.
        let md = String::from_utf8(read(&out_a, report::REPORT_MD_FILE_NAME)).unwrap();
        for section in [
            "## Grid",
            "## Classification mix",
            "## Anomalies",
            "## Observer",
            "## Profile",
            "## Axis: loss",
            "## Provenance",
            "## Artifacts",
        ] {
            assert!(md.contains(section), "missing {section}:\n{md}");
        }
        assert!(md.contains("scenario_cell"), "no provenance echo:\n{md}");
        assert!(md.contains("trace.json"), "no perfetto link:\n{md}");
        assert!(md.contains("profile.folded"), "no flamegraph link:\n{md}");

        // The cell id lands in metrics.json as run provenance, and
        // summary (printing all config entries) displays it.
        let cell_dir = out_a.join("cells").join("loss0-vantage500000");
        let manifest = read_run_manifest(&cell_dir).unwrap();
        assert!(
            manifest
                .config
                .iter()
                .any(|e| e.key == "scenario_cell" && e.value == "loss0-vantage500000"),
            "scenario_cell missing from manifest config: {:?}",
            manifest.config
        );
        let summary = run_str(&["summary", "--dir", cell_dir.to_str().unwrap()]).unwrap();
        assert!(summary.contains("scenario_cell"), "out: {summary}");
        assert!(summary.contains("loss0-vantage500000"), "out: {summary}");

        // Missing optional artifacts: one regression check per kind.
        // Deleting observer.json, profile.json, or traces.bin from a
        // cell must leave report/summary/trend working, rendering "-"
        // (or skipping the section) instead of erroring.
        let cell = |id: &str| out_a.join("cells").join(id);
        std::fs::remove_file(cell("loss0-vantage500000").join("observer.json")).unwrap();
        std::fs::remove_file(cell("loss50000-vantage500000").join("profile.json")).unwrap();
        std::fs::remove_file(cell("loss50000-vantage500000").join("traces.bin")).unwrap();
        let regenerated = run_str(&["report", "--dir", out_a.to_str().unwrap()]).unwrap();
        assert!(regenerated.contains("report.md"), "out: {regenerated}");
        let md = String::from_utf8(read(&out_a, report::REPORT_MD_FILE_NAME)).unwrap();
        assert!(
            md.contains("| `loss0-vantage500000` | - | - | - | - | - |"),
            "missing observer.json must render a dash row:\n{md}"
        );
        assert!(
            md.lines()
                .any(|l| l == "| `loss50000-vantage500000` | - | - |"),
            "missing profile.json must render a dash row:\n{md}"
        );
        let trace_links = md.lines().filter(|l| l.contains("[traces.bin]")).count();
        assert_eq!(
            trace_links, 1,
            "missing traces.bin must drop to a dash link:\n{md}"
        );
        for id in ["loss0-vantage500000", "loss50000-vantage500000"] {
            let dir_s = cell(id).into_os_string().into_string().unwrap();
            let summary = run_str(&["summary", "--dir", &dir_s]).unwrap();
            assert!(summary.contains("campaign run manifest"), "out: {summary}");
            let trend = run_str(&["trend", &dir_s]).unwrap();
            assert!(trend.contains("campaign trend (1 runs)"), "out: {trend}");
        }

        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn report_dir_rebuilds_the_report_matrix_folded_in_memory() {
        let base = temp_dir("matrix-fold");
        let _ = std::fs::remove_dir_all(&base);
        // The baseline cell is tapped and profiled, the other neither, so
        // every optional artifact is present in one cell and absent in
        // the other.
        let mut matrix = parse_scenario(MATRIX_SCENARIO).unwrap();
        matrix.cells[1].config.tap = None;
        matrix.cells[1].profile = false;
        let mut reports = Vec::new();
        for threads in [1, 4] {
            let out_dir = base.join(format!("t{threads}"));
            run_matrix(&matrix, &out_dir, Some(threads), &mut Vec::new()).unwrap();
            let cell = |i: usize| out_dir.join("cells").join(&matrix.cells[i].id);
            assert!(cell(0).join(OBSERVER_FILE_NAME).is_file());
            assert!(cell(0).join(PROFILE_FOLDED_FILE_NAME).is_file());
            assert!(!cell(1).join(OBSERVER_FILE_NAME).exists());
            assert!(!cell(1).join(PROFILE_FILE_NAME).exists());
            let read = |name: &str| std::fs::read(out_dir.join(name)).unwrap();
            let folded = [
                read(report::REPORT_MD_FILE_NAME),
                read(report::REPORT_JSON_FILE_NAME),
            ];
            run_str(&["report", "--dir", out_dir.to_str().unwrap()]).unwrap();
            let reread = [
                read(report::REPORT_MD_FILE_NAME),
                read(report::REPORT_JSON_FILE_NAME),
            ];
            assert!(
                folded == reread,
                "report --dir must rewrite the bytes matrix folded (--threads {threads})"
            );
            reports.push(folded);
        }
        assert!(reports[0] == reports[1], "reports differ across --threads");
        let md = String::from_utf8(reports[0][0].clone()).unwrap();
        let tapless = &matrix.cells[1].id;
        assert!(
            md.contains(&format!("| `{tapless}` | - | - | - | - | - |")),
            "the tap-less cell must render a dash observer row:\n{md}"
        );
        assert_eq!(
            md.matches("[profile.folded]").count(),
            1,
            "only the profiled cell links a flamegraph:\n{md}"
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A 2×2 grid, so one export is in flight while a campaign runs.
    const PIPELINE_SCENARIO: &str = r#"
[scenario]
name = "pipeline"

[population]
seed = 9
toplist_domains = 12
zone_domains = 78

[campaign]
seed = 9
sample_every = 16
profile = true

[sweep]
loss = [0.0, 0.05]
vantage = [0.25, 0.75]
"#;

    #[test]
    fn matrix_cell_lines_keep_scenario_order() {
        let base = temp_dir("matrix-order");
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let scenario = base.join("pipeline.toml");
        std::fs::write(&scenario, PIPELINE_SCENARIO).unwrap();
        let out_dir = base.join("out");
        let ran = run_str(&[
            "matrix",
            scenario.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--threads",
            "2",
        ])
        .unwrap();
        let printed: Vec<&str> = ran
            .lines()
            .filter_map(|l| l.strip_prefix("cell ")?.split(':').next())
            .collect();
        let matrix = parse_scenario(PIPELINE_SCENARIO).unwrap();
        let ids: Vec<&str> = matrix.cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(printed, ids, "out: {ran}");
        for id in ids {
            assert!(out_dir.join("cells").join(id).join("trace.json").is_file());
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn failed_cell_export_is_one_line_naming_cell_and_artifact() {
        let base = temp_dir("matrix-export-err");
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let scenario = base.join("pipeline.toml");
        std::fs::write(&scenario, PIPELINE_SCENARIO).unwrap();
        let matrix = parse_scenario(PIPELINE_SCENARIO).unwrap();
        // The first cell exports on the pipeline's thread, the last inline.
        for cell in [&matrix.cells[0], &matrix.cells[matrix.cells.len() - 1]] {
            let out_dir = base.join(&cell.id);
            std::fs::create_dir_all(out_dir.join("cells")).unwrap();
            std::fs::write(out_dir.join("cells").join(&cell.id), "not a directory").unwrap();
            let err = run_str(&[
                "matrix",
                scenario.to_str().unwrap(),
                "--out",
                out_dir.to_str().unwrap(),
            ])
            .unwrap_err();
            let prefix = format!("cell {}: cannot write metrics.json in ", cell.id);
            assert!(err.starts_with(&prefix), "err: {err}");
            assert!(!err.trim().contains('\n'), "err spans lines: {err}");
            assert!(!out_dir.join(report::REPORT_MD_FILE_NAME).exists());
        }
        // `spinctl run` names the artifact the same way.
        let not_dir = base.join("pipeline.toml");
        let err =
            run_str(&["run", "--dir", not_dir.to_str().unwrap(), "--domains", "20"]).unwrap_err();
        assert!(
            err.starts_with("cannot write metrics.json in "),
            "err: {err}"
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn pipeline_overlaps_one_export_with_the_next_campaign() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let events = Mutex::new(Vec::new());
        let note = |e: String| events.lock().unwrap().push(e);
        let (exporting, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let mut done = Vec::new();
        pipeline(
            &[0u64, 1, 2, 3, 4],
            |&i| {
                note(format!("campaign {i}"));
                i
            },
            |&i, run| {
                let now = exporting.fetch_add(1, Ordering::SeqCst) + 1;
                most.fetch_max(now, Ordering::SeqCst);
                // Early cells export slowest, so a join out of cell order
                // would show in `done`.
                std::thread::sleep(Duration::from_millis(5 * (4 - i)));
                exporting.fetch_sub(1, Ordering::SeqCst);
                Ok(run * 10)
            },
            |out| {
                note(format!("done {}", out / 10));
                done.push(out);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(done, [0, 10, 20, 30, 40]);
        assert_eq!(most.load(Ordering::SeqCst), 1, "one export in flight");
        let events = events.into_inner().unwrap();
        let at = |e: &str| events.iter().position(|x| x == e).unwrap();
        for i in 0..4 {
            assert!(
                at(&format!("campaign {}", i + 1)) < at(&format!("done {i}")),
                "cell {i} was joined before the next campaign ran: {events:?}"
            );
        }
    }

    #[test]
    fn pipeline_stops_on_the_first_failed_export() {
        let mut done = Vec::new();
        let err = pipeline(
            &[0, 1, 2, 3],
            |&i| i,
            |_, i| {
                if i == 1 {
                    Err(format!("cell {i}: boom"))
                } else {
                    Ok(i)
                }
            },
            |i| {
                done.push(i);
                Ok(())
            },
        )
        .unwrap_err();
        assert_eq!(err, "cell 1: boom");
        assert_eq!(done, [0]);
    }

    #[test]
    fn pipeline_passes_an_export_panic_on_unchanged() {
        #[derive(Debug, PartialEq)]
        struct ExportPanic(usize);
        // Cell 1 exports on the pipeline's thread, cell 2 inline.
        for failing in [1, 2] {
            let caught = std::panic::catch_unwind(|| {
                pipeline(
                    &[0, 1, 2],
                    |&i| i,
                    |_, i| {
                        if i == failing {
                            std::panic::panic_any(ExportPanic(i));
                        }
                        Ok(i)
                    },
                    |_| Ok(()),
                )
            })
            .expect_err("the export panic must reach the caller");
            assert_eq!(caught.downcast_ref(), Some(&ExportPanic(failing)));
        }
    }

    #[test]
    fn matrix_usage_and_scenario_errors_are_one_line() {
        let err = run_str(&["matrix"]).unwrap_err();
        assert!(err.contains("scenario file"), "err: {err}");
        let err = run_str(&["matrix", "/nonexistent/quicspin.toml"]).unwrap_err();
        assert!(err.contains("cannot read scenario"), "err: {err}");
        assert!(!err.trim().contains('\n'), "err spans lines: {err}");

        let base = temp_dir("matrix-err");
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let bad = base.join("bad.toml");
        std::fs::write(&bad, "[scenario]\nname = \"x\"\n[sweep]\n").unwrap();
        let err = run_str(&["matrix", bad.to_str().unwrap()]).unwrap_err();
        assert_eq!(err, "scenario error: empty matrix: [sweep] defines no axes");

        // `report` without a matrix directory fails on matrix.json.
        let err = run_str(&["report", "--dir", base.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("cannot read scenario matrix"), "err: {err}");
        assert!(err.contains("matrix.json"), "err: {err}");

        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn anomalies_json_round_trips() {
        let dir = temp_dir("anomalies-json");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap();
        run_str(&[
            "run",
            "--dir",
            dir_s,
            "--domains",
            "220",
            "--seed",
            "9",
            "--sample-every",
            "16",
        ])
        .unwrap();

        let json = run_str(&["anomalies", "--dir", dir_s, "--json", "--limit", "5"]).unwrap();
        let doc: AnomalyListDoc = serde_json::from_str(&json).expect("parseable --json output");
        assert_eq!(doc.schema_version, ANOMALY_LIST_SCHEMA_VERSION);
        assert!(doc.campaign.starts_with("week0-V4-seed"), "{doc:?}");
        assert_eq!(doc.kind, None);
        assert!(doc.total > 0, "campaign produced no anomalies");
        assert_eq!(doc.shown, doc.total.min(5));
        assert_eq!(doc.anomalies.len() as u64, doc.shown);
        // Round trip: re-serializing reproduces the CLI output exactly.
        let reserialized = serde_json::to_string_pretty(&doc).unwrap();
        assert_eq!(json.trim_end(), reserialized);

        // The kind filter is echoed into the document.
        let index = read_anomaly_index(&dir).unwrap();
        let (kind, n) = index.counts_by_kind()[0];
        let json =
            run_str(&["anomalies", "--dir", dir_s, "--json", "--kind", kind.name()]).unwrap();
        let doc: AnomalyListDoc = serde_json::from_str(&json).unwrap();
        assert_eq!(doc.kind.as_deref(), Some(kind.name()));
        assert_eq!(doc.total, n as u64);
        assert!(doc.anomalies.iter().all(|a| a.kind == kind.name()));
        // trace_retained mirrors the index's retention slots.
        for row in &doc.anomalies {
            let probe: ProbeId = row.probe.parse().unwrap();
            assert_eq!(row.trace_retained, index.slot(probe).is_some());
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}
