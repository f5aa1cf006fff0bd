//! Running one workload: the untimed output and determinism checks, the
//! timed closed loop over the main command (one command at a time, each
//! sweeping its whole input as fast as it can), and the traced replay.

use crate::catalog::{Source, END_TO_END, PER_LAYER};
use crate::proc::{self, Usage};
use crate::replay::{layer_values, replay, ChildFacts, Extras, LayerValue};
use crate::stats::Summary;
use crate::trace::{Instruments, Tracer};
use crate::workload::{Bins, Inputs, Workload, CHECK_DIVISOR, SCENARIO_FILE};
use quicspin_scanner::{read_run_manifest, MANIFEST_FILE_NAME, PROFILE_FOLDED_FILE_NAME};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest timed repetitions of the main command per run.
const MIN_REPS: usize = 3;
/// Set-up repetitions per timed repetition.
const SETUP_PER_REP: usize = 3;

/// How a run is done.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Benchmark seed.
    pub seed: u64,
    /// Seconds to keep repeating the measured command.
    pub seconds: f64,
    /// Campaign worker threads.
    pub threads: usize,
    /// Run the traced replay instead of the untraced measurement.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median and quartiles over repetitions.
    pub summary: Summary,
    /// Per-layer only: where the number comes from, and the samples and
    /// percentile behind it in the last repetition.
    pub layer: Option<(Source, LayerValue)>,
}

/// Everything one workload run reports.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Checked commands and replays.
    pub attempted: u64,
    /// Those that failed to run or failed an output check.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Metrics in catalogue order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Counts checks and collects failures.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    fn note<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// What the output check learned from one run of the main command.
#[derive(Debug, Default)]
struct Output {
    /// Length and hash of every deterministic output file.
    digest: BTreeMap<String, (u64, u64)>,
    /// Bytes the command wrote: its files plus its standard output.
    bytes: u64,
    /// Probe counts and cell walls from the run manifests.
    facts: ChildFacts,
}

/// Runs `workload` as `settings` say, using scratch space under `root`.
pub fn run_workload(
    bins: &Bins,
    root: &Path,
    workload: Workload,
    settings: &Settings,
) -> Result<Report, String> {
    let dir = root.join(workload.name());
    let work = dir.join("work");
    reset(&work)?;
    let mut checks = Checks::default();
    determinism_check(bins, workload, settings, &work.join("check"), &mut checks)?;
    let inputs = Inputs::new(workload, settings.seed, 1);
    write_inputs(&inputs, &work)?;
    let metrics = if settings.trace {
        traced(bins, &inputs, settings, &work, &dir, &mut checks)?
    } else {
        timed(bins, &inputs, settings, &work, &mut checks)?
    };
    std::fs::remove_dir_all(&work).map_err(|e| format!("cannot remove {}: {e}", work.display()))?;
    Ok(Report {
        workload,
        attempted: checks.attempted,
        failed: checks.failed,
        problems: checks.problems,
        metrics,
    })
}

fn reset(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

fn write_inputs(inputs: &Inputs, work: &Path) -> Result<(), String> {
    std::fs::create_dir_all(work).map_err(|e| e.to_string())?;
    if let Some(text) = inputs.scenario() {
        let path = work.join(SCENARIO_FILE);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Runs the main command of `inputs` into a fresh `work/out` and checks
/// its output.
fn run_main(
    bins: &Bins,
    inputs: &Inputs,
    work: &Path,
    threads: usize,
) -> Result<(Usage, Result<Output, String>), String> {
    let out = work.join("out");
    reset(&out)?;
    let stdout = work.join("stdout.txt");
    let (program, args) = inputs.main_command(bins, &out, work, threads);
    let usage = proc::run(&program, &args, &stdout)
        .map_err(|e| format!("cannot run {}: {e}", program.display()))?;
    let checked = if usage.ok() {
        check_output(inputs, &out, &stdout)
    } else {
        Err(format!(
            "{} exited with {:?}",
            program.display(),
            usage.code
        ))
    };
    Ok((usage, checked))
}

/// The output check: every run manifest satisfies the probe-accounting
/// invariants, and the deterministic artifacts are digested for
/// comparison across repetitions and thread counts.
fn check_output(inputs: &Inputs, out: &Path, stdout: &Path) -> Result<Output, String> {
    let mut output = Output::default();
    let mut manifests = 0u64;
    let domains = inputs.population_len();
    for (rel, path) in files_under(out)? {
        let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {rel}: {e}"))?;
        output.bytes += bytes.len() as u64;
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name == MANIFEST_FILE_NAME {
            let dir = path.parent().expect("a file has a parent");
            let manifest = read_run_manifest(dir).map_err(|e| e.to_string())?;
            let completed = manifest.counter("probes_completed");
            let records = manifest.counter("records_produced");
            let redirects = manifest.counter("redirects_followed");
            if completed != domains {
                return Err(format!(
                    "{rel}: probes_completed {completed}, expected {domains}"
                ));
            }
            if records != completed + redirects {
                return Err(format!(
                    "{rel}: records_produced {records} != probes {completed} + redirects {redirects}"
                ));
            }
            manifests += 1;
            output.facts.probes_completed += completed;
            output.facts.probes_errored += manifest.counter("probes_errored");
            if rel.starts_with("cells/") {
                output
                    .facts
                    .cell_ms
                    .push(manifest.wall_time_ns as f64 / 1e6);
            }
        }
        // Wall-clock fields and machine-shape gauges make these two differ
        // between runs; everything else must repeat byte for byte.
        if name != MANIFEST_FILE_NAME && name != PROFILE_FOLDED_FILE_NAME {
            output
                .digest
                .insert(rel, (bytes.len() as u64, hash(&bytes)));
        }
    }
    if manifests != inputs.manifests() {
        return Err(format!(
            "{manifests} run manifests, expected {}",
            inputs.manifests()
        ));
    }
    let printed = std::fs::read(stdout).map_err(|e| format!("cannot read stdout: {e}"))?;
    output.bytes += printed.len() as u64;
    if inputs.stdout_is_output() {
        output.digest.insert(
            "<stdout>".to_string(),
            (printed.len() as u64, hash(&printed)),
        );
    }
    Ok(output)
}

fn hash(bytes: &[u8]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

/// Every regular file under `dir`, as (path relative to `dir`, path),
/// sorted by relative path.
fn files_under(dir: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        let entries =
            std::fs::read_dir(&d).map_err(|e| format!("cannot list {}: {e}", d.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let rel = path
                    .strip_prefix(dir)
                    .expect("listed under dir")
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push((rel, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Untimed: the workload at 1/[`CHECK_DIVISOR`] size must write
/// byte-identical deterministic output at one and at two threads.
fn determinism_check(
    bins: &Bins,
    workload: Workload,
    settings: &Settings,
    work: &Path,
    checks: &mut Checks,
) -> Result<(), String> {
    let inputs = Inputs::new(workload, settings.seed, CHECK_DIVISOR);
    write_inputs(&inputs, work)?;
    let mut digests = Vec::new();
    for threads in [1, 2] {
        let (_, checked) = run_main(bins, &inputs, work, threads)?;
        if let Some(output) = checks.note(&format!("check at --threads {threads}"), checked) {
            digests.push(output.digest);
        }
    }
    if let [one, two] = &digests[..] {
        checks.note("threads 1 vs 2", same_digest(one, two));
    }
    std::fs::remove_dir_all(work).map_err(|e| e.to_string())
}

fn same_digest(
    a: &BTreeMap<String, (u64, u64)>,
    b: &BTreeMap<String, (u64, u64)>,
) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    let differing: BTreeSet<&str> = a
        .keys()
        .chain(b.keys())
        .filter(|k| a.get(*k) != b.get(*k))
        .map(String::as_str)
        .collect();
    let differing: Vec<&str> = differing.into_iter().collect();
    Err(format!("output differs in {}", differing.join(", ")))
}

/// Set-up time: population generation plus scenario parsing, each
/// measured in a fresh child process.
fn setup_time(bins: &Bins, inputs: &Inputs, work: &Path) -> Result<f64, String> {
    let stdout = work.join("setup.txt");
    let args = [
        "exec",
        "setup",
        "--workload",
        inputs.workload.name(),
        "--population-seed",
        &inputs.population_seed.to_string(),
    ]
    .map(String::from);
    let usage = proc::run(&bins.spinbench, &args, &stdout).map_err(|e| e.to_string())?;
    if !usage.ok() {
        return Err(format!("exited with {:?}", usage.code));
    }
    std::fs::read_to_string(&stdout)
        .map_err(|e| e.to_string())?
        .trim()
        .parse()
        .map_err(|e| format!("bad set-up time: {e}"))
}

/// One timed repetition's end-to-end values.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// Main command wall clock, seconds.
    pub wall_s: f64,
    /// Main command CPU time, seconds.
    pub cpu_s: f64,
    /// Main command peak RSS, MiB.
    pub peak_rss_mib: f64,
    /// Wall clock of the read-back commands, seconds.
    pub readback_s: f64,
    /// Bytes written by the main command, MiB.
    pub artifact_mib: f64,
}

/// The end-to-end metrics from timed repetitions and set-up times, in
/// catalogue order.
pub fn end_to_end_metrics(reps: &[Rep], setup_s: &[f64], domains: u64) -> Vec<Metric> {
    let column = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    END_TO_END
        .iter()
        .filter_map(|m| {
            let values = match m.name {
                "wall_s" => column(|r| r.wall_s),
                "domains_per_s" => reps.iter().map(|r| domains as f64 / r.wall_s).collect(),
                "cpu_s" => column(|r| r.cpu_s),
                "setup_s" => setup_s.to_vec(),
                "peak_rss_mib" => column(|r| r.peak_rss_mib),
                "readback_s" => column(|r| r.readback_s),
                "artifact_mib" => column(|r| r.artifact_mib),
                other => unreachable!("no measurement for {other}"),
            };
            Some(Metric {
                name: m.name,
                unit: m.unit,
                summary: Summary::of(&values)?,
                layer: None,
            })
        })
        .collect()
}

/// The timed closed loop: repeat the main command and its read-back
/// until `settings.seconds` have passed (at least [`MIN_REPS`] times).
/// Set-up repetitions run between them, so that every metric samples the
/// same stretch of time.
fn timed(
    bins: &Bins,
    inputs: &Inputs,
    settings: &Settings,
    work: &Path,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let readback_out = work.join("readback.txt");
    let mut setup = Vec::new();
    let mut reps = Vec::new();
    let mut first: Option<BTreeMap<String, (u64, u64)>> = None;
    let started = Instant::now();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < settings.seconds {
        for _ in 0..SETUP_PER_REP {
            setup.extend(checks.note("set-up", setup_time(bins, inputs, work)));
        }
        let (usage, checked) = run_main(bins, inputs, work, settings.threads)?;
        let mut rep = Rep {
            wall_s: usage.wall_s,
            cpu_s: usage.cpu_s,
            peak_rss_mib: usage.peak_rss_mib,
            ..Rep::default()
        };
        let Some(output) = checks.note("main command", checked) else {
            reps.push(rep);
            continue;
        };
        rep.artifact_mib = output.bytes as f64 / (1024.0 * 1024.0);
        match &first {
            None => first = Some(output.digest),
            Some(d) => {
                checks.note("output repeats across reps", same_digest(d, &output.digest));
            }
        }
        let out = work.join("out");
        let commands = checks.note("read-back commands", inputs.readback_commands(&out));
        for args in commands.unwrap_or_default() {
            let usage =
                proc::run(&bins.spinctl, &args, &readback_out).map_err(|e| e.to_string())?;
            rep.readback_s += usage.wall_s;
            let printed = std::fs::metadata(&readback_out).map_or(0, |m| m.len());
            let result = if !usage.ok() {
                Err(format!("exited with {:?}", usage.code))
            } else if printed == 0 {
                Err("printed nothing".to_string())
            } else {
                Ok(())
            };
            checks.note(&format!("spinctl {}", args[0]), result);
        }
        reps.push(rep);
    }
    Ok(end_to_end_metrics(&reps, &setup, inputs.domains_swept()))
}

/// The traced run: alternate an untraced run of the main command with a
/// traced in-process replay until `settings.seconds` have passed, and
/// report each per-layer metric's median over the pairs.
fn traced(
    bins: &Bins,
    inputs: &Inputs,
    settings: &Settings,
    work: &Path,
    dir: &Path,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let mut pairs: Vec<BTreeMap<&'static str, LayerValue>> = Vec::new();
    let mut last_spans = Tracer::default();
    let started = Instant::now();
    while pairs.is_empty() || started.elapsed().as_secs_f64() < settings.seconds {
        let (usage, checked) = run_main(bins, inputs, work, settings.threads)?;
        let Some(output) = checks.note("main command", checked) else {
            break;
        };
        let facts = ChildFacts {
            wall_s: usage.wall_s,
            ..output.facts
        };
        let replay_dir = work.join("replay");
        reset(&replay_dir)?;
        let mut tr = Tracer::default();
        let ins = Instruments::on();
        let mut extras = Extras::default();
        let replayed = replay(
            inputs,
            settings.threads,
            &replay_dir,
            &mut tr,
            &ins,
            &mut extras,
        );
        if checks.note("traced replay", replayed).is_none() {
            break;
        }
        pairs.push(layer_values(&tr, &ins, &extras, &facts));
        last_spans = tr;
    }
    let spans = dir.join("spans.json");
    last_spans
        .write_json(&spans)
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    let Some(last) = pairs.last() else {
        return Ok(Vec::new());
    };
    Ok(PER_LAYER
        .iter()
        .filter_map(|m| {
            let values: Vec<f64> = pairs
                .iter()
                .filter_map(|p| p.get(m.name))
                .map(|v| v.value)
                .collect();
            Some(Metric {
                name: m.name,
                unit: m.unit,
                summary: Summary::of(&values)?,
                layer: Some((m.source, last.get(m.name)?.clone())),
            })
        })
        .collect())
}
