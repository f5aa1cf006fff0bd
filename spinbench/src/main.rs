//! `spinbench` command line. See `README.md` next to this crate.

use quicspin_scanner::parse_scenario;
use quicspin_webpop::{Population, PopulationConfig};
use spinbench::bench::{run_workload, Metric, Report, Settings};
use spinbench::paper::paper_tables;
use spinbench::results::{self, compare, Row, Verdict};
use spinbench::trace::{Instruments, Tracer};
use spinbench::workload::{Bins, Inputs, Workload, ALL};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
spinbench — end-to-end benchmark of the quicspin campaign tools

USAGE:
    spinbench [run] [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
    spinbench compare <baseline.tsv> <candidate.tsv>
    spinbench exec paper_tables --population-seed P --scale D --threads T --out DIR
    spinbench exec setup --workload W --population-seed P

`run` (the default) measures each workload (all four when none is
named: sweep, lossy_toplist, matrix_grid, paper_tables) for S seconds
(default 10) at seed N (default 1), prints every metric with its unit,
median, quartiles and n, and writes them to FILE (default
<build dir>/spinbench/results.tsv). With one workload the last line of
standard output is the JSON result. `--trace 1` runs the traced replay
instead and prints the per-layer metrics; it also writes spans.json.
`compare` calls each end-to-end metric better, worse, unchanged or
unresolved against its bound and exits 2 when one is worse. `exec` runs
the benchmark's own child processes.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("exec") => cmd_exec(&args[1..]),
        Some("help" | "--help" | "-h") => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => cmd_run(&args[1..]),
        _ => cmd_run(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("spinbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` pairs; every flag takes a value.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}\n\n{USAGE}"))?;
        let value = iter
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        out.push((name, value.as_str()));
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(name: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("invalid value {raw:?} for --{name}"))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut workloads = Vec::new();
    let mut settings = Settings {
        seed: 1,
        seconds: 10.0,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        trace: false,
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate spinbench: {e}"))?;
    let build_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("spinbench is not inside a build directory")?;
    let root = build_dir.join("spinbench");
    let mut out = root.join("results.tsv");
    for (name, value) in flags(args)? {
        match name {
            "workload" => workloads
                .push(Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?),
            "seed" => settings.seed = parse(name, value)?,
            "seconds" => settings.seconds = parse(name, value)?,
            "trace" => {
                settings.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag --{name}\n\n{USAGE}")),
        }
    }
    if workloads.is_empty() {
        workloads = ALL.to_vec();
    }
    let bins = Bins {
        spinctl: exe.with_file_name("spinctl"),
        spinbench: exe.clone(),
    };
    if !bins.spinctl.is_file() {
        return Err(format!(
            "{} not found: build quicspin-spinctl into the same target directory",
            bins.spinctl.display()
        ));
    }

    let mut reports = Vec::new();
    for &w in &workloads {
        let report = run_workload(&bins, &root, w, &settings)?;
        print_report(&report, &settings);
        reports.push(report);
    }
    let rows: Vec<Row> = reports
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(|m| Row {
                workload: r.workload.name().to_string(),
                metric: m.name.to_string(),
                unit: m.unit.to_string(),
                summary: m.summary,
            })
        })
        .collect();
    let comments = [format!(
        "seed {} seconds {} threads {} trace {}",
        settings.seed, settings.seconds, settings.threads, settings.trace as u8
    )];
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, results::render(&rows, &comments))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    if let [report] = &reports[..] {
        println!("{}", json_result(report));
    }
    Ok(ExitCode::SUCCESS)
}

fn print_report(report: &Report, settings: &Settings) {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== {} (seed {}, {} threads{}): {} checks, {} failed",
        report.workload.name(),
        settings.seed,
        settings.threads,
        if settings.trace { ", traced" } else { "" },
        report.attempted,
        report.failed,
    );
    for p in &report.problems {
        eprintln!("spinbench: {}: {p}", report.workload.name());
    }
    let _ = writeln!(
        text,
        "  {:<34} {:<6} {:>14} {:>14} {:>14} {:>4}  source / samples",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for m in &report.metrics {
        let s = &m.summary;
        let _ = writeln!(
            text,
            "  {:<34} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>4}  {}",
            m.name,
            m.unit,
            s.median,
            s.q1,
            s.q3,
            s.n,
            layer_note(m)
        );
    }
    print!("{text}");
}

fn layer_note(m: &Metric) -> String {
    let Some((source, v)) = &m.layer else {
        return String::new();
    };
    match (v.percentile, m.name.ends_with(".tail")) {
        (Some(p), _) => format!("{}, p{p} of n={}", source.as_str(), v.n),
        (None, true) => format!("{}, n={}: too few for a tail", source.as_str(), v.n),
        (None, false) => format!("{}, n={}", source.as_str(), v.n),
    }
}

/// The one-line JSON result: `correct`, `attempted`, `failed`, and every
/// metric's median with its unit.
fn json_result(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.summary.median, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(format!("compare needs two results files\n\n{USAGE}"));
    };
    let load = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        results::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare(&load(a)?, &load(b)?);
    if rows.is_empty() {
        return Err("the two files share no end-to-end metric".to_string());
    }
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "baseline", "candidate", "worse by", "bound"
    );
    for c in &rows {
        println!(
            "{:<14} {:<14} {:>14.6} {:>14.6} {:>7.1}% {:>5.0}%  {}",
            c.workload,
            c.metric,
            c.a.median,
            c.b.median,
            c.worse_by * 100.0,
            c.bound * 100.0,
            c.verdict.as_str()
        );
    }
    let worse = rows.iter().filter(|c| c.verdict == Verdict::Worse).count();
    Ok(if worse > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_exec(args: &[String]) -> Result<ExitCode, String> {
    let Some(what) = args.first() else {
        return Err(format!("exec needs a child kind\n\n{USAGE}"));
    };
    let flags = flags(&args[1..])?;
    let get = |name: &str| {
        flags
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("exec {what} needs --{name}"))
    };
    match what.as_str() {
        "paper_tables" => {
            let config = PopulationConfig {
                seed: parse("population-seed", get("population-seed")?)?,
                ..PopulationConfig::paper_scale(parse("scale", get("scale")?)?)
            };
            let threads: usize = parse("threads", get("threads")?)?;
            let out = PathBuf::from(get("out")?);
            let population = Population::generate(config);
            let text = paper_tables(
                &population,
                threads,
                &out,
                &mut Tracer::default(),
                &Instruments::off(),
            )?;
            print!("{text}");
        }
        "setup" => {
            let workload = get("workload")?;
            let workload = Workload::parse(workload)
                .ok_or_else(|| format!("unknown workload {workload:?}"))?;
            let inputs = Inputs {
                workload,
                divisor: 1,
                population_seed: parse("population-seed", get("population-seed")?)?,
            };
            let scenario = inputs.scenario();
            let started = Instant::now();
            let config = match &scenario {
                Some(text) => parse_scenario(text)?.population,
                None => inputs.population(),
            };
            let population = Population::generate(config);
            let elapsed = started.elapsed().as_secs_f64();
            std::hint::black_box(population.len());
            println!("{elapsed}");
        }
        other => return Err(format!("unknown exec child {other:?}")),
    }
    Ok(ExitCode::SUCCESS)
}
