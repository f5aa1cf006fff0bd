//! Golden regeneration: re-runs, through [`quicspin_spinctl::run`], the
//! exact commands that wrote `tests/fixtures/`, at one and at four worker
//! threads, and requires every deterministic artifact to come out
//! byte-identical to its fixture (`metrics.json` under its
//! deterministic view, since it also holds wall-clock timings). This is
//! the byte-level reference for the campaign engine: any change to how
//! it schedules, folds or delivers batches must leave these files alone.

use quicspin_scanner::{read_run_manifest, RunManifest};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// A fresh scratch directory for one command of this test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spinctl-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spinctl(args: &[&str]) {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let mut out = Vec::new();
    let code = quicspin_spinctl::run(&args, &mut out).unwrap_or_else(|e| panic!("{args:?}: {e}"));
    assert_eq!(code, 0, "{args:?}");
}

fn assert_same_bytes(written: &Path, fixture: &str) {
    let got = std::fs::read(written).unwrap_or_else(|e| panic!("{}: {e}", written.display()));
    let want = std::fs::read(fixture_dir().join(fixture)).expect("fixture");
    assert!(
        got == want,
        "{} differs from fixture {fixture}",
        written.display()
    );
}

fn deterministic_json(manifest: RunManifest) -> String {
    serde_json::to_string_pretty(&manifest.deterministic_view()).expect("manifest serializes")
}

fn run_flight_campaign(domains: &str, threads: &str) -> PathBuf {
    let dir = scratch(&format!("run-{domains}-t{threads}"));
    spinctl(&[
        "run",
        "--dir",
        dir.to_str().expect("utf-8 temp dir"),
        "--domains",
        domains,
        "--seed",
        "7",
        "--sample-every",
        "16",
        "--profile",
        "--threads",
        threads,
    ]);
    dir
}

#[test]
fn run_artifacts_regenerate_byte_identically() {
    let fixture_manifest: RunManifest = serde_json::from_str(
        &std::fs::read_to_string(fixture_dir().join("metrics.json")).expect("fixture"),
    )
    .expect("fixture manifest parses");
    for threads in ["1", "4"] {
        let dir = run_flight_campaign("100", threads);
        for file in [
            "observer.json",
            "anomalies.json",
            "trace.json",
            "profile.json",
        ] {
            assert_same_bytes(&dir.join(file), file);
        }
        let manifest = read_run_manifest(&dir).expect("metrics.json");
        assert_eq!(
            deterministic_json(manifest),
            deterministic_json(fixture_manifest.clone()),
            "metrics.json at --threads {threads}"
        );
        let _ = std::fs::remove_dir_all(&dir);

        let dir = run_flight_campaign("20", threads);
        assert_same_bytes(&dir.join("timeseries.json"), "timeseries.json");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn matrix_report_regenerates_byte_identically() {
    let scenario =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/loss_vantage.toml");
    for threads in ["1", "4"] {
        let dir = scratch(&format!("matrix-t{threads}"));
        spinctl(&[
            "matrix",
            scenario.to_str().expect("utf-8 repo path"),
            "--out",
            dir.to_str().expect("utf-8 temp dir"),
            "--threads",
            threads,
        ]);
        assert_same_bytes(&dir.join("report.json"), "report.json");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
