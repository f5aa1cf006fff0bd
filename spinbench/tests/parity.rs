//! `BENCHMARK.json` and the benchmark agree: every workload and metric it
//! names is one the benchmark runs or emits, with the same unit,
//! direction and bound, and the reverse.

use serde::Deserialize;
use spinbench::bench::{end_to_end_metrics, Rep};
use spinbench::catalog::{END_TO_END, PER_LAYER};
use spinbench::workload::ALL;

#[derive(Deserialize)]
struct Manifest {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Workload>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<PerLayer>,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct EndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct PerLayer {
    name: String,
    unit: String,
    better: String,
}

fn manifest() -> Manifest {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn command_and_paths_point_at_this_crate() {
    let m = manifest();
    assert_eq!(m.paths, ["spinbench"]);
    assert_eq!(m.command, ["bash", "spinbench/run.sh"]);
    assert!((1..=60).contains(&m.run_seconds));
}

#[test]
fn workloads_match() {
    let m = manifest();
    let listed: Vec<(&str, &str)> = m
        .workloads
        .iter()
        .map(|w| (w.name.as_str(), w.why.as_str()))
        .collect();
    let run: Vec<(&str, &str)> = ALL.iter().map(|w| (w.name(), w.why())).collect();
    assert_eq!(listed, run);
}

#[test]
fn end_to_end_metrics_match() {
    let m = manifest();
    let listed: Vec<(&str, &str, &str, f64)> = m
        .end_to_end
        .iter()
        .map(|e| (e.name.as_str(), e.unit.as_str(), e.better.as_str(), e.bound))
        .collect();
    let catalogue: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .map(|e| (e.name, e.unit, e.better.as_str(), e.bound))
        .collect();
    assert_eq!(listed, catalogue);

    // And the timed loop emits exactly these, in this order.
    let rep = Rep {
        wall_s: 1.0,
        cpu_s: 1.5,
        peak_rss_mib: 10.0,
        readback_s: 0.2,
        artifact_mib: 3.0,
    };
    let emitted: Vec<&str> = end_to_end_metrics(&[rep, rep], &[0.1, 0.2], 1000)
        .iter()
        .map(|m| m.name)
        .collect();
    let names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
    assert_eq!(emitted, names);
}

#[test]
fn per_layer_metrics_match() {
    let m = manifest();
    let listed: Vec<(&str, &str, &str)> = m
        .per_layer
        .iter()
        .map(|p| (p.name.as_str(), p.unit.as_str(), p.better.as_str()))
        .collect();
    let catalogue: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|p| (p.name, p.unit, p.better.as_str()))
        .collect();
    assert_eq!(listed, catalogue);
}

#[test]
fn setup_bound_is_the_largest() {
    let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
    assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
    assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
}
