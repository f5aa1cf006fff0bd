//! Campaign engine throughput: domains/sec for a clean-path sweep at
//! 1/4/8 worker threads, plus the single-thread probe loop (the unit of
//! work the scheduler distributes). Guards the work-stealing scheduler
//! and scratch-reuse optimizations against regressions. The `matrix`
//! group times a whole `spinctl matrix` grid of short campaigns, where
//! per-cell fixed costs (monitor shutdown, artifact export) weigh most,
//! and `campaign/streamed_sweep_100k_domains` times a whole `spinctl run`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use quicspin_bench::bench_population;
use quicspin_scanner::{
    build_timeseries, CampaignConfig, FlightConfig, NetworkConditions, ProbeScratch, Registry,
    ScanOutcome, Scanner,
};
use std::sync::Arc;

fn clean_config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        threads,
        conditions: NetworkConditions::clean(),
        ..CampaignConfig::default()
    }
}

fn sweep_threads(c: &mut Criterion) {
    let pop = bench_population(9_000, 1_000);
    let scanner = Scanner::new(&pop);
    let mut group = c.benchmark_group("campaign");
    group.throughput(Throughput::Elements(pop.len() as u64));
    group.sample_size(10);
    for threads in [1usize, 4, 8] {
        let cfg = clean_config(threads);
        group.bench_function(&format!("sweep_10k_domains/{threads}_threads"), |b| {
            b.iter(|| scanner.run_campaign(std::hint::black_box(&cfg)))
        });
    }
    group.finish();
}

fn probe_loop(c: &mut Criterion) {
    let pop = bench_population(2_000, 0);
    let scanner = Scanner::new(&pop);
    let cfg = clean_config(1);
    // Pick a domain whose probe takes the full QUIC-handshake path, so the
    // loop times the expensive steady-state (simulator + qlog + report).
    let id = (0..pop.len() as u32)
        .find(|&id| scanner.scan_domain(id, &cfg)[0].outcome == ScanOutcome::Ok)
        .expect("bench population must contain an established domain");
    let mut group = c.benchmark_group("probe_loop");
    group.sample_size(20);
    group.bench_function("established_domain", |b| {
        b.iter(|| scanner.scan_domain(std::hint::black_box(id), &cfg))
    });
    // Same probe with per-worker scratch reuse (the campaign hot path):
    // the gap to `established_domain` is the allocation overhead the
    // scratch chain removes.
    group.bench_function("established_domain_scratch_reuse", |b| {
        let mut scratch = ProbeScratch::default();
        let mut records = Vec::new();
        b.iter(|| {
            records.clear();
            scanner.scan_domain_into(std::hint::black_box(id), &cfg, &mut scratch, &mut records);
            records.len()
        })
    });
    group.finish();
}

/// Telemetry tax: the same campaign with the metrics registry disabled
/// (the default — every counter/span behind a dead branch) vs fully
/// enabled (shards, stage timers, atomic merges). The issue budget allows
/// at most 2% between the two.
fn telemetry_overhead(c: &mut Criterion) {
    let pop = bench_population(4_000, 500);
    let scanner = Scanner::new(&pop);
    let mut group = c.benchmark_group("telemetry");
    group.throughput(Throughput::Elements(pop.len() as u64));
    group.sample_size(10);
    let disabled = clean_config(4);
    group.bench_function("campaign_disabled_registry", |b| {
        b.iter(|| scanner.run_campaign(std::hint::black_box(&disabled)))
    });
    let enabled = CampaignConfig {
        telemetry: Arc::new(Registry::new()),
        ..clean_config(4)
    };
    group.bench_function("campaign_instrumented", |b| {
        b.iter(|| scanner.run_campaign(std::hint::black_box(&enabled)))
    });
    // Flight recorder armed on top of the instrumented campaign: every
    // probe is inspected (trace capture + detectors + stripped again)
    // but on this clean path almost nothing is flagged, so the gap to
    // `campaign_instrumented` is the unflagged hot-path tax the issue
    // caps at ~2%.
    let flight = CampaignConfig {
        telemetry: Arc::new(Registry::new()),
        flight: FlightConfig::armed(0xbe7c),
        ..clean_config(4)
    };
    group.bench_function("campaign_flight_recorder", |b| {
        b.iter(|| scanner.run_campaign_flight(std::hint::black_box(&flight)))
    });
    // On-path observer armed on top of the instrumented campaign: every
    // probe's tap capture is narrowed through the privacy boundary and
    // folded into a per-flow view. The tap itself is passive, so the gap
    // to `campaign_instrumented` is the observer-fold tax the issue caps
    // at ~2%.
    let tapped = CampaignConfig {
        telemetry: Arc::new(Registry::new()),
        tap: Some(0.5),
        ..clean_config(4)
    };
    group.bench_function("campaign_observer", |b| {
        b.iter(|| scanner.run_campaign(std::hint::black_box(&tapped)))
    });
    // Post-hoc time-series build (PR 4): replay the merged record stream
    // into the bounded deterministic ring. Runs once per campaign after
    // the sweep joins, so its cost is off the probe hot path entirely;
    // this case documents that it stays ~1% of the sweep itself.
    let campaign = scanner.run_campaign(&disabled);
    group.bench_function("timeseries_build", |b| {
        b.iter(|| build_timeseries(std::hint::black_box(&campaign), &disabled, 512))
    });
    group.finish();
}

/// The 32-cell grid of spinbench's `matrix_grid` workload: loss ×
/// reorder × jitter × vantage over one population of 4 000 domains.
const MATRIX_GRID: &str = r#"
[scenario]
name = "grid"
[population]
seed = 1
toplist_domains = 500
zone_domains = 3500
[campaign]
seed = 1
profile = false
[sweep]
loss = [0.0, 0.01, 0.03, 0.05]
reorder = [0.0, 0.01]
jitter_frac = [0.0, 0.05]
vantage = [0.25, 0.75]
"#;

/// `spinctl matrix` end to end over the 32-cell grid at two campaign
/// threads: campaigns, every cell's artifacts, and the report.
fn matrix_grid(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("quicspin-bench-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    let scenario = dir.join("grid.toml");
    std::fs::write(&scenario, MATRIX_GRID).expect("scenario file");
    let args = [
        "matrix".to_string(),
        scenario.display().to_string(),
        "--out".to_string(),
        dir.join("out").display().to_string(),
        "--threads".to_string(),
        "2".to_string(),
    ];
    let mut group = c.benchmark_group("matrix");
    group.throughput(Throughput::Elements(32 * 4_000));
    group.sample_size(10);
    group.bench_function("grid_32_cells_4k_domains/2_threads", |b| {
        b.iter(|| quicspin_spinctl::run(&args, &mut std::io::sink()).expect("matrix runs"))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `spinctl run` over 100 k domains at two threads: population
/// generation, the streamed engine with its tap, flight recorder and
/// sinks, and every artifact export — the sweep `ci.sh --scale` checks
/// against its resident-record budget.
fn streamed_sweep(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("quicspin-bench-sweep-{}", std::process::id()));
    let args = [
        "run",
        "--dir",
        &dir.display().to_string(),
        "--domains",
        "100000",
        "--seed",
        "11",
        "--sample-every",
        "64",
        "--threads",
        "2",
    ]
    .map(String::from);
    let mut group = c.benchmark_group("campaign");
    group.throughput(Throughput::Elements(100_000));
    group.sample_size(10);
    group.bench_function("streamed_sweep_100k_domains/2_threads", |b| {
        b.iter(|| quicspin_spinctl::run(&args, &mut std::io::sink()).expect("sweep runs"))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = sweep_threads, probe_loop, telemetry_overhead, matrix_grid, streamed_sweep
}
criterion_main!(benches);
