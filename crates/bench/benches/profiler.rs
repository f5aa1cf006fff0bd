//! Profiler tax: the same clean-path campaign with the hierarchical
//! cost profiler disabled (the default — every scope boundary behind a
//! dead branch) vs fully enabled (lap-chain clock reads on the coarse
//! scopes, post-hoc count mapping for the inner ones, shard merges).
//! The issue budget caps the gap at 3%; CI gates it via the committed
//! `BENCH_PROFILE.json` baseline and a wall-clock sweep comparison.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use quicspin_bench::bench_population;
use quicspin_scanner::{CampaignConfig, NetworkConditions, ProbeScratch, ScanOutcome, Scanner};
use quicspin_telemetry::ProfilerRegistry;
use std::sync::Arc;

fn clean_config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        threads,
        conditions: NetworkConditions::clean(),
        ..CampaignConfig::default()
    }
}

fn profiler_overhead(c: &mut Criterion) {
    let pop = bench_population(4_000, 500);
    let scanner = Scanner::new(&pop);
    let mut group = c.benchmark_group("profiler");
    group.throughput(Throughput::Elements(pop.len() as u64));
    group.sample_size(10);
    let unprofiled = clean_config(4);
    group.bench_function("campaign_unprofiled", |b| {
        b.iter(|| scanner.run_campaign(std::hint::black_box(&unprofiled)))
    });
    let profiled = CampaignConfig {
        profiler: Arc::new(ProfilerRegistry::new()),
        ..clean_config(4)
    };
    group.bench_function("campaign_profiled", |b| {
        b.iter(|| scanner.run_campaign(std::hint::black_box(&profiled)))
    });
    group.finish();
}

fn probe_profiled(c: &mut Criterion) {
    // The per-probe view of the same budget: one established domain on
    // the scratch-reuse hot path, with and without the scope boundaries
    // live. The gap is the lap chain's 8 clock reads plus the count
    // mapping.
    let pop = bench_population(2_000, 0);
    let scanner = Scanner::new(&pop);
    let unprofiled = clean_config(1);
    let profiled = CampaignConfig {
        profiler: Arc::new(ProfilerRegistry::new()),
        ..clean_config(1)
    };
    let id = (0..pop.len() as u32)
        .find(|&id| scanner.scan_domain(id, &unprofiled)[0].outcome == ScanOutcome::Ok)
        .expect("bench population must contain an established domain");
    let mut group = c.benchmark_group("probe_profiled");
    // The CI overhead gate reads this group's min_ns noise floors; more
    // samples tighten the floor against the container's heavy-tailed
    // scheduler noise.
    group.sample_size(40);
    for (case, cfg) in [("off", &unprofiled), ("on", &profiled)] {
        group.bench_function(case, |b| {
            let mut scratch = ProbeScratch::default();
            scratch
                .telemetry
                .set_enabled(cfg.telemetry.is_enabled(), cfg.profiler.is_enabled());
            let mut records = Vec::new();
            b.iter(|| {
                records.clear();
                scanner.scan_domain_into(std::hint::black_box(id), cfg, &mut scratch, &mut records);
                records.len()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = profiler_overhead, probe_profiled
}
criterion_main!(benches);
