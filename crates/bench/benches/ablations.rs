//! Ablation benches for the design choices DESIGN.md calls out:
//! RFC 9312 heuristics (the edge machine's `RAW` vs `ON_PATH` policy),
//! grease-filter threshold, reordering correction, and the VEC — each
//! evaluated on the same simulated flows.

use criterion::{criterion_group, criterion_main, Criterion};
use quicspin_core::{EdgeMachine, EdgePolicy, GreaseFilter, ObserverReport};
use quicspin_netsim::Side;
use quicspin_quic::{ConnectionLab, LabConfig, TransportConfig};

/// Generates a set of tap observation traces over increasingly reordered
/// paths.
fn traces(reorder: f64, vec_enabled: bool, n: usize) -> Vec<Vec<quicspin_core::PacketObservation>> {
    (0..n)
        .map(|i| {
            let base = TransportConfig::default();
            let cfg = LabConfig {
                path_rtt_ms: 40.0,
                reorder,
                jitter_ms: 1.0,
                seed: 1000 + i as u64,
                client: if vec_enabled {
                    base.clone().with_vec()
                } else {
                    base.clone()
                },
                server: if vec_enabled {
                    base.clone().with_vec()
                } else {
                    base
                },
                // A tight bottleneck makes the transfer rate-bound: the
                // stream is continuous, spin flips happen mid-stream, and
                // held-back packets cross edges — producing the bogus
                // ultra-short samples the heuristics exist to reject.
                link_rate_bytes_per_sec: Some(600_000),
                reorder_hold_ms: 8.0,
                ..LabConfig::default()
            };
            ConnectionLab::new(cfg).run().tap_observations(Side::Server)
        })
        .collect()
}

fn accuracy_of(observations: &[Vec<quicspin_core::PacketObservation>], policy: EdgePolicy) -> f64 {
    // Mean absolute error of per-flow mean RTT vs the true 40 ms.
    let mut err = 0.0;
    let mut n = 0;
    for trace in observations {
        let mut machine = EdgeMachine::new();
        for obs in trace {
            machine.observe(obs, &policy);
        }
        if let Some(mean) = machine.samples().mean_ms() {
            err += (mean - 40.0).abs();
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        err / n as f64
    }
}

fn ablation_heuristics(c: &mut Criterion) {
    let observations = traces(0.25, false, 40);
    println!(
        "\nAblation: RFC 9312 heuristics on a 25%-reordering bottleneck path (true RTT 40 ms)"
    );
    for (name, policy) in [("raw", EdgePolicy::RAW), ("on_path", EdgePolicy::ON_PATH)] {
        println!(
            "  {:<18} mean abs error {:6.2} ms",
            name,
            accuracy_of(&observations, policy)
        );
    }
    c.bench_function("ablation/heuristics_on_path", |b| {
        b.iter(|| accuracy_of(std::hint::black_box(&observations), EdgePolicy::ON_PATH))
    });
}

fn ablation_vec(c: &mut Criterion) {
    let observations = traces(0.25, true, 40);
    println!("\nAblation: VEC vs plain spin on a 25%-reordering bottleneck path (true RTT 40 ms)");
    let vec_validated = EdgePolicy {
        require_valid_edge: true,
        ..EdgePolicy::RAW
    };
    for (name, policy) in [
        ("plain_spin", EdgePolicy::RAW),
        ("vec_validated", vec_validated),
    ] {
        println!(
            "  {:<18} mean abs error {:6.2} ms",
            name,
            accuracy_of(&observations, policy)
        );
    }
    c.bench_function("ablation/vec_validated", |b| {
        b.iter(|| accuracy_of(std::hint::black_box(&observations), vec_validated))
    });
}

fn ablation_grease_threshold(c: &mut Criterion) {
    // Honest spinning flows plus per-packet greased flows; sweep the
    // filter threshold and report the classification split.
    let honest = traces(0.0, false, 20);
    let greased: Vec<Vec<quicspin_core::PacketObservation>> = (0..20)
        .map(|i| {
            let cfg = LabConfig {
                path_rtt_ms: 40.0,
                seed: 500 + i as u64,
                server: TransportConfig::default()
                    .with_spin_policy(quicspin_quic::SpinPolicy::GreasePerPacket),
                ..LabConfig::default()
            };
            ConnectionLab::new(cfg).run().tap_observations(Side::Server)
        })
        .collect();
    println!("\nAblation: grease-filter threshold factor (stack min = 40 ms)");
    for factor in [0.5, 1.0, 2.0] {
        let filter = GreaseFilter::with_factor(factor);
        let classify = |traces: &[Vec<quicspin_core::PacketObservation>]| {
            traces
                .iter()
                .filter(|t| {
                    let report = ObserverReport::build(t, vec![40_000], filter);
                    report.classification == quicspin_core::FlowClassification::Greased
                })
                .count()
        };
        println!(
            "  factor {:>4}: honest flagged {}/20, greased flagged {}/20",
            factor,
            classify(&honest),
            classify(&greased)
        );
    }
    c.bench_function("ablation/grease_classify", |b| {
        b.iter(|| {
            ObserverReport::build(
                std::hint::black_box(&greased[0]),
                vec![40_000],
                GreaseFilter::paper(),
            )
        })
    });
}

fn ablation_reorder_correction(c: &mut Criterion) {
    // R vs S divergence as the reorder rate grows — the §5.2 question.
    println!("\nAblation: reordering correction (R vs S) by link reorder rate");
    for reorder in [0.0, 0.01, 0.05, 0.15] {
        let mut differing = 0;
        let mut total = 0;
        for i in 0..30u64 {
            let cfg = LabConfig {
                path_rtt_ms: 40.0,
                reorder,
                seed: 9_000 + i,
                ..LabConfig::default()
            };
            let out = ConnectionLab::new(cfg).run();
            let report = out.observer_report();
            if report.classification.has_activity() {
                total += 1;
                if report.reordering_changed_result() {
                    differing += 1;
                }
            }
        }
        println!(
            "  reorder {:>5}: {}/{} spin-active connections differ R vs S",
            reorder, differing, total
        );
    }
    c.bench_function("ablation/reorder_comparison", |b| {
        let out = ConnectionLab::new(LabConfig {
            reorder: 0.05,
            ..LabConfig::default()
        })
        .run();
        b.iter(|| std::hint::black_box(&out).observer_report())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablation_heuristics, ablation_vec, ablation_grease_threshold, ablation_reorder_correction
}
criterion_main!(benches);
