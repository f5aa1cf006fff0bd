//! End-to-end parity of the on-path observer against the measuring
//! client, over real connection-lab runs.
//!
//! The acceptance property of the observatory: on a clean path (no loss,
//! no reordering, no jitter) the observer's downstream RTT sample stream
//! is *exactly* the client's own spin RTT stream — same length, same
//! values, one-to-one. Every heuristic of the default policy must stay
//! silent on such a path.

use quicspin_core::{Direction, EdgePolicy};
use quicspin_observer::FlowObserver;
use quicspin_quic::{ConnectionLab, LabConfig, LabOutcome};

fn clean_run(seed: u64, rtt_ms: f64, tap: f64) -> LabOutcome {
    let outcome = ConnectionLab::new(LabConfig {
        path_rtt_ms: rtt_ms,
        seed,
        tap_position: Some(tap),
        ..LabConfig::default()
    })
    .run();
    assert!(outcome.handshake_completed, "clean lab must establish");
    outcome
}

/// Folds the tap capture under `policy`; returns the observer and its
/// downstream sample stream.
fn fold(outcome: &LabOutcome, policy: EdgePolicy) -> (FlowObserver, Vec<u64>) {
    let mut flow = FlowObserver::new(policy);
    let mut downstream = Vec::new();
    flow.ingest_tap_records(&outcome.tap_records, outcome.cid_len, |dir, sample| {
        if dir == Direction::Downstream {
            downstream.push(sample);
        }
    });
    (flow, downstream)
}

fn observer_over(outcome: &LabOutcome) -> (FlowObserver, Vec<u64>) {
    fold(outcome, EdgePolicy::ON_PATH)
}

#[test]
fn clean_path_observer_matches_client_one_to_one() {
    for seed in [1, 7, 23, 99] {
        for rtt_ms in [20.0, 40.0, 90.0] {
            for tap in [0.0, 0.3, 0.5, 0.8, 1.0] {
                let outcome = clean_run(seed, rtt_ms, tap);
                let client = outcome.observer_report().spin_samples_received_us;
                let (flow, samples) = observer_over(&outcome);
                assert_eq!(samples, client, "seed {seed} rtt {rtt_ms} tap {tap}");
                let stats = flow.stats();
                assert_eq!(stats.rejected_reorder, 0, "clean path, seed {seed}");
                assert_eq!(stats.rejected_gap, 0, "clean path, seed {seed}");
                assert!(stats.measurable || client.is_empty());
            }
        }
    }
}

#[test]
fn observer_fold_is_deterministic() {
    let a = observer_over(&clean_run(5, 40.0, 0.25)).0.stats();
    let b = observer_over(&clean_run(5, 40.0, 0.25)).0.stats();
    assert_eq!(a, b);
}

#[test]
fn long_headers_are_counted_but_never_parsed() {
    let outcome = clean_run(3, 40.0, 0.5);
    let (flow, _) = observer_over(&outcome);
    let stats = flow.stats();
    // The tap sits mid-path for the whole connection, so it crossed the
    // handshake flights too — those datagrams must all have been refused
    // by the privacy boundary, not silently dropped.
    assert!(stats.unobservable > 0, "handshake crossed the tap");
    assert_eq!(
        stats.packets + stats.unobservable,
        outcome.tap_records.len() as u64
    );
}

#[test]
fn component_split_sums_to_the_full_rtt() {
    let outcome = clean_run(11, 60.0, 0.5);
    let (flow, _) = observer_over(&outcome);
    let stats = flow.stats();
    let (Some(server_us), Some(client_us), Some(mean_us)) = (
        stats.server_side_mean_us,
        stats.client_side_mean_us,
        stats.mean_us,
    ) else {
        panic!("spinning flow must yield component samples");
    };
    // Components are means over slightly different edge subsets, so allow
    // a small tolerance around the full-RTT mean.
    let sum = (server_us + client_us) as f64;
    let full = mean_us as f64;
    assert!(
        (sum - full).abs() / full < 0.2,
        "components {server_us}+{client_us} vs full {mean_us}"
    );
}

#[test]
fn permissive_and_default_policies_agree_on_clean_paths() {
    let outcome = clean_run(17, 30.0, 0.4);
    let (_, strict) = fold(&outcome, EdgePolicy::ON_PATH);
    let (_, raw) = fold(&outcome, EdgePolicy::RAW);
    assert_eq!(strict, raw);
}

proptest::proptest! {
    /// The one-to-one parity holds across seeds, RTTs and tap positions.
    #[test]
    fn prop_clean_path_parity(
        seed in 1u64..400,
        rtt_decims in 50u64..1500,
        tap_percent in 0u64..=100,
    ) {
        let rtt_ms = rtt_decims as f64 / 10.0;
        let tap = tap_percent as f64 / 100.0;
        let outcome = clean_run(seed, rtt_ms, tap);
        let client = outcome.observer_report().spin_samples_received_us;
        let (_, samples) = observer_over(&outcome);
        proptest::prop_assert_eq!(samples, client);
    }
}
