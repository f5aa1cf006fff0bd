//! Cross-crate integration: RFC 9000 §17.4 spin semantics observed
//! end-to-end through the wire format, the endpoints, the simulated path
//! and both observation channels (client qlog and on-path tap).

use quicspin::core::{EdgeMachine, EdgePolicy, FlowClassification};
use quicspin::netsim::{Side, SimDuration};
use quicspin::prelude::*;
use quicspin::quic::ServerProfile;

fn lab(config: LabConfig) -> quicspin::quic::LabOutcome {
    ConnectionLab::new(config).run()
}

#[test]
fn spin_square_wave_has_rtt_wavelength() {
    for rtt in [20.0, 60.0, 150.0] {
        let out = lab(LabConfig {
            path_rtt_ms: rtt,
            ..LabConfig::default()
        });
        let report = out.observer_report();
        assert_eq!(report.classification, FlowClassification::Spinning);
        let mean = report.spin_rtt_mean_ms().unwrap();
        assert!(
            mean >= rtt * 0.98 && mean <= rtt * 2.0,
            "rtt {rtt}: spin mean {mean} should sit at/above the path RTT"
        );
    }
}

#[test]
fn qlog_and_tap_observers_agree_on_edge_count() {
    let out = lab(LabConfig::default());
    // qlog-based (client received packets) and tap-based (server→client
    // direction at mid-path) must see the same spin signal.
    let (qlog_observer, _) = EdgeMachine::fold(&out.client_observations(), &EdgePolicy::RAW);
    let (tap_observer, _) =
        EdgeMachine::fold(&out.tap_observations(Side::Server), &EdgePolicy::RAW);
    assert_eq!(
        qlog_observer.edges(),
        tap_observer.edges(),
        "same flips on the same flow"
    );
    let qlog_mean = qlog_observer.samples().mean_ms().unwrap();
    let tap_mean = tap_observer.samples().mean_ms().unwrap();
    assert!(
        (qlog_mean - tap_mean).abs() < 1.0,
        "qlog {qlog_mean} ms vs tap {tap_mean} ms"
    );
}

#[test]
fn every_disable_policy_shows_expected_classification() {
    let cases = [
        (SpinPolicy::FixedZero, FlowClassification::AllZero),
        (SpinPolicy::FixedOne, FlowClassification::AllOne),
        (SpinPolicy::GreasePerPacket, FlowClassification::Greased),
    ];
    for (policy, expected) in cases {
        let out = lab(LabConfig {
            server: TransportConfig::default().with_spin_policy(policy),
            ..LabConfig::default()
        });
        let report = out.observer_report();
        assert_eq!(report.classification, expected, "policy {policy:?}");
    }
}

#[test]
fn per_connection_grease_looks_like_fixed_value() {
    // Per-connection greasing is indistinguishable from a fixed value on
    // a single connection (§4.3) — it must land in AllZero or AllOne,
    // never in Spinning.
    for seed in 0..8 {
        let out = lab(LabConfig {
            seed,
            server: TransportConfig::default().with_spin_policy(SpinPolicy::GreasePerConnection),
            ..LabConfig::default()
        });
        let report = out.observer_report();
        assert!(
            matches!(
                report.classification,
                FlowClassification::AllZero | FlowClassification::AllOne
            ),
            "seed {seed}: got {:?}",
            report.classification
        );
    }
}

#[test]
fn end_host_delay_inflates_spin_but_not_stack() {
    // The §6 mechanism: server thinking time stretches the spin period
    // while the ACK-based stack estimate stays at the path RTT.
    let out = lab(LabConfig {
        path_rtt_ms: 40.0,
        server_profile: ServerProfile {
            initial_delay: SimDuration::from_millis(250),
            chunks: vec![
                (SimDuration::ZERO, 12_000),
                (SimDuration::from_millis(120), 12_000),
                (SimDuration::from_millis(120), 12_000),
            ],
        },
        ..LabConfig::default()
    });
    let report = out.observer_report();
    let acc = report.accuracy_received().unwrap();
    assert!(acc.overestimates());
    assert!(
        acc.mapped_ratio() > 2.0,
        "spin ≫ stack expected, ratio {}",
        acc.mapped_ratio()
    );
    let stack_min = *report.stack_samples_us.iter().min().unwrap() as f64 / 1000.0;
    assert!(
        (stack_min - 40.0).abs() < 5.0,
        "stack stays at path RTT: {stack_min} ms"
    );
}

#[test]
fn vec_rides_reserved_bits_end_to_end() {
    // A longer transfer so the VEC chain saturates and several validated
    // edges appear (one RTT sample needs two valid edges).
    let out = lab(LabConfig {
        client: TransportConfig::default().with_vec(),
        server: TransportConfig::default().with_vec(),
        server_profile: ServerProfile {
            initial_delay: SimDuration::from_millis(5),
            chunks: (0..8)
                .map(|i| {
                    (
                        if i == 0 {
                            SimDuration::ZERO
                        } else {
                            SimDuration::from_millis(2)
                        },
                        12_000,
                    )
                })
                .collect(),
        },
        ..LabConfig::default()
    });
    let tap = out.tap_observations(Side::Server);
    assert!(
        tap.iter().any(|o| o.vec >= 2),
        "an incremented VEC must appear on server→client edges"
    );
    // The counter saturates somewhere on the loop (the client's second
    // edge carries VEC 3 after 1.5 clean round trips).
    let both_dirs: Vec<_> = out
        .tap_observations(Side::Client)
        .into_iter()
        .chain(tap.iter().cloned())
        .collect();
    assert!(
        both_dirs.iter().any(|o| o.vec == 3),
        "a saturated VEC must appear on a clean exchange"
    );
    // VEC-validated observation still measures the RTT.
    let vec_policy = EdgePolicy {
        require_valid_edge: true,
        ..EdgePolicy::RAW
    };
    let (observer, _) = EdgeMachine::fold(&tap, &vec_policy);
    assert!(
        observer.samples().mean_ms().is_some(),
        "VEC-validated samples exist"
    );
}

#[test]
fn lab_runs_are_deterministic_across_invocations() {
    let run = || {
        let out = lab(LabConfig {
            seed: 99,
            loss: 0.01,
            jitter_ms: 2.0,
            reorder: 0.01,
            ..LabConfig::default()
        });
        (
            out.response_bytes,
            out.client_qlog.spin_observations(),
            out.client_stack_samples_us,
            out.finished_at,
        )
    };
    assert_eq!(run(), run());
}
