//! Passive on-path observation with robustness heuristics and the VEC.
//!
//! A network operator's view: no qlog, no packet numbers — only the spin
//! bit (and optionally the Valid Edge Counter) on short-header packets
//! crossing a tap. Demonstrates the Fig. 1b reordering failure mode, the
//! RFC 9312 heuristics of the on-path edge policy that mitigate it, and
//! the VEC alternative that never made it into RFC 9000.
//!
//! Run with: `cargo run --release --example passive_observer`

use quicspin::core::{EdgeMachine, EdgePolicy};
use quicspin::netsim::Side;
use quicspin::prelude::*;

fn observe(
    observations: &[quicspin::core::PacketObservation],
    policy: EdgePolicy,
) -> (u64, Option<f64>, u64) {
    let (machine, _) = EdgeMachine::fold(observations, &policy);
    (
        machine.samples().count(),
        machine.samples().mean_ms(),
        machine.rejected_reorder() + machine.rejected_gap(),
    )
}

fn main() {
    // A heavily reordering path: 8 % of packets get held back long enough
    // to be overtaken — far worse than anything the paper saw, to make
    // the heuristics visible.
    let mut lab = ConnectionLab::new(LabConfig {
        path_rtt_ms: 50.0,
        reorder: 0.08,
        jitter_ms: 2.0,
        seed: 7,
        client: TransportConfig::default().with_vec(),
        server: TransportConfig::default().with_vec(),
        ..LabConfig::default()
    });
    let outcome = lab.run();
    let tap = outcome.tap_observations(Side::Server);
    println!("tap captured {} server→client 1-RTT packets\n", tap.len());

    let policies: [(&str, EdgePolicy); 3] = [
        ("baseline (raw edges)", EdgePolicy::RAW),
        (
            "on-path: [0.25x, 4x] of 16-period median",
            EdgePolicy::ON_PATH,
        ),
        (
            "VEC: saturated edges only",
            EdgePolicy {
                require_valid_edge: true,
                ..EdgePolicy::RAW
            },
        ),
    ];

    println!(
        "{:<44} {:>8} {:>12} {:>9}",
        "observer", "samples", "mean RTT", "rejected"
    );
    for (name, policy) in policies {
        let (n, mean, rejected) = observe(&tap, policy);
        println!(
            "{:<44} {:>8} {:>9.1} ms {:>9}",
            name,
            n,
            mean.unwrap_or(0.0),
            rejected
        );
    }

    println!(
        "\nground truth: path RTT 50.0 ms; stack measured {:.1} ms",
        outcome
            .client_stack_samples_us
            .iter()
            .min()
            .map(|&v| v as f64 / 1000.0)
            .unwrap_or(0.0)
    );
}
