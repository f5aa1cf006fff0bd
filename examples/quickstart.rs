//! Quickstart: simulate one QUIC connection, watch its spin bit from the
//! middle of the network, and compare the passive RTT estimate to the
//! stack's own.
//!
//! Run with: `cargo run --release --example quickstart`

use quicspin::netsim::Side;
use quicspin::prelude::*;
use quicspin::quic::ServerProfile;

fn main() {
    // A 40 ms path to a server that takes 120 ms to produce its response
    // and pauses between output chunks — a typical loaded shared-hosting
    // box, the population the paper finds most spin-bit support in.
    let mut lab = ConnectionLab::new(LabConfig {
        path_rtt_ms: 40.0,
        server_profile: ServerProfile {
            initial_delay: quicspin::netsim::SimDuration::from_millis(120),
            chunks: vec![
                (quicspin::netsim::SimDuration::ZERO, 12_000),
                (quicspin::netsim::SimDuration::from_millis(60), 12_000),
                (quicspin::netsim::SimDuration::from_millis(60), 12_000),
            ],
        },
        ..LabConfig::default()
    });
    let outcome = lab.run();

    println!("handshake completed : {}", outcome.handshake_completed);
    println!("response bytes      : {}", outcome.response_bytes);
    println!(
        "finished at         : {:.1} ms (virtual time)",
        outcome.finished_at.as_millis_f64()
    );

    // What the client's own qlog recorded (the paper's §3.3 extraction).
    println!("\nreceived 1-RTT packets (time, pn, spin):");
    for (t, pn, spin) in outcome.client_qlog.spin_observations() {
        println!(
            "  {:>8.1} ms  pn={:<3} spin={}",
            t as f64 / 1000.0,
            pn,
            u8::from(spin)
        );
    }

    // The passive observer's verdict.
    let report = outcome.observer_report();
    println!("\nclassification      : {}", report.classification);
    println!(
        "spin RTT mean       : {:.1} ms ({} samples)",
        report.spin_rtt_mean_ms().unwrap_or(0.0),
        report.spin_samples_received_us.len()
    );
    println!(
        "stack RTT mean      : {:.1} ms ({} samples)",
        report.stack_rtt_mean_ms().unwrap_or(0.0),
        report.stack_samples_us.len()
    );
    if let Some(acc) = report.accuracy_received() {
        println!(
            "abs diff / ratio    : {:+.1} ms / {:+.2}x  (end-host delays inflate the spin signal)",
            acc.abs_diff_ms(),
            acc.mapped_ratio()
        );
    }

    // An on-path tap sees the same square wave without packet numbers.
    let tap = outcome.tap_observations(Side::Server);
    println!("\ntap saw {} server→client 1-RTT packets", tap.len());
    let (observer, _) = EdgeMachine::fold(&tap, &EdgePolicy::RAW);
    println!(
        "tap spin RTT mean   : {:.1} ms ({} edges)",
        observer.samples().mean_ms().unwrap_or(0.0),
        observer.edges()
    );
}
