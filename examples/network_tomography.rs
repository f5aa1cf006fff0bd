//! Network tomography with the spin bit (the §6 outlook: "assessing the
//! usefulness of the spin bit for practical applications, such as network
//! tomography").
//!
//! An in-network observer that sees both directions of a flow can split
//! the RTT into a client-side and a server-side component at its own
//! position. This example places taps at several points along the same
//! path, folds each capture through the on-path `FlowObserver` (one
//! spin-edge machine per direction plus the RFC 9312 §4.2.1 component
//! split), and shows the component split moving with the tap — plus a
//! pcap round-trip, since a real observer would work from captures.
//!
//! Run with: `cargo run --release --example network_tomography`

use quicspin::netsim::{read_pcap, write_pcap};
use quicspin::prelude::*;
use quicspin_observer::FlowObserver;

fn main() {
    println!("tap position | client-side | server-side | reconstructed RTT");
    for tap_position in [0.1, 0.5, 0.9] {
        let mut lab = ConnectionLab::new(LabConfig {
            path_rtt_ms: 80.0,
            tap_position: Some(tap_position),
            seed: 11,
            ..LabConfig::default()
        });
        let out = lab.run();

        // A real observer works from a capture: write + re-read pcap.
        let pcap = write_pcap(&out.tap_records);
        let records = read_pcap(&pcap).expect("own capture parses");

        let mut observer = FlowObserver::default();
        observer.ingest_tap_records(&records, 8, |_, _| {});

        // A lab holds one connection, so the tap sees at most one flow.
        let stats = observer.stats();
        let ms = |us: Option<u64>| us.map_or(f64::NAN, |us| us as f64 / 1000.0);
        let full = stats
            .client_side_mean_us
            .zip(stats.server_side_mean_us)
            .map(|(c, s)| c + s);
        println!(
            "        {:.1}  | {:>8.1} ms | {:>8.1} ms | {:>8.1} ms  ({} flow(s), {} measurable)",
            tap_position,
            ms(stats.client_side_mean_us),
            ms(stats.server_side_mean_us),
            ms(full),
            u8::from(stats.packets > 0),
            u8::from(stats.measurable),
        );
    }
    println!("\npath RTT is 80 ms; the component split follows the tap position");
    println!("while the reconstructed full RTT stays put — §6's tomography use case.");
}
