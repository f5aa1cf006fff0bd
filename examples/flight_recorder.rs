//! The campaign flight recorder end to end: arm it on a sweep, inspect
//! what it flagged (the paper's Fig. 3 divergence tail, impossible spin
//! edges, classification flips across redirects, handshake failures,
//! stage outliers past fixed virtual-time bands), and write the
//! artifacts that `spinctl` reads back.
//!
//! Usage: `cargo run --release --example flight_recorder [domains]`
//! (default 2000; artifacts land in `target/flight-example/`).

use quicspin::scanner::{
    write_flight_recording, write_run_manifest, CampaignConfig, FlightConfig, Scanner,
};
use quicspin::webpop::{Population, PopulationConfig};
use std::path::Path;
use std::time::Duration;

fn main() {
    let domains: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    let population = Population::generate(PopulationConfig {
        seed: 0xf11e,
        toplist_domains: domains / 8,
        zone_domains: domains - domains / 8,
    });
    let scanner = Scanner::new(&population);

    // A healthy baseline sample of every 64th domain, so the store is
    // not only pathologies.
    let mut flight = FlightConfig::armed(0x5eed_2023);
    flight.baseline_sample_every = 64;
    let config = CampaignConfig {
        flight,
        ..CampaignConfig::default()
    };
    // Stream the sweep (no record vector), counting rows as batches
    // arrive; `0` leaves resident record bytes unbounded.
    let mut rows = 0u64;
    let (recording, manifest) = scanner.run_campaign_streamed_flight_with_progress(
        &config,
        0,
        Duration::from_secs(2),
        |line| eprintln!("{line}"),
        |batch| rows += batch.len() as u64,
    );

    println!(
        "campaign {}: {} records, {} anomalies on {} probes",
        recording.campaign_id(),
        rows,
        recording.anomalies().len(),
        recording.flagged_traces()
    );
    let index = recording.index();
    for (kind, count) in index.counts_by_kind() {
        println!("  {:<20} {count}", kind.name());
    }
    println!(
        "retained {} traces ({} B), evicted {}",
        index.retained_traces, index.retained_bytes, index.evicted_traces
    );

    let dir = Path::new("target/flight-example");
    match write_run_manifest(dir, &manifest) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write manifest: {e}"),
    }
    match write_flight_recording(dir, &recording) {
        Ok((index_path, store_path)) => {
            println!("wrote {}", index_path.display());
            println!("wrote {}", store_path.display());
            println!(
                "inspect with: cargo run -p quicspin-spinctl --bin spinctl -- summary --dir {}",
                dir.display()
            );
        }
        Err(e) => eprintln!("could not write recording: {e}"),
    }
}
