//! Allocation budget of one lab run.
//!
//! A scan loop runs millions of labs on one warmed `LabScratch` per
//! worker, so what a lab allocates per packet is what the loop pays per
//! packet. The packet path itself (encode, decode, ACK ranges, the sent
//! ledger, reassembly, the event queue) allocates nothing once warm. A
//! datagram travels in the buffer its sender built it in, the tap keeps
//! only a fixed-size snap of it, and the receiver recycles the buffer
//! into its own pool; after a run the client hands its surplus buffers
//! to the server, and each connection's pooled buffers pre-stock the next
//! run. What remains is each connection's fixed set-up and the sends a
//! pool cannot serve. These tests pin that at one allocation per four
//! packets at most, with the tap on and off. The count is deterministic:
//! the counter is per thread and the lab is seeded.

mod counting;

use counting::allocations;
use quicspin_quic::{ConnectionLab, LabConfig, LabScratch, ServerProfile};

/// Allocations of one lab run on a scratch warmed by two earlier runs of
/// the same configuration, and the packets it sent.
fn allocations_per_run(cfg: &LabConfig) -> (u64, u64) {
    let mut scratch = LabScratch::default();
    for _ in 0..2 {
        let outcome = ConnectionLab::new(cfg.clone()).run_with_scratch(&mut scratch);
        scratch.reclaim(outcome);
    }
    let mut lab = ConnectionLab::new(cfg.clone());
    let (outcome, allocs) = allocations(|| lab.run_with_scratch(&mut scratch));
    assert!(outcome.response_complete, "the exchange must finish");
    let packets = outcome.stats.path.total_sent();
    scratch.reclaim(outcome);
    (allocs, packets)
}

fn assert_within_budget(name: &str, cfg: &LabConfig) {
    let (allocs, packets) = allocations_per_run(cfg);
    println!("{name}: {allocs} allocations for {packets} packets");
    assert!(
        4 * allocs <= packets,
        "{name}: {allocs} allocations for {packets} packets exceeds one per four packets"
    );
    assert_eq!(
        allocations_per_run(cfg),
        (allocs, packets),
        "{name}: the count must be deterministic"
    );
}

#[test]
fn default_lab_allocates_at_most_one_per_four_packets() {
    assert_within_budget("LabConfig::default()", &LabConfig::default());
}

#[test]
fn untapped_lab_allocates_at_most_one_per_four_packets() {
    let cfg = LabConfig {
        tap_position: None,
        ..LabConfig::default()
    };
    assert_within_budget("LabConfig { tap_position: None }", &cfg);
}

#[test]
fn large_instant_response_allocates_at_most_one_per_four_packets() {
    let cfg = LabConfig {
        server_profile: ServerProfile::instant(120_000),
        ..LabConfig::default()
    };
    assert_within_budget("ServerProfile::instant(120_000)", &cfg);
}
