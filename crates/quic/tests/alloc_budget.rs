//! Allocation budget of one lab run.
//!
//! A scan loop runs millions of labs on one warmed `LabScratch` per
//! worker, so what a lab allocates per packet is what the loop pays per
//! packet. The packet path itself (encode, decode, ACK ranges, the sent
//! ledger, reassembly, the event queue) allocates nothing once warm; what
//! remains is per-datagram `Payload` handles (the tap shares each one)
//! and each connection's fixed set-up. These tests pin that at two
//! allocations per packet at most. The count is deterministic: the
//! counter is per thread and the lab is seeded.

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
        allocs <= 2 * packets,
        "{name}: {allocs} allocations for {packets} packets exceeds 2 per packet"
    );
    assert_eq!(
        allocations_per_run(cfg),
        (allocs, packets),
        "{name}: the count must be deterministic"
    );
}

#[test]
fn default_lab_allocates_at_most_two_per_packet() {
    assert_within_budget("LabConfig::default()", &LabConfig::default());
}

#[test]
fn large_instant_response_allocates_at_most_two_per_packet() {
    let cfg = LabConfig {
        server_profile: ServerProfile::instant(120_000),
        ..LabConfig::default()
    };
    assert_within_budget("ServerProfile::instant(120_000)", &cfg);
}
