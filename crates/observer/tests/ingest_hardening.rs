//! Hardening of the observer's ingest path against hostile captures.
//!
//! An on-path observer sees whatever crosses the wire: truncated
//! datagrams, corrupted bytes, and (from a badly merged capture) times
//! that run backwards. Seeded truncations and mutations of the header
//! snaps a lab tap captured must never panic the fold, and every record
//! must be accounted for — either observed or counted as unobservable.

use proptest::TestRng;
use quicspin_netsim::{SimTime, TapRecord};
use quicspin_observer::FlowObserver;
use quicspin_quic::{ConnectionLab, LabConfig, LabOutcome, CID_LEN};

const ROUNDS: usize = 200;

fn lab_capture(seed: u64) -> LabOutcome {
    ConnectionLab::new(LabConfig {
        seed,
        loss: 0.02,
        reorder: 0.05,
        jitter_ms: 2.0,
        tap_position: Some(0.5),
        ..LabConfig::default()
    })
    .run()
}

/// Folds `records`; panics (failing the test) if any record is lost.
fn fold_accounts_for_every_record(records: &[TapRecord]) {
    let mut flow = FlowObserver::default();
    let mut samples = 0u64;
    flow.ingest_tap_records(records, CID_LEN, |_, _| samples += 1);
    let stats = flow.stats();
    assert_eq!(stats.packets + stats.unobservable, records.len() as u64);
    assert_eq!(samples, stats.samples + stats.samples_upstream);
}

fn with_snap(record: &TapRecord, snap: &[u8]) -> TapRecord {
    TapRecord::from_snap(record.time, record.from, snap, record.datagram_len())
}

fn at_time(record: &TapRecord, time: SimTime) -> TapRecord {
    let mut moved = *record;
    moved.time = time;
    moved
}

#[test]
fn truncated_datagrams_never_panic() {
    let outcome = lab_capture(3);
    assert!(!outcome.tap_records.is_empty());
    let mut rng = TestRng::from_name("observer_ingest_truncations");
    for _ in 0..ROUNDS {
        let records: Vec<TapRecord> = outcome
            .tap_records
            .iter()
            .map(|r| {
                let keep = (rng.next_u64() % (r.snap().len() as u64 + 1)) as usize;
                with_snap(r, &r.snap()[..keep])
            })
            .collect();
        fold_accounts_for_every_record(&records);
    }
}

#[test]
fn one_byte_mutations_never_panic() {
    let outcome = lab_capture(5);
    let mut rng = TestRng::from_name("observer_ingest_mutations");
    for _ in 0..ROUNDS {
        let records: Vec<TapRecord> = outcome
            .tap_records
            .iter()
            .map(|r| {
                let mut bytes = r.snap().to_vec();
                if !bytes.is_empty() {
                    let at = (rng.next_u64() % bytes.len() as u64) as usize;
                    bytes[at] = rng.next_u64() as u8;
                }
                with_snap(r, &bytes)
            })
            .collect();
        fold_accounts_for_every_record(&records);
    }
}

#[test]
fn shuffled_times_never_panic() {
    let outcome = lab_capture(7);
    let mut rng = TestRng::from_name("observer_ingest_shuffled_times");
    let mut times: Vec<SimTime> = outcome.tap_records.iter().map(|r| r.time).collect();
    for _ in 0..ROUNDS {
        // Fisher–Yates over the capture's times: the packets keep their
        // order and bytes, the clock runs backwards and forwards.
        for i in (1..times.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            times.swap(i, j);
        }
        let records: Vec<TapRecord> = outcome
            .tap_records
            .iter()
            .zip(&times)
            .map(|(r, &time)| at_time(r, time))
            .collect();
        fold_accounts_for_every_record(&records);
    }
}

#[test]
fn extreme_times_never_panic() {
    // Edges at 0 and u64::MAX µs: periods and sums saturate.
    let outcome = lab_capture(9);
    let records: Vec<TapRecord> = outcome
        .tap_records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            at_time(
                r,
                SimTime::from_nanos(if i % 2 == 0 { 0 } else { u64::MAX }),
            )
        })
        .collect();
    fold_accounts_for_every_record(&records);
}
