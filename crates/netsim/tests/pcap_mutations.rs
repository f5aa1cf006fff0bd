//! Mutation harness for the pcap reader, which parses captures a user
//! hands in (`read_pcap` accepts foreign files, not only its own).
//!
//! A lossy lab capture, written with its vantage, is truncated at every
//! length and mutated byte- and bit-wise under a seeded RNG. Every input
//! must come back as records or as a `PcapError`, never as a panic, and
//! the reader may allocate only what the input's length bounds: a record
//! costs at least 17 input bytes (its header and direction byte), so no
//! length field can make it reserve more.

use quicspin_netsim::pcap::{read_pcap_with_vantage, write_pcap_at};
use quicspin_netsim::{Rng, TapRecord, TAP_SNAP_LEN};
use quicspin_quic::{ConnectionLab, LabConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Mutated inputs per run.
const MUTATIONS: usize = 20_000;

/// Global header, and the least one record takes: its 16-byte header and
/// the direction byte.
const GLOBAL_HEADER: usize = 24;
const MIN_RECORD: usize = 17;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// Counts the bytes every allocation and reallocation of this thread
/// asks for (frees are not subtracted: the bound holds for the total).
struct CountingBytes;

fn note(bytes: usize) {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingBytes = CountingBytes;

/// A lossy, reordering lab's capture at mid-path.
fn lab_capture() -> Vec<u8> {
    let outcome = ConnectionLab::new(LabConfig {
        seed: 5,
        loss: 0.03,
        reorder: 0.05,
        jitter_ms: 2.0,
        ..LabConfig::default()
    })
    .run();
    write_pcap_at(&outcome.tap_records, Some(0.5))
}

/// Reads `bytes`, checking the error contract and the allocation bound;
/// returns whether the capture parsed.
fn check(bytes: &[u8]) -> bool {
    let before = ALLOCATED.with(Cell::get);
    let parsed = read_pcap_with_vantage(bytes);
    let allocated = ALLOCATED.with(Cell::get) - before;
    // A growing vector asks for at most twice its final capacity in
    // total, and that capacity is at most twice the records (at least 4).
    let records = bytes.len().saturating_sub(GLOBAL_HEADER) / MIN_RECORD;
    let bound = 4 * std::mem::size_of::<TapRecord>() * records.max(4);
    assert!(
        allocated <= bound,
        "{allocated} bytes allocated reading {} input bytes",
        bytes.len()
    );
    match parsed {
        Ok((records, vantage)) => {
            for record in &records {
                assert!(record.snap().len() <= TAP_SNAP_LEN);
                assert!(record.snap().len() <= record.datagram_len());
            }
            assert!(vantage.is_none_or(|p| p >= 0.0));
            true
        }
        Err(err) => {
            assert!(!err.to_string().is_empty());
            false
        }
    }
}

/// One random mutation of `buf`: a truncation, byte overwrites, bit
/// flips, or overwrites followed by a truncation.
fn mutate(buf: &mut Vec<u8>, rng: &mut Rng) {
    let kind = rng.next_below(4);
    if kind == 1 || kind == 3 {
        for _ in 0..=rng.next_below(4) {
            let at = rng.index(buf.len());
            buf[at] = rng.next_u64() as u8;
        }
    }
    if kind == 2 {
        for _ in 0..=rng.next_below(4) {
            let at = rng.index(buf.len());
            buf[at] ^= 1 << rng.next_below(8);
        }
    }
    if kind == 0 || kind == 3 {
        let len = rng.index(buf.len() + 1);
        buf.truncate(len);
    }
}

#[test]
fn every_truncation_reads_or_fails_cleanly() {
    let capture = lab_capture();
    assert!(check(&capture), "the lab's own capture parses");
    let mut parsed = 0usize;
    for len in 0..capture.len() {
        parsed += usize::from(check(&capture[..len]));
    }
    // Cuts at record boundaries parse; cuts inside a record do not.
    assert!(parsed > 0 && parsed < capture.len(), "{parsed} parsed");
}

#[test]
fn mutated_captures_read_or_fail_cleanly() {
    let capture = lab_capture();
    let mut rng = Rng::new(0x7063_6170);
    let mut buf = Vec::with_capacity(capture.len());
    let mut parsed = 0usize;
    for _ in 0..MUTATIONS {
        buf.clear();
        buf.extend_from_slice(&capture);
        mutate(&mut buf, &mut rng);
        parsed += usize::from(check(&buf));
    }
    // Both outcomes must actually occur, or the harness tests nothing.
    assert!(parsed > 0 && parsed < MUTATIONS, "{parsed} parsed");
}
