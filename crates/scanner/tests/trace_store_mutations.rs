//! Mutation harness for the trace-store reader: `spinctl trace` reads a
//! slot's offset and length out of `anomalies.json` and then bytes out
//! of `traces.bin`, and either file may be damaged or foreign.
//!
//! A flight-recorded campaign's `traces.bin` is truncated and mutated
//! byte- and bit-wise under a seeded RNG, and read through slots that are
//! the index's own, nudged, or arbitrary (huge, past the end, or
//! overflowing). Every case must come back as bytes or a trace, or as an
//! error, never as a panic. Reading a slot may allocate only the slot's
//! length, and only once the slot lies inside the file; a slot that does
//! not allocates nothing for it at all.

use quicspin_netsim::Rng;
use quicspin_qlog::LoggedEvent;
use quicspin_scanner::{
    read_anomaly_index, read_flagged_trace, read_trace_slot, write_flight_recording,
    CampaignConfig, FlightConfig, NetworkConditions, Scanner, TraceSlot, TRACE_STORE_FILE_NAME,
};
use quicspin_webpop::{Population, PopulationConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// Mutated cases per run.
const MUTATIONS: usize = 20_000;

/// What a read may allocate besides the slot itself: the store's path,
/// the open call's copy of it and an error message naming it.
const SLACK: usize = 4_096;

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

/// Bytes allocated on this thread while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// A lossy, flight-recorded campaign's artifacts in a fresh directory
/// named after `tag`, with the index's trace slots.
fn recorded_store(tag: &str) -> (PathBuf, Vec<TraceSlot>) {
    let dir = std::env::temp_dir().join(format!("quicspin-qsfs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let population = Population::generate(PopulationConfig {
        seed: 17,
        toplist_domains: 60,
        zone_domains: 340,
    });
    let mut flight = FlightConfig::armed(17);
    flight.baseline_sample_every = 8;
    flight.retention_budget_bytes = 12 << 10;
    let config = CampaignConfig {
        conditions: NetworkConditions {
            loss: 0.05,
            ..NetworkConditions::default()
        },
        flight,
        ..CampaignConfig::default()
    };
    let (_, recording) = Scanner::new(&population).run_campaign_flight(&config);
    write_flight_recording(&dir, &recording).expect("write the flight recording");
    let slots = read_anomaly_index(&dir).expect("read the index").traces;
    assert!(slots.len() > 2, "{} retained traces", slots.len());
    (dir, slots)
}

/// Reads `slot` from the store in `dir`, whose file is `file_len` bytes
/// long, checking the error contract and the allocation bounds; returns
/// whether the slot decoded to a trace.
fn check(dir: &Path, file_len: u64, slot: &TraceSlot) -> bool {
    let inside = slot
        .offset
        .checked_add(slot.len)
        .is_some_and(|hi| hi <= file_len);
    let (read, allocated) = allocated_by(|| read_trace_slot(dir, slot));
    match &read {
        Ok(bytes) => {
            assert!(inside, "slot {slot:?} read past a {file_len}-byte file");
            assert_eq!(bytes.len() as u64, slot.len);
        }
        Err(err) => assert!(!err.to_string().contains('\n'), "{err}"),
    }
    let len = if inside { slot.len as usize } else { 0 };
    assert!(
        allocated <= len + SLACK,
        "{allocated} bytes allocated reading slot {slot:?} of a {file_len}-byte file"
    );

    // Decoding reserves at most one event per two input bytes (an event
    // is a time varint and a tag at least) and copies strings out of the
    // input, so it stays within a bound of the slot's length too.
    let (decoded, allocated) = allocated_by(|| read_flagged_trace(dir, slot));
    let bound = 2 * len + std::mem::size_of::<LoggedEvent>() * (len / 2 + 1) + 2 * SLACK;
    assert!(
        allocated <= bound,
        "{allocated} bytes allocated decoding slot {slot:?} of a {file_len}-byte file"
    );
    match decoded {
        Ok(_) => {
            assert!(read.is_ok());
            true
        }
        Err(err) => {
            assert!(!err.to_string().contains('\n'), "{err}");
            false
        }
    }
}

/// One random mutation of `buf`: a truncation, byte overwrites, bit
/// flips, overwrites followed by a truncation, or none.
fn mutate(buf: &mut Vec<u8>, rng: &mut Rng) {
    let kind = rng.next_below(5);
    if (kind == 1 || kind == 3) && !buf.is_empty() {
        for _ in 0..=rng.next_below(4) {
            let at = rng.index(buf.len());
            buf[at] = rng.next_u64() as u8;
        }
    }
    if kind == 2 && !buf.is_empty() {
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

/// A slot to read: one of the index's, nudged, or arbitrary.
fn pick_slot(slots: &[TraceSlot], file_len: u64, rng: &mut Rng) -> TraceSlot {
    let arbitrary = |rng: &mut Rng| match rng.next_below(4) {
        0 => rng.next_below(64),
        1 => rng.next_below(file_len + 64),
        2 => u64::MAX - rng.next_below(64),
        _ => rng.next_u64(),
    };
    let mut slot = slots[rng.index(slots.len())];
    match rng.next_below(4) {
        0 => {}
        1 => slot.len = arbitrary(rng),
        2 => slot.offset = arbitrary(rng),
        _ => {
            slot.offset = arbitrary(rng);
            slot.len = arbitrary(rng);
        }
    }
    slot
}

#[test]
fn every_truncation_reads_or_fails_cleanly() {
    let (dir, slots) = recorded_store("cut");
    let path = dir.join(TRACE_STORE_FILE_NAME);
    let store = std::fs::read(&path).unwrap();
    for slot in &slots {
        assert!(check(&dir, store.len() as u64, slot), "own slot {slot:?}");
    }
    let slot = slots[0];
    let mut decoded = 0usize;
    for len in 0..store.len() {
        std::fs::write(&path, &store[..len]).unwrap();
        decoded += usize::from(check(&dir, len as u64, &slot));
    }
    // Cuts after the slot's end keep it readable; earlier cuts do not.
    assert_eq!(
        decoded as u64,
        store.len() as u64 - (slot.offset + slot.len)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mutated_stores_and_slots_read_or_fail_cleanly() {
    let (dir, slots) = recorded_store("mutate");
    let path = dir.join(TRACE_STORE_FILE_NAME);
    let store = std::fs::read(&path).unwrap();
    let mut rng = Rng::new(0x5153_4653);
    let mut buf = Vec::with_capacity(store.len());
    let mut decoded = 0usize;
    for _ in 0..MUTATIONS {
        buf.clear();
        buf.extend_from_slice(&store);
        mutate(&mut buf, &mut rng);
        std::fs::write(&path, &buf).unwrap();
        let slot = pick_slot(&slots, buf.len() as u64, &mut rng);
        decoded += usize::from(check(&dir, buf.len() as u64, &slot));
    }
    // Both outcomes must actually occur, or the harness tests nothing.
    assert!(decoded > 0 && decoded < MUTATIONS, "{decoded} decoded");
    let _ = std::fs::remove_dir_all(&dir);
}
