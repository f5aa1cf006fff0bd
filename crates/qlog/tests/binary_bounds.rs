//! The binary trace reader trusts no length the input gives it: memory
//! stays bounded by the input's size, and an absurd length is an error,
//! never an arithmetic overflow.
//!
//! A counting global allocator measures what one decode allocates on
//! the calling thread (a thread-local tally, so tests running in
//! parallel do not disturb each other).

use quicspin_qlog::{decode_trace, BinaryError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract is exactly the one `System` needs;
// the tally touches only a const-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|c| c.set(c.get() + layout.size()));
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as our caller guarantees.
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATED.try_with(|c| c.set(c.get() + new_size));
        // SAFETY: forwarded from our caller, who upholds `realloc`'s
        // contract for a block `System` allocated.
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated on this thread while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

#[test]
fn huge_event_count_allocates_by_input_length() {
    // 10 bytes: header, empty vantage and title, then an event count of
    // 2^21 - 1 with no events behind it.
    let input = b"QSPN\x01\x00\x00\xff\xff\x7f";
    assert_eq!(input.len(), 10);
    let (result, bytes) = allocated_by(|| decode_trace(input));
    assert_eq!(result, Err(BinaryError::Truncated));
    assert!(bytes < 64 * 1024, "10-byte input allocated {bytes} bytes");
}

#[test]
fn huge_string_length_is_an_error() {
    // The vantage length is a 10-byte varint close to u64::MAX: adding it
    // to the read offset must not overflow.
    let mut input = b"QSPN\x01".to_vec();
    input.extend_from_slice(&[0xff; 9]);
    input.push(0x01);
    assert_eq!(decode_trace(&input), Err(BinaryError::Truncated));
}
