//! Discrete-event scheduling with stable FIFO tie-breaking.
//!
//! [`EventQueue`] is a binary min-heap keyed on `(time, insertion
//! order)`: events pop in time order, and events due at the same instant
//! pop in the order they were pushed. `clear()` resets the queue so it
//! schedules exactly like a fresh one, which is what lets the simulator
//! reuse one queue across probes without perturbing determinism.
//!
//! The heap is sized to what a probe asks of it. A lab run holds a few
//! dozen events at once (`PathStats::queue_high_water`: at most 193 on
//! every benchmark workload), where the heap's `log n` sift is a handful
//! of comparisons over one contiguous array. On the push/pop trace of two
//! recorded lossy labs it ran 2.3× faster than the hierarchical timing
//! wheel it replaced (`BENCH_EVENT_QUEUE.json`, `lab_trace` rows); the
//! wheel only pulled ahead beyond about 10⁴ standing events.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event, ordered for min-popping.
#[derive(Debug)]
struct Scheduled<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        // Ties break by insertion order (lower seq first) for determinism.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Priority queue of timed events; pops in (time, insertion-order) order.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Scheduled<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` at time `at`.
    pub fn push(&mut self, at: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|s| (s.at, s.payload))
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events and resets the insertion counter, keeping
    /// the heap's allocation: a cleared queue schedules exactly like a
    /// fresh one.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(t(5), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(t(7), ());
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_resets_fifo_tiebreak() {
        let mut q = EventQueue::new();
        q.push(t(1), 0);
        q.pop();
        q.clear();
        // After clear, insertion order restarts from scratch: same-time
        // events pop in the order they were pushed post-clear.
        q.push(t(5), 10);
        q.push(t(5), 20);
        assert_eq!(q.pop(), Some((t(5), 10)));
        assert_eq!(q.pop(), Some((t(5), 20)));
        assert!(q.is_empty());
    }

    #[test]
    fn earlier_push_after_pop_pops_first() {
        let mut q = EventQueue::new();
        q.push(t(10), "late");
        assert_eq!(q.pop(), Some((t(10), "late")));
        q.push(t(20), "future");
        q.push(t(3), "behind-b");
        q.push(t(2), "behind-a");
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), "behind-a")));
        assert_eq!(q.pop(), Some((t(3), "behind-b")));
        assert_eq!(q.pop(), Some((t(20), "future")));
    }

    #[test]
    fn interleaved_same_tick_pushes_keep_fifo() {
        let mut q = EventQueue::new();
        q.push(t(5), 0);
        q.push(t(5), 1);
        assert_eq!(q.pop(), Some((t(5), 0)));
        q.push(t(5), 2);
        assert_eq!(q.pop(), Some((t(5), 1)));
        assert_eq!(q.pop(), Some((t(5), 2)));
    }

    proptest::proptest! {
        #[test]
        fn prop_always_pops_nondecreasing(times in proptest::collection::vec(0u64..1_000, 1..100)) {
            let mut q = EventQueue::new();
            for &ms in &times {
                q.push(t(ms), ms);
            }
            let mut last = None;
            while let Some((at, _)) = q.pop() {
                if let Some(prev) = last {
                    proptest::prop_assert!(at >= prev);
                }
                last = Some(at);
            }
        }

        /// A cleared queue must behave exactly like a fresh one.
        #[test]
        fn prop_clear_restores_fresh_behaviour(
            warmup in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..32),
            replay in proptest::collection::vec(0u64..500, 1..64)
        ) {
            let mut reused = EventQueue::new();
            for (i, &ns) in warmup.iter().enumerate() {
                reused.push(SimTime::from_nanos(ns), i);
            }
            reused.pop();
            reused.clear();

            let mut fresh = EventQueue::new();
            for (i, &ms) in replay.iter().enumerate() {
                reused.push(t(ms), i);
                fresh.push(t(ms), i);
            }
            loop {
                let (a, b) = (reused.pop(), fresh.pop());
                proptest::prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
