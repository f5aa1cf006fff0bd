//! Received-packet tracking and ACK generation (RFC 9000 §13.2).

use quicspin_netsim::{SimDuration, SimTime};
use quicspin_wire::{AckRange, AckRanges, Frame};

/// A set of `u64` values kept as ascending, disjoint, non-adjacent
/// inclusive ranges — received packet numbers, or received stream byte
/// offsets.
///
/// Insertion works in place: a binary search finds the ranges the new one
/// touches, and they merge into one slot. No per-insert allocation once
/// the range list has grown to its working size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RangeSet {
    ranges: Vec<AckRange>,
}

impl RangeSet {
    /// Whether `v` is in the set.
    pub fn contains(&self, v: u64) -> bool {
        let i = self.ranges.partition_point(|r| r.end < v);
        self.ranges.get(i).is_some_and(|r| r.start <= v)
    }

    /// Adds `start..=end`, merging it with every range it overlaps or
    /// touches.
    pub fn insert(&mut self, start: u64, end: u64) {
        debug_assert!(start <= end);
        // First range that reaches `start` (overlapping or adjacent) and
        // first range wholly above `end` (not even adjacent).
        let lo = self
            .ranges
            .partition_point(|r| r.end.saturating_add(1) < start);
        let hi = self
            .ranges
            .partition_point(|r| r.start <= end.saturating_add(1));
        if lo == hi {
            self.ranges.insert(lo, AckRange { start, end });
            return;
        }
        let merged = AckRange {
            start: start.min(self.ranges[lo].start),
            end: end.max(self.ranges[hi - 1].end),
        };
        self.ranges[lo] = merged;
        self.ranges.drain(lo + 1..hi);
    }

    /// The ranges, ascending.
    pub fn as_slice(&self) -> &[AckRange] {
        &self.ranges
    }

    /// Empties the set, keeping its capacity.
    pub fn clear(&mut self) {
        self.ranges.clear();
    }
}

/// Tracks received packet numbers in one packet-number space and decides
/// when to send ACKs.
#[derive(Debug, Clone)]
pub struct RecvTracker {
    /// Received packet numbers.
    received: RangeSet,
    largest: Option<u64>,
    largest_recv_time: SimTime,
    /// Ack-eliciting packets received since the last ACK we sent.
    eliciting_since_ack: u32,
    /// Deadline for a delayed ACK, if armed.
    ack_timer: Option<SimTime>,
    /// An ACK should be sent as soon as possible.
    ack_now: bool,
}

impl Default for RecvTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl RecvTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        RecvTracker {
            received: RangeSet::default(),
            largest: None,
            largest_recv_time: SimTime::ZERO,
            eliciting_since_ack: 0,
            ack_timer: None,
            ack_now: false,
        }
    }

    /// Resets to a fresh tracker, keeping the range list's capacity.
    pub fn clear(&mut self) {
        let mut received = std::mem::take(&mut self.received);
        received.clear();
        *self = RecvTracker {
            received,
            ..RecvTracker::new()
        };
    }

    /// Whether `pn` was already received (duplicate detection).
    pub fn contains(&self, pn: u64) -> bool {
        self.received.contains(pn)
    }

    /// Records a received packet. Returns `false` for duplicates.
    ///
    /// `immediate_ack_threshold` is the number of ack-eliciting packets
    /// after which an ACK goes out immediately (RFC 9000 recommends every
    /// second packet); `max_ack_delay` bounds how long a solitary
    /// ack-eliciting packet may wait. Handshake-space callers pass a zero
    /// threshold to ACK everything immediately.
    pub fn on_packet(
        &mut self,
        pn: u64,
        ack_eliciting: bool,
        now: SimTime,
        immediate_ack_threshold: u32,
        max_ack_delay: SimDuration,
    ) -> bool {
        if self.contains(pn) {
            return false;
        }
        let out_of_order = self.largest.is_some_and(|l| pn < l);
        self.received.insert(pn, pn);
        if self.largest.is_none_or(|l| pn >= l) {
            self.largest = Some(pn);
            self.largest_recv_time = now;
        }
        if ack_eliciting {
            self.eliciting_since_ack += 1;
            // RFC 9000 §13.2.1: ACK immediately when the threshold is hit
            // or when the packet is out of order (reordering signal).
            if self.eliciting_since_ack >= immediate_ack_threshold.max(1) || out_of_order {
                self.ack_now = true;
                self.ack_timer = None;
            } else if self.ack_timer.is_none() {
                self.ack_timer = Some(now + max_ack_delay);
            }
        }
        true
    }

    /// Fires the delayed-ACK timer if expired.
    pub fn on_timeout(&mut self, now: SimTime) {
        if let Some(deadline) = self.ack_timer {
            if now >= deadline {
                self.ack_now = true;
                self.ack_timer = None;
            }
        }
    }

    /// Earliest pending deadline for this tracker.
    pub fn next_timeout(&self) -> Option<SimTime> {
        self.ack_timer
    }

    /// Whether an ACK should be bundled into the next packet right now.
    pub fn wants_ack(&self) -> bool {
        self.ack_now
    }

    /// Whether anything was ever received (an ACK frame can be built).
    pub fn has_received(&self) -> bool {
        self.largest.is_some()
    }

    /// Largest received packet number.
    pub fn largest(&self) -> Option<u64> {
        self.largest
    }

    /// Builds an ACK frame covering everything received, resetting the
    /// delayed-ACK machinery. Returns `None` if nothing was received. The
    /// frame's ranges borrow the tracker's own range list, so encoding it
    /// writes them straight into the packet.
    pub fn make_ack(&mut self, now: SimTime) -> Option<Frame<'_>> {
        let largest = self.largest?;
        let delay = now.saturating_since(self.largest_recv_time);
        self.ack_now = false;
        self.ack_timer = None;
        self.eliciting_since_ack = 0;
        Some(Frame::Ack {
            largest,
            delay_us: delay.as_micros(),
            ranges: AckRanges::from_ascending(self.received.as_slice()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    #[test]
    fn duplicate_detection() {
        let mut t = RecvTracker::new();
        assert!(t.on_packet(5, true, at(0), 2, ms(25)));
        assert!(!t.on_packet(5, true, at(1), 2, ms(25)));
        assert!(t.contains(5));
        assert!(!t.contains(4));
    }

    #[test]
    fn single_eliciting_packet_arms_delayed_ack() {
        let mut t = RecvTracker::new();
        t.on_packet(0, true, at(0), 2, ms(25));
        assert!(!t.wants_ack());
        assert_eq!(t.next_timeout(), Some(at(25)));
        t.on_timeout(at(25));
        assert!(t.wants_ack());
    }

    #[test]
    fn second_eliciting_packet_acks_immediately() {
        let mut t = RecvTracker::new();
        t.on_packet(0, true, at(0), 2, ms(25));
        t.on_packet(1, true, at(1), 2, ms(25));
        assert!(t.wants_ack());
        assert_eq!(t.next_timeout(), None);
    }

    #[test]
    fn non_eliciting_packets_never_force_acks() {
        let mut t = RecvTracker::new();
        t.on_packet(0, false, at(0), 2, ms(25));
        t.on_packet(1, false, at(1), 2, ms(25));
        assert!(!t.wants_ack());
        assert_eq!(t.next_timeout(), None);
    }

    #[test]
    fn out_of_order_triggers_immediate_ack() {
        let mut t = RecvTracker::new();
        t.on_packet(3, true, at(0), 10, ms(25));
        assert!(!t.wants_ack());
        t.on_packet(1, true, at(1), 10, ms(25));
        assert!(t.wants_ack(), "reordered arrival must ACK immediately");
    }

    #[test]
    fn threshold_zero_acts_as_one() {
        let mut t = RecvTracker::new();
        t.on_packet(0, true, at(0), 0, ms(25));
        assert!(t.wants_ack(), "handshake spaces ack everything at once");
    }

    #[test]
    fn ack_frame_covers_ranges_with_gaps() {
        let mut t = RecvTracker::new();
        for pn in [0u64, 1, 2, 5, 6, 9] {
            t.on_packet(pn, true, at(pn), 2, ms(25));
        }
        let ack = t.make_ack(at(10)).unwrap();
        match ack {
            Frame::Ack {
                largest, ranges, ..
            } => {
                assert_eq!(largest, 9);
                assert_eq!(
                    ranges.collect::<Vec<_>>(),
                    vec![
                        AckRange::new(9, 9),
                        AckRange::new(5, 6),
                        AckRange::new(0, 2)
                    ]
                );
            }
            other => panic!("expected ACK, got {other:?}"),
        }
    }

    #[test]
    fn ack_delay_reports_hold_time() {
        let mut t = RecvTracker::new();
        t.on_packet(0, true, at(100), 2, ms(25));
        let ack = t.make_ack(at(120)).unwrap();
        match ack {
            Frame::Ack { delay_us, .. } => assert_eq!(delay_us, 20_000),
            _ => unreachable!(),
        }
    }

    #[test]
    fn make_ack_resets_state() {
        let mut t = RecvTracker::new();
        t.on_packet(0, true, at(0), 2, ms(25));
        t.on_packet(1, true, at(1), 2, ms(25));
        assert!(t.wants_ack());
        t.make_ack(at(2)).unwrap();
        assert!(!t.wants_ack());
        assert_eq!(t.next_timeout(), None);
    }

    #[test]
    fn make_ack_none_when_empty() {
        let mut t = RecvTracker::new();
        assert!(t.make_ack(at(0)).is_none());
        assert!(!t.has_received());
        assert_eq!(t.largest(), None);
    }

    #[test]
    fn adjacent_ranges_merge() {
        let mut t = RecvTracker::new();
        for pn in [2u64, 0, 1] {
            t.on_packet(pn, true, at(pn), 10, ms(25));
        }
        let ack = t.make_ack(at(5)).unwrap();
        match ack {
            Frame::Ack { ranges, .. } => {
                assert_eq!(ranges.collect::<Vec<_>>(), vec![AckRange::new(0, 2)])
            }
            _ => unreachable!(),
        }
    }

    /// The merge `RecvTracker` used before its in-place insert: insert a
    /// one-packet range at its sorted position, then rebuild the whole
    /// list merging neighbours. Kept as the differential reference.
    fn rebuild_and_merge(ranges: &mut Vec<(u64, u64)>, pn: u64) {
        let pos = ranges.partition_point(|&(start, _)| start <= pn);
        ranges.insert(pos, (pn, pn));
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
        for &(start, end) in ranges.iter() {
            match merged.last_mut() {
                Some(last) if start <= last.1.saturating_add(1) => {
                    last.1 = last.1.max(end);
                }
                _ => merged.push((start, end)),
            }
        }
        *ranges = merged;
    }

    #[test]
    fn in_place_insert_matches_rebuild_and_merge() {
        let mut rng = quicspin_netsim::Rng::new(0x5eed);
        for trial in 0..400u64 {
            // Shuffled packet numbers with duplicates: draw from a window
            // smaller than the draw count, so repeats are common.
            let span = 8 + trial % 120;
            let mut tracker = RecvTracker::new();
            let mut reference: Vec<(u64, u64)> = Vec::new();
            for i in 0..2 * span {
                let pn = rng.next_below(span);
                let fresh = tracker.on_packet(pn, true, at(i), 2, ms(25));
                let was_new = !reference.iter().any(|&(s, e)| (s..=e).contains(&pn));
                assert_eq!(fresh, was_new, "trial {trial} pn {pn}");
                if was_new {
                    rebuild_and_merge(&mut reference, pn);
                }
                let ours: Vec<(u64, u64)> = tracker
                    .received
                    .as_slice()
                    .iter()
                    .map(|r| (r.start, r.end))
                    .collect();
                assert_eq!(ours, reference, "trial {trial} after pn {pn}");
            }
        }
    }

    #[test]
    fn range_set_merges_spans_like_a_bitmap() {
        let mut rng = quicspin_netsim::Rng::new(7);
        for _ in 0..300 {
            let mut set = RangeSet::default();
            let mut bits = [false; 96];
            for _ in 0..12 {
                let start = rng.next_below(90);
                let end = start + rng.next_below(6);
                set.insert(start, end);
                bits[start as usize..=end as usize].fill(true);
            }
            for (v, &bit) in bits.iter().enumerate() {
                assert_eq!(set.contains(v as u64), bit, "value {v}");
            }
            for w in set.as_slice().windows(2) {
                assert!(w[0].end + 1 < w[1].start, "ranges stay disjoint and merged");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_ranges_cover_exactly_received(pns in proptest::collection::btree_set(0u64..200, 1..60)) {
            let mut t = RecvTracker::new();
            for (i, &pn) in pns.iter().enumerate() {
                t.on_packet(pn, true, at(i as u64), 2, ms(25));
            }
            for pn in 0..200u64 {
                proptest::prop_assert_eq!(t.contains(pn), pns.contains(&pn));
            }
            let ack = t.make_ack(at(1000)).unwrap();
            if let Frame::Ack { largest, ranges, .. } = ack {
                let ranges: Vec<AckRange> = ranges.collect();
                proptest::prop_assert_eq!(largest, *pns.iter().max().unwrap());
                let covered: u64 = ranges.iter().map(AckRange::len).sum();
                proptest::prop_assert_eq!(covered, pns.len() as u64);
                // Ranges must be descending and disjoint.
                for w in ranges.windows(2) {
                    proptest::prop_assert!(w[1].end + 1 < w[0].start);
                }
            } else {
                unreachable!();
            }
        }
    }
}
