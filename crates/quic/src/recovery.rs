//! Sent-packet ledger, ACK processing, and loss detection (RFC 9002).

use quicspin_netsim::{SimDuration, SimTime};
use quicspin_wire::AckRange;
use std::collections::VecDeque;

/// A frame worth sending again if its packet is lost, recorded by its
/// place in the send buffer rather than by its bytes: a retransmission
/// re-reads the bytes from the buffer, which keeps them. ACK, PADDING and
/// CONNECTION_CLOSE frames are never recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SentFrame {
    /// PING.
    Ping,
    /// HANDSHAKE_DONE.
    HandshakeDone,
    /// CRYPTO bytes `offset..offset + len` of the space's crypto stream.
    Crypto {
        /// Offset in the crypto stream.
        offset: u64,
        /// Number of bytes.
        len: usize,
    },
    /// STREAM bytes `offset..offset + len` of stream `id`.
    Stream {
        /// Stream ID.
        id: u64,
        /// Offset in the stream.
        offset: u64,
        /// Number of bytes.
        len: usize,
        /// Whether the frame carried the FIN.
        fin: bool,
    },
}

/// Result of processing one ACK frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AckOutcome {
    /// RTT sample: send time of the largest newly acked packet, when that
    /// packet was ack-eliciting (RFC 9002 §5.1).
    pub rtt_sample_from: Option<SimTime>,
    /// Number of packets newly acknowledged.
    pub newly_acked: u64,
}

/// Packets declared lost, appended by the ledger's loss detection. The
/// caller owns it and clears it between uses, so loss recovery reuses one
/// allocation for the whole connection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lost {
    /// Lost packet numbers, in detection order.
    pub pns: Vec<u64>,
    /// Their retransmittable frames, in the same order.
    pub frames: Vec<SentFrame>,
}

impl Lost {
    /// Empties both lists, keeping their allocations.
    pub fn clear(&mut self) {
        self.pns.clear();
        self.frames.clear();
    }
}

/// Book-keeping for one packet number.
#[derive(Debug, Clone, Copy)]
struct Slot {
    time: SimTime,
    /// Still unacknowledged and not declared lost.
    in_flight: bool,
    ack_eliciting: bool,
    /// Absolute index of the packet's first frame in the ledger's frame
    /// arena, and how many it has.
    first_frame: u64,
    frames: u32,
}

/// Sent-packet ledger for one packet-number space.
///
/// Packet numbers are dense within a space, so the ledger is a ring of
/// slots indexed by `pn - base`: acking or losing a packet clears its slot
/// in O(1), and settled slots leave the front as `base` advances. The
/// frames of every slot live in one shared arena in send order, which
/// shrinks from the front along with the slots. Neither grows past the
/// largest window in flight, so a warmed ledger sends, acks and loses
/// packets without allocating.
#[derive(Debug, Clone, Default)]
pub struct SentLedger {
    /// Packet number of `slots[0]`.
    base: u64,
    slots: VecDeque<Slot>,
    /// Absolute arena index of `frames[0]`.
    frames_base: u64,
    frames: VecDeque<SentFrame>,
    largest_acked: Option<u64>,
    /// Packets in flight.
    in_flight: usize,
    /// Ack-eliciting packets in flight, maintained incrementally so the
    /// per-poll congestion and PTO queries never scan the ledger.
    eliciting: u64,
}

impl SentLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        SentLedger::default()
    }

    /// Resets to an empty ledger, keeping the ring and arena capacity.
    pub fn clear(&mut self) {
        let (mut slots, mut frames) = (
            std::mem::take(&mut self.slots),
            std::mem::take(&mut self.frames),
        );
        slots.clear();
        frames.clear();
        *self = SentLedger {
            slots,
            frames,
            ..SentLedger::default()
        };
    }

    /// Packet number one past the newest slot.
    fn end(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    /// Records a sent packet and its retransmittable frames. Packet
    /// numbers must increase; numbers skipped in between are never acked.
    pub fn on_sent(&mut self, pn: u64, time: SimTime, ack_eliciting: bool, frames: &[SentFrame]) {
        if self.slots.is_empty() {
            assert!(pn >= self.base, "packet numbers must increase");
            self.base = pn;
        }
        assert!(pn >= self.end(), "packet numbers must increase");
        let first_frame = self.frames_base + self.frames.len() as u64;
        while self.end() < pn {
            self.slots.push_back(Slot {
                time,
                in_flight: false,
                ack_eliciting: false,
                first_frame,
                frames: 0,
            });
        }
        self.slots.push_back(Slot {
            time,
            in_flight: true,
            ack_eliciting,
            first_frame,
            frames: frames.len() as u32,
        });
        self.frames.extend(frames.iter().copied());
        self.in_flight += 1;
        if ack_eliciting {
            self.eliciting += 1;
        }
    }

    /// The in-flight slot for `pn`, if any.
    fn slot(&self, pn: u64) -> Option<&Slot> {
        let i = usize::try_from(pn.checked_sub(self.base)?).ok()?;
        self.slots.get(i).filter(|s| s.in_flight)
    }

    /// Takes `pn` out of flight, keeping the counters in sync.
    fn settle(&mut self, pn: u64) -> Slot {
        let slot = &mut self.slots[(pn - self.base) as usize];
        debug_assert!(slot.in_flight);
        slot.in_flight = false;
        self.in_flight -= 1;
        if slot.ack_eliciting {
            self.eliciting -= 1;
        }
        *slot
    }

    /// Settles `pn` as lost, appending it and its frames to `lost`.
    fn lose(&mut self, pn: u64, lost: &mut Lost) {
        let slot = self.settle(pn);
        lost.pns.push(pn);
        self.copy_frames(&slot, &mut lost.frames);
    }

    fn copy_frames(&self, slot: &Slot, out: &mut Vec<SentFrame>) {
        let from = (slot.first_frame - self.frames_base) as usize;
        out.extend(self.frames.range(from..from + slot.frames as usize));
    }

    /// Drops settled slots from the front, with their frames.
    fn trim(&mut self) {
        while self.slots.front().is_some_and(|s| !s.in_flight) {
            self.slots.pop_front();
            self.base += 1;
        }
        let keep_from = self
            .slots
            .front()
            .map_or(self.frames_base + self.frames.len() as u64, |s| {
                s.first_frame
            });
        let drop = (keep_from - self.frames_base) as usize;
        self.frames.drain(..drop);
        self.frames_base = keep_from;
    }

    /// Declares lost every in-flight packet below `to` that `doomed`
    /// accepts, in ascending order.
    fn lose_below(&mut self, to: u64, lost: &mut Lost, doomed: impl Fn(&Slot) -> bool) {
        let from = self.base;
        for pn in from..to.min(self.end()).max(from) {
            if self.slot(pn).is_some_and(&doomed) {
                self.lose(pn, lost);
            }
        }
    }

    /// Processes an ACK frame's ranges, then detects loss by packet
    /// threshold, appending lost packets to `lost`.
    ///
    /// A packet is declared lost once it sits *more than*
    /// `packet_threshold` below the largest acknowledged
    /// (`largest - pn > packet_threshold`). RFC 9002 §6.1.1 declares it at
    /// `>=`; this stack has always used `>` and every committed artifact
    /// depends on it, so the deviation is kept and documented.
    pub fn on_ack(
        &mut self,
        ranges: impl IntoIterator<Item = AckRange>,
        packet_threshold: u64,
        lost: &mut Lost,
    ) -> AckOutcome {
        let mut outcome = AckOutcome::default();
        let mut largest_newly: Option<(u64, SimTime, bool)> = None;

        for range in ranges {
            // Only the part of the range the ledger still covers: a
            // forged range spanning 2^62 costs no more than the ledger.
            let from = range.start.max(self.base);
            let to = range.end.saturating_add(1).min(self.end());
            for pn in from..to.max(from) {
                if self.slot(pn).is_none() {
                    continue;
                }
                let sent = self.settle(pn);
                outcome.newly_acked += 1;
                if largest_newly.is_none_or(|(l, _, _)| pn > l) {
                    largest_newly = Some((pn, sent.time, sent.ack_eliciting));
                }
            }
            if self.largest_acked.is_none_or(|l| range.end > l) {
                self.largest_acked = Some(range.end);
            }
        }

        if let Some((_, time, eliciting)) = largest_newly {
            if eliciting {
                outcome.rtt_sample_from = Some(time);
            }
        }

        if let Some(largest) = self.largest_acked {
            self.lose_below(largest.saturating_sub(packet_threshold), lost, |_| true);
        }
        self.trim();
        outcome
    }

    /// Time-threshold loss detection (RFC 9002 §6.1.2): packets sent
    /// before `now - loss_delay` with a packet number below the largest
    /// acknowledged are declared lost and appended to `lost`.
    pub fn detect_time_lost(&mut self, now: SimTime, loss_delay: SimDuration, lost: &mut Lost) {
        let Some(largest) = self.largest_acked else {
            return;
        };
        self.lose_below(largest, lost, |p| {
            now.saturating_since(p.time) >= loss_delay
        });
        self.trim();
    }

    /// Whether any ack-eliciting packet is still in flight.
    pub fn has_eliciting_in_flight(&self) -> bool {
        self.eliciting > 0
    }

    /// Number of ack-eliciting packets in flight (congestion accounting).
    pub fn eliciting_in_flight(&self) -> u64 {
        self.eliciting
    }

    /// Send time of the oldest ack-eliciting packet in flight. Packet
    /// numbers and send times grow together within a space, so the first
    /// eliciting slot is the oldest.
    pub fn oldest_eliciting_time(&self) -> Option<SimTime> {
        if self.eliciting == 0 {
            return None;
        }
        self.slots
            .iter()
            .find(|s| s.in_flight && s.ack_eliciting)
            .map(|s| s.time)
    }

    /// PTO deadline given the estimator's interval.
    pub fn pto_deadline(&self, pto: SimDuration) -> Option<SimTime> {
        self.oldest_eliciting_time().map(|t| t + pto)
    }

    /// Settles every in-flight ack-eliciting packet and appends its
    /// retransmittable frames to `out` (PTO recovery: retransmit
    /// everything outstanding). Non-eliciting packets stay in flight.
    pub fn drain_for_retransmit(&mut self, out: &mut Vec<SentFrame>) {
        for i in 0..self.slots.len() {
            let slot = self.slots[i];
            if slot.in_flight && slot.ack_eliciting {
                self.settle(self.base + i as u64);
                self.copy_frames(&slot, out);
            }
        }
        self.trim();
    }

    /// Number of packets still unacknowledged.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn at(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(v)
    }

    fn ping_at(ledger: &mut SentLedger, pn: u64, t: u64) {
        ledger.on_sent(pn, at(t), true, &[SentFrame::Ping]);
    }

    fn ack(l: &mut SentLedger, ranges: &[AckRange], threshold: u64) -> (AckOutcome, Lost) {
        let mut lost = Lost::default();
        let out = l.on_ack(ranges.iter().copied(), threshold, &mut lost);
        (out, lost)
    }

    #[test]
    fn ack_produces_rtt_sample_from_largest_eliciting() {
        let mut l = SentLedger::new();
        ping_at(&mut l, 0, 0);
        ping_at(&mut l, 1, 10);
        let (out, _) = ack(&mut l, &[AckRange::new(0, 1)], 3);
        assert_eq!(out.rtt_sample_from, Some(at(10)));
        assert_eq!(out.newly_acked, 2);
        assert_eq!(l.in_flight(), 0);
    }

    #[test]
    fn non_eliciting_ack_gives_no_sample() {
        let mut l = SentLedger::new();
        l.on_sent(0, at(0), false, &[]);
        let (out, _) = ack(&mut l, &[AckRange::new(0, 0)], 3);
        assert_eq!(out.rtt_sample_from, None);
        assert_eq!(out.newly_acked, 1);
    }

    #[test]
    fn duplicate_ack_is_harmless() {
        let mut l = SentLedger::new();
        ping_at(&mut l, 0, 0);
        ack(&mut l, &[AckRange::new(0, 0)], 3);
        let (out, _) = ack(&mut l, &[AckRange::new(0, 0)], 3);
        assert_eq!(out.rtt_sample_from, None);
        assert_eq!(out.newly_acked, 0);
    }

    #[test]
    fn packet_threshold_declares_loss() {
        let mut l = SentLedger::new();
        for pn in 0..6 {
            ping_at(&mut l, pn, pn);
        }
        // ACK only pn 5: cutoff = 5 - 3 = 2 → pns 0 and 1 lost (pn 2 sits
        // exactly 3 below and survives: the `>` deviation).
        let (_, lost) = ack(&mut l, &[AckRange::new(5, 5)], 3);
        assert_eq!(lost.pns, vec![0, 1]);
        assert_eq!(lost.frames, vec![SentFrame::Ping, SentFrame::Ping]);
        // pns 2, 3, 4 still in flight.
        assert_eq!(l.in_flight(), 3);
    }

    #[test]
    fn lost_packets_hand_back_their_frames_in_order() {
        let mut l = SentLedger::new();
        let stream = SentFrame::Stream {
            id: 0,
            offset: 1200,
            len: 1200,
            fin: false,
        };
        let crypto = SentFrame::Crypto { offset: 0, len: 6 };
        l.on_sent(0, at(0), true, &[crypto, SentFrame::HandshakeDone]);
        l.on_sent(1, at(0), false, &[]);
        l.on_sent(2, at(0), true, &[stream]);
        ping_at(&mut l, 6, 1);
        let (_, lost) = ack(&mut l, &[AckRange::new(6, 6)], 3);
        assert_eq!(lost.pns, vec![0, 1, 2]);
        assert_eq!(lost.frames, vec![crypto, SentFrame::HandshakeDone, stream]);
    }

    #[test]
    fn pto_deadline_tracks_oldest_eliciting() {
        let mut l = SentLedger::new();
        assert_eq!(l.pto_deadline(SimDuration::from_millis(100)), None);
        ping_at(&mut l, 0, 50);
        ping_at(&mut l, 1, 80);
        assert_eq!(l.pto_deadline(SimDuration::from_millis(100)), Some(at(150)));
        ack(&mut l, &[AckRange::new(0, 0)], 3);
        assert_eq!(l.pto_deadline(SimDuration::from_millis(100)), Some(at(180)));
    }

    #[test]
    fn drain_for_retransmit_empties_eliciting() {
        let mut l = SentLedger::new();
        ping_at(&mut l, 0, 0);
        l.on_sent(1, at(1), false, &[]);
        let mut frames = Vec::new();
        l.drain_for_retransmit(&mut frames);
        assert_eq!(frames, vec![SentFrame::Ping]);
        assert!(!l.has_eliciting_in_flight());
        assert_eq!(l.in_flight(), 1, "non-eliciting stays");
    }

    #[test]
    fn partial_ack_ranges() {
        let mut l = SentLedger::new();
        for pn in 0..10 {
            ping_at(&mut l, pn, pn);
        }
        let (out, lost) = ack(
            &mut l,
            &[AckRange::new(8, 9), AckRange::new(3, 4)],
            100, // large threshold: no loss
        );
        assert_eq!(out.newly_acked, 4);
        assert_eq!(out.rtt_sample_from, Some(at(9)));
        assert!(lost.pns.is_empty());
        assert_eq!(l.in_flight(), 6);
    }

    #[test]
    fn forged_huge_range_costs_only_the_ledger() {
        let mut l = SentLedger::new();
        ping_at(&mut l, 0, 0);
        let (out, _) = ack(&mut l, &[AckRange::new(0, (1 << 62) - 1)], 3);
        assert_eq!(out.newly_acked, 1);
        assert_eq!(l.in_flight(), 0);
    }

    #[test]
    fn time_threshold_declares_old_unacked_lost() {
        let mut l = SentLedger::new();
        ping_at(&mut l, 0, 0);
        ping_at(&mut l, 1, 5);
        ping_at(&mut l, 2, 10);
        // ACK pn 2 only; threshold 3 keeps 0 and 1 alive (gap < 3).
        let (_, lost) = ack(&mut l, &[AckRange::new(2, 2)], 3);
        assert!(lost.pns.is_empty());
        // 50 ms later with a 40 ms loss delay, pn 0 and 1 time out.
        let mut lost = Lost::default();
        l.detect_time_lost(at(50), SimDuration::from_millis(40), &mut lost);
        assert_eq!(lost.pns, vec![0, 1]);
        assert_eq!(lost.frames.len(), 2);
        assert_eq!(l.in_flight(), 0);
    }

    #[test]
    fn time_threshold_spares_recent_and_above_largest() {
        let mut l = SentLedger::new();
        ping_at(&mut l, 0, 0);
        ping_at(&mut l, 5, 48); // above largest acked
        ack(&mut l, &[AckRange::new(3, 3)], 100);
        let mut lost = Lost::default();
        l.detect_time_lost(at(50), SimDuration::from_millis(40), &mut lost);
        assert_eq!(lost.pns, vec![0], "pn 5 > largest acked survives");
        assert_eq!(l.in_flight(), 1);
    }

    #[test]
    fn time_threshold_noop_without_acks() {
        let mut l = SentLedger::new();
        ping_at(&mut l, 0, 0);
        let mut lost = Lost::default();
        l.detect_time_lost(at(1_000), SimDuration::from_millis(1), &mut lost);
        assert!(lost.pns.is_empty(), "no largest_acked yet");
    }

    /// The ledger as it was before the packet-number ring: a `BTreeMap`
    /// from packet number to (send time, ack-eliciting, frames). Kept as
    /// the differential reference for [`SentLedger`].
    #[derive(Default)]
    struct TreeLedger {
        unacked: BTreeMap<u64, (SimTime, bool, Vec<SentFrame>)>,
        largest_acked: Option<u64>,
    }

    impl TreeLedger {
        fn on_ack(&mut self, ranges: &[AckRange], threshold: u64, lost: &mut Lost) -> AckOutcome {
            let mut outcome = AckOutcome::default();
            let mut largest_newly: Option<(u64, SimTime, bool)> = None;
            for range in ranges {
                while let Some((&pn, _)) = self.unacked.range(range.start..=range.end).next() {
                    let (time, eliciting, _) = self.unacked.remove(&pn).unwrap();
                    if largest_newly.is_none_or(|(l, _, _)| pn > l) {
                        largest_newly = Some((pn, time, eliciting));
                    }
                    outcome.newly_acked += 1;
                }
                if self.largest_acked.is_none_or(|l| range.end > l) {
                    self.largest_acked = Some(range.end);
                }
            }
            if let Some((_, time, true)) = largest_newly {
                outcome.rtt_sample_from = Some(time);
            }
            if let Some(largest) = self.largest_acked {
                let cutoff = largest.saturating_sub(threshold);
                while let Some((&pn, _)) = self.unacked.range(..cutoff).next() {
                    let (_, _, frames) = self.unacked.remove(&pn).unwrap();
                    lost.pns.push(pn);
                    lost.frames.extend(frames);
                }
            }
            outcome
        }

        fn detect_time_lost(&mut self, now: SimTime, delay: SimDuration, lost: &mut Lost) {
            let Some(largest) = self.largest_acked else {
                return;
            };
            let doomed: Vec<u64> = self
                .unacked
                .range(..largest)
                .filter(|(_, p)| now.saturating_since(p.0) >= delay)
                .map(|(&pn, _)| pn)
                .collect();
            for pn in doomed {
                let (_, _, frames) = self.unacked.remove(&pn).unwrap();
                lost.pns.push(pn);
                lost.frames.extend(frames);
            }
        }

        fn drain_for_retransmit(&mut self, out: &mut Vec<SentFrame>) {
            let pns: Vec<u64> = self
                .unacked
                .iter()
                .filter(|(_, p)| p.1)
                .map(|(&pn, _)| pn)
                .collect();
            for pn in pns {
                out.extend(self.unacked.remove(&pn).unwrap().2);
            }
        }

        fn pto_deadline(&self, pto: SimDuration) -> Option<SimTime> {
            self.unacked.values().find(|p| p.1).map(|p| p.0 + pto)
        }
    }

    /// A random packet's retransmittable frames: 0–3 of any kind.
    fn random_frames(rng: &mut quicspin_netsim::Rng) -> Vec<SentFrame> {
        (0..rng.next_below(4))
            .map(|_| match rng.next_below(4) {
                0 => SentFrame::Ping,
                1 => SentFrame::HandshakeDone,
                2 => SentFrame::Crypto {
                    offset: rng.next_below(5_000),
                    len: rng.index(1_200),
                },
                _ => SentFrame::Stream {
                    id: rng.next_below(3) * 4,
                    offset: rng.next_below(100_000),
                    len: rng.index(1_200),
                    fin: rng.chance(0.2),
                },
            })
            .collect()
    }

    /// Differential test: the ring ledger and the tree reference see the
    /// same seeded send / ACK / time-loss / PTO sequences and must agree
    /// on every outcome, lost packet number, lost frame, retransmitted
    /// frame, PTO deadline and in-flight count.
    #[test]
    fn ring_ledger_matches_tree_reference() {
        let mut rng = quicspin_netsim::Rng::new(0x1ed9e5);
        for trial in 0..300 {
            let mut ring = SentLedger::new();
            let mut tree = TreeLedger::default();
            let mut next_pn = 0u64;
            let mut now = 0u64;
            let threshold = 1 + rng.next_below(4);
            for step in 0..200 {
                now += rng.next_below(8);
                let ctx = format!("trial {trial} step {step}");
                match rng.next_below(10) {
                    0..=4 => {
                        // Mostly dense, occasionally skipping numbers.
                        if rng.chance(0.05) {
                            next_pn += 1 + rng.next_below(3);
                        }
                        let frames = random_frames(&mut rng);
                        let eliciting = !frames.is_empty() || rng.chance(0.1);
                        ring.on_sent(next_pn, at(now), eliciting, &frames);
                        tree.unacked.insert(next_pn, (at(now), eliciting, frames));
                        next_pn += 1;
                    }
                    5..=7 => {
                        // Descending, disjoint ranges below the next pn,
                        // sometimes reaching past it.
                        let mut ranges = Vec::new();
                        let mut top = next_pn + rng.next_below(3);
                        while top > 0 && ranges.len() < 4 {
                            let end = top - 1 - rng.next_below(top.min(4));
                            let start = end - rng.next_below(end.min(6) + 1);
                            ranges.push(AckRange::new(start, end));
                            if start < 2 {
                                break;
                            }
                            top = start - 1;
                        }
                        let (mut a, mut b) = (Lost::default(), Lost::default());
                        let got = ring.on_ack(ranges.iter().copied(), threshold, &mut a);
                        let want = tree.on_ack(&ranges, threshold, &mut b);
                        assert_eq!(got, want, "{ctx}: ack outcome");
                        assert_eq!(a, b, "{ctx}: packet-threshold loss");
                    }
                    8 => {
                        let delay = SimDuration::from_millis(rng.next_below(30));
                        let (mut a, mut b) = (Lost::default(), Lost::default());
                        ring.detect_time_lost(at(now), delay, &mut a);
                        tree.detect_time_lost(at(now), delay, &mut b);
                        assert_eq!(a, b, "{ctx}: time-threshold loss");
                    }
                    _ => {
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        ring.drain_for_retransmit(&mut a);
                        tree.drain_for_retransmit(&mut b);
                        assert_eq!(a, b, "{ctx}: PTO retransmission");
                    }
                }
                let pto = SimDuration::from_millis(100);
                assert_eq!(ring.pto_deadline(pto), tree.pto_deadline(pto), "{ctx}");
                assert_eq!(ring.in_flight(), tree.unacked.len(), "{ctx}");
                let eliciting = tree.unacked.values().filter(|p| p.1).count() as u64;
                assert_eq!(ring.eliciting_in_flight(), eliciting, "{ctx}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_every_packet_acked_or_lost_or_inflight(
            sent in proptest::collection::btree_set(0u64..100, 1..40),
            acked in proptest::collection::btree_set(0u64..100, 1..40),
        ) {
            let mut l = SentLedger::new();
            for &pn in &sent {
                ping_at(&mut l, pn, pn);
            }
            let ranges: Vec<AckRange> = acked.iter().rev().map(|&p| AckRange::new(p, p)).collect();
            let (out, lost) = ack(&mut l, &ranges, 3);
            let n_lost = lost.pns.len();
            proptest::prop_assert_eq!(out.newly_acked as usize + n_lost + l.in_flight(), sent.len());
            for pn in &lost.pns {
                proptest::prop_assert!(sent.contains(pn) && !acked.contains(pn));
            }
        }
    }
}
