//! The simulator: a duplex path between a client and a server with an
//! optional on-path tap for passive observation.

use crate::event::EventQueue;
use crate::link::{Link, LinkConfig};
use crate::rng::Rng;
use crate::time::SimTime;

/// The two ends of the simulated path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The scanning client (the paper's vantage point runs here).
    Client,
    /// The web server under measurement.
    Server,
}

impl Side {
    /// The opposite end.
    pub fn other(self) -> Side {
        match self {
            Side::Client => Side::Server,
            Side::Server => Side::Client,
        }
    }
}

impl core::fmt::Display for Side {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Side::Client => "client",
            Side::Server => "server",
        })
    }
}

/// Bytes of each datagram the tap keeps: the first byte plus the longest
/// destination connection ID QUIC allows (20 bytes, RFC 9000 §17.2).
/// That is everything a short header leaves in the clear, so the capture
/// itself is the privacy boundary: the packet number and the payload
/// never reach a [`TapRecord`]. An on-path switch cuts the same snap.
pub const TAP_SNAP_LEN: usize = 21;

/// A datagram crossing the tap position, as seen by a passive observer:
/// its first [`TAP_SNAP_LEN`] bytes and its length on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapRecord {
    /// When the packet passed the tap.
    pub time: SimTime,
    /// Which side sent it.
    pub from: Side,
    len: u32,
    snap_len: u8,
    snap: [u8; TAP_SNAP_LEN],
}

impl TapRecord {
    /// Captures `datagram` crossing the tap: keeps its first
    /// [`TAP_SNAP_LEN`] bytes and its length.
    pub fn capture(time: SimTime, from: Side, datagram: &[u8]) -> Self {
        TapRecord::from_snap(time, from, datagram, datagram.len())
    }

    /// A record of a datagram of `len` bytes of which `snap` was
    /// captured (a pcap record, say). Keeps at most [`TAP_SNAP_LEN`]
    /// bytes of `snap`; the length is never less than what is kept.
    pub fn from_snap(time: SimTime, from: Side, snap: &[u8], len: usize) -> Self {
        let kept = &snap[..snap.len().min(TAP_SNAP_LEN)];
        let mut bytes = [0u8; TAP_SNAP_LEN];
        bytes[..kept.len()].copy_from_slice(kept);
        TapRecord {
            time,
            from,
            len: u32::try_from(len.max(kept.len())).unwrap_or(u32::MAX),
            snap_len: kept.len() as u8,
            snap: bytes,
        }
    }

    /// The captured prefix of the datagram (at most [`TAP_SNAP_LEN`]
    /// bytes).
    pub fn snap(&self) -> &[u8] {
        &self.snap[..usize::from(self.snap_len)]
    }

    /// The datagram's length on the wire.
    pub fn datagram_len(&self) -> usize {
        self.len as usize
    }
}

/// Aggregate per-path statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Datagrams entering the path, per direction (client→server, server→client).
    pub sent: [u64; 2],
    /// Datagrams dropped.
    pub lost: [u64; 2],
    /// Datagrams held back for reordering.
    pub reordered: [u64; 2],
    /// Bytes entering the path.
    pub bytes: [u64; 2],
    /// High-water mark of the event-queue depth (pending deliveries and
    /// timers); a proxy for how congested the simulated path ever got.
    pub queue_high_water: u64,
    /// Events pushed onto the event queue (deliveries and timers).
    pub queue_pushes: u64,
    /// Events popped off the event queue.
    pub queue_pops: u64,
    /// Datagrams the path actually delivered to an endpoint.
    pub delivered: u64,
}

impl PathStats {
    fn dir(side: Side) -> usize {
        match side {
            Side::Client => 0,
            Side::Server => 1,
        }
    }

    /// Total datagrams sent in both directions.
    pub fn total_sent(&self) -> u64 {
        self.sent[0] + self.sent[1]
    }

    /// Total datagrams lost in both directions.
    pub fn total_lost(&self) -> u64 {
        self.lost[0] + self.lost[1]
    }
}

/// An event the driving code must handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimEvent {
    /// A datagram arrived at `to`.
    Datagram {
        /// Receiving side.
        to: Side,
        /// The datagram bytes, owned by the receiver now.
        datagram: Vec<u8>,
    },
    /// A timer set via [`Simulator::set_timer`] fired for `side`.
    Timer {
        /// The side that armed the timer.
        side: Side,
        /// Caller-chosen token identifying the timer.
        token: u64,
    },
}

#[derive(Debug)]
enum Pending {
    Deliver { to: Side, datagram: Vec<u8> },
    Timer { side: Side, token: u64 },
}

/// Reusable simulator storage: the event-queue heap and the tap buffer.
///
/// A scan loop runs millions of short simulations; recycling this between
/// runs keeps their allocations alive instead of rebuilding them per
/// connection. Obtain one from [`Simulator::into_scratch`] and feed it to
/// [`Simulator::from_scratch`]; a simulator built from scratch storage
/// behaves identically to a fresh one.
#[derive(Debug, Default)]
pub struct SimScratch {
    queue: EventQueue<Pending>,
    tap_records: Vec<TapRecord>,
}

impl SimScratch {
    /// Returns a tap-record buffer that was taken *out* of a finished run
    /// (via [`Simulator::take_tap_records`]) so the next run reuses its
    /// allocation. The records themselves are discarded.
    pub fn restock_tap_records(&mut self, mut records: Vec<TapRecord>) {
        records.clear();
        if records.capacity() > self.tap_records.capacity() {
            self.tap_records = records;
        }
    }
}

/// Discrete-event simulator for one client↔server path.
///
/// The driving code (e.g. `quicspin-quic`'s `ConnectionLab` or the
/// scanner) injects datagrams with [`send`](Simulator::send), arms timers,
/// and pumps [`step`](Simulator::step) until the exchange completes. An
/// optional tap records every datagram crossing a configurable point on
/// the path, which is exactly what the paper's passive observer sees.
#[derive(Debug)]
pub struct Simulator {
    now: SimTime,
    queue: EventQueue<Pending>,
    c2s: Link,
    s2c: Link,
    tap_position: Option<f64>,
    tap_records: Vec<TapRecord>,
    stats: PathStats,
    rng: Rng,
}

impl Simulator {
    /// Creates a simulator with the given per-direction link configs.
    pub fn new(c2s: LinkConfig, s2c: LinkConfig, seed: u64) -> Self {
        Simulator::from_scratch(c2s, s2c, seed, SimScratch::default())
    }

    /// Creates a symmetric simulator (same config both directions).
    pub fn symmetric(config: LinkConfig, seed: u64) -> Self {
        Simulator::new(config.clone(), config, seed)
    }

    /// Like [`new`](Simulator::new), but reusing the allocations held in
    /// `scratch` (recovered from a previous run via
    /// [`into_scratch`](Simulator::into_scratch)).
    pub fn from_scratch(
        c2s: LinkConfig,
        s2c: LinkConfig,
        seed: u64,
        mut scratch: SimScratch,
    ) -> Self {
        scratch.queue.clear();
        scratch.tap_records.clear();
        Simulator {
            now: SimTime::ZERO,
            queue: scratch.queue,
            c2s: Link::new(c2s),
            s2c: Link::new(s2c),
            tap_position: None,
            tap_records: scratch.tap_records,
            stats: PathStats::default(),
            rng: Rng::new(seed),
        }
    }

    /// Symmetric variant of [`from_scratch`](Simulator::from_scratch).
    pub fn symmetric_from_scratch(config: LinkConfig, seed: u64, scratch: SimScratch) -> Self {
        Simulator::from_scratch(config.clone(), config, seed, scratch)
    }

    /// Tears the simulator down, recovering its reusable storage for the
    /// next run.
    pub fn into_scratch(self) -> SimScratch {
        SimScratch {
            queue: self.queue,
            tap_records: self.tap_records,
        }
    }

    /// Places a passive tap at `position` along the path (0 = next to the
    /// client, 1 = next to the server).
    pub fn with_tap(mut self, position: f64) -> Self {
        self.tap_position = Some(position.clamp(0.0, 1.0));
        self
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Path statistics so far.
    pub fn stats(&self) -> &PathStats {
        &self.stats
    }

    /// Records captured by the tap so far, in the order they crossed it
    /// (equal times in send order).
    pub fn tap_records(&self) -> &[TapRecord] {
        &self.tap_records
    }

    /// Takes ownership of the tap records collected so far.
    pub fn take_tap_records(&mut self) -> Vec<TapRecord> {
        std::mem::take(&mut self.tap_records)
    }

    /// Injects a datagram sent by `from` at the current time.
    pub fn send(&mut self, from: Side, datagram: Vec<u8>) {
        self.send_after(from, crate::time::SimDuration::ZERO, datagram);
    }

    /// Injects a datagram that leaves `from` after `delay` (endpoint
    /// processing latency: the time between the triggering event and the
    /// packet hitting the wire — the end-host delay the paper holds
    /// responsible for spin-bit overestimation).
    pub fn send_after(&mut self, from: Side, delay: crate::time::SimDuration, datagram: Vec<u8>) {
        let dir = PathStats::dir(from);
        self.stats.sent[dir] += 1;
        self.stats.bytes[dir] += datagram.len() as u64;

        let tap_pos = self.tap_position.unwrap_or(0.5);
        let link = match from {
            Side::Client => &mut self.c2s,
            Side::Server => &mut self.s2c,
        };
        // The tap position is measured from the client side, so for
        // server→client traffic the packet passes the tap at (1 - pos)
        // of its own propagation path.
        let pos_along = match from {
            Side::Client => tap_pos,
            Side::Server => 1.0 - tap_pos,
        };
        let transit = link.send(self.now + delay, datagram.len(), pos_along, &mut self.rng);

        if transit.reordered {
            self.stats.reordered[dir] += 1;
        }

        // The tap keeps only a snap of the header; the delivery owns the
        // buffer. Records stay in crossing order: a held-back or jittered
        // packet crosses after later sends, so it goes in behind the last
        // record that crossed no later than it (equal times keep send
        // order). Most land at the end.
        if self.tap_position.is_some() {
            let record = TapRecord::capture(transit.tap_time, from, &datagram);
            let at = self
                .tap_records
                .iter()
                .rposition(|r| r.time <= record.time)
                .map_or(0, |i| i + 1);
            self.tap_records.insert(at, record);
        }

        match transit.delivery {
            Some(at) => {
                self.stats.queue_pushes += 1;
                let to = from.other();
                self.queue.push(at, Pending::Deliver { to, datagram });
            }
            // Lost: the buffer is dropped with the packet.
            None => self.stats.lost[dir] += 1,
        }
        self.note_queue_depth();
    }

    /// Arms a timer for `side` at absolute time `at`.
    pub fn set_timer(&mut self, side: Side, at: SimTime, token: u64) {
        let at = if at < self.now { self.now } else { at };
        self.stats.queue_pushes += 1;
        self.queue.push(at, Pending::Timer { side, token });
        self.note_queue_depth();
    }

    #[inline]
    fn note_queue_depth(&mut self) {
        let depth = self.queue.len() as u64;
        if depth > self.stats.queue_high_water {
            self.stats.queue_high_water = depth;
        }
    }

    /// Advances to the next event and returns it, or `None` when idle.
    pub fn step(&mut self) -> Option<(SimTime, SimEvent)> {
        let (at, pending) = self.queue.pop()?;
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.stats.queue_pops += 1;
        let event = match pending {
            Pending::Deliver { to, datagram } => {
                self.stats.delivered += 1;
                SimEvent::Datagram { to, datagram }
            }
            Pending::Timer { side, token } => SimEvent::Timer { side, token },
        };
        Some((at, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn datagram_travels_one_way_delay() {
        let mut sim = Simulator::symmetric(LinkConfig::ideal(ms(15)), 1);
        sim.send(Side::Client, vec![1, 2, 3]);
        let (at, ev) = sim.step().unwrap();
        assert_eq!(at, SimTime::ZERO + ms(15));
        assert_eq!(
            ev,
            SimEvent::Datagram {
                to: Side::Server,
                datagram: vec![1, 2, 3]
            }
        );
        assert_eq!(sim.now(), at);
        assert!(sim.step().is_none());
    }

    #[test]
    fn round_trip_is_sum_of_directions() {
        let mut sim = Simulator::new(LinkConfig::ideal(ms(10)), LinkConfig::ideal(ms(30)), 1);
        sim.send(Side::Client, vec![0]);
        let (t1, _) = sim.step().unwrap();
        sim.send(Side::Server, vec![1]);
        let (t2, ev) = sim.step().unwrap();
        assert_eq!(t1, SimTime::ZERO + ms(10));
        assert_eq!(t2, SimTime::ZERO + ms(40));
        assert!(matches!(
            ev,
            SimEvent::Datagram {
                to: Side::Client,
                ..
            }
        ));
    }

    #[test]
    fn timers_interleave_with_datagrams() {
        let mut sim = Simulator::symmetric(LinkConfig::ideal(ms(10)), 1);
        sim.send(Side::Client, vec![0]);
        sim.set_timer(Side::Client, SimTime::ZERO + ms(5), 99);
        let (t1, ev1) = sim.step().unwrap();
        assert_eq!(t1, SimTime::ZERO + ms(5));
        assert_eq!(
            ev1,
            SimEvent::Timer {
                side: Side::Client,
                token: 99
            }
        );
        let (t2, _) = sim.step().unwrap();
        assert_eq!(t2, SimTime::ZERO + ms(10));
    }

    #[test]
    fn past_timers_fire_immediately_not_backwards() {
        let mut sim = Simulator::symmetric(LinkConfig::ideal(ms(10)), 1);
        sim.send(Side::Client, vec![0]);
        sim.step().unwrap(); // now = 10ms
        sim.set_timer(Side::Server, SimTime::ZERO, 1);
        let (at, _) = sim.step().unwrap();
        assert_eq!(at, SimTime::ZERO + ms(10));
    }

    #[test]
    fn tap_sees_both_directions_at_position() {
        let mut sim = Simulator::symmetric(LinkConfig::ideal(ms(10)), 1).with_tap(0.2);
        sim.send(Side::Client, vec![1]);
        sim.send(Side::Server, vec![2]);
        let records = sim.tap_records();
        assert_eq!(records.len(), 2);
        // Client→server: 20% of 10ms = 2ms from client side.
        assert_eq!(records[0].time, SimTime::ZERO + ms(2));
        assert_eq!(records[0].from, Side::Client);
        // Server→client: tap is at 0.2 from client = 0.8 of the server's path.
        assert_eq!(records[1].time, SimTime::ZERO + ms(8));
        assert_eq!(records[1].from, Side::Server);
    }

    #[test]
    fn tap_disabled_records_nothing() {
        let mut sim = Simulator::symmetric(LinkConfig::ideal(ms(10)), 1);
        sim.send(Side::Client, vec![1]);
        assert!(sim.tap_records().is_empty());
    }

    #[test]
    fn stats_count_loss_and_sends() {
        let cfg = LinkConfig::ideal(ms(5)).with_loss(1.0);
        let mut sim = Simulator::new(cfg, LinkConfig::ideal(ms(5)), 1);
        sim.send(Side::Client, vec![0; 100]);
        sim.send(Side::Server, vec![0; 50]);
        let stats = sim.stats();
        assert_eq!(stats.sent, [1, 1]);
        assert_eq!(stats.lost, [1, 0]);
        assert_eq!(stats.bytes, [100, 50]);
        assert_eq!(stats.total_sent(), 2);
        assert_eq!(stats.total_lost(), 1);
        // Lost client packet never arrives; server one does.
        let (_, ev) = sim.step().unwrap();
        assert!(matches!(
            ev,
            SimEvent::Datagram {
                to: Side::Client,
                ..
            }
        ));
        assert!(sim.step().is_none());
    }

    #[test]
    fn queue_high_water_tracks_peak_depth() {
        let mut sim = Simulator::symmetric(LinkConfig::ideal(ms(10)), 1);
        assert_eq!(sim.stats().queue_high_water, 0);
        sim.send(Side::Client, vec![0]);
        sim.send(Side::Client, vec![1]);
        sim.set_timer(Side::Client, SimTime::ZERO + ms(1), 7);
        assert_eq!(sim.stats().queue_high_water, 3);
        // Draining the queue must not lower the recorded peak.
        while sim.step().is_some() {}
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.stats().queue_high_water, 3);
    }

    #[test]
    fn queue_op_counters_track_pushes_pops_and_deliveries() {
        let mut sim = Simulator::symmetric(LinkConfig::ideal(ms(10)), 1);
        sim.send(Side::Client, vec![0]);
        sim.send(Side::Client, vec![1]);
        sim.set_timer(Side::Client, SimTime::ZERO + ms(1), 7);
        assert_eq!(sim.stats().queue_pushes, 3);
        assert_eq!(sim.stats().queue_pops, 0);
        while sim.step().is_some() {}
        let stats = *sim.stats();
        assert_eq!(stats.queue_pops, 3);
        // The timer pops but is not a delivery.
        assert_eq!(stats.delivered, 2);

        // A lossy send pushes nothing, so pushes stay op-exact.
        let mut lossy = Simulator::new(
            LinkConfig::ideal(ms(5)).with_loss(1.0),
            LinkConfig::ideal(ms(5)),
            1,
        );
        lossy.send(Side::Client, vec![0]);
        assert_eq!(lossy.stats().queue_pushes, 0);
        assert_eq!(lossy.stats().delivered, 0);
    }

    #[test]
    fn take_tap_records_drains() {
        let mut sim = Simulator::symmetric(LinkConfig::ideal(ms(1)), 1).with_tap(0.5);
        sim.send(Side::Client, vec![1]);
        assert_eq!(sim.take_tap_records().len(), 1);
        assert!(sim.tap_records().is_empty());
    }

    #[test]
    fn tap_records_an_overtaker_first() {
        let cfg = LinkConfig {
            reorder: 0.5,
            reorder_hold: ms(50),
            ..LinkConfig::ideal(ms(10))
        };
        // Find a seed where the first packet is held back and the second is
        // not: the second then overtakes the first on the wire.
        for seed in 0..64 {
            let mut sim =
                Simulator::new(cfg.clone(), LinkConfig::ideal(ms(10)), seed).with_tap(1.0);
            sim.send(Side::Client, vec![1]);
            sim.send(Side::Client, vec![2]);
            if sim.stats().reordered[0] != 1 {
                continue;
            }
            let records = sim.tap_records();
            if records[0].snap() != [2] {
                // The held-back packet still crossed first.
                continue;
            }
            assert!(
                records[0].time < records[1].time,
                "overtaker crosses tap first"
            );
            assert_eq!(records[1].snap(), [1]);
            return;
        }
        panic!("no seed in 0..64 produced the reordering pattern");
    }

    #[test]
    fn tap_keeps_a_snap_and_delivery_owns_the_datagram() {
        let mut sim = Simulator::symmetric(LinkConfig::ideal(ms(10)), 1).with_tap(0.5);
        let datagram: Vec<u8> = (0..64).collect();
        sim.send(Side::Client, datagram.clone());
        let tapped = sim.tap_records()[0];
        assert_eq!(tapped.snap(), &datagram[..TAP_SNAP_LEN]);
        assert_eq!(tapped.datagram_len(), 64);
        let Some((_, SimEvent::Datagram { datagram: got, .. })) = sim.step() else {
            panic!("expected delivery");
        };
        assert_eq!(got, datagram);
    }

    #[test]
    fn short_datagrams_are_captured_whole() {
        let record = TapRecord::capture(SimTime::ZERO, Side::Server, &[7, 8, 9]);
        assert_eq!(record.snap(), [7, 8, 9]);
        assert_eq!(record.datagram_len(), 3);
        // A snap never claims more bytes than the datagram had.
        let cut = TapRecord::from_snap(SimTime::ZERO, Side::Client, &[1; 40], 5);
        assert_eq!(cut.snap().len(), TAP_SNAP_LEN);
        assert_eq!(cut.datagram_len(), TAP_SNAP_LEN);
    }

    #[test]
    fn every_sent_datagram_is_delivered_once_or_lost() {
        // Property: under random loss, reorder, jitter and rate settings,
        // each direction delivers or loses every datagram it sent, exactly
        // once; with no timers armed, every event-queue push is a
        // delivery.
        let mut cases = Rng::new(0x5eed);
        for case in 0..200u64 {
            let mut link = || LinkConfig {
                delay: SimDuration::from_micros(1 + cases.next_below(50_000)),
                jitter: SimDuration::from_micros(cases.next_below(5_000)),
                loss: cases.f64() * 0.6,
                reorder: cases.f64() * 0.5,
                reorder_hold: SimDuration::from_micros(cases.next_below(10_000)),
                rate_bytes_per_sec: (cases.next_below(2) == 0)
                    .then(|| 10_000 + cases.next_below(20_000_000)),
            };
            let (c2s, s2c) = (link(), link());
            let mut sim = Simulator::new(c2s, s2c, case);
            // Deliveries per sending direction.
            let mut delivered = [0u64; 2];
            let mut count = |step: Option<(SimTime, SimEvent)>| match step {
                Some((_, SimEvent::Datagram { to, .. })) => {
                    delivered[PathStats::dir(to.other())] += 1;
                    true
                }
                Some((_, SimEvent::Timer { .. })) => panic!("case {case}: no timer was armed"),
                None => false,
            };
            for i in 0..1 + cases.next_below(60) {
                let from = if cases.next_below(2) == 0 {
                    Side::Client
                } else {
                    Side::Server
                };
                sim.send(from, vec![i as u8; 1 + cases.index(1200)]);
                // Interleave some deliveries with the sends.
                if cases.next_below(4) == 0 {
                    count(sim.step());
                }
            }
            while count(sim.step()) {}
            let stats = *sim.stats();
            for (dir, delivered) in delivered.iter().enumerate() {
                assert_eq!(
                    delivered + stats.lost[dir],
                    stats.sent[dir],
                    "case {case} dir {dir}"
                );
            }
            assert_eq!(stats.delivered, delivered[0] + delivered[1]);
            assert_eq!(
                stats.queue_pushes,
                stats.total_sent() - stats.total_lost(),
                "case {case}"
            );
        }
    }

    #[test]
    fn scratch_reuse_replays_identical_sequence() {
        let cfg = LinkConfig::ideal(ms(10)).with_loss(0.2).with_jitter(ms(3));
        let run = |scratch: SimScratch| {
            let mut sim = Simulator::symmetric_from_scratch(cfg.clone(), 9, scratch).with_tap(0.5);
            for i in 0..20u8 {
                sim.send(Side::Client, vec![i]);
            }
            let mut out = Vec::new();
            while let Some(step) = sim.step() {
                out.push(step);
            }
            let taps = sim.tap_records().len();
            (out, taps, sim.into_scratch())
        };
        let (fresh_events, fresh_taps, scratch) = run(SimScratch::default());
        // A simulator recycling the previous run's storage must replay the
        // exact same event sequence, and start with no stale tap records.
        let (reused_events, reused_taps, _) = run(scratch);
        assert_eq!(fresh_events, reused_events);
        assert_eq!(fresh_taps, reused_taps);
    }

    #[test]
    fn side_other_flips() {
        assert_eq!(Side::Client.other(), Side::Server);
        assert_eq!(Side::Server.other(), Side::Client);
        assert_eq!(Side::Client.to_string(), "client");
    }

    #[test]
    fn deterministic_event_sequence() {
        let run = |seed| {
            let cfg = LinkConfig::ideal(ms(10)).with_loss(0.2).with_jitter(ms(3));
            let mut sim = Simulator::symmetric(cfg, seed);
            for i in 0..20u8 {
                sim.send(Side::Client, vec![i]);
            }
            let mut out = Vec::new();
            while let Some((at, ev)) = sim.step() {
                out.push((at, ev));
            }
            out
        };
        assert_eq!(run(5), run(5));
    }
}
