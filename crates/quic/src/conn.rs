//! The QUIC connection state machine.
//!
//! One [`Connection`] object per endpoint per connection, driven entirely
//! from outside: feed datagrams with [`Connection::handle_datagram`], pump
//! outgoing datagrams with [`Connection::poll_transmit`], arm the clock
//! with [`Connection::next_timeout`] / [`Connection::on_timeout`], and
//! consume [`AppEvent`]s. No sockets, no threads, no wall clock — the
//! driving loop lives in [`crate::lab`] and in the scanner.

use crate::ack::RecvTracker;
use crate::config::TransportConfig;
use crate::recovery::SentLedger;
use crate::rtt::RttEstimator;
use crate::spin::{SpinGenerator, SpinRole};
use crate::streams::StreamSet;
use quicspin_netsim::{Rng, SimDuration, SimTime};
use quicspin_qlog::{EventData, PacketSpace, TraceLog};
use quicspin_wire::{
    ConnectionId, Frame, Header, LongHeader, LongType, Packet, PacketNumber, ShortHeader, Version,
};
use std::collections::VecDeque;

/// Endpoint role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Connection initiator (the scanner).
    Client,
    /// Connection acceptor (the web server).
    Server,
}

/// Events surfaced to the application layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppEvent {
    /// The handshake completed; streams may be used.
    HandshakeCompleted,
    /// Ordered stream data arrived.
    StreamData {
        /// Stream ID.
        id: u64,
        /// Newly assembled bytes.
        data: Vec<u8>,
        /// Whether the stream ended.
        fin: bool,
    },
    /// The connection terminated.
    Closed {
        /// Cause description.
        reason: String,
    },
}

/// Connection-fatal errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectionError {
    /// Too many probe timeouts without progress.
    PtoExhausted,
    /// The idle timeout elapsed.
    IdleTimeout,
}

impl core::fmt::Display for ConnectionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConnectionError::PtoExhausted => f.write_str("probe timeout exhausted"),
            ConnectionError::IdleTimeout => f.write_str("idle timeout"),
        }
    }
}

impl std::error::Error for ConnectionError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Handshaking,
    Established,
    Closed,
}

/// Handshake progression (simplified TLS over CRYPTO frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CryptoState {
    // Client
    SentClientHello,
    // Server
    AwaitClientHello,
    SentServerFlight,
    // Both
    Done,
}

const SPACES: [PacketSpace; 3] = [
    PacketSpace::Initial,
    PacketSpace::Handshake,
    PacketSpace::Application,
];

fn space_index(s: PacketSpace) -> usize {
    match s {
        PacketSpace::Initial => 0,
        PacketSpace::Handshake => 1,
        PacketSpace::Application => 2,
    }
}

#[derive(Debug)]
struct Space {
    pn_next: u64,
    recv: RecvTracker,
    sent: SentLedger,
    /// CRYPTO bytes queued for sending (sequential).
    crypto_out: Vec<u8>,
    crypto_out_offset: u64,
    /// CRYPTO reassembly (offset-keyed, reusing the stream machinery on a
    /// dedicated pseudo-stream).
    crypto_in: StreamSet,
    /// Frames queued for retransmission after loss/PTO.
    retransmit: Vec<Frame>,
}

impl Space {
    fn new() -> Self {
        Space {
            pn_next: 0,
            recv: RecvTracker::new(),
            sent: SentLedger::new(),
            crypto_out: Vec::new(),
            crypto_out_offset: 0,
            crypto_in: StreamSet::new(),
            retransmit: Vec::new(),
        }
    }
}

/// Maximum consecutive PTOs before the connection gives up.
const MAX_PTO_COUNT: u32 = 6;

/// Per-connection operational counters.
///
/// Maintained as plain integers on the connection's own state (no atomics
/// — a connection is single-threaded) and read out once via
/// [`Connection::counters`]. Scan loops map these into the campaign
/// telemetry registry; the transport itself never logs or prints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnCounters {
    /// Packets built and emitted by this endpoint.
    pub packets_sent: u64,
    /// Datagrams received and decoded.
    pub packets_received: u64,
    /// Datagrams dropped because they failed to decode.
    pub packets_undecodable: u64,
    /// Decoded packets ignored as duplicates.
    pub packets_duplicate: u64,
    /// Packets declared lost by ack- or time-threshold detection.
    pub packets_lost: u64,
    /// Frames re-queued for retransmission (loss or PTO probe).
    pub frames_retransmitted: u64,
    /// Probe timeouts fired.
    pub ptos_fired: u64,
    /// Outgoing datagrams built into a recycled pool buffer.
    pub datagram_pool_hits: u64,
    /// Outgoing datagrams that needed a fresh allocation.
    pub datagram_pool_misses: u64,
    /// Crypto and stream frames folded into reassembly buffers.
    pub frames_reassembled: u64,
    /// Spin-bit edges observed on received 1-RTT packets.
    pub spin_edges: u64,
}

/// A QUIC connection endpoint.
#[derive(Debug)]
pub struct Connection {
    role: Role,
    cfg: TransportConfig,
    state: State,
    crypto_state: CryptoState,
    version: Version,
    scid: ConnectionId,
    dcid: ConnectionId,
    spaces: [Space; 3],
    rtt: RttEstimator,
    spin: SpinGenerator,
    streams: StreamSet,
    events: VecDeque<AppEvent>,
    qlog: TraceLog,
    rng: Rng,
    start: SimTime,
    last_activity: SimTime,
    pto_count: u32,
    handshake_done_to_send: bool,
    close_to_send: Option<String>,
    close_sent: bool,
    error: Option<ConnectionError>,
    /// Emission latency of the packet most recently produced.
    last_send_latency: SimDuration,
    /// Recycled datagram buffers for outgoing packets (fed back via
    /// [`Connection::recycle_datagram`]).
    datagram_pool: Vec<Vec<u8>>,
    /// How many buffers at the bottom of `datagram_pool` were seeded by
    /// [`Connection::prestock_datagram`] rather than recycled from this
    /// connection's own deliveries. Pops served from that stock are not
    /// pool *hits* — the hit/miss counters track in-run recycling only,
    /// which keeps them independent of cross-run driver state (and so
    /// byte-identical in thread-count-invariant campaign manifests).
    prestocked: usize,
    /// Congestion window in packets (NewReno-style slow start +
    /// congestion avoidance). Gates fresh 1-RTT stream data.
    cwnd: u64,
    ssthresh: u64,
    ca_credit: u64,
    counters: ConnCounters,
}

impl Connection {
    /// Creates a client connection; the first
    /// [`poll_transmit`](Connection::poll_transmit) yields the Initial
    /// flight.
    pub fn new_client(cfg: TransportConfig, seed: u64, now: SimTime) -> Self {
        let mut rng = Rng::new(seed);
        let scid = ConnectionId::from_u64(rng.next_u64());
        let dcid = ConnectionId::from_u64(rng.next_u64());
        let spin = SpinGenerator::new(SpinRole::Client, cfg.spin_policy, cfg.vec_enabled, &mut rng);
        let mut conn = Connection {
            role: Role::Client,
            version: cfg.version,
            state: State::Handshaking,
            crypto_state: CryptoState::SentClientHello,
            scid,
            dcid,
            spaces: [Space::new(), Space::new(), Space::new()],
            rtt: RttEstimator::new(cfg.initial_rtt),
            spin,
            streams: StreamSet::new(),
            events: VecDeque::new(),
            qlog: TraceLog::new("client"),
            rng,
            start: now,
            last_activity: now,
            pto_count: 0,
            handshake_done_to_send: false,
            close_to_send: None,
            close_sent: false,
            error: None,
            last_send_latency: SimDuration::ZERO,
            datagram_pool: Vec::new(),
            prestocked: 0,
            cwnd: cfg.initial_cwnd_packets,
            ssthresh: u64::MAX,
            ca_credit: 0,
            counters: ConnCounters::default(),
            cfg,
        };
        // ClientHello: tag + offered version code.
        let mut ch = b"CH".to_vec();
        ch.extend_from_slice(&conn.version.code().to_be_bytes());
        conn.queue_crypto(PacketSpace::Initial, &ch);
        conn
    }

    /// Creates a server connection awaiting a client Initial.
    pub fn new_server(cfg: TransportConfig, seed: u64, now: SimTime) -> Self {
        let mut rng = Rng::new(seed);
        let scid = ConnectionId::from_u64(rng.next_u64());
        let spin = SpinGenerator::new(SpinRole::Server, cfg.spin_policy, cfg.vec_enabled, &mut rng);
        Connection {
            role: Role::Server,
            version: cfg.version,
            state: State::Handshaking,
            crypto_state: CryptoState::AwaitClientHello,
            scid,
            dcid: ConnectionId::EMPTY,
            spaces: [Space::new(), Space::new(), Space::new()],
            rtt: RttEstimator::new(cfg.initial_rtt),
            spin,
            streams: StreamSet::new(),
            events: VecDeque::new(),
            qlog: TraceLog::new("server"),
            rng,
            start: now,
            last_activity: now,
            pto_count: 0,
            handshake_done_to_send: false,
            close_to_send: None,
            close_sent: false,
            error: None,
            last_send_latency: SimDuration::ZERO,
            datagram_pool: Vec::new(),
            prestocked: 0,
            cwnd: cfg.initial_cwnd_packets,
            ssthresh: u64::MAX,
            ca_credit: 0,
            counters: ConnCounters::default(),
            cfg,
        }
    }

    fn queue_crypto(&mut self, space: PacketSpace, data: &[u8]) {
        let s = &mut self.spaces[space_index(space)];
        s.crypto_out.extend_from_slice(data);
    }

    /// Microseconds since connection start.
    fn rel_us(&self, now: SimTime) -> u64 {
        now.saturating_since(self.start).as_micros()
    }

    /// Whether the handshake has completed.
    pub fn is_established(&self) -> bool {
        self.state == State::Established
    }

    /// Whether the connection has terminated.
    pub fn is_closed(&self) -> bool {
        self.state == State::Closed
    }

    /// Fatal error, if any.
    pub fn error(&self) -> Option<&ConnectionError> {
        self.error.as_ref()
    }

    /// The RTT estimator (the "QUIC stack estimate" of the paper).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Processing latency of the most recently built packet (data vs
    /// pure-ACK fast path); the driving loop delays wire emission by this.
    pub fn last_send_latency(&self) -> SimDuration {
        self.last_send_latency
    }

    /// Hands a spent datagram buffer back for reuse by future
    /// [`Connection::poll_transmit`] calls. Drivers that unwrap delivered
    /// payloads can keep the packet path allocation-free in steady state.
    pub fn recycle_datagram(&mut self, buf: Vec<u8>) {
        // Large enough that a tapped lab run's pre-stocked buffers (see
        // `LabScratch`) cover a whole flow's sends; an untapped driver's
        // delivery ping-pong keeps the pool at one or two entries anyway.
        if self.datagram_pool.len() < 64 {
            self.datagram_pool.push(buf);
        }
    }

    /// Seeds the datagram pool with a buffer from *outside* this
    /// connection's own delivery loop (e.g. a previous run's tap
    /// capture). Unlike [`Connection::recycle_datagram`] reuse, sends
    /// served from this stock count as pool misses: the hit counter
    /// tracks in-run recycling only, so campaign manifests stay
    /// independent of which worker ran the previous probe.
    pub fn prestock_datagram(&mut self, buf: Vec<u8>) {
        if self.datagram_pool.len() < 64 {
            self.datagram_pool.push(buf);
            self.prestocked = self.prestocked.max(self.datagram_pool.len());
        }
    }

    /// Negotiated version.
    pub fn version(&self) -> Version {
        self.version
    }

    /// This endpoint's source connection ID.
    pub fn scid(&self) -> ConnectionId {
        self.scid
    }

    /// The peer's connection ID (empty on a server before the first
    /// Initial arrives).
    pub fn dcid(&self) -> ConnectionId {
        self.dcid
    }

    /// The qlog trace accumulated so far.
    pub fn qlog(&self) -> &TraceLog {
        &self.qlog
    }

    /// Takes ownership of the qlog trace.
    pub fn take_qlog(&mut self) -> TraceLog {
        std::mem::take(&mut self.qlog)
    }

    /// Replaces the qlog event storage with `events` (cleared first),
    /// reusing its allocation. Scan loops recycle per-connection buffers
    /// this way; events already logged are discarded, so call it right
    /// after construction.
    pub fn reuse_qlog_events(&mut self, mut events: Vec<quicspin_qlog::LoggedEvent>) {
        events.clear();
        self.qlog.events = events;
    }

    /// Pops the next application event.
    pub fn poll_event(&mut self) -> Option<AppEvent> {
        self.events.pop_front()
    }

    /// Queues stream data (only meaningful once established).
    pub fn send_stream(&mut self, id: u64, data: &[u8], fin: bool) {
        self.streams.write(id, data, fin);
    }

    /// Starts an orderly close.
    pub fn close(&mut self, reason: &str) {
        if self.state != State::Closed && self.close_to_send.is_none() {
            self.close_to_send = Some(reason.to_string());
        }
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Ingests one datagram.
    pub fn handle_datagram(&mut self, now: SimTime, datagram: &[u8]) {
        if self.state == State::Closed {
            return;
        }
        let Ok(packet) = Packet::decode(datagram, self.cfg.cid_len) else {
            self.counters.packets_undecodable += 1;
            return; // undecodable datagrams are dropped (counted, not logged)
        };
        self.counters.packets_received += 1;
        self.last_activity = now;

        let (space, pn, spin) = match &packet.header {
            Header::Long(h) => {
                let space = match h.ty {
                    LongType::Initial => PacketSpace::Initial,
                    LongType::Handshake => PacketSpace::Handshake,
                    _ => return, // 0-RTT / Retry unused in this stack
                };
                // The server learns its peer CID from the client's scid.
                if self.role == Role::Server && self.dcid.is_empty() {
                    self.dcid = h.scid;
                    self.version = h.version;
                }
                let Some(pn) = h.packet_number else { return };
                (space, pn.value(), None)
            }
            Header::Short(h) => {
                // Spin state updates on every received 1-RTT packet,
                // keyed internally to the largest packet number.
                self.spin.on_receive(h.packet_number.value(), h.spin, h.vec);
                (
                    PacketSpace::Application,
                    h.packet_number.value(),
                    Some(h.spin),
                )
            }
        };

        self.qlog.push(
            self.rel_us(now),
            EventData::PacketReceived {
                space,
                packet_number: pn,
                spin,
                size: datagram.len(),
            },
        );

        let ack_eliciting = packet.is_ack_eliciting();
        let threshold = match space {
            PacketSpace::Application => self.cfg.ack_eliciting_threshold,
            _ => 1, // handshake spaces acknowledge immediately
        };
        let fresh = self.spaces[space_index(space)].recv.on_packet(
            pn,
            ack_eliciting,
            now,
            threshold,
            self.cfg.max_ack_delay,
        );
        if !fresh {
            self.counters.packets_duplicate += 1;
            return; // duplicate: already processed
        }

        for frame in packet.frames {
            self.handle_frame(now, space, frame);
        }
    }

    fn handle_frame(&mut self, now: SimTime, space: PacketSpace, frame: Frame) {
        match frame {
            Frame::Ack {
                delay_us, ranges, ..
            } => {
                let outcome = self.spaces[space_index(space)]
                    .sent
                    .on_ack(&ranges, self.cfg.packet_threshold);
                if let Some(sent_time) = outcome.rtt_sample_from {
                    let raw = now.saturating_since(sent_time);
                    // Cap the peer-reported delay at our max_ack_delay for
                    // the application space (RFC 9002 §5.3).
                    let reported = SimDuration::from_micros(delay_us);
                    let capped = match space {
                        PacketSpace::Application if reported > self.cfg.max_ack_delay => {
                            self.cfg.max_ack_delay
                        }
                        _ => reported,
                    };
                    self.rtt.update(raw, capped);
                    self.qlog.push(
                        self.rel_us(now),
                        EventData::RttUpdated {
                            latest_us: self.rtt.latest().as_micros(),
                            smoothed_us: self.rtt.smoothed().as_micros(),
                            min_us: self.rtt.min().as_micros(),
                            ack_delay_us: capped.as_micros(),
                        },
                    );
                    self.pto_count = 0;
                }
                // Time-threshold loss detection (RFC 9002 §6.1.2):
                // 9/8 × max(smoothed, latest) RTT.
                let loss_delay = {
                    let base = self.rtt.smoothed().max(self.rtt.latest());
                    base + base / 8
                };
                let timed_out = self.spaces[space_index(space)]
                    .sent
                    .detect_time_lost(now, loss_delay);
                let mut outcome = outcome;
                outcome.lost_pns.extend(timed_out.lost_pns);
                outcome.lost_frames.extend(timed_out.lost_frames);
                if space == PacketSpace::Application {
                    self.on_congestion_ack(outcome.newly_acked.len() as u64);
                    if !outcome.lost_pns.is_empty() {
                        self.on_congestion_loss();
                    }
                }
                self.counters.packets_lost += outcome.lost_pns.len() as u64;
                for pn in &outcome.lost_pns {
                    self.qlog.push(
                        self.rel_us(now),
                        EventData::PacketLost {
                            space,
                            packet_number: *pn,
                        },
                    );
                }
                self.requeue_lost(space, outcome.lost_frames);
            }
            Frame::Crypto { offset, data } => {
                self.counters.frames_reassembled += 1;
                self.spaces[space_index(space)]
                    .crypto_in
                    .on_frame(0, offset, data, false);
                self.drive_handshake(now, space);
            }
            Frame::Stream {
                id,
                offset,
                fin,
                data,
            } => {
                self.counters.frames_reassembled += 1;
                self.streams.on_frame(id, offset, data, fin);
                for readable in self.streams.readable() {
                    if let Some((data, fin)) = self.streams.read(readable) {
                        self.events.push_back(AppEvent::StreamData {
                            id: readable,
                            data,
                            fin,
                        });
                    }
                }
            }
            Frame::HandshakeDone => {
                // Client-side handshake confirmation; completion already
                // happened when the crypto flight finished.
            }
            Frame::ConnectionClose { reason, .. } => {
                self.state = State::Closed;
                self.events.push_back(AppEvent::Closed {
                    reason: reason.clone(),
                });
                self.qlog
                    .push(self.rel_us(now), EventData::ConnectionClosed { reason });
            }
            Frame::Ping | Frame::Padding { .. } | Frame::NewConnectionId { .. } => {}
        }
    }

    fn requeue_lost(&mut self, space: PacketSpace, frames: Vec<Frame>) {
        self.counters.frames_retransmitted += frames.len() as u64;
        for frame in frames {
            match frame {
                Frame::Stream {
                    id,
                    offset,
                    fin,
                    data,
                } => self.streams.requeue(id, offset, data, fin),
                Frame::Crypto { offset, data } => {
                    // Re-queue crypto bytes at their offset: handled by the
                    // simple sequential model (offsets re-sent verbatim).
                    let s = &mut self.spaces[space_index(space)];
                    s.retransmit.push(Frame::Crypto { offset, data });
                }
                other => self.spaces[space_index(space)].retransmit.push(other),
            }
        }
    }

    fn crypto_received(&mut self, space: PacketSpace) -> Option<Vec<u8>> {
        let s = &mut self.spaces[space_index(space)];
        s.crypto_in.read(0).map(|(data, _)| data)
    }

    fn drive_handshake(&mut self, now: SimTime, space: PacketSpace) {
        let Some(data) = self.crypto_received(space) else {
            return;
        };
        match (self.role, self.crypto_state, space) {
            // Server receives ClientHello.
            (Role::Server, CryptoState::AwaitClientHello, PacketSpace::Initial)
                if data.len() >= 6 && &data[..2] == b"CH" =>
            {
                let code = u32::from_be_bytes([data[2], data[3], data[4], data[5]]);
                if let Ok(v) = Version::from_code(code) {
                    self.version = v;
                }
                let mut sh = b"SH".to_vec();
                sh.extend_from_slice(&self.version.code().to_be_bytes());
                self.queue_crypto(PacketSpace::Initial, &sh);
                // Server flight: certificate-equivalent + finished.
                self.queue_crypto(PacketSpace::Handshake, b"SFIN");
                self.crypto_state = CryptoState::SentServerFlight;
            }
            // Client receives the server handshake flight.
            (Role::Client, CryptoState::SentClientHello, PacketSpace::Handshake)
                if data.starts_with(b"SFIN") =>
            {
                self.queue_crypto(PacketSpace::Handshake, b"CFIN");
                self.crypto_state = CryptoState::Done;
                self.state = State::Established;
                self.events.push_back(AppEvent::HandshakeCompleted);
                self.qlog
                    .push(self.rel_us(now), EventData::HandshakeCompleted);
            }
            // Server receives the client Finished.
            (Role::Server, CryptoState::SentServerFlight, PacketSpace::Handshake)
                if data.starts_with(b"CFIN") =>
            {
                self.crypto_state = CryptoState::Done;
                self.state = State::Established;
                self.handshake_done_to_send = true;
                self.events.push_back(AppEvent::HandshakeCompleted);
                self.qlog
                    .push(self.rel_us(now), EventData::HandshakeCompleted);
            }
            // ServerHello on the client only confirms the version.
            (Role::Client, _, PacketSpace::Initial) if data.len() >= 6 && &data[..2] == b"SH" => {
                let code = u32::from_be_bytes([data[2], data[3], data[4], data[5]]);
                if let Ok(v) = Version::from_code(code) {
                    self.version = v;
                }
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Transmit path
    // ------------------------------------------------------------------

    /// Produces the next outgoing datagram, if any. Call repeatedly until
    /// `None`.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<Vec<u8>> {
        if self.state == State::Closed && self.close_sent {
            return None;
        }

        // Pending CONNECTION_CLOSE goes out in the highest usable space.
        if let Some(reason) = self.close_to_send.clone() {
            if !self.close_sent {
                let frame = Frame::ConnectionClose {
                    error_code: 0,
                    reason: reason.clone(),
                };
                let datagram = self.build_packet(now, PacketSpace::Application, vec![frame]);
                self.close_sent = true;
                self.state = State::Closed;
                self.events.push_back(AppEvent::Closed {
                    reason: reason.clone(),
                });
                self.qlog
                    .push(self.rel_us(now), EventData::ConnectionClosed { reason });
                return Some(datagram);
            }
            return None;
        }

        for &space in &SPACES {
            if let Some(datagram) = self.poll_space(now, space) {
                return Some(datagram);
            }
        }
        None
    }

    fn poll_space(&mut self, now: SimTime, space: PacketSpace) -> Option<Vec<u8>> {
        let idx = space_index(space);
        let mut frames: Vec<Frame> = Vec::new();

        // 1. ACK if due. The reported delay covers both the intentional
        // hold time and the processing latency the packet is about to
        // incur, so the peer can subtract the full end-host share.
        if self.spaces[idx].recv.wants_ack() {
            if let Some(mut ack) = self.spaces[idx].recv.make_ack(now) {
                if let Frame::Ack {
                    ref mut delay_us, ..
                } = ack
                {
                    *delay_us += self.cfg.ack_processing_latency.as_micros();
                }
                frames.push(ack);
            }
        }

        // 2. Retransmissions.
        if !self.spaces[idx].retransmit.is_empty() {
            frames.append(&mut self.spaces[idx].retransmit);
        }

        // 3. Fresh CRYPTO data.
        if !self.spaces[idx].crypto_out.is_empty() {
            let s = &mut self.spaces[idx];
            let take = s.crypto_out.len().min(self.cfg.max_payload);
            let data: Vec<u8> = s.crypto_out.drain(..take).collect();
            let offset = s.crypto_out_offset;
            s.crypto_out_offset += take as u64;
            frames.push(Frame::Crypto { offset, data });
        }

        // 4. Application data (1-RTT only, once established).
        if space == PacketSpace::Application && self.state == State::Established {
            if self.handshake_done_to_send {
                frames.push(Frame::HandshakeDone);
                self.handshake_done_to_send = false;
            }
            let in_flight = self.spaces[idx].sent.eliciting_in_flight();
            if in_flight < self.cwnd {
                if let Some(stream_frame) = self.streams.next_frame(self.cfg.max_payload) {
                    frames.push(stream_frame);
                }
            }
        }

        if frames.is_empty() {
            return None;
        }
        // Opportunistic ACK bundling (RFC 9000 §13.2.2): any outgoing
        // packet carries the current ACK state. This matters for the
        // study: the request's ACK rides the first response packet, so
        // fast servers do not leave a 25 ms delayed-ACK sample in the
        // client's estimator.
        if !frames.iter().any(|f| matches!(f, Frame::Ack { .. })) {
            if let Some(mut ack) = self.spaces[idx].recv.make_ack(now) {
                if let Frame::Ack {
                    ref mut delay_us, ..
                } = ack
                {
                    *delay_us += self.cfg.ack_processing_latency.as_micros();
                }
                frames.insert(0, ack);
            }
        }
        Some(self.build_packet(now, space, frames))
    }

    fn build_packet(&mut self, now: SimTime, space: PacketSpace, frames: Vec<Frame>) -> Vec<u8> {
        let idx = space_index(space);
        let pn = self.spaces[idx].pn_next;
        self.spaces[idx].pn_next += 1;

        let header = match space {
            PacketSpace::Initial | PacketSpace::Handshake => Header::Long(LongHeader {
                ty: if space == PacketSpace::Initial {
                    LongType::Initial
                } else {
                    LongType::Handshake
                },
                version: self.version,
                dcid: self.dcid,
                scid: self.scid,
                packet_number: Some(PacketNumber::new(pn)),
            }),
            PacketSpace::Application => {
                let (spin, vec) = self.spin.next_outgoing(&mut self.rng);
                Header::Short(ShortHeader {
                    spin,
                    vec,
                    dcid: self.dcid,
                    packet_number: PacketNumber::new(pn),
                })
            }
        };

        let mut packet = Packet { header, frames };
        // Client Initials are padded to at least 1200 bytes (RFC 9000
        // §14.1, anti-amplification).
        if self.role == Role::Client && space == PacketSpace::Initial {
            let current = packet.encoded_len();
            if current < 1200 {
                packet.frames.push(Frame::Padding {
                    len: 1200 - current,
                });
            }
        }
        let ack_eliciting = packet.is_ack_eliciting();
        self.last_send_latency = if ack_eliciting {
            self.cfg.processing_latency
        } else {
            self.cfg.ack_processing_latency
        };
        let buf = match self.datagram_pool.pop() {
            Some(buf) => {
                if self.datagram_pool.len() < self.prestocked {
                    // Dipped into the pre-stocked region: reuse, but not
                    // of this run's own recycling — counted as a miss so
                    // the counters stay driver-state independent.
                    self.prestocked = self.datagram_pool.len();
                    self.counters.datagram_pool_misses += 1;
                } else {
                    self.counters.datagram_pool_hits += 1;
                }
                buf
            }
            None => {
                self.counters.datagram_pool_misses += 1;
                Vec::new()
            }
        };
        let datagram = packet.encode_into(buf);
        self.counters.packets_sent += 1;

        self.spaces[idx]
            .sent
            .on_sent(pn, now, ack_eliciting, packet.frames);
        self.qlog.push(
            self.rel_us(now),
            EventData::PacketSent {
                space,
                packet_number: pn,
                spin: packet.header.spin(),
                size: datagram.len(),
                ack_eliciting,
            },
        );
        if ack_eliciting {
            self.last_activity = now;
        }
        datagram
    }

    // ------------------------------------------------------------------
    // Congestion control (NewReno-lite, packet units)
    // ------------------------------------------------------------------

    fn on_congestion_ack(&mut self, newly_acked: u64) {
        if self.cwnd < self.ssthresh {
            // Slow start: one packet of window per acked packet.
            self.cwnd += newly_acked;
            if self.cwnd >= self.ssthresh {
                self.cwnd = self.ssthresh;
            }
        } else {
            // Congestion avoidance: +1 packet per full window acked.
            self.ca_credit += newly_acked;
            if self.ca_credit >= self.cwnd {
                self.ca_credit -= self.cwnd;
                self.cwnd += 1;
            }
        }
    }

    fn on_congestion_loss(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(2);
        self.cwnd = self.ssthresh;
        self.ca_credit = 0;
    }

    /// Current congestion window in packets.
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// Operational counters accumulated so far, with the spin-edge count
    /// folded in from the spin generator.
    pub fn counters(&self) -> ConnCounters {
        ConnCounters {
            spin_edges: self.spin.edges(),
            ..self.counters
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn pto_interval(&self) -> SimDuration {
        let base = self.rtt.pto(self.cfg.max_ack_delay);
        base * (1u64 << self.pto_count.min(10))
    }

    /// The earliest deadline at which [`Connection::on_timeout`] must run.
    pub fn next_timeout(&self) -> Option<SimTime> {
        if self.state == State::Closed {
            return None;
        }
        let mut deadline: Option<SimTime> = None;
        let mut consider = |t: Option<SimTime>| {
            if let Some(t) = t {
                deadline = Some(match deadline {
                    Some(d) if d <= t => d,
                    _ => t,
                });
            }
        };
        for s in &self.spaces {
            consider(s.recv.next_timeout());
            consider(s.sent.pto_deadline(self.pto_interval()));
        }
        consider(Some(self.last_activity + self.cfg.idle_timeout));
        deadline
    }

    /// Fires expired timers; follow with [`Connection::poll_transmit`].
    pub fn on_timeout(&mut self, now: SimTime) {
        if self.state == State::Closed {
            return;
        }

        // Idle timeout.
        if now >= self.last_activity + self.cfg.idle_timeout {
            self.state = State::Closed;
            self.error = Some(ConnectionError::IdleTimeout);
            self.events.push_back(AppEvent::Closed {
                reason: "idle timeout".into(),
            });
            self.qlog.push(
                self.rel_us(now),
                EventData::ConnectionClosed {
                    reason: "idle timeout".into(),
                },
            );
            return;
        }

        // Delayed-ACK timers.
        for s in &mut self.spaces {
            s.recv.on_timeout(now);
        }

        // PTO.
        let pto = self.pto_interval();
        let expired: Vec<usize> = (0..3)
            .filter(|&i| {
                self.spaces[i]
                    .sent
                    .pto_deadline(pto)
                    .is_some_and(|d| now >= d)
            })
            .collect();
        if !expired.is_empty() {
            self.pto_count += 1;
            self.counters.ptos_fired += 1;
            if self.pto_count > MAX_PTO_COUNT {
                self.state = State::Closed;
                self.error = Some(ConnectionError::PtoExhausted);
                self.events.push_back(AppEvent::Closed {
                    reason: "pto exhausted".into(),
                });
                self.qlog.push(
                    self.rel_us(now),
                    EventData::ConnectionClosed {
                        reason: "pto exhausted".into(),
                    },
                );
                return;
            }
            for i in expired {
                let frames = self.spaces[i].sent.drain_for_retransmit();
                if frames.is_empty() {
                    // Nothing retransmittable: probe with a PING.
                    self.spaces[i].retransmit.push(Frame::Ping);
                } else {
                    let space = SPACES[i];
                    self.requeue_lost(space, frames);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpinPolicy;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    /// Drives both connections to quiescence with an ideal, instantaneous
    /// link, alternating directions. Returns the number of datagrams.
    fn pump(client: &mut Connection, server: &mut Connection, now: SimTime) -> usize {
        let mut n = 0;
        loop {
            let mut progressed = false;
            while let Some(d) = client.poll_transmit(now) {
                server.handle_datagram(now, &d);
                n += 1;
                progressed = true;
            }
            while let Some(d) = server.poll_transmit(now) {
                client.handle_datagram(now, &d);
                n += 1;
                progressed = true;
            }
            if !progressed {
                return n;
            }
        }
    }

    fn pair() -> (Connection, Connection) {
        let client = Connection::new_client(TransportConfig::default(), 1, SimTime::ZERO);
        let server = Connection::new_server(TransportConfig::default(), 2, SimTime::ZERO);
        (client, server)
    }

    #[test]
    fn handshake_completes_both_sides() {
        let (mut client, mut server) = pair();
        pump(&mut client, &mut server, at(0));
        assert!(client.is_established());
        assert!(server.is_established());
        assert!(matches!(
            client.poll_event(),
            Some(AppEvent::HandshakeCompleted)
        ));
        assert!(matches!(
            server.poll_event(),
            Some(AppEvent::HandshakeCompleted)
        ));
        assert!(client.qlog().handshake_completed());
    }

    #[test]
    fn counters_track_sent_received_and_drops() {
        let (mut client, mut server) = pair();
        let n = pump(&mut client, &mut server, at(0));
        let c = client.counters();
        let s = server.counters();
        assert_eq!((c.packets_sent + s.packets_sent) as usize, n);
        assert_eq!(c.packets_received, s.packets_sent);
        assert_eq!(s.packets_received, c.packets_sent);
        assert_eq!(c.packets_undecodable, 0);

        // Garbage is counted as undecodable, not received.
        server.handle_datagram(at(1), &[0xff, 0x00]);
        assert_eq!(server.counters().packets_undecodable, 1);
        assert_eq!(server.counters().packets_received, c.packets_sent);

        // A replayed datagram is received but flagged duplicate.
        client.send_stream(0, b"x", true);
        let d = client.poll_transmit(at(2)).unwrap();
        server.handle_datagram(at(2), &d);
        server.handle_datagram(at(2), &d);
        assert_eq!(server.counters().packets_duplicate, 1);
    }

    #[test]
    fn reassembly_counter_tracks_crypto_and_stream_frames() {
        let (mut client, mut server) = pair();
        pump(&mut client, &mut server, at(0));
        // The handshake alone moves crypto frames both ways.
        let hs = server.counters().frames_reassembled;
        assert!(hs > 0, "handshake crypto frames must count");
        client.send_stream(0, b"payload", true);
        pump(&mut client, &mut server, at(5));
        assert!(
            server.counters().frames_reassembled > hs,
            "stream frames must count on top of crypto frames"
        );
    }

    #[test]
    fn prestocked_buffers_are_reused_but_never_counted_as_hits() {
        let (mut client, mut server) = pair();
        pump(&mut client, &mut server, at(0));
        let base = client.counters();
        client.prestock_datagram(Vec::with_capacity(1500));
        client.send_stream(0, b"ping", true);
        pump(&mut client, &mut server, at(5));
        let after = client.counters();
        assert_eq!(
            after.datagram_pool_hits, base.datagram_pool_hits,
            "pre-stock reuse must not count as an in-run recycling hit"
        );
        assert!(after.datagram_pool_misses > base.datagram_pool_misses);
        // Once the pre-stock is consumed, genuine recycling counts again.
        client.recycle_datagram(Vec::with_capacity(1500));
        client.send_stream(4, b"ping again", true);
        pump(&mut client, &mut server, at(10));
        assert_eq!(
            client.counters().datagram_pool_hits,
            base.datagram_pool_hits + 1
        );
    }

    #[test]
    fn counters_track_pool_reuse_and_spin_edges() {
        let (mut client, mut server) = pair();
        pump(&mut client, &mut server, at(0));
        let before = client.counters();
        assert_eq!(before.datagram_pool_hits, 0, "nothing recycled yet");
        client.recycle_datagram(Vec::with_capacity(1500));
        client.send_stream(0, b"ping", true);
        pump(&mut client, &mut server, at(5));
        server.send_stream(1, b"pong", true);
        pump(&mut client, &mut server, at(10));
        let after = client.counters();
        assert_eq!(after.datagram_pool_hits, 1);
        assert!(
            after.spin_edges > 0,
            "1-RTT ping-pong must observe spin edges"
        );
    }

    #[test]
    fn client_initial_is_padded_to_1200() {
        let mut client = Connection::new_client(TransportConfig::default(), 1, SimTime::ZERO);
        let initial = client.poll_transmit(at(0)).unwrap();
        assert!(initial.len() >= 1200, "initial is {} bytes", initial.len());
    }

    #[test]
    fn version_negotiated_from_client() {
        let cfg = TransportConfig::default().with_version(Version::Draft29);
        let mut client = Connection::new_client(cfg, 1, SimTime::ZERO);
        let mut server = Connection::new_server(TransportConfig::default(), 2, SimTime::ZERO);
        pump(&mut client, &mut server, at(0));
        assert_eq!(server.version(), Version::Draft29);
        assert_eq!(client.version(), Version::Draft29);
    }

    #[test]
    fn stream_data_flows_after_handshake() {
        let (mut client, mut server) = pair();
        pump(&mut client, &mut server, at(0));
        client.send_stream(0, b"GET /", true);
        pump(&mut client, &mut server, at(1));
        let mut got = None;
        while let Some(ev) = server.poll_event() {
            if let AppEvent::StreamData { id, data, fin } = ev {
                got = Some((id, data, fin));
            }
        }
        assert_eq!(got, Some((0, b"GET /".to_vec(), true)));
    }

    #[test]
    fn rtt_estimator_measures_path() {
        let (mut client, mut server) = pair();
        // Handshake with a 20 ms one-way delay, done by stepping manually.
        let d1 = client.poll_transmit(at(0)).unwrap();
        server.handle_datagram(at(20), &d1);
        let mut t = 20;
        for _ in 0..10 {
            let mut moved = false;
            while let Some(d) = server.poll_transmit(at(t)) {
                client.handle_datagram(at(t + 20), &d);
                moved = true;
            }
            t += 20;
            while let Some(d) = client.poll_transmit(at(t)) {
                server.handle_datagram(at(t + 20), &d);
                moved = true;
            }
            t += 20;
            if !moved {
                break;
            }
        }
        assert!(client.rtt().has_samples());
        let measured = client.rtt().min().as_millis_f64();
        assert!((measured - 40.0).abs() < 5.0, "min rtt {measured} ms");
    }

    #[test]
    fn spin_bit_spins_during_exchange() {
        let (mut client, mut server) = pair();
        pump(&mut client, &mut server, at(0));
        // Several request/response rounds produce short-header traffic.
        for round in 0..4u64 {
            let id = round * 4;
            client.send_stream(id, b"ping", true);
            pump(&mut client, &mut server, at(10 + round));
            server.send_stream(id + 1, b"pong", true);
            pump(&mut client, &mut server, at(20 + round));
        }
        let spins: Vec<bool> = client
            .qlog()
            .spin_observations()
            .iter()
            .map(|&(_, _, s)| s)
            .collect();
        assert!(spins.iter().any(|&s| s), "some spin=1 observed: {spins:?}");
        assert!(spins.iter().any(|&s| !s), "some spin=0 observed: {spins:?}");
    }

    #[test]
    fn fixed_zero_server_never_sets_spin() {
        let server_cfg = TransportConfig::default().with_spin_policy(SpinPolicy::FixedZero);
        let mut client = Connection::new_client(TransportConfig::default(), 1, SimTime::ZERO);
        let mut server = Connection::new_server(server_cfg, 2, SimTime::ZERO);
        pump(&mut client, &mut server, at(0));
        for round in 0..4u64 {
            let id = round * 4;
            client.send_stream(id, b"ping", true);
            pump(&mut client, &mut server, at(10 + round));
            server.send_stream(id + 1, b"pong", true);
            pump(&mut client, &mut server, at(20 + round));
        }
        let spins: Vec<bool> = client
            .qlog()
            .spin_observations()
            .iter()
            .map(|&(_, _, s)| s)
            .collect();
        assert!(!spins.is_empty());
        assert!(spins.iter().all(|&s| !s), "all zero expected: {spins:?}");
    }

    #[test]
    fn connection_close_propagates() {
        let (mut client, mut server) = pair();
        pump(&mut client, &mut server, at(0));
        // Drain handshake events.
        while client.poll_event().is_some() {}
        while server.poll_event().is_some() {}
        client.close("done");
        pump(&mut client, &mut server, at(5));
        assert!(client.is_closed());
        assert!(server.is_closed());
        assert!(matches!(server.poll_event(), Some(AppEvent::Closed { .. })));
    }

    #[test]
    fn idle_timeout_fires() {
        let mut client = Connection::new_client(TransportConfig::default(), 1, SimTime::ZERO);
        let _ = client.poll_transmit(at(0));
        let deadline = client.next_timeout().unwrap();
        // No response ever arrives; advance past every PTO to the idle cut.
        let mut now = deadline;
        for _ in 0..50 {
            client.on_timeout(now);
            while client.poll_transmit(now).is_some() {}
            if client.is_closed() {
                break;
            }
            now = client.next_timeout().unwrap_or(now + ms(1000));
        }
        assert!(client.is_closed());
        assert!(client.error().is_some());
    }

    #[test]
    fn pto_retransmits_lost_initial() {
        let mut client = Connection::new_client(TransportConfig::default(), 1, SimTime::ZERO);
        let first = client.poll_transmit(at(0)).unwrap();
        // Initial lost; fire the PTO.
        let deadline = client.next_timeout().unwrap();
        client.on_timeout(deadline);
        let retrans = client.poll_transmit(deadline);
        assert!(retrans.is_some(), "PTO must produce a retransmission");
        // The retransmission still contains the ClientHello crypto data.
        let packet = Packet::decode(&retrans.unwrap(), 8).unwrap();
        assert!(packet
            .frames
            .iter()
            .any(|f| matches!(f, Frame::Crypto { .. } | Frame::Ping)));
        let _ = first;
    }

    #[test]
    fn handshake_completes_under_loss_via_retransmission() {
        // Drop every first transmission, deliver retransmissions.
        let (mut client, mut server) = pair();
        let mut now = SimTime::ZERO;
        let mut drop_next = true;
        for _ in 0..200 {
            let mut progressed = false;
            while let Some(d) = client.poll_transmit(now) {
                if !drop_next {
                    server.handle_datagram(now, &d);
                }
                drop_next = !drop_next;
                progressed = true;
            }
            while let Some(d) = server.poll_transmit(now) {
                if !drop_next {
                    client.handle_datagram(now, &d);
                }
                drop_next = !drop_next;
                progressed = true;
            }
            if client.is_established() && server.is_established() {
                break;
            }
            if !progressed {
                let next = [client.next_timeout(), server.next_timeout()]
                    .into_iter()
                    .flatten()
                    .min();
                let Some(next) = next else { break };
                now = next;
                client.on_timeout(now);
                server.on_timeout(now);
            }
        }
        assert!(client.is_established(), "client established despite loss");
        assert!(server.is_established(), "server established despite loss");
    }

    #[test]
    fn duplicate_datagrams_are_ignored() {
        let (mut client, mut server) = pair();
        let d = client.poll_transmit(at(0)).unwrap();
        server.handle_datagram(at(1), &d);
        let events_before = server.qlog().len();
        server.handle_datagram(at(2), &d);
        // The duplicate is logged as received but not re-processed: no
        // second ServerHello is queued.
        let received_count = server
            .qlog()
            .events
            .iter()
            .filter(|e| matches!(e.data, EventData::PacketReceived { .. }))
            .count();
        assert_eq!(received_count, 2);
        assert!(server.qlog().len() >= events_before);
        let mut hellos = 0;
        let mut c = Connection::new_client(TransportConfig::default(), 9, SimTime::ZERO);
        while let Some(d) = server.poll_transmit(at(3)) {
            let p = Packet::decode(&d, 8).unwrap();
            for f in &p.frames {
                if let Frame::Crypto { data, .. } = f {
                    if data.starts_with(b"SH") {
                        hellos += 1;
                    }
                }
            }
            c.handle_datagram(at(3), &d);
        }
        assert_eq!(hellos, 1, "only one ServerHello despite duplicate CH");
    }

    #[test]
    fn garbage_datagram_is_dropped() {
        let (mut client, _) = pair();
        client.handle_datagram(at(0), &[0xff, 0x00, 0x01]);
        client.handle_datagram(at(0), &[]);
        assert!(!client.is_closed());
    }

    #[test]
    fn qlog_records_sent_and_received_with_spin() {
        let (mut client, mut server) = pair();
        pump(&mut client, &mut server, at(0));
        client.send_stream(0, b"x", true);
        pump(&mut client, &mut server, at(1));
        let has_sent_spin = server.qlog().events.iter().any(|e| {
            matches!(
                e.data,
                EventData::PacketSent {
                    space: PacketSpace::Application,
                    spin: Some(_),
                    ..
                }
            )
        });
        assert!(has_sent_spin);
    }
}
