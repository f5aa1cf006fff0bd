//! ConnectionLab: one complete client↔server exchange over a simulated
//! path — the unit of work the scanner performs once per target, and the
//! easiest way to experiment with the stack.
//!
//! The lab owns a [`Simulator`], a client and a server [`Connection`], and
//! a tiny server "application" that answers the request after a
//! configurable processing delay, in chunks separated by configurable
//! gaps. Those gaps are *end-host delay* — the very thing the paper
//! identifies as the cause of spin-bit RTT overestimation (§6): the spin
//! signal only advances when the endpoints transmit, so every server-side
//! pause stretches the observed spin period, while the stack's ACK-based
//! estimate stays anchored to the network path.

use crate::config::TransportConfig;
use crate::conn::{AppEvent, ConnCounters, ConnStorage, Connection, CID_LEN};
use quicspin_core::{GreaseFilter, ObserverReport, PacketObservation};
use quicspin_netsim::{
    LinkConfig, PathStats, Side, SimDuration, SimEvent, SimScratch, SimTime, Simulator, TapRecord,
};
use quicspin_qlog::{LoggedEvent, TraceLog};
use quicspin_wire::Header;

/// The server application's response behaviour.
#[derive(Debug, Clone)]
pub struct ServerProfile {
    /// Delay between receiving the full request and the first response
    /// chunk (request processing time).
    pub initial_delay: SimDuration,
    /// Response chunks: (gap after the previous chunk, chunk size in bytes).
    pub chunks: Vec<(SimDuration, usize)>,
}

impl Default for ServerProfile {
    fn default() -> Self {
        ServerProfile {
            initial_delay: SimDuration::from_millis(5),
            chunks: vec![
                (SimDuration::ZERO, 12_000),
                (SimDuration::from_millis(2), 12_000),
                (SimDuration::from_millis(2), 12_000),
            ],
        }
    }
}

impl ServerProfile {
    /// A profile answering instantly with a single chunk of `size` bytes.
    pub fn instant(size: usize) -> Self {
        ServerProfile {
            initial_delay: SimDuration::ZERO,
            chunks: vec![(SimDuration::ZERO, size)],
        }
    }

    /// Total response size.
    pub fn total_bytes(&self) -> usize {
        self.chunks.iter().map(|&(_, size)| size).sum()
    }
}

/// Configuration of one lab run.
#[derive(Debug, Clone)]
pub struct LabConfig {
    /// Full path round-trip time in milliseconds (split evenly).
    pub path_rtt_ms: f64,
    /// Per-direction jitter bound in milliseconds.
    pub jitter_ms: f64,
    /// Per-direction loss probability.
    pub loss: f64,
    /// Per-direction reorder probability.
    pub reorder: f64,
    /// How long a held-back (reordered) packet is delayed. Reordering is
    /// only observable when this exceeds the inter-packet spacing.
    pub reorder_hold_ms: f64,
    /// Seed for all randomness in the run.
    pub seed: u64,
    /// Client transport configuration.
    pub client: TransportConfig,
    /// Server transport configuration.
    pub server: TransportConfig,
    /// Server application behaviour.
    pub server_profile: ServerProfile,
    /// Bottleneck link rate in bytes/second (`None` = infinite). Finite
    /// rates spread flights across the path (ack clocking), which is what
    /// lets sub-RTT reordering cross spin edges at all.
    pub link_rate_bytes_per_sec: Option<u64>,
    /// Tap position along the path (0 = client, 1 = server), or `None`
    /// for no tap at all. Disabling the tap changes nothing about the
    /// exchange — the tap is purely passive — but skips the per-datagram
    /// capture, which a scan loop that never reads the records wants.
    pub tap_position: Option<f64>,
    /// The request bytes sent on stream 0.
    pub request: Vec<u8>,
    /// Bytes prepended to the first response chunk (e.g. an HTTP/3-style
    /// response header, so the `server:` identification travels the wire).
    pub response_prefix: Vec<u8>,
    /// Measure real (host) wall time of the handshake and transfer phases
    /// into [`LabStats`]. Off by default so un-instrumented runs never
    /// read the monotonic clock.
    pub time_stages: bool,
}

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig {
            path_rtt_ms: 40.0,
            jitter_ms: 0.0,
            loss: 0.0,
            reorder: 0.0,
            reorder_hold_ms: 2.0,
            seed: 1,
            client: TransportConfig::default(),
            server: TransportConfig::default(),
            server_profile: ServerProfile::default(),
            link_rate_bytes_per_sec: None,
            tap_position: Some(0.5),
            request: b"GET / HTTP/3\r\nhost: lab.example\r\n\r\n".to_vec(),
            response_prefix: Vec::new(),
            time_stages: false,
        }
    }
}

/// Operational statistics of one lab run: both endpoints' transport
/// counters (datagram-pool behaviour included), the simulated path's
/// stats, and (when [`LabConfig::time_stages`] is set) real wall time
/// per phase.
///
/// Plain data — the transport stack carries no telemetry dependency; the
/// scanner maps these into its campaign registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabStats {
    /// Client transport counters.
    pub client: ConnCounters,
    /// Server transport counters.
    pub server: ConnCounters,
    /// Simulated-path statistics (drops, reorders, queue high-water).
    pub path: PathStats,
    /// Host wall time from lab start to handshake completion (0 when
    /// stage timing is off or the handshake never completed).
    pub handshake_wall_ns: u64,
    /// Host wall time from handshake completion to lab end (0 when stage
    /// timing is off or the handshake never completed).
    pub transfer_wall_ns: u64,
}

/// Everything a lab run produced.
#[derive(Debug)]
pub struct LabOutcome {
    /// Did the handshake finish on the client?
    pub handshake_completed: bool,
    /// Response bytes the client received on stream 0.
    pub response_bytes: usize,
    /// The raw response data received on stream 0 (prefix + body).
    pub response_data: Vec<u8>,
    /// Whether the response stream finished (FIN seen).
    pub response_complete: bool,
    /// Client qlog trace (the paper's §3.3 data source; the server
    /// endpoint logs nothing).
    pub client_qlog: TraceLog,
    /// Tap records (time-sorted), both directions: each datagram's
    /// header snap and length.
    pub tap_records: Vec<TapRecord>,
    /// Simulated completion time.
    pub finished_at: SimTime,
    /// The client stack's RTT samples in µs.
    pub client_stack_samples_us: Vec<u64>,
    /// Operational statistics of the run.
    pub stats: LabStats,
}

impl LabOutcome {
    /// §3.3 extraction from the client qlog: received 1-RTT packets as
    /// observations (time, packet number, spin).
    pub fn client_observations(&self) -> Vec<PacketObservation> {
        self.client_qlog
            .spin_observations()
            .into_iter()
            .map(|(t, pn, s)| PacketObservation::qlog(t, pn, s))
            .collect()
    }

    /// Observations an on-path tap would make of `from`-originated 1-RTT
    /// packets (no packet numbers — the real wire encrypts them; the VEC
    /// rides in the visible reserved bits).
    pub fn tap_observations(&self, from: Side) -> Vec<PacketObservation> {
        self.tap_records
            .iter()
            .filter(|r| r.from == from)
            .filter_map(|r| {
                Header::peek_observable(r.snap(), CID_LEN)
                    .map(|h| PacketObservation::wire(r.time.as_micros(), h.spin).with_vec(h.vec))
            })
            .collect()
    }

    /// Full observer report over the client's received packets, using the
    /// paper's baseline configuration.
    pub fn observer_report(&self) -> ObserverReport {
        ObserverReport::build(
            &self.client_observations(),
            self.client_stack_samples_us.clone(),
            GreaseFilter::paper(),
        )
    }
}

/// Reusable per-lab-run storage.
///
/// One connection lab run allocates a simulator event queue, two
/// connections' ledgers and buffers, the client's qlog event buffer (the
/// server logs nothing) and the response byte buffer. A scan loop
/// performs millions of runs; keeping one `LabScratch` per worker thread
/// and passing it to [`run_with_scratch`](ConnectionLab::run_with_scratch)
/// (then recovering the outcome's buffers via
/// [`reclaim`](LabScratch::reclaim)) leaves a run with well under one
/// allocation per packet: every delivered datagram buffer is recycled
/// into the receiver's pool, the client hands its surplus buffers to the
/// server after each run, and each connection's pooled buffers pre-stock
/// the next run's. Results are identical to [`run`](ConnectionLab::run).
#[derive(Debug, Default)]
pub struct LabScratch {
    sim: SimScratch,
    /// The previous run's client and server storage.
    conns: [ConnStorage; 2],
    client_events: Vec<LoggedEvent>,
    response_data: Vec<u8>,
}

impl LabScratch {
    /// Recovers the reusable buffers from a finished outcome. Call once
    /// the outcome's data has been consumed; the next
    /// [`run_with_scratch`](ConnectionLab::run_with_scratch) then reuses
    /// the allocations instead of making fresh ones.
    pub fn reclaim(&mut self, outcome: LabOutcome) {
        self.response_data = outcome.response_data;
        self.client_events = outcome.client_qlog.events;
        self.sim.restock_tap_records(outcome.tap_records);
    }

    /// Returns a client qlog event buffer that was taken *out* of an
    /// outcome (e.g. captured for inspection, then discarded) so the next
    /// run reuses its allocation. Only useful when [`reclaim`] saw an
    /// already-emptied trace.
    ///
    /// [`reclaim`]: LabScratch::reclaim
    pub fn restock_client_events(&mut self, mut events: Vec<LoggedEvent>) {
        events.clear();
        if events.capacity() > self.client_events.capacity() {
            self.client_events = events;
        }
    }
}

/// Hard wall on a lab run's simulated duration.
const MAX_DURATION: SimDuration = SimDuration::from_secs(60);

/// Timer token for transport timeouts.
const TOKEN_TRANSPORT: u64 = 0;
/// Timer tokens >= this index into the server app's pending chunks.
const TOKEN_APP_BASE: u64 = 1;

/// Drives one client↔server connection through a simulated path.
#[derive(Debug)]
pub struct ConnectionLab {
    config: LabConfig,
}

impl ConnectionLab {
    /// Creates a lab from its configuration.
    pub fn new(config: LabConfig) -> Self {
        ConnectionLab { config }
    }

    /// Runs the exchange to completion (or to the simulated-time limit).
    pub fn run(&mut self) -> LabOutcome {
        self.run_with_scratch(&mut LabScratch::default())
    }

    /// [`run`](ConnectionLab::run), but reusing the allocations held in
    /// `scratch`. The outcome is identical; only the allocation behaviour
    /// differs.
    pub fn run_with_scratch(&mut self, scratch: &mut LabScratch) -> LabOutcome {
        let cfg = &self.config;
        let one_way = SimDuration::from_millis_f64(cfg.path_rtt_ms / 2.0);
        let link = LinkConfig {
            delay: one_way,
            jitter: SimDuration::from_millis_f64(cfg.jitter_ms),
            loss: cfg.loss,
            reorder: cfg.reorder,
            reorder_hold: SimDuration::from_millis_f64(cfg.reorder_hold_ms),
            rate_bytes_per_sec: cfg.link_rate_bytes_per_sec,
        };
        let mut sim =
            Simulator::symmetric_from_scratch(link, cfg.seed, std::mem::take(&mut scratch.sim));
        if let Some(position) = cfg.tap_position {
            sim = sim.with_tap(position);
        }
        let [client_storage, server_storage] = std::mem::take(&mut scratch.conns);
        let mut client = Connection::new_client_in(
            cfg.client.clone(),
            cfg.seed.wrapping_mul(2) + 1,
            sim.now(),
            client_storage,
        );
        let mut server = Connection::new_server_in(
            cfg.server.clone(),
            cfg.seed.wrapping_mul(2) + 2,
            sim.now(),
            server_storage,
        );
        client.reuse_qlog_events(std::mem::take(&mut scratch.client_events));

        // Server app state: request assembly + scheduled response chunks.
        let mut request_done = false;
        let mut response_plan: Vec<usize> = Vec::new(); // chunk sizes by index
        let mut chunks_sent = 0usize;
        let mut response_fin_sent = false;
        let mut response_bytes = 0usize;
        let mut response_data: Vec<u8> = std::mem::take(&mut scratch.response_data);
        response_data.clear();
        let mut client_done = false;
        let deadline = SimTime::ZERO + MAX_DURATION;
        // Host wall-time stage split (handshake vs. everything after).
        // Gated so an un-instrumented run never reads the clock.
        let started_at = cfg.time_stages.then(std::time::Instant::now);
        let mut handshake_wall_ns = 0u64;
        let mut established_seen = false;

        // Kick off: client Initial flight.
        // Timer arming is deduplicated: re-arming the same deadline after
        // every event would flood the queue with duplicate wakeups.
        let mut timers = Timers::default();
        flush(&mut sim, Side::Client, &mut client);
        timers.arm(&mut sim, Side::Client, &client);
        timers.arm(&mut sim, Side::Server, &server);

        while let Some((now, event)) = sim.step() {
            if now > deadline {
                break;
            }
            // Endpoints this iteration can have changed: the one the event
            // reached and any the application drives below. Every other
            // endpoint has nothing to send and the deadline it was last
            // armed with, so flushing and re-arming it is skipped.
            let mut touched = [false; 2];
            match event {
                SimEvent::Datagram { to, datagram } => {
                    touched[side_index(to)] = true;
                    let conn = match to {
                        Side::Client => &mut client,
                        Side::Server => &mut server,
                    };
                    conn.handle_datagram(now, &datagram);
                    // The delivery owns its buffer (the tap kept only a
                    // snap), so the receiver's own sends reuse it.
                    conn.recycle_datagram(datagram);
                }
                SimEvent::Timer { side, token } => {
                    if token >= TOKEN_APP_BASE {
                        // Server app: emit response chunk #(token - base).
                        let idx = (token - TOKEN_APP_BASE) as usize;
                        if side == Side::Server && idx == chunks_sent && idx < response_plan.len() {
                            let size = response_plan[idx];
                            let fin = idx + 1 == response_plan.len();
                            if idx == 0 {
                                server.send_stream(0, &cfg.response_prefix, false);
                            }
                            server.send_stream_repeat(0, 0x42, size, fin);
                            touched[SERVER] = true;
                            chunks_sent += 1;
                            if fin {
                                response_fin_sent = true;
                            }
                        }
                    } else {
                        let conn = match side {
                            Side::Client => &mut client,
                            Side::Server => &mut server,
                        };
                        touched[side_index(side)] = true;
                        timers.pending[side_index(side)] = None;
                        conn.on_timeout(now);
                    }
                }
            }

            if !established_seen && client.is_established() {
                established_seen = true;
                if let Some(start) = started_at {
                    handshake_wall_ns = elapsed_ns(start);
                }
            }

            // Application logic driven by connection events.
            while let Some(ev) = client.poll_event() {
                touched[CLIENT] = true;
                match ev {
                    AppEvent::HandshakeCompleted => {
                        client.send_stream(0, &cfg.request, true);
                    }
                    AppEvent::StreamData { id: 0, fin } => {
                        response_bytes += client.read_stream(0, &mut response_data);
                        if fin {
                            client_done = true;
                            client.close("request complete");
                        }
                    }
                    _ => {}
                }
            }
            while let Some(ev) = server.poll_event() {
                touched[SERVER] = true;
                match ev {
                    AppEvent::StreamData {
                        id: 0, fin: true, ..
                    } if !request_done => {
                        request_done = true;
                        // Schedule the response chunks.
                        let mut t = now + cfg.server_profile.initial_delay;
                        for (i, &(gap, size)) in cfg.server_profile.chunks.iter().enumerate() {
                            t += gap;
                            response_plan.push(size);
                            sim.set_timer(Side::Server, t, TOKEN_APP_BASE + i as u64);
                        }
                    }
                    _ => {}
                }
            }

            // Client flush, server flush, client arm, server arm: the
            // simulator must see its pushes in this order, skipped or not.
            for (side, conn) in [(Side::Client, &mut client), (Side::Server, &mut server)] {
                if touched[side_index(side)] {
                    flush(&mut sim, side, conn);
                } else {
                    timers.debug_assert_idle(&sim, side, conn);
                }
            }
            for (side, conn) in [(Side::Client, &client), (Side::Server, &server)] {
                if touched[side_index(side)] {
                    timers.arm(&mut sim, side, conn);
                }
            }

            if client.is_closed() && server.is_closed() {
                break;
            }
            // Once the exchange logically finished and nothing is pending,
            // stop even if idle timers are still armed.
            if client_done && response_fin_sent && client.is_closed() && sim.pending() == 0 {
                break;
            }
        }

        let finished_at = sim.now();
        let tap_records = sim.take_tap_records();
        let stats = LabStats {
            client: client.counters(),
            server: server.counters(),
            path: *sim.stats(),
            handshake_wall_ns,
            transfer_wall_ns: match started_at {
                Some(start) if established_seen => elapsed_ns(start) - handshake_wall_ns,
                _ => 0,
            },
        };
        scratch.sim = sim.into_scratch();
        let outcome = LabOutcome {
            handshake_completed: client.is_established()
                || client.is_closed() && client.qlog().handshake_completed(),
            response_bytes,
            response_data,
            response_complete: client_done,
            client_stack_samples_us: client.rtt().samples_us().to_vec(),
            client_qlog: client.take_qlog(),
            tap_records,
            finished_at,
            stats,
        };
        let (mut client_storage, mut server_storage) =
            (client.into_storage(), server.into_storage());
        // The client receives more datagrams than it sends, so its pool
        // ends the run with the server's buffers: hand them back.
        client_storage.hand_over_datagrams(&mut server_storage);
        scratch.conns = [client_storage, server_storage];
        outcome
    }
}

/// Nanoseconds since `start`, saturated to `u64::MAX`.
fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn flush(sim: &mut Simulator, side: Side, conn: &mut Connection) {
    while let Some(datagram) = conn.poll_transmit(sim.now()) {
        sim.send_after(side, conn.last_send_latency(), datagram);
    }
}

const CLIENT: usize = 0;
const SERVER: usize = 1;

fn side_index(side: Side) -> usize {
    match side {
        Side::Client => CLIENT,
        Side::Server => SERVER,
    }
}

/// Per-side transport timer state.
#[derive(Default)]
struct Timers {
    /// The earliest wakeup queued in the simulator and not yet fired.
    pending: [Option<SimTime>; 2],
    /// The connection's `next_timeout` when it was last armed.
    deadline: [Option<SimTime>; 2],
}

impl Timers {
    fn arm(&mut self, sim: &mut Simulator, side: Side, conn: &Connection) {
        let i = side_index(side);
        self.deadline[i] = conn.next_timeout();
        let Some(at) = self.deadline[i] else {
            return;
        };
        // Skip if an earlier-or-equal wakeup is already pending; a stale
        // later deadline is handled when that wakeup fires (on_timeout
        // re-checks).
        if self.pending[i].is_some_and(|pending| pending <= at) {
            return;
        }
        self.pending[i] = Some(at);
        sim.set_timer(side, at, TOKEN_TRANSPORT);
    }

    /// Debug builds check the skip rule on every endpoint the loop skips:
    /// it has nothing to send and the same deadline as when last armed.
    /// A `None` poll changes no connection state, so release and debug
    /// runs stay identical.
    fn debug_assert_idle(&self, sim: &Simulator, side: Side, conn: &mut Connection) {
        debug_assert!(
            conn.poll_transmit(sim.now()).is_none(),
            "untouched {side:?} endpoint had a datagram to send"
        );
        debug_assert_eq!(
            conn.next_timeout(),
            self.deadline[side_index(side)],
            "untouched {side:?} endpoint moved its deadline"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpinPolicy;
    use quicspin_core::FlowClassification;

    #[test]
    fn scratch_reuse_is_outcome_identical() {
        let cfg = LabConfig {
            seed: 77,
            loss: 0.02,
            jitter_ms: 1.5,
            ..LabConfig::default()
        };
        let fresh = ConnectionLab::new(cfg.clone()).run();
        let mut scratch = LabScratch::default();
        // Warm the scratch on an unrelated run, then reclaim its buffers.
        let warmup = ConnectionLab::new(LabConfig::default()).run_with_scratch(&mut scratch);
        scratch.reclaim(warmup);
        let reused = ConnectionLab::new(cfg).run_with_scratch(&mut scratch);
        assert_eq!(fresh.handshake_completed, reused.handshake_completed);
        assert_eq!(fresh.response_data, reused.response_data);
        assert_eq!(fresh.client_qlog, reused.client_qlog);
        assert_eq!(fresh.tap_records, reused.tap_records);
        assert_eq!(
            fresh.client_stack_samples_us,
            reused.client_stack_samples_us
        );
        // Pre-stocked pool buffers count as misses, so even the pool
        // counters do not see the warm-up run.
        assert_eq!(fresh.stats, reused.stats);
    }

    #[test]
    fn disabling_tap_does_not_change_exchange() {
        let fresh = ConnectionLab::new(LabConfig::default()).run();
        let untapped = ConnectionLab::new(LabConfig {
            tap_position: None,
            ..LabConfig::default()
        })
        .run();
        assert!(untapped.tap_records.is_empty());
        assert_eq!(fresh.client_qlog, untapped.client_qlog);
        assert_eq!(fresh.response_data, untapped.response_data);
        assert_eq!(fresh.finished_at, untapped.finished_at);
    }

    #[test]
    fn lab_stats_reflect_exchange() {
        let out = ConnectionLab::new(LabConfig::default()).run();
        let s = out.stats;
        assert!(s.client.packets_sent > 0 && s.server.packets_sent > 0);
        assert_eq!(
            s.path.total_sent(),
            s.client.packets_sent + s.server.packets_sent,
            "every transport send enters the path"
        );
        assert!(s.client.spin_edges > 0, "spinning exchange has edges");
        assert!(s.path.queue_high_water > 0);
        // The tap keeps only snaps, so delivered buffers recycle.
        assert!(s.client.datagram_pool_hits + s.server.datagram_pool_hits > 0);
        // Stage timing off by default.
        assert_eq!((s.handshake_wall_ns, s.transfer_wall_ns), (0, 0));

        // Untapped + timed run: the same pool counters, and wall times
        // appear.
        let timed = ConnectionLab::new(LabConfig {
            tap_position: None,
            time_stages: true,
            ..LabConfig::default()
        })
        .run();
        assert_eq!(timed.stats.client, s.client);
        assert_eq!(timed.stats.server, s.server);
        assert!(timed.stats.handshake_wall_ns > 0);
        assert!(timed.stats.transfer_wall_ns > 0);
    }

    #[test]
    fn lossy_lab_counts_losses_and_retransmits() {
        let out = ConnectionLab::new(LabConfig {
            loss: 0.05,
            seed: 3,
            ..LabConfig::default()
        })
        .run();
        let s = out.stats;
        assert!(s.path.total_lost() > 0, "5% loss must drop something");
        assert!(
            s.client.packets_lost + s.server.packets_lost > 0,
            "endpoints must detect loss"
        );
        assert!(s.client.frames_retransmitted + s.server.frames_retransmitted > 0);
    }

    #[test]
    fn default_lab_completes_exchange() {
        let mut lab = ConnectionLab::new(LabConfig::default());
        let out = lab.run();
        assert!(out.handshake_completed);
        assert_eq!(out.response_bytes, 12_000 * 3);
        assert!(out.client_qlog.handshake_completed());
        assert!(!out.client_stack_samples_us.is_empty());
    }

    #[test]
    fn stack_rtt_close_to_path_rtt() {
        let mut lab = ConnectionLab::new(LabConfig {
            path_rtt_ms: 60.0,
            ..LabConfig::default()
        });
        let out = lab.run();
        let min = *out.client_stack_samples_us.iter().min().unwrap() as f64 / 1000.0;
        assert!((min - 60.0).abs() < 5.0, "stack min RTT {min} ms");
    }

    #[test]
    fn spin_observed_and_classified_spinning() {
        let mut lab = ConnectionLab::new(LabConfig::default());
        let out = lab.run();
        let report = out.observer_report();
        assert_eq!(report.classification, FlowClassification::Spinning);
        let spin_mean = report.spin_rtt_mean_ms().unwrap();
        assert!(spin_mean >= 39.0, "spin RTT {spin_mean} >= path RTT");
    }

    #[test]
    fn server_processing_delay_inflates_spin_not_stack() {
        let mut lab = ConnectionLab::new(LabConfig {
            path_rtt_ms: 40.0,
            server_profile: ServerProfile {
                initial_delay: SimDuration::from_millis(300),
                chunks: vec![
                    (SimDuration::ZERO, 12_000),
                    (SimDuration::from_millis(150), 12_000),
                    (SimDuration::from_millis(150), 12_000),
                ],
            },
            ..LabConfig::default()
        });
        let out = lab.run();
        let report = out.observer_report();
        let acc = report.accuracy_received().unwrap();
        assert!(acc.overestimates(), "spin must overestimate: {acc:?}");
        assert!(
            acc.mapped_ratio() > 2.0,
            "heavy server delay → big ratio, got {}",
            acc.mapped_ratio()
        );
    }

    #[test]
    fn fixed_zero_server_classified_all_zero() {
        let mut lab = ConnectionLab::new(LabConfig {
            server: TransportConfig::default().with_spin_policy(SpinPolicy::FixedZero),
            ..LabConfig::default()
        });
        let out = lab.run();
        let report = out.observer_report();
        assert_eq!(report.classification, FlowClassification::AllZero);
    }

    #[test]
    fn fixed_one_server_classified_all_one() {
        let mut lab = ConnectionLab::new(LabConfig {
            server: TransportConfig::default().with_spin_policy(SpinPolicy::FixedOne),
            ..LabConfig::default()
        });
        let out = lab.run();
        let report = out.observer_report();
        assert_eq!(report.classification, FlowClassification::AllOne);
    }

    #[test]
    fn per_packet_grease_filtered() {
        let mut lab = ConnectionLab::new(LabConfig {
            server: TransportConfig::default().with_spin_policy(SpinPolicy::GreasePerPacket),
            server_profile: ServerProfile {
                initial_delay: SimDuration::from_millis(5),
                chunks: vec![
                    (SimDuration::ZERO, 12_000),
                    (SimDuration::from_millis(2), 12_000),
                    (SimDuration::from_millis(2), 12_000),
                ],
            },
            ..LabConfig::default()
        });
        let out = lab.run();
        let report = out.observer_report();
        assert_eq!(report.classification, FlowClassification::Greased);
    }

    #[test]
    fn tap_sees_spin_without_packet_numbers() {
        let mut lab = ConnectionLab::new(LabConfig::default());
        let out = lab.run();
        let obs = out.tap_observations(Side::Server);
        assert!(!obs.is_empty());
        assert!(obs.iter().all(|o| o.packet_number.is_none()));
        // Both spin values appear for a spinning connection.
        assert!(obs.iter().any(|o| o.spin) && obs.iter().any(|o| !o.spin));
    }

    #[test]
    fn lossy_path_still_completes() {
        let mut lab = ConnectionLab::new(LabConfig {
            loss: 0.05,
            seed: 3,
            ..LabConfig::default()
        });
        let out = lab.run();
        assert!(out.handshake_completed);
        assert_eq!(out.response_bytes, 12_000 * 3, "retransmission recovers");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut lab = ConnectionLab::new(LabConfig {
                seed,
                loss: 0.02,
                jitter_ms: 3.0,
                ..LabConfig::default()
            });
            let out = lab.run();
            (
                out.response_bytes,
                out.client_qlog.spin_observations(),
                out.client_stack_samples_us,
            )
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn vec_enabled_endpoints_carry_vec_on_wire() {
        let mut lab = ConnectionLab::new(LabConfig {
            client: TransportConfig::default().with_vec(),
            server: TransportConfig::default().with_vec(),
            ..LabConfig::default()
        });
        let out = lab.run();
        let obs = out.tap_observations(Side::Server);
        assert!(
            obs.iter().any(|o| o.vec > 0),
            "VEC values must appear on the wire"
        );
    }

    #[test]
    fn draft_version_lab_completes() {
        let mut lab = ConnectionLab::new(LabConfig {
            client: TransportConfig::default().with_version(quicspin_wire::Version::Draft34),
            ..LabConfig::default()
        });
        let out = lab.run();
        assert!(out.handshake_completed);
    }
}
