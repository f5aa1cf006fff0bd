//! Lock-free scalar metrics and the fixed metric namespace.
//!
//! Metrics are enumerated, not string-keyed: a [`Metric`] indexes straight
//! into a flat array, so recording is one relaxed `fetch_add` (registry
//! side) or one plain add (worker-shard side) — no hashing, no interning,
//! no locks anywhere.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter (relaxed `AtomicU64`).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins / high-water-mark scalar (relaxed `AtomicU64`).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

macro_rules! metric_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $str:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration (and index) order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// Number of variants.
            pub const COUNT: usize = $name::ALL.len();

            /// Stable snake_case name used in manifests and summaries.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $str,)+
                }
            }
        }
    };
}

metric_enum! {
    /// Every counter the pipeline maintains.
    ///
    /// Scanner-level counters (probes/records/batches) are incremented
    /// directly on the registry — once per domain, cheap enough to stay
    /// live for progress reporting. Per-packet transport and netsim
    /// counters ride worker shards and merge on worker completion.
    Metric {
        /// Domains the scanner began probing.
        ProbesStarted => "probes_started",
        /// Domains the scanner finished (any outcome).
        ProbesCompleted => "probes_completed",
        /// Probes that erred (handshake failure or unreachable host).
        ProbesErrored => "probes_errored",
        /// Connection records produced (redirect hops add extra).
        RecordsProduced => "records_produced",
        /// Redirect hops followed beyond the initial request.
        RedirectsFollowed => "redirects_followed",
        /// Work batches claimed off the shared cursor ("stolen" work).
        BatchesClaimed => "batches_claimed",
        /// Worker threads that ran to completion.
        WorkersFinished => "workers_finished",
        /// Probes that ran with a warm (reused) per-worker scratch.
        ScratchReuseHits => "scratch_reuse_hits",
        /// QUIC handshakes that completed.
        HandshakesCompleted => "handshakes_completed",
        /// QUIC handshakes that failed.
        HandshakesFailed => "handshakes_failed",
        /// QUIC packets sent (both endpoints).
        PacketsSent => "packets_sent",
        /// QUIC packets received and decoded (both endpoints).
        PacketsReceived => "packets_received",
        /// Datagrams dropped as undecodable (was a silent drop).
        PacketsUndecodable => "packets_undecodable",
        /// Duplicate packets ignored by the receive path.
        PacketsDuplicate => "packets_duplicate",
        /// Packets declared lost by loss detection.
        PacketsLost => "packets_lost",
        /// Frames re-queued for retransmission (loss or PTO).
        FramesRetransmitted => "frames_retransmitted",
        /// Crypto/stream frames folded into reassembly buffers (both
        /// endpoints).
        FramesReassembled => "frames_reassembled",
        /// Probe timeouts fired.
        PtosFired => "ptos_fired",
        /// Spin-bit edges observed by the scanning client.
        SpinTransitionsObserved => "spin_transitions_observed",
        /// Datagrams dropped by the simulated path.
        NetsimDrops => "netsim_drops",
        /// Datagrams held back for reordering by the simulated path.
        NetsimReorders => "netsim_reorders",
        /// Events pushed onto the simulated path's event queue.
        NetsimQueuePushes => "netsim_queue_pushes",
        /// Events popped off the simulated path's event queue.
        NetsimQueuePops => "netsim_queue_pops",
        /// Datagrams the simulated link delivered.
        NetsimDeliveries => "netsim_deliveries",
        /// Outgoing datagrams built into a recycled pool buffer.
        DatagramPoolHits => "datagram_pool_hits",
        /// Outgoing datagrams that needed a fresh allocation.
        DatagramPoolMisses => "datagram_pool_misses",
        /// Qlog traces retained on records (`keep_qlogs` campaigns).
        QlogTracesRetained => "qlog_traces_retained",
        /// Qlog traces captured solely for flight-recorder inspection.
        FlightTracesInspected => "flight_traces_inspected",
        /// Anomalies flagged by the campaign flight recorder.
        AnomaliesFlagged => "anomalies_flagged",
        /// Flagged traces retained under the flight retention budget.
        FlightTracesRetained => "flight_traces_retained",
        /// Flagged traces evicted to honour the retention budget.
        FlightTracesEvicted => "flight_traces_evicted",
        /// Bytes of binary-encoded flagged traces retained at fold time.
        FlightTraceBytesRetained => "flight_trace_bytes_retained",
        /// Short-header packets the on-path observer parsed at the tap.
        ObserverPacketsObserved => "observer_packets_observed",
        /// Tap datagrams the observer's privacy boundary refused
        /// (long-header handshake packets and undecodable bytes).
        ObserverUnobservable => "observer_unobservable",
        /// Raw spin edges the observer saw (both directions).
        ObserverEdgesObserved => "observer_edges_observed",
        /// Observer RTT samples accepted by the validity heuristics.
        ObserverSamplesAccepted => "observer_samples_accepted",
        /// Observer samples rejected (reordering or loss-gap heuristics).
        ObserverSamplesRejected => "observer_samples_rejected",
        /// Observed flows that yielded at least one RTT sample.
        ObserverFlowsMeasurable => "observer_flows_measurable",
        /// Observed flows the tap could not measure.
        ObserverFlowsUnmeasurable => "observer_flows_unmeasurable",
    }
}

metric_enum! {
    /// Every gauge the pipeline maintains (merged by maximum).
    GaugeId {
        /// High-water mark of the netsim event-queue depth.
        NetsimQueueHighWater => "netsim_queue_high_water",
        /// Domains in the sweep (set once at campaign start).
        CampaignSize => "campaign_size",
        /// Worker threads the campaign ran with.
        WorkerThreads => "worker_threads",
        /// High-water mark of resident record-row bytes on the
        /// streamed campaign path (finished batches awaiting merge plus
        /// the batch being folded).
        PeakRecordBytes => "peak_record_bytes",
        /// High-water count of finished record batches queued between the
        /// workers and the in-order merge on the streamed campaign path.
        EventQueueDepth => "event_queue_depth",
        /// Configured high-water byte budget of the streamed campaign
        /// path (0 = unbounded).
        RecordBudgetBytes => "record_budget_bytes",
        /// Tap position of the on-path observer in millionths of the
        /// path (set once at campaign start when a tap is attached).
        ObserverVantageMillionths => "observer_vantage_millionths",
    }
}

metric_enum! {
    /// Named pipeline stages (wall clock, nanoseconds). Every stage but
    /// [`Stage::Probe`] is a view of one profiler scope
    /// ([`ScopeId::stage`](crate::ScopeId::stage)): its histogram samples
    /// are the wall values that scope records.
    Stage {
        /// One domain, timed by the campaign engine around its scan: the
        /// population lookup (a fast-fail domain that never reaches the
        /// lab records here too), every connection probed, and any
        /// redirect hop. The flight recorder's inspection that follows
        /// is its own `flight_inspect` scope.
        Probe => "probe",
        /// QUIC connection establishment (lab wall time until established;
        /// a failed handshake records no sample).
        Handshake => "handshake",
        /// Request/response transfer after the handshake.
        Transfer => "transfer",
        /// §3.3 qlog extraction into packet observations.
        SpinExtraction => "spin_extraction",
        /// Observer-report construction and flow classification.
        Classify => "classify",
        /// Qlog trace retention/encoding on `keep_qlogs` campaigns.
        QlogEncode => "qlog_encode",
        /// On-path observer fold over the probe's tap capture.
        ObserverFold => "observer_fold",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_relaxed() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_set_and_high_water() {
        let g = Gauge::new();
        g.set(10);
        g.record_max(5);
        assert_eq!(g.get(), 10);
        g.record_max(99);
        assert_eq!(g.get(), 99);
    }

    #[test]
    fn metric_names_are_unique_and_indexed() {
        use std::collections::HashSet;
        let names: HashSet<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), Metric::COUNT);
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i);
        }
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        assert_eq!(GaugeId::ALL.len(), GaugeId::COUNT);
    }

    #[test]
    fn counters_are_safe_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }
}
