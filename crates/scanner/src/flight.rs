//! The campaign flight recorder: online anomaly detection with bounded
//! trace retention.
//!
//! While a campaign runs, every probed connection is inspected for
//! suspicious signals — spin-derived vs ACK-based RTT divergence past the
//! Fig. 3 tail threshold, impossible spin edges after packet-number
//! sorting (§3.3/§5.2), classification flips across redirect hops,
//! handshake failures, and virtual stage-latency outliers — and the full
//! qlog trace of every flagged probe is retained in the compact binary
//! codec under a byte budget. The divergence, impossible-edge and
//! stage-outlier thresholds are constants; the budget and baseline
//! sampling are [`FlightConfig`]. Aggregates answer "how often"; the
//! flight recorder answers "which connections, and show me the
//! packets".
//!
//! Detection is content-based and therefore deterministic: the same
//! campaign config flags the same probes and retains the same traces for
//! any thread count. Each worker keeps a private [`FlightShard`] (like a
//! telemetry `WorkerShard`) whose trace buffer is evicted to the budget
//! with a *priority-prefix rule*: traces sort by (severity desc,
//! domain, hop) and only the longest prefix whose cumulative size fits
//! the budget survives. The buffer is a heap with the lowest-priority
//! trace on top, and eviction pops until the rest fits: prefix sums only
//! grow, so that is the same prefix, at O(log n) per flagged probe.
//! Because a probe's cumulative-priority size in any worker's subset
//! never exceeds its size in the full flagged set, a worker can only
//! ever evict traces the final global pass would evict too — so the
//! merged, finalized retained set is independent of how domains were
//! distributed across workers. Metadata for every flagged
//! probe (a few dozen bytes) is kept unconditionally, which lets the
//! final pass compute the global keep-set exactly.

use crate::record::{ConnectionRecord, ScanOutcome};
use quicspin_core::FlowClassification;
use quicspin_qlog::{decode_trace, encode_trace, TraceLog};
use quicspin_telemetry::{ConfigEntry, HistogramShard};
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};
use std::fmt;
use std::io::{self, Write};
use std::str::FromStr;

/// Schema version of [`AnomalyIndex`] (`anomalies.json`).
pub const ANOMALY_SCHEMA_VERSION: u32 = 1;

/// Magic prefix of the binary trace store (`traces.bin`).
pub const TRACE_STORE_MAGIC: &[u8; 4] = b"QSFS";
/// Format version byte following the magic.
pub const TRACE_STORE_VERSION: u8 = 1;
/// Header length; [`TraceSlot`] offsets are absolute, so the first slot
/// starts here.
pub const TRACE_STORE_HEADER_LEN: usize = 5;

/// Relative spin-vs-stack mean-RTT divergence past which a probe is
/// flagged (the paper's Fig. 3 tail sits past 10%).
pub(crate) const RTT_DIVERGENCE_THRESHOLD: f64 = 0.10;

/// A spin period shorter than this fraction of the connection's minimum
/// stack RTT is an impossible edge.
const MIN_EDGE_INTERVAL_FRAC: f64 = 0.5;

/// Virtual handshake time (µs, from the trace) past which a probe is a
/// stage outlier.
const HANDSHAKE_OUTLIER_US: u64 = 1_500_000;

/// Virtual total connection time (µs) past which a probe is a stage
/// outlier.
const TOTAL_OUTLIER_US: u64 = 10_000_000;

/// Flight-recorder configuration (all thresholds are campaign-constant,
/// so detection stays deterministic).
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Master switch. Disabled (the default) costs one branch per domain.
    pub enabled: bool,
    /// Campaign seed: drives deterministic baseline sampling and is
    /// echoed into the campaign id.
    pub seed: u64,
    /// Byte budget for retained binary traces (per worker during the run
    /// and globally after the merge).
    pub retention_budget_bytes: u64,
    /// Retain every N-th domain (chosen by seeded hash) as a healthy
    /// baseline sample; 0 disables sampling.
    pub baseline_sample_every: u64,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            enabled: false,
            seed: 0,
            retention_budget_bytes: 2 * 1024 * 1024,
            baseline_sample_every: 0,
        }
    }
}

impl FlightConfig {
    /// An enabled recorder with the default budget and the given seed.
    pub fn armed(seed: u64) -> Self {
        FlightConfig {
            enabled: true,
            seed,
            ..FlightConfig::default()
        }
    }
}

/// Identifies one probe: a domain plus the redirect hop within it.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ProbeId {
    /// Domain id within the population.
    pub domain_id: u32,
    /// Redirect hop (0 = the initial connection).
    pub hop: u32,
}

impl ProbeId {
    /// Builds a probe id.
    pub fn new(domain_id: u32, hop: u32) -> Self {
        ProbeId { domain_id, hop }
    }
}

impl fmt::Display for ProbeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.domain_id, self.hop)
    }
}

impl FromStr for ProbeId {
    type Err = String;

    /// Parses `"1234:1"`; a bare `"1234"` means hop 0.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (domain, hop) = s.split_once(':').unwrap_or((s, "0"));
        let domain_id = domain
            .parse::<u32>()
            .map_err(|_| format!("bad probe id {s:?}: expected <domain>[:<hop>]"))?;
        let hop = hop
            .parse::<u32>()
            .map_err(|_| format!("bad probe id {s:?}: hop must be a number"))?;
        Ok(ProbeId { domain_id, hop })
    }
}

/// What tripped the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum AnomalyKind {
    /// Spin-derived mean RTT diverges from the stack's ACK-based mean
    /// by more than 10% (Fig. 3 tail).
    RttDivergence,
    /// Spin edges that remain impossible after packet-number sorting
    /// (flip faster than a fraction of the minimum stack RTT, or time
    /// running backwards across an edge).
    InvalidSpinEdge,
    /// Flow classification changed across redirect hops of one domain.
    ClassificationFlip,
    /// The QUIC handshake failed.
    HandshakeFailure,
    /// Virtual handshake/total time exceeded the outlier threshold.
    StageOutlier,
    /// Healthy probe retained by deterministic baseline sampling.
    BaselineSample,
    /// The on-path observer's mean RTT diverges from the measuring
    /// client's spin-derived mean beyond the configured threshold (only
    /// detectable on tapped campaigns).
    ObserverDivergence,
    /// The observer counted more downstream spin edges than the client's
    /// sample stream implies — edges the client missed or artifacts the
    /// tap position manufactured.
    ObserverExtraEdges,
    /// A tap was attached but the flow yielded no valid observer RTT
    /// sample (grease/disable policies, too-short exchanges).
    ObserverUnmeasurable,
}

impl AnomalyKind {
    /// Every kind, in severity-unrelated declaration order.
    pub const ALL: &'static [AnomalyKind] = &[
        AnomalyKind::RttDivergence,
        AnomalyKind::InvalidSpinEdge,
        AnomalyKind::ClassificationFlip,
        AnomalyKind::HandshakeFailure,
        AnomalyKind::StageOutlier,
        AnomalyKind::BaselineSample,
        AnomalyKind::ObserverDivergence,
        AnomalyKind::ObserverExtraEdges,
        AnomalyKind::ObserverUnmeasurable,
    ];

    /// Stable kebab-case name (matches the serde form and the
    /// `spinctl anomalies --kind` argument).
    pub fn name(self) -> &'static str {
        match self {
            AnomalyKind::RttDivergence => "rtt-divergence",
            AnomalyKind::InvalidSpinEdge => "invalid-spin-edge",
            AnomalyKind::ClassificationFlip => "classification-flip",
            AnomalyKind::HandshakeFailure => "handshake-failure",
            AnomalyKind::StageOutlier => "stage-outlier",
            AnomalyKind::BaselineSample => "baseline-sample",
            AnomalyKind::ObserverDivergence => "observer-divergence",
            AnomalyKind::ObserverExtraEdges => "observer-extra-edges",
            AnomalyKind::ObserverUnmeasurable => "observer-unmeasurable",
        }
    }

    /// Parses the kebab-case name.
    pub fn parse(s: &str) -> Option<AnomalyKind> {
        AnomalyKind::ALL.iter().copied().find(|k| k.name() == s)
    }
}

/// One flagged observation on one probe (at most one per probe × kind;
/// repeated events aggregate into `value`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Anomaly {
    /// The probe this anomaly belongs to.
    pub probe: ProbeId,
    /// What was detected.
    pub kind: AnomalyKind,
    /// Retention priority; higher evicts later.
    pub severity: u32,
    /// Kind-specific magnitude (divergence ratio, edge count, excess µs…).
    pub value: f64,
    /// Human-readable one-liner for `spinctl anomalies`.
    pub detail: String,
}

/// A flagged probe's binary-encoded qlog trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RetainedTrace {
    /// The flagged probe.
    pub probe: ProbeId,
    /// Sum of the probe's anomaly severities (the retention priority).
    pub severity: u64,
    /// `encode_trace` bytes of the full client qlog.
    pub bytes: Vec<u8>,
}

/// Metadata kept for *every* flagged trace, evicted or not (a few dozen
/// bytes each). The final pass computes the global keep-set from this
/// full list, which is what makes eviction partition-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TraceMeta {
    probe: ProbeId,
    severity: u64,
    len: u64,
}

/// Retention priority: highest severity first, then domain/hop order.
fn priority_key(severity: u64, probe: ProbeId) -> (Reverse<u64>, u32, u32) {
    (Reverse(severity), probe.domain_id, probe.hop)
}

/// A retained trace ordered by [`priority_key`]: the greatest is the one
/// eviction drops first, so a max-heap keeps it on top.
#[derive(Debug)]
struct ByPriority(RetainedTrace);

impl ByPriority {
    fn key(&self) -> (Reverse<u64>, u32, u32) {
        priority_key(self.0.severity, self.0.probe)
    }
}

impl Ord for ByPriority {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for ByPriority {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ByPriority {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for ByPriority {}

/// splitmix64 — the deterministic baseline-sampling hash.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Counts spin edges that stay impossible after packet-number sorting:
/// time running backwards across an edge, or a spin period shorter than
/// [`MIN_EDGE_INTERVAL_FRAC`] of the connection's minimum stack RTT.
fn invalid_spin_edges(trace: &TraceLog, min_stack_rtt_us: Option<u64>) -> u64 {
    let mut obs = trace.spin_observations();
    if obs.len() < 2 {
        return 0;
    }
    obs.sort_by_key(|&(_, pn, _)| pn);
    let mut invalid = 0u64;
    let mut prev_time = obs[0].0;
    let mut prev_spin = obs[0].2;
    let mut prev_edge_time: Option<u64> = None;
    for &(time, _, spin) in &obs[1..] {
        if spin != prev_spin {
            if time < prev_time {
                // An edge whose timestamp precedes the previous packet's
                // even in packet-number order cannot be a real spin flip.
                invalid += 1;
            } else if let (Some(edge_at), Some(min_rtt)) = (prev_edge_time, min_stack_rtt_us) {
                let period = time.saturating_sub(edge_at);
                if (period as f64) < min_rtt as f64 * MIN_EDGE_INTERVAL_FRAC {
                    invalid += 1;
                }
            }
            prev_edge_time = Some(time);
        }
        prev_time = time;
        prev_spin = spin;
    }
    invalid
}

/// One worker's private flight-recorder state (merged at fold time, like
/// a telemetry `WorkerShard`).
#[derive(Debug, Default)]
pub struct FlightShard {
    anomalies: Vec<Anomaly>,
    flagged: Vec<TraceMeta>,
    /// Retained traces, the next to evict on top.
    traces: BinaryHeap<ByPriority>,
    retained_bytes: u64,
    handshake_us: HistogramShard,
    total_us: HistogramShard,
}

impl FlightShard {
    /// Inspects one scanned domain's records (all redirect hops, in hop
    /// order, with qlog traces attached). Returns the number of anomalies
    /// flagged. Traces of flagged probes are encoded and retained,
    /// evicting lowest-priority traces whenever the local buffer exceeds
    /// the budget.
    pub fn inspect_domain(&mut self, cfg: &FlightConfig, records: &[ConnectionRecord]) -> u64 {
        let Some(first) = records.first() else {
            return 0;
        };
        let before = self.anomalies.len();
        let baseline_hit = cfg.baseline_sample_every > 0
            && splitmix64(cfg.seed ^ u64::from(first.domain_id))
                .is_multiple_of(cfg.baseline_sample_every);
        let mut prev_class: Option<FlowClassification> = None;
        for rec in records {
            let probe = ProbeId::new(rec.domain_id, rec.redirect_depth);
            let mut found: Vec<Anomaly> = Vec::new();

            if rec.outcome == ScanOutcome::HandshakeFailed {
                found.push(Anomaly {
                    probe,
                    kind: AnomalyKind::HandshakeFailure,
                    severity: 300,
                    value: f64::from(rec.redirect_depth),
                    detail: "QUIC handshake failed".to_string(),
                });
            }

            if let Some(report) = &rec.report {
                if let Some(acc) = report.accuracy_sorted() {
                    if acc.stack_mean_ms > 0.0 {
                        let div = (acc.spin_mean_ms - acc.stack_mean_ms).abs() / acc.stack_mean_ms;
                        if div > RTT_DIVERGENCE_THRESHOLD {
                            found.push(Anomaly {
                                probe,
                                kind: AnomalyKind::RttDivergence,
                                severity: 100 + (div * 100.0).min(900.0) as u32,
                                value: div,
                                detail: format!(
                                    "spin mean {:.3} ms vs stack mean {:.3} ms",
                                    acc.spin_mean_ms, acc.stack_mean_ms
                                ),
                            });
                        }
                    }
                }
                if rec.outcome == ScanOutcome::Ok {
                    let class = report.classification;
                    if let Some(prev) = prev_class {
                        if prev != class {
                            found.push(Anomaly {
                                probe,
                                kind: AnomalyKind::ClassificationFlip,
                                severity: 250,
                                value: f64::from(rec.redirect_depth),
                                detail: format!("{prev:?} -> {class:?} across redirect hop"),
                            });
                        }
                    }
                    prev_class = Some(class);
                }
            }

            if let Some(view) = &rec.observer {
                if let Some(div) = view.divergence() {
                    if div > RTT_DIVERGENCE_THRESHOLD {
                        found.push(Anomaly {
                            probe,
                            kind: AnomalyKind::ObserverDivergence,
                            severity: 120 + (div * 100.0).min(880.0) as u32,
                            value: div,
                            detail: format!(
                                "tap at {} mean {:?} µs vs client spin mean {:?} µs",
                                view.vantage(),
                                view.stats.mean_us,
                                view.client_spin_mean_us
                            ),
                        });
                    }
                }
                let spinning = rec
                    .report
                    .as_ref()
                    .is_some_and(|r| r.classification == FlowClassification::Spinning);
                let extra = view.extra_edges();
                if spinning && extra > 0 {
                    found.push(Anomaly {
                        probe,
                        kind: AnomalyKind::ObserverExtraEdges,
                        severity: 140 + 10 * extra.min(30) as u32,
                        value: extra as f64,
                        detail: format!(
                            "observer saw {extra} downstream edge(s) beyond the client's stream"
                        ),
                    });
                }
                if rec.outcome == ScanOutcome::Ok && !view.stats.measurable {
                    found.push(Anomaly {
                        probe,
                        kind: AnomalyKind::ObserverUnmeasurable,
                        severity: 80,
                        value: view.stats.packets as f64,
                        detail: format!(
                            "tap at {} saw {} short-header packet(s) but no valid RTT sample",
                            view.vantage(),
                            view.stats.packets
                        ),
                    });
                }
            }

            if let Some(trace) = &rec.qlog {
                let min_stack_rtt = rec
                    .report
                    .as_ref()
                    .and_then(|r| r.stack_samples_us.iter().copied().min());
                let invalid = invalid_spin_edges(trace, min_stack_rtt);
                if invalid > 0 {
                    found.push(Anomaly {
                        probe,
                        kind: AnomalyKind::InvalidSpinEdge,
                        severity: 150 + 10 * invalid.min(25) as u32,
                        value: invalid as f64,
                        detail: format!(
                            "{invalid} impossible spin edge(s) after packet-number sort"
                        ),
                    });
                }

                // The probe read both off this same trace.
                let handshake = rec.virtual_handshake_us;
                let total = rec.virtual_total_us;
                if let Some(hs) = handshake {
                    self.handshake_us.record(hs);
                }
                if total > 0 {
                    self.total_us.record(total);
                }
                let excess = handshake
                    .map_or(0, |hs| hs.saturating_sub(HANDSHAKE_OUTLIER_US))
                    .max(total.saturating_sub(TOTAL_OUTLIER_US));
                if excess > 0 {
                    found.push(Anomaly {
                        probe,
                        kind: AnomalyKind::StageOutlier,
                        severity: 50 + ((excess / 10_000).min(200)) as u32,
                        value: excess as f64,
                        detail: format!("virtual stage time {excess} µs past threshold"),
                    });
                }

                if baseline_hit && rec.redirect_depth == 0 {
                    found.push(Anomaly {
                        probe,
                        kind: AnomalyKind::BaselineSample,
                        severity: 1,
                        value: 0.0,
                        detail: "deterministic baseline sample".to_string(),
                    });
                }
            }

            if found.is_empty() {
                continue;
            }
            if let Some(trace) = &rec.qlog {
                let severity: u64 = found.iter().map(|a| u64::from(a.severity)).sum();
                self.retain(
                    RetainedTrace {
                        probe,
                        severity,
                        bytes: encode_trace(trace),
                    },
                    cfg.retention_budget_bytes,
                );
            }
            self.anomalies.extend(found);
        }
        (self.anomalies.len() - before) as u64
    }

    /// Flags `trace` for retention, then evicts to `budget`.
    fn retain(&mut self, trace: RetainedTrace, budget: u64) {
        let len = trace.bytes.len() as u64;
        self.flagged.push(TraceMeta {
            probe: trace.probe,
            severity: trace.severity,
            len,
        });
        self.retained_bytes += len;
        self.traces.push(ByPriority(trace));
        self.evict_to_budget(budget);
    }

    /// Priority-prefix eviction: keep the longest (severity desc, domain,
    /// hop)-ordered prefix of the local trace buffer that fits `budget`,
    /// by dropping the lowest-priority trace until the rest fits.
    fn evict_to_budget(&mut self, budget: u64) {
        while self.retained_bytes > budget {
            let Some(ByPriority(evicted)) = self.traces.pop() else {
                break;
            };
            self.retained_bytes -= evicted.bytes.len() as u64;
        }
    }

    /// Absorbs another worker's shard (order-insensitive; finalization
    /// canonicalizes everything).
    pub fn merge(&mut self, mut other: FlightShard) {
        self.anomalies.append(&mut other.anomalies);
        self.flagged.append(&mut other.flagged);
        self.traces.append(&mut other.traces);
        self.retained_bytes += other.retained_bytes;
        self.handshake_us.merge(&other.handshake_us);
        self.total_us.merge(&other.total_us);
    }

    /// Anomalies flagged so far (worker-local order until finalization).
    pub fn anomalies(&self) -> &[Anomaly] {
        &self.anomalies
    }

    /// Bytes of trace data currently held.
    pub fn retained_bytes(&self) -> u64 {
        self.retained_bytes
    }
}

/// Per-trace entry of the [`AnomalyIndex`]: where the probe's binary
/// trace lives inside `traces.bin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSlot {
    /// The flagged probe.
    pub probe: ProbeId,
    /// Retention priority the trace was kept with.
    pub severity: u64,
    /// Absolute byte offset into `traces.bin`.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u64,
}

/// Quantiles of a virtual (simulated-time) stage distribution over every
/// inspected probe — the baseline `spinctl summary` shows outliers
/// against.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VirtualStageSummary {
    /// Stage name (`virtual_handshake`, `virtual_total`).
    pub stage: String,
    /// Probes measured.
    pub count: u64,
    /// Median, µs.
    pub p50_us: u64,
    /// 90th percentile, µs.
    pub p90_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// Maximum, µs.
    pub max_us: u64,
}

fn virtual_summary(stage: &str, hist: &HistogramShard) -> VirtualStageSummary {
    VirtualStageSummary {
        stage: stage.to_string(),
        count: hist.count(),
        p50_us: hist.quantile(0.50),
        p90_us: hist.quantile(0.90),
        p99_us: hist.quantile(0.99),
        max_us: hist.max(),
    }
}

/// The serde artifact written next to `metrics.json`: every anomaly, the
/// retained-trace directory, and the virtual stage baselines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnomalyIndex {
    /// Schema version ([`ANOMALY_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Deterministic campaign identifier (week, IP version, flight seed).
    pub campaign_id: String,
    /// Campaign configuration echo.
    pub config: Vec<ConfigEntry>,
    /// The configured retention budget.
    pub retention_budget_bytes: u64,
    /// Probes whose trace was flagged for retention.
    pub flagged_traces: u64,
    /// Traces that survived eviction.
    pub retained_traces: u64,
    /// Traces evicted to honour the budget.
    pub evicted_traces: u64,
    /// Total bytes of retained binary traces.
    pub retained_bytes: u64,
    /// Every anomaly, sorted by (domain, hop, kind).
    pub anomalies: Vec<Anomaly>,
    /// Retained traces in priority order, with `traces.bin` offsets.
    pub traces: Vec<TraceSlot>,
    /// Virtual stage distributions over all inspected probes.
    pub stages: Vec<VirtualStageSummary>,
}

impl AnomalyIndex {
    /// Anomalies of one kind, in index order.
    pub fn of_kind(&self, kind: AnomalyKind) -> impl Iterator<Item = &Anomaly> {
        self.anomalies.iter().filter(move |a| a.kind == kind)
    }

    /// `(kind, count)` for every kind with at least one anomaly, in
    /// [`AnomalyKind::ALL`] order.
    pub fn counts_by_kind(&self) -> Vec<(AnomalyKind, usize)> {
        AnomalyKind::ALL
            .iter()
            .map(|&k| (k, self.of_kind(k).count()))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// The trace slot for a probe, if its trace was retained.
    pub fn slot(&self, probe: ProbeId) -> Option<&TraceSlot> {
        self.traces.iter().find(|s| s.probe == probe)
    }
}

/// The finalized flight-recorder output of one campaign: its
/// [`AnomalyIndex`] and the retained traces the index's slots point at.
#[derive(Debug)]
pub struct FlightRecording {
    index: AnomalyIndex,
    traces: Vec<RetainedTrace>,
}

impl FlightRecording {
    /// Finalizes merged worker shards into the canonical recording:
    /// anomalies sort by (domain, hop, kind); the keep-set is the
    /// priority prefix of the *full* flagged list that fits the budget
    /// (identical for any worker partition — see the module docs).
    pub fn new(
        mut shard: FlightShard,
        cfg: &FlightConfig,
        campaign_id: String,
        config: Vec<ConfigEntry>,
    ) -> Self {
        shard
            .anomalies
            .sort_by_key(|a| (a.probe.domain_id, a.probe.hop, a.kind as u32));
        shard
            .flagged
            .sort_by_key(|m| priority_key(m.severity, m.probe));
        let budget = cfg.retention_budget_bytes;
        let mut cum = 0u64;
        let mut keep = shard.flagged.len();
        for (i, m) in shard.flagged.iter().enumerate() {
            cum += m.len;
            if cum > budget {
                keep = i;
                break;
            }
        }
        let kept: HashSet<ProbeId> = shard.flagged[..keep].iter().map(|m| m.probe).collect();
        let mut traces: Vec<RetainedTrace> = shard
            .traces
            .into_iter()
            .map(|ByPriority(t)| t)
            .filter(|t| kept.contains(&t.probe))
            .collect();
        traces.sort_by_key(|t| priority_key(t.severity, t.probe));
        debug_assert_eq!(
            traces.len(),
            keep,
            "worker eviction dropped a trace the global prefix rule keeps"
        );
        // The `traces.bin` slots, in store order.
        let slots: Vec<TraceSlot> = traces
            .iter()
            .scan(TRACE_STORE_HEADER_LEN as u64, |offset, t| {
                let slot = TraceSlot {
                    probe: t.probe,
                    severity: t.severity,
                    offset: *offset,
                    len: t.bytes.len() as u64,
                };
                *offset += slot.len;
                Some(slot)
            })
            .collect();
        let index = AnomalyIndex {
            schema_version: ANOMALY_SCHEMA_VERSION,
            campaign_id,
            config,
            retention_budget_bytes: budget,
            flagged_traces: shard.flagged.len() as u64,
            retained_traces: traces.len() as u64,
            evicted_traces: (shard.flagged.len() - traces.len()) as u64,
            retained_bytes: slots.iter().map(|s| s.len).sum(),
            anomalies: shard.anomalies,
            traces: slots,
            stages: vec![
                virtual_summary("virtual_handshake", &shard.handshake_us),
                virtual_summary("virtual_total", &shard.total_us),
            ],
        };
        FlightRecording { index, traces }
    }

    /// The serde index (the `anomalies.json` artifact).
    pub fn index(&self) -> &AnomalyIndex {
        &self.index
    }

    /// The deterministic campaign identifier.
    pub fn campaign_id(&self) -> &str {
        &self.index.campaign_id
    }

    /// Every anomaly, sorted by (domain, hop, kind).
    pub fn anomalies(&self) -> &[Anomaly] {
        &self.index.anomalies
    }

    /// Retained traces in priority order.
    pub fn retained(&self) -> &[RetainedTrace] {
        &self.traces
    }

    /// Probes whose trace was flagged (retained or evicted).
    pub fn flagged_traces(&self) -> u64 {
        self.index.flagged_traces
    }

    /// Traces evicted to honour the budget.
    pub fn evicted_traces(&self) -> u64 {
        self.index.evicted_traces
    }

    /// Total bytes of retained binary traces.
    pub fn retained_bytes(&self) -> u64 {
        self.index.retained_bytes
    }

    /// Decodes the retained trace of one probe.
    pub fn trace(&self, probe: ProbeId) -> Option<TraceLog> {
        self.traces
            .iter()
            .find(|t| t.probe == probe)
            .and_then(|t| decode_trace(&t.bytes).ok())
    }

    /// Writes the binary trace store (`traces.bin`) into `out`: a 5-byte
    /// header followed by the retained traces back to back, at exactly
    /// the offsets the index's [`TraceSlot`]s record.
    pub fn write_trace_store(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(TRACE_STORE_MAGIC)?;
        out.write_all(&[TRACE_STORE_VERSION])?;
        for t in &self.traces {
            out.write_all(&t.bytes)?;
        }
        Ok(())
    }

    /// The binary trace store as one buffer; see
    /// [`write_trace_store`](Self::write_trace_store).
    pub fn trace_store(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(TRACE_STORE_HEADER_LEN + self.index.retained_bytes as usize);
        self.write_trace_store(&mut out)
            .expect("writing into a Vec cannot fail");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_id_display_and_parse() {
        let p = ProbeId::new(1234, 2);
        assert_eq!(p.to_string(), "1234:2");
        assert_eq!("1234:2".parse::<ProbeId>().unwrap(), p);
        assert_eq!("1234".parse::<ProbeId>().unwrap(), ProbeId::new(1234, 0));
        assert!("x:1".parse::<ProbeId>().is_err());
        assert!("1:x".parse::<ProbeId>().is_err());
    }

    #[test]
    fn anomaly_kind_names_round_trip() {
        for &k in AnomalyKind::ALL {
            assert_eq!(AnomalyKind::parse(k.name()), Some(k));
            // The serde form must match name() (spinctl relies on it).
            let json = serde_json::to_string(&k).unwrap();
            assert_eq!(json, format!("\"{}\"", k.name()));
        }
        assert_eq!(AnomalyKind::parse("nope"), None);
    }

    #[test]
    fn splitmix_is_stable() {
        // The sampling hash is part of the campaign-id contract: a probe
        // flagged as baseline this week must be flagged next week too.
        assert_eq!(splitmix64(0) % 97, splitmix64(0) % 97);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    fn retained_trace(probe: ProbeId, severity: u64, len: usize) -> RetainedTrace {
        RetainedTrace {
            probe,
            severity,
            bytes: vec![0u8; len],
        }
    }

    fn shard_with(items: &[(ProbeId, u64, usize)], budget: u64) -> FlightShard {
        let mut shard = FlightShard::default();
        for &(probe, sev, len) in items {
            shard.retain(retained_trace(probe, sev, len), budget);
        }
        shard
    }

    /// The sort-and-truncate retention the heap replaced: after each
    /// insert past the budget, sort by priority and keep the longest
    /// prefix that fits.
    #[derive(Default)]
    struct SortPrefixReference {
        traces: Vec<RetainedTrace>,
        retained_bytes: u64,
    }

    impl SortPrefixReference {
        fn retain(&mut self, trace: RetainedTrace, budget: u64) {
            self.retained_bytes += trace.bytes.len() as u64;
            self.traces.push(trace);
            if self.retained_bytes > budget {
                self.evict_to_budget(budget);
            }
        }

        fn evict_to_budget(&mut self, budget: u64) {
            self.traces
                .sort_by_key(|t| priority_key(t.severity, t.probe));
            let mut cum = 0u64;
            let mut keep = self.traces.len();
            for (i, t) in self.traces.iter().enumerate() {
                cum += t.bytes.len() as u64;
                if cum > budget {
                    keep = i;
                    break;
                }
            }
            self.traces.truncate(keep);
            self.retained_bytes = self.traces.iter().map(|t| t.bytes.len() as u64).sum();
        }
    }

    #[test]
    fn heap_retention_matches_sort_prefix() {
        let mut rng = quicspin_netsim::Rng::new(0x7e7a_1e47);
        for trial in 0..400 {
            let n = 1 + rng.index(60);
            // Few severity levels, so equal severities are common and the
            // (domain, hop) tie-break decides.
            let levels = 1 + rng.next_below(6);
            let items: Vec<(ProbeId, u64, usize)> = (0..n)
                .map(|i| {
                    let probe = ProbeId::new(rng.next_below(40) as u32, i as u32);
                    (probe, rng.next_below(levels) * 50, rng.index(400))
                })
                .collect();
            let total: u64 = items.iter().map(|&(_, _, len)| len as u64).sum();
            // From nothing fits to everything fits.
            let budget = match trial % 4 {
                0 => 0,
                1 => total + 1 + rng.next_below(100),
                _ => rng.next_below(total + 1),
            };
            let mut heap = FlightShard::default();
            let mut reference = SortPrefixReference::default();
            for (step, &(probe, severity, len)) in items.iter().enumerate() {
                heap.retain(retained_trace(probe, severity, len), budget);
                reference.retain(retained_trace(probe, severity, len), budget);
                let kept = |probes: &mut dyn Iterator<Item = ProbeId>| {
                    let mut v: Vec<ProbeId> = probes.collect();
                    v.sort_by_key(|p| (p.domain_id, p.hop));
                    v
                };
                assert_eq!(
                    kept(&mut heap.traces.iter().map(|t| t.0.probe)),
                    kept(&mut reference.traces.iter().map(|t| t.probe)),
                    "trial {trial} step {step}: kept sets differ"
                );
                assert_eq!(
                    heap.retained_bytes, reference.retained_bytes,
                    "trial {trial} step {step}: retained bytes differ"
                );
                assert!(heap.retained_bytes <= budget);
            }
        }
    }

    #[test]
    fn eviction_is_partition_and_order_independent() {
        // 5 traces, budget fits only the top-severity prefix. Any arrival
        // order and any split across "workers" must finalize identically.
        let items = [
            (ProbeId::new(1, 0), 500u64, 300usize),
            (ProbeId::new(2, 0), 400, 300),
            (ProbeId::new(3, 0), 300, 300),
            (ProbeId::new(4, 0), 200, 300),
            (ProbeId::new(5, 0), 100, 300),
        ];
        let budget = 700; // fits exactly the two highest-severity traces
        let cfg = FlightConfig {
            retention_budget_bytes: budget,
            ..FlightConfig::default()
        };
        let finalize = |shard: FlightShard| {
            let rec = FlightRecording::new(shard, &cfg, "t".into(), Vec::new());
            (
                rec.retained()
                    .iter()
                    .map(|t| t.probe)
                    .collect::<Vec<ProbeId>>(),
                rec.evicted_traces(),
                rec.retained_bytes(),
            )
        };
        let expected = finalize(shard_with(&items, budget));
        assert_eq!(
            expected.0,
            vec![ProbeId::new(1, 0), ProbeId::new(2, 0)],
            "highest severity survives"
        );
        assert_eq!(expected.1, 3);
        assert!(expected.2 <= budget);

        // Reversed arrival order.
        let mut rev = items;
        rev.reverse();
        assert_eq!(finalize(shard_with(&rev, budget)), expected);

        // Every contiguous 2-way partition, each worker evicting locally.
        for split in 0..=items.len() {
            let mut a = shard_with(&items[..split], budget);
            let b = shard_with(&items[split..], budget);
            a.merge(b);
            assert_eq!(finalize(a), expected, "split at {split}");
        }
    }

    #[test]
    fn eviction_keeps_highest_severity_prefix() {
        // Budget smaller than any single trace: nothing survives.
        let items = [(ProbeId::new(1, 0), 10u64, 100usize)];
        let rec = FlightRecording::new(
            shard_with(&items, 50),
            &FlightConfig {
                retention_budget_bytes: 50,
                ..FlightConfig::default()
            },
            "t".into(),
            Vec::new(),
        );
        assert!(rec.retained().is_empty());
        assert_eq!(rec.evicted_traces(), 1);
        assert_eq!(rec.flagged_traces(), 1);
    }

    #[test]
    fn invalid_edge_detection_flags_fast_flips() {
        use quicspin_qlog::{EventData, PacketSpace};
        let mut t = TraceLog::new("client");
        let mut push = |time, pn, spin| {
            t.push(
                time,
                EventData::PacketReceived {
                    space: PacketSpace::Application,
                    packet_number: pn,
                    spin: Some(spin),
                    size: 64,
                },
            )
        };
        // min stack RTT 40 ms. Edges fall at 12_000, 14_000, and 60_000;
        // the 2 ms period between the first two is far below the 20 ms
        // floor (frac 0.5) and therefore impossible, while the first edge
        // (no prior period) and the 46 ms one are fine.
        push(10_000, 1, false);
        push(12_000, 2, true);
        push(14_000, 3, false);
        push(60_000, 4, true);
        assert_eq!(invalid_spin_edges(&t, Some(40_000)), 1);
        // Without a stack-RTT baseline only time inversions count.
        assert_eq!(invalid_spin_edges(&t, None), 0);
    }

    #[test]
    fn invalid_edge_detection_flags_time_inversion() {
        use quicspin_qlog::{EventData, PacketSpace};
        let mut t = TraceLog::new("client");
        // The later packet number carries the earlier timestamp, so in
        // packet-number order time runs backwards across the flip.
        t.push(
            20_000,
            EventData::PacketReceived {
                space: PacketSpace::Application,
                packet_number: 1,
                spin: Some(false),
                size: 64,
            },
        );
        t.push(
            19_000,
            EventData::PacketReceived {
                space: PacketSpace::Application,
                packet_number: 2,
                spin: Some(true),
                size: 64,
            },
        );
        assert_eq!(invalid_spin_edges(&t, None), 1);
    }

    #[test]
    fn observer_views_trip_the_new_anomaly_kinds() {
        use crate::observe::ObserverView;
        use quicspin_core::ObserverReport;
        use quicspin_observer::FlowStats;
        use quicspin_webpop::{IpVersion, ListKind, Org};

        let stats = |samples: u64, mean: Option<u64>, edges_down: u64| FlowStats {
            packets: 30,
            unobservable: 2,
            edges_upstream: edges_down,
            edges_downstream: edges_down,
            samples,
            samples_upstream: samples,
            mean_us: mean,
            min_us: mean,
            max_us: mean,
            server_side_mean_us: None,
            client_side_mean_us: None,
            rejected_reorder: 0,
            rejected_gap: 0,
            measurable: samples > 0,
        };
        let report = |spin: &[u64]| ObserverReport {
            classification: FlowClassification::Spinning,
            packets: 30,
            spin_samples_received_us: spin.to_vec(),
            spin_samples_sorted_us: spin.to_vec(),
            stack_samples_us: spin.to_vec(),
        };
        let record = |domain_id: u32, view: ObserverView, rep: ObserverReport| {
            let mut r = ConnectionRecord::failed(
                domain_id,
                ListKind::Toplist,
                Org::Other,
                0,
                IpVersion::V4,
                ScanOutcome::Ok,
            );
            r.report = Some(rep);
            r.observer = Some(view);
            r
        };

        let cfg = FlightConfig::armed(7);
        let mut shard = FlightShard::default();

        // Diverging: observer mean 52 ms vs client 40 ms (30% > 10%), and
        // 4 extra downstream edges beyond the client's 3-edge stream.
        let rep = report(&[40_000, 40_000]);
        let diverging = record(
            1,
            ObserverView::new(0.5, stats(4, Some(52_000), 7), &rep),
            rep,
        );
        // Unmeasurable: a tap that never produced a sample on an Ok flow.
        let rep = report(&[]);
        let unmeasurable = record(2, ObserverView::new(0.5, stats(0, None, 0), &rep), rep);
        // Clean: observer agrees with the client exactly.
        let rep = report(&[40_000, 40_000]);
        let clean = record(
            3,
            ObserverView::new(0.5, stats(2, Some(40_000), 3), &rep),
            rep,
        );

        shard.inspect_domain(&cfg, &[diverging]);
        shard.inspect_domain(&cfg, &[unmeasurable]);
        shard.inspect_domain(&cfg, &[clean]);

        let kinds: Vec<AnomalyKind> = shard.anomalies().iter().map(|a| a.kind).collect();
        assert!(kinds.contains(&AnomalyKind::ObserverDivergence));
        assert!(kinds.contains(&AnomalyKind::ObserverExtraEdges));
        assert!(kinds.contains(&AnomalyKind::ObserverUnmeasurable));
        assert!(
            shard.anomalies().iter().all(|a| a.probe.domain_id != 3),
            "clean flow must not be flagged"
        );
    }

    #[test]
    fn stage_times_past_the_bands_trip_a_stage_outlier() {
        use quicspin_webpop::{IpVersion, ListKind, Org};

        let record = |domain_id: u32, handshake_us: u64, total_us: u64| {
            let mut r = ConnectionRecord::failed(
                domain_id,
                ListKind::Toplist,
                Org::Other,
                0,
                IpVersion::V4,
                ScanOutcome::Ok,
            );
            r.virtual_handshake_us = Some(handshake_us);
            r.virtual_total_us = total_us;
            r.qlog = Some(TraceLog::new("client"));
            r
        };
        let outliers = |rec: ConnectionRecord| {
            let mut shard = FlightShard::default();
            shard.inspect_domain(&FlightConfig::armed(7), &[rec]);
            shard
                .anomalies()
                .iter()
                .filter(|a| a.kind == AnomalyKind::StageOutlier)
                .map(|a| (a.value, a.severity))
                .collect::<Vec<_>>()
        };

        // Exactly at both bands (1.5 s handshake, 10 s total): not past
        // them.
        assert_eq!(outliers(record(1, 1_500_000, 10_000_000)), []);
        // 25 000 µs past the total band: 50 + 25 000 / 10 000.
        assert_eq!(outliers(record(2, 1_000, 10_025_000)), [(25_000.0, 52)]);
        // The larger of the two excesses is the value.
        assert_eq!(outliers(record(3, 1_540_000, 10_025_000)), [(40_000.0, 54)]);
    }

    #[test]
    fn index_offsets_match_store_layout() {
        let items = [
            (ProbeId::new(7, 0), 90u64, 40usize),
            (ProbeId::new(8, 0), 80, 60),
        ];
        let cfg = FlightConfig::default();
        let rec = FlightRecording::new(shard_with(&items, 1 << 20), &cfg, "t".into(), Vec::new());
        let index = rec.index();
        let store = rec.trace_store();
        assert_eq!(&store[..4], TRACE_STORE_MAGIC);
        assert_eq!(store[4], TRACE_STORE_VERSION);
        assert_eq!(index.traces.len(), 2);
        let mut expect_off = TRACE_STORE_HEADER_LEN as u64;
        for slot in &index.traces {
            assert_eq!(slot.offset, expect_off);
            expect_off += slot.len;
        }
        assert_eq!(store.len() as u64, expect_off);
    }
}
