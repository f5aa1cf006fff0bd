//! The campaign-wide metric registry and the per-worker instrumentation
//! shard.
//!
//! Concurrency model:
//!
//! * The [`Registry`] owns one atomic [`Counter`] per [`Metric`], one
//!   [`Gauge`] per [`GaugeId`], and one locked [`LatencyHistogram`] per
//!   [`Stage`]. It is shared behind an `Arc`. Its histograms are read
//!   once, after the sweep; only the coarse per-domain counters below
//!   are read while workers run.
//! * Each worker thread owns one private [`WorkerShard`] — plain
//!   integers, zero atomics — that holds both halves of the
//!   instrumentation: telemetry counters, gauges and stage histograms,
//!   and the profiler's per-scope cells. The engine folds it into the
//!   shared [`Registry`] and [`ProfilerRegistry`](crate::ProfilerRegistry)
//!   once per worker ([`Registry::absorb`] and
//!   [`ProfilerRegistry::absorb`](crate::ProfilerRegistry::absorb) take
//!   the same shard).
//! * Each fact is recorded once. A shard's scope cells hold only
//!   lap-chain closes and wall; a scope off the lap chain is a view of
//!   counters ([`ScopeId::counts`]), read through
//!   [`WorkerShard::enters`], so `metrics.json` and `profile.json` cannot
//!   disagree about a count.
//! * Coarse per-domain counters (probes started/completed/errored) go
//!   straight to the registry's atomics so a monitor thread can report
//!   live progress; at a handful of relaxed adds per multi-microsecond
//!   probe this is far below measurement noise.
//!
//! Timing is one lap chain per shard: [`WorkerShard::begin`] /
//! [`WorkerShard::lap`] / [`WorkerShard::end`] read the clock once per
//! boundary and hand each wall value to its [`ScopeId`] (when profiling)
//! and to the scope's stage histogram (when metrics are on), so a stage
//! histogram is a view of its scope rather than a second stopwatch. A
//! shard with both halves off never reads the clock, and a disabled
//! registry ignores whatever it is asked to absorb.

use crate::histogram::{HistogramShard, LatencyHistogram};
use crate::manifest::{ConfigEntry, CounterSnapshot, RunManifest, MANIFEST_SCHEMA_VERSION};
use crate::metrics::{Counter, Gauge, GaugeId, Metric, Stage};
use crate::profiler::ScopeId;
use crate::ProgressSnapshot;
use std::time::Instant;

/// The shared, campaign-wide metric store.
pub struct Registry {
    enabled: bool,
    counters: [Counter; Metric::COUNT],
    gauges: [Gauge; GaugeId::COUNT],
    stages: [LatencyHistogram; Stage::COUNT],
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled)
            .field("probes_completed", &self.counter(Metric::ProbesCompleted))
            .finish_non_exhaustive()
    }
}

impl Registry {
    fn with_enabled(enabled: bool) -> Self {
        Registry {
            enabled,
            counters: std::array::from_fn(|_| Counter::new()),
            gauges: std::array::from_fn(|_| Gauge::new()),
            stages: std::array::from_fn(|_| LatencyHistogram::default()),
        }
    }

    /// A live registry that records everything.
    pub fn new() -> Self {
        Registry::with_enabled(true)
    }

    /// A no-op registry: recording and absorbs are ignored, and its
    /// shards never read the clock. Used as the default for campaigns
    /// that don't ask for telemetry, and as the bench baseline.
    pub fn disabled() -> Self {
        Registry::with_enabled(false)
    }

    /// Whether this registry records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `n` to a counter (no-op when disabled).
    #[inline]
    pub fn add(&self, metric: Metric, n: u64) {
        if self.enabled {
            self.counters[metric as usize].add(n);
        }
    }

    /// Adds one to a counter (no-op when disabled).
    #[inline]
    pub fn incr(&self, metric: Metric) {
        self.add(metric, 1);
    }

    /// Current counter value.
    #[inline]
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters[metric as usize].get()
    }

    /// Sets a gauge (no-op when disabled).
    #[inline]
    pub fn gauge_set(&self, gauge: GaugeId, v: u64) {
        if self.enabled {
            self.gauges[gauge as usize].set(v);
        }
    }

    /// Raises a gauge to `v` if larger (no-op when disabled).
    #[inline]
    pub fn gauge_max(&self, gauge: GaugeId, v: u64) {
        if self.enabled {
            self.gauges[gauge as usize].record_max(v);
        }
    }

    /// Current gauge value.
    #[inline]
    pub fn gauge(&self, gauge: GaugeId) -> u64 {
        self.gauges[gauge as usize].get()
    }

    /// The shared histogram for one stage.
    pub fn stage_histogram(&self, stage: Stage) -> &LatencyHistogram {
        &self.stages[stage as usize]
    }

    /// Creates a worker shard that records metrics when this registry is
    /// enabled (and does not profile).
    pub fn shard(&self) -> WorkerShard {
        let mut shard = WorkerShard::default();
        shard.set_enabled(self.enabled, false);
        shard
    }

    /// Folds the counters, gauges and stage histograms of one worker
    /// shard into the shared store. Cheap when the shard recorded
    /// nothing; callers may absorb per batch or per worker.
    pub fn absorb(&self, shard: &WorkerShard) {
        if !self.enabled {
            return;
        }
        for m in Metric::ALL {
            let v = shard.counters[*m as usize];
            if v != 0 {
                self.counters[*m as usize].add(v);
            }
        }
        for g in GaugeId::ALL {
            let v = shard.gauges[*g as usize];
            if v != 0 {
                self.gauges[*g as usize].record_max(v);
            }
        }
        for s in Stage::ALL {
            self.stages[*s as usize].merge_shard(&shard.stages[*s as usize]);
        }
    }

    /// Live progress view: completed/errored counters against `total`.
    pub fn progress(&self, total: u64, elapsed_ns: u64) -> ProgressSnapshot {
        ProgressSnapshot {
            completed: self.counter(Metric::ProbesCompleted),
            total,
            errored: self.counter(Metric::ProbesErrored),
            elapsed_ns,
        }
    }

    /// Exports everything into a serializable [`RunManifest`].
    pub fn manifest(&self, config: Vec<ConfigEntry>, wall_time_ns: u64) -> RunManifest {
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            config,
            wall_time_ns,
            counters: Metric::ALL
                .iter()
                .map(|m| CounterSnapshot {
                    name: m.name().to_string(),
                    value: self.counter(*m),
                })
                .collect(),
            gauges: GaugeId::ALL
                .iter()
                .map(|g| CounterSnapshot {
                    name: g.name().to_string(),
                    value: self.gauge(*g),
                })
                .collect(),
            stages: Stage::ALL
                .iter()
                .map(|s| self.stages[*s as usize].snapshot(s.name()))
                .collect(),
        }
    }
}

/// One scope's profiler cells inside a [`WorkerShard`]: its lap-chain
/// closes and its wall.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct ScopeCells {
    enters: u64,
    wall_ns: u64,
}

/// One worker's private, unsynchronized instrumentation buffer:
/// telemetry counters, gauges and stage histograms, plus the profiler's
/// per-scope enters and wall.
///
/// Two enabled bits mirror the campaign's two registries. Counter and
/// gauge updates are plain integer ops and stay un-gated; scope cells
/// record only while profiling, stage samples only while metrics are on,
/// and the clock helpers read the clock only while either is.
#[derive(Debug, Clone)]
pub struct WorkerShard {
    metrics: bool,
    profiling: bool,
    counters: [u64; Metric::COUNT],
    gauges: [u64; GaugeId::COUNT],
    stages: [HistogramShard; Stage::COUNT],
    scopes: [ScopeCells; ScopeId::COUNT],
}

impl Default for WorkerShard {
    /// A disabled shard; the engine enables it to match the campaign's
    /// registries via [`WorkerShard::set_enabled`].
    fn default() -> Self {
        WorkerShard {
            metrics: false,
            profiling: false,
            counters: [0; Metric::COUNT],
            gauges: [0; GaugeId::COUNT],
            stages: std::array::from_fn(|_| HistogramShard::default()),
            scopes: [ScopeCells::default(); ScopeId::COUNT],
        }
    }
}

impl WorkerShard {
    /// Whether the clock helpers are live (metrics or profiling on).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.metrics || self.profiling
    }

    /// Sets both enabled bits (used when a reusable scratch joins a
    /// campaign whose registries differ from the scratch's last run).
    pub fn set_enabled(&mut self, metrics: bool, profiling: bool) {
        self.metrics = metrics;
        self.profiling = profiling;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, metric: Metric, n: u64) {
        self.counters[metric as usize] += n;
    }

    /// Adds one to a counter.
    #[inline]
    pub fn incr(&mut self, metric: Metric) {
        self.counters[metric as usize] += 1;
    }

    /// Current counter value.
    #[inline]
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters[metric as usize]
    }

    /// Raises a gauge to `v` if larger.
    #[inline]
    pub fn gauge_max(&mut self, gauge: GaugeId, v: u64) {
        let slot = &mut self.gauges[gauge as usize];
        *slot = (*slot).max(v);
    }

    /// Current gauge value.
    #[inline]
    pub fn gauge(&self, gauge: GaugeId) -> u64 {
        self.gauges[gauge as usize]
    }

    /// The shard-local histogram for one stage.
    pub fn stage_histogram(&self, stage: Stage) -> &HistogramShard {
        &self.stages[stage as usize]
    }

    /// Adds one wall value measured elsewhere (e.g. the lab's own
    /// handshake/transfer stopwatches) without counting an entry: to the
    /// scope while profiling, and as one sample of the scope's stage
    /// histogram while metrics are on.
    #[inline]
    pub fn add_wall_ns(&mut self, scope: ScopeId, ns: u64) {
        if self.profiling {
            self.scopes[scope as usize].wall_ns += ns;
        }
        if self.metrics {
            if let Some(stage) = scope.stage() {
                self.stages[stage as usize].record(ns);
            }
        }
    }

    /// Samples the clock if metrics or profiling is on. Pair with
    /// [`WorkerShard::lap`] or [`WorkerShard::end`].
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        self.is_enabled().then(Instant::now)
    }

    /// Closes `scope` at a stage boundary: one enter plus the elapsed
    /// wall (see [`WorkerShard::add_wall_ns`]), and returns the boundary
    /// timestamp so the next scope starts where this one ended — one
    /// clock read per boundary.
    #[inline]
    pub fn lap(&mut self, scope: ScopeId, start: Option<Instant>) -> Option<Instant> {
        let start = start?;
        let now = Instant::now();
        self.close(
            scope,
            now.saturating_duration_since(start).as_nanos() as u64,
        );
        Some(now)
    }

    /// Closes `scope` without chaining. Reads the clock only when the
    /// scope records something: while profiling, or for a scope with a
    /// stage while metrics are on.
    #[inline]
    pub fn end(&mut self, scope: ScopeId, start: Option<Instant>) {
        if let Some(start) = start {
            if self.profiling || self.metrics && scope.stage().is_some() {
                self.close(scope, start.elapsed().as_nanos() as u64);
            }
        }
    }

    /// Closes the engine's per-domain [`Stage::Probe`] timer — the one
    /// stage that is no scope's view — and returns the boundary
    /// timestamp for the next lap.
    #[inline]
    pub fn lap_probe(&mut self, start: Option<Instant>) -> Option<Instant> {
        let start = start?;
        let now = Instant::now();
        if self.metrics {
            let ns = now.saturating_duration_since(start).as_nanos() as u64;
            self.stages[Stage::Probe as usize].record(ns);
        }
        Some(now)
    }

    fn close(&mut self, scope: ScopeId, ns: u64) {
        debug_assert!(
            scope.counts().is_empty(),
            "{} counts a metric, not its laps",
            scope.path()
        );
        if self.profiling {
            self.scopes[scope as usize].enters += 1;
        }
        self.add_wall_ns(scope, ns);
    }

    /// Enter count for one scope: the sum of its counters for a view
    /// ([`ScopeId::counts`]), else its recorded lap-chain closes.
    pub fn enters(&self, scope: ScopeId) -> u64 {
        match scope.counts() {
            [] => self.scopes[scope as usize].enters,
            counts => counts.iter().map(|&m| self.counter(m)).sum(),
        }
    }

    /// Recorded cumulative wall nanoseconds for one scope.
    pub fn wall_ns(&self, scope: ScopeId) -> u64 {
        self.scopes[scope as usize].wall_ns
    }

    /// True when nothing has been recorded since the last reset.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.gauges.iter().all(|&g| g == 0)
            && self.stages.iter().all(|s| s.count() == 0)
            && self.scopes.iter().all(|c| *c == ScopeCells::default())
    }

    /// Clears all recorded data (keeps the enabled bits). Call after the
    /// registries absorbed the shard so a reused scratch doesn't
    /// double-count.
    pub fn reset(&mut self) {
        *self = WorkerShard {
            metrics: self.metrics,
            profiling: self.profiling,
            ..WorkerShard::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_is_lossless_across_shards() {
        // Shard-and-merge must not depend on how the work was split:
        // four shards absorb to the same totals as one.
        let single = Registry::new();
        let sharded = Registry::new();
        let mut one = single.shard();
        let mut shards: Vec<WorkerShard> = (0..4).map(|_| sharded.shard()).collect();
        for i in 0..1_000u64 {
            let w = (i % 4) as usize;
            for shard in [&mut one, &mut shards[w]] {
                shard.incr(Metric::PacketsSent);
                shard.add_wall_ns(ScopeId::LabHandshake, i * 37);
                shard.gauge_max(GaugeId::NetsimQueueHighWater, i);
            }
        }
        single.absorb(&one);
        for shard in &shards {
            sharded.absorb(shard);
        }
        assert_eq!(sharded.counter(Metric::PacketsSent), 1_000);
        assert_eq!(
            sharded.counter(Metric::PacketsSent),
            single.counter(Metric::PacketsSent)
        );
        assert_eq!(
            sharded.gauge(GaugeId::NetsimQueueHighWater),
            single.gauge(GaugeId::NetsimQueueHighWater)
        );
        assert_eq!(
            sharded.stage_histogram(Stage::Handshake).to_shard(),
            single.stage_histogram(Stage::Handshake).to_shard()
        );
    }

    #[test]
    fn disabled_registry_ignores_everything() {
        let reg = Registry::disabled();
        reg.incr(Metric::ProbesCompleted);
        reg.gauge_set(GaugeId::CampaignSize, 42);
        let mut shard = reg.shard();
        assert!(!shard.is_enabled());
        assert!(shard.begin().is_none());
        assert!(shard.lap(ScopeId::Classify, None).is_none());
        shard.add_wall_ns(ScopeId::Classify, 1_000);
        shard.incr(Metric::PacketsSent);
        reg.absorb(&shard);
        assert_eq!(reg.counter(Metric::ProbesCompleted), 0);
        assert_eq!(reg.counter(Metric::PacketsSent), 0);
        assert_eq!(reg.gauge(GaugeId::CampaignSize), 0);
        assert_eq!(reg.stage_histogram(Stage::Classify).count(), 0);
    }

    #[test]
    fn shard_reset_clears_and_keeps_enabled() {
        let mut shard = WorkerShard::default();
        shard.set_enabled(true, true);
        assert!(shard.is_empty());
        shard.incr(Metric::NetsimDrops);
        shard.gauge_max(GaugeId::NetsimQueueHighWater, 9);
        shard.incr(Metric::HandshakesCompleted);
        shard.add_wall_ns(ScopeId::LabTransfer, 123);
        assert_eq!(shard.enters(ScopeId::LabTransfer), 1);
        assert!(!shard.is_empty());
        shard.reset();
        assert!(shard.is_empty());
        assert!(shard.is_enabled());
        assert_eq!(shard.counter(Metric::NetsimDrops), 0);
        assert_eq!(shard.stage_histogram(Stage::Transfer).count(), 0);
        assert_eq!(shard.enters(ScopeId::LabTransfer), 0);
    }

    #[test]
    fn one_lap_feeds_the_scope_and_its_stage() {
        let mut shard = WorkerShard::default();
        shard.set_enabled(true, true);
        let t = shard.begin();
        let t = shard.lap(ScopeId::SpinExtraction, t);
        let t = shard.lap(ScopeId::Classify, t);
        shard.end(ScopeId::QlogEncode, t);
        for scope in [
            ScopeId::SpinExtraction,
            ScopeId::Classify,
            ScopeId::QlogEncode,
        ] {
            let stage = shard.stage_histogram(scope.stage().unwrap());
            assert_eq!(shard.enters(scope), 1);
            assert_eq!(stage.count(), 1);
            assert_eq!(stage.sum(), shard.wall_ns(scope), "{}", scope.path());
        }
    }

    #[test]
    fn each_half_records_only_while_its_bit_is_on() {
        // Metrics only: stage samples, no scope cells, and an end on a
        // scope without a stage records nothing.
        let mut metrics = WorkerShard::default();
        metrics.set_enabled(true, false);
        let t = metrics.begin();
        let t = metrics.lap(ScopeId::Plan, t);
        let t = metrics.lap(ScopeId::Classify, t);
        let t = metrics.lap_probe(t);
        assert!(t.is_some());
        metrics.end(ScopeId::RecordIntern, t);
        assert_eq!(metrics.stage_histogram(Stage::Classify).count(), 1);
        assert_eq!(metrics.stage_histogram(Stage::Probe).count(), 1);
        assert!(ScopeId::ALL
            .iter()
            .all(|&s| metrics.enters(s) == 0 && metrics.wall_ns(s) == 0));

        // Profiling only: scope cells, no stage samples.
        let mut profiling = WorkerShard::default();
        profiling.set_enabled(false, true);
        let t = profiling.begin();
        let t = profiling.lap(ScopeId::Classify, t);
        profiling.lap_probe(t);
        assert_eq!(profiling.enters(ScopeId::Classify), 1);
        assert!(Stage::ALL
            .iter()
            .all(|&s| profiling.stage_histogram(s).count() == 0));

        // Both off: the chain never starts.
        let mut off = WorkerShard::default();
        assert!(off.lap(ScopeId::Classify, off.begin()).is_none());
        assert!(off.is_empty());
    }

    #[test]
    fn manifest_exports_all_namespaces_in_order() {
        let reg = Registry::new();
        reg.add(Metric::ProbesCompleted, 7);
        reg.gauge_set(GaugeId::WorkerThreads, 3);
        let mut shard = reg.shard();
        shard.add_wall_ns(ScopeId::LabHandshake, 50_000);
        reg.absorb(&shard);
        let m = reg.manifest(
            vec![ConfigEntry {
                key: "week".into(),
                value: "1".into(),
            }],
            123,
        );
        assert_eq!(m.schema_version, MANIFEST_SCHEMA_VERSION);
        assert_eq!(m.counters.len(), Metric::COUNT);
        assert_eq!(m.gauges.len(), GaugeId::COUNT);
        assert_eq!(m.stages.len(), Stage::COUNT);
        assert_eq!(m.counter("probes_completed"), 7);
        assert_eq!(m.counter("worker_threads"), 3);
        assert_eq!(m.stage("handshake").unwrap().count, 1);
        // Declaration order is the export order.
        assert_eq!(m.counters[0].name, Metric::ALL[0].name());
        assert_eq!(m.stages[0].stage, Stage::ALL[0].name());
    }

    #[test]
    fn progress_reads_live_counters() {
        let reg = Registry::new();
        reg.add(Metric::ProbesCompleted, 50);
        reg.add(Metric::ProbesErrored, 2);
        let p = reg.progress(100, 1_000_000_000);
        assert_eq!(p.completed, 50);
        assert_eq!(p.errored, 2);
        assert_eq!(p.total, 100);
    }
}
