//! Full-population campaigns: one measurement sweep over every target,
//! distributed across worker threads by a work-stealing batch scheduler.
//!
//! Workers claim fixed-size batches of domain ids from a shared atomic
//! cursor, so a cluster of expensive targets (e.g. the QUIC-dense toplist
//! prefix) spreads over all threads instead of serialising one static
//! shard. Per-batch results are merged in batch-index order, which makes
//! the output bit-identical for any thread count.

use crate::batch::RecordBatch;
use crate::flight::{FlightConfig, FlightRecording, FlightShard};
use crate::probe::{probe_connection, NetworkConditions, ProbeScratch};
use crate::record::{ConnectionRecord, ScanOutcome};
use quicspin_core::GreaseFilter;
use quicspin_h3::MAX_REDIRECTS;
use quicspin_telemetry::{
    ConfigEntry, GaugeId, Metric, ProfilerRegistry, ProgressSnapshot, Registry, RunManifest,
    ScopeId,
};
use quicspin_webpop::{IpVersion, Population};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Number of domain ids a worker claims per cursor fetch. Small enough to
/// balance a few expensive targets across threads, large enough that the
/// cursor is uncontended.
const BATCH_SIZE: u32 = 64;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Measurement week index (0 = CW 15, 2022 in the paper's calendar).
    pub week: u32,
    /// IP version of this sweep.
    pub version: IpVersion,
    /// Worker threads (sharded by domain id; results are identical for
    /// any thread count).
    pub threads: usize,
    /// Path conditions.
    pub conditions: NetworkConditions,
    /// Grease filter applied during classification.
    pub grease: GreaseFilter,
    /// Retain the full client qlog trace on every probed record, failed
    /// handshakes included (the paper's Appendix B artifact capture;
    /// memory-heavy).
    pub keep_qlogs: bool,
    /// Campaign telemetry registry. Defaults to a disabled (no-op)
    /// registry, so un-instrumented campaigns pay only a branch; pass an
    /// enabled one (or use
    /// [`run_campaign_with_progress`](Scanner::run_campaign_with_progress))
    /// to collect metrics. Telemetry never changes the records produced.
    pub telemetry: Arc<Registry>,
    /// Hierarchical cost profiler. Defaults to a disabled (no-op)
    /// registry so unprofiled campaigns pay only a branch per scope
    /// boundary; pass an enabled one to attribute probe cost to the
    /// static scope tree (see [`quicspin_telemetry::ScopeId`]). The
    /// profiler never changes the records produced, and its
    /// deterministic counts are identical for any thread count.
    pub profiler: Arc<ProfilerRegistry>,
    /// Flight-recorder configuration. Disabled by default;
    /// [`run_campaign_flight`](Scanner::run_campaign_flight) and
    /// [`run_campaign_streamed_flight_with_progress`](Scanner::run_campaign_streamed_flight_with_progress)
    /// force-enable it. Detection never changes the records produced.
    pub flight: FlightConfig,
    /// Position of the passive on-path observer tap, as a fraction of the
    /// client→server path (0.0 = client-side, 1.0 = server-side). `None`
    /// (the default) runs without a tap; `Some` attaches the observer to
    /// every probe and records its view on each connection record (see
    /// [`crate::observe::ObserverView`]). The tap is passive: the records'
    /// measurement fields are identical with and without it.
    pub tap: Option<f64>,
    /// Scenario-matrix cell id this run belongs to, if it was launched
    /// from a declarative scenario (see [`crate::scenario`]). Echoed
    /// into the manifest's config entries as run provenance, so reports
    /// and `spinctl summary` can show where a run came from. Identical
    /// across thread counts, so the echo never breaks determinism.
    pub scenario_cell: Option<String>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            week: 0,
            version: IpVersion::V4,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            conditions: NetworkConditions::default(),
            grease: GreaseFilter::paper(),
            keep_qlogs: false,
            telemetry: Arc::new(Registry::disabled()),
            profiler: Arc::new(ProfilerRegistry::disabled()),
            flight: FlightConfig::default(),
            tap: None,
            scenario_cell: None,
        }
    }
}

impl CampaignConfig {
    /// Echoes this configuration as manifest entries.
    pub fn config_entries(&self) -> Vec<ConfigEntry> {
        let entry = |key: &str, value: String| ConfigEntry {
            key: key.to_string(),
            value,
        };
        let mut entries = vec![
            entry("week", self.week.to_string()),
            entry("ip_version", format!("{:?}", self.version)),
            entry("threads", self.threads.to_string()),
            entry("loss", self.conditions.loss.to_string()),
            entry("reorder", self.conditions.reorder.to_string()),
            entry("jitter_frac", self.conditions.jitter_frac.to_string()),
            entry("keep_qlogs", self.keep_qlogs.to_string()),
        ];
        if self.profiler.is_enabled() {
            entries.push(entry("profile", "true".to_string()));
        }
        if let Some(tap) = self.tap {
            entries.push(entry(
                "tap_vantage_millionths",
                crate::observe::vantage_millionths(tap).to_string(),
            ));
        }
        if let Some(cell) = &self.scenario_cell {
            entries.push(entry("scenario_cell", cell.clone()));
        }
        if self.flight.enabled {
            entries.push(entry("flight_seed", format!("{:#018x}", self.flight.seed)));
            entries.push(entry(
                "flight_retention_budget_bytes",
                self.flight.retention_budget_bytes.to_string(),
            ));
            entries.push(entry(
                "flight_rtt_divergence_threshold",
                crate::flight::RTT_DIVERGENCE_THRESHOLD.to_string(),
            ));
            entries.push(entry(
                "flight_baseline_sample_every",
                self.flight.baseline_sample_every.to_string(),
            ));
        }
        entries
    }

    /// Deterministic campaign identifier: week, IP version, flight seed.
    pub fn campaign_id(&self) -> String {
        format!(
            "week{}-{:?}-seed{:016x}",
            self.week, self.version, self.flight.seed
        )
    }
}

/// The result of one sweep: every connection record, ordered by domain.
#[derive(Debug)]
pub struct Campaign {
    /// Week the campaign ran in.
    pub week: u32,
    /// IP version used.
    pub version: IpVersion,
    /// All records (≥ 1 per domain attempted; redirects add more).
    pub records: Vec<ConnectionRecord>,
}

impl Campaign {
    /// Records of established connections only.
    pub fn established(&self) -> impl Iterator<Item = &ConnectionRecord> + Clone {
        self.records.iter().filter(|r| r.outcome == ScanOutcome::Ok)
    }

    /// Each domain's records (every redirect hop), in domain order.
    pub fn domains(&self) -> impl Iterator<Item = &[ConnectionRecord]> {
        self.records.chunk_by(|a, b| a.domain_id == b.domain_id)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the campaign produced no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// The scanner: a population plus the machinery to sweep it.
#[derive(Debug)]
pub struct Scanner<'p> {
    population: &'p Population,
}

impl<'p> Scanner<'p> {
    /// Creates a scanner over a population.
    pub fn new(population: &'p Population) -> Self {
        Scanner { population }
    }

    /// Scans a single domain (following redirects); returns all records.
    pub fn scan_domain(&self, domain_id: u32, config: &CampaignConfig) -> Vec<ConnectionRecord> {
        let mut records = Vec::new();
        self.scan_domain_into(
            domain_id,
            config,
            &mut ProbeScratch::default(),
            &mut records,
        );
        records
    }

    /// [`scan_domain`](Scanner::scan_domain), appending the records to
    /// `out` and reusing per-worker `scratch` across probes — the form the
    /// campaign engine drives in its hot loop.
    pub fn scan_domain_into(
        &self,
        domain_id: u32,
        config: &CampaignConfig,
        scratch: &mut ProbeScratch,
        out: &mut Vec<ConnectionRecord>,
    ) {
        self.scan_domain_timed(domain_id, config, scratch, out, None);
    }

    /// [`scan_domain_into`](Scanner::scan_domain_into) on the engine's
    /// per-domain lap chain started at `t`: follows the domain's
    /// redirects, closes the
    /// [`Stage::Probe`](quicspin_telemetry::Stage::Probe) timer once the
    /// hops are scanned and, on flight-recorded campaigns, the
    /// `flight_inspect` scope once the recorder is done. Returns the last
    /// boundary.
    fn scan_domain_timed(
        &self,
        domain_id: u32,
        config: &CampaignConfig,
        scratch: &mut ProbeScratch,
        out: &mut Vec<ConnectionRecord>,
        t: Option<Instant>,
    ) -> Option<Instant> {
        let start = out.len();
        let d = self.population.domain(domain_id);
        let resolved = match config.version {
            IpVersion::V4 => d.resolved_v4,
            IpVersion::V6 => d.resolved_v6,
        };
        let first_plan = if !resolved {
            Err(ScanOutcome::NotResolved)
        } else {
            match self
                .population
                .plan_connection(domain_id, config.week, config.version, 0)
            {
                None => Err(ScanOutcome::NoQuic),
                Some(_) if !self.population.is_reachable(domain_id, config.week) => {
                    Err(ScanOutcome::Unreachable)
                }
                Some(plan) => Ok(plan),
            }
        };
        match first_plan {
            Err(outcome) => out.push(ConnectionRecord::failed(
                d.id,
                d.list,
                d.org,
                config.week,
                config.version,
                outcome,
            )),
            Ok(mut plan) => {
                for depth in 0..=(MAX_REDIRECTS as u32) {
                    let (record, response) = probe_connection(d, &plan, depth, config, scratch);
                    let follow = record.outcome == ScanOutcome::Ok
                        && response.as_ref().is_some_and(|r| r.status.is_redirect())
                        && depth < MAX_REDIRECTS as u32;
                    out.push(record);
                    if !follow {
                        break;
                    }
                    // The redirect target is the canonical page on the
                    // same host (a fresh connection, as the paper counts
                    // it).
                    match self.population.plan_connection(
                        domain_id,
                        config.week,
                        config.version,
                        depth + 1,
                    ) {
                        Some(next) => plan = next,
                        None => break,
                    }
                }
            }
        }
        let t = scratch.telemetry.lap_probe(t);
        if !config.flight.enabled {
            return t;
        }
        let flagged = scratch.flight.inspect_domain(&config.flight, &out[start..]);
        if flagged > 0 {
            scratch.telemetry.add(Metric::AnomaliesFlagged, flagged);
        }
        // Traces were captured only for inspection: strip them again (the
        // records must match a non-flight campaign exactly) and recycle
        // their event buffers into the lab scratch.
        if !config.keep_qlogs {
            for record in &mut out[start..] {
                if let Some(trace) = record.qlog.take() {
                    scratch.restock_qlog(trace);
                }
            }
        }
        scratch.telemetry.lap(ScopeId::FlightInspect, t)
    }

    /// Runs a full sweep over every domain.
    pub fn run_campaign(&self, config: &CampaignConfig) -> Campaign {
        let n = self.population.len() as u32;
        self.run_campaign_over(config, 0..n)
    }

    /// Runs a sweep over a subrange of domain ids (sharding building
    /// block; also used to scan only QUIC candidates in longitudinal
    /// mode).
    pub fn run_campaign_over(
        &self,
        config: &CampaignConfig,
        ids: std::ops::Range<u32>,
    ) -> Campaign {
        self.materialize(config, ids).0
    }

    /// Sweeps `ids`, folding each domain's records into an accumulator
    /// instead of retaining them.
    ///
    /// Every batch of domain ids folds into its own `init()` accumulator
    /// — `fold` is called once per domain, in id order within the batch,
    /// with that domain's records (the callee may drain the `Vec`; it is
    /// cleared before reuse either way) — and the batch accumulators are
    /// `merge`d into one more `init()` on the calling thread, in
    /// batch-index order, as they arrive. The accumulation tree therefore
    /// depends only on `ids`, never on the thread count or claim timing:
    /// results are bit-identical for any `config.threads`, including
    /// float folds.
    pub fn run_campaign_fold<A, I, F, M>(
        &self,
        config: &CampaignConfig,
        ids: std::ops::Range<u32>,
        init: I,
        fold: F,
        merge: M,
    ) -> A
    where
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, &mut Vec<ConnectionRecord>) + Sync,
        M: Fn(&mut A, A),
    {
        let mut acc = init();
        self.sweep(config, ids, None, &init, fold, |batch| {
            merge(&mut acc, batch)
        });
        acc
    }

    /// Runs a full sweep with the flight recorder armed: every probe is
    /// inspected for anomalies and flagged probes' qlog traces are
    /// retained (bounded by `config.flight.retention_budget_bytes`).
    /// The records are identical to a plain [`run_campaign`]
    /// (inspection-only traces are stripped again unless `keep_qlogs`),
    /// and the recording is deterministic for any thread count.
    ///
    /// [`run_campaign`]: Scanner::run_campaign
    pub fn run_campaign_flight(&self, config: &CampaignConfig) -> (Campaign, FlightRecording) {
        let mut config = config.clone();
        config.flight.enabled = true;
        let n = self.population.len() as u32;
        let (campaign, shard) = self.materialize(&config, 0..n);
        (campaign, self.finalize_flight(&config, shard))
    }

    /// The materializing caller of the engine: batches of records are
    /// appended in batch order. Also returns the merged (not yet
    /// finalized) flight shard, empty unless `config.flight` is enabled.
    fn materialize(
        &self,
        config: &CampaignConfig,
        ids: std::ops::Range<u32>,
    ) -> (Campaign, FlightShard) {
        let mut records = Vec::new();
        let shard = self.sweep(
            config,
            ids,
            None,
            Vec::new,
            |acc: &mut Vec<ConnectionRecord>, domain| acc.append(domain),
            |mut batch| records.append(&mut batch),
        );
        let campaign = Campaign {
            week: config.week,
            version: config.version,
            records,
        };
        (campaign, shard)
    }

    /// The streamed caller of the engine: each batch's records become
    /// the rows of a [`RecordBatch`], which is accounted against
    /// `budget_bytes` and reaches `sink` in batch order. Returns the
    /// merged (not yet finalized) flight shard. See
    /// [`run_campaign_streamed_flight_with_progress`](Scanner::run_campaign_streamed_flight_with_progress)
    /// for the budget.
    pub(crate) fn stream<S>(
        &self,
        config: &CampaignConfig,
        ids: std::ops::Range<u32>,
        budget_bytes: usize,
        mut sink: S,
    ) -> FlightShard
    where
        S: FnMut(&RecordBatch),
    {
        self.sweep(
            config,
            ids,
            Some((budget_bytes, RecordBatch::approx_bytes)),
            RecordBatch::new,
            |out, domain| out.push_group(domain),
            |batch| sink(&batch),
        )
    }

    /// The campaign engine: the one worker loop under every
    /// `run_campaign_*` entry point.
    ///
    /// Domain ids are claimed in [`BATCH_SIZE`] batches from a shared
    /// atomic cursor by up to `config.threads` workers (work stealing, so
    /// expensive targets cannot pile up on one static shard). Each worker
    /// scans a batch's domains in id order, folds each domain's records
    /// into the batch's own `init()` accumulator, and publishes the
    /// finished accumulator to a [`Mailbox`]. The calling thread hands
    /// the accumulators to `consume` in strict batch-index order, so
    /// what `consume` sees depends only on `ids`, never on the thread
    /// count or claim timing. A one-worker sweep runs the same loop
    /// inline and consumes each batch right after publishing it.
    ///
    /// With `residency` set, undelivered accumulators count against its
    /// byte budget: workers wait before claiming new work while it is
    /// exhausted, and the residency gauges are recorded. A panic in a
    /// worker or in `consume` fails the mailbox, which wakes every waiter
    /// on the other side, and is then passed on to the caller. Returns
    /// the workers' merged flight shard.
    fn sweep<A: Send>(
        &self,
        config: &CampaignConfig,
        ids: std::ops::Range<u32>,
        residency: Residency<A>,
        init: impl Fn() -> A + Sync,
        fold: impl Fn(&mut A, &mut Vec<ConnectionRecord>) + Sync,
        mut consume: impl FnMut(A),
    ) -> FlightShard {
        let batches = ids.end.saturating_sub(ids.start).div_ceil(BATCH_SIZE);
        let reg = &*config.telemetry;
        if let Some((budget_bytes, _)) = residency {
            if reg.is_enabled() {
                reg.gauge_set(GaugeId::RecordBudgetBytes, budget_bytes as u64);
            }
        }
        note_tap_vantage(config);
        let cursor = AtomicU32::new(0);
        let mailbox = Mailbox::new(residency);

        // Workers block only *before claiming new work*, never between
        // claim and publish: the batch the consumer waits for next is
        // therefore always either unclaimed (then every earlier batch is
        // delivered and no later one claimed, so nothing is resident and
        // the gate is open) or already on its way, and the budget cannot
        // deadlock the pipeline. `published` runs after every publish
        // (the inline consumer).
        let work = |published: &mut dyn FnMut()| -> FlightShard {
            let _alarm = PanicAlarm(&mailbox);
            let mut scratch = ProbeScratch::default();
            scratch
                .telemetry
                .set_enabled(reg.is_enabled(), config.profiler.is_enabled());
            let mut domain_records: Vec<ConnectionRecord> = Vec::new();
            let mut warm = false;
            while mailbox.admit() {
                let batch = cursor.fetch_add(1, Ordering::Relaxed);
                if batch >= batches {
                    break;
                }
                reg.incr(Metric::BatchesClaimed);
                let lo = ids.start + batch * BATCH_SIZE;
                let hi = lo.saturating_add(BATCH_SIZE).min(ids.end);
                let mut acc = init();
                for id in lo..hi {
                    domain_records.clear();
                    // Coarse per-domain counters go straight to the shared
                    // registry so a monitor thread sees live progress;
                    // per-packet stats batch through the worker shard.
                    reg.incr(Metric::ProbesStarted);
                    if warm {
                        scratch.telemetry.incr(Metric::ScratchReuseHits);
                    } else {
                        warm = true;
                    }
                    let t = scratch.telemetry.begin();
                    let t =
                        self.scan_domain_timed(id, config, &mut scratch, &mut domain_records, t);
                    note_domain_records(reg, &domain_records);
                    fold(&mut acc, &mut domain_records);
                    scratch.telemetry.end(ScopeId::RecordIntern, t);
                }
                // Mailbox publish cost (lock + in-order queue handoff) is
                // scheduling machinery: the scope is marked
                // non-deterministic and never reaches `profile.json`.
                let t = scratch.telemetry.begin();
                mailbox.publish(batch, acc, reg);
                scratch.telemetry.end(ScopeId::BatchMailbox, t);
                published();
            }
            config.profiler.absorb(&scratch.telemetry);
            reg.absorb(&scratch.telemetry);
            reg.incr(Metric::WorkersFinished);
            std::mem::take(&mut scratch.flight)
        };

        let workers = config.threads.max(1).min(batches as usize);
        if workers <= 1 {
            let mut next = 0;
            return work(&mut || {
                mailbox.deliver(next, &mut consume);
                next += 1;
            });
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| work(&mut || {})))
                .collect();
            let _alarm = PanicAlarm(&mailbox);
            for next in 0..batches {
                if !mailbox.deliver(next, &mut consume) {
                    break;
                }
            }
            // Shard merge order does not matter: finalization
            // canonicalizes the contents.
            let mut flight = FlightShard::default();
            for handle in handles {
                match handle.join() {
                    Ok(shard) => flight.merge(shard),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            flight
        })
    }

    /// Runs a full sweep with live progress reporting and a run manifest.
    ///
    /// A monitor thread samples the campaign registry every
    /// `progress_every` and hands `sink` one status line per tick
    /// (`probes/sec`, ETA, error rate — see
    /// [`ProgressSnapshot::render`](quicspin_telemetry::ProgressSnapshot::render)),
    /// followed by the final human-readable summary table. If the config's
    /// registry is disabled, an enabled one is substituted for this run so
    /// the manifest is always populated. Returns the campaign plus the
    /// [`RunManifest`] (write it next to the other artifacts with
    /// [`write_run_manifest`](crate::artifacts::write_run_manifest)).
    pub fn run_campaign_with_progress<F>(
        &self,
        config: &CampaignConfig,
        progress_every: Duration,
        sink: F,
    ) -> (Campaign, RunManifest)
    where
        F: FnMut(&str) + Send,
    {
        self.run_with_progress_impl(config, progress_every, sink, |scanner, cfg| {
            scanner.run_campaign(cfg)
        })
    }

    /// The streamed, bounded-memory campaign with the flight recorder
    /// armed, live progress reporting, and a run manifest — the full
    /// operator path without ever materializing the record vector.
    /// Row batches reach `batch_sink` on the calling thread as
    /// [`RecordBatch`]es, in strict batch-index order, and are dropped
    /// right after. Aggregates, time series and flight artifacts folded
    /// from the stream are byte-identical to the materializing path for
    /// any worker-thread count, because the sink sees exactly the
    /// per-batch merge sequence [`run_campaign`](Scanner::run_campaign)
    /// uses. The streamed records match a non-flight run exactly, as in
    /// [`run_campaign_flight`](Scanner::run_campaign_flight). Write the
    /// recording next to `metrics.json` with
    /// [`write_flight_recording`](crate::artifacts::write_flight_recording).
    ///
    /// `budget_bytes` is the high-water byte budget for resident record
    /// rows (finished batches awaiting the in-order merge plus the one
    /// being folded); `0` means unbounded. Workers stop claiming new
    /// batches while the budget is exhausted, so the overshoot is bounded
    /// by one in-flight batch per worker. Peak residency is reported on
    /// the [`GaugeId::PeakRecordBytes`] gauge, the merge-queue depth on
    /// [`GaugeId::EventQueueDepth`], and the configured budget on
    /// [`GaugeId::RecordBudgetBytes`].
    pub fn run_campaign_streamed_flight_with_progress<S, F>(
        &self,
        config: &CampaignConfig,
        budget_bytes: usize,
        progress_every: Duration,
        progress: F,
        batch_sink: S,
    ) -> (FlightRecording, RunManifest)
    where
        S: FnMut(&RecordBatch),
        F: FnMut(&str) + Send,
    {
        let mut config = config.clone();
        config.flight.enabled = true;
        self.run_with_progress_impl(&config, progress_every, progress, move |scanner, cfg| {
            let n = scanner.population.len() as u32;
            let shard = scanner.stream(cfg, 0..n, budget_bytes, batch_sink);
            scanner.finalize_flight(cfg, shard)
        })
    }

    /// Finalizes a merged flight shard into a recording and notes the
    /// retention metrics. The index must be byte-identical for any worker
    /// count, so the config echo drops the one execution-environment
    /// entry; the run manifest still records it.
    fn finalize_flight(&self, config: &CampaignConfig, shard: FlightShard) -> FlightRecording {
        let index_config = config
            .config_entries()
            .into_iter()
            .filter(|e| e.key != "threads")
            .collect();
        let recording =
            FlightRecording::new(shard, &config.flight, config.campaign_id(), index_config);
        let reg = &*config.telemetry;
        if reg.is_enabled() {
            reg.add(
                Metric::FlightTracesRetained,
                recording.retained().len() as u64,
            );
            reg.add(Metric::FlightTracesEvicted, recording.evicted_traces());
            reg.add(Metric::FlightTraceBytesRetained, recording.retained_bytes());
        }
        recording
    }

    /// Shared monitor-thread scaffolding for the `*_with_progress` family.
    fn run_with_progress_impl<F, T>(
        &self,
        config: &CampaignConfig,
        progress_every: Duration,
        mut sink: F,
        run: impl FnOnce(&Scanner<'p>, &CampaignConfig) -> T,
    ) -> (T, RunManifest)
    where
        F: FnMut(&str) + Send,
    {
        let mut config = config.clone();
        if !config.telemetry.is_enabled() {
            config.telemetry = Arc::new(Registry::new());
        }
        let reg = Arc::clone(&config.telemetry);
        let total = self.population.len() as u64;
        reg.gauge_set(GaugeId::CampaignSize, total);
        reg.gauge_set(GaugeId::WorkerThreads, config.threads.max(1) as u64);
        let progress_every = progress_every.max(Duration::from_millis(1));

        let started = Instant::now();
        let (result, ticks) = std::thread::scope(|scope| {
            // Dropping `hang_up` — when the campaign returns or unwinds —
            // wakes the monitor at once.
            let (hang_up, stopped) = mpsc::channel();
            let monitor_reg = &*reg;
            let sink_ref = &mut sink;
            let ticker = scope.spawn(move || {
                monitor(
                    monitor_reg,
                    total,
                    started,
                    progress_every,
                    &stopped,
                    |snap| sink_ref(&snap.render()),
                )
            });
            let result = run(self, &config);
            drop(hang_up);
            let ticks = ticker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (result, ticks)
        });

        let manifest = reg.manifest(config.config_entries(), elapsed_ns(started));
        sink(&reg.progress(total, manifest.wall_time_ns).render());
        if let Some(trend) = ticks.trend() {
            sink(&trend);
        }
        sink(&manifest.summary_table());
        (result, manifest)
    }
}

/// Resident-byte accounting of a sweep's undelivered batch accumulators:
/// the byte budget (`0` = unbounded) and the size of one accumulator.
/// `None` leaves residency unaccounted and its gauges untouched.
type Residency<A> = Option<(usize, fn(&A) -> usize)>;

/// The in-order hand-off between a sweep's workers and its consumer.
struct Mailbox<A> {
    state: Mutex<MailboxState<A>>,
    /// Signalled when a batch is published or the sweep fails.
    ready: Condvar,
    /// Signalled when resident bytes drop or the sweep fails.
    space: Condvar,
    residency: Residency<A>,
}

struct MailboxState<A> {
    /// Published, undelivered accumulators and their resident bytes, by
    /// batch index.
    pending: BTreeMap<u32, (A, usize)>,
    resident: usize,
    /// A worker or the consumer panicked: nobody may wait any longer.
    failed: bool,
}

const MAILBOX_POISONED: &str = "campaign mailbox lock poisoned by a panicked thread";

impl<A> Mailbox<A> {
    fn new(residency: Residency<A>) -> Self {
        Mailbox {
            state: Mutex::new(MailboxState {
                pending: BTreeMap::new(),
                resident: 0,
                failed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            residency,
        }
    }

    /// Waits until the byte budget admits claiming one more batch.
    /// Returns `false` once the sweep has failed.
    fn admit(&self) -> bool {
        let budget = self.residency.map_or(0, |(budget, _)| budget);
        let mut s = self.state.lock().expect(MAILBOX_POISONED);
        while budget > 0 && s.resident >= budget && !s.failed {
            s = self.space.wait(s).expect(MAILBOX_POISONED);
        }
        !s.failed
    }

    /// Publishes batch `batch`'s finished accumulator.
    fn publish(&self, batch: u32, acc: A, reg: &Registry) {
        let bytes = self.residency.map_or(0, |(_, size)| size(&acc));
        let mut s = self.state.lock().expect(MAILBOX_POISONED);
        s.resident += bytes;
        s.pending.insert(batch, (acc, bytes));
        if self.residency.is_some() && reg.is_enabled() {
            reg.gauge_max(GaugeId::PeakRecordBytes, s.resident as u64);
            reg.gauge_max(GaugeId::EventQueueDepth, s.pending.len() as u64);
        }
        drop(s);
        self.ready.notify_one();
    }

    /// Waits for batch `next`, hands it to `consume`, and only then
    /// returns its bytes to the budget. Returns `false`, delivering
    /// nothing, once the sweep has failed.
    fn deliver(&self, next: u32, consume: &mut impl FnMut(A)) -> bool {
        let (acc, bytes) = {
            let mut s = self.state.lock().expect(MAILBOX_POISONED);
            loop {
                if s.failed {
                    return false;
                }
                if let Some(entry) = s.pending.remove(&next) {
                    break entry;
                }
                s = self.ready.wait(s).expect(MAILBOX_POISONED);
            }
        };
        consume(acc);
        self.state.lock().expect(MAILBOX_POISONED).resident -= bytes;
        self.space.notify_all();
        true
    }

    /// Marks the sweep failed and wakes every waiter on both sides.
    fn fail(&self) {
        // Runs while unwinding: must not panic on a poisoned lock.
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .failed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }
}

/// Fails the mailbox when dropped during a panic, so a worker or
/// consumer that unwinds wakes the other side instead of leaving it
/// waiting forever; the panic itself is then passed on to the caller.
struct PanicAlarm<'m, A>(&'m Mailbox<A>);

impl<A> Drop for PanicAlarm<'_, A> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.fail();
        }
    }
}

/// The progress monitor: every `every` it snapshots the progress
/// counters of `reg`, hands the snapshot to `sink` and notes it in the
/// returned [`Ticks`]. It blocks on `stopped`, not on a sleep, so it
/// returns the moment the campaign hangs up (drops the sender) and a
/// campaign that ends before the first tick emits none.
fn monitor(
    reg: &Registry,
    total: u64,
    started: Instant,
    every: Duration,
    stopped: &mpsc::Receiver<()>,
    mut sink: impl FnMut(&ProgressSnapshot),
) -> Ticks {
    let mut ticks = Ticks::default();
    while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(every) {
        let snap = reg.progress(total, elapsed_ns(started));
        sink(&snap);
        ticks.note(snap);
    }
    ticks
}

/// What the progress monitor keeps of its ticks, however many there are:
/// their count, the first one that saw a completed probe, and the last.
#[derive(Default)]
struct Ticks {
    count: u64,
    first: Option<ProgressSnapshot>,
    last: Option<ProgressSnapshot>,
}

impl Ticks {
    fn note(&mut self, snap: ProgressSnapshot) {
        self.count += 1;
        if self.first.is_none() && snap.completed > 0 {
            self.first = Some(snap);
        }
        self.last = Some(snap);
    }

    /// One summary line: how the average throughput and error rate moved
    /// from the first tick with completed probes to the last tick. `None`
    /// unless those are two different ticks.
    fn trend(&self) -> Option<String> {
        let (first, last) = (self.first?, self.last?);
        if last.elapsed_ns <= first.elapsed_ns {
            return None;
        }
        Some(format!(
            "throughput trend: {} samples | {:.1} -> {:.1} probes/s | errors {:.1}% -> {:.1}%",
            self.count,
            first.probes_per_sec(),
            last.probes_per_sec(),
            100.0 * first.error_rate(),
            100.0 * last.error_rate(),
        ))
    }
}

/// Notes the configured tap position on the vantage gauge (once per
/// sweep; untapped campaigns leave the gauge at zero).
fn note_tap_vantage(config: &CampaignConfig) {
    if let Some(tap) = config.tap {
        if config.telemetry.is_enabled() {
            config.telemetry.gauge_set(
                GaugeId::ObserverVantageMillionths,
                crate::observe::vantage_millionths(tap) as u64,
            );
        }
    }
}

/// Folds one scanned domain's outcome into the registry's live counters.
fn note_domain_records(reg: &Registry, records: &[ConnectionRecord]) {
    if !reg.is_enabled() {
        return;
    }
    reg.incr(Metric::ProbesCompleted);
    reg.add(Metric::RecordsProduced, records.len() as u64);
    let mut errored = false;
    for r in records {
        if r.redirect_depth > 0 {
            reg.incr(Metric::RedirectsFollowed);
        }
        errored |= matches!(
            r.outcome,
            ScanOutcome::HandshakeFailed | ScanOutcome::Unreachable
        );
    }
    if errored {
        reg.incr(Metric::ProbesErrored);
    }
}

/// Nanoseconds since `start`, saturated to `u64::MAX`.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_telemetry::Stage;
    use quicspin_webpop::PopulationConfig;

    fn tiny_pop() -> Population {
        Population::generate(PopulationConfig {
            seed: 42,
            toplist_domains: 100,
            zone_domains: 900,
        })
    }

    fn clean_config() -> CampaignConfig {
        CampaignConfig {
            conditions: NetworkConditions::clean(),
            threads: 2,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_covers_every_domain() {
        let pop = tiny_pop();
        let campaign = Scanner::new(&pop).run_campaign(&clean_config());
        use std::collections::HashSet;
        let ids: HashSet<u32> = campaign.records.iter().map(|r| r.domain_id).collect();
        assert_eq!(ids.len(), pop.len());
        assert!(!campaign.is_empty());
        assert!(campaign.len() >= pop.len());
    }

    #[test]
    fn outcomes_match_population_flags() {
        let pop = tiny_pop();
        let campaign = Scanner::new(&pop).run_campaign(&clean_config());
        for r in &campaign.records {
            let d = pop.domain(r.domain_id);
            match r.outcome {
                ScanOutcome::NotResolved => assert!(!d.resolved_v4),
                ScanOutcome::NoQuic => assert!(d.resolved_v4 && !d.quic),
                ScanOutcome::Ok | ScanOutcome::HandshakeFailed => assert!(d.quic),
                ScanOutcome::Unreachable => assert!(d.quic),
            }
        }
    }

    #[test]
    fn progress_campaign_counts_every_probe() {
        let pop = tiny_pop();
        let scanner = Scanner::new(&pop);
        let mut lines: Vec<String> = Vec::new();
        let (campaign, manifest) =
            scanner.run_campaign_with_progress(&clean_config(), Duration::from_millis(1), |line| {
                lines.push(line.to_string())
            });

        // Telemetry must not perturb results: same records as a plain run.
        let plain = scanner.run_campaign(&clean_config());
        assert_eq!(
            serde_json::to_string(&campaign.records).unwrap(),
            serde_json::to_string(&plain.records).unwrap()
        );

        // Every domain probed exactly once, completions match.
        let total = pop.len() as u64;
        assert_eq!(manifest.counter("probes_started"), total);
        assert_eq!(manifest.counter("probes_completed"), total);
        assert_eq!(manifest.counter("campaign_size"), total);
        assert_eq!(manifest.counter("records_produced"), campaign.len() as u64);
        let errored = campaign
            .records
            .iter()
            .filter(|r| {
                matches!(
                    r.outcome,
                    ScanOutcome::HandshakeFailed | ScanOutcome::Unreachable
                )
            })
            .count() as u64;
        assert_eq!(manifest.counter("probes_errored"), errored);

        // QUIC and netsim counters flowed through the shards.
        assert!(manifest.counter("handshakes_completed") > 0);
        assert!(manifest.counter("packets_sent") > 0);
        assert!(manifest.counter("packets_received") > 0);
        assert!(manifest.counter("spin_transitions_observed") > 0);
        assert!(manifest.counter("netsim_queue_high_water") > 0);
        assert!(manifest.counter("scratch_reuse_hits") > 0);

        // Per-stage histograms are populated.
        let probe_stage = manifest.stage("probe").expect("probe stage");
        assert_eq!(probe_stage.count, total);
        assert!(probe_stage.p50_ns > 0);
        assert!(manifest.stage("handshake").unwrap().count > 0);
        assert!(manifest.stage("spin_extraction").unwrap().count > 0);
        assert!(manifest.stage("classify").unwrap().count > 0);

        // The sink saw the final progress line and the summary table.
        assert!(lines.iter().any(|l| l.contains("probes/s")));
        assert!(lines.iter().any(|l| l.contains("campaign run manifest")));
    }

    /// Runs `f` on its own thread and returns its value, failing the test
    /// if it has not returned within a minute: a monitor that never joins
    /// shows up as a failure, not a hung test run.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, result) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _ = done.send(f());
        });
        match result.recv_timeout(Duration::from_secs(60)) {
            Ok(value) => value,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("campaign did not join within 60 s"),
            Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("the thread sends before it returns"),
            },
        }
    }

    /// A materialized or a streamed flight campaign over `pop` with
    /// progress every `every`: its progress-sink lines and its wall clock.
    fn progress_lines(
        streamed: bool,
        pop: PopulationConfig,
        every: Duration,
    ) -> (Vec<String>, Duration) {
        within_a_minute(move || {
            let pop = Population::generate(pop);
            let scanner = Scanner::new(&pop);
            let mut lines = Vec::new();
            let sink = |line: &str| lines.push(line.to_string());
            let started = Instant::now();
            if streamed {
                scanner.run_campaign_streamed_flight_with_progress(
                    &clean_config(),
                    4096,
                    every,
                    sink,
                    |_| {},
                );
            } else {
                scanner.run_campaign_with_progress(&clean_config(), every, sink);
            }
            (lines, started.elapsed())
        })
    }

    fn progress_counts(lines: &[String]) -> Vec<u64> {
        lines
            .iter()
            .filter_map(|l| l.strip_prefix("progress "))
            .filter_map(|rest| rest.split('/').next()?.parse().ok())
            .collect()
    }

    #[test]
    fn monitor_ticks_report_monotonic_progress() {
        // Each progress line is a registry snapshot taken by the monitor
        // thread; completions only ever increase, so the reported counts
        // must be non-decreasing and end on the full population (the final
        // snapshot is emitted after the sweep joins). With 1 ms ticks the
        // campaign ends inside an interval, and the monitor must join.
        for (streamed, seed) in [(false, 42), (true, 42), (true, 43), (true, 44)] {
            let pop = PopulationConfig {
                seed,
                toplist_domains: 100,
                zone_domains: 900,
            };
            let (lines, _) = progress_lines(streamed, pop, Duration::from_millis(1));
            let counts = progress_counts(&lines);
            for pair in counts.windows(2) {
                assert!(pair[0] <= pair[1], "monitor ticks regressed: {pair:?}");
            }
            assert_eq!(counts.last(), Some(&1000), "lines: {lines:?}");
            // One trend line, counting every tick: all progress lines but
            // the final one.
            let trends: Vec<u64> = lines
                .iter()
                .filter_map(|l| l.strip_prefix("throughput trend: "))
                .filter_map(|rest| rest.split(' ').next()?.parse().ok())
                .collect();
            let ticks = counts.len() as u64 - 1;
            assert_eq!(trends, [ticks], "lines: {lines:?}");
        }
    }

    #[test]
    fn campaign_ending_before_the_first_tick_emits_no_tick() {
        let every = Duration::from_secs(3600);
        let pop = PopulationConfig {
            seed: 42,
            toplist_domains: 10,
            zone_domains: 30,
        };
        let (lines, wall) = progress_lines(true, pop, every);
        // Only the final line, written after the join, reports progress.
        assert_eq!(progress_counts(&lines), [40], "lines: {lines:?}");
        assert!(wall < every / 60, "join waited on the interval: {wall:?}");
    }

    #[test]
    fn monitor_snapshots_never_decrease_beside_a_streamed_flight_campaign() {
        // The monitor reads the registry while workers update it: the
        // snapshots it hands its sink must come out non-decreasing, and
        // the ticks it returns must be the first completed and the last
        // of them.
        let (seen, ticks) = within_a_minute(|| {
            let pop = tiny_pop();
            let reg = Arc::new(Registry::new());
            let mut config = clean_config();
            config.telemetry = Arc::clone(&reg);
            config.flight.enabled = true;
            let (hang_up, stopped) = mpsc::channel();
            let started = Instant::now();
            std::thread::scope(|scope| {
                let (reg, total) = (&*reg, pop.len() as u64);
                let every = Duration::from_millis(1);
                let ticker = scope.spawn(move || {
                    let mut seen = Vec::new();
                    let ticks = monitor(reg, total, started, every, &stopped, |snap| {
                        seen.push(*snap)
                    });
                    (seen, ticks)
                });
                Scanner::new(&pop).stream(&config, 0..pop.len() as u32, 4096, |_| {});
                drop(hang_up);
                ticker.join().expect("monitor thread")
            })
        });
        assert!(!seen.is_empty(), "no tick during the campaign");
        for pair in seen.windows(2) {
            let key = |p: &ProgressSnapshot| (p.completed, p.errored, p.elapsed_ns);
            let (a, b) = (key(&pair[0]), key(&pair[1]));
            assert!(
                a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2,
                "monitor snapshot regressed: {a:?} then {b:?}"
            );
        }
        assert_eq!(ticks.count, seen.len() as u64);
        assert_eq!(ticks.first, seen.iter().find(|p| p.completed > 0).copied());
        assert_eq!(ticks.last, seen.last().copied());
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let pop = tiny_pop();
        let campaign = Scanner::new(&pop).run_campaign(&clean_config());
        let config = clean_config();
        assert!(!config.telemetry.is_enabled());
        let manifest = config.telemetry.manifest(config.config_entries(), 0);
        assert_eq!(manifest.counter("probes_started"), 0);
        assert!(!campaign.is_empty());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let pop = tiny_pop();
        let scanner = Scanner::new(&pop);
        let mut one = clean_config();
        one.threads = 1;
        let mut four = clean_config();
        four.threads = 4;
        let a = scanner.run_campaign(&one);
        let b = scanner.run_campaign(&four);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.domain_id, y.domain_id);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.report, y.report);
        }
    }

    #[test]
    fn thread_count_is_bit_identical() {
        // Stronger than record-field spot checks: the serialized form of
        // every record — report, qlog, host, everything — must match
        // byte-for-byte between 1 and 8 workers.
        let pop = tiny_pop();
        let scanner = Scanner::new(&pop);
        let config = |threads| CampaignConfig {
            threads,
            keep_qlogs: true,
            ..clean_config()
        };
        let one = scanner.run_campaign(&config(1));
        let eight = scanner.run_campaign(&config(8));
        assert_eq!(one.len(), eight.len());
        for (x, y) in one.records.iter().zip(&eight.records) {
            assert_eq!(
                serde_json::to_string(x).unwrap(),
                serde_json::to_string(y).unwrap()
            );
        }
    }

    #[test]
    fn tapped_campaign_is_bit_identical_across_threads_and_passive() {
        let pop = tiny_pop();
        let scanner = Scanner::new(&pop);
        let tapped = |threads| CampaignConfig {
            threads,
            tap: Some(0.25),
            ..clean_config()
        };
        let one = scanner.run_campaign(&tapped(1));
        let four = scanner.run_campaign(&tapped(4));
        assert_eq!(one.len(), four.len());
        for (x, y) in one.records.iter().zip(&four.records) {
            assert_eq!(
                serde_json::to_string(x).unwrap(),
                serde_json::to_string(y).unwrap()
            );
        }
        // Every established record carries the observer's view; the tap
        // itself never perturbs the client-side measurement.
        let untapped = scanner.run_campaign(&clean_config());
        let mut measured = 0usize;
        for (t, u) in one.records.iter().zip(&untapped.records) {
            assert_eq!(t.report, u.report);
            assert_eq!(t.observer.is_some(), t.outcome == ScanOutcome::Ok);
            assert!(u.observer.is_none());
            if let Some(view) = &t.observer {
                assert_eq!(view.vantage_millionths, 250_000);
                measured += usize::from(view.stats.measurable);
            }
        }
        assert!(measured > 0, "some tapped flows must be measurable");
    }

    #[test]
    fn work_stealing_visits_every_id_exactly_once_in_order() {
        // Drive the fold engine directly: each fold call is one domain, so
        // accumulating ids proves exactly-once coverage, and the merged
        // order must be ascending regardless of which worker stole what.
        let pop = tiny_pop();
        let scanner = Scanner::new(&pop);
        let cfg = CampaignConfig {
            threads: 8,
            ..clean_config()
        };
        // An offset, non-multiple-of-BATCH_SIZE range exercises the edge
        // batches too.
        let ids = 3..pop.len() as u32 - 7;
        let visited = scanner.run_campaign_fold(
            &cfg,
            ids.clone(),
            Vec::new,
            |acc: &mut Vec<u32>, records: &mut Vec<ConnectionRecord>| {
                assert!(!records.is_empty(), "every domain yields >= 1 record");
                acc.push(records[0].domain_id);
            },
            |acc, mut batch| acc.append(&mut batch),
        );
        assert_eq!(visited, ids.collect::<Vec<u32>>());
    }

    #[test]
    fn fold_engine_handles_empty_and_tiny_ranges() {
        let pop = tiny_pop();
        let scanner = Scanner::new(&pop);
        let count = |ids: std::ops::Range<u32>| {
            scanner.run_campaign_fold(
                &clean_config(),
                ids,
                || 0usize,
                |acc: &mut usize, _records: &mut Vec<ConnectionRecord>| *acc += 1,
                |acc, batch| *acc += batch,
            )
        };
        assert_eq!(count(5..5), 0);
        assert_eq!(count(5..6), 1);
        assert_eq!(count(0..65), 65);
    }

    #[test]
    fn streamed_batches_match_materialized_records_in_order() {
        let pop = tiny_pop();
        let scanner = Scanner::new(&pop);
        let cfg = CampaignConfig {
            threads: 4,
            ..clean_config()
        };
        let materialized = scanner.run_campaign(&cfg);
        let mut rows = Vec::new();
        scanner.stream(&cfg, 0..pop.len() as u32, 0, |batch| {
            for group in batch.groups() {
                rows.extend(group);
            }
        });
        assert_eq!(rows.len(), materialized.len());
        for (row, record) in rows.iter().zip(&materialized.records) {
            assert_eq!(*row, crate::batch::RecordRow::of(record));
        }
    }

    #[test]
    fn streamed_budget_bounds_resident_bytes() {
        let pop = tiny_pop();
        let scanner = Scanner::new(&pop);
        let reg = Arc::new(Registry::new());
        let cfg = CampaignConfig {
            threads: 4,
            telemetry: Arc::clone(&reg),
            ..clean_config()
        };
        let budget = 16 * 1024usize;
        let mut batches = 0u32;
        let mut max_batch = 0usize;
        scanner.stream(&cfg, 0..pop.len() as u32, budget, |batch| {
            batches += 1;
            max_batch = max_batch.max(batch.approx_bytes());
        });
        assert_eq!(batches, (pop.len() as u32).div_ceil(BATCH_SIZE));
        assert_eq!(reg.gauge(GaugeId::RecordBudgetBytes), budget as u64);
        assert!(reg.gauge(GaugeId::EventQueueDepth) >= 1);
        let peak = reg.gauge(GaugeId::PeakRecordBytes) as usize;
        assert!(peak > 0);
        // Workers only stop claiming *new* work when the budget is
        // exhausted, so the peak can overshoot by at most one in-flight
        // batch per worker.
        assert!(
            peak <= budget + 4 * max_batch,
            "peak {peak} exceeds budget {budget} plus 4x{max_batch} slack"
        );
    }

    /// Runs `sweep` on a helper thread and returns its panic message.
    /// Fails, instead of hanging the suite, if the sweep neither returns
    /// nor panics within a minute; a hung helper thread is left behind.
    fn panic_of(sweep: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(sweep));
            let message = outcome
                .err()
                .map(|payload| match payload.downcast::<String>() {
                    Ok(text) => *text,
                    Err(payload) => payload
                        .downcast_ref::<&str>()
                        .map_or_else(String::new, |text| text.to_string()),
                });
            let _ = tx.send(message);
        });
        let deadline = Duration::from_secs(60);
        match rx.recv_timeout(deadline) {
            Ok(Some(message)) => message,
            Ok(None) => panic!("the sweep returned instead of panicking"),
            Err(_) => panic!("the sweep neither returned nor panicked within {deadline:?}"),
        }
    }

    #[test]
    fn streamed_sweep_passes_on_a_worker_panic() {
        // Ids past the population end make a worker panic mid-sweep; the
        // consumer waiting for that worker's batch must not wait forever.
        let message = panic_of(|| {
            let pop = tiny_pop();
            Scanner::new(&pop).stream(&clean_config(), 0..1200, 0, |_| {});
        });
        assert!(message.contains("index out of bounds"), "{message}");
    }

    #[test]
    fn streamed_sweep_passes_on_a_sink_panic() {
        // A one-byte budget parks the workers on the budget gate; a sink
        // that unwinds out of the consumer must release them.
        let message = panic_of(|| {
            let pop = tiny_pop();
            Scanner::new(&pop).stream(&clean_config(), 0..pop.len() as u32, 1, |_| {
                panic!("sink failed")
            });
        });
        assert_eq!(message, "sink failed");
    }

    #[test]
    fn streamed_counters_match_materializing_path() {
        let pop = tiny_pop();
        let scanner = Scanner::new(&pop);
        let run = |streamed: bool| {
            let reg = Arc::new(Registry::new());
            let cfg = CampaignConfig {
                threads: 4,
                telemetry: Arc::clone(&reg),
                ..clean_config()
            };
            if streamed {
                scanner.stream(&cfg, 0..pop.len() as u32, 8 * 1024, |_| {});
            } else {
                scanner.run_campaign(&cfg);
            }
            serde_json::to_string_pretty(
                &reg.manifest(cfg.config_entries(), 0).deterministic_view(),
            )
            .unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn profiled_campaign_counts_are_thread_count_invariant() {
        // The deterministic half of the profile (enters per scope) is a
        // pure function of the record stream, so the exported doc must
        // serialize identically for 1 and 4 workers on both the
        // materializing and streamed paths.
        let pop = tiny_pop();
        let scanner = Scanner::new(&pop);
        let doc = |threads: usize, streamed: bool| {
            let prof = Arc::new(ProfilerRegistry::new());
            let cfg = CampaignConfig {
                threads,
                tap: Some(0.25),
                profiler: Arc::clone(&prof),
                ..clean_config()
            };
            if streamed {
                scanner.stream(&cfg, 0..pop.len() as u32, 8 * 1024, |_| {});
            } else {
                scanner.run_campaign(&cfg);
            }
            serde_json::to_string_pretty(&prof.snapshot().doc()).unwrap()
        };
        let one = doc(1, false);
        assert_eq!(one, doc(4, false));
        assert_eq!(one, doc(1, true));
        assert_eq!(one, doc(4, true));
        let parsed: quicspin_telemetry::ProfileDoc = serde_json::from_str(&one).unwrap();
        // Only domains that resolve and speak QUIC reach the probe scope;
        // the record-intern sink fires once per domain regardless.
        let probes = parsed.row("probe").expect("probe scope").enters;
        assert!(probes > 0 && probes < pop.len() as u64);
        assert_eq!(
            parsed.row("record_intern").unwrap().enters,
            pop.len() as u64
        );
        assert!(parsed.row("probe/lab/queue_push").unwrap().enters > 0);
        assert!(parsed.row("probe/observer_fold/samples").unwrap().enters > 0);
    }

    #[test]
    fn stage_histograms_and_scopes_share_one_timing_source() {
        // Every stage but `probe` is a view of one profiler scope, so with
        // both registries on, each histogram holds exactly the wall values
        // its scope summed. Loss makes some handshakes fail: their lab run
        // counts a handshake enter but adds no handshake sample.
        let pop = tiny_pop();
        let reg = Arc::new(Registry::new());
        let prof = Arc::new(ProfilerRegistry::new());
        let cfg = CampaignConfig {
            threads: 2,
            tap: Some(0.5),
            keep_qlogs: true,
            conditions: NetworkConditions {
                loss: 0.5,
                ..NetworkConditions::default()
            },
            telemetry: Arc::clone(&reg),
            profiler: Arc::clone(&prof),
            ..CampaignConfig::default()
        };
        Scanner::new(&pop).run_campaign(&cfg);
        assert!(reg.counter(Metric::HandshakesFailed) > 0);
        let snap = prof.snapshot();
        let views = [
            (Stage::Handshake, ScopeId::LabHandshake),
            (Stage::Transfer, ScopeId::LabTransfer),
            (Stage::SpinExtraction, ScopeId::SpinExtraction),
            (Stage::Classify, ScopeId::Classify),
            (Stage::ObserverFold, ScopeId::ObserverFold),
            (Stage::QlogEncode, ScopeId::QlogEncode),
        ];
        for (stage, scope) in views {
            let hist = reg.stage_histogram(stage).to_shard();
            let cost = snap.cost(scope);
            assert!(hist.count() > 0, "{} recorded nothing", stage.name());
            assert_eq!(
                hist.sum(),
                cost.wall_ns,
                "{} sum vs scope wall",
                stage.name()
            );
            if stage == Stage::Handshake {
                assert!(
                    hist.count() < cost.enters,
                    "failed handshakes add no sample"
                );
            } else {
                assert_eq!(
                    hist.count(),
                    cost.enters,
                    "{} count vs enters",
                    stage.name()
                );
            }
        }
    }

    #[test]
    fn disabled_profiler_stays_empty_and_unechoed() {
        let pop = tiny_pop();
        let cfg = clean_config();
        Scanner::new(&pop).run_campaign(&cfg);
        assert!(!cfg.profiler.is_enabled());
        let snap = cfg.profiler.snapshot();
        assert!(snap.doc().scopes.iter().all(|s| s.enters == 0));
        assert!(!cfg.config_entries().iter().any(|e| e.key == "profile"));
    }

    #[test]
    fn redirects_produce_extra_connections() {
        let pop = tiny_pop();
        let campaign = Scanner::new(&pop).run_campaign(&clean_config());
        let with_redirect: Vec<_> = campaign
            .records
            .iter()
            .filter(|r| r.redirect_depth > 0)
            .collect();
        assert!(
            !with_redirect.is_empty(),
            "some redirect chains must occur at REDIRECT_RATE"
        );
        for r in &with_redirect {
            assert!(pop.domain(r.domain_id).redirects);
        }
    }

    #[test]
    fn established_iterator_filters() {
        let pop = tiny_pop();
        let campaign = Scanner::new(&pop).run_campaign(&clean_config());
        assert!(campaign
            .established()
            .all(|r| r.outcome == ScanOutcome::Ok && r.report.is_some()));
    }

    #[test]
    fn v6_campaign_scans_fewer_hosts() {
        let pop = tiny_pop();
        let scanner = Scanner::new(&pop);
        let v4 = scanner.run_campaign(&clean_config());
        let mut v6_cfg = clean_config();
        v6_cfg.version = IpVersion::V6;
        let v6 = scanner.run_campaign(&v6_cfg);
        let ok4 = v4.established().count();
        let ok6 = v6.established().count();
        assert!(ok6 < ok4, "v6 ({ok6}) must be rarer than v4 ({ok4})");
    }

    #[test]
    fn weeks_vary_spin_behaviour() {
        let pop = Population::generate(PopulationConfig {
            seed: 7,
            toplist_domains: 0,
            zone_domains: 3_000,
        });
        let scanner = Scanner::new(&pop);
        let spin_count = |week: u32| {
            let cfg = CampaignConfig {
                week,
                ..clean_config()
            };
            scanner
                .run_campaign(&cfg)
                .records
                .iter()
                .filter(|r| r.has_spin_activity())
                .count()
        };
        let a = spin_count(0);
        let b = spin_count(5);
        // Churn and the 1-in-16 rule make weekly counts fluctuate; we only
        // require both weeks to see some spinning (the population has
        // spin-enabled hosts with high probability at this size).
        assert!(a > 0 && b > 0, "weeks 0/5 spin counts: {a}/{b}");
    }
}
