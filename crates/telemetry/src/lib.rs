//! # quicspin-telemetry
//!
//! Lock-free campaign telemetry: the observability substrate for the
//! quicspin measurement pipeline.
//!
//! The paper's campaigns ran weekly over hundreds of millions of domains;
//! results at that scale are only trustworthy when the pipeline itself is
//! continuously inspectable. This crate makes every run emit its own
//! operational record without slowing the hot path down:
//!
//! * [`Counter`] / [`Gauge`] — relaxed-atomic scalars.
//! * [`LatencyHistogram`] — fixed-bucket log-scale histogram (~6% relative
//!   resolution) with mergeable plain-integer [`HistogramShard`]s so
//!   workers never contend.
//! * [`Stage`] names the pipeline phases (probe, handshake, transfer,
//!   spin-extraction, classify, qlog-encode, observer-fold).
//! * [`Registry`] — the shared store workers shard into
//!   ([`Registry::shard`]) and merge back out of ([`Registry::absorb`]).
//!   [`Registry::disabled`] is a no-op mode whose cost is a branch.
//! * [`ProfilerRegistry`] — hierarchical per-probe cost profiler over a
//!   static [`ScopeId`] tree: deterministic enter counts export as
//!   `profile.json` ([`ProfileDoc`]), wall self-time as collapsed
//!   flamegraph stacks.
//! * [`WorkerShard`] — the one per-worker instrumentation shard both
//!   registries absorb: counters, gauges, stage histograms and scope
//!   cells, timed by one lap chain. Each fact is recorded once: every
//!   stage but [`Stage::Probe`] is a view of one scope's wall, and every
//!   scope off the lap chain is a view of [`Metric`] counters
//!   ([`ScopeId::counts`]), so each boundary reads the clock once and
//!   each count lives in one counter.
//! * [`RunManifest`] — serde-serializable export (config echo, wall time,
//!   counters, per-stage histograms) written as `metrics.json`, plus
//!   [`ProgressSnapshot`] for periodic `probes/sec | eta | errors` lines.
//! * [`TimeSeries`] — bounded ring of [`TimePoint`]s with deterministic
//!   stride-doubling downsampling, persisted as a versioned
//!   `timeseries.json` ([`TimeSeriesDoc`]) next to the manifest.
//!
//! The transport (`quicspin-quic`) and path-simulation (`quicspin-netsim`)
//! crates do not depend on this crate: they expose plain stat structs that
//! the scanner maps into a [`WorkerShard`], keeping the dependency graph a
//! straight line.

pub mod histogram;
pub mod manifest;
pub mod metrics;
pub mod profiler;
pub mod registry;
pub mod timeseries;

pub use histogram::{bucket_bounds, bucket_index, HistogramShard, LatencyHistogram, BUCKET_COUNT};
pub use manifest::{
    format_duration_ns, ConfigEntry, CounterSnapshot, ProgressSnapshot, RunManifest, StageSnapshot,
    MANIFEST_SCHEMA_VERSION,
};
pub use metrics::{Counter, Gauge, GaugeId, Metric, Stage};
pub use profiler::{
    ProfileDoc, ProfileScopeRow, ProfileSnapshot, ProfilerRegistry, ScopeCost, ScopeId, ScopeInfo,
    MAX_SCOPE_DEPTH, PROFILE_SCHEMA_VERSION,
};
pub use registry::{Registry, WorkerShard};
pub use timeseries::{
    SeriesClock, TimePoint, TimeSeries, TimeSeriesDoc, DEFAULT_TIMESERIES_CAPACITY,
    TIMESERIES_SCHEMA_VERSION,
};
