//! # quicspin-scanner — the zgrab2 analogue
//!
//! The paper's measurement tooling is an adapted zgrab2 with quic-go
//! underneath (§3.2.1). This crate plays the same role against the
//! synthetic population:
//!
//! * targets come from the population's domain lists, queried with a
//!   "www." prefix;
//! * each target gets an HTTP/3-style landing-page request over a fully
//!   simulated QUIC connection, following up to 3 redirects;
//! * every connection produces a [`ConnectionRecord`] holding the §3.3
//!   qlog extraction (spin observations), the stack's RTT samples, the
//!   `server:` identification, and the spin classification;
//! * campaigns run weekly (IPv4) or in selected weeks (IPv6), spread
//!   across scoped worker threads — reproducible regardless of thread
//!   count because every connection is seeded independently.

pub mod artifacts;
pub mod batch;
pub mod campaign;
pub mod flight;
pub mod longitudinal;
pub mod observe;
pub mod probe;
pub mod record;
pub mod scenario;
pub mod timeseries;

pub use artifacts::{
    export_binary_stripped, export_qlogs, profile_folded_stacks, read_anomaly_index,
    read_chrome_trace, read_flagged_trace, read_json, read_observer, read_profile,
    read_profile_folded, read_run_manifest, read_timeseries, strip_for_release, write_chrome_trace,
    write_flight_recording, write_json, write_observer, write_profile, write_profile_folded,
    write_run_manifest, write_timeseries, ANOMALY_INDEX_FILE_NAME, CHROME_TRACE_FILE_NAME,
    MANIFEST_FILE_NAME, OBSERVER_FILE_NAME, PROFILE_FILE_NAME, PROFILE_FOLDED_FILE_NAME,
    TIMESERIES_FILE_NAME, TRACE_STORE_FILE_NAME,
};
pub use batch::{RecordBatch, RecordRow};
pub use campaign::{Campaign, CampaignConfig, Scanner};
pub use flight::{
    Anomaly, AnomalyIndex, AnomalyKind, FlightConfig, FlightRecording, FlightShard, ProbeId,
    RetainedTrace, TraceSlot, VirtualStageSummary, ANOMALY_SCHEMA_VERSION,
};
pub use longitudinal::{run_longitudinal, DomainWeeks, LongitudinalConfig, LongitudinalResult};
pub use observe::{
    vantage_millionths, ObserverDoc, ObserverDocBuilder, ObserverFlowRow, ObserverSummary,
    ObserverView, OBSERVER_SCHEMA_VERSION,
};
pub use probe::{probe_connection, probe_connection_scratch, NetworkConditions, ProbeScratch};
pub use quicspin_telemetry::{ProgressSnapshot, Registry, RunManifest, TimeSeriesDoc};
pub use record::{ConnectionRecord, ScanOutcome};
pub use scenario::{parse_scenario, ScenarioAxis, ScenarioCell, ScenarioMatrix, SWEEP_AXES};
pub use timeseries::{build_timeseries, chrome_trace_export, TimeSeriesBuilder};
