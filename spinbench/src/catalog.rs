//! The metric catalogue: every metric the benchmark emits, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json`
//! mirrors this table; a test keeps the two in step.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees, measured with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// Absolute worsening below which `compare` never calls a regression,
    /// in the metric's unit (0 = none).
    pub floor: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        floor,
    }
}

/// End-to-end metrics, in report order.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("wall_s", "s", Better::Lower, 0.25, 0.0),
    e2e("domains_per_s", "1/s", Better::Higher, 0.25, 0.0),
    e2e("cpu_s", "s", Better::Lower, 0.25, 0.0),
    e2e("setup_s", "s", Better::Lower, 0.25, 0.02),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.15, 4.0),
    e2e("readback_s", "s", Better::Lower, 0.25, 0.05),
    e2e("artifact_mib", "MiB", Better::Lower, 0.10, 0.5),
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A span the benchmark records around a public call into the layer.
    Outside,
    /// The program's hierarchical profiler (`ProfilerRegistry` scopes;
    /// wall times are summed over worker threads).
    Profiler,
    /// The program's telemetry registry (counters, gauges, stage
    /// histograms).
    Telemetry,
    /// An artifact the program wrote (sizes, run manifests).
    Artifact,
}

impl Source {
    /// Short label for the report.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Outside => "outside",
            Source::Profiler => "profiler",
            Source::Telemetry => "telemetry",
            Source::Artifact => "artifact",
        }
    }
}

/// A metric of one layer, measured in the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name (`layer.quantity`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Where the number comes from.
    pub source: Source,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Artifact, Outside, Profiler, Telemetry};

/// Per-layer metrics, in report order. Distributions are reported at
/// their median (`.p50`) and at the highest percentile with at least ten
/// samples beyond it (`.tail`); the report names that percentile and n.
pub const PER_LAYER: &[PerLayer] = &[
    layer("webpop.generate_s", "s", Lower, Outside),
    layer("scanner.campaign_s", "s", Lower, Outside),
    layer("scanner.probe_us.p50", "us", Lower, Outside),
    layer("scanner.probe_us.tail", "us", Lower, Outside),
    layer("scanner.fastfail_ns.p50", "ns", Lower, Outside),
    layer("scanner.fastfail_ns.tail", "ns", Lower, Outside),
    layer("scanner.plan_s", "s", Lower, Profiler),
    layer("scanner.record_intern_s", "s", Lower, Profiler),
    layer("scanner.batch_mailbox_s", "s", Lower, Profiler),
    layer("scanner.peak_record_bytes", "bytes", Lower, Telemetry),
    layer("scanner.mailbox_depth_max", "count", Lower, Telemetry),
    layer("scanner.sink_s", "s", Lower, Outside),
    layer("scanner.observer_doc_flows", "count", Lower, Outside),
    layer("scanner.materialize_s", "s", Lower, Outside),
    layer("scanner.longitudinal_s", "s", Lower, Outside),
    layer("scanner.probe_error_ratio", "ratio", Lower, Artifact),
    layer("flight.anomalies", "count", Lower, Outside),
    layer("flight.retained_ratio", "ratio", Higher, Outside),
    layer("matrix.cell_ms.p50", "ms", Lower, Artifact),
    layer("matrix.cell_ms.tail", "ms", Lower, Artifact),
    layer("matrix.noncampaign_s", "s", Lower, Artifact),
    layer("artifacts.chrome_export_s", "s", Lower, Outside),
    layer("artifacts.write_observer_s", "s", Lower, Outside),
    layer("artifacts.write_flight_s", "s", Lower, Outside),
    layer("artifacts.write_other_s", "s", Lower, Outside),
    layer("artifacts.observer_mib", "MiB", Lower, Artifact),
    layer("artifacts.anomalies_mib", "MiB", Lower, Artifact),
    layer("artifacts.chrome_mib", "MiB", Lower, Artifact),
    layer("artifacts.read_observer_s", "s", Lower, Outside),
    layer("artifacts.read_anomalies_s", "s", Lower, Outside),
    layer("artifacts.read_manifest_s", "s", Lower, Outside),
    layer("spinctl.report_s", "s", Lower, Outside),
    layer("quic.lab_handshake_s", "s", Lower, Profiler),
    layer("quic.lab_transfer_s", "s", Lower, Profiler),
    layer("quic.lab_self_s", "s", Lower, Profiler),
    layer("quic.handshake_us.p50", "us", Lower, Telemetry),
    layer("quic.handshake_us.tail", "us", Lower, Telemetry),
    layer("quic.transfer_us.p50", "us", Lower, Telemetry),
    layer("quic.transfer_us.tail", "us", Lower, Telemetry),
    layer("quic.packets_per_conn", "count", Lower, Telemetry),
    layer("quic.retransmit_ratio", "ratio", Lower, Telemetry),
    layer("quic.ptos_per_conn", "count", Lower, Telemetry),
    layer("quic.frames_reassembled_per_conn", "count", Lower, Profiler),
    layer("quic.pool_hit_ratio", "ratio", Higher, Telemetry),
    layer("netsim.wheel_push_per_conn", "count", Lower, Profiler),
    layer("netsim.wheel_pop_per_conn", "count", Lower, Profiler),
    layer("netsim.queue_high_water", "count", Lower, Telemetry),
    layer("netsim.drop_ratio", "ratio", Lower, Telemetry),
    layer("wire.encodes_per_conn", "count", Lower, Profiler),
    layer("wire.decodes_per_conn", "count", Lower, Profiler),
    layer("wire.undecodable", "count", Lower, Telemetry),
    layer("core.spin_extraction_s", "s", Lower, Profiler),
    layer("core.classify_s", "s", Lower, Profiler),
    layer("core.spin_transitions", "count", Higher, Telemetry),
    layer("observer.fold_s", "s", Lower, Profiler),
    layer("observer.sample_accept_ratio", "ratio", Higher, Telemetry),
    layer("observer.measurable_ratio", "ratio", Higher, Telemetry),
    layer("observer.packets_per_conn", "count", Lower, Telemetry),
    layer("analysis.tables_s", "s", Lower, Outside),
    layer("analysis.fig2_s", "s", Lower, Outside),
    layer("telemetry.trace_overhead_frac", "ratio", Lower, Outside),
];

/// The end-to-end entry named `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The per-layer entry named `name`.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}
