//! Artifact export (the paper's Appendix B): bundle a campaign's
//! retained qlog traces into a qlog file and/or the compact binary form,
//! "stripping unused information to limit the file size" exactly as the
//! paper's release does.

//! None of the exporters here (or anywhere in the library crates) print
//! to stdout: operational events are counted into the campaign telemetry
//! registry instead, and binaries decide what to render.

use crate::campaign::Campaign;
use crate::flight::{
    AnomalyIndex, FlightRecording, TraceSlot, TRACE_STORE_HEADER_LEN, TRACE_STORE_MAGIC,
    TRACE_STORE_VERSION,
};
use crate::record::ScanOutcome;
use quicspin_qlog::{
    decode_trace, encode_trace, parse_folded, render_folded, ChromeEvent, EventData, FoldedStack,
    QlogFile, TraceLog,
};
use quicspin_telemetry::{ProfileDoc, ProfileSnapshot, RunManifest, TimeSeriesDoc};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufWriter, ErrorKind, Write};
use std::path::{Path, PathBuf};

/// File name of the run manifest written next to campaign artifacts.
pub const MANIFEST_FILE_NAME: &str = "metrics.json";

/// File name of the flight recorder's anomaly index.
pub const ANOMALY_INDEX_FILE_NAME: &str = "anomalies.json";

/// File name of the flight recorder's binary trace store.
pub const TRACE_STORE_FILE_NAME: &str = "traces.bin";

/// File name of the deterministic campaign time series.
pub const TIMESERIES_FILE_NAME: &str = "timeseries.json";

/// File name of the Chrome trace-event export (Perfetto-loadable).
pub const CHROME_TRACE_FILE_NAME: &str = "trace.json";

/// File name of the on-path observer document (tapped campaigns only).
pub const OBSERVER_FILE_NAME: &str = "observer.json";

/// File name of the deterministic profiler document (profiled runs only).
pub const PROFILE_FILE_NAME: &str = "profile.json";

/// File name of the collapsed-stack flamegraph export (profiled runs
/// only; load with `flamegraph.pl` or speedscope).
pub const PROFILE_FOLDED_FILE_NAME: &str = "profile.folded";

/// Collects every retained qlog trace of a campaign into one qlog file.
/// Requires the campaign to have run with `keep_qlogs`.
pub fn export_qlogs(campaign: &Campaign) -> QlogFile {
    let traces: Vec<TraceLog> = campaign
        .records
        .iter()
        .filter(|r| r.outcome == ScanOutcome::Ok)
        .filter_map(|r| r.qlog.clone())
        .collect();
    QlogFile::new(traces)
}

/// Strips a trace down to the fields the spin analysis needs — received
/// 1-RTT packets and RTT updates — mirroring the paper's size-limited
/// release ("stripping unused information to limit the file size").
pub fn strip_for_release(trace: &TraceLog) -> TraceLog {
    let mut stripped = TraceLog::new(trace.vantage_point.clone());
    stripped.title = trace.title.clone();
    stripped.events = trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.data,
                EventData::PacketReceived { .. } | EventData::RttUpdated { .. }
            )
        })
        .cloned()
        .collect();
    stripped
}

/// Exports all retained traces in the compact binary format, stripped.
/// Returns one byte blob per connection.
pub fn export_binary_stripped(campaign: &Campaign) -> Vec<Vec<u8>> {
    campaign
        .records
        .iter()
        .filter_map(|r| r.qlog.as_ref())
        .map(|t| encode_trace(&strip_for_release(t)))
        .collect()
}

/// Streams `value` as pretty-printed JSON into file `name` inside `dir`
/// (created if missing), through a buffered writer: no in-memory copy of
/// the document is built. Returns the path written.
pub fn write_json<T: Serialize + ?Sized>(
    dir: &Path,
    name: &str,
    value: &T,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut out = BufWriter::new(File::create(&path)?);
    serde_json::to_writer_pretty(&mut out, value)?;
    out.flush()?;
    Ok(path)
}

/// Reads the JSON file at `path` back as a `T`. A missing file and
/// corrupt JSON both yield a descriptive error naming `what` and the
/// path; a corrupt file's error also names the field path and byte
/// offset at fault.
pub fn read_json<T: Deserialize>(path: &Path, what: &str) -> std::io::Result<T> {
    let json = std::fs::read_to_string(path).map_err(|e| {
        std::io::Error::new(
            e.kind(),
            format!("cannot read {what} {}: {e}", path.display()),
        )
    })?;
    serde_json::from_str(&json).map_err(|e| {
        std::io::Error::new(
            ErrorKind::InvalidData,
            format!("corrupt {what} {}: {e}", path.display()),
        )
    })
}

/// Writes a [`RunManifest`] as pretty-printed JSON named
/// [`MANIFEST_FILE_NAME`] inside `dir` (created if missing). Returns the
/// path written.
pub fn write_run_manifest(dir: &Path, manifest: &RunManifest) -> std::io::Result<PathBuf> {
    write_json(dir, MANIFEST_FILE_NAME, manifest)
}

/// Reads a [`RunManifest`] back from `dir`. A missing file or corrupt
/// JSON both yield a descriptive error naming the path.
pub fn read_run_manifest(dir: &Path) -> std::io::Result<RunManifest> {
    read_json(&dir.join(MANIFEST_FILE_NAME), "run manifest")
}

/// Writes a [`TimeSeriesDoc`] as pretty-printed JSON named
/// [`TIMESERIES_FILE_NAME`] inside `dir` (created if missing). The output
/// bytes are a pure function of the document, so a deterministic series
/// produces a byte-identical file. Returns the path written.
pub fn write_timeseries(dir: &Path, doc: &TimeSeriesDoc) -> std::io::Result<PathBuf> {
    write_json(dir, TIMESERIES_FILE_NAME, doc)
}

/// Reads a [`TimeSeriesDoc`] back from `dir`, with the same descriptive
/// error contract as [`read_run_manifest`].
pub fn read_timeseries(dir: &Path) -> std::io::Result<TimeSeriesDoc> {
    read_json(&dir.join(TIMESERIES_FILE_NAME), "time series")
}

/// Writes an [`ObserverDoc`](crate::observe::ObserverDoc) as
/// pretty-printed JSON named [`OBSERVER_FILE_NAME`] inside `dir` (created
/// if missing). The bytes are a pure function of the document, and the
/// document is built from the thread-count-invariant record stream, so
/// the file is byte-identical for any `--threads`. Returns the path
/// written.
pub fn write_observer(dir: &Path, doc: &crate::observe::ObserverDoc) -> std::io::Result<PathBuf> {
    write_json(dir, OBSERVER_FILE_NAME, doc)
}

/// Reads the [`ObserverDoc`](crate::observe::ObserverDoc) back from
/// `dir`, with the same descriptive error contract as
/// [`read_run_manifest`].
pub fn read_observer(dir: &Path) -> std::io::Result<crate::observe::ObserverDoc> {
    read_json(&dir.join(OBSERVER_FILE_NAME), "observer doc")
}

/// Writes a [`ProfileDoc`] as pretty-printed JSON named
/// [`PROFILE_FILE_NAME`] inside `dir` (created if missing). The doc
/// carries only the deterministic scope enter counts (never wall time),
/// so the file is byte-identical for any `--threads` on the streamed
/// path. Returns the path written.
pub fn write_profile(dir: &Path, doc: &ProfileDoc) -> std::io::Result<PathBuf> {
    write_json(dir, PROFILE_FILE_NAME, doc)
}

/// Reads the [`ProfileDoc`] back from `dir`, with the same descriptive
/// error contract as [`read_run_manifest`].
pub fn read_profile(dir: &Path) -> std::io::Result<ProfileDoc> {
    read_json(&dir.join(PROFILE_FILE_NAME), "profile")
}

/// Converts a profiler snapshot into collapsed flamegraph stacks: one
/// stack per scope with nonzero wall-clock self-time, frames split on the
/// scope path's `/` separators, weights in nanoseconds.
pub fn profile_folded_stacks(snapshot: &ProfileSnapshot) -> Vec<FoldedStack> {
    snapshot
        .collapsed()
        .into_iter()
        .map(|(path, self_ns)| FoldedStack {
            frames: path.split('/').map(str::to_string).collect(),
            weight: self_ns,
        })
        .collect()
}

/// Writes collapsed flamegraph stacks named [`PROFILE_FOLDED_FILE_NAME`]
/// inside `dir` (created if missing) — the `frame;frame weight` text
/// format `flamegraph.pl` and speedscope load directly. Weights are wall
/// clock, so (unlike `profile.json`) the bytes vary run to run. Returns
/// the path written.
pub fn write_profile_folded(dir: &Path, stacks: &[FoldedStack]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(PROFILE_FOLDED_FILE_NAME);
    std::fs::write(&path, render_folded(stacks))?;
    Ok(path)
}

/// Reads the collapsed stacks back from `dir`, with the same descriptive
/// error contract as [`read_run_manifest`].
pub fn read_profile_folded(dir: &Path) -> std::io::Result<Vec<FoldedStack>> {
    let path = dir.join(PROFILE_FOLDED_FILE_NAME);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        std::io::Error::new(
            e.kind(),
            format!("cannot read folded profile {}: {e}", path.display()),
        )
    })?;
    parse_folded(&text).map_err(|e| {
        std::io::Error::new(
            ErrorKind::InvalidData,
            format!("corrupt folded profile {}: {e}", path.display()),
        )
    })
}

/// Writes Chrome trace events as a JSON array named
/// [`CHROME_TRACE_FILE_NAME`] inside `dir` (created if missing) — the
/// array-of-events trace-event form Perfetto and `chrome://tracing` load
/// directly. Returns the path written.
pub fn write_chrome_trace(dir: &Path, events: &[ChromeEvent]) -> std::io::Result<PathBuf> {
    write_json(dir, CHROME_TRACE_FILE_NAME, events)
}

/// Reads the Chrome trace events back from `dir`, with the same
/// descriptive error contract as [`read_run_manifest`].
pub fn read_chrome_trace(dir: &Path) -> std::io::Result<Vec<ChromeEvent>> {
    read_json(&dir.join(CHROME_TRACE_FILE_NAME), "chrome trace")
}

/// Writes a [`FlightRecording`]'s artifacts into `dir` (created if
/// missing): the [`AnomalyIndex`] as pretty-printed JSON named
/// [`ANOMALY_INDEX_FILE_NAME`], and the binary trace store named
/// [`TRACE_STORE_FILE_NAME`]. Returns `(index_path, store_path)`.
pub fn write_flight_recording(
    dir: &Path,
    recording: &FlightRecording,
) -> std::io::Result<(PathBuf, PathBuf)> {
    let index_path = write_json(dir, ANOMALY_INDEX_FILE_NAME, &recording.index())?;
    let store_path = dir.join(TRACE_STORE_FILE_NAME);
    std::fs::write(&store_path, recording.trace_store())?;
    Ok((index_path, store_path))
}

/// Reads the [`AnomalyIndex`] back from `dir`, with the same descriptive
/// error contract as [`read_run_manifest`].
pub fn read_anomaly_index(dir: &Path) -> std::io::Result<AnomalyIndex> {
    read_json(&dir.join(ANOMALY_INDEX_FILE_NAME), "anomaly index")
}

/// Loads and decodes one retained trace from `dir`'s trace store, using
/// the slot's offset/length from the anomaly index.
pub fn read_flagged_trace(dir: &Path, slot: &TraceSlot) -> std::io::Result<TraceLog> {
    let path = dir.join(TRACE_STORE_FILE_NAME);
    let store = std::fs::read(&path).map_err(|e| {
        std::io::Error::new(
            e.kind(),
            format!("cannot read trace store {}: {e}", path.display()),
        )
    })?;
    if store.len() < TRACE_STORE_HEADER_LEN
        || &store[..4] != TRACE_STORE_MAGIC
        || store[4] != TRACE_STORE_VERSION
    {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("corrupt trace store {}: bad header", path.display()),
        ));
    }
    let lo = usize::try_from(slot.offset).unwrap_or(usize::MAX);
    let hi = lo.saturating_add(usize::try_from(slot.len).unwrap_or(usize::MAX));
    let bytes = store.get(lo..hi).ok_or_else(|| {
        std::io::Error::new(
            ErrorKind::InvalidData,
            format!(
                "trace slot for probe {} out of bounds in {}",
                slot.probe,
                path.display()
            ),
        )
    })?;
    decode_trace(bytes).map_err(|e| {
        std::io::Error::new(
            ErrorKind::InvalidData,
            format!(
                "corrupt trace for probe {} in {}: {e:?}",
                slot.probe,
                path.display()
            ),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, Scanner};
    use crate::probe::NetworkConditions;
    use quicspin_qlog::decode_trace;
    use quicspin_webpop::{Population, PopulationConfig};

    fn campaign_with_qlogs() -> Campaign {
        let pop = Population::generate(PopulationConfig {
            seed: 31,
            toplist_domains: 50,
            zone_domains: 800,
        });
        Scanner::new(&pop).run_campaign(&CampaignConfig {
            conditions: NetworkConditions::clean(),
            keep_qlogs: true,
            ..CampaignConfig::default()
        })
    }

    #[test]
    fn qlogs_retained_and_exported() {
        let campaign = campaign_with_qlogs();
        let established = campaign.established().count();
        assert!(established > 0);
        let file = export_qlogs(&campaign);
        assert_eq!(file.traces.len(), established);
        for trace in &file.traces {
            assert_eq!(trace.vantage_point, "client");
            assert!(trace.title.starts_with("www."), "title {:?}", trace.title);
            assert!(trace.handshake_completed());
        }
    }

    #[test]
    fn default_campaign_retains_nothing() {
        let pop = Population::generate(PopulationConfig::tiny(32));
        let campaign = Scanner::new(&pop).run_campaign(&CampaignConfig {
            conditions: NetworkConditions::clean(),
            ..CampaignConfig::default()
        });
        assert!(campaign.records.iter().all(|r| r.qlog.is_none()));
        assert!(export_qlogs(&campaign).traces.is_empty());
    }

    #[test]
    fn stripping_preserves_spin_observations() {
        let campaign = campaign_with_qlogs();
        let trace = campaign
            .records
            .iter()
            .find_map(|r| r.qlog.as_ref())
            .expect("a retained trace");
        let stripped = strip_for_release(trace);
        assert_eq!(
            stripped.spin_observations(),
            trace.spin_observations(),
            "the §3.3 extraction survives stripping"
        );
        assert_eq!(stripped.rtt_samples_us(), trace.rtt_samples_us());
        assert!(stripped.len() <= trace.len());
        assert!(!stripped.handshake_completed(), "lifecycle events stripped");
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("quicspin-artifacts-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn profile_roundtrips_and_errors_are_descriptive() {
        use quicspin_telemetry::{Metric, ProfilerRegistry, ScopeId};
        let reg = ProfilerRegistry::new();
        let mut shard = reg.shard();
        let p = shard.begin();
        shard.add(Metric::PacketsSent, 12);
        shard.add(Metric::NetsimQueuePushes, 7);
        shard.end(ScopeId::Probe, p);
        reg.absorb(&shard);
        let snapshot = reg.snapshot();

        let dir = temp_dir("profile");
        let doc = snapshot.doc();
        write_profile(&dir, &doc).unwrap();
        assert_eq!(read_profile(&dir).unwrap(), doc);

        let stacks = profile_folded_stacks(&snapshot);
        assert!(stacks.iter().any(|s| s.frames == ["probe"]));
        write_profile_folded(&dir, &stacks).unwrap();
        assert_eq!(read_profile_folded(&dir).unwrap(), stacks);

        let missing = temp_dir("profile-missing");
        let err = read_profile(&missing).unwrap_err();
        assert!(err.to_string().contains("cannot read profile"), "{err}");
        std::fs::create_dir_all(&missing).unwrap();
        std::fs::write(missing.join(PROFILE_FILE_NAME), "{not json").unwrap();
        let err = read_profile(&missing).unwrap_err();
        assert!(err.to_string().contains("corrupt profile"), "{err}");
        std::fs::write(missing.join(PROFILE_FOLDED_FILE_NAME), "probe x").unwrap();
        let err = read_profile_folded(&missing).unwrap_err();
        assert!(err.to_string().contains("corrupt folded profile"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&missing);
    }

    #[test]
    fn binary_export_roundtrips_and_shrinks() {
        let campaign = campaign_with_qlogs();
        let blobs = export_binary_stripped(&campaign);
        assert_eq!(blobs.len(), campaign.established().count());
        let originals: Vec<&TraceLog> = campaign
            .records
            .iter()
            .filter_map(|r| r.qlog.as_ref())
            .collect();
        for (blob, original) in blobs.iter().zip(originals) {
            let decoded = decode_trace(blob).unwrap();
            assert_eq!(decoded.spin_observations(), original.spin_observations());
            let json_len = serde_json::to_string(original).unwrap().len();
            assert!(
                blob.len() * 3 < json_len,
                "binary {} vs json {json_len}",
                blob.len()
            );
        }
    }
}
