//! Chrome trace-event export.
//!
//! Renders a connection trace into the Chrome trace-event JSON format
//! (the array-of-events form), loadable in Perfetto or `chrome://tracing`.
//! Stage spans (handshake, transfer) become complete (`ph: "X"`) events,
//! spin edges and loss become instant (`ph: "i"`) marks, and RTT estimator
//! updates become counter (`ph: "C"`) samples, so the per-connection
//! timeline the paper's §3.3 diagnosis works from can be inspected in a
//! standard trace viewer. Timestamps are virtual microseconds — the
//! trace-event `ts` unit — so the export is deterministic.
//!
//! The scanner extends this per-connection export with flight-recorder
//! anomaly marks and writes the merged array as `trace.json` next to the
//! other campaign artifacts.

use crate::events::EventData;
use crate::render::SpinEdges;
use crate::trace::TraceLog;
use serde::{Deserialize, Serialize};

/// Typed `args` payload of a [`ChromeEvent`] (the vendored serde_json has
/// no dynamic value type, so the keys are a fixed union).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChromeArgs {
    /// Packet number, for packet marks.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub packet_number: Option<u64>,
    /// Spin bit on the wire, for spin-edge marks.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub spin: Option<bool>,
    /// Latest RTT sample, for `rtt_us` counter events.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rtt_us: Option<u64>,
    /// Anomaly severity, for flight-recorder marks.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub severity: Option<u64>,
    /// Free-form detail line.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub detail: Option<String>,
}

impl ChromeArgs {
    fn is_empty(args: &Option<ChromeArgs>) -> bool {
        args.is_none()
    }
}

/// One Chrome trace event. Serializes to the standard field names
/// (`name`, `ph`, `ts`, `dur`, `pid`, `tid`, `cat`, `s`, `args`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChromeEvent {
    /// Event name shown in the viewer.
    pub name: String,
    /// Phase: `"X"` complete span, `"i"` instant, `"C"` counter.
    pub ph: String,
    /// Timestamp, microseconds (virtual time).
    pub ts: u64,
    /// Span duration, microseconds (`X` events only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub dur: Option<u64>,
    /// Process row — the scanner maps domain ids here.
    pub pid: u32,
    /// Thread row — the scanner maps redirect hops here.
    pub tid: u32,
    /// Event category (filterable in the viewer).
    pub cat: String,
    /// Instant-event scope (`"t"` = thread), required by the viewer.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub s: Option<String>,
    /// Typed argument payload.
    #[serde(default, skip_serializing_if = "ChromeArgs::is_empty")]
    pub args: Option<ChromeArgs>,
}

impl ChromeEvent {
    /// A complete (`ph: "X"`) span.
    pub fn span(name: &str, ts: u64, dur: u64, pid: u32, tid: u32, cat: &str) -> Self {
        ChromeEvent {
            name: name.to_string(),
            ph: "X".to_string(),
            ts,
            dur: Some(dur),
            pid,
            tid,
            cat: cat.to_string(),
            s: None,
            args: None,
        }
    }

    /// A thread-scoped instant (`ph: "i"`) mark.
    pub fn instant(name: &str, ts: u64, pid: u32, tid: u32, cat: &str) -> Self {
        ChromeEvent {
            name: name.to_string(),
            ph: "i".to_string(),
            ts,
            dur: None,
            pid,
            tid,
            cat: cat.to_string(),
            s: Some("t".to_string()),
            args: None,
        }
    }

    /// A counter (`ph: "C"`) sample.
    pub fn counter(name: &str, ts: u64, pid: u32, tid: u32, cat: &str, args: ChromeArgs) -> Self {
        ChromeEvent {
            name: name.to_string(),
            ph: "C".to_string(),
            ts,
            dur: None,
            pid,
            tid,
            cat: cat.to_string(),
            s: None,
            args: Some(args),
        }
    }

    /// Attaches an argument payload.
    pub fn with_args(mut self, args: ChromeArgs) -> Self {
        self.args = Some(args);
        self
    }
}

/// Renders one connection trace as Chrome trace events on the given
/// process/thread rows: handshake and transfer stage spans, spin-edge and
/// packet-loss instants, and an `rtt_us` counter series.
pub fn chrome_trace_events(trace: &TraceLog, pid: u32, tid: u32) -> Vec<ChromeEvent> {
    let mut events = Vec::new();
    let total_us = trace.duration_us();
    match trace.handshake_time_us() {
        Some(hs) => {
            events.push(ChromeEvent::span("handshake", 0, hs, pid, tid, "stage"));
            if total_us > hs {
                events.push(ChromeEvent::span(
                    "transfer",
                    hs,
                    total_us - hs,
                    pid,
                    tid,
                    "stage",
                ));
            }
        }
        None => {
            // Handshake never completed: the whole lifetime is one span so
            // the failure still shows up on the timeline.
            events.push(ChromeEvent::span(
                "handshake-failed",
                0,
                total_us,
                pid,
                tid,
                "stage",
            ));
        }
    }
    let mut edges = SpinEdges::default();
    for e in &trace.events {
        match e.data {
            EventData::PacketReceived {
                space,
                packet_number,
                spin,
                ..
            } if edges.received(space, spin) => events.push(
                ChromeEvent::instant("spin-edge", e.time_us, pid, tid, "spin").with_args(
                    ChromeArgs {
                        packet_number: Some(packet_number),
                        spin,
                        ..ChromeArgs::default()
                    },
                ),
            ),
            EventData::PacketLost { packet_number, .. } => events.push(
                ChromeEvent::instant("packet-lost", e.time_us, pid, tid, "loss").with_args(
                    ChromeArgs {
                        packet_number: Some(packet_number),
                        ..ChromeArgs::default()
                    },
                ),
            ),
            _ => {}
        }
    }
    for e in &trace.events {
        if let EventData::RttUpdated { latest_us, .. } = e.data {
            events.push(ChromeEvent::counter(
                "rtt_us",
                e.time_us,
                pid,
                tid,
                "rtt",
                ChromeArgs {
                    rtt_us: Some(latest_us),
                    ..ChromeArgs::default()
                },
            ));
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EventData, PacketSpace};

    fn sample_trace() -> TraceLog {
        let mut t = TraceLog::new("client");
        t.title = "www.example.com".into();
        t.push(
            0,
            EventData::PacketSent {
                space: PacketSpace::Initial,
                packet_number: 0,
                spin: None,
                size: 1200,
                ack_eliciting: true,
            },
        );
        t.push(40_000, EventData::HandshakeCompleted);
        t.push(
            41_000,
            EventData::PacketReceived {
                space: PacketSpace::Application,
                packet_number: 1,
                spin: Some(false),
                size: 64,
            },
        );
        t.push(
            81_000,
            EventData::PacketReceived {
                space: PacketSpace::Application,
                packet_number: 2,
                spin: Some(true),
                size: 64,
            },
        );
        t.push(
            81_500,
            EventData::RttUpdated {
                latest_us: 40_000,
                smoothed_us: 40_100,
                min_us: 40_000,
                ack_delay_us: 25,
            },
        );
        t.push(
            90_000,
            EventData::PacketLost {
                space: PacketSpace::Application,
                packet_number: 3,
            },
        );
        t.push(
            100_000,
            EventData::ConnectionClosed {
                reason: "done".into(),
            },
        );
        t
    }

    #[test]
    fn export_contains_stage_spans_and_marks() {
        let events = chrome_trace_events(&sample_trace(), 7, 0);
        let by_name = |n: &str| events.iter().filter(|e| e.name == n).count();
        assert_eq!(by_name("handshake"), 1);
        assert_eq!(by_name("transfer"), 1);
        assert_eq!(by_name("spin-edge"), 1);
        assert_eq!(by_name("packet-lost"), 1);
        assert_eq!(by_name("rtt_us"), 1);

        let hs = events.iter().find(|e| e.name == "handshake").unwrap();
        assert_eq!((hs.ph.as_str(), hs.ts, hs.dur), ("X", 0, Some(40_000)));
        let tx = events.iter().find(|e| e.name == "transfer").unwrap();
        assert_eq!((tx.ts, tx.dur), (40_000, Some(60_000)));
        let edge = events.iter().find(|e| e.name == "spin-edge").unwrap();
        assert_eq!(edge.ph, "i");
        assert_eq!(edge.s.as_deref(), Some("t"));
        let args = edge.args.as_ref().unwrap();
        assert_eq!(args.packet_number, Some(2));
        assert_eq!(args.spin, Some(true));
        assert!(events.iter().all(|e| e.pid == 7 && e.tid == 0));
    }

    #[test]
    fn failed_handshake_exports_single_failure_span() {
        let mut t = TraceLog::new("client");
        t.push(
            0,
            EventData::PacketSent {
                space: PacketSpace::Initial,
                packet_number: 0,
                spin: None,
                size: 1200,
                ack_eliciting: true,
            },
        );
        t.push(
            300_000,
            EventData::ConnectionClosed {
                reason: "timeout".into(),
            },
        );
        let events = chrome_trace_events(&t, 1, 0);
        let fail = events
            .iter()
            .find(|e| e.name == "handshake-failed")
            .unwrap();
        assert_eq!((fail.ts, fail.dur), (0, Some(300_000)));
        assert!(!events.iter().any(|e| e.name == "transfer"));
    }

    #[test]
    fn events_round_trip_as_json_array() {
        let events = chrome_trace_events(&sample_trace(), 3, 1);
        let json = serde_json::to_string(&events).unwrap();
        // Array-of-events form: the whole document is one JSON array.
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        let back: Vec<ChromeEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, events);
        // Empty args are omitted entirely, not serialized as null.
        assert!(!json.contains("\"args\":null"));
    }
}
