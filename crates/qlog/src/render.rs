//! Human-readable rendering of one connection's trace.
//!
//! `spinctl trace <probe-id>` prints this timeline for a flagged probe:
//! one row per logged event with the packet number, the spin value on the
//! wire, an edge marker whenever the observed spin value flips, and the
//! RTT estimator updates inline — the per-flow, edge-by-edge view the
//! paper's §3.3/§5 diagnosis works from.

use crate::events::{EventData, PacketSpace};
use crate::trace::TraceLog;

/// One line of the rendered timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineRow {
    /// Event time, µs since connection start (virtual time).
    pub time_us: u64,
    /// Short event tag: `TX`, `RX`, `RTT`, `HS`, `LOST`, or `CLOSE`.
    pub kind: &'static str,
    /// Packet-number space, for packet events.
    pub space: Option<PacketSpace>,
    /// Packet number, for packet events.
    pub packet_number: Option<u64>,
    /// Spin bit on the wire (`None` for long headers and non-packet rows).
    pub spin: Option<bool>,
    /// Whether this received 1-RTT packet flipped the observed spin value.
    pub edge: bool,
    /// Free-form detail column (sizes, RTT values, close reason).
    pub note: String,
}

impl TimelineRow {
    /// If this row is a received 1-RTT packet with a spin value, returns
    /// `(time_us, packet_number, spin)` — the same triple
    /// [`TraceLog::spin_observations`] extracts, so a timeline built from
    /// a decoded trace can be checked against the in-memory original.
    pub fn spin_observation(&self) -> Option<(u64, u64, bool)> {
        if self.kind != "RX" || self.space != Some(PacketSpace::Application) {
            return None;
        }
        match (self.packet_number, self.spin) {
            (Some(pn), Some(spin)) => Some((self.time_us, pn, spin)),
            _ => None,
        }
    }
}

/// The spin-edge rule of the timeline and the Chrome export: a received
/// 1-RTT packet is an edge when its spin value differs from the
/// previously observed one (the first observation is not an edge).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SpinEdges {
    last: Option<bool>,
}

impl SpinEdges {
    /// Feeds one received packet; returns whether it flipped the spin.
    pub(crate) fn received(&mut self, space: PacketSpace, spin: Option<bool>) -> bool {
        let (true, Some(spin)) = (space.has_spin(), spin) else {
            return false;
        };
        let edge = self.last.is_some_and(|prev| prev != spin);
        self.last = Some(spin);
        edge
    }
}

/// Builds the timeline rows for a trace, in emission order. Edge markers
/// are set on received 1-RTT packets whose spin value differs from the
/// previously observed one (the first observation is not an edge).
pub fn timeline(trace: &TraceLog) -> Vec<TimelineRow> {
    let mut edges = SpinEdges::default();
    let mut rows = Vec::with_capacity(trace.len());
    for e in &trace.events {
        let row = match &e.data {
            EventData::PacketSent {
                space,
                packet_number,
                spin,
                size,
                ack_eliciting,
            } => TimelineRow {
                time_us: e.time_us,
                kind: "TX",
                space: Some(*space),
                packet_number: Some(*packet_number),
                spin: *spin,
                edge: false,
                note: format!(
                    "{size} B{}",
                    if *ack_eliciting {
                        ""
                    } else {
                        ", not ack-eliciting"
                    }
                ),
            },
            EventData::PacketReceived {
                space,
                packet_number,
                spin,
                size,
            } => TimelineRow {
                time_us: e.time_us,
                kind: "RX",
                space: Some(*space),
                packet_number: Some(*packet_number),
                spin: *spin,
                edge: edges.received(*space, *spin),
                note: format!("{size} B"),
            },
            EventData::RttUpdated {
                latest_us,
                smoothed_us,
                min_us,
                ack_delay_us,
            } => TimelineRow {
                time_us: e.time_us,
                kind: "RTT",
                space: None,
                packet_number: None,
                spin: None,
                edge: false,
                note: format!(
                    "latest {:.1} ms, smoothed {:.1} ms, min {:.1} ms, ack-delay {} µs",
                    *latest_us as f64 / 1000.0,
                    *smoothed_us as f64 / 1000.0,
                    *min_us as f64 / 1000.0,
                    ack_delay_us
                ),
            },
            EventData::HandshakeCompleted => TimelineRow {
                time_us: e.time_us,
                kind: "HS",
                space: None,
                packet_number: None,
                spin: None,
                edge: false,
                note: "handshake completed".to_string(),
            },
            EventData::ConnectionClosed { reason } => TimelineRow {
                time_us: e.time_us,
                kind: "CLOSE",
                space: None,
                packet_number: None,
                spin: None,
                edge: false,
                note: reason.clone(),
            },
            EventData::PacketLost {
                space,
                packet_number,
            } => TimelineRow {
                time_us: e.time_us,
                kind: "LOST",
                space: Some(*space),
                packet_number: Some(*packet_number),
                spin: None,
                edge: false,
                note: "declared lost".to_string(),
            },
        };
        rows.push(row);
    }
    rows
}

fn space_tag(space: Option<PacketSpace>) -> &'static str {
    match space {
        Some(PacketSpace::Initial) => "init",
        Some(PacketSpace::Handshake) => "hs",
        Some(PacketSpace::Application) => "1rtt",
        None => "-",
    }
}

fn spin_tag(spin: Option<bool>) -> &'static str {
    match spin {
        Some(true) => "1",
        Some(false) => "0",
        None => "-",
    }
}

/// Renders the full per-connection timeline as fixed-width text.
pub fn render_timeline(trace: &TraceLog) -> String {
    let rows = timeline(trace);
    let title = if trace.title.is_empty() {
        "<untitled>"
    } else {
        &trace.title
    };
    let mut out = String::new();
    out.push_str(&format!(
        "trace {title} ({}) -- {} events, {} spin observations\n",
        trace.vantage_point,
        trace.len(),
        trace.spin_observations().len()
    ));
    out.push_str(&format!(
        "{:>12}  {:<5} {:<4} {:>8} {:>4}  {}\n",
        "time", "event", "spc", "pn", "spin", "detail"
    ));
    for r in &rows {
        let pn = r
            .packet_number
            .map_or_else(|| "-".to_string(), |pn| pn.to_string());
        out.push_str(&format!(
            "{:>10.3}ms  {:<5} {:<4} {:>8} {:>4}  {}{}\n",
            r.time_us as f64 / 1000.0,
            r.kind,
            space_tag(r.space),
            pn,
            spin_tag(r.spin),
            r.note,
            if r.edge { "   <-- spin edge" } else { "" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn rows_cover_every_event() {
        let t = sample_trace();
        let rows = timeline(&t);
        assert_eq!(rows.len(), t.len());
        assert_eq!(rows[0].kind, "TX");
        assert_eq!(rows[1].kind, "HS");
        assert_eq!(rows[2].kind, "RX");
        assert_eq!(rows[5].kind, "LOST");
        assert_eq!(rows[6].kind, "CLOSE");
    }

    #[test]
    fn edges_marked_on_spin_flips_only() {
        let rows = timeline(&sample_trace());
        // First observation (pn 1) is not an edge; the flip at pn 2 is.
        assert!(!rows[2].edge);
        assert!(rows[3].edge);
        assert!(rows.iter().filter(|r| r.edge).count() == 1);
    }

    #[test]
    fn spin_observations_match_trace_extraction() {
        let t = sample_trace();
        let from_rows: Vec<(u64, u64, bool)> = timeline(&t)
            .iter()
            .filter_map(TimelineRow::spin_observation)
            .collect();
        assert_eq!(from_rows, t.spin_observations());
    }

    #[test]
    fn rendered_text_has_header_and_edge_marker() {
        let text = render_timeline(&sample_trace());
        assert!(text.contains("www.example.com"));
        assert!(text.contains("<-- spin edge"));
        assert!(text.contains("handshake completed"));
        assert!(text.contains("latest 40.0 ms"));
        // One line per event plus the two header lines.
        assert_eq!(text.lines().count(), 2 + sample_trace().len());
    }

    #[test]
    fn untitled_trace_renders() {
        let mut t = TraceLog::new("client");
        t.push(5, EventData::HandshakeCompleted);
        assert!(render_timeline(&t).contains("<untitled>"));
    }
}
