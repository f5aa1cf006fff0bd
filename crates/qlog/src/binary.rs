//! Compact binary serialization of trace logs.
//!
//! The paper stores millions of qlog files; JSON at that volume is
//! painful (their artifact release notes stripping fields to limit file
//! size). This module provides a compact, versioned binary encoding of
//! [`TraceLog`]s — roughly 10× smaller than the JSON form — with a
//! strict, fuzz-tested reader.
//!
//! Layout (all integers little-endian, varint = LEB128):
//!
//! ```text
//! magic "QSPN" | u8 version | varint vantage_len | vantage bytes
//! varint title_len | title bytes | varint event_count | events...
//! event: varint time_us | u8 tag | tag-specific fields
//! ```

use crate::events::{EventData, LoggedEvent, PacketSpace};
use crate::trace::TraceLog;

const MAGIC: &[u8; 4] = b"QSPN";
const VERSION: u8 = 1;
/// The smallest encoded event: a one-byte time varint and a tag with no
/// fields (`HandshakeCompleted`).
const MIN_EVENT_BYTES: usize = 2;

/// Errors produced by the binary reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinaryError {
    /// Missing or wrong magic/version.
    BadHeader,
    /// Input ended early.
    Truncated,
    /// An unknown event tag.
    UnknownTag(u8),
    /// A varint ran past 10 bytes.
    BadVarint,
    /// A string was not UTF-8.
    BadString,
}

impl core::fmt::Display for BinaryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BinaryError::BadHeader => f.write_str("bad magic or version"),
            BinaryError::Truncated => f.write_str("truncated input"),
            BinaryError::UnknownTag(t) => write!(f, "unknown event tag {t}"),
            BinaryError::BadVarint => f.write_str("malformed varint"),
            BinaryError::BadString => f.write_str("invalid UTF-8 string"),
        }
    }
}

impl std::error::Error for BinaryError {}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(buf: &[u8], at: &mut usize) -> Result<u64, BinaryError> {
    let mut value = 0u64;
    for shift in 0..10 {
        let byte = *buf.get(*at).ok_or(BinaryError::Truncated)?;
        *at += 1;
        value |= u64::from(byte & 0x7f) << (7 * shift);
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(BinaryError::BadVarint)
}

fn push_string(out: &mut Vec<u8>, s: &str) {
    push_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_string(buf: &[u8], at: &mut usize) -> Result<String, BinaryError> {
    let len = read_varint(buf, at)? as usize;
    // The length is input-controlled: a huge one must not overflow `at`.
    let end = at.checked_add(len).ok_or(BinaryError::Truncated)?;
    let bytes = buf.get(*at..end).ok_or(BinaryError::Truncated)?;
    *at = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| BinaryError::BadString)
}

fn space_tag(space: PacketSpace) -> u8 {
    match space {
        PacketSpace::Initial => 0,
        PacketSpace::Handshake => 1,
        PacketSpace::Application => 2,
    }
}

fn space_from_tag(tag: u8) -> Result<PacketSpace, BinaryError> {
    match tag {
        0 => Ok(PacketSpace::Initial),
        1 => Ok(PacketSpace::Handshake),
        2 => Ok(PacketSpace::Application),
        other => Err(BinaryError::UnknownTag(other)),
    }
}

/// `spin: Option<bool>` packed into one byte.
fn spin_tag(spin: Option<bool>) -> u8 {
    match spin {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    }
}

fn spin_from_tag(tag: u8) -> Result<Option<bool>, BinaryError> {
    match tag {
        0 => Ok(None),
        1 => Ok(Some(false)),
        2 => Ok(Some(true)),
        other => Err(BinaryError::UnknownTag(other)),
    }
}

/// Serializes a trace into the compact binary format.
pub fn encode_trace(trace: &TraceLog) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + trace.events.len() * 8);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    push_string(&mut out, &trace.vantage_point);
    push_string(&mut out, &trace.title);
    push_varint(&mut out, trace.events.len() as u64);
    for event in &trace.events {
        push_varint(&mut out, event.time_us);
        match &event.data {
            EventData::PacketSent {
                space,
                packet_number,
                spin,
                size,
                ack_eliciting,
            } => {
                out.push(0);
                out.push(space_tag(*space));
                push_varint(&mut out, *packet_number);
                out.push(spin_tag(*spin));
                push_varint(&mut out, *size as u64);
                out.push(u8::from(*ack_eliciting));
            }
            EventData::PacketReceived {
                space,
                packet_number,
                spin,
                size,
            } => {
                out.push(1);
                out.push(space_tag(*space));
                push_varint(&mut out, *packet_number);
                out.push(spin_tag(*spin));
                push_varint(&mut out, *size as u64);
            }
            EventData::RttUpdated {
                latest_us,
                smoothed_us,
                min_us,
                ack_delay_us,
            } => {
                out.push(2);
                push_varint(&mut out, *latest_us);
                push_varint(&mut out, *smoothed_us);
                push_varint(&mut out, *min_us);
                push_varint(&mut out, *ack_delay_us);
            }
            EventData::HandshakeCompleted => out.push(3),
            EventData::ConnectionClosed { reason } => {
                out.push(4);
                push_string(&mut out, reason);
            }
            EventData::PacketLost {
                space,
                packet_number,
            } => {
                out.push(5);
                out.push(space_tag(*space));
                push_varint(&mut out, *packet_number);
            }
        }
    }
    out
}

fn read_u8(buf: &[u8], at: &mut usize) -> Result<u8, BinaryError> {
    let byte = *buf.get(*at).ok_or(BinaryError::Truncated)?;
    *at += 1;
    Ok(byte)
}

/// Parses a compact binary trace.
pub fn decode_trace(bytes: &[u8]) -> Result<TraceLog, BinaryError> {
    if bytes.len() < 5 || &bytes[..4] != MAGIC || bytes[4] != VERSION {
        return Err(BinaryError::BadHeader);
    }
    let mut at = 5;
    let vantage_point = read_string(bytes, &mut at)?;
    let title = read_string(bytes, &mut at)?;
    let count = read_varint(bytes, &mut at)? as usize;
    // The count is input-controlled: reserve no more events than the
    // remaining bytes could encode.
    let mut events = Vec::with_capacity(count.min((bytes.len() - at) / MIN_EVENT_BYTES));
    for _ in 0..count {
        let time_us = read_varint(bytes, &mut at)?;
        let tag = read_u8(bytes, &mut at)?;
        let data = match tag {
            0 => EventData::PacketSent {
                space: space_from_tag(read_u8(bytes, &mut at)?)?,
                packet_number: read_varint(bytes, &mut at)?,
                spin: spin_from_tag(read_u8(bytes, &mut at)?)?,
                size: read_varint(bytes, &mut at)? as usize,
                ack_eliciting: read_u8(bytes, &mut at)? != 0,
            },
            1 => EventData::PacketReceived {
                space: space_from_tag(read_u8(bytes, &mut at)?)?,
                packet_number: read_varint(bytes, &mut at)?,
                spin: spin_from_tag(read_u8(bytes, &mut at)?)?,
                size: read_varint(bytes, &mut at)? as usize,
            },
            2 => EventData::RttUpdated {
                latest_us: read_varint(bytes, &mut at)?,
                smoothed_us: read_varint(bytes, &mut at)?,
                min_us: read_varint(bytes, &mut at)?,
                ack_delay_us: read_varint(bytes, &mut at)?,
            },
            3 => EventData::HandshakeCompleted,
            4 => EventData::ConnectionClosed {
                reason: read_string(bytes, &mut at)?,
            },
            5 => EventData::PacketLost {
                space: space_from_tag(read_u8(bytes, &mut at)?)?,
                packet_number: read_varint(bytes, &mut at)?,
            },
            other => return Err(BinaryError::UnknownTag(other)),
        };
        events.push(LoggedEvent { time_us, data });
    }
    Ok(TraceLog {
        vantage_point,
        title,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> TraceLog {
        let mut trace = TraceLog::new("client");
        trace.title = "www.domain-7.com".into();
        trace.push(
            0,
            EventData::PacketSent {
                space: PacketSpace::Initial,
                packet_number: 0,
                spin: None,
                size: 1200,
                ack_eliciting: true,
            },
        );
        trace.push(
            40_123,
            EventData::PacketReceived {
                space: PacketSpace::Application,
                packet_number: 3,
                spin: Some(true),
                size: 1221,
            },
        );
        trace.push(
            40_124,
            EventData::RttUpdated {
                latest_us: 40_000,
                smoothed_us: 40_500,
                min_us: 39_900,
                ack_delay_us: 60,
            },
        );
        trace.push(40_125, EventData::HandshakeCompleted);
        trace.push(
            99_000,
            EventData::PacketLost {
                space: PacketSpace::Handshake,
                packet_number: 1,
            },
        );
        trace.push(
            100_000,
            EventData::ConnectionClosed {
                reason: "request complete".into(),
            },
        );
        trace
    }

    #[test]
    fn roundtrip() {
        let trace = sample_trace();
        let bytes = encode_trace(&trace);
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let trace = sample_trace();
        let binary = encode_trace(&trace).len();
        let json = serde_json::to_string(&trace).unwrap().len();
        assert!(
            binary * 4 < json,
            "binary {binary} bytes vs JSON {json} bytes"
        );
    }

    #[test]
    fn bad_header_rejected() {
        assert_eq!(decode_trace(b"NOPE"), Err(BinaryError::BadHeader));
        assert_eq!(decode_trace(b"QSPN\x02"), Err(BinaryError::BadHeader));
        assert_eq!(decode_trace(&[]), Err(BinaryError::BadHeader));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = encode_trace(&sample_trace());
        for cut in 5..bytes.len() {
            // Every strict prefix must fail cleanly (never panic).
            assert!(
                decode_trace(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly parsed"
            );
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let fresh = {
            let mut t = TraceLog::new("x");
            t.push(1, EventData::HandshakeCompleted);
            t
        };
        let mut bytes = encode_trace(&fresh);
        let last = bytes.len() - 1;
        bytes[last] = 99; // replace the HandshakeCompleted tag
        assert_eq!(decode_trace(&bytes), Err(BinaryError::UnknownTag(99)));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = TraceLog::new("server");
        assert_eq!(decode_trace(&encode_trace(&trace)).unwrap(), trace);
    }

    proptest::proptest! {
        #[test]
        fn prop_decode_never_panics_on_garbage(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200)
        ) {
            let _ = decode_trace(&bytes);
        }

        #[test]
        fn prop_roundtrip_random_events(
            times in proptest::collection::vec(0u64..1_000_000, 0..40),
        ) {
            let mut trace = TraceLog::new("client");
            for (i, &t) in times.iter().enumerate() {
                let data = match i % 4 {
                    0 => EventData::PacketReceived {
                        space: PacketSpace::Application,
                        packet_number: i as u64,
                        spin: Some(i % 2 == 0),
                        size: 64 + i,
                    },
                    1 => EventData::HandshakeCompleted,
                    2 => EventData::RttUpdated {
                        latest_us: t,
                        smoothed_us: t,
                        min_us: t,
                        ack_delay_us: 0,
                    },
                    _ => EventData::PacketLost {
                        space: PacketSpace::Initial,
                        packet_number: i as u64,
                    },
                };
                trace.push(t, data);
            }
            let back = decode_trace(&encode_trace(&trace)).unwrap();
            proptest::prop_assert_eq!(back, trace);
        }
    }
}
