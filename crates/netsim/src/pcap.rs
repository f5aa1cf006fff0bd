//! libpcap-format capture of tap records.
//!
//! Real spin-bit observers consume packet captures; this module writes the
//! simulator's tap records as a classic pcap file (the format smoltcp's
//! examples dump and Wireshark reads) and reads them back, so analysis
//! tooling can be exercised against byte-identical artefacts of a run.
//!
//! Encapsulation: `LINKTYPE_USER0` (147) with a one-byte direction
//! prefix (0 = client→server, 1 = server→client) followed by the
//! datagram — the simulator has no Ethernet/IP framing, and inventing
//! fake headers would only obscure the payload under test.
//!
//! A tap keeps only a [`TAP_SNAP_LEN`]-byte snap of each datagram, so a
//! capture is snapped the way `tcpdump -s` snaps one: the global snaplen
//! is the snap plus the direction byte, each record's captured length is
//! its snap plus one, and its original length is the datagram's length
//! plus one. [`read_pcap`] reads foreign captures with longer snaps too,
//! keeping at most [`TAP_SNAP_LEN`] bytes of each record.
//!
//! The tap's vantage position (where on the path the capture was taken)
//! rides in the global header's `sigfigs` field, which every real-world
//! writer leaves at 0: [`write_pcap_at`] stores the position in
//! millionths of the path **plus one**, so 0 still means "unset" and a
//! capture taken at the client edge (position 0.0) stays distinguishable.
//! Standard tools ignore the field; [`read_pcap_with_vantage`] recovers
//! it.

use crate::sim::{Side, TapRecord, TAP_SNAP_LEN};
use crate::time::SimTime;

/// pcap magic (microsecond timestamps, native byte order written as LE).
const PCAP_MAGIC: u32 = 0xa1b2_c3d4;
/// DLT_USER0: user-defined link type.
const LINKTYPE_USER0: u32 = 147;

/// Direction prefix byte for client→server packets.
pub const DIR_CLIENT_TO_SERVER: u8 = 0;
/// Direction prefix byte for server→client packets.
pub const DIR_SERVER_TO_CLIENT: u8 = 1;

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serializes tap records into a pcap byte stream (vantage unset).
pub fn write_pcap(records: &[TapRecord]) -> Vec<u8> {
    write_pcap_at(records, None)
}

/// [`write_pcap`], recording where on the path the tap sat. `Some(p)`
/// stores `p` (clamped to `0.0..=1.0`) in the header's `sigfigs` field as
/// millionths + 1; `None` writes a plain capture with the field at 0.
pub fn write_pcap_at(records: &[TapRecord], vantage: Option<f64>) -> Vec<u8> {
    let sigfigs = match vantage {
        Some(p) => (p.clamp(0.0, 1.0) * 1_000_000.0).round() as u32 + 1,
        None => 0,
    };
    let mut out = Vec::with_capacity(24 + records.len() * 32);
    // Global header.
    push_u32(&mut out, PCAP_MAGIC);
    push_u16(&mut out, 2); // version major
    push_u16(&mut out, 4); // version minor
    push_u32(&mut out, 0); // thiszone
    push_u32(&mut out, sigfigs); // vantage (millionths + 1), 0 = unset
    push_u32(&mut out, TAP_SNAP_LEN as u32 + 1); // snaplen
    push_u32(&mut out, LINKTYPE_USER0);
    for record in records {
        let us = record.time.as_micros();
        push_u32(&mut out, (us / 1_000_000) as u32);
        push_u32(&mut out, (us % 1_000_000) as u32);
        let snap = record.snap();
        push_u32(&mut out, snap.len() as u32 + 1); // captured length
        push_u32(&mut out, (record.datagram_len() as u32).saturating_add(1)); // original length
        out.push(match record.from {
            Side::Client => DIR_CLIENT_TO_SERVER,
            Side::Server => DIR_SERVER_TO_CLIENT,
        });
        out.extend_from_slice(snap);
    }
    out
}

/// Errors while parsing a pcap stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcapError {
    /// Too short / wrong magic.
    BadHeader,
    /// A record header or body was truncated.
    Truncated,
    /// The link type is not the one this module writes.
    WrongLinkType(u32),
    /// A packet had a zero-length body (no direction byte).
    EmptyPacket,
    /// A record captured more bytes than its packet had.
    CaptureExceedsPacket,
}

impl core::fmt::Display for PcapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PcapError::BadHeader => f.write_str("bad pcap global header"),
            PcapError::Truncated => f.write_str("truncated pcap record"),
            PcapError::WrongLinkType(lt) => write!(f, "unexpected link type {lt}"),
            PcapError::EmptyPacket => f.write_str("pcap record without direction byte"),
            PcapError::CaptureExceedsPacket => {
                f.write_str("pcap record captured more bytes than its packet had")
            }
        }
    }
}

impl std::error::Error for PcapError {}

fn read_u32(buf: &[u8], at: usize) -> Option<u32> {
    buf.get(at..at + 4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Parses a pcap byte stream produced by [`write_pcap`] back into tap
/// records. Each record keeps at most [`TAP_SNAP_LEN`] bytes and takes
/// the datagram's length from the original-length field.
pub fn read_pcap(bytes: &[u8]) -> Result<Vec<TapRecord>, PcapError> {
    read_pcap_with_vantage(bytes).map(|(records, _)| records)
}

/// [`read_pcap`], additionally recovering the tap's vantage position from
/// the header (see [`write_pcap_at`]); `None` when the capture carries no
/// position (plain [`write_pcap`] output, or a foreign pcap).
pub fn read_pcap_with_vantage(bytes: &[u8]) -> Result<(Vec<TapRecord>, Option<f64>), PcapError> {
    if bytes.len() < 24 || read_u32(bytes, 0) != Some(PCAP_MAGIC) {
        return Err(PcapError::BadHeader);
    }
    let vantage = match read_u32(bytes, 12).ok_or(PcapError::BadHeader)? {
        0 => None,
        encoded => Some(f64::from(encoded - 1) / 1_000_000.0),
    };
    let linktype = read_u32(bytes, 20).ok_or(PcapError::BadHeader)?;
    if linktype != LINKTYPE_USER0 {
        return Err(PcapError::WrongLinkType(linktype));
    }
    let mut records = Vec::new();
    let mut at = 24;
    while at < bytes.len() {
        let secs = read_u32(bytes, at).ok_or(PcapError::Truncated)?;
        let micros = read_u32(bytes, at + 4).ok_or(PcapError::Truncated)?;
        let caplen = read_u32(bytes, at + 8).ok_or(PcapError::Truncated)? as usize;
        let origlen = read_u32(bytes, at + 12).ok_or(PcapError::Truncated)? as usize;
        if caplen > origlen {
            return Err(PcapError::CaptureExceedsPacket);
        }
        at += 16;
        let body = at
            .checked_add(caplen)
            .and_then(|end| bytes.get(at..end))
            .ok_or(PcapError::Truncated)?;
        at += caplen;
        let (&dir, snap) = body.split_first().ok_or(PcapError::EmptyPacket)?;
        let from = if dir == DIR_CLIENT_TO_SERVER {
            Side::Client
        } else {
            Side::Server
        };
        let time = SimTime::from_nanos((u64::from(secs) * 1_000_000 + u64::from(micros)) * 1_000);
        records.push(TapRecord::from_snap(time, from, snap, origlen - 1));
    }
    Ok((records, vantage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn record(ms: u64, from: Side, payload: &[u8]) -> TapRecord {
        TapRecord::capture(SimTime::ZERO + SimDuration::from_millis(ms), from, payload)
    }

    #[test]
    fn roundtrip_preserves_records() {
        let records = vec![
            record(0, Side::Client, &[0x40, 1, 2, 3]),
            record(40, Side::Server, &[0x60, 9]),
            record(2_000, Side::Client, &[]),
        ];
        // Zero-length datagrams still carry the direction byte.
        let bytes = write_pcap(&records);
        let back = read_pcap(&bytes).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn header_is_valid_pcap() {
        let bytes = write_pcap(&[]);
        assert_eq!(bytes.len(), 24);
        assert_eq!(&bytes[..4], &0xa1b2_c3d4u32.to_le_bytes());
        assert_eq!(read_u32(&bytes, 16), Some(TAP_SNAP_LEN as u32 + 1));
        assert_eq!(read_pcap(&bytes).unwrap(), vec![]);
    }

    #[test]
    fn records_carry_the_snap_and_the_original_length() {
        let datagram: Vec<u8> = (0..100).collect();
        let records = vec![record(3, Side::Client, &datagram)];
        let bytes = write_pcap(&records);
        assert_eq!(bytes.len(), 24 + 16 + 1 + TAP_SNAP_LEN);
        assert_eq!(read_u32(&bytes, 24 + 8), Some(TAP_SNAP_LEN as u32 + 1));
        assert_eq!(read_u32(&bytes, 24 + 12), Some(101));
        let back = read_pcap(&bytes).unwrap();
        assert_eq!(back, records);
        assert_eq!(back[0].snap(), &datagram[..TAP_SNAP_LEN]);
        assert_eq!(back[0].datagram_len(), 100);
    }

    #[test]
    fn foreign_full_captures_are_snapped_on_read() {
        // A whole-datagram record, as a capture without a snaplen has it.
        let mut bytes = write_pcap(&[]);
        push_u32(&mut bytes, 0);
        push_u32(&mut bytes, 0);
        push_u32(&mut bytes, 41);
        push_u32(&mut bytes, 41);
        bytes.push(DIR_SERVER_TO_CLIENT);
        bytes.extend(0..40u8);
        let back = read_pcap(&bytes).unwrap();
        assert_eq!(
            back[0].snap(),
            &(0..TAP_SNAP_LEN as u8).collect::<Vec<_>>()[..]
        );
        assert_eq!(back[0].datagram_len(), 40);
        assert_eq!(back[0].from, Side::Server);
    }

    #[test]
    fn capture_longer_than_packet_rejected() {
        let mut bytes = write_pcap(&[record(1, Side::Client, &[1, 2, 3])]);
        // Original length 4 -> 2, below the captured 4.
        bytes[24 + 12..24 + 16].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(read_pcap(&bytes), Err(PcapError::CaptureExceedsPacket));
    }

    #[test]
    fn vantage_round_trips_through_the_header() {
        let records = vec![record(1, Side::Client, &[0x40, 1])];
        // A plain capture carries no vantage.
        let (back, vantage) = read_pcap_with_vantage(&write_pcap(&records)).unwrap();
        assert_eq!(back, records);
        assert_eq!(vantage, None);
        assert_eq!(
            read_pcap_with_vantage(&write_pcap_at(&records, None))
                .unwrap()
                .1,
            None
        );
        // Position 0.0 (client edge) is distinct from "unset".
        for position in [0.0, 0.25, 0.5, 1.0] {
            let bytes = write_pcap_at(&records, Some(position));
            let (back, vantage) = read_pcap_with_vantage(&bytes).unwrap();
            assert_eq!(back, records);
            assert_eq!(vantage, Some(position), "position {position}");
            // Plain readers still parse the capture and ignore the field.
            assert_eq!(read_pcap(&bytes).unwrap(), records);
        }
        // Out-of-range positions clamp to the path.
        let bytes = write_pcap_at(&records, Some(7.5));
        assert_eq!(read_pcap_with_vantage(&bytes).unwrap().1, Some(1.0));
    }

    #[test]
    fn timestamps_preserve_microseconds() {
        let records = vec![TapRecord::capture(
            SimTime::from_nanos(1_234_567_000),
            Side::Server,
            &[1],
        )];
        let back = read_pcap(&write_pcap(&records)).unwrap();
        assert_eq!(back[0].time.as_micros(), 1_234_567);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(read_pcap(&[0u8; 24]), Err(PcapError::BadHeader));
        assert_eq!(read_pcap(&[0u8; 3]), Err(PcapError::BadHeader));
    }

    #[test]
    fn wrong_linktype_rejected() {
        let mut bytes = write_pcap(&[]);
        bytes[20..24].copy_from_slice(&1u32.to_le_bytes()); // Ethernet
        assert_eq!(read_pcap(&bytes), Err(PcapError::WrongLinkType(1)));
    }

    #[test]
    fn truncated_record_rejected() {
        let records = vec![record(1, Side::Client, &[1, 2, 3])];
        let bytes = write_pcap(&records);
        assert_eq!(
            read_pcap(&bytes[..bytes.len() - 2]),
            Err(PcapError::Truncated)
        );
    }

    proptest::proptest! {
        #[test]
        fn prop_roundtrip(
            payloads in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..100), 0..20
            ),
        ) {
            let records: Vec<TapRecord> = payloads
                .iter()
                .enumerate()
                .map(|(i, p)| record(i as u64, if i % 2 == 0 { Side::Client } else { Side::Server }, p))
                .collect();
            let back = read_pcap(&write_pcap(&records)).unwrap();
            proptest::prop_assert_eq!(back, records);
        }
    }
}
