//! The observatory's privacy boundary: [`ObservedPacket`].
//!
//! A passive on-path observer is only ever allowed to read what RFC 9000
//! leaves in the clear on short-header packets: the first byte (form,
//! fixed, spin and reserved bits) and the destination connection ID.
//! Packet numbers and payloads are encrypted, and long-header
//! (handshake) packets carry plaintext CRYPTO data the observer must
//! never see.
//!
//! The boundary starts at the point of capture: a simulator
//! [`TapRecord`] keeps only the first [`TAP_SNAP_LEN`] bytes of a
//! datagram — the first byte plus the longest destination CID — so
//! payload bytes never reach the observer at all. It is also
//! compile-visible: the fields of [`ObservedPacket`] are private, the
//! only constructors run [`Header::peek_observable`] over the snap and
//! return `None` for anything that is not a well-formed short header,
//! and no accessor hands back bytes beyond the destination CID.
//!
//! [`TAP_SNAP_LEN`]: quicspin_netsim::TAP_SNAP_LEN

use quicspin_core::{Direction, PacketObservation};
use quicspin_netsim::{Side, TapRecord};
use quicspin_wire::{ConnectionId, Header};

/// The observer-legal view of one datagram crossing the tap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedPacket {
    time_us: u64,
    direction: Direction,
    spin: bool,
    vec: u8,
    dcid: ConnectionId,
}

impl ObservedPacket {
    /// Narrows a simulator tap record to its observable view. Returns
    /// `None` for long-header (handshake) datagrams and anything that
    /// does not parse as a short header — the observer may count such
    /// packets, but never sees their bytes.
    pub fn from_tap(record: &TapRecord, cid_len: usize) -> Option<ObservedPacket> {
        ObservedPacket::from_datagram(
            record.time.as_micros(),
            match record.from {
                Side::Client => Direction::Upstream,
                Side::Server => Direction::Downstream,
            },
            record.snap(),
            cid_len,
        )
    }

    /// Parses the observable view of one raw datagram seen at `time_us`
    /// crossing the tap in `direction`.
    pub fn from_datagram(
        time_us: u64,
        direction: Direction,
        datagram: &[u8],
        cid_len: usize,
    ) -> Option<ObservedPacket> {
        let h = Header::peek_observable(datagram, cid_len)?;
        Some(ObservedPacket {
            time_us,
            direction,
            spin: h.spin,
            vec: h.vec,
            dcid: h.dcid,
        })
    }

    /// When the packet crossed the tap (µs, virtual time).
    pub fn time_us(&self) -> u64 {
        self.time_us
    }

    /// Which direction the packet crossed the tap.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The spin bit on the wire.
    pub fn spin(&self) -> bool {
        self.spin
    }

    /// The reserved-bit VEC value on the wire (0 when unused).
    pub fn vec(&self) -> u8 {
        self.vec
    }

    /// The destination connection ID — the only datagram bytes an
    /// observer may use (for flow routing), per RFC 9000 §17.3.1.
    pub fn dcid(&self) -> &[u8] {
        self.dcid.as_slice()
    }

    /// The equivalent wire-level [`PacketObservation`] (no packet number
    /// — it is encrypted at this vantage).
    pub fn to_observation(&self) -> PacketObservation {
        PacketObservation::wire(self.time_us, self.spin).with_vec(self.vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_netsim::SimTime;
    use quicspin_wire::{LongHeader, LongType, PacketNumber, Version, Writer};

    const CID_LEN: usize = 8;

    fn short_datagram(spin: bool, vec: u8) -> Vec<u8> {
        let h = quicspin_wire::ShortHeader {
            spin,
            vec,
            dcid: ConnectionId::new(&[7; CID_LEN]).unwrap(),
            packet_number: PacketNumber::new(3),
        };
        let mut w = Writer::new();
        h.encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xEE; 48]); // "ciphertext"
        bytes
    }

    /// A long-header datagram whose payload is recognisable plaintext.
    fn handshake_datagram(sentinel: &[u8]) -> Vec<u8> {
        let h = LongHeader {
            ty: LongType::Handshake,
            version: Version::V1,
            dcid: ConnectionId::new(&[7; CID_LEN]).unwrap(),
            scid: ConnectionId::new(&[8; CID_LEN]).unwrap(),
            packet_number: Some(PacketNumber::new(0)),
        };
        let mut w = Writer::new();
        h.encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(sentinel);
        bytes
    }

    #[test]
    fn short_header_is_observable() {
        let p = ObservedPacket::from_datagram(
            17,
            Direction::Downstream,
            &short_datagram(true, 2),
            CID_LEN,
        )
        .unwrap();
        assert_eq!(p.time_us(), 17);
        assert_eq!(p.direction(), Direction::Downstream);
        assert!(p.spin());
        assert_eq!(p.vec(), 2);
        assert_eq!(p.dcid(), &[7; CID_LEN]);
    }

    #[test]
    fn long_header_never_yields_a_packet() {
        // The handshake payload is plaintext; the constructor must refuse
        // the whole datagram, so the sentinel never reaches observer code.
        let sentinel = b"TLS CLIENT HELLO SECRET";
        assert!(ObservedPacket::from_datagram(
            0,
            Direction::Upstream,
            &handshake_datagram(sentinel),
            CID_LEN
        )
        .is_none());
    }

    #[test]
    fn garbage_and_unset_fixed_bit_rejected() {
        assert!(ObservedPacket::from_datagram(0, Direction::Upstream, &[], CID_LEN).is_none());
        // Fixed bit clear: not a QUIC packet for an observer.
        let mut d = short_datagram(false, 0);
        d[0] &= !0x40;
        assert!(ObservedPacket::from_datagram(0, Direction::Upstream, &d, CID_LEN).is_none());
    }

    #[test]
    fn exposed_bytes_come_only_from_the_header_prefix() {
        // Everything an ObservedPacket can ever return must be derived
        // from the first byte and the CID — byte-flip the rest of the
        // datagram and the view must not change.
        let clean = short_datagram(true, 1);
        let mut tampered = clean.clone();
        for b in tampered.iter_mut().skip(1 + CID_LEN) {
            *b ^= 0xFF;
        }
        let a = ObservedPacket::from_datagram(9, Direction::Upstream, &clean, CID_LEN).unwrap();
        let b = ObservedPacket::from_datagram(9, Direction::Upstream, &tampered, CID_LEN).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tap_record_conversion_maps_sides() {
        let record = TapRecord::capture(
            SimTime::from_nanos(5_000),
            Side::Client,
            &short_datagram(false, 0),
        );
        let p = ObservedPacket::from_tap(&record, CID_LEN).unwrap();
        assert_eq!(p.direction(), Direction::Upstream);
        assert_eq!(p.time_us(), 5);
        let obs = p.to_observation();
        assert_eq!(obs.packet_number, None);
        assert_eq!(obs.time_us, 5);
    }

    #[test]
    fn the_snap_holds_the_longest_observable_header() {
        assert_eq!(
            quicspin_netsim::TAP_SNAP_LEN,
            1 + quicspin_wire::cid::MAX_CID_LEN
        );
        // With the longest CID the snap still carries the whole view.
        let h = quicspin_wire::ShortHeader {
            spin: true,
            vec: 2,
            dcid: ConnectionId::new(&[9; quicspin_wire::cid::MAX_CID_LEN]).unwrap(),
            packet_number: PacketNumber::new(3),
        };
        let mut w = Writer::new();
        h.encode(&mut w);
        let mut datagram = w.into_bytes();
        datagram.extend_from_slice(&[0xEE; 48]);
        let record = TapRecord::capture(SimTime::from_nanos(1_000), Side::Server, &datagram);
        let len = quicspin_wire::cid::MAX_CID_LEN;
        assert_eq!(
            ObservedPacket::from_tap(&record, len),
            ObservedPacket::from_datagram(1, Direction::Downstream, &datagram, len)
        );
        assert!(ObservedPacket::from_tap(&record, len).is_some());
    }
}
