//! Differential test of the single-pass packet decoder.
//!
//! `Packet::decode` validates every frame once and keeps the first few it
//! decoded inline; `Packet::frames` yields those and then re-reads the
//! remainder. Whatever the frame count, on either side of the inline
//! capacity, that must equal a fresh `Frames` walk of the payload, and a
//! malformed frame anywhere — also past the kept ones — must reject the
//! whole datagram.

use quicspin_wire::{
    AckRange, AckRanges, ConnectionId, Frame, Frames, Header, Packet, PacketNumber, PacketWriter,
    ShortHeader, WireError,
};

/// Most frames a test packet carries.
const MAX_FRAMES: usize = 9;

const RANGES: [AckRange; 3] = [
    AckRange { start: 0, end: 2 },
    AckRange { start: 5, end: 5 },
    AckRange { start: 8, end: 11 },
];

fn header() -> Header {
    Header::Short(ShortHeader {
        spin: true,
        vec: 0,
        dcid: ConnectionId::from_u64(7),
        packet_number: PacketNumber::new(42),
    })
}

/// The `i`-th frame of a packet whose kinds start at `first`: every kind
/// the decoder knows, in rotation.
fn frame(first: usize, i: usize) -> Frame<'static> {
    match (first + i) % 8 {
        0 => Frame::Ping,
        1 => Frame::Ack {
            largest: 11,
            delay_us: 250,
            ranges: AckRanges::from_ascending(&RANGES),
        },
        2 => Frame::Crypto {
            offset: 3,
            data: b"crypto",
        },
        3 => Frame::Stream {
            id: 0,
            offset: 1200,
            fin: i.is_multiple_of(2),
            data: b"stream bytes",
        },
        4 => Frame::HandshakeDone,
        5 => Frame::NewConnectionId {
            seq: 1,
            cid: b"\x01\x02\x03\x04",
        },
        6 => Frame::ConnectionClose {
            error_code: 0,
            reason: b"done",
        },
        _ => Frame::Padding { len: 3 },
    }
}

/// Bytes before the payload: the header and the 2-byte payload length.
fn payload_start() -> usize {
    PacketWriter::new(&header(), Vec::new()).len()
}

/// A datagram of `frames`, and the offset at which each frame starts.
fn datagram(frames: &[Frame<'_>]) -> (Vec<u8>, Vec<usize>) {
    let mut pw = PacketWriter::new(&header(), Vec::new());
    let mut starts = Vec::new();
    for f in frames {
        starts.push(pw.len());
        pw.push(f);
    }
    (pw.finish(), starts)
}

#[test]
fn kept_and_re_read_frames_equal_a_fresh_walk() {
    for n in 0..=MAX_FRAMES {
        for first in 0..8 {
            let frames: Vec<Frame<'static>> = (0..n).map(|i| frame(first, i)).collect();
            let (bytes, _) = datagram(&frames);
            let packet = Packet::decode(&bytes, 8).expect("a well-formed packet decodes");
            let walk: Vec<Frame<'_>> = Frames::new(&bytes[payload_start()..])
                .collect::<Result<_, _>>()
                .expect("a well-formed payload walks");
            let decoded: Vec<Frame<'_>> = packet.frames().collect();
            assert_eq!(decoded, walk, "{n} frames from kind {first}");
            assert_eq!(
                packet.is_ack_eliciting(),
                walk.iter().any(Frame::is_ack_eliciting),
                "{n} frames from kind {first}"
            );
            // The iterator borrows the packet, not consumes it.
            assert_eq!(packet.frames().count(), walk.len());
        }
    }
}

#[test]
fn a_malformed_frame_past_the_kept_ones_rejects_the_datagram() {
    for bad in 0..MAX_FRAMES {
        // PINGs, so that no two frames coalesce and frame `bad` starts at
        // a known byte; it becomes an unknown frame type.
        let (mut bytes, starts) = datagram(&vec![Frame::Ping; MAX_FRAMES]);
        bytes[starts[bad]] = 0x21;
        assert_eq!(
            Packet::decode(&bytes, 8),
            Err(WireError::UnknownFrameType(0x21)),
            "unknown frame type at position {bad}"
        );
    }
    for n in 5..=MAX_FRAMES {
        // The last of `n` frames claims more CRYPTO bytes than remain.
        let mut frames: Vec<Frame<'static>> = (0..n - 1).map(|i| frame(0, i)).collect();
        frames.push(Frame::Crypto {
            offset: 0,
            data: b"abc",
        });
        let (mut bytes, starts) = datagram(&frames);
        // Type byte, one-byte offset, then the one-byte length.
        bytes[starts[n - 1] + 2] = 0x3f;
        assert!(
            Packet::decode(&bytes, 8).is_err(),
            "overlong CRYPTO frame at position {}",
            n - 1
        );
    }
}
