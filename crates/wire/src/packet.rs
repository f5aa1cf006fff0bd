//! Full packets (header + frames) and packet-number arithmetic.

use crate::coding::{Reader, Writer};
use crate::error::WireError;
use crate::frame::{Frame, Frames};
use crate::header::Header;

/// A full, untruncated QUIC packet number (62-bit space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PacketNumber(u64);

impl PacketNumber {
    /// Creates a packet number.
    pub fn new(v: u64) -> Self {
        PacketNumber(v)
    }

    /// Returns the numeric value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Next packet number.
    pub fn next(self) -> Self {
        PacketNumber(self.0 + 1)
    }
}

impl From<u64> for PacketNumber {
    fn from(v: u64) -> Self {
        PacketNumber(v)
    }
}

impl core::fmt::Display for PacketNumber {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.0.fmt(f)
    }
}

/// Truncates a full packet number to `bytes` wire bytes (RFC 9000 §17.1).
pub fn truncate_packet_number(pn: u64, bytes: usize) -> u64 {
    assert!((1..=4).contains(&bytes), "pn length must be 1..=4");
    pn & ((1u64 << (8 * bytes)) - 1)
}

/// Expands a truncated packet number given the largest acknowledged /
/// received packet number (RFC 9000 Appendix A, reference algorithm).
pub fn expand_packet_number(truncated: u64, bytes: usize, largest: Option<u64>) -> u64 {
    assert!((1..=4).contains(&bytes), "pn length must be 1..=4");
    let pn_nbits = 8 * bytes as u32;
    let expected = largest.map(|l| l + 1).unwrap_or(0);
    let pn_win = 1u64 << pn_nbits;
    let pn_hwin = pn_win / 2;
    let pn_mask = pn_win - 1;
    let candidate = (expected & !pn_mask) | truncated;
    if candidate + pn_hwin <= expected && candidate + pn_win < (1u64 << 62) {
        candidate + pn_win
    } else if candidate > expected + pn_hwin && candidate >= pn_win {
        candidate - pn_win
    } else {
        candidate
    }
}

/// Frames [`Packet::decode`] keeps from its validating pass. Every packet
/// this stack builds has at most four (ACK+STREAM, CRYPTO+PADDING,
/// HANDSHAKE_DONE+ACK+STREAM); a longer packet re-reads the rest.
const KEPT_FRAMES: usize = 4;

/// A decoded QUIC packet: its header plus its validated frames, borrowed
/// from the datagram.
///
/// [`Packet::decode`] walks every frame once, so a datagram with any
/// malformed frame is rejected whole. It keeps the first four frames it
/// decoded in an inline array; [`Packet::frames`] yields those and then
/// re-reads any remainder lazily, which cannot fail. Nothing is copied or
/// allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet<'a> {
    /// Packet header (long or short).
    pub header: Header,
    /// The first `kept_len` frames; the slots past it are unused.
    kept: [Frame<'a>; KEPT_FRAMES],
    kept_len: usize,
    /// The payload bytes after the kept frames.
    rest: &'a [u8],
    ack_eliciting: bool,
}

impl<'a> Packet<'a> {
    /// Decodes a datagram produced by [`PacketWriter`].
    ///
    /// A 2-byte big-endian payload length sits between header and frames
    /// so that decoding is self-delimiting without real AEAD framing. Real
    /// QUIC carries an explicit Length field in long headers and uses the
    /// UDP datagram boundary for short headers; the simulator transports
    /// exactly one packet per datagram, so this is equivalent.
    pub fn decode(datagram: &'a [u8], cid_len: usize) -> Result<Self, WireError> {
        let mut r = Reader::new(datagram);
        let header = Header::decode(&mut r, cid_len)?;
        let len = usize::from(r.read_u16("payload length")?);
        let mut r = Reader::new(r.read_bytes(len, "payload")?);
        let mut kept = [const { Frame::Ping }; KEPT_FRAMES];
        let mut kept_len = 0;
        let mut rest = r.peek_rest();
        let mut ack_eliciting = false;
        while !r.is_empty() {
            let frame = Frame::decode(&mut r)?;
            ack_eliciting |= frame.is_ack_eliciting();
            if kept_len < KEPT_FRAMES {
                kept[kept_len] = frame;
                kept_len += 1;
                rest = r.peek_rest();
            }
        }
        Ok(Packet {
            header,
            kept,
            kept_len,
            rest,
            ack_eliciting,
        })
    }

    /// The frames, in payload order.
    pub fn frames(&self) -> impl Iterator<Item = Frame<'a>> + '_ {
        // The remainder was validated by `decode`: every item is `Ok`.
        let rest = Frames::new(self.rest).map_while(Result::ok);
        self.kept[..self.kept_len].iter().cloned().chain(rest)
    }

    /// Whether any frame is ack-eliciting.
    pub fn is_ack_eliciting(&self) -> bool {
        self.ack_eliciting
    }
}

/// Encodes one packet into one datagram buffer, frame by frame: header,
/// a length placeholder, the frames, then the back-patched length.
///
/// Frames are written as they are pushed, so their bytes go straight from
/// wherever the borrowed [`Frame`] points (a send buffer, a receiver's
/// range list) into the datagram, with no staging buffer or frame list.
#[derive(Debug)]
pub struct PacketWriter {
    w: Writer,
    len_at: usize,
}

impl PacketWriter {
    /// Starts a packet in `buf` (cleared first), reusing its allocation —
    /// senders recycle delivered datagram buffers instead of allocating
    /// per packet.
    pub fn new(header: &Header, buf: Vec<u8>) -> Self {
        let mut w = Writer::from_vec(buf, 1500);
        header.encode(&mut w);
        let len_at = w.len();
        w.write_u16(0);
        PacketWriter { w, len_at }
    }

    /// Appends one frame.
    pub fn push(&mut self, frame: &Frame<'_>) {
        frame.encode(&mut self.w);
    }

    /// Datagram bytes written so far.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// Whether nothing has been written (never true: the header is).
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// Appends PADDING until the datagram is `total` bytes long (no-op
    /// when it already is).
    pub fn pad_to(&mut self, total: usize) {
        if let Some(len) = total.checked_sub(self.len()).filter(|&n| n > 0) {
            self.push(&Frame::Padding { len });
        }
    }

    /// Back-patches the payload length and returns the datagram.
    pub fn finish(mut self) -> Vec<u8> {
        let payload_len = self.w.len() - self.len_at - 2;
        assert!(payload_len <= usize::from(u16::MAX), "payload too large");
        self.w.patch_u16(self.len_at, payload_len as u16);
        self.w.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cid::ConnectionId;
    use crate::header::{LongHeader, LongType, ShortHeader};
    use crate::version::Version;

    #[test]
    fn truncate_masks_low_bytes() {
        assert_eq!(truncate_packet_number(0x1234_5678, 2), 0x5678);
        assert_eq!(truncate_packet_number(0xff, 1), 0xff);
        assert_eq!(truncate_packet_number(0x1_0000_0001, 4), 1);
    }

    #[test]
    fn expand_rfc9000_appendix_a_example() {
        // RFC 9000 A.3: largest_pn = 0xa82f30ea, truncated 0x9b32 (2 bytes)
        // expands to 0xa82f9b32.
        assert_eq!(
            expand_packet_number(0x9b32, 2, Some(0xa82f_30ea)),
            0xa82f_9b32
        );
    }

    #[test]
    fn expand_first_packet() {
        assert_eq!(expand_packet_number(0, 4, None), 0);
        assert_eq!(expand_packet_number(5, 1, None), 5);
    }

    #[test]
    fn expand_wraps_forward() {
        // largest = 0xff, truncated 0x00 in one byte → next window (0x100).
        assert_eq!(expand_packet_number(0x00, 1, Some(0xff)), 0x100);
    }

    #[test]
    fn expand_wraps_backward() {
        // largest = 0x100, truncated 0xff likely refers to 0xff not 0x1ff.
        assert_eq!(expand_packet_number(0xff, 1, Some(0x100)), 0xff);
    }

    fn encode(header: &Header, frames: &[Frame<'_>]) -> Vec<u8> {
        let mut pw = PacketWriter::new(header, Vec::new());
        for f in frames {
            pw.push(f);
        }
        pw.finish()
    }

    fn short(pn: u64) -> Header {
        Header::Short(ShortHeader {
            spin: true,
            vec: 0,
            dcid: ConnectionId::from_u64(99),
            packet_number: PacketNumber::new(pn),
        })
    }

    #[test]
    fn packet_roundtrip_short() {
        let header = short(12);
        let frames = [Frame::Ping, Frame::Padding { len: 4 }];
        let bytes = encode(&header, &frames);
        let back = Packet::decode(&bytes, 8).unwrap();
        assert_eq!(back.header, header);
        assert_eq!(back.frames().collect::<Vec<_>>(), frames);
        assert!(back.is_ack_eliciting());
    }

    #[test]
    fn packet_roundtrip_long() {
        let header = Header::Long(LongHeader {
            ty: LongType::Initial,
            version: Version::V1,
            dcid: ConnectionId::from_u64(1),
            scid: ConnectionId::from_u64(2),
            packet_number: Some(PacketNumber::new(0)),
        });
        let frames = [Frame::Crypto {
            offset: 0,
            data: b"hello",
        }];
        let bytes = encode(&header, &frames);
        let back = Packet::decode(&bytes, 8).unwrap();
        assert_eq!(back.header, header);
        assert_eq!(back.frames().collect::<Vec<_>>(), frames);
    }

    #[test]
    fn pad_to_fills_the_datagram_exactly() {
        let mut pw = PacketWriter::new(&short(0), Vec::new());
        pw.push(&Frame::Ping);
        pw.pad_to(1200);
        pw.pad_to(1000);
        let bytes = pw.finish();
        assert_eq!(bytes.len(), 1200);
        let back = Packet::decode(&bytes, 8).unwrap();
        assert_eq!(
            back.frames().collect::<Vec<_>>(),
            // Header 13 bytes, length 2, PING 1: the rest is padding.
            vec![Frame::Ping, Frame::Padding { len: 1200 - 16 }]
        );
    }

    #[test]
    fn ack_eliciting_propagates_from_frames() {
        let padding_only = encode(&short(0), &[Frame::Padding { len: 2 }]);
        assert!(!Packet::decode(&padding_only, 8).unwrap().is_ack_eliciting());
        let with_ping = encode(&short(0), &[Frame::Padding { len: 2 }, Frame::Ping]);
        assert!(Packet::decode(&with_ping, 8).unwrap().is_ack_eliciting());
    }

    #[test]
    fn decode_rejects_truncated_datagram() {
        let mut bytes = encode(&short(3), &[Frame::Ping]);
        bytes.truncate(bytes.len() - 1);
        assert!(Packet::decode(&bytes, 8).is_err());
    }

    #[test]
    fn decode_rejects_a_packet_with_any_malformed_frame() {
        let mut pw = PacketWriter::new(&short(3), Vec::new());
        pw.push(&Frame::Ping);
        pw.push(&Frame::Padding { len: 1 });
        let mut bytes = pw.finish();
        // Turn the padding byte into an unknown frame type.
        *bytes.last_mut().unwrap() = 0x21;
        assert_eq!(
            Packet::decode(&bytes, 8),
            Err(WireError::UnknownFrameType(0x21))
        );
    }

    #[test]
    fn packet_number_ordering_and_next() {
        let a = PacketNumber::new(1);
        assert_eq!(a.next(), PacketNumber::new(2));
        assert!(a < a.next());
        assert_eq!(PacketNumber::from(9u64).value(), 9);
        assert_eq!(PacketNumber::new(5).to_string(), "5");
    }

    proptest::proptest! {
        #[test]
        fn prop_expand_inverts_truncate_within_window(
            largest in 0u64..1_000_000_000,
            delta in 0u64..100,
            bytes in 1usize..=4,
        ) {
            // A packet within half the window of largest+1 must recover exactly.
            let pn = largest + delta;
            let half_window = 1u64 << (8 * bytes - 1);
            proptest::prop_assume!(delta + 1 < half_window);
            let truncated = truncate_packet_number(pn, bytes);
            proptest::prop_assert_eq!(
                expand_packet_number(truncated, bytes, Some(largest)),
                pn
            );
        }
    }
}
