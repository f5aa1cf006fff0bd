//! QUIC frames (RFC 9000 §19) — the subset the simulated endpoints use.
//!
//! Frames borrow the datagram they travel in: STREAM and CRYPTO data,
//! CID and close-reason bytes are slices of the encoded payload, and ACK
//! ranges are a lazy iterator over their encoded varints. Decoding never
//! allocates, and encoding writes straight from whatever the slices point
//! at — a send buffer, a receiver's range list.

use crate::coding::{Reader, Writer};
use crate::error::WireError;
use crate::varint;

/// One contiguous range of acknowledged packet numbers, inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRange {
    /// Smallest packet number in the range.
    pub start: u64,
    /// Largest packet number in the range.
    pub end: u64,
}

impl AckRange {
    /// Creates a range; panics if `start > end` (a programming error).
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "AckRange start {start} > end {end}");
        AckRange { start, end }
    }

    /// Number of packets covered.
    pub fn len(&self) -> u64 {
        self.end - self.start + 1
    }

    /// Ranges are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `pn` falls inside this range.
    pub fn contains(&self, pn: u64) -> bool {
        pn >= self.start && pn <= self.end
    }
}

/// The ranges of an ACK frame, yielded in descending packet-number order
/// (the first range contains the frame's largest acknowledged).
///
/// Either a view of a receiver's in-memory range list (for encoding) or
/// of a decoded frame's gap/length varints, which [`Frame::decode`]
/// validated before handing the view out — iteration never fails.
#[derive(Debug, Clone)]
pub struct AckRanges<'a> {
    source: RangeSource<'a>,
}

#[derive(Debug, Clone)]
enum RangeSource<'a> {
    /// Ascending, disjoint ranges, walked from the back.
    Memory(core::slice::Iter<'a, AckRange>),
    /// Validated wire encoding: the next range to yield, then `remaining`
    /// gap/length pairs in `pairs`.
    Wire {
        next: Option<AckRange>,
        remaining: u64,
        pairs: Reader<'a>,
    },
}

impl<'a> AckRanges<'a> {
    /// Ranges held ascending in memory (a receiver's natural order),
    /// yielded descending.
    pub fn from_ascending(ranges: &'a [AckRange]) -> Self {
        AckRanges {
            source: RangeSource::Memory(ranges.iter()),
        }
    }

    /// Number of ranges not yet yielded.
    pub fn count_remaining(&self) -> u64 {
        match &self.source {
            RangeSource::Memory(iter) => iter.len() as u64,
            RangeSource::Wire {
                next, remaining, ..
            } => u64::from(next.is_some()) + remaining,
        }
    }
}

impl Iterator for AckRanges<'_> {
    type Item = AckRange;

    fn next(&mut self) -> Option<AckRange> {
        match &mut self.source {
            RangeSource::Memory(iter) => iter.next_back().copied(),
            RangeSource::Wire {
                next,
                remaining,
                pairs,
            } => {
                let current = next.take()?;
                if *remaining > 0 {
                    *remaining -= 1;
                    // Validated at decode time, so neither read nor
                    // subtraction can fail; `ok()` keeps this panic-free.
                    *next = next_wire_range(pairs, current.start).ok();
                }
                Some(current)
            }
        }
    }
}

impl PartialEq for AckRanges<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.clone().eq(other.clone())
    }
}

impl Eq for AckRanges<'_> {}

/// Reads one gap/length pair below `smallest` (RFC 9000 §19.3.1).
fn next_wire_range(r: &mut Reader<'_>, smallest: u64) -> Result<AckRange, WireError> {
    let gap = varint::read(r, "ack gap")?;
    let len = varint::read(r, "ack range len")?;
    let end = smallest.checked_sub(gap + 2).ok_or(WireError::Malformed {
        context: "ack gap underflow",
    })?;
    let start = end.checked_sub(len).ok_or(WireError::Malformed {
        context: "ack range underflow",
    })?;
    Ok(AckRange { start, end })
}

/// The QUIC frames modelled by this stack, borrowing their bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<'a> {
    /// PADDING (type 0x00). `len` consecutive padding bytes.
    Padding {
        /// Number of padding bytes this entry represents.
        len: usize,
    },
    /// PING (type 0x01): elicits an ACK.
    Ping,
    /// ACK (type 0x02).
    Ack {
        /// Largest packet number being acknowledged.
        largest: u64,
        /// ACK delay in microseconds (already scaled by ack_delay_exponent).
        delay_us: u64,
        /// Acknowledged ranges, descending, first contains `largest`.
        ranges: AckRanges<'a>,
    },
    /// CRYPTO (type 0x06): carries the simulated TLS handshake blobs.
    Crypto {
        /// Offset in the crypto stream.
        offset: u64,
        /// Handshake payload bytes.
        data: &'a [u8],
    },
    /// STREAM (types 0x08..=0x0f, always encoded with offset+len+fin bits).
    Stream {
        /// Stream ID.
        id: u64,
        /// Offset of `data` in the stream.
        offset: u64,
        /// Whether this frame ends the stream.
        fin: bool,
        /// Stream payload bytes.
        data: &'a [u8],
    },
    /// NEW_CONNECTION_ID (type 0x18), simplified: sequence number + CID bytes.
    NewConnectionId {
        /// Sequence number of the issued CID.
        seq: u64,
        /// The issued connection ID bytes.
        cid: &'a [u8],
    },
    /// CONNECTION_CLOSE (type 0x1c), transport error class.
    ConnectionClose {
        /// Transport error code.
        error_code: u64,
        /// Reason phrase bytes (UTF-8 by convention, not validated).
        reason: &'a [u8],
    },
    /// HANDSHAKE_DONE (type 0x1e), server → client only.
    HandshakeDone,
}

impl<'a> Frame<'a> {
    /// Whether this frame is ack-eliciting (RFC 9002 §2).
    pub fn is_ack_eliciting(&self) -> bool {
        !matches!(
            self,
            Frame::Ack { .. } | Frame::Padding { .. } | Frame::ConnectionClose { .. }
        )
    }

    /// Encodes the frame into `w`.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            Frame::Padding { len } => w.write_zeros(*len),
            Frame::Ping => w.write_u8(0x01),
            Frame::Ack {
                largest,
                delay_us,
                ranges,
            } => {
                let mut ranges = ranges.clone();
                let count = ranges.count_remaining();
                let first = ranges.next().expect("ACK frame must carry >= 1 range");
                assert_eq!(
                    first.end, *largest,
                    "first ACK range must contain the largest pn"
                );
                w.write_u8(0x02);
                varint::write(w, *largest);
                varint::write(w, *delay_us);
                varint::write(w, count - 1);
                // First range: number of packets below `largest`, inclusive.
                varint::write(w, first.end - first.start);
                let mut smallest = first.start;
                for range in ranges {
                    // Gap: packets between this range and the previous one,
                    // encoded as gap-1 (RFC 9000 §19.3.1).
                    varint::write(w, smallest - range.end - 2);
                    varint::write(w, range.end - range.start);
                    smallest = range.start;
                }
            }
            Frame::Crypto { offset, data } => {
                w.write_u8(0x06);
                varint::write(w, *offset);
                varint::write(w, data.len() as u64);
                w.write_bytes(data);
            }
            Frame::Stream {
                id,
                offset,
                fin,
                data,
            } => {
                // 0x08 | OFF(0x04) | LEN(0x02) | FIN(0x01)
                let ty = 0x08 | 0x04 | 0x02 | u8::from(*fin);
                w.write_u8(ty);
                varint::write(w, *id);
                varint::write(w, *offset);
                varint::write(w, data.len() as u64);
                w.write_bytes(data);
            }
            Frame::NewConnectionId { seq, cid } => {
                w.write_u8(0x18);
                varint::write(w, *seq);
                w.write_u8(cid.len() as u8);
                w.write_bytes(cid);
            }
            Frame::ConnectionClose { error_code, reason } => {
                w.write_u8(0x1c);
                varint::write(w, *error_code);
                varint::write(w, reason.len() as u64);
                w.write_bytes(reason);
            }
            Frame::HandshakeDone => w.write_u8(0x1e),
        }
    }

    /// Decodes one frame, borrowing its bytes from `r`'s buffer.
    /// Consecutive PADDING bytes are coalesced; an ACK's ranges are
    /// checked in full here, so iterating them later cannot fail.
    pub fn decode(r: &mut Reader<'a>) -> Result<Self, WireError> {
        let ty = varint::read(r, "frame type")?;
        match ty {
            0x00 => Ok(Frame::Padding {
                len: 1 + r.skip_zeros(),
            }),
            0x01 => Ok(Frame::Ping),
            0x02 | 0x03 => {
                let largest = varint::read(r, "ack largest")?;
                let delay_us = varint::read(r, "ack delay")?;
                let range_count = varint::read(r, "ack range count")?;
                let first_len = varint::read(r, "ack first range")?;
                if first_len > largest {
                    return Err(WireError::Malformed {
                        context: "ack first range exceeds largest",
                    });
                }
                let first = AckRange {
                    start: largest - first_len,
                    end: largest,
                };
                // Walk every gap/length pair once to validate it and find
                // where the frame ends; the iterator re-reads the same
                // bytes lazily. Each pair takes >= 2 bytes, so a forged
                // count runs out of input instead of looping.
                let pairs_from = r.peek_rest();
                let before = r.remaining();
                let mut smallest = first.start;
                for _ in 0..range_count {
                    smallest = next_wire_range(r, smallest)?.start;
                }
                let pairs = &pairs_from[..before - r.remaining()];
                // Type 0x03 (ACK_ECN) carries three extra counts; skip them.
                if ty == 0x03 {
                    for _ in 0..3 {
                        varint::read(r, "ack ecn count")?;
                    }
                }
                Ok(Frame::Ack {
                    largest,
                    delay_us,
                    ranges: AckRanges {
                        source: RangeSource::Wire {
                            next: Some(first),
                            remaining: range_count,
                            pairs: Reader::new(pairs),
                        },
                    },
                })
            }
            0x06 => {
                let offset = varint::read(r, "crypto offset")?;
                let len = varint::read(r, "crypto len")?;
                let data = r.read_bytes(bounded_len(len), "crypto data")?;
                Ok(Frame::Crypto { offset, data })
            }
            0x08..=0x0f => {
                let has_off = ty & 0x04 != 0;
                let has_len = ty & 0x02 != 0;
                let fin = ty & 0x01 != 0;
                let id = varint::read(r, "stream id")?;
                let offset = if has_off {
                    varint::read(r, "stream offset")?
                } else {
                    0
                };
                let data = if has_len {
                    let len = varint::read(r, "stream len")?;
                    r.read_bytes(bounded_len(len), "stream data")?
                } else {
                    r.read_rest()
                };
                Ok(Frame::Stream {
                    id,
                    offset,
                    fin,
                    data,
                })
            }
            0x18 => {
                let seq = varint::read(r, "ncid seq")?;
                let len = usize::from(r.read_u8("ncid len")?);
                let cid = r.read_bytes(len, "ncid cid")?;
                Ok(Frame::NewConnectionId { seq, cid })
            }
            0x1c | 0x1d => {
                let error_code = varint::read(r, "close code")?;
                let len = varint::read(r, "close reason len")?;
                let reason = r.read_bytes(bounded_len(len), "close reason")?;
                Ok(Frame::ConnectionClose { error_code, reason })
            }
            0x1e => Ok(Frame::HandshakeDone),
            other => Err(WireError::UnknownFrameType(other)),
        }
    }
}

/// A wire length as `usize`; lengths past the address space saturate and
/// then fail the bounds check like any other overlong length.
fn bounded_len(len: u64) -> usize {
    usize::try_from(len).unwrap_or(usize::MAX)
}

/// Lazy iterator over the frames of a payload, borrowing from it.
///
/// Yields `Err` once at the first malformed frame and then stops.
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    r: Reader<'a>,
    failed: bool,
}

impl<'a> Frames<'a> {
    /// Iterates the frames encoded in `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        Frames {
            r: Reader::new(payload),
            failed: false,
        }
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<Frame<'a>, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.r.is_empty() {
            return None;
        }
        let frame = Frame::decode(&mut self.r);
        self.failed = frame.is_err();
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(f: &Frame<'_>) -> Vec<u8> {
        let mut w = Writer::new();
        f.encode(&mut w);
        w.into_bytes()
    }

    /// Encodes `f`, decodes it back through the borrowed decoder, and
    /// checks that re-encoding the decoded frame gives the same bytes.
    fn roundtrip(f: &Frame<'_>) {
        let bytes = encode(f);
        let mut r = Reader::new(&bytes);
        let back = Frame::decode(&mut r).unwrap();
        assert!(r.is_empty(), "trailing bytes after {f:?}");
        assert_eq!(&back, f);
        assert_eq!(encode(&back), bytes, "re-encoding {f:?}");
    }

    fn ack<'a>(ranges: &'a [AckRange], delay_us: u64) -> Frame<'a> {
        Frame::Ack {
            largest: ranges.last().unwrap().end,
            delay_us,
            ranges: AckRanges::from_ascending(ranges),
        }
    }

    #[test]
    fn every_frame_type_roundtrips_to_the_same_bytes() {
        let ranges = [
            AckRange::new(0, 10),
            AckRange::new(95, 97),
            AckRange::new(100, 100),
        ];
        for f in [
            Frame::Padding { len: 17 },
            Frame::Ping,
            ack(&ranges, 25),
            ack(&ranges[2..], 0),
            Frame::Crypto {
                offset: 123,
                data: b"client hello",
            },
            Frame::Stream {
                id: 0,
                offset: 42,
                fin: false,
                data: &[1, 2, 3],
            },
            Frame::Stream {
                id: 4,
                offset: 0,
                fin: true,
                data: &[],
            },
            Frame::NewConnectionId {
                seq: 3,
                cid: &[9; 8],
            },
            Frame::ConnectionClose {
                error_code: 0x0a,
                reason: b"no error",
            },
            Frame::HandshakeDone,
        ] {
            roundtrip(&f);
        }
    }

    #[test]
    fn ack_ranges_iterate_descending() {
        let ranges = [
            AckRange::new(0, 10),
            AckRange::new(95, 97),
            AckRange::new(100, 100),
        ];
        let bytes = encode(&ack(&ranges, 0));
        let Frame::Ack { ranges: back, .. } = Frame::decode(&mut Reader::new(&bytes)).unwrap()
        else {
            panic!("expected ACK");
        };
        assert_eq!(back.count_remaining(), 3);
        let descending: Vec<AckRange> = back.collect();
        let mut expected = ranges.to_vec();
        expected.reverse();
        assert_eq!(descending, expected);
    }

    #[test]
    fn ack_malformed_first_range_rejected() {
        // largest=5 but first range length 10.
        let mut w = Writer::new();
        w.write_u8(0x02);
        varint::write(&mut w, 5);
        varint::write(&mut w, 0);
        varint::write(&mut w, 0);
        varint::write(&mut w, 10);
        let mut r = Reader::new(w.as_slice());
        assert!(matches!(
            Frame::decode(&mut r),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn ack_gap_underflow_rejected_at_decode() {
        // largest=5, first range 0 (5..=5), then a gap reaching below 0.
        let mut w = Writer::new();
        w.write_u8(0x02);
        for v in [5, 0, 1, 0, 9, 0] {
            varint::write(&mut w, v);
        }
        assert!(matches!(
            Frame::decode(&mut Reader::new(w.as_slice())),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn ack_forged_range_count_runs_out_of_input() {
        let mut w = Writer::new();
        w.write_u8(0x02);
        for v in [5, 0, (1 << 62) - 1, 0] {
            varint::write(&mut w, v);
        }
        assert!(matches!(
            Frame::decode(&mut Reader::new(w.as_slice())),
            Err(WireError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn ack_ecn_counts_are_skipped() {
        let mut w = Writer::new();
        w.write_u8(0x03);
        for v in [7, 1, 0, 2, 11, 12, 13] {
            varint::write(&mut w, v);
        }
        w.write_u8(0x01);
        let mut frames = Frames::new(w.as_slice());
        let Some(Ok(Frame::Ack {
            largest, ranges, ..
        })) = frames.next()
        else {
            panic!("expected ACK_ECN");
        };
        assert_eq!(largest, 7);
        assert_eq!(ranges.collect::<Vec<_>>(), vec![AckRange::new(5, 7)]);
        assert_eq!(frames.next(), Some(Ok(Frame::Ping)));
        assert_eq!(frames.next(), None);
    }

    #[test]
    fn overlong_stream_length_is_an_error() {
        let mut w = Writer::new();
        w.write_u8(0x0e);
        for v in [0, 0, (1 << 62) - 1] {
            varint::write(&mut w, v);
        }
        assert!(matches!(
            Frame::decode(&mut Reader::new(w.as_slice())),
            Err(WireError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut w = Writer::new();
        varint::write(&mut w, 0x42);
        let mut r = Reader::new(w.as_slice());
        assert_eq!(
            Frame::decode(&mut r),
            Err(WireError::UnknownFrameType(0x42))
        );
    }

    #[test]
    fn ack_eliciting_classification() {
        let one = [AckRange::new(0, 0)];
        assert!(Frame::Ping.is_ack_eliciting());
        assert!(Frame::Crypto {
            offset: 0,
            data: &[]
        }
        .is_ack_eliciting());
        assert!(Frame::HandshakeDone.is_ack_eliciting());
        assert!(!Frame::Padding { len: 1 }.is_ack_eliciting());
        assert!(!ack(&one, 0).is_ack_eliciting());
        assert!(!Frame::ConnectionClose {
            error_code: 0,
            reason: &[]
        }
        .is_ack_eliciting());
    }

    #[test]
    fn frames_iterate_a_payload_and_stop_at_the_first_error() {
        let mut w = Writer::new();
        Frame::Ping.encode(&mut w);
        Frame::Padding { len: 3 }.encode(&mut w);
        Frame::HandshakeDone.encode(&mut w);
        let frames: Vec<_> = Frames::new(w.as_slice()).collect();
        assert_eq!(
            frames,
            vec![
                Ok(Frame::Ping),
                Ok(Frame::Padding { len: 3 }),
                Ok(Frame::HandshakeDone)
            ]
        );
        w.write_u8(0x21);
        Frame::Ping.encode(&mut w);
        let frames: Vec<_> = Frames::new(w.as_slice()).collect();
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[3], Err(WireError::UnknownFrameType(0x21)));
    }

    #[test]
    fn initial_sized_padding_roundtrips() {
        let padding = Frame::Padding { len: 1_150 };
        let bytes = encode(&padding);
        assert_eq!(bytes, vec![0u8; 1_150]);
        roundtrip(&padding);
    }

    #[test]
    fn padding_run_ends_at_the_first_non_zero_byte() {
        let mut w = Writer::new();
        Frame::Padding { len: 5 }.encode(&mut w);
        Frame::Ping.encode(&mut w);
        Frame::Padding { len: 1_150 }.encode(&mut w);
        Frame::HandshakeDone.encode(&mut w);
        let frames: Vec<_> = Frames::new(w.as_slice()).collect();
        assert_eq!(
            frames,
            vec![
                Ok(Frame::Padding { len: 5 }),
                Ok(Frame::Ping),
                Ok(Frame::Padding { len: 1_150 }),
                Ok(Frame::HandshakeDone)
            ]
        );
    }

    #[test]
    fn ack_range_contains_and_len() {
        let r = AckRange::new(5, 9);
        assert_eq!(r.len(), 5);
        assert!(r.contains(5) && r.contains(9) && r.contains(7));
        assert!(!r.contains(4) && !r.contains(10));
        assert!(!r.is_empty());
    }

    proptest::proptest! {
        #[test]
        fn prop_ack_roundtrip(
            // Build random descending, disjoint ranges.
            seed_ranges in proptest::collection::vec((0u64..1000, 1u64..50), 1..8)
        ) {
            // Construct disjoint descending ranges from random (gap, len) pairs.
            let mut ranges = Vec::new();
            let mut cursor: u64 = 100_000;
            for (gap, len) in seed_ranges {
                let end = cursor.saturating_sub(gap + 2);
                let start = end.saturating_sub(len);
                if end == 0 || start == 0 { break; }
                ranges.push(AckRange::new(start, end));
                cursor = start;
            }
            proptest::prop_assume!(!ranges.is_empty());
            ranges.reverse();
            roundtrip(&ack(&ranges, 17));
        }

        #[test]
        fn prop_stream_roundtrip(
            id in 0u64..1000,
            offset in 0u64..1_000_000,
            fin in proptest::prelude::any::<bool>(),
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            roundtrip(&Frame::Stream { id, offset, fin, data: &data });
        }
    }
}
