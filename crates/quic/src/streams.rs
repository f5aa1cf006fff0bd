//! Minimal stream machinery: ordered byte streams with FIN, enough for an
//! HTTP/3-style request/response exchange (plus retransmission support).
//!
//! Send buffers keep every byte the application wrote, so a lost STREAM
//! frame is resent from its recorded offset and length instead of from a
//! copy. Receive buffers assemble frames in place by offset. Streams sit
//! in small id-sorted vectors — a connection carries a handful at most.

use crate::ack::RangeSet;
use crate::recovery::SentFrame;

/// Largest stream offset a receiver accepts beyond what the application
/// has read: a flow-control window. Data past it is dropped, which bounds
/// the reassembly buffer for any input.
const RECV_WINDOW: u64 = 16 << 20;

/// Sending half of one stream.
#[derive(Debug, Clone, Default)]
struct SendStream {
    /// Every byte written so far; stream offset = index.
    data: Vec<u8>,
    /// Bytes of `data` already packetized once.
    sent: usize,
    /// FIN requested by the application.
    fin_queued: bool,
    /// FIN has been packetized.
    fin_sent: bool,
    /// Lost frames awaiting retransmission, as (offset, len, fin). Served
    /// before fresh data, most recently lost first.
    retransmit: Vec<(u64, usize, bool)>,
}

/// Receiving half of one stream (also the crypto stream of a packet
/// number space).
#[derive(Debug, Clone, Default)]
pub(crate) struct RecvStream {
    /// Received bytes from stream offset `read` on, with zeroes where
    /// data is still missing (`received` says which bytes are real).
    buf: Vec<u8>,
    /// Stream offset of `buf[0]`: everything before it was read.
    read: u64,
    /// Byte offsets received so far.
    received: RangeSet,
    /// Contiguous end already announced to the application.
    announced: u64,
    /// Total stream length once FIN is known.
    fin_at: Option<u64>,
    /// FIN already announced to the application.
    fin_announced: bool,
}

impl RecvStream {
    /// Resets to a fresh stream, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        let (mut buf, mut received) = (
            std::mem::take(&mut self.buf),
            std::mem::take(&mut self.received),
        );
        buf.clear();
        received.clear();
        *self = RecvStream {
            buf,
            received,
            ..RecvStream::default()
        };
    }

    /// End of the contiguously received prefix.
    fn contiguous_end(&self) -> u64 {
        match self.received.as_slice().first() {
            Some(r) if r.start == 0 => r.end + 1,
            _ => 0,
        }
    }

    /// Ingests one frame's bytes at `offset`.
    pub fn on_frame(&mut self, offset: u64, data: &[u8], fin: bool) {
        let end = offset.saturating_add(data.len() as u64);
        if fin {
            self.fin_at = Some(end);
        }
        let from = offset.max(self.contiguous_end());
        if from >= end || end > self.read + RECV_WINDOW {
            return; // duplicate, or beyond the window
        }
        let lo = (from - self.read) as usize;
        let data = &data[(from - offset) as usize..];
        if self.buf.len() < lo {
            self.buf.resize(lo, 0); // out of order: zeroes up to the gap's end
        }
        // Overwrite what the buffer already spans, append the rest.
        let (within, beyond) = data.split_at(data.len().min(self.buf.len() - lo));
        self.buf[lo..lo + within.len()].copy_from_slice(within);
        self.buf.extend_from_slice(beyond);
        self.received.insert(from, end - 1);
    }

    /// Marks what arrived since the last call as announced. Returns
    /// `Some(fin_reached)` when new in-order bytes or the FIN became
    /// readable, `None` when nothing new did.
    pub fn announce(&mut self) -> Option<bool> {
        let end = self.contiguous_end();
        let fin_now = self.fin_at == Some(end) && !self.fin_announced;
        if end == self.announced && !fin_now {
            return None;
        }
        self.announced = end;
        self.fin_announced |= fin_now;
        Some(fin_now)
    }

    /// Hands the readable in-order bytes to `f` and consumes them.
    /// Returns `None` (without calling `f`) when there are none.
    pub fn consume<R>(&mut self, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let n = (self.contiguous_end().saturating_sub(self.read)) as usize;
        if n == 0 {
            return None;
        }
        let out = f(&self.buf[..n]);
        self.buf.drain(..n);
        self.read += n as u64;
        Some(out)
    }
}

/// All streams of a connection.
#[derive(Debug, Clone, Default)]
pub struct StreamSet {
    send: Vec<(u64, SendStream)>,
    recv: Vec<(u64, RecvStream)>,
}

/// The entry for `id` in an id-sorted list, created on first use.
fn entry<S: Default>(list: &mut Vec<(u64, S)>, id: u64) -> &mut S {
    let i = match list.binary_search_by_key(&id, |&(k, _)| k) {
        Ok(i) => i,
        Err(i) => {
            list.insert(i, (id, S::default()));
            i
        }
    };
    &mut list[i].1
}

impl StreamSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        StreamSet::default()
    }

    /// Resets every stream to its fresh state, keeping the buffers (and
    /// the stream entries, which a fresh stream behaves the same as).
    pub fn clear(&mut self) {
        for (_, s) in &mut self.send {
            let (mut data, mut retransmit) = (
                std::mem::take(&mut s.data),
                std::mem::take(&mut s.retransmit),
            );
            data.clear();
            retransmit.clear();
            *s = SendStream {
                data,
                retransmit,
                ..SendStream::default()
            };
        }
        for (_, r) in &mut self.recv {
            r.clear();
        }
    }

    /// Queues application data (and optionally FIN) on a stream.
    pub fn write(&mut self, id: u64, data: &[u8], fin: bool) {
        self.append(id, fin, |buf| buf.extend_from_slice(data));
    }

    /// Queues `len` copies of `byte` (and optionally FIN) on a stream,
    /// written straight into its send buffer.
    pub fn write_repeat(&mut self, id: u64, byte: u8, len: usize, fin: bool) {
        self.append(id, fin, |buf| buf.resize(buf.len() + len, byte));
    }

    fn append(&mut self, id: u64, fin: bool, write: impl FnOnce(&mut Vec<u8>)) {
        let s = entry(&mut self.send, id);
        assert!(!s.fin_queued, "write after FIN on stream {id}");
        write(&mut s.data);
        if fin {
            s.fin_queued = true;
        }
    }

    /// Whether any stream has data or FIN waiting to be packetized.
    pub fn has_pending(&self) -> bool {
        self.send.iter().any(|(_, s)| {
            s.data.len() > s.sent || !s.retransmit.is_empty() || (s.fin_queued && !s.fin_sent)
        })
    }

    /// Picks the next STREAM frame, up to `max_len` payload bytes, and
    /// returns where its bytes sit ([`StreamSet::send_data`] reads them).
    /// Retransmissions are served before fresh data, lowest stream first.
    pub fn next_frame(&mut self, max_len: usize) -> Option<SentFrame> {
        for (id, s) in self.send.iter_mut() {
            let id = *id;
            // Retransmissions first: resend the lost frame verbatim
            // (splitting if it exceeds max_len).
            if let Some((offset, len, fin)) = s.retransmit.pop() {
                if len > max_len {
                    s.retransmit
                        .push((offset + max_len as u64, len - max_len, fin));
                    return Some(SentFrame::Stream {
                        id,
                        offset,
                        len: max_len,
                        fin: false,
                    });
                }
                return Some(SentFrame::Stream {
                    id,
                    offset,
                    len,
                    fin,
                });
            }
            let unsent = s.data.len() - s.sent;
            if unsent == 0 && (!s.fin_queued || s.fin_sent) {
                continue;
            }
            let len = unsent.min(max_len);
            let offset = s.sent as u64;
            s.sent += len;
            let fin = s.fin_queued && s.sent == s.data.len();
            if fin {
                s.fin_sent = true;
            }
            return Some(SentFrame::Stream {
                id,
                offset,
                len,
                fin,
            });
        }
        None
    }

    /// The bytes of a frame [`StreamSet::next_frame`] picked.
    pub fn send_data(&self, id: u64, offset: u64, len: usize) -> &[u8] {
        let i = self
            .send
            .binary_search_by_key(&id, |&(k, _)| k)
            .expect("frame of a known stream");
        let offset = offset as usize;
        &self.send[i].1.data[offset..offset + len]
    }

    /// Re-queues a lost STREAM frame for retransmission at its original
    /// offset.
    pub fn requeue(&mut self, id: u64, offset: u64, len: usize, fin: bool) {
        let s = entry(&mut self.send, id);
        if len > 0 || fin {
            s.retransmit.push((offset, len, fin));
        }
    }

    /// Ingests a received STREAM frame. Returns `Some(fin_reached)` when
    /// it made new in-order bytes (or the FIN) readable.
    pub fn on_frame(&mut self, id: u64, offset: u64, data: &[u8], fin: bool) -> Option<bool> {
        let s = entry(&mut self.recv, id);
        s.on_frame(offset, data, fin);
        s.announce()
    }

    /// Appends the readable in-order bytes of stream `id` to `out` and
    /// returns how many there were.
    pub fn read_into(&mut self, id: u64, out: &mut Vec<u8>) -> usize {
        let Ok(i) = self.recv.binary_search_by_key(&id, |&(k, _)| k) else {
            return 0;
        };
        self.recv[i]
            .1
            .consume(|bytes| {
                out.extend_from_slice(bytes);
                bytes.len()
            })
            .unwrap_or(0)
    }

    /// Total bytes received in order on a stream.
    pub fn bytes_received(&self, id: u64) -> u64 {
        self.recv
            .binary_search_by_key(&id, |&(k, _)| k)
            .map_or(0, |i| self.recv[i].1.contiguous_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The next frame and its bytes.
    fn next(s: &mut StreamSet, max_len: usize) -> Option<(u64, u64, Vec<u8>, bool)> {
        match s.next_frame(max_len)? {
            SentFrame::Stream {
                id,
                offset,
                len,
                fin,
            } => Some((id, offset, s.send_data(id, offset, len).to_vec(), fin)),
            other => panic!("not a stream frame: {other:?}"),
        }
    }

    fn read(s: &mut StreamSet, id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        s.read_into(id, &mut out);
        out
    }

    #[test]
    fn write_then_packetize() {
        let mut s = StreamSet::new();
        s.write(0, b"hello world", true);
        assert!(s.has_pending());
        assert_eq!(next(&mut s, 5), Some((0, 0, b"hello".to_vec(), false)));
        assert_eq!(next(&mut s, 100), Some((0, 5, b" world".to_vec(), true)));
        assert!(!s.has_pending());
        assert!(s.next_frame(100).is_none());
    }

    #[test]
    fn fin_only_frame() {
        let mut s = StreamSet::new();
        s.write(4, b"", true);
        assert_eq!(next(&mut s, 100), Some((4, 0, vec![], true)));
    }

    #[test]
    fn in_order_receive_and_read() {
        let mut s = StreamSet::new();
        assert_eq!(s.on_frame(0, 0, b"abc", false), Some(false));
        assert_eq!(s.on_frame(0, 3, b"def", true), Some(true));
        assert_eq!(read(&mut s, 0), b"abcdef");
        assert!(read(&mut s, 0).is_empty());
        assert_eq!(s.bytes_received(0), 6);
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut s = StreamSet::new();
        assert_eq!(
            s.on_frame(0, 3, b"def", true),
            None,
            "gap: nothing readable"
        );
        assert!(read(&mut s, 0).is_empty());
        assert_eq!(s.on_frame(0, 0, b"abc", false), Some(true));
        assert_eq!(read(&mut s, 0), b"abcdef");
    }

    #[test]
    fn duplicate_and_overlapping_segments() {
        let mut s = StreamSet::new();
        assert_eq!(s.on_frame(0, 0, b"abcd", false), Some(false));
        assert_eq!(s.on_frame(0, 0, b"abcd", false), None, "full duplicate");
        assert_eq!(s.on_frame(0, 2, b"cdef", true), Some(true), "overlap");
        assert_eq!(read(&mut s, 0), b"abcdef");
    }

    #[test]
    fn reads_between_frames_see_each_new_prefix() {
        let mut s = StreamSet::new();
        s.on_frame(0, 0, b"ab", false);
        assert_eq!(read(&mut s, 0), b"ab");
        s.on_frame(0, 4, b"ef", true);
        s.on_frame(0, 2, b"cd", false);
        assert_eq!(read(&mut s, 0), b"cdef");
        assert_eq!(s.bytes_received(0), 6);
    }

    #[test]
    fn fin_without_data_announced_once() {
        let mut s = StreamSet::new();
        assert_eq!(s.on_frame(2, 0, b"", true), Some(true));
        assert!(read(&mut s, 2).is_empty());
        assert_eq!(s.on_frame(2, 0, b"", true), None, "fin announced once");
    }

    #[test]
    fn data_beyond_the_window_is_dropped() {
        let mut s = StreamSet::new();
        assert_eq!(s.on_frame(0, RECV_WINDOW, b"x", false), None);
        assert_eq!(s.on_frame(0, 0, b"a", false), Some(false));
        assert_eq!(read(&mut s, 0), b"a");
    }

    #[test]
    fn requeue_retransmits_lost_frame() {
        let mut s = StreamSet::new();
        s.write(0, b"abcdef", true);
        let (id, offset, data, fin) = next(&mut s, 3).unwrap(); // "abc"
        let _ = next(&mut s, 3).unwrap(); // "def" + fin
        s.requeue(id, offset, data.len(), fin); // "abc" is lost
        assert_eq!(next(&mut s, 100), Some((0, 0, b"abc".to_vec(), false)));
    }

    #[test]
    fn requeue_fin_restores_fin() {
        let mut s = StreamSet::new();
        s.write(0, b"xy", true);
        let (id, offset, data, fin) = next(&mut s, 100).unwrap();
        assert!(fin);
        s.requeue(id, offset, data.len(), fin);
        assert_eq!(next(&mut s, 100), Some((0, 0, b"xy".to_vec(), true)));
    }

    #[test]
    fn oversized_retransmission_splits_and_keeps_fin_on_the_tail() {
        let mut s = StreamSet::new();
        s.write(0, b"abcdefgh", true);
        let _ = next(&mut s, 100);
        s.requeue(0, 0, 8, true);
        assert_eq!(next(&mut s, 5), Some((0, 0, b"abcde".to_vec(), false)));
        assert_eq!(next(&mut s, 5), Some((0, 5, b"fgh".to_vec(), true)));
    }

    #[test]
    fn multiple_streams_round_robin_by_id() {
        let mut s = StreamSet::new();
        s.write(4, b"b", false);
        s.write(0, b"a", false);
        assert_eq!(next(&mut s, 100).unwrap().0, 0, "lowest id first");
    }

    #[test]
    #[should_panic(expected = "write after FIN")]
    fn write_after_fin_panics() {
        let mut s = StreamSet::new();
        s.write(0, b"a", true);
        s.write(0, b"b", false);
    }

    proptest::proptest! {
        #[test]
        fn prop_reassembly_any_order(chunks in proptest::collection::vec(
            proptest::collection::vec(proptest::prelude::any::<u8>(), 1..20), 1..10
        ), perm_seed: u64) {
            // Build the reference byte stream and its (offset, data) chunks.
            let mut offset = 0u64;
            let mut pieces = Vec::new();
            let mut reference = Vec::new();
            for c in &chunks {
                pieces.push((offset, c.clone()));
                reference.extend_from_slice(c);
                offset += c.len() as u64;
            }
            // Shuffle deterministically.
            let mut state = perm_seed.wrapping_add(1);
            for i in (1..pieces.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (state >> 33) as usize % (i + 1);
                pieces.swap(i, j);
            }
            let mut s = StreamSet::new();
            let total = reference.len() as u64;
            let mut fin_seen = false;
            let mut got = Vec::new();
            for (off, data) in &pieces {
                let is_last_piece = *off + data.len() as u64 == total;
                if let Some(fin) = s.on_frame(0, *off, data, is_last_piece) {
                    fin_seen |= fin;
                    s.read_into(0, &mut got);
                }
            }
            proptest::prop_assert_eq!(got, reference);
            proptest::prop_assert!(fin_seen);
        }
    }
}
