//! Byte-level reader/writer primitives shared by all codecs.

use crate::error::WireError;

/// Cursor over an immutable byte slice with checked reads.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current offset from the start of the underlying slice.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads one byte.
    pub fn read_u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        if self.remaining() < 1 {
            return Err(WireError::UnexpectedEnd { context });
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian u16.
    pub fn read_u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        let bytes = self.read_bytes(2, context)?;
        Ok(u16::from_be_bytes([bytes[0], bytes[1]]))
    }

    /// Reads a big-endian u32.
    pub fn read_u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let bytes = self.read_bytes(4, context)?;
        Ok(u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Reads `n` bytes as a borrowed slice.
    pub fn read_bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEnd { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Returns the rest of the buffer and consumes it.
    pub fn read_rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// The unconsumed rest of the buffer, without consuming it.
    pub fn peek_rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Consumes the run of zero bytes at the cursor, however long, with one
    /// scan of the rest of the buffer, and returns its length. The scan
    /// tests eight bytes at a time, then finds the first non-zero byte.
    pub fn skip_zeros(&mut self) -> usize {
        let rest = &self.buf[self.pos..];
        let words = rest
            .chunks_exact(8)
            .take_while(|w| u64::from_ne_bytes((*w).try_into().expect("8-byte chunk")) == 0)
            .count();
        let tail = &rest[words * 8..];
        let run = words * 8 + tail.iter().position(|&b| b != 0).unwrap_or(tail.len());
        self.pos += run;
        run
    }
}

/// Growable output buffer with big-endian primitive writers.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Creates a writer with `cap` bytes of pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Creates a writer that reuses `buf`'s allocation: contents are
    /// cleared and at least `min_capacity` bytes are ensured.
    pub fn from_vec(mut buf: Vec<u8>, min_capacity: usize) -> Self {
        buf.clear();
        buf.reserve(min_capacity);
        Writer { buf }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian u16.
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u32.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends `n` zero bytes in one resize.
    pub fn write_zeros(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }

    /// Appends a byte slice verbatim.
    pub fn write_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrites a previously written big-endian u16 at byte offset `at`
    /// (for back-patching a length field after the payload is known).
    pub fn patch_u16(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the accumulated bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new();
        w.write_u8(0xab);
        w.write_u16(0x1234);
        w.write_u32(0xdead_beef);
        w.write_bytes(b"xyz");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.read_u8("t").unwrap(), 0xab);
        assert_eq!(r.read_u16("t").unwrap(), 0x1234);
        assert_eq!(r.read_u32("t").unwrap(), 0xdead_beef);
        assert_eq!(r.read_bytes(3, "t").unwrap(), b"xyz");
        assert!(r.is_empty());
    }

    #[test]
    fn reader_underflow_reports_context() {
        let mut r = Reader::new(&[0x01]);
        assert_eq!(r.read_u8("first").unwrap(), 1);
        let err = r.read_u16("second").unwrap_err();
        assert_eq!(err, WireError::UnexpectedEnd { context: "second" });
    }

    #[test]
    fn read_rest_consumes_everything() {
        let mut r = Reader::new(&[1, 2, 3, 4]);
        r.read_u8("t").unwrap();
        assert_eq!(r.read_rest(), &[2, 3, 4]);
        assert!(r.is_empty());
        assert_eq!(r.read_rest(), &[] as &[u8]);
    }

    #[test]
    fn zero_runs_write_and_skip_in_bulk() {
        let mut w = Writer::new();
        w.write_u8(7);
        w.write_zeros(1_150);
        w.write_zeros(0);
        w.write_u8(9);
        w.write_zeros(3);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 1_150 + 1 + 3);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.skip_zeros(), 0, "a non-zero byte ends the run at once");
        assert_eq!(r.read_u8("t").unwrap(), 7);
        assert_eq!(r.skip_zeros(), 1_150);
        assert_eq!(r.position(), 1 + 1_150);
        assert_eq!(r.read_u8("t").unwrap(), 9);
        assert_eq!(r.skip_zeros(), 3, "a run may end the buffer");
        assert!(r.is_empty());
        assert_eq!(r.skip_zeros(), 0);
    }

    #[test]
    fn writer_capacity_and_len() {
        let mut w = Writer::with_capacity(64);
        assert!(w.is_empty());
        w.write_bytes(&[0; 10]);
        assert_eq!(w.len(), 10);
        assert_eq!(w.as_slice().len(), 10);
    }
}
