//! Length-prefixed binary wire codec.
//!
//! Every remote-service protocol in the workspace (file server, POP,
//! quotes, registry, database) is encoded with this codec: little-endian
//! fixed-width integers, length-prefixed byte strings, and
//! count-prefixed sequences. It stands in for the ad-hoc wire formats
//! (FTP, HTTP, POP3) the paper's sentinels speak.

use std::error::Error;
use std::fmt;

/// Decoding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEnd,
    /// A byte string declared to be UTF-8 was not.
    InvalidUtf8,
    /// An enum tag was out of range.
    BadTag(u8),
    /// Trailing bytes remained after a complete decode.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd => f.write_str("unexpected end of message"),
            WireError::InvalidUtf8 => f.write_str("invalid utf-8 in string field"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl Error for WireError {}

/// Serialises values into a byte vector.
///
/// # Examples
///
/// ```
/// use afs_net::{WireReader, WireWriter};
///
/// # fn main() -> Result<(), afs_net::WireError> {
/// let mut w = WireWriter::new();
/// w.u8(3).u64(42).str("hello");
/// let bytes = w.finish();
/// let mut r = WireReader::new(&bytes);
/// assert_eq!(r.u8()?, 3);
/// assert_eq!(r.u64()?, 42);
/// assert_eq!(r.str()?, "hello");
/// r.finish()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    /// Creates an empty writer with room for `bytes`: a message whose
    /// size is known up front is encoded in one allocation.
    pub fn with_capacity(bytes: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `i64` (little-endian).
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(u8::from(v))
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Appends a count prefix for a sequence of `n` elements.
    pub fn seq(&mut self, n: usize) -> &mut Self {
        self.u32(n as u32)
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Deserialises values from a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::UnexpectedEnd);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`] if the buffer is exhausted.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`].
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`].
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `i64`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`].
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a bool.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`]; [`WireError::BadTag`] for values other
    /// than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Reads a length-prefixed byte string (borrowed).
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`].
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`], [`WireError::InvalidUtf8`].
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::InvalidUtf8)
    }

    /// Reads a sequence count prefix.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`].
    pub fn seq(&mut self) -> Result<usize, WireError> {
        Ok(self.u32()? as usize)
    }

    /// Asserts the whole buffer was consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::TrailingBytes`] if data remains.
    pub fn finish(self) -> Result<(), WireError> {
        let rest = self.buf.len() - self.pos;
        if rest == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(rest))
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = WireWriter::new();
        w.u8(7)
            .u32(1_000)
            .u64(1 << 40)
            .i64(-9)
            .bool(true)
            .bytes(b"\x00\xff")
            .str("naïve");
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().expect("u8"), 7);
        assert_eq!(r.u32().expect("u32"), 1_000);
        assert_eq!(r.u64().expect("u64"), 1 << 40);
        assert_eq!(r.i64().expect("i64"), -9);
        assert!(r.bool().expect("bool"));
        assert_eq!(r.bytes().expect("bytes"), b"\x00\xff");
        assert_eq!(r.str().expect("str"), "naïve");
        r.finish().expect("consumed");
    }

    #[test]
    fn truncated_buffer_errors() {
        let mut w = WireWriter::new();
        w.u64(5);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes[..4]);
        assert_eq!(r.u64(), Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = WireWriter::new();
        w.u8(1).u8(2);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        r.u8().expect("u8");
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn bad_bool_tag() {
        let mut r = WireReader::new(&[9]);
        assert_eq!(r.bool(), Err(WireError::BadTag(9)));
    }

    #[test]
    fn invalid_utf8_detected() {
        let mut w = WireWriter::new();
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.str(), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn seq_counts_roundtrip() {
        let mut w = WireWriter::new();
        w.seq(3);
        for i in 0..3u32 {
            w.u32(i);
        }
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        let n = r.seq().expect("seq");
        let items: Vec<u32> = (0..n).map(|_| r.u32().expect("item")).collect();
        assert_eq!(items, vec![0, 1, 2]);
    }
}
