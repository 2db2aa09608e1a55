//! Canonical binary wire encoding.
//!
//! Messages must serialize identically on every replica because digests and
//! signatures are computed over the encoded bytes. A hand-rolled, explicit
//! little-endian encoding keeps the byte layout deterministic and independent
//! of any serializer's internal representation choices.
//!
//! Each layout is written down once, in its type's [`Wire::write`]. Exact
//! lengths come from running that same `write` against a writer whose
//! sink only counts ([`ByteCount`]), so an encode preallocates its buffer
//! in one shot and no length formula can drift from the bytes. `write` is
//! generic over the sink, so the counting pass compiles to additions and
//! the storing pass to plain appends. Every `u32`-counted list is read
//! through [`WireReader::get_count`], which holds the only check of a
//! count against the bytes left; [`write_vec`] / [`read_vec`] frame all
//! but one of them (a reply's flat results write the same shape).

use crate::error::{CommonError, Result};
use crate::ids::{Digest, ReplicaId, SeqNum, SignatureBytes};
use std::sync::Arc;

/// Types that can be written to and read from the canonical wire format.
///
/// Implementations must round-trip: `T::decode(&t.encode())? == t`.
pub trait Wire: Sized {
    /// Appends the canonical encoding of `self` to `w`: the one
    /// description of this type's byte layout.
    fn write(&self, w: &mut WireWriter<impl Sink>);

    /// Reads a value of this type from `r`.
    ///
    /// # Errors
    /// Returns [`CommonError::Codec`] if the buffer is truncated or contains
    /// an invalid tag.
    fn read(r: &mut WireReader<'_>) -> Result<Self>;

    /// Exact number of bytes [`Wire::write`] produces for `self`, counted
    /// by running `write` against a writer that stores nothing.
    fn encoded_len(&self) -> usize {
        counted_len(|w| self.write(w))
    }

    /// Convenience: encodes `self` into a fresh byte vector allocated once
    /// at its exact size — on a large batch that halves the allocator
    /// traffic growing the buffer through doublings would cost.
    fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.encoded_len());
        self.write(&mut w);
        w.into_bytes()
    }

    /// Convenience: decodes a value from `bytes`, requiring full consumption.
    ///
    /// # Errors
    /// Returns [`CommonError::Codec`] on truncation, invalid tags, or
    /// trailing bytes.
    fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = WireReader::new(bytes);
        let v = Self::read(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Where a [`WireWriter`] puts its bytes.
pub trait Sink {
    /// Takes `bytes`.
    fn put(&mut self, bytes: &[u8]);
    /// Bytes taken so far.
    fn taken(&self) -> usize;
}

// `#[inline]` on both sinks: `write` is generic, so it is compiled in
// whichever crate encodes, and a call per field across the crate boundary
// would cost more than the field.
impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    #[inline]
    fn taken(&self) -> usize {
        self.len()
    }
}

/// A sink that keeps only the number of bytes it was given.
#[derive(Debug, Default)]
pub struct ByteCount(usize);

impl Sink for ByteCount {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
    #[inline]
    fn taken(&self) -> usize {
        self.0
    }
}

/// Number of bytes `write` puts into a writer, counted without storing
/// any of them.
pub fn counted_len(write: impl FnOnce(&mut WireWriter<ByteCount>)) -> usize {
    let mut w = WireWriter::default();
    write(&mut w);
    w.len()
}

/// Append-only writer for the canonical encoding, into a byte buffer or
/// (for [`counted_len`]) a [`ByteCount`].
#[derive(Debug, Default)]
pub struct WireWriter<S: Sink = Vec<u8>> {
    sink: S,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Creates a writer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            sink: Vec::with_capacity(cap),
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.sink
    }
}

impl<S: Sink> WireWriter<S> {
    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.sink.taken()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.sink.put(&[v]);
    }

    /// Writes a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.sink.put(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.sink.put(&v.to_le_bytes());
    }

    /// Writes raw bytes with no length prefix (fixed-size fields).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.sink.put(v);
    }

    /// Writes a `u32` length prefix followed by the bytes.
    pub fn put_var_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.put_bytes(v);
    }
}

/// Cursor-style reader over canonically encoded bytes.
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

    /// Bytes remaining to be read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes consumed so far. Together with [`WireReader::window`] this
    /// lets a decoder capture the raw input region a sub-value was read
    /// from (e.g. to memoize a message's canonical bytes without
    /// re-serializing it).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// The raw input between two offsets previously observed via
    /// [`WireReader::offset`].
    ///
    /// # Panics
    /// Panics if `start..end` is out of bounds for the input.
    pub fn window(&self, start: usize, end: usize) -> &'a [u8] {
        &self.buf[start..end]
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CommonError::Codec(format!(
                "truncated input: wanted {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// Returns [`CommonError::Codec`] if the buffer is exhausted.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// Returns [`CommonError::Codec`] if the buffer is exhausted.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// Returns [`CommonError::Codec`] if the buffer is exhausted.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a fixed 32-byte array (digest-sized field).
    ///
    /// # Errors
    /// Returns [`CommonError::Codec`] if fewer than 32 bytes remain.
    pub fn get_array32(&mut self) -> Result<[u8; 32]> {
        let b = self.take(32)?;
        let mut a = [0u8; 32];
        a.copy_from_slice(b);
        Ok(a)
    }

    /// Reads a `u32`-length-prefixed byte string.
    ///
    /// # Errors
    /// Returns [`CommonError::Codec`] on truncation or an absurd length.
    pub fn get_var_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() {
            return Err(CommonError::Codec(format!(
                "length prefix {n} exceeds remaining {}",
                self.remaining()
            )));
        }
        self.take(n)
    }

    /// Reads a list's `u32` count: the one check of a count against the
    /// bytes left. Every item costs at least one byte, so a hostile count
    /// never reaches the allocator.
    ///
    /// # Errors
    /// Returns [`CommonError::Codec`] on truncation or if the count
    /// exceeds the bytes left.
    pub fn get_count(&mut self) -> Result<usize> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() {
            return Err(CommonError::Codec(format!(
                "list count {n} exceeds remaining bytes {}",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Asserts the reader consumed the entire buffer.
    ///
    /// # Errors
    /// Returns [`CommonError::Codec`] if trailing bytes remain.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(CommonError::Codec(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Writes a `u32`-counted list: the count, then each item's encoding.
/// Every list on the wire and on disk takes this one shape.
pub fn write_vec<T: Wire>(w: &mut WireWriter<impl Sink>, items: &[T]) {
    w.put_u32(items.len() as u32);
    for item in items {
        item.write(w);
    }
}

/// Reads a list written by [`write_vec`].
///
/// # Errors
/// Returns [`CommonError::Codec`] if the count exceeds the bytes left
/// (every item costs at least one, so a hostile count never reaches the
/// allocator) or if any item fails to decode.
pub fn read_vec<T: Wire>(r: &mut WireReader<'_>) -> Result<Vec<T>> {
    let n = r.get_count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(T::read(r)?);
    }
    Ok(out)
}

impl Wire for u8 {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        w.put_u8(*self);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        r.get_u8()
    }
}

impl Wire for u32 {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        w.put_u32(*self);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        r.get_u32()
    }
}

impl Wire for u64 {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        w.put_u64(*self);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        r.get_u64()
    }
}

impl Wire for Vec<u8> {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        w.put_var_bytes(self);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(r.get_var_bytes()?.to_vec())
    }
}

impl Wire for ReplicaId {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        w.put_u32(self.0);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(ReplicaId(r.get_u32()?))
    }
}

impl Wire for SeqNum {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        w.put_u64(self.0);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(SeqNum(r.get_u64()?))
    }
}

impl Wire for Digest {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        w.put_bytes(&self.0);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(Digest(r.get_array32()?))
    }
}

impl Wire for SignatureBytes {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        w.put_var_bytes(&self.0);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(SignatureBytes(r.get_var_bytes()?.to_vec()))
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        (**self).write(w);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        T::read(r).map(Arc::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        self.0.write(w);
        self.1.write(w);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        Ok((A::read(r)?, B::read(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        self.0.write(w);
        self.1.write(w);
        self.2.write(w);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        Ok((A::read(r)?, B::read(r)?, C::read(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u32(70_000);
        w.put_u64(u64::MAX);
        w.put_var_bytes(b"hello");
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_var_bytes().unwrap(), b"hello");
        assert!(r.finish().is_ok());
    }

    #[test]
    fn truncated_input_errors() {
        let mut r = WireReader::new(&[1, 2]);
        assert!(r.get_u32().is_err());
    }

    #[test]
    fn bad_length_prefix_errors() {
        // Claims 100 bytes follow but only 1 does.
        let mut w = WireWriter::new();
        w.put_u32(100);
        w.put_u8(1);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(r.get_var_bytes().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let bytes = 42u32.encode();
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(u32::decode(&bytes).is_ok());
        assert!(u32::decode(&extended).is_err());
    }

    #[test]
    fn vec_round_trip() {
        let v: Vec<u64> = vec![1, 2, 3, u64::MAX];
        let mut w = WireWriter::new();
        write_vec(&mut w, &v);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back: Vec<u64> = read_vec(&mut r).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn vec_count_overflow_guard() {
        let mut w = WireWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(read_vec::<u64>(&mut r).is_err());
    }

    #[test]
    fn encoded_len_matches_encode_for_primitives() {
        assert_eq!(7u8.encoded_len(), 7u8.encode().len());
        assert_eq!(7u32.encoded_len(), 7u32.encode().len());
        assert_eq!(7u64.encoded_len(), 7u64.encode().len());
        let v = vec![1u8, 2, 3];
        assert_eq!(v.encoded_len(), v.encode().len());
        let pairs = vec![(SeqNum(1), Digest([2; 32])), (SeqNum(3), Digest::ZERO)];
        assert_eq!(counted_len(|w| write_vec(w, &pairs)), 4 + 2 * (8 + 32));
        let mut w = WireWriter::new();
        write_vec(&mut w, &pairs);
        assert_eq!(w.len(), 4 + 2 * (8 + 32));
        let sig = Arc::new((ReplicaId(4), SignatureBytes(vec![5; 3])));
        assert_eq!(sig.encoded_len(), 4 + 4 + 3);
        assert_eq!(
            <Arc<(ReplicaId, SignatureBytes)>>::decode(&sig.encode()).unwrap(),
            sig
        );
    }

    #[test]
    fn reader_window_recovers_subrange() {
        let mut w = WireWriter::new();
        w.put_u32(1);
        w.put_u64(2);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let start = r.offset();
        r.get_u32().unwrap();
        let end = r.offset();
        assert_eq!(r.window(start, end), &bytes[..4]);
    }
}
