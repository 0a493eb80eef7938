//! Streaming section reader: the one decoder of the snapshot format.
//!
//! Every region of a snapshot file — the header, the section table and each
//! section payload — decodes through a [`SectionStream`] straight off the
//! file descriptor. Loading a 100×-tier snapshot through a whole-file buffer
//! would cost three passes over ~100 MB — fault-and-fill the file buffer,
//! checksum it, then copy every array out of it — and the page faults of
//! the two 100 MB allocations would dominate boot time. The stream collapses
//! this to one pass: large arrays land **directly in their final `Vec`s**,
//! and the region's checksum is folded over each chunk right after the
//! kernel copies it in, while it is still cache-hot. Small reads (counts,
//! tags, strings) go through an internal refill buffer so the syscall count
//! stays proportional to megabytes, not fields.
//!
//! All multi-byte integers are little-endian; floats are their IEEE-754 bit
//! patterns, so persisted costs round-trip bit-exactly. Every read is
//! bounds-checked and *count-validated*: a decoded element count must fit in
//! the bytes the region has left, so a corrupted count can neither overrun
//! the region nor provoke a pathological allocation.
//!
//! The reader is generic over [`Read`] so codec unit tests drive it from an
//! in-memory cursor; the real load path hands it a `File`.

use std::io::Read;

use crate::bytes::Checksummer;
use crate::error::SnapError;

/// Refill granularity for small reads.
const BUF_BYTES: usize = 256 * 1024;
/// Direct reads are issued in slices of this size so the checksummer always
/// digests bytes that are still in cache — it must stay comfortably under
/// L2, or the fused checksum pass re-streams every byte from DRAM.
const DIRECT_CHUNK: usize = 256 * 1024;

/// Prefault a large destination buffer in one syscall before the stream
/// writes through it. A fresh multi-megabyte `Vec` is otherwise populated by
/// one 4 KiB soft fault per page — a usermode trap each — and those faults,
/// not the copy, dominate large-array loads. `MADV_POPULATE_WRITE` has the
/// kernel set up all the PTEs in a single pass. Purely advisory: failure
/// (other platforms, old kernels) costs nothing, so the result is ignored.
#[cfg(target_os = "linux")]
fn prefault(buf: &mut [u8]) {
    const MADV_POPULATE_WRITE: i32 = 23;
    const PAGE: usize = 4096;
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, length: usize, advice: i32) -> i32;
    }
    // madvise wants page-aligned addresses and malloc gives none; rounding
    // the range inward stays entirely within the allocation.
    let addr = buf.as_mut_ptr() as usize;
    let start = addr.next_multiple_of(PAGE);
    let end = (addr + buf.len()) & !(PAGE - 1);
    if end > start {
        // SAFETY: [start, end) lies inside the exclusively-borrowed live
        // allocation `buf`, and populating pages does not alter contents.
        unsafe {
            madvise(
                start as *mut std::ffi::c_void,
                end - start,
                MADV_POPULATE_WRITE,
            );
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn prefault(_buf: &mut [u8]) {}

/// View a `u64` slice as its raw bytes for reading and digesting.
///
/// SAFETY: `u64` has no padding and no invalid bit patterns, the byte view
/// covers exactly `len * 8` initialised bytes, and the exclusive borrow of
/// `v` guarantees no aliasing for the lifetime of the view. Writing arbitrary
/// bytes through the view leaves every element a valid `u64`.
fn u64s_as_bytes_mut(v: &mut [u64]) -> &mut [u8] {
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast::<u8>(), v.len() * 8) }
}

/// See [`u64s_as_bytes_mut`]; identical reasoning for `u32`.
fn u32s_as_bytes_mut(v: &mut [u32]) -> &mut [u8] {
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast::<u8>(), v.len() * 4) }
}

/// See [`u64s_as_bytes_mut`]; `f64` also accepts every bit pattern (NaN
/// payloads included), so filling from disk bytes cannot produce an invalid
/// value.
fn f64s_as_bytes_mut(v: &mut [f64]) -> &mut [u8] {
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast::<u8>(), v.len() * 8) }
}

/// Bounds-checked little-endian decoder over one region of a snapshot
/// stream. It digests every consumed byte, so [`SectionStream::digest`]
/// yields the region's checksum for free. Small reads only advance a
/// cursor; each run of them is digested in one call when the refill window
/// moves, before a direct read, or when the digest is read (the checksum
/// is streaming, so where the runs split does not change it).
#[derive(Debug)]
pub struct SectionStream<'a, R: Read> {
    inner: &'a mut R,
    /// Section bytes still in the underlying reader (not yet in `buf`).
    unread: usize,
    /// Refill buffer window: valid bytes live at `buf[pos..end]`.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    /// Consumed bytes `buf[digested..pos]` are not yet in `hasher`.
    digested: usize,
    hasher: Checksummer,
    /// Which structure this stream is decoding — reported by truncation
    /// errors.
    context: &'static str,
}

impl<'a, R: Read> SectionStream<'a, R> {
    /// Stream `len` bytes of section payload out of `inner`.
    pub fn new(inner: &'a mut R, len: usize, context: &'static str) -> Self {
        SectionStream {
            inner,
            unread: len,
            buf: vec![0u8; BUF_BYTES.min(len.max(64))],
            pos: 0,
            end: 0,
            digested: 0,
            hasher: Checksummer::new(),
            context,
        }
    }

    /// Bytes not yet consumed by the decoder.
    pub fn remaining(&self) -> usize {
        self.unread + (self.end - self.pos)
    }

    fn truncated(&self) -> SnapError {
        SnapError::Truncated {
            context: self.context,
        }
    }

    /// Digest the consumed bytes not digested yet, in one call.
    fn digest_consumed(&mut self) {
        self.hasher.update(&self.buf[self.digested..self.pos]);
        self.digested = self.pos;
    }

    /// Ensure at least `need` contiguous bytes are buffered.
    fn refill(&mut self, need: usize) -> Result<(), SnapError> {
        if self.end - self.pos >= need {
            return Ok(());
        }
        if need > self.remaining() {
            return Err(self.truncated());
        }
        // The window is about to move: the consumed run leaves the buffer.
        self.digest_consumed();
        self.digested = 0;
        if need > self.buf.len() {
            self.buf
                .resize(need.next_power_of_two().min(self.remaining().max(need)), 0);
        }
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        while self.end - self.pos < need {
            let want = (self.buf.len() - self.end).min(self.unread);
            if want == 0 {
                return Err(self.truncated());
            }
            let n = self
                .inner
                .read(&mut self.buf[self.end..self.end + want])
                .map_err(|e| SnapError::io("reading snapshot section", e))?;
            if n == 0 {
                return Err(self.truncated());
            }
            self.end += n;
            self.unread -= n;
        }
        Ok(())
    }

    /// Consume `n` bytes through the refill buffer (digested later, with
    /// the rest of their run).
    fn take(&mut self, n: usize) -> Result<&[u8], SnapError> {
        self.refill(n)?;
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    /// Fill `dst` straight from the stream (buffered bytes first), digesting
    /// each kernel-copied chunk while it is cache-hot.
    fn read_direct(&mut self, dst: &mut [u8]) -> Result<(), SnapError> {
        if dst.len() > self.remaining() {
            return Err(self.truncated());
        }
        if dst.len() >= DIRECT_CHUNK {
            prefault(dst);
        }
        self.digest_consumed();
        let buffered = (self.end - self.pos).min(dst.len());
        dst[..buffered].copy_from_slice(&self.buf[self.pos..self.pos + buffered]);
        self.hasher.update(&dst[..buffered]);
        self.pos += buffered;
        self.digested = self.pos;
        let mut filled = buffered;
        while filled < dst.len() {
            let want = (dst.len() - filled).min(DIRECT_CHUNK);
            let n = self
                .inner
                .read(&mut dst[filled..filled + want])
                .map_err(|e| SnapError::io("reading snapshot section", e))?;
            if n == 0 {
                return Err(self.truncated());
            }
            self.unread -= n;
            self.hasher.update(&dst[filled..filled + n]);
            filled += n;
        }
        Ok(())
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Validate that a count of `elem_size`-byte elements fits in the bytes
    /// the section has left, returning it as `usize`. Rejecting impossible
    /// counts up front means a corrupted length can never provoke a huge
    /// allocation.
    fn count(&self, n: u64, elem_size: usize) -> Result<usize, SnapError> {
        let n = usize::try_from(n).map_err(|_| self.truncated())?;
        match n.checked_mul(elem_size) {
            Some(total) if total <= self.remaining() => Ok(n),
            _ => Err(self.truncated()),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(self.truncated());
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Corrupt {
            context: "invalid utf-8 in string",
        })
    }

    /// Read a length-prefixed `u8` vector directly into its final buffer.
    pub fn vec_u8(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.u64()?;
        let n = self.count(n, 1)?;
        let mut v = vec![0u8; n];
        self.read_direct(&mut v)?;
        Ok(v)
    }

    /// Read a length-prefixed `u32` vector directly into its final buffer.
    pub fn vec_u32(&mut self) -> Result<Vec<u32>, SnapError> {
        let n = self.u64()?;
        self.u32s(n)
    }

    /// Read `n` unprefixed `u32`s directly into their final buffer.
    pub fn u32s(&mut self, n: u64) -> Result<Vec<u32>, SnapError> {
        let n = self.count(n, 4)?;
        let mut v = vec![0u32; n];
        self.read_direct(u32s_as_bytes_mut(&mut v))?;
        if cfg!(target_endian = "big") {
            for x in v.iter_mut() {
                *x = u32::from_le(*x);
            }
        }
        Ok(v)
    }

    /// Read a length-prefixed `u64` vector directly into its final buffer.
    pub fn vec_u64(&mut self) -> Result<Vec<u64>, SnapError> {
        let n = self.u64()?;
        let n = self.count(n, 8)?;
        let mut v = vec![0u64; n];
        self.read_direct(u64s_as_bytes_mut(&mut v))?;
        if cfg!(target_endian = "big") {
            for x in v.iter_mut() {
                *x = u64::from_le(*x);
            }
        }
        Ok(v)
    }

    /// Read a length-prefixed `f64` vector directly into its final buffer.
    pub fn vec_f64(&mut self) -> Result<Vec<f64>, SnapError> {
        let n = self.u64()?;
        let n = self.count(n, 8)?;
        let mut v = vec![0.0f64; n];
        self.read_direct(f64s_as_bytes_mut(&mut v))?;
        if cfg!(target_endian = "big") {
            for x in v.iter_mut() {
                *x = f64::from_bits(u64::from_le(x.to_bits()));
            }
        }
        Ok(v)
    }

    /// Read a count that the caller will use to loop over variable-size
    /// records, validated against a minimum per-record size.
    pub fn record_count(&mut self, min_record_size: usize) -> Result<usize, SnapError> {
        let n = self.u64()?;
        self.count(n, min_record_size.max(1))
    }

    /// Require that every section byte was consumed — trailing garbage means
    /// the payload does not parse as the structure it claims to be.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt {
                context: "trailing bytes after structure",
            })
        }
    }

    /// Digest of every byte consumed so far (the payload checksum once the
    /// section is fully decoded).
    pub fn digest(&self) -> u64 {
        let mut hasher = self.hasher.clone();
        hasher.update(&self.buf[self.digested..self.pos]);
        hasher.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::{checksum64, ByteWriter};
    use std::io::Cursor;

    /// A stream over an in-memory payload that claims all of its bytes.
    fn stream<'a>(
        cur: &'a mut Cursor<Vec<u8>>,
        context: &'static str,
    ) -> SectionStream<'a, Cursor<Vec<u8>>> {
        let len = cur.get_ref().len();
        SectionStream::new(cur, len, context)
    }

    #[test]
    fn round_trips_every_primitive_and_digests_what_it_reads() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.str("plasma membrane");
        w.vec_u8(&[9, 8, 7]);
        w.vec_u32(&[1, 2, 3]);
        w.vec_u64(&[u64::MAX, 5]);
        w.vec_f64(&[1.5, f64::INFINITY]);
        w.u32(4);
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let expect_digest = checksum64(&bytes);
        let mut cur = Cursor::new(bytes);
        let mut s = stream(&mut cur, "test");
        assert_eq!(s.u8().unwrap(), 7);
        assert_eq!(s.u16().unwrap(), 0xBEEF);
        assert_eq!(s.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(s.u64().unwrap(), u64::MAX - 1);
        assert_eq!(s.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(s.str().unwrap(), "plasma membrane");
        assert_eq!(s.vec_u8().unwrap(), vec![9, 8, 7]);
        assert_eq!(s.vec_u32().unwrap(), vec![1, 2, 3]);
        assert_eq!(s.vec_u64().unwrap(), vec![u64::MAX, 5]);
        let floats = s.vec_f64().unwrap();
        assert_eq!(floats[0], 1.5);
        assert!(floats[1].is_infinite());
        assert_eq!(s.u32s(2).unwrap(), vec![4, u32::MAX]);
        s.expect_end().unwrap();
        assert_eq!(s.digest(), expect_digest);
    }

    #[test]
    fn direct_reads_cross_the_refill_buffer_boundary() {
        // A vector far larger than the refill buffer must land intact and
        // digest identically to the one-shot checksum.
        let big: Vec<u64> = (0..1_000_000u64).map(|x| x.wrapping_mul(0x9E37)).collect();
        let mut w = ByteWriter::new();
        w.u32(41);
        w.vec_u64(&big);
        w.u32(99);
        let bytes = w.into_bytes();
        let expect_digest = checksum64(&bytes);
        let mut cur = Cursor::new(bytes);
        let mut s = stream(&mut cur, "test");
        assert_eq!(s.u32().unwrap(), 41);
        assert_eq!(s.vec_u64().unwrap(), big);
        assert_eq!(s.u32().unwrap(), 99);
        s.expect_end().unwrap();
        assert_eq!(s.digest(), expect_digest);
    }

    #[test]
    fn truncation_is_a_typed_error_not_a_panic() {
        // A read past the end of the section.
        let mut cur = Cursor::new(5u64.to_le_bytes()[..4].to_vec());
        let mut s = stream(&mut cur, "short");
        assert!(matches!(
            s.u64(),
            Err(SnapError::Truncated { context: "short" })
        ));

        // A section longer than the underlying stream truncates mid-read,
        // through the refill buffer and through a direct read alike.
        let mut cur = Cursor::new(vec![0u8; 16]);
        let mut s = SectionStream::new(&mut cur, 64, "short");
        assert!(matches!(s.u32s(16), Err(SnapError::Truncated { .. })));
        let mut cur = Cursor::new(vec![0u8; 16]);
        let mut s = SectionStream::new(&mut cur, 64, "short");
        s.u64().unwrap();
        s.u64().unwrap();
        assert!(matches!(s.u16(), Err(SnapError::Truncated { .. })));
    }

    #[test]
    fn impossible_counts_are_rejected_before_allocation() {
        // A vector claiming u64::MAX elements in a tiny section must fail
        // cleanly (no multi-exabyte allocation), prefixed or not.
        let mut w = ByteWriter::new();
        w.u64(u64::MAX);
        w.u32(1);
        let mut cur = Cursor::new(w.into_bytes());
        let mut s = stream(&mut cur, "count");
        assert!(matches!(s.vec_u32(), Err(SnapError::Truncated { .. })));
        assert!(matches!(s.u32s(u64::MAX), Err(SnapError::Truncated { .. })));
        assert!(matches!(
            s.record_count(8),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_corrupt_not_panic() {
        let mut w = ByteWriter::new();
        w.u32(2);
        w.raw(&[0xFF, 0xFE]);
        let mut cur = Cursor::new(w.into_bytes());
        let mut s = stream(&mut cur, "str");
        assert!(matches!(s.str(), Err(SnapError::Corrupt { .. })));
    }

    #[test]
    fn a_section_consumes_only_its_own_bytes() {
        // Two sections back-to-back in one stream: the first stream must
        // leave the cursor exactly at the boundary.
        let mut w = ByteWriter::new();
        w.vec_u32(&[10, 20]);
        let first_len = w.len();
        w.u64(0xFEED);
        let bytes = w.into_bytes();
        let mut cur = Cursor::new(bytes);
        let mut s = SectionStream::new(&mut cur, first_len, "first");
        assert_eq!(s.vec_u32().unwrap(), vec![10, 20]);
        s.expect_end().unwrap();
        drop(s);
        let mut s = SectionStream::new(&mut cur, 8, "second");
        assert_eq!(s.u64().unwrap(), 0xFEED);
        s.expect_end().unwrap();
    }
}
