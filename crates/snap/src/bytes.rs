//! The little-endian encoder and the folded 64-bit checksum.
//!
//! All multi-byte integers are little-endian; floats are stored as their
//! IEEE-754 bit patterns (`f64::to_bits`), so persisted costs and scores
//! round-trip bit-exactly. Vectors are a `u64` element count followed by the
//! raw elements. [`crate::stream::SectionStream`] is the matching decoder.

/// Folded 64-bit content checksum.
///
/// A plain byte-at-a-time CRC32 runs near 1 GB/s — ~130 ms over a 100×-tier
/// snapshot, more than the entire boot budget. This checksum instead runs
/// **four interleaved CRC-32C lanes** (lane *i* digests the *i*-th 8-byte
/// word of every 32-byte chunk, so the three-cycle CRC latencies overlap)
/// and folds the lanes together with the total length at the end. On x86-64
/// the lanes use the SSE 4.2 `crc32` instruction — the same hardware path
/// storage engines use for block checksums — and elsewhere a table-driven
/// CRC-32C computes the identical digest, so files are portable across
/// hosts. Detection, not cryptography: any single truncation or bit flip
/// changes the digest, which is all the corruption property tests (and a
/// storage-integrity check) need.
pub fn checksum64(data: &[u8]) -> u64 {
    let mut h = Checksummer::new();
    h.update(data);
    h.finalize()
}

const MUL: u64 = 0x0000_0100_0000_01B3;
const SEEDS: [u64; 4] = [
    0xcbf2_9ce4_8422_2325,
    0x9e37_79b9_7f4a_7c15,
    0xd6e8_feb8_6659_fd93,
    0xa076_1d64_78bd_642f,
];

/// Slicing-by-8 lookup tables for the reflected CRC-32C (Castagnoli)
/// polynomial — the software twin of the SSE 4.2 `crc32` instruction.
const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

/// One CRC-32C step over an 8-byte word, software path. Bit-identical to
/// `_mm_crc32_u64(crc, word)`.
#[inline]
fn crc32c_u64_sw(crc: u32, word: u64) -> u32 {
    let x = word ^ crc as u64;
    let b = x.to_le_bytes();
    CRC32C_TABLES[7][b[0] as usize]
        ^ CRC32C_TABLES[6][b[1] as usize]
        ^ CRC32C_TABLES[5][b[2] as usize]
        ^ CRC32C_TABLES[4][b[3] as usize]
        ^ CRC32C_TABLES[3][b[4] as usize]
        ^ CRC32C_TABLES[2][b[5] as usize]
        ^ CRC32C_TABLES[1][b[6] as usize]
        ^ CRC32C_TABLES[0][b[7] as usize]
}

#[cfg(target_arch = "x86_64")]
fn crc32c_hw_available() -> bool {
    std::arch::is_x86_feature_detected!("sse4.2")
}

/// Digest full 32-byte chunks with the hardware `crc32` instruction.
/// Returns the number of bytes consumed.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn mix_chunks_hw(lanes: &mut [u64; 4], data: &[u8]) -> usize {
    use core::arch::x86_64::_mm_crc32_u64;
    let mut consumed = 0;
    for chunk in data.chunks_exact(32) {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let word = u64::from_le_bytes(chunk[i * 8..i * 8 + 8].try_into().expect("8-byte lane"));
            *lane = _mm_crc32_u64(*lane, word);
        }
        consumed += 32;
    }
    consumed
}

/// Digest full 32-byte chunks with the table-driven CRC-32C. Returns the
/// number of bytes consumed.
fn mix_chunks_sw(lanes: &mut [u64; 4], data: &[u8]) -> usize {
    let mut consumed = 0;
    for chunk in data.chunks_exact(32) {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let word = u64::from_le_bytes(chunk[i * 8..i * 8 + 8].try_into().expect("8-byte lane"));
            *lane = crc32c_u64_sw(*lane as u32, word) as u64;
        }
        consumed += 32;
    }
    consumed
}

fn mix_chunks(lanes: &mut [u64; 4], data: &[u8]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if crc32c_hw_available() {
        // SAFETY: the sse4.2 feature was just verified at runtime.
        return unsafe { mix_chunks_hw(lanes, data) };
    }
    mix_chunks_sw(lanes, data)
}

/// Incremental [`checksum64`]: feeding the same bytes through any sequence
/// of [`Checksummer::update`] calls yields the same digest as one-shot
/// `checksum64` over their concatenation.
///
/// The streaming read path depends on this: section payloads are digested
/// chunk-by-chunk as they come off the file descriptor — while still
/// cache-hot — instead of in a second full pass over a 100 MB buffer.
#[derive(Debug, Clone)]
pub struct Checksummer {
    lanes: [u64; 4],
    /// Bytes carried between `update` calls until a full 32-byte chunk
    /// accumulates.
    pending: [u8; 32],
    pending_len: usize,
    total: u64,
}

impl Checksummer {
    /// Fresh digest state.
    pub fn new() -> Self {
        Checksummer {
            lanes: SEEDS,
            pending: [0u8; 32],
            pending_len: 0,
            total: 0,
        }
    }

    /// Absorb more bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total += data.len() as u64;
        if self.pending_len > 0 {
            let take = (32 - self.pending_len).min(data.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&data[..take]);
            self.pending_len += take;
            data = &data[take..];
            if self.pending_len < 32 {
                return;
            }
            let full = self.pending;
            mix_chunks(&mut self.lanes, &full);
            self.pending_len = 0;
        }
        let consumed = mix_chunks(&mut self.lanes, data);
        let rem = &data[consumed..];
        self.pending[..rem.len()].copy_from_slice(rem);
        self.pending_len = rem.len();
    }

    /// Digest of everything absorbed so far. Does not consume the state, so
    /// a caller may keep feeding bytes afterwards, but the padded remainder
    /// chunk means digests are only comparable at identical byte counts.
    pub fn finalize(&self) -> u64 {
        let mut lanes = self.lanes;
        if self.pending_len > 0 {
            let mut tail = [0u8; 32];
            tail[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
            mix_chunks(&mut lanes, &tail);
        }
        let mut h = self.total.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for (i, lane) in lanes.iter().enumerate() {
            h = (h ^ lane.rotate_left(i as u32 * 7))
                .wrapping_mul(MUL)
                .rotate_left(29);
        }
        h
    }
}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Empty writer with `capacity` bytes pre-allocated (section payloads
    /// size this from the in-memory accounting, e.g. [`q_graph::Csr`]'s
    /// `byte_size`).
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append raw bytes with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed string (`u32` byte length + UTF-8 bytes).
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed `u8` vector.
    pub fn vec_u8(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed `u32` vector.
    pub fn vec_u32(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        for x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Append a length-prefixed `u64` vector.
    pub fn vec_u64(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Append a length-prefixed `f64` vector (bit patterns).
    pub fn vec_f64(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for x in v {
            self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_detects_flips_truncation_and_extension() {
        let data: Vec<u8> = (0..1000u32).flat_map(|x| x.to_le_bytes()).collect();
        let base = checksum64(&data);
        // Any single-bit flip anywhere changes the digest.
        for pos in [0, 7, 31, 32, 999, data.len() - 1] {
            let mut flipped = data.clone();
            flipped[pos] ^= 1;
            assert_ne!(checksum64(&flipped), base, "flip at {pos} undetected");
        }
        // Truncation and zero-extension change it too.
        assert_ne!(checksum64(&data[..data.len() - 1]), base);
        let mut extended = data.clone();
        extended.push(0);
        assert_ne!(checksum64(&extended), base);
        // Empty and tiny inputs are well-defined and distinct.
        assert_ne!(checksum64(&[]), checksum64(&[0]));
        assert_ne!(checksum64(&[0]), checksum64(&[0, 0]));
    }

    #[test]
    fn streaming_checksum_matches_one_shot_at_any_split() {
        let data: Vec<u8> = (0..4099u32)
            .map(|x| (x.wrapping_mul(31) >> 3) as u8)
            .collect();
        let expect = checksum64(&data);
        // Split points chosen to land inside, on, and across the 32-byte
        // chunk boundary, plus degenerate empty updates.
        for splits in [
            vec![0, 0, 4099],
            vec![1, 31, 32, 33, 4002],
            vec![32, 32, 32, 4003],
            vec![17, 17, 17, 4048],
            vec![4099],
            vec![4098, 1],
        ] {
            assert_eq!(splits.iter().sum::<usize>(), data.len());
            let mut h = Checksummer::new();
            let mut at = 0;
            for s in splits {
                h.update(&data[at..at + s]);
                at += s;
            }
            assert_eq!(h.finalize(), expect);
        }
    }

    /// Files written on an SSE 4.2 host must verify on a host without it:
    /// the hardware and table-driven CRC-32C lanes have to compute the same
    /// function, bit for bit.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_and_software_crc_lanes_agree() {
        if !crc32c_hw_available() {
            return; // nothing to compare against on this host
        }
        let data: Vec<u8> = (0..4096u32)
            .flat_map(|x| x.wrapping_mul(0x9E37_79B9).to_le_bytes())
            .collect();
        for len in [32, 64, 96, 4096, data.len()] {
            let mut hw = SEEDS;
            let mut sw = SEEDS;
            // SAFETY: sse4.2 presence was checked above.
            let ch = unsafe { mix_chunks_hw(&mut hw, &data[..len]) };
            let cs = mix_chunks_sw(&mut sw, &data[..len]);
            assert_eq!(ch, cs);
            assert_eq!(hw, sw, "lane divergence at {len} bytes");
        }
        // And per-word: every byte pattern through both single steps.
        use core::arch::x86_64::_mm_crc32_u64;
        for word in [
            0u64,
            1,
            u64::MAX,
            0x0123_4567_89AB_CDEF,
            0x8000_0000_0000_0001,
        ] {
            for crc in [0u32, 1, 0xFFFF_FFFF, 0xDEAD_BEEF] {
                let hw = unsafe { _mm_crc32_u64(crc as u64, word) };
                assert_eq!(hw, crc32c_u64_sw(crc, word) as u64);
            }
        }
    }

    #[test]
    fn checksum_is_deterministic() {
        let data = b"the same bytes always digest the same".to_vec();
        assert_eq!(checksum64(&data), checksum64(&data.clone()));
    }
}
