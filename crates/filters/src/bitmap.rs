//! Growable bitmaps with sparse compression for update summaries
//! (Section 3.1).
//!
//! Each ρ-period the data aggregator publishes a bitmap with one bit per
//! record, '1' marking records updated in the period. The paper observes
//! that with sparse-bit-string compression (\[14\], \[30\]) "the length of the
//! compressed summary is only 2 to 3 times the number of '1'-bits". Our
//! encoder delta-encodes the positions of the 1-bits with LEB128 varints
//! (2-3 bytes per set bit for databases up to hundreds of millions of
//! records) and falls back to the raw bit array when that would be smaller.

/// A growable bit vector.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap of logical length `len` (all zeros).
    pub fn new(len: usize) -> Self {
        Bitmap {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Logical length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grow to at least `len` bits (appending zeros); used when records are
    /// inserted ("for inserted records, '1'-bits are appended").
    fn grow(&mut self, len: usize) {
        if len > self.len {
            self.len = len;
            self.words.resize(len.div_ceil(64), 0);
        }
    }

    /// Set bit `idx` to 1, growing if needed.
    pub fn set(&mut self, idx: usize) {
        self.grow(idx + 1);
        self.words[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Clear bit `idx` (no-op beyond the current length).
    pub fn clear(&mut self, idx: usize) {
        if idx < self.len {
            self.words[idx / 64] &= !(1u64 << (idx % 64));
        }
    }

    /// Read bit `idx` (0 beyond the current length).
    pub fn get(&self, idx: usize) -> bool {
        idx < self.len && (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + tz)
            })
        })
    }
}

const MODE_SPARSE: u8 = 0;
const MODE_RAW: u8 = 1;

/// Compress a bitmap. The output starts with a mode byte followed by a
/// varint logical length, then either varint-encoded gaps between set bits
/// (sparse mode) or the raw words (dense fallback).
pub fn compress(bitmap: &Bitmap) -> Vec<u8> {
    let mut sparse = Vec::with_capacity(16 + bitmap.ones() * 3);
    sparse.push(MODE_SPARSE);
    write_varint(&mut sparse, bitmap.len() as u64);
    let mut prev: u64 = 0;
    for idx in bitmap.iter_ones() {
        // Gap encoding: first value is idx+1, later values are distance.
        let gap = idx as u64 + 1 - prev;
        write_varint(&mut sparse, gap);
        prev = idx as u64 + 1;
    }
    let raw_len = 1 + varint_len(bitmap.len() as u64) + bitmap.len().div_ceil(8);
    if sparse.len() <= raw_len {
        return sparse;
    }
    let mut raw = Vec::with_capacity(raw_len);
    raw.push(MODE_RAW);
    write_varint(&mut raw, bitmap.len() as u64);
    let mut byte = 0u8;
    for i in 0..bitmap.len() {
        if bitmap.get(i) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            raw.push(byte);
            byte = 0;
        }
    }
    if !bitmap.len().is_multiple_of(8) {
        raw.push(byte);
    }
    raw
}

/// The longest bitmap [`decompress`] accepts in sparse mode, in bits: what
/// a raw-mode payload filling one maximum wire frame (64 MiB,
/// `authdb_wire::DEFAULT_MAX_FRAME_LEN`) could describe. A relation past
/// 2²⁹ records could not ship a dense period's summary at all, so no
/// deployment's honest summaries declare more — while a sparse header is a
/// few bytes that would otherwise size an allocation of the sender's
/// choosing.
const MAX_SPARSE_BITS: usize = 8 * (64 << 20);

/// Decompress; `None` on malformed input. The declared length is validated
/// before anything is allocated for it: raw mode must carry exactly
/// `len.div_ceil(8)` payload bytes, sparse mode at most `MAX_SPARSE_BITS`
/// bits.
pub fn decompress(bytes: &[u8]) -> Option<Bitmap> {
    let (&mode, rest) = bytes.split_first()?;
    let mut cursor = rest;
    let len = usize::try_from(read_varint(&mut cursor)?).ok()?;
    match mode {
        MODE_SPARSE => {
            if len > MAX_SPARSE_BITS {
                return None;
            }
            let mut bitmap = Bitmap::new(len);
            let mut pos: u64 = 0;
            while !cursor.is_empty() {
                let gap = read_varint(&mut cursor)?;
                pos = pos.checked_add(gap)?;
                let idx = usize::try_from(pos.checked_sub(1)?).ok()?;
                if idx >= len {
                    return None;
                }
                bitmap.set(idx);
            }
            Some(bitmap)
        }
        MODE_RAW => {
            if cursor.len() != len.div_ceil(8) {
                return None;
            }
            let mut bitmap = Bitmap::new(len);
            for (i, &b) in cursor.iter().enumerate() {
                for bit in 0..8 {
                    if b >> bit & 1 == 1 {
                        let idx = i * 8 + bit;
                        if idx < len {
                            bitmap.set(idx);
                        }
                    }
                }
            }
            Some(bitmap)
        }
        _ => None,
    }
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

fn read_varint(cursor: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&b, rest) = cursor.split_first()?;
        *cursor = rest;
        if shift >= 64 {
            return None;
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::new(100);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(99);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(99));
        assert!(!b.get(1) && !b.get(100));
        b.clear(63);
        assert!(!b.get(63));
        assert_eq!(b.ones(), 3);
    }

    #[test]
    fn grows_on_set() {
        let mut b = Bitmap::new(10);
        b.set(1000);
        assert_eq!(b.len(), 1001);
        assert!(b.get(1000));
    }

    #[test]
    fn iter_ones_ascending() {
        let mut b = Bitmap::new(300);
        let idxs = [5usize, 64, 65, 128, 255, 299];
        for &i in &idxs {
            b.set(i);
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), idxs);
    }

    #[test]
    fn compress_round_trip_sparse() {
        let mut b = Bitmap::new(1_000_000);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            b.set(rng.gen_range(0..1_000_000));
        }
        let compressed = compress(&b);
        assert_eq!(decompress(&compressed).unwrap(), b);
    }

    #[test]
    fn compress_round_trip_dense() {
        let mut b = Bitmap::new(4096);
        for i in 0..4096 {
            if i % 2 == 0 {
                b.set(i);
            }
        }
        let compressed = compress(&b);
        assert_eq!(decompress(&compressed).unwrap(), b);
        // Dense bitmap must take the raw path: ~len/8 bytes, not 2-3 B/one.
        assert!(compressed.len() <= 4096 / 8 + 16);
    }

    #[test]
    fn sparse_compression_is_2_to_3_bytes_per_one() {
        // The paper's claim: compressed length ~ 2-3x the number of 1-bits.
        let mut b = Bitmap::new(1_000_000);
        let mut rng = StdRng::seed_from_u64(9);
        let ones = 1000;
        let mut set = std::collections::BTreeSet::new();
        while set.len() < ones {
            set.insert(rng.gen_range(0..1_000_000usize));
        }
        for &i in &set {
            b.set(i);
        }
        let compressed = compress(&b);
        let per_one = compressed.len() as f64 / ones as f64;
        assert!(
            (1.0..=3.0).contains(&per_one),
            "bytes per 1-bit = {per_one}"
        );
    }

    #[test]
    fn empty_bitmap_round_trip() {
        let b = Bitmap::new(0);
        assert_eq!(decompress(&compress(&b)).unwrap(), b);
        let b = Bitmap::new(123);
        assert_eq!(decompress(&compress(&b)).unwrap(), b);
    }

    #[test]
    fn decompress_rejects_garbage() {
        assert!(decompress(&[]).is_none());
        assert!(decompress(&[9, 1]).is_none()); // unknown mode
        assert!(decompress(&[MODE_RAW, 200, 1]).is_none()); // wrong payload len
    }

    #[test]
    fn decompress_validates_declared_length_before_allocating() {
        // Header only: mode byte + a varint declaring 2^62 bits. Allocating
        // for it would abort the process; both modes must refuse instead.
        for mode in [MODE_SPARSE, MODE_RAW] {
            let mut forged = vec![mode];
            write_varint(&mut forged, 1 << 62);
            assert_eq!(forged.len(), 10);
            assert!(decompress(&forged).is_none());
            // ...also with a byte of payload behind it (the 11-byte form).
            forged.push(1);
            assert!(decompress(&forged).is_none());
        }
        // The sparse cap is exact: the largest legal length round-trips,
        // one bit more is refused.
        let mut at_cap = vec![MODE_SPARSE];
        write_varint(&mut at_cap, MAX_SPARSE_BITS as u64);
        assert_eq!(decompress(&at_cap).map(|b| b.len()), Some(MAX_SPARSE_BITS));
        let mut past_cap = vec![MODE_SPARSE];
        write_varint(&mut past_cap, MAX_SPARSE_BITS as u64 + 1);
        assert!(decompress(&past_cap).is_none());
    }

    #[test]
    fn decompress_rejects_zero_and_overflowing_gaps() {
        // A zero first gap names bit -1; a gap sum past u64::MAX wraps.
        // Both were arithmetic overflows (debug panic / release wrap).
        assert!(decompress(&[MODE_SPARSE, 8, 0]).is_none());
        let mut wrap = vec![MODE_SPARSE, 8, 1];
        write_varint(&mut wrap, u64::MAX);
        assert!(decompress(&wrap).is_none());
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v).max(1));
            let mut cur = buf.as_slice();
            assert_eq!(read_varint(&mut cur), Some(v));
            assert!(cur.is_empty());
        }
    }
}
