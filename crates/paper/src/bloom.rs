//! Bloom filters (Section 2.1).
//!
//! An `m`-bit filter with `k` hash functions over a set of `b` keys has
//! false-positive rate `FP ≈ (1 - e^(-kb/m))^k` (formula 1), minimized at
//! `k = (m/b)·ln 2` where `FP = 0.6185^(m/b)`. The `k` indices are derived
//! by double hashing from a SHA-256 digest, so the filter contents are a
//! deterministic function of the key set — a property the certified join
//! filters rely on (the DA and the verifier must agree bit-for-bit).

use authdb_crypto::sha256::Sha256;

/// A fixed-size Bloom filter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m: usize,
    k: u32,
}

impl BloomFilter {
    /// Create an empty filter with `m` bits and `k` hash functions.
    ///
    /// # Panics
    /// Panics if `m == 0` or `k == 0`.
    pub fn new(m: usize, k: u32) -> Self {
        assert!(m > 0, "filter must have at least one bit");
        assert!(k > 0, "filter must use at least one hash");
        BloomFilter {
            bits: vec![0u64; m.div_ceil(64)],
            m,
            k,
        }
    }

    /// Create an empty filter sized for `b` keys at `bits_per_key` bits each,
    /// with the optimal hash count `k = bits_per_key·ln 2` (the paper's
    /// `m = 8·I_B ⇒ FP = 0.0216` configuration uses `bits_per_key = 8`).
    pub fn with_bits_per_key(b: usize, bits_per_key: f64) -> Self {
        let m = ((b.max(1) as f64) * bits_per_key).ceil() as usize;
        let k = ((bits_per_key * std::f64::consts::LN_2).round() as u32).max(1);
        Self::new(m.max(1), k)
    }

    /// Number of bits `m`.
    pub fn bit_len(&self) -> usize {
        self.m
    }

    /// Number of hash functions `k`.
    pub fn hash_count(&self) -> u32 {
        self.k
    }

    /// Size of the bit array in bytes (the `m/8` term of formula 3).
    pub fn byte_len(&self) -> usize {
        self.m.div_ceil(8)
    }

    /// Number of set bits.
    pub fn ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn index_pair(&self, key: &[u8]) -> (u64, u64) {
        let mut h = Sha256::new();
        h.update(b"authdb-bloom:");
        h.update(key);
        let [a0, a1, a2, a3, a4, a5, a6, a7, b0, b1, b2, b3, b4, b5, b6, b7, ..] = h.finalize();
        let h1 = u64::from_be_bytes([a0, a1, a2, a3, a4, a5, a6, a7]);
        let h2 = u64::from_be_bytes([b0, b1, b2, b3, b4, b5, b6, b7]);
        // Force h2 odd so the double-hash probe sequence cycles well.
        (h1, h2 | 1)
    }

    /// Insert a key.
    pub fn insert(&mut self, key: &[u8]) {
        let (h1, h2) = self.index_pair(key);
        for i in 0..self.k as u64 {
            let idx = (h1.wrapping_add(i.wrapping_mul(h2)) % self.m as u64) as usize;
            self.bits[idx / 64] |= 1u64 << (idx % 64);
        }
    }

    /// Membership check: `false` means certainly absent; `true` means
    /// present with probability `1 - FP`. The join verifier probes filters
    /// a server shipped, so a bit past the array reads as set: such a filter
    /// can never prove an absence.
    pub fn contains(&self, key: &[u8]) -> bool {
        let (h1, h2) = self.index_pair(key);
        (0..self.k as u64).all(|i| {
            let idx = (h1.wrapping_add(i.wrapping_mul(h2)) % self.m as u64) as usize;
            self.bits
                .get(idx / 64)
                .is_none_or(|w| w >> (idx % 64) & 1 == 1)
        })
    }

    /// Theoretical false-positive rate for `b` inserted keys (formula 1).
    pub fn expected_fp_rate(m: usize, k: u32, b: usize) -> f64 {
        (1.0 - (-(k as f64) * b as f64 / m as f64).exp()).powi(k as i32)
    }

    /// Canonical byte serialization (header + packed bits); this is the
    /// message the data aggregator certifies.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.bits.len() * 8);
        out.extend_from_slice(&(self.m as u64).to_be_bytes());
        out.extend_from_slice(&self.k.to_be_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Parse a serialized filter; `None` on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 12 {
            return None;
        }
        let m = u64::from_be_bytes(bytes[0..8].try_into().ok()?) as usize;
        let k = u32::from_be_bytes(bytes[8..12].try_into().ok()?);
        if m == 0 || k == 0 {
            return None;
        }
        let words = m.div_ceil(64);
        if bytes.len() != 12 + words * 8 {
            return None;
        }
        let bits = bytes[12..]
            .chunks_exact(8)
            .map(|c| u64::from_be_bytes(c.try_into().expect("8 bytes")))
            .collect();
        Some(BloomFilter { bits, m, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_bits_per_key(1000, 8.0);
        for i in 0..1000u64 {
            f.insert(&i.to_be_bytes());
        }
        for i in 0..1000u64 {
            assert!(f.contains(&i.to_be_bytes()), "false negative for {i}");
        }
    }

    #[test]
    fn fp_rate_close_to_theory() {
        let b = 4096;
        let mut f = BloomFilter::with_bits_per_key(b, 8.0);
        for i in 0..b as u64 {
            f.insert(&i.to_be_bytes());
        }
        let trials = 20_000u64;
        let fps = (0..trials)
            .filter(|i| f.contains(&(i + 1_000_000).to_be_bytes()))
            .count();
        let observed = fps as f64 / trials as f64;
        let expected = BloomFilter::expected_fp_rate(f.bit_len(), f.hash_count(), b);
        // The paper's configuration: FP = 0.6185^8 = 0.0216.
        assert!(
            (observed - expected).abs() < 0.015,
            "observed {observed:.4} vs expected {expected:.4}"
        );
    }

    #[test]
    fn paper_fp_configuration() {
        // m/b = 8, optimal k: FP must be about 0.0216 (Section 3.5).
        let f = BloomFilter::with_bits_per_key(1000, 8.0);
        let fp = BloomFilter::expected_fp_rate(f.bit_len(), f.hash_count(), 1000);
        assert!((fp - 0.0216).abs() < 0.005, "FP = {fp}");
    }

    #[test]
    fn serialization_round_trip() {
        let mut f = BloomFilter::new(777, 5);
        for i in 0..100u64 {
            f.insert(&i.to_be_bytes());
        }
        let bytes = f.to_bytes();
        assert_eq!(BloomFilter::from_bytes(&bytes).unwrap(), f);
    }

    #[test]
    fn from_bytes_rejects_malformed() {
        assert!(BloomFilter::from_bytes(&[]).is_none());
        assert!(BloomFilter::from_bytes(&[0u8; 11]).is_none());
        let f = BloomFilter::new(64, 3);
        let mut bytes = f.to_bytes();
        bytes.push(0); // wrong length
        assert!(BloomFilter::from_bytes(&bytes).is_none());
    }

    #[test]
    fn deterministic_across_instances() {
        let build = || {
            let mut f = BloomFilter::new(512, 4);
            for i in [3u64, 1, 4, 1, 5, 9, 2, 6] {
                f.insert(&i.to_be_bytes());
            }
            f
        };
        assert_eq!(build().to_bytes(), build().to_bytes());
    }

    #[test]
    fn byte_len_matches_formula() {
        let f = BloomFilter::new(8000, 6);
        assert_eq!(f.byte_len(), 1000);
    }
}
