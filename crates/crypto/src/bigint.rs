//! Arbitrary-precision unsigned integer arithmetic.
//!
//! This is the number-theoretic substrate for the Condensed-RSA baseline
//! and for deriving BN254 pairing constants. Limbs are little-endian `u64`s
//! with no trailing zero limbs (canonical form). Division is Knuth's
//! Algorithm D; modular exponentiation uses Montgomery multiplication for odd
//! moduli and falls back to divide-based reduction otherwise.

use std::cmp::Ordering;
use std::fmt;

/// Arbitrary-precision unsigned integer (little-endian `u64` limbs).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Construct from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Construct from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = BigUint {
            limbs: vec![lo, hi],
        };
        n.normalize();
        n
    }

    /// Construct from little-endian limbs (normalizing trailing zeros).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Borrow the little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Construct from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        Self::from_limbs(limbs)
    }

    /// Big-endian byte representation without leading zeros (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Big-endian bytes left-padded to exactly `len` bytes.
    ///
    /// # Panics
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parse from a hexadecimal string (no `0x` prefix required; accepts one).
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.is_empty() {
            return None;
        }
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let chars: Vec<u8> = s.bytes().collect();
        let mut idx = 0;
        if chars.len() % 2 == 1 {
            bytes.push(hex_val(chars[0])?);
            idx = 1;
        }
        while idx < chars.len() {
            bytes.push(hex_val(chars[idx])? << 4 | hex_val(chars[idx + 1])?);
            idx += 2;
        }
        Some(Self::from_bytes_be(&bytes))
    }

    /// Parse from a decimal string.
    pub fn from_dec(s: &str) -> Option<Self> {
        let mut acc = BigUint::zero();
        let ten = BigUint::from_u64(10);
        for ch in s.bytes() {
            if !ch.is_ascii_digit() {
                return None;
            }
            acc = acc.mul(&ten).add(&BigUint::from_u64((ch - b'0') as u64));
        }
        Some(acc)
    }

    /// Lowercase hexadecimal representation (no prefix, "0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Decimal representation.
    pub fn to_dec(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        let billion = BigUint::from_u64(1_000_000_000);
        while !cur.is_zero() {
            let (q, r) = cur.divrem(&billion);
            digits.push(r.as_u64());
            cur = q;
        }
        let mut s = format!("{}", digits.pop().unwrap());
        while let Some(d) = digits.pop() {
            s.push_str(&format!("{d:09}"));
        }
        s
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the low bit is set.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|&l| l & 1 == 1)
    }

    /// Low 64 bits (0 for zero).
    pub fn as_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (false beyond the top bit).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Comparison.
    pub fn cmp_to(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Vec::with_capacity(longer.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..longer.limbs.len() {
            let b = shorter.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = longer.limbs[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        Self::from_limbs(out)
    }

    /// `self - other`.
    ///
    /// # Panics
    /// Panics if `other > self`.
    pub fn sub(&self, other: &Self) -> Self {
        assert!(
            self.cmp_to(other) != Ordering::Less,
            "BigUint::sub would underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        Self::from_limbs(out)
    }

    /// `self * other` (schoolbook multiplication).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = a as u128 * b as u128 + out[i + j] as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        Self::from_limbs(out)
    }

    /// `self << n` bits.
    pub fn shl(&self, n: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &limb in &self.limbs {
                out.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Self::from_limbs(out)
    }

    /// `self >> n` bits.
    pub fn shr(&self, n: usize) -> Self {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = n % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        Self::from_limbs(out)
    }

    /// Quotient and remainder of `self / divisor` (Knuth Algorithm D).
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn divrem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp_to(divisor) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = Vec::with_capacity(self.limbs.len());
            let mut rem = 0u128;
            for &limb in self.limbs.iter().rev() {
                let cur = (rem << 64) | limb as u128;
                q.push((cur / d as u128) as u64);
                rem = cur % d as u128;
            }
            q.reverse();
            return (Self::from_limbs(q), Self::from_u64(rem as u64));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0);
        let vn = &v.limbs;
        let mut q = vec![0u64; m + 1];
        let v_top = vn[n - 1] as u128;
        let v_next = vn[n - 2] as u128;

        for j in (0..=m).rev() {
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = num / v_top;
            let mut rhat = num % v_top;
            while qhat >= 1u128 << 64 || qhat * v_next > ((rhat << 64) | un[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v_top;
                if rhat >= 1u128 << 64 {
                    break;
                }
            }
            // Multiply-subtract qhat * v from un[j..j+n+1].
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[i + j] as i128 - (p as u64) as i128 + borrow;
                un[i + j] = t as u64;
                borrow = t >> 64;
            }
            let t = un[j + n] as i128 - carry as i128 + borrow;
            un[j + n] = t as u64;
            if t < 0 {
                // qhat was one too large: add back.
                qhat -= 1;
                let mut c = 0u128;
                for i in 0..n {
                    let s = un[i + j] as u128 + vn[i] as u128 + c;
                    un[i + j] = s as u64;
                    c = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(c as u64);
            }
            q[j] = qhat as u64;
        }
        let rem = Self::from_limbs(un[..n].to_vec()).shr(shift);
        (Self::from_limbs(q), rem)
    }

    /// `self mod m`.
    pub fn rem(&self, m: &Self) -> Self {
        self.divrem(m).1
    }

    /// `(self - other) mod m` (inputs assumed < m).
    pub fn sub_mod(&self, other: &Self, m: &Self) -> Self {
        if self.cmp_to(other) == Ordering::Less {
            self.add(m).sub(other)
        } else {
            self.sub(other)
        }
    }

    /// `(self * other) mod m`.
    pub fn mul_mod(&self, other: &Self, m: &Self) -> Self {
        self.mul(other).rem(m)
    }

    /// `self^exp mod m`. Uses Montgomery exponentiation for odd `m`.
    pub fn modexp(&self, exp: &Self, m: &Self) -> Self {
        assert!(!m.is_zero(), "modexp modulus is zero");
        if m.is_one() {
            return Self::zero();
        }
        if m.is_odd() {
            return Montgomery::new(m).pow(self, exp);
        }
        // Fallback: plain square-and-multiply with divide-based reduction.
        let mut base = self.rem(m);
        let mut result = Self::one();
        for i in 0..exp.bits() {
            if exp.bit(i) {
                result = result.mul_mod(&base, m);
            }
            base = base.mul_mod(&base, m);
        }
        result
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &Self) -> Self {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let mut shift = 0;
        while !a.is_odd() && !b.is_odd() {
            a = a.shr(1);
            b = b.shr(1);
            shift += 1;
        }
        while !a.is_odd() {
            a = a.shr(1);
        }
        loop {
            while !b.is_odd() {
                b = b.shr(1);
            }
            if a.cmp_to(&b) == Ordering::Greater {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                return a.shl(shift);
            }
        }
    }

    /// Modular inverse of `self` modulo `m`, if it exists.
    pub fn modinv(&self, m: &Self) -> Option<Self> {
        // Extended Euclid with signed coefficients tracked as (sign, magnitude).
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        let mut t0 = (false, Self::zero()); // coefficient of m
        let mut t1 = (false, Self::one()); // coefficient of self
        while !r1.is_zero() {
            let (q, r2) = r0.divrem(&r1);
            let qt1 = q.mul(&t1.1);
            // t2 = t0 - q*t1 (signed arithmetic)
            let t2 = signed_sub(&t0, &(t1.0, qt1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        let (neg, mag) = t0;
        let mag = mag.rem(m);
        Some(if neg && !mag.is_zero() {
            m.sub(&mag)
        } else {
            mag
        })
    }

    /// Miller-Rabin probabilistic primality test with `rounds` random bases.
    pub fn is_probable_prime(&self, rounds: usize, rng: &mut impl rand::Rng) -> bool {
        if self.is_zero() || self.is_one() {
            return false;
        }
        const SMALL_PRIMES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
        for &p in &SMALL_PRIMES {
            let bp = Self::from_u64(p);
            match self.cmp_to(&bp) {
                Ordering::Equal => return true,
                Ordering::Less => return false,
                Ordering::Greater => {
                    if self.rem(&bp).is_zero() {
                        return false;
                    }
                }
            }
        }
        let one = Self::one();
        let n_minus_1 = self.sub(&one);
        let mut d = n_minus_1.clone();
        let mut s = 0usize;
        while !d.is_odd() {
            d = d.shr(1);
            s += 1;
        }
        let mont = Montgomery::new(self);
        'witness: for _ in 0..rounds {
            let a = Self::random_below(&n_minus_1, rng).add(&one); // in [1, n-1]
            if a.is_one() || a.cmp_to(&n_minus_1) == Ordering::Equal {
                continue;
            }
            let mut x = mont.pow(&a, &d);
            if x.is_one() || x.cmp_to(&n_minus_1) == Ordering::Equal {
                continue;
            }
            for _ in 0..s - 1 {
                x = x.mul_mod(&x, self);
                if x.cmp_to(&n_minus_1) == Ordering::Equal {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Uniform random value in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn random_below(bound: &Self, rng: &mut impl rand::Rng) -> Self {
        assert!(!bound.is_zero(), "random_below(0)");
        let bits = bound.bits();
        loop {
            let candidate = Self::random_bits(bits, rng);
            if candidate.cmp_to(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Uniform random value with at most `bits` bits.
    pub fn random_bits(bits: usize, rng: &mut impl rand::Rng) -> Self {
        let limbs = bits.div_ceil(64);
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
        let extra = limbs * 64 - bits;
        if extra > 0 {
            if let Some(top) = v.last_mut() {
                *top &= u64::MAX >> extra;
            }
        }
        Self::from_limbs(v)
    }

    /// Generate a random probable prime with exactly `bits` bits.
    pub fn gen_prime(bits: usize, rng: &mut impl rand::Rng) -> Self {
        assert!(bits >= 2, "prime must have at least 2 bits");
        loop {
            let mut candidate = Self::random_bits(bits, rng);
            // Force the top bit (exact bit length) and low bit (odd).
            candidate = candidate
                .add(&Self::one().shl(bits - 1))
                .rem(&Self::one().shl(bits));
            if candidate.bits() < bits {
                continue;
            }
            if !candidate.is_odd() {
                candidate = candidate.add(&Self::one());
                if candidate.bits() > bits {
                    continue;
                }
            }
            if candidate.is_probable_prime(24, rng) {
                return candidate;
            }
        }
    }
}

/// `a - b` on (sign, magnitude) pairs; `true` sign means negative.
fn signed_sub(a: &(bool, BigUint), b: &(bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        (false, true) => (false, a.1.add(&b.1)),
        (true, false) => (true, a.1.add(&b.1)),
        (false, false) => {
            if a.1.cmp_to(&b.1) == Ordering::Less {
                (true, b.1.sub(&a.1))
            } else {
                (false, a.1.sub(&b.1))
            }
        }
        (true, true) => {
            if b.1.cmp_to(&a.1) == Ordering::Less {
                (true, a.1.sub(&b.1))
            } else {
                (false, b.1.sub(&a.1))
            }
        }
    }
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dec())
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_to(other)
    }
}

/// Montgomery multiplication context for an odd modulus.
pub struct Montgomery {
    n: Vec<u64>,
    n0_inv: u64,  // -n^{-1} mod 2^64
    r2: Vec<u64>, // R^2 mod n, R = 2^(64*k)
    k: usize,
    modulus: BigUint,
}

impl Montgomery {
    /// Create a context for odd modulus `m`.
    ///
    /// # Panics
    /// Panics if `m` is even or zero.
    pub fn new(m: &BigUint) -> Self {
        assert!(m.is_odd(), "Montgomery modulus must be odd");
        let k = m.limbs.len();
        let n0 = m.limbs[0];
        // Newton's iteration: inv = inv * (2 - n0 * inv) doubles correct bits.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let n0_inv = inv.wrapping_neg();
        // R^2 mod n where R = 2^(64k).
        let r2 = BigUint::one().shl(128 * k).rem(m);
        let mut r2_limbs = r2.limbs.clone();
        r2_limbs.resize(k, 0);
        Montgomery {
            n: m.limbs.clone(),
            n0_inv,
            r2: r2_limbs,
            k,
            modulus: m.clone(),
        }
    }

    /// CIOS Montgomery multiplication: returns `a * b * R^{-1} mod n`.
    fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.k];
        let mut scratch = vec![0u64; self.k + 2];
        self.mont_mul_into(a, b, &mut out, &mut scratch);
        out
    }

    /// CIOS Montgomery multiplication writing into caller-owned buffers:
    /// `out` receives `a * b * R^{-1} mod n` (`k` limbs) and `scratch`
    /// (`k + 2` limbs) is working space. Hot loops ([`Montgomery::pow`])
    /// reuse both across iterations instead of allocating per product;
    /// `out` must not alias `a` or `b`.
    #[allow(clippy::needless_range_loop)] // limb-loop indices mirror the CIOS paper
    fn mont_mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64], scratch: &mut [u64]) {
        let k = self.k;
        debug_assert_eq!(out.len(), k);
        debug_assert_eq!(scratch.len(), k + 2);
        let t = scratch;
        t.fill(0);
        for i in 0..k {
            // t += a[i] * b
            let mut carry = 0u128;
            for j in 0..k {
                let s = t[j] as u128 + a[i] as u128 * b[j] as u128 + carry;
                t[j] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;
            // m = t[0] * n0_inv mod 2^64; t += m * n; t >>= 64
            let m = t[0].wrapping_mul(self.n0_inv);
            let s = t[0] as u128 + m as u128 * self.n[0] as u128;
            let mut carry = s >> 64;
            for j in 1..k {
                let s = t[j] as u128 + m as u128 * self.n[j] as u128 + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k - 1] = s as u64;
            let s2 = t[k + 1] as u128 + (s >> 64);
            t[k] = s2 as u64;
            t[k + 1] = (s2 >> 64) as u64;
        }
        // Conditional subtraction of n. When the product overflowed into
        // t[k], the k-limb subtraction legitimately borrows: the borrow
        // cancels against the overflow limb (t < 2n < 2·2^(64k)).
        out.copy_from_slice(&t[..k]);
        let overflow = t[k] != 0;
        if overflow || ge(out, &self.n) {
            let borrow = sub_in_place(out, &self.n);
            debug_assert_eq!(borrow != 0, overflow, "CIOS reduction invariant");
        }
    }

    fn to_mont(&self, a: &BigUint) -> Vec<u64> {
        let mut a_limbs = a.rem(&self.modulus).limbs.clone();
        a_limbs.resize(self.k, 0);
        self.mont_mul(&a_limbs, &self.r2)
    }

    #[allow(clippy::wrong_self_convention)] // Montgomery-domain conversion, not a constructor
    fn from_mont(&self, a: &[u64]) -> BigUint {
        let one = {
            let mut v = vec![0u64; self.k];
            v[0] = 1;
            v
        };
        BigUint::from_limbs(self.mont_mul(a, &one))
    }

    /// `base^exp mod n` (left-to-right square-and-multiply).
    ///
    /// The square/multiply loop ping-pongs between two preallocated limb
    /// buffers and one shared scratch buffer, so a w-bit exponent costs
    /// zero allocations after setup instead of ~1.5w `Vec`s.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one().rem(&self.modulus);
        }
        let base_m = self.to_mont(base);
        let mut acc = base_m.clone();
        let mut tmp = vec![0u64; self.k];
        let mut scratch = vec![0u64; self.k + 2];
        let nbits = exp.bits();
        for i in (0..nbits - 1).rev() {
            self.mont_mul_into(&acc, &acc, &mut tmp, &mut scratch);
            std::mem::swap(&mut acc, &mut tmp);
            if exp.bit(i) {
                self.mont_mul_into(&acc, &base_m, &mut tmp, &mut scratch);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        self.from_mont(&acc)
    }

    /// `(a * b) mod n` via Montgomery round trip.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.mont_mul(&am, &bm))
    }
}

/// `a >= b` for equal-length limb slices.
fn ge(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Greater => return true,
            Ordering::Less => return false,
            Ordering::Equal => continue,
        }
    }
    true
}

/// `a -= b` over equal-length limb slices; returns the final borrow
/// (nonzero iff `a < b`, in which case `a` wraps modulo `2^(64·len)`).
fn sub_in_place(a: &mut [u64], b: &[u64]) -> u64 {
    let mut borrow = 0u64;
    for (ai, &bi) in a.iter_mut().zip(b.iter()) {
        let (d1, b1) = ai.overflowing_sub(bi);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *ai = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    borrow
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed)
    }

    #[test]
    fn hex_round_trip() {
        let n = BigUint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        assert_eq!(n.to_hex(), "deadbeefcafebabe0123456789abcdef");
    }

    #[test]
    fn dec_round_trip() {
        let n = BigUint::from_dec("123456789012345678901234567890").unwrap();
        assert_eq!(n.to_dec(), "123456789012345678901234567890");
    }

    #[test]
    fn add_sub_inverse() {
        let a = BigUint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let b = BigUint::from_hex("123456789abcdef0").unwrap();
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn mul_known() {
        let a = BigUint::from_u64(u64::MAX);
        let sq = a.mul(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        let expect = BigUint::one()
            .shl(128)
            .sub(&BigUint::one().shl(65))
            .add(&BigUint::one());
        assert_eq!(sq, expect);
    }

    #[test]
    fn divrem_basic() {
        let a = BigUint::from_dec("123456789012345678901234567890123456789").unwrap();
        let b = BigUint::from_dec("98765432109876543210").unwrap();
        let (q, r) = a.divrem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.cmp_to(&b) == Ordering::Less);
    }

    #[test]
    fn divrem_single_limb() {
        let a = BigUint::from_dec("1000000000000000000000").unwrap();
        let (q, r) = a.divrem(&BigUint::from_u64(7));
        assert_eq!(q.mul(&BigUint::from_u64(7)).add(&r), a);
    }

    #[test]
    fn modexp_fermat() {
        // 2^(p-1) mod p == 1 for prime p.
        let p = BigUint::from_dec("1000000007").unwrap();
        let e = p.sub(&BigUint::one());
        assert!(BigUint::from_u64(2).modexp(&e, &p).is_one());
    }

    #[test]
    fn modexp_large_odd_modulus() {
        let m =
            BigUint::from_hex("c90102faa48f18b5eac1f76bb88da5f6e53af8f93d1b44e1a2c0810b2469adb1")
                .unwrap();
        let base = BigUint::from_u64(7);
        let exp = BigUint::from_u64(65537);
        let fast = base.modexp(&exp, &m);
        // Slow reference.
        let mut slow = BigUint::one();
        for _ in 0..65537u32 {
            slow = slow.mul(&base).rem(&m);
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn modexp_even_modulus() {
        let m = BigUint::from_u64(1 << 20);
        let r = BigUint::from_u64(3).modexp(&BigUint::from_u64(100), &m);
        // 3^100 mod 2^20: compute with u128 reference over repeated squares.
        let mut slow: u128 = 1;
        for _ in 0..100 {
            slow = slow * 3 % (1 << 20);
        }
        assert_eq!(r.as_u64() as u128, slow);
    }

    #[test]
    fn modinv_known() {
        let m = BigUint::from_u64(97);
        let a = BigUint::from_u64(13);
        let inv = a.modinv(&m).unwrap();
        assert!(a.mul(&inv).rem(&m).is_one());
    }

    #[test]
    fn modinv_none_when_not_coprime() {
        let m = BigUint::from_u64(100);
        assert!(BigUint::from_u64(10).modinv(&m).is_none());
    }

    #[test]
    fn gcd_known() {
        let a = BigUint::from_u64(48);
        let b = BigUint::from_u64(36);
        assert_eq!(a.gcd(&b), BigUint::from_u64(12));
    }

    #[test]
    fn miller_rabin_accepts_primes() {
        let mut r = rng();
        for p in [2u64, 3, 5, 97, 1_000_000_007, 2_147_483_647] {
            assert!(
                BigUint::from_u64(p).is_probable_prime(16, &mut r),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn miller_rabin_rejects_composites() {
        let mut r = rng();
        for c in [1u64, 4, 100, 561 /* Carmichael */, 1_000_000_006] {
            assert!(
                !BigUint::from_u64(c).is_probable_prime(16, &mut r),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn gen_prime_has_requested_bits() {
        let mut r = rng();
        let p = BigUint::gen_prime(96, &mut r);
        assert_eq!(p.bits(), 96);
        assert!(p.is_probable_prime(16, &mut r));
    }

    #[test]
    fn bytes_round_trip() {
        let n = BigUint::from_hex("0102030405060708090a0b0c0d0e0f").unwrap();
        assert_eq!(BigUint::from_bytes_be(&n.to_bytes_be()), n);
        let padded = n.to_bytes_be_padded(20);
        assert_eq!(padded.len(), 20);
        assert_eq!(BigUint::from_bytes_be(&padded), n);
    }

    #[test]
    fn montgomery_reduction_overflow_path() {
        // A modulus just under a limb boundary makes the CIOS intermediate
        // spill into the extra limb, so the conditional subtraction must
        // borrow against the overflow (regression: the borrow used to trip
        // a debug assertion during 1024-bit RSA keygen).
        let n = BigUint::one().shl(256).sub(&BigUint::from_u64(189));
        assert!(n.is_odd());
        let mont = Montgomery::new(&n);
        let a = n.sub(&BigUint::from_u64(1));
        let b = n.sub(&BigUint::from_u64(2));
        assert_eq!(mont.mul(&a, &b), a.mul(&b).rem(&n));
        // And a sweep of near-modulus operands.
        for da in 1u64..20 {
            for db in 1u64..20 {
                let a = n.sub(&BigUint::from_u64(da));
                let b = n.sub(&BigUint::from_u64(db));
                assert_eq!(mont.mul(&a, &b), a.mul(&b).rem(&n));
            }
        }
    }

    #[test]
    fn montgomery_mul_matches_plain() {
        let m = BigUint::from_dec("987654321987654321987654321987654321987").unwrap();
        let m = if m.is_odd() {
            m
        } else {
            m.add(&BigUint::one())
        };
        let mont = Montgomery::new(&m);
        let a = BigUint::from_dec("123456789123456789123456789").unwrap();
        let b = BigUint::from_dec("424242424242424242424242424").unwrap();
        assert_eq!(mont.mul(&a, &b), a.mul(&b).rem(&m));
    }

    #[test]
    fn shifts() {
        let a = BigUint::from_u64(0b1011);
        assert_eq!(a.shl(100).shr(100), a);
        assert_eq!(a.shr(2), BigUint::from_u64(0b10));
    }
}
