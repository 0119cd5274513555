//! The RSA half of the big-integer arithmetic: modular exponentiation and
//! inversion, Miller–Rabin prime generation, and the Montgomery context
//! they run on, over `authdb_crypto::bigint::BigUint`. Only the
//! Condensed-RSA baseline ([`crate::rsa`]) uses any of it; `BigUint`
//! itself stays in `authdb-crypto`, where BN254 derives its constants with
//! it.
//!
//! Modular exponentiation uses Montgomery multiplication for odd moduli and
//! falls back to divide-based reduction otherwise.

use std::cmp::Ordering;

use authdb_crypto::bigint::BigUint;

/// `2^n`.
fn pow2(n: usize) -> BigUint {
    let mut limbs = vec![0u64; n / 64 + 1];
    limbs[n / 64] = 1 << (n % 64);
    BigUint::from_limbs(limbs)
}

/// `(a - b) mod m` (inputs assumed < m).
pub(crate) fn sub_mod(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    if a < b {
        a.add(m).sub(b)
    } else {
        a.sub(b)
    }
}

/// `(a * b) mod m`.
pub(crate) fn mul_mod(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    a.mul(b).rem(m)
}

/// `base^exp mod m`. Uses Montgomery exponentiation for odd `m`.
pub(crate) fn modexp(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    assert!(!m.is_zero(), "modexp modulus is zero");
    if m.is_one() {
        return BigUint::zero();
    }
    if m.is_odd() {
        return Montgomery::new(m).pow(base, exp);
    }
    // Fallback: plain square-and-multiply with divide-based reduction.
    let mut base = base.rem(m);
    let mut result = BigUint::one();
    for i in 0..exp.bits() {
        if exp.bit(i) {
            result = mul_mod(&result, &base, m);
        }
        base = mul_mod(&base, &base, m);
    }
    result
}

/// Modular inverse of `a` modulo `m`, if it exists.
pub(crate) fn modinv(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    // Extended Euclid with signed coefficients tracked as (sign, magnitude).
    let mut r0 = m.clone();
    let mut r1 = a.rem(m);
    let mut t0 = (false, BigUint::zero()); // coefficient of m
    let mut t1 = (false, BigUint::one()); // coefficient of a
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
fn is_probable_prime(n: &BigUint, rounds: usize, rng: &mut impl rand::Rng) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    const SMALL_PRIMES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
    for &p in &SMALL_PRIMES {
        let bp = BigUint::from_u64(p);
        match n.cmp(&bp) {
            Ordering::Equal => return true,
            Ordering::Less => return false,
            Ordering::Greater => {
                if n.rem(&bp).is_zero() {
                    return false;
                }
            }
        }
    }
    let one = BigUint::one();
    let n_minus_1 = n.sub(&one);
    // n - 1 = d · 2^s with d odd (n > 37 is odd here, so s ≥ 1).
    let s = (0..n_minus_1.bits())
        .find(|&i| n_minus_1.bit(i))
        .unwrap_or(0);
    let d = n_minus_1.divrem(&pow2(s)).0;
    let mont = Montgomery::new(n);
    'witness: for _ in 0..rounds {
        let a = random_below(&n_minus_1, rng).add(&one); // in [1, n-1]
        if a.is_one() || a == n_minus_1 {
            continue;
        }
        let mut x = mont.pow(&a, &d);
        if x.is_one() || x == n_minus_1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(&x, &x, n);
            if x == n_minus_1 {
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
fn random_below(bound: &BigUint, rng: &mut impl rand::Rng) -> BigUint {
    assert!(!bound.is_zero(), "random_below(0)");
    let bits = bound.bits();
    loop {
        let candidate = random_bits(bits, rng);
        if candidate < *bound {
            return candidate;
        }
    }
}

/// Uniform random value with at most `bits` bits.
fn random_bits(bits: usize, rng: &mut impl rand::Rng) -> BigUint {
    let limbs = bits.div_ceil(64);
    let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
    let extra = limbs * 64 - bits;
    if extra > 0 {
        if let Some(top) = v.last_mut() {
            *top &= u64::MAX >> extra;
        }
    }
    BigUint::from_limbs(v)
}

/// Generate a random probable prime with exactly `bits` bits.
pub(crate) fn gen_prime(bits: usize, rng: &mut impl rand::Rng) -> BigUint {
    assert!(bits >= 2, "prime must have at least 2 bits");
    loop {
        let mut candidate = random_bits(bits, rng);
        // Force the top bit (exact bit length) and low bit (odd).
        candidate = candidate.add(&pow2(bits - 1)).rem(&pow2(bits));
        if candidate.bits() < bits {
            continue;
        }
        if !candidate.is_odd() {
            candidate = candidate.add(&BigUint::one());
            if candidate.bits() > bits {
                continue;
            }
        }
        if is_probable_prime(&candidate, 24, rng) {
            return candidate;
        }
    }
}

/// `a - b` on (sign, magnitude) pairs; `true` sign means negative.
fn signed_sub(a: &(bool, BigUint), b: &(bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        (false, true) => (false, a.1.add(&b.1)),
        (true, false) => (true, a.1.add(&b.1)),
        (false, false) => {
            if a.1 < b.1 {
                (true, b.1.sub(&a.1))
            } else {
                (false, a.1.sub(&b.1))
            }
        }
        (true, true) => {
            if b.1 < a.1 {
                (true, a.1.sub(&b.1))
            } else {
                (false, b.1.sub(&a.1))
            }
        }
    }
}

/// Montgomery multiplication context for an odd modulus.
pub(crate) struct Montgomery {
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
    pub(crate) fn new(m: &BigUint) -> Self {
        assert!(m.is_odd(), "Montgomery modulus must be odd");
        let k = m.limbs().len();
        let n0 = m.limbs()[0];
        // Newton's iteration: inv = inv * (2 - n0 * inv) doubles correct bits.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let n0_inv = inv.wrapping_neg();
        // R^2 mod n where R = 2^(64k).
        let mut r2 = pow2(128 * k).rem(m).limbs().to_vec();
        r2.resize(k, 0);
        Montgomery {
            n: m.limbs().to_vec(),
            n0_inv,
            r2,
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
        let mut a_limbs = a.rem(&self.modulus).limbs().to_vec();
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
    fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
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
    pub(crate) fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
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

    fn dec(s: &str) -> BigUint {
        BigUint::from_dec(s).unwrap()
    }

    #[test]
    fn modexp_fermat() {
        // 2^(p-1) mod p == 1 for prime p.
        let p = dec("1000000007");
        let e = p.sub(&BigUint::one());
        assert!(modexp(&BigUint::from_u64(2), &e, &p).is_one());
    }

    #[test]
    fn modexp_large_odd_modulus() {
        let m =
            dec("90916669973110765146147592690784685064213344803584422802078256544904752246193");
        let base = BigUint::from_u64(7);
        let exp = BigUint::from_u64(65537);
        let fast = modexp(&base, &exp, &m);
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
        let r = modexp(&BigUint::from_u64(3), &BigUint::from_u64(100), &m);
        // 3^100 mod 2^20: compute with u128 reference over repeated squares.
        let mut slow: u128 = 1;
        for _ in 0..100 {
            slow = slow * 3 % (1 << 20);
        }
        assert_eq!(r, BigUint::from_u64(slow as u64));
    }

    #[test]
    fn modinv_known() {
        let m = BigUint::from_u64(97);
        let a = BigUint::from_u64(13);
        let inv = modinv(&a, &m).unwrap();
        assert!(a.mul(&inv).rem(&m).is_one());
    }

    #[test]
    fn modinv_none_when_not_coprime() {
        let m = BigUint::from_u64(100);
        assert!(modinv(&BigUint::from_u64(10), &m).is_none());
    }

    #[test]
    fn miller_rabin_accepts_primes() {
        let mut r = rng();
        for p in [2u64, 3, 5, 97, 1_000_000_007, 2_147_483_647] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), 16, &mut r),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn miller_rabin_rejects_composites() {
        let mut r = rng();
        for c in [1u64, 4, 100, 561 /* Carmichael */, 1_000_000_006] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut r),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn gen_prime_has_requested_bits() {
        let mut r = rng();
        let p = gen_prime(96, &mut r);
        assert_eq!(p.bits(), 96);
        assert!(is_probable_prime(&p, 16, &mut r));
    }

    #[test]
    fn montgomery_reduction_overflow_path() {
        // A modulus just under a limb boundary makes the CIOS intermediate
        // spill into the extra limb, so the conditional subtraction must
        // borrow against the overflow (regression: the borrow used to trip
        // a debug assertion during 1024-bit RSA keygen).
        let n = pow2(256).sub(&BigUint::from_u64(189));
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
        let m = dec("987654321987654321987654321987654321987");
        let m = if m.is_odd() {
            m
        } else {
            m.add(&BigUint::one())
        };
        let mont = Montgomery::new(&m);
        let a = dec("123456789123456789123456789");
        let b = dec("424242424242424242424242424");
        assert_eq!(mont.mul(&a, &b), a.mul(&b).rem(&m));
    }
}
