//! 256-bit prime fields with 4×64-limb Montgomery arithmetic.
//!
//! Two instantiations: [`Fp`] (the BN254 base field) and [`Fr`] (the scalar
//! field / group order). Both primes come from the BN parametrization
//! x = 4965661367192848881:
//! `p = 36x^4 + 36x^3 + 24x^2 + 6x + 1`, `r = 36x^4 + 36x^3 + 18x^2 + 6x + 1`.
//! A unit test re-derives every constant from scratch with [`crate::bigint`].
//!
//! Powers are a width-5 sliding window ([`Field::pow`]). Inversion
//! (`a^(p-2)`) and the square root (`a^((p+1)/4)`, for p ≡ 3 mod 4) are one
//! such power each: about 310 products, where square-and-multiply took 360,
//! and 7–9 µs on the benchmark host. [`Field::legendre`] tells a residue from
//! a non-residue without a power (the binary Jacobi algorithm, ≈ 1.5 µs), so
//! a caller that rejects often, such as try-and-increment hashing, asks it
//! before it pays for [`Field::sqrt`].
#![allow(clippy::needless_range_loop)] // fixed 4-limb loops read better indexed

use crate::bigint::BigUint;
use std::fmt;
use std::marker::PhantomData;

/// Compile-time parameters of a 4-limb prime field.
pub trait FieldParams: 'static + Copy + Clone + Send + Sync + PartialEq + Eq {
    /// The prime modulus, little-endian limbs.
    const MODULUS: [u64; 4];
    /// `-MODULUS^{-1} mod 2^64`.
    const INV: u64;
    /// `2^256 mod MODULUS` (Montgomery form of 1).
    const R: [u64; 4];
    /// `2^512 mod MODULUS`.
    const R2: [u64; 4];
    /// Short human-readable name for diagnostics.
    const NAME: &'static str;
}

/// BN254 base-field parameters (the prime `p`).
#[derive(Copy, Clone, PartialEq, Eq)]
pub struct FpParams;

impl FieldParams for FpParams {
    const MODULUS: [u64; 4] = [
        0x3c208c16d87cfd47,
        0x97816a916871ca8d,
        0xb85045b68181585d,
        0x30644e72e131a029,
    ];
    const INV: u64 = 0x87d20782e4866389;
    const R: [u64; 4] = [
        0xd35d438dc58f0d9d,
        0x0a78eb28f5c70b3d,
        0x666ea36f7879462c,
        0x0e0a77c19a07df2f,
    ];
    const R2: [u64; 4] = [
        0xf32cfc5b538afa89,
        0xb5e71911d44501fb,
        0x47ab1eff0a417ff6,
        0x06d89f71cab8351f,
    ];
    const NAME: &'static str = "Fp";
}

/// BN254 scalar-field parameters (the prime `r`, the order of G1/G2/GT).
#[derive(Copy, Clone, PartialEq, Eq)]
pub struct FrParams;

impl FieldParams for FrParams {
    const MODULUS: [u64; 4] = [
        0x43e1f593f0000001,
        0x2833e84879b97091,
        0xb85045b68181585d,
        0x30644e72e131a029,
    ];
    const INV: u64 = 0xc2e1f593efffffff;
    const R: [u64; 4] = [
        0xac96341c4ffffffb,
        0x36fc76959f60cd29,
        0x666ea36f7879462e,
        0x0e0a77c19a07df2f,
    ];
    const R2: [u64; 4] = [
        0x1bb8e645ae216da7,
        0x53fe3ab1e35c59e3,
        0x8c49833d53bb8085,
        0x0216d0b17f4e44a5,
    ];
    const NAME: &'static str = "Fr";
}

/// An element of a 4-limb prime field, stored in Montgomery form.
pub struct Field<P: FieldParams>(pub(crate) [u64; 4], PhantomData<P>);

/// The BN254 base field.
pub type Fp = Field<FpParams>;
/// The BN254 scalar field.
pub type Fr = Field<FrParams>;

impl<P: FieldParams> Copy for Field<P> {}
impl<P: FieldParams> Clone for Field<P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: FieldParams> PartialEq for Field<P> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<P: FieldParams> Eq for Field<P> {}

impl<P: FieldParams> fmt::Debug for Field<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(0x{})", P::NAME, self.to_biguint().to_hex())
    }
}

#[inline(always)]
fn adc(a: u64, b: u64, carry: &mut u64) -> u64 {
    let t = a as u128 + b as u128 + *carry as u128;
    *carry = (t >> 64) as u64;
    t as u64
}

#[inline(always)]
fn sbb(a: u64, b: u64, borrow: &mut u64) -> u64 {
    let t = (a as u128).wrapping_sub(b as u128 + (*borrow >> 63) as u128);
    *borrow = (t >> 64) as u64;
    t as u64
}

#[inline(always)]
fn mac(a: u64, b: u64, c: u64, carry: &mut u64) -> u64 {
    let t = a as u128 + b as u128 * c as u128 + *carry as u128;
    *carry = (t >> 64) as u64;
    t as u64
}

impl<P: FieldParams> Field<P> {
    /// The additive identity.
    #[inline]
    pub fn zero() -> Self {
        Field([0; 4], PhantomData)
    }

    /// The multiplicative identity.
    #[inline]
    pub fn one() -> Self {
        Field(P::R, PhantomData)
    }

    /// True iff this is the additive identity.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Construct from a small integer.
    pub fn from_u64(v: u64) -> Self {
        Field([v, 0, 0, 0], PhantomData).mul(&Field(P::R2, PhantomData))
    }

    /// Construct from canonical little-endian limbs (must be < modulus).
    pub fn from_canonical(limbs: [u64; 4]) -> Self {
        debug_assert!(lt(&limbs, &P::MODULUS), "value not reduced");
        Field(limbs, PhantomData).mul(&Field(P::R2, PhantomData))
    }

    /// Construct from a [`BigUint`], reducing modulo the field prime.
    pub fn from_biguint(v: &BigUint) -> Self {
        let modulus = BigUint::from_limbs(P::MODULUS.to_vec());
        let reduced = v.rem(&modulus);
        let mut limbs = [0u64; 4];
        for (i, &l) in reduced.limbs().iter().enumerate() {
            limbs[i] = l;
        }
        Self::from_canonical(limbs)
    }

    /// Construct from 32 big-endian bytes, rejecting a value at or above
    /// the modulus (the strict inverse of [`Field::to_bytes_be`]).
    pub fn from_bytes_be(bytes: &[u8; 32]) -> Option<Self> {
        let limbs = limbs_from_be(bytes);
        lt(&limbs, &P::MODULUS).then(|| Self::from_canonical(limbs))
    }

    /// Construct by reducing 32 big-endian bytes: the modulus exceeds
    /// 2^253, so a few conditional subtractions reduce any 256-bit value.
    pub fn from_bytes_be_reduce(bytes: &[u8; 32]) -> Self {
        let mut limbs = limbs_from_be(bytes);
        while !lt(&limbs, &P::MODULUS) {
            limbs = sub_limbs(&limbs, &P::MODULUS);
        }
        Self::from_canonical(limbs)
    }

    /// Canonical (non-Montgomery) little-endian limbs.
    pub fn to_canonical(&self) -> [u64; 4] {
        // Montgomery reduction of the raw representation (multiply by 1).
        let one = [1u64, 0, 0, 0];
        mont_mul::<P>(&self.0, &one)
    }

    /// Canonical value as a [`BigUint`].
    pub fn to_biguint(&self) -> BigUint {
        BigUint::from_limbs(self.to_canonical().to_vec())
    }

    /// Canonical value as 32 big-endian bytes.
    pub fn to_bytes_be(&self) -> [u8; 32] {
        let c = self.to_canonical();
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[(3 - i) * 8..(4 - i) * 8].copy_from_slice(&c[i].to_be_bytes());
        }
        out
    }

    /// Uniform random field element.
    pub fn random(rng: &mut impl rand::Rng) -> Self {
        loop {
            let mut limbs = [0u64; 4];
            for l in &mut limbs {
                *l = rng.gen();
            }
            // Mask the top bits to the modulus bit length (254) to cut rejections.
            limbs[3] &= (1u64 << 62) - 1;
            if lt(&limbs, &P::MODULUS) {
                return Self::from_canonical(limbs);
            }
        }
    }

    /// `self + other`.
    #[inline]
    pub fn add(&self, other: &Self) -> Self {
        let mut carry = 0u64;
        let mut out = [0u64; 4];
        for i in 0..4 {
            out[i] = adc(self.0[i], other.0[i], &mut carry);
        }
        reduce_once::<P>(&mut out, carry != 0);
        Field(out, PhantomData)
    }

    /// `self * 2`.
    #[inline]
    pub fn double(&self) -> Self {
        self.add(self)
    }

    /// `self - other`.
    #[inline]
    pub fn sub(&self, other: &Self) -> Self {
        let mut borrow = 0u64;
        let mut out = [0u64; 4];
        for i in 0..4 {
            out[i] = sbb(self.0[i], other.0[i], &mut borrow);
        }
        if borrow != 0 {
            let mut carry = 0u64;
            for i in 0..4 {
                out[i] = adc(out[i], P::MODULUS[i], &mut carry);
            }
        }
        Field(out, PhantomData)
    }

    /// `-self`.
    #[inline]
    pub fn neg(&self) -> Self {
        if self.is_zero() {
            *self
        } else {
            Field(sub_limbs(&P::MODULUS, &self.0), PhantomData)
        }
    }

    /// `self * other` (Montgomery CIOS).
    #[inline]
    pub fn mul(&self, other: &Self) -> Self {
        Field(mont_mul::<P>(&self.0, &other.0), PhantomData)
    }

    /// `self^2`.
    #[inline]
    pub fn square(&self) -> Self {
        self.mul(self)
    }

    /// `self^exp` where `exp` is little-endian limbs (canonical integer):
    /// a width-5 sliding window over the odd powers `self^1, …, self^31`.
    pub fn pow(&self, exp: &[u64]) -> Self {
        const W: usize = 5;
        let bit = |i: usize| (exp[i / 64] >> (i % 64)) & 1;
        let sq = self.square();
        let mut odd = [*self; 1 << (W - 1)];
        for i in 1..odd.len() {
            odd[i] = odd[i - 1].mul(&sq);
        }
        // Each leading clear bit squares one: two to four wasted products
        // for the exponents here.
        let mut acc = Self::one();
        let mut i = exp.len() * 64;
        while i > 0 {
            // The window is bits [lo, i): a single clear bit, or at most W
            // bits whose top and bottom bits are set (an odd digit).
            let mut lo = i - 1;
            if bit(lo) == 1 {
                lo = i.saturating_sub(W);
                while bit(lo) == 0 {
                    lo += 1;
                }
            }
            let digit = (lo..i).rev().fold(0, |d, b| (d << 1) | bit(b) as usize);
            for _ in lo..i {
                acc = acc.square();
            }
            if digit != 0 {
                acc = acc.mul(&odd[digit >> 1]);
            }
            i = lo;
        }
        acc
    }

    /// `p - 2`, the Fermat inversion exponent (the low limb of either
    /// modulus is far above 2, and const evaluation would reject a borrow).
    const INVERT_EXP: [u64; 4] = {
        let m = P::MODULUS;
        [m[0] - 2, m[1], m[2], m[3]]
    };

    /// `(p + 1) / 4 = ⌊p / 4⌋ + 1`, the square-root exponent when
    /// p ≡ 3 (mod 4).
    const SQRT_EXP: [u64; 4] = {
        let m = P::MODULUS;
        [
            ((m[0] >> 2) | (m[1] << 62)) + 1,
            (m[1] >> 2) | (m[2] << 62),
            (m[2] >> 2) | (m[3] << 62),
            m[3] >> 2,
        ]
    };

    /// Multiplicative inverse; `None` for zero. Uses Fermat: `a^(p-2)`.
    pub fn invert(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        Some(self.pow(&Self::INVERT_EXP))
    }

    /// Square root when the modulus is ≡ 3 (mod 4): `a^((p+1)/4)`.
    /// Returns `None` if `self` is not a quadratic residue.
    pub fn sqrt(&self) -> Option<Self> {
        debug_assert_eq!(P::MODULUS[0] & 3, 3, "sqrt requires p = 3 mod 4");
        let root = self.pow(&Self::SQRT_EXP);
        (root.square() == *self).then_some(root)
    }

    /// The Legendre symbol `(self / p)`: 1 for a nonzero square, −1 for a
    /// non-residue, 0 for zero. The binary Jacobi algorithm on canonical
    /// limbs: shifts and subtractions, where Euler's criterion is a power.
    pub fn legendre(&self) -> i8 {
        let mut a = self.to_canonical();
        let mut n = P::MODULUS;
        let mut symbol = 1i8;
        while a != [0; 4] {
            // Strip the factors of two. A zero limb is 64 of them, an even
            // count, which leaves the symbol alone.
            while a[0] == 0 {
                a.rotate_left(1);
            }
            let twos = a[0].trailing_zeros();
            if twos > 0 {
                for i in 0..4 {
                    let hi = if i < 3 { a[i + 1] << (64 - twos) } else { 0 };
                    a[i] = (a[i] >> twos) | hi;
                }
            }
            // (2/n) = −1 exactly when n ≡ 3 or 5 (mod 8).
            if twos & 1 == 1 && matches!(n[0] & 7, 3 | 5) {
                symbol = -symbol;
            }
            if lt(&a, &n) {
                // Both odd: (a/n) = (n/a), negated when both are 3 (mod 4).
                std::mem::swap(&mut a, &mut n);
                if a[0] & 3 == 3 && n[0] & 3 == 3 {
                    symbol = -symbol;
                }
            }
            // (a/n) = ((a − n)/n), and a − n is even.
            a = sub_limbs(&a, &n);
        }
        // n ends as gcd(self, p): 1 unless self was zero.
        symbol * (n == [1, 0, 0, 0]) as i8
    }

    /// True iff the canonical representative is odd (parity for point
    /// compression / deterministic sign choice).
    pub fn is_odd(&self) -> bool {
        self.to_canonical()[0] & 1 == 1
    }
}

/// `a < b` on 4-limb little-endian values.
#[inline]
fn lt(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

/// `a - b` modulo 2^256 on 4-limb values.
#[inline]
fn sub_limbs(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut borrow = 0u64;
    let mut out = [0u64; 4];
    for i in 0..4 {
        out[i] = sbb(a[i], b[i], &mut borrow);
    }
    out
}

/// 32 big-endian bytes as little-endian limbs.
fn limbs_from_be(bytes: &[u8; 32]) -> [u64; 4] {
    let mut limbs = [0u64; 4];
    for (i, &b) in bytes.iter().enumerate() {
        limbs[3 - i / 8] = (limbs[3 - i / 8] << 8) | b as u64;
    }
    limbs
}

#[inline]
fn reduce_once<P: FieldParams>(out: &mut [u64; 4], overflow: bool) {
    if overflow || !lt(out, &P::MODULUS) {
        *out = sub_limbs(out, &P::MODULUS);
    }
}

/// 4-limb Montgomery multiplication (CIOS).
#[inline]
fn mont_mul<P: FieldParams>(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let n = &P::MODULUS;
    let mut t = [0u64; 6];
    for i in 0..4 {
        let mut carry = 0u64;
        for j in 0..4 {
            t[j] = mac(t[j], a[i], b[j], &mut carry);
        }
        let mut c = 0u64;
        t[4] = adc(t[4], carry, &mut c);
        t[5] = c;

        let m = t[0].wrapping_mul(P::INV);
        let mut carry = 0u64;
        // (t[0] + m*n[0]) is divisible by 2^64; we only need the carry.
        mac(t[0], m, n[0], &mut carry);
        for j in 1..4 {
            t[j - 1] = mac(t[j], m, n[j], &mut carry);
        }
        let mut c = 0u64;
        t[3] = adc(t[4], carry, &mut c);
        t[4] = t[5] + c;
        t[5] = 0;
    }
    let mut out = [t[0], t[1], t[2], t[3]];
    reduce_once::<P>(&mut out, t[4] != 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// Re-derive every hard-coded constant from first principles.
    #[test]
    fn params_are_self_consistent() {
        fn check<P: FieldParams>() {
            let x = BigUint::from_dec("4965661367192848881").unwrap();
            let x2 = x.mul(&x);
            let x3 = x2.mul(&x);
            let x4 = x3.mul(&x);
            let c36 = BigUint::from_u64(36);
            let c24 = BigUint::from_u64(24);
            let c18 = BigUint::from_u64(18);
            let c6 = BigUint::from_u64(6);
            let p = c36
                .mul(&x4)
                .add(&c36.mul(&x3))
                .add(&c24.mul(&x2))
                .add(&c6.mul(&x))
                .add(&BigUint::one());
            let r = c36
                .mul(&x4)
                .add(&c36.mul(&x3))
                .add(&c18.mul(&x2))
                .add(&c6.mul(&x))
                .add(&BigUint::one());
            let modulus = BigUint::from_limbs(P::MODULUS.to_vec());
            assert!(
                modulus == p || modulus == r,
                "{}: modulus does not match the BN parametrization",
                P::NAME
            );
            // INV
            let mut inv = 1u64;
            for _ in 0..6 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(P::MODULUS[0].wrapping_mul(inv)));
            }
            assert_eq!(inv.wrapping_neg(), P::INV, "{}: INV mismatch", P::NAME);
            // R, R2
            let r1 = BigUint::one().shl(256).rem(&modulus);
            let r2 = BigUint::one().shl(512).rem(&modulus);
            let pad = |v: &BigUint| {
                let mut l = [0u64; 4];
                for (i, &x) in v.limbs().iter().enumerate() {
                    l[i] = x;
                }
                l
            };
            assert_eq!(pad(&r1), P::R, "{}: R mismatch", P::NAME);
            assert_eq!(pad(&r2), P::R2, "{}: R2 mismatch", P::NAME);
        }
        check::<FpParams>();
        check::<FrParams>();
    }

    #[test]
    fn field_axioms_random() {
        let mut r = rng();
        for _ in 0..50 {
            let a = Fp::random(&mut r);
            let b = Fp::random(&mut r);
            let c = Fp::random(&mut r);
            assert_eq!(a.add(&b), b.add(&a));
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            assert_eq!(a.add(&a.neg()), Fp::zero());
            assert_eq!(a.sub(&b).add(&b), a);
        }
    }

    #[test]
    fn mul_matches_biguint() {
        let mut r = rng();
        let p = BigUint::from_limbs(FpParams::MODULUS.to_vec());
        for _ in 0..20 {
            let a = Fp::random(&mut r);
            let b = Fp::random(&mut r);
            let expect = a.to_biguint().mul(&b.to_biguint()).rem(&p);
            assert_eq!(a.mul(&b).to_biguint(), expect);
        }
    }

    #[test]
    fn invert_round_trip() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp::random(&mut r);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fp::one());
        }
        assert!(Fp::zero().invert().is_none());
    }

    #[test]
    fn sqrt_of_squares() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp::random(&mut r);
            let sq = a.square();
            let root = sq.sqrt().expect("square must have a root");
            assert!(root == a || root == a.neg());
        }
    }

    #[test]
    fn pow_small_cases() {
        let three = Fp::from_u64(3);
        assert_eq!(three.pow(&[0]), Fp::one());
        assert_eq!(three.pow(&[1]), three);
        assert_eq!(three.pow(&[5]), Fp::from_u64(243));
    }

    /// Square-and-multiply, MSB first: the oracle for the windowed `pow`.
    fn pow_binary(a: &Fp, exp: &[u64]) -> Fp {
        (0..exp.len() * 64).rev().fold(Fp::one(), |acc, i| {
            let acc = acc.square();
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                acc.mul(a)
            } else {
                acc
            }
        })
    }

    #[test]
    fn window_pow_matches_binary() {
        use rand::Rng;
        let mut r = rng();
        let p = BigUint::from_limbs(FpParams::MODULUS.to_vec());
        let two = BigUint::from_u64(2);
        assert_eq!(Fp::INVERT_EXP.to_vec(), p.sub(&two).limbs());
        assert_eq!(Fp::SQRT_EXP.to_vec(), p.add(&BigUint::one()).shr(2).limbs());
        let mut exps = vec![
            vec![0],
            vec![1],
            vec![0, 0, 0],
            vec![u64::MAX; 4],
            vec![1 << 63, 0, 1],
            Fp::INVERT_EXP.to_vec(),
            Fp::SQRT_EXP.to_vec(),
        ];
        for len in 1..=6 {
            exps.push((0..len).map(|_| r.gen()).collect());
        }
        for _ in 0..4 {
            let a = Fp::random(&mut r);
            for e in &exps {
                assert_eq!(a.pow(e), pow_binary(&a, e), "exponent {e:x?}");
            }
        }
    }

    #[test]
    fn legendre_agrees_with_sqrt() {
        let mut r = rng();
        assert_eq!(Fp::zero().legendre(), 0);
        assert_eq!(Fp::one().legendre(), 1);
        // p ≡ 3 (mod 4), so −1 is a non-residue.
        assert_eq!(Fp::one().neg().legendre(), -1);
        let mut seen = [0usize; 2];
        for _ in 0..200 {
            let a = Fp::random(&mut r);
            assert_eq!(a.square().legendre(), 1);
            let l = a.legendre();
            assert_eq!(l == 1, a.sqrt().is_some(), "{a:?}");
            assert_ne!(l, 0);
            seen[usize::from(l == 1)] += 1;
        }
        assert!(seen.iter().all(|&n| n > 50), "both symbols occur: {seen:?}");
    }

    #[test]
    fn canonical_round_trip() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fr::random(&mut r);
            assert_eq!(Fr::from_canonical(a.to_canonical()), a);
            assert_eq!(Fr::from_bytes_be_reduce(&a.to_bytes_be()), a);
            assert_eq!(Fr::from_bytes_be(&a.to_bytes_be()), Some(a));
        }
    }

    #[test]
    fn byte_decoding_reduces_or_rejects_at_the_modulus() {
        use rand::Rng;
        let mut r = rng();
        let p = BigUint::from_limbs(FpParams::MODULUS.to_vec());
        let be = |v: &BigUint| {
            let b = v.to_bytes_be();
            let mut out = [0u8; 32];
            out[32 - b.len()..].copy_from_slice(&b);
            out
        };
        let p_minus_1 = be(&p.sub(&BigUint::one()));
        assert_eq!(Fp::from_bytes_be(&p_minus_1), Some(Fp::one().neg()));
        assert_eq!(Fp::from_bytes_be(&be(&p)), None);
        assert_eq!(Fp::from_bytes_be(&[0xFF; 32]), None);
        let mut cases = vec![p_minus_1, be(&p), [0xFF; 32], [0; 32]];
        cases.extend((0..20).map(|_| {
            let mut bytes = [0u8; 32];
            r.fill(&mut bytes);
            bytes
        }));
        for bytes in &cases {
            let expect = Fp::from_biguint(&BigUint::from_bytes_be(bytes));
            assert_eq!(Fp::from_bytes_be_reduce(bytes), expect);
        }
    }

    #[test]
    fn fr_modulus_differs_from_fp() {
        assert_ne!(FpParams::MODULUS, FrParams::MODULUS);
    }
}
