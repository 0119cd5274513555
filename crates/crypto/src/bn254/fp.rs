//! 256-bit prime fields with 4×64-limb Montgomery arithmetic.
//!
//! Two instantiations: [`Fp`] (the BN254 base field) and [`Fr`] (the scalar
//! field / group order). Both primes come from the BN parametrization
//! x = 4965661367192848881:
//! `p = 36x^4 + 36x^3 + 24x^2 + 6x + 1`, `r = 36x^4 + 36x^3 + 18x^2 + 6x + 1`.
//! A unit test re-derives every constant from scratch with [`crate::bigint`].
//!
//! A product is a 512-bit integer and a Montgomery reduction, kept apart
//! so that the extension fields can add products before they reduce:
//! [`Field::mul`] is one of each (20–26 ns on the benchmark host), an Fp2
//! product three products and two reductions, and the Miller loop's sparse
//! fold one reduction per output coefficient. An unreduced value stays
//! below `p·2²⁵⁶`, the bound under which one reduction and one
//! conditional subtraction give the canonical result, so every value is
//! bit-identical to one reduced after each product. Multiplying by 9 (the
//! ξ = 9 + u scaling, on a reduced or a 512-bit value) is one
//! shift-and-add and one estimated subtraction of a multiple of p, and so
//! is the cyclotomic squaring's `3t ∓ 2z`. Test builds count every
//! product, reduction, modular addition and subtraction and inversion per
//! thread, so a test pins the field work of a pairing check exactly.
//!
//! Powers are a width-5 sliding window ([`Field::pow`]). The square root
//! (`a^((p+1)/4)`, for p ≡ 3 mod 4) is one such power: about 310 products,
//! 7–9 µs on the benchmark host. Neither inversion nor the quadratic
//! character needs a power. [`Field::invert`] is the binary extended
//! Euclidean algorithm on the stored limbs (shifts and subtractions, no
//! product: 2.5–3 µs, where the Fermat power `a^(p−2)` took 7–9), and
//! [`Field::legendre`] the binary Jacobi algorithm (1–1.5 µs), so a caller
//! that rejects often, such as try-and-increment hashing, asks it before it
//! pays for [`Field::sqrt`].
//!
//! **Timing.** Both binary algorithms branch on the bits of their input and
//! run in variable time, as do the wNAF scalar multiplication that signs
//! and the conditional subtraction in [`Field::add`] and [`Field::sub`].
//! Nothing in this crate claims constant time; a branch-free add and sub
//! cost a verify 14 %.
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

/// Per-thread operation counts, compiled into test builds only: a test
/// reads [`ops::snapshot`] before and after a computation and pins the
/// difference. A count does not drift with the host the way a clock does.
#[cfg(test)]
pub(crate) mod ops {
    use std::cell::Cell;

    /// Field operations since the thread started.
    #[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
    pub(crate) struct Counts {
        /// 256×256-bit products, whether reduced at once or later.
        pub mul: u64,
        /// Montgomery reductions.
        pub red: u64,
        /// Modular additions (doublings, `mul_by_9` and the fused
        /// `3t ∓ 2z` included).
        pub add: u64,
        /// Modular subtractions.
        pub sub: u64,
        /// Additions, subtractions and `mul_by_9`s of unreduced 512-bit
        /// values.
        pub wide: u64,
        /// Inversions.
        pub inv: u64,
    }

    impl std::ops::Sub for Counts {
        type Output = Counts;
        fn sub(self, o: Counts) -> Counts {
            Counts {
                mul: self.mul - o.mul,
                red: self.red - o.red,
                add: self.add - o.add,
                sub: self.sub - o.sub,
                wide: self.wide - o.wide,
                inv: self.inv - o.inv,
            }
        }
    }

    impl std::ops::Add for Counts {
        type Output = Counts;
        fn add(self, o: Counts) -> Counts {
            Counts {
                mul: self.mul + o.mul,
                red: self.red + o.red,
                add: self.add + o.add,
                sub: self.sub + o.sub,
                wide: self.wide + o.wide,
                inv: self.inv + o.inv,
            }
        }
    }

    thread_local! {
        static COUNTS: Cell<Counts> = Cell::new(Counts::default());
    }

    pub(crate) fn bump(f: impl FnOnce(&mut Counts)) {
        COUNTS.with(|c| {
            let mut n = c.get();
            f(&mut n);
            c.set(n);
        });
    }

    /// The calling thread's counts so far.
    pub(crate) fn snapshot() -> Counts {
        COUNTS.with(|c| c.get())
    }

    /// The counts `f` adds on this thread, and its result.
    pub(crate) fn count<T>(f: impl FnOnce() -> T) -> (Counts, T) {
        let before = snapshot();
        let out = f();
        (snapshot() - before, out)
    }
}

/// Record one operation in the test-build counters; a no-op otherwise.
macro_rules! count {
    ($($field:ident),+) => {
        #[cfg(test)]
        ops::bump(|n| {
            $(n.$field += 1;)+
        });
    };
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
    fn from_canonical(limbs: [u64; 4]) -> Self {
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
        let a = &self.0;
        mont_reduce::<P>(&[a[0], a[1], a[2], a[3], 0, 0, 0, 0])
    }

    /// Canonical value as a [`BigUint`].
    fn to_biguint(self) -> BigUint {
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
        count!(add);
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
        count!(sub);
        Field(sub_mod::<P>(&self.0, &other.0), PhantomData)
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

    /// `self * other`: a 512-bit product, then one Montgomery reduction.
    #[inline]
    pub fn mul(&self, other: &Self) -> Self {
        self.mul_wide(other).reduce()
    }

    /// `self * other` left unreduced: the extension fields sum such
    /// products and reduce once per output coefficient.
    #[inline]
    pub(crate) fn mul_wide(&self, other: &Self) -> Wide<P> {
        count!(mul);
        Wide(mul_limbs(&self.0, &other.0), PhantomData)
    }

    /// `(a0 + a1)·(b0 + b1)` left unreduced, the Karatsuba middle product.
    /// The sums are plain 4-limb additions: each is below 2p, and
    /// (2p)² < p·2²⁵⁶ because p < 2²⁵⁴, so the product is a valid
    /// [`Wide`] without reducing either sum.
    #[inline]
    pub(crate) fn mul_sums_wide(a0: &Self, a1: &Self, b0: &Self, b1: &Self) -> Wide<P> {
        const { assert!(P::MODULUS[3] < 1 << 62, "needs p < 2^254") };
        count!(mul);
        Wide(
            mul_limbs(&add_limbs(&a0.0, &a1.0), &add_limbs(&b0.0, &b1.0)),
            PhantomData,
        )
    }

    /// `(a + b)·(a − b)` left unreduced, with `a − b` taken as
    /// `a + p − b` (below 2p) so that no sum is reduced.
    #[inline]
    pub(crate) fn mul_sum_diff_wide(a: &Self, b: &Self) -> Wide<P> {
        count!(mul);
        let diff = sub_limbs(&add_limbs(&a.0, &P::MODULUS), &b.0);
        Wide(mul_limbs(&add_limbs(&a.0, &b.0), &diff), PhantomData)
    }

    /// `2·a·b` left unreduced (the doubling is a plain addition: 2a < 2p).
    #[inline]
    pub(crate) fn mul_double_wide(a: &Self, b: &Self) -> Wide<P> {
        count!(mul);
        Wide(mul_limbs(&add_limbs(&a.0, &a.0), &b.0), PhantomData)
    }

    /// `9·self`, the scaling under every multiplication by ξ = 9 + u: the
    /// five-limb integer `8a + a`, reduced by [`reduce_below_9p`].
    #[inline]
    pub(crate) fn mul_by_9(&self) -> Self {
        count!(add);
        Field(reduce_below_9p::<P>(&times_9(&self.0)), PhantomData)
    }

    /// `3t − 2z`: the five-limb integer `t + 2(t + p − z)` (below 5p),
    /// reduced by [`reduce_below_9p`].
    #[inline]
    pub(crate) fn triple_sub_double(t: &Self, z: &Self) -> Self {
        count!(add);
        let neg_z = sub_limbs(&P::MODULUS, &z.0);
        Field(
            reduce_below_9p::<P>(&three_t_two_z(&t.0, &neg_z)),
            PhantomData,
        )
    }

    /// `3t + 2z`, as [`Field::triple_sub_double`].
    #[inline]
    pub(crate) fn triple_add_double(t: &Self, z: &Self) -> Self {
        count!(add);
        Field(
            reduce_below_9p::<P>(&three_t_two_z(&t.0, &z.0)),
            PhantomData,
        )
    }

    /// `⌊p / 2²⁴⁸⌋ + 1`, [`reduce_below_9p`]'s quotient divisor.
    const TOP_DIVISOR: u64 = (P::MODULUS[3] >> 56) + 1;

    /// `k·p` for k = 0..=8 as five limbs, [`reduce_below_9p`]'s table.
    const MODULUS_MULTIPLES: [[u64; 5]; 9] = {
        let mut out = [[0u64; 5]; 9];
        let mut k = 1;
        while k < 9 {
            let mut carry = 0u128;
            let mut i = 0;
            while i < 4 {
                let v = P::MODULUS[i] as u128 * k as u128 + carry;
                out[k][i] = v as u64;
                carry = v >> 64;
                i += 1;
            }
            out[k][4] = carry as u64;
            k += 1;
        }
        out
    };

    /// Invert every element of `values` in place with one inversion and
    /// `3(n − 1)` products (Montgomery's trick). `None`, with `values`
    /// untouched, if any element is zero.
    pub(crate) fn batch_invert(values: &mut [Self]) -> Option<()> {
        let mut prefix = Vec::with_capacity(values.len());
        let mut acc = Self::one();
        for v in values.iter() {
            prefix.push(acc);
            acc = acc.mul(v);
        }
        let mut inv = acc.invert()?;
        for (v, before) in values.iter_mut().zip(prefix).rev() {
            let v_inv = inv.mul(&before);
            inv = inv.mul(v);
            *v = v_inv;
        }
        Some(())
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

    /// Multiplicative inverse; `None` for zero.
    ///
    /// The binary extended Euclidean algorithm (Hankerson, Menezes and
    /// Vanstone, *Guide to Elliptic Curve Cryptography*, Alg. 2.22) run on
    /// the stored Montgomery limbs `aR`, with its cofactor seeded at `R²`
    /// instead of 1: it ends at `R²·(aR)⁻¹ = a⁻¹R`, the Montgomery form of
    /// the inverse, with no product at all. It branches on the bits of `a`,
    /// so it runs in variable time (see the module docs).
    pub fn invert(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        count!(inv);
        Some(Field(
            binary_euclid_inverse::<P>(&self.0, &P::R2),
            PhantomData,
        ))
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

/// `c·a⁻¹ mod p` for `0 < a < p` and `c < p`, by binary extended Euclid.
/// The loop keeps `x1·a ≡ c·u` and `x2·a ≡ c·v` (mod p) while it shrinks
/// `u` and `v` towards `gcd(a, p) = 1`: it halves whichever is even, with
/// its cofactor, and subtracts the smaller odd one from the larger.
fn binary_euclid_inverse<P: FieldParams>(a: &[u64; 4], c: &[u64; 4]) -> [u64; 4] {
    const ONE: [u64; 4] = [1, 0, 0, 0];
    let (mut u, mut v) = (*a, P::MODULUS);
    let (mut x1, mut x2) = (*c, [0; 4]);
    // The subtraction never reaches 0. After the halvings u and v are odd
    // and coprime, so they are equal only if both are 1. But at the top
    // of the loop at least one of them is odd (v = p starts odd, and each
    // pass leaves the one it did not subtract from odd), that one is not
    // 1, and the halvings leave it alone.
    while u != ONE && v != ONE {
        while u[0] & 1 == 0 {
            u = shr1(&u, 0);
            x1 = half_mod::<P>(&x1);
        }
        while v[0] & 1 == 0 {
            v = shr1(&v, 0);
            x2 = half_mod::<P>(&x2);
        }
        if lt(&u, &v) {
            v = sub_limbs(&v, &u);
            x2 = sub_mod::<P>(&x2, &x1);
        } else {
            u = sub_limbs(&u, &v);
            x1 = sub_mod::<P>(&x1, &x2);
        }
    }
    if u == ONE {
        x1
    } else {
        x2
    }
}

/// `(a + top·2²⁵⁶) >> 1` on 4-limb values.
#[inline(always)]
fn shr1(a: &[u64; 4], top: u64) -> [u64; 4] {
    [
        (a[0] >> 1) | (a[1] << 63),
        (a[1] >> 1) | (a[2] << 63),
        (a[2] >> 1) | (a[3] << 63),
        (a[3] >> 1) | (top << 63),
    ]
}

/// `a / 2 mod p` for `a < p`: `a >> 1` if `a` is even, else `(a + p) >> 1`.
#[inline(always)]
fn half_mod<P: FieldParams>(a: &[u64; 4]) -> [u64; 4] {
    if a[0] & 1 == 0 {
        return shr1(a, 0);
    }
    let mut carry = 0u64;
    let mut sum = [0u64; 4];
    for i in 0..4 {
        sum[i] = adc(a[i], P::MODULUS[i], &mut carry);
    }
    shr1(&sum, carry)
}

/// `a − b mod p` for `a, b < p`.
#[inline(always)]
fn sub_mod<P: FieldParams>(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut borrow = 0u64;
    let mut out = [0u64; 4];
    for i in 0..4 {
        out[i] = sbb(a[i], b[i], &mut borrow);
    }
    if borrow != 0 {
        let mut carry = 0u64;
        for i in 0..4 {
            out[i] = adc(out[i], P::MODULUS[i], &mut carry);
        }
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

/// `a + b` on 4-limb values, unreduced; callers keep the sum below 2²⁵⁶.
#[inline(always)]
fn add_limbs(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut carry = 0u64;
    let mut out = [0u64; 4];
    for i in 0..4 {
        out[i] = adc(a[i], b[i], &mut carry);
    }
    debug_assert_eq!(carry, 0, "unreduced sum overflowed 256 bits");
    out
}

/// `9a` as five limbs: `8a + a`.
#[inline(always)]
fn times_9(a: &[u64; 4]) -> [u64; 5] {
    let mut t = [0u64; 5];
    let mut carry = 0u64;
    for i in 0..4 {
        let shifted = (a[i] << 3) | if i > 0 { a[i - 1] >> 61 } else { 0 };
        t[i] = adc(shifted, a[i], &mut carry);
    }
    t[4] = (a[3] >> 61) + carry;
    t
}

/// `3t + 2z = t + 2(t + z)` as five limbs, for `t < p` and `z ≤ p`.
#[inline(always)]
fn three_t_two_z(t: &[u64; 4], z: &[u64; 4]) -> [u64; 5] {
    let s = add_limbs(t, z);
    let d = [
        s[0] << 1,
        (s[1] << 1) | (s[0] >> 63),
        (s[2] << 1) | (s[1] >> 63),
        (s[3] << 1) | (s[2] >> 63),
    ];
    let mut out = [0u64; 5];
    let mut carry = 0u64;
    for i in 0..4 {
        out[i] = adc(d[i], t[i], &mut carry);
    }
    out[4] = carry;
    out
}

/// `t mod p` for `t < 9p`: less an estimate `q·p` of its multiple of p
/// read off its top byte, then one conditional subtraction. Division by
/// the constant divisor compiles to a multiply.
#[inline(always)]
fn reduce_below_9p<P: FieldParams>(t: &[u64; 5]) -> [u64; 4] {
    // With D = ⌊p/2²⁴⁸⌋ + 1, q = ⌊(t >> 248)/D⌋ satisfies q·p ≤ t and
    // t − q·p < 2p for every t < 9p (`mul_by_9_at_quotient_boundaries`
    // checks both fields at every crossing).
    let q = ((t[4] << 8) | (t[3] >> 56)) / Field::<P>::TOP_DIVISOR;
    let m = &Field::<P>::MODULUS_MULTIPLES[q as usize];
    let mut borrow = 0u64;
    let mut out = [0u64; 4];
    for i in 0..4 {
        out[i] = sbb(t[i], m[i], &mut borrow);
    }
    let high = t[4].wrapping_sub(m[4]).wrapping_sub(borrow >> 63);
    reduce_once::<P>(&mut out, high != 0);
    out
}

/// The 512-bit product of two 4-limb values (schoolbook).
#[inline(always)]
fn mul_limbs(a: &[u64; 4], b: &[u64; 4]) -> [u64; 8] {
    let mut t = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0u64;
        for j in 0..4 {
            t[i + j] = mac(t[i + j], a[i], b[j], &mut carry);
        }
        t[i + 4] = carry;
    }
    t
}

/// Montgomery reduction `t·2⁻²⁵⁶ mod p` of a 512-bit `t < p·2²⁵⁶`: the
/// sum before the final subtraction is then below 2p.
#[inline(always)]
fn mont_reduce<P: FieldParams>(t: &[u64; 8]) -> [u64; 4] {
    let n = &P::MODULUS;
    let mut t = *t;
    let mut high = 0u64;
    for i in 0..4 {
        let m = t[i].wrapping_mul(P::INV);
        let mut carry = 0u64;
        // (t[i] + m*n[0]) is divisible by 2^64; we only need the carry.
        mac(t[i], m, n[0], &mut carry);
        for j in 1..4 {
            t[i + j] = mac(t[i + j], m, n[j], &mut carry);
        }
        let mut c = high;
        t[i + 4] = adc(t[i + 4], carry, &mut c);
        high = c;
    }
    let mut out = [t[4], t[5], t[6], t[7]];
    reduce_once::<P>(&mut out, high != 0);
    out
}

/// An unreduced 512-bit value `T < p·2²⁵⁶`: a product, or a sum or
/// difference of products, awaiting one Montgomery reduction
/// ([`Wide::reduce`]). [`Wide::add`] and [`Wide::sub`] keep the bound by
/// folding `p·2²⁵⁶` (p on the high half) out of a sum that reaches it and
/// into a difference that borrows, so any chain of them may be reduced.
#[derive(Copy, Clone)]
pub(crate) struct Wide<P: FieldParams>([u64; 8], PhantomData<P>);

impl<P: FieldParams> Wide<P> {
    /// `self + other` modulo `p·2²⁵⁶`.
    #[inline]
    pub(crate) fn add(&self, other: &Self) -> Self {
        count!(wide);
        let mut carry = 0u64;
        let mut t = [0u64; 8];
        for i in 0..8 {
            t[i] = adc(self.0[i], other.0[i], &mut carry);
        }
        let high = [t[4], t[5], t[6], t[7]];
        if !lt(&high, &P::MODULUS) {
            t[4..].copy_from_slice(&sub_limbs(&high, &P::MODULUS));
        }
        Wide(t, PhantomData)
    }

    /// `self − other` modulo `p·2²⁵⁶`.
    #[inline]
    pub(crate) fn sub(&self, other: &Self) -> Self {
        count!(wide);
        let mut borrow = 0u64;
        let mut t = [0u64; 8];
        for i in 0..8 {
            t[i] = sbb(self.0[i], other.0[i], &mut borrow);
        }
        if borrow != 0 {
            let mut carry = 0u64;
            for i in 0..4 {
                t[i + 4] = adc(t[i + 4], P::MODULUS[i], &mut carry);
            }
        }
        Wide(t, PhantomData)
    }

    /// `9·self` modulo `p·2²⁵⁶`: the low half times 9 carries at most 8
    /// into the high half times 9, and that sum, below 9p, is reduced by
    /// [`reduce_below_9p`].
    #[inline]
    pub(crate) fn mul_by_9(&self) -> Self {
        count!(wide);
        let lo = times_9(&[self.0[0], self.0[1], self.0[2], self.0[3]]);
        let mut hi = times_9(&[self.0[4], self.0[5], self.0[6], self.0[7]]);
        let mut carry = 0u64;
        hi[0] = adc(hi[0], lo[4], &mut carry);
        for i in 1..5 {
            hi[i] = adc(hi[i], 0, &mut carry);
        }
        let hi = reduce_below_9p::<P>(&hi);
        Wide(
            [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]],
            PhantomData,
        )
    }

    /// The field element `self·2⁻²⁵⁶`: one Montgomery reduction.
    #[inline]
    pub(crate) fn reduce(&self) -> Field<P> {
        count!(red);
        Field(mont_reduce::<P>(&self.0), PhantomData)
    }
}

/// 4-limb Montgomery multiplication (CIOS): the product and reduction
/// interleaved, as `Field::mul` computed it before products were reduced
/// lazily. The oracle for `mul_wide` and `reduce`.
#[cfg(test)]
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
    use proptest::prelude::*;
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

    fn modulus() -> BigUint {
        BigUint::from_limbs(FpParams::MODULUS.to_vec())
    }

    fn big(limbs: &[u64]) -> BigUint {
        BigUint::from_limbs(limbs.to_vec())
    }

    fn raw(limbs: [u64; 4]) -> Fp {
        Field(limbs, PhantomData)
    }

    /// Raw Montgomery limbs at the ends of the range: 0, 1, p − 1, and
    /// random values.
    fn edge_elements(r: &mut StdRng) -> Vec<Fp> {
        let mut p_minus_1 = FpParams::MODULUS;
        p_minus_1[0] -= 1;
        let mut out = vec![raw([0; 4]), raw([1, 0, 0, 0]), raw(p_minus_1)];
        out.extend((0..5).map(|_| Fp::random(r)));
        out
    }

    /// A uniformly random valid [`Wide`] value (below `p·2²⁵⁶`).
    fn random_wide(r: &mut StdRng) -> Wide<FpParams> {
        use rand::Rng;
        let high = Fp::random(r).0;
        let t = [
            r.gen(),
            r.gen(),
            r.gen(),
            r.gen(),
            high[0],
            high[1],
            high[2],
            high[3],
        ];
        Wide(t, PhantomData)
    }

    /// `p − 2`, Fermat's inversion exponent.
    fn fermat_exp<P: FieldParams>() -> [u64; 4] {
        let m = P::MODULUS;
        [m[0] - 2, m[1], m[2], m[3]]
    }

    /// `a^(p−2)`: inversion as it was computed before binary Euclid, the
    /// oracle for [`Field::invert`].
    fn invert_fermat<P: FieldParams>(a: &Field<P>) -> Field<P> {
        a.pow(&fermat_exp::<P>())
    }

    /// Inversion's awkward inputs, as canonical values and as stored
    /// Montgomery limbs (the algorithm runs on the latter): 1, 2, p − 1,
    /// (p + 1)/2, and powers of two up to 2²⁵³, whose runs of trailing zero
    /// bits the algorithm strips one at a time; plus R mod p and R⁻¹ mod p
    /// as values (stored as R² mod p and 1).
    fn inversion_edges<P: FieldParams>() -> Vec<Field<P>> {
        let p = BigUint::from_limbs(P::MODULUS.to_vec());
        let one = BigUint::one();
        let mut values = vec![
            one.clone(),
            BigUint::from_u64(2),
            p.sub(&one),
            p.add(&one).shr(1),
        ];
        values.extend([63, 64, 65, 128, 200, 253].map(|k| one.shl(k)));
        let mut out: Vec<Field<P>> = values.iter().map(Field::from_biguint).collect();
        out.extend(values.iter().map(|v| {
            let mut limbs = [0u64; 4];
            limbs[..v.limbs().len()].copy_from_slice(v.limbs());
            Field(limbs, PhantomData)
        }));
        out.push(Field::from_biguint(&one.shl(256).rem(&p)));
        out.push(Field([1, 0, 0, 0], PhantomData));
        out
    }

    /// `T·2⁻²⁵⁶ mod p` for a 512-bit `T`: the Montgomery reduction oracle.
    fn redc_oracle(t: &[u64; 8]) -> BigUint {
        let p = modulus();
        let r_inv = Fp::from_biguint(&BigUint::one().shl(256).rem(&p))
            .invert()
            .expect("2^256 is a unit");
        big(t).mul(&r_inv.to_biguint()).rem(&p)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn lazy_mul_matches_the_cios_oracle(seed in any::<u64>()) {
            let elems = edge_elements(&mut StdRng::seed_from_u64(seed));
            for a in &elems {
                for b in &elems {
                    prop_assert_eq!(a.mul(b).0, mont_mul::<FpParams>(&a.0, &b.0));
                    let sums = Fp::mul_sums_wide(a, b, b, a).reduce();
                    prop_assert_eq!(sums, a.add(b).mul(&b.add(a)));
                    prop_assert_eq!(Fp::mul_sum_diff_wide(a, b).reduce(), a.add(b).mul(&a.sub(b)));
                    prop_assert_eq!(Fp::mul_double_wide(a, b).reduce(), a.double().mul(b));
                }
            }
        }

        #[test]
        fn wide_add_sub_reduce_match_biguint(seed in any::<u64>()) {
            let mut r = StdRng::seed_from_u64(seed);
            let bound = modulus().shl(256);
            for _ in 0..8 {
                let (x, y) = (random_wide(&mut r), random_wide(&mut r));
                let sum = x.add(&y);
                prop_assert_eq!(big(&sum.0), big(&x.0).add(&big(&y.0)).rem(&bound));
                let diff = x.sub(&y);
                prop_assert_eq!(
                    big(&diff.0),
                    big(&x.0).add(&bound).sub(&big(&y.0)).rem(&bound)
                );
                for w in [x, y, sum, diff] {
                    prop_assert_eq!(big(&w.reduce().0), redc_oracle(&w.0));
                }
            }
        }

        #[test]
        fn invert_matches_the_fermat_oracle(seed in any::<u64>()) {
            fn check<P: FieldParams>(r: &mut StdRng) -> Result<(), TestCaseError> {
                let mut values = inversion_edges::<P>();
                values.extend((0..8).map(|_| Field::<P>::random(r)));
                for a in values {
                    let inv = a.invert().expect("nonzero");
                    prop_assert_eq!(inv, invert_fermat(&a));
                    prop_assert_eq!(a.mul(&inv), Field::one());
                }
                Ok(())
            }
            let mut r = StdRng::seed_from_u64(seed);
            check::<FpParams>(&mut r)?;
            check::<FrParams>(&mut r)?;
        }

        #[test]
        fn fused_tails_and_wide_mul_by_9_match_their_chains(seed in any::<u64>()) {
            let mut r = StdRng::seed_from_u64(seed);
            for t in edge_elements(&mut r) {
                for z in edge_elements(&mut r) {
                    let t3 = t.double().add(&t);
                    prop_assert_eq!(Fp::triple_sub_double(&t, &z), t3.sub(&z.double()));
                    prop_assert_eq!(Fp::triple_add_double(&t, &z), t3.add(&z.double()));
                }
            }
            let mut p_minus_1 = FpParams::MODULUS;
            p_minus_1[0] -= 1;
            let max = Wide::<FpParams>(
                [u64::MAX, u64::MAX, u64::MAX, u64::MAX, p_minus_1[0], p_minus_1[1], p_minus_1[2], p_minus_1[3]],
                PhantomData,
            );
            let zero = Wide::<FpParams>([0; 8], PhantomData);
            for w in [max, zero, random_wide(&mut r), random_wide(&mut r)] {
                let added = (0..8).fold(w, |acc, _| acc.add(&w));
                prop_assert_eq!(w.mul_by_9().0, added.0);
            }
        }

        #[test]
        fn mul_by_9_matches_additions(seed in any::<u64>()) {
            fn chain<P: FieldParams>(a: &Field<P>) -> Field<P> {
                a.double().double().double().add(a)
            }
            let mut r = StdRng::seed_from_u64(seed);
            for a in edge_elements(&mut r) {
                prop_assert_eq!(a.mul_by_9(), chain(&a));
            }
            for _ in 0..8 {
                let a = Fr::random(&mut r);
                prop_assert_eq!(a.mul_by_9(), chain(&a));
            }
        }
    }

    #[test]
    fn wide_fold_boundary() {
        // x + y = p·2²⁵⁶ exactly folds to 0; one less is the largest valid
        // value and stays; a difference that borrows unfolds to p·2²⁵⁶ − y.
        let p = FpParams::MODULUS;
        let mut p_minus_1 = p;
        p_minus_1[0] -= 1;
        let wide = |lo: [u64; 4], hi: [u64; 4]| {
            Wide::<FpParams>(
                [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]],
                PhantomData,
            )
        };
        let half = wide([0, 0, 0, 1 << 63], [0; 4]);
        let rest = wide([0, 0, 0, 1 << 63], sub_limbs(&p, &[1, 0, 0, 0]));
        let max = wide([u64::MAX; 4], p_minus_1);
        assert_eq!(half.add(&rest).0, [0; 8]);
        let one = wide([1, 0, 0, 0], [0; 4]);
        let below = rest.sub(&one);
        assert_eq!(half.add(&below).0, max.0);
        assert_eq!(max.add(&one).0, [0; 8]);
        assert_eq!(max.add(&max).0, max.sub(&one).0);
        assert_eq!(wide([0; 4], [0; 4]).sub(&one).0, max.0);
        assert_eq!(big(&max.reduce().0), redc_oracle(&max.0));
        // Whole Karatsuba sums at their extremes: (2p − 2)² < p·2²⁵⁶.
        let top = raw(p_minus_1);
        let sums = Fp::mul_sums_wide(&top, &top, &top, &top);
        assert!(lt(&[sums.0[4], sums.0[5], sums.0[6], sums.0[7]], &p));
        assert_eq!(sums.reduce(), top.add(&top).mul(&top.add(&top)));
    }

    #[test]
    fn mul_by_9_at_quotient_boundaries() {
        // 9a crosses k·p at a = ⌈k·p/9⌉; both sides of each crossing, for
        // both fields.
        fn check<P: FieldParams>() {
            let p = BigUint::from_limbs(P::MODULUS.to_vec());
            let nine = BigUint::from_u64(9);
            for k in 1..9u64 {
                let (q, _) = p.mul(&BigUint::from_u64(k)).divrem(&nine);
                for a in [q.clone(), q.add(&BigUint::one())] {
                    let mut limbs = [0u64; 4];
                    limbs[..a.limbs().len()].copy_from_slice(a.limbs());
                    let x = Field::<P>(limbs, PhantomData);
                    let expect = a.mul(&nine).rem(&p);
                    let got = x.mul_by_9().0;
                    assert_eq!(big(&got), expect, "{} k = {k}", P::NAME);
                }
            }
        }
        check::<FpParams>();
        check::<FrParams>();
    }

    #[test]
    fn batch_invert_matches_single_inversions() {
        let mut r = rng();
        for n in [0usize, 1, 2, 5] {
            let values: Vec<Fp> = (0..n).map(|_| Fp::random(&mut r)).collect();
            let mut inverted = values.clone();
            let (counts, ok) = ops::count(|| Fp::batch_invert(&mut inverted));
            assert_eq!(ok, Some(()));
            assert_eq!(counts.inv, 1);
            for (v, i) in values.iter().zip(&inverted) {
                assert_eq!(v.invert(), Some(*i));
            }
        }
        let mut with_zero = vec![Fp::one(), Fp::zero(), Fp::from_u64(3)];
        let before = with_zero.clone();
        assert_eq!(Fp::batch_invert(&mut with_zero), None);
        assert_eq!(with_zero, before);
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
        assert!(Fr::zero().invert().is_none());
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
        assert_eq!(fermat_exp::<FpParams>().to_vec(), p.sub(&two).limbs());
        assert_eq!(Fp::SQRT_EXP.to_vec(), p.add(&BigUint::one()).shr(2).limbs());
        let mut exps = vec![
            vec![0],
            vec![1],
            vec![0, 0, 0],
            vec![u64::MAX; 4],
            vec![1 << 63, 0, 1],
            fermat_exp::<FpParams>().to_vec(),
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
