//! Quadratic extension `Fp2 = Fp[u]/(u² + 1)`.
//!
//! Costs, in Fp products and Montgomery reductions: [`Fp2::mul`] 3 and 2
//! (Karatsuba, products summed unreduced, one reduction per coefficient),
//! [`Fp2::square`] 2 and 2, [`Fp2::mul_fp`] 2 and 2; no product pays a
//! modular addition. [`Fp2::mul_by_nonresidue`] is two `mul_by_9`s, an add
//! and a sub.

use super::fp::{Fp, FpParams, Wide};

/// An element `c0 + c1·u` of Fp2.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Fp2 {
    pub c0: Fp,
    pub c1: Fp,
}

impl Fp2 {
    /// The additive identity.
    pub fn zero() -> Self {
        Fp2 {
            c0: Fp::zero(),
            c1: Fp::zero(),
        }
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Fp2 {
            c0: Fp::one(),
            c1: Fp::zero(),
        }
    }

    /// Construct from components.
    pub fn new(c0: Fp, c1: Fp) -> Self {
        Fp2 { c0, c1 }
    }

    /// Embed a base-field element.
    pub fn from_fp(c0: Fp) -> Self {
        Fp2 { c0, c1: Fp::zero() }
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// Uniform random element.
    pub fn random(rng: &mut impl rand::Rng) -> Self {
        Fp2 {
            c0: Fp::random(rng),
            c1: Fp::random(rng),
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        Fp2 {
            c0: self.c0.add(&other.c0),
            c1: self.c1.add(&other.c1),
        }
    }

    /// `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        Fp2 {
            c0: self.c0.sub(&other.c0),
            c1: self.c1.sub(&other.c1),
        }
    }

    /// `-self`.
    pub fn neg(&self) -> Self {
        Fp2 {
            c0: self.c0.neg(),
            c1: self.c1.neg(),
        }
    }

    /// `2·self`.
    pub fn double(&self) -> Self {
        self.add(self)
    }

    /// `self * other` (Karatsuba, 3 Fp products), reduced once per
    /// coefficient.
    pub fn mul(&self, other: &Self) -> Self {
        self.mul_wide(other).reduce()
    }

    /// `self * other` with unreduced coefficients (Karatsuba, 3 Fp
    /// products): `a0b0 − a1b1` and `(a0 + a1)(b0 + b1) − a0b0 − a1b1`.
    #[inline]
    pub(crate) fn mul_wide(&self, other: &Self) -> Fp2Wide {
        let aa = self.c0.mul_wide(&other.c0);
        let bb = self.c1.mul_wide(&other.c1);
        let sums = Fp::mul_sums_wide(&self.c0, &self.c1, &other.c0, &other.c1);
        Fp2Wide {
            c0: aa.sub(&bb),
            c1: sums.sub(&aa).sub(&bb),
        }
    }

    /// `self²`: `(a + b)(a − b) + 2ab·u`, two products and two reductions.
    pub fn square(&self) -> Self {
        self.square_wide().reduce()
    }

    /// `self²` with unreduced coefficients.
    #[inline]
    pub(crate) fn square_wide(&self) -> Fp2Wide {
        Fp2Wide {
            c0: Fp::mul_sum_diff_wide(&self.c0, &self.c1),
            c1: Fp::mul_double_wide(&self.c0, &self.c1),
        }
    }

    /// `3t − 2z`, coefficient by coefficient.
    #[inline]
    pub(crate) fn triple_sub_double(t: &Self, z: &Self) -> Self {
        Fp2 {
            c0: Fp::triple_sub_double(&t.c0, &z.c0),
            c1: Fp::triple_sub_double(&t.c1, &z.c1),
        }
    }

    /// `3t + 2z`, coefficient by coefficient.
    #[inline]
    pub(crate) fn triple_add_double(t: &Self, z: &Self) -> Self {
        Fp2 {
            c0: Fp::triple_add_double(&t.c0, &z.c0),
            c1: Fp::triple_add_double(&t.c1, &z.c1),
        }
    }

    /// Scale by a base-field element.
    pub fn mul_fp(&self, k: &Fp) -> Self {
        Fp2 {
            c0: self.c0.mul(k),
            c1: self.c1.mul(k),
        }
    }

    /// Multiply by the sextic non-residue ξ = 9 + u:
    /// `(9a0 - a1) + (a0 + 9a1)u`.
    pub fn mul_by_nonresidue(&self) -> Self {
        Fp2 {
            c0: self.c0.mul_by_9().sub(&self.c1),
            c1: self.c0.add(&self.c1.mul_by_9()),
        }
    }

    /// Conjugate `c0 - c1·u` (= Frobenius `x ↦ x^p` on Fp2).
    pub fn conjugate(&self) -> Self {
        Fp2 {
            c0: self.c0,
            c1: self.c1.neg(),
        }
    }

    /// Multiplicative inverse: `(c0 - c1·u) / (c0² + c1²)`.
    pub fn invert(&self) -> Option<Self> {
        let norm = self.c0.square().add(&self.c1.square());
        let inv = norm.invert()?;
        Some(Fp2 {
            c0: self.c0.mul(&inv),
            c1: self.c1.neg().mul(&inv),
        })
    }

    /// `self^exp` for a little-endian limb exponent.
    pub fn pow(&self, exp: &[u64]) -> Self {
        let mut result = Self::one();
        let mut found_one = false;
        for i in (0..exp.len() * 64).rev() {
            if found_one {
                result = result.square();
            }
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                found_one = true;
                result = result.mul(self);
            }
        }
        result
    }
}

/// An Fp2 value whose coefficients await their Montgomery reduction: the
/// extension fields sum several [`Fp2::mul_wide`] products and reduce the
/// sum once.
#[derive(Copy, Clone)]
pub(crate) struct Fp2Wide {
    c0: Wide<FpParams>,
    c1: Wide<FpParams>,
}

impl Fp2Wide {
    /// `self + other`, still unreduced.
    #[inline]
    pub(crate) fn add(&self, other: &Self) -> Self {
        Fp2Wide {
            c0: self.c0.add(&other.c0),
            c1: self.c1.add(&other.c1),
        }
    }

    /// `self − other`, still unreduced.
    #[inline]
    pub(crate) fn sub(&self, other: &Self) -> Self {
        Fp2Wide {
            c0: self.c0.sub(&other.c0),
            c1: self.c1.sub(&other.c1),
        }
    }

    /// `ξ·self = (9c0 − c1) + (c0 + 9c1)u`, still unreduced.
    #[inline]
    pub(crate) fn mul_by_nonresidue(&self) -> Self {
        Fp2Wide {
            c0: self.c0.mul_by_9().sub(&self.c1),
            c1: self.c0.add(&self.c1.mul_by_9()),
        }
    }

    /// The reduced value: one Montgomery reduction per coefficient.
    #[inline]
    pub(crate) fn reduce(&self) -> Fp2 {
        Fp2 {
            c0: self.c0.reduce(),
            c1: self.c1.reduce(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    /// `Field::mul`'s Karatsuba with a reduction per product, as `Fp2::mul`
    /// computed it before products were summed unreduced: the oracle.
    pub(crate) fn mul_oracle(a: &Fp2, b: &Fp2) -> Fp2 {
        let aa = a.c0.mul(&b.c0);
        let bb = a.c1.mul(&b.c1);
        let sums = a.c0.add(&a.c1).mul(&b.c0.add(&b.c1));
        Fp2::new(aa.sub(&bb), sums.sub(&aa).sub(&bb))
    }

    /// Elements with coefficients 0, 1 and p − 1 in every combination,
    /// then random ones.
    pub(crate) fn edge_elements(r: &mut StdRng) -> Vec<Fp2> {
        let edges = [Fp::zero(), Fp::one(), Fp::one().neg()];
        let mut out: Vec<Fp2> = edges
            .iter()
            .flat_map(|a| edges.iter().map(|b| Fp2::new(*a, *b)))
            .collect();
        out.extend((0..4).map(|_| Fp2::random(r)));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn lazy_mul_and_square_match_the_oracle(seed in any::<u64>()) {
            let elems = edge_elements(&mut StdRng::seed_from_u64(seed));
            for a in &elems {
                for b in &elems {
                    prop_assert_eq!(a.mul(b), mul_oracle(a, b));
                }
                prop_assert_eq!(a.square(), mul_oracle(a, a));
                let (a2, b2) = (a.square_wide(), elems[0].square_wide());
                prop_assert_eq!(a2.mul_by_nonresidue().reduce(), a.square().mul_by_nonresidue());
                prop_assert_eq!(a2.sub(&b2).reduce(), a.square().sub(&elems[0].square()));
            }
        }
    }

    #[test]
    fn u_squared_is_minus_one() {
        let u = Fp2::new(Fp::zero(), Fp::one());
        assert_eq!(u.square(), Fp2::from_fp(Fp::one().neg()));
    }

    #[test]
    fn field_axioms() {
        let mut r = rng();
        for _ in 0..30 {
            let a = Fp2::random(&mut r);
            let b = Fp2::random(&mut r);
            let c = Fp2::random(&mut r);
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            assert_eq!(a.square(), a.mul(&a));
            assert_eq!(a.sub(&a), Fp2::zero());
        }
    }

    #[test]
    fn inversion_round_trip() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp2::random(&mut r);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fp2::one());
        }
        assert!(Fp2::zero().invert().is_none());
    }

    #[test]
    fn nonresidue_matches_explicit_mul() {
        let mut r = rng();
        let xi = Fp2::new(Fp::from_u64(9), Fp::one());
        for _ in 0..20 {
            let a = Fp2::random(&mut r);
            assert_eq!(a.mul_by_nonresidue(), a.mul(&xi));
        }
    }

    #[test]
    fn conjugate_is_multiplicative() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp2::random(&mut r);
            let b = Fp2::random(&mut r);
            assert_eq!(a.mul(&b).conjugate(), a.conjugate().mul(&b.conjugate()));
        }
    }
}
