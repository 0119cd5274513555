//! Quadratic extension `Fp12 = Fp6[w]/(w² - v)`: the pairing target field GT.
//!
//! Besides generic field arithmetic this provides the pairing engine's
//! special-purpose operations: sparse multiplication by Miller-loop line
//! functions ([`Fp12::mul_by_034`], for twist lines evaluated at a G1
//! point) and Granger–Scott cyclotomic squaring
//! ([`Fp12::cyclotomic_square`]), which is valid once an element has been
//! pushed into the cyclotomic subgroup by the easy part of the final
//! exponentiation.
//!
//! Operation counts, in Fp2 products (an Fp6 product is 6): [`Fp12::mul`]
//! 18 (Karatsuba, 3 Fp6 products), [`Fp12::square`] 12 (complex method, 2
//! Fp6 products), [`Fp12::mul_by_034`] 12 plus 6 half-price Fp scalings,
//! [`Fp12::cyclotomic_square`] 9 Fp2 *squarings* (2 Fp products each,
//! against 3 for an Fp2 product — about a third of a generic square).

use super::fp::Fp;
use super::fp2::Fp2;
use super::fp6::Fp6;

/// An element `c0 + c1·w` of Fp12.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Fp12 {
    pub c0: Fp6,
    pub c1: Fp6,
}

impl Fp12 {
    /// The additive identity.
    pub fn zero() -> Self {
        Fp12 {
            c0: Fp6::zero(),
            c1: Fp6::zero(),
        }
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Fp12 {
            c0: Fp6::one(),
            c1: Fp6::zero(),
        }
    }

    /// Construct from components.
    pub fn new(c0: Fp6, c1: Fp6) -> Self {
        Fp12 { c0, c1 }
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// True iff one.
    pub fn is_one(&self) -> bool {
        *self == Self::one()
    }

    /// Uniform random element.
    pub fn random(rng: &mut impl rand::Rng) -> Self {
        Fp12 {
            c0: Fp6::random(rng),
            c1: Fp6::random(rng),
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        Fp12 {
            c0: self.c0.add(&other.c0),
            c1: self.c1.add(&other.c1),
        }
    }

    /// `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        Fp12 {
            c0: self.c0.sub(&other.c0),
            c1: self.c1.sub(&other.c1),
        }
    }

    /// `self * other` (Karatsuba over Fp6, reduction w² = v).
    pub fn mul(&self, other: &Self) -> Self {
        let aa = self.c0.mul(&other.c0);
        let bb = self.c1.mul(&other.c1);
        let sum_a = self.c0.add(&self.c1);
        let sum_b = other.c0.add(&other.c1);
        Fp12 {
            c0: aa.add(&bb.mul_by_v()),
            c1: sum_a.mul(&sum_b).sub(&aa).sub(&bb),
        }
    }

    /// `self²` by the complex method, 2 Fp6 products:
    /// `(a + b·w)² = (a² + v·b²) + 2ab·w` with
    /// `a² + v·b² = (a + b)(a + v·b) − ab − v·ab`.
    pub fn square(&self) -> Self {
        let (a, b) = (&self.c0, &self.c1);
        let ab = a.mul(b);
        let c0 = a.add(b).mul(&a.add(&b.mul_by_v()));
        Fp12 {
            c0: c0.sub(&ab).sub(&ab.mul_by_v()),
            c1: ab.add(&ab),
        }
    }

    /// Conjugation `c0 - c1·w`; equals the Frobenius power `x ↦ x^(p^6)`
    /// (verified by a unit test), so for unitary elements it is the inverse.
    pub fn conjugate(&self) -> Self {
        Fp12 {
            c0: self.c0,
            c1: self.c1.neg(),
        }
    }

    /// Multiplicative inverse: `(c0 - c1 w) / (c0² - v·c1²)`.
    pub fn invert(&self) -> Option<Self> {
        let norm = self.c0.square().sub(&self.c1.square().mul_by_v());
        let inv = norm.invert()?;
        Some(Fp12 {
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

    /// Sparse multiplication by an ate line function of the shape
    /// `a (in Fp, slot c0.c0) + b·w (slot c1.c0) + c·v·w (slot c1.c1)`
    /// — what a twist line through multiples of Q evaluates to at a G1
    /// point P. Exploiting the shape costs 2 sparse Fp6 products plus two
    /// Fp scalings instead of a full Fp12 multiplication.
    pub fn mul_by_034(&self, a: &Fp, b: &Fp2, c: &Fp2) -> Self {
        // (f0 + f1·w)(a + (b + c·v)·w), using w² = v:
        //   c0 = f0·a + f1·(b + c·v)·v
        //   c1 = f0·(b + c·v) + f1·a
        let f0a = self.c0.mul_fp(a);
        let f1l = self.c1.mul_by_01(b, c);
        let f0l = self.c0.mul_by_01(b, c);
        let f1a = self.c1.mul_fp(a);
        Fp12 {
            c0: f0a.add(&f1l.mul_by_v()),
            c1: f0l.add(&f1a),
        }
    }

    /// Squaring in the cyclotomic subgroup `G_{Φ6}(p²)` (Granger–Scott).
    ///
    /// Only valid for elements `z` with `z^(p⁴-p²+1) = 1`, i.e. after the
    /// easy part `(p⁶-1)(p²+1)` of the final exponentiation; a unit test
    /// checks agreement with [`Fp12::square`] on such elements.
    pub fn cyclotomic_square(&self) -> Self {
        // Coefficients over the basis 1, v, v², w, vw, v²w, in the
        // SQR_CYC2345 arrangement of Granger–Scott 2010 (three Fp4
        // squarings).
        let z0 = self.c0.c0;
        let z4 = self.c0.c1;
        let z3 = self.c0.c2;
        let z2 = self.c1.c0;
        let z1 = self.c1.c1;
        let z5 = self.c1.c2;

        let (t0, t1) = fp4_square(&z0, &z1);
        let z0 = t0.sub(&z0).double().add(&t0);
        let z1 = t1.add(&z1).double().add(&t1);

        let (t0, t1) = fp4_square(&z2, &z3);
        let (t2, t3) = fp4_square(&z4, &z5);

        let z4 = t0.sub(&z4).double().add(&t0);
        let z5 = t1.add(&z5).double().add(&t1);

        let t0 = t3.mul_by_nonresidue();
        let z2 = t0.add(&z2).double().add(&t0);
        let z3 = t2.sub(&z3).double().add(&t2);

        Fp12 {
            c0: Fp6::new(z0, z4, z3),
            c1: Fp6::new(z2, z1, z5),
        }
    }
}

/// Squaring in Fp4 = Fp2[w']/(w'² - v_like_nonresidue): returns
/// `(a² + ξ·b², 2ab)` for the element `a + b·w'`.
fn fp4_square(a: &Fp2, b: &Fp2) -> (Fp2, Fp2) {
    let a2 = a.square();
    let b2 = b.square();
    let c0 = b2.mul_by_nonresidue().add(&a2);
    let c1 = a.add(b).square().sub(&a2).sub(&b2);
    (c0, c1)
}

#[cfg(test)]
mod tests {
    use super::super::fp::FieldParams;
    use super::super::fp::FpParams;
    use super::*;
    use crate::bigint::BigUint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    #[test]
    fn w_squared_is_v() {
        let w = Fp12::new(Fp6::zero(), Fp6::one());
        let v = Fp12::new(Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero()), Fp6::zero());
        assert_eq!(w.square(), v);
    }

    #[test]
    fn field_axioms() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp12::random(&mut r);
            let b = Fp12::random(&mut r);
            let c = Fp12::random(&mut r);
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            assert_eq!(a.square(), a.mul(&a));
        }
    }

    #[test]
    fn inversion_round_trip() {
        let mut r = rng();
        for _ in 0..5 {
            let a = Fp12::random(&mut r);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fp12::one());
        }
    }

    #[test]
    fn conjugate_equals_frobenius_p6() {
        // x^(p^6) must equal conjugation; this justifies the cheap easy part
        // of the final exponentiation.
        let p = BigUint::from_limbs(FpParams::MODULUS.to_vec());
        let p6 = p.mul(&p).mul(&p).mul(&p).mul(&p).mul(&p);
        let mut r = rng();
        let a = Fp12::random(&mut r);
        assert_eq!(a.pow(p6.limbs()), a.conjugate());
    }

    #[test]
    fn pow_small() {
        let mut r = rng();
        let a = Fp12::random(&mut r);
        assert_eq!(a.pow(&[0]), Fp12::one());
        assert_eq!(a.pow(&[1]), a);
        assert_eq!(a.pow(&[2]), a.square());
        assert_eq!(a.pow(&[3]), a.square().mul(&a));
    }
}
