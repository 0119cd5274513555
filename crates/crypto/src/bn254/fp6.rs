//! Cubic extension `Fp6 = Fp2[v]/(v³ - ξ)`, ξ = 9 + u.
//!
//! Operation counts, in Fp2 products: [`Fp6::mul`] 6 (Karatsuba),
//! [`Fp6::mul_by_01`] 6 (sparse operand), [`Fp6::mul_fp`] 3 half-price
//! scalings; `mul_by_v` and additions are free of products.

use super::fp2::Fp2;

/// An element `c0 + c1·v + c2·v²` of Fp6.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Fp6 {
    pub c0: Fp2,
    pub c1: Fp2,
    pub c2: Fp2,
}

impl Fp6 {
    /// The additive identity.
    pub fn zero() -> Self {
        Fp6 {
            c0: Fp2::zero(),
            c1: Fp2::zero(),
            c2: Fp2::zero(),
        }
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Fp6 {
            c0: Fp2::one(),
            c1: Fp2::zero(),
            c2: Fp2::zero(),
        }
    }

    /// Construct from components.
    pub fn new(c0: Fp2, c1: Fp2, c2: Fp2) -> Self {
        Fp6 { c0, c1, c2 }
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero() && self.c2.is_zero()
    }

    /// Uniform random element.
    pub fn random(rng: &mut impl rand::Rng) -> Self {
        Fp6 {
            c0: Fp2::random(rng),
            c1: Fp2::random(rng),
            c2: Fp2::random(rng),
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        Fp6 {
            c0: self.c0.add(&other.c0),
            c1: self.c1.add(&other.c1),
            c2: self.c2.add(&other.c2),
        }
    }

    /// `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        Fp6 {
            c0: self.c0.sub(&other.c0),
            c1: self.c1.sub(&other.c1),
            c2: self.c2.sub(&other.c2),
        }
    }

    /// `-self`.
    pub fn neg(&self) -> Self {
        Fp6 {
            c0: self.c0.neg(),
            c1: self.c1.neg(),
            c2: self.c2.neg(),
        }
    }

    /// `self * other` with reduction v³ = ξ: Karatsuba over the three
    /// coefficients, 6 Fp2 products (schoolbook takes 9).
    pub fn mul(&self, other: &Self) -> Self {
        let (a0, a1, a2) = (&self.c0, &self.c1, &self.c2);
        let (b0, b1, b2) = (&other.c0, &other.c1, &other.c2);
        let v0 = a0.mul(b0);
        let v1 = a1.mul(b1);
        let v2 = a2.mul(b2);
        // Each cross sum aᵢbⱼ + aⱼbᵢ is (aᵢ+aⱼ)(bᵢ+bⱼ) − vᵢ − vⱼ.
        let x12 = a1.add(a2).mul(&b1.add(b2)).sub(&v1).sub(&v2);
        let x01 = a0.add(a1).mul(&b0.add(b1)).sub(&v0).sub(&v1);
        let x02 = a0.add(a2).mul(&b0.add(b2)).sub(&v0).sub(&v2);
        Fp6 {
            c0: v0.add(&x12.mul_by_nonresidue()),
            c1: x01.add(&v2.mul_by_nonresidue()),
            c2: x02.add(&v1),
        }
    }

    /// `self²`.
    pub fn square(&self) -> Self {
        self.mul(self)
    }

    /// Multiply by `v` (cyclic shift with ξ reduction): `(ξ·c2, c0, c1)`.
    pub fn mul_by_v(&self) -> Self {
        Fp6 {
            c0: self.c2.mul_by_nonresidue(),
            c1: self.c0,
            c2: self.c1,
        }
    }

    /// Multiply by the sparse element `b0 + b1·v` (two low coefficients
    /// only) — the Fp6 half of a Miller-loop line function.
    pub fn mul_by_01(&self, b0: &Fp2, b1: &Fp2) -> Self {
        // (c0 + c1 v + c2 v²)(b0 + b1 v)
        //   = (c0·b0 + ξ·c2·b1) + (c0·b1 + c1·b0) v + (c1·b1 + c2·b0) v²
        let a0 = self.c0.mul(b0);
        let a1 = self.c1.mul(b0);
        let a2 = self.c2.mul(b0);
        Fp6 {
            c0: a0.add(&self.c2.mul(b1).mul_by_nonresidue()),
            c1: a1.add(&self.c0.mul(b1)),
            c2: a2.add(&self.c1.mul(b1)),
        }
    }

    /// Scale every coefficient by a base-field element.
    pub fn mul_fp(&self, k: &super::fp::Fp) -> Self {
        Fp6 {
            c0: self.c0.mul_fp(k),
            c1: self.c1.mul_fp(k),
            c2: self.c2.mul_fp(k),
        }
    }

    /// Multiplicative inverse (standard cubic-extension formula).
    pub fn invert(&self) -> Option<Self> {
        let c0 = self
            .c0
            .square()
            .sub(&self.c1.mul(&self.c2).mul_by_nonresidue());
        let c1 = self
            .c2
            .square()
            .mul_by_nonresidue()
            .sub(&self.c0.mul(&self.c1));
        let c2 = self.c1.square().sub(&self.c0.mul(&self.c2));
        let t = self
            .c0
            .mul(&c0)
            .add(&self.c2.mul(&c1).add(&self.c1.mul(&c2)).mul_by_nonresidue());
        let t_inv = t.invert()?;
        Some(Fp6 {
            c0: c0.mul(&t_inv),
            c1: c1.mul(&t_inv),
            c2: c2.mul(&t_inv),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(13)
    }

    #[test]
    fn v_cubed_is_xi() {
        let v = Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero());
        let v3 = v.mul(&v).mul(&v);
        let xi = Fp6::new(Fp2::one().mul_by_nonresidue(), Fp2::zero(), Fp2::zero());
        assert_eq!(v3, xi);
    }

    #[test]
    fn field_axioms() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp6::random(&mut r);
            let b = Fp6::random(&mut r);
            let c = Fp6::random(&mut r);
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            assert_eq!(a.square(), a.mul(&a));
        }
    }

    #[test]
    fn karatsuba_mul_matches_schoolbook() {
        // The nine-product definition, coefficient by coefficient.
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp6::random(&mut r);
            let b = Fp6::random(&mut r);
            let cross = |x: &Fp2, y: &Fp2, z: &Fp2, w: &Fp2| x.mul(y).add(&z.mul(w));
            let schoolbook = Fp6 {
                c0: a
                    .c0
                    .mul(&b.c0)
                    .add(&cross(&a.c1, &b.c2, &a.c2, &b.c1).mul_by_nonresidue()),
                c1: cross(&a.c0, &b.c1, &a.c1, &b.c0).add(&a.c2.mul(&b.c2).mul_by_nonresidue()),
                c2: cross(&a.c0, &b.c2, &a.c2, &b.c0).add(&a.c1.mul(&b.c1)),
            };
            assert_eq!(a.mul(&b), schoolbook);
        }
    }

    #[test]
    fn inversion_round_trip() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp6::random(&mut r);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fp6::one());
        }
        assert!(Fp6::zero().invert().is_none());
    }

    #[test]
    fn mul_by_v_matches_explicit() {
        let mut r = rng();
        let v = Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero());
        for _ in 0..10 {
            let a = Fp6::random(&mut r);
            assert_eq!(a.mul_by_v(), a.mul(&v));
        }
    }
}
