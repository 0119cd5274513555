//! Cubic extension `Fp6 = Fp2[v]/(v³ - ξ)`, ξ = 9 + u.

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

    /// `self * other` with reduction v³ = ξ.
    pub fn mul(&self, other: &Self) -> Self {
        let a0b0 = self.c0.mul(&other.c0);
        let a1b1 = self.c1.mul(&other.c1);
        let a2b2 = self.c2.mul(&other.c2);
        // c0 = a0b0 + ξ(a1b2 + a2b1)
        let t0 = self
            .c1
            .mul(&other.c2)
            .add(&self.c2.mul(&other.c1))
            .mul_by_nonresidue();
        // c1 = a0b1 + a1b0 + ξ a2b2
        let t1 = self
            .c0
            .mul(&other.c1)
            .add(&self.c1.mul(&other.c0))
            .add(&a2b2.mul_by_nonresidue());
        // c2 = a0b2 + a1b1 + a2b0
        let t2 = self
            .c0
            .mul(&other.c2)
            .add(&a1b1)
            .add(&self.c2.mul(&other.c0));
        Fp6 {
            c0: a0b0.add(&t0),
            c1: t1,
            c2: t2,
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
