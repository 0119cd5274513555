//! Quadratic extension `Fp2 = Fp[u]/(u² + 1)`.

use super::fp::Fp;

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

    /// `self * other` (Karatsuba, 3 base-field multiplications).
    pub fn mul(&self, other: &Self) -> Self {
        let aa = self.c0.mul(&other.c0);
        let bb = self.c1.mul(&other.c1);
        let sum_a = self.c0.add(&self.c1);
        let sum_b = other.c0.add(&other.c1);
        Fp2 {
            c0: aa.sub(&bb),
            c1: sum_a.mul(&sum_b).sub(&aa).sub(&bb),
        }
    }

    /// `self²` ((a+b)(a-b), 2ab).
    pub fn square(&self) -> Self {
        let p = self.c0.add(&self.c1);
        let m = self.c0.sub(&self.c1);
        let ab = self.c0.mul(&self.c1);
        Fp2 {
            c0: p.mul(&m),
            c1: ab.double(),
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
        let nine_a0 = mul_by_9(&self.c0);
        let nine_a1 = mul_by_9(&self.c1);
        Fp2 {
            c0: nine_a0.sub(&self.c1),
            c1: self.c0.add(&nine_a1),
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

fn mul_by_9(a: &Fp) -> Fp {
    let two = a.double();
    let four = two.double();
    let eight = four.double();
    eight.add(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
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
