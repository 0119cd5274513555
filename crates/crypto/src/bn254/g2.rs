//! The group G2 ⊂ E'(Fp2) on the sextic D-twist E': y² = x³ + 3/(9+u).
//!
//! `#E'(Fp2) = r·c2` with cofactor `c2 = 2p - r`. Every G2 point this
//! crate handles is a multiple of the generator, so it is in the order-r
//! subgroup by construction; G2 points never cross the wire.

use std::sync::OnceLock;

use super::curve::{Affine, CurveSpec, Point};
use super::fp::Fp;
use super::fp2::Fp2;
use crate::bigint::BigUint;

/// Curve spec for the twist.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct G2Spec;

impl CurveSpec for G2Spec {
    type F = Fp2;
    fn b() -> Fp2 {
        static B: OnceLock<Fp2> = OnceLock::new();
        *B.get_or_init(|| {
            // b' = 3 / (9 + u)
            let xi = Fp2::new(Fp::from_u64(9), Fp::one());
            Fp2::from_fp(Fp::from_u64(3)).mul(&xi.invert().expect("xi nonzero"))
        })
    }
    const NAME: &'static str = "G2";
}

/// A G2 element (Jacobian, coordinates in Fp2).
pub type G2 = Point<G2Spec>;
/// A G2 element in affine form.
pub type G2Affine = Affine<G2Spec>;

impl G2 {
    /// The standard alt_bn128 G2 generator (as pinned by EIP-197).
    pub fn generator() -> Self {
        static GEN: OnceLock<(Fp2, Fp2)> = OnceLock::new();
        let (x, y) = GEN.get_or_init(|| {
            let fp = |s: &str| Fp::from_biguint(&BigUint::from_dec(s).expect("decimal"));
            let x = Fp2::new(
                fp("10857046999023057135944570762232829481370756359578518086990519993285655852781"),
                fp("11559732032986387107991004021392285783925812861821192530917403151452391805634"),
            );
            let y = Fp2::new(
                fp("8495653923123431417604973247489272438418190587263600148770280649306958101930"),
                fp("4082367875863433681332203403145435568316851327593401208105741076214120093531"),
            );
            (x, y)
        });
        G2::from_affine_coords(*x, *y)
    }

    /// Multiply by a scalar given as an Fr element.
    pub fn mul_fr(&self, k: &super::fp::Fr) -> Self {
        self.mul_scalar(&k.to_canonical())
    }
}

#[cfg(test)]
mod tests {
    use super::super::fp::{FieldParams, FrParams};
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn generator_on_curve_and_order_r() {
        let g = G2::generator();
        assert!(g.to_affine().is_on_curve(), "standard G2 generator invalid");
        assert!(
            g.mul_scalar(&FrParams::MODULUS).is_infinity(),
            "generator order is not r"
        );
        assert!(!g.mul_scalar(&[7]).is_infinity());
    }

    #[test]
    fn group_axioms() {
        let mut r = StdRng::seed_from_u64(29);
        let g = G2::generator();
        let a = g.mul_scalar(&[r.gen::<u64>()]);
        let b = g.mul_scalar(&[r.gen::<u64>()]);
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&a.neg()), G2::infinity());
        assert_eq!(a.double(), a.add(&a));
    }
}
