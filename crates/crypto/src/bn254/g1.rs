//! The group G1 = E(Fp) with E: y² = x³ + 3. For BN curves `#E(Fp) = r`
//! exactly (cofactor 1), so every finite point already has order r.

use super::curve::{Affine, CurveSpec, Point};
use super::fp::{FieldParams, Fp, FrParams};
use crate::sha256::Sha256;

/// Curve spec for G1.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct G1Spec;

impl CurveSpec for G1Spec {
    type F = Fp;
    fn b() -> Fp {
        Fp::from_u64(3)
    }
    const NAME: &'static str = "G1";
}

/// A G1 element (Jacobian).
pub type G1 = Point<G1Spec>;
/// A G1 element in affine form.
pub type G1Affine = Affine<G1Spec>;

/// Compressed G1 encoding length: tag byte + 32-byte x-coordinate.
pub const G1_COMPRESSED_LEN: usize = 33;

impl G1 {
    /// The standard generator (1, 2).
    pub fn generator() -> Self {
        G1::from_affine_coords(Fp::from_u64(1), Fp::from_u64(2))
    }

    /// Multiply by a scalar given as an Fr element's canonical limbs.
    pub fn mul_fr(&self, k: &super::fp::Fr) -> Self {
        self.mul_scalar(&k.to_canonical())
    }

    /// Hash a message to a G1 point (try-and-increment). Deterministic, and
    /// the output is uniform-ish over the curve; cofactor is 1 so no
    /// clearing step is needed. About half the candidates are
    /// non-residues; [`Fp::legendre`] turns those away without a power, so
    /// only the accepted candidate pays a square root.
    pub fn hash_to_curve(msg: &[u8]) -> Self {
        let mut counter: u32 = 0;
        loop {
            let mut h = Sha256::new();
            h.update(b"authdb-bn254-g1:");
            h.update(msg);
            h.update(&counter.to_be_bytes());
            let digest = h.finalize();
            let x = Fp::from_bytes_be_reduce(&digest);
            let y2 = x.square().mul(&x).add(&Fp::from_u64(3));
            if y2.legendre() != -1 {
                if let Some(y) = y2.sqrt() {
                    // One digest bit picks the root's sign deterministically.
                    return G1::from_affine_coords(x, with_parity(y, digest[0] & 1 == 1));
                }
            }
            counter += 1;
        }
    }

    /// Compressed serialization (tag byte + big-endian x).
    pub fn to_compressed(&self) -> [u8; G1_COMPRESSED_LEN] {
        let mut out = [0u8; G1_COMPRESSED_LEN];
        match self.to_affine() {
            Affine::Infinity => out[0] = 0x00,
            Affine::Coords(x, y) => {
                out[0] = if y.is_odd() { 0x03 } else { 0x02 };
                out[1..].copy_from_slice(&x.to_bytes_be());
            }
        }
        out
    }

    /// Decompress, accepting exactly the byte strings
    /// [`G1::to_compressed`] produces: any other string would be a second
    /// encoding of a point and break the bit-identical re-encoding that
    /// signatures downstream depend on. It rejects an unknown tag, an
    /// infinity tag with a nonzero tail, an x-coordinate at or above p, and
    /// an x with no point over it.
    ///
    /// One square root is the whole cost. `root² == x³ + 3` *is* the curve
    /// equation, and the cofactor is 1, so the point is in G1 without a
    /// further check. The result is the Z = 1 point, so nothing is
    /// inverted, and no re-encode is needed to prove canonicity: x < p is
    /// checked on the bytes, and the tag is the parity of y because y ≠ 0
    /// (a point with y = 0 would have order 2, and r is odd).
    pub fn from_compressed(bytes: &[u8; G1_COMPRESSED_LEN]) -> Option<Self> {
        let tail: &[u8; 32] = bytes[1..].try_into().ok()?;
        match bytes[0] {
            0x00 => (tail == &[0; 32]).then(G1::infinity),
            tag @ (0x02 | 0x03) => {
                let x = Fp::from_bytes_be(tail)?;
                let y = x.square().mul(&x).add(&Fp::from_u64(3)).sqrt()?;
                Some(G1::from_affine_coords(x, with_parity(y, tag == 0x03)))
            }
            _ => None,
        }
    }
}

/// `y` or `-y`, whichever has the given parity (for nonzero `y`).
fn with_parity(y: Fp, odd: bool) -> Fp {
    if y.is_odd() == odd {
        y
    } else {
        y.neg()
    }
}

/// The group order r as little-endian limbs (the Fr modulus).
pub fn group_order_limbs() -> [u64; 4] {
    FrParams::MODULUS
}

#[cfg(test)]
mod tests {
    use super::super::fp::Fr;
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(23)
    }

    #[test]
    fn generator_on_curve() {
        assert!(G1::generator().to_affine().is_on_curve());
    }

    #[test]
    fn generator_has_order_r() {
        let g = G1::generator();
        assert!(g.mul_scalar(&group_order_limbs()).is_infinity());
        assert!(!g.mul_scalar(&[2]).is_infinity());
    }

    #[test]
    fn group_axioms() {
        let mut r = rng();
        let g = G1::generator();
        let a = g.mul_scalar(&[r.gen::<u64>()]);
        let b = g.mul_scalar(&[r.gen::<u64>()]);
        let c = g.mul_scalar(&[r.gen::<u64>()]);
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        assert_eq!(a.add(&a.neg()), G1::infinity());
        assert_eq!(a.add(&G1::infinity()), a);
        assert_eq!(a.double(), a.add(&a));
    }

    #[test]
    fn scalar_mul_distributes() {
        let g = G1::generator();
        // (k1 + k2) g == k1 g + k2 g for small scalars
        let k1 = 123456789u64;
        let k2 = 987654321u64;
        assert_eq!(
            g.mul_scalar(&[k1 + k2]),
            g.mul_scalar(&[k1]).add(&g.mul_scalar(&[k2]))
        );
    }

    #[test]
    fn mul_fr_wraps_group_order() {
        let g = G1::generator();
        let one = Fr::from_u64(1);
        assert_eq!(g.mul_fr(&one), g);
        // r ≡ 0, so r+1 ≡ 1. Build r+1 through the reducing constructor —
        // r itself is not a canonical Fr value.
        let r = crate::bigint::BigUint::from_limbs(group_order_limbs().to_vec());
        let r_plus_1 = Fr::from_biguint(&r).add(&one);
        assert_eq!(g.mul_fr(&r_plus_1), g);
    }

    #[test]
    fn hash_to_curve_on_curve_and_distinct() {
        let p1 = G1::hash_to_curve(b"message one");
        let p2 = G1::hash_to_curve(b"message two");
        assert!(p1.to_affine().is_on_curve());
        assert!(p2.to_affine().is_on_curve());
        assert_ne!(p1, p2);
        // Deterministic
        assert_eq!(p1, G1::hash_to_curve(b"message one"));
    }

    #[test]
    fn compression_round_trip() {
        let mut r = rng();
        for _ in 0..10 {
            let p = G1::generator().mul_scalar(&[r.gen::<u64>(), r.gen::<u64>()]);
            let bytes = p.to_compressed();
            assert_eq!(G1::from_compressed(&bytes).unwrap(), p);
        }
        let inf = G1::infinity().to_compressed();
        assert!(G1::from_compressed(&inf).unwrap().is_infinity());
    }

    #[test]
    fn jacobian_affine_round_trip() {
        let g = G1::generator().mul_scalar(&[42]);
        let a = g.to_affine();
        assert_eq!(G1::from_affine(&a), g);
    }
}
