//! BN254 ("alt_bn128") pairing-friendly elliptic curve.
//!
//! The curve is `y^2 = x^3 + 3` over the 254-bit prime `p`, with `#E(Fp) = r`
//! prime (cofactor 1). G2 lives on the sextic D-twist `y'^2 = x'^3 + 3/(9+u)`
//! over Fp2. A 160-bit-security BN curve is exactly the "160-bit ECC"
//! setting of the paper's Table 3.
//!
//! # The prepared-pairing pipeline
//!
//! The pairing is the reduced **optimal-ate pairing**
//! `e(P, Q) = (f_{6x+2,psi(Q)}(P) · l₁(P) · l₂(P))^((p^12-1)/r)`: a Miller
//! loop over the signed NAF of `6x + 2` (65 doubling steps and 21 additions
//! — a quarter of the group order's bits), two closing lines `l₁`, `l₂`
//! through the Frobenius images `π_p(Q)` and `-π_{p²}(Q)`, and denominator
//! elimination. Verification workloads evaluate products of pairings
//! against *fixed* G2 points (the generator and the signer's public key),
//! so the engine is organized around three amortizations:
//!
//! 1. [`pairing::G2Prepared`] runs the Miller loop's twist arithmetic once
//!    per G2 point and stores its 88 line coefficients; each pairing
//!    against the point is then inversion-free sparse folding.
//! 2. [`pairing::multi_miller_loop`] accumulates any number of
//!    `(G1, G2Prepared)` terms into one Fp12 value under a single shared
//!    squaring chain.
//! 3. [`pairing::final_exponentiation`] is paid once per *product* rather
//!    than once per pairing, and its hard part is three powers by the
//!    63-bit `x` with Granger–Scott cyclotomic squarings plus a short
//!    Frobenius addition chain, from the exact base-`p` expansion of
//!    `(p⁴-p²+1)/r` — not a walk over that 761-bit exponent.
//!
//! The tower under it is Karatsuba at every level (3 / 6 / 18 Fp2-level
//! products for Fp2 / Fp6 / Fp12) with a complex-method Fp12 square. See
//! the [`pairing`] module docs for the derivations and references, and for
//! why a `pairing()` value is only meaningful relative to another one.
//!
//! Scalar multiplication in G1/G2 uses width-4 wNAF with precomputed
//! odd-multiple tables; sums of products share one doubling chain (see
//! [`curve::Point::multi_mul_scalar`]).

pub mod curve;
pub mod fp;
pub mod fp12;
pub mod fp2;
pub mod fp6;
pub mod g1;
pub mod g2;
pub mod pairing;

pub use curve::Affine;
pub use fp::{Fp, Fr};
pub use fp12::Fp12;
pub use fp2::Fp2;
pub use fp6::Fp6;
pub use g1::{G1Affine, G1};
pub use g2::{G2Affine, G2};
pub use pairing::{final_exponentiation, multi_miller_loop, pairing, pairing_affine, G2Prepared};
