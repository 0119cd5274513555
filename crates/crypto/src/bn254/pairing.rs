//! Batched multi-pairing engine: the reduced **optimal-ate pairing**
//! `e: G1 × G2 → GT ⊂ Fp12` with precomputed G2 lines and a shared final
//! exponentiation.
//!
//! # Miller loop
//!
//! `e(P, Q) = (f_{6x+2,Q}(P) · l_{[6x+2]Q, π_p(Q)}(P) · l_{[6x+2]Q + π_p(Q),
//! −π_{p²}(Q)}(P))^((p¹²−1)/r)` (Vercauteren's optimal pairing for BN
//! curves, in the form of Beuchat et al., *High-Speed Software
//! Implementation of the Optimal Ate Pairing over Barreto–Naehrig Curves*,
//! Pairing 2010), with `Q` untwisted by `ψ: (x', y') ↦ (x'·w², y'·w³)`.
//! The loop walks the signed NAF of `6x + 2` — 66 digits of weight 22, so
//! 65 doubling steps and 21 `±Q` additions, a quarter of the group order's
//! 254 bits — and closes with two chords through the Frobenius images
//! `π_p(Q)` and `−π_{p²}(Q)`, which in twist coordinates are
//! `(conj(x')·ξ^((p−1)/3), conj(y')·ξ^((p−1)/2))` and
//! `(x'·ξ^((p²−1)/3), y')`: **88 lines** per point in all.
//!
//! Because the loop point lives in G2, every line coefficient depends only
//! on Q — [`G2Prepared`] computes them once per point (one inversion per
//! line, paid at preparation time), and each pairing evaluation is reduced
//! to sparse Fp12 folds of the precomputed lines at P's two Fp coordinates.
//! Verification always pairs against the same public key and generator, so
//! preparation amortizes to zero across queries. [`multi_miller_loop`]
//! accumulates any number of pairings into a single Miller value under one
//! shared `f` squaring chain.
//!
//! What the Miller value may drop: every factor that lies in a proper
//! subfield of Fp12 is erased by the final exponentiation, because
//! `(p¹²−1)/r` is a multiple of `p⁶−1`. That covers the vertical lines
//! (they evaluate into Fp6 — denominator elimination; a `−Q` addition's
//! `f_{−1,Q}` is one of them) and any `Fp*` scaling of a line. The
//! Frobenius images are again points `ψ(twist point)` of G2, so the two
//! closing chords have the same sparse shape as every other line.
//!
//! The loop uses the second freedom: it divides every line by `y_P`, so
//! the line's Fp slot is one and a fold multiplies by nothing but its two
//! Fp2 slots (`−λ·x_P/y_P` and `c/y_P`). For a Jacobian `P = (X : Y : Z)`
//! those need only `1/Y` (`x/y = XZ/Y`, `1/y = Z³/Y`), so the loop never
//! converts P to affine, and one batched inversion serves every term.
//!
//! # Final exponentiation
//!
//! Paid **once** per product instead of once per pairing, via
//! `(p¹²−1)/r = (p⁶−1)·(p²+1)·((p⁴−p²+1)/r)`. The easy factors are a
//! conjugation, an inversion and one p²-Frobenius. The hard part uses the
//! *exact* base-`p` expansion of Scott, Benger, Charlemagne, Dominguez Perez
//! and Kachisa (*On the Final Exponentiation for Calculating Pairings on
//! Ordinary Elliptic Curves*, Pairing 2009):
//!
//! ```text
//! (p⁴−p²+1)/r = p³ + (6x²+1)·p² − (36x³+18x²+12x−1)·p − (36x³+30x²+18x+2)
//! ```
//!
//! evaluated as three powers by the 63-bit `x` (each an addition chain of 62
//! Granger–Scott cyclotomic squarings and 17 products, inversion free by
//! conjugation), the `p`, `p²`, `p³` Frobenius maps and their vectorial
//! addition chain `y₀·y₁²·y₂⁶·y₃¹²·y₄¹⁸·y₅³⁰·y₆³⁶` — 190 cyclotomic squarings
//! and 66 Fp12 products. The exponent is the whole `(p¹²−1)/r`, not a
//! multiple of it, so the result is the same field element a digit-by-digit
//! walk of the 761-bit hard exponent produces (a test keeps that walk as
//! its oracle).
//!
//! # Values
//!
//! The optimal-ate value is a fixed power of the `T = t − 1` ate pairing's
//! (and of the Tate pairing's): the same bilinear map up to a constant
//! exponent coprime to `r`. Every *relation* between pairings therefore
//! holds unchanged, while a single `pairing()` value differs from what
//! another loop count would give. Nothing in this workspace stores, ships
//! or compares a GT element except through `is_one()` and
//! pairing-against-pairing equalities. Bilinearity, non-degeneracy and
//! multi-pairing consistency are property-tested.

use std::sync::OnceLock;

use super::curve::{wnaf_digits, Affine};
use super::fp::{FieldParams, Fp, FpParams};
use super::fp12::Fp12;
use super::fp2::Fp2;
use super::fp6::Fp6;
use super::g1::{G1Affine, G1};
use super::g2::{G2Affine, G2};
use crate::bigint::BigUint;

/// The BN parameter `x`; `p`, `r`, and `t` are polynomials in it.
const BN_X: u64 = 4965661367192848881;

/// One step of the optimal-ate loop: which line it folds in.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Line {
    /// Tangent at the loop point `T` (then `T ← 2T`); `f` is squared first.
    Tangent,
    /// Chord through `T` and `Q` / `−Q` (a `±1` NAF digit of `6x + 2`).
    PlusQ,
    MinusQ,
    /// The two closing chords through `π_p(Q)` and `−π_{p²}(Q)`.
    PlusFrobenius,
    MinusFrobenius2,
}

/// The loop's line schedule, shared by [`G2Prepared`] (which computes one
/// coefficient pair per entry) and [`multi_miller_loop`] (which folds one
/// per entry): the signed NAF of `6x + 2` below its leading digit, most
/// significant first, then the two Frobenius chords.
fn line_schedule() -> &'static [Line] {
    static S: OnceLock<Vec<Line>> = OnceLock::new();
    S.get_or_init(|| {
        let count = 6 * BN_X as u128 + 2;
        let naf = wnaf_digits(&[count as u64, (count >> 64) as u64], 2);
        let mut steps = Vec::new();
        for &d in naf.iter().rev().skip(1) {
            steps.push(Line::Tangent);
            match d {
                1 => steps.push(Line::PlusQ),
                -1 => steps.push(Line::MinusQ),
                _ => {}
            }
        }
        steps.extend([Line::PlusFrobenius, Line::MinusFrobenius2]);
        steps
    })
}

/// `[γ, γ², …, γ⁵]` for `γ = ξ^((q−1)/6)`, the factor `w` picks up under
/// the `q`-power Frobenius (`w⁶ = ξ = 9 + u`; `q` is `p` or `p²`).
fn frobenius_gammas(q: &BigUint) -> [Fp2; 5] {
    let (e, rem) = q.sub(&BigUint::one()).divrem(&BigUint::from_u64(6));
    assert!(rem.is_zero(), "6 must divide q - 1");
    let g1 = Fp2::new(Fp::from_u64(9), Fp::one()).pow(e.limbs());
    let g2 = g1.mul(&g1);
    let g3 = g2.mul(&g1);
    let g4 = g3.mul(&g1);
    let g5 = g4.mul(&g1);
    [g1, g2, g3, g4, g5]
}

/// Constants `γ_k = ξ^(k·(p−1)/6)`, k = 1..5, scaling the Fp12 basis slots
/// under the p-power Frobenius.
fn frobenius_p_gammas() -> &'static [Fp2; 5] {
    static G: OnceLock<[Fp2; 5]> = OnceLock::new();
    G.get_or_init(|| frobenius_gammas(&BigUint::from_limbs(FpParams::MODULUS.to_vec())))
}

/// Constants `γ_k = ξ^(k·(p²−1)/6)`, k = 1..5, for the p²-power Frobenius
/// (all in Fp: they are sixth roots of unity).
fn frobenius_p2_gammas() -> &'static [Fp2; 5] {
    static G: OnceLock<[Fp2; 5]> = OnceLock::new();
    G.get_or_init(|| {
        let p = BigUint::from_limbs(FpParams::MODULUS.to_vec());
        frobenius_gammas(&p.mul(&p))
    })
}

/// The Frobenius `x ↦ x^p` on Fp12: Fp2 coefficients are conjugated and the
/// basis element `v^i·w^j = w^(2i+j)` picks up `γ_(2i+j)`, since
/// `w^(p−1) = ξ^((p−1)/6)`.
fn frobenius_p(f: &Fp12) -> Fp12 {
    let g = frobenius_p_gammas();
    let (a, b) = (&f.c0, &f.c1);
    Fp12 {
        c0: Fp6::new(
            a.c0.conjugate(),
            a.c1.conjugate().mul(&g[1]),
            a.c2.conjugate().mul(&g[3]),
        ),
        c1: Fp6::new(
            b.c0.conjugate().mul(&g[0]),
            b.c1.conjugate().mul(&g[2]),
            b.c2.conjugate().mul(&g[4]),
        ),
    }
}

/// The Frobenius power `x ↦ x^(p²)` on Fp12: Fp2 coefficients are fixed;
/// the basis element `v^i·w^j = ξ^((2i+j)/6)` picks up `γ^(2i+j)`.
// authdb-lint: allow(serving-surface): read by `crypto_micro`'s NAF-walk final-exponentiation baseline
pub fn frobenius_p2(f: &Fp12) -> Fp12 {
    let g = frobenius_p2_gammas();
    Fp12 {
        c0: Fp6::new(f.c0.c0, f.c0.c1.mul(&g[1]), f.c0.c2.mul(&g[3])),
        c1: Fp6::new(f.c1.c0.mul(&g[0]), f.c1.c1.mul(&g[2]), f.c1.c2.mul(&g[4])),
    }
}

/// `π_p` on G2 in twist coordinates: `ψ⁻¹ ∘ (x, y) ↦ (x^p, y^p) ∘ ψ`, i.e.
/// `(conj(x')·w^(2(p−1)), conj(y')·w^(3(p−1)))`. On G2 this is `Q ↦ [p]Q`.
fn twist_frobenius_p(q: &(Fp2, Fp2)) -> (Fp2, Fp2) {
    let g = frobenius_p_gammas();
    (q.0.conjugate().mul(&g[1]), q.1.conjugate().mul(&g[2]))
}

/// `−π_{p²}` on G2 in twist coordinates: `π_{p²}` scales `x'` by the cube
/// root of unity `ξ^((p²−1)/3)` and `y'` by `ξ^((p²−1)/2) = −1`.
fn twist_frobenius_p2_neg(q: &(Fp2, Fp2)) -> (Fp2, Fp2) {
    (q.0.mul(&frobenius_p2_gammas()[1]), q.1)
}

/// One precomputed Miller-loop line for a fixed G2 point: `(-λ, λ·x_T -
/// y_T)` with λ the twist slope at the step's loop point. Evaluated at a
/// G1 point `(xp, yp)` the line is the sparse Fp12 element `yp + (-λ·xp)·w
/// + (λ·x_T - y_T)·v·w`, which the loop folds divided by `yp`.
type LineCoeff = (Fp2, Fp2);

/// A G2 point with its Miller-loop line coefficients precomputed.
///
/// Preparation performs the whole optimal-ate loop's twist arithmetic (one
/// Fp2 inversion per line) once; every subsequent pairing against this
/// point only folds the 88 stored lines. Verifiers should build this once
/// per public key / generator and reuse it for the key's lifetime.
#[derive(Clone, Debug)]
pub struct G2Prepared {
    /// One entry per [`line_schedule`] step; empty for infinity.
    coeffs: Vec<LineCoeff>,
    infinity: bool,
}

impl G2Prepared {
    /// Prepare an affine G2 point.
    pub fn from_affine(q: &G2Affine) -> Self {
        let Affine::Coords(qx, qy) = q else {
            return G2Prepared {
                coeffs: Vec::new(),
                infinity: true,
            };
        };
        let q = (*qx, *qy);
        let neg_q = (q.0, q.1.neg());
        let q1 = twist_frobenius_p(&q);
        let neg_q2 = twist_frobenius_p2_neg(&q);
        let mut t = q;
        let coeffs = line_schedule()
            .iter()
            .map(|line| match line {
                Line::Tangent => tangent_line(&mut t),
                Line::PlusQ => chord_line(&mut t, &q),
                Line::MinusQ => chord_line(&mut t, &neg_q),
                Line::PlusFrobenius => chord_line(&mut t, &q1),
                Line::MinusFrobenius2 => chord_line(&mut t, &neg_q2),
            })
            .collect();
        G2Prepared {
            coeffs,
            infinity: false,
        }
    }

    /// Prepare a (Jacobian) G2 point.
    pub fn new(q: &G2) -> Self {
        Self::from_affine(&q.to_affine())
    }

    /// True iff this is the point at infinity (pairs to 1 with everything).
    pub fn is_infinity(&self) -> bool {
        self.infinity
    }
}

impl From<&G2> for G2Prepared {
    fn from(q: &G2) -> Self {
        G2Prepared::new(q)
    }
}

/// Tangent line at `t` on the twist; advances `t` to `2t`.
fn tangent_line(t: &mut (Fp2, Fp2)) -> LineCoeff {
    let (x, y) = *t;
    debug_assert!(!y.is_zero(), "no 2-torsion in the order-r subgroup");
    let x2 = x.square();
    let three_x2 = x2.double().add(&x2);
    let lambda = three_x2.mul(&y.double().invert().expect("y nonzero"));
    let c = lambda.mul(&x).sub(&y);
    let x3 = lambda.square().sub(&x.double());
    let y3 = lambda.mul(&x.sub(&x3)).sub(&y);
    *t = (x3, y3);
    (lambda.neg(), c)
}

/// Chord line through `t` and `q` on the twist; advances `t` to `t + q`.
fn chord_line(t: &mut (Fp2, Fp2), q: &(Fp2, Fp2)) -> LineCoeff {
    let (x, y) = *t;
    debug_assert!(
        x != q.0,
        "loop scalar prefixes never meet ±Q, nor [6x+2]Q the Frobenius images"
    );
    let lambda = q.1.sub(&y).mul(&q.0.sub(&x).invert().expect("x1 != x2"));
    let c = lambda.mul(&x).sub(&y);
    let x3 = lambda.square().sub(&x).sub(&q.0);
    let y3 = lambda.mul(&x.sub(&x3)).sub(&y);
    *t = (x3, y3);
    (lambda.neg(), c)
}

/// The product of optimal-ate Miller values `∏_i f_{6x+2,Q_i}(P_i)·(two
/// Frobenius chords)` accumulated in a single Fp12 value with one shared
/// squaring chain, each line divided by its `y_P` (see the module docs).
///
/// Terms whose G1 point is infinity or whose prepared G2 point is infinity
/// contribute the identity. The result still needs
/// [`final_exponentiation`] — shared across all terms, which is the point:
/// a k-term product pays one final exponentiation instead of k.
pub fn multi_miller_loop(terms: &[(&G1Affine, &G2Prepared)]) -> Fp12 {
    let points: Vec<G1> = terms.iter().map(|(p, _)| G1::from_affine(p)).collect();
    let jacobian: Vec<(&G1, &G2Prepared)> = points
        .iter()
        .zip(terms)
        .map(|(p, (_, prep))| (p, *prep))
        .collect();
    multi_miller_loop_jacobian(&jacobian)
}

/// [`multi_miller_loop`] on Jacobian G1 points, which it never converts to
/// affine: each line is divided by `y_P` (an `Fp*` factor, which the final
/// exponentiation erases), so a line needs only `x_P/y_P = XZ/Y` and
/// `1/y_P = Z³/Y`, and one batched inversion serves every term's `1/Y`. A
/// finite G1 point has `Y ≠ 0`: a point with `y = 0` has order 2, and `r`
/// is odd.
pub(crate) fn multi_miller_loop_jacobian(terms: &[(&G1, &G2Prepared)]) -> Fp12 {
    let active: Vec<(&G1, &G2Prepared)> = terms
        .iter()
        .filter(|(p, prep)| !p.is_infinity() && !prep.infinity)
        .copied()
        .collect();
    let mut y_inv: Vec<Fp> = active.iter().map(|(p, _)| p.y).collect();
    Fp::batch_invert(&mut y_inv).expect("a finite G1 point has y ≠ 0");
    let scaled: Vec<(Fp, Fp, &G2Prepared)> = active
        .iter()
        .zip(&y_inv)
        .map(|((p, prep), yi)| {
            let z2 = p.z.square();
            (p.x.mul(&p.z).mul(yi), z2.mul(&p.z).mul(yi), *prep)
        })
        .collect();
    if scaled.is_empty() {
        return Fp12::one();
    }

    let mut f = Fp12::one();
    for (i, line) in line_schedule().iter().enumerate() {
        // The first tangent finds f = 1.
        if *line == Line::Tangent && i > 0 {
            f = f.square();
        }
        for (x_over_y, y_inv, prep) in &scaled {
            let (neg_lambda, c) = &prep.coeffs[i];
            f = f.mul_by_034(&neg_lambda.mul_fp(x_over_y), &c.mul_fp(y_inv));
        }
    }
    f
}

/// The Miller value of one pair (unreduced pairing value).
fn miller_loop(p: &G1Affine, q: &G2Affine) -> Fp12 {
    multi_miller_loop(&[(p, &G2Prepared::from_affine(q))])
}

/// Final exponentiation `f ↦ f^((p^12-1)/r)` via the cyclotomic
/// decomposition: easy part `(p^6-1)(p^2+1)` (conjugate, invert, one
/// p²-Frobenius), then the hard part `(p⁴−p²+1)/r` in its exact base-`p`
/// expansion (see the module docs).
pub fn final_exponentiation(f: &Fp12) -> Fp12 {
    // Easy part. x^(p^6) == conj(x) (tested), so f^(p^6-1) = conj(f)/f.
    let inv = f.invert().expect("Miller value is nonzero");
    let t0 = f.conjugate().mul(&inv);
    let f = frobenius_p2(&t0).mul(&t0);
    // f now satisfies f^(p^4-p^2+1) = 1: cyclotomic squaring is valid and
    // inversion is conjugation.
    let fx = cyclotomic_pow_x(&f);
    let fx2 = cyclotomic_pow_x(&fx);
    let fx3 = cyclotomic_pow_x(&fx2);
    let fx2_p = frobenius_p(&fx2);
    let f_p2 = frobenius_p2(&f);

    // Scott et al.'s seven bases: f^λ = y0·y1²·y2⁶·y3¹²·y4¹⁸·y5³⁰·y6³⁶.
    let y0 = frobenius_p(&f).mul(&f_p2).mul(&frobenius_p(&f_p2));
    let y1 = f.conjugate();
    let y2 = frobenius_p2(&fx2);
    let y3 = frobenius_p(&fx).conjugate();
    let y4 = fx.mul(&fx2_p).conjugate();
    let y5 = fx2.conjugate();
    let y6 = fx3.mul(&frobenius_p(&fx3)).conjugate();

    // Their vectorial addition chain.
    let t0 = y6.cyclotomic_square().mul(&y4).mul(&y5);
    let t1 = y3.mul(&y5).mul(&t0).cyclotomic_square();
    let t0 = t0.mul(&y2);
    let t1 = t1.mul(&t0).cyclotomic_square();
    let t0 = t1.mul(&y1).cyclotomic_square();
    t0.mul(&t1.mul(&y0))
}

/// The two operations [`cyclotomic_pow_x`] is written in: for Fp12 the
/// cyclotomic squaring, valid after the easy part of the final
/// exponentiation, and the product. A test runs the chain on integers.
trait ExpByX: Sized {
    fn square(&self) -> Self;
    fn mul(&self, other: &Self) -> Self;
}

impl ExpByX for Fp12 {
    fn square(&self) -> Self {
        self.cyclotomic_square()
    }

    fn mul(&self, other: &Self) -> Self {
        Fp12::mul(self, other)
    }
}

/// `base^x` for a unitary, cyclotomic-subgroup `base` and the BN parameter
/// x = 0x44E992B44A6909F1, by the addition chain gnark-crypto's BN254
/// `Expt` uses: 62 Granger–Scott cyclotomic squarings and 17 Fp12
/// products. A walk of x's signed NAF (weight 24) pays the same squarings
/// and 24 products, the first of them `1·base`.
///
/// `bK` is `base^K` for the binary numeral K; `i27`, `i44` and `i70` keep
/// the chain's published names for its long runs.
fn cyclotomic_pow_x<T: ExpByX>(b1: &T) -> T {
    let square_n = |mut a: T, k: u32| {
        for _ in 0..k {
            a = a.square();
        }
        a
    };
    let b10 = b1.square();
    let b100 = b10.square();
    let b1000 = b100.square();
    let b10001 = b1000.square().mul(b1);
    let b10011 = b10001.mul(&b10);
    let b10100 = b10011.mul(b1);
    let b11001 = b10001.mul(&b1000);
    let b100010 = b10001.square();
    let b100111 = b10011.mul(&b10100);
    let b101001 = b100111.mul(&b10);
    let i27 = square_n(square_n(b100010, 6).mul(&b100).mul(&b11001), 7).mul(&b11001);
    let i44 = square_n(square_n(i27, 8).mul(&b101001).mul(&b10), 6).mul(&b10001);
    let i70 = square_n(
        square_n(square_n(i44, 8).mul(&b101001), 6).mul(&b101001),
        10,
    );
    square_n(i70.mul(&b100111), 6).mul(&b101001).mul(&b1000)
}

/// The reduced optimal-ate pairing on affine inputs.
pub fn pairing_affine(p: &G1Affine, q: &G2Affine) -> Fp12 {
    final_exponentiation(&miller_loop(p, q))
}

/// The reduced optimal-ate pairing `e(P, Q)`.
pub fn pairing(p: &G1, q: &G2) -> Fp12 {
    pairing_affine(&p.to_affine(), &q.to_affine())
}

#[cfg(test)]
mod tests {
    use super::super::fp::{Fr, FrParams};
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p() -> BigUint {
        BigUint::from_limbs(FpParams::MODULUS.to_vec())
    }

    /// Oracle for the final exponentiation: little-endian limbs of the
    /// hard exponent `(p⁴ - p² + 1)/r` itself, which the engine walked digit
    /// by digit before it had the base-`p` decomposition.
    fn hard_exponent() -> &'static [u64] {
        static E: OnceLock<Vec<u64>> = OnceLock::new();
        E.get_or_init(|| {
            let r = BigUint::from_limbs(FrParams::MODULUS.to_vec());
            let p2 = p().mul(&p());
            let phi12 = p2.mul(&p2).sub(&p2).add(&BigUint::one());
            let (q, rem) = phi12.divrem(&r);
            assert!(rem.is_zero(), "r must divide p^4 - p^2 + 1");
            q.limbs().to_vec()
        })
    }

    /// Signed NAF of [`hard_exponent`], little-endian digits in {-1, 0, 1}.
    fn hard_exponent_naf() -> &'static [i8] {
        static N: OnceLock<Vec<i8>> = OnceLock::new();
        N.get_or_init(|| wnaf_digits(hard_exponent(), 2))
    }

    /// The easy part `f ↦ f^((p⁶-1)(p²+1))`, into the cyclotomic subgroup.
    fn easy_part(f: &Fp12) -> Fp12 {
        let t0 = f.conjugate().mul(&f.invert().expect("nonzero"));
        frobenius_p2(&t0).mul(&t0)
    }

    /// `base^e` for a unitary, cyclotomic-subgroup `base`, with `e` given
    /// as little-endian NAF digits (a −1 digit multiplies by the
    /// conjugate): how the engine powered by `x` before the addition
    /// chain, and the oracle for it and for the whole hard part.
    fn cyclotomic_pow_naf(base: &Fp12, naf: &[i8]) -> Fp12 {
        let base_inv = base.conjugate();
        let mut acc = Fp12::one();
        let mut started = false;
        for &d in naf.iter().rev() {
            if started {
                acc = acc.cyclotomic_square();
            }
            match d {
                1 => {
                    acc = acc.mul(base);
                    started = true;
                }
                -1 => {
                    acc = acc.mul(&base_inv);
                    started = true;
                }
                _ => {}
            }
        }
        acc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn final_exponentiation_matches_the_naf_walk(seed in any::<u64>()) {
            // Same exponent, so the same field element — not merely the
            // same coset: the decomposed hard part against the 761-bit walk.
            let f = Fp12::random(&mut StdRng::seed_from_u64(seed));
            let walked = cyclotomic_pow_naf(&easy_part(&f), hard_exponent_naf());
            prop_assert_eq!(final_exponentiation(&f), walked);
        }

        #[test]
        fn cyclotomic_pow_x_matches_the_naf_walk_and_pow(seed in any::<u64>()) {
            let f = easy_part(&Fp12::random(&mut StdRng::seed_from_u64(seed)));
            let fx = cyclotomic_pow_x(&f);
            prop_assert_eq!(fx, cyclotomic_pow_naf(&f, &wnaf_digits(&[BN_X], 2)));
            prop_assert_eq!(fx, f.pow(&[BN_X]));
        }
    }

    #[test]
    fn cyclotomic_pow_x_chain_is_x_in_62_squarings_and_17_products() {
        // The chain on integers: squaring doubles the exponent, a product
        // adds two. Each call counts itself.
        use std::cell::Cell;
        struct Exponent<'a> {
            value: u64,
            ops: &'a Cell<(u32, u32)>,
        }
        impl ExpByX for Exponent<'_> {
            fn square(&self) -> Self {
                let (s, m) = self.ops.get();
                self.ops.set((s + 1, m));
                Exponent {
                    value: 2 * self.value,
                    ops: self.ops,
                }
            }
            fn mul(&self, other: &Self) -> Self {
                let (s, m) = self.ops.get();
                self.ops.set((s, m + 1));
                Exponent {
                    value: self.value + other.value,
                    ops: self.ops,
                }
            }
        }
        let ops = Cell::new((0, 0));
        let x = cyclotomic_pow_x(&Exponent {
            value: 1,
            ops: &ops,
        });
        assert_eq!(x.value, BN_X);
        assert_eq!(ops.get(), (62, 17));
    }

    /// SHA-256 over the canonical big-endian bytes of the twelve Fp
    /// coefficients of each value, in `c0.c0.c0, c0.c0.c1, …, c1.c2.c1`
    /// order.
    fn gt_digest(values: &[Fp12]) -> String {
        let mut h = crate::sha256::Sha256::new();
        for f in values {
            for c6 in [&f.c0, &f.c1] {
                for c2 in [&c6.c0, &c6.c1, &c6.c2] {
                    h.update(&c2.c0.to_bytes_be());
                    h.update(&c2.c1.to_bytes_be());
                }
            }
        }
        h.finalize().iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn gt_values_are_pinned() {
        // Reduced pairings are what a check compares, so no change to the
        // field tower or the Miller loop may move one by a bit. Both
        // digests were taken before lazy reduction and unit-scaled lines
        // went in.
        let scalars: [([u64; 4], [u64; 4]); 5] = [
            ([1, 0, 0, 0], [1, 0, 0, 0]),
            ([2, 0, 0, 0], [3, 0, 0, 0]),
            ([0xdead_beef, 0, 0, 0], [0xfeed_f00d, 0, 0, 0]),
            ([u64::MAX, u64::MAX, 7, 0], [12345, 0, 0, 1 << 60]),
            (
                [0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210, 0x1111, 0x0222],
                [3, 1, 4, 1],
            ),
        ];
        let pairings: Vec<Fp12> = scalars
            .iter()
            .map(|(a, b)| {
                pairing(
                    &G1::generator().mul_scalar(a),
                    &G2::generator().mul_scalar(b),
                )
            })
            .collect();
        assert_eq!(
            gt_digest(&pairings),
            "f093b994ef9a1f7ea2f975e92f67a811ac7dc57ea4288e2c151ebb6af038478a"
        );
        let finals: Vec<Fp12> = (0..4)
            .map(|seed| final_exponentiation(&Fp12::random(&mut StdRng::seed_from_u64(seed))))
            .collect();
        assert_eq!(
            gt_digest(&finals),
            "fa0ed3204c0f82b8b0e8527326e9a61c6723551693761f7c228791c52842923a"
        );
    }

    #[test]
    fn hard_exponent_decomposes_in_base_p() {
        // (p⁴-p²+1)/r = p³ + (6x²+1)·p² - (36x³+18x²+12x-1)·p
        //               - (36x³+30x²+18x+2), negative terms moved left.
        let n = BigUint::from_u64;
        let x = n(BN_X);
        let x2 = x.mul(&x);
        let x3 = x2.mul(&x);
        let l2 = n(6).mul(&x2).add(&n(1));
        let l1 = n(36)
            .mul(&x3)
            .add(&n(18).mul(&x2))
            .add(&n(12).mul(&x))
            .sub(&n(1));
        let l0 = n(36)
            .mul(&x3)
            .add(&n(30).mul(&x2))
            .add(&n(18).mul(&x))
            .add(&n(2));
        let p2 = p().mul(&p());
        let lhs = BigUint::from_limbs(hard_exponent().to_vec())
            .add(&l1.mul(&p()))
            .add(&l0);
        assert_eq!(lhs, p2.mul(&p()).add(&l2.mul(&p2)));
    }

    #[test]
    fn frobenius_p_and_p3_match_generic_pow() {
        let mut rng = StdRng::seed_from_u64(61);
        let p3 = p().mul(&p()).mul(&p());
        for _ in 0..2 {
            let a = Fp12::random(&mut rng);
            assert_eq!(frobenius_p(&a), a.pow(p().limbs()));
            assert_eq!(frobenius_p(&frobenius_p2(&a)), a.pow(p3.limbs()));
        }
    }

    #[test]
    fn twist_frobenius_is_multiplication_by_p() {
        // π_p acts on G2 as [p] (G2 is its p-eigenspace), so the two
        // closing chords go through [p]Q and -[p²]Q.
        let mut rng = StdRng::seed_from_u64(67);
        let q = G2::generator().mul_fr(&Fr::random(&mut rng));
        let Affine::Coords(x, y) = q.to_affine() else {
            panic!("finite point");
        };
        let (x1, y1) = twist_frobenius_p(&(x, y));
        let p_q = q.mul_scalar(p().limbs());
        assert_eq!(G2::from_affine_coords(x1, y1), p_q);
        let (x2, y2) = twist_frobenius_p2_neg(&(x, y));
        assert_eq!(
            G2::from_affine_coords(x2, y2),
            p_q.mul_scalar(p().limbs()).neg()
        );
    }

    #[test]
    fn prepared_point_stores_one_line_per_schedule_step() {
        // 6x+2 has a 66-digit NAF of weight 22: 65 doublings and 21 ±Q
        // additions below the leading digit, then the two Frobenius chords.
        // `multi_miller_loop` iterates this same schedule, so it folds
        // every stored line and no other.
        let schedule = line_schedule();
        let count = |want: &[Line]| schedule.iter().filter(|l| want.contains(l)).count();
        assert_eq!(count(&[Line::Tangent]), 65);
        assert_eq!(count(&[Line::PlusQ, Line::MinusQ]), 21);
        assert_eq!(schedule[86..], [Line::PlusFrobenius, Line::MinusFrobenius2]);
        let prep = G2Prepared::new(&G2::generator().mul_scalar(&[31337]));
        assert_eq!(prep.coeffs.len(), 65 + 21 + 2);
        assert!(G2Prepared::new(&G2::infinity()).coeffs.is_empty());
    }

    #[test]
    fn pairing_non_degenerate() {
        let e = pairing(&G1::generator(), &G2::generator());
        assert!(!e.is_one(), "e(G1, G2) must not be 1");
        assert!(!e.is_zero());
    }

    #[test]
    fn pairing_has_order_r() {
        let e = pairing(&G1::generator(), &G2::generator());
        assert!(e.pow(&FrParams::MODULUS).is_one());
    }

    #[test]
    fn pairing_of_infinity_is_one() {
        assert!(pairing(&G1::infinity(), &G2::generator()).is_one());
        assert!(pairing(&G1::generator(), &G2::infinity()).is_one());
    }

    #[test]
    fn bilinear_in_g1() {
        let mut rng = StdRng::seed_from_u64(37);
        let a = Fr::random(&mut rng);
        let g1 = G1::generator();
        let g2 = G2::generator();
        let lhs = pairing(&g1.mul_fr(&a), &g2);
        let rhs = pairing(&g1, &g2).pow(&a.to_canonical());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn bilinear_in_g2() {
        let mut rng = StdRng::seed_from_u64(41);
        let b = Fr::random(&mut rng);
        let g1 = G1::generator();
        let g2 = G2::generator();
        let lhs = pairing(&g1, &g2.mul_fr(&b));
        let rhs = pairing(&g1, &g2).pow(&b.to_canonical());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn bilinear_both_sides() {
        let mut rng = StdRng::seed_from_u64(43);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let g1 = G1::generator();
        let g2 = G2::generator();
        let lhs = pairing(&g1.mul_fr(&a), &g2.mul_fr(&b));
        let rhs = pairing(&g1.mul_fr(&b), &g2.mul_fr(&a));
        assert_eq!(lhs, rhs);
        let direct = pairing(&g1, &g2)
            .pow(&a.to_canonical())
            .pow(&b.to_canonical());
        assert_eq!(lhs, direct);
    }

    #[test]
    fn additive_in_g1() {
        // e(P1 + P2, Q) = e(P1, Q) * e(P2, Q)
        let g1 = G1::generator();
        let g2 = G2::generator();
        let p1 = g1.mul_scalar(&[5]);
        let p2 = g1.mul_scalar(&[11]);
        let lhs = pairing(&p1.add(&p2), &g2);
        let rhs = pairing(&p1, &g2).mul(&pairing(&p2, &g2));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn prepared_pairing_matches_fresh_preparation() {
        let g1 = G1::generator().mul_scalar(&[1234567]).to_affine();
        let q = G2::generator().mul_scalar(&[891011]);
        let prep = G2Prepared::new(&q);
        let via_prep = final_exponentiation(&multi_miller_loop(&[(&g1, &prep)]));
        let direct = pairing_affine(&g1, &q.to_affine());
        assert_eq!(via_prep, direct);
    }

    #[test]
    fn multi_miller_loop_matches_product_of_pairings() {
        // The tentpole invariant: one shared final exponentiation over the
        // accumulated Miller product equals the product of independently
        // reduced pairings.
        let mut rng = StdRng::seed_from_u64(47);
        let g1 = G1::generator();
        let g2 = G2::generator();
        for k in [1usize, 2, 5] {
            let points: Vec<(G1Affine, G2)> = (0..k)
                .map(|_| {
                    let a = Fr::random(&mut rng);
                    let b = Fr::random(&mut rng);
                    (g1.mul_fr(&a).to_affine(), g2.mul_fr(&b))
                })
                .collect();
            let preps: Vec<G2Prepared> = points.iter().map(|(_, q)| G2Prepared::new(q)).collect();
            let terms: Vec<(&G1Affine, &G2Prepared)> = points
                .iter()
                .zip(&preps)
                .map(|((p, _), prep)| (p, prep))
                .collect();
            let batched = final_exponentiation(&multi_miller_loop(&terms));
            let mut product = Fp12::one();
            for (p, q) in &points {
                product = product.mul(&pairing_affine(p, &q.to_affine()));
            }
            assert_eq!(batched, product, "k = {k}");
        }
    }

    #[test]
    fn jacobian_loop_matches_the_affine_one_with_one_inversion() {
        // Points straight out of scalar multiplication have Z ≠ 1; the
        // Miller values differ by the Fp* factors 1/y, which the final
        // exponentiation erases.
        use super::super::fp::ops::count;
        let g1 = G1::generator();
        let points = [g1.mul_scalar(&[987_654_321]), g1.mul_scalar(&[5]).neg()];
        assert!(points.iter().all(|p| p.z != Fp::one()));
        let preps = [
            G2Prepared::new(&G2::generator()),
            G2Prepared::new(&G2::generator().mul_scalar(&[77])),
        ];
        let (counts, jacobian) = count(|| {
            multi_miller_loop_jacobian(&[(&points[0], &preps[0]), (&points[1], &preps[1])])
        });
        assert_eq!(counts.inv, 1);
        let affine = [points[0].to_affine(), points[1].to_affine()];
        let reference = multi_miller_loop(&[(&affine[0], &preps[0]), (&affine[1], &preps[1])]);
        assert_eq!(
            final_exponentiation(&jacobian),
            final_exponentiation(&reference)
        );
        let inf = G1::infinity();
        let skipped = multi_miller_loop_jacobian(&[(&inf, &preps[0]), (&points[0], &preps[0])]);
        assert_eq!(
            skipped,
            multi_miller_loop_jacobian(&[(&points[0], &preps[0])])
        );
        assert!(multi_miller_loop_jacobian(&[(&inf, &preps[1])]).is_one());
    }

    #[test]
    fn multi_miller_loop_skips_infinities() {
        let g1 = G1::generator().to_affine();
        let prep = G2Prepared::new(&G2::generator());
        let inf_prep = G2Prepared::new(&G2::infinity());
        let inf_p = G1::infinity().to_affine();
        let mixed = multi_miller_loop(&[(&inf_p, &prep), (&g1, &inf_prep), (&g1, &prep)]);
        let plain = multi_miller_loop(&[(&g1, &prep)]);
        assert_eq!(mixed, plain);
        assert!(multi_miller_loop(&[]).is_one());
    }

    #[test]
    fn pairing_inverse_cancels() {
        // e(P, Q) * e(-P, Q) == 1: the multi-pairing verification equation
        // shape used by BLS.
        let p = G1::generator().mul_scalar(&[777]);
        let prep = G2Prepared::new(&G2::generator());
        let pa = p.to_affine();
        let na = p.neg().to_affine();
        let f = final_exponentiation(&multi_miller_loop(&[(&pa, &prep), (&na, &prep)]));
        assert!(f.is_one());
    }

    #[test]
    fn frobenius_p2_matches_generic_pow() {
        let mut rng = StdRng::seed_from_u64(53);
        let p = BigUint::from_limbs(FpParams::MODULUS.to_vec());
        let p2 = p.mul(&p);
        let a = Fp12::random(&mut rng);
        assert_eq!(frobenius_p2(&a), a.pow(p2.limbs()));
    }

    #[test]
    fn cyclotomic_square_valid_after_easy_part() {
        // Push a random element through the easy part, then check the
        // specialized squaring against the generic one.
        let mut rng = StdRng::seed_from_u64(59);
        let f = Fp12::random(&mut rng);
        let inv = f.invert().expect("nonzero");
        let t0 = f.conjugate().mul(&inv);
        let t1 = frobenius_p2(&t0).mul(&t0);
        assert_eq!(t1.cyclotomic_square(), t1.square());
        let deeper = t1.cyclotomic_square().cyclotomic_square();
        assert_eq!(deeper, t1.square().square());
    }

    #[test]
    fn naf_recodes_hard_exponent() {
        // Reconstruct the exponent from its NAF digits.
        let naf = hard_exponent_naf();
        let mut acc = BigUint::zero();
        let mut pow = BigUint::one();
        let mut neg = BigUint::zero();
        for &d in naf {
            match d {
                1 => acc = acc.add(&pow),
                -1 => neg = neg.add(&pow),
                _ => {}
            }
            pow = pow.shl(1);
        }
        assert_eq!(acc.sub(&neg), BigUint::from_limbs(hard_exponent().to_vec()));
        // NAF property: no two adjacent nonzero digits.
        for w in naf.windows(2) {
            assert!(w[0] == 0 || w[1] == 0, "adjacent nonzero NAF digits");
        }
    }
}
