//! Criterion micro-benchmarks for the cryptographic substrate — the
//! statistically rigorous companion to the Table 3 harness.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use authdb_crypto::bls::BlsPrivateKey;
use authdb_crypto::bn254::{
    final_exponentiation, multi_miller_loop, pairing, Fp, Fr, G2Prepared, G1, G2,
};
use authdb_crypto::rsa::RsaPrivateKey;
use authdb_crypto::sha1::sha1;
use authdb_crypto::sha256::sha256;

fn bench_hashing(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash");
    for len in [256usize, 512, 1024] {
        let buf = vec![0xA5u8; len];
        g.bench_function(format!("sha1_{len}B"), |b| b.iter(|| sha1(&buf)));
        g.bench_function(format!("sha256_{len}B"), |b| b.iter(|| sha256(&buf)));
    }
    g.finish();
}

fn bench_bn254(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut g = c.benchmark_group("bn254");
    g.sample_size(10);
    let k = Fr::random(&mut rng);
    let p = G1::generator();
    let q = G2::generator();
    g.bench_function("g1_scalar_mul", |b| b.iter(|| p.mul_fr(&k)));
    let a = p.mul_scalar(&[5]);
    let b2 = p.mul_scalar(&[7]);
    g.bench_function("g1_add", |b| b.iter(|| a.add(&b2)));
    g.bench_function("pairing", |b| b.iter(|| pairing(&p, &q)));
    g.bench_function("hash_to_g1", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            G1::hash_to_curve(&i.to_be_bytes())
        })
    });
    // The base-field powers under hash-to-curve and point decoding: a
    // residue's square root and an inversion are one windowed 254-bit
    // power each, the Legendre symbol none; decoding a signature is one
    // square root.
    let square = Fp::random(&mut rng).square();
    g.bench_function("fp_sqrt", |b| b.iter(|| square.sqrt()));
    g.bench_function("fp_invert", |b| b.iter(|| square.invert()));
    g.bench_function("fp_legendre", |b| b.iter(|| square.legendre()));
    let enc = p.mul_fr(&k).to_compressed();
    g.bench_function("g1_decompress", |b| b.iter(|| G1::from_compressed(&enc)));
    g.finish();
}

/// The seed tree's reduced Tate pairing, reconstructed against public
/// APIs: a 254-bit Miller loop over multiples of P with per-step affine
/// inversions, and a square-and-multiply final exponentiation over the
/// 1270-bit `(p⁶+1)/r`. Kept as the "before" baseline the multi-pairing
/// engine is measured against.
mod tate_baseline {
    use authdb_crypto::bigint::BigUint;
    use authdb_crypto::bn254::curve::Affine;
    use authdb_crypto::bn254::fp::{FieldParams, Fp, FpParams, FrParams};
    use authdb_crypto::bn254::{Fp12, Fp2, Fp6, G1, G2};
    use std::sync::OnceLock;

    fn hard_exponent() -> &'static Vec<u64> {
        static E: OnceLock<Vec<u64>> = OnceLock::new();
        E.get_or_init(|| {
            let p = BigUint::from_limbs(FpParams::MODULUS.to_vec());
            let r = BigUint::from_limbs(FrParams::MODULUS.to_vec());
            let p6 = p.mul(&p).mul(&p).mul(&p).mul(&p).mul(&p);
            let (q, rem) = p6.add(&BigUint::one()).divrem(&r);
            assert!(rem.is_zero());
            q.limbs().to_vec()
        })
    }

    type AffPt = Option<(Fp, Fp)>;

    /// The seed's `mul_by_line`: a Tate line `a + b·v + yq·v·w`, folded
    /// with a full Fp12 product.
    fn eval_line(f: &Fp12, lambda: &Fp, t: &(Fp, Fp), xq: &Fp2, yq: &Fp2) -> Fp12 {
        let a = Fp2::from_fp(lambda.mul(&t.0).sub(&t.1));
        let b = xq.mul_fp(&lambda.neg());
        f.mul(&Fp12::new(
            Fp6::new(a, b, Fp2::zero()),
            Fp6::new(Fp2::zero(), *yq, Fp2::zero()),
        ))
    }

    fn double_step(f: &Fp12, t: &mut AffPt, xq: &Fp2, yq: &Fp2) -> Fp12 {
        let Some(pt) = *t else { return *f };
        if pt.1.is_zero() {
            *t = None;
            return *f;
        }
        let three_x2 = pt.0.square().mul(&Fp::from_u64(3));
        let lambda = three_x2.mul(&pt.1.double().invert().expect("y nonzero"));
        let out = eval_line(f, &lambda, &pt, xq, yq);
        let x3 = lambda.square().sub(&pt.0.double());
        let y3 = lambda.mul(&pt.0.sub(&x3)).sub(&pt.1);
        *t = Some((x3, y3));
        out
    }

    fn add_step(f: &Fp12, t: &mut AffPt, p: &(Fp, Fp), xq: &Fp2, yq: &Fp2) -> Fp12 {
        let Some(pt) = *t else {
            *t = Some(*p);
            return *f;
        };
        if pt.0 == p.0 {
            if pt.1 == p.1 {
                return double_step(f, t, xq, yq);
            }
            *t = None;
            return *f;
        }
        let lambda =
            p.1.sub(&pt.1)
                .mul(&p.0.sub(&pt.0).invert().expect("x1 != x2"));
        let out = eval_line(f, &lambda, &pt, xq, yq);
        let x3 = lambda.square().sub(&pt.0).sub(&p.0);
        let y3 = lambda.mul(&pt.0.sub(&x3)).sub(&pt.1);
        *t = Some((x3, y3));
        out
    }

    /// The seed's `pairing()`: Tate Miller loop plus a per-call
    /// square-and-multiply final exponentiation.
    pub fn pairing(p: &G1, q: &G2) -> Fp12 {
        let (Affine::Coords(px, py), Affine::Coords(qx, qy)) = (p.to_affine(), q.to_affine())
        else {
            return Fp12::one();
        };
        let p_aff = (px, py);
        let r_bits = FrParams::MODULUS;
        let nbits = 254;
        let mut f = Fp12::one();
        let mut t: AffPt = Some(p_aff);
        for i in (0..nbits - 1).rev() {
            f = f.square();
            f = double_step(&f, &mut t, &qx, &qy);
            if (r_bits[i / 64] >> (i % 64)) & 1 == 1 {
                f = add_step(&f, &mut t, &p_aff, &qx, &qy);
            }
        }
        let inv = f.invert().expect("nonzero");
        let easy = f.conjugate().mul(&inv);
        easy.pow(hard_exponent())
    }
}

/// The final exponentiation this engine ran until its hard part was
/// decomposed in base `p`, reconstructed against public APIs: the same easy
/// part, then a signed-NAF walk over the 761-bit `(p⁴-p²+1)/r` with
/// Granger–Scott cyclotomic squarings. Same exponent, so the same value
/// (asserted once below); kept as the "before" of the
/// `final_exponentiation` row.
mod naf_walk_baseline {
    use authdb_crypto::bigint::BigUint;
    use authdb_crypto::bn254::fp::{FieldParams, FpParams, FrParams};
    use authdb_crypto::bn254::pairing::frobenius_p2;
    use authdb_crypto::bn254::Fp12;
    use std::sync::OnceLock;

    /// Little-endian signed-NAF digits of `(p⁴-p²+1)/r`.
    fn hard_exponent_naf() -> &'static Vec<i8> {
        static E: OnceLock<Vec<i8>> = OnceLock::new();
        E.get_or_init(|| {
            let p = BigUint::from_limbs(FpParams::MODULUS.to_vec());
            let r = BigUint::from_limbs(FrParams::MODULUS.to_vec());
            let p2 = p.mul(&p);
            let (mut n, rem) = p2.mul(&p2).sub(&p2).add(&BigUint::one()).divrem(&r);
            assert!(rem.is_zero());
            let mut naf = Vec::new();
            while !n.is_zero() {
                // An odd n takes the digit in {1, -1} that leaves n - d
                // divisible by 4.
                let d = if !n.is_odd() {
                    0
                } else if n.limbs()[0] & 3 == 1 {
                    n = n.sub(&BigUint::one());
                    1
                } else {
                    n = n.add(&BigUint::one());
                    -1
                };
                naf.push(d);
                n = n.shr(1);
            }
            naf
        })
    }

    pub fn final_exponentiation(f: &Fp12) -> Fp12 {
        let t0 = f.conjugate().mul(&f.invert().expect("nonzero"));
        let base = frobenius_p2(&t0).mul(&t0);
        let base_inv = base.conjugate();
        let mut acc = Fp12::one();
        for &d in hard_exponent_naf().iter().rev() {
            acc = acc.cyclotomic_square();
            match d {
                1 => acc = acc.mul(&base),
                -1 => acc = acc.mul(&base_inv),
                _ => {}
            }
        }
        acc
    }
}

/// The multi-pairing engine against independent pairings: a k-message
/// aggregate verification is 1 multi-Miller-loop + 1 final exponentiation
/// versus k+1 full `pairing()` calls. The acceptance bar is ≥2× at k=16.
fn bench_multi_pairing(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut g = c.benchmark_group("multi_pairing");
    g.sample_size(10);

    let p = G1::generator();
    let q = G2::generator();
    g.bench_function("pairing_tate_seed_baseline", |b| {
        b.iter(|| tate_baseline::pairing(&p, &q))
    });
    g.bench_function("pairing_single", |b| b.iter(|| pairing(&p, &q)));

    // Fixed-key preparation, as in verification: prepared once, reused.
    let prep = G2Prepared::new(&q);
    let pa = p.to_affine();
    g.bench_function("pairing_single_prepared", |b| {
        b.iter(|| final_exponentiation(&multi_miller_loop(&[(&pa, &prep)])))
    });

    // The verifier's one check per answer, in the two halves the ledger
    // names `crypto.miller_us` and `crypto.final_exp_us` (their sum is
    // `crypto.pairing_check_us`): a two-term Miller loop against two
    // prepared G2 points, and the final exponentiation of its value —
    // beside the hard part as it was computed before the decomposition.
    let pk_prep = G2Prepared::new(&q.mul_fr(&Fr::random(&mut rng)));
    let pb = p.mul_fr(&Fr::random(&mut rng)).to_affine();
    let two_terms = [(&pa, &prep), (&pb, &pk_prep)];
    g.bench_function("miller_2term_prepared", |b| {
        b.iter(|| multi_miller_loop(&two_terms))
    });
    let miller_value = multi_miller_loop(&two_terms);
    assert_eq!(
        final_exponentiation(&miller_value),
        naf_walk_baseline::final_exponentiation(&miller_value),
        "same exponent, same value"
    );
    g.bench_function("final_exponentiation", |b| {
        b.iter(|| final_exponentiation(&miller_value))
    });
    g.bench_function("final_exp_naf_walk_baseline", |b| {
        b.iter(|| naf_walk_baseline::final_exponentiation(&miller_value))
    });

    for k in [4usize, 16, 64] {
        // k+1 terms model verify_aggregate: the aggregate against the
        // generator plus the hash-sum against the public key — here k+1
        // random points against one prepared key.
        let points: Vec<_> = (0..=k)
            .map(|_| p.mul_fr(&Fr::random(&mut rng)).to_affine())
            .collect();
        let terms: Vec<_> = points.iter().map(|pt| (pt, &prep)).collect();
        g.bench_function(format!("multi_pairing_k{k}"), |b| {
            b.iter(|| final_exponentiation(&multi_miller_loop(&terms)))
        });
        g.bench_function(format!("independent_pairings_k{k}"), |b| {
            b.iter(|| {
                points
                    .iter()
                    .map(|pt| final_exponentiation(&multi_miller_loop(&[(pt, &prep)])))
                    .fold(0usize, |acc, f| acc + usize::from(f.is_one()))
            })
        });
    }
    g.finish();
}

fn bench_bls(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let sk = BlsPrivateKey::generate(&mut rng);
    let pk = sk.public_key().clone();
    let mut g = c.benchmark_group("bas");
    g.sample_size(10);
    g.bench_function("sign", |b| b.iter(|| sk.sign(b"record content")));
    let sig = sk.sign(b"record content");
    g.bench_function("verify", |b| b.iter(|| pk.verify(b"record content", &sig)));
    let msgs: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_be_bytes().to_vec()).collect();
    let sigs: Vec<_> = msgs.iter().map(|m| sk.sign(m)).collect();
    g.bench_function("aggregate_100", |b| {
        b.iter(|| authdb_crypto::bls::aggregate(&sigs))
    });
    let agg = authdb_crypto::bls::aggregate(&sigs);
    let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
    g.bench_function("verify_aggregate_100", |b| {
        b.iter(|| pk.verify_aggregate(&refs, &agg))
    });
    g.finish();
}

/// Batched aggregate verification: one random-linear-combination
/// multi-pairing over K claims versus K independent aggregate checks.
fn bench_bls_batch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let sk = BlsPrivateKey::generate(&mut rng);
    let pk = sk.public_key().clone();
    let mut g = c.benchmark_group("bas_batch");
    g.sample_size(10);
    for k in [4usize, 16] {
        let data: Vec<(Vec<Vec<u8>>, authdb_crypto::bls::BlsSignature)> = (0..k)
            .map(|i| {
                let msgs: Vec<Vec<u8>> = (0..8u32)
                    .map(|j| format!("claim {i} msg {j}").into_bytes())
                    .collect();
                let sigs: Vec<_> = msgs.iter().map(|m| sk.sign(m)).collect();
                (msgs, authdb_crypto::bls::aggregate(&sigs))
            })
            .collect();
        let claims: Vec<(&[Vec<u8>], &authdb_crypto::bls::BlsSignature)> =
            data.iter().map(|(m, s)| (m.as_slice(), s)).collect();
        g.bench_function(format!("verify_aggregate_x{k}_sequential"), |b| {
            b.iter(|| {
                data.iter().all(|(msgs, agg)| {
                    let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
                    pk.verify_aggregate(&refs, agg)
                })
            })
        });
        g.bench_function(format!("verify_aggregate_batch_{k}"), |b| {
            b.iter(|| pk.verify_aggregate_batch(&claims, &mut rng))
        });
    }
    // One live range answer's signatures (32-record aggregate, five
    // summaries, a 16 KB checkpoint): a pairing check each, versus the one
    // fold the verifier runs.
    let data = authdb_sim::cost::answer_shaped_claims(&sk);
    let claims: Vec<(&[Vec<u8>], &authdb_crypto::bls::BlsSignature)> =
        data.iter().map(|(m, s)| (m.as_slice(), s)).collect();
    g.bench_function("answer_shaped_7_claims_sequential", |b| {
        b.iter(|| {
            data.iter().all(|(msgs, sig)| {
                let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
                pk.verify_aggregate(&refs, sig)
            })
        })
    });
    g.bench_function("answer_shaped_7_claims_folded", |b| {
        b.iter(|| pk.verify_aggregate_batch(&claims, &mut rng))
    });
    g.finish();
}

fn bench_rsa(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let sk = RsaPrivateKey::generate(1024, &mut rng);
    let pk = sk.public_key().clone();
    let mut g = c.benchmark_group("condensed_rsa");
    g.sample_size(20);
    g.bench_function("sign_1024", |b| b.iter(|| sk.sign(b"record content")));
    let sig = sk.sign(b"record content");
    g.bench_function("verify_1024", |b| {
        b.iter(|| pk.verify(b"record content", &sig))
    });
    let sigs: Vec<_> = (0..100u32).map(|i| sk.sign(&i.to_be_bytes())).collect();
    g.bench_function("condense_100", |b| {
        b.iter_batched(
            || sigs.clone(),
            |s| authdb_crypto::rsa::condense(&pk, &s),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_hashing,
    bench_bn254,
    bench_multi_pairing,
    bench_bls,
    bench_bls_batch,
    bench_rsa
);
criterion_main!(benches);
