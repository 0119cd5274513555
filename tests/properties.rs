//! Property-based tests (proptest) on the workspace's core invariants.

use proptest::prelude::*;

use authdb::core::da::DaConfig;
use authdb::crypto::bigint::BigUint;
use authdb::crypto::bn254::curve::{CurveSpec, Point};
use authdb::crypto::signer::SchemeKind;
use authdb::filters::bitmap::{compress, decompress, Bitmap};
use authdb::index::btree::{BTree, LeafEntry, NoAnnotation, TreeConfig};
use authdb::paper::bloom::BloomFilter;
use authdb::paper::sigcache::{distributions, select_cache, SigTreeAnalysis};
use authdb::storage::{BufferPool, Disk};
use authdb_testkit::deploy::{part, Deployment};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn from_u128(v: u128) -> BigUint {
    BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bigint_add_mul_roundtrips(a in any::<u128>(), b in any::<u128>()) {
        let ba = from_u128(a);
        let bb = from_u128(b);
        // a + b - b == a
        prop_assert_eq!(ba.add(&bb).sub(&bb), ba.clone());
        // (a * b) / b == a with remainder 0 (b != 0)
        if b != 0 {
            let (q, r) = ba.mul(&bb).divrem(&bb);
            prop_assert_eq!(q, ba.clone());
            prop_assert!(r.is_zero());
        }
        // decimal round trip
        prop_assert_eq!(BigUint::from_dec(&ba.to_string()).unwrap(), ba);
    }

    #[test]
    fn bigint_divrem_invariant(a_hi in any::<u64>(), a_lo in any::<u64>(), b in 1u64..) {
        let a = BigUint::from_limbs(vec![a_lo, a_hi]);
        let bb = BigUint::from_u64(b);
        let (q, r) = a.divrem(&bb);
        prop_assert_eq!(q.mul(&bb).add(&r), a);
        prop_assert!(r < bb);
    }

    #[test]
    fn bitmap_compress_roundtrip(ones in prop::collection::btree_set(0usize..50_000, 0..200), len in 50_000usize..60_000) {
        let mut b = Bitmap::new(len);
        for &i in &ones {
            b.set(i);
        }
        let c = compress(&b);
        prop_assert_eq!(decompress(&c).unwrap(), b);
    }

    #[test]
    fn bloom_never_false_negative(keys in prop::collection::btree_set(any::<u64>(), 1..200)) {
        let mut f = BloomFilter::with_bits_per_key(keys.len(), 8.0);
        for k in &keys {
            f.insert(&k.to_be_bytes());
        }
        for k in &keys {
            prop_assert!(f.contains(&k.to_be_bytes()));
        }
        // Serialization preserves every answer.
        let back = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
        for k in &keys {
            prop_assert!(back.contains(&k.to_be_bytes()));
        }
    }

    #[test]
    fn btree_matches_model(ops in prop::collection::vec((0u8..3, 0i64..200, 0u64..20), 1..300)) {
        let pool = BufferPool::new(Disk::new(), 128);
        let mut tree = BTree::new(
            pool,
            TreeConfig { payload_len: 4, ann_len: 0 },
            NoAnnotation,
        );
        let mut model: std::collections::BTreeMap<(i64, u64), Vec<u8>> = Default::default();
        for (op, key, rid) in ops {
            match op {
                0 => {
                    model.entry((key, rid)).or_insert_with(|| {
                        let p = vec![(key % 251) as u8; 4];
                        tree.insert(key, rid, p.clone());
                        p
                    });
                }
                1 => {
                    let existed = model.remove(&(key, rid)).is_some();
                    prop_assert_eq!(tree.delete(key, rid), existed);
                }
                _ => {
                    let p = vec![(rid % 251) as u8; 4];
                    let existed = model.contains_key(&(key, rid));
                    prop_assert_eq!(tree.update_payload(key, rid, p.clone()), existed);
                    if existed {
                        model.insert((key, rid), p);
                    }
                }
            }
        }
        let scan = tree.scan_all();
        prop_assert_eq!(scan.len(), model.len());
        for (e, ((k, r), p)) in scan.iter().zip(model.iter()) {
            prop_assert_eq!((e.key, e.rid), (*k, *r));
            prop_assert_eq!(&e.payload, p);
        }
    }

    #[test]
    fn btree_range_boundaries_sound(keys in prop::collection::btree_set(0i64..500, 1..100), lo in 0i64..500, width in 0i64..100) {
        let hi = (lo + width).min(499);
        let pool = BufferPool::new(Disk::new(), 128);
        let mut tree = BTree::new(
            pool,
            TreeConfig { payload_len: 0, ann_len: 0 },
            NoAnnotation,
        );
        let entries: Vec<LeafEntry> = keys.iter().map(|&k| LeafEntry { key: k, rid: k as u64, payload: vec![] }).collect();
        tree.bulk_load(&entries, 0.7);
        let scan = tree.range(lo, hi);
        let expect: Vec<i64> = keys.range(lo..=hi).copied().collect();
        prop_assert_eq!(scan.matches.iter().map(|e| e.key).collect::<Vec<_>>(), expect);
        prop_assert_eq!(scan.left_boundary.map(|e| e.key), keys.range(..lo).next_back().copied());
        prop_assert_eq!(scan.right_boundary.map(|e| e.key), keys.range(hi+1..).next().copied());
    }

    #[test]
    fn selection_verification_total(lo in 0i64..180, width in 0i64..40) {
        // Any range over a fixed mock system verifies, and a random value
        // perturbation is always rejected.
        let hi = lo + width;
        let cfg = DaConfig {
            rho_prime: 1000,
            buffer_pages: 512,
            ..DaConfig::small()
        };
        let rows: Vec<Vec<i64>> = (0..200).map(|i| vec![i, i]).collect();
        let s = Deployment::new(cfg, &rows, vec![], 42);
        let ans = s.select(lo, hi);
        prop_assert!(s.verify(lo, hi, &ans).is_ok());
        let mut bad = ans.clone();
        let records = &mut part(&mut bad).records;
        if !records.is_empty() {
            let idx = (lo as usize) % records.len();
            records[idx].attrs[1] ^= 1;
            prop_assert!(s.verify(lo, hi, &bad).is_err());
        }
    }

    #[test]
    fn sigcache_probabilities_normalized(log_n in 4usize..9) {
        // Summing P(T_{i,j}) * anything stays finite and the root's P equals
        // P(q = N) (only the full-range query uses the root).
        let n = 1usize << log_n;
        let probs = distributions::uniform(n);
        let analysis = SigTreeAnalysis::new(&probs);
        let root_p = analysis.p_node(log_n, 0);
        // Exactly one query (the full range) uses the root: P = P(N)/1.
        prop_assert!((root_p - probs[n - 1]).abs() < 1e-12);
        let sel = select_cache(&analysis, 16);
        prop_assert!(sel.cost_curve.iter().all(|c| *c >= 0.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn wnaf_scalar_mul_matches_double_and_add(limbs in prop::collection::vec(any::<u64>(), 1..6)) {
        // The wNAF fast path must agree with the binary reference on
        // random multi-limb scalars, in both pairing groups.
        use authdb::crypto::bn254::{G1, G2};
        let g1 = G1::generator();
        let g2 = G2::generator();
        prop_assert_eq!(g1.mul_scalar(&limbs), mul_scalar_binary(&g1, &limbs));
        prop_assert_eq!(g2.mul_scalar(&limbs), mul_scalar_binary(&g2, &limbs));
        prop_assert!(g1.mul_scalar(&[0, 0]).is_infinity());
    }

    #[test]
    fn multi_mul_scalar_matches_sum_of_products(
        terms in prop::collection::vec((0u64..6, prop::collection::vec(any::<u64>(), 1..4)), 0..5),
    ) {
        // One shared doubling chain against one binary double-and-add per
        // term: scalars of one to three limbs, with infinity points (kind
        // 0), zero scalars (kind 1) and the empty sum among the cases.
        use authdb::crypto::bn254::G1;
        let scalars: Vec<Vec<u64>> = terms
            .iter()
            .map(|(kind, limbs)| if *kind == 1 { vec![0; limbs.len()] } else { limbs.clone() })
            .collect();
        let terms: Vec<(G1, &[u64])> = terms
            .iter()
            .zip(&scalars)
            .map(|((kind, _), k)| (G1::generator().mul_scalar(&[kind * 7919]), &k[..]))
            .collect();
        let sum = terms
            .iter()
            .fold(G1::infinity(), |acc, (p, k)| acc.add(&mul_scalar_binary(p, k)));
        prop_assert_eq!(G1::multi_mul_scalar(&terms), sum);
    }
}

/// Reference binary double-and-add scalar multiplication (MSB first): the
/// oracle the wNAF paths are checked against.
fn mul_scalar_binary<C: CurveSpec>(p: &Point<C>, k: &[u64]) -> Point<C> {
    let mut acc = Point::infinity();
    for i in (0..k.len() * 64).rev() {
        acc = acc.double();
        if (k[i / 64] >> (i % 64)) & 1 == 1 {
            acc = acc.add(p);
        }
    }
    acc
}

/// The G1 decoder as it was before it took one square root: reduce x, take
/// a root, re-check the curve equation through an affine conversion (one
/// inversion), then demand that the re-encode (another) equals the input.
/// Kept only as the oracle for `g1_decoder_matches_reencode_oracle`.
fn g1_decode_oracle(bytes: &[u8; 33]) -> Option<authdb::crypto::bn254::G1> {
    use authdb::crypto::bn254::{Affine, Fp, G1};
    let p = match bytes[0] {
        0x00 => G1::infinity(),
        tag @ (0x02 | 0x03) => {
            let x = Fp::from_biguint(&BigUint::from_bytes_be(&bytes[1..]));
            let y = x.square().mul(&x).add(&Fp::from_u64(3)).sqrt()?;
            let y = if (tag == 0x03) != y.is_odd() {
                y.neg()
            } else {
                y
            };
            let p = G1::from_affine_coords(x, y);
            match p.to_affine() {
                Affine::Coords(x, y) if y.square() == x.square().mul(&x).add(&Fp::from_u64(3)) => {}
                _ => return None,
            }
            p
        }
        _ => return None,
    };
    (&p.to_compressed() == bytes).then_some(p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn g1_decoder_matches_reencode_oracle(
        scalar in any::<u64>(),
        flip in 0usize..33 * 8,
        tag in 0u8..5,
        tail_byte in 1usize..33,
        random in prop::collection::vec(any::<u8>(), 33..34),
    ) {
        // One square root and a bounds check on the bytes must accept and
        // reject exactly what decode-then-re-encode did, point for point:
        // honest encodings, single-bit flips, every tag 0–4 on an honest x,
        // x at p − 1, p and 2²⁵⁶ − 1 under both point tags, infinity with
        // a nonzero tail, and random strings.
        use authdb::crypto::bn254::fp::{FieldParams, FpParams};
        use authdb::crypto::bn254::G1;
        let honest = G1::generator().mul_scalar(&[scalar]).to_compressed();
        let mut cases = vec![honest, G1::infinity().to_compressed()];
        let mut flipped = honest;
        flipped[flip / 8] ^= 1 << (flip % 8);
        cases.push(flipped);
        let mut retagged = honest;
        retagged[0] = tag;
        cases.push(retagged);
        let p = BigUint::from_limbs(FpParams::MODULUS.to_vec());
        for x in [p.sub(&BigUint::one()), p.clone(), BigUint::from_limbs(vec![u64::MAX; 4])] {
            let x = x.to_bytes_be();
            for t in [0x02, 0x03] {
                let mut enc = [0u8; 33];
                enc[0] = t;
                enc[33 - x.len()..].copy_from_slice(&x);
                cases.push(enc);
            }
        }
        let mut inf_tail = [0u8; 33];
        inf_tail[tail_byte] = 1;
        cases.push(inf_tail);
        cases.push(random.try_into().expect("33 bytes"));
        for enc in &cases {
            let got = G1::from_compressed(enc);
            prop_assert!(got == g1_decode_oracle(enc), "encoding {:02x?}", enc);
            if let Some(point) = got {
                prop_assert_eq!(&point.to_compressed(), enc);
            }
        }
    }
}

#[test]
fn hash_to_curve_outputs_are_pinned() {
    // Every stored signature is x·H(m), so H must not move by a bit: the
    // digest of the compressed outputs for messages 0..3000 (4-byte
    // big-endian) was taken before the Legendre-symbol skip and the
    // windowed power went in.
    use authdb::crypto::bn254::G1;
    use authdb::crypto::sha256::Sha256;
    let mut h = Sha256::new();
    for i in 0..3000u32 {
        h.update(&G1::hash_to_curve(&i.to_be_bytes()).to_compressed());
    }
    let hex: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        "f8043d27ffc5f4cdc1d7124462b9afbe198fefb7894d20eea86d98e0868cac2f"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn multi_pairing_equals_product_of_pairings(seed in any::<u64>(), k in 1usize..4) {
        // One accumulated Miller loop + one shared final exponentiation
        // must equal the product of independently reduced pairings.
        use authdb::crypto::bn254::{
            final_exponentiation, multi_miller_loop, pairing, Fp12, Fr, G2Prepared, G1, G2,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs: Vec<(G1, G2)> = (0..k)
            .map(|_| {
                (
                    G1::generator().mul_fr(&Fr::random(&mut rng)),
                    G2::generator().mul_fr(&Fr::random(&mut rng)),
                )
            })
            .collect();
        let affines: Vec<_> = pairs.iter().map(|(p, _)| p.to_affine()).collect();
        let preps: Vec<G2Prepared> = pairs.iter().map(|(_, q)| G2Prepared::new(q)).collect();
        let terms: Vec<_> = affines.iter().zip(preps.iter()).collect();
        let batched = final_exponentiation(&multi_miller_loop(&terms));
        let mut product = Fp12::one();
        for (p, q) in &pairs {
            product = product.mul(&pairing(p, q));
        }
        prop_assert_eq!(batched, product);
    }

    #[test]
    fn pairing_is_bilinear_in_both_arguments(seed in any::<u64>()) {
        // e([a]P, [b]Q) = e(P, Q)^(ab) for random a, b and random base
        // points: the relation every verification equation rests on, and
        // the one a wrong loop count or Frobenius constant would break.
        use authdb::crypto::bn254::{pairing, Fr, G1, G2};
        let mut rng = StdRng::seed_from_u64(seed);
        let p = G1::generator().mul_fr(&Fr::random(&mut rng));
        let q = G2::generator().mul_fr(&Fr::random(&mut rng));
        let (a, b) = (Fr::random(&mut rng), Fr::random(&mut rng));
        let lhs = pairing(&p.mul_fr(&a), &q.mul_fr(&b));
        let rhs = pairing(&p, &q).pow(&a.mul(&b).to_canonical());
        prop_assert_eq!(lhs, rhs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn emb_vo_roundtrips_for_any_range(n in 1i64..400, lo in 0i64..800, width in 0i64..200) {
        // Every EMB- range VO (including empty ranges and ranges past the
        // data extremes) must reproduce the signed root from the returned
        // tuples, exercising the embedded-MHT collapse on every node shape.
        use authdb::index::btree::LeafEntry;
        use authdb::index::emb::{DigestKind, EmbTree};
        let kind = DigestKind::Sha256;
        let pool = BufferPool::new(Disk::new(), 512);
        let mut t = EmbTree::new(pool, kind);
        let entries: Vec<LeafEntry> = (0..n)
            .map(|i| LeafEntry {
                key: i * 2,
                rid: i as u64,
                payload: kind.hash(&(i * 2).to_be_bytes()),
            })
            .collect();
        t.bulk_load(&entries, 0.7);
        let hi = lo + width;
        let res = t.range_with_vo(lo, hi);
        let digests: Vec<Vec<u8>> = res
            .returned_entries()
            .iter()
            .map(|e| e.payload.clone())
            .collect();
        prop_assert_eq!(res.vo.result_slots(), digests.len());
        let root = EmbTree::root_from_vo(kind, &res.vo, &digests);
        prop_assert_eq!(root, Some(t.root_digest()));
    }

    #[test]
    fn freshness_check_is_sound_and_complete(
        update_ticks in prop::collection::btree_set(1u64..200, 0..20),
        probe_version in 0usize..20,
    ) {
        // Simulate one record updated at the given ticks with summaries
        // every 10 ticks: any version except the newest within the probe
        // window must be flagged stale once a later period marks the rid;
        // the newest version must never be flagged.
        use authdb::core::freshness::{DecodedSummaries, Freshness, UpdateSummary};
        use authdb::crypto::signer::Keypair;
        use authdb::filters::bitmap::Bitmap;
        let mut rng = StdRng::seed_from_u64(1);
        let kp = Keypair::generate(SchemeKind::Mock, &mut rng);
        let rho = 10u64;
        let horizon = 210u64;
        let mut summaries = Vec::new();
        let mut seq = 0;
        let mut start = 0u64;
        while start < horizon {
            let end = start + rho;
            let mut bm = Bitmap::new(8);
            if update_ticks.iter().any(|&t| start < t && t <= end) {
                bm.set(3);
            }
            summaries.push(UpdateSummary::create(&kp, 0, 0, seq, start, end, &bm));
            seq += 1;
            start = end;
        }
        let versions: Vec<u64> = update_ticks.iter().copied().collect();
        if versions.is_empty() {
            return Ok(());
        }
        let v = versions[probe_version % versions.len()];
        let newest = *versions.last().expect("nonempty");
        let f = DecodedSummaries::new(&summaries).check_freshness(3, v, rho, horizon + 1, 0);
        // The newest version is never stale.
        if v == newest {
            prop_assert!(matches!(f, Freshness::FreshWithin(_)), "newest flagged: {f:?}");
        } else {
            // An older version is stale unless the newer update landed in
            // the same rho-period (the paper's 2-rho granularity window).
            let same_period = versions
                .iter()
                .filter(|&&t| t > v)
                .all(|&t| (t - 1) / rho == (v - 1) / rho);
            if !same_period {
                prop_assert!(matches!(f, Freshness::Stale { .. }), "old version accepted: {f:?}");
            }
        }
    }
}
