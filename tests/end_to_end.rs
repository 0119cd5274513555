//! Cross-crate integration: the full outsourced-database lifecycle with
//! real BAS (BLS/BN254) cryptography, side by side with the EMB− baseline.

mod common;

use authdb::core::da::{DaConfig, SigningMode};
use authdb::core::record::Schema;
use authdb::crypto::signer::{Keypair, SchemeKind};
use authdb::index::emb::DigestKind;
use authdb::paper::embsys::{EmbAggregator, EmbServer, EmbVerifier};
use common::{part, OneShard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bas_system(n: i64, scheme: SchemeKind, seed: u64) -> OneShard {
    let cfg = DaConfig {
        schema: Schema::new(3, 64),
        scheme,
        rho: 5,
        rho_prime: 500,
        buffer_pages: 2048,
        ..DaConfig::small()
    };
    let rows = (0..n).map(|i| vec![i * 2, i, 1000 + i]).collect();
    OneShard::new(cfg, rows, seed)
}

#[test]
fn lifecycle_with_real_bas() {
    let mut s = bas_system(200, SchemeKind::Bas, 1);

    // Initial range query verifies.
    let ans = s.select(100, 160);
    assert_eq!(s.verify(100, 160, &ans).unwrap().records, 31);

    // A burst of updates, an insert and a delete, plus a summary cycle.
    s.sa.advance_clock(2);
    s.update(60, vec![120, 60, 9999]);
    let (shard, msgs) = s.sa.insert(vec![121, 777, 1]);
    for m in &msgs {
        s.sqs.apply(shard, m);
    }
    s.sqs.apply_all(&s.sa.delete_record(0, 70));
    s.sa.advance_clock(5);
    s.publish();

    // Everything still verifies; the updated value and the insert are
    // visible, the deleted record is gone.
    let mut ans = s.select(100, 160);
    assert_eq!(s.verify(100, 160, &ans).unwrap().records, 31); // 31 - deleted(140) + inserted(121)
    let records = &part(&mut ans).records;
    assert!(records.iter().any(|r| r.attrs[2] == 9999));
    assert!(records.iter().any(|r| r.attrs[0] == 121));
    assert!(!records.iter().any(|r| r.attrs[0] == 140));
}

#[test]
fn emb_baseline_equivalent_answers() {
    // EMB- and BAS answer the same queries with the same records — only
    // the proof machinery differs.
    let s = bas_system(300, SchemeKind::Mock, 3);
    let schema = Schema::new(3, 64);
    let mut rng = StdRng::seed_from_u64(3);
    let kp = Keypair::generate(SchemeKind::Mock, &mut rng);
    let epp = kp.public_params();
    let mut eda = EmbAggregator::new(schema, DigestKind::Sha256, kp, 2048, 2.0 / 3.0);
    let rows: Vec<Vec<i64>> = (0..300).map(|i| vec![i * 2, i, 1000 + i]).collect();
    let (records, root) = eda.bootstrap(rows);
    let eserver =
        EmbServer::from_bootstrap(schema, DigestKind::Sha256, &records, root, 2048, 2.0 / 3.0);
    let everifier = EmbVerifier::new(epp, schema, DigestKind::Sha256);

    for (lo, hi) in [(0, 100), (333, 444), (598, 598), (9, 9)] {
        let mut bas_ans = s.select(lo, hi);
        let bas_records = &part(&mut bas_ans).records;
        let emb_ans = eserver.range_query(lo, hi);
        let n = everifier.verify(lo, hi, &emb_ans).expect("EMB- verifies");
        assert_eq!(bas_records.len(), n, "range {lo}..{hi}");
        let bas_rids: Vec<u64> = bas_records.iter().map(|r| r.rid).collect();
        let emb_rids: Vec<u64> = emb_ans.matches().iter().map(|r| r.rid).collect();
        assert_eq!(bas_rids, emb_rids);
    }
}

#[test]
fn update_stream_keeps_both_systems_consistent() {
    let schema = Schema::new(2, 64);
    let mut rng = StdRng::seed_from_u64(4);
    let cfg = DaConfig {
        schema,
        buffer_pages: 2048,
        ..DaConfig::small()
    };
    let mut s = OneShard::new(cfg, (0..150).map(|i| vec![i, 0]).collect(), 4);

    let kp = Keypair::generate(SchemeKind::Mock, &mut rng);
    let mut eda = EmbAggregator::new(schema, DigestKind::Sha1, kp, 2048, 2.0 / 3.0);
    let epp = eda.public_params();
    let (records, root) = eda.bootstrap((0..150).map(|i| vec![i, 0]).collect());
    let mut eserver =
        EmbServer::from_bootstrap(schema, DigestKind::Sha1, &records, root, 2048, 2.0 / 3.0);
    let everifier = EmbVerifier::new(epp, schema, DigestKind::Sha1);

    for step in 0..300 {
        s.sa.advance_clock(1);
        eda.advance_clock(1);
        let rid = rng.gen_range(0..150u64);
        if s.sa.shard(0).record(rid).is_none() {
            continue;
        }
        let val = rng.gen_range(0..100);
        let key = rng.gen_range(0..200);
        s.update(rid, vec![key, val]);
        if let Some(up) = eda.update_record(rid, vec![key, val]) {
            eserver.apply(&up);
        }
        // Publish on the DA's own ρ schedule: the verifier's 2ρ-recency
        // gate (rightly) rejects servers whose newest summary is older.
        s.publish();
        if step % 37 == 0 {
            let (lo, hi) = {
                let a = rng.gen_range(0..200i64);
                (a, (a + rng.gen_range(0..40)).min(199))
            };
            let ans = s.select(lo, hi);
            let rep = s
                .verify(lo, hi, &ans)
                .unwrap_or_else(|e| panic!("BAS verify failed at step {step}: {e:?}"));
            let emb_ans = eserver.range_query(lo, hi);
            let n = everifier
                .verify(lo, hi, &emb_ans)
                .unwrap_or_else(|e| panic!("EMB verify failed at step {step}: {e:?}"));
            assert_eq!(rep.records, n, "step {step} range {lo}..{hi}");
        }
    }
}

#[test]
fn projection_end_to_end() {
    let cfg = DaConfig {
        schema: Schema::new(4, 96),
        scheme: SchemeKind::Bas,
        mode: SigningMode::PerAttribute,
        rho: 5,
        rho_prime: 500,
        buffer_pages: 1024,
        ..DaConfig::small()
    };
    let rows = (0..40).map(|i| vec![i, i * 10, i * 100, -i]).collect();
    let s = OneShard::new(cfg, rows, 5);
    // Project two non-contiguous attributes: VO is still one signature.
    let ans = s.sqs.project(5, 25, &[1, 3]).unwrap();
    assert_eq!(ans.rows.len(), 21);
    let pp = s.sa.public_params();
    assert_eq!(ans.vo_size(&pp), pp.wire_len());
    s.v.verify_projection(&ans, &s.view, s.sa.now(), true)
        .expect("projection verifies");
}
