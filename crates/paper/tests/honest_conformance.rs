//! Property test: **every honest projection verifies** (Section 3.4).
//!
//! The projection's counterpart of `authdb-core`'s honest-conformance
//! suite: random insert/update/delete/clock workloads — empty bootstraps,
//! duplicate keys, tables that empty out mid-run — run through a
//! [`ProjectionPublisher`] with summaries published on the ρ schedule, and
//! every honest projection (freshness checked) must verify.

use proptest::prelude::*;

use authdb_core::shard::ShardedAggregator;
use authdb_crypto::signer::SchemeKind;
use authdb_paper::projection::{verify_projection, ProjectionPublisher};
use authdb_testkit::deploy::{config, decode_ops, initial_rows, Model, Op};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run the workload on a one-shard publisher. One shard never reassigns
/// rids, so a logical record id is its rid.
fn run_workload(n0: usize, key_span: i64, ops: &[Op]) -> ProjectionPublisher {
    let rows = initial_rows(n0, key_span);
    let cfg = config(SchemeKind::Mock);
    let mut sa = ShardedAggregator::new(cfg, vec![], &mut StdRng::seed_from_u64(7));
    sa.bootstrap(rows.clone(), 2);
    let mut p = ProjectionPublisher::new(sa);
    let mut model = Model::new(&rows);
    for &op in ops {
        match op {
            Op::Insert { key, val } => {
                let attrs = vec![key % key_span, val];
                model.insert(attrs.clone());
                p.insert(attrs);
            }
            Op::Update { target, key, val } => {
                if let Some(rid) = model.pick(target) {
                    let attrs = vec![key % key_span, val];
                    model.update(rid, attrs.clone());
                    p.update_record(rid as u64, attrs);
                }
            }
            Op::Delete { target } => {
                if let Some(rid) = model.pick(target) {
                    model.delete(rid);
                    p.delete_record(rid as u64);
                }
            }
            Op::Advance { dt } => p.sa.advance_clock(dt),
            Op::Rebalance { .. } | Op::Checkpoint { .. } => {}
        }
        p.publish();
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn honest_projections_always_verify(
        n0 in 0usize..30,
        key_span in 4i64..40,
        raw_ops in prop::collection::vec((any::<u8>(), any::<i64>(), any::<i64>()), 0..25),
        queries in prop::collection::vec((-50i64..50, 0i64..30, 0u8..3), 1..6),
    ) {
        let ops = decode_ops(&raw_ops, 4);
        let p = run_workload(n0, key_span, &ops);
        let (cfg, pp, now) = (p.sa.config(), p.sa.public_params(), p.sa.now());
        for &(lo, w, attr_sel) in &queries {
            let attrs: &[usize] = match attr_sel % 3 {
                0 => &[0],
                1 => &[1],
                _ => &[0, 1],
            };
            let ans = p.project(lo, lo + w, attrs).unwrap();
            let rep = verify_projection(&pp, &cfg.schema, cfg.rho, &ans, now);
            prop_assert!(
                rep.is_ok(),
                "honest projection rejected for [{lo}, {}] attrs {attrs:?} at t={now}: {:?}",
                lo + w,
                rep.err(),
            );
        }
    }
}
