//! Property test: **a multi-shard deployment is observably equivalent to a
//! one-shard one**.
//!
//! For random insert/update/delete/clock workloads and random split keys,
//! a deployment of 1–8 shards and its one-shard twin — the same engine
//! under the ±∞ fences of a map with no splits — fed the same logical
//! operations must produce answers that verify identically: the same record
//! contents for every query and an accepting verdict on both sides —
//! including queries that straddle seams, land entirely inside one shard,
//! hit an empty shard, sit exactly on a split key, or are inverted. Both
//! sides' contents are additionally compared against a plain in-test model
//! of the logical operations.
//!
//! Records are compared by content (`attrs`), not by rid or ts: rids are
//! shard-local, and neighbour re-certification timestamps legitimately
//! differ near seams (a chain has fewer neighbours at its fences).

use proptest::prelude::*;

use authdb_core::da::DaConfig;
use authdb_testkit::deploy::{
    apply_op, decode_ops, decode_splits, initial_rows, Deployment, Model, Op,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The one-shard twin, the partitioned subject and the model, driven by one
/// script.
struct Pair {
    twin: Deployment,
    subject: Deployment,
    model: Model,
}

fn run_workload(pair: &mut Pair, key_span: i64, ops: &[Op]) {
    for &op in ops {
        let scripted = apply_op(
            op,
            key_span,
            &mut pair.model,
            &mut [&mut pair.twin, &mut pair.subject],
        );
        assert!(scripted, "only data and clock ops are scripted here");
        pair.twin.publish();
        pair.subject.publish();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn sharded_and_single_answers_verify_identically(
        n0 in 0usize..30,
        key_span in 4i64..40,
        raw_splits in prop::collection::vec(any::<i64>(), 0..7),
        raw_ops in prop::collection::vec((any::<u8>(), any::<i64>(), any::<i64>()), 0..30),
        queries in prop::collection::vec((-50i64..50, -5i64..30), 1..6),
        rng_seed in any::<u64>(),
    ) {
        let splits = decode_splits(&raw_splits, key_span);
        let ops = decode_ops(&raw_ops, 4);
        let rows = initial_rows(n0, key_span);
        let mut pair = Pair {
            twin: Deployment::new(DaConfig::small(), &rows, vec![], 7),
            subject: Deployment::new(DaConfig::small(), &rows, splits.clone(), 8),
            model: Model::new(&rows),
        };
        prop_assert!(pair.subject.sa.map().shard_count() <= 8);
        run_workload(&mut pair, key_span, &ops);
        prop_assert_eq!(pair.twin.sa.now(), pair.subject.sa.now());
        let mut rng = StdRng::seed_from_u64(rng_seed);

        // Random ranges (some inverted via negative width), plus targeted
        // ones: straddling each seam, exactly on each split key, the full
        // domain, and fully outside the data.
        let mut ranges: Vec<(i64, i64)> =
            queries.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        for &s in &splits {
            ranges.push((s - 2, s + 2));
            ranges.push((s, s));
        }
        ranges.push((-key_span - 1, key_span + 1));
        ranges.push((key_span + 1, key_span + 10));

        for (lo, hi) in ranges {
            let (rep_twin, mut twin_rows) = pair.twin.query(lo, hi, &mut rng);
            prop_assert!(
                rep_twin.is_ok(),
                "one-shard twin rejected [{lo},{hi}]: {:?}", rep_twin.err()
            );
            let (rep_subject, mut subject_rows) = pair.subject.query(lo, hi, &mut rng);
            prop_assert!(
                rep_subject.is_ok(),
                "sharded rejected [{lo},{hi}] (splits {splits:?}): {:?}",
                rep_subject.err()
            );
            prop_assert_eq!(rep_twin.unwrap().records, rep_subject.unwrap().records);

            // Same record contents on both sides — and the ones the logical
            // operations say are there.
            twin_rows.sort();
            subject_rows.sort();
            prop_assert_eq!(&twin_rows, &subject_rows);
            prop_assert_eq!(twin_rows, pair.model.range(lo, hi));
        }
    }
}
