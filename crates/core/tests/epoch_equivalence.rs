//! Property test: **a rebalancing deployment is observably equivalent to a
//! never-rebalanced one-shard one, across every epoch**.
//!
//! This is `shard_equivalence` with the partition no longer frozen: random
//! insert/update/delete/clock workloads are interleaved with a random
//! split/merge schedule. After every rebalance (and at the end), the
//! epoch-N+1 deployment and its one-shard twin — which never leaves the
//! genesis epoch — must produce record-identical answers and identical
//! (accepting) verdicts for seam-straddling, in-shard, empty, split-key,
//! and inverted queries, each side verified through the epoch-gated
//! `verify_sharded_selection` with an `EpochView` advanced along the
//! DA-signed transition chain. Both sides' contents are additionally
//! compared against a plain in-test model of the logical operations.
//!
//! Records are compared by content (`attrs`): rids are shard-local (and
//! reassigned by handoffs), and certification timestamps legitimately
//! differ (handoffs re-sign the moved records at the transition tick).

use proptest::prelude::*;

use authdb_core::da::DaConfig;
use authdb_core::shard::RebalancePlan;
use authdb_testkit::deploy::{
    apply_op, decode_ops, decode_splits, derive_plan, initial_rows, Deployment, Model, Op,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The never-rebalanced one-shard twin, the rebalancing subject and the
/// model, driven by one script.
struct Pair {
    twin: Deployment,
    subject: Deployment,
    model: Model,
}

fn build_pair(n0: usize, key_span: i64, splits: Vec<i64>) -> Pair {
    let rows = initial_rows(n0, key_span);
    Pair {
        twin: Deployment::new(DaConfig::small(), &rows, vec![], 7),
        subject: Deployment::new(DaConfig::small(), &rows, splits, 8),
        model: Model::new(&rows),
    }
}

/// Answers for a set of ranges must be record-identical and both verify.
fn assert_equivalent(
    pair: &Pair,
    ranges: &[(i64, i64)],
    rng: &mut StdRng,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(pair.twin.sa.now(), pair.subject.sa.now());
    for &(lo, hi) in ranges {
        let (rep_twin, mut twin_rows) = pair.twin.query(lo, hi, rng);
        prop_assert!(
            rep_twin.is_ok(),
            "{label}: one-shard twin rejected [{lo},{hi}]: {:?}",
            rep_twin.err()
        );
        let (rep_subject, mut subject_rows) = pair.subject.query(lo, hi, rng);
        prop_assert!(
            rep_subject.is_ok(),
            "{label}: sharded (epoch {}) rejected [{lo},{hi}]: {:?}",
            pair.subject.view.epoch(),
            rep_subject.err()
        );
        prop_assert_eq!(rep_twin.unwrap().records, rep_subject.unwrap().records);

        twin_rows.sort();
        subject_rows.sort();
        prop_assert!(
            twin_rows == subject_rows,
            "{label} [{lo},{hi}]: contents diverge: {twin_rows:?} vs {subject_rows:?}"
        );
        prop_assert_eq!(twin_rows, pair.model.range(lo, hi));
    }
    Ok(())
}

fn run_workload(
    pair: &mut Pair,
    key_span: i64,
    ops: &[Op],
    rng: &mut StdRng,
) -> Result<usize, TestCaseError> {
    let mut rebalances = 0usize;
    for &op in ops {
        let both = &mut [&mut pair.twin, &mut pair.subject];
        if !apply_op(op, key_span, &mut pair.model, both) {
            let Op::Rebalance { sel, at_raw } = op else {
                unreachable!("checkpoints are not scripted here");
            };
            let splits = pair.subject.sa.map().splits();
            let Some(plan) = derive_plan(sel, at_raw, splits, key_span) else {
                continue;
            };
            pair.subject.rebalance(plan);
            // The transition occupies one tick on the rebalancing side;
            // keep the twin's clock in lockstep.
            pair.twin.sa.advance_clock(1);
            rebalances += 1;
            // The core property: immediately after every rebalance the
            // two deployments are indistinguishable.
            let mut probe = vec![(-2 * key_span, 2 * key_span), (1, key_span / 2)];
            if let Some(&s) = pair.subject.sa.map().splits().first() {
                probe.push((s - 2, s + 2));
                probe.push((s, s));
            }
            assert_equivalent(pair, &probe, rng, "post-rebalance")?;
        }
        pair.twin.publish();
        pair.subject.publish();
    }
    Ok(rebalances)
}

/// Satellite regression: the decoded-node cache must survive a rebalance
/// handoff. Successor shards used to rebuild with an empty LRU, so the
/// first post-rebalance queries re-decoded every page from scratch; the
/// handoff now warms the successor's cache from the rebuilt tree, and one
/// query sweep is enough to see hits again.
#[test]
fn node_cache_recovers_within_one_query_sweep_after_rebalance() {
    let rows: Vec<Vec<i64>> = (0..256i64).map(|i| vec![i - 128, i]).collect();
    let Deployment { mut sa, sqs, .. } = Deployment::new(DaConfig::small(), &rows, vec![0], 42);
    // Touch both shards so the donors' caches are live before the split.
    sqs.select_range(-128, 127).unwrap();
    // Split the right shard: both successors are rebuilt from handoff.
    let rb = sa.rebalance(RebalancePlan::Split { shard: 1, at: 64 }, 2);
    sqs.apply_rebalance(&rb).expect("honest rebalance applies");
    let before = sqs.shard_stats();
    // One sweep over the successors' key ranges...
    sqs.select_range(0, 127).unwrap();
    let after = sqs.shard_stats();
    // ...already answers from a warm decoded-node cache on both halves of
    // the split, instead of miss-filling the LRU all over again.
    for s in [1usize, 2] {
        assert!(
            after[s].node_cache_hits > before[s].node_cache_hits,
            "shard {s} answered its first post-rebalance sweep cold: {:?}",
            after[s]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn rebalancing_deployment_stays_equivalent_to_single_server(
        n0 in 0usize..30,
        key_span in 4i64..40,
        raw_splits in prop::collection::vec(any::<i64>(), 0..4),
        raw_ops in prop::collection::vec((any::<u8>(), any::<i64>(), any::<i64>()), 0..30),
        queries in prop::collection::vec((-50i64..50, -5i64..30), 1..6),
        rng_seed in any::<u64>(),
    ) {
        let splits = decode_splits(&raw_splits, key_span);
        let mut pair = build_pair(n0, key_span, splits);
        let ops = decode_ops(&raw_ops, 5);
        let mut rng = StdRng::seed_from_u64(rng_seed);

        run_workload(&mut pair, key_span, &ops, &mut rng)?;

        // Final sweep: random ranges plus targeted ones — straddling each
        // live seam, exactly on each split key, the full domain, beyond
        // the data, and inverted.
        let mut ranges: Vec<(i64, i64)> =
            queries.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        for &s in pair.subject.sa.map().splits() {
            ranges.push((s - 2, s + 2));
            ranges.push((s, s));
        }
        ranges.push((-2 * key_span - 1, 2 * key_span + 1));
        ranges.push((2 * key_span + 1, 2 * key_span + 10));
        ranges.push((10, -10));
        assert_equivalent(&pair, &ranges, &mut rng, "final")?;
    }

    #[test]
    fn scripted_split_merge_chains_stay_equivalent(
        n0 in 1usize..30,
        key_span in 8i64..40,
        schedule in prop::collection::vec((any::<u64>(), any::<i64>()), 1..6),
        rng_seed in any::<u64>(),
    ) {
        // A rebalance-dense schedule (no other ops between transitions):
        // every epoch in a random split/merge chain must stay equivalent.
        let mut pair = build_pair(n0, key_span, vec![]);
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let ops: Vec<Op> = schedule
            .iter()
            .map(|&(sel, at_raw)| Op::Rebalance { sel, at_raw })
            .collect();
        let done = run_workload(&mut pair, key_span, &ops, &mut rng)?;
        prop_assert_eq!(pair.subject.view.epoch(), 1 + done as u64);
    }
}
