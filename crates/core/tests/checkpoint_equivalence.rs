//! Property test: **a checkpointed/compacted deployment is observably
//! equivalent to a never-compacted one**.
//!
//! Certified checkpoints let the DA collapse a summary-log prefix into one
//! signed digest and let servers drop the compacted summaries. Nothing
//! about that cut may be observable to an honest client: for random
//! insert/update/delete/clock workloads with a random per-shard
//! checkpoint/compaction schedule interleaved with a random split/merge
//! rebalance schedule, the compacted deployment and an identically-driven
//! never-compacted twin must produce record-identical answers and
//! identical accepting verdicts (same record count, same staleness bound)
//! for seam-straddling, in-shard, empty, split-key, and inverted queries —
//! and the contents a plain in-test model of the logical operations says
//! are there.
//!
//! The two deployments are seeded identically, so divergence can come only
//! from the one thing under test: the compaction schedule.

mod common;

use proptest::prelude::*;

use authdb_core::da::SigningMode;
use authdb_core::shard::{RebalancePlan, ShardedQueryServer};
use authdb_core::verify::EpochView;
use common::{
    apply_op, decode_ops, decode_splits, derive_plan, initial_rows, Deployment, Model, Op,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The never-compacted deployment, its checkpointed twin (identically
/// seeded and driven, so their address books coincide) and the model.
struct Pair {
    base: Deployment,
    ckptd: Deployment,
    model: Model,
    /// Checkpoints actually minted and applied.
    checkpoints: usize,
}

fn build_pair(n0: usize, key_span: i64, splits: Vec<i64>) -> Pair {
    let rows = initial_rows(n0, key_span);
    Pair {
        base: Deployment::build(SigningMode::Chained, &rows, splits.clone(), 8),
        ckptd: Deployment::build(SigningMode::Chained, &rows, splits, 8),
        model: Model::new(&rows),
        checkpoints: 0,
    }
}

/// Answers for a set of ranges must be record-identical across the cut
/// and produce identical accepting verdicts.
fn assert_equivalent(
    pair: &Pair,
    ranges: &[(i64, i64)],
    rng: &mut StdRng,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(pair.base.sa.now(), pair.ckptd.sa.now());
    for &(lo, hi) in ranges {
        let (rep, base_rows) = pair.base.query(lo, hi, rng);
        prop_assert!(
            rep.is_ok(),
            "{label}: never-compacted rejected [{lo},{hi}]: {:?}",
            rep.err()
        );
        let (crep, ckptd_rows) = pair.ckptd.query(lo, hi, rng);
        prop_assert!(
            crep.is_ok(),
            "{label}: checkpointed (epoch {}, {} ckpts) rejected [{lo},{hi}]: {:?}",
            pair.ckptd.view.epoch(),
            pair.checkpoints,
            crep.err()
        );
        let (rep, crep) = (rep.unwrap(), crep.unwrap());
        prop_assert!(
            rep.records == crep.records,
            "{label} [{lo},{hi}]: record counts diverge: {} vs {}",
            rep.records,
            crep.records
        );
        prop_assert!(
            rep.max_staleness == crep.max_staleness,
            "{label} [{lo},{hi}]: staleness bound diverges across the cut: {} vs {}",
            rep.max_staleness,
            crep.max_staleness
        );
        prop_assert!(
            base_rows == ckptd_rows,
            "{label} [{lo},{hi}]: contents diverge: {base_rows:?} vs {ckptd_rows:?}"
        );
        let mut sorted = base_rows;
        sorted.sort();
        prop_assert_eq!(sorted, pair.model.range(lo, hi));
    }
    Ok(())
}

fn run_workload(
    pair: &mut Pair,
    key_span: i64,
    ops: &[Op],
    rng: &mut StdRng,
) -> Result<(), TestCaseError> {
    for &op in ops {
        let both = &mut [&mut pair.base, &mut pair.ckptd];
        if !apply_op(op, key_span, &mut pair.model, both) {
            match op {
                Op::Rebalance { sel, at_raw } => {
                    let splits = pair.base.sa.map().splits();
                    let Some(plan) = derive_plan(sel, at_raw, splits, key_span) else {
                        continue;
                    };
                    pair.base.rebalance(plan);
                    pair.ckptd.rebalance(plan);
                    // Right after a handoff is exactly where a checkpoint
                    // that failed to travel (or re-tag) would surface.
                    let mut probe = vec![(-2 * key_span, 2 * key_span), (1, key_span / 2)];
                    if let Some(&s) = pair.base.sa.map().splits().first() {
                        probe.push((s - 2, s + 2));
                    }
                    assert_equivalent(pair, &probe, rng, "post-rebalance")?;
                }
                Op::Checkpoint { sel, keep_raw } => {
                    // The one op that touches one side alone.
                    let side = &mut pair.ckptd;
                    let shard = sel as usize % side.sa.map().shard_count();
                    let keep = 1 + keep_raw as usize % 3;
                    if let Some(c) = side.sa.checkpoint_shard_summaries(shard, keep) {
                        side.sqs.apply_checkpoint(shard, c);
                        pair.checkpoints += 1;
                    }
                }
                _ => unreachable!("apply_op scripts every other op"),
            }
        }
        // Identically seeded and driven: every record lives at the same
        // address on both sides.
        prop_assert_eq!(&pair.base.loc, &pair.ckptd.loc);
        pair.base.publish();
        pair.ckptd.publish();
    }
    Ok(())
}

/// Acceptance floor: the DA's summary log (and the QS's mirror) must stay
/// bounded by the checkpoint interval, not total history — compaction
/// keeps resident memory flat under a long update stream while answers
/// keep verifying.
#[test]
fn summary_log_memory_stays_flat_under_checkpointing() {
    let rows: Vec<Vec<i64>> = (0..32i64).map(|i| vec![i, i]).collect();
    let mut d = Deployment::build(SigningMode::Chained, &rows, vec![], 9);
    let mut max_retained = 0usize;
    for period in 0..200u64 {
        d.sa.advance_clock(2);
        let logical = (period % 32) as usize;
        d.update(logical, vec![logical as i64, period as i64]);
        d.sa.advance_clock(8);
        d.publish();
        if period % 8 == 7 {
            if let Some(c) = d.sa.checkpoint_shard_summaries(0, 4) {
                d.sqs.apply_checkpoint(0, c);
            }
        }
        let retained = d.sa.shard(0).summary_log().len();
        max_retained = max_retained.max(retained);
        assert_eq!(retained, d.sqs.with_shard(0, |qs| qs.summary_count()));
    }
    // 200 periods of history; never more than interval + keep summaries
    // resident on either side.
    assert!(
        max_retained <= 12,
        "summary log grew with history: {max_retained} retained"
    );
    let (rep, _) = d.query(0, 31, &mut StdRng::seed_from_u64(9));
    let rep = rep.expect("checkpoint-anchored answer verifies after 200 periods");
    assert_eq!(rep.records, 32);
}

/// Acceptance floor: a fresh client joining at epoch N bootstraps from a
/// constant-size bundle — one map, one transition, one checkpoint —
/// no matter how long the transition chain behind it is.
#[test]
fn bootstrap_cost_is_independent_of_epoch_chain_length() {
    let rows: Vec<Vec<i64>> = (0..32i64).map(|i| vec![i, i]).collect();
    let Deployment {
        mut sa,
        sqs,
        view: mut walked,
        ..
    } = Deployment::build(SigningMode::Chained, &rows, vec![], 10);
    let pp = sa.public_params();
    // The walked client is the reference: it is pushed every link and
    // pays one signature per transition, 20 of them.
    for _ in 0..10 {
        for plan in [
            RebalancePlan::Split { shard: 0, at: 16 },
            RebalancePlan::Merge { left: 0 },
        ] {
            let rb = sa.rebalance(plan, 2);
            sqs.apply_rebalance(&rb).unwrap();
            walked.advance(&rb.transition, &pp).expect("chain walk");
        }
    }
    // The bootstrap bundle stays three artifacts regardless of N, and
    // pins the same view.
    let boot = sqs.epoch_bootstrap();
    assert_eq!(boot.checkpoint.as_ref().map(|c| c.epoch), Some(21));
    let pinned = EpochView::from_bootstrap(&boot, &pp).expect("O(1) pin");
    assert_eq!(pinned, walked);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn checkpointed_deployment_stays_equivalent_to_uncompacted(
        n0 in 0usize..30,
        key_span in 8i64..40,
        raw_splits in prop::collection::vec(any::<i64>(), 0..4),
        raw_ops in prop::collection::vec((any::<u8>(), any::<i64>(), any::<i64>()), 0..40),
        queries in prop::collection::vec((-50i64..50, -5i64..30), 1..6),
        rng_seed in any::<u64>(),
    ) {
        let splits = decode_splits(&raw_splits, key_span);
        let mut pair = build_pair(n0, key_span, splits);
        let ops = decode_ops(&raw_ops, 6);
        let mut rng = StdRng::seed_from_u64(rng_seed);

        run_workload(&mut pair, key_span, &ops, &mut rng)?;

        // The compaction must actually have bitten whenever the schedule
        // minted checkpoints: the compacted side retains no more summaries
        // than the full-history side.
        let retained = |sqs: &ShardedQueryServer| -> usize {
            (0..sqs.map().shard_count())
                .map(|s| sqs.with_shard(s, |qs| qs.summary_count()))
                .sum()
        };
        prop_assert!(retained(&pair.ckptd.sqs) <= retained(&pair.base.sqs));

        // Final sweep: random ranges plus targeted ones — straddling each
        // live seam, exactly on each split key, the full domain, beyond
        // the data, and inverted.
        let mut ranges: Vec<(i64, i64)> =
            queries.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        for &s in pair.base.sa.map().splits() {
            ranges.push((s - 2, s + 2));
            ranges.push((s, s));
        }
        ranges.push((-2 * key_span - 1, 2 * key_span + 1));
        ranges.push((2 * key_span + 1, 2 * key_span + 10));
        ranges.push((10, -10));
        assert_equivalent(&pair, &ranges, &mut rng, "final")?;
    }
}
