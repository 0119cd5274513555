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
//! for seam-straddling, in-shard, empty, split-key, and inverted queries.
//!
//! The two deployments are seeded identically, so divergence can come only
//! from the one thing under test: the compaction schedule.

use proptest::prelude::*;

use authdb_core::da::{DaConfig, DataAggregator};
use authdb_core::qs::QsOptions;
use authdb_core::shard::{RebalancePlan, ShardedAggregator, ShardedQueryServer};
use authdb_core::verify::{EpochView, Verifier};
use rand::rngs::StdRng;
use rand::SeedableRng;

const RHO: u64 = 10;

fn cfg() -> DaConfig {
    DaConfig {
        rho: RHO,
        ..DaConfig::small()
    }
}

/// One scripted operation over *logical* records, so the same script
/// drives both deployments even though addresses are reshuffled by
/// handoffs. `Checkpoint` is the only op that touches one side alone.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert {
        key: i64,
        val: i64,
    },
    Update {
        target: u64,
        key: i64,
        val: i64,
    },
    Delete {
        target: u64,
    },
    Advance {
        dt: u64,
    },
    /// Rebalance both sides: split (sel even) or merge (sel odd), derived
    /// from the live map at execution time.
    Rebalance {
        sel: u64,
        at_raw: i64,
    },
    /// Compact one shard's summary log on the checkpointed side only.
    Checkpoint {
        sel: u64,
        keep_raw: u64,
    },
}

fn decode_ops(raw: &[(u8, i64, i64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(op, a, b)| match op % 6 {
            0 => Op::Insert { key: a, val: b },
            1 => Op::Update {
                target: a.unsigned_abs(),
                key: b,
                val: a,
            },
            2 => Op::Delete {
                target: a.unsigned_abs(),
            },
            3 => Op::Advance {
                dt: (a.unsigned_abs() % 4) + 1,
            },
            4 => Op::Rebalance {
                sel: a.unsigned_abs(),
                at_raw: b,
            },
            _ => Op::Checkpoint {
                sel: a.unsigned_abs(),
                keep_raw: b.unsigned_abs(),
            },
        })
        .collect()
}

/// The never-compacted deployment and its checkpointed twin, plus the
/// shared logical-record address book (identical on both sides because
/// they are seeded and driven identically).
struct Pair {
    sa: ShardedAggregator,
    sqs: ShardedQueryServer,
    view: EpochView,
    csa: ShardedAggregator,
    csqs: ShardedQueryServer,
    cview: EpochView,
    /// logical id -> live (shard, rid).
    loc: Vec<Option<(usize, u64)>>,
    /// logical id -> current indexed key (to replay handoff routing).
    keys: Vec<Option<i64>>,
    /// Checkpoints actually minted and applied.
    checkpoints: usize,
}

fn build_side(rows: &[Vec<i64>], splits: &[i64]) -> (ShardedAggregator, ShardedQueryServer) {
    let mut rng = StdRng::seed_from_u64(8);
    let mut sa = ShardedAggregator::new(cfg(), splits.to_vec(), &mut rng);
    let boots = sa.bootstrap(rows.to_vec(), 2);
    let sqs = sa.replica(&boots, &QsOptions::default());
    (sa, sqs)
}

fn build_pair(n0: usize, key_span: i64, splits: Vec<i64>) -> Pair {
    let modulus = (key_span / 2).max(1);
    let rows: Vec<Vec<i64>> = (0..n0 as i64).map(|i| vec![i % modulus, i]).collect();

    let (sa, sqs) = build_side(&rows, &splits);
    let (csa, csqs) = build_side(&rows, &splits);
    let mut next_rid = vec![0u64; sa.map().shard_count()];
    let loc: Vec<Option<(usize, u64)>> = rows
        .iter()
        .map(|row| {
            let shard = sa.map().shard_of(row[0]);
            let rid = next_rid[shard];
            next_rid[shard] += 1;
            Some((shard, rid))
        })
        .collect();
    let keys: Vec<Option<i64>> = rows.iter().map(|row| Some(row[0])).collect();
    let view = sa.epoch_view();
    let cview = csa.epoch_view();
    Pair {
        sa,
        sqs,
        view,
        csa,
        csqs,
        cview,
        loc,
        keys,
        checkpoints: 0,
    }
}

/// Derive a concrete valid plan from the op's raw material and the live
/// map, or `None` when no valid plan exists.
fn derive_plan(sel: u64, at_raw: i64, splits: &[i64], key_span: i64) -> Option<RebalancePlan> {
    let shard_count = splits.len() + 1;
    let window = 2 * key_span;
    if sel % 2 == 1 && shard_count >= 2 {
        return Some(RebalancePlan::Merge {
            left: (sel as usize / 2) % (shard_count - 1),
        });
    }
    if shard_count >= 8 {
        return None;
    }
    let shard = (sel as usize / 2) % shard_count;
    let lo = if shard == 0 {
        -window
    } else {
        splits[shard - 1].saturating_add(1)
    };
    let hi = if shard == splits.len() {
        window
    } else {
        splits[shard].saturating_sub(1)
    };
    if lo > hi {
        return None;
    }
    let span = (hi - lo + 1) as i128;
    let at = lo + (at_raw as i128).rem_euclid(span) as i64;
    Some(RebalancePlan::Split { shard, at })
}

/// Recompute the shared address book after a rebalance by replaying the
/// handoff routing (donors' live records travel in `(key, rid)` order).
fn remap_addresses(pair: &mut Pair, plan: RebalancePlan) {
    let mover_ids = |pair: &Pair, shard: usize| -> Vec<usize> {
        let mut ids: Vec<usize> = pair
            .loc
            .iter()
            .enumerate()
            .filter_map(|(lg, loc)| loc.filter(|l| l.0 == shard).map(|_| lg))
            .collect();
        ids.sort_by_key(|&lg| (pair.keys[lg].expect("live"), pair.loc[lg].unwrap().1));
        ids
    };
    match plan {
        RebalancePlan::Split { shard, at } => {
            let movers = mover_ids(pair, shard);
            for loc in pair.loc.iter_mut().flatten() {
                if loc.0 > shard {
                    loc.0 += 1;
                }
            }
            let (mut left_next, mut right_next) = (0u64, 0u64);
            for lg in movers {
                let key = pair.keys[lg].expect("live");
                pair.loc[lg] = Some(if key < at {
                    let a = (shard, left_next);
                    left_next += 1;
                    a
                } else {
                    let a = (shard + 1, right_next);
                    right_next += 1;
                    a
                });
            }
        }
        RebalancePlan::Merge { left } => {
            let mut movers = mover_ids(pair, left);
            movers.extend(mover_ids(pair, left + 1));
            for loc in pair.loc.iter_mut().flatten() {
                if loc.0 > left + 1 {
                    loc.0 -= 1;
                }
            }
            for (next, lg) in movers.into_iter().enumerate() {
                pair.loc[lg] = Some((left, next as u64));
            }
        }
    }
}

/// Answers for a set of ranges must be record-identical across the cut
/// and produce identical accepting verdicts.
fn assert_equivalent(
    pair: &mut Pair,
    v: &Verifier,
    cv: &Verifier,
    ranges: &[(i64, i64)],
    rng: &mut StdRng,
    label: &str,
) -> Result<(), TestCaseError> {
    let now = pair.sa.now();
    prop_assert_eq!(now, pair.csa.now());
    for &(lo, hi) in ranges {
        let base = pair.sqs.select_range(lo, hi).unwrap();
        let ckptd = pair.csqs.select_range(lo, hi).unwrap();
        let rep = v.verify_sharded_selection(lo, hi, &base, &pair.view, now, true, rng);
        prop_assert!(
            rep.is_ok(),
            "{label}: never-compacted rejected [{lo},{hi}]: {:?}",
            rep.err()
        );
        let crep = cv.verify_sharded_selection(lo, hi, &ckptd, &pair.cview, now, true, rng);
        prop_assert!(
            crep.is_ok(),
            "{label}: checkpointed (epoch {}, {} ckpts) rejected [{lo},{hi}]: {:?}",
            pair.cview.epoch(),
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

        let base_rows: Vec<Vec<i64>> = base
            .parts
            .iter()
            .flat_map(|p| p.answer.records.iter().map(|r| r.attrs.clone()))
            .collect();
        let ckptd_rows: Vec<Vec<i64>> = ckptd
            .parts
            .iter()
            .flat_map(|p| p.answer.records.iter().map(|r| r.attrs.clone()))
            .collect();
        prop_assert!(
            base_rows == ckptd_rows,
            "{label} [{lo},{hi}]: contents diverge: {base_rows:?} vs {ckptd_rows:?}"
        );
    }
    Ok(())
}

fn run_workload(
    pair: &mut Pair,
    v: &Verifier,
    cv: &Verifier,
    key_span: i64,
    ops: &[Op],
    rng: &mut StdRng,
) -> Result<(), TestCaseError> {
    let live = |locs: &[Option<(usize, u64)>]| -> Vec<usize> {
        locs.iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|_| i))
            .collect()
    };
    for &op in ops {
        match op {
            Op::Insert { key, val } => {
                let attrs = vec![key % key_span, val];
                let (shard, msgs) = pair.sa.insert(attrs.clone());
                pair.loc.push(Some((shard, msgs[0].record.rid)));
                pair.keys.push(Some(attrs[0]));
                for m in msgs {
                    pair.sqs.apply(shard, &m);
                }
                let (cshard, cmsgs) = pair.csa.insert(attrs);
                prop_assert_eq!(shard, cshard);
                for m in cmsgs {
                    pair.csqs.apply(cshard, &m);
                }
            }
            Op::Update { target, key, val } => {
                let candidates = live(&pair.loc);
                if candidates.is_empty() {
                    continue;
                }
                let logical = candidates[target as usize % candidates.len()];
                let attrs = vec![key % key_span, val];
                let (shard, rid) = pair.loc[logical].expect("live");
                let (new_addr, msgs) = pair.sa.update_record(shard, rid, attrs.clone());
                pair.loc[logical] = Some(new_addr);
                pair.keys[logical] = Some(attrs[0]);
                pair.sqs.apply_all(&msgs);
                let (cnew_addr, cmsgs) = pair.csa.update_record(shard, rid, attrs);
                prop_assert_eq!(new_addr, cnew_addr);
                pair.csqs.apply_all(&cmsgs);
            }
            Op::Delete { target } => {
                let candidates = live(&pair.loc);
                if candidates.is_empty() {
                    continue;
                }
                let logical = candidates[target as usize % candidates.len()];
                let (shard, rid) = pair.loc[logical].take().expect("live");
                pair.keys[logical] = None;
                pair.sqs.apply_all(&pair.sa.delete_record(shard, rid));
                pair.csqs.apply_all(&pair.csa.delete_record(shard, rid));
            }
            Op::Advance { dt } => {
                pair.sa.advance_clock(dt);
                pair.csa.advance_clock(dt);
            }
            Op::Rebalance { sel, at_raw } => {
                let Some(plan) = derive_plan(sel, at_raw, pair.sa.map().splits(), key_span) else {
                    continue;
                };
                let rb = pair.sa.rebalance(plan, 2);
                pair.sqs
                    .apply_rebalance(&rb)
                    .expect("honest rebalance applies");
                pair.view
                    .advance(&rb.transition, &pair.sa.public_params())
                    .expect("honest transition advances the view");
                let crb = pair.csa.rebalance(plan, 2);
                pair.csqs
                    .apply_rebalance(&crb)
                    .expect("honest rebalance applies on the checkpointed side");
                pair.cview
                    .advance(&crb.transition, &pair.csa.public_params())
                    .expect("honest transition advances the checkpointed view");
                remap_addresses(pair, plan);
                // Right after a handoff is exactly where a checkpoint that
                // failed to travel (or re-tag) would surface.
                let mut probe = vec![(-2 * key_span, 2 * key_span), (1, key_span / 2)];
                if let Some(&s) = pair.sa.map().splits().first() {
                    probe.push((s - 2, s + 2));
                }
                assert_equivalent(pair, v, cv, &probe, rng, "post-rebalance")?;
            }
            Op::Checkpoint { sel, keep_raw } => {
                let shard = sel as usize % pair.csa.map().shard_count();
                let keep = 1 + keep_raw as usize % 3;
                if let Some(c) = pair.csa.checkpoint_shard_summaries(shard, keep) {
                    pair.csqs.apply_checkpoint(shard, c);
                    pair.checkpoints += 1;
                }
            }
        }
        pair.sqs.ingest(pair.sa.maybe_publish_summaries());
        pair.csqs.ingest(pair.csa.maybe_publish_summaries());
    }
    Ok(())
}

/// Valid split keys inside the workload's key domain `(-key_span, key_span)`.
fn decode_splits(raw: &[i64], key_span: i64) -> Vec<i64> {
    let mut splits: Vec<i64> = raw
        .iter()
        .map(|&s| s.rem_euclid(2 * key_span) - key_span)
        .collect();
    splits.sort_unstable();
    splits.dedup();
    splits
}

/// Acceptance floor: the DA's summary log (and the QS's mirror) must stay
/// bounded by the checkpoint interval, not total history — compaction
/// keeps resident memory flat under a long update stream while answers
/// keep verifying.
#[test]
fn summary_log_memory_stays_flat_under_checkpointing() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut da = DataAggregator::new(cfg(), &mut rng);
    let boot = da.bootstrap((0..32i64).map(|i| vec![i, i]).collect(), 2);
    let mut qs = da.replica(&boot);
    let v = da.verifier();
    let mut max_retained = 0usize;
    for period in 0..200u64 {
        da.advance_clock(2);
        qs.apply_all(&da.update_record(period % 32, vec![(period % 32) as i64, period as i64]));
        da.advance_clock(8);
        if let Some(period) = da.maybe_publish_summary() {
            qs.ingest(period);
        }
        if period % 8 == 7 {
            if let Some(c) = da.checkpoint_summaries(4) {
                qs.apply_checkpoint(c);
            }
        }
        max_retained = max_retained.max(da.summary_log().len());
        assert_eq!(da.summary_log().len(), qs.summary_count());
    }
    // 200 periods of history; never more than interval + keep summaries
    // resident on either side.
    assert!(
        max_retained <= 12,
        "summary log grew with history: {max_retained} retained"
    );
    let ans = qs.select_range(0, 31).unwrap();
    let rep = v
        .verify_selection(0, 31, &ans, da.now(), true)
        .expect("checkpoint-anchored answer verifies after 200 periods");
    assert_eq!(rep.records, 32);
}

/// Acceptance floor: a fresh client joining at epoch N bootstraps from a
/// constant-size bundle — one map, one transition, one checkpoint —
/// no matter how long the transition chain behind it is.
#[test]
fn bootstrap_cost_is_independent_of_epoch_chain_length() {
    let mut rng = StdRng::seed_from_u64(10);
    let mut sa = ShardedAggregator::new(cfg(), vec![], &mut rng);
    let rows: Vec<Vec<i64>> = (0..32i64).map(|i| vec![i, i]).collect();
    let boots = sa.bootstrap(rows, 2);
    let sqs = sa.replica(&boots, &QsOptions::default());
    let pp = sa.public_params();
    let mut walked = sa.epoch_view();
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
        let ops = decode_ops(&raw_ops);

        let v = pair.sa.verifier();
        let cv = pair.csa.verifier();
        let mut rng = StdRng::seed_from_u64(rng_seed);

        run_workload(&mut pair, &v, &cv, key_span, &ops, &mut rng)?;

        // The compaction must actually have bitten whenever the schedule
        // minted checkpoints: the compacted side retains no more summaries
        // than the full-history side.
        let retained = |sqs: &ShardedQueryServer| -> usize {
            (0..sqs.map().shard_count())
                .map(|s| sqs.with_shard(s, |qs| qs.summary_count()))
                .sum()
        };
        prop_assert!(retained(&pair.csqs) <= retained(&pair.sqs));

        // Final sweep: random ranges plus targeted ones — straddling each
        // live seam, exactly on each split key, the full domain, beyond
        // the data, and inverted.
        let mut ranges: Vec<(i64, i64)> =
            queries.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        for &s in pair.sa.map().splits().to_vec().iter() {
            ranges.push((s - 2, s + 2));
            ranges.push((s, s));
        }
        ranges.push((-2 * key_span - 1, 2 * key_span + 1));
        ranges.push((2 * key_span + 1, 2 * key_span + 10));
        ranges.push((10, -10));
        assert_equivalent(&mut pair, &v, &cv, &ranges, &mut rng, "final")?;
    }
}
