//! Property test: **a rebalancing sharded deployment is observably
//! equivalent to a single server, across every epoch**.
//!
//! This is `shard_equivalence` with the partition no longer frozen: random
//! insert/update/delete/clock workloads are interleaved with a random
//! split/merge schedule. After every rebalance (and at the end), the
//! epoch-N+1 sharded server and the never-rebalanced single server must
//! produce record-identical answers and identical (accepting) verdicts for
//! seam-straddling, in-shard, empty, split-key, and inverted queries — the
//! sharded side verified through the epoch-gated
//! `verify_sharded_selection` with an `EpochView` advanced along the
//! DA-signed transition chain.
//!
//! Records are compared by content (`attrs`): rids are shard-local (and
//! reassigned by handoffs), and certification timestamps legitimately
//! differ (handoffs re-sign the moved records at the transition tick).

use proptest::prelude::*;

use authdb_core::da::{DaConfig, DataAggregator};
use authdb_core::qs::{QsOptions, QueryServer};
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
/// drives both deployments even though their rids diverge (and the
/// sharded side's addresses are reshuffled by every handoff).
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
    /// Rebalance the sharded side: split (sel even) or merge (sel odd),
    /// with the concrete plan derived from the live map at execution time.
    Rebalance {
        sel: u64,
        at_raw: i64,
    },
}

fn decode_ops(raw: &[(u8, i64, i64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(op, a, b)| match op % 5 {
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
            _ => Op::Rebalance {
                sel: a.unsigned_abs(),
                at_raw: b,
            },
        })
        .collect()
}

/// Both deployments plus the logical-record address books.
struct Pair {
    da: DataAggregator,
    qs: QueryServer,
    sa: ShardedAggregator,
    sqs: ShardedQueryServer,
    view: EpochView,
    /// logical id -> live single-server rid.
    single_loc: Vec<Option<u64>>,
    /// logical id -> live (shard, rid) on the partitioned side.
    sharded_loc: Vec<Option<(usize, u64)>>,
    /// logical id -> current indexed key (needed to replay handoff
    /// routing when a rebalance reassigns shard-local rids).
    keys: Vec<Option<i64>>,
}

fn build_pair(n0: usize, key_span: i64, splits: Vec<i64>) -> Pair {
    let modulus = (key_span / 2).max(1);
    let rows: Vec<Vec<i64>> = (0..n0 as i64).map(|i| vec![i % modulus, i]).collect();

    let mut rng = StdRng::seed_from_u64(7);
    let mut da = DataAggregator::new(cfg(), &mut rng);
    let boot = da.bootstrap(rows.clone(), 2);
    let qs = da.replica(&boot);
    let single_loc: Vec<Option<u64>> = (0..n0 as u64).map(Some).collect();

    let mut rng = StdRng::seed_from_u64(8);
    let mut sa = ShardedAggregator::new(cfg(), splits, &mut rng);
    let mut next_rid = vec![0u64; sa.map().shard_count()];
    let sharded_loc: Vec<Option<(usize, u64)>> = rows
        .iter()
        .map(|row| {
            let shard = sa.map().shard_of(row[0]);
            let rid = next_rid[shard];
            next_rid[shard] += 1;
            Some((shard, rid))
        })
        .collect();
    let keys: Vec<Option<i64>> = rows.iter().map(|row| Some(row[0])).collect();
    let boots = sa.bootstrap(rows, 2);
    let sqs = sa.replica(&boots, &QsOptions::default());
    let view = sa.epoch_view();
    Pair {
        da,
        qs,
        sa,
        sqs,
        view,
        single_loc,
        sharded_loc,
        keys,
    }
}

/// Derive a concrete valid plan from the op's raw material and the live
/// map, or `None` when no valid plan exists (e.g. a merge on one shard,
/// or a split window with no room). Split keys are confined to
/// `[-2*key_span, 2*key_span]` so the partition stays meaningful for the
/// workload's key domain.
fn derive_plan(sel: u64, at_raw: i64, splits: &[i64], key_span: i64) -> Option<RebalancePlan> {
    let shard_count = splits.len() + 1;
    let window = 2 * key_span;
    if sel % 2 == 1 && shard_count >= 2 {
        return Some(RebalancePlan::Merge {
            left: (sel as usize / 2) % (shard_count - 1),
        });
    }
    if shard_count >= 8 {
        // Keep the fan-out bounded like shard_equivalence does.
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

/// Recompute the sharded address book after a rebalance by replaying the
/// handoff routing: donors' live records travel in `(key, rid)` order and
/// the successor bootstrap assigns fresh rids by input position.
fn remap_addresses(pair: &mut Pair, plan: RebalancePlan) {
    let mover_ids = |pair: &Pair, shard: usize| -> Vec<usize> {
        let mut ids: Vec<usize> = pair
            .sharded_loc
            .iter()
            .enumerate()
            .filter_map(|(lg, loc)| loc.filter(|l| l.0 == shard).map(|_| lg))
            .collect();
        ids.sort_by_key(|&lg| {
            (
                pair.keys[lg].expect("live"),
                pair.sharded_loc[lg].unwrap().1,
            )
        });
        ids
    };
    match plan {
        RebalancePlan::Split { shard, at } => {
            let movers = mover_ids(pair, shard);
            for loc in pair.sharded_loc.iter_mut().flatten() {
                if loc.0 > shard {
                    loc.0 += 1;
                }
            }
            let (mut left_next, mut right_next) = (0u64, 0u64);
            for lg in movers {
                let key = pair.keys[lg].expect("live");
                pair.sharded_loc[lg] = Some(if key < at {
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
            for loc in pair.sharded_loc.iter_mut().flatten() {
                if loc.0 > left + 1 {
                    loc.0 -= 1;
                }
            }
            for (next, lg) in movers.into_iter().enumerate() {
                pair.sharded_loc[lg] = Some((left, next as u64));
            }
        }
    }
}

/// Answers for a set of ranges must be record-identical and both verify.
fn assert_equivalent(
    pair: &mut Pair,
    v_single: &Verifier,
    v_sharded: &Verifier,
    ranges: &[(i64, i64)],
    rng: &mut StdRng,
    label: &str,
) -> Result<(), TestCaseError> {
    let now = pair.da.now();
    prop_assert_eq!(now, pair.sa.now());
    for &(lo, hi) in ranges {
        let single = pair.qs.select_range(lo, hi).unwrap();
        let sharded = pair.sqs.select_range(lo, hi).unwrap();
        let rep_single = v_single.verify_selection(lo, hi, &single, now, true);
        prop_assert!(
            rep_single.is_ok(),
            "{label}: single rejected [{lo},{hi}]: {:?}",
            rep_single.err()
        );
        let rep_sharded =
            v_sharded.verify_sharded_selection(lo, hi, &sharded, &pair.view, now, true, rng);
        prop_assert!(
            rep_sharded.is_ok(),
            "{label}: sharded (epoch {}) rejected [{lo},{hi}]: {:?}",
            pair.view.epoch(),
            rep_sharded.err()
        );
        prop_assert_eq!(rep_single.unwrap().records, rep_sharded.unwrap().records);

        let mut single_rows: Vec<Vec<i64>> =
            single.records.iter().map(|r| r.attrs.clone()).collect();
        let mut sharded_rows: Vec<Vec<i64>> = sharded
            .parts
            .iter()
            .flat_map(|p| p.answer.records.iter().map(|r| r.attrs.clone()))
            .collect();
        single_rows.sort();
        sharded_rows.sort();
        prop_assert!(
            single_rows == sharded_rows,
            "{label} [{lo},{hi}]: contents diverge: {single_rows:?} vs {sharded_rows:?}"
        );
    }
    Ok(())
}

fn run_workload(
    pair: &mut Pair,
    v_single: &Verifier,
    v_sharded: &Verifier,
    key_span: i64,
    ops: &[Op],
    rng: &mut StdRng,
) -> Result<usize, TestCaseError> {
    let live: fn(&[Option<u64>]) -> Vec<usize> = |locs| {
        locs.iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|_| i))
            .collect()
    };
    let mut rebalances = 0usize;
    for &op in ops {
        match op {
            Op::Insert { key, val } => {
                let attrs = vec![key % key_span, val];
                let msgs = pair.da.insert(attrs.clone());
                pair.single_loc.push(Some(msgs[0].record.rid));
                pair.qs.apply_all(&msgs);
                let (shard, msgs) = pair.sa.insert(attrs.clone());
                pair.sharded_loc.push(Some((shard, msgs[0].record.rid)));
                pair.keys.push(Some(attrs[0]));
                for m in msgs {
                    pair.sqs.apply(shard, &m);
                }
            }
            Op::Update { target, key, val } => {
                let candidates = live(&pair.single_loc);
                if candidates.is_empty() {
                    continue;
                }
                let logical = candidates[target as usize % candidates.len()];
                let attrs = vec![key % key_span, val];
                let rid = pair.single_loc[logical].expect("live");
                pair.qs
                    .apply_all(&pair.da.update_record(rid, attrs.clone()));
                let (shard, rid) = pair.sharded_loc[logical].expect("live");
                let (new_addr, msgs) = pair.sa.update_record(shard, rid, attrs.clone());
                pair.sharded_loc[logical] = Some(new_addr);
                pair.keys[logical] = Some(attrs[0]);
                pair.sqs.apply_all(&msgs);
            }
            Op::Delete { target } => {
                let candidates = live(&pair.single_loc);
                if candidates.is_empty() {
                    continue;
                }
                let logical = candidates[target as usize % candidates.len()];
                let rid = pair.single_loc[logical].take().expect("live");
                pair.qs.apply_all(&pair.da.delete_record(rid));
                let (shard, rid) = pair.sharded_loc[logical].take().expect("live");
                pair.keys[logical] = None;
                pair.sqs.apply_all(&pair.sa.delete_record(shard, rid));
            }
            Op::Advance { dt } => {
                pair.da.advance_clock(dt);
                pair.sa.advance_clock(dt);
            }
            Op::Rebalance { sel, at_raw } => {
                let Some(plan) = derive_plan(sel, at_raw, pair.sa.map().splits(), key_span) else {
                    continue;
                };
                let rb = pair.sa.rebalance(plan, 2);
                // The transition occupies one tick on the sharded side;
                // keep the single server's clock in lockstep.
                pair.da.advance_clock(1);
                pair.sqs
                    .apply_rebalance(&rb)
                    .expect("honest rebalance applies");
                pair.view
                    .advance(&rb.transition, &pair.sa.public_params())
                    .expect("honest transition advances the view");
                remap_addresses(pair, plan);
                rebalances += 1;
                // The issue's core property: immediately after every
                // rebalance the two deployments are indistinguishable.
                let mut probe = vec![(-2 * key_span, 2 * key_span), (1, key_span / 2)];
                if let Some(&s) = pair.sa.map().splits().first() {
                    probe.push((s - 2, s + 2));
                    probe.push((s, s));
                }
                assert_equivalent(pair, v_single, v_sharded, &probe, rng, "post-rebalance")?;
            }
        }
        if let Some(period) = pair.da.maybe_publish_summary() {
            pair.qs.ingest(period);
        }
        pair.sqs.ingest(pair.sa.maybe_publish_summaries());
    }
    Ok(rebalances)
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

/// Satellite regression: the decoded-node cache must survive a rebalance
/// handoff. Successor shards used to rebuild with an empty LRU, so the
/// first post-rebalance queries re-decoded every page from scratch; the
/// handoff now warms the successor's cache from the rebuilt tree, and one
/// query sweep is enough to see hits again.
#[test]
fn node_cache_recovers_within_one_query_sweep_after_rebalance() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut sa = ShardedAggregator::new(cfg(), vec![0], &mut rng);
    let rows: Vec<Vec<i64>> = (0..256i64).map(|i| vec![i - 128, i]).collect();
    let boots = sa.bootstrap(rows, 2);
    let sqs = sa.replica(&boots, &QsOptions::default());
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
        let ops = decode_ops(&raw_ops);

        let v_single = pair.da.verifier();
        let v_sharded = pair.sa.verifier();
        let mut rng = StdRng::seed_from_u64(rng_seed);

        run_workload(&mut pair, &v_single, &v_sharded, key_span, &ops, &mut rng)?;

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
        assert_equivalent(&mut pair, &v_single, &v_sharded, &ranges, &mut rng, "final")?;
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
        let v_single = pair.da.verifier();
        let v_sharded = pair.sa.verifier();
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let ops: Vec<Op> = schedule
            .iter()
            .map(|&(sel, at_raw)| Op::Rebalance { sel, at_raw })
            .collect();
        let done = run_workload(&mut pair, &v_single, &v_sharded, key_span, &ops, &mut rng)?;
        prop_assert_eq!(pair.view.epoch(), 1 + done as u64);
    }
}
