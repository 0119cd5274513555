//! Property test: **a sharded deployment is observably equivalent to a
//! single server**.
//!
//! For random insert/update/delete/clock workloads and random split keys,
//! a [`ShardedQueryServer`] (1–8 shards) and a single [`QueryServer`] fed
//! the same logical operations must produce answers that verify
//! identically: the same record contents for every query and an accepting
//! verdict on both sides — including queries that straddle seams, land
//! entirely inside one shard, hit an empty shard, sit exactly on a split
//! key, or are inverted.
//!
//! Records are compared by content (`attrs`), not by rid or ts: rids are
//! shard-local on the partitioned side, and neighbour re-certification
//! timestamps legitimately differ near seams (a sharded chain has fewer
//! neighbours at its fences).

use proptest::prelude::*;

use authdb_core::da::{DaConfig, DataAggregator};
use authdb_core::qs::{QsOptions, QueryServer};
use authdb_core::shard::{ShardedAggregator, ShardedQueryServer};
use rand::rngs::StdRng;
use rand::SeedableRng;

const RHO: u64 = 10;

fn cfg() -> DaConfig {
    DaConfig {
        rho: RHO,
        ..DaConfig::small()
    }
}

/// One scripted workload operation over *logical* records, so the same
/// script drives both deployments even though their rids diverge.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert { key: i64, val: i64 },
    Update { target: u64, key: i64, val: i64 },
    Delete { target: u64 },
    Advance { dt: u64 },
}

fn decode_ops(raw: &[(u8, i64, i64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(op, a, b)| match op % 4 {
            0 => Op::Insert { key: a, val: b },
            1 => Op::Update {
                target: a.unsigned_abs(),
                key: b,
                val: a,
            },
            2 => Op::Delete {
                target: a.unsigned_abs(),
            },
            _ => Op::Advance {
                dt: (a.unsigned_abs() % 4) + 1,
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
    /// logical id -> live single-server rid.
    single_loc: Vec<Option<u64>>,
    /// logical id -> live (shard, rid) on the partitioned side.
    sharded_loc: Vec<Option<(usize, u64)>>,
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
    // The sharded bootstrap reorders rows by shard; recover each logical
    // row's (shard, rid) address by replaying the routing.
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
    let boots = sa.bootstrap(rows, 2);
    let sqs = sa.replica(&boots, &QsOptions::default());
    Pair {
        da,
        qs,
        sa,
        sqs,
        single_loc,
        sharded_loc,
    }
}

fn run_workload(pair: &mut Pair, key_span: i64, ops: &[Op]) {
    let live: fn(&[Option<u64>]) -> Vec<usize> = |locs| {
        locs.iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|_| i))
            .collect()
    };
    for &op in ops {
        match op {
            Op::Insert { key, val } => {
                let attrs = vec![key % key_span, val];
                let msgs = pair.da.insert(attrs.clone());
                pair.single_loc.push(Some(msgs[0].record.rid));
                pair.qs.apply_all(&msgs);
                let (shard, msgs) = pair.sa.insert(attrs);
                pair.sharded_loc.push(Some((shard, msgs[0].record.rid)));
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
                let (new_addr, msgs) = pair.sa.update_record(shard, rid, attrs);
                pair.sharded_loc[logical] = Some(new_addr);
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
                pair.sqs.apply_all(&pair.sa.delete_record(shard, rid));
            }
            Op::Advance { dt } => {
                pair.da.advance_clock(dt);
                pair.sa.advance_clock(dt);
            }
        }
        if let Some(period) = pair.da.maybe_publish_summary() {
            pair.qs.ingest(period);
        }
        pair.sqs.ingest(pair.sa.maybe_publish_summaries());
    }
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
        let ops = decode_ops(&raw_ops);
        let mut pair = build_pair(n0, key_span, splits.clone());
        prop_assert!(pair.sa.map().shard_count() <= 8);
        run_workload(&mut pair, key_span, &ops);

        let v_single = pair.da.verifier();
        let v_sharded = pair.sa.verifier();
        let now = pair.da.now();
        prop_assert_eq!(now, pair.sa.now());
        let view = pair.sa.epoch_view();
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
            let single = pair.qs.select_range(lo, hi).unwrap();
            let sharded = pair.sqs.select_range(lo, hi).unwrap();

            let rep_single = v_single.verify_selection(lo, hi, &single, now, true);
            prop_assert!(
                rep_single.is_ok(),
                "single rejected [{lo},{hi}]: {:?}", rep_single.err()
            );
            let rep_sharded =
                v_sharded.verify_sharded_selection(lo, hi, &sharded, &view, now, true, &mut rng);
            prop_assert!(
                rep_sharded.is_ok(),
                "sharded rejected [{lo},{hi}] (splits {splits:?}): {:?}",
                rep_sharded.err()
            );
            prop_assert_eq!(rep_single.unwrap().records, rep_sharded.unwrap().records);

            // Same record contents, compared shard-order-concatenated
            // against the single server's key order.
            let mut single_rows: Vec<Vec<i64>> =
                single.records.iter().map(|r| r.attrs.clone()).collect();
            let mut sharded_rows: Vec<Vec<i64>> = sharded
                .parts
                .iter()
                .flat_map(|p| p.answer.records.iter().map(|r| r.attrs.clone()))
                .collect();
            single_rows.sort();
            sharded_rows.sort();
            prop_assert_eq!(single_rows, sharded_rows);
        }
    }
}
