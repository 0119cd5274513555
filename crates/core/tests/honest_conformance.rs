//! Property test: **honest answers always verify**.
//!
//! The adversarial catalog (`authdb_core::adversary`) proves the verifier
//! rejects what it must; this suite proves it accepts what it must. Random
//! insert/update/delete/clock workloads — including empty bootstraps,
//! duplicate keys, tables that empty out mid-run, and queries straddling
//! the key extremes — are driven through the DA → QS pipeline in both
//! signing modes, and every honest answer (with freshness checking on)
//! must verify.

use proptest::prelude::*;

use authdb_core::da::{DaConfig, DataAggregator, SigningMode};
use authdb_core::qs::QueryServer;
use rand::rngs::StdRng;
use rand::SeedableRng;

const RHO: u64 = 10;

fn cfg(mode: SigningMode) -> DaConfig {
    DaConfig {
        mode,
        rho: RHO,
        ..DaConfig::small()
    }
}

/// One scripted workload operation, decoded from a proptest tuple.
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

/// Build a system, run the workload (publishing summaries on the ρ
/// schedule), and return it ready for querying.
fn run_workload(
    mode: SigningMode,
    n0: usize,
    key_span: i64,
    ops: &[Op],
) -> (DataAggregator, QueryServer) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut da = DataAggregator::new(cfg(mode), &mut rng);
    // Duplicate keys on purpose: i % (key_span/2) collides quickly.
    let modulus = (key_span / 2).max(1);
    let rows: Vec<Vec<i64>> = (0..n0 as i64).map(|i| vec![i % modulus, i]).collect();
    let boot = da.bootstrap(rows, 2);
    let mut qs = da.replica(&boot);
    for &op in ops {
        match op {
            Op::Insert { key, val } => {
                qs.apply_all(&da.insert(vec![key % key_span, val]));
            }
            Op::Update { target, key, val } => {
                let slots = da.record_slots();
                if slots > 0 {
                    // Key changes reposition the record and re-chain both
                    // neighbourhoods.
                    qs.apply_all(&da.update_record(target % slots, vec![key % key_span, val]));
                }
            }
            Op::Delete { target } => {
                let slots = da.record_slots();
                if slots > 0 {
                    qs.apply_all(&da.delete_record(target % slots));
                }
            }
            Op::Advance { dt } => da.advance_clock(dt),
        }
        // Honest DA/QS discipline: summaries go out on the ρ schedule and
        // reach the server promptly.
        if let Some(period) = da.maybe_publish_summary() {
            qs.ingest(period);
        }
    }
    (da, qs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn honest_chained_answers_always_verify(
        n0 in 0usize..30,
        key_span in 4i64..40,
        raw_ops in prop::collection::vec((any::<u8>(), any::<i64>(), any::<i64>()), 0..30),
        queries in prop::collection::vec((-50i64..50, 0i64..30), 1..6),
    ) {
        let ops = decode_ops(&raw_ops);
        let (da, qs) = run_workload(SigningMode::Chained, n0, key_span, &ops);
        let v = da.verifier();
        let now = da.now();
        // Random interior ranges plus the extremes: full table, everything
        // left of the data, everything right of it.
        let mut ranges: Vec<(i64, i64)> = queries.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        ranges.push((i64::MIN + 1, i64::MAX - 1));
        ranges.push((i64::MIN + 1, -key_span - 1));
        ranges.push((key_span + 1, i64::MAX - 1));
        for (lo, hi) in ranges {
            let ans = qs.select_range(lo, hi).unwrap();
            let rep = v.verify_selection(lo, hi, &ans, now, true);
            prop_assert!(
                rep.is_ok(),
                "honest answer rejected for [{lo}, {hi}] at t={now}: {:?} \
                 (records={}, gap={}, vacancy={}, summaries={})",
                rep.err(),
                ans.records.len(),
                ans.gap.is_some(),
                ans.vacancy.is_some(),
                ans.summaries.len(),
            );
        }
    }

    #[test]
    fn honest_batches_always_verify(
        n0 in 1usize..25,
        key_span in 4i64..40,
        raw_ops in prop::collection::vec((any::<u8>(), any::<i64>(), any::<i64>()), 0..20),
        queries in prop::collection::vec((-50i64..50, 0i64..30), 2..8),
        rng_seed in any::<u64>(),
    ) {
        let ops = decode_ops(&raw_ops);
        let (da, qs) = run_workload(SigningMode::Chained, n0, key_span, &ops);
        let v = da.verifier();
        let now = da.now();
        let ranges: Vec<(i64, i64)> = queries.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        let answers: Vec<_> = ranges.iter().map(|&(lo, hi)| qs.select_range(lo, hi).unwrap()).collect();
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let reports = v.verify_selection_batch(&ranges, &answers, now, true, &mut rng);
        prop_assert!(reports.is_ok(), "honest batch rejected: {:?}", reports.err());
        let reports = reports.unwrap();
        for (rep, ans) in reports.iter().zip(&answers) {
            prop_assert_eq!(rep.records, ans.records.len());
        }
    }

    #[test]
    fn honest_projections_always_verify(
        n0 in 0usize..30,
        key_span in 4i64..40,
        raw_ops in prop::collection::vec((any::<u8>(), any::<i64>(), any::<i64>()), 0..25),
        queries in prop::collection::vec((-50i64..50, 0i64..30, 0u8..3), 1..6),
    ) {
        let ops = decode_ops(&raw_ops);
        let (da, qs) = run_workload(SigningMode::PerAttribute, n0, key_span, &ops);
        let v = da.verifier();
        let now = da.now();
        for &(lo, w, attr_sel) in &queries {
            let attrs: &[usize] = match attr_sel % 3 {
                0 => &[0],
                1 => &[1],
                _ => &[0, 1],
            };
            let ans = qs.project(lo, lo + w, attrs).unwrap();
            let rep = v.verify_projection(&ans, now, true);
            prop_assert!(
                rep.is_ok(),
                "honest projection rejected for [{lo}, {}] attrs {attrs:?} at t={now}: {:?}",
                lo + w,
                rep.err(),
            );
        }
    }
}
