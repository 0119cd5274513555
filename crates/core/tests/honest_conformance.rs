//! Property test: **honest answers always verify**.
//!
//! The adversarial catalog (`authdb_core::adversary`) proves the verifier
//! rejects what it must; this suite proves it accepts what it must. Random
//! insert/update/delete/clock workloads — including empty bootstraps,
//! duplicate keys, tables that empty out mid-run, and queries straddling
//! the key extremes — are driven through the DA → QS pipeline in both
//! signing modes, and every honest answer (with freshness checking on)
//! must verify.

mod common;

use proptest::prelude::*;

use authdb_core::da::SigningMode;
use common::{apply_op, decode_ops, initial_rows, Deployment, Model, Op};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Build a one-shard deployment, run the workload (publishing summaries on
/// the ρ schedule), and return it ready for querying.
fn run_workload(mode: SigningMode, n0: usize, key_span: i64, ops: &[Op]) -> Deployment {
    let rows = initial_rows(n0, key_span);
    let mut d = Deployment::build(mode, &rows, vec![], 7);
    let mut model = Model::new(&rows);
    for &op in ops {
        apply_op(op, key_span, &mut model, &mut [&mut d]);
        // Honest DA/QS discipline: summaries go out on the ρ schedule and
        // reach the server promptly.
        d.publish();
    }
    d
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
        let ops = decode_ops(&raw_ops, 4);
        let d = run_workload(SigningMode::Chained, n0, key_span, &ops);
        let now = d.sa.now();
        let mut rng = StdRng::seed_from_u64(7);
        // Random interior ranges plus the extremes: full table, everything
        // left of the data, everything right of it.
        let mut ranges: Vec<(i64, i64)> = queries.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        ranges.push((i64::MIN + 1, i64::MAX - 1));
        ranges.push((i64::MIN + 1, -key_span - 1));
        ranges.push((key_span + 1, i64::MAX - 1));
        for (lo, hi) in ranges {
            let (rep, rows) = d.query(lo, hi, &mut rng);
            prop_assert!(
                rep.is_ok(),
                "honest answer rejected for [{lo}, {hi}] at t={now}: {:?} (records={})",
                rep.err(),
                rows.len(),
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
        let ops = decode_ops(&raw_ops, 4);
        let d = run_workload(SigningMode::Chained, n0, key_span, &ops);
        let ranges: Vec<(i64, i64)> = queries.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        let answers: Vec<_> = ranges.iter().map(|&(lo, hi)| d.sqs.select_range(lo, hi).unwrap()).collect();
        let batch: Vec<_> = ranges.iter().zip(&answers).map(|(&(lo, hi), ans)| (lo, hi, ans)).collect();
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let reports = d.v.verify_sharded_batch(&batch, &d.view, d.sa.now(), true, &mut rng);
        prop_assert!(reports.is_ok(), "honest batch rejected: {:?}", reports.err());
        let reports = reports.unwrap();
        for (rep, ans) in reports.iter().zip(&answers) {
            prop_assert_eq!(rep.records, ans.parts[0].answer.records.len());
        }
    }

    #[test]
    fn honest_projections_always_verify(
        n0 in 0usize..30,
        key_span in 4i64..40,
        raw_ops in prop::collection::vec((any::<u8>(), any::<i64>(), any::<i64>()), 0..25),
        queries in prop::collection::vec((-50i64..50, 0i64..30, 0u8..3), 1..6),
    ) {
        let ops = decode_ops(&raw_ops, 4);
        let d = run_workload(SigningMode::PerAttribute, n0, key_span, &ops);
        let now = d.sa.now();
        for &(lo, w, attr_sel) in &queries {
            let attrs: &[usize] = match attr_sel % 3 {
                0 => &[0],
                1 => &[1],
                _ => &[0, 1],
            };
            let ans = d.sqs.project(lo, lo + w, attrs).unwrap();
            let rep = d.v.verify_projection(&ans, &d.view, now, true);
            prop_assert!(
                rep.is_ok(),
                "honest projection rejected for [{lo}, {}] attrs {attrs:?} at t={now}: {:?}",
                lo + w,
                rep.err(),
            );
        }
    }
}
