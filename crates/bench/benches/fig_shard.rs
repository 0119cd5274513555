//! fig_shard: sharded fan-out and stitched verification.
//!
//! Part 1 replays the cross-shard adversary catalog (seam splice, shard
//! withholding, seam widening, stale-shard replay, summary swap) against
//! `Verifier::verify_sharded_selection` — under the fast Mock scheme and
//! under real BAS crypto — asserting every strategy is rejected with its
//! pinned `VerifyError` while the honest fan-out verifies.
//!
//! Part 2 scales the shard count (1 / 2 / 4 / 8) over a fixed BAS relation
//! and measures answer latency (the fan-out) and client verification cost
//! (the stitched random-linear-combination fold). The acceptance bar:
//! stitched verification at 8 shards stays within 2x of single-shard
//! verification — one multi-Miller loop, not one per shard.

use std::time::Instant;

use authdb_bench::{banner, chained_cfg, csv_begin, csv_end, env_jobs, fmt_time, print_catalog};
use authdb_core::adversary::ShardTamper;
use authdb_core::qs::QsOptions;
use authdb_core::shard::{ShardedAggregator, ShardedQueryServer};
use authdb_core::verify::Verifier;
use authdb_crypto::signer::SchemeKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: i64 = 2_048;
const KEY_STRIDE: i64 = 10;

/// Seam-straddling queries (plus one mid-shard), fixed across shard counts.
fn queries() -> Vec<(i64, i64)> {
    let span = N * KEY_STRIDE;
    let mut out: Vec<(i64, i64)> = (1..=7)
        .map(|q| {
            let seam = q * span / 8;
            (seam - 64 * KEY_STRIDE, seam + 64 * KEY_STRIDE - 1)
        })
        .collect();
    out.push((span / 16, span / 16 + 128 * KEY_STRIDE - 1));
    out
}

/// Build a BAS sharded system with `shards` even key-range shards.
fn sharded_system(shards: i64) -> (ShardedAggregator, ShardedQueryServer, Verifier) {
    let span = N * KEY_STRIDE;
    let splits: Vec<i64> = (1..shards).map(|i| i * span / shards).collect();
    let mut rng = StdRng::seed_from_u64(42);
    let mut sa = ShardedAggregator::new(chained_cfg(SchemeKind::Bas), splits, &mut rng);
    let boots = sa.bootstrap(
        (0..N).map(|i| vec![i * KEY_STRIDE, i]).collect(),
        env_jobs(),
    );
    let sqs = sa.replica(&boots, &QsOptions::default());
    let v = sa.verifier();
    (sa, sqs, v)
}

fn main() {
    banner("fig_shard", "Sharded QS: seam-sound stitching and scaling");

    // ---- Part 1: the cross-shard catalog ----
    let mock_ok = print_catalog::<ShardTamper>("Cross-shard", SchemeKind::Mock);
    let bas_ok = print_catalog::<ShardTamper>("Cross-shard", SchemeKind::Bas);

    // ---- Part 2: shard-count scaling ----
    println!("\nShard scaling: N = {N} BAS records, 8 seam-straddling queries");
    println!(
        "{:>6} | {:>14} | {:>14} | {:>12}",
        "shards", "answer (8q)", "verify (8q)", "vs 1 shard"
    );
    println!("{:->6}-+-{:->14}-+-{:->14}-+-{:->12}", "", "", "", "");
    let qs_list = queries();
    let reps = 5;
    let mut verify_by_count = Vec::new();
    let mut answer_by_count = Vec::new();
    for &shards in &[1i64, 2, 4, 8] {
        let (sa, sqs, v) = sharded_system(shards);
        let view = sa.epoch_view();
        let mut rng = StdRng::seed_from_u64(9);

        let t = Instant::now();
        let mut answers = Vec::new();
        for _ in 0..reps {
            answers = qs_list
                .iter()
                .map(|&(lo, hi)| sqs.select_range(lo, hi).expect("chained mode"))
                .collect();
        }
        let answer = t.elapsed().as_secs_f64() / reps as f64;

        let t = Instant::now();
        for _ in 0..reps {
            for (&(lo, hi), ans) in qs_list.iter().zip(&answers) {
                v.verify_sharded_selection(lo, hi, ans, &view, 0, true, &mut rng)
                    .expect("honest fan-out verifies");
            }
        }
        let verify = t.elapsed().as_secs_f64() / reps as f64;
        let ratio = if verify_by_count.is_empty() {
            1.0
        } else {
            verify / verify_by_count[0]
        };
        println!(
            "{:>6} | {:>14} | {:>14} | {:>11.2}x",
            shards,
            fmt_time(answer),
            fmt_time(verify),
            ratio
        );
        answer_by_count.push(answer);
        verify_by_count.push(verify);
    }
    let scaling = verify_by_count[3] / verify_by_count[0];

    csv_begin("metric,value");
    println!("shard_catalog_mock_ok,{}", mock_ok as u8);
    println!("shard_catalog_bas_ok,{}", bas_ok as u8);
    for (i, &shards) in [1i64, 2, 4, 8].iter().enumerate() {
        println!("answer_s_{shards}_shards,{}", answer_by_count[i]);
        println!("verify_s_{shards}_shards,{}", verify_by_count[i]);
    }
    println!("verify_scaling_8_vs_1,{scaling}");
    csv_end();

    assert!(mock_ok, "cross-shard catalog must fully reject under Mock");
    assert!(bas_ok, "cross-shard catalog must fully reject under BAS");
    assert!(
        scaling <= 2.0,
        "stitched verification at 8 shards must stay within 2x of 1 shard \
         (got {scaling:.2}x)"
    );
    println!(
        "\nAll cross-shard strategies rejected; verify scaling 8-vs-1 = \
         {scaling:.2}x."
    );
}
