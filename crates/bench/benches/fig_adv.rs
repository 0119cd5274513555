//! fig_adv: adversarial-server conformance & batched client verification.
//!
//! Part 1 replays the full `authdb_core::adversary` tamper catalog against
//! the verifier — first with the fast Mock scheme, then with real BAS
//! crypto — asserting every strategy is rejected with its expected
//! `VerifyError` while the honest answer to the same query verifies.
//!
//! Part 2 measures the batched verification path: one
//! `verify_sharded_batch` over K honest BAS answers versus K independent
//! `verify_sharded_selection` calls. The random-linear-combination multi-pairing
//! must deliver ≥ 2× throughput at K = 16 (the acceptance bar).
//!
//! Part 3 measures the fold *within* one answer: a live BAS answer carrying
//! a checkpoint and four summaries is verified by one pairing check
//! covering `sig_claims` signatures, and must be ≥ 2× faster than checking
//! the same artifacts one by one (what the verifier did before the fold).

use std::time::Instant;

use authdb_bench::{
    banner, chained_cfg, csv_begin, csv_end, env_jobs, fmt_time, print_catalog, replica_opts,
};
use authdb_core::adversary::Tamper;
use authdb_core::shard::ShardedAggregator;
use authdb_crypto::signer::SchemeKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    banner(
        "fig_adv",
        "Adversarial conformance catalog & batched verification",
    );

    // ---- Part 1: the tamper catalog ----
    let mock_ok = print_catalog::<Tamper>("One-shard", SchemeKind::Mock);
    let bas_ok = print_catalog::<Tamper>("One-shard", SchemeKind::Bas);

    // ---- Part 2: batched verification throughput ----
    let k = 16usize;
    let n = 2_048i64;
    let span = 15i64; // ~16 records per answer
    println!(
        "\nBatched verification: {k} answers of ~{} records each, N = {n} (BAS)",
        span + 1
    );
    let cfg = chained_cfg(SchemeKind::Bas);
    let mut rng = StdRng::seed_from_u64(20);
    let mut da = ShardedAggregator::new(cfg.clone(), vec![], &mut rng);
    let t = Instant::now();
    let boots = da.bootstrap((0..n).map(|i| vec![i * 10, i]).collect(), env_jobs());
    println!(
        "  bootstrap ({n} BLS signatures): {}",
        fmt_time(t.elapsed().as_secs_f64())
    );
    let qs = da.replica(&boots, &replica_opts(&cfg));
    let verifier = da.verifier();
    let view = da.epoch_view();

    let queries: Vec<(i64, i64)> = (0..k as i64)
        .map(|i| {
            let lo = i * (n / k as i64) * 10;
            (lo, lo + span * 10)
        })
        .collect();
    let answers: Vec<_> = queries
        .iter()
        .map(|&(lo, hi)| qs.select_range(lo, hi).expect("chained mode"))
        .collect();

    let reps = 5;
    // Sequential: K independent verify_sharded_selection calls.
    let t = Instant::now();
    for _ in 0..reps {
        for (&(lo, hi), ans) in queries.iter().zip(&answers) {
            verifier
                .verify_sharded_selection(lo, hi, ans, &view, 0, true, &mut rng)
                .expect("honest answer verifies");
        }
    }
    let seq = t.elapsed().as_secs_f64() / reps as f64;

    // Batched: one RLC multi-pairing for the whole set.
    let paired: Vec<_> = queries
        .iter()
        .zip(&answers)
        .map(|(&(lo, hi), ans)| (lo, hi, ans))
        .collect();
    let t = Instant::now();
    for _ in 0..reps {
        verifier
            .verify_sharded_batch(&paired, &view, 0, true, &mut rng)
            .expect("honest batch verifies");
    }
    let batch = t.elapsed().as_secs_f64() / reps as f64;

    let speedup = seq / batch;
    println!("  {k} x verify_sharded_selection : {}", fmt_time(seq));
    println!("  1 x verify_sharded_batch({k}): {}", fmt_time(batch));
    println!("  speedup: {speedup:.2}x (acceptance bar: 2.00x)");

    // ---- Part 3: one check per live answer ----
    // Six quiet periods, then the DA compacts all but the last four
    // summaries: every answer now carries a checkpoint (a 101-byte signed
    // commitment to 2 048 rids' exposure, opened for the answer's rids) and
    // four summaries beside its aggregate.
    let rho = da.config().rho;
    for _ in 0..6 {
        da.advance_clock(rho + 2);
        qs.ingest(da.maybe_publish_summaries());
    }
    let ckpt = da.checkpoint_shard_summaries(0, 4).expect("compactable");
    qs.apply_checkpoint(0, ckpt);
    let (lo, hi) = queries[3];
    let live = qs.select_range(lo, hi).expect("chained mode");
    let now = da.now();
    let part = &live.parts[0].answer;
    let ckpt = part.checkpoint.as_ref().expect("checkpoint attached");
    assert!(
        part.summaries.len() >= 4,
        "live answer carries >= 4 summaries"
    );
    let pp = verifier.public_params();
    let reps = 10;
    let t = Instant::now();
    let mut sig_claims = 0;
    for _ in 0..reps {
        sig_claims = verifier
            .verify_sharded_selection(lo, hi, &live, &view, now, true, &mut rng)
            .expect("honest live answer verifies")
            .sig_claims;
    }
    let folded = t.elapsed().as_secs_f64() / reps as f64;
    assert_eq!(sig_claims, part.summaries.len() + 2);
    // The same artifacts, one pairing check each: the checkpoint, every
    // summary, and the aggregate (freshness off: one claim).
    let t = Instant::now();
    for _ in 0..reps {
        assert!(ckpt.verify(pp) && part.summaries.iter().all(|s| s.verify(pp)));
        verifier
            .verify_sharded_selection(lo, hi, &live, &view, now, false, &mut rng)
            .expect("aggregate verifies");
    }
    let one_by_one = t.elapsed().as_secs_f64() / reps as f64;
    let fold_speedup = one_by_one / folded;
    println!(
        "\nOne check per answer: live answer, {} summaries + checkpoint (BAS)",
        part.summaries.len()
    );
    println!(
        "  {sig_claims} individual checks : {}",
        fmt_time(one_by_one)
    );
    println!(
        "  1 x verify_sharded_selection ({sig_claims} claims folded): {}",
        fmt_time(folded)
    );
    println!("  speedup: {fold_speedup:.2}x (acceptance bar: 2.00x)");

    csv_begin("metric,value");
    println!("catalog_mock_ok,{}", mock_ok as u8);
    println!("catalog_bas_ok,{}", bas_ok as u8);
    println!("batch_k,{k}");
    println!("verify_sequential_s,{seq}");
    println!("verify_batch_s,{batch}");
    println!("batch_speedup,{speedup}");
    println!("answer_sig_claims,{sig_claims}");
    println!("answer_one_by_one_s,{one_by_one}");
    println!("answer_folded_s,{folded}");
    println!("answer_fold_speedup,{fold_speedup}");
    csv_end();

    assert!(mock_ok, "tamper catalog must fully reject under Mock");
    assert!(bas_ok, "tamper catalog must fully reject under BAS");
    assert!(
        speedup >= 2.0,
        "batched verification must be >= 2x sequential (got {speedup:.2}x)"
    );
    assert!(
        fold_speedup >= 2.0,
        "one folded check must be >= 2x {sig_claims} individual checks (got {fold_speedup:.2}x)"
    );
    println!(
        "\nAll tamper strategies rejected; batch verification {speedup:.2}x faster; \
         one check per live answer {fold_speedup:.2}x faster."
    );
}
