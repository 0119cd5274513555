//! fig_adv: adversarial-server conformance & batched client verification.
//!
//! Part 1 replays the full `authdb_core::adversary` tamper catalog against
//! the verifier — first with the fast Mock scheme, then with real BAS
//! crypto — asserting every strategy is rejected with its expected
//! `VerifyError` while the honest answer to the same query verifies.
//!
//! Part 2 measures the batched verification path: one
//! `verify_selection_batch` over K honest BAS answers versus K independent
//! `verify_selection` calls. The random-linear-combination multi-pairing
//! must deliver ≥ 2× throughput at K = 16 (the acceptance bar).

use std::time::Instant;

use authdb_bench::{banner, chained_cfg, csv_begin, csv_end, env_jobs, fmt_time, print_catalog};
use authdb_core::adversary::Tamper;
use authdb_core::da::DataAggregator;
use authdb_crypto::signer::SchemeKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    banner(
        "fig_adv",
        "Adversarial conformance catalog & batched verification",
    );

    // ---- Part 1: the tamper catalog ----
    let mock_ok = print_catalog::<Tamper>("Single-server", SchemeKind::Mock);
    let bas_ok = print_catalog::<Tamper>("Single-server", SchemeKind::Bas);

    // ---- Part 2: batched verification throughput ----
    let k = 16usize;
    let n = 2_048i64;
    let span = 15i64; // ~16 records per answer
    println!(
        "\nBatched verification: {k} answers of ~{} records each, N = {n} (BAS)",
        span + 1
    );
    let cfg = chained_cfg(SchemeKind::Bas);
    let _schema = cfg.schema;
    let mut rng = StdRng::seed_from_u64(20);
    let mut da = DataAggregator::new(cfg, &mut rng);
    let t = Instant::now();
    let boot = da.bootstrap((0..n).map(|i| vec![i * 10, i]).collect(), env_jobs());
    println!(
        "  bootstrap ({n} BLS signatures): {}",
        fmt_time(t.elapsed().as_secs_f64())
    );
    let qs = da.replica(&boot);
    let verifier = da.verifier();

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
    // Sequential: K independent verify_selection calls.
    let t = Instant::now();
    for _ in 0..reps {
        for (&(lo, hi), ans) in queries.iter().zip(&answers) {
            verifier
                .verify_selection(lo, hi, ans, 0, true)
                .expect("honest answer verifies");
        }
    }
    let seq = t.elapsed().as_secs_f64() / reps as f64;

    // Batched: one RLC multi-pairing for the whole set.
    let t = Instant::now();
    for _ in 0..reps {
        verifier
            .verify_selection_batch(&queries, &answers, 0, true, &mut rng)
            .expect("honest batch verifies");
    }
    let batch = t.elapsed().as_secs_f64() / reps as f64;

    let speedup = seq / batch;
    println!("  {k} x verify_selection : {}", fmt_time(seq));
    println!("  1 x verify_selection_batch({k}): {}", fmt_time(batch));
    println!("  speedup: {speedup:.2}x (acceptance bar: 2.00x)");

    csv_begin("metric,value");
    println!("catalog_mock_ok,{}", mock_ok as u8);
    println!("catalog_bas_ok,{}", bas_ok as u8);
    println!("batch_k,{k}");
    println!("verify_sequential_s,{seq}");
    println!("verify_batch_s,{batch}");
    println!("batch_speedup,{speedup}");
    csv_end();

    assert!(mock_ok, "tamper catalog must fully reject under Mock");
    assert!(bas_ok, "tamper catalog must fully reject under BAS");
    assert!(
        speedup >= 2.0,
        "batched verification must be >= 2x sequential (got {speedup:.2}x)"
    );
    println!("\nAll tamper strategies rejected; batch verification {speedup:.2}x faster.");
}
