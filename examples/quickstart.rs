//! Quickstart: outsource a small database, answer an authenticated range
//! query, verify it, and watch tampering get caught.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use authdb::core::da::{DaConfig, DataAggregator};
use authdb::core::record::Schema;
use authdb::core::verify::VerifyError;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);

    // 1. The trusted Data Aggregator certifies the initial database with
    //    BLS (BAS) signatures chained over the indexed attribute.
    let cfg = DaConfig {
        schema: Schema::new(3, 128), // 3 attributes, 128-byte records
        ..DaConfig::paper_defaults()
    };
    let mut da = DataAggregator::new(cfg, &mut rng);
    println!("Certifying 500 records with BAS (BLS over BN254)...");
    let rows: Vec<Vec<i64>> = (0..500).map(|i| vec![i * 10, i % 7, 100 + i]).collect();
    let boot = da.bootstrap(rows, 4);

    // 2. The (untrusted) Query Server receives the replica; a user gets a
    //    verifier holding only the DA's public parameters.
    let mut qs = da.replica(&boot);
    let verifier = da.verifier();

    // 3. The user runs a range query and verifies the answer.
    let (lo, hi) = (1000, 1200);
    let ans = qs.select_range(lo, hi).unwrap();
    println!(
        "Query {lo}..={hi}: {} records, VO = {} bytes (selectivity-independent)",
        ans.records.len(),
        ans.vo_size(&da.public_params())
    );
    let report = verifier
        .verify_selection(lo, hi, &ans, da.now(), true)
        .expect("honest answer verifies");
    println!(
        "Verified: authenticity + completeness + freshness ({} records, staleness bound {} ticks)",
        report.records, report.max_staleness
    );

    // 4. A compromised server tampers with a value...
    let mut forged = ans.clone();
    forged.records[3].attrs[2] += 1;
    match verifier.verify_selection(lo, hi, &forged, da.now(), true) {
        Err(VerifyError::BadAggregate) => println!("Tampered value rejected: BadAggregate"),
        other => panic!("expected rejection, got {other:?}"),
    }

    // 5. ...or silently drops a qualifying record.
    let mut omission = ans.clone();
    omission.records.remove(5);
    match verifier.verify_selection(lo, hi, &omission, da.now(), true) {
        Err(e) => println!("Dropped record rejected: {e:?}"),
        Ok(_) => panic!("omission must not verify"),
    }

    // 6. Updates disseminate immediately — no Merkle root to re-certify.
    da.advance_clock(1);
    qs.apply_all(&da.update_record(42, vec![420, 3, 999]));
    let fresh = qs.select_range(420, 420).unwrap();
    verifier
        .verify_selection(420, 420, &fresh, da.now(), true)
        .expect("fresh answer verifies");
    println!(
        "Update visible and verified immediately: record 42 now carries {:?}",
        fresh.records[0].attrs
    );
}
