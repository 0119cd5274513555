//! Quickstart: outsource a small database, answer an authenticated range
//! query, verify it, and watch tampering get caught.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use authdb::core::da::DaConfig;
use authdb::core::qs::QsOptions;
use authdb::core::record::Schema;
use authdb::core::shard::ShardedAggregator;
use authdb::core::verify::VerifyError;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);

    // 1. The trusted Data Aggregator certifies the initial database with
    //    BLS (BAS) signatures chained over the indexed attribute. A
    //    deployment is minted by its aggregator; with no split keys the
    //    relation lives in one shard.
    let cfg = DaConfig {
        schema: Schema::new(3, 128), // 3 attributes, 128-byte records
        ..DaConfig::paper_defaults()
    };
    let mut da = ShardedAggregator::new(cfg, vec![], &mut rng);
    println!("Certifying 500 records with BAS (BLS over BN254)...");
    let rows: Vec<Vec<i64>> = (0..500).map(|i| vec![i * 10, i % 7, 100 + i]).collect();
    let boots = da.bootstrap(rows, 4);

    // 2. The (untrusted) Query Server receives the replica; a user gets a
    //    verifier holding only the DA's public parameters, and pins the
    //    DA-signed partition it will accept answers under.
    let qs = da.replica(&boots, &QsOptions::default());
    let verifier = da.verifier();
    let view = da.epoch_view();

    // 3. The user runs a range query and verifies the answer.
    let (lo, hi) = (1000, 1200);
    let ans = qs.select_range(lo, hi).unwrap();
    println!(
        "Query {lo}..={hi}: {} records, VO = {} bytes (selectivity-independent)",
        ans.parts[0].answer.records.len(),
        ans.parts[0].answer.vo_size(&da.public_params())
    );
    let mut verify =
        |ans: &_, now| verifier.verify_sharded_selection(lo, hi, ans, &view, now, true, &mut rng);
    let report = verify(&ans, da.now()).expect("honest answer verifies");
    println!(
        "Verified: authenticity + completeness + freshness ({} records, staleness bound {} ticks)",
        report.records, report.max_staleness
    );

    // 4. A compromised server tampers with a value...
    let mut forged = ans.clone();
    forged.parts[0].answer.records[3].attrs[2] += 1;
    match verify(&forged, da.now()) {
        Err(VerifyError::BadAggregate) => println!("Tampered value rejected: BadAggregate"),
        other => panic!("expected rejection, got {other:?}"),
    }

    // 5. ...or silently drops a qualifying record.
    let mut omission = ans.clone();
    omission.parts[0].answer.records.remove(5);
    match verify(&omission, da.now()) {
        Err(e) => println!("Dropped record rejected: {e:?}"),
        Ok(_) => panic!("omission must not verify"),
    }

    // 6. Updates disseminate immediately — no Merkle root to re-certify.
    da.advance_clock(1);
    qs.apply_all(&da.update_record(0, 42, vec![420, 3, 999]).1);
    let fresh = qs.select_range(420, 420).unwrap();
    verifier
        .verify_sharded_selection(420, 420, &fresh, &view, da.now(), true, &mut rng)
        .expect("fresh answer verifies");
    println!(
        "Update visible and verified immediately: record 42 now carries {:?}",
        fresh.parts[0].answer.records[0].attrs
    );
}
