//! Table 4: Performance of Standalone Queries & Updates — EMB− vs BAS.
//!
//! Runs the **real implementations** (BLS-over-BN254 signatures, SHA-1
//! Merkle digests, the paged trees) one transaction at a time, exactly like
//! the paper's standalone measurement: query construction time at the
//! server, update time (DA certification + server application), VO size,
//! and client verification time, for sf = 10⁻⁶ (point) and sf = 10⁻³.

use std::time::Instant;

use authdb_bench::{
    banner, csv_begin, csv_end, env_jobs, env_n, fmt_bytes, fmt_time, replica_opts,
};
use authdb_core::da::DaConfig;
use authdb_core::embsys::{EmbAggregator, EmbServer, EmbVerifier};
use authdb_core::record::Schema;
use authdb_core::shard::{ShardedAggregator, ShardedQueryServer};
use authdb_crypto::signer::{Keypair, SchemeKind};
use authdb_index::emb::DigestKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Cell {
    query: f64,
    update: f64,
    vo: usize,
    verify: f64,
}

fn main() {
    banner(
        "Table 4",
        "Standalone queries & updates: EMB- vs BAS (real crypto)",
    );
    let n = env_n();
    let jobs = env_jobs();
    let schema = Schema::new(4, 512);
    let reps = 10;
    println!("N = {n} records (AUTHDB_N), RecLen = 512, {jobs} signer threads, {reps} reps/cell");

    // ---------------- BAS system ----------------
    let mut rng = StdRng::seed_from_u64(4);
    let cfg = DaConfig {
        schema,
        scheme: SchemeKind::Bas,
        rho: 1,
        rho_prime: 900,
        buffer_pages: 16384,
        ..DaConfig::small()
    };
    println!("\nBootstrapping BAS system ({n} BLS signatures)...");
    let t = Instant::now();
    let mut da = ShardedAggregator::new(cfg.clone(), vec![], &mut rng);
    let rows: Vec<Vec<i64>> = (0..n)
        .map(|i| vec![i as i64, rng.gen_range(0..1_000_000), 0, 0])
        .collect();
    let boots = da.bootstrap(rows.clone(), jobs);
    println!("  DA certified in {}", fmt_time(t.elapsed().as_secs_f64()));
    let qs = da.replica(&boots, &replica_opts(&cfg));
    let verifier = da.verifier();
    let view = da.epoch_view();
    let pp = da.public_params();

    let bas_cell =
        |qs: &ShardedQueryServer, da: &mut ShardedAggregator, span: usize, rng: &mut StdRng| {
            let mut query = 0.0;
            let mut verify = 0.0;
            let mut update = 0.0;
            let mut vo = 0;
            for _ in 0..reps {
                let lo = rng.gen_range(0..(n - span)) as i64;
                let hi = lo + span as i64 - 1;
                let t = Instant::now();
                let ans = qs.select_range(lo, hi).expect("chained mode");
                query += t.elapsed().as_secs_f64();
                vo = ans.parts[0].answer.vo_size(&pp);
                let t = Instant::now();
                verifier
                    .verify_sharded_selection(lo, hi, &ans, &view, da.now(), true, rng)
                    .expect("honest answer verifies");
                verify += t.elapsed().as_secs_f64();

                let rid = rng.gen_range(0..n as u64);
                let new_val = rng.gen_range(0..1_000_000);
                let t = Instant::now();
                qs.apply_all(&da.update_record(0, rid, vec![rid as i64, new_val, 0, 0]).1);
                update += t.elapsed().as_secs_f64();
            }
            Cell {
                query: query / reps as f64,
                update: update / reps as f64,
                vo,
                verify: verify / reps as f64,
            }
        };
    let span_point = 1usize;
    let span_range = (n / 1000).max(2);
    let bas_point = bas_cell(&qs, &mut da, span_point, &mut rng);
    let bas_range = bas_cell(&qs, &mut da, span_range, &mut rng);

    // ---------------- EMB- system ----------------
    println!("Bootstrapping EMB- system (SHA-1 digests, BLS-signed root)...");
    let mut rng2 = StdRng::seed_from_u64(4);
    let kp = Keypair::generate(SchemeKind::Bas, &mut rng2);
    let epp = kp.public_params();
    let mut eda = EmbAggregator::new(schema, DigestKind::Sha1, kp, 16384, 2.0 / 3.0);
    let (records, root) = eda.bootstrap(rows);
    let mut eserver =
        EmbServer::from_bootstrap(schema, DigestKind::Sha1, &records, root, 16384, 2.0 / 3.0);
    let everifier = EmbVerifier::new(epp.clone(), schema, DigestKind::Sha1);

    let emb_cell =
        |server: &mut EmbServer, da: &mut EmbAggregator, span: usize, rng: &mut StdRng| {
            let mut query = 0.0;
            let mut verify = 0.0;
            let mut update = 0.0;
            let mut vo = 0;
            for _ in 0..reps {
                let lo = rng.gen_range(0..(n - span)) as i64;
                let hi = lo + span as i64 - 1;
                let t = Instant::now();
                let ans = server.range_query(lo, hi);
                query += t.elapsed().as_secs_f64();
                vo = ans.vo_size(&epp);
                let t = Instant::now();
                everifier
                    .verify(lo, hi, &ans)
                    .expect("honest answer verifies");
                verify += t.elapsed().as_secs_f64();

                let rid = rng.gen_range(0..n as u64);
                let new_val = rng.gen_range(0..1_000_000);
                let t = Instant::now();
                let up = da
                    .update_record(rid, vec![rid as i64, new_val, 0, 0])
                    .unwrap();
                server.apply(&up);
                update += t.elapsed().as_secs_f64();
            }
            Cell {
                query: query / reps as f64,
                update: update / reps as f64,
                vo,
                verify: verify / reps as f64,
            }
        };
    let emb_point = emb_cell(&mut eserver, &mut eda, span_point, &mut rng);
    let emb_range = emb_cell(&mut eserver, &mut eda, span_range, &mut rng);

    // ---------------- report ----------------
    let print_block = |label: &str, emb: &Cell, bas: &Cell| {
        println!("\n{label}");
        println!("{:<22} | {:>12} | {:>12}", "operation", "EMB-", "BAS");
        println!("{:-<22}-+-{:->12}-+-{:->12}", "", "", "");
        println!(
            "{:<22} | {:>12} | {:>12}",
            "Query",
            fmt_time(emb.query),
            fmt_time(bas.query)
        );
        println!(
            "{:<22} | {:>12} | {:>12}",
            "Update",
            fmt_time(emb.update),
            fmt_time(bas.update)
        );
        println!(
            "{:<22} | {:>12} | {:>12}",
            "VO size",
            fmt_bytes(emb.vo),
            fmt_bytes(bas.vo)
        );
        println!(
            "{:<22} | {:>12} | {:>12}",
            "Verification",
            fmt_time(emb.verify),
            fmt_time(bas.verify)
        );
    };
    print_block(
        &format!("sf = 1e-6 ({span_point} record)  [paper: EMB- VO 440 B, BAS VO 20 B]"),
        &emb_point,
        &bas_point,
    );
    print_block(
        &format!("sf = 1e-3 ({span_range} records) [paper: EMB- VO 720 B, BAS VO 20 B]"),
        &emb_range,
        &bas_range,
    );

    csv_begin("selectivity,system,query_s,update_s,vo_bytes,verify_s");
    for (sel, sysname, c) in [
        ("1e-6", "emb", &emb_point),
        ("1e-6", "bas", &bas_point),
        ("1e-3", "emb", &emb_range),
        ("1e-3", "bas", &bas_range),
    ] {
        println!(
            "{sel},{sysname},{},{},{},{}",
            c.query, c.update, c.vo, c.verify
        );
    }
    csv_end();

    // Shape assertions mirroring the paper's Table 4.
    assert!(
        bas_point.vo < emb_point.vo,
        "BAS VO must be smaller than EMB- VO (point)"
    );
    assert!(
        bas_range.vo < emb_range.vo,
        "BAS VO must be smaller than EMB- VO (range)"
    );
    assert!(
        (bas_range.vo as f64 - bas_point.vo as f64).abs() < 64.0,
        "BAS VO must be selectivity-independent"
    );
    assert!(
        emb_range.verify < bas_range.verify,
        "EMB- verification (hashing) must beat BAS (pairings) at sf=1e-3"
    );
    println!("\nShape checks passed: BAS VO constant & smallest; EMB- verify cheaper at high selectivity.");
}
