//! Authenticated equi-join with certified Bloom filters (Section 3.5).
//!
//! A brokerage audits its positions: `Security ⋈ Holding` on the security
//! id. The server must prove both the matches *and* that every security
//! without holdings truly has none — the expensive part that the paper's
//! partitioned-Bloom-filter method (BF) makes cheap compared to shipping
//! boundary values (BV).
//!
//! ```sh
//! cargo run --release --example join_audit
//! ```

use authdb::core::da::DaConfig;
use authdb::core::qs::QsOptions;
use authdb::core::record::Schema;
use authdb::core::shard::ShardedAggregator;
use authdb::paper::join::{
    execute_join, partition_certification_message, verify_join, JoinMethod, JoinPublisher,
};
use authdb::paper::workload::tpce;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let schema = Schema::new(2, 32);
    let mut rng = StdRng::seed_from_u64(17);
    let cfg = DaConfig {
        schema,
        ..DaConfig::paper_defaults()
    };

    // R = Security (positions indexed; join attribute = security id).
    // Half the securities have holdings (alpha = 0.5).
    let n_r = 300;
    let i_b = 60;
    println!("Certifying Security (R): {n_r} rows...");
    let mut r_da = ShardedAggregator::new(cfg.clone(), vec![], &mut rng);
    let r_boots = r_da.bootstrap(tpce::r_rows(n_r, i_b, 0.5, &mut rng), 4);
    let r_qs = r_da.replica(&r_boots, &QsOptions::default());
    let r_verifier = r_da.verifier();
    let r_view = r_da.epoch_view();

    // S = Holding: 10 positions per held security id.
    println!(
        "Certifying Holding (S): {} rows over {i_b} securities...",
        i_b * 10
    );
    let mut s_da = ShardedAggregator::new(cfg, vec![], &mut rng);
    let s_boots = s_da.bootstrap(tpce::s_rows(i_b * 10, i_b), 4);
    let s_qs = s_da.replica(&s_boots, &QsOptions::default());
    let s_verifier = s_da.verifier();

    // The DA publishes certified partition filters over S.B
    // (I_B/p = 8 values per partition, m/I_B = 8 bits per value).
    let publisher = JoinPublisher::new(s_da, 8, 8.0);
    println!(
        "Published {} certified filter partitions ({} filter bytes total).",
        publisher.filters().partition_count(),
        publisher.filters().total_filter_bytes()
    );

    // Audit the first third of the securities ledger with both methods.
    let (lo, hi) = (0, (n_r / 3 - 1) as i64);
    for method in [JoinMethod::BoundaryValues, JoinMethod::BloomFilter] {
        let r_ans = r_qs.select_range(lo, hi).unwrap();
        let selected = r_ans.parts[0].answer.records.len();
        // The client names the join attribute (R.A is attribute 1); an
        // answer joined on any other attribute does not verify.
        let ans = execute_join(
            r_ans,
            1,
            &s_qs,
            publisher.filters(),
            publisher.partition_sigs(),
            method,
        )
        .expect("S is one shard");
        verify_join(
            &r_verifier,
            &r_view,
            s_verifier.public_params(),
            &schema,
            partition_certification_message,
            lo,
            hi,
            1,
            &ans,
            r_da.now(),
            &mut rng,
        )
        .expect("join verifies");
        let matches: usize = ans.runs.iter().map(|r| r.records.len()).sum();
        println!(
            "\n{method:?}: {selected} R rows -> {} matched values ({matches} S rows), {} proven absent",
            ans.runs.len(),
            ans.absences.len()
        );
        println!(
            "  VO: {} boundary proofs + {} shipped filters = {} bytes (paper accounting: {} bytes)",
            ans.gap_pool.len(),
            ans.partitions.len(),
            ans.vo_size(s_verifier.public_params()),
            ans.paper_vo_size(&schema, 4),
        );
    }

    println!(
        "\nBoth methods verified end-to-end; BF ships filters instead of per-value boundaries."
    );
}
