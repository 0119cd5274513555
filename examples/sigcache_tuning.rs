//! SigCache tuning walkthrough (Section 4): analyze a workload's query
//! cardinality distribution, run Algorithm 1, and watch the runtime cache
//! cut proof-construction work — including the eager/lazy refresh
//! trade-off under updates.
//!
//! ```sh
//! cargo run --release --example sigcache_tuning
//! ```

use authdb::crypto::signer::{Keypair, SchemeKind, Signature};
use authdb::paper::sigcache::{
    distributions, select_cache, RefreshStrategy, SigCache, SigTreeAnalysis,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n = 1 << 14; // 16,384 records
    let mut rng = StdRng::seed_from_u64(23);

    // 1. Offline analysis: probabilities that each conceptual tree node
    //    serves a query, for a short-query-skewed workload.
    let analysis = SigTreeAnalysis::new(&distributions::harmonic(n));
    println!(
        "N = {n}: expected uncached cost = {:.1} aggregation ops/query",
        analysis.total_cost()
    );

    // 2. Algorithm 1 picks the aggregate signatures worth materializing.
    let selection = select_cache(&analysis, 32);
    println!("\nAlgorithm 1 chose {} nodes:", selection.chosen.len());
    for (i, node) in selection.chosen.iter().take(8).enumerate() {
        println!(
            "  #{:<2} T{},{}  (covers {} records) -> expected cost {:.1}",
            i + 1,
            node.level,
            node.j,
            1usize << node.level,
            selection.cost_curve[i]
        );
    }
    let final_cost = selection.cost_curve.last().copied().unwrap_or(0.0);
    println!(
        "Expected cost with cache: {:.1} ops/query ({:.0}% saved)",
        final_cost,
        (1.0 - final_cost / selection.base_cost) * 100.0
    );

    // 3. Runtime: real signatures, real aggregation counts.
    let kp = Keypair::generate(SchemeKind::Mock, &mut rng);
    let mut leaves: Vec<Signature> = (0..n)
        .map(|i| kp.sign(format!("record {i}").as_bytes()))
        .collect();
    let mut cold = SigCache::build(kp.public_params(), &leaves, &[], RefreshStrategy::Eager);
    let mut warm = SigCache::build(
        kp.public_params(),
        &leaves,
        &selection.chosen,
        RefreshStrategy::Eager,
    );
    warm.reset_stats();
    let mut cold_ops = 0;
    let mut warm_ops = 0;
    let queries = 200;
    for _ in 0..queries {
        let q = rng.gen_range(1..=n / 4);
        let lo = rng.gen_range(0..=(n - q));
        let (sig_a, ops_a) = cold.aggregate_range(&leaves, lo, lo + q - 1);
        let (sig_b, ops_b) = warm.aggregate_range(&leaves, lo, lo + q - 1);
        assert_eq!(sig_a, sig_b, "cache must not change the aggregate");
        cold_ops += ops_a;
        warm_ops += ops_b;
    }
    println!(
        "\nMeasured over {queries} random queries: {:.0} ops/query cold vs {:.0} warm ({:.0}% saved)",
        cold_ops as f64 / queries as f64,
        warm_ops as f64 / queries as f64,
        (1.0 - warm_ops as f64 / cold_ops as f64) * 100.0
    );

    // 4. Updates: eager refreshes cached ancestors inside the update;
    //    lazy defers — and wins when a node is invalidated repeatedly.
    let mut eager = SigCache::build(
        kp.public_params(),
        &leaves,
        &selection.chosen,
        RefreshStrategy::Eager,
    );
    let mut lazy = SigCache::build(
        kp.public_params(),
        &leaves,
        &selection.chosen,
        RefreshStrategy::Lazy,
    );
    eager.reset_stats();
    lazy.reset_stats();
    // Hammer one hot record with 50 updates, then one query.
    let pos = n / 2;
    for v in 0..50 {
        let old = leaves[pos].clone();
        let new = kp.sign(format!("record {pos} v{v}").as_bytes());
        eager.on_update(pos, &old, &new);
        lazy.on_update(pos, &old, &new);
        leaves[pos] = new;
    }
    let (_, _) = eager.aggregate_range(&leaves, pos - 10, pos + 10);
    let (_, _) = lazy.aggregate_range(&leaves, pos - 10, pos + 10);
    let e = eager.stats();
    let l = lazy.stats();
    println!("\n50 updates to one hot record, then one query:");
    println!(
        "  eager: {} update-time ops + {} query-time ops",
        e.update_ops, e.query_ops
    );
    println!(
        "  lazy:  {} update-time ops + {} query-time ops",
        l.update_ops, l.query_ops
    );
    println!(
        "  (lazy total {} vs eager total {} — deferral skips refreshes that no query ever reads)",
        l.update_ops + l.query_ops,
        e.update_ops + e.query_ops
    );
}
