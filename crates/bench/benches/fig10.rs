//! Figure 10: SigCache effectiveness — response time vs cache size,
//! Eager vs Lazy refresh, Upd% ∈ {10, 40}.
//!
//! The runtime [`SigCache`] processes a real transaction trace over the
//! record positions (range queries around sf = 10⁻³ and single-record
//! updates); every aggregation op is counted and converted to CPU service
//! time with the paper's ECC-addition cost, then the trace is replayed
//! through the discrete-event server (4 cores, 50 jobs/s Poisson arrivals)
//! to obtain contended response times.

use authdb_bench::{banner, csv_begin, csv_end, env_n};
use authdb_core::sigcache::{select_cache, NodeId, RefreshStrategy, SigCache, SigTreeAnalysis};
use authdb_crypto::signer::{Keypair, SchemeKind, Signature};
use authdb_sim::{des, CostModel, SimConfig, Step, TxnKind, TxnSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One point: mean query/update response at a cache size.
struct Point {
    cache_kb: f64,
    query_ms: f64,
    update_ms: f64,
}

/// Query-cardinality distribution: truncated harmonic over `1..=8·(N/1000)`
/// (the paper's "skewed" mix around its default selectivity — its Figure 6
/// reports ~1,100 expected aggregation ops per query for this shape, and
/// short-window uniform workloads leave dyadic-edge work that no cache can
/// remove; see EXPERIMENTS.md).
fn cardinality_probs(n: usize) -> Vec<f64> {
    // Cap chosen so the 50 jobs/s default load runs near saturation,
    // the regime the paper describes ("heavily loaded for BAS"): queueing
    // then amplifies the cache's service-time savings into the reported
    // response-time drops.
    let cap = (24 * (n / 1000)).clamp(1, n);
    let mut probs = authdb_workload::cardinality::harmonic(cap);
    probs.resize(n, 0.0);
    probs
}

#[allow(clippy::too_many_arguments)]
fn run_point(
    n: usize,
    leaves: &mut [Signature],
    kp: &Keypair,
    selection: &[NodeId],
    strategy: RefreshStrategy,
    upd_pct: f64,
    rate: f64,
    duration: f64,
    cost: &CostModel,
) -> Point {
    let pp = kp.public_params();
    let mut cache = SigCache::build(pp.clone(), leaves, selection, strategy);
    let cache_kb = selection.len() as f64 * 20.0 / 1024.0; // paper's 20-B sigs

    // Identical arrival/query trace across every point: the comparison
    // isolates the cache effect, not Poisson noise.
    let mut rng = StdRng::seed_from_u64(1000);
    let sampler = authdb_workload::cardinality::CardinalitySampler::new(&cardinality_probs(n));

    // Build the trace: per-transaction service times from real op counts.
    let mut specs = Vec::new();
    let mut t = 0.0;
    let mut version = 0u64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= duration {
            break;
        }
        let is_update = rng.gen_bool(upd_pct / 100.0);
        // Server service = Table 4's calibrated BAS cost with its modelled
        // aggregation term replaced by the *actual* op count from the cache.
        let service = authdb_sim::models::ServiceTimes::paper_table4();
        if is_update {
            let pos = rng.gen_range(0..n);
            let before_u = cache.stats().update_ops;
            let old = leaves[pos].clone();
            version += 1;
            let new = kp.sign(format!("leaf {pos} v{version}").as_bytes());
            cache.on_update(pos, &old, &new);
            leaves[pos] = new;
            let ops = cache.stats().update_ops - before_u;
            let base = service.bas_update.0 + ops as f64 * cost.ecc_add;
            specs.push(TxnSpec {
                at: t,
                kind: TxnKind::Update,
                steps: vec![
                    Step::Delay(cost.bas_sign),
                    Step::Use(des::Res::Cpu, base * 0.5),
                    Step::Use(des::Res::Disk, base * 0.5),
                ],
            });
        } else {
            let q = sampler.sample(&mut rng).min(n);
            let lo = rng.gen_range(0..=(n - q));
            let before_q = cache.stats().query_ops;
            let (_, _) = cache.aggregate_range(leaves, lo, lo + q - 1);
            let ops = cache.stats().query_ops - before_q;
            // Non-aggregation part of the calibrated query service.
            let noncrypto = service.bas_query.0 + service.bas_query.1 * (q as f64 - 1.0)
                - (q as f64 - 1.0) * cost.ecc_add;
            let total = noncrypto.max(0.0) + ops as f64 * cost.ecc_add;
            specs.push(TxnSpec {
                at: t,
                kind: TxnKind::Query,
                steps: vec![
                    Step::Use(des::Res::Cpu, total * 0.5),
                    Step::Use(des::Res::Disk, total * 0.5),
                    Step::Verify(cost.client_verify_time(q, 1)),
                ],
            });
        }
    }
    let results = des::run(SimConfig::default(), specs);
    let q = des::summarize(&results, TxnKind::Query);
    let u = des::summarize(&results, TxnKind::Update);
    Point {
        cache_kb,
        query_ms: q.mean_response * 1e3,
        update_ms: u.mean_response * 1e3,
    }
}

fn main() {
    banner(
        "Figure 10",
        "SigCache: response time vs cache size, Eager vs Lazy",
    );
    // The queueing regime of the paper's Figure 10 (heavily loaded at
    // 50 jobs/s) needs the full 2^20-record tree; mock signatures keep the
    // leaf-signing cost trivial at this scale.
    let n = 1usize << 20;
    let _ = env_n();
    let rate = 50.0;
    let duration = if authdb_bench::full_scale() {
        120.0
    } else {
        60.0
    };
    let cost = CostModel::pinned();
    println!(
        "N = {n} positions, 50 jobs/s, skewed cardinalities, ECC add = {:.2} µs",
        cost.ecc_add * 1e6
    );

    let mut rng = StdRng::seed_from_u64(10);
    let kp = Keypair::generate(SchemeKind::Mock, &mut rng);
    println!("Signing {n} leaf signatures (mock scheme for scale)...");
    let base_leaves: Vec<Signature> = (0..n)
        .map(|i| kp.sign(format!("leaf {i} v0").as_bytes()))
        .collect();

    // Cardinality distribution matching the workload for Algorithm 1.
    let probs = cardinality_probs(n);
    let analysis = SigTreeAnalysis::new(&probs);
    let full_selection = select_cache(&analysis, 2048);
    println!(
        "Algorithm 1 chose {} nodes (expected cost {:.0} -> {:.0} ops)",
        full_selection.chosen.len(),
        full_selection.base_cost,
        full_selection
            .cost_curve
            .last()
            .copied()
            .unwrap_or(full_selection.base_cost)
    );

    for upd_pct in [10.0, 40.0] {
        println!("\nUpd% = {upd_pct}:");
        println!(
            "{:>9} | {:>11} {:>11} | {:>11} {:>11}",
            "cache KB", "Eager Q", "Eager U", "Lazy Q", "Lazy U"
        );
        println!("{:->9}-+-{:->23}-+-{:->23}", "", "", "");
        csv_begin("upd_pct,cache_kb,eager_q_ms,eager_u_ms,lazy_q_ms,lazy_u_ms");
        let mut first_q = None;
        let mut last_q = None;
        let max_nodes = full_selection.chosen.len();
        let mut node_counts = vec![0usize, 64, 128, 256, 512, 1024, max_nodes];
        node_counts.retain(|&c| c <= max_nodes);
        node_counts.dedup();
        for nodes in node_counts {
            let selection: Vec<NodeId> =
                full_selection.chosen.iter().copied().take(nodes).collect();
            let mut leaves = base_leaves.clone();
            let eager = run_point(
                n,
                &mut leaves,
                &kp,
                &selection,
                RefreshStrategy::Eager,
                upd_pct,
                rate,
                duration,
                &cost,
            );
            let mut leaves = base_leaves.clone();
            let lazy = run_point(
                n,
                &mut leaves,
                &kp,
                &selection,
                RefreshStrategy::Lazy,
                upd_pct,
                rate,
                duration,
                &cost,
            );
            println!(
                "{:>9.1} | {:>9.1}ms {:>9.1}ms | {:>9.1}ms {:>9.1}ms",
                eager.cache_kb, eager.query_ms, eager.update_ms, lazy.query_ms, lazy.update_ms
            );
            println!(
                "{upd_pct},{:.1},{:.2},{:.2},{:.2},{:.2}",
                eager.cache_kb, eager.query_ms, eager.update_ms, lazy.query_ms, lazy.update_ms
            );
            if nodes == 0 {
                first_q = Some((eager.query_ms, lazy.query_ms));
            }
            last_q = Some((
                eager.query_ms,
                lazy.query_ms,
                lazy.update_ms,
                eager.update_ms,
            ));
        }
        csv_end();
        let (e0, l0) = first_q.unwrap();
        let (e1, l1, _lu, _eu) = last_q.unwrap();
        println!(
            "Query response reduction at max cache: eager {:.0}%, lazy {:.0}% (paper: ~30% at 40 KB)",
            (1.0 - e1 / e0) * 100.0,
            (1.0 - l1 / l0) * 100.0
        );
        assert!(e1 < e0 && l1 < l0, "caching must reduce query response");
    }
    println!("\nPaper shape: both strategies improve with cache size; Lazy >= Eager, more so at Upd%=40.");
}
