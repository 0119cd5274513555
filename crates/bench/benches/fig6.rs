//! Figure 6: Reduction in VO Construction Cost from SigCache.
//!
//! Runs the Section 4.1 analysis at N = 2^20 (~1M records) for the paper's
//! two query-cardinality distributions — truncated harmonic ("skewed") and
//! uniform — and reports expected per-query aggregation cost versus the
//! number of cached signature pairs, converted to time with the measured
//! ECC-addition cost. Also prints the chosen nodes against the paper's
//! published pick lists.

use authdb_bench::{banner, csv_begin, csv_end, fmt_time, timed};
use authdb_paper::sigcache::{distributions, select_cache, NodeId, SigTreeAnalysis};
use authdb_sim::CostModel;

fn run(label: &str, probs: Vec<f64>, ecc_add: f64, paper_picks: &[(usize, usize)]) {
    let n = probs.len();
    let (analysis, t_a) = timed(|| SigTreeAnalysis::new(&probs));
    let (sel, t_s) = timed(|| select_cache(&analysis, 64));
    println!(
        "\n[{label}] N = {n}: analysis {}, selection {}",
        fmt_time(t_a),
        fmt_time(t_s)
    );
    println!(
        "Base (uncached) expected cost: {:.1} aggregation ops = {}",
        sel.base_cost,
        fmt_time(sel.base_cost * ecc_add)
    );
    println!(
        "\n{:>6} | {:>14} | {:>12} | {:>9}",
        "pairs", "ops/query", "time/query", "saved"
    );
    println!("{:->6}-+-{:->14}-+-{:->12}-+-{:->9}", "", "", "", "");
    csv_begin("pairs,ops,seconds,saved_fraction");
    // Nodes come out in utility order; mirror nodes pair up.
    for pairs in 0..=20usize.min(sel.cost_curve.len() / 2) {
        let nodes = pairs * 2;
        let cost = if nodes == 0 {
            sel.base_cost
        } else {
            sel.cost_curve[nodes - 1]
        };
        let saved = 1.0 - cost / sel.base_cost;
        println!(
            "{pairs:>6} | {cost:>14.1} | {:>12} | {:>8.1}%",
            fmt_time(cost * ecc_add),
            saved * 100.0
        );
        println!("{pairs},{cost},{},{saved}", cost * ecc_add);
    }
    csv_end();

    let eight_pair_cost = sel.cost_curve.get(15).copied().unwrap_or(sel.base_cost);
    let reduction = 1.0 - eight_pair_cost / sel.base_cost;
    println!(
        "Reduction with 8 cached pairs: {:.0}% (paper: 57% skewed / 75% uniform)",
        reduction * 100.0
    );

    println!("\nFirst chosen nodes (level, j):");
    for chunk in sel.chosen.chunks(4).take(4) {
        let s: Vec<String> = chunk
            .iter()
            .map(|c| format!("T{},{}", c.level, c.j))
            .collect();
        println!("  {}", s.join("  "));
    }
    let missing: Vec<&(usize, usize)> = paper_picks
        .iter()
        .filter(|(l, j)| {
            !sel.chosen
                .iter()
                .take(24)
                .any(|c| c == &NodeId { level: *l, j: *j })
        })
        .collect();
    println!(
        "Paper's published picks present among our first 24: {}/{}{}",
        paper_picks.len() - missing.len(),
        paper_picks.len(),
        if missing.is_empty() {
            String::new()
        } else {
            format!(" (missing: {missing:?})")
        }
    );
}

fn main() {
    banner(
        "Figure 6",
        "Reduction in VO construction cost vs cached signature pairs",
    );
    let n = 1usize << 20; // the paper's one-million-record dataset
    let ecc_add = CostModel::measure().ecc_add;
    println!(
        "Measured ECC addition (aggregation) cost: {}",
        fmt_time(ecc_add)
    );

    // The paper's published pick lists for N = 2^20 (Section 4.1).
    let skewed_picks = [
        (18, 1),
        (18, 2),
        (17, 1),
        (17, 6),
        (16, 1),
        (16, 14),
        (15, 1),
        (15, 30),
        (15, 5),
        (15, 26),
        (14, 1),
        (14, 62),
        (14, 5),
        (14, 58),
        (13, 1),
        (13, 126),
    ];
    let uniform_picks = [
        (18, 1),
        (18, 2),
        (17, 1),
        (17, 6),
        (16, 1),
        (16, 14),
        (15, 1),
        (15, 30),
        (15, 5),
        (15, 26),
        (14, 1),
        (14, 62),
        (14, 5),
        (14, 58),
        (14, 9),
        (14, 54),
    ];

    run(
        "skewed P(q) ∝ 1/q",
        distributions::harmonic(n),
        ecc_add,
        &skewed_picks,
    );
    run(
        "uniform P(q) = 1/N",
        distributions::uniform(n),
        ecc_add,
        &uniform_picks,
    );
}
