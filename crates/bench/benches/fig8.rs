//! Figure 8: Compressed Update Summaries.
//!
//! Runs the real (one-shard) aggregator under a steady update stream with the
//! active-renewal process and sweeps the renewal age ρ′ for ρ ∈ {0.5, 1} s:
//! (a) mean compressed bitmap size per period and mean signature age;
//! (b) total summary bytes a freshly logging-in user must fetch
//! (per-bitmap size × signature age / ρ). The paper observes the total
//! bottoming out around ρ′ = 900 s at ρ = 1 s.

use authdb_bench::{banner, csv_begin, csv_end, env_n, fmt_bytes};
use authdb_core::da::DaConfig;
use authdb_core::shard::ShardedAggregator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Point {
    rho_ticks: u64,
    rho_seconds: f64,
    rho_prime_ratio: u64,
    bitmap_bytes: f64,
    avg_age_seconds: f64,
    total_bytes: f64,
}

/// One configuration cell. Ticks are 1/10 s so ρ = 0.5 s is representable.
fn run_cell(n: usize, rho_seconds: f64, rho_prime_ratio: u64, upd_per_sec: f64) -> Point {
    let ticks_per_sec = 10.0;
    let rho_ticks = (rho_seconds * ticks_per_sec) as u64;
    let rho_prime_ticks = rho_ticks * rho_prime_ratio;
    let cfg = DaConfig {
        rho: rho_ticks,
        rho_prime: rho_prime_ticks,
        buffer_pages: 8192,
        ..DaConfig::small()
    };
    let mut rng = StdRng::seed_from_u64(rho_prime_ratio + rho_ticks);
    let mut da = ShardedAggregator::new(cfg, vec![], &mut rng);
    da.bootstrap((0..n).map(|i| vec![i as i64, 0]).collect(), 4);

    // Renewal budget per period: one full scan per rho' (plus slack so the
    // cursor keeps up with integer rounding).
    let renewal_budget = (n as u64 * rho_ticks).div_ceil(rho_prime_ticks) as usize + 1;
    let upd_per_period = upd_per_sec * rho_seconds;

    // Warm up one full renewal cycle, then measure.
    let warm_periods = rho_prime_ratio + 8;
    let measure_periods = 64;
    let mut bitmap_bytes = 0usize;
    let mut measured = 0usize;
    for period in 0..(warm_periods + measure_periods) {
        da.advance_clock(rho_ticks);
        // Poisson-ish update count for the period.
        let k = upd_per_period.floor() as usize + usize::from(rng.gen_bool(upd_per_period.fract()));
        for _ in 0..k {
            let rid = rng.gen_range(0..n as u64);
            if da.shard(0).record(rid).is_some() {
                da.update_record(0, rid, vec![rid as i64, rng.gen_range(0..1_000)]);
            }
        }
        da.background_renewal(renewal_budget);
        for (_, summary, _recerts) in da.maybe_publish_summaries() {
            if period >= warm_periods {
                bitmap_bytes += summary.compressed.len();
                measured += 1;
            }
        }
    }
    let avg_bitmap = bitmap_bytes as f64 / measured as f64;
    let (avg_age_ticks, _) = da.shard(0).signature_age_stats();
    let avg_age_seconds = avg_age_ticks / ticks_per_sec;
    // A user logging in fetches summaries back to the average signature age.
    let summaries_needed = (avg_age_seconds / rho_seconds).ceil();
    Point {
        rho_ticks,
        rho_seconds,
        rho_prime_ratio,
        bitmap_bytes: avg_bitmap,
        avg_age_seconds,
        total_bytes: avg_bitmap * summaries_needed,
    }
}

fn main() {
    banner(
        "Figure 8",
        "Compressed update summaries vs renewal age rho'",
    );
    let n = env_n().min(200_000); // bitmap scale; summary sizes scale with updates, not N
    let upd_per_sec = 5.0; // 50 jobs/s x 10% updates (Table 2 defaults)
    println!("N = {n}, update rate = {upd_per_sec}/s\n");

    println!(
        "{:>5} {:>8} | {:>14} | {:>12} | {:>14}",
        "rho", "rho'/rho", "bitmap/period", "avg sig age", "total summary"
    );
    println!(
        "{:->5}-{:->8}-+-{:->14}-+-{:->12}-+-{:->14}",
        "", "", "", "", ""
    );
    csv_begin("rho_s,rho_prime_ratio,bitmap_bytes,avg_age_s,total_bytes");
    let mut per_rho: Vec<(f64, Vec<Point>)> = Vec::new();
    for rho_seconds in [0.5, 1.0] {
        let mut points = Vec::new();
        for ratio in [64u64, 128, 256, 512, 768, 1024] {
            let p = run_cell(n, rho_seconds, ratio, upd_per_sec);
            println!(
                "{:>5} {:>8} | {:>14} | {:>10.0} s | {:>14}",
                p.rho_seconds,
                p.rho_prime_ratio,
                fmt_bytes(p.bitmap_bytes as usize),
                p.avg_age_seconds,
                fmt_bytes(p.total_bytes as usize)
            );
            println!(
                "{},{},{:.1},{:.1},{:.1}",
                p.rho_seconds, p.rho_prime_ratio, p.bitmap_bytes, p.avg_age_seconds, p.total_bytes
            );
            points.push(p);
        }
        per_rho.push((rho_seconds, points));
    }
    csv_end();

    // Shape checks: bitmaps shrink and ages grow as rho' relaxes.
    for (rho, points) in &per_rho {
        assert!(
            points
                .windows(2)
                .all(|w| w[1].bitmap_bytes <= w[0].bitmap_bytes * 1.1),
            "rho={rho}: bitmap size must decline as rho' grows"
        );
        assert!(
            points
                .windows(2)
                .all(|w| w[1].avg_age_seconds >= w[0].avg_age_seconds * 0.9),
            "rho={rho}: signature age must grow with rho'"
        );
        let _ = points.last().map(|p| {
            assert!(p.rho_ticks > 0);
        });
    }
    println!("\nShape checks passed: per-period bitmaps shrink and signature ages grow with rho'.");
    println!("Paper reference: total bottoms out at 171 KB (rho = 1 s, rho' = 900 s).");
}
