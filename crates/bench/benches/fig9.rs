//! Figure 9: EMB− versus BAS under range queries (sf = 10⁻³).
//!
//! Same protocol as Figure 7 with 1000-record result sets: the EMB−
//! saturation point collapses (the paper reports ~10 jobs/s versus BAS
//! sustaining > 45 jobs/s).

use authdb_bench::{banner, csv_begin, csv_end};
use authdb_paper::models::{run_load, System, SystemModel};
use authdb_sim::CostModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    banner(
        "Figure 9",
        "EMB- vs BAS, range queries (sf = 1e-3, 1000 records), Upd% = 10",
    );
    let sys = SystemModel::paper_defaults();
    let cost = CostModel::pinned();
    let duration = if authdb_bench::full_scale() {
        120.0
    } else {
        40.0
    };
    let rates = [2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 45.0, 60.0];

    println!(
        "\n{:>6} | {:>12} {:>12} | {:>12} {:>12}",
        "rate", "EMB- Q", "EMB- U", "BAS Q", "BAS U"
    );
    println!("{:->6}-+-{:->25}-+-{:->25}", "", "", "");
    csv_begin("rate,emb_q_ms,emb_u_ms,bas_q_ms,bas_u_ms");
    let mut emb_saturation: Option<f64> = None;
    let mut bas_at_max = 0.0;
    for &rate in &rates {
        let mut rng = StdRng::seed_from_u64(rate as u64 + 11);
        let emb = run_load(
            System::Emb,
            rate,
            10.0,
            1000,
            duration,
            &sys,
            &cost,
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(rate as u64 + 11);
        let bas = run_load(
            System::Bas,
            rate,
            10.0,
            1000,
            duration,
            &sys,
            &cost,
            &mut rng,
        );
        println!(
            "{rate:>6.0} | {:>10.1}ms {:>10.1}ms | {:>10.1}ms {:>10.1}ms",
            emb.query.mean_response * 1e3,
            emb.update.mean_response * 1e3,
            bas.query.mean_response * 1e3,
            bas.update.mean_response * 1e3,
        );
        println!(
            "{rate},{},{},{},{}",
            emb.query.mean_response * 1e3,
            emb.update.mean_response * 1e3,
            bas.query.mean_response * 1e3,
            bas.update.mean_response * 1e3,
        );
        if emb_saturation.is_none() && emb.query.mean_response > 1.0 {
            emb_saturation = Some(rate);
        }
        bas_at_max = bas.query.mean_response;
    }
    csv_end();

    let sat = emb_saturation.unwrap_or(f64::INFINITY);
    println!(
        "\nEMB- response exceeds 1 s at ~{sat} jobs/s; BAS at {} jobs/s still {:.0} ms.",
        rates[rates.len() - 1],
        bas_at_max * 1e3
    );
    assert!(
        sat <= rates[rates.len() - 1],
        "EMB- must saturate within the sweep"
    );
    assert!(
        bas_at_max < 2.0,
        "BAS must stay responsive at the highest tested rate"
    );
    println!("Paper shape: EMB- saturates at ~10 jobs/s; BAS pushed beyond 45 jobs/s.");
}
