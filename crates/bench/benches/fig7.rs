//! Figure 7: EMB− versus BAS under point queries (sf = 10⁻⁶).
//!
//! (a) Query/update response time versus Poisson arrival rate;
//! (b) response-time breakdown (lock wait / processing / verification) at a
//! light and a heavy rate. Both systems run in the discrete-event simulator
//! with the paper-calibrated cost model; the saturation asymmetry comes
//! purely from the EMB− exclusive root lock.

use authdb_bench::{banner, csv_begin, csv_end};
use authdb_paper::models::{run_load, System, SystemModel};
use authdb_sim::CostModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sweep(q_records: usize, rates: &[f64], duration: f64) {
    let sys = SystemModel::paper_defaults();
    let cost = CostModel::pinned();
    println!(
        "\n{:>6} | {:>12} {:>12} | {:>12} {:>12}",
        "rate", "EMB- Q", "EMB- U", "BAS Q", "BAS U"
    );
    println!("{:->6}-+-{:->25}-+-{:->25}", "", "", "");
    csv_begin("rate,emb_q_ms,emb_u_ms,bas_q_ms,bas_u_ms,emb_q_lock_ms,bas_q_lock_ms");
    let mut crossover_seen = false;
    for &rate in rates {
        let mut rng = StdRng::seed_from_u64(rate as u64 + 7);
        let emb = run_load(
            System::Emb,
            rate,
            10.0,
            q_records,
            duration,
            &sys,
            &cost,
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(rate as u64 + 7);
        let bas = run_load(
            System::Bas,
            rate,
            10.0,
            q_records,
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
            "{rate},{},{},{},{},{},{}",
            emb.query.mean_response * 1e3,
            emb.update.mean_response * 1e3,
            bas.query.mean_response * 1e3,
            bas.update.mean_response * 1e3,
            emb.query.mean_lock_wait * 1e3,
            bas.query.mean_lock_wait * 1e3,
        );
        if emb.query.mean_response > 2.0 * bas.query.mean_response {
            crossover_seen = true;
        }
    }
    csv_end();
    assert!(
        crossover_seen,
        "EMB- must fall far behind BAS somewhere in the sweep"
    );

    println!("\nBreakdown (mean per query, ms):");
    println!(
        "{:<10} {:>6} | {:>10} {:>12} {:>12}",
        "system", "rate", "locking", "processing", "verification"
    );
    csv_begin("system,rate,lock_ms,processing_ms,verify_ms");
    for (system, name) in [(System::Emb, "EMB-"), (System::Bas, "BAS")] {
        for rate in [rates[1], rates[rates.len() - 2]] {
            let mut rng = StdRng::seed_from_u64(rate as u64 + 7);
            let pt = run_load(
                system, rate, 10.0, q_records, duration, &sys, &cost, &mut rng,
            );
            println!(
                "{name:<10} {rate:>6.0} | {:>9.1}m {:>11.1}m {:>11.1}m",
                pt.query.mean_lock_wait * 1e3,
                pt.query.mean_processing * 1e3,
                pt.query.mean_verify * 1e3
            );
            println!(
                "{name},{rate},{},{},{}",
                pt.query.mean_lock_wait * 1e3,
                pt.query.mean_processing * 1e3,
                pt.query.mean_verify * 1e3
            );
        }
    }
    csv_end();
}

fn main() {
    banner(
        "Figure 7",
        "EMB- vs BAS, point queries (sf = 1e-6), Upd% = 10",
    );
    let duration = if authdb_bench::full_scale() {
        120.0
    } else {
        40.0
    };
    sweep(1, &[10.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0], duration);
    println!("\nPaper shape: EMB- saturates near 50 jobs/s; BAS scales to 120 jobs/s.");
}
