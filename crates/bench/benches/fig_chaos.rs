//! fig_chaos: goodput and latency of the resilient fan-out under injected
//! faults.
//!
//! The chaos-tested claim is qualitative — *no lies under chaos* — but the
//! cost of surviving chaos is quantitative: every retry burns a timeout,
//! every timeout is paid in tail latency, and the `crates/sim` retry model
//! claims to predict both. This bench drives the real stack — a 4-shard
//! deployment behind one [`ChaosProxy`] per shard endpoint, queried by a
//! [`ShardFanout`] with deadlines and bounded jittered retries — at fault
//! rates of 0%, 5%, and 20% (stalls + sub-deadline delays, seeded and
//! reproducible), and reports:
//!
//! * **goodput** — the fraction of queries ending in a complete verdict
//!   (the remainder end in sound partial verdicts; nothing may end in a
//!   rejected or wrong answer);
//! * **p99 latency** per query, fault-free vs faulted;
//! * **retry amplification** — proxied connections per logical request —
//!   checked against `retry_model::expected_attempts` with a 25% bar, so
//!   a retry-loop change that spends different attempts than the
//!   simulator charges fails here instead of silently skewing the DES.

use std::time::{Duration, Instant};

use authdb_bench::{banner, chained_cfg, csv_begin, csv_end, env_jobs};
use authdb_core::qs::QsOptions;
use authdb_core::shard::ShardedAggregator;
use authdb_core::verify::{EpochView, Verifier};
use authdb_crypto::signer::SchemeKind;
use authdb_net::{
    ChaosProxy, ClientConfig, FaultPlan, QsServer, QsServerOptions, RetryPolicy, ShardFanout,
};
use authdb_sim::cost::retry_model;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: i64 = 512;
const KEY_STRIDE: i64 = 10;
const SHARDS: i64 = 4;
const QUERIES: usize = 60;
const READ_TIMEOUT: Duration = Duration::from_millis(100);
const MAX_RETRIES: usize = 2;

fn client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: READ_TIMEOUT,
        read_timeout: READ_TIMEOUT,
        write_timeout: READ_TIMEOUT,
        retry: RetryPolicy {
            max_retries: MAX_RETRIES,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
            jitter_seed: 7,
        },
        ..ClientConfig::default()
    }
}

/// Seam-straddling full-width queries: every one overlaps all four shards,
/// so each logical query is four per-shard requests.
fn queries() -> Vec<(i64, i64)> {
    let span = N * KEY_STRIDE;
    (0..QUERIES as i64)
        .map(|q| {
            let jitter = (q * 37) % 200;
            (jitter, span - 1 - jitter)
        })
        .collect()
}

struct RatePoint {
    goodput: f64,
    partial_rate: f64,
    p50: f64,
    p99: f64,
    amplification: f64,
    model_amplification: f64,
}

fn run_rate(
    server: &QsServer,
    verifier: &Verifier,
    view: &EpochView,
    drop_pct: u8,
    delay_pct: u8,
    rng: &mut StdRng,
) -> RatePoint {
    // One proxy per shard endpoint, each with its own seeded schedule —
    // same seeds every run, so the figure is reproducible.
    let proxies: Vec<ChaosProxy> = (0..SHARDS)
        .map(|i| {
            let plan = FaultPlan::seeded(
                1000 + drop_pct as u64 * 31 + i as u64,
                QUERIES * (MAX_RETRIES + 1),
                drop_pct,
                delay_pct,
                Duration::from_millis(10),
            );
            ChaosProxy::spawn(server.addr(), plan).expect("proxy")
        })
        .collect();
    let endpoints: Vec<String> = proxies.iter().map(|p| p.addr().to_string()).collect();

    let mut fanout = ShardFanout::new(
        server.with_server(|s| s.map().clone()),
        endpoints,
        client_config(),
    );

    let mut latencies = Vec::with_capacity(QUERIES);
    let mut complete = 0usize;
    let mut partial = 0usize;
    let mut requests = 0u64;
    for (lo, hi) in queries() {
        let t = Instant::now();
        let answer = fanout
            .select_range(lo, hi)
            .expect("fan-out may only fail on integrity faults, and this schedule injects none");
        latencies.push(t.elapsed().as_secs_f64());
        requests += SHARDS as u64;
        let verdict = verifier
            .verify_partial_selection(
                lo,
                hi,
                &answer.answer,
                &answer.unreachable(),
                view,
                0,
                true,
                rng,
            )
            .expect("availability faults must never produce a verify error");
        if verdict.is_complete() {
            complete += 1;
        } else {
            partial += 1;
        }
    }
    let attempts: u64 = proxies.iter().map(|p| p.connections()).sum();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize];

    RatePoint {
        goodput: complete as f64 / QUERIES as f64,
        partial_rate: partial as f64 / QUERIES as f64,
        p50: pct(0.50),
        p99: pct(0.99),
        amplification: attempts as f64 / requests as f64,
        model_amplification: retry_model::expected_attempts(drop_pct as f64 / 100.0, MAX_RETRIES),
    }
}

fn main() {
    banner(
        "fig_chaos",
        "Resilient fan-out under fault injection: goodput, tail latency, retry amplification",
    );
    println!(
        "N = {N} Mock records, {SHARDS} shards, {QUERIES} full-span queries per rate, \
         read deadline {READ_TIMEOUT:?}, {MAX_RETRIES} retries"
    );

    let span = N * KEY_STRIDE;
    let splits: Vec<i64> = (1..SHARDS).map(|i| i * span / SHARDS).collect();
    let mut rng = StdRng::seed_from_u64(42);
    let mut sa = ShardedAggregator::new(chained_cfg(SchemeKind::Mock), splits, &mut rng);
    let boots = sa.bootstrap(
        (0..N).map(|i| vec![i * KEY_STRIDE, i]).collect(),
        env_jobs(),
    );
    let sqs = sa.replica(&boots, &QsOptions::default());
    let verifier = sa.verifier();
    let view = sa.epoch_view();
    let server = QsServer::spawn(sqs, QsServerOptions::default()).expect("bind loopback");
    let mut vrng = StdRng::seed_from_u64(77);

    println!(
        "{:>10} | {:>8} | {:>8} | {:>9} | {:>9} | {:>8} | {:>9} | {:>6}",
        "fault rate", "goodput", "partial", "p50", "p99", "amplif.", "model", "drift"
    );
    println!(
        "{:->10}-+-{:->8}-+-{:->8}-+-{:->9}-+-{:->9}-+-{:->8}-+-{:->9}-+-{:->6}",
        "", "", "", "", "", "", "", ""
    );

    let mut csv_rows: Vec<String> = Vec::new();
    let mut worst_drift: f64 = 0.0;
    for &(drop_pct, delay_pct) in &[(0u8, 0u8), (5, 10), (20, 10)] {
        let point = run_rate(&server, &verifier, &view, drop_pct, delay_pct, &mut vrng);
        let drift =
            (point.amplification - point.model_amplification).abs() / point.model_amplification;
        println!(
            "{:>9}% | {:>7.1}% | {:>7.1}% | {:>7.1}ms | {:>7.1}ms | {:>8.3} | {:>9.3} | {:>5.1}%",
            drop_pct,
            point.goodput * 100.0,
            point.partial_rate * 100.0,
            point.p50 * 1e3,
            point.p99 * 1e3,
            point.amplification,
            point.model_amplification,
            drift * 100.0
        );
        for (metric, value) in [
            ("goodput", point.goodput),
            ("partial_rate", point.partial_rate),
            ("p50_s", point.p50),
            ("p99_s", point.p99),
            ("retry_amplification", point.amplification),
            ("model_amplification", point.model_amplification),
        ] {
            csv_rows.push(format!("{metric}_{drop_pct}pct,{value}"));
        }
        worst_drift = worst_drift.max(drift);

        if drop_pct == 0 {
            // The 0%-fault gate: chaos machinery must be invisible when
            // the network is honest.
            assert!(
                (point.goodput - 1.0).abs() < f64::EPSILON,
                "fault-free queries must all complete"
            );
            assert!(
                (point.amplification - 1.0).abs() < f64::EPSILON,
                "fault-free queries must not retry"
            );
        }
    }
    server.shutdown();

    csv_begin("metric,value");
    for row in &csv_rows {
        println!("{row}");
    }
    println!("model_worst_drift,{worst_drift}");
    csv_end();

    assert!(
        worst_drift <= 0.25,
        "measured retry amplification must agree with the sim retry model \
         within 25% (worst drift {:.1}%) — recalibrate crates/sim cost.rs \
         retry_model",
        worst_drift * 100.0
    );
    println!(
        "\nRetry-model agreement: worst drift {:.2}% (bar: 25%).",
        worst_drift * 100.0
    );
}
