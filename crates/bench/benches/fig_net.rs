//! fig_net: the networked query server over loopback TCP.
//!
//! The paper's deployment is an outsourced publisher answering clients over
//! a network; this bench drives the real stack — DA → wire-encoded updates
//! → TCP `QsServer` → `QsClient` → the unmodified stitched verifier — and
//! measures what the DES models only predict:
//!
//! * **round-trip latency** per selection answer (request framing, server
//!   proof construction, response framing, decode), at 1 and 8 shards,
//!   with and without attached freshness summaries;
//! * **bytes on the wire** per answer, checked against the `crates/sim`
//!   cost-model message sizes (`wire_model`): the acceptance bar is
//!   agreement within 20% for every measured answer, so a codec change
//!   that drifts from the simulator's accounting fails here instead of
//!   silently skewing Figures 7/9.
//!
//! Companion to `fig_shard` (same N, key stride, and seam-straddling query
//! set) so the network numbers line up with the in-process ones.

use std::time::Instant;

use authdb_bench::{banner, chained_cfg, csv_begin, csv_end, env_jobs, fmt_time};
use authdb_core::qs::{QsOptions, SelectionAnswer};
use authdb_core::shard::{ShardedAggregator, ShardedQueryServer, ShardedSelectionAnswer};
use authdb_core::verify::{EpochView, Verifier};
use authdb_crypto::signer::SchemeKind;
use authdb_net::{QsClient, QsServer, QsServerOptions};
use authdb_sim::cost::wire_model;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: i64 = 2_048;
const KEY_STRIDE: i64 = 10;
const NUM_ATTRS: usize = 2;
/// Compressed BAS signature bytes (the codec adds its one-byte scheme tag).
const SIG_LEN: usize = 33;

/// The fig_shard query set: seam-straddling selections plus one mid-shard.
fn queries() -> Vec<(i64, i64)> {
    let span = N * KEY_STRIDE;
    let mut out: Vec<(i64, i64)> = (1..=7)
        .map(|q| {
            let seam = q * span / 8;
            (seam - 64 * KEY_STRIDE, seam + 64 * KEY_STRIDE - 1)
        })
        .collect();
    out.push((span / 16, span / 16 + 128 * KEY_STRIDE - 1));
    out
}

fn sharded_system(shards: i64) -> (ShardedAggregator, ShardedQueryServer, Verifier) {
    let span = N * KEY_STRIDE;
    let splits: Vec<i64> = (1..shards).map(|i| i * span / shards).collect();
    let mut rng = StdRng::seed_from_u64(42);
    let mut sa = ShardedAggregator::new(chained_cfg(SchemeKind::Bas), splits, &mut rng);
    let boots = sa.bootstrap(
        (0..N).map(|i| vec![i * KEY_STRIDE, i]).collect(),
        env_jobs(),
    );
    let sqs = ShardedQueryServer::from_bootstraps(
        sa.public_params(),
        sa.config(),
        sa.map().clone(),
        &boots,
        &QsOptions::default(),
    );
    let v = Verifier::new(sa.public_params(), sa.config().schema, sa.config().rho);
    (sa, sqs, v)
}

/// The sim cost model's prediction for an answer's bytes-on-wire, built
/// from what the answer actually carried.
fn predicted_bytes(ans: &ShardedSelectionAnswer) -> usize {
    let shape = |a: &SelectionAnswer| wire_model::AnswerShape {
        records: a.records.len(),
        gap: a.gap.is_some(),
        vacancy: a.vacancy.is_some(),
        summaries: a.summaries.len(),
        summary_bitmap_bytes: a.summaries.iter().map(|s| s.compressed.len()).sum(),
    };
    let parts: Vec<wire_model::AnswerShape> = ans.parts.iter().map(|p| shape(&p.answer)).collect();
    wire_model::sharded_selection_response(ans.map.splits().len(), &parts, NUM_ATTRS, SIG_LEN)
}

struct Phase {
    rtt_per_query: f64,
    verify_per_query: f64,
    bytes_per_answer: f64,
    predicted_per_answer: f64,
    max_drift: f64,
    records: usize,
}

/// Run the query set against a live server: round-trip timing, per-answer
/// bytes vs the cost model, and full stitched verification at `now`.
fn run_phase(
    client: &mut QsClient,
    verifier: &Verifier,
    view: &EpochView,
    now: u64,
    rng: &mut StdRng,
) -> Phase {
    let qs_list = queries();
    let reps = 5;
    // Timed round trips (decode included, verification excluded).
    let t = Instant::now();
    let mut answers = Vec::new();
    for _ in 0..reps {
        answers = qs_list
            .iter()
            .map(|&(lo, hi)| client.select_range(lo, hi).expect("network answer"))
            .collect();
    }
    let rtt = t.elapsed().as_secs_f64() / (reps * qs_list.len()) as f64;

    // Bytes-on-wire per answer vs the sim model.
    let mut measured_total = 0usize;
    let mut predicted_total = 0usize;
    let mut max_drift: f64 = 0.0;
    let mut records = 0usize;
    for (&(lo, hi), ans) in qs_list.iter().zip(&answers) {
        let ans2 = client.select_range(lo, hi).expect("network answer");
        let measured = client.last_response_bytes();
        let predicted = predicted_bytes(&ans2);
        assert_eq!(&ans2, ans, "deterministic answers");
        let drift = (measured as f64 - predicted as f64).abs() / measured as f64;
        max_drift = max_drift.max(drift);
        measured_total += measured;
        predicted_total += predicted;
        records += ans
            .parts
            .iter()
            .map(|p| p.answer.records.len())
            .sum::<usize>();
    }

    let t = Instant::now();
    for (&(lo, hi), ans) in qs_list.iter().zip(&answers) {
        verifier
            .verify_sharded_selection(lo, hi, ans, view, now, true, rng)
            .expect("honest network answer verifies");
    }
    let verify = t.elapsed().as_secs_f64() / qs_list.len() as f64;

    Phase {
        rtt_per_query: rtt,
        verify_per_query: verify,
        bytes_per_answer: measured_total as f64 / qs_list.len() as f64,
        predicted_per_answer: predicted_total as f64 / qs_list.len() as f64,
        max_drift,
        records: records / qs_list.len(),
    }
}

fn main() {
    banner(
        "fig_net",
        "Networked QS over loopback TCP: latency, bytes/answer, cost-model agreement",
    );
    println!(
        "N = {N} BAS records, {} seam-straddling queries, ~128 records/answer",
        queries().len()
    );
    println!(
        "{:>6} | {:>9} | {:>12} | {:>12} | {:>13} | {:>13} | {:>9}",
        "shards", "summaries", "rtt/query", "verify/query", "bytes/answer", "model bytes", "drift"
    );
    println!(
        "{:->6}-+-{:->9}-+-{:->12}-+-{:->12}-+-{:->13}-+-{:->13}-+-{:->9}",
        "", "", "", "", "", "", ""
    );

    let mut rng = StdRng::seed_from_u64(77);
    let mut csv_rows: Vec<String> = Vec::new();
    let mut worst_drift: f64 = 0.0;
    for &shards in &[1i64, 8] {
        let (mut sa, sqs, verifier) = sharded_system(shards);
        let view = EpochView::genesis(sa.map(), &sa.public_params()).expect("genesis view");
        let server = QsServer::spawn(sqs, QsServerOptions::default()).expect("bind loopback");
        let mut client = QsClient::connect(server.addr()).expect("connect");

        // Phase 1: before any summary is published (freshness trivially
        // inside the first 2ρ window) — the pure proof payload.
        let bare = run_phase(&mut client, &verifier, &view, 0, &mut rng);

        // Phase 2: the DA publishes two summary periods and the answers
        // carry the freshness stream.
        for dt in [12, 10] {
            sa.advance_clock(dt);
            for (shard, summary, recerts) in sa.maybe_publish_summaries() {
                server.with_server(|sqs| {
                    sqs.add_summary(shard, summary);
                    for m in &recerts {
                        sqs.apply(shard, m);
                    }
                });
            }
        }
        let with_sums = run_phase(&mut client, &verifier, &view, sa.now(), &mut rng);

        for (label, phase) in [("no", &bare), ("yes", &with_sums)] {
            println!(
                "{:>6} | {:>9} | {:>12} | {:>12} | {:>13.0} | {:>13.0} | {:>8.2}%",
                shards,
                label,
                fmt_time(phase.rtt_per_query),
                fmt_time(phase.verify_per_query),
                phase.bytes_per_answer,
                phase.predicted_per_answer,
                phase.max_drift * 100.0
            );
            csv_rows.push(format!(
                "rtt_s_{shards}_shards_summaries_{label},{}",
                phase.rtt_per_query
            ));
            csv_rows.push(format!(
                "verify_s_{shards}_shards_summaries_{label},{}",
                phase.verify_per_query
            ));
            csv_rows.push(format!(
                "bytes_per_answer_{shards}_shards_summaries_{label},{}",
                phase.bytes_per_answer
            ));
            csv_rows.push(format!(
                "model_bytes_per_answer_{shards}_shards_summaries_{label},{}",
                phase.predicted_per_answer
            ));
            csv_rows.push(format!(
                "model_drift_{shards}_shards_summaries_{label},{}",
                phase.max_drift
            ));
            worst_drift = worst_drift.max(phase.max_drift);
            assert!(phase.records > 0, "queries must return records");
        }
        server.shutdown();
    }

    csv_begin("metric,value");
    for row in &csv_rows {
        println!("{row}");
    }
    println!("model_worst_drift,{worst_drift}");
    csv_end();

    assert!(
        worst_drift <= 0.20,
        "measured bytes-on-wire must agree with the sim cost model within \
         20% (worst drift {:.1}%) — recalibrate crates/sim cost.rs wire_model",
        worst_drift * 100.0
    );
    println!(
        "\nCost-model agreement: worst drift {:.2}% (bar: 20%).",
        worst_drift * 100.0
    );
}
