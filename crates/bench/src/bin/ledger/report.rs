//! The two kinds of run and the metrics they compute: the end-to-end
//! measure phase (`--trace 0`) and the traced run (`--trace 1`), each ending
//! in an [`Outcome`] whose metric names are exactly the ones listed in
//! `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::runner::{measure, LayerCounts, Runner, Tally};
use crate::stats;
use crate::sut::Sut;
use crate::trace::{self, Span, Tracer};
use crate::workload::{stream_digest, Spec, CHECKPOINT_EVERY, RHO};

/// The result of one run, as the contract's last stdout line reports it.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub smoke: bool,
}

impl Outcome {
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let m = Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]);
                (name.to_string(), m)
            })
            .collect();
        let mut fields = vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ];
        if self.smoke {
            // Shortened phases and a scaled-down relation: not comparable.
            fields.push(("smoke", Json::Bool(true)));
        }
        Json::obj(fields)
    }
}

/// A metric's unit, by the ledger's naming rule: `*_us` (and
/// `*_us_per_answer`) are microseconds, `*bytes*` are bytes, shares, ratios
/// and the drift are ratios, everything else is a count.
fn with_units(values: Vec<(&'static str, f64)>) -> Vec<(&'static str, f64, &'static str)> {
    values
        .into_iter()
        .map(|(name, value)| {
            let unit = match name {
                "setup_s" => "s",
                "ops_per_s" => "1/s",
                "query_p50_ms" | "query_p99_ms" => "ms",
                "peak_rss_mb" => "MiB",
                n if n.ends_with("_us") || n.ends_with("_us_per_answer") => "us",
                n if n.contains("bytes") => "B",
                n if n.ends_with("_share") || n.ends_with("_ratio") || n.ends_with("_drift") => {
                    "ratio"
                }
                _ => "count",
            };
            (name, value, unit)
        })
        .collect()
}

/// `VmHWM` of this process in MiB (DA + query server + client).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// How a run's phases are sized.
#[derive(Clone, Copy)]
pub struct Plan {
    pub seconds: f64,
    pub smoke: bool,
}

impl Plan {
    fn spec(&self, spec: Spec) -> Spec {
        if self.smoke {
            spec.smoke()
        } else {
            spec
        }
    }
}

/// The `--trace 0` run: set-up (timed, repeated, median reported), tamper
/// probes, warm-up, the measure phase with tracing off, tamper probes.
pub fn end_to_end(spec: Spec, seed: u64, plan: Plan) -> Outcome {
    let spec = plan.spec(spec);
    let warm_up = Duration::from_millis(if plan.smoke { 20 } else { 1000 });
    // Set up at least three times, and a cheap set-up (Mock signing, small N)
    // as often as fits in three seconds, up to fifteen times: the median of
    // more samples holds stiller. The last system built is the one measured.
    let max_setups = if plan.smoke { 1 } else { 15 };
    let mut setup_s = Vec::new();
    let mut sut: Option<Sut> = None;
    loop {
        if let Some(previous) = sut.take() {
            previous.shutdown();
        }
        let t = Instant::now();
        sut = Some(Sut::setup(spec, seed));
        setup_s.push(t.elapsed().as_secs_f64());
        let enough = setup_s.len() >= 3 && setup_s.iter().sum::<f64>() >= 3.0;
        if enough || setup_s.len() >= max_setups {
            break;
        }
    }
    let mut runner = Runner::new(spec, seed, sut.expect("at least one set-up"));

    let mut problems = Vec::new();
    problems.extend(runner.tamper_probes().err());
    let m = measure(&mut runner, warm_up, plan.seconds);
    let tally = runner.tally.clone();
    let rss = peak_rss_mib();
    problems.extend(runner.tamper_probes().err());
    runner.shutdown();

    for p in &problems {
        eprintln!("ledger: tamper probe failed: {p}");
    }
    eprintln!(
        "ledger: {} seed {seed} (stream {:016x}): {} answers, {} updates, {} failed of {} attempted, set-ups {:.3?}",
        spec.name,
        stream_digest(spec, seed, 64),
        tally.answers,
        tally.updates,
        tally.failed,
        tally.attempted,
        setup_s
    );
    Outcome {
        correct: problems.is_empty() && tally.failed == 0 && tally.answers > 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics: with_units(vec![
            ("setup_s", stats::median(&setup_s)),
            ("ops_per_s", m.ops_per_s),
            ("query_p50_ms", m.query_p50_ms),
            ("query_p99_ms", m.query_p99_ms),
            ("bytes_per_answer", m.bytes_per_answer),
            ("peak_rss_mb", rss),
        ]),
        smoke: plan.smoke,
    }
}

/// The `--trace 1` run: an untraced reference pass, then a fixed number of
/// traced cycles of the same seeded stream. Per-layer numbers come from the
/// spans and from counters read around the calls; nothing here feeds an
/// end-to-end metric.
pub fn traced(spec: Spec, seed: u64, plan: Plan, spans_out: Option<&str>) -> Outcome {
    let spec = plan.spec(spec);
    let mut runner = Runner::new(spec, seed, Sut::setup(spec, seed));
    let mut problems = Vec::new();
    problems.extend(runner.tamper_probes().err());

    // Live workloads first reach their steady state: two checkpoint rounds,
    // so every answer carries a checkpoint and a full summary run.
    if spec.live {
        for _ in 0..2 * CHECKPOINT_EVERY * RHO {
            runner.cycle();
        }
    }
    // Reference: the same loop with the tracer off, for the overhead ratio.
    runner.tally = Tally::default();
    let t = Instant::now();
    for _ in 0..spec.traced_cycles / 2 {
        runner.cycle();
    }
    let untraced_ops_per_s = runner.tally.ops() as f64 / t.elapsed().as_secs_f64();
    let reference = std::mem::take(&mut runner.tally);

    runner.layers = LayerCounts::default();
    runner.tr = Tracer::new(true);
    for _ in 0..spec.traced_cycles {
        runner.cycle();
    }
    problems.extend(runner.tamper_probes().err());
    let tally = runner.tally.clone();
    let layers = runner.layers.clone();
    let spans = std::mem::replace(&mut runner.tr, Tracer::new(false)).into_spans();
    runner.shutdown();

    if let Some(path) = spans_out {
        if let Err(e) = trace::write_spans(&spans, path) {
            problems.push(format!("cannot write spans to {path}: {e}"));
        }
    }
    for p in &problems {
        eprintln!("ledger: {p}");
    }
    if layers.mismatches > 0 {
        eprintln!(
            "ledger: {} replayed layers disagreed with the network path",
            layers.mismatches
        );
    }
    let values = layer_metrics(spec, &spans, &tally, &layers, untraced_ops_per_s);
    print_shares(spec, &values);
    let failed = tally.failed + reference.failed;
    Outcome {
        correct: problems.is_empty() && failed == 0 && layers.mismatches == 0,
        attempted: (tally.attempted + reference.attempted).max(1),
        failed,
        metrics: with_units(values),
        smoke: plan.smoke,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn layer_metrics(
    spec: Spec,
    spans: &[Span],
    tally: &Tally,
    layers: &LayerCounts,
    untraced_ops_per_s: f64,
) -> Vec<(&'static str, f64)> {
    let us = |name: &str| stats::median_u64(&trace::durations(spans, name)) / 1e3;
    let total = |name: &str| trace::durations(spans, name).iter().sum::<u64>();
    let by_op = |name: &str| trace::sum_by_op(spans, name);
    let at = |m: &BTreeMap<u64, u64>, op: &u64| m.get(op).copied().unwrap_or(0) as f64;

    let answers = tally.answers;
    let updates = tally.updates;
    let per_answer = |n: u64| ratio(n, answers);

    // Per operation (a cycle's query, or its pipelined window): what the
    // replays attribute of the round trip and of the verify calls.
    let (roundtrip, verify) = (by_op("net.roundtrip"), by_op("core.verify.answer"));
    let (select, enc, dec) = (
        by_op("core.shard.select"),
        by_op("wire.encode_response"),
        by_op("wire.decode_response"),
    );
    let (sig, bitmap) = (by_op("crypto.sig_checks"), by_op("filters.bitmap_decode"));
    let mut transport_us = Vec::new();
    let mut verify_self_us = Vec::new();
    let mut bitmap_us = Vec::new();
    for (op, &rt) in &roundtrip {
        transport_us.push((rt as f64 - at(&select, op) - at(&enc, op) - at(&dec, op)) / 1e3);
        let own = at(&verify, op) - at(&sig, op) - at(&bitmap, op);
        verify_self_us.push(own / 1e3 / spec.window as f64);
        bitmap_us.push(at(&bitmap, op) / 1e3 / spec.window as f64);
    }

    // Shares of the `query` spans; the remainder is their self time.
    let query = total("query");
    let share = |ns: f64| if query == 0 { 0.0 } else { ns / query as f64 };
    let t = |name: &str| total(name) as f64;
    let wire_ns = t("wire.encode_response") + t("wire.decode_response");
    let net_ns = t("net.roundtrip") - t("core.shard.select") - wire_ns;
    let crypto_ns = t("crypto.sig_checks");
    let filters_ns = t("filters.bitmap_decode");
    let verify_ns = t("core.verify.answer") - crypto_ns - filters_ns;
    let unattributed: u64 = trace::self_times(spans)
        .iter()
        .zip(spans)
        .filter(|(_, s)| s.name == "query")
        .map(|(own, _)| own)
        .sum();

    let cycle = total("cycle");
    let traced_ops_per_s = tally.ops() as f64 / (cycle as f64 / 1e9);
    let q = &layers.around_queries;

    vec![
        ("crypto.pairing_check_us", us("crypto.pairing_check")),
        ("crypto.miller_us", us("crypto.miller")),
        ("crypto.final_exp_us", us("crypto.final_exp")),
        ("crypto.h2c_us", us("crypto.h2c")),
        ("crypto.sign_us", us("crypto.sign")),
        ("crypto.query_share", share(crypto_ns)),
        ("core.verify.answer_us", us("core.verify.answer")),
        ("core.verify.self_us", stats::median(&verify_self_us)),
        (
            "core.verify.sig_checks_per_answer",
            per_answer(layers.sig_checks),
        ),
        ("core.verify.hashes_per_answer", per_answer(layers.hashes)),
        (
            "core.verify.summaries_per_answer",
            per_answer(layers.summaries),
        ),
        ("core.verify.rejects", tally.rejects as f64),
        ("core.verify.query_share", share(verify_ns)),
        (
            "core.freshness.summary_bytes_per_answer",
            per_answer(layers.summary_bytes),
        ),
        (
            "core.freshness.checkpoint_bytes_per_answer",
            per_answer(layers.checkpoint_bytes),
        ),
        (
            "core.freshness.checkpoint_verify_us",
            us("core.freshness.checkpoint_verify"),
        ),
        (
            "filters.bitmap_decode_us_per_answer",
            stats::median(&bitmap_us),
        ),
        ("filters.bitmap_compress_us", us("filters.bitmap_compress")),
        ("filters.query_share", share(filters_ns)),
        ("core.shard.select_us", us("core.shard.select")),
        ("core.shard.query_share", share(t("core.shard.select"))),
        ("core.qs.records_per_answer", per_answer(layers.records)),
        ("core.qs.agg_ops_per_answer", per_answer(q.agg_ops)),
        ("core.qs.apply_us", us("core.qs.apply")),
        ("core.qs.add_summary_us", us("core.qs.add_summary")),
        (
            "index.node_cache_hit_ratio",
            ratio(q.node_hits, q.node_hits + q.node_misses),
        ),
        ("index.node_decodes_per_answer", per_answer(q.node_misses)),
        (
            "index.node_cache_evictions",
            (q.node_evictions + layers.around_updates.node_evictions) as f64,
        ),
        (
            "storage.pool_hit_ratio",
            ratio(q.pool_hits, q.pool_hits + q.pool_misses),
        ),
        ("storage.page_reads_per_answer", per_answer(q.page_reads)),
        (
            "storage.page_writes_per_update",
            ratio(layers.around_updates.page_writes, updates),
        ),
        ("core.da.update_us", us("core.da.update")),
        (
            "core.da.msgs_per_update",
            ratio(layers.update_msgs, updates),
        ),
        ("core.da.publish_us", us("core.da.publish")),
        ("core.da.checkpoint_us", us("core.da.checkpoint")),
        (
            "core.da.cycle_share",
            ratio(total("update") + total("maintain"), cycle),
        ),
        ("wire.encode_response_us", us("wire.encode_response")),
        ("wire.decode_response_us", us("wire.decode_response")),
        ("wire.request_bytes", per_answer(layers.request_bytes)),
        (
            "wire.update_msg_bytes",
            ratio(layers.update_msg_bytes, layers.update_msgs),
        ),
        ("wire.encode_update_us", us("wire.encode_update")),
        ("wire.decode_update_us", us("wire.decode_update")),
        ("wire.query_share", share(wire_ns)),
        ("net.roundtrip_us", us("net.roundtrip")),
        ("net.transport_us", stats::median(&transport_us)),
        ("net.query_share", share(net_ns)),
        ("net.sheds", tally.sheds as f64),
        ("net.errors", tally.net_errors as f64),
        ("sim.wire_drift", layers.wire_drift),
        (
            "trace.overhead_ratio",
            traced_ops_per_s / untraced_ops_per_s,
        ),
        ("trace.unattributed_share", share(unattributed as f64)),
        ("trace.cycles", spec.traced_cycles as f64),
        ("trace.answers", answers as f64),
        ("trace.updates", updates as f64),
    ]
}

/// Each layer's share of the `query` spans and the unattributed remainder;
/// the column sums to one by construction.
fn print_shares(spec: Spec, values: &[(&'static str, f64)]) {
    let get = |name: &str| values.iter().find(|v| v.0 == name).map_or(0.0, |v| v.1);
    let rows = [
        ("crypto", "crypto.query_share"),
        ("core.verify", "core.verify.query_share"),
        ("filters", "filters.query_share"),
        ("core.shard", "core.shard.query_share"),
        ("wire", "wire.query_share"),
        ("net", "net.query_share"),
        ("(unattributed)", "trace.unattributed_share"),
    ];
    eprintln!("ledger: {} — share of `query` time by layer", spec.name);
    let mut sum = 0.0;
    for (layer, metric) in rows {
        eprintln!("  {layer:<16} {:>7.2} %", get(metric) * 100.0);
        sum += get(metric);
    }
    eprintln!("  {:<16} {:>7.2} %", "sum", sum * 100.0);
    eprintln!(
        "  update path      {:>7.2} % of `cycle` time; traced/untraced ops/s {:.3}",
        get("core.da.cycle_share") * 100.0,
        get("trace.overhead_ratio")
    );
}
