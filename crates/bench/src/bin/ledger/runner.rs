//! The closed loop: one client on one connection, DA updates interleaved on
//! the same thread, every answer verified with every check on. The same
//! cycle code runs the measure phase (tracer off: no span, no clock read
//! beyond the latency stamps and one per cycle) and the traced run (tracer on, plus untimed
//! replays of each layer on the answers just received).

use std::time::{Duration, Instant};

use crate::stats;
use crate::sut::{self, Answer, AnswerShape, Counters, NetError, PairingProbe, Sut, VerifyError};
use crate::trace::Tracer;
use crate::workload::{
    Generator, Spec, Update, CHECKPOINT_EVERY, CHECKPOINT_KEEP, KEY_STRIDE, RHO,
};

/// What both kinds of run count.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted: selections sent and updates issued.
    pub attempted: u64,
    /// Rejected honest answers, `NetError`s, `Busy` sheds, failed applies.
    pub failed: u64,
    pub answers: u64,
    pub updates: u64,
    pub rejects: u64,
    pub sheds: u64,
    pub net_errors: u64,
    /// Request (or its window) handed to the client → that answer's verify
    /// returned `Ok`, in milliseconds.
    pub latencies_ms: Vec<f64>,
}

impl Tally {
    pub fn ops(&self) -> u64 {
        self.answers + self.updates
    }
}

/// What only the traced run counts, from outside the system.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    pub around_queries: Counters,
    pub around_updates: Counters,
    pub update_msgs: u64,
    pub update_msg_bytes: u64,
    pub request_bytes: u64,
    pub records: u64,
    pub hashes: u64,
    pub sig_checks: u64,
    pub summaries: u64,
    pub summary_bytes: u64,
    pub checkpoint_bytes: u64,
    /// Largest relative gap between `wire_model` and a measured response.
    pub wire_drift: f64,
    /// Replays that disagreed with what the network path delivered: an
    /// in-process answer, a re-decoded frame, a signature check, or the
    /// DA's own record set.
    pub mismatches: u64,
}

pub struct Runner {
    pub spec: Spec,
    sut: Sut,
    gen: Generator,
    probe: PairingProbe,
    pub tr: Tracer,
    pub tally: Tally,
    pub layers: LayerCounts,
    cycle: u64,
    periods: u64,
}

impl Runner {
    pub fn new(spec: Spec, seed: u64, sut: Sut) -> Runner {
        Runner {
            spec,
            sut,
            gen: Generator::new(spec, seed),
            probe: PairingProbe::new(spec.bas, seed),
            tr: Tracer::new(false),
            tally: Tally::default(),
            layers: LayerCounts::default(),
            cycle: 0,
            periods: 0,
        }
    }

    pub fn shutdown(self) {
        self.sut.shutdown();
    }

    pub fn bytes_received(&self) -> u64 {
        self.sut.bytes_received()
    }

    /// One cycle of the workload: tick and due maintenance (live workloads),
    /// the cycle's updates, then its selection or pipelined window.
    pub fn cycle(&mut self) {
        let c = self.gen.next_cycle();
        self.cycle += 1;
        self.tr.set_op(self.cycle);
        let tracing = self.tr.enabled();
        let before = tracing.then(|| self.sut.counters());
        let cyc = self.tr.enter("cycle");
        let mut published = Vec::new();
        if self.spec.live {
            self.tick(&mut published);
        }
        for u in &c.updates {
            self.update(u);
        }
        let mid = tracing.then(|| (self.sut.counters(), self.sut.bytes_received()));
        let answers = self.query(&c.queries);
        self.tr.exit(cyc);
        if let (Some(before), Some((mid, bytes_mid))) = (before, mid) {
            let after = self.sut.counters();
            self.layers.around_updates.add(&mid.since(&before));
            self.layers.around_queries.add(&after.since(&mid));
            let received = self.sut.bytes_received() - bytes_mid;
            self.replay(&c.queries, &answers, received, &published);
        }
    }

    /// Advance the clock one tick; publish the summaries that fall due and,
    /// every few periods, checkpoint every shard's summary log.
    fn tick(&mut self, published: &mut Vec<sut::UpdateSummary>) {
        self.sut.advance_clock();
        let maintain = self.tr.enter("maintain");
        let p = self.tr.enter("core.da.publish");
        let due = self.sut.publish_due();
        if due.is_empty() {
            self.tr.cancel(p);
            self.tr.cancel(maintain);
            return;
        }
        self.tr.exit(p);
        for (shard, summary, recerts) in due {
            if self.tr.enabled() {
                published.push(summary.clone());
            }
            let a = self.tr.enter("core.qs.add_summary");
            self.sut.add_summary(shard, summary);
            self.tr.exit(a);
            for msg in &recerts {
                self.deliver(shard, msg);
            }
        }
        self.periods += 1;
        if self.periods.is_multiple_of(CHECKPOINT_EVERY) {
            for shard in 0..self.spec.shards {
                let c = self.tr.enter("core.da.checkpoint");
                let ckpt = self.sut.da_checkpoint(shard, CHECKPOINT_KEEP);
                self.tr.exit(c);
                if let Some(ckpt) = ckpt {
                    let a = self.tr.enter("core.qs.apply_checkpoint");
                    self.sut.apply_checkpoint(shard, ckpt);
                    self.tr.exit(a);
                }
            }
        }
        self.tr.exit(maintain);
    }

    /// One certified message DA → wire bytes → query server.
    fn deliver(&mut self, shard: usize, msg: &sut::UpdateMsg) {
        let e = self.tr.enter("wire.encode_update");
        let bytes = sut::encode_update(msg);
        self.tr.exit(e);
        let d = self.tr.enter("wire.decode_update");
        let decoded = sut::decode_update(&bytes);
        self.tr.exit(d);
        self.layers.update_msgs += 1;
        self.layers.update_msg_bytes += bytes.len() as u64;
        match decoded {
            Some(m) => {
                let a = self.tr.enter("core.qs.apply");
                self.sut.apply(shard, &m);
                self.tr.exit(a);
            }
            None => self.tally.failed += 1,
        }
    }

    fn update(&mut self, u: &Update) {
        self.tally.attempted += 1;
        let up = self.tr.enter("update");
        let d = self.tr.enter("core.da.update");
        let msgs = self.sut.da_update(u);
        self.tr.exit(d);
        for (shard, msg) in &msgs {
            self.deliver(*shard, msg);
        }
        self.tr.exit(up);
        self.tally.updates += 1;
    }

    /// Send the cycle's selections (one call either way), verify each
    /// answer, stamp its latency. Returns the verified answers for replay.
    fn query(&mut self, ranges: &[(i64, i64)]) -> Vec<Option<Answer>> {
        self.tally.attempted += ranges.len() as u64;
        let start = Instant::now();
        let q = self.tr.enter("query");
        let r = self.tr.enter("net.roundtrip");
        let results = if ranges.len() == 1 {
            Ok(vec![self.sut.select(ranges[0].0, ranges[0].1)])
        } else {
            self.sut.pipeline(ranges)
        };
        self.tr.exit(r);
        let results = match results {
            Ok(results) => results,
            Err(e) => {
                // The connection failed under the whole window.
                for _ in ranges {
                    self.net_failure(&e);
                }
                self.tr.exit(q);
                return Vec::new();
            }
        };
        let mut answers = Vec::with_capacity(results.len());
        for (&(lo, hi), result) in ranges.iter().zip(results) {
            let ans = match result {
                Ok(ans) => ans,
                Err(e) => {
                    self.net_failure(&e);
                    answers.push(None);
                    continue;
                }
            };
            let v = self.tr.enter("core.verify.answer");
            let verdict = self.sut.verify(lo, hi, &ans);
            self.tr.exit(v);
            match verdict {
                Ok(_) => {
                    self.tally
                        .latencies_ms
                        .push(start.elapsed().as_secs_f64() * 1e3);
                    self.tally.answers += 1;
                    answers.push(Some(ans));
                }
                Err(e) => {
                    eprintln!("ledger: honest answer for [{lo}, {hi}] rejected: {e:?}");
                    self.tally.rejects += 1;
                    self.tally.failed += 1;
                    answers.push(None);
                }
            }
        }
        self.tr.exit(q);
        answers
    }

    fn net_failure(&mut self, e: &NetError) {
        self.tally.failed += 1;
        match e {
            NetError::Overloaded => self.tally.sheds += 1,
            _ => {
                eprintln!("ledger: network error: {e}");
                self.tally.net_errors += 1;
            }
        }
    }

    /// The traced run's replays: each layer's public function called again
    /// on what the network path delivered, outside the `cycle` span, so the
    /// parent's time is untouched and the replays attribute it.
    fn replay(
        &mut self,
        ranges: &[(i64, i64)],
        answers: &[Option<Answer>],
        received: u64,
        published: &[sut::UpdateSummary],
    ) {
        let pipelined = ranges.len() > 1;
        let mut predicted = 0usize;
        for (i, (&(lo, hi), ans)) in ranges.iter().zip(answers).enumerate() {
            let Some(ans) = ans else { continue };
            let tag = pipelined.then_some(i as u64);

            let s = self.tr.enter("core.shard.select");
            let local = self.sut.select_in_process(lo, hi);
            self.tr.exit(s);
            self.layers.mismatches += u64::from(local != *ans);

            let response = sut::response_of(local, tag);
            let e = self.tr.enter("wire.encode_response");
            let bytes = sut::encode_response(&response);
            self.tr.exit(e);
            let d = self.tr.enter("wire.decode_response");
            let decoded = sut::decode_response(&bytes);
            self.tr.exit(d);
            self.layers.mismatches += u64::from(decoded.as_ref() != Some(&response));
            self.layers.request_bytes += sut::request_bytes(lo, hi, tag) as u64;
            predicted += self.sut.predicted_response_bytes(ans);

            let shape = AnswerShape::of(ans);
            let c = self.tr.enter("crypto.sig_checks");
            let held = self.sut.replay_sig_checks(ans, &shape);
            self.tr.exit(c);
            self.layers.mismatches += u64::from(!held);
            if let Some(msg) = shape.chain_msgs.first().and_then(|m| m.first()) {
                if self.spec.bas {
                    let h = self.tr.enter("crypto.h2c");
                    let point = self.probe.hash_to_curve(msg);
                    self.tr.exit(h);
                    let check = self.tr.enter("crypto.pairing_check");
                    let m = self.tr.enter("crypto.miller");
                    let f = self.probe.miller(&point);
                    self.tr.exit(m);
                    let x = self.tr.enter("crypto.final_exp");
                    std::hint::black_box(self.probe.final_exp(&f));
                    self.tr.exit(x);
                    self.tr.exit(check);
                }
                let s = self.tr.enter("crypto.sign");
                std::hint::black_box(self.probe.sign(msg));
                self.tr.exit(s);
            }
            for ckpt in sut::checkpoints_of(ans) {
                let v = self.tr.enter("core.freshness.checkpoint_verify");
                let held = self.sut.checkpoint_verifies(ckpt);
                self.tr.exit(v);
                self.layers.mismatches += u64::from(!held);
            }
            for summary in sut::summaries_of(ans) {
                let b = self.tr.enter("filters.bitmap_decode");
                std::hint::black_box(sut::decode_bitmap(summary));
                self.tr.exit(b);
            }

            // The record set must be the DA's own.
            let want = self.sut.da_records(lo, hi);
            let got = ans.parts.iter().flat_map(|p| p.answer.records.iter());
            self.layers.mismatches += u64::from(!got.eq(want.iter()));

            self.layers.records += shape.records as u64;
            self.layers.hashes += shape.hashes() as u64;
            self.layers.sig_checks += shape.sig_checks() as u64;
            self.layers.summaries += shape.summaries as u64;
            self.layers.summary_bytes += shape.summary_bytes as u64;
            self.layers.checkpoint_bytes += shape.checkpoint_bytes as u64;
        }
        if received > 0 && answers.iter().all(Option::is_some) {
            let drift = (received as f64 - predicted as f64).abs() / received as f64;
            self.layers.wire_drift = self.layers.wire_drift.max(drift);
        }
        for summary in published {
            let bitmap = sut::decode_bitmap(summary);
            let c = self.tr.enter("filters.bitmap_compress");
            std::hint::black_box(sut::compress_bitmap(&bitmap));
            self.tr.exit(c);
        }
    }

    /// Run cycles for `span` of wall time; returns the time actually taken
    /// (the last cycle finishes past the deadline).
    pub fn run_for(&mut self, span: Duration) -> Duration {
        let start = Instant::now();
        while start.elapsed() < span {
            self.cycle();
        }
        start.elapsed()
    }

    /// The correctness gate, untimed and untraced: forge answers from a real
    /// one and require the typed rejection. `Err` names the probe that an
    /// "optimised" verifier let through.
    pub fn tamper_probes(&mut self) -> Result<(), String> {
        let was_tracing = self.tr.enabled();
        self.tr.set_enabled(false);
        let outcome = self.tamper_probes_untraced();
        self.tr.set_enabled(was_tracing);
        outcome
    }

    fn tamper_probes_untraced(&mut self) -> Result<(), String> {
        // Five whole decades inside shard 0: five records on every workload.
        let (lo, hi) = (3 * KEY_STRIDE, 8 * KEY_STRIDE - 1);
        let honest = self.honest(lo, hi)?;
        if honest.parts.len() != 1 || honest.parts[0].answer.records.len() != 5 {
            return Err("probe range did not return its five records".into());
        }

        let mut flipped = honest.clone();
        flipped.parts[0].answer.records[0].attrs[1] ^= 1;
        match self.sut.verify(lo, hi, &flipped) {
            Err(VerifyError::BadAggregate) => {}
            other => return Err(format!("flipped attribute: {other:?}, want BadAggregate")),
        }

        let mut dropped = honest.clone();
        dropped.parts[0].answer.records.remove(2);
        match self.sut.verify(lo, hi, &dropped) {
            Err(VerifyError::BadAggregate) => {}
            other => return Err(format!("dropped record: {other:?}, want BadAggregate")),
        }

        if !self.spec.live {
            return Ok(());
        }
        // Stale replay. Two quiet periods first: the first publication
        // re-certifies records updated twice in their period (the paper's
        // 2ρ rule — such a version is only exposed one summary later), the
        // second marks those re-certifications. After it every version the
        // old answer holds predates the period that will mark the update.
        let mut unused = Vec::new();
        for _ in 0..2 * RHO {
            self.tick(&mut unused);
        }
        let old = self.honest(lo, hi)?;
        let victim = old.parts[0].answer.records[2].clone();
        let update = Update {
            shard: 0,
            rid: victim.rid,
            attrs: vec![victim.attrs[0], victim.attrs[1] + 1],
        };
        for (shard, msg) in self.sut.da_update(&update) {
            self.sut.apply(shard, &msg);
        }
        for _ in 0..RHO {
            self.tick(&mut unused);
        }
        // The pre-update records under the current summaries and checkpoint
        // (the client gets those regardless of what the server replays).
        let mut replayed = self.honest(lo, hi)?;
        let part = &mut replayed.parts[0].answer;
        let old_part = &old.parts[0].answer;
        part.records = old_part.records.clone();
        part.agg = old_part.agg.clone();
        part.left_key = old_part.left_key;
        part.right_key = old_part.right_key;
        match self.sut.verify(lo, hi, &replayed) {
            Err(VerifyError::Stale { rid, .. }) if rid == victim.rid => Ok(()),
            other => Err(format!("stale replay: {other:?}, want Stale")),
        }
    }

    fn honest(&mut self, lo: i64, hi: i64) -> Result<Answer, String> {
        let ans = self
            .sut
            .select(lo, hi)
            .map_err(|e| format!("probe selection failed: {e}"))?;
        self.sut
            .verify(lo, hi, &ans)
            .map_err(|e| format!("honest probe answer rejected: {e:?}"))?;
        Ok(ans)
    }
}

/// The end-to-end numbers of one measure phase.
pub struct Measured {
    pub ops_per_s: f64,
    pub query_p50_ms: f64,
    pub query_p99_ms: f64,
    pub bytes_per_answer: f64,
}

/// The share of rounds, counted from the fastest, that a column is read at.
const QUIET: f64 = 10.0;

/// Warm up, then measure at least `seconds` of the closed loop in rounds of
/// `spec.round` cycles, each the same work. A round is kept as two rows: its
/// cycles' durations and its answers' latencies, in stream order where
/// rounds are compared by position, else sorted and the latencies thinned to
/// their hundred percentiles. The three timings are read off the run's quiet
/// round — column by column, the lower decile over all rounds: throughput is
/// a round's operations over the quiet durations' sum, p50 and p99 are
/// percentiles over the quiet latencies.
///
/// Why not medians and a p99 over the whole phase: the two-core sandbox
/// runs this loop at anything from full speed to 1.8 times slower, for
/// spells of a fifth of a second to minutes, with no steal time reported.
/// Whole-phase values follow the host (15 to 22 % spread over runs of one
/// commit), so do per-second medians, and a round's own p99 takes one slowed
/// answer to move. Interference only ever adds time and in most hours quiet
/// spells recur in every run, so the lower decile of each column holds still
/// (2 to 7 %) and still rises with whatever the program adds to that column.
pub fn measure(runner: &mut Runner, warm_up: Duration, seconds: f64) -> Measured {
    let spec = runner.spec;
    runner.run_for(warm_up);
    runner.tally = Tally::default();
    let bytes_before = runner.bytes_received();
    let (mut durations, mut latencies) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while durations.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut cycles_ms = Vec::with_capacity(spec.round);
        for _ in 0..spec.round {
            let t = Instant::now();
            runner.cycle();
            cycles_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let mut answers_ms = std::mem::take(&mut runner.tally.latencies_ms);
        if !spec.by_position {
            stats::sort(&mut cycles_ms);
            stats::sort(&mut answers_ms);
            answers_ms = stats::percentiles(&answers_ms);
        }
        durations.push(cycles_ms);
        latencies.push(answers_ms);
    }
    let took = start.elapsed().as_secs_f64();
    let rounds = durations.len();
    let ops = runner.tally.ops() as f64;
    let read = |p: f64| {
        let round_ms: f64 = stats::profile(&durations, p).iter().sum();
        let mut answers_ms = stats::profile(&latencies, p);
        stats::sort(&mut answers_ms);
        (
            ops / rounds as f64 / (round_ms / 1e3),
            stats::percentile(&answers_ms, 50.0),
            stats::percentile(&answers_ms, 99.0),
        )
    };
    let (ops_per_s, query_p50_ms, query_p99_ms) = read(QUIET);
    let typical = read(50.0);
    eprintln!(
        "ledger: {rounds} rounds of {} cycles in {took:.1} s, {:.1} ops/s over all of it; \
         the median round: {:.1} ops/s, p50 {:.3} ms, p99 {:.3} ms",
        spec.round,
        ops / took,
        typical.0,
        typical.1,
        typical.2
    );
    Measured {
        ops_per_s,
        query_p50_ms,
        query_p99_ms,
        bytes_per_answer: (runner.bytes_received() - bytes_before) as f64
            / runner.tally.answers.max(1) as f64,
    }
}
