//! Adversarial-server conformance subsystem.
//!
//! The verifier's security argument is only as good as the attacks it has
//! actually been run against. This module makes the adversary a first-class
//! component: a [`MaliciousServer`] wraps an honest [`ShardedQueryServer`]
//! and applies one strategy from a catalog to every answer it ships —
//! dropping, injecting, and reordering records, substituting stale
//! versions or the other scheme's aggregate, widening boundary keys,
//! forging and replaying gap proofs, withholding and reordering summaries,
//! truncating bitmaps, replaying empty-table proofs, and splicing,
//! withholding or swapping whole parts of a fan-out.
//!
//! Every catalog is one [`Strategy`] impl: each strategy declares which
//! [`VerifyError`] the verifier must reject it with and runs its own
//! scripted scenario, reporting a [`Conformance`] — what the verifier said
//! about the tampered artifact and whether the honest answer to the same
//! query still verified. The unit-test suite runs every arm of every
//! catalog under both the `Mock` scheme and real BAS crypto, so every
//! verifier change is regression-checked against the full attack surface.
//!
//! * [`Tamper`] — doctoring one shard's selection (part 0 of a one-shard
//!   fan-out).
//! * [`ShardTamper`] — attacking the fan-out itself: seam splice, shard
//!   withholding, seam widening, stale-shard replay, cross-shard summary
//!   swap.
//! * [`RebalanceTamper`] — two genuinely-certified partitions existing at
//!   once: stale-epoch replay, handoff forgery, split brain, broken
//!   transition chain.
//! * [`CheckpointTamper`] — history the verifier can no longer replay and
//!   must trust to a signed cut: forged covered-window digest, wrong-epoch
//!   map replay, gap-straddling
//!   cut, chain-break bootstrap, bundle rollback, against both
//!   checkpoint-anchored answers and client catch-up bundles — and the
//!   opening of the cut's exposure map an answer carries: a forged entry, a
//!   chunk at the wrong index, an omitted chunk, a dropped or surplus
//!   sibling, an understated signed maximum.
//!
//! Every scenario runs against one fixture — [`Deployment::catalog`] (one
//! shard for the [`Tamper`] arms) driven by the shared three-period timeline
//! ([`run_sharded_timeline`]) — which the network-fault catalog
//! ([`crate::netfault`]) and `authdb-net`'s loopback tests attack over TCP
//! too.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use authdb_crypto::signer::{Keypair, SchemeKind, Signature};

use authdb_core::da::DaConfig;
use authdb_core::freshness::{Exposure, UpdateSummary, EXPOSURE_CHUNK};
use authdb_core::record::{KEY_NEG_INF, KEY_POS_INF};
use authdb_core::shard::{
    RebalancePlan, ShardedAggregator, ShardedQueryServer, ShardedSelectionAnswer,
};
use authdb_core::verify::{EpochView, Verifier, VerifyError, VerifyReport};

use crate::deploy::{config, timeline, Deployment};

/// One catalog of attack strategies: what each is called, which rejection
/// pins it, and the scripted scenario that plays it against the verifier.
pub trait Strategy: Copy + 'static {
    /// Every strategy, in catalog order.
    const CATALOG: &'static [Self];

    /// Short printable name.
    fn name(self) -> &'static str;

    /// Whether `err` is the rejection this strategy must produce.
    fn expects(self, err: &VerifyError) -> bool;

    /// Play the strategy's scenario under `scheme`.
    fn run(self, scheme: SchemeKind) -> Conformance;
}

/// Outcome of one catalog entry.
pub struct Conformance {
    /// Whether the honest counterpart (answer, transition or bootstrap
    /// bundle) was accepted.
    pub honest_ok: bool,
    /// What the verifier said about the tampered artifact.
    pub outcome: Result<VerifyReport, VerifyError>,
}

/// One way a malicious query server can doctor one shard's answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tamper {
    /// Silently drop a qualifying record from the middle of the result.
    DropRecord,
    /// Inject a fabricated (unsigned) record into the result.
    InjectRecord,
    /// Replace the aggregate with one of the *other* scheme over the same
    /// messages: the codec decodes either scheme without context, so the
    /// verifier is the only gate.
    ForeignSchemeAggregate,
    /// Swap two records to hide a chain splice.
    ReorderRecords,
    /// Replay a superseded answer captured before an update, attaching the
    /// currently published summaries.
    StaleVersion,
    /// Widen a boundary key beyond what the chain certifies.
    WidenBoundary,
    /// Truncate the result tail and move the right boundary inward.
    TruncateTail,
    /// Widen a gap proof's certified neighbour key.
    ForgeGapKeys,
    /// Replay a genuine gap proof against a range it does not bracket
    /// (forging the answer's boundary keys so only the gap check can see).
    ReplayGapElsewhere,
    /// Serve a gap proof whose bracketing record has been superseded.
    StaleGapRecord,
    /// Withhold every summary after an early one, hiding later updates.
    WithholdSummarySuffix,
    /// Serve a stale answer with only a clean, contiguous, *recent* suffix
    /// of summaries — the exposing summary hidden in the withheld prefix.
    WithholdSummaryPrefix,
    /// Present the summaries out of order / with a broken seq chain.
    ReorderSummaries,
    /// Truncate a summary's compressed bitmap.
    TruncateBitmap,
    /// Replay an empty-table proof from before an insertion.
    ReplayVacancy,
}

impl Strategy for Tamper {
    const CATALOG: &'static [Tamper] = &[
        Tamper::DropRecord,
        Tamper::InjectRecord,
        Tamper::ForeignSchemeAggregate,
        Tamper::ReorderRecords,
        Tamper::StaleVersion,
        Tamper::WidenBoundary,
        Tamper::TruncateTail,
        Tamper::ForgeGapKeys,
        Tamper::ReplayGapElsewhere,
        Tamper::StaleGapRecord,
        Tamper::WithholdSummarySuffix,
        Tamper::WithholdSummaryPrefix,
        Tamper::ReorderSummaries,
        Tamper::TruncateBitmap,
        Tamper::ReplayVacancy,
    ];

    fn name(self) -> &'static str {
        match self {
            Tamper::DropRecord => "drop-record",
            Tamper::InjectRecord => "inject-record",
            Tamper::ForeignSchemeAggregate => "foreign-scheme-aggregate",
            Tamper::ReorderRecords => "reorder-records",
            Tamper::StaleVersion => "stale-version",
            Tamper::WidenBoundary => "widen-boundary",
            Tamper::TruncateTail => "truncate-tail",
            Tamper::ForgeGapKeys => "forge-gap-keys",
            Tamper::ReplayGapElsewhere => "replay-gap-elsewhere",
            Tamper::StaleGapRecord => "stale-gap-record",
            Tamper::WithholdSummarySuffix => "withhold-summary-suffix",
            Tamper::WithholdSummaryPrefix => "withhold-summary-prefix",
            Tamper::ReorderSummaries => "reorder-summaries",
            Tamper::TruncateBitmap => "truncate-bitmap",
            Tamper::ReplayVacancy => "replay-vacancy",
        }
    }

    fn expects(self, err: &VerifyError) -> bool {
        use VerifyError::*;
        match self {
            Tamper::DropRecord
            | Tamper::InjectRecord
            | Tamper::ForeignSchemeAggregate
            | Tamper::WidenBoundary
            | Tamper::ForgeGapKeys => matches!(err, BadAggregate),
            Tamper::ReorderRecords => matches!(err, Unsorted),
            Tamper::TruncateTail => matches!(err, BadBoundary),
            Tamper::ReplayGapElsewhere => matches!(err, BadGapProof),
            Tamper::StaleVersion | Tamper::StaleGapRecord => matches!(err, Stale { .. }),
            Tamper::WithholdSummarySuffix
            | Tamper::WithholdSummaryPrefix
            | Tamper::ReorderSummaries => {
                matches!(err, FreshnessIndeterminate { .. })
            }
            Tamper::TruncateBitmap => matches!(err, BadSummarySignature { .. }),
            Tamper::ReplayVacancy => matches!(err, StaleVacancy { .. }),
        }
    }

    fn run(self, scheme: SchemeKind) -> Conformance {
        match self {
            Tamper::ReplayVacancy => vacancy_scenario(scheme, self),
            _ => selection_scenario(scheme, self),
        }
    }
}

/// A query server under adversarial control: forwards the DA's updates and
/// summaries honestly (it must, to keep its replica usable) but doctors
/// every answer according to its strategy `T` — a [`Tamper`] (part 0 of a
/// one-shard fan-out) or a [`ShardTamper`] (the fan-out itself). Replay
/// strategies additionally hoard earlier honest answers via
/// [`MaliciousServer::capture`].
pub struct MaliciousServer<T> {
    inner: ShardedQueryServer,
    tamper: T,
    captured: Option<ShardedSelectionAnswer>,
}

impl<T: Copy> MaliciousServer<T> {
    /// Put `inner` under adversarial control with one tamper strategy.
    pub fn new(inner: ShardedQueryServer, tamper: T) -> Self {
        MaliciousServer {
            inner,
            tamper,
            captured: None,
        }
    }

    /// The wrapped honest server.
    pub fn inner(&self) -> &ShardedQueryServer {
        &self.inner
    }

    /// Record the honest answer to `lo..=hi` now, for later replay.
    pub fn capture(&mut self, lo: i64, hi: i64) {
        self.captured = Some(
            self.inner
                .select_range(lo, hi)
                .expect("selections are never refused"),
        );
    }

    /// `shard`'s current summary stream — what a client fetches
    /// independently, so a replayer cannot avoid attaching it.
    fn current_summaries(&self, shard: usize) -> Vec<Arc<UpdateSummary>> {
        self.inner.with_shard(shard, |qs| qs.summaries().to_vec())
    }
}

impl MaliciousServer<Tamper> {
    /// Answer a range selection from a one-shard deployment, its single
    /// part doctored per the active strategy.
    pub fn select_range(&mut self, lo: i64, hi: i64) -> ShardedSelectionAnswer {
        let mut fanout = match self.tamper {
            Tamper::StaleVersion
            | Tamper::StaleGapRecord
            | Tamper::ReplayGapElsewhere
            | Tamper::ReplayVacancy
            | Tamper::WithholdSummaryPrefix => {
                // Replays ship a hoarded answer; the client fetches the
                // current summaries independently, so the attacker cannot
                // avoid attaching them.
                let mut a = self.captured.clone().expect("capture before replay");
                a.parts[0].answer.summaries = self.current_summaries(0);
                a
            }
            _ => self
                .inner
                .select_range(lo, hi)
                .expect("selections are never refused"),
        };
        let ans = &mut fanout.parts[0].answer;
        match self.tamper {
            Tamper::DropRecord => {
                let mid = ans.records.len() / 2;
                ans.records.remove(mid);
            }
            Tamper::InjectRecord => {
                // Fabricate a record with an in-range key (a duplicate of
                // an existing one, so ordering still holds).
                let mut forged = ans.records[0].clone();
                forged.attrs[1] = forged.attrs[1].wrapping_add(1);
                ans.records.insert(1, forged);
            }
            Tamper::ForeignSchemeAggregate => {
                // Re-sign the part's chained messages exactly as the
                // verifier rebuilds them, under a key of the other scheme.
                let schema = DaConfig::small().schema;
                let keys: Vec<i64> = ans.records.iter().map(|r| r.key(&schema)).collect();
                let other = match ans.agg.kind() {
                    SchemeKind::Bas => SchemeKind::Mock,
                    SchemeKind::Mock => SchemeKind::Bas,
                };
                let kp = Keypair::generate(other, &mut StdRng::seed_from_u64(1337));
                let sigs: Vec<Signature> = ans
                    .records
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        let left = i.checked_sub(1).map_or(ans.left_key, |j| keys[j]);
                        let right = keys.get(i + 1).copied().unwrap_or(ans.right_key);
                        kp.sign(&r.chain_message(&schema, left, right))
                    })
                    .collect();
                let pp = kp.public_params();
                ans.agg = sigs
                    .iter()
                    .fold(pp.identity(), |acc, s| pp.aggregate(&acc, s));
            }
            Tamper::ReorderRecords => ans.records.swap(0, 1),
            Tamper::WidenBoundary => {
                ans.left_key = ans.left_key.saturating_sub(5);
            }
            Tamper::TruncateTail => {
                let keep = ans.records.len() / 2;
                ans.records.truncate(keep);
                let last = ans.records.last().expect("nonempty");
                ans.right_key = last.key(&DaConfig::small().schema).saturating_add(1);
            }
            Tamper::ForgeGapKeys => {
                let g = ans.gap.as_mut().expect("gap answer");
                g.right_key = g.right_key.saturating_add(1_000);
            }
            Tamper::ReplayGapElsewhere => {
                // Forge the answer-level boundary keys so only the gap
                // bracketing check can catch the replay.
                ans.left_key = KEY_NEG_INF;
                ans.right_key = KEY_POS_INF;
            }
            Tamper::WithholdSummarySuffix => ans.summaries.truncate(1),
            Tamper::WithholdSummaryPrefix => {
                // Keep only the newest summary: contiguous and recent, but
                // the exposing summary is gone from the middle of history.
                let n = ans.summaries.len();
                ans.summaries.drain(..n - 1);
            }
            Tamper::ReorderSummaries => ans.summaries.swap(0, 1),
            Tamper::TruncateBitmap => {
                // Summaries are Arc-shared with the server's log; tamper a
                // private copy so only this answer is corrupted.
                let s = Arc::make_mut(ans.summaries.last_mut().expect("summaries present"));
                let half = s.compressed.len() / 2;
                s.compressed.truncate(half);
            }
            Tamper::StaleVersion | Tamper::StaleGapRecord | Tamper::ReplayVacancy => {}
        }
        fanout
    }
}

/// The opened slot holding `rid`'s entry in a checkpoint's exposure
/// opening, if the opening has it: where a forged entry goes.
pub fn entry_mut(exposure: &mut Exposure, rid: u64) -> Option<&mut u64> {
    let at = rid / EXPOSURE_CHUNK as u64;
    let held = exposure
        .chunks
        .binary_search_by_key(&at, |&(at, _)| at)
        .ok();
    held.and_then(|k| exposure.chunks.get_mut(k))
        .and_then(|(_, chunk)| chunk.get_mut((rid % EXPOSURE_CHUNK as u64) as usize))
}

/// Advance the DA by `dt` and forward whatever summaries fall due.
pub fn tick_and_publish(sa: &mut ShardedAggregator, sqs: &ShardedQueryServer, dt: u64) {
    sa.advance_clock(dt);
    sqs.ingest(sa.maybe_publish_summaries());
}

/// The timeline's update in a one-shard deployment: rid 23 (key 230) takes
/// a new value in place.
fn value_update() -> (usize, u64, Vec<i64>) {
    (0, 23, vec![230, 777])
}

/// The shared [`timeline`] on a multi-shard deployment: the update moves shard
/// 1's second record (local rid 1) five keys up — a key change inside the
/// shard that re-chains its neighbours.
pub fn run_sharded_timeline(sa: &mut ShardedAggregator, sqs: &ShardedQueryServer) {
    let moved = vec![sa.map().splits()[0] + 15, 777];
    timeline(sa, sqs, (1, 1, moved));
}

/// Judge a tampered answer to `lo..=hi` beside the honest one.
fn judge(
    (v, view, now): (&Verifier, &EpochView, u64),
    (lo, hi): (i64, i64),
    tampered: &ShardedSelectionAnswer,
    honest: &ShardedSelectionAnswer,
) -> Conformance {
    let mut rng = StdRng::seed_from_u64(1337);
    let mut verify = |ans| v.verify_sharded_selection(lo, hi, ans, view, now, true, &mut rng);
    let outcome = verify(tampered);
    Conformance {
        honest_ok: verify(honest).is_ok(),
        outcome,
    }
}

/// Run one selection-catalog scenario.
fn selection_scenario(scheme: SchemeKind, tamper: Tamper) -> Conformance {
    let mut d = Deployment::catalog(config(scheme), 1, 40);
    let mut mal = MaliciousServer::new(d.sqs, tamper);
    // The query each strategy answers (and is judged against).
    let range = match tamper {
        Tamper::ForgeGapKeys => (101, 109),
        Tamper::ReplayGapElsewhere | Tamper::StaleGapRecord => (231, 239),
        _ => (100, 300),
    };
    // Replays capture their victim answer before the update lands.
    match tamper {
        Tamper::StaleVersion | Tamper::WithholdSummaryPrefix => mal.capture(100, 300),
        Tamper::StaleGapRecord => mal.capture(231, 239),
        Tamper::ReplayGapElsewhere => mal.capture(101, 109),
        _ => {}
    }
    timeline(&mut d.sa, mal.inner(), value_update());
    let tampered = mal.select_range(range.0, range.1);
    let honest = mal.inner().select_range(range.0, range.1).unwrap();
    judge((&d.v, &d.view, d.sa.now()), range, &tampered, &honest)
}

/// At t=3 a record with key 50 lands in the (empty) table; the summary
/// marking it is published at t=12.
fn insert_into_empty_table(sa: &mut ShardedAggregator, sqs: &ShardedQueryServer) {
    sa.advance_clock(3);
    let (shard, msgs) = sa.insert(vec![50, 1]);
    for m in &msgs {
        sqs.apply(shard, m);
    }
    tick_and_publish(sa, sqs, 9);
}

/// Run the empty-table replay scenario.
fn vacancy_scenario(scheme: SchemeKind, tamper: Tamper) -> Conformance {
    let mut d = Deployment::catalog(config(scheme), 1, 0);
    let mut mal = MaliciousServer::new(d.sqs, tamper);
    // Hoard the pre-insert vacancy answer...
    mal.capture(0, 100);
    // ...then the world moves on: an insert lands and is summarized.
    insert_into_empty_table(&mut d.sa, mal.inner());
    let tampered = mal.select_range(0, 100);
    let honest = mal.inner().select_range(0, 100).unwrap();
    judge((&d.v, &d.view, d.sa.now()), (0, 100), &tampered, &honest)
}

// ---------------------------------------------------------------------------
// Cross-shard strategies
// ---------------------------------------------------------------------------

/// One way a malicious server can doctor a *sharded* fan-out answer. These
/// target the seams and the per-shard freshness domains — exactly the
/// surface the one-shard catalog cannot reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardTamper {
    /// Move a seam-adjacent record across the split: drop it from the shard
    /// that owns it and present it in the neighbouring shard's answer.
    SeamSplice,
    /// Omit an overlapping shard's answer entirely (and the records in it).
    ShardWithhold,
    /// Forge a shard's boundary key past its seam fence, shrinking the key
    /// range its completeness proof accounts for.
    SeamWiden,
    /// One shard answers from an old epoch (a pre-update replay) while the
    /// other shards answer fresh.
    StaleShardReplay,
    /// Vouch for a stale shard's answer with a *different* shard's fresh,
    /// genuinely signed summary stream.
    SummarySwap,
}

impl Strategy for ShardTamper {
    const CATALOG: &'static [ShardTamper] = &[
        ShardTamper::SeamSplice,
        ShardTamper::ShardWithhold,
        ShardTamper::SeamWiden,
        ShardTamper::StaleShardReplay,
        ShardTamper::SummarySwap,
    ];

    fn name(self) -> &'static str {
        match self {
            ShardTamper::SeamSplice => "seam-splice",
            ShardTamper::ShardWithhold => "shard-withhold",
            ShardTamper::SeamWiden => "seam-widen",
            ShardTamper::StaleShardReplay => "stale-shard-replay",
            ShardTamper::SummarySwap => "summary-swap",
        }
    }

    fn expects(self, err: &VerifyError) -> bool {
        use VerifyError::*;
        match self {
            // The moved record's key is outside the receiving shard's
            // signed sub-range.
            ShardTamper::SeamSplice => matches!(err, RecordOutOfRange { .. }),
            ShardTamper::ShardWithhold => matches!(err, ShardWithheld { .. }),
            ShardTamper::SeamWiden => matches!(err, SeamViolation { .. }),
            ShardTamper::StaleShardReplay => matches!(err, Stale { .. }),
            ShardTamper::SummarySwap => matches!(err, ShardMismatch { .. }),
        }
    }

    fn run(self, scheme: SchemeKind) -> Conformance {
        shard_scenario(scheme, self)
    }
}

impl MaliciousServer<ShardTamper> {
    /// Answer a range selection, doctored per the active strategy. The
    /// scripted scenario queries a range straddling the first seam, so the
    /// fan-out always has at least two parts.
    pub fn select_range(&mut self, lo: i64, hi: i64) -> ShardedSelectionAnswer {
        let mut ans = self
            .inner
            .select_range(lo, hi)
            .expect("selections are never refused");
        match self.tamper {
            ShardTamper::SeamSplice => {
                // The last record left of the seam crosses it: dropped from
                // its owner, smuggled into the neighbour's answer. (The
                // attacker also rebuilds the aggregates, but the structural
                // checks fire first — the alien key is out of sub-range.)
                let moved = ans.parts[0]
                    .answer
                    .records
                    .pop()
                    .expect("seam-adjacent record");
                ans.parts[1].answer.records.insert(0, moved);
            }
            ShardTamper::ShardWithhold => {
                ans.parts.remove(1);
            }
            ShardTamper::SeamWiden => {
                // Truncate the seam-adjacent tail and claim the shard's
                // responsibility ended early — a boundary key past the
                // signed fence.
                let a = &mut ans.parts[0].answer;
                a.records.pop();
                a.right_key = a.right_key.saturating_add(1_000);
            }
            ShardTamper::StaleShardReplay => {
                // Replay one shard's pre-update answer. The client fetches
                // that shard's current summaries independently, so the
                // attacker cannot avoid attaching them.
                let donor = ans.parts[1].shard;
                self.replay_stale_part(&mut ans, donor);
            }
            ShardTamper::SummarySwap => {
                // Same stale replay, but vouched for with the *neighbour*
                // shard's fresh summaries (which never mark the withheld
                // update — their bitmaps cover different rids).
                let donor = ans.parts[0].shard;
                self.replay_stale_part(&mut ans, donor);
            }
        }
        ans
    }

    /// Swap the second part's answer for its captured pre-update version,
    /// attaching `summary_donor`'s current summary stream.
    fn replay_stale_part(&self, ans: &mut ShardedSelectionAnswer, summary_donor: usize) {
        let old = self
            .captured
            .as_ref()
            .expect("capture before replay")
            .parts
            .iter()
            .find(|p| p.shard == ans.parts[1].shard)
            .expect("captured part")
            .answer
            .clone();
        ans.parts[1].answer = old;
        ans.parts[1].answer.summaries = self.current_summaries(summary_donor);
    }
}

/// Run one cross-shard scenario: two shards split at key 200, a query
/// straddling the seam, and the shared three-period timeline with an
/// update landing in shard 1.
fn shard_scenario(scheme: SchemeKind, tamper: ShardTamper) -> Conformance {
    let mut d = Deployment::catalog(config(scheme), 2, 40);
    let mut mal = MaliciousServer::new(d.sqs, tamper);
    let (lo, hi) = (150, 250);
    // Replays hoard the pre-update fan-out.
    if matches!(
        tamper,
        ShardTamper::StaleShardReplay | ShardTamper::SummarySwap
    ) {
        mal.capture(lo, hi);
    }
    run_sharded_timeline(&mut d.sa, mal.inner());
    let tampered = mal.select_range(lo, hi);
    let honest = mal
        .inner()
        .select_range(lo, hi)
        .expect("selections are never refused");
    judge((&d.v, &d.view, d.sa.now()), (lo, hi), &tampered, &honest)
}

// ---------------------------------------------------------------------------
// Rebalancing (cross-epoch) strategies
// ---------------------------------------------------------------------------

/// One way a malicious server can exploit an epoch transition. These target
/// exactly the surface a *static* partition never exposes: two
/// genuinely-certified partitions existing at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebalanceTamper {
    /// Replay a complete pre-rebalance answer — old map, old parts — after
    /// the client has observed the epoch transition.
    StaleEpochReplay,
    /// Serve records signed under the *old* fences inside the new epoch's
    /// fan-out: the pre-split shard's answer, which spans past the new
    /// seam, presented as the split-off shard's part (dressed with the new
    /// epoch's genuine summaries so only the seam structure can object).
    HandoffForgery,
    /// Split brain: answer one sub-query from epoch-N state (old records,
    /// old summary stream) while the rest of the fan-out is epoch-N+1.
    SplitBrain,
    /// Break the transition chain the client advances its epoch with:
    /// splice in a transition whose parent hash does not extend the
    /// pinned map.
    TransitionBreak,
}

impl Strategy for RebalanceTamper {
    const CATALOG: &'static [RebalanceTamper] = &[
        RebalanceTamper::StaleEpochReplay,
        RebalanceTamper::HandoffForgery,
        RebalanceTamper::SplitBrain,
        RebalanceTamper::TransitionBreak,
    ];

    fn name(self) -> &'static str {
        match self {
            RebalanceTamper::StaleEpochReplay => "stale-epoch-replay",
            RebalanceTamper::HandoffForgery => "handoff-forgery",
            RebalanceTamper::SplitBrain => "split-brain",
            RebalanceTamper::TransitionBreak => "transition-break",
        }
    }

    fn expects(self, err: &VerifyError) -> bool {
        use VerifyError::*;
        match self {
            RebalanceTamper::StaleEpochReplay => matches!(err, StaleEpoch { .. }),
            // The old-fence records spill past the new seam's sub-range.
            RebalanceTamper::HandoffForgery => matches!(err, RecordOutOfRange { .. }),
            RebalanceTamper::SplitBrain => matches!(err, EpochMismatch { .. }),
            RebalanceTamper::TransitionBreak => matches!(err, BrokenTransition),
        }
    }

    fn run(self, scheme: SchemeKind) -> Conformance {
        rebalance_scenario(scheme, self)
    }
}

/// Run one rebalancing scenario: a 2-shard deployment (split at 200) runs
/// the shared three-period timeline, then the DA splits shard 1 at key 300
/// (epoch 1 → 2). The strategy attacks the transition or the first
/// post-transition answers.
fn rebalance_scenario(scheme: SchemeKind, tamper: RebalanceTamper) -> Conformance {
    let Deployment {
        mut sa,
        sqs,
        v,
        mut view,
        ..
    } = Deployment::catalog(config(scheme), 2, 40);
    let pp = sa.public_params();
    // The shared timeline: summaries exist, an update lands in shard 1.
    run_sharded_timeline(&mut sa, &sqs);
    // Epoch-1 state the attacker hoards on the eve of the transition: a
    // seam-straddling answer (with the epoch-1 summary streams attached)
    // and the pre-split shard's answer spanning what will become the new
    // seam.
    let old_straddle = sqs.select_range(150, 250).expect("chained");
    let old_span = sqs.select_range(250, 350).expect("chained");
    // The rebalance: split shard 1 (keys >= 200) at 300.
    let rb = sa.rebalance(RebalancePlan::Split { shard: 1, at: 300 }, 2);
    sqs.apply_rebalance(&rb).expect("honest rebalance applies");

    if tamper == RebalanceTamper::TransitionBreak {
        // The attack happens at view-advance time: a spliced transition
        // whose parent hash does not extend the pinned map.
        let mut forged = rb.transition.clone();
        forged.parent_hash[0] ^= 0xFF;
        let outcome = view.advance(&forged, &pp).map(|()| VerifyReport::default());
        let honest_ok = view.advance(&rb.transition, &pp).is_ok();
        return Conformance { honest_ok, outcome };
    }

    view.advance(&rb.transition, &pp)
        .expect("honest transition");
    let now = sa.now();
    let (lo, hi, tampered) = match tamper {
        RebalanceTamper::StaleEpochReplay => (150, 250, old_straddle),
        RebalanceTamper::HandoffForgery => {
            // New fan-out for a range straddling the NEW seam (300); the
            // part for new shard 1 is replaced by the pre-split shard's
            // answer to the whole range — genuinely signed, but its chain
            // terminates at the old fences and its records spill past the
            // new seam. The forger dresses it with the new epoch's genuine
            // stream so only the seam structure can object.
            let mut ans = sqs.select_range(250, 350).expect("chained");
            assert_eq!(ans.parts[0].shard, 1);
            let mut forged_part = old_span.parts[0].answer.clone();
            forged_part.summaries = sqs.with_shard(1, |qs| qs.summaries().to_vec());
            // The forger also clamps the claimed right boundary onto the
            // new fence so the seam check cannot object; the records
            // spilling past the new seam are the remaining giveaway.
            forged_part.right_key = 300;
            ans.parts[0].answer = forged_part;
            (250, 350, ans)
        }
        RebalanceTamper::SplitBrain => {
            // Shard 0 survived the split; serve its sub-query from epoch-1
            // state (old records, old epoch-1 summary stream) while shard
            // 1 answers under epoch 2.
            let mut ans = sqs.select_range(150, 250).expect("chained");
            assert_eq!(ans.parts[0].shard, 0);
            ans.parts[0].answer = old_straddle.parts[0].answer.clone();
            (150, 250, ans)
        }
        RebalanceTamper::TransitionBreak => unreachable!("handled above"),
    };
    let honest = sqs
        .select_range(lo, hi)
        .expect("selections are never refused");
    judge((&v, &view, now), (lo, hi), &tampered, &honest)
}

// ---------------------------------------------------------------------------
// Checkpoint (compacted-history) strategies
// ---------------------------------------------------------------------------

/// One way a malicious server can exploit certified checkpoints. These
/// target exactly the surface compaction opens up: history the verifier
/// can no longer replay summary-by-summary (or epoch-by-epoch) and must
/// instead trust to a signed cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointTamper {
    /// Doctor the summary checkpoint's covered window — claim the cut
    /// reaches one summary further than the DA certified, stretching it
    /// over history the attacker would rather not account for.
    ForgedDigest,
    /// Vouch for a *different* genuinely-signed map with the live epoch
    /// checkpoint: a stale-map replay dressed with current certification.
    WrongEpochReplay,
    /// Withhold the retained summary that bridges the cut, leaving seqs
    /// between the checkpoint's covered window and the served run that
    /// nobody accounts for.
    GapStraddlingCut,
    /// Bootstrap a fresh client over a spliced chain: the transition in
    /// the bundle is a different (still genuinely signed) link than the
    /// one the checkpoint hash-chains to.
    ChainBreakBootstrap,
    /// Answer a pinned client's catch-up with a genuine, fully consistent
    /// bundle of an *older* epoch — every signature verifies; only the
    /// client's own pinned epoch says the server is rolling it back.
    BundleRollback,
    /// Replay a version a *compacted* summary exposed, zeroing the entry
    /// that says so in the chunk the checkpoint opens.
    ForgedOpenedEntry,
    /// The same replay with the opened chunks' contents swapped — each a
    /// genuine chunk of the map, at the other's index — so the replayed
    /// rid reads a never-marked rid's entry.
    ChunkAtWrongIndex,
    /// The same replay under the genuine checkpoint opened for *other*
    /// rids: a valid opening that leaves the exposing entry's chunk out.
    OmittedOpening,
    /// Replay a pre-insertion vacancy claim under a checkpoint whose signed
    /// maximum is understated to "nothing was ever marked".
    UnderstatedMax,
    /// The stale replay with the opening's last sibling digest dropped…
    DroppedSibling,
    /// …or with one digest too many.
    SurplusSibling,
}

impl Strategy for CheckpointTamper {
    const CATALOG: &'static [CheckpointTamper] = &[
        CheckpointTamper::ForgedDigest,
        CheckpointTamper::WrongEpochReplay,
        CheckpointTamper::GapStraddlingCut,
        CheckpointTamper::ChainBreakBootstrap,
        CheckpointTamper::BundleRollback,
        CheckpointTamper::ForgedOpenedEntry,
        CheckpointTamper::ChunkAtWrongIndex,
        CheckpointTamper::OmittedOpening,
        CheckpointTamper::UnderstatedMax,
        CheckpointTamper::DroppedSibling,
        CheckpointTamper::SurplusSibling,
    ];

    fn name(self) -> &'static str {
        match self {
            CheckpointTamper::ForgedDigest => "forged-digest",
            CheckpointTamper::WrongEpochReplay => "wrong-epoch-replay",
            CheckpointTamper::GapStraddlingCut => "gap-straddling-cut",
            CheckpointTamper::ChainBreakBootstrap => "chain-break-bootstrap",
            CheckpointTamper::BundleRollback => "bundle-rollback",
            CheckpointTamper::ForgedOpenedEntry => "forged-opened-entry",
            CheckpointTamper::ChunkAtWrongIndex => "chunk-at-wrong-index",
            CheckpointTamper::OmittedOpening => "omitted-opening",
            CheckpointTamper::UnderstatedMax => "understated-max",
            CheckpointTamper::DroppedSibling => "dropped-sibling",
            CheckpointTamper::SurplusSibling => "surplus-sibling",
        }
    }

    fn expects(self, err: &VerifyError) -> bool {
        use VerifyError::*;
        match self {
            CheckpointTamper::ForgedDigest
            | CheckpointTamper::WrongEpochReplay
            | CheckpointTamper::ChainBreakBootstrap
            | CheckpointTamper::ForgedOpenedEntry
            | CheckpointTamper::ChunkAtWrongIndex
            | CheckpointTamper::UnderstatedMax
            | CheckpointTamper::DroppedSibling
            | CheckpointTamper::SurplusSibling => matches!(err, BadCheckpoint),
            CheckpointTamper::GapStraddlingCut => matches!(err, CheckpointGap { .. }),
            // Rids 10..=15 share the one chunk the opening does hold.
            CheckpointTamper::OmittedOpening => matches!(err, CheckpointUnopened { rid: 16 }),
            CheckpointTamper::BundleRollback => matches!(
                err,
                StaleEpoch {
                    answer_epoch: 2,
                    live_epoch: 3
                }
            ),
        }
    }

    /// Bundle strategies attack the client catch-up bundle; the rest
    /// doctor checkpoint-anchored answers or replay under doctored
    /// openings.
    fn run(self, scheme: SchemeKind) -> Conformance {
        match self {
            CheckpointTamper::WrongEpochReplay
            | CheckpointTamper::ChainBreakBootstrap
            | CheckpointTamper::BundleRollback => checkpoint_bootstrap_scenario(scheme, self),
            CheckpointTamper::ForgedDigest | CheckpointTamper::GapStraddlingCut => {
                checkpoint_answer_scenario(scheme, self)
            }
            CheckpointTamper::ForgedOpenedEntry
            | CheckpointTamper::ChunkAtWrongIndex
            | CheckpointTamper::OmittedOpening
            | CheckpointTamper::UnderstatedMax
            | CheckpointTamper::DroppedSibling
            | CheckpointTamper::SurplusSibling => opening_scenario(scheme, self),
        }
    }
}

/// A one-shard deployment after the shared three-period timeline, with
/// everything but the last two summaries compacted (the cut covers seq 0;
/// seqs 1 and 2 stay retained as the run the checkpoint anchors).
fn checkpointed_system(scheme: SchemeKind) -> Deployment {
    let mut d = Deployment::catalog(config(scheme), 1, 40);
    timeline(&mut d.sa, &d.sqs, value_update());
    d.checkpoint(0, 2).expect("compactable");
    d
}

/// `old`'s single part replayed the only way a client would look at it:
/// under the summaries and the checkpoint `current` carries.
fn replay_under(
    old: &ShardedSelectionAnswer,
    current: &ShardedSelectionAnswer,
) -> ShardedSelectionAnswer {
    let mut replay = old.clone();
    let part = &mut replay.parts[0].answer;
    part.summaries = current.parts[0].answer.summaries.clone();
    part.checkpoint = current.parts[0].answer.checkpoint.clone();
    replay
}

/// Run one opening scenario: a replay from before the cut under the
/// current artifacts, the checkpoint's opening doctored to get it through.
///
/// For the understated maximum the table starts empty, an insertion is
/// marked by seq 0, and the pre-insertion vacancy claim comes back: a
/// vacancy is judged by the checkpoint's *signed* maximum. For the rest the
/// timeline's update to rid 23 is marked by seq 1 and the pre-update answer
/// to `100..=300` — rids 10..=30, chunks 0 and 1 of the map's three — comes
/// back: the opened entry for rid 23 stands in its way. Either way the cut
/// covers the marking (one summary stays), so the replay left alone is
/// `StaleCheckpoint`.
fn opening_scenario(scheme: SchemeKind, tamper: CheckpointTamper) -> Conformance {
    let vacancy = tamper == CheckpointTamper::UnderstatedMax;
    let (n, (lo, hi)) = if vacancy {
        (0, (0, 100))
    } else {
        (40, (100, 300))
    };
    let mut d = Deployment::catalog(config(scheme), 1, n);
    let old = d.select(lo, hi);
    if vacancy {
        insert_into_empty_table(&mut d.sa, &d.sqs);
        tick_and_publish(&mut d.sa, &d.sqs, 10);
    } else {
        timeline(&mut d.sa, &d.sqs, value_update());
    }
    d.checkpoint(0, 1).expect("compactable");
    let honest = d.select(lo, hi);
    let mut tampered = replay_under(&old, &honest);
    let ckpt = tampered.parts[0].answer.checkpoint.as_mut();
    let exposure = &mut ckpt.expect("checkpoint attached").exposure;
    match tamper {
        CheckpointTamper::ForgedOpenedEntry => {
            let entry = entry_mut(exposure, 23).expect("rid 23 opened");
            assert_ne!(std::mem::take(entry), 0, "the cut exposes rid 23");
        }
        CheckpointTamper::ChunkAtWrongIndex => {
            // Rid 23 now reads rid 7's entry: never marked.
            let (low, high) = (exposure.chunks[0].1, exposure.chunks[1].1);
            exposure.chunks[0].1 = high;
            exposure.chunks[1].1 = low;
        }
        CheckpointTamper::OmittedOpening => {
            // What the server attaches to rids 0..=15: chunk 0 alone, with
            // the siblings that make it a valid opening.
            let other = d.select(0, 150);
            tampered = replay_under(&old, &other);
        }
        CheckpointTamper::UnderstatedMax => {
            assert_ne!(std::mem::take(&mut exposure.max), 0, "the cut records it");
        }
        CheckpointTamper::DroppedSibling => {
            assert!(exposure.siblings.pop().is_some(), "chunk 2's leaf");
        }
        CheckpointTamper::SurplusSibling => exposure.siblings.push(exposure.root),
        _ => unreachable!("not an opening tamper"),
    }
    judge((&d.v, &d.view, d.sa.now()), (lo, hi), &tampered, &honest)
}

/// Run one checkpoint-anchored-answer scenario.
fn checkpoint_answer_scenario(scheme: SchemeKind, tamper: CheckpointTamper) -> Conformance {
    let d = checkpointed_system(scheme);
    let honest = d.select(100, 300);
    let mut tampered = honest.clone();
    let part = &mut tampered.parts[0].answer;
    match tamper {
        CheckpointTamper::ForgedDigest => {
            // Stretch the claimed cut one summary past what the DA signed.
            let c = part.checkpoint.as_mut().expect("checkpoint attached");
            c.through_seq += 1;
        }
        CheckpointTamper::GapStraddlingCut => {
            // The cut covers through seq 0; withholding retained seq 1
            // leaves it covered by nobody.
            part.summaries.remove(0);
        }
        _ => unreachable!("not a selection-answer tamper"),
    }
    judge((&d.v, &d.view, d.sa.now()), (100, 300), &tampered, &honest)
}

/// Run one catch-up-bundle scenario: a 2-shard deployment (split at 200)
/// rebalances twice (split at 300, then merge — epoch 1 → 3), and a fresh
/// client pins the live epoch from the server's certified bundle. The
/// strategy doctors the bundle — or, for the rollback, answers the
/// now-pinned client's next catch-up with the epoch-2 bundle.
fn checkpoint_bootstrap_scenario(scheme: SchemeKind, tamper: CheckpointTamper) -> Conformance {
    let Deployment { mut sa, sqs, .. } = Deployment::catalog(config(scheme), 2, 40);
    let pp = sa.public_params();
    let genesis_map = sa.map().clone();
    let rb1 = sa.rebalance(RebalancePlan::Split { shard: 1, at: 300 }, 2);
    sqs.apply_rebalance(&rb1).expect("honest rebalance applies");
    let superseded = sqs.epoch_bootstrap();
    let rb2 = sa.rebalance(RebalancePlan::Merge { left: 1 }, 2);
    sqs.apply_rebalance(&rb2).expect("honest rebalance applies");
    let boot = sqs.epoch_bootstrap();
    let pinned = EpochView::from_bootstrap(&boot, &pp);
    let honest_ok = pinned.is_ok();
    let mut tampered = boot;
    match tamper {
        CheckpointTamper::WrongEpochReplay => tampered.map = genesis_map,
        CheckpointTamper::ChainBreakBootstrap => tampered.transition = Some(rb1.transition.clone()),
        CheckpointTamper::BundleRollback => tampered = superseded,
        _ => unreachable!("not a catch-up-bundle tamper"),
    }
    // Only a client that already pinned the live epoch can tell a rollback;
    // the doctored bundles must fail a fresh one.
    let outcome = if tamper == CheckpointTamper::BundleRollback {
        pinned.and_then(|mut view| view.observe(&tampered, &pp))
    } else {
        EpochView::from_bootstrap(&tampered, &pp).map(|_| ())
    }
    .map(|()| VerifyReport::default());
    Conformance { honest_ok, outcome }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every strategy of catalog `T`: honest counterpart accepted, tampered
    /// artifact rejected with the strategy's pinned error.
    fn assert_conforms<T: Strategy>(scheme: SchemeKind) {
        for &t in T::CATALOG {
            let c = t.run(scheme);
            let name = t.name();
            assert!(c.honest_ok, "{name} under {scheme:?}: honest rejected");
            match &c.outcome {
                Ok(_) => panic!("{name} under {scheme:?}: tampered artifact accepted"),
                Err(e) => assert!(
                    t.expects(e),
                    "{name} under {scheme:?}: rejected with unexpected error {e:?}"
                ),
            }
        }
    }

    fn assert_unique_names<T: Strategy>() {
        let mut names: Vec<&str> = T::CATALOG.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), T::CATALOG.len());
    }

    #[test]
    fn catalog_rejects_every_tamper_mock() {
        assert_conforms::<Tamper>(SchemeKind::Mock);
    }

    #[test]
    fn shard_catalog_rejects_every_tamper_mock() {
        assert_conforms::<ShardTamper>(SchemeKind::Mock);
    }

    #[test]
    fn rebalance_catalog_rejects_every_tamper_mock() {
        assert_conforms::<RebalanceTamper>(SchemeKind::Mock);
    }

    #[test]
    fn checkpoint_catalog_rejects_every_tamper_mock() {
        assert_conforms::<CheckpointTamper>(SchemeKind::Mock);
    }

    #[test]
    fn catalog_names_are_unique() {
        assert_unique_names::<Tamper>();
    }

    #[test]
    fn shard_catalog_names_are_unique() {
        assert_unique_names::<ShardTamper>();
    }

    #[test]
    fn rebalance_catalog_names_are_unique() {
        assert_unique_names::<RebalanceTamper>();
    }

    #[test]
    fn checkpoint_catalog_names_are_unique() {
        assert_unique_names::<CheckpointTamper>();
    }

    // The same catalogs, every arm, under real BLS signatures over BN254.
    #[test]
    fn catalog_rejects_every_tamper_bas() {
        assert_conforms::<Tamper>(SchemeKind::Bas);
    }

    #[test]
    fn shard_catalog_rejects_every_tamper_bas() {
        assert_conforms::<ShardTamper>(SchemeKind::Bas);
    }

    #[test]
    fn rebalance_catalog_rejects_every_tamper_bas() {
        assert_conforms::<RebalanceTamper>(SchemeKind::Bas);
    }

    #[test]
    fn checkpoint_catalog_rejects_every_tamper_bas() {
        assert_conforms::<CheckpointTamper>(SchemeKind::Bas);
    }
}
