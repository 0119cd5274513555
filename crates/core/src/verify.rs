//! Client-side verification of query answers.
//!
//! The user checks the three correctness properties of Section 1:
//!
//! * **authenticity** — every returned value matches the DA's aggregate
//!   signature;
//! * **completeness** — the chained messages bind each record to its
//!   neighbours, and the boundary keys bracket the queried range, so no
//!   qualifying record can be omitted without breaking the aggregate;
//! * **freshness** — each record passes the bitmap-summary check of
//!   Section 3.1 (after the summaries' own signatures are verified — see
//!   *Three phases, one signature check* below),
//!   including the bracketing record of a gap proof and the vacancy proof
//!   of an empty table.
//!
//! # Threat model
//!
//! The query server is **fully adversarial**: it can mutate, drop, inject,
//! reorder, or replay anything it ships, including the summaries it
//! forwards. Each [`VerifyError`] names the class of attack it defeats:
//!
//! | error | rejected attack |
//! |---|---|
//! | [`VerifyError::BadAggregate`] | forged/dropped/injected record content, widened certified boundary or gap keys, forged vacancy claims — anything that changes the signed messages |
//! | [`VerifyError::RecordOutOfRange`] | padding the result with alien (but genuinely signed) records |
//! | [`VerifyError::Unsorted`] | reordering records to hide a chain splice |
//! | [`VerifyError::BadBoundary`] | truncating the result and moving a boundary key inward |
//! | [`VerifyError::MissingGapProof`] | claiming an empty result with no bracketing chain or vacancy certificate |
//! | [`VerifyError::BadGapProof`] | replaying a genuine gap proof against a range it does not bracket |
//! | [`VerifyError::BadSummarySignature`] | tampering with a summary bitmap (e.g. truncating it) or its header |
//! | [`VerifyError::Stale`] | serving a superseded or deleted version whose replacement a published summary marks — including the bracketing record of a gap proof |
//! | [`VerifyError::FreshnessIndeterminate`] | withholding or reordering summaries so staleness cannot be decided (the 2ρ-recency gate) |
//! | [`VerifyError::StaleVacancy`] | replaying an empty-table proof after an insertion |
//! | [`VerifyError::VacancyIndeterminate`] | withholding the summaries that would expose a stale vacancy claim |
//! | [`VerifyError::MalformedRecord`] | a wire-decoded record or projected row whose shape disagrees with the schema (wrong attribute arity, out-of-schema attribute index) — reachable only through the network path, where the decoder cannot know the schema |
//!
//! Sharded deployments ([`crate::shard`]) add cross-shard attack surface;
//! [`Verifier::verify_sharded_selection`] extends the table:
//!
//! | error | rejected attack |
//! |---|---|
//! | [`VerifyError::BadShardMap`] | re-partitioning the relation (forging split keys to move seam responsibility); a catch-up bundle presenting a second partition for the epoch the client already pins |
//! | [`VerifyError::ShardWithheld`] | omitting an overlapping shard's answer and the records in it |
//! | [`VerifyError::UnexpectedShardAnswer`] | padding the fan-out with answers for shards the query does not touch (or duplicating one) |
//! | [`VerifyError::SeamViolation`] | forging a per-shard boundary key past the shard's signed seam fence to shrink its responsibility |
//! | [`VerifyError::ShardMismatch`] | vouching for one shard's stale answer with another shard's (fresh, genuinely signed) summaries or vacancy proof |
//! | [`VerifyError::RecordOutOfRange`] | seam splice: moving a record across the split into a shard that does not own its key |
//! | [`VerifyError::Stale`] | stale-shard replay: one shard answering from a pre-update snapshot while the others are fresh |
//!
//! Rebalancing ([`crate::shard`]'s epoch machinery) re-partitions the
//! relation at runtime, so two genuinely-signed partitions exist; the
//! client pins an [`EpochView`] and the verifier adds:
//!
//! | error | rejected attack |
//! |---|---|
//! | [`VerifyError::StaleEpoch`] | stale-epoch map replay / split brain across answers: assembling an answer under a superseded (or not-yet-observed) certified partition — and bundle rollback: answering a pinned client's catch-up ([`EpochView::observe`]) with a genuine bundle of an older epoch |
//! | [`VerifyError::EpochMismatch`] | split brain within one answer: a part vouched for by a different epoch's (genuinely signed) summary stream or vacancy proof — including handoff forgery backed by pre-transition artifacts |
//! | [`VerifyError::BrokenTransition`] | transition-chain break: advancing the client's epoch ([`EpochView::advance`]) with a link whose signature, parent hash or epoch number does not extend the pinned map, or a catch-up bundle whose transition signature is forged |
//! | [`VerifyError::Stale`] | handoff replay: serving a pre-transition record version under the new epoch's stream (the handoff baseline summary marks the entire donor rid space) |
//! | [`VerifyError::RecordOutOfRange`] / [`VerifyError::SeamViolation`] | handoff forgery: records or boundary keys signed under the old fences served under the new, narrower ones |
//!
//! Checkpointing ([`crate::freshness::SummaryCheckpoint`] collapsing a
//! summary-log prefix, [`crate::shard::EpochCheckpoint`] collapsing the
//! transition chain — see [`crate::da`]'s *Checkpoints and log compaction*)
//! lets the verifier accept a certified **cut** in place of history it
//! never sees; the cut is attack surface of its own:
//!
//! | error | rejected attack |
//! |---|---|
//! | [`VerifyError::BadCheckpoint`] | forging or tampering a checkpoint (bad signature), splicing an epoch checkpoint onto a map or transition it does not name (hash/epoch mismatch — including wrong-epoch replay of a genuine checkpoint), or withholding the transition a non-genesis bootstrap must chain to |
//! | [`VerifyError::CheckpointGap`] | cutting the summary log past the retained run's start: seqs between `through_seq` and the run are covered by neither the checkpoint's exposure map nor a retained bitmap — exactly where a marking could hide |
//! | [`VerifyError::StaleCheckpoint`] | serving a version (or vacancy claim) that a *compacted* summary already exposed — compaction must not launder staleness the dropped summaries used to prove |
//! | [`VerifyError::FreshnessIndeterminate`] / [`VerifyError::VacancyIndeterminate`] | an answer whose newest evidence — retained summary or the cut itself (`through_ts`) — is older than 2ρ proves nothing about the recent past: the recency gate survives compaction |
//!
//! Networked deployments that query each shard at its own endpoint can
//! *degrade*: [`Verifier::verify_partial_selection`] accepts a fan-out with
//! missing parts, but only for shards the **client's own transport
//! attempts** failed to reach (the `unreachable` argument — evidence owned
//! by the caller, never taken from the server). The partial path adds no
//! trust; it re-partitions the same checks:
//!
//! | outcome | meaning |
//! |---|---|
//! | [`TileStatus::Certified`] | this shard's sub-range passed the full per-shard pipeline — authentic, complete, fresh |
//! | [`TileStatus::ShardUnavailable`] | the client could not reach this shard after bounded retries; **nothing** is claimed about its sub-range |
//! | [`VerifyError::ShardWithheld`] | a *reachable* shard's answer is missing — degradation never excuses withholding |
//! | [`VerifyError::UnexpectedShardAnswer`] | an answer attached for a shard the client says it could not reach (stale transport evidence must not launder parts into the fold) |
//!
//! The conformance suites in [`crate::adversary`] exercise every row of
//! all three tables against a [`crate::adversary::MaliciousServer`] /
//! [`crate::adversary::MaliciousShardedServer`] (plus the rebalancing
//! scenarios of [`crate::adversary::RebalanceTamper`]).
//!
//! Four disciplines here are machine-enforced by `authdb-lint` (rule
//! reference in `crates/lint/src/lib.rs`): the claim pipeline is
//! panic-free under adversarial answers (`panic-free-decode`), every
//! `VerifyError` variant above stays pinned by a catalog scenario or test
//! (`catalog-coverage`), every signed-message builder binds its domain
//! (`domain-binding`), and verification reads no wall clock — recency is
//! judged against the caller-supplied clock only
//! (`no-wall-clock-in-verify`). `cargo run -p authdb-lint -- --workspace`
//! fails the build on a violation.
//!
//! # Three phases, one signature check
//!
//! Every `verify_*` entry point runs the same pipeline, in this order:
//!
//! 1. **Structural** — everything decidable from the answer's shape alone
//!    (range, order, boundary and seam keys, fan-out shape, domain tags,
//!    schema fit). Alongside, every signature the answer asks the client to
//!    believe is *collected* as a claim — each attached
//!    [`UpdateSummary`], each [`SummaryCheckpoint`], and each part's chained
//!    aggregate, gap proof or vacancy proof — with the message it must
//!    cover. Nothing is believed yet and nothing compressed is opened.
//! 2. **One fold over every signature** — all claims of all parts (and of
//!    all answers, for [`Verifier::verify_selection_batch`]) go into a
//!    single [`PublicParams::verify_aggregate_batch`] call. Under BAS they
//!    are all signatures under the one DA key, so an honest answer costs one
//!    two-term multi-Miller loop and one final exponentiation however many
//!    summaries, checkpoints and shards it spans, plus two short scalar
//!    multiplications per claim after the first; an answer with a single
//!    claim degenerates to the plain aggregate check. Mock and condensed
//!    RSA verify claim by claim. Only when the fold fails is each claim
//!    re-checked on its own, freshness artifacts of every part first, then
//!    the parts' aggregates; the first bad one names the typed error
//!    ([`VerifyError::BadCheckpoint`],
//!    [`VerifyError::BadSummarySignature`], [`VerifyError::BadAggregate`]).
//! 3. **Freshness over vouched summaries** — only now are the summaries'
//!    bitmaps decompressed and the checkpoint's exposure map read, to judge
//!    each returned version (or vacancy claim) at the caller's clock.
//!
//! So no summary bitmap and no exposure map influences a verdict — and no
//! attacker-supplied bitmap header reaches the decompressor — before the
//! check covering its signature has passed. The price is error
//! *precedence* on multi-fault answers only: a forged signature anywhere
//! now outranks a freshness verdict (`Stale`, `…Indeterminate`,
//! `CheckpointGap`), because the latter is not computed from unvouched
//! input.
//!
//! ## Fold coefficients
//!
//! The fold checks `e(Σ cᵢσᵢ, g₂) = e(Σ cᵢHᵢ, X)` with `c₀ = 1` and 128-bit
//! `cᵢ`; if any claim is invalid it passes for at most a 2⁻¹²⁸ fraction of
//! coefficient choices, *provided the coefficients are fixed only after the
//! server has committed to every claim*. The entry points that take an
//! `rng` ([`Verifier::verify_sharded_selection`],
//! [`Verifier::verify_partial_selection`],
//! [`Verifier::verify_selection_batch`]) draw them from it after the answer
//! has arrived; the caller owes an `rng` the server cannot predict.
//! [`Verifier::verify_selection`] and [`Verifier::verify_projection`] have
//! no `rng` and derive them from the claims themselves: SHA-256 over the
//! complete transcript — every message and every signature of every claim,
//! length-framed, in fold order — seeds a SHA-256 counter stream. Changing
//! any byte of any claim re-draws every coefficient, so in the random-oracle
//! model a server cannot choose a claim as a function of its coefficient;
//! each transcript it tries offline succeeds with probability ≤ 2⁻¹²⁸. The
//! verifier stays a stateless function of (answer, clock): no cache, no
//! seed, and the same answer always gets the same verdict.
//!
//! Construct one [`Verifier`] and reuse it across queries; its
//! [`PublicParams`] carry the DA key's precomputed pairing lines, shared by
//! every clone.

use std::sync::Arc;

use authdb_crypto::sha256::{Digest, Sha256};
use authdb_crypto::signer::{PublicParams, Signature};

use crate::freshness::{
    DecodedSummaries, EmptyTableProof, Freshness, SummaryCheckpoint, UpdateSummary,
};
use crate::qs::{ProjectionAnswer, SelectionAnswer};
use crate::record::{Record, Schema, Tick, KEY_NEG_INF, KEY_POS_INF};
use crate::shard::{
    EpochBootstrap, EpochCheckpoint, EpochTransition, ShardMap, ShardScope, ShardedSelectionAnswer,
    GENESIS_EPOCH,
};

/// Why verification failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The aggregate signature does not match the returned records.
    BadAggregate,
    /// A returned record's key falls outside the queried range.
    RecordOutOfRange {
        /// The offending rid.
        rid: u64,
    },
    /// Returned records are not sorted on the indexed attribute.
    Unsorted,
    /// The boundary keys do not bracket the queried range.
    BadBoundary,
    /// An empty answer came without a bracketing gap proof or an
    /// empty-table proof.
    MissingGapProof,
    /// The gap proof does not actually bracket the queried range.
    BadGapProof,
    /// A summary's own signature failed.
    BadSummarySignature {
        /// Sequence number of the failing summary.
        seq: u64,
    },
    /// A record is provably stale.
    Stale {
        /// The stale record.
        rid: u64,
        /// The summary that exposed it.
        exposed_by: u64,
    },
    /// Not enough summaries to decide freshness.
    FreshnessIndeterminate {
        /// The undecidable record.
        rid: u64,
    },
    /// The empty-table proof is contradicted by a later summary marking
    /// (something was inserted after the vacancy was certified).
    StaleVacancy {
        /// The summary that exposed the insertion.
        exposed_by: u64,
    },
    /// Not enough summaries to decide whether the empty-table proof is
    /// still current.
    VacancyIndeterminate,
    /// A record (or projected row) does not fit the schema: wrong attribute
    /// arity, or an attribute index past the schema. The wire codec is
    /// schema-agnostic, so a malicious peer can ship such shapes; they must
    /// be rejected before any schema-indexed access, never panic.
    MalformedRecord {
        /// The offending rid.
        rid: u64,
    },
    /// The shard map's signature failed: the server presented a partition
    /// the DA never certified.
    BadShardMap,
    /// An overlapping shard's answer is missing from a sharded response.
    ShardWithheld {
        /// The shard whose answer was withheld.
        shard: usize,
    },
    /// A sharded response carries an answer for a shard the query does not
    /// overlap, or a duplicate answer for one shard.
    UnexpectedShardAnswer {
        /// The offending shard index.
        shard: usize,
    },
    /// A per-shard answer claims a boundary key beyond the shard's signed
    /// seam fence (an attempt to shrink the shard's responsibility).
    SeamViolation {
        /// The offending shard.
        shard: usize,
    },
    /// An attached summary or vacancy proof belongs to a different shard
    /// than the one that answered.
    ShardMismatch {
        /// The shard whose answer carried the alien artifact.
        shard: usize,
    },
    /// The answer was assembled under a certified partition that is not
    /// the client's live epoch: a replayed pre-rebalance map, a map the
    /// client has not yet observed, or (from [`EpochView::observe`]) a
    /// catch-up bundle older than the pinned epoch.
    StaleEpoch {
        /// The epoch the answer's (or bundle's) map claims.
        answer_epoch: u64,
        /// The epoch the client's [`EpochView`] currently pins.
        live_epoch: u64,
    },
    /// A per-shard answer's summary or vacancy artifacts are bound to a
    /// different epoch than the answer's map — a split-brain answer mixing
    /// pre- and post-rebalance state.
    EpochMismatch {
        /// The shard whose answer carried the cross-epoch artifact.
        shard: usize,
    },
    /// An epoch transition does not extend the client's pinned chain: bad
    /// signature, non-successor epoch, wrong parent hash, or a new map
    /// that does not match the signed hash.
    BrokenTransition,
    /// A checkpoint failed its own certification: bad signature, a scope
    /// (epoch, map hash, or transition hash) that does not match what it
    /// is presented for, or a non-genesis bootstrap missing the transition
    /// its checkpoint must chain to.
    BadCheckpoint,
    /// The retained summary run does not reach back to the checkpoint's
    /// cut: sequence numbers between `through_seq` and the run's first
    /// summary are covered by neither the checkpoint's exposure map nor a
    /// retained bitmap, so a marking could hide in the seam.
    CheckpointGap {
        /// The seq the run was expected to resume at (`through_seq + 1`).
        expected_seq: u64,
        /// The seq the run actually starts at.
        found_seq: u64,
    },
    /// A returned version (or vacancy claim) is provably stale against the
    /// checkpoint's cumulative exposure map: a summary in the compacted
    /// prefix already marked a newer event for this rid.
    StaleCheckpoint {
        /// The stale rid (for a vacancy claim, the rid whose recorded
        /// insertion voided the claim).
        rid: u64,
    },
}

/// A failure localized inside a batch verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchFailure {
    /// Index of the failing answer within the batch.
    pub index: usize,
    /// What went wrong with it.
    pub error: VerifyError,
}

/// One tile of a [`PartialVerdict`]: what the verifier can say about one
/// overlapping shard's sub-range of the query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileStatus {
    /// The shard's answer passed every check: the records in
    /// `[sub_lo, sub_hi]` are authentic, complete, and fresh.
    Certified {
        /// Which shard certified the tile.
        shard: usize,
        /// Lower bound (inclusive) of the certified sub-range.
        sub_lo: i64,
        /// Upper bound (inclusive) of the certified sub-range.
        sub_hi: i64,
        /// Records certified inside the tile.
        records: usize,
    },
    /// The client's own transport attempts to this shard's endpoint failed
    /// after bounded retries; nothing about `[sub_lo, sub_hi]` is claimed.
    /// This status is produced **only** from the caller's `unreachable`
    /// evidence — a reachable shard that omits its answer is
    /// [`VerifyError::ShardWithheld`], never this.
    ShardUnavailable {
        /// The unreachable shard.
        shard: usize,
        /// Lower bound (inclusive) of the uncertified sub-range.
        sub_lo: i64,
        /// Upper bound (inclusive) of the uncertified sub-range.
        sub_hi: i64,
    },
}

impl TileStatus {
    /// The shard this tile belongs to.
    pub fn shard(&self) -> usize {
        match *self {
            TileStatus::Certified { shard, .. } | TileStatus::ShardUnavailable { shard, .. } => {
                shard
            }
        }
    }

    /// Whether the tile is certified.
    pub fn is_certified(&self) -> bool {
        matches!(self, TileStatus::Certified { .. })
    }
}

/// The outcome of [`Verifier::verify_partial_selection`]: a per-tile
/// account of the query range. Certified tiles carry the full soundness
/// guarantee; unavailable tiles carry *no* claim (the caller knows exactly
/// which sub-ranges it must re-query once the endpoint recovers). A verdict
/// with every tile certified is equivalent to a successful
/// [`Verifier::verify_sharded_selection`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialVerdict {
    /// One status per overlapping shard, in shard order — together the
    /// sub-ranges tile `[lo, hi]`.
    pub tiles: Vec<TileStatus>,
    /// The aggregate report over the certified tiles only.
    pub report: VerifyReport,
}

impl PartialVerdict {
    /// Whether every overlapping shard's tile was certified.
    pub fn is_complete(&self) -> bool {
        self.tiles.iter().all(|t| t.is_certified())
    }

    /// The shards whose tiles are unavailable, in shard order.
    pub fn unavailable_shards(&self) -> Vec<usize> {
        self.tiles
            .iter()
            .filter(|t| !t.is_certified())
            .map(|t| t.shard())
            .collect()
    }
}

/// A successful verification's freshness outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Upper bound on any record's staleness, in ticks (< ρ normally,
    /// < 2ρ for records re-certified under the multiple-update rule).
    pub max_staleness: Tick,
    /// Number of records checked.
    pub records: usize,
    /// Number of signatures the one signature check covered: every attached
    /// summary and checkpoint plus each part's aggregate (or gap / vacancy
    /// proof).
    pub sig_claims: usize,
}

/// The client's pinned epoch: which certified partition it currently
/// accepts answers under. **Exactly one epoch is live at a time** — an
/// answer assembled under epoch N verifies only until the client observes
/// epoch N+1, after which epoch-N answers are [`StaleEpoch`] replays.
///
/// A view is pinned from DA-signed artifacts only, and only ever moves
/// forward. There is one catch-up mechanism and it is O(1) however many
/// rebalances happened: the certified [`EpochBootstrap`] bundle a server
/// returns for `Request::Checkpoint` — [`EpochView::from_bootstrap`] for a
/// fresh client, [`EpochView::observe`] for one already pinned (same
/// checks, plus the refusal to move backwards). A client the DA pushes
/// each [`EpochTransition`] to can instead step one link at a time with
/// [`EpochView::advance`], and a deployment that has never rebalanced is
/// pinned from its map alone with [`EpochView::genesis`]. No path replays
/// history from genesis. Because whatever was pinned was signature-checked
/// once, the pinned hash *is* the certified partition —
/// `verify_sharded_selection` compares the answer's map against it by
/// hash and needs no per-answer map signature check (one pairing saved per
/// answer under BAS).
///
/// [`StaleEpoch`]: VerifyError::StaleEpoch
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochView {
    epoch: u64,
    map_hash: Digest,
}

impl EpochView {
    /// Pin the deployment's genesis map (its signature is checked here,
    /// once).
    pub fn genesis(map: &ShardMap, pp: &PublicParams) -> Result<Self, VerifyError> {
        if !map.verify(pp) {
            return Err(VerifyError::BadShardMap);
        }
        Ok(EpochView {
            epoch: map.epoch(),
            map_hash: map.hash(),
        })
    }

    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pinned map's content hash.
    pub fn map_hash(&self) -> &Digest {
        &self.map_hash
    }

    /// Advance one epoch along a signed transition. Rejects with
    /// [`VerifyError::BrokenTransition`] unless the transition's signature
    /// verifies, its epoch is the pinned epoch + 1, and its parent hash is
    /// the pinned map hash. On success the view pins the transition's new
    /// map hash.
    pub fn advance(&mut self, t: &EpochTransition, pp: &PublicParams) -> Result<(), VerifyError> {
        if !t.verify(pp) || t.epoch != self.epoch.wrapping_add(1) || t.parent_hash != self.map_hash
        {
            return Err(VerifyError::BrokenTransition);
        }
        self.epoch = t.epoch;
        self.map_hash = t.map_hash;
        Ok(())
    }

    /// Pin the live epoch from a server's [`EpochBootstrap`] bundle (what
    /// `Request::Checkpoint` returns) from at most **three** signatures —
    /// the checkpoint's, the map's, and the creating transition's, folded
    /// into one check like an answer's claims (module docs, *Fold
    /// coefficients*) — at any epoch count. The hash bindings do the rest:
    /// the checkpoint names exactly one map and chains to exactly one
    /// transition, and that transition is the DA's own signed claim that
    /// the map is the epoch's certified partition.
    ///
    /// A checkpoint-free bundle is accepted only at (or before) the genesis
    /// epoch, where [`EpochView::genesis`] already pins from the map alone.
    /// Past genesis a missing checkpoint or transition is withheld
    /// certification, not a degraded mode — honest servers hold both from
    /// the rebalance that created the epoch.
    pub fn from_bootstrap(boot: &EpochBootstrap, pp: &PublicParams) -> Result<Self, VerifyError> {
        let map = &boot.map;
        let Some(ckpt) = &boot.checkpoint else {
            if map.epoch() <= GENESIS_EPOCH {
                return Self::genesis(map, pp);
            }
            return Err(VerifyError::BadCheckpoint);
        };
        // A non-genesis epoch exists only through a transition.
        let t = match &boot.transition {
            Some(t) if map.epoch() > GENESIS_EPOCH => Some(t),
            None if map.epoch() > GENESIS_EPOCH => return Err(VerifyError::BadCheckpoint),
            _ => None,
        };
        let ckpt_msg = [EpochCheckpoint::message(
            ckpt.epoch,
            &ckpt.map_hash,
            &ckpt.transition_hash,
            ckpt.ts,
        )];
        let map_msg = [ShardMap::message(map.epoch(), map.splits())];
        let t_msg = t.map(|t| {
            [EpochTransition::message(
                t.epoch,
                &t.parent_hash,
                &t.map_hash,
                t.ts,
            )]
        });
        let mut batch: Vec<(&[Vec<u8>], &Signature)> =
            vec![(&ckpt_msg, &ckpt.signature), (&map_msg, map.signature())];
        if let (Some(t), Some(msg)) = (t, &t_msg) {
            batch.push((msg, &t.signature));
        }
        let mut coefficients = TranscriptRng::new(|| transcript_digest(batch.iter().copied()));
        if !pp.verify_aggregate_batch(&batch, &mut coefficients) {
            // Localise: the first artifact failing on its own names the error.
            if !ckpt.verify(pp) {
                return Err(VerifyError::BadCheckpoint);
            }
            if !map.verify(pp) {
                return Err(VerifyError::BadShardMap);
            }
            return Err(VerifyError::BrokenTransition);
        }
        // The checkpoint must name exactly this map: a genuine checkpoint
        // presented with a different (even genuinely signed) map is a
        // wrong-epoch replay. And it must chain to exactly this transition:
        // it commits to the hash of the transition's signed message, which
        // in turn commits to the map — a checkpoint spliced onto any other
        // transition breaks here.
        let map_hash = map.hash();
        if map.epoch() != ckpt.epoch
            || map_hash != ckpt.map_hash
            || t.is_some_and(|t| {
                EpochCheckpoint::transition_digest(t) != ckpt.transition_hash
                    || t.epoch != ckpt.epoch
                    || t.map_hash != map_hash
            })
        {
            return Err(VerifyError::BadCheckpoint);
        }
        Ok(EpochView {
            epoch: map.epoch(),
            map_hash,
        })
    }

    /// Catch up to the bundle a server returned for `Request::Checkpoint`:
    /// verify it exactly as [`EpochView::from_bootstrap`] does, then refuse
    /// to move backwards. A genuine bundle of an *older* epoch is a
    /// rollback ([`VerifyError::StaleEpoch`]); the pinned epoch under a
    /// different map hash is a second partition for an epoch the DA
    /// certifies once ([`VerifyError::BadShardMap`]); the pinned bundle
    /// again is a no-op. The view is untouched on every error.
    pub fn observe(&mut self, boot: &EpochBootstrap, pp: &PublicParams) -> Result<(), VerifyError> {
        let next = Self::from_bootstrap(boot, pp)?;
        if next.epoch < self.epoch {
            return Err(VerifyError::StaleEpoch {
                answer_epoch: next.epoch,
                live_epoch: self.epoch,
            });
        }
        if next.epoch == self.epoch && next.map_hash != self.map_hash {
            return Err(VerifyError::BadShardMap);
        }
        *self = next;
        Ok(())
    }
}

/// The client-side verifier.
#[derive(Clone)]
pub struct Verifier {
    pp: PublicParams,
    schema: Schema,
    rho: Tick,
}

impl Verifier {
    /// Create a verifier from the DA's public parameters.
    pub fn new(pp: PublicParams, schema: Schema, rho: Tick) -> Self {
        Verifier { pp, schema, rho }
    }

    /// The verification parameters.
    pub fn public_params(&self) -> &PublicParams {
        &self.pp
    }

    /// One record's freshness decision against once-decoded summaries —
    /// plus, when the answer shipped one, the [`SummaryCheckpoint`] standing
    /// in for the compacted prefix — mapped into the error domain. Both must
    /// already be vouched for by [`Verifier::fold_claims`].
    ///
    /// With a checkpoint the decision runs in the same two passes as the
    /// uncompacted algorithm, split across the cut: pass 1 against the
    /// prefix is the exposure-map lookup (the per-rid maximum marked
    /// `period_start`, so exactly the predicate the dropped summaries would
    /// have evaluated — [`VerifyError::StaleCheckpoint`] on a hit), then
    /// the retained run is checked with the cut as a valid anchor
    /// (`through_seq + 1`). A run that fails to anchor at the cut is the
    /// seam attack, [`VerifyError::CheckpointGap`]; an *empty* run rides on
    /// the cut's own recency (`through_ts`), judged by the same 2ρ gate as
    /// a real latest summary.
    fn freshness_of<S: std::borrow::Borrow<UpdateSummary>>(
        &self,
        rid: u64,
        ts: Tick,
        decoded: &DecodedSummaries<'_, S>,
        ckpt: Option<&SummaryCheckpoint>,
        now: Tick,
    ) -> Result<Tick, VerifyError> {
        let indeterminate = VerifyError::FreshnessIndeterminate { rid };
        if let Some(ckpt) = ckpt {
            if ckpt.exposed_after(rid).is_some_and(|p| ts <= p) {
                return Err(VerifyError::StaleCheckpoint { rid });
            }
            if decoded.is_empty() {
                if now.saturating_sub(ckpt.through_ts) >= self.rho.saturating_mul(2) {
                    return Err(indeterminate);
                }
                return Ok(now.saturating_sub(ts.max(ckpt.through_ts)));
            }
        }
        let anchor_seq = ckpt.map_or(0, |c| c.through_seq + 1);
        match decoded.check_freshness(rid, ts, self.rho, now, anchor_seq) {
            Freshness::FreshWithin(b) => Ok(b),
            Freshness::Stale { exposed_by } => Err(VerifyError::Stale { rid, exposed_by }),
            Freshness::Indeterminate => Err(seam_or_indeterminate(
                ts,
                decoded.first(),
                ckpt,
                indeterminate,
            )),
        }
    }

    /// A vacancy claim's currency decision, checkpoint-aware like
    /// [`Verifier::freshness_of`]. While the table is empty any marking is
    /// an insertion, so the prefix check is the exposure map's *global*
    /// maximum ([`SummaryCheckpoint::exposed_any`]) against the proof's
    /// `ts`.
    fn vacancy_of<S: std::borrow::Borrow<UpdateSummary>>(
        &self,
        proof_ts: Tick,
        decoded: &DecodedSummaries<'_, S>,
        ckpt: Option<&SummaryCheckpoint>,
        now: Tick,
    ) -> Result<Tick, VerifyError> {
        if let Some(ckpt) = ckpt {
            if ckpt.exposed_any().is_some_and(|p| proof_ts <= p) {
                // Name the rid whose (latest) recorded insertion voided the
                // claim — the compacted analogue of StaleVacancy's exposing
                // seq.
                let rid = ckpt
                    .exposure
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &e)| e)
                    .map(|(i, _)| i as u64)
                    .unwrap_or(0);
                return Err(VerifyError::StaleCheckpoint { rid });
            }
            if decoded.is_empty() {
                if now.saturating_sub(ckpt.through_ts) >= self.rho.saturating_mul(2) {
                    return Err(VerifyError::VacancyIndeterminate);
                }
                return Ok(now.saturating_sub(proof_ts.max(ckpt.through_ts)));
            }
        }
        let anchor_seq = ckpt.map_or(0, |c| c.through_seq + 1);
        match decoded.check_vacancy(proof_ts, self.rho, now, anchor_seq) {
            Freshness::FreshWithin(b) => Ok(b),
            Freshness::Stale { exposed_by } => Err(VerifyError::StaleVacancy { exposed_by }),
            Freshness::Indeterminate => Err(seam_or_indeterminate(
                proof_ts,
                decoded.first(),
                ckpt,
                VerifyError::VacancyIndeterminate,
            )),
        }
    }

    /// Phase 1 for one selection answer: every structural check, plus the
    /// signed claims and the freshness subject the later phases need — the
    /// single shared pipeline behind the non-empty, gap-proof and
    /// empty-table paths of every selection entry point. Believes no
    /// signature and opens no bitmap.
    fn analyze_selection<'a>(
        &self,
        lo: i64,
        hi: i64,
        ans: &'a SelectionAnswer,
        check_fresh: bool,
    ) -> Result<Analyzed<'a>, VerifyError> {
        // An inverted range matches no key by definition: the only honest
        // answer is empty with the identity aggregate, and nothing — not
        // even a gap or vacancy proof — needs to be certified for it. A
        // server that returns records for an inverted range is cheating
        // (every record's key violates lo <= k <= hi), and attached
        // gap/vacancy claims or summaries are rejected rather than
        // silently skipped: nothing on this path is ever
        // signature-checked, so accepting any artifact would let forged
        // ones ride along on a verified answer.
        if lo > hi {
            if let Some(r) = ans.records.first() {
                return Err(VerifyError::RecordOutOfRange { rid: r.rid });
            }
            if ans.gap.is_some() || ans.vacancy.is_some() {
                return Err(VerifyError::BadGapProof);
            }
            if let Some(s) = ans.summaries.first() {
                return Err(VerifyError::BadSummarySignature { seq: s.seq });
            }
            if ans.checkpoint.is_some() {
                return Err(VerifyError::BadCheckpoint);
            }
            return Ok(Analyzed::new(Vec::new(), &ans.agg, None, 0));
        }
        // Boundary keys must bracket the range.
        if !(ans.left_key < lo || ans.left_key == KEY_NEG_INF) {
            return Err(VerifyError::BadBoundary);
        }
        if !(ans.right_key > hi || ans.right_key == KEY_POS_INF) {
            return Err(VerifyError::BadBoundary);
        }

        // The summaries and the checkpoint standing in for their compacted
        // prefix are freshness artifacts: claimed and judged only when the
        // caller wants freshness, ignored entirely otherwise.
        let fresh_plan = |subject| {
            check_fresh.then_some(FreshPlan {
                subject,
                summaries: &ans.summaries,
                ckpt: ans.checkpoint.as_ref(),
            })
        };

        if ans.records.is_empty() {
            if let Some(gap) = &ans.gap {
                // A gap proof and a vacancy claim are mutually exclusive by
                // construction; a co-attached vacancy would ride through
                // unchecked (only the gap's signature joins the fold), so
                // its presence is itself a forgery.
                if ans.vacancy.is_some() {
                    return Err(VerifyError::BadGapProof);
                }
                // A wire-decoded bracketing record may have any attribute
                // arity; reject schema mismatches before indexing into it.
                if gap.record.attrs.len() != self.schema.num_attrs {
                    return Err(VerifyError::MalformedRecord {
                        rid: gap.record.rid,
                    });
                }
                // The bracketing record sits on one side of the range; the
                // gap it certifies must contain [lo, hi].
                let own_key = gap.own_key(&self.schema);
                let (gap_lo, gap_hi) = if own_key < lo {
                    (own_key, gap.right_key)
                } else if own_key > hi {
                    (gap.left_key, own_key)
                } else {
                    return Err(VerifyError::BadGapProof);
                };
                if !(gap_lo < lo && gap_hi > hi) {
                    return Err(VerifyError::BadGapProof);
                }
                // The bracketing record is subject to the same freshness
                // discipline as returned records: a deleted or superseded
                // chain record must not keep denying the range.
                return Ok(Analyzed::new(
                    vec![gap.chain_msg(&self.schema)],
                    &gap.signature,
                    fresh_plan(Subject::Versions(vec![(gap.record.rid, gap.record.ts)])),
                    0,
                ));
            }
            if let Some(vac) = &ans.vacancy {
                return Ok(Analyzed::new(
                    vec![EmptyTableProof::message(vac.epoch, vac.shard, vac.ts)],
                    &vac.signature,
                    fresh_plan(Subject::Vacancy(vac.ts)),
                    0,
                ));
            }
            return Err(VerifyError::MissingGapProof);
        }

        // A non-empty answer certifies through its records' chained
        // aggregate alone; an attached gap or vacancy artifact would never
        // be signature-checked on this path, so (as on the inverted-range
        // path) it must be rejected rather than ride along on a verified
        // answer. Honest servers never attach either to a non-empty result.
        if ans.gap.is_some() || ans.vacancy.is_some() {
            return Err(VerifyError::BadGapProof);
        }

        // Records must fit the schema (the wire codec cannot check arity),
        // then be in range and sorted.
        for r in &ans.records {
            if r.attrs.len() != self.schema.num_attrs {
                return Err(VerifyError::MalformedRecord { rid: r.rid });
            }
        }
        let keys: Vec<i64> = ans.records.iter().map(|r| r.key(&self.schema)).collect();
        for (r, &k) in ans.records.iter().zip(&keys) {
            if k < lo || k > hi {
                return Err(VerifyError::RecordOutOfRange { rid: r.rid });
            }
        }
        if !keys.iter().zip(keys.iter().skip(1)).all(|(a, b)| a <= b) {
            return Err(VerifyError::Unsorted);
        }

        // Reconstruct every chained message; the neighbour of the first/last
        // record is the boundary key.
        let mut messages = Vec::with_capacity(ans.records.len());
        for (i, r) in ans.records.iter().enumerate() {
            let left = i
                .checked_sub(1)
                .and_then(|j| keys.get(j).copied())
                .unwrap_or(ans.left_key);
            let right = keys.get(i + 1).copied().unwrap_or(ans.right_key);
            messages.push(r.chain_message(&self.schema, left, right));
        }
        Ok(Analyzed::new(
            messages,
            &ans.agg,
            fresh_plan(Subject::Versions(
                ans.records.iter().map(|r| (r.rid, r.ts)).collect(),
            )),
            ans.records.len(),
        ))
    }

    /// Phase 2: fold every claim of every part into one
    /// random-linear-combination multi-pairing (BAS; other schemes verify
    /// per claim), coefficients from `rng`. On a mismatch each claim is
    /// re-checked on its own, in [`claim_order`], to localize the cheat:
    /// `Err` names the part holding the first bad claim and that claim's
    /// typed error.
    fn fold_claims(
        &self,
        parts: &[Analyzed<'_>],
        rng: &mut impl rand::Rng,
    ) -> Result<(), BatchFailure> {
        let batch: Vec<(&[Vec<u8>], &Signature)> = claim_order(parts)
            .map(|(_, c)| (c.messages.as_slice(), c.sig))
            .collect();
        if self.pp.verify_aggregate_batch(&batch, rng) {
            return Ok(());
        }
        match claim_order(parts).find(|(_, c)| !c.holds(&self.pp)) {
            Some((index, bad)) => Err(BatchFailure {
                index,
                error: bad.kind.error(),
            }),
            None => Ok(()),
        }
    }

    /// Phase 3 for one part whose claims [`Verifier::fold_claims`] has
    /// vouched for: decode its summaries once, judge every version (or the
    /// vacancy claim) at `now`, and hand back the part's report.
    fn vouched_report(&self, part: &Analyzed<'_>, now: Tick) -> Result<VerifyReport, VerifyError> {
        let mut max_staleness = 0;
        if let Some(plan) = &part.fresh {
            let decoded = DecodedSummaries::new(plan.summaries);
            match &plan.subject {
                Subject::Versions(versions) => {
                    for &(rid, ts) in versions {
                        let b = self.freshness_of(rid, ts, &decoded, plan.ckpt, now)?;
                        max_staleness = max_staleness.max(b);
                    }
                }
                Subject::Vacancy(ts) => {
                    max_staleness = self.vacancy_of(*ts, &decoded, plan.ckpt, now)?;
                }
            }
        }
        Ok(VerifyReport {
            max_staleness,
            records: part.records,
            sig_claims: part.artifacts.len() + 1,
        })
    }

    /// Phases 2 and 3 for an answer verified on its own through an entry
    /// point without an `rng`: the fold's coefficients come from the claim
    /// transcript (module docs, *Fold coefficients*).
    fn settle_alone(&self, part: Analyzed<'_>, now: Tick) -> Result<VerifyReport, VerifyError> {
        let parts = std::slice::from_ref(&part);
        self.fold_claims(parts, &mut transcript_rng(parts))
            .map_err(|f| f.error)?;
        self.vouched_report(&part, now)
    }

    /// Verify a range-selection answer for the query `lo <= Aind <= hi` at
    /// local time `now`. `check_fresh` disabled skips the summary phase
    /// (used by experiments isolating authenticity costs).
    pub fn verify_selection(
        &self,
        lo: i64,
        hi: i64,
        ans: &SelectionAnswer,
        now: Tick,
        check_fresh: bool,
    ) -> Result<VerifyReport, VerifyError> {
        let part = self.analyze_selection(lo, hi, ans, check_fresh)?;
        self.settle_alone(part, now)
    }

    /// Verify many selection answers at once, amortizing the pairing cost:
    /// every signature of every answer — chained aggregates, gap proofs,
    /// vacancy proofs, summaries and checkpoints — folds into one
    /// random-linear-combination multi-pairing (BAS; other schemes verify
    /// per claim), with coefficient randomness drawn from `rng`. On a
    /// batch-level signature mismatch each claim is re-checked individually
    /// to localize the cheat.
    ///
    /// # Panics
    /// Panics if `queries` and `answers` differ in length.
    pub fn verify_selection_batch(
        &self,
        queries: &[(i64, i64)],
        answers: &[SelectionAnswer],
        now: Tick,
        check_fresh: bool,
        rng: &mut impl rand::Rng,
    ) -> Result<Vec<VerifyReport>, BatchFailure> {
        assert_eq!(queries.len(), answers.len(), "one query per answer");
        let mut parts = Vec::with_capacity(answers.len());
        for (index, (&(lo, hi), ans)) in queries.iter().zip(answers).enumerate() {
            match self.analyze_selection(lo, hi, ans, check_fresh) {
                Ok(part) => parts.push(part),
                Err(error) => return Err(BatchFailure { index, error }),
            }
        }
        self.fold_claims(&parts, rng)?;
        parts
            .iter()
            .enumerate()
            .map(|(index, part)| {
                self.vouched_report(part, now)
                    .map_err(|error| BatchFailure { index, error })
            })
            .collect()
    }

    /// Verify a sharded selection answer (see [`crate::shard`]) for the
    /// query `lo <= Aind <= hi` by stitching the per-shard proofs:
    ///
    /// 1. the epoch gate — the answer's map must be *exactly* the
    ///    partition the client's [`EpochView`] pins (same epoch, same
    ///    content hash), so the server can neither re-partition nor replay
    ///    a superseded certified epoch;
    /// 2. the fan-out shape — exactly one answer per overlapping shard, for
    ///    the sub-range the *pinned* map assigns it (the sub-ranges tile
    ///    `[lo, hi]`, so seams cannot swallow records);
    /// 3. per-shard seam and domain checks — boundary keys must stay
    ///    within the shard's fences, and summaries/vacancy proofs must
    ///    carry the answering shard's `(epoch, shard)` tag;
    /// 4. every per-shard structural pipeline
    ///    ([`Verifier::verify_selection`]'s checks against the sub-range);
    /// 5. one random-linear-combination fold of every signature in the
    ///    fan-out — per-shard aggregates, summaries and checkpoints alike —
    ///    a single multi-Miller loop regardless of shard count or summary
    ///    run length, with per-claim fallback localization on mismatch;
    /// 6. every per-shard freshness pass, over the summaries the fold
    ///    vouched for.
    #[allow(clippy::too_many_arguments)]
    pub fn verify_sharded_selection(
        &self,
        lo: i64,
        hi: i64,
        ans: &ShardedSelectionAnswer,
        view: &EpochView,
        now: Tick,
        check_fresh: bool,
        rng: &mut impl rand::Rng,
    ) -> Result<VerifyReport, VerifyError> {
        let verdict = self.stitch_sharded(lo, hi, ans, &[], view, now, check_fresh, rng)?;
        debug_assert!(verdict.is_complete(), "no unreachable set => complete");
        Ok(verdict.report)
    }

    /// Verify a **partial** sharded answer: the degraded-mode companion to
    /// [`Verifier::verify_sharded_selection`] for deployments where each
    /// shard is queried at its own endpoint and some endpoints may be down.
    ///
    /// `unreachable` is the set of shard indices the *client itself* failed
    /// to reach after its bounded retries — it is transport evidence owned
    /// by the caller, and **must never be populated from anything the
    /// server said** (a server claiming "shard 2 is down" while answering
    /// for the others is exactly the withholding attack this path refuses
    /// to excuse). For every shard the pinned map says overlaps `[lo, hi]`:
    ///
    /// * an attached answer runs the full per-shard pipeline and, if every
    ///   check passes, certifies its tile ([`TileStatus::Certified`]);
    /// * a shard in `unreachable` with no answer is marked
    ///   [`TileStatus::ShardUnavailable`] — nothing about its sub-range is
    ///   claimed, soundly or otherwise;
    /// * a shard in **neither** set is the existing
    ///   [`VerifyError::ShardWithheld`] soundness error: reachable servers
    ///   do not get to silently omit tiles, so degradation can never be
    ///   abused to hide withholding;
    /// * a shard in **both** sets is [`VerifyError::UnexpectedShardAnswer`]
    ///   — an answer from an endpoint the caller swears it could not reach
    ///   is a caller bug or a confused retry, and accepting it would let
    ///   stale transport evidence launder an extra part into the fold.
    ///
    /// All attached parts still fold into one RLC multi-pairing; any
    /// structural, freshness, or signature failure in a *present* part is a
    /// hard error, never a downgrade to "unavailable".
    #[allow(clippy::too_many_arguments)]
    pub fn verify_partial_selection(
        &self,
        lo: i64,
        hi: i64,
        ans: &ShardedSelectionAnswer,
        unreachable: &[usize],
        view: &EpochView,
        now: Tick,
        check_fresh: bool,
        rng: &mut impl rand::Rng,
    ) -> Result<PartialVerdict, VerifyError> {
        self.stitch_sharded(lo, hi, ans, unreachable, view, now, check_fresh, rng)
    }

    /// The shared sharded stitcher behind the complete and partial paths.
    #[allow(clippy::too_many_arguments)]
    fn stitch_sharded(
        &self,
        lo: i64,
        hi: i64,
        ans: &ShardedSelectionAnswer,
        unreachable: &[usize],
        view: &EpochView,
        now: Tick,
        check_fresh: bool,
        rng: &mut impl rand::Rng,
    ) -> Result<PartialVerdict, VerifyError> {
        // The epoch gate. Hash equality against the pinned view subsumes
        // the per-answer map signature check: the pinned hash descends
        // from a verified genesis through signed transitions, so byte
        // equality of the signing message *is* certification.
        if ans.map.epoch() != view.epoch() {
            return Err(VerifyError::StaleEpoch {
                answer_epoch: ans.map.epoch(),
                live_epoch: view.epoch(),
            });
        }
        if &ans.map.hash() != view.map_hash() {
            return Err(VerifyError::BadShardMap);
        }
        let expected = ans.map.overlapping(lo, hi);
        // No alien or duplicate parts: every answer must be for a distinct
        // shard the query actually overlaps — and not one the caller's own
        // transport evidence says it never heard from.
        let mut claimed = vec![false; ans.map.shard_count()];
        for p in &ans.parts {
            let alien = p.shard >= ans.map.shard_count()
                || claimed.get(p.shard).copied().unwrap_or(true)
                || !expected.iter().any(|&(s, _)| s == p.shard)
                || unreachable.contains(&p.shard);
            if alien {
                return Err(VerifyError::UnexpectedShardAnswer { shard: p.shard });
            }
            if let Some(slot) = claimed.get_mut(p.shard) {
                *slot = true;
            }
        }
        let mut parts = Vec::with_capacity(expected.len());
        let mut tiles = Vec::with_capacity(expected.len());
        for &(shard, (sub_lo, sub_hi)) in &expected {
            let Some(part) = ans.parts.iter().find(|p| p.shard == shard) else {
                if unreachable.contains(&shard) {
                    // The client's own connection attempts failed: the tile
                    // stays explicitly uncertified. Only the transport
                    // layer — never the server — can put a shard here.
                    tiles.push(TileStatus::ShardUnavailable {
                        shard,
                        sub_lo,
                        sub_hi,
                    });
                    continue;
                }
                return Err(VerifyError::ShardWithheld { shard });
            };
            let scope = ans.map.scope(shard);
            let a = &part.answer;
            // Domain binding: freshness artifacts must come from this
            // shard's own stream *in this epoch* — another shard's (or
            // another epoch's) genuinely-signed summaries say nothing
            // about this shard's rids under the pinned partition.
            domain_bound(
                &scope,
                shard,
                a.summaries.iter().map(|s| (s.epoch, s.shard)),
            )?;
            domain_bound(&scope, shard, a.vacancy.iter().map(|v| (v.epoch, v.shard)))?;
            domain_bound(
                &scope,
                shard,
                a.checkpoint.iter().map(|c| (c.epoch, c.shard)),
            )?;
            // Seam containment: the DA never signs a neighbour value
            // outside the fences, so a claimed boundary past them is a
            // forgery — caught here before any pairing work.
            if a.left_key < scope.left_fence || a.right_key > scope.right_fence {
                return Err(VerifyError::SeamViolation { shard });
            }
            let analyzed = self.analyze_selection(sub_lo, sub_hi, a, check_fresh)?;
            tiles.push(TileStatus::Certified {
                shard,
                sub_lo,
                sub_hi,
                records: analyzed.records,
            });
            parts.push(analyzed);
        }
        self.fold_claims(&parts, rng).map_err(|f| f.error)?;
        let mut report = VerifyReport {
            max_staleness: 0,
            records: 0,
            sig_claims: 0,
        };
        for part in &parts {
            let r = self.vouched_report(part, now)?;
            report.max_staleness = report.max_staleness.max(r.max_staleness);
            report.records += r.records;
            report.sig_claims += r.sig_claims;
        }
        Ok(PartialVerdict { tiles, report })
    }

    /// Verify a projection answer (Section 3.4): every `(rid, attr, value,
    /// ts)` quadruple must match the single aggregate, which also pins each
    /// value to its record and attribute position. Freshness runs through
    /// the same three phases as selections: the aggregate and the attached
    /// summaries share one fold, then each row's `(rid, ts)` is checked
    /// against the vouched summaries at local time `now`.
    pub fn verify_projection(
        &self,
        ans: &ProjectionAnswer,
        now: Tick,
        check_fresh: bool,
    ) -> Result<VerifyReport, VerifyError> {
        let mut messages = Vec::new();
        for row in &ans.rows {
            for &(idx, value) in &row.values {
                // A wire-decoded row can claim any attribute index; bound it
                // by the schema before building the probe (an unchecked
                // index would size the probe's attribute vector).
                if idx >= self.schema.num_attrs {
                    return Err(VerifyError::MalformedRecord { rid: row.rid });
                }
                // Rebuild the attribute message without the full record.
                let probe = Record {
                    rid: row.rid,
                    attrs: {
                        let mut a = vec![0i64; idx];
                        a.push(value);
                        a
                    },
                    ts: row.ts,
                };
                messages.push(probe.attribute_message(idx));
            }
        }
        let fresh = check_fresh.then(|| FreshPlan {
            subject: Subject::Versions(ans.rows.iter().map(|r| (r.rid, r.ts)).collect()),
            summaries: &ans.summaries,
            ckpt: None,
        });
        self.settle_alone(
            Analyzed::new(messages, &ans.agg, fresh, ans.rows.len()),
            now,
        )
    }
}

/// Which signed artifact a claim vouches for: names the typed error when the
/// fold's fallback localizes a failure to it.
#[derive(Clone, Copy)]
enum ClaimKind {
    /// A [`SummaryCheckpoint`].
    Checkpoint,
    /// An attached [`UpdateSummary`].
    Summary { seq: u64 },
    /// A part's chained aggregate, gap proof, vacancy proof or projection
    /// aggregate.
    Aggregate,
}

impl ClaimKind {
    fn error(self) -> VerifyError {
        match self {
            ClaimKind::Checkpoint => VerifyError::BadCheckpoint,
            ClaimKind::Summary { seq } => VerifyError::BadSummarySignature { seq },
            ClaimKind::Aggregate => VerifyError::BadAggregate,
        }
    }
}

/// One signature an answer asks the client to believe: the messages it must
/// cover exactly.
struct SigClaim<'a> {
    kind: ClaimKind,
    messages: Vec<Vec<u8>>,
    sig: &'a Signature,
}

impl SigClaim<'_> {
    /// Whether the signature covers exactly the claimed messages.
    fn holds(&self, pp: &PublicParams) -> bool {
        let refs: Vec<&[u8]> = self.messages.iter().map(|m| m.as_slice()).collect();
        pp.verify_aggregate(&refs, self.sig)
    }
}

/// What the freshness pass judges against a part's summaries.
enum Subject {
    /// `(rid, ts)` of every returned version (or of a gap proof's bracketing
    /// record).
    Versions(Vec<(u64, Tick)>),
    /// The `ts` of a vacancy claim.
    Vacancy(Tick),
}

/// Phase 3's input for one part: what to judge, and the freshness artifacts
/// to judge it against once the fold has vouched for them.
struct FreshPlan<'a> {
    subject: Subject,
    summaries: &'a [Arc<UpdateSummary>],
    ckpt: Option<&'a SummaryCheckpoint>,
}

/// One structurally sound part (a selection answer, one shard's answer, or a
/// projection) between phase 1 and phase 2: nothing signed is believed yet.
struct Analyzed<'a> {
    /// The freshness artifacts' claims — the checkpoint first, then the
    /// summaries in run order; empty when freshness is off.
    artifacts: Vec<SigClaim<'a>>,
    /// The claim certifying the part's content.
    aggregate: SigClaim<'a>,
    /// `None` when the caller disabled freshness or the part carries no
    /// freshness subject (inverted range).
    fresh: Option<FreshPlan<'a>>,
    /// Records (or projected rows) the part returns.
    records: usize,
}

impl<'a> Analyzed<'a> {
    /// A part whose content `sig` must cover exactly `messages`, with one
    /// claim per freshness artifact `fresh` will read.
    fn new(
        messages: Vec<Vec<u8>>,
        sig: &'a Signature,
        fresh: Option<FreshPlan<'a>>,
        records: usize,
    ) -> Self {
        let mut artifacts = Vec::new();
        if let Some(plan) = &fresh {
            artifacts.extend(plan.ckpt.map(|c| SigClaim {
                kind: ClaimKind::Checkpoint,
                messages: vec![c.signed_message()],
                sig: &c.signature,
            }));
            artifacts.extend(plan.summaries.iter().map(|s| SigClaim {
                kind: ClaimKind::Summary { seq: s.seq },
                messages: vec![s.signed_message()],
                sig: &s.signature,
            }));
        }
        Analyzed {
            artifacts,
            aggregate: SigClaim {
                kind: ClaimKind::Aggregate,
                messages,
                sig,
            },
            fresh,
            records,
        }
    }
}

/// Every claim of every part, tagged with its part's index, in the order the
/// fold's fallback blames them: the freshness artifacts of all parts first
/// (each part's checkpoint, then its summaries in run order), then the
/// parts' aggregates — a forged checkpoint or summary is named before a
/// forged aggregate whichever part holds it, which is the precedence the
/// tamper catalogs pin.
fn claim_order<'p, 'a>(
    parts: &'p [Analyzed<'a>],
) -> impl Iterator<Item = (usize, &'p SigClaim<'a>)> {
    let artifacts = parts
        .iter()
        .enumerate()
        .flat_map(|(i, p)| p.artifacts.iter().map(move |c| (i, c)));
    let aggregates = parts.iter().enumerate().map(|(i, p)| (i, &p.aggregate));
    artifacts.chain(aggregates)
}

/// SHA-256 over a complete claim transcript: every message and every
/// signature of `claims`, length-framed, in the order given.
pub(crate) fn transcript_digest<'c>(
    claims: impl Iterator<Item = (&'c [Vec<u8>], &'c Signature)>,
) -> Digest {
    fn framed(h: &mut Sha256, bytes: &[u8]) {
        h.update(&(bytes.len() as u64).to_be_bytes());
        h.update(bytes);
    }
    let mut h = Sha256::new();
    h.update(b"authdb-rlc-transcript:");
    for (messages, sig) in claims {
        h.update(&(messages.len() as u64).to_be_bytes());
        for m in messages {
            framed(&mut h, m);
        }
        framed(&mut h, &sig.to_bytes());
    }
    h.finalize()
}

/// The fold's coefficient source where no `rng` is at hand: a SHA-256
/// counter stream keyed by `transcript` — the [`transcript_digest`] of the
/// very claims being folded, so the coefficients are a function of every
/// one of them (module docs, *Fold coefficients*). The transcript is hashed
/// on the first draw — a fold that needs no coefficient (one claim, or a
/// scheme verifying per claim) never pays for it.
pub(crate) struct TranscriptRng<F> {
    transcript: F,
    seed: Option<Digest>,
    counter: u64,
}

impl<F: Fn() -> Digest> TranscriptRng<F> {
    pub(crate) fn new(transcript: F) -> Self {
        TranscriptRng {
            transcript,
            seed: None,
            counter: 0,
        }
    }
}

/// A [`TranscriptRng`] keyed by every claim of `parts`, in [`claim_order`].
fn transcript_rng<'p>(parts: &'p [Analyzed<'_>]) -> TranscriptRng<impl Fn() -> Digest + 'p> {
    TranscriptRng::new(move || {
        transcript_digest(claim_order(parts).map(|(_, c)| (c.messages.as_slice(), c.sig)))
    })
}

impl<F: Fn() -> Digest> rand::RngCore for TranscriptRng<F> {
    fn next_u64(&mut self) -> u64 {
        let seed = *self.seed.get_or_insert_with(&self.transcript);
        let mut h = Sha256::new();
        h.update(&seed);
        h.update(&self.counter.to_be_bytes());
        self.counter += 1;
        let [a, b, c, d, e, f, g, h8, ..] = h.finalize();
        u64::from_be_bytes([a, b, c, d, e, f, g, h8])
    }
}

/// Attribute an Indeterminate verdict. Without a checkpoint it is plain
/// `fallback`. With one: if the run's first summary fails every anchor
/// clause (its period does not cover `version_ts`, it is not seq 0, and it
/// does not resume at the cut), the seam between checkpoint and run is
/// unproven — that is [`VerifyError::CheckpointGap`], not plain recency
/// withholding.
fn seam_or_indeterminate(
    version_ts: Tick,
    first: Option<&UpdateSummary>,
    ckpt: Option<&SummaryCheckpoint>,
    fallback: VerifyError,
) -> VerifyError {
    let (Some(f), Some(ckpt)) = (first, ckpt) else {
        return fallback;
    };
    let anchor_seq = ckpt.through_seq + 1;
    if f.period_start < version_ts || f.seq == 0 || f.seq == anchor_seq {
        return fallback;
    }
    VerifyError::CheckpointGap {
        expected_seq: anchor_seq,
        found_seq: f.seq,
    }
}

/// The `(epoch, shard)` tags of one group of a part's freshness artifacts
/// must all be `scope`'s own; a foreign epoch anywhere in the group
/// outranks a foreign shard.
fn domain_bound(
    scope: &ShardScope,
    shard: usize,
    tags: impl Iterator<Item = (u64, u64)> + Clone,
) -> Result<(), VerifyError> {
    if tags.clone().any(|(epoch, _)| epoch != scope.epoch) {
        return Err(VerifyError::EpochMismatch { shard });
    }
    if tags.into_iter().any(|(_, tag)| tag != scope.shard) {
        return Err(VerifyError::ShardMismatch { shard });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::da::{DaConfig, DataAggregator, SigningMode};
    use crate::qs::QueryServer;
    use authdb_crypto::signer::SchemeKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn cfg(mode: SigningMode) -> DaConfig {
        DaConfig {
            mode,
            ..DaConfig::small()
        }
    }

    fn system(n: i64, mode: SigningMode) -> (DataAggregator, QueryServer, Verifier) {
        system_under(SchemeKind::Mock, n, mode)
    }

    fn system_under(
        scheme: SchemeKind,
        n: i64,
        mode: SigningMode,
    ) -> (DataAggregator, QueryServer, Verifier) {
        let mut rng = StdRng::seed_from_u64(21);
        let mut da = DataAggregator::new(
            DaConfig {
                scheme,
                ..cfg(mode)
            },
            &mut rng,
        );
        let boot = da.bootstrap((0..n).map(|i| vec![i * 10, i]).collect(), 2);
        let qs = da.replica(&boot);
        let v = da.verifier();
        (da, qs, v)
    }

    #[test]
    fn honest_selection_verifies() {
        let (_, qs, v) = system(200, SigningMode::Chained);
        let ans = qs.select_range(500, 700).unwrap();
        let rep = v.verify_selection(500, 700, &ans, 0, true).expect("valid");
        assert_eq!(rep.records, 21);
    }

    #[test]
    fn tampered_value_rejected() {
        let (_, qs, v) = system(100, SigningMode::Chained);
        let mut ans = qs.select_range(100, 300).unwrap();
        ans.records[2].attrs[1] = 666;
        assert_eq!(
            v.verify_selection(100, 300, &ans, 0, true),
            Err(VerifyError::BadAggregate)
        );
    }

    #[test]
    fn dropped_record_rejected() {
        let (_, qs, v) = system(100, SigningMode::Chained);
        let mut ans = qs.select_range(100, 300).unwrap();
        ans.records.remove(3); // break the chain
        assert_eq!(
            v.verify_selection(100, 300, &ans, 0, true),
            Err(VerifyError::BadAggregate)
        );
    }

    #[test]
    fn truncated_tail_with_forged_boundary_rejected() {
        let (_, qs, v) = system(100, SigningMode::Chained);
        let mut ans = qs.select_range(100, 300).unwrap();
        // Server drops the tail and moves the right boundary inward.
        ans.records.truncate(5);
        ans.right_key = 150;
        let r = v.verify_selection(100, 300, &ans, 0, true);
        assert!(matches!(
            r,
            Err(VerifyError::BadBoundary) | Err(VerifyError::BadAggregate)
        ));
    }

    #[test]
    fn out_of_range_record_rejected() {
        let (_, qs, v) = system(100, SigningMode::Chained);
        let extra = qs.select_range(400, 400).unwrap().records[0].clone();
        let mut ans = qs.select_range(100, 300).unwrap();
        ans.records.push(extra.clone());
        assert_eq!(
            v.verify_selection(100, 300, &ans, 0, true),
            Err(VerifyError::RecordOutOfRange { rid: extra.rid })
        );
    }

    #[test]
    fn empty_answer_gap_proof_verifies() {
        let (_, qs, v) = system(100, SigningMode::Chained);
        let ans = qs.select_range(101, 109).unwrap();
        let rep = v.verify_selection(101, 109, &ans, 0, true).expect("valid");
        assert_eq!(rep.records, 0);
    }

    #[test]
    fn forged_gap_proof_rejected() {
        let (_, qs, v) = system(100, SigningMode::Chained);
        let mut ans = qs.select_range(101, 109).unwrap();
        // Claim a wider gap than certified.
        if let Some(g) = &mut ans.gap {
            g.right_key = 10_000;
        }
        assert_eq!(
            v.verify_selection(101, 109, &ans, 0, true),
            Err(VerifyError::BadAggregate)
        );
    }

    #[test]
    fn gap_proof_not_bracketing_rejected() {
        let (_, qs, v) = system(100, SigningMode::Chained);
        let ans = qs.select_range(101, 109).unwrap();
        // Replay the same (valid) proof against a different range it does
        // not bracket: rejected via the boundary check or the gap check.
        assert!(matches!(
            v.verify_selection(301, 309, &ans, 0, true),
            Err(VerifyError::BadBoundary) | Err(VerifyError::BadGapProof)
        ));
    }

    #[test]
    fn unchecked_artifacts_cannot_ride_on_nonempty_answers() {
        // Nothing on the non-empty path signature-checks a gap or vacancy
        // artifact, so a forged one attached to an otherwise-honest answer
        // must be rejected, not delivered inside a verified result. (These
        // shapes are network-reachable: the wire codec accepts them.)
        let (_, qs, v) = system(100, SigningMode::Chained);
        let honest = qs.select_range(100, 300).unwrap();
        assert!(v.verify_selection(100, 300, &honest, 0, true).is_ok());

        let mut with_gap = honest.clone();
        with_gap.gap = qs.select_range(2001, 2009).unwrap().gap;
        assert!(with_gap.gap.is_some());
        assert_eq!(
            v.verify_selection(100, 300, &with_gap, 0, true),
            Err(VerifyError::BadGapProof)
        );

        let mut with_vacancy = honest.clone();
        with_vacancy.vacancy = Some(crate::freshness::EmptyTableProof {
            epoch: 0,
            shard: 0,
            ts: 0,
            signature: qs.public_params().identity(),
        });
        assert_eq!(
            v.verify_selection(100, 300, &with_vacancy, 0, true),
            Err(VerifyError::BadGapProof)
        );

        // Same for a vacancy co-attached to a genuine gap-proof answer.
        let mut gap_ans = qs.select_range(101, 109).unwrap();
        assert!(gap_ans.gap.is_some());
        gap_ans.vacancy = with_vacancy.vacancy.clone();
        assert_eq!(
            v.verify_selection(101, 109, &gap_ans, 0, true),
            Err(VerifyError::BadGapProof)
        );
    }

    #[test]
    fn stale_record_detected_via_summaries() {
        let (mut da, mut qs, v) = system(50, SigningMode::Chained);
        // Capture the answer before an update...
        let stale_ans = qs.select_range(200, 260).unwrap();
        // ...then update record key=230 and publish the summary trail.
        da.advance_clock(12);
        let (s1, _) = da.maybe_publish_summary().unwrap();
        qs.add_summary(s1.clone());
        da.advance_clock(2);
        qs.apply_all(&da.update_record(23, vec![230, 777]));
        da.advance_clock(10);
        let (s2, _) = da.maybe_publish_summary().unwrap();
        qs.add_summary(s2.clone());
        // A malicious server replays the stale answer but must attach the
        // published summaries (the client fetches them independently).
        let mut replay = stale_ans.clone();
        replay.summaries = vec![Arc::new(s1), Arc::new(s2)];
        let r = v.verify_selection(200, 260, &replay, 25, true);
        assert_eq!(
            r,
            Err(VerifyError::Stale {
                rid: 23,
                exposed_by: 1
            })
        );
        // The honest fresh answer passes.
        let fresh = qs.select_range(200, 260).unwrap();
        assert!(v.verify_selection(200, 260, &fresh, 25, true).is_ok());
    }

    /// A deployment with three published summaries, an update to rid 23 in
    /// the second period, and the prefix compacted into a checkpoint with
    /// `keep` summaries retained.
    fn checkpointed_system(keep: usize) -> (DataAggregator, QueryServer, Verifier) {
        checkpointed_system_under(SchemeKind::Mock, keep)
    }

    fn checkpointed_system_under(
        scheme: SchemeKind,
        keep: usize,
    ) -> (DataAggregator, QueryServer, Verifier) {
        let (mut da, mut qs, v) = system_under(scheme, 50, SigningMode::Chained);
        da.advance_clock(12);
        qs.ingest(da.maybe_publish_summary().unwrap());
        da.advance_clock(2);
        qs.apply_all(&da.update_record(23, vec![230, 777]));
        da.advance_clock(10);
        qs.ingest(da.maybe_publish_summary().unwrap());
        da.advance_clock(10);
        qs.ingest(da.maybe_publish_summary().unwrap());
        let ckpt = da.checkpoint_summaries(keep).expect("compactable");
        qs.apply_checkpoint(ckpt);
        (da, qs, v)
    }

    #[test]
    fn checkpoint_anchored_answers_verify_and_exposure_keeps_stale_verdicts() {
        let (mut da, mut qs, v) = system(50, SigningMode::Chained);
        let stale_ans = qs.select_range(200, 260).unwrap();
        da.advance_clock(12);
        qs.ingest(da.maybe_publish_summary().unwrap());
        da.advance_clock(2);
        qs.apply_all(&da.update_record(23, vec![230, 777]));
        da.advance_clock(10);
        qs.ingest(da.maybe_publish_summary().unwrap());
        da.advance_clock(10);
        qs.ingest(da.maybe_publish_summary().unwrap());
        // Compact everything but the newest summary — including seq 1, the
        // summary that used to prove the replay stale.
        let ckpt = da.checkpoint_summaries(1).expect("compactable");
        qs.apply_checkpoint(ckpt.clone());
        // Honest answers now ride on checkpoint + retained suffix.
        let honest = qs.select_range(200, 260).unwrap();
        assert_eq!(honest.checkpoint.as_ref(), Some(&ckpt));
        assert!(honest.summaries.iter().all(|s| s.seq > ckpt.through_seq));
        assert!(v
            .verify_selection(200, 260, &honest, da.now(), true)
            .is_ok());
        // A gap proof older than the cut anchors on the checkpoint too.
        let gap_ans = qs.select_range(201, 209).unwrap();
        assert!(gap_ans.gap.is_some() && gap_ans.checkpoint.is_some());
        assert!(v
            .verify_selection(201, 209, &gap_ans, da.now(), true)
            .is_ok());
        // The pre-update replay is exposed by the *checkpoint*: the marking
        // summary was compacted away, and the exposure map keeps its
        // verdict alive across the cut.
        let mut replay = stale_ans;
        replay.summaries = qs.summaries().to_vec();
        replay.checkpoint = Some(ckpt);
        assert_eq!(
            v.verify_selection(200, 260, &replay, da.now(), true),
            Err(VerifyError::StaleCheckpoint { rid: 23 })
        );
    }

    #[test]
    fn forged_checkpoint_and_seam_gap_rejected() {
        let (da, qs, v) = checkpointed_system(2);
        let honest = qs.select_range(200, 260).unwrap();
        assert_eq!(honest.summaries.len(), 2);
        assert!(v
            .verify_selection(200, 260, &honest, da.now(), true)
            .is_ok());
        // Any field flip breaks the checkpoint's signature.
        let mut forged = honest.clone();
        forged.checkpoint.as_mut().unwrap().through_seq += 1;
        assert_eq!(
            v.verify_selection(200, 260, &forged, da.now(), true),
            Err(VerifyError::BadCheckpoint)
        );
        // Dropping the retained summary that abuts the cut leaves seq 1
        // covered by nobody: the run no longer anchors at the checkpoint
        // and the seam failure is typed, not a generic indeterminate.
        let mut gappy = honest.clone();
        gappy.summaries.remove(0);
        assert_eq!(
            v.verify_selection(200, 260, &gappy, da.now(), true),
            Err(VerifyError::CheckpointGap {
                expected_seq: 1,
                found_seq: 2
            })
        );
    }

    #[test]
    fn empty_retained_run_rides_on_the_cut_within_two_rho() {
        // keep = 1: through_ts is the second summary's publication tick
        // (24), and the clock stands at 34.
        let (da, qs, v) = checkpointed_system(1);
        let mut bare = qs.select_range(200, 260).unwrap();
        bare.summaries.clear();
        // Within 2ρ of the cut the checkpoint itself is recency evidence —
        // the complete-prefix guarantee plus the exposure pass make an
        // empty retained run sound.
        assert!(v.verify_selection(200, 260, &bare, da.now(), true).is_ok());
        // Past 2ρ the server may be sitting on newer summaries that mark
        // these versions: the recency gate survives compaction.
        assert!(matches!(
            v.verify_selection(200, 260, &bare, da.now() + 10, true),
            Err(VerifyError::FreshnessIndeterminate { .. })
        ));
    }

    #[test]
    fn vacancy_older_than_checkpoint_is_stale_by_exposure() {
        let (mut da, mut qs, v) = system(0, SigningMode::Chained);
        let stale = qs.select_range(0, 100).unwrap();
        assert!(stale.vacancy.is_some());
        da.advance_clock(3);
        qs.apply_all(&da.insert(vec![50, 1]));
        da.advance_clock(9);
        qs.ingest(da.maybe_publish_summary().unwrap());
        da.advance_clock(10);
        qs.ingest(da.maybe_publish_summary().unwrap());
        // Compact the summary that recorded the insertion.
        let ckpt = da.checkpoint_summaries(1).expect("compactable");
        qs.apply_checkpoint(ckpt.clone());
        // The replayed pre-insert vacancy is voided by the exposure map's
        // record of the insertion, naming the inserted rid.
        let mut replay = stale;
        replay.summaries = qs.summaries().to_vec();
        replay.checkpoint = Some(ckpt);
        assert_eq!(
            v.verify_selection(0, 100, &replay, da.now(), true),
            Err(VerifyError::StaleCheckpoint { rid: 0 })
        );
        // The honest answer (now containing the record) passes with the
        // checkpoint attached.
        let honest = qs.select_range(0, 100).unwrap();
        assert_eq!(honest.records.len(), 1);
        assert!(honest.checkpoint.is_some());
        assert!(v.verify_selection(0, 100, &honest, da.now(), true).is_ok());
    }

    #[test]
    fn inverted_range_rejects_attached_checkpoint() {
        let (da, qs, v) = checkpointed_system(1);
        // The honest inverted answer ships no artifacts at all.
        let honest = qs.select_range(300, 200).unwrap();
        assert!(honest.checkpoint.is_none());
        assert!(v.verify_selection(300, 200, &honest, 0, true).is_ok());
        // A smuggled (even genuine) checkpoint is rejected like every other
        // never-signature-checked artifact on this path.
        let mut with_ckpt = honest;
        with_ckpt.checkpoint = da.summary_checkpoint().cloned();
        assert!(with_ckpt.checkpoint.is_some());
        assert_eq!(
            v.verify_selection(300, 200, &with_ckpt, 0, true),
            Err(VerifyError::BadCheckpoint)
        );
    }

    #[test]
    fn tampered_summary_rejected() {
        let (mut da, mut qs, v) = system(20, SigningMode::Chained);
        da.advance_clock(12);
        let (mut s, _) = da.maybe_publish_summary().unwrap();
        s.ts += 1; // tamper
        qs.add_summary(s);
        let ans = qs.select_range(0, 50).unwrap();
        assert!(matches!(
            v.verify_selection(0, 50, &ans, 13, true),
            Err(VerifyError::BadSummarySignature { .. })
        ));
    }

    #[test]
    fn signature_faults_outrank_freshness_and_keep_their_order() {
        for scheme in [SchemeKind::Mock, SchemeKind::Bas] {
            // Capture a pre-update answer, then the checkpointed timeline:
            // the cut covers seq 0, seqs 1 and 2 ride along, rid 23 moved
            // in seq 1's period.
            let (_, pre, _) = system_under(scheme, 50, SigningMode::Chained);
            let old = pre.select_range(200, 260).unwrap();
            let (da, qs, v) = checkpointed_system_under(scheme, 2);
            let now = da.now();
            let honest = qs.select_range(200, 260).unwrap();
            let seqs: Vec<u64> = honest.summaries.iter().map(|s| s.seq).collect();
            assert_eq!(seqs, [1, 2], "{scheme:?}");
            assert!(honest.checkpoint.is_some());
            let verify = |ans: &SelectionAnswer| v.verify_selection(200, 260, ans, now, true);
            assert_eq!(verify(&honest).map(|r| r.sig_claims), Ok(4), "{scheme:?}");

            let bad_ckpt = |ans: &mut SelectionAnswer| {
                ans.checkpoint.as_mut().unwrap().exposure[7] ^= 1;
            };
            let bad_summary = |ans: &mut SelectionAnswer, k: usize| {
                Arc::make_mut(&mut ans.summaries[k]).period_start ^= 1;
            };

            let mut a = honest.clone();
            bad_ckpt(&mut a);
            assert_eq!(verify(&a), Err(VerifyError::BadCheckpoint), "{scheme:?}");

            // The k-th summary bad names the k-th seq, not the first.
            for (k, &seq) in seqs.iter().enumerate() {
                let mut a = honest.clone();
                bad_summary(&mut a, k);
                assert_eq!(
                    verify(&a),
                    Err(VerifyError::BadSummarySignature { seq }),
                    "{scheme:?} k={k}"
                );
            }

            // Both bad: the checkpoint is blamed first, as before the fold.
            let mut a = honest.clone();
            bad_summary(&mut a, 0);
            bad_ckpt(&mut a);
            assert_eq!(verify(&a), Err(VerifyError::BadCheckpoint), "{scheme:?}");

            // A bad summary outranks a bad aggregate...
            let mut a = honest.clone();
            a.records[0].attrs[1] ^= 1;
            bad_summary(&mut a, 1);
            assert_eq!(
                verify(&a),
                Err(VerifyError::BadSummarySignature { seq: 2 }),
                "{scheme:?}"
            );

            // ...and a replay whose every signature is genuine gets past
            // the fold and is exposed by the vouched summaries.
            let mut replay = old.clone();
            replay.summaries = honest.summaries.clone();
            replay.checkpoint = honest.checkpoint.clone();
            assert_eq!(
                verify(&replay),
                Err(VerifyError::Stale {
                    rid: 23,
                    exposed_by: 1
                }),
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn forged_summary_is_rejected_before_its_bitmap_is_opened() {
        use crate::freshness::BITMAP_DECODES;
        let decodes = || BITMAP_DECODES.with(|n| n.get());
        let (da, qs, v) = checkpointed_system(2);
        let honest = qs.select_range(200, 260).unwrap();
        // The probe is live: an honest verification opens both bitmaps.
        let before = decodes();
        assert!(v
            .verify_selection(200, 260, &honest, da.now(), true)
            .is_ok());
        assert_eq!(decodes() - before, 2);
        // A sparse-mode header declaring 2^62 bits under the old signature:
        // the fold rejects the summary, and the freshness pass — the only
        // place a bitmap is decompressed — never runs.
        let mut forged = honest.clone();
        let s = Arc::make_mut(&mut forged.summaries[1]);
        s.compressed = vec![0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 1];
        let seq = s.seq;
        let before = decodes();
        assert_eq!(
            v.verify_selection(200, 260, &forged, da.now(), true),
            Err(VerifyError::BadSummarySignature { seq })
        );
        assert_eq!(decodes(), before);
    }

    #[test]
    fn static_point_answer_is_a_single_claim() {
        let (_, qs, v) = system(100, SigningMode::Chained);
        let ans = qs.select_range(500, 500).unwrap();
        let rep = v.verify_selection(500, 500, &ans, 0, true).expect("valid");
        assert_eq!((rep.records, rep.sig_claims), (1, 1));
    }

    #[test]
    fn transcript_coefficients_depend_on_every_claim_byte() {
        use rand::RngCore;
        let (_, qs, v) = checkpointed_system(2);
        let ans = qs.select_range(200, 260).unwrap();
        let draw = |ans: &SelectionAnswer| {
            let part = v.analyze_selection(200, 260, ans, true).unwrap();
            let parts = std::slice::from_ref(&part);
            let mut rng = transcript_rng(parts);
            [rng.next_u64(), rng.next_u64(), rng.next_u64()]
        };
        let base = draw(&ans);
        assert_eq!(base, draw(&ans.clone()), "a function of the answer alone");
        assert!(base[0] != base[1] && base[1] != base[2]);
        // One bit anywhere — a record, a bitmap, the checkpoint, a
        // signature — re-draws the stream.
        let mut a = ans.clone();
        a.records[3].attrs[1] ^= 1;
        assert_ne!(draw(&a), base);
        let mut a = ans.clone();
        *Arc::make_mut(&mut a.summaries[1])
            .compressed
            .last_mut()
            .unwrap() ^= 1;
        assert_ne!(draw(&a), base);
        let mut a = ans.clone();
        a.checkpoint.as_mut().unwrap().exposure[0] ^= 1;
        assert_ne!(draw(&a), base);
        let mut a = ans.clone();
        a.agg = a.summaries[0].signature.clone();
        assert_ne!(draw(&a), base);
    }

    #[test]
    fn projection_verifies_and_rejects_swap() {
        let (_, qs, v) = system(50, SigningMode::PerAttribute);
        let ans = qs.project(0, 200, &[0, 1]).unwrap();
        assert!(v.verify_projection(&ans, 0, true).is_ok());
        // Swapping two values between records must fail (messages bind rid
        // and attribute position).
        let mut bad = ans.clone();
        let tmp = bad.rows[0].values[1];
        bad.rows[0].values[1] = bad.rows[1].values[1];
        bad.rows[1].values[1] = tmp;
        assert_eq!(
            v.verify_projection(&bad, 0, true),
            Err(VerifyError::BadAggregate)
        );
    }

    #[test]
    fn projection_rejects_forged_value() {
        let (_, qs, v) = system(50, SigningMode::PerAttribute);
        let mut ans = qs.project(0, 200, &[1]).unwrap();
        ans.rows[3].values[0].1 += 1;
        assert_eq!(
            v.verify_projection(&ans, 0, true),
            Err(VerifyError::BadAggregate)
        );
    }

    #[test]
    fn projection_detects_stale_row() {
        let (mut da, mut qs, v) = system(50, SigningMode::PerAttribute);
        let stale = qs.project(0, 200, &[1]).unwrap();
        da.advance_clock(12);
        let (s1, _) = da.maybe_publish_summary().unwrap();
        qs.add_summary(s1.clone());
        da.advance_clock(2);
        qs.apply_all(&da.update_record(5, vec![50, 999]));
        da.advance_clock(10);
        let (s2, _) = da.maybe_publish_summary().unwrap();
        qs.add_summary(s2.clone());
        // Replaying the pre-update projection with the published summaries
        // exposes row 5.
        let mut replay = stale;
        replay.summaries = vec![Arc::new(s1), Arc::new(s2)];
        assert!(matches!(
            v.verify_projection(&replay, 25, true),
            Err(VerifyError::Stale { rid: 5, .. })
        ));
        // The honest fresh projection passes.
        let fresh = qs.project(0, 200, &[1]).unwrap();
        assert!(v.verify_projection(&fresh, 25, true).is_ok());
    }

    #[test]
    fn empty_table_answer_verifies() {
        let (_, qs, v) = system(0, SigningMode::Chained);
        let ans = qs.select_range(-500, 500).unwrap();
        assert!(ans.vacancy.is_some());
        let rep = v.verify_selection(-500, 500, &ans, 0, true).expect("valid");
        assert_eq!(rep.records, 0);
    }

    #[test]
    fn empty_table_then_deletes_keep_verifying() {
        let (mut da, mut qs, v) = system(2, SigningMode::Chained);
        da.advance_clock(2);
        for rid in 0..2 {
            qs.apply_all(&da.delete_record(rid));
        }
        da.advance_clock(10);
        qs.ingest(da.maybe_publish_summary().unwrap());
        let ans = qs.select_range(0, 100).unwrap();
        assert!(ans.gap.is_none() && ans.vacancy.is_some());
        assert!(v.verify_selection(0, 100, &ans, da.now(), true).is_ok());
    }

    #[test]
    fn replayed_vacancy_proof_rejected_after_insert() {
        let (mut da, mut qs, v) = system(0, SigningMode::Chained);
        let stale = qs.select_range(0, 100).unwrap();
        assert!(stale.vacancy.is_some());
        da.advance_clock(3);
        qs.apply_all(&da.insert(vec![50, 1]));
        da.advance_clock(9);
        qs.ingest(da.maybe_publish_summary().unwrap());
        // Malicious replay of the pre-insert vacancy claim, with the
        // published summaries the client fetches independently.
        let mut replay = stale;
        replay.summaries = qs.summaries().to_vec();
        assert!(matches!(
            v.verify_selection(0, 100, &replay, da.now(), true),
            Err(VerifyError::StaleVacancy { .. })
        ));
        // The honest answer (which now contains the record) passes.
        let honest = qs.select_range(0, 100).unwrap();
        assert_eq!(honest.records.len(), 1);
        assert!(v.verify_selection(0, 100, &honest, da.now(), true).is_ok());
    }

    #[test]
    fn empty_answer_without_gap_or_vacancy_rejected() {
        // An empty result must certify its emptiness: stripping both the
        // gap proof and the vacancy certificate is the laziest possible
        // omission attack and must surface as MissingGapProof.
        let (_, qs, v) = system(50, SigningMode::Chained);
        let mut ans = qs.select_range(231, 239).unwrap();
        assert!(ans.records.is_empty() && ans.gap.is_some());
        ans.gap = None;
        assert!(matches!(
            v.verify_selection(231, 239, &ans, 0, true),
            Err(VerifyError::MissingGapProof)
        ));
    }

    #[test]
    fn vacancy_with_gappy_summary_run_is_indeterminate() {
        // A vacancy claim whose summary run withholds the middle summary
        // can hide the insertion that voids it; contiguity failure must
        // surface as VacancyIndeterminate, not as a fresh verdict.
        let (mut da, mut qs, v) = system(0, SigningMode::Chained);
        let mut published = Vec::new();
        for _ in 0..3 {
            da.advance_clock(12);
            let (s, _) = da.maybe_publish_summary().unwrap();
            qs.add_summary(s.clone());
            published.push(s);
        }
        let ans = qs.select_range(0, 100).unwrap();
        assert!(ans.vacancy.is_some());
        let mut gappy = ans.clone();
        gappy.summaries = vec![
            Arc::new(published[0].clone()),
            Arc::new(published[2].clone()),
        ];
        assert!(matches!(
            v.verify_selection(0, 100, &gappy, da.now(), true),
            Err(VerifyError::VacancyIndeterminate)
        ));
        // The full contiguous run verifies.
        assert!(v.verify_selection(0, 100, &ans, da.now(), true).is_ok());
    }

    #[test]
    fn stale_gap_record_rejected() {
        // Satellite regression: the bracketing record of a gap proof must
        // go through the summary check like any returned record.
        let (mut da, mut qs, v) = system(50, SigningMode::Chained);
        let stale_empty = qs.select_range(231, 239).unwrap();
        assert_eq!(stale_empty.gap.as_ref().unwrap().record.rid, 23);
        da.advance_clock(12);
        qs.ingest(da.maybe_publish_summary().unwrap());
        da.advance_clock(2);
        qs.apply_all(&da.update_record(23, vec![230, 777]));
        da.advance_clock(10);
        qs.ingest(da.maybe_publish_summary().unwrap());
        let mut replay = stale_empty;
        replay.summaries = qs.summaries().to_vec();
        assert!(matches!(
            v.verify_selection(231, 239, &replay, da.now(), true),
            Err(VerifyError::Stale { rid: 23, .. })
        ));
        // The honest gap proof (re-certified bracket) passes.
        let fresh = qs.select_range(231, 239).unwrap();
        assert!(v.verify_selection(231, 239, &fresh, da.now(), true).is_ok());
    }

    #[test]
    fn withheld_summary_suffix_rejected() {
        // Satellite regression: stripping the newest summaries must yield
        // Indeterminate, not FreshWithin(rho).
        let (mut da, mut qs, v) = system(50, SigningMode::Chained);
        da.advance_clock(12);
        let (s1, _) = da.maybe_publish_summary().unwrap();
        qs.add_summary(s1.clone());
        da.advance_clock(2);
        qs.apply_all(&da.update_record(23, vec![230, 777]));
        da.advance_clock(10);
        qs.ingest(da.maybe_publish_summary().unwrap());
        da.advance_clock(10);
        qs.ingest(da.maybe_publish_summary().unwrap());
        let mut ans = qs.select_range(200, 260).unwrap();
        // Withhold everything after s1: the stale-looking window.
        ans.summaries = vec![Arc::new(s1)];
        assert!(matches!(
            v.verify_selection(200, 260, &ans, da.now(), true),
            Err(VerifyError::FreshnessIndeterminate { .. })
        ));
        let honest = qs.select_range(200, 260).unwrap();
        assert!(v
            .verify_selection(200, 260, &honest, da.now(), true)
            .is_ok());
    }

    #[test]
    fn batch_verifies_honest_answers() {
        let mut rng = StdRng::seed_from_u64(91);
        let (_, qs, v) = system(200, SigningMode::Chained);
        let queries: Vec<(i64, i64)> = (0..8).map(|i| (i * 200, i * 200 + 150)).collect();
        let answers: Vec<_> = queries
            .iter()
            .map(|&(lo, hi)| qs.select_range(lo, hi).unwrap())
            .collect();
        let reports = v
            .verify_selection_batch(&queries, &answers, 0, true, &mut rng)
            .expect("honest batch verifies");
        assert_eq!(reports.len(), 8);
        for (rep, ans) in reports.iter().zip(&answers) {
            assert_eq!(rep.records, ans.records.len());
        }
    }

    #[test]
    fn batch_localizes_tampered_answer() {
        let mut rng = StdRng::seed_from_u64(92);
        let (_, qs, v) = system(200, SigningMode::Chained);
        let queries: Vec<(i64, i64)> = (0..6).map(|i| (i * 300, i * 300 + 200)).collect();
        let mut answers: Vec<_> = queries
            .iter()
            .map(|&(lo, hi)| qs.select_range(lo, hi).unwrap())
            .collect();
        // Tamper answer 3's content: the batch check fails, and the
        // fallback localizes exactly that index.
        answers[3].records[1].attrs[1] = 31337;
        let err = v
            .verify_selection_batch(&queries, &answers, 0, true, &mut rng)
            .expect_err("tampered batch rejected");
        assert_eq!(
            err,
            BatchFailure {
                index: 3,
                error: VerifyError::BadAggregate
            }
        );
    }

    #[test]
    fn batch_mixes_gap_and_vacancy_claims() {
        let mut rng = StdRng::seed_from_u64(93);
        let (_, qs, v) = system(100, SigningMode::Chained);
        // Non-empty, empty-with-gap, and extreme-range answers in one batch.
        let queries = vec![(100, 300), (101, 109), (5000, 6000)];
        let answers: Vec<_> = queries
            .iter()
            .map(|&(lo, hi)| qs.select_range(lo, hi).unwrap())
            .collect();
        assert!(answers[1].gap.is_some() && answers[2].gap.is_some());
        let reports = v
            .verify_selection_batch(&queries, &answers, 0, true, &mut rng)
            .expect("mixed batch verifies");
        assert_eq!(reports[0].records, 21);
        assert_eq!(reports[1].records, 0);
        assert_eq!(reports[2].records, 0);
    }

    #[test]
    fn batch_with_bas_scheme_verifies_and_localizes() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut c = cfg(SigningMode::Chained);
        c.scheme = SchemeKind::Bas;
        let mut da = DataAggregator::new(c, &mut rng);
        let boot = da.bootstrap((0..30).map(|i| vec![i * 10, i]).collect(), 4);
        let qs = da.replica(&boot);
        let v = da.verifier();
        let queries = vec![(0, 40), (50, 120), (201, 209)];
        let mut answers: Vec<_> = queries
            .iter()
            .map(|&(lo, hi)| qs.select_range(lo, hi).unwrap())
            .collect();
        assert!(v
            .verify_selection_batch(&queries, &answers, 0, true, &mut rng)
            .is_ok());
        answers[1].records[0].attrs[1] = 777;
        let err = v
            .verify_selection_batch(&queries, &answers, 0, true, &mut rng)
            .expect_err("tamper caught");
        assert_eq!(err.index, 1);
        assert_eq!(err.error, VerifyError::BadAggregate);
    }

    #[test]
    fn end_to_end_with_bas_scheme() {
        // Full cryptographic path once (slow): BAS signatures.
        let mut rng = StdRng::seed_from_u64(31);
        let mut c = cfg(SigningMode::Chained);
        c.scheme = SchemeKind::Bas;
        let mut da = DataAggregator::new(c, &mut rng);
        let boot = da.bootstrap((0..30).map(|i| vec![i * 10, i]).collect(), 4);
        let qs = da.replica(&boot);
        let v = da.verifier();
        let ans = qs.select_range(50, 120).unwrap();
        let rep = v.verify_selection(50, 120, &ans, 0, true).expect("valid");
        assert_eq!(rep.records, 8);
        let mut bad = ans.clone();
        bad.records[0].attrs[1] = 9;
        assert_eq!(
            v.verify_selection(50, 120, &bad, 0, true),
            Err(VerifyError::BadAggregate)
        );
    }

    #[test]
    fn inverted_range_honest_answer_verifies() {
        let (_, qs, v) = system(50, SigningMode::Chained);
        let ans = qs.select_range(300, 200).unwrap();
        let rep = v.verify_selection(300, 200, &ans, 0, true).expect("valid");
        assert_eq!(rep.records, 0);
        // Even on an empty table, and even with freshness on late clocks.
        let (_, empty_qs, ve) = system(0, SigningMode::Chained);
        let ans = empty_qs.select_range(10, -10).unwrap();
        assert!(ve.verify_selection(10, -10, &ans, 500, true).is_ok());
    }

    #[test]
    fn inverted_range_with_records_rejected() {
        let (_, qs, v) = system(50, SigningMode::Chained);
        // A server smuggles genuine records into a vacuously-empty query.
        let genuine = qs.select_range(200, 260).unwrap();
        let mut forged = qs.select_range(300, 200).unwrap();
        forged.records = genuine.records.clone();
        forged.agg = genuine.agg.clone();
        assert!(matches!(
            v.verify_selection(300, 200, &forged, 0, true),
            Err(VerifyError::RecordOutOfRange { .. })
        ));
        // A forged non-identity aggregate on the empty form is also caught.
        let mut bad_agg = qs.select_range(300, 200).unwrap();
        bad_agg.agg = genuine.agg;
        assert_eq!(
            v.verify_selection(300, 200, &bad_agg, 0, true),
            Err(VerifyError::BadAggregate)
        );
        // Attached (never-signature-checked) artifacts are rejected, not
        // ignored: proofs and summaries alike.
        let mut with_gap = qs.select_range(300, 200).unwrap();
        with_gap.gap = qs.select_range(201, 209).unwrap().gap;
        assert!(with_gap.gap.is_some());
        assert_eq!(
            v.verify_selection(300, 200, &with_gap, 0, true),
            Err(VerifyError::BadGapProof)
        );
        let mut with_summary = qs.select_range(300, 200).unwrap();
        with_summary.summaries = vec![Arc::new(crate::freshness::UpdateSummary {
            epoch: 0,
            shard: 0,
            seq: 7,
            period_start: 0,
            ts: 1,
            compressed: vec![0xde, 0xad],
            signature: qs.public_params().identity(),
        })];
        assert_eq!(
            v.verify_selection(300, 200, &with_summary, 0, true),
            Err(VerifyError::BadSummarySignature { seq: 7 })
        );
    }

    mod sharded {
        use super::*;
        use crate::qs::QsOptions;
        use crate::shard::{RebalancePlan, ShardedAggregator, ShardedQueryServer};

        fn sharded_system(
            splits: Vec<i64>,
            n: i64,
        ) -> (ShardedAggregator, ShardedQueryServer, Verifier, EpochView) {
            let mut rng = StdRng::seed_from_u64(77);
            let mut sa = ShardedAggregator::new(cfg(SigningMode::Chained), splits, &mut rng);
            let boots = sa.bootstrap((0..n).map(|i| vec![i * 10, i]).collect(), 2);
            let sqs = sa.replica(&boots, &QsOptions::default());
            let v = sa.verifier();
            let view = sa.epoch_view();
            (sa, sqs, v, view)
        }

        #[test]
        fn honest_sharded_answers_verify() {
            let mut rng = StdRng::seed_from_u64(7);
            let (_, sqs, v, view) = sharded_system(vec![100, 200, 300], 40);
            for (lo, hi) in [
                (0, 390),     // all four shards
                (150, 250),   // straddles two seams
                (110, 190),   // inside one shard
                (200, 200),   // exactly a split key
                (1000, 2000), // beyond the data
                (250, 150),   // inverted
            ] {
                let ans = sqs.select_range(lo, hi).unwrap();
                let rep = v
                    .verify_sharded_selection(lo, hi, &ans, &view, 0, true, &mut rng)
                    .unwrap_or_else(|e| panic!("[{lo},{hi}] rejected: {e:?}"));
                let total: usize = ans.parts.iter().map(|p| p.answer.records.len()).sum();
                assert_eq!(rep.records, total);
            }
        }

        #[test]
        fn forged_map_rejected() {
            let mut rng = StdRng::seed_from_u64(8);
            let (_, sqs, v, view) = sharded_system(vec![200], 40);
            let mut ans = sqs.select_range(150, 250).unwrap();
            // Re-partitioning: shift the split without the DA's signature.
            let forged = forge_map(&ans.map);
            ans.map = forged;
            assert_eq!(
                v.verify_sharded_selection(150, 250, &ans, &view, 0, true, &mut rng),
                Err(VerifyError::BadShardMap)
            );
        }

        /// Build an unsigned variant of a map by re-creating it under a
        /// different (attacker) key.
        fn forge_map(map: &crate::shard::ShardMap) -> crate::shard::ShardMap {
            let mut rng = StdRng::seed_from_u64(666);
            let attacker = authdb_crypto::signer::Keypair::generate(SchemeKind::Mock, &mut rng);
            let mut splits = map.splits().to_vec();
            splits[0] += 50;
            crate::shard::ShardMap::create(&attacker, splits)
        }

        #[test]
        fn withheld_and_alien_parts_rejected() {
            let mut rng = StdRng::seed_from_u64(9);
            let (_, sqs, v, view) = sharded_system(vec![200], 40);
            let full = sqs.select_range(150, 250).unwrap();
            // Withhold the second shard's contribution.
            let mut withheld = full.clone();
            withheld.parts.remove(1);
            assert_eq!(
                v.verify_sharded_selection(150, 250, &withheld, &view, 0, true, &mut rng),
                Err(VerifyError::ShardWithheld { shard: 1 })
            );
            // Duplicate a part.
            let mut dup = full.clone();
            let extra = dup.parts[0].clone();
            dup.parts.push(extra);
            assert_eq!(
                v.verify_sharded_selection(150, 250, &dup, &view, 0, true, &mut rng),
                Err(VerifyError::UnexpectedShardAnswer { shard: 0 })
            );
            // Attach an answer for a shard the query does not overlap.
            let mut alien = full.clone();
            let inside = sqs.select_range(120, 180).unwrap();
            assert_eq!(
                v.verify_sharded_selection(120, 180, &inside, &view, 0, true, &mut rng)
                    .unwrap()
                    .records,
                7
            );
            alien.parts[1].shard = 5;
            assert_eq!(
                v.verify_sharded_selection(150, 250, &alien, &view, 0, true, &mut rng),
                Err(VerifyError::UnexpectedShardAnswer { shard: 5 })
            );
        }

        #[test]
        fn partial_verdict_certifies_reachable_tiles() {
            let mut rng = StdRng::seed_from_u64(21);
            let (_, sqs, v, view) = sharded_system(vec![100, 200, 300], 40);
            let full = sqs.select_range(0, 390).unwrap();

            // Shard 2 unreachable: its part is absent and the client says
            // so. The other three tiles are certified; the dark one is a
            // ShardUnavailable tile, not an error.
            let mut partial = full.clone();
            partial.parts.retain(|p| p.shard != 2);
            let verdict = v
                .verify_partial_selection(0, 390, &partial, &[2], &view, 0, true, &mut rng)
                .expect("sound partial verdict");
            assert!(!verdict.is_complete());
            assert_eq!(verdict.unavailable_shards(), vec![2]);
            assert_eq!(verdict.tiles.len(), 4);
            assert_eq!(verdict.tiles.iter().filter(|t| t.is_certified()).count(), 3);
            // The unavailable tile still names its sub-range, so a caller
            // knows exactly which keys the verdict does not cover.
            match verdict.tiles.iter().find(|t| !t.is_certified()).unwrap() {
                TileStatus::ShardUnavailable {
                    shard,
                    sub_lo,
                    sub_hi,
                } => {
                    assert_eq!(*shard, 2);
                    assert!(sub_lo <= sub_hi);
                }
                other => panic!("expected ShardUnavailable, got {other:?}"),
            }

            // With an empty unreachable list the same machinery is exactly
            // the full verifier: complete verdict on the full answer...
            let verdict = v
                .verify_partial_selection(0, 390, &full, &[], &view, 0, true, &mut rng)
                .expect("complete answer verifies");
            assert!(verdict.is_complete());
            assert_eq!(verdict.unavailable_shards(), Vec::<usize>::new());

            // ...and a missing part without transport evidence is
            // withholding, not unavailability.
            assert_eq!(
                v.verify_partial_selection(0, 390, &partial, &[], &view, 0, true, &mut rng),
                Err(VerifyError::ShardWithheld { shard: 2 })
            );

            // A part present for a shard claimed unreachable is rejected:
            // the outage list is evidence, and evidence that contradicts
            // the answer kills it.
            assert_eq!(
                v.verify_partial_selection(0, 390, &full, &[1], &view, 0, true, &mut rng),
                Err(VerifyError::UnexpectedShardAnswer { shard: 1 })
            );
        }

        #[test]
        fn partial_verdict_still_catches_tampered_reachable_tiles() {
            let mut rng = StdRng::seed_from_u64(22);
            let (_, sqs, v, view) = sharded_system(vec![100, 200, 300], 40);
            let mut ans = sqs.select_range(0, 390).unwrap();
            // Shard 3 dark, shard 1 tampered: degradation must not dilute
            // detection on the tiles that did arrive.
            ans.parts.retain(|p| p.shard != 3);
            ans.parts[1].answer.records[2].attrs[1] = 31337;
            assert_eq!(
                v.verify_partial_selection(0, 390, &ans, &[3], &view, 0, true, &mut rng),
                Err(VerifyError::BadAggregate)
            );
        }

        #[test]
        fn sharded_batch_localizes_tampered_shard() {
            let mut rng = StdRng::seed_from_u64(10);
            let (_, sqs, v, view) = sharded_system(vec![200], 40);
            let mut ans = sqs.select_range(150, 250).unwrap();
            ans.parts[1].answer.records[2].attrs[1] = 31337;
            assert_eq!(
                v.verify_sharded_selection(150, 250, &ans, &view, 0, true, &mut rng),
                Err(VerifyError::BadAggregate)
            );
        }

        #[test]
        fn single_shard_map_matches_unsharded_behaviour() {
            let mut rng = StdRng::seed_from_u64(11);
            let (_, sqs, v, view) = sharded_system(vec![], 20);
            let ans = sqs.select_range(50, 120).unwrap();
            assert_eq!(ans.parts.len(), 1);
            let rep = v
                .verify_sharded_selection(50, 120, &ans, &view, 0, true, &mut rng)
                .expect("valid");
            assert_eq!(rep.records, 8);
        }

        #[test]
        fn live_server_survives_split_and_merge_with_zero_rejections() {
            // The acceptance-criterion scenario: a live deployment crosses
            // a split and then a merge, and every honest answer — before,
            // between, and after the transitions — verifies.
            let mut rng = StdRng::seed_from_u64(12);
            let (mut sa, mut sqs, v, mut view) = sharded_system(vec![200], 40);
            let queries = [(0, 390), (150, 250), (250, 350), (290, 310), (395, 500)];
            let check_all = |sqs: &mut ShardedQueryServer,
                             view: &EpochView,
                             now: Tick,
                             rng: &mut StdRng,
                             label: &str| {
                for &(lo, hi) in &queries {
                    let ans = sqs.select_range(lo, hi).unwrap();
                    v.verify_sharded_selection(lo, hi, &ans, view, now, true, rng)
                        .unwrap_or_else(|e| panic!("{label}: [{lo},{hi}] rejected: {e:?}"));
                }
            };
            check_all(&mut sqs, &view, sa.now(), &mut rng, "epoch 1");

            // Split shard 1 (keys >= 200) at 300.
            let rb = sa.rebalance(RebalancePlan::Split { shard: 1, at: 300 }, 2);
            sqs.apply_rebalance(&rb).expect("honest split applies");
            view.advance(&rb.transition, v.public_params())
                .expect("honest transition");
            assert_eq!(view.epoch(), 2);
            assert_eq!(sqs.map().splits(), &[200, 300]);
            check_all(&mut sqs, &view, sa.now(), &mut rng, "epoch 2 (post-split)");

            // Keep the deployment live: an update and a summary in the new
            // epoch, then verify again.
            sa.advance_clock(2);
            let (_, msgs) = sa.update_record(0, 3, vec![35, 999]);
            sqs.apply_all(&msgs);
            sa.advance_clock(10);
            sqs.ingest(sa.maybe_publish_summaries());
            check_all(&mut sqs, &view, sa.now(), &mut rng, "epoch 2 (live)");

            // Merge the split pair back together.
            let rb = sa.rebalance(RebalancePlan::Merge { left: 1 }, 2);
            sqs.apply_rebalance(&rb).expect("honest merge applies");
            view.advance(&rb.transition, v.public_params())
                .expect("honest transition");
            assert_eq!(view.epoch(), 3);
            assert_eq!(sqs.map().splits(), &[200]);
            check_all(&mut sqs, &view, sa.now(), &mut rng, "epoch 3 (post-merge)");
        }

        #[test]
        fn stale_epoch_answers_rejected_after_observation() {
            let mut rng = StdRng::seed_from_u64(13);
            let (mut sa, sqs, v, mut view) = sharded_system(vec![200], 40);
            let old_ans = sqs.select_range(150, 250).unwrap();
            assert!(v
                .verify_sharded_selection(150, 250, &old_ans, &view, 0, true, &mut rng)
                .is_ok());
            let rb = sa.rebalance(RebalancePlan::Split { shard: 1, at: 300 }, 2);
            sqs.apply_rebalance(&rb).unwrap();
            // Until the client observes the transition, the in-flight
            // epoch-1 answer still verifies — and the epoch-2 answer is
            // *premature*.
            assert!(v
                .verify_sharded_selection(150, 250, &old_ans, &view, 0, true, &mut rng)
                .is_ok());
            let new_ans = sqs.select_range(150, 250).unwrap();
            assert_eq!(
                v.verify_sharded_selection(150, 250, &new_ans, &view, sa.now(), true, &mut rng),
                Err(VerifyError::StaleEpoch {
                    answer_epoch: 2,
                    live_epoch: 1
                })
            );
            // After observation the situation flips exactly.
            view.advance(&rb.transition, v.public_params()).unwrap();
            assert_eq!(
                v.verify_sharded_selection(150, 250, &old_ans, &view, sa.now(), true, &mut rng),
                Err(VerifyError::StaleEpoch {
                    answer_epoch: 1,
                    live_epoch: 2
                })
            );
            assert!(v
                .verify_sharded_selection(150, 250, &new_ans, &view, sa.now(), true, &mut rng)
                .is_ok());
        }

        #[test]
        fn broken_transitions_rejected() {
            let (mut sa, sqs, v, view) = sharded_system(vec![200], 40);
            let rb = sa.rebalance(RebalancePlan::Split { shard: 0, at: 100 }, 2);
            sqs.apply_rebalance(&rb).unwrap();
            let pp = v.public_params();
            // Wrong parent hash (chain splice).
            let mut spliced = rb.transition.clone();
            spliced.parent_hash[0] ^= 1;
            assert_eq!(
                view.clone().advance(&spliced, pp),
                Err(VerifyError::BrokenTransition)
            );
            // Skipped epoch.
            let mut skipped = rb.transition.clone();
            skipped.epoch += 1;
            assert_eq!(
                view.clone().advance(&skipped, pp),
                Err(VerifyError::BrokenTransition)
            );
            // Tampered map hash (signature no longer covers it).
            let mut redirected = rb.transition.clone();
            redirected.map_hash[0] ^= 1;
            assert_eq!(
                view.clone().advance(&redirected, pp),
                Err(VerifyError::BrokenTransition)
            );
            // The genuine transition advances.
            let mut ok = view.clone();
            ok.advance(&rb.transition, pp).unwrap();
            assert_eq!(ok.map_hash(), &sqs.map().hash());
        }

        #[test]
        fn observe_catches_up_in_one_bundle_and_never_moves_backwards() {
            let (mut sa, sqs, v, genesis) = sharded_system(vec![200], 40);
            let pp = v.public_params();
            // At genesis the (checkpoint-free) bundle is the pinned one.
            let mut view = genesis.clone();
            view.observe(&sqs.epoch_bootstrap(), pp).unwrap();
            assert_eq!(view, genesis);

            // Three rebalances; the reference view folds `advance` over
            // every link, the observing one sees only the last bundle.
            let mut walked = genesis;
            let mut bundles = Vec::new();
            for plan in [
                RebalancePlan::Split { shard: 1, at: 300 },
                RebalancePlan::Merge { left: 1 },
                RebalancePlan::Split { shard: 0, at: 100 },
            ] {
                let rb = sa.rebalance(plan, 2);
                sqs.apply_rebalance(&rb).unwrap();
                walked.advance(&rb.transition, pp).unwrap();
                bundles.push(sqs.epoch_bootstrap());
            }
            // The same seeded deployment (same DA key) split elsewhere: a
            // genuinely signed second partition for epoch 2.
            let (mut fork, fork_qs, _, _) = sharded_system(vec![200], 40);
            let rb = fork.rebalance(RebalancePlan::Split { shard: 1, at: 250 }, 2);
            fork_qs.apply_rebalance(&rb).unwrap();
            let foreign = fork_qs.epoch_bootstrap();
            assert!(EpochView::from_bootstrap(&foreign, pp).is_ok());

            view.observe(&bundles[0], pp).unwrap();
            assert_eq!(view.epoch(), 2);
            assert_eq!(view.observe(&foreign, pp), Err(VerifyError::BadShardMap));
            view.observe(&bundles[2], pp).unwrap();
            assert_eq!(view, walked);
            // The pinned bundle again is a no-op; an older one is a rollback.
            view.observe(&bundles[2], pp).unwrap();
            let rollback = VerifyError::StaleEpoch {
                answer_epoch: 2,
                live_epoch: 4,
            };
            assert_eq!(view.observe(&bundles[0], pp), Err(rollback.clone()));
            assert_eq!(view.observe(&foreign, pp), Err(rollback));
            // Every refusal left the view where it was.
            assert_eq!(view, walked);
        }

        #[test]
        fn cross_epoch_summaries_rejected() {
            // Split-brain within one answer: a part backed by the previous
            // epoch's (genuinely signed) summary stream.
            let mut rng = StdRng::seed_from_u64(15);
            let (mut sa, sqs, v, mut view) = sharded_system(vec![200], 40);
            sa.advance_clock(12);
            sqs.ingest(sa.maybe_publish_summaries());
            let old = sqs.select_range(150, 250).unwrap();
            let rb = sa.rebalance(RebalancePlan::Split { shard: 1, at: 300 }, 2);
            sqs.apply_rebalance(&rb).unwrap();
            view.advance(&rb.transition, v.public_params()).unwrap();
            let mut mixed = sqs.select_range(150, 250).unwrap();
            // Shard 0 survived the split untouched except for the re-bound
            // stream; vouch for it with its old epoch-1 summaries instead.
            assert_eq!(mixed.parts[0].shard, 0);
            mixed.parts[0].answer.summaries = old.parts[0].answer.summaries.clone();
            assert!(!mixed.parts[0].answer.summaries.is_empty());
            assert_eq!(
                v.verify_sharded_selection(150, 250, &mixed, &view, sa.now(), true, &mut rng),
                Err(VerifyError::EpochMismatch { shard: 0 })
            );
            // The honest (re-bound) answer passes.
            let honest = sqs.select_range(150, 250).unwrap();
            assert!(v
                .verify_sharded_selection(150, 250, &honest, &view, sa.now(), true, &mut rng)
                .is_ok());
        }

        #[test]
        fn handoff_replay_of_pre_transition_versions_is_stale() {
            // The rid-space gate: a pre-split answer replayed under the
            // new epoch (with the new map and the new, genuinely-signed
            // baseline summaries) must read as Stale — the baseline marks
            // the whole donor rid space.
            let mut rng = StdRng::seed_from_u64(16);
            let (mut sa, sqs, v, mut view) = sharded_system(vec![200], 40);
            let old = sqs.select_range(210, 290).unwrap(); // inside shard 1
            assert_eq!(old.parts.len(), 1);
            let rb = sa.rebalance(RebalancePlan::Split { shard: 1, at: 300 }, 2);
            sqs.apply_rebalance(&rb).unwrap();
            view.advance(&rb.transition, v.public_params()).unwrap();
            let honest = sqs.select_range(210, 290).unwrap();
            assert_eq!(honest.parts.len(), 1);
            assert_eq!(honest.parts[0].shard, 1);
            // Forge: old records + old aggregate, dressed with the new
            // epoch's stream (boundary keys kept plausible: the old
            // sub-range [210, 290] lies strictly inside the new shard).
            let mut forged = honest.clone();
            forged.parts[0].answer.records = old.parts[0].answer.records.clone();
            forged.parts[0].answer.agg = old.parts[0].answer.agg.clone();
            forged.parts[0].answer.left_key = old.parts[0].answer.left_key;
            forged.parts[0].answer.right_key = old.parts[0].answer.right_key;
            assert!(matches!(
                v.verify_sharded_selection(210, 290, &forged, &view, sa.now(), true, &mut rng),
                Err(VerifyError::Stale { .. })
            ));
            assert!(v
                .verify_sharded_selection(210, 290, &honest, &view, sa.now(), true, &mut rng)
                .is_ok());
        }

        #[test]
        fn bootstrap_from_checkpoint_pins_the_live_epoch_in_constant_signatures() {
            let mut rng = StdRng::seed_from_u64(17);
            let (mut sa, sqs, v, mut walked) = sharded_system(vec![200], 40);
            // Genesis bundle: no checkpoint exists yet; the bundle pins via
            // the map alone.
            let boot = sqs.epoch_bootstrap();
            assert!(boot.checkpoint.is_none() && boot.transition.is_none());
            let view = EpochView::from_bootstrap(&boot, v.public_params()).expect("genesis pin");
            assert_eq!(view.epoch(), 1);
            // Two rebalances later the bundle carries the latest transition
            // plus its checkpoint, and a fresh client pins epoch 3 without
            // ever seeing the epoch-2 link.
            for plan in [
                RebalancePlan::Split { shard: 1, at: 300 },
                RebalancePlan::Merge { left: 1 },
            ] {
                let rb = sa.rebalance(plan, 2);
                sqs.apply_rebalance(&rb).unwrap();
                walked.advance(&rb.transition, v.public_params()).unwrap();
            }
            let boot = sqs.epoch_bootstrap();
            assert_eq!(boot.checkpoint.as_ref().map(|c| c.epoch), Some(3));
            let view = EpochView::from_bootstrap(&boot, v.public_params()).expect("O(1) pin");
            assert_eq!(view.epoch(), 3);
            // The checkpoint-pinned view is exactly the link-by-link one...
            assert_eq!(view, walked);
            // ...and certifies live answers like it.
            let ans = sqs.select_range(150, 250).unwrap();
            assert!(v
                .verify_sharded_selection(150, 250, &ans, &view, sa.now(), true, &mut rng)
                .is_ok());
        }

        #[test]
        fn tampered_bootstrap_bundles_rejected() {
            let (mut sa, sqs, v, _) = sharded_system(vec![200], 40);
            let genesis_map = sa.map().clone();
            let rb1 = sa.rebalance(RebalancePlan::Split { shard: 1, at: 300 }, 2);
            sqs.apply_rebalance(&rb1).unwrap();
            let rb2 = sa.rebalance(RebalancePlan::Merge { left: 1 }, 2);
            sqs.apply_rebalance(&rb2).unwrap();
            let boot = sqs.epoch_bootstrap();
            let pp = v.public_params();
            assert!(EpochView::from_bootstrap(&boot, pp).is_ok());
            // Forged checkpoint content: the signature no longer covers it.
            let mut forged = boot.clone();
            forged.checkpoint.as_mut().unwrap().ts += 1;
            assert_eq!(
                EpochView::from_bootstrap(&forged, pp),
                Err(VerifyError::BadCheckpoint)
            );
            // Wrong-epoch replay: a genuine checkpoint presented with a
            // different genuinely-signed map.
            let mut replayed = boot.clone();
            replayed.map = genesis_map;
            assert_eq!(
                EpochView::from_bootstrap(&replayed, pp),
                Err(VerifyError::BadCheckpoint)
            );
            // Chain break: the transition the checkpoint names is replaced
            // by a different (still genuinely signed) link...
            let mut spliced = boot.clone();
            spliced.transition = Some(rb1.transition.clone());
            assert_eq!(
                EpochView::from_bootstrap(&spliced, pp),
                Err(VerifyError::BadCheckpoint)
            );
            // ...or tampered outright (its own signature fails first).
            let mut broken = boot.clone();
            broken.transition.as_mut().unwrap().ts += 1;
            assert_eq!(
                EpochView::from_bootstrap(&broken, pp),
                Err(VerifyError::BrokenTransition)
            );
            // Withheld transition: past genesis the chain link is owed.
            let mut withheld = boot.clone();
            withheld.transition = None;
            assert_eq!(
                EpochView::from_bootstrap(&withheld, pp),
                Err(VerifyError::BadCheckpoint)
            );
        }

        #[test]
        fn one_check_covers_every_signature_of_a_live_sharded_answer() {
            let mut rng = StdRng::seed_from_u64(19);
            let (mut sa, sqs, v, view) = sharded_system(vec![200], 40);
            for _ in 0..3 {
                sa.advance_clock(12);
                sqs.ingest(sa.maybe_publish_summaries());
            }
            for s in 0..2 {
                let ckpt = sa.checkpoint_shard_summaries(s, 2).expect("compactable");
                sqs.apply_checkpoint(s, ckpt);
            }
            // Straddles the seam: two parts, each with its checkpoint and
            // its two retained summaries.
            let ans = sqs.select_range(150, 250).unwrap();
            let (mut summaries, mut checkpoints) = (0, 0);
            for p in &ans.parts {
                summaries += p.answer.summaries.len();
                checkpoints += usize::from(p.answer.checkpoint.is_some());
            }
            assert_eq!((ans.parts.len(), summaries, checkpoints), (2, 4, 2));
            let rep = v
                .verify_sharded_selection(150, 250, &ans, &view, sa.now(), true, &mut rng)
                .expect("valid");
            assert_eq!(rep.sig_claims, summaries + checkpoints + ans.parts.len());
            // Freshness off: the artifacts are neither claimed nor read.
            let rep = v
                .verify_sharded_selection(150, 250, &ans, &view, sa.now(), false, &mut rng)
                .expect("valid");
            assert_eq!(rep.sig_claims, ans.parts.len());
        }

        #[test]
        fn alien_checkpoint_cannot_vouch_for_another_shard() {
            let mut rng = StdRng::seed_from_u64(18);
            let (mut sa, sqs, v, view) = sharded_system(vec![200], 40);
            for _ in 0..2 {
                sa.advance_clock(12);
                sqs.ingest(sa.maybe_publish_summaries());
            }
            for s in 0..2 {
                let ckpt = sa.checkpoint_shard_summaries(s, 1).expect("compactable");
                sqs.apply_checkpoint(s, ckpt);
            }
            let honest = sqs.select_range(150, 250).unwrap();
            assert!(honest.parts.iter().all(|p| p.answer.checkpoint.is_some()));
            assert!(v
                .verify_sharded_selection(150, 250, &honest, &view, sa.now(), true, &mut rng)
                .is_ok());
            // Cross-shard vouching: shard 1's (genuine) checkpoint on shard
            // 0's part is caught by the domain gate before any signature
            // or freshness work.
            let mut cross = honest.clone();
            cross.parts[0].answer.checkpoint = honest.parts[1].answer.checkpoint.clone();
            assert_eq!(
                v.verify_sharded_selection(150, 250, &cross, &view, sa.now(), true, &mut rng),
                Err(VerifyError::ShardMismatch { shard: 0 })
            );
            // Cross-epoch: an epoch flip likewise fails the domain gate.
            let mut alien = honest.clone();
            alien.parts[0].answer.checkpoint.as_mut().unwrap().epoch = 9;
            assert_eq!(
                v.verify_sharded_selection(150, 250, &alien, &view, sa.now(), true, &mut rng),
                Err(VerifyError::EpochMismatch { shard: 0 })
            );
        }
    }
}
