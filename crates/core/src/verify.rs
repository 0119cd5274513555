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
//! Every selection arrives as a fan-out over the DA-certified partition
//! ([`crate::shard`]; one part for a one-shard deployment), and the fan-out
//! is attack surface of its own. [`Verifier::verify_sharded_selection`]
//! extends the table:
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
//! | [`VerifyError::BadCheckpoint`] | forging or tampering a checkpoint (bad signature — the window, or the exposure's signed `len`, `max`, `max_rid` or `root`), doctoring what its exposure opens (an entry, a chunk's index, a dropped or surplus sibling: the opening no longer hashes to the signed root), splicing an epoch checkpoint onto a map or transition it does not name (hash/epoch mismatch — including wrong-epoch replay of a genuine checkpoint), or withholding the transition a non-genesis bootstrap must chain to |
//! | [`VerifyError::CheckpointUnopened`] | attaching a genuine checkpoint whose (valid) opening leaves out the chunk of a returned rid — withholding the one entry that would expose the version as stale |
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
//! all three tables against a [`crate::adversary::MaliciousServer`] (plus
//! the rebalancing scenarios of [`crate::adversary::RebalanceTamper`]).
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
//! There is one deployment shape — a certified map of one or more shards —
//! and one selection pipeline: an internal stitcher takes N fan-outs, each
//! with the shards the caller could not reach, and
//! [`Verifier::verify_sharded_selection`] (N = 1),
//! [`Verifier::verify_partial_selection`] (N = 1, something unreachable) and
//! [`Verifier::verify_sharded_batch`] (N > 1) are its three forms. No entry
//! point takes a bare per-shard tile: a part is only ever judged inside a
//! fan-out, under the client's pinned [`EpochView`]. Projections and joins
//! run the same phases over their own answer shapes. In order:
//!
//! 0. **Epoch gate** — the answer's map must be the pinned one, by epoch
//!    and content hash.
//! 1. **Structural** — everything decidable from the answer's shape alone
//!    (range, order, boundary and seam keys, fan-out shape, domain tags,
//!    schema fit). Alongside, every signature the answer asks the client to
//!    believe is *collected* as a claim — each attached
//!    [`UpdateSummary`], each [`SummaryCheckpoint`], and each part's chained
//!    aggregate, gap proof or vacancy proof — with the message it must
//!    cover. Nothing is believed yet and nothing compressed is opened.
//! 2. **One fold over every signature** — all claims of all parts (and of
//!    all answers, for [`Verifier::verify_sharded_batch`]) go into a
//!    single [`PublicParams::verify_aggregate_batch`] call. Under BAS they
//!    are all signatures under the one DA key, so an honest answer costs one
//!    two-term multi-Miller loop and one final exponentiation however many
//!    summaries, checkpoints and shards it spans, plus two short scalar
//!    multiplications per claim after the first; an answer with a single
//!    claim degenerates to the plain aggregate check. Mock verifies claim
//!    by claim. Only when the fold fails is each claim re-checked on its
//!    own, freshness artifacts of every part first, then the parts'
//!    aggregates; the first bad one names the typed error
//!    ([`VerifyError::BadCheckpoint`],
//!    [`VerifyError::BadSummarySignature`], [`VerifyError::BadAggregate`]).
//! 3. **Freshness over vouched summaries** — only now are the summaries'
//!    bitmaps decompressed and the checkpoint's exposure read, to judge each
//!    returned version (or vacancy claim) at the caller's clock. A
//!    checkpoint's signature covers a *commitment* to its exposure map — the
//!    root of a hash tree — and the answer carries an opening of that root
//!    for its own rids; so a part's freshness pass starts by hashing the
//!    opening up to the root the fold has just vouched for
//!    ([`Exposure::opens_to_root`](crate::freshness::Exposure::opens_to_root),
//!    [`VerifyError::BadCheckpoint`] on a mismatch), and only then reads an
//!    entry.
//!
//! So no summary bitmap and no exposure entry influences a verdict — and no
//! attacker-supplied bitmap header reaches the decompressor — before the
//! check covering its signature has passed and, for an entry, before its
//! opening has hashed to the signed root. The price is error *precedence*
//! on multi-fault answers only: a forged signature anywhere outranks a
//! doctored exposure entry (caught after the fold, by the root, where a
//! whole signed map used to put it under the checkpoint's signature), and
//! both outrank a freshness verdict (`Stale`, `…Indeterminate`,
//! `CheckpointUnopened`, `CheckpointGap`), because the latter is not
//! computed from unvouched input.
//!
//! ## Fold coefficients
//!
//! The fold checks `e(Σ cᵢσᵢ, g₂) = e(Σ cᵢHᵢ, X)` with `c₀ = 1` and 128-bit
//! `cᵢ`; if any claim is invalid it passes for at most a 2⁻¹²⁸ fraction of
//! coefficient choices, *provided the coefficients are fixed only after the
//! server has committed to every claim*. The entry points that take an
//! `rng` — the three selection forms ([`Verifier::verify_sharded_selection`],
//! [`Verifier::verify_partial_selection`],
//! [`Verifier::verify_sharded_batch`]) and, for its R side,
//! [`verify_join`](crate::join::verify_join) — draw them from it after the
//! answer has arrived; the caller owes an `rng` the server cannot predict.
//! [`Verifier::verify_projection`] and [`EpochView::from_bootstrap`] have
//! no `rng` and derive them from the claims themselves: SHA-256 over the
//! complete transcript — every message and every signature of every claim,
//! length-framed, in fold order — seeds a SHA-256 counter stream. Changing
//! any byte of any claim re-draws every coefficient, so in the random-oracle
//! model a server cannot choose a claim as a function of its coefficient;
//! each transcript it tries offline succeeds with probability ≤ 2⁻¹²⁸. Either
//! way the verifier keeps no state between answers: no cache, no seed.
//!
//! Construct one [`Verifier`] and reuse it across queries; its
//! [`PublicParams`] carry the DA key's precomputed pairing lines, shared by
//! every clone.

use std::sync::Arc;

use authdb_crypto::sha256::{Digest, Sha256};
use authdb_crypto::signer::{PublicParams, Signature};

use crate::freshness::{
    DecodedSummaries, EmptyTableProof, Freshness, SummaryCheckpoint, Unopened, UpdateSummary,
};
use crate::qs::{ProjectionAnswer, SelectionAnswer};
use crate::record::{Record, Schema, Tick, KEY_NEG_INF, KEY_POS_INF};
use crate::shard::{
    EpochBootstrap, EpochCheckpoint, EpochTransition, ShardMap, ShardedSelectionAnswer,
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
    /// A checkpoint failed its own certification: bad signature, an
    /// exposure opening that does not hash to the signed root, a scope
    /// (epoch, map hash, or transition hash) that does not match what it
    /// is presented for, or a non-genesis bootstrap missing the transition
    /// its checkpoint must chain to.
    BadCheckpoint,
    /// The checkpoint's exposure opening says nothing about a returned rid
    /// the map covers: the chunk holding its entry was left out, so whether
    /// a compacted summary exposed the version cannot be read.
    CheckpointUnopened {
        /// The rid whose entry is not opened.
        rid: u64,
    },
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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
    /// have evaluated — [`VerifyError::StaleCheckpoint`] on a hit,
    /// [`VerifyError::CheckpointUnopened`] when the opening withholds the
    /// rid's entry), then
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
            let exposed = ckpt
                .exposed_after(rid)
                .map_err(|Unopened| VerifyError::CheckpointUnopened { rid })?;
            if exposed.is_some_and(|p| ts <= p) {
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
    /// `ts` — both it and the rid holding it are signed, so a vacancy
    /// answer's checkpoint opens nothing.
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
                return Err(VerifyError::StaleCheckpoint {
                    rid: ckpt.exposure.max_rid,
                });
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

    /// Phase 1 for one shard's tile `lo <= Aind <= hi` (never inverted: the
    /// stitcher derives tiles from the pinned map, and an inverted query has
    /// none): every structural check, plus the signed claims and the
    /// freshness subject the later phases need — the single shared pipeline
    /// behind the non-empty, gap-proof and empty-table paths. Believes no
    /// signature and opens no bitmap.
    fn analyze_selection<'a>(
        &self,
        lo: i64,
        hi: i64,
        ans: &'a SelectionAnswer,
        check_fresh: bool,
    ) -> Result<Analyzed<'a>, VerifyError> {
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
    /// vouched for: hash its checkpoint's opening to the vouched root,
    /// decode its summaries once, judge every version (or the vacancy claim)
    /// at `now`, and hand back the part's report.
    fn vouched_report(&self, part: &Analyzed<'_>, now: Tick) -> Result<VerifyReport, VerifyError> {
        let mut max_staleness = 0;
        if let Some(plan) = &part.fresh {
            if plan.ckpt.is_some_and(|c| !c.exposure.opens_to_root()) {
                return Err(VerifyError::BadCheckpoint);
            }
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

    /// Verify a selection answer (see [`crate::shard`]) for the query
    /// `lo <= Aind <= hi` by stitching the per-shard proofs:
    ///
    /// 1. the epoch gate — the answer's map must be *exactly* the
    ///    partition the client's [`EpochView`] pins (same epoch, same
    ///    content hash), so the server can neither re-partition nor replay
    ///    a superseded certified epoch;
    /// 2. the fan-out shape — exactly one answer per overlapping shard, for
    ///    the sub-range the *pinned* map assigns it (the sub-ranges tile
    ///    `[lo, hi]`, so seams cannot swallow records; an inverted range has
    ///    no tile, so its only honest answer is the empty fan-out);
    /// 3. per-shard seam and domain checks — boundary keys must stay
    ///    within the shard's fences, and summaries/vacancy proofs must
    ///    carry the answering shard's `(epoch, shard)` tag;
    /// 4. every per-shard structural pipeline (range, order, boundaries,
    ///    gap/vacancy shape, schema fit) against its sub-range;
    /// 5. one random-linear-combination fold of every signature in the
    ///    fan-out — per-shard aggregates, summaries and checkpoints alike —
    ///    a single multi-Miller loop regardless of shard count or summary
    ///    run length, with per-claim fallback localization on mismatch;
    /// 6. every per-shard freshness pass, over the summaries the fold
    ///    vouched for (`check_fresh` disabled skips the summary phase, for
    ///    experiments isolating authenticity costs).
    ///
    /// This is the stitcher's one-answer, nothing-unreachable form.
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
        let verdict =
            self.verify_partial_selection(lo, hi, ans, &[], view, now, check_fresh, rng)?;
        debug_assert!(verdict.is_complete(), "no unreachable set => complete");
        Ok(verdict.report)
    }

    /// Verify a **partial** answer: the degraded-mode companion to
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
        let verdicts = self
            .stitch(&[(lo, hi, ans, unreachable)], view, now, check_fresh, rng)
            .map_err(|f| f.error)?;
        // One verdict per input.
        Ok(verdicts.into_iter().next().unwrap_or_default())
    }

    /// Verify many answers at once, amortizing the pairing cost: every
    /// signature of every part of every answer — chained aggregates, gap
    /// proofs, vacancy proofs, summaries and checkpoints — folds into **one**
    /// random-linear-combination multi-pairing (BAS; other schemes verify
    /// per claim), with coefficient randomness drawn from `rng`. Each entry
    /// of `batch` pairs a query `(lo, hi)` with the answer to it; each
    /// answer passes the same epoch gate and structural pipeline as in
    /// [`Verifier::verify_sharded_selection`]. A failure — structural, a
    /// signature localized claim by claim after a failed fold, or freshness
    /// — names the index of the entry holding it.
    pub fn verify_sharded_batch(
        &self,
        batch: &[(i64, i64, &ShardedSelectionAnswer)],
        view: &EpochView,
        now: Tick,
        check_fresh: bool,
        rng: &mut impl rand::Rng,
    ) -> Result<Vec<VerifyReport>, BatchFailure> {
        let none_unreachable: &[usize] = &[];
        let fanouts: Vec<Fanout<'_>> = batch
            .iter()
            .map(|&(lo, hi, ans)| (lo, hi, ans, none_unreachable))
            .collect();
        let verdicts = self.stitch(&fanouts, view, now, check_fresh, rng)?;
        Ok(verdicts.into_iter().map(|v| v.report).collect())
    }

    /// The one stitcher behind every selection entry point: each input
    /// through the epoch gate and the structural phase, then **one** fold
    /// over every claim of every part of every input, then each input's
    /// freshness pass. One verdict per input, in input order; a failure
    /// names the input holding it.
    fn stitch(
        &self,
        inputs: &[Fanout<'_>],
        view: &EpochView,
        now: Tick,
        check_fresh: bool,
        rng: &mut impl rand::Rng,
    ) -> Result<Vec<PartialVerdict>, BatchFailure> {
        let mut parts = Vec::new();
        let mut verdicts = Vec::with_capacity(inputs.len());
        for (index, input) in inputs.iter().enumerate() {
            let tiles = self
                .gate_and_analyze(input, view, check_fresh, &mut parts)
                .map_err(|error| BatchFailure { index, error })?;
            verdicts.push(PartialVerdict {
                tiles,
                report: VerifyReport::default(),
            });
        }
        // Input `i` owns as many consecutive `parts` as it has certified
        // tiles.
        let owned = |v: &PartialVerdict| v.tiles.iter().filter(|t| t.is_certified()).count();
        self.fold_claims(&parts, rng).map_err(|f| {
            let mut end = 0;
            let index = verdicts
                .iter()
                .position(|v| {
                    end += owned(v);
                    f.index < end
                })
                .unwrap_or(0);
            BatchFailure {
                index,
                error: f.error,
            }
        })?;
        let mut rest = parts.as_slice();
        for (index, verdict) in verdicts.iter_mut().enumerate() {
            let n = owned(verdict).min(rest.len());
            let (mine, tail) = rest.split_at(n);
            rest = tail;
            for part in mine {
                let r = self
                    .vouched_report(part, now)
                    .map_err(|error| BatchFailure { index, error })?;
                let report = &mut verdict.report;
                report.max_staleness = report.max_staleness.max(r.max_staleness);
                report.records += r.records;
                report.sig_claims += r.sig_claims;
            }
        }
        Ok(verdicts)
    }

    /// Phase 1 for one input: the epoch gate, the fan-out shape, and each
    /// attached part's domain, seam and structural checks. Pushes one
    /// [`Analyzed`] per attached part onto `parts` and returns the input's
    /// tiles (one [`TileStatus::Certified`] per part pushed, in order).
    fn gate_and_analyze<'a>(
        &self,
        &(lo, hi, ans, unreachable): &Fanout<'a>,
        view: &EpochView,
        check_fresh: bool,
        parts: &mut Vec<Analyzed<'a>>,
    ) -> Result<Vec<TileStatus>, VerifyError> {
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
        // transport evidence says it never heard from. An inverted range
        // overlaps no shard, so any part attached to it lands here.
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
                scope.epoch,
                shard,
                a.summaries.iter().map(|s| (s.epoch, s.shard)),
            )?;
            domain_bound(
                scope.epoch,
                shard,
                a.vacancy.iter().map(|v| (v.epoch, v.shard)),
            )?;
            domain_bound(
                scope.epoch,
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
        Ok(tiles)
    }

    /// Verify a projection answer (Section 3.4): every `(rid, attr, value,
    /// ts)` quadruple must match the single aggregate, which also pins each
    /// value to its record and attribute position. Freshness runs through
    /// the same three phases as selections: the aggregate, the attached
    /// summaries and the checkpoint anchoring them share one fold, then each
    /// row's `(rid, ts)` is checked against the vouched artifacts at local
    /// time `now`.
    ///
    /// A projection is served by a one-shard deployment only, so its
    /// freshness artifacts must carry shard 0's tag in the epoch `view`
    /// pins — another epoch's or another shard's genuinely signed stream
    /// vouches for nothing here ([`VerifyError::EpochMismatch`] /
    /// [`VerifyError::ShardMismatch`]). The fold's coefficients come from
    /// the claim transcript (module docs, *Fold coefficients*).
    pub fn verify_projection(
        &self,
        ans: &ProjectionAnswer,
        view: &EpochView,
        now: Tick,
        check_fresh: bool,
    ) -> Result<VerifyReport, VerifyError> {
        domain_bound(
            view.epoch(),
            0,
            ans.summaries.iter().map(|s| (s.epoch, s.shard)),
        )?;
        domain_bound(
            view.epoch(),
            0,
            ans.checkpoint.iter().map(|c| (c.epoch, c.shard)),
        )?;
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
            ckpt: ans.checkpoint.as_ref(),
        });
        let part = Analyzed::new(messages, &ans.agg, fresh, ans.rows.len());
        let parts = std::slice::from_ref(&part);
        self.fold_claims(parts, &mut transcript_rng(parts))
            .map_err(|f| f.error)?;
        self.vouched_report(&part, now)
    }
}

/// The stitcher's input: a query `(lo, hi)`, the fan-out answering it, and
/// the shards the caller's own transport attempts failed to reach.
type Fanout<'a> = (i64, i64, &'a ShardedSelectionAnswer, &'a [usize]);

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
/// must all be `(epoch, shard)` — the answering shard's own tag under the
/// pinned map; a foreign epoch anywhere in the group outranks a foreign
/// shard.
fn domain_bound(
    epoch: u64,
    shard: usize,
    tags: impl Iterator<Item = (u64, u64)> + Clone,
) -> Result<(), VerifyError> {
    if tags.clone().any(|(e, _)| e != epoch) {
        return Err(VerifyError::EpochMismatch { shard });
    }
    if tags.into_iter().any(|(_, tag)| tag != shard as u64) {
        return Err(VerifyError::ShardMismatch { shard });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::da::{DaConfig, SigningMode};
    use crate::qs::{QsOptions, SelectionAnswer};
    use crate::shard::{RebalancePlan, ShardedAggregator, ShardedQueryServer};
    use authdb_crypto::signer::SchemeKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// The one fixture: `n` records with keys `i·10` partitioned at
    /// `splits`, with the DA's honest replica, verifier and genesis view.
    fn deployment(
        scheme: SchemeKind,
        mode: SigningMode,
        splits: Vec<i64>,
        n: i64,
    ) -> (ShardedAggregator, ShardedQueryServer, Verifier, EpochView) {
        let mut rng = StdRng::seed_from_u64(21);
        let cfg = DaConfig {
            scheme,
            mode,
            ..DaConfig::small()
        };
        let mut sa = ShardedAggregator::new(cfg, splits, &mut rng);
        let boots = sa.bootstrap((0..n).map(|i| vec![i * 10, i]).collect(), 2);
        let sqs = sa.replica(&boots, &QsOptions::default());
        let (v, view) = (sa.verifier(), sa.epoch_view());
        (sa, sqs, v, view)
    }

    /// A one-shard deployment and its client.
    struct System {
        sa: ShardedAggregator,
        sqs: ShardedQueryServer,
        v: Verifier,
        view: EpochView,
    }

    fn system(n: i64, mode: SigningMode) -> System {
        system_under(SchemeKind::Mock, n, mode)
    }

    fn system_under(scheme: SchemeKind, n: i64, mode: SigningMode) -> System {
        let (sa, sqs, v, view) = deployment(scheme, mode, vec![], n);
        System { sa, sqs, v, view }
    }

    impl System {
        fn select(&self, lo: i64, hi: i64) -> ShardedSelectionAnswer {
            self.sqs.select_range(lo, hi).unwrap()
        }

        fn verify(
            &self,
            lo: i64,
            hi: i64,
            ans: &ShardedSelectionAnswer,
            now: Tick,
        ) -> Result<VerifyReport, VerifyError> {
            let mut rng = StdRng::seed_from_u64(22);
            self.v
                .verify_sharded_selection(lo, hi, ans, &self.view, now, true, &mut rng)
        }

        fn verify_projection(
            &self,
            ans: &ProjectionAnswer,
            now: Tick,
        ) -> Result<VerifyReport, VerifyError> {
            self.v.verify_projection(ans, &self.view, now, true)
        }

        /// Advance the clock and forward whatever summaries fall due.
        fn tick(&mut self, dt: Tick) {
            self.sa.advance_clock(dt);
            self.sqs.ingest(self.sa.maybe_publish_summaries());
        }

        fn update(&mut self, rid: u64, attrs: Vec<i64>) {
            self.sqs.apply_all(&self.sa.update_record(0, rid, attrs).1);
        }

        fn insert(&mut self, attrs: Vec<i64>) {
            let (shard, msgs) = self.sa.insert(attrs);
            for m in &msgs {
                self.sqs.apply(shard, m);
            }
        }

        /// Compact all but the newest `keep` summaries on both sides.
        fn checkpoint(&mut self, keep: usize) -> SummaryCheckpoint {
            let ckpt = self
                .sa
                .checkpoint_shard_summaries(0, keep)
                .expect("compactable");
            self.sqs.apply_checkpoint(0, ckpt.clone());
            ckpt
        }

        /// The published summaries a client fetches independently.
        fn summaries(&self) -> Vec<Arc<UpdateSummary>> {
            self.sqs.with_shard(0, |qs| qs.summaries().to_vec())
        }

        fn now(&self) -> Tick {
            self.sa.now()
        }
    }

    /// The single part of a one-shard fan-out.
    fn part(ans: &mut ShardedSelectionAnswer) -> &mut SelectionAnswer {
        &mut ans.parts[0].answer
    }

    #[test]
    fn honest_selection_verifies() {
        let s = system(200, SigningMode::Chained);
        let ans = s.select(500, 700);
        let rep = s.verify(500, 700, &ans, 0).expect("valid");
        assert_eq!(rep.records, 21);
    }

    #[test]
    fn tampered_value_rejected() {
        let s = system(100, SigningMode::Chained);
        let mut ans = s.select(100, 300);
        part(&mut ans).records[2].attrs[1] = 666;
        assert_eq!(s.verify(100, 300, &ans, 0), Err(VerifyError::BadAggregate));
    }

    #[test]
    fn dropped_record_rejected() {
        let s = system(100, SigningMode::Chained);
        let mut ans = s.select(100, 300);
        part(&mut ans).records.remove(3); // break the chain
        assert_eq!(s.verify(100, 300, &ans, 0), Err(VerifyError::BadAggregate));
    }

    #[test]
    fn truncated_tail_with_forged_boundary_rejected() {
        let s = system(100, SigningMode::Chained);
        let mut ans = s.select(100, 300);
        // Server drops the tail and moves the right boundary inward.
        part(&mut ans).records.truncate(5);
        part(&mut ans).right_key = 150;
        assert!(matches!(
            s.verify(100, 300, &ans, 0),
            Err(VerifyError::BadBoundary) | Err(VerifyError::BadAggregate)
        ));
    }

    #[test]
    fn out_of_range_record_rejected() {
        let s = system(100, SigningMode::Chained);
        let extra = part(&mut s.select(400, 400)).records[0].clone();
        let mut ans = s.select(100, 300);
        part(&mut ans).records.push(extra.clone());
        assert_eq!(
            s.verify(100, 300, &ans, 0),
            Err(VerifyError::RecordOutOfRange { rid: extra.rid })
        );
    }

    #[test]
    fn empty_answer_gap_proof_verifies() {
        let s = system(100, SigningMode::Chained);
        let ans = s.select(101, 109);
        let rep = s.verify(101, 109, &ans, 0).expect("valid");
        assert_eq!(rep.records, 0);
    }

    #[test]
    fn forged_gap_proof_rejected() {
        let s = system(100, SigningMode::Chained);
        let mut ans = s.select(101, 109);
        // Claim a wider gap than certified.
        part(&mut ans).gap.as_mut().unwrap().right_key = 10_000;
        assert_eq!(s.verify(101, 109, &ans, 0), Err(VerifyError::BadAggregate));
    }

    #[test]
    fn gap_proof_not_bracketing_rejected() {
        let s = system(100, SigningMode::Chained);
        let ans = s.select(101, 109);
        // Replay the same (valid) proof against a different range it does
        // not bracket: rejected via the boundary check or the gap check.
        assert!(matches!(
            s.verify(301, 309, &ans, 0),
            Err(VerifyError::BadBoundary) | Err(VerifyError::BadGapProof)
        ));
    }

    #[test]
    fn unchecked_artifacts_cannot_ride_on_nonempty_answers() {
        // Nothing on the non-empty path signature-checks a gap or vacancy
        // artifact, so a forged one attached to an otherwise-honest answer
        // must be rejected, not delivered inside a verified result. (These
        // shapes are network-reachable: the wire codec accepts them.)
        let s = system(100, SigningMode::Chained);
        let honest = s.select(100, 300);
        assert!(s.verify(100, 300, &honest, 0).is_ok());

        let mut with_gap = honest.clone();
        part(&mut with_gap).gap = part(&mut s.select(2001, 2009)).gap.clone();
        assert!(part(&mut with_gap).gap.is_some());
        assert_eq!(
            s.verify(100, 300, &with_gap, 0),
            Err(VerifyError::BadGapProof)
        );

        // Tagged for this shard's own domain, so only the shape can object.
        let forged_vacancy = Some(EmptyTableProof {
            epoch: GENESIS_EPOCH,
            shard: 0,
            ts: 0,
            signature: s.v.public_params().identity(),
        });
        let mut with_vacancy = honest.clone();
        part(&mut with_vacancy).vacancy = forged_vacancy.clone();
        assert_eq!(
            s.verify(100, 300, &with_vacancy, 0),
            Err(VerifyError::BadGapProof)
        );

        // Same for a vacancy co-attached to a genuine gap-proof answer.
        let mut gap_ans = s.select(101, 109);
        assert!(part(&mut gap_ans).gap.is_some());
        part(&mut gap_ans).vacancy = forged_vacancy;
        assert_eq!(
            s.verify(101, 109, &gap_ans, 0),
            Err(VerifyError::BadGapProof)
        );
    }

    #[test]
    fn stale_record_detected_via_summaries() {
        let mut s = system(50, SigningMode::Chained);
        // Capture the answer before an update...
        let stale_ans = s.select(200, 260);
        // ...then update record key=230 and publish the summary trail.
        s.tick(12);
        s.sa.advance_clock(2);
        s.update(23, vec![230, 777]);
        s.tick(10);
        // A malicious server replays the stale answer but must attach the
        // published summaries (the client fetches them independently).
        let mut replay = stale_ans;
        part(&mut replay).summaries = s.summaries();
        assert_eq!(
            s.verify(200, 260, &replay, 25),
            Err(VerifyError::Stale {
                rid: 23,
                exposed_by: 1
            })
        );
        // The honest fresh answer passes.
        let fresh = s.select(200, 260);
        assert!(s.verify(200, 260, &fresh, 25).is_ok());
    }

    /// A deployment with three published summaries, an update to rid 23 in
    /// the second period, and the prefix compacted into a checkpoint with
    /// `keep` summaries retained.
    fn checkpointed_system(keep: usize) -> System {
        checkpointed_system_under(SchemeKind::Mock, SigningMode::Chained, keep)
    }

    fn checkpointed_system_under(scheme: SchemeKind, mode: SigningMode, keep: usize) -> System {
        let mut s = system_under(scheme, 50, mode);
        s.tick(12);
        s.sa.advance_clock(2);
        s.update(23, vec![230, 777]);
        s.tick(10);
        s.tick(10);
        s.checkpoint(keep);
        s
    }

    #[test]
    fn checkpoint_anchored_answers_verify_and_exposure_keeps_stale_verdicts() {
        let stale_ans = system(50, SigningMode::Chained).select(200, 260);
        // Compact everything but the newest summary — including seq 1, the
        // summary that used to prove the replay stale.
        let s = checkpointed_system(1);
        let ckpt = s.sa.shard(0).summary_checkpoint().cloned().unwrap();
        // Honest answers now ride on checkpoint + retained suffix: the DA's
        // own commitment and signature, opened for rids 20..=26 — one chunk
        // of the four, so two sibling digests.
        let mut honest = s.select(200, 260);
        let anchor = part(&mut honest).checkpoint.clone().expect("anchor");
        assert_eq!(anchor.signed_message(), ckpt.signed_message());
        assert_eq!(anchor.signature, ckpt.signature);
        let opened = &anchor.exposure;
        assert_eq!((opened.chunks.len(), opened.siblings.len()), (1, 2));
        assert!(part(&mut honest)
            .summaries
            .iter()
            .all(|s| s.seq > ckpt.through_seq));
        assert!(s.verify(200, 260, &honest, s.now()).is_ok());
        // A gap proof older than the cut anchors on the checkpoint too.
        let mut gap_ans = s.select(201, 209);
        assert!(part(&mut gap_ans).gap.is_some() && part(&mut gap_ans).checkpoint.is_some());
        assert!(s.verify(201, 209, &gap_ans, s.now()).is_ok());
        // The pre-update replay is exposed by the *checkpoint*: the marking
        // summary was compacted away, and the exposure map keeps its
        // verdict alive across the cut — read off the opening the honest
        // answer carries, or off the whole map (every chunk, no sibling).
        for anchor in [anchor, ckpt.clone()] {
            let mut replay = stale_ans.clone();
            part(&mut replay).summaries = s.summaries();
            part(&mut replay).checkpoint = Some(anchor);
            assert_eq!(
                s.verify(200, 260, &replay, s.now()),
                Err(VerifyError::StaleCheckpoint { rid: 23 })
            );
        }
        // A genuine checkpoint opened for *other* rids (0..=10, chunk 0)
        // hashes to its root and says nothing about these: withholding rid
        // 23's entry is not a fresh verdict. The first returned rid is
        // named.
        let mut replay = stale_ans;
        part(&mut replay).summaries = s.summaries();
        part(&mut replay).checkpoint = part(&mut s.select(0, 100)).checkpoint.clone();
        assert!(part(&mut replay).checkpoint.is_some());
        assert_eq!(
            s.verify(200, 260, &replay, s.now()),
            Err(VerifyError::CheckpointUnopened { rid: 20 })
        );
    }

    #[test]
    fn forged_checkpoint_and_seam_gap_rejected() {
        let s = checkpointed_system(2);
        let mut honest = s.select(200, 260);
        assert_eq!(part(&mut honest).summaries.len(), 2);
        assert!(s.verify(200, 260, &honest, s.now()).is_ok());
        // Any field flip breaks the checkpoint's signature.
        let mut forged = honest.clone();
        part(&mut forged).checkpoint.as_mut().unwrap().through_seq += 1;
        assert_eq!(
            s.verify(200, 260, &forged, s.now()),
            Err(VerifyError::BadCheckpoint)
        );
        // Dropping the retained summary that abuts the cut leaves seq 1
        // covered by nobody: the run no longer anchors at the checkpoint
        // and the seam failure is typed, not a generic indeterminate.
        let mut gappy = honest.clone();
        part(&mut gappy).summaries.remove(0);
        assert_eq!(
            s.verify(200, 260, &gappy, s.now()),
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
        let s = checkpointed_system(1);
        let mut bare = s.select(200, 260);
        part(&mut bare).summaries.clear();
        // Within 2ρ of the cut the checkpoint itself is recency evidence —
        // the complete-prefix guarantee plus the exposure pass make an
        // empty retained run sound.
        assert!(s.verify(200, 260, &bare, s.now()).is_ok());
        // Past 2ρ the server may be sitting on newer summaries that mark
        // these versions: the recency gate survives compaction.
        assert!(matches!(
            s.verify(200, 260, &bare, s.now() + 10),
            Err(VerifyError::FreshnessIndeterminate { .. })
        ));
    }

    #[test]
    fn vacancy_older_than_checkpoint_is_stale_by_exposure() {
        let mut s = system(0, SigningMode::Chained);
        let mut stale = s.select(0, 100);
        assert!(part(&mut stale).vacancy.is_some());
        s.sa.advance_clock(3);
        s.insert(vec![50, 1]);
        s.tick(9);
        s.tick(10);
        // Compact the summary that recorded the insertion.
        let ckpt = s.checkpoint(1);
        // The replayed pre-insert vacancy is voided by the exposure map's
        // record of the insertion, naming the inserted rid.
        let mut replay = stale;
        part(&mut replay).summaries = s.summaries();
        part(&mut replay).checkpoint = Some(ckpt);
        assert_eq!(
            s.verify(0, 100, &replay, s.now()),
            Err(VerifyError::StaleCheckpoint { rid: 0 })
        );
        // The honest answer (now containing the record) passes with the
        // checkpoint attached.
        let mut honest = s.select(0, 100);
        assert_eq!(part(&mut honest).records.len(), 1);
        assert!(part(&mut honest).checkpoint.is_some());
        assert!(s.verify(0, 100, &honest, s.now()).is_ok());
    }

    #[test]
    fn tampered_summary_rejected() {
        let mut s = system(20, SigningMode::Chained);
        s.tick(12);
        let mut ans = s.select(0, 50);
        Arc::make_mut(&mut part(&mut ans).summaries[0]).ts += 1; // tamper
        assert!(matches!(
            s.verify(0, 50, &ans, 13),
            Err(VerifyError::BadSummarySignature { .. })
        ));
    }

    #[test]
    fn signature_faults_outrank_freshness_and_keep_their_order() {
        for scheme in [SchemeKind::Mock, SchemeKind::Bas] {
            // Capture a pre-update answer, then the checkpointed timeline:
            // the cut covers seq 0, seqs 1 and 2 ride along, rid 23 moved
            // in seq 1's period.
            let old = system_under(scheme, 50, SigningMode::Chained).select(200, 260);
            let s = checkpointed_system_under(scheme, SigningMode::Chained, 2);
            let now = s.now();
            let honest = s.select(200, 260);
            let honest_part = &honest.parts[0].answer;
            let seqs: Vec<u64> = honest_part.summaries.iter().map(|s| s.seq).collect();
            assert_eq!(seqs, [1, 2], "{scheme:?}");
            assert!(honest_part.checkpoint.is_some());
            let verify = |ans: &ShardedSelectionAnswer| s.verify(200, 260, ans, now);
            assert_eq!(verify(&honest).map(|r| r.sig_claims), Ok(4), "{scheme:?}");

            // The checkpoint's signature covers its window and the root of
            // its exposure map; the opened entries hang off the root.
            let bad_ckpt = |ans: &mut ShardedSelectionAnswer| {
                part(ans).checkpoint.as_mut().unwrap().exposure.max ^= 1;
            };
            let bad_entry = |ans: &mut ShardedSelectionAnswer| {
                let exposure = &mut part(ans).checkpoint.as_mut().unwrap().exposure;
                *exposure.entry_mut(23).expect("rid 23 opened") ^= 1;
            };
            let bad_summary = |ans: &mut ShardedSelectionAnswer, k: usize| {
                Arc::make_mut(&mut part(ans).summaries[k]).period_start ^= 1;
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

            // A doctored entry is no signature fault: every claim holds,
            // and the root it no longer hashes to rejects it after the fold
            // — so it ranks below any forged signature and above any
            // freshness verdict.
            let mut a = honest.clone();
            bad_entry(&mut a);
            assert_eq!(verify(&a), Err(VerifyError::BadCheckpoint), "{scheme:?}");
            bad_summary(&mut a, 1);
            assert_eq!(
                verify(&a),
                Err(VerifyError::BadSummarySignature { seq: 2 }),
                "{scheme:?}"
            );
            let mut a = old.clone();
            part(&mut a).summaries = honest_part.summaries.clone();
            part(&mut a).checkpoint = honest_part.checkpoint.clone();
            bad_entry(&mut a);
            assert_eq!(verify(&a), Err(VerifyError::BadCheckpoint), "{scheme:?}");

            // A bad summary outranks a bad aggregate...
            let mut a = honest.clone();
            part(&mut a).records[0].attrs[1] ^= 1;
            bad_summary(&mut a, 1);
            assert_eq!(
                verify(&a),
                Err(VerifyError::BadSummarySignature { seq: 2 }),
                "{scheme:?}"
            );

            // ...and a replay whose every signature is genuine gets past
            // the fold and is exposed by the vouched summaries.
            let mut replay = old.clone();
            part(&mut replay).summaries = honest_part.summaries.clone();
            part(&mut replay).checkpoint = honest_part.checkpoint.clone();
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
        let s = checkpointed_system(2);
        let honest = s.select(200, 260);
        // The probe is live: an honest verification opens both bitmaps.
        let before = decodes();
        assert!(s.verify(200, 260, &honest, s.now()).is_ok());
        assert_eq!(decodes() - before, 2);
        // A sparse-mode header declaring 2^62 bits under the old signature:
        // the fold rejects the summary, and the freshness pass — the only
        // place a bitmap is decompressed — never runs.
        let mut forged = honest.clone();
        let summary = Arc::make_mut(&mut part(&mut forged).summaries[1]);
        summary.compressed = vec![0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 1];
        let seq = summary.seq;
        let before = decodes();
        assert_eq!(
            s.verify(200, 260, &forged, s.now()),
            Err(VerifyError::BadSummarySignature { seq })
        );
        assert_eq!(decodes(), before);
    }

    #[test]
    fn no_exposure_entry_is_read_before_its_opening_and_signature_hold() {
        use crate::freshness::ENTRIES_READ;
        let reads = || ENTRIES_READ.with(|n| n.get());
        // The cut covers the summary marking rid 23, so the opened chunk is
        // unlike its neighbours (equal chunks hash alike wherever they sit).
        let s = checkpointed_system(1);
        let honest = s.select(200, 260);
        // The probe is live: an honest verification reads one entry per
        // returned record.
        let before = reads();
        assert!(s.verify(200, 260, &honest, s.now()).is_ok());
        assert_eq!(reads() - before, 7);
        // A forged signature — on a summary, or on the message carrying the
        // root (a declared length of 2⁶⁴ − 1 among the ways: it sizes no
        // allocation and no loop) — stops at the fold. An opening that does
        // not hash to the vouched root — a doctored entry, a chunk moved to
        // another index, a dropped or surplus sibling — stops right after
        // it. Either way not one entry is read.
        type Fault = fn(&mut SelectionAnswer);
        fn exposure(a: &mut SelectionAnswer) -> &mut crate::freshness::Exposure {
            &mut a.checkpoint.as_mut().unwrap().exposure
        }
        let faults: [(Fault, VerifyError); 7] = [
            (
                |a| Arc::make_mut(&mut a.summaries[0]).ts ^= 1,
                VerifyError::BadSummarySignature { seq: 2 },
            ),
            (|a| exposure(a).root[0] ^= 1, VerifyError::BadCheckpoint),
            (|a| exposure(a).len = u64::MAX, VerifyError::BadCheckpoint),
            (
                |a| *exposure(a).entry_mut(20).unwrap() ^= 1,
                VerifyError::BadCheckpoint,
            ),
            (|a| exposure(a).chunks[0].0 = 2, VerifyError::BadCheckpoint),
            (
                |a| assert!(exposure(a).siblings.pop().is_some()),
                VerifyError::BadCheckpoint,
            ),
            (
                |a| exposure(a).siblings.push([0; 32]),
                VerifyError::BadCheckpoint,
            ),
        ];
        for (fault, want) in faults {
            let mut doctored = honest.clone();
            fault(part(&mut doctored));
            let before = reads();
            assert_eq!(s.verify(200, 260, &doctored, s.now()), Err(want));
            assert_eq!(reads(), before);
        }
    }

    #[test]
    fn static_point_answer_is_a_single_claim() {
        let s = system(100, SigningMode::Chained);
        let ans = s.select(500, 500);
        let rep = s.verify(500, 500, &ans, 0).expect("valid");
        assert_eq!((rep.records, rep.sig_claims), (1, 1));
    }

    #[test]
    fn transcript_coefficients_depend_on_every_claim_byte() {
        use rand::RngCore;
        let s = checkpointed_system(2);
        let ans = s.select(200, 260).parts.remove(0).answer;
        let draw = |ans: &SelectionAnswer| {
            let part = s.v.analyze_selection(200, 260, ans, true).unwrap();
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
        a.checkpoint.as_mut().unwrap().exposure.root[0] ^= 1;
        assert_ne!(draw(&a), base);
        let mut a = ans.clone();
        a.agg = a.summaries[0].signature.clone();
        assert_ne!(draw(&a), base);
    }

    #[test]
    fn projection_verifies_and_rejects_swap() {
        let s = system(50, SigningMode::PerAttribute);
        let ans = s.sqs.project(0, 200, &[0, 1]).unwrap();
        assert!(s.verify_projection(&ans, 0).is_ok());
        // Swapping two values between records must fail (messages bind rid
        // and attribute position).
        let mut bad = ans.clone();
        let tmp = bad.rows[0].values[1];
        bad.rows[0].values[1] = bad.rows[1].values[1];
        bad.rows[1].values[1] = tmp;
        assert_eq!(s.verify_projection(&bad, 0), Err(VerifyError::BadAggregate));
    }

    #[test]
    fn projection_rejects_forged_value() {
        let s = system(50, SigningMode::PerAttribute);
        let mut ans = s.sqs.project(0, 200, &[1]).unwrap();
        ans.rows[3].values[0].1 += 1;
        assert_eq!(s.verify_projection(&ans, 0), Err(VerifyError::BadAggregate));
    }

    #[test]
    fn projection_detects_stale_row() {
        let mut s = system(50, SigningMode::PerAttribute);
        let stale = s.sqs.project(0, 200, &[1]).unwrap();
        s.tick(12);
        s.sa.advance_clock(2);
        s.update(5, vec![50, 999]);
        s.tick(10);
        // Replaying the pre-update projection with the published summaries
        // exposes row 5.
        let mut replay = stale;
        replay.summaries = s.summaries();
        assert!(matches!(
            s.verify_projection(&replay, 25),
            Err(VerifyError::Stale { rid: 5, .. })
        ));
        // The honest fresh projection passes.
        let fresh = s.sqs.project(0, 200, &[1]).unwrap();
        assert!(s.verify_projection(&fresh, 25).is_ok());
    }

    /// Regression: a projection whose oldest row predates a summary
    /// checkpoint shipped no anchor for its cut run and was rejected as
    /// `FreshnessIndeterminate`. It now carries the checkpoint exactly as a
    /// selection does, and the checkpoint is a claim like any other.
    #[test]
    fn projection_after_a_summary_checkpoint_verifies() {
        for scheme in [SchemeKind::Mock, SchemeKind::Bas] {
            let s = checkpointed_system_under(scheme, SigningMode::PerAttribute, 1);
            let ans = s.sqs.project(0, 200, &[0, 1]).unwrap();
            assert!(ans.rows.iter().any(|r| r.ts == 0), "rows predate the cut");
            assert!(ans.checkpoint.is_some());
            let rep = s.verify_projection(&ans, s.now()).expect("anchored");
            assert_eq!((rep.records, rep.sig_claims), (21, 3), "{scheme:?}");
            // Without its anchor the cut run proves nothing about the
            // prefix...
            let mut bare = ans.clone();
            bare.checkpoint = None;
            assert_eq!(
                s.verify_projection(&bare, s.now()),
                Err(VerifyError::FreshnessIndeterminate { rid: 0 }),
                "{scheme:?}"
            );
            // ...and the anchor is believed only under the DA's signature.
            let mut forged = ans.clone();
            let exposure = &mut forged.checkpoint.as_mut().unwrap().exposure;
            assert_ne!(std::mem::take(exposure.entry_mut(23).unwrap()), 0);
            assert_eq!(
                s.verify_projection(&forged, s.now()),
                Err(VerifyError::BadCheckpoint),
                "{scheme:?}"
            );
        }
    }

    /// A projection's freshness artifacts are domain-bound like every other
    /// part's: only shard 0's stream in the pinned epoch vouches for it.
    #[test]
    fn projection_artifacts_are_domain_bound() {
        let s = checkpointed_system_under(SchemeKind::Mock, SigningMode::PerAttribute, 1);
        let ans = s.sqs.project(0, 200, &[1]).unwrap();
        let mut alien = ans.clone();
        Arc::make_mut(&mut alien.summaries[0]).shard = 1;
        assert_eq!(
            s.verify_projection(&alien, s.now()),
            Err(VerifyError::ShardMismatch { shard: 0 })
        );
        let mut alien = ans.clone();
        alien.checkpoint.as_mut().unwrap().epoch += 1;
        assert_eq!(
            s.verify_projection(&alien, s.now()),
            Err(VerifyError::EpochMismatch { shard: 0 })
        );
    }

    #[test]
    fn empty_table_answer_verifies() {
        let s = system(0, SigningMode::Chained);
        let mut ans = s.select(-500, 500);
        assert!(part(&mut ans).vacancy.is_some());
        let rep = s.verify(-500, 500, &ans, 0).expect("valid");
        assert_eq!(rep.records, 0);
    }

    #[test]
    fn empty_table_then_deletes_keep_verifying() {
        let mut s = system(2, SigningMode::Chained);
        s.sa.advance_clock(2);
        for rid in 0..2 {
            s.sqs.apply_all(&s.sa.delete_record(0, rid));
        }
        s.tick(10);
        let mut ans = s.select(0, 100);
        assert!(part(&mut ans).gap.is_none() && part(&mut ans).vacancy.is_some());
        assert!(s.verify(0, 100, &ans, s.now()).is_ok());
    }

    #[test]
    fn replayed_vacancy_proof_rejected_after_insert() {
        let mut s = system(0, SigningMode::Chained);
        let mut stale = s.select(0, 100);
        assert!(part(&mut stale).vacancy.is_some());
        s.sa.advance_clock(3);
        s.insert(vec![50, 1]);
        s.tick(9);
        // Malicious replay of the pre-insert vacancy claim, with the
        // published summaries the client fetches independently.
        let mut replay = stale;
        part(&mut replay).summaries = s.summaries();
        assert!(matches!(
            s.verify(0, 100, &replay, s.now()),
            Err(VerifyError::StaleVacancy { .. })
        ));
        // The honest answer (which now contains the record) passes.
        let mut honest = s.select(0, 100);
        assert_eq!(part(&mut honest).records.len(), 1);
        assert!(s.verify(0, 100, &honest, s.now()).is_ok());
    }

    #[test]
    fn empty_answer_without_gap_or_vacancy_rejected() {
        // An empty result must certify its emptiness: stripping both the
        // gap proof and the vacancy certificate is the laziest possible
        // omission attack and must surface as MissingGapProof.
        let s = system(50, SigningMode::Chained);
        let mut ans = s.select(231, 239);
        assert!(part(&mut ans).records.is_empty() && part(&mut ans).gap.is_some());
        part(&mut ans).gap = None;
        assert!(matches!(
            s.verify(231, 239, &ans, 0),
            Err(VerifyError::MissingGapProof)
        ));
    }

    #[test]
    fn vacancy_with_gappy_summary_run_is_indeterminate() {
        // A vacancy claim whose summary run withholds the middle summary
        // can hide the insertion that voids it; contiguity failure must
        // surface as VacancyIndeterminate, not as a fresh verdict.
        let mut s = system(0, SigningMode::Chained);
        for _ in 0..3 {
            s.tick(12);
        }
        let mut ans = s.select(0, 100);
        assert!(part(&mut ans).vacancy.is_some());
        assert_eq!(part(&mut ans).summaries.len(), 3);
        let mut gappy = ans.clone();
        part(&mut gappy).summaries.remove(1);
        assert!(matches!(
            s.verify(0, 100, &gappy, s.now()),
            Err(VerifyError::VacancyIndeterminate)
        ));
        // The full contiguous run verifies.
        assert!(s.verify(0, 100, &ans, s.now()).is_ok());
    }

    #[test]
    fn stale_gap_record_rejected() {
        // Satellite regression: the bracketing record of a gap proof must
        // go through the summary check like any returned record.
        let mut s = system(50, SigningMode::Chained);
        let mut stale_empty = s.select(231, 239);
        assert_eq!(part(&mut stale_empty).gap.as_ref().unwrap().record.rid, 23);
        s.tick(12);
        s.sa.advance_clock(2);
        s.update(23, vec![230, 777]);
        s.tick(10);
        let mut replay = stale_empty;
        part(&mut replay).summaries = s.summaries();
        assert!(matches!(
            s.verify(231, 239, &replay, s.now()),
            Err(VerifyError::Stale { rid: 23, .. })
        ));
        // The honest gap proof (re-certified bracket) passes.
        let fresh = s.select(231, 239);
        assert!(s.verify(231, 239, &fresh, s.now()).is_ok());
    }

    #[test]
    fn withheld_summary_suffix_rejected() {
        // Satellite regression: stripping the newest summaries must yield
        // Indeterminate, not FreshWithin(rho).
        let mut s = system(50, SigningMode::Chained);
        s.tick(12);
        s.sa.advance_clock(2);
        s.update(23, vec![230, 777]);
        s.tick(10);
        s.tick(10);
        let mut ans = s.select(200, 260);
        // Withhold everything after the first summary: the stale-looking
        // window.
        part(&mut ans).summaries.truncate(1);
        assert!(matches!(
            s.verify(200, 260, &ans, s.now()),
            Err(VerifyError::FreshnessIndeterminate { .. })
        ));
        let honest = s.select(200, 260);
        assert!(s.verify(200, 260, &honest, s.now()).is_ok());
    }

    /// Pair each query with the answer to it — the batch entry's input.
    fn paired<'a>(
        queries: &[(i64, i64)],
        answers: &'a [ShardedSelectionAnswer],
    ) -> Vec<(i64, i64, &'a ShardedSelectionAnswer)> {
        let pairs = queries.iter().zip(answers);
        pairs.map(|(&(lo, hi), ans)| (lo, hi, ans)).collect()
    }

    fn answer_all(s: &System, queries: &[(i64, i64)]) -> Vec<ShardedSelectionAnswer> {
        queries.iter().map(|&(lo, hi)| s.select(lo, hi)).collect()
    }

    #[test]
    fn batch_verifies_honest_answers() {
        let mut rng = StdRng::seed_from_u64(91);
        let s = system(200, SigningMode::Chained);
        let queries: Vec<(i64, i64)> = (0..8).map(|i| (i * 200, i * 200 + 150)).collect();
        let answers = answer_all(&s, &queries);
        let reports =
            s.v.verify_sharded_batch(&paired(&queries, &answers), &s.view, 0, true, &mut rng)
                .expect("honest batch verifies");
        assert_eq!(reports.len(), 8);
        for (rep, ans) in reports.iter().zip(&answers) {
            assert_eq!(rep.records, ans.parts[0].answer.records.len());
        }
    }

    #[test]
    fn batch_localizes_tampered_answer() {
        let mut rng = StdRng::seed_from_u64(92);
        let s = system(200, SigningMode::Chained);
        let queries: Vec<(i64, i64)> = (0..6).map(|i| (i * 300, i * 300 + 200)).collect();
        let mut answers = answer_all(&s, &queries);
        // Tamper answer 3's content: the batch check fails, and the
        // fallback localizes exactly that index.
        part(&mut answers[3]).records[1].attrs[1] = 31337;
        let err =
            s.v.verify_sharded_batch(&paired(&queries, &answers), &s.view, 0, true, &mut rng)
                .expect_err("tampered batch rejected");
        assert_eq!(
            err,
            BatchFailure {
                index: 3,
                error: VerifyError::BadAggregate
            }
        );
        // A structural fault and a stale map are localized the same way.
        let mut answers = answer_all(&s, &queries);
        part(&mut answers[4]).records.swap(0, 1);
        let err =
            s.v.verify_sharded_batch(&paired(&queries, &answers), &s.view, 0, true, &mut rng)
                .expect_err("unsorted answer rejected");
        assert_eq!((err.index, err.error), (4, VerifyError::Unsorted));
    }

    #[test]
    fn batch_mixes_gap_and_vacancy_claims() {
        let mut rng = StdRng::seed_from_u64(93);
        // Three shards, the middle one empty: a batch mixing a multi-part
        // answer, gap proofs, a vacancy claim and an inverted range.
        let (_, sqs, v, view) = deployment(
            SchemeKind::Mock,
            SigningMode::Chained,
            vec![1000, 2000],
            100,
        );
        let queries = [(100, 300), (101, 109), (900, 2100), (1200, 1300), (9, 1)];
        let answers: Vec<_> = queries
            .iter()
            .map(|&(lo, hi)| sqs.select_range(lo, hi).unwrap())
            .collect();
        assert!(answers[1].parts[0].answer.gap.is_some());
        assert_eq!(answers[2].parts.len(), 3);
        assert!(answers[3].parts[0].answer.vacancy.is_some());
        assert!(answers[4].parts.is_empty());
        let reports = v
            .verify_sharded_batch(&paired(&queries, &answers), &view, 0, true, &mut rng)
            .expect("mixed batch verifies");
        let records: Vec<usize> = reports.iter().map(|r| r.records).collect();
        assert_eq!(records, [21, 0, 10, 0, 0]);
        let claims: Vec<usize> = reports.iter().map(|r| r.sig_claims).collect();
        assert_eq!(claims, [1, 1, 3, 1, 0]);
    }

    /// Counts the coefficient draws a fold makes.
    struct CountingRng(StdRng, usize);

    impl rand::RngCore for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    #[test]
    fn batch_with_bas_scheme_verifies_and_localizes() {
        let mut s = system_under(SchemeKind::Bas, 30, SigningMode::Chained);
        s.tick(12);
        let queries = [(0, 40), (50, 120), (201, 209)];
        let mut answers = answer_all(&s, &queries);
        // One fold for the whole batch: K claims draw K − 1 coefficients of
        // two words each. (A fold per answer would draw 2·(K − N).)
        let mut rng = CountingRng(StdRng::seed_from_u64(41), 0);
        let reports =
            s.v.verify_sharded_batch(&paired(&queries, &answers), &s.view, 12, true, &mut rng)
                .expect("honest batch verifies");
        let claims: usize = reports.iter().map(|r| r.sig_claims).sum();
        assert_eq!(claims, 6, "an aggregate and a summary per answer");
        assert_eq!(rng.1, 2 * (claims - 1));
        part(&mut answers[1]).records[0].attrs[1] = 777;
        let err =
            s.v.verify_sharded_batch(&paired(&queries, &answers), &s.view, 12, true, &mut rng)
                .expect_err("tamper caught");
        assert_eq!(err.index, 1);
        assert_eq!(err.error, VerifyError::BadAggregate);
    }

    #[test]
    fn end_to_end_with_bas_scheme() {
        // Full cryptographic path once (slow): BAS signatures.
        let s = system_under(SchemeKind::Bas, 30, SigningMode::Chained);
        let ans = s.select(50, 120);
        let rep = s.verify(50, 120, &ans, 0).expect("valid");
        assert_eq!(rep.records, 8);
        let mut bad = ans.clone();
        part(&mut bad).records[0].attrs[1] = 9;
        assert_eq!(s.verify(50, 120, &bad, 0), Err(VerifyError::BadAggregate));
    }

    #[test]
    fn inverted_range_honest_answer_verifies() {
        // An inverted range overlaps no shard: the honest answer is the
        // empty fan-out, and nothing in it needs certifying.
        let s = system(50, SigningMode::Chained);
        let ans = s.select(300, 200);
        assert!(ans.parts.is_empty());
        let rep = s.verify(300, 200, &ans, 0).expect("valid");
        assert_eq!((rep.records, rep.sig_claims), (0, 0));
        // Even on an empty table, and even with freshness on late clocks.
        let e = system(0, SigningMode::Chained);
        let ans = e.select(10, -10);
        assert!(e.verify(10, -10, &ans, 500).is_ok());
    }

    #[test]
    fn inverted_range_with_records_rejected() {
        // Nothing attached to an inverted range would ever be
        // signature-checked, so any part at all is rejected whole.
        let s = checkpointed_system(1);
        let unexpected = Err(VerifyError::UnexpectedShardAnswer { shard: 0 });
        // A server smuggles genuine records into a vacuously-empty query...
        let genuine = s.select(200, 260);
        assert_eq!(s.verify(300, 200, &genuine, s.now()), unexpected);
        // ...or a genuine gap proof...
        let gap = s.select(201, 209);
        assert!(gap.parts[0].answer.gap.is_some());
        assert_eq!(s.verify(300, 200, &gap, s.now()), unexpected);
        // ...or the engine's own canonical empty tile, bare or dressed with
        // a (genuine) checkpoint.
        let mut tile = s.select(300, 200);
        tile.parts.push(crate::shard::ShardAnswer {
            shard: 0,
            answer: s.sqs.select_shard(0, 300, 200).unwrap(),
        });
        assert_eq!(s.verify(300, 200, &tile, s.now()), unexpected);
        part(&mut tile).checkpoint = s.sa.shard(0).summary_checkpoint().cloned();
        assert!(part(&mut tile).checkpoint.is_some());
        assert_eq!(s.verify(300, 200, &tile, s.now()), unexpected);
    }

    mod sharded {
        use super::*;

        fn sharded_system(
            splits: Vec<i64>,
            n: i64,
        ) -> (ShardedAggregator, ShardedQueryServer, Verifier, EpochView) {
            deployment(SchemeKind::Mock, SigningMode::Chained, splits, n)
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
