//! Key-range sharding: a partitioned query server whose per-shard proofs
//! stitch back into one verified answer.
//!
//! The single query server of Section 3 is the system's scalability
//! ceiling: every chained completeness proof and every freshness summary is
//! anchored to one relation image. This module splits the relation into
//! key-range **shards**. The DA certifies the partition itself — a
//! [`ShardMap`] of split keys signed under the DA key, so an adversarial
//! server cannot silently re-partition — routes every update to the shard
//! owning its key, and runs one independent signing chain and summary
//! stream per shard. A range selection fans out to every overlapping shard
//! ([`ShardedQueryServer::select_range`]) and the verifier stitches the
//! per-shard answers with one random-linear-combination multi-pairing
//! (`Verifier::verify_sharded_selection`), so client cost stays one Miller
//! loop regardless of shard count.
//!
//! # Seam soundness
//!
//! Partition boundaries are exactly where outsourced-database schemes leak
//! completeness: if each shard's chain simply terminated at ±∞ (the
//! whole-key-space sentinels), shard *i*'s edge record would carry a genuinely
//! signed claim that *nothing* lies beyond it — a claim whose key range
//! overlaps every other shard. A malicious server could then answer shard
//! *i+1*'s sub-query with shard *i*'s edge gap proof and deny records that
//! exist, or quietly drop a record "into the seam" between two per-shard
//! answers.
//!
//! The defence is to make **both sides of every seam chain to the signed
//! split key**. Shard `i`'s [`ShardScope`] gives its chain two *fences*:
//! the rightmost record of shard `i` is signed with its right neighbour set
//! to the split key `s_i` (not +∞), and the leftmost record of shard `i+1`
//! is signed with its left neighbour set to `s_i − 1` (not −∞). Two
//! consequences carry the whole argument:
//!
//! 1. **No under-coverage at a seam.** The verifier derives each sub-query
//!    from the *signed* map — sub-ranges tile the queried range exactly, so
//!    every key, including the split key itself, is some shard's
//!    responsibility, and that shard's ordinary chained proof must account
//!    for it. Dropping a seam-adjacent record breaks the chain to the fence
//!    and the aggregate check fails.
//! 2. **No over-coverage past a seam.** Every boundary key and gap proof a
//!    shard can produce is bounded by its fences, because those are the
//!    extreme neighbour values the DA ever signs for it. A gap proof from
//!    shard `i` can certify emptiness at most up to `s_i` — it can never
//!    bracket a sub-range that belongs to shard `i+1`, so cross-shard proof
//!    replay is structurally impossible (`BadGapProof`/`BadBoundary`), and
//!    a boundary key forged *past* a fence is caught by the verifier's seam
//!    check (`SeamViolation`) before any pairing is evaluated.
//!
//! Freshness artifacts get the same treatment in the *message* domain:
//! summaries and empty-shard vacancy proofs bind their shard index, so one
//! shard's (genuinely signed, genuinely fresh) summary stream cannot vouch
//! for another shard's stale answer (`ShardMismatch`) and an empty shard's
//! vacancy certificate cannot deny a populated one.
//!
//! The cross-shard attack catalog in [`crate::adversary`] (seam splice,
//! shard withholding, seam widening, stale-shard replay, summary swap)
//! regression-checks every clause of this argument.
//!
//! # Epoch soundness
//!
//! A static partition turns a hot shard into a permanent ceiling, so the DA
//! can **rebalance**: split one shard at a new key or merge two adjacent
//! shards ([`RebalancePlan`]), producing a new [`ShardMap`] whose signed
//! message carries an incremented **epoch** tag, plus a certified
//! [`Rebalance`] package. Re-partitioning is exactly where verified
//! outsourcing schemes quietly lose soundness — two genuinely-signed
//! partitions now exist, and a server free to mix them can route any query
//! to whichever epoch's proofs suit the lie. Three mechanisms close the
//! hole:
//!
//! 1. **One live epoch.** The client pins an [`EpochView`] — the epoch and
//!    map hash it currently accepts — and moves it only forward, only onto
//!    DA-signed artifacts: one [`EpochTransition`] link at a time (its
//!    message chains `hash(map_N) → hash(map_{N+1})`), or straight to the
//!    live epoch from the server's [`EpochBootstrap`] bundle, whose
//!    [`EpochCheckpoint`] binds map and creating transition by hash. Nobody
//!    — DA, server or client — keeps or replays the chain behind the latest
//!    link. `Verifier::verify_sharded_selection` rejects any answer whose
//!    map is not the pinned one (`StaleEpoch`), so an answer assembled
//!    under epoch N verifies only until the client observes epoch N+1, and
//!    a fabricated, replayed or rolled-back partition can never be swapped
//!    in (`BrokenTransition`, `BadCheckpoint`, `StaleEpoch`).
//! 2. **Certified handoff.** The shards a rebalance touches are rebuilt
//!    from scratch under the new scope: every handed-off record is
//!    re-signed with chains terminating at the *new* fences, and the new
//!    stream's seq-0 **baseline summary** marks the whole old rid space
//!    (all-ones over the wider of the donor and successor rid spaces), so
//!    any pre-transition version — whose certification necessarily
//!    predates the baseline period, because the transition occupies its own
//!    clock tick — is provably `Stale` under the new stream. Records
//!    signed under the old fences cannot be served under the new ones: the
//!    old seam-adjacent chains and gap proofs claim neighbour keys beyond
//!    the new fences (`SeamViolation`/`RecordOutOfRange`).
//! 3. **Epoch-tagged freshness domains.** Summaries and vacancy proofs
//!    bind `(epoch, shard)` into their signed messages. Surviving shards'
//!    streams are re-signed under the new tag at the transition
//!    (`DataAggregator::retag` — cost proportional to the summary count,
//!    not the data), so an answer mixing epochs — one sub-query served
//!    from epoch-N state, another from N+1 ("split brain") — is rejected
//!    with `EpochMismatch` before any pairing work.
//!
//! The rebalancing attack catalog in [`crate::adversary`] (stale-epoch map
//! replay, handoff forgery, split brain, transition-chain break)
//! regression-checks each clause, and the `epoch_equivalence` property
//! suite checks that a rebalancing deployment stays observably equivalent
//! to a never-rebalanced one-shard deployment across random split/merge
//! schedules.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use authdb_crypto::sha256::{sha256, Digest};
use authdb_crypto::signer::{Keypair, PublicParams, Signature};

use crate::da::{Bootstrap, DaConfig, DataAggregator, SigningMode, UpdateMsg};
use crate::freshness::{EmptyTableProof, SummaryCheckpoint, UpdateSummary};
use crate::qs::{QsOptions, QueryError, QueryServer, SelectionAnswer};
use crate::record::{Record, Schema, Tick, KEY_NEG_INF, KEY_POS_INF};
use crate::verify::{EpochView, Verifier};

/// The epoch of the first certified partition. Epochs start here: no
/// certified map, and so no summary, checkpoint or vacancy proof, carries a
/// smaller tag.
pub const GENESIS_EPOCH: u64 = 1;

/// One per-shard engine's key-range responsibility: the chain *fences* (the
/// neighbour values signed at the shard's extremes) and the `(epoch, shard)`
/// tag bound into summaries and vacancy proofs. The shard owns exactly the
/// keys strictly between its fences. A scope always comes from a certified
/// map ([`ShardMap::scope`]); a one-shard map's only scope is the whole key
/// space, fenced at ±∞.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardScope {
    /// Map epoch, bound into summary and vacancy-proof messages.
    pub epoch: u64,
    /// Shard index, bound into summary and vacancy-proof messages.
    pub shard: u64,
    /// Largest key value outside the shard on the left
    /// ([`KEY_NEG_INF`] for the leftmost shard).
    pub left_fence: i64,
    /// Smallest key value outside the shard on the right
    /// ([`KEY_POS_INF`] for the rightmost shard).
    pub right_fence: i64,
}

impl ShardScope {
    /// Whether `key` falls inside this shard's responsibility.
    pub fn owns(&self, key: i64) -> bool {
        key > self.left_fence && key < self.right_fence
    }

    /// Neighbour keys of entry `rid` within a point scan of its key:
    /// adjacent matches first, then the scan's boundary entries, then this
    /// scope's fences. Shared by the DA's signer and the query server's
    /// proof construction so the two can never disagree on what a chain's
    /// extreme neighbour is.
    ///
    /// # Panics
    /// Panics if `rid` is not among the scan's matches.
    pub fn neighbor_keys_in(&self, scan: &authdb_index::RangeScan, rid: u64) -> (i64, i64) {
        let pos = scan
            .matches
            .iter()
            .position(|e| e.rid == rid)
            .expect("entry present");
        let left = if pos > 0 {
            scan.matches[pos - 1].key
        } else {
            scan.left_boundary
                .as_ref()
                .map(|e| e.key)
                .unwrap_or(self.left_fence)
        };
        let right = if pos + 1 < scan.matches.len() {
            scan.matches[pos + 1].key
        } else {
            scan.right_boundary
                .as_ref()
                .map(|e| e.key)
                .unwrap_or(self.right_fence)
        };
        (left, right)
    }
}

/// The DA-certified partition: `m` split keys define `m + 1` key-range
/// shards, and the signature pins the partition so the server cannot
/// re-draw shard responsibilities. Shard `i` owns keys `k` with
/// `splits[i-1] <= k < splits[i]` (unbounded at the extremes). The signed
/// message also binds the map's **epoch**, so two certified partitions
/// from different points in a deployment's life can never be confused:
/// the verifier accepts exactly one epoch at a time ([`EpochView`]).
///
/// [`EpochView`]: crate::verify::EpochView
#[derive(Clone, Debug, PartialEq)]
pub struct ShardMap {
    epoch: u64,
    splits: Vec<i64>,
    signature: Signature,
}

impl ShardMap {
    /// The canonical signing message.
    pub fn message(epoch: u64, splits: &[i64]) -> Vec<u8> {
        let mut msg = Vec::with_capacity(26 + 8 * splits.len());
        msg.extend_from_slice(b"shard-map:");
        msg.extend_from_slice(&epoch.to_be_bytes());
        msg.extend_from_slice(&(splits.len() as u64).to_be_bytes());
        for s in splits {
            msg.extend_from_slice(&s.to_be_bytes());
        }
        msg
    }

    /// Certify a deployment's first partition (epoch [`GENESIS_EPOCH`]).
    /// `splits` may be empty: one shard owning the whole key space.
    ///
    /// # Panics
    /// Panics unless the splits are strictly increasing and leave room for
    /// the seam fences (each split must exceed `i64::MIN + 1` and be below
    /// `i64::MAX`, so `split - 1` never collides with the −∞ sentinel).
    pub fn create(keypair: &Keypair, splits: Vec<i64>) -> Self {
        Self::create_at_epoch(keypair, splits, GENESIS_EPOCH)
    }

    /// Certify a partition at an explicit epoch (rebalancing mints
    /// epoch N+1 maps through this).
    ///
    /// # Panics
    /// Panics on the same structural violations as [`ShardMap::create`],
    /// or when `epoch` precedes [`GENESIS_EPOCH`].
    pub fn create_at_epoch(keypair: &Keypair, splits: Vec<i64>, epoch: u64) -> Self {
        assert!(epoch >= GENESIS_EPOCH, "epochs start at GENESIS_EPOCH");
        assert!(
            splits.windows(2).all(|w| w[0] < w[1]),
            "split keys must be strictly increasing"
        );
        assert!(
            splits.iter().all(|&s| s > i64::MIN + 1 && s < i64::MAX),
            "split keys must leave room for seam fences"
        );
        let signature = keypair.sign(&Self::message(epoch, &splits));
        ShardMap {
            epoch,
            splits,
            signature,
        }
    }

    /// Reassemble a map from decoded wire parts without re-signing.
    /// Returns `None` when the splits violate the structural invariants
    /// [`ShardMap::create`] asserts, or when the claimed epoch precedes
    /// [`GENESIS_EPOCH`] (epochs start there; the DA never signs an epoch-0
    /// map) — wire decoders must reject malformed partitions with a typed
    /// error, never panic on attacker bytes. The signature is *not* checked
    /// here; [`ShardMap::verify`] stays the verifier's job.
    pub fn from_parts(epoch: u64, splits: Vec<i64>, signature: Signature) -> Option<Self> {
        let sorted = splits.iter().zip(splits.iter().skip(1)).all(|(a, b)| a < b);
        let fenced = splits.iter().all(|&s| s > i64::MIN + 1 && s < i64::MAX);
        if epoch >= GENESIS_EPOCH && sorted && fenced {
            Some(ShardMap {
                epoch,
                splits,
                signature,
            })
        } else {
            None
        }
    }

    /// The DA's signature over the partition.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Verify the DA's signature over the partition.
    pub fn verify(&self, pp: &PublicParams) -> bool {
        pp.verify(&Self::message(self.epoch, &self.splits), &self.signature)
    }

    /// The map's epoch tag.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Content hash of the canonical signing message — what
    /// [`EpochTransition`]s chain and [`EpochView`]s pin.
    ///
    /// [`EpochView`]: crate::verify::EpochView
    pub fn hash(&self) -> Digest {
        sha256(&Self::message(self.epoch, &self.splits))
    }

    /// The split keys.
    pub fn splits(&self) -> &[i64] {
        &self.splits
    }

    /// Number of shards (`splits + 1`).
    pub fn shard_count(&self) -> usize {
        self.splits.len() + 1
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: i64) -> usize {
        self.splits.partition_point(|&s| s <= key)
    }

    /// Shard `i`'s scope (fences + tag).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn scope(&self, i: usize) -> ShardScope {
        assert!(i < self.shard_count(), "shard index out of range");
        ShardScope {
            epoch: self.epoch,
            shard: i as u64,
            left_fence: i
                .checked_sub(1)
                .and_then(|j| self.splits.get(j))
                .map_or(KEY_NEG_INF, |s| s - 1),
            right_fence: self.splits.get(i).copied().unwrap_or(KEY_POS_INF),
        }
    }

    /// The shards overlapping `lo..=hi` with the sub-range each must
    /// answer, in shard order. The sub-ranges tile `[lo, hi]` exactly —
    /// that tiling is what makes seam stitching sound. Empty for an
    /// inverted range.
    pub fn overlapping(&self, lo: i64, hi: i64) -> Vec<(usize, (i64, i64))> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        for i in 0..self.shard_count() {
            let scope = self.scope(i);
            let own_lo = scope.left_fence.saturating_add(1);
            let own_hi = scope.right_fence.saturating_sub(1);
            let sub_lo = lo.max(own_lo);
            let sub_hi = hi.min(own_hi);
            if sub_lo <= sub_hi {
                out.push((i, (sub_lo, sub_hi)));
            }
        }
        out
    }
}

/// A DA-signed link between two consecutive map epochs: a client-side
/// [`EpochView`] advances along one, or accepts the latest inside an
/// [`EpochBootstrap`] bundle, so the server can neither fabricate a
/// partition (the new map's hash is signed) nor replay an old one (the
/// parent hash pins exactly one predecessor, and the view accepts exactly
/// one live epoch).
///
/// [`EpochView`]: crate::verify::EpochView
#[derive(Clone, Debug, PartialEq)]
pub struct EpochTransition {
    /// The epoch this transition creates (`parent epoch + 1`).
    pub epoch: u64,
    /// Hash of the epoch-N map's signing message.
    pub parent_hash: Digest,
    /// Hash of the epoch-N+1 map's signing message.
    pub map_hash: Digest,
    /// When the DA performed the rebalance.
    pub ts: Tick,
    /// DA signature over [`EpochTransition::message`].
    pub signature: Signature,
}

impl EpochTransition {
    /// The canonical signing message.
    pub fn message(epoch: u64, parent_hash: &Digest, map_hash: &Digest, ts: Tick) -> Vec<u8> {
        let mut msg = Vec::with_capacity(96);
        msg.extend_from_slice(b"epoch-transition:");
        msg.extend_from_slice(&epoch.to_be_bytes());
        msg.extend_from_slice(parent_hash);
        msg.extend_from_slice(map_hash);
        msg.extend_from_slice(&ts.to_be_bytes());
        msg
    }

    /// Sign the link `old → new` at time `ts`.
    pub fn create(keypair: &Keypair, old: &ShardMap, new: &ShardMap, ts: Tick) -> Self {
        let parent_hash = old.hash();
        let map_hash = new.hash();
        EpochTransition {
            epoch: new.epoch(),
            parent_hash,
            map_hash,
            ts,
            signature: keypair.sign(&Self::message(new.epoch(), &parent_hash, &map_hash, ts)),
        }
    }

    /// Verify the DA's signature.
    pub fn verify(&self, pp: &PublicParams) -> bool {
        pp.verify(
            &Self::message(self.epoch, &self.parent_hash, &self.map_hash, self.ts),
            &self.signature,
        )
    }
}

/// A DA-signed checkpoint of the epoch chain: binds an epoch, its map
/// hash, and the hash of the [`EpochTransition`] that created it, so a
/// client can pin an `EpochView` at epoch N from the latest checkpoint in
/// O(1) signature checks — the transition chain from the genesis map is
/// never replayed, so nobody has to keep it.
///
/// Soundness is the pinning argument of a link-by-link walk: the DA signs
/// exactly one checkpoint per epoch, the checkpoint names exactly one map
/// (by hash) and chains to exactly one transition (by hash of its signed
/// message), and the transition itself carries the DA's signature over
/// `parent → map` — so a server can neither fabricate a partition for the
/// claimed epoch nor splice the checkpoint onto a different transition
/// (`BadCheckpoint` either way).
///
/// [`EpochView`]: crate::verify::EpochView
#[derive(Clone, Debug, PartialEq)]
pub struct EpochCheckpoint {
    /// The checkpointed epoch.
    pub epoch: u64,
    /// Hash of the epoch's map signing message (what an `EpochView` pins).
    pub map_hash: Digest,
    /// Hash of the signing message of the [`EpochTransition`] that created
    /// this epoch.
    pub transition_hash: Digest,
    /// When the DA minted the checkpoint (the transition's tick).
    pub ts: Tick,
    /// DA signature over [`EpochCheckpoint::message`].
    pub signature: Signature,
}

impl EpochCheckpoint {
    /// The canonical signing message.
    pub fn message(epoch: u64, map_hash: &Digest, transition_hash: &Digest, ts: Tick) -> Vec<u8> {
        let mut msg = Vec::with_capacity(91);
        msg.extend_from_slice(b"ckpt-epoch:");
        msg.extend_from_slice(&epoch.to_be_bytes());
        msg.extend_from_slice(map_hash);
        msg.extend_from_slice(transition_hash);
        msg.extend_from_slice(&ts.to_be_bytes());
        msg
    }

    /// The digest an epoch checkpoint chains to: the hash of the
    /// transition's canonical signing message.
    pub fn transition_digest(t: &EpochTransition) -> Digest {
        sha256(&EpochTransition::message(
            t.epoch,
            &t.parent_hash,
            &t.map_hash,
            t.ts,
        ))
    }

    /// Sign a checkpoint for the epoch `transition` created.
    pub fn create(keypair: &Keypair, map: &ShardMap, transition: &EpochTransition) -> Self {
        let map_hash = map.hash();
        let transition_hash = Self::transition_digest(transition);
        EpochCheckpoint {
            epoch: map.epoch(),
            map_hash,
            transition_hash,
            ts: transition.ts,
            signature: keypair.sign(&Self::message(
                map.epoch(),
                &map_hash,
                &transition_hash,
                transition.ts,
            )),
        }
    }

    /// Verify the DA's signature.
    pub fn verify(&self, pp: &PublicParams) -> bool {
        pp.verify(
            &Self::message(self.epoch, &self.map_hash, &self.transition_hash, self.ts),
            &self.signature,
        )
    }
}

/// Everything a client — fresh, or pinned any number of epochs back —
/// needs to pin the live epoch in O(1) signatures: the certified map, the
/// transition that created the epoch, and the checkpoint binding the two. `transition`/`checkpoint` are
/// `None` only at the genesis epoch (no rebalance has happened), where
/// `EpochView::genesis` already pins from the map alone.
///
/// [`EpochView::genesis`]: crate::verify::EpochView::genesis
#[derive(Clone, Debug, PartialEq)]
pub struct EpochBootstrap {
    /// The certified live partition.
    pub map: ShardMap,
    /// The transition that created the live epoch (`None` at genesis).
    pub transition: Option<EpochTransition>,
    /// The checkpoint chaining map and transition (`None` at genesis).
    pub checkpoint: Option<EpochCheckpoint>,
}

/// What a rebalance does to the partition: split one shard at a new key,
/// or merge two adjacent shards. Indices refer to the **old** (epoch-N)
/// map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebalancePlan {
    /// Split shard `shard` at key `at`: keys `< at` stay in shard `shard`,
    /// keys `>= at` move to a new shard `shard + 1`; later shards shift up.
    Split {
        /// The (old-epoch) shard to split.
        shard: usize,
        /// The new split key, strictly between the shard's existing bounds.
        at: i64,
    },
    /// Merge shards `left` and `left + 1` into one shard at index `left`;
    /// later shards shift down.
    Merge {
        /// The left member of the adjacent pair to merge.
        left: usize,
    },
}

impl RebalancePlan {
    /// The epoch-N+1 split keys this plan produces from the epoch-N ones,
    /// or `None` when the plan is invalid for them (out-of-range shard
    /// index, split key outside the shard or colliding with a sentinel).
    pub fn apply_to(&self, splits: &[i64]) -> Option<Vec<i64>> {
        match *self {
            RebalancePlan::Split { shard, at } => {
                if shard > splits.len() {
                    return None;
                }
                let above_left = shard == 0 || splits[shard - 1] < at;
                let below_right = shard == splits.len() || at < splits[shard];
                if !(above_left && below_right && at > i64::MIN + 1 && at < i64::MAX) {
                    return None;
                }
                let mut out = splits.to_vec();
                out.insert(shard, at);
                Some(out)
            }
            RebalancePlan::Merge { left } => {
                if left >= splits.len() {
                    return None;
                }
                let mut out = splits.to_vec();
                out.remove(left);
                Some(out)
            }
        }
    }

    /// The new-map indices of the shards this plan creates (the handed-off
    /// ones), in order.
    pub fn created_shards(&self) -> Vec<usize> {
        match *self {
            RebalancePlan::Split { shard, .. } => vec![shard, shard + 1],
            RebalancePlan::Merge { left } => vec![left],
        }
    }

    /// Where old shard `old` lives in the new map, or `None` if the plan
    /// dissolves it (its records travel through a [`ShardHandoff`]).
    pub fn survivor_index(&self, old: usize) -> Option<usize> {
        match *self {
            RebalancePlan::Split { shard, .. } => match old.cmp(&shard) {
                std::cmp::Ordering::Less => Some(old),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some(old + 1),
            },
            RebalancePlan::Merge { left } => {
                if old < left {
                    Some(old)
                } else if old <= left + 1 {
                    None
                } else {
                    Some(old - 1)
                }
            }
        }
    }
}

/// One rebuilt shard's certified handoff: every record re-signed with
/// chains terminating at the new fences, plus the new stream's baseline
/// summary (seq 0, marking the whole predecessor rid space so replays of
/// pre-transition versions are provably stale).
#[derive(Clone, Debug, PartialEq)]
pub struct ShardHandoff {
    /// New-map index of the rebuilt shard.
    pub shard: usize,
    /// Handed-off records in rid order (rid = position).
    pub records: Vec<Record>,
    /// Their fresh chained signatures, in rid order.
    pub sigs: Vec<Signature>,
    /// Vacancy certificate when the new shard is empty.
    pub vacancy: Option<EmptyTableProof>,
    /// The new summary stream's seq-0 baseline.
    pub baseline: UpdateSummary,
}

/// A surviving shard's freshness artifacts re-signed under the new
/// `(epoch, shard)` tag — its chains and records are untouched (the
/// fences did not move), so re-binding costs one signature per *retained*
/// summary (plus one for the checkpoint) instead of one per record or per
/// historical summary.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardRebind {
    /// New-map index of the surviving shard.
    pub shard: usize,
    /// Its retained summary log, re-signed under the new tag. `Arc`d:
    /// hand-off from the DA is pointer work, not a per-entry copy.
    pub summaries: Vec<Arc<UpdateSummary>>,
    /// The checkpoint covering its compacted prefix (if it has one),
    /// re-signed under the new tag.
    pub checkpoint: Option<SummaryCheckpoint>,
    /// Its standing vacancy proof (if currently empty), re-signed.
    pub vacancy: Option<EmptyTableProof>,
}

/// The complete DA-certified epoch transition package: everything a query
/// server needs to cross from epoch N to N+1 without a restart, and
/// everything a client needs to keep verifying across the bump.
#[derive(Clone, Debug, PartialEq)]
pub struct Rebalance {
    /// What changed, relative to the epoch-N map.
    pub plan: RebalancePlan,
    /// The certified epoch-N+1 partition.
    pub new_map: ShardMap,
    /// The signed link `map_N → map_{N+1}` clients advance their
    /// [`EpochView`](crate::verify::EpochView) through.
    pub transition: EpochTransition,
    /// Fresh bootstraps for the shards the plan creates, in index order.
    pub handoffs: Vec<ShardHandoff>,
    /// Re-tagged freshness artifacts for every surviving shard.
    pub rebound: Vec<ShardRebind>,
    /// The epoch checkpoint for the new epoch, served to late-joining
    /// clients so they bootstrap in O(1) signatures.
    pub checkpoint: EpochCheckpoint,
}

/// The DA side of a deployment — the only thing that mints one: one trusted
/// signer, one certified [`ShardMap`], and one scoped [`DataAggregator`]
/// engine per shard sharing the key. Zero splits is the paper's single
/// relation image: one shard at [`GENESIS_EPOCH`], fenced at ±∞. Updates
/// are routed by key; a key change that crosses a seam becomes a delete in
/// the old shard plus an insert in the new one.
pub struct ShardedAggregator {
    map: ShardMap,
    shards: Vec<DataAggregator>,
    keypair: Keypair,
    /// Checkpoint of the latest transition (`None` until a rebalance).
    epoch_checkpoint: Option<EpochCheckpoint>,
}

impl ShardedAggregator {
    /// Create a DA with a fresh keypair.
    pub fn new(cfg: DaConfig, splits: Vec<i64>, rng: &mut impl rand::Rng) -> Self {
        let keypair = Keypair::generate(cfg.scheme, rng);
        Self::with_keypair(cfg, splits, keypair)
    }

    /// Create with an existing keypair (tests pin keys for determinism).
    pub fn with_keypair(cfg: DaConfig, splits: Vec<i64>, keypair: Keypair) -> Self {
        let map = ShardMap::create(&keypair, splits);
        let shards = (0..map.shard_count())
            .map(|i| DataAggregator::new(cfg.clone(), keypair.clone(), map.scope(i)))
            .collect();
        ShardedAggregator {
            map,
            shards,
            keypair,
            epoch_checkpoint: None,
        }
    }

    /// The certified partition.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The checkpoint of the latest epoch transition (`None` until the
    /// first rebalance) — the only epoch history the DA keeps: each
    /// rebalance replaces it, and a late-joining client pins the live epoch
    /// from it in O(1) signatures.
    pub fn epoch_checkpoint(&self) -> Option<&EpochCheckpoint> {
        self.epoch_checkpoint.as_ref()
    }

    /// Checkpoint-compact one shard's summary log (see
    /// [`DataAggregator::checkpoint_summaries`]); the returned checkpoint
    /// must be forwarded to the query servers
    /// ([`ShardedQueryServer::apply_checkpoint`]) so they compact in step.
    pub fn checkpoint_shard_summaries(
        &mut self,
        shard: usize,
        keep: usize,
    ) -> Option<SummaryCheckpoint> {
        self.shards[shard].checkpoint_summaries(keep)
    }

    /// Verification parameters (shared by every shard).
    pub fn public_params(&self) -> PublicParams {
        self.shards[0].public_params()
    }

    /// The configuration (shared by every shard).
    pub fn config(&self) -> &DaConfig {
        self.shards[0].config()
    }

    /// The replica this aggregator's bootstrap output fits: built under its
    /// public parameters, `schema`, `mode` and current map, exactly as
    /// [`ShardedQueryServer::from_bootstraps`] builds it. Pool, fill and
    /// caches come from `opts` ([`QsOptions::default`] unless a deployment
    /// deviates) — the [`DaConfig`]'s pool and fill are the DA's own.
    pub fn replica(&self, boots: &[Bootstrap], opts: &QsOptions) -> ShardedQueryServer {
        ShardedQueryServer::from_bootstraps(
            self.public_params(),
            self.config(),
            self.map.clone(),
            boots,
            opts,
        )
    }

    /// The verifier a user of this deployment runs: its public parameters,
    /// `schema` and ρ.
    pub fn verifier(&self) -> Verifier {
        let cfg = self.config();
        Verifier::new(self.public_params(), cfg.schema, cfg.rho)
    }

    /// A client view pinned to this aggregator's current map — the genesis
    /// view until the first rebalance.
    pub fn epoch_view(&self) -> EpochView {
        EpochView::genesis(&self.map, &self.public_params()).expect("the DA signed its own map")
    }

    /// One shard's aggregator.
    pub fn shard(&self, i: usize) -> &DataAggregator {
        &self.shards[i]
    }

    /// Current logical time (all shard clocks advance in lockstep).
    pub fn now(&self) -> Tick {
        self.shards[0].now()
    }

    /// Advance every shard's clock.
    pub fn advance_clock(&mut self, dt: Tick) {
        for s in &mut self.shards {
            s.advance_clock(dt);
        }
    }

    /// Total live records across shards.
    pub fn live_records(&self) -> u64 {
        self.shards.iter().map(|s| s.live_records()).sum()
    }

    /// Sign an arbitrary message with the DA's key (partition filter
    /// certifications, Section 3.5).
    pub fn sign_raw(&self, msg: &[u8]) -> Signature {
        self.keypair.sign(msg)
    }

    /// Load and certify the initial database, routing each row to the
    /// shard owning its indexed key. Returns one bootstrap per shard, in
    /// shard order (empty shards get a vacancy-certified empty bootstrap).
    pub fn bootstrap(&mut self, rows: Vec<Vec<i64>>, jobs: usize) -> Vec<Bootstrap> {
        let idx = self.config().schema.indexed_attr;
        let mut parts: Vec<Vec<Vec<i64>>> = vec![Vec::new(); self.map.shard_count()];
        for row in rows {
            parts[self.map.shard_of(row[idx])].push(row);
        }
        parts
            .into_iter()
            .zip(&mut self.shards)
            .map(|(part, shard)| shard.bootstrap(part, jobs))
            .collect()
    }

    /// Insert a record, routed by key. Returns the owning shard and its
    /// update messages.
    pub fn insert(&mut self, attrs: Vec<i64>) -> (usize, Vec<UpdateMsg>) {
        let shard = self.map.shard_of(attrs[self.config().schema.indexed_attr]);
        (shard, self.shards[shard].insert(attrs))
    }

    /// Update record `rid` of `shard`. If the new key crosses a seam the
    /// update becomes delete-here + insert-there; the returned messages are
    /// tagged with the shard each must be applied to. Returns the record's
    /// new address as well.
    pub fn update_record(
        &mut self,
        shard: usize,
        rid: u64,
        attrs: Vec<i64>,
    ) -> ((usize, u64), Vec<(usize, UpdateMsg)>) {
        if self.shards[shard].record(rid).is_none() {
            // Nonexistent rids no-op, matching DataAggregator::update_record
            // — without this gate a seam-crossing "update" of a dead rid
            // would still run its insert half and certify a phantom record.
            return ((shard, rid), Vec::new());
        }
        let target = self.map.shard_of(attrs[self.config().schema.indexed_attr]);
        if target == shard {
            let msgs = self.shards[shard].update_record(rid, attrs);
            return ((shard, rid), msgs.into_iter().map(|m| (shard, m)).collect());
        }
        let mut out: Vec<(usize, UpdateMsg)> = self.shards[shard]
            .delete_record(rid)
            .into_iter()
            .map(|m| (shard, m))
            .collect();
        let inserts = self.shards[target].insert(attrs);
        let new_rid = inserts[0].record.rid;
        out.extend(inserts.into_iter().map(|m| (target, m)));
        ((target, new_rid), out)
    }

    /// Delete record `rid` of `shard`.
    pub fn delete_record(&mut self, shard: usize, rid: u64) -> Vec<(usize, UpdateMsg)> {
        self.shards[shard]
            .delete_record(rid)
            .into_iter()
            .map(|m| (shard, m))
            .collect()
    }

    /// Publish every shard's period summary that is due, with the shard's
    /// multi-update re-certifications.
    pub fn maybe_publish_summaries(&mut self) -> Vec<(usize, UpdateSummary, Vec<UpdateMsg>)> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if let Some((s, recerts)) = shard.maybe_publish_summary() {
                out.push((i, s, recerts));
            }
        }
        out
    }

    /// Close every shard's period unconditionally and publish its summary
    /// (see [`DataAggregator::force_publish_summary`]).
    pub fn force_publish_summaries(&mut self) -> Vec<(usize, UpdateSummary, Vec<UpdateMsg>)> {
        let shards = self.shards.iter_mut().enumerate();
        shards
            .map(|(i, shard)| {
                let (s, recerts) = shard.force_publish_summary();
                (i, s, recerts)
            })
            .collect()
    }

    /// Run every shard's background renewal scan over up to `budget`
    /// records (see [`DataAggregator::background_renewal`]).
    pub fn background_renewal(&mut self, budget: usize) -> Vec<(usize, UpdateMsg)> {
        let shards = self.shards.iter_mut().enumerate();
        shards
            .flat_map(|(i, shard)| {
                shard
                    .background_renewal(budget)
                    .into_iter()
                    .map(move |m| (i, m))
            })
            .collect()
    }

    /// Re-partition the deployment: certify the epoch-N+1 map, rebuild the
    /// shards the plan touches (fresh scoped chains + baseline summary
    /// streams), re-tag every survivor's freshness artifacts, and sign the
    /// [`EpochTransition`] linking the two maps. Returns the complete
    /// [`Rebalance`] package for the query servers.
    ///
    /// The transition occupies its own clock tick (every shard's clock
    /// advances by one first), which is what lets the handed-off shards'
    /// baseline summaries cleanly separate pre-transition certifications
    /// (provably stale under the new stream) from the handoff's own
    /// re-certifications.
    ///
    /// # Panics
    /// Panics if the plan is invalid for the current map, or in
    /// [`SigningMode::PerAttribute`] (rebalancing re-chains records, which
    /// only chained mode certifies).
    pub fn rebalance(&mut self, plan: RebalancePlan, jobs: usize) -> Rebalance {
        assert_eq!(
            self.config().mode,
            SigningMode::Chained,
            "rebalancing requires chained signing"
        );
        let new_splits = plan
            .apply_to(self.map.splits())
            .expect("rebalance plan invalid for the current map");
        // The transition gets its own tick: every certification already
        // disseminated now strictly predates the baseline period.
        self.advance_clock(1);
        let now = self.now();
        let old_map = self.map.clone();
        let new_map = ShardMap::create_at_epoch(&self.keypair, new_splits, old_map.epoch() + 1);
        let transition = EpochTransition::create(&self.keypair, &old_map, &new_map, now);
        let checkpoint = EpochCheckpoint::create(&self.keypair, &new_map, &transition);

        let cfg = self.config().clone();
        let idx_attr = cfg.schema.indexed_attr;
        let mut handoffs = Vec::new();
        match plan {
            RebalancePlan::Split { shard, at } => {
                let donor = self.shards.remove(shard);
                let width = donor.record_slots();
                let (left_rows, right_rows): (Vec<_>, Vec<_>) = donor
                    .live_rows()
                    .into_iter()
                    .partition(|row| row[idx_attr] < at);
                for (idx, rows) in [(shard, left_rows), (shard + 1, right_rows)] {
                    let (da, handoff) =
                        self.handoff_shard(&cfg, new_map.scope(idx), rows, width, now, jobs);
                    self.shards.insert(idx, da);
                    handoffs.push(handoff);
                }
            }
            RebalancePlan::Merge { left } => {
                let right_donor = self.shards.remove(left + 1);
                let left_donor = self.shards.remove(left);
                let width = left_donor.record_slots().max(right_donor.record_slots());
                let mut rows = left_donor.live_rows();
                rows.extend(right_donor.live_rows());
                let (da, handoff) =
                    self.handoff_shard(&cfg, new_map.scope(left), rows, width, now, jobs);
                self.shards.insert(left, da);
                handoffs.push(handoff);
            }
        }

        // Every survivor's summary stream (and standing vacancy) re-binds
        // to the new (epoch, shard) tag; chains are untouched.
        let created = plan.created_shards();
        let mut rebound = Vec::new();
        for (idx, shard_da) in self.shards.iter_mut().enumerate() {
            if created.contains(&idx) {
                continue;
            }
            let (summaries, summary_ckpt, vacancy) = shard_da.retag(new_map.scope(idx));
            rebound.push(ShardRebind {
                shard: idx,
                summaries,
                checkpoint: summary_ckpt,
                vacancy,
            });
        }

        self.map = new_map.clone();
        self.epoch_checkpoint = Some(checkpoint.clone());
        Rebalance {
            plan,
            new_map,
            transition,
            handoffs,
            rebound,
            checkpoint,
        }
    }

    /// Build one handed-off shard: a fresh scoped aggregator at the current
    /// clock, bootstrapped with `rows` and opening its summary stream with
    /// the all-ones baseline over `mark_width` rid slots.
    fn handoff_shard(
        &self,
        cfg: &DaConfig,
        scope: ShardScope,
        rows: Vec<Vec<i64>>,
        mark_width: u64,
        now: Tick,
        jobs: usize,
    ) -> (DataAggregator, ShardHandoff) {
        let mut da = DataAggregator::new(cfg.clone(), self.keypair.clone(), scope);
        da.advance_clock(now);
        let (boot, baseline) = da.handoff_bootstrap(rows, mark_width, jobs);
        let handoff = ShardHandoff {
            shard: scope.shard as usize,
            records: boot.records,
            sigs: boot.sigs,
            vacancy: boot.vacancy,
            baseline,
        };
        (da, handoff)
    }
}

/// One shard's contribution to a sharded selection answer.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardAnswer {
    /// Which shard answered.
    pub shard: usize,
    /// Its ordinary single-shard answer for its sub-range.
    pub answer: SelectionAnswer,
}

/// A fanned-out selection answer: the certified partition plus one
/// [`SelectionAnswer`] per overlapping shard, in shard order.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedSelectionAnswer {
    /// The DA-signed partition the answer claims to follow.
    pub map: ShardMap,
    /// Per-shard answers for the overlapping shards.
    pub parts: Vec<ShardAnswer>,
}

impl ShardedSelectionAnswer {
    /// Total VO wire size across parts (plus the map itself).
    pub fn vo_size(&self, pp: &PublicParams) -> usize {
        let map_size = 8 + 8 * self.map.splits().len() + pp.wire_len();
        map_size
            + self
                .parts
                .iter()
                .map(|p| p.answer.vo_size(pp))
                .sum::<usize>()
    }
}

/// One shard's replica behind a read-write lock: many readers build proofs
/// against it concurrently; the DA's update stream and epoch transitions
/// take the write side. The slot is shared by `Arc` across epoch snapshots
/// (a survivor keeps its slot through a rebalance), which is what makes
/// publishing a new epoch O(shards) pointer work instead of a data copy.
struct ShardSlot {
    qs: RwLock<QueryServer>,
}

impl ShardSlot {
    fn new(qs: QueryServer) -> Arc<Self> {
        Arc::new(ShardSlot {
            qs: RwLock::new(qs),
        })
    }
}

/// An immutable view of one epoch: the shard slots that serve it and the
/// certified bundle that defines it — the map plus (past genesis) the
/// transition and checkpoint that created it, nothing older, so a
/// snapshot's size does not depend on how many rebalances came before.
/// Readers clone the `Arc` and work against a stable shard set while a
/// rebalance builds (and atomically swaps in) the next epoch's snapshot.
struct EpochSnapshot {
    boot: EpochBootstrap,
    shards: Vec<Arc<ShardSlot>>,
}

/// The untrusted side of a deployment — the only server: one scoped
/// [`QueryServer`] engine per shard plus the certified map, fanning range
/// selections out to every overlapping shard. A live server crosses epoch transitions in place:
/// [`ShardedQueryServer::apply_rebalance`] swaps in the handed-off shard
/// replicas and re-tagged freshness artifacts without a restart.
///
/// # Concurrency
///
/// Every method takes `&self`; the server is meant to be shared across
/// threads (`Arc<ShardedQueryServer>`) without an external lock. Two
/// mechanisms order everything: the epoch snapshot pointer for readers and
/// one writer gate (an `RwLock<()>`) for writers.
///
/// * **Readers** ([`Self::select_range`], [`Self::select_shard`],
///   [`Self::project`]) never touch the gate. They pin the current
///   [`EpochSnapshot`] (one mutex lock to clone an `Arc`), build each
///   per-shard tile under that shard's read lock, and re-check the snapshot
///   pointer before returning. If an epoch transition landed mid-query the
///   whole answer is rebuilt against the new snapshot — so a returned proof
///   is always single-epoch and honest queries are never *rejected* by a
///   concurrent rebalance, merely restarted.
/// * **Writers** ([`Self::apply`], [`Self::add_summary`],
///   [`Self::apply_checkpoint`]) hold the gate shared, then take their
///   slot's write lock, which serialises one shard's writers while other
///   shards' proceed. **Pin-after-gate:** a writer pins the snapshot only
///   once it holds the gate. A shard index names a slot of the *live*
///   epoch; pinned before the gate, it could resolve against an epoch a
///   rebalance has since replaced and mutate a dissolved slot.
/// * **Rebalance** ([`Self::apply_rebalance`]) holds the gate exclusively
///   across validate → retag → publish: in-flight writers drain, new ones
///   wait, and the snapshot it validates against is the one it replaces. It
///   retags survivor slots under their write locks, builds fresh slots for
///   handed-off shards, and publishes the new epoch with one atomic `Arc`
///   swap.
pub struct ShardedQueryServer {
    pp: PublicParams,
    schema: Schema,
    mode: SigningMode,
    opts: QsOptions,
    snapshot: Mutex<Arc<EpochSnapshot>>,
    writers: RwLock<()>,
}

impl ShardedQueryServer {
    /// Build the per-shard replicas from the per-shard bootstraps (as
    /// returned by [`ShardedAggregator::bootstrap`]); each shard's scope
    /// comes from the map.
    ///
    /// # Panics
    /// Panics if `boots` does not hold one bootstrap per shard.
    pub fn from_bootstraps(
        pp: PublicParams,
        cfg: &DaConfig,
        map: ShardMap,
        boots: &[Bootstrap],
        opts: &QsOptions,
    ) -> Self {
        assert_eq!(boots.len(), map.shard_count(), "one bootstrap per shard");
        let shards = boots
            .iter()
            .enumerate()
            .map(|(i, boot)| {
                ShardSlot::new(QueryServer::with_options(
                    pp.clone(),
                    cfg.schema,
                    cfg.mode,
                    boot,
                    map.scope(i),
                    opts,
                ))
            })
            .collect();
        ShardedQueryServer {
            pp,
            schema: cfg.schema,
            mode: cfg.mode,
            opts: opts.clone(),
            snapshot: Mutex::new(Arc::new(EpochSnapshot {
                boot: EpochBootstrap {
                    map,
                    transition: None,
                    checkpoint: None,
                },
                shards,
            })),
            writers: RwLock::new(()),
        }
    }

    /// Pin the current epoch's snapshot: one short mutex hold to clone an
    /// `Arc`. Everything a reader does afterwards is against this stable
    /// view.
    fn current(&self) -> Arc<EpochSnapshot> {
        self.snapshot.lock().clone()
    }

    /// Run `f` on one shard's replica as an in-epoch writer: gate shared,
    /// snapshot pinned after the gate, slot write-locked.
    fn write_shard<R>(&self, shard: usize, f: impl FnOnce(&mut QueryServer) -> R) -> R {
        let _gate = self.writers.read();
        let snap = self.current();
        let mut qs = snap.shards[shard].qs.write();
        f(&mut qs)
    }

    /// Build an answer against one pinned epoch, rebuilding it if an epoch
    /// transition swapped the snapshot meanwhile, so whatever is returned is
    /// single-epoch.
    fn read_epoch<R>(
        &self,
        build: impl Fn(&EpochSnapshot) -> Result<R, QueryError>,
    ) -> Result<R, QueryError> {
        loop {
            let snap = self.current();
            let answer = build(&snap)?;
            if Arc::ptr_eq(&snap, &self.current()) {
                return Ok(answer);
            }
        }
    }

    /// The partition this server follows (a copy of the certified map —
    /// the live map can be swapped by a concurrent rebalance).
    pub fn map(&self) -> ShardMap {
        self.current().boot.map.clone()
    }

    /// The O(1) client catch-up package: the live map plus (past genesis)
    /// the transition that created it and its epoch checkpoint, all from
    /// one pinned snapshot so the three are epoch-consistent.
    pub fn epoch_bootstrap(&self) -> EpochBootstrap {
        self.current().boot.clone()
    }

    /// Adopt a shard's summary checkpoint: store it and drop the covered
    /// summaries (same writer ordering as [`Self::add_summary`]). Answers
    /// whose freshness window reaches past the cut ship the checkpoint as
    /// their run anchor.
    pub fn apply_checkpoint(&self, shard: usize, ckpt: SummaryCheckpoint) {
        self.write_shard(shard, |qs| qs.apply_checkpoint(ckpt));
    }

    /// Cross one epoch transition in place: validate the package's shape
    /// against the current map, rebuild the handed-off shards from their
    /// certified bootstraps, move the survivors to their new indices with
    /// re-tagged scopes and re-bound freshness artifacts, and adopt the
    /// epoch-N+1 map.
    ///
    /// The net path accepts these frames from any peer, so the package is
    /// authenticated before it can displace the live epoch: `new_map`,
    /// `transition` and `checkpoint` — the three DA-signed artifacts that
    /// *define* the new epoch — must form a bundle a client would accept
    /// (`EpochView::from_bootstrap`: one
    /// [`PublicParams::verify_aggregate_batch`] fold over the three
    /// signatures, plus the hash links between them) whose transition
    /// extends the map this server holds. A package not signed by the DA
    /// therefore cannot take an honest server's clients away from it.
    /// **Not** authenticated: the per-record handoff signatures, baseline
    /// summaries and re-bound freshness artifacts — checking them costs as
    /// much as the shard is large, and a lie there only breaks this
    /// server's *own* answers (the verifier rejects them). A handoff
    /// signature is still checked for its *scheme* — a tag compare, no
    /// signature check — because one of the other scheme would panic the
    /// server's aggregation on every query that touches it. Beyond that the
    /// package's shape is validated: anything hostile yields a typed
    /// [`QueryError::BadRebalance`] refusal, never a panic or a partial
    /// mutation. Validation happens entirely before any state changes.
    pub fn apply_rebalance(&self, rb: &Rebalance) -> Result<(), QueryError> {
        if self.mode != SigningMode::Chained {
            return Err(QueryError::Unsupported);
        }
        // An epoch transition is the one whole-index writer: the gate held
        // exclusively drains in-flight per-shard writers and excludes new
        // ones until the new snapshot is published. Readers are not
        // blocked — they keep serving the pinned epoch and restart if they
        // observe the swap mid-query.
        let _gate = self.writers.write();
        let snap = self.current();
        let Some(expected_splits) = rb.plan.apply_to(snap.boot.map.splits()) else {
            return Err(QueryError::BadRebalance);
        };
        // The bundle this server would serve for the new epoch must be one
        // its clients accept, and must extend the map it holds.
        let boot = EpochBootstrap {
            map: rb.new_map.clone(),
            transition: Some(rb.transition.clone()),
            checkpoint: Some(rb.checkpoint.clone()),
        };
        if boot.map.splits() != expected_splits
            || boot.map.epoch() != snap.boot.map.epoch().wrapping_add(1)
            || rb.transition.parent_hash != snap.boot.map.hash()
            || EpochView::from_bootstrap(&boot, &self.pp).is_err()
        {
            return Err(QueryError::BadRebalance);
        }
        let created = rb.plan.created_shards();
        if rb.handoffs.len() != created.len() {
            return Err(QueryError::BadRebalance);
        }
        for (h, &want) in rb.handoffs.iter().zip(&created) {
            if h.shard != want
                || h.sigs.len() != h.records.len()
                || h.sigs.iter().any(|s| s.kind() != self.pp.kind())
            {
                return Err(QueryError::BadRebalance);
            }
            for (k, r) in h.records.iter().enumerate() {
                // Bootstrap invariants the replica build relies on: rid =
                // position, schema-conformant arity (a wire-decoded record
                // can claim any shape).
                if r.rid != k as u64 || r.attrs.len() != self.schema.num_attrs {
                    return Err(QueryError::BadRebalance);
                }
            }
        }
        let new_count = expected_splits.len() + 1;
        for rebind in &rb.rebound {
            if rebind.shard >= new_count || created.contains(&rebind.shard) {
                return Err(QueryError::BadRebalance);
            }
        }

        // Commit: survivors keep their slots (re-tagged in place under the
        // slot write lock) and move to their new indices, fresh slots fill
        // the created ones (the two sets tile 0..new_count by
        // construction). Readers pinned to the old snapshot that touch a
        // re-tagged survivor detect the swap at their final snapshot check
        // and rebuild — no mixed-epoch answer can escape.
        let mut new_shards: Vec<Option<Arc<ShardSlot>>> = (0..new_count).map(|_| None).collect();
        for (old_idx, slot) in snap.shards.iter().enumerate() {
            if let Some(new_idx) = rb.plan.survivor_index(old_idx) {
                slot.qs.write().set_scope(rb.new_map.scope(new_idx));
                new_shards[new_idx] = Some(Arc::clone(slot));
            }
        }
        for h in &rb.handoffs {
            let boot = Bootstrap {
                records: h.records.clone(),
                sigs: h.sigs.clone(),
                attr_sigs: vec![Vec::new(); h.records.len()],
                vacancy: h.vacancy.clone(),
            };
            let mut qs = QueryServer::with_options(
                self.pp.clone(),
                self.schema,
                self.mode,
                &boot,
                rb.new_map.scope(h.shard),
                &self.opts,
            );
            qs.add_summary(h.baseline.clone());
            // The successor's pages are freshly written, so the donor's
            // decoded-node cache cannot transfer — pre-warm it here so the
            // first post-rebalance query sweep runs at steady-state hit
            // rates instead of decoding every node cold.
            qs.warm_node_cache();
            new_shards[h.shard] = Some(ShardSlot::new(qs));
        }
        for rebind in &rb.rebound {
            let slot = new_shards[rebind.shard]
                .as_ref()
                .expect("survivor slot populated");
            let mut qs = slot.qs.write();
            qs.replace_summaries(rebind.summaries.clone());
            qs.set_checkpoint(rebind.checkpoint.clone());
            qs.set_vacancy(rebind.vacancy.clone());
        }
        let next = Arc::new(EpochSnapshot {
            boot,
            shards: new_shards
                .into_iter()
                .map(|s| s.expect("every new shard populated"))
                .collect(),
        });
        *self.snapshot.lock() = next;
        Ok(())
    }

    /// Run `f` against one shard's server (read-locked). Panics on an
    /// out-of-range index — this is the trusted in-process diagnostics
    /// entry, not the network path ([`Self::select_shard`] refuses).
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&QueryServer) -> R) -> R {
        f(&self.current().shards[i].qs.read())
    }

    /// Apply a routed update message. Writer ordering: the gate shared (so
    /// an epoch transition drains us), then the shard's slot write lock.
    pub fn apply(&self, shard: usize, msg: &UpdateMsg) {
        self.write_shard(shard, |qs| qs.apply(msg));
    }

    /// Apply routed update messages in order — what
    /// [`ShardedAggregator::update_record`] and
    /// [`ShardedAggregator::delete_record`] return.
    pub fn apply_all(&self, msgs: &[(usize, UpdateMsg)]) {
        for (shard, m) in msgs {
            self.apply(*shard, m);
        }
    }

    /// Store a shard's newly published summary (same writer ordering as
    /// [`Self::apply`]).
    pub fn add_summary(&self, shard: usize, s: UpdateSummary) {
        self.write_shard(shard, |qs| qs.add_summary(s));
    }

    /// Ingest every period [`ShardedAggregator::maybe_publish_summaries`]
    /// closed: per shard, store the summary, then apply its
    /// re-certifications.
    pub fn ingest(&self, periods: Vec<(usize, UpdateSummary, Vec<UpdateMsg>)>) {
        for (shard, summary, recerts) in periods {
            self.add_summary(shard, summary);
            for m in &recerts {
                self.apply(shard, m);
            }
        }
    }

    /// Proof-construction statistics aggregated across every shard, so a
    /// sharded deployment (and the networked [`QsServer`] fronting one)
    /// reports one set of counters instead of per-shard fragments.
    ///
    /// [`QsServer`]: ../../authdb_net/struct.QsServer.html
    pub fn stats(&self) -> crate::qs::QsStats {
        let mut total = crate::qs::QsStats::default();
        for st in self.shard_stats() {
            total.agg_ops += st.agg_ops;
            total.queries += st.queries;
            total.updates += st.updates;
            total.node_cache_hits += st.node_cache_hits;
            total.node_cache_misses += st.node_cache_misses;
            total.node_cache_evictions += st.node_cache_evictions;
        }
        total
    }

    /// Per-shard counters in shard order — the load signal the
    /// auto-rebalance policy ([`crate::policy`]) watches. Lock-free on the
    /// hot path: the counters are atomics, the slot read lock only pins
    /// the shard set.
    pub fn shard_stats(&self) -> Vec<crate::qs::QsStats> {
        self.current()
            .shards
            .iter()
            .map(|slot| slot.qs.read().stats())
            .collect()
    }

    /// Answer a projection. Only a one-shard deployment can serve one — the
    /// verifier has no cross-shard projection stitching yet — so a
    /// multi-shard fan-out refuses with [`QueryError::Unsupported`] instead
    /// of inventing an unverifiable answer shape.
    pub fn project(
        &self,
        lo: i64,
        hi: i64,
        attrs: &[usize],
    ) -> Result<crate::qs::ProjectionAnswer, QueryError> {
        self.read_epoch(|snap| match snap.shards.as_slice() {
            [only] => only.qs.read().project(lo, hi, attrs),
            _ => Err(QueryError::Unsupported),
        })
    }

    /// Answer one shard's sub-range directly — the per-shard entry point a
    /// fan-out *client* uses when it computes the overlap decomposition
    /// itself and queries each shard endpoint independently (degrading to a
    /// partial answer when some endpoints are unreachable). An out-of-range
    /// shard index is a typed refusal: shard-addressed requests arrive from
    /// untrusted peers, possibly pinned to another epoch's partition.
    pub fn select_shard(
        &self,
        shard: usize,
        lo: i64,
        hi: i64,
    ) -> Result<SelectionAnswer, QueryError> {
        self.read_epoch(|snap| match snap.shards.get(shard) {
            Some(slot) => slot.qs.read().select_range(lo, hi),
            None => Err(QueryError::UnknownShard {
                shard: shard as u64,
            }),
        })
    }

    /// Answer `lo <= Aind <= hi` by fanning out to every overlapping shard.
    /// A shard's refusal (wrong signing mode) propagates instead of
    /// panicking the fan-out.
    ///
    /// Each tile is built under its shard's read lock against the pinned
    /// epoch snapshot; if an epoch transition swaps the snapshot mid-query
    /// the whole fan-out restarts against the new epoch, so the stitched
    /// answer is always single-epoch.
    pub fn select_range(&self, lo: i64, hi: i64) -> Result<ShardedSelectionAnswer, QueryError> {
        self.read_epoch(|snap| {
            let mut parts = Vec::new();
            for (shard, (sub_lo, sub_hi)) in snap.boot.map.overlapping(lo, hi) {
                parts.push(ShardAnswer {
                    shard,
                    answer: snap.shards[shard].qs.read().select_range(sub_lo, sub_hi)?,
                });
            }
            Ok(ShardedSelectionAnswer {
                map: snap.boot.map.clone(),
                parts,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::da::SigningMode;
    use authdb_crypto::signer::SchemeKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> Keypair {
        let mut rng = StdRng::seed_from_u64(99);
        Keypair::generate(SchemeKind::Mock, &mut rng)
    }

    #[test]
    fn shard_of_and_scopes_partition_the_key_space() {
        let map = ShardMap::create(&keypair(), vec![100, 200]);
        assert_eq!(map.shard_count(), 3);
        assert_eq!(map.shard_of(i64::MIN + 2), 0);
        assert_eq!(map.shard_of(99), 0);
        assert_eq!(map.shard_of(100), 1);
        assert_eq!(map.shard_of(199), 1);
        assert_eq!(map.shard_of(200), 2);
        assert_eq!(map.shard_of(i64::MAX), 2);
        // Every key is owned by exactly the shard shard_of names.
        for key in [-50, 0, 99, 100, 150, 199, 200, 5000] {
            let owner = map.shard_of(key);
            for i in 0..map.shard_count() {
                assert_eq!(map.scope(i).owns(key), i == owner, "key {key} shard {i}");
            }
        }
        // Fences bind adjacent scopes to the split key.
        assert_eq!(map.scope(0).right_fence, 100);
        assert_eq!(map.scope(1).left_fence, 99);
        assert_eq!(map.scope(1).right_fence, 200);
        assert_eq!(map.scope(2).left_fence, 199);
    }

    #[test]
    fn overlapping_subranges_tile_the_query() {
        let map = ShardMap::create(&keypair(), vec![100, 200]);
        assert_eq!(
            map.overlapping(50, 250),
            vec![(0, (50, 99)), (1, (100, 199)), (2, (200, 250))]
        );
        assert_eq!(map.overlapping(120, 130), vec![(1, (120, 130))]);
        assert_eq!(map.overlapping(100, 100), vec![(1, (100, 100))]);
        assert_eq!(
            map.overlapping(99, 100),
            vec![(0, (99, 99)), (1, (100, 100))]
        );
        assert!(map.overlapping(250, 150).is_empty(), "inverted range");
    }

    #[test]
    fn map_signature_pins_the_partition() {
        let kp = keypair();
        let map = ShardMap::create(&kp, vec![100]);
        assert!(map.verify(&kp.public_params()));
        let mut forged = map.clone();
        forged.splits[0] = 150;
        assert!(!forged.verify(&kp.public_params()));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_splits_rejected() {
        ShardMap::create(&keypair(), vec![200, 100]);
    }

    #[test]
    fn routed_updates_and_fanout_match_shard_contents() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sa = ShardedAggregator::new(DaConfig::small(), vec![200], &mut rng);
        let boots = sa.bootstrap((0..40).map(|i| vec![i * 10, i]).collect(), 2);
        assert_eq!(boots.len(), 2);
        assert_eq!(boots[0].records.len(), 20);
        assert_eq!(boots[1].records.len(), 20);
        let sqs = sa.replica(&boots, &QsOptions::default());
        // A straddling query touches both shards and concatenates cleanly.
        let ans = sqs.select_range(150, 250).unwrap();
        assert_eq!(ans.parts.len(), 2);
        let keys: Vec<i64> = ans
            .parts
            .iter()
            .flat_map(|p| p.answer.records.iter().map(|r| r.attrs[0]))
            .collect();
        assert_eq!(
            keys,
            vec![150, 160, 170, 180, 190, 200, 210, 220, 230, 240, 250]
        );
        // Insert routes by key; a cross-seam key move re-homes the record.
        sa.advance_clock(1);
        let (shard, msgs) = sa.insert(vec![205, 77]);
        assert_eq!(shard, 1);
        for m in msgs {
            sqs.apply(shard, &m);
        }
        let ((new_shard, new_rid), moved) = sa.update_record(0, 5, vec![255, 5]);
        assert_eq!(new_shard, 1);
        sqs.apply_all(&moved);
        assert!(sa.shard(1).record(new_rid).is_some());
        let ans = sqs.select_range(0, 1000).unwrap();
        let total: usize = ans.parts.iter().map(|p| p.answer.records.len()).sum();
        assert_eq!(total, 41);
        assert!(sqs
            .select_range(255, 255)
            .unwrap()
            .parts
            .iter()
            .any(|p| p.shard == 1 && p.answer.records.len() == 1));
    }

    /// The equivalence every ported set-up relies on, checked once: a
    /// replica minted by the DA and fed only through the single-call
    /// ingest is indistinguishable on the wire from one built by
    /// `from_bootstraps` and fed by hand-written loops.
    #[test]
    fn minted_replica_and_single_call_ingest_match_hand_threaded_setup() {
        use authdb_wire::WireEncode;
        let mut rng = StdRng::seed_from_u64(8);
        let mut sa = ShardedAggregator::new(DaConfig::small(), vec![200], &mut rng);
        let boots = sa.bootstrap((0..40).map(|i| vec![i * 10, i]).collect(), 2);
        let minted = sa.replica(&boots, &QsOptions::default());
        let by_hand = ShardedQueryServer::from_bootstraps(
            sa.public_params(),
            sa.config(),
            sa.map().clone(),
            &boots,
            &QsOptions::default(),
        );
        for period in 0..3u64 {
            sa.advance_clock(4);
            // A key move across the seam (shard 0's rid 15.. to keys 205..)
            // and a double update, so the period closes with recerts.
            let mut msgs = sa
                .update_record(0, 15 + period, vec![205 + period as i64, 7])
                .1;
            for val in [1, 2] {
                msgs.extend(sa.update_record(1, 9, vec![290, val]).1);
            }
            minted.apply_all(&msgs);
            for (shard, m) in &msgs {
                by_hand.apply(*shard, m);
            }
            sa.advance_clock(8);
            let periods = sa.maybe_publish_summaries();
            assert!(periods.iter().any(|(_, _, recerts)| !recerts.is_empty()));
            for (shard, summary, recerts) in periods.clone() {
                by_hand.add_summary(shard, summary);
                for m in recerts {
                    by_hand.apply(shard, &m);
                }
            }
            minted.ingest(periods);
        }
        let (a, b) = (
            minted.select_range(150, 300).unwrap(),
            by_hand.select_range(150, 300).unwrap(),
        );
        assert_eq!(a.parts.len(), 2, "the range straddles the seam");
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn dead_rid_update_does_not_certify_a_phantom() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut sa = ShardedAggregator::new(DaConfig::small(), vec![200], &mut rng);
        sa.bootstrap((0..10).map(|i| vec![i * 10, i]).collect(), 2);
        sa.advance_clock(1);
        let dead = sa.delete_record(0, 3);
        assert!(!dead.is_empty());
        let live_before = sa.live_records();
        // A seam-crossing "update" of the deleted rid must no-op, not run
        // its insert half.
        let ((shard, rid), msgs) = sa.update_record(0, 3, vec![250, 9]);
        assert_eq!((shard, rid), (0, 3));
        assert!(msgs.is_empty());
        assert_eq!(sa.live_records(), live_before);
    }

    #[test]
    fn seam_fences_bound_every_shard_claim() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut sa = ShardedAggregator::new(DaConfig::small(), vec![200], &mut rng);
        let boots = sa.bootstrap((0..40).map(|i| vec![i * 10, i]).collect(), 2);
        let sqs = sa.replica(&boots, &QsOptions::default());
        // Shard 0's rightmost record chains to the split key, not +inf.
        let edge = sqs.select_shard(0, 190, 199).unwrap();
        assert_eq!(edge.records.len(), 1);
        assert_eq!(edge.right_key, 200, "right fence is the split key");
        // Shard 1's leftmost record chains to split - 1, not -inf.
        let edge = sqs.select_shard(1, 200, 205).unwrap();
        assert_eq!(edge.left_key, 199, "left fence is split - 1");
        // A gap proof from shard 0 can never cover shard 1 territory: its
        // certified right key is capped at the fence.
        let gap = sqs.select_shard(0, 195, 199).unwrap();
        let g = gap.gap.expect("empty sub-range has a gap proof");
        assert!(g.right_key <= 200);
    }

    #[test]
    fn empty_shard_answers_with_tagged_vacancy() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sa = ShardedAggregator::new(DaConfig::small(), vec![100, 200], &mut rng);
        // All rows land in shard 0; shards 1 and 2 are empty.
        let boots = sa.bootstrap((0..5).map(|i| vec![i * 10, i]).collect(), 2);
        assert!(boots[1].records.is_empty());
        let vac = boots[1].vacancy.as_ref().expect("empty shard certified");
        assert_eq!(vac.shard, 1);
        assert!(vac.verify(&sa.public_params()));
        let vac2 = boots[2].vacancy.as_ref().expect("empty shard certified");
        assert_eq!(vac2.shard, 2);
        let sqs = sa.replica(&boots, &QsOptions::default());
        let ans = sqs.select_range(120, 180).unwrap();
        assert_eq!(ans.parts.len(), 1);
        assert!(ans.parts[0].answer.vacancy.is_some());
    }

    #[test]
    fn fanout_propagates_wrong_mode_instead_of_panicking() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut c = DaConfig::small();
        c.mode = SigningMode::PerAttribute;
        let mut sa = ShardedAggregator::new(c, vec![100], &mut rng);
        let boots = sa.bootstrap((0..10).map(|i| vec![i * 20, i]).collect(), 2);
        let sqs = sa.replica(&boots, &QsOptions::default());
        assert!(matches!(
            sqs.select_range(0, 100),
            Err(QueryError::WrongSigningMode { .. })
        ));
    }
}
