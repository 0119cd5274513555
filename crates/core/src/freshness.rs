//! The freshness verification protocol (Section 3.1).
//!
//! Every ρ ticks the data aggregator publishes a **certified bitmap
//! summary**: one bit per record, set iff the record was updated (inserted,
//! deleted, modified, or re-certified) during the period. Record signatures
//! embed their certification time `ts`, so a client holding the summaries
//! since `ts` can detect a withheld newer version:
//!
//! * `r.ts > b.ts` (newer than the latest summary `b`) — fresh, or at worst
//!   `ct - r.ts < ρ` out of date;
//! * otherwise `r` must be unmarked in every summary whose period started at
//!   or after `r.ts`; being marked there means a newer version exists. (The
//!   summary covering `r.ts` itself naturally marks `r` — that marking *is*
//!   this version's update.)
//!
//! A record updated several times within one period is re-certified in the
//! following period, which bounds its staleness by 2ρ (the "multiple
//! updates" rule).
//!
//! Crucially, the client also demands **recency of the latest summary
//! itself**: if the newest attached summary is older than 2ρ, the check
//! returns [`Freshness::Indeterminate`] instead of trusting the window the
//! server chose to reveal. Without this gate a malicious server could
//! withhold every summary published after a record's last certification and
//! make an arbitrarily stale version look fresh.
//!
//! The same machinery covers the degenerate empty relation: the DA mints an
//! [`EmptyTableProof`] whenever the table becomes (or bootstraps) empty, and
//! [`DecodedSummaries::check_vacancy`] treats *any* post-proof marking as
//! evidence the claim is out of date — an empty table can only change by
//! insertion.
//!
//! # Checkpoints and log compaction
//!
//! The anchored-run rule makes the summary log *unbounded*: a fresh verdict
//! for an old version needs a run reaching back to that version's period
//! (or to seq 0), so the server must retain — and ship — history forever.
//! A [`SummaryCheckpoint`] bounds it. The DA collapses a log prefix
//! `0..=through_seq` into one signed artifact committing to the prefix's
//! **cumulative exposure map**: for every rid, the latest covered
//! `period_start` whose summary marked it. That map is exactly the
//! information the two freshness passes extract from the prefix:
//!
//! * **Staleness stays decidable.** Pass 1 declares a version stale iff
//!   some summary with `version_ts <= period_start` marks its rid — i.e.
//!   iff `version_ts <= max marked period_start`, which is precisely the
//!   exposure entry. A compacted prefix therefore cannot hide a staleness
//!   marking: the marking survives the cut inside the signed exposure map,
//!   and the verifier rejects with `StaleCheckpoint` exactly where the
//!   uncompacted deployment would have answered `Stale`.
//! * **Anchoring stays sound.** A checkpoint certifies the *complete*
//!   prefix `0..=through_seq`, so a retained run starting at
//!   `through_seq + 1` is anchored exactly as a run from seq 0 is — the
//!   2ρ-recency gate and contiguity rules are unchanged on the retained
//!   suffix. A run starting later than `through_seq + 1` is a gap the
//!   verifier refuses (`CheckpointGap`), same as any withheld prefix.
//!
//! The map grows with the shard, and an answer reads only the entries of
//! the rids it returns, so the DA signs a **commitment** to it instead of
//! the map: a Merkle root over [`EXPOSURE_CHUNK`]-entry chunks, beside the
//! map's length, its maximum and the rid holding it ([`Exposure`]). The
//! server keeps the map and the tree ([`ExposureTree`]) and attaches, per
//! answer, the chunks covering the answer's rids plus the sibling digests
//! that hash them up to the root. Both arguments above survive, because the
//! client still learns every fact it used to read off the whole map:
//!
//! * an entry it reads sits in a chunk that hashes, through the attached
//!   siblings, to the signed root — the tree's shape is fixed by the signed
//!   `len`, leaves and inner nodes hash under different domain bytes, and a
//!   chunk's position is the path it is hashed along, so an opened entry is
//!   the DA's entry for that rid or the root does not match;
//! * a rid below `len` whose chunk was left out is not "never marked" but
//!   *unanswered* ([`Unopened`]) — withholding the chunk that would expose a
//!   stale version is a rejection, never a fresh verdict; a rid at or past
//!   `len` was never marked by a covered summary (no covered bitmap reached
//!   it), which the signed `len` says without any opening;
//! * a vacancy claim is voided by *any* marking, i.e. by the map's maximum,
//!   which is signed — a vacancy answer opens nothing.
//!
//! The whole map is the degenerate opening — every chunk, no siblings —
//! which is the form the DA hands the server and a rebalance carries.

use std::borrow::Borrow;

use authdb_crypto::sha256::{Digest, Sha256};
use authdb_crypto::signer::{Keypair, PublicParams, Signature};
use authdb_filters::bitmap::{compress, decompress, Bitmap};

use crate::record::Tick;

#[cfg(test)]
thread_local! {
    /// How many bitmaps this thread has decompressed: lets the verifier's
    /// tests pin that nothing unauthenticated is ever decoded.
    pub(crate) static BITMAP_DECODES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A certified compressed bitmap summary for one ρ-period.
///
/// The `(epoch, shard)` tags are part of the signed message: every shard
/// runs its own summary stream over its own
/// (shard-local) rids, and without the shard tag a malicious server could
/// attach one shard's fresh, genuinely-signed summaries to another shard's
/// stale answer — the bitmaps would simply not mark the withheld update.
/// The epoch tag extends the same argument across re-partitionings: shard
/// indices (and rid spaces) are only meaningful relative to one certified
/// [`ShardMap`](crate::shard::ShardMap) epoch, so a summary stream from
/// epoch N must never vouch for an answer assembled under epoch N+1 (or
/// vice versa). At an epoch transition the DA re-binds surviving shards'
/// streams to the new tag ([`DataAggregator::retag`]) and mints fresh
/// baseline streams for the handed-off shards. A never-rebalanced one-shard
/// deployment's stream is tagged `(GENESIS_EPOCH, 0)`.
///
/// [`DataAggregator::retag`]: crate::da::DataAggregator::retag
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateSummary {
    /// Which map epoch the stream belongs to.
    pub epoch: u64,
    /// Which shard's update stream this summary covers.
    pub shard: u64,
    /// Monotone sequence number (consecutive — gaps mean withheld summaries).
    pub seq: u64,
    /// Start of the covered period (exclusive of earlier updates).
    pub period_start: Tick,
    /// Signing time = end of the covered period.
    pub ts: Tick,
    /// Compressed bitmap over rids (bit set = updated in period).
    pub compressed: Vec<u8>,
    /// DA signature over the summary message.
    pub signature: Signature,
}

impl UpdateSummary {
    /// The canonical signing message.
    pub fn message(
        epoch: u64,
        shard: u64,
        seq: u64,
        period_start: Tick,
        ts: Tick,
        compressed: &[u8],
    ) -> Vec<u8> {
        let mut msg = Vec::with_capacity(48 + compressed.len());
        msg.extend_from_slice(b"summary:");
        msg.extend_from_slice(&epoch.to_be_bytes());
        msg.extend_from_slice(&shard.to_be_bytes());
        msg.extend_from_slice(&seq.to_be_bytes());
        msg.extend_from_slice(&period_start.to_be_bytes());
        msg.extend_from_slice(&ts.to_be_bytes());
        msg.extend_from_slice(compressed);
        msg
    }

    /// Build and sign a summary from a bitmap.
    pub fn create(
        keypair: &authdb_crypto::signer::Keypair,
        epoch: u64,
        shard: u64,
        seq: u64,
        period_start: Tick,
        ts: Tick,
        bitmap: &Bitmap,
    ) -> Self {
        let compressed = compress(bitmap);
        let signature = keypair.sign(&Self::message(
            epoch,
            shard,
            seq,
            period_start,
            ts,
            &compressed,
        ));
        UpdateSummary {
            epoch,
            shard,
            seq,
            period_start,
            ts,
            compressed,
            signature,
        }
    }

    /// The message this summary's signature must cover: [`Self::message`]
    /// over its own fields (`epoch` and `shard` included).
    pub fn signed_message(&self) -> Vec<u8> {
        Self::message(
            self.epoch,
            self.shard,
            self.seq,
            self.period_start,
            self.ts,
            &self.compressed,
        )
    }

    /// Verify the DA's signature.
    pub fn verify(&self, pp: &PublicParams) -> bool {
        pp.verify(&self.signed_message(), &self.signature)
    }

    /// Decompress the bitmap; `None` if the payload is malformed.
    pub fn bitmap(&self) -> Option<Bitmap> {
        #[cfg(test)]
        BITMAP_DECODES.with(|n| n.set(n.get() + 1));
        decompress(&self.compressed)
    }
}

/// Certified claim that the relation held **zero records** at `ts`: the
/// record chain of Section 3.3 degenerated to the single gap `(−∞, +∞)`.
/// Minted by the DA at an empty bootstrap and re-minted whenever a delete
/// empties the table; superseded by any later insertion, which the client
/// detects through the update summaries
/// ([`DecodedSummaries::check_vacancy`]).
#[derive(Clone, Debug, PartialEq)]
pub struct EmptyTableProof {
    /// Which map epoch the claim belongs to. Bound into the signed message
    /// so a proof minted under one partition cannot deny records after a
    /// re-partitioning changed what the shard covers.
    pub epoch: u64,
    /// Which shard's key range the claim covers. Bound into the signed
    /// message so an empty shard's proof cannot be replayed to deny a
    /// different shard's records.
    pub shard: u64,
    /// When the DA certified the relation empty.
    pub ts: Tick,
    /// DA signature over [`EmptyTableProof::message`].
    pub signature: Signature,
}

impl EmptyTableProof {
    /// The canonical signing message.
    pub fn message(epoch: u64, shard: u64, ts: Tick) -> Vec<u8> {
        let mut msg = Vec::with_capacity(36);
        msg.extend_from_slice(b"empty-table:");
        msg.extend_from_slice(&epoch.to_be_bytes());
        msg.extend_from_slice(&shard.to_be_bytes());
        msg.extend_from_slice(&ts.to_be_bytes());
        msg
    }

    /// Sign a vacancy claim for `shard`'s key range as of `ts` under map
    /// epoch `epoch`.
    pub fn create(keypair: &Keypair, epoch: u64, shard: u64, ts: Tick) -> Self {
        EmptyTableProof {
            epoch,
            shard,
            ts,
            signature: keypair.sign(&Self::message(epoch, shard, ts)),
        }
    }

    /// Verify the DA's signature.
    pub fn verify(&self, pp: &PublicParams) -> bool {
        pp.verify(
            &Self::message(self.epoch, self.shard, self.ts),
            &self.signature,
        )
    }
}

/// Entries per leaf of the exposure map's hash tree. Sixteen and not eight,
/// as measured on a 2 048-rid shard: eight would make a 16-rid opening 64 B
/// smaller (400 against 464) and its check 0.8 µs of 7.5 faster, but the
/// tree — built on the DA and again on the server at every checkpoint —
/// half again as slow (≈ 1 020 SHA-256 compressions against ≈ 640).
pub const EXPOSURE_CHUNK: usize = 16;

/// The root committing to a map of no entries.
const EMPTY_ROOT: Digest = [0; 32];

/// `EXPOSURE_CHUNK` consecutive entries of the map; the last chunk of a map
/// whose length is not a multiple is zero-padded.
pub type ExposureChunk = [u64; EXPOSURE_CHUNK];

fn leaf_digest(chunk: &ExposureChunk) -> Digest {
    let mut entries = [0; 8 * EXPOSURE_CHUNK];
    for (bytes, e) in entries.chunks_exact_mut(8).zip(chunk) {
        bytes.copy_from_slice(&e.to_be_bytes());
    }
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(&entries);
    h.finalize()
}

fn node_digest(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left);
    h.update(right);
    h.finalize()
}

/// Carry the nodes `known` — `(position, value)` pairs of one level of a
/// hash tree over `width` leaves, sorted by position, positions distinct and
/// below `width` — up to the root: two known neighbours join, a node whose
/// neighbour is unknown joins `sibling(level, neighbour's position)`, and
/// the odd node out at the end of a level moves up unchanged. Siblings are
/// asked for in one fixed order (level by level, left to right), which is
/// the order an opening lists them in; the prover and the verifier both run
/// this walk, so neither can disagree about it. `None` as soon as a sibling
/// is missing. Does at most 64 passes whatever `width` claims, each linear
/// in `known`.
fn climb<T: Copy>(
    mut width: u64,
    mut known: Vec<(u64, T)>,
    mut sibling: impl FnMut(usize, u64) -> Option<T>,
    join: impl Fn(&T, &T) -> T,
) -> Option<Vec<(u64, T)>> {
    let mut level = 0;
    while width > 1 {
        let mut parents = Vec::with_capacity(known.len());
        let mut nodes = known.into_iter().peekable();
        while let Some((at, node)) = nodes.next() {
            let parent = if at % 2 == 1 {
                // A known left neighbour would have consumed this node.
                join(&sibling(level, at - 1)?, &node)
            } else if at + 1 == width {
                node
            } else if let Some((_, right)) = nodes.next_if(|&(next, _)| next == at + 1) {
                join(&node, &right)
            } else {
                join(&node, &sibling(level, at + 1)?)
            };
            parents.push((at / 2, parent));
        }
        known = parents;
        width = width.div_ceil(2);
        level += 1;
    }
    Some(known)
}

/// A rid below the map's length whose chunk the opening leaves out: the
/// opening does not say what the map holds for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unopened;

/// A checkpoint's cumulative exposure map in committed form: per rid,
/// `period_start + 1` of the latest covered summary marking it, `0` if no
/// covered summary does.
///
/// The first four fields are what the DA signs
/// ([`SummaryCheckpoint::message`]); `chunks` and `siblings` are an
/// **opening** of `root` for some rids, believed only once
/// [`Exposure::opens_to_root`] holds *and* the signature over the message
/// carrying `root` does. The whole map is the opening with every chunk and
/// no sibling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exposure {
    /// Entries in the map. Rids at or past it were never marked by a
    /// covered summary.
    pub len: u64,
    /// The largest entry (`0` for a map with no marking).
    pub max: u64,
    /// The last rid holding `max` (`0` when `max` is).
    pub max_rid: u64,
    /// Root of the hash tree over the map's chunks: a leaf is
    /// `SHA-256(0x00 ‖ entries)`, an inner node `SHA-256(0x01 ‖ left ‖
    /// right)`, and the odd node out at the end of a level moves up
    /// unchanged.
    pub root: Digest,
    /// Opened chunks as `(chunk index, entries)`, strictly increasing by
    /// index.
    pub chunks: Vec<(u64, ExposureChunk)>,
    /// The digests of the subtrees hanging off the paths from `chunks` to
    /// the root, level by level from the leaves up, left to right within a
    /// level.
    pub siblings: Vec<Digest>,
}

impl Exposure {
    /// Commit to `map`, keeping all of it: the whole-map form.
    fn commit(map: &[u64]) -> Exposure {
        let chunks: Vec<(u64, ExposureChunk)> = map
            .chunks(EXPOSURE_CHUNK)
            .zip(0..)
            .map(|(entries, at)| {
                let mut chunk = [0; EXPOSURE_CHUNK];
                for (slot, e) in chunk.iter_mut().zip(entries) {
                    *slot = *e;
                }
                (at, chunk)
            })
            .collect();
        let (max_rid, max) = map
            .iter()
            .copied()
            .zip(0..)
            .max_by_key(|&(e, _)| e)
            .filter(|&(e, _)| e > 0)
            .map_or((0, 0), |(e, rid)| (rid, e));
        Exposure {
            len: map.len() as u64,
            max,
            max_rid,
            root: ExposureTree::build(&chunks).root(),
            chunks,
            siblings: Vec::new(),
        }
    }

    /// The plain map of a whole-map form, one entry per rid.
    pub fn into_map(self) -> Vec<u64> {
        let mut map: Vec<u64> = self.chunks.iter().flat_map(|(_, c)| *c).collect();
        map.truncate(usize::try_from(self.len).unwrap_or(usize::MAX));
        map
    }

    /// Whether the opened chunks, hashed up through `siblings`, give exactly
    /// `root`, with no digest missing or left over. Nothing about the
    /// opening may be believed before this holds; an opening of no chunk
    /// holds iff it lists no sibling. Work and memory are bounded by the
    /// opening's own size — `len` sets the tree's shape, never an
    /// allocation.
    pub fn opens_to_root(&self) -> bool {
        let width = self.len.div_ceil(EXPOSURE_CHUNK as u64);
        let positions = self.chunks.iter().map(|&(at, _)| at);
        let sorted = positions.clone().zip(positions.skip(1)).all(|(a, b)| a < b);
        if !sorted || self.chunks.last().is_some_and(|&(at, _)| at >= width) {
            return false;
        }
        if self.chunks.is_empty() {
            return self.siblings.is_empty();
        }
        let leaves = self
            .chunks
            .iter()
            .map(|(at, chunk)| (*at, leaf_digest(chunk)))
            .collect();
        let mut siblings = self.siblings.iter();
        let top = climb(width, leaves, |_, _| siblings.next().copied(), node_digest);
        matches!(top.as_deref(), Some([(0, root)]) if *root == self.root)
            && siblings.next().is_none()
    }

    /// The map's entry for `rid`: `0` at or past `len`, [`Unopened`] below
    /// it when the opening leaves the rid's chunk out.
    pub fn entry(&self, rid: u64) -> Result<u64, Unopened> {
        #[cfg(test)]
        ENTRIES_READ.with(|n| n.set(n.get() + 1));
        if rid >= self.len {
            return Ok(0);
        }
        let at = rid / EXPOSURE_CHUNK as u64;
        let held = self.chunks.binary_search_by_key(&at, |&(at, _)| at).ok();
        held.and_then(|k| self.chunks.get(k))
            .and_then(|(_, chunk)| chunk.get((rid % EXPOSURE_CHUNK as u64) as usize))
            .copied()
            .ok_or(Unopened)
    }
}

/// The hash tree over a whole exposure map, kept by whoever answers with
/// openings of it: `levels[0]` the leaf digests, each next level half as
/// wide, the last one the root alone.
#[derive(Clone, Debug)]
pub struct ExposureTree {
    levels: Vec<Vec<Digest>>,
}

impl ExposureTree {
    /// Hash the tree over a whole map's chunks, taken in the order given.
    pub fn build(chunks: &[(u64, ExposureChunk)]) -> ExposureTree {
        let mut levels = vec![chunks
            .iter()
            .map(|(_, chunk)| leaf_digest(chunk))
            .collect::<Vec<_>>()];
        while let Some(below) = levels.last().filter(|l| l.len() > 1) {
            let level = below
                .chunks(2)
                .map(|pair| match pair {
                    [left, right] => node_digest(left, right),
                    odd => odd.first().copied().unwrap_or(EMPTY_ROOT),
                })
                .collect();
            levels.push(level);
        }
        ExposureTree { levels }
    }

    /// The root the tree commits its map under.
    pub fn root(&self) -> Digest {
        let top = self.levels.last().and_then(|l| l.first());
        top.copied().unwrap_or(EMPTY_ROOT)
    }

    /// Open `whole` — the map this tree was built over — for `rids`: the
    /// chunks holding them (a rid at or past the map's length needs none)
    /// and the siblings that hash those chunks to the root. The same rids in
    /// any order, repeated or not, give the same opening.
    pub fn open(&self, whole: &Exposure, rids: impl IntoIterator<Item = u64>) -> Exposure {
        let mut wanted: Vec<u64> = rids
            .into_iter()
            .filter(|&rid| rid < whole.len)
            .map(|rid| rid / EXPOSURE_CHUNK as u64)
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        let chunks: Vec<(u64, ExposureChunk)> = wanted
            .iter()
            .filter_map(|&at| Some((at, whole.chunks.get(usize::try_from(at).ok()?)?.1)))
            .collect();
        // The verifier's walk, with nothing to hash: it only notes which
        // digests the walk asks for.
        let mut siblings = Vec::new();
        climb(
            self.levels.first().map_or(0, Vec::len) as u64,
            chunks.iter().map(|&(at, _)| (at, ())).collect(),
            |level, at| {
                let digest = self.levels.get(level)?.get(usize::try_from(at).ok()?)?;
                siblings.push(*digest);
                Some(())
            },
            |(), ()| (),
        );
        Exposure {
            len: whole.len,
            max: whole.max,
            max_rid: whole.max_rid,
            root: whole.root,
            chunks,
            siblings,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// How many exposure entries this thread has read: lets the verifier's
    /// tests pin that none is read before its opening and its signature
    /// held.
    pub(crate) static ENTRIES_READ: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A DA-certified collapse of the summary-log prefix `0..=through_seq`
/// into one signed artifact, bounding both the server's resident log and
/// the run a client must walk.
///
/// The checkpoint binds the `(epoch, shard)` tag (same argument as
/// [`UpdateSummary`]: one shard's compacted history must never vouch for
/// another's, across re-partitionings), the covered seq/tick window, and a
/// commitment to the prefix's **cumulative exposure map** — per rid, the
/// latest covered `period_start` whose summary marked it. The exposure map
/// is what keeps pass-1 staleness decidable across the cut; see the module
/// docs for the soundness argument, and for why an answer carries only an
/// opening of it.
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryCheckpoint {
    /// Which map epoch the compacted stream belongs to.
    pub epoch: u64,
    /// Which shard's stream this checkpoint collapses.
    pub shard: u64,
    /// Last covered summary seq — coverage is the full prefix
    /// `0..=through_seq`, so a retained run starting at `through_seq + 1`
    /// is anchored.
    pub through_seq: u64,
    /// Signing time of the last covered summary (the cut tick).
    pub through_ts: Tick,
    /// The committed exposure map: whole as the DA mints it, opened for the
    /// answer's rids on an answer.
    pub exposure: Exposure,
    /// DA signature over [`SummaryCheckpoint::message`].
    pub signature: Signature,
}

impl SummaryCheckpoint {
    /// The canonical signing message: the tag, the window, and the
    /// exposure's commitment (`len`, `max`, `max_rid`, `root`) — 101 bytes
    /// whatever the map's size and whatever the exposure has opened.
    pub fn message(
        epoch: u64,
        shard: u64,
        through_seq: u64,
        through_ts: Tick,
        exposure: &Exposure,
    ) -> Vec<u8> {
        let mut msg = Vec::with_capacity(101);
        msg.extend_from_slice(b"ckpt-summary:");
        msg.extend_from_slice(&epoch.to_be_bytes());
        msg.extend_from_slice(&shard.to_be_bytes());
        msg.extend_from_slice(&through_seq.to_be_bytes());
        msg.extend_from_slice(&through_ts.to_be_bytes());
        msg.extend_from_slice(&exposure.len.to_be_bytes());
        msg.extend_from_slice(&exposure.max.to_be_bytes());
        msg.extend_from_slice(&exposure.max_rid.to_be_bytes());
        msg.extend_from_slice(&exposure.root);
        msg
    }

    /// Commit to the exposure `map` and sign a checkpoint carrying all of
    /// it.
    pub fn create(
        keypair: &Keypair,
        epoch: u64,
        shard: u64,
        through_seq: u64,
        through_ts: Tick,
        map: &[u64],
    ) -> Self {
        let exposure = Exposure::commit(map);
        let signature = keypair.sign(&Self::message(
            epoch,
            shard,
            through_seq,
            through_ts,
            &exposure,
        ));
        SummaryCheckpoint {
            epoch,
            shard,
            through_seq,
            through_ts,
            exposure,
            signature,
        }
    }

    /// The message this checkpoint's signature must cover:
    /// [`Self::message`] over its own fields (`epoch` and `shard` included).
    pub fn signed_message(&self) -> Vec<u8> {
        Self::message(
            self.epoch,
            self.shard,
            self.through_seq,
            self.through_ts,
            &self.exposure,
        )
    }

    /// Verify the DA's signature over the commitment, and that what the
    /// exposure has opened hashes to the committed root.
    pub fn verify(&self, pp: &PublicParams) -> bool {
        pp.verify(&self.signed_message(), &self.signature) && self.exposure.opens_to_root()
    }

    /// This checkpoint as an answer carries it: same window, commitment and
    /// signature, the exposure opened for `rids` only. `self` must hold the
    /// whole map `tree` was built over.
    pub fn opened_for(
        &self,
        tree: &ExposureTree,
        rids: impl IntoIterator<Item = u64>,
    ) -> SummaryCheckpoint {
        SummaryCheckpoint {
            exposure: tree.open(&self.exposure, rids),
            signature: self.signature.clone(),
            ..*self
        }
    }

    /// The latest covered `period_start` whose summary marked `rid`, or
    /// `None` if no covered summary marks it. A version with
    /// `version_ts <= exposed_after(rid)` is definitively stale: a covered
    /// summary whose period began at or after the version's certification
    /// marked the rid. [`Unopened`] when the exposure does not say.
    pub fn exposed_after(&self, rid: u64) -> Result<Option<Tick>, Unopened> {
        Ok(self.exposure.entry(rid)?.checked_sub(1))
    }

    /// The latest covered `period_start` whose summary marked *any* rid —
    /// what invalidates a vacancy claim older than the cut (an empty table
    /// can only change by insertion, and every insertion marks). Read off
    /// the signed maximum: no opening is involved.
    pub fn exposed_any(&self) -> Option<Tick> {
        self.exposure.max.checked_sub(1)
    }
}

/// Outcome of a freshness check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Freshness {
    /// The value is current, or out of date by less than the bound (ticks).
    FreshWithin(Tick),
    /// A later summary marks the record: the server returned an old version.
    Stale {
        /// Sequence number of the summary that exposed the staleness.
        exposed_by: u64,
    },
    /// The client lacks the summaries needed to decide.
    Indeterminate,
}

/// An attached summary set with every bitmap decompressed **once**, for
/// checking many records of the same answer: per-record checks then cost
/// O(bitmap lookups) instead of re-decompressing each summary per record.
///
/// Generic over how the summaries are held (`&[UpdateSummary]`,
/// `&[Arc<UpdateSummary>]`, …) so callers never materialize a deep copy of
/// an answer's summary set just to check it.
pub struct DecodedSummaries<'a, S = UpdateSummary> {
    summaries: &'a [S],
    bitmaps: Vec<Option<Bitmap>>,
}

impl<'a, S: Borrow<UpdateSummary>> DecodedSummaries<'a, S> {
    /// Decode all bitmaps up front (`None` entries are malformed payloads,
    /// surfaced as [`Freshness::Indeterminate`] when a check needs them).
    pub fn new(summaries: &'a [S]) -> Self {
        DecodedSummaries {
            summaries,
            bitmaps: summaries.iter().map(|s| s.borrow().bitmap()).collect(),
        }
    }

    /// Check one record's freshness against the summaries.
    ///
    /// The summaries must be sorted by `seq`, signature-verified by the
    /// caller, and cover every period from the one containing `record_ts`
    /// through the latest; `rho` is the publication period and `now` the
    /// client's clock. The latest summary must itself be recent (younger
    /// than 2ρ), otherwise the server may be withholding the summaries that
    /// would expose a newer version and the check is
    /// [`Freshness::Indeterminate`].
    ///
    /// A run starting at `anchor_seq` counts as anchored even when its
    /// first period does not cover `record_ts`. Callers pass
    /// `checkpoint.through_seq + 1` after validating a
    /// [`SummaryCheckpoint`] (whose coverage of the full prefix
    /// `0..=through_seq` is what justifies the anchor), or `0` for none.
    pub fn check_freshness(
        &self,
        rid: u64,
        record_ts: Tick,
        rho: Tick,
        now: Tick,
        anchor_seq: u64,
    ) -> Freshness {
        self.check_marks(record_ts, rho, now, anchor_seq, |b| b.get(rid as usize))
    }

    /// Check an [`EmptyTableProof`]'s currency against the summaries.
    ///
    /// While the table is empty no record can be modified or deleted, so
    /// *any* marking in a period that started at or after the proof's `ts`
    /// proves an insertion happened and the vacancy claim is out of date.
    /// The same anchoring (`anchor_seq` included), contiguity, and
    /// 2ρ-recency rules as [`Self::check_freshness`] apply.
    pub fn check_vacancy(
        &self,
        proof_ts: Tick,
        rho: Tick,
        now: Tick,
        anchor_seq: u64,
    ) -> Freshness {
        self.check_marks(proof_ts, rho, now, anchor_seq, |b| b.ones() > 0)
    }

    /// The run's first summary — what anchoring is judged against, exposed
    /// so a caller holding a [`SummaryCheckpoint`] can tell a seam failure
    /// (run resumes past the cut) apart from plain recency withholding.
    pub fn first(&self) -> Option<&UpdateSummary> {
        self.summaries.first().map(Borrow::borrow)
    }

    /// Whether the attached run is empty.
    pub fn is_empty(&self) -> bool {
        self.summaries.is_empty()
    }

    /// Shared core of [`Self::check_freshness`] and [`Self::check_vacancy`]:
    /// walk the summaries, demand seq-contiguity, anchored coverage of
    /// `version_ts`'s period, and recency of the newest summary.
    /// `exposes(bitmap)` reports whether a summary's bitmap invalidates the
    /// version being checked. `anchor_seq` is an extra seq at which a run
    /// counts as anchored (seq 0 always anchors).
    fn check_marks(
        &self,
        version_ts: Tick,
        rho: Tick,
        now: Tick,
        anchor_seq: u64,
        exposes: impl Fn(&Bitmap) -> bool,
    ) -> Freshness {
        let summaries = self.summaries;
        let window = rho.saturating_mul(2);
        let Some(latest) = summaries.last().map(Borrow::borrow) else {
            // No summary at all is acceptable only in the first 2ρ of system
            // life; past that, summaries must exist and their absence means the
            // server withheld them.
            if now >= window {
                return Freshness::Indeterminate;
            }
            return Freshness::FreshWithin(now.saturating_sub(version_ts));
        };
        // Pass 1 — definitive staleness. A marking proves staleness exactly
        // when this version *predates* the marked period. The DA guarantees
        // post-bootstrap certification timestamps are strictly inside their
        // period (never equal to a boundary), so `version_ts <= period_start`
        // means the version existed before the period began and the marking is
        // a newer event. Each summary is individually signed, so this verdict
        // needs no contiguity or anchoring.
        let mut malformed = false;
        for (s, bitmap) in summaries.iter().zip(&self.bitmaps) {
            let s = s.borrow();
            if version_ts <= s.period_start {
                match bitmap.as_ref().map(&exposes) {
                    Some(true) => return Freshness::Stale { exposed_by: s.seq },
                    Some(false) => {}
                    None => malformed = true,
                }
            }
        }
        // Pass 2 — a FRESH verdict needs the full discipline.
        // Recency gate: a latest summary older than 2ρ proves nothing about the
        // recent past — the server may be sitting on newer summaries that mark
        // this version.
        if now.saturating_sub(latest.ts) >= window {
            return Freshness::Indeterminate;
        }
        if version_ts > latest.ts {
            // Newer than the latest bitmap: fresh, worst case ct - version_ts,
            // bounded by 2ρ via the gate above.
            return Freshness::FreshWithin(now.saturating_sub(version_ts));
        }
        // Anchor: the run must start at or before the period containing
        // version_ts. Contiguity + recency alone would let a server present a
        // clean *recent suffix* while withholding the middle summary that marks
        // this version stale (prefix withholding); anchoring the run's start
        // closes that. seq 0 is the first summary ever published, so a run from
        // seq 0 trivially covers everything before it.
        let Some(first) = summaries.first().map(Borrow::borrow) else {
            return Freshness::Indeterminate;
        };
        if !(first.period_start < version_ts || first.seq == 0 || first.seq == anchor_seq) {
            return Freshness::Indeterminate;
        }
        // Contiguity: no withheld summary inside the run.
        if summaries
            .iter()
            .zip(summaries.iter().skip(1))
            .any(|(a, b)| b.borrow().seq != a.borrow().seq + 1)
        {
            return Freshness::Indeterminate;
        }
        if malformed {
            return Freshness::Indeterminate;
        }
        Freshness::FreshWithin(now.saturating_sub(latest.ts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use authdb_crypto::signer::{Keypair, SchemeKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> Keypair {
        let mut rng = StdRng::seed_from_u64(1);
        Keypair::generate(SchemeKind::Mock, &mut rng)
    }

    fn summary(kp: &Keypair, seq: u64, start: Tick, ts: Tick, marked: &[u64]) -> UpdateSummary {
        let mut b = Bitmap::new(1000);
        for &rid in marked {
            b.set(rid as usize);
        }
        UpdateSummary::create(kp, 0, 0, seq, start, ts, &b)
    }

    /// One unanchored record check against a freshly decoded run.
    fn check_freshness(
        rid: u64,
        record_ts: Tick,
        sums: &[UpdateSummary],
        rho: Tick,
        now: Tick,
    ) -> Freshness {
        DecodedSummaries::new(sums).check_freshness(rid, record_ts, rho, now, 0)
    }

    /// One unanchored vacancy check against a freshly decoded run.
    fn check_vacancy(proof_ts: Tick, sums: &[UpdateSummary], rho: Tick, now: Tick) -> Freshness {
        DecodedSummaries::new(sums).check_vacancy(proof_ts, rho, now, 0)
    }

    #[test]
    fn summary_signature_verifies() {
        let kp = keypair();
        let s = summary(&kp, 0, 0, 10, &[3, 5]);
        assert!(s.verify(&kp.public_params()));
        let mut tampered = s.clone();
        tampered.ts += 1;
        assert!(!tampered.verify(&kp.public_params()));
    }

    #[test]
    fn record_newer_than_latest_summary_is_fresh() {
        let kp = keypair();
        let sums = vec![summary(&kp, 0, 0, 10, &[])];
        let f = check_freshness(7, 15, &sums, 10, 18);
        assert_eq!(f, Freshness::FreshWithin(3));
    }

    #[test]
    fn unmarked_record_is_fresh() {
        let kp = keypair();
        let sums = vec![
            summary(&kp, 0, 0, 10, &[7]), // period containing the update
            summary(&kp, 1, 10, 20, &[]), // later periods leave it unmarked
            summary(&kp, 2, 20, 30, &[99]),
        ];
        let f = check_freshness(7, 5, &sums, 10, 31);
        assert!(matches!(f, Freshness::FreshWithin(_)));
    }

    #[test]
    fn own_period_marking_is_not_stale() {
        let kp = keypair();
        // The summary for (0,10] marks rid 7 because it was updated at ts 5:
        // that marking is this very version.
        let sums = vec![summary(&kp, 0, 0, 10, &[7])];
        let f = check_freshness(7, 5, &sums, 10, 12);
        assert!(matches!(f, Freshness::FreshWithin(_)));
    }

    #[test]
    fn later_marking_means_stale() {
        let kp = keypair();
        let sums = vec![
            summary(&kp, 0, 0, 10, &[7]),
            summary(&kp, 1, 10, 20, &[7]), // updated again later
        ];
        let f = check_freshness(7, 5, &sums, 10, 21);
        assert_eq!(f, Freshness::Stale { exposed_by: 1 });
    }

    #[test]
    fn gap_in_summaries_is_indeterminate() {
        let kp = keypair();
        let sums = vec![
            summary(&kp, 0, 0, 10, &[]),
            summary(&kp, 2, 20, 30, &[]), // seq 1 missing
        ];
        let f = check_freshness(7, 5, &sums, 10, 31);
        assert_eq!(f, Freshness::Indeterminate);
    }

    #[test]
    fn missing_coverage_is_indeterminate() {
        let kp = keypair();
        // Record from ts 5, but summaries only start at period (10, 20]:
        // the (0, 10] summary that would expose an update in (5, 10] is
        // absent, so the anchored-coverage rule refuses to decide.
        let sums = vec![summary(&kp, 1, 10, 20, &[])];
        assert_eq!(
            check_freshness(7, 5, &sums, 10, 21),
            Freshness::Indeterminate
        );
    }

    #[test]
    fn withheld_summary_prefix_is_indeterminate() {
        let kp = keypair();
        // rid 7 (ts 5) superseded in period (10, 20]. A malicious server
        // ships only the clean, contiguous, *recent* suffix [seq 2, seq 3]:
        // contiguity and the 2ρ gate both pass, but the run's start is not
        // anchored at rid 7's period, so the check must refuse rather than
        // report fresh.
        let all = vec![
            summary(&kp, 0, 0, 10, &[]),
            summary(&kp, 1, 10, 20, &[7]),
            summary(&kp, 2, 20, 30, &[]),
            summary(&kp, 3, 30, 40, &[]),
        ];
        assert_eq!(
            check_freshness(7, 5, &all, 10, 42),
            Freshness::Stale { exposed_by: 1 }
        );
        assert_eq!(
            check_freshness(7, 5, &all[2..], 10, 42),
            Freshness::Indeterminate
        );
        // Same hole for vacancy claims: the insert-marking summary is in
        // the withheld prefix.
        assert_eq!(
            check_vacancy(5, &all[2..], 10, 42),
            Freshness::Indeterminate
        );
        // An anchored run that includes the exposing summary still decides.
        assert_eq!(
            check_freshness(7, 5, &all[1..], 10, 42),
            Freshness::Stale { exposed_by: 1 }
        );
    }

    #[test]
    fn decoded_summaries_match_direct_checks() {
        // One decoded set reused across records — and one held by `Arc`,
        // as answers ship it — decides exactly like a fresh decode per
        // check.
        let kp = keypair();
        let sums = vec![
            summary(&kp, 0, 0, 10, &[7]),
            summary(&kp, 1, 10, 20, &[7]),
            summary(&kp, 2, 20, 30, &[99]),
        ];
        let shared: Vec<_> = sums.iter().cloned().map(std::sync::Arc::new).collect();
        let decoded = DecodedSummaries::new(&sums);
        let decoded_shared = DecodedSummaries::new(&shared);
        for rid in [7u64, 42, 99] {
            for ts in [5u64, 15, 25] {
                let direct = check_freshness(rid, ts, &sums, 10, 31);
                assert_eq!(
                    decoded.check_freshness(rid, ts, 10, 31, 0),
                    direct,
                    "rid {rid} ts {ts}"
                );
                assert_eq!(
                    decoded_shared.check_freshness(rid, ts, 10, 31, 0),
                    direct,
                    "rid {rid} ts {ts} (Arc-held)"
                );
            }
        }
        assert_eq!(
            decoded.check_vacancy(5, 10, 31, 0),
            check_vacancy(5, &sums, 10, 31)
        );
        assert_eq!(
            check_freshness(7, 5, &sums, 10, 31),
            Freshness::Stale { exposed_by: 1 }
        );
    }

    #[test]
    fn no_summaries_yet() {
        let f = check_freshness(7, 5, &[], 10, 8);
        assert_eq!(f, Freshness::FreshWithin(3));
    }

    #[test]
    fn withheld_summary_suffix_is_indeterminate() {
        let kp = keypair();
        // rid 7 (ts 5) was updated in period (10, 20], which summary 1
        // records. A server withholding summaries 1.. must not be able to
        // pass the check off the back of summary 0 alone once the clock is
        // ≥ 2ρ past summary 0.
        let all = vec![
            summary(&kp, 0, 0, 10, &[7]),
            summary(&kp, 1, 10, 20, &[7]),
            summary(&kp, 2, 20, 30, &[]),
        ];
        assert_eq!(
            check_freshness(7, 5, &all, 10, 33),
            Freshness::Stale { exposed_by: 1 }
        );
        let withheld = &all[..1];
        assert_eq!(
            check_freshness(7, 5, withheld, 10, 33),
            Freshness::Indeterminate
        );
        // Withholding *every* summary is equally indeterminate past 2ρ.
        assert_eq!(check_freshness(7, 5, &[], 10, 33), Freshness::Indeterminate);
    }

    #[test]
    fn recency_gate_is_strict_at_two_rho() {
        let kp = keypair();
        let sums = vec![summary(&kp, 0, 0, 10, &[])];
        assert!(matches!(
            check_freshness(7, 5, &sums, 10, 29),
            Freshness::FreshWithin(19)
        ));
        assert_eq!(
            check_freshness(7, 5, &sums, 10, 30),
            Freshness::Indeterminate
        );
    }

    #[test]
    fn vacancy_holds_while_no_marks() {
        let kp = keypair();
        let proof = EmptyTableProof::create(&kp, 0, 0, 0);
        assert!(proof.verify(&kp.public_params()));
        let sums = vec![summary(&kp, 0, 0, 10, &[]), summary(&kp, 1, 10, 20, &[])];
        assert!(matches!(
            check_vacancy(proof.ts, &sums, 10, 21),
            Freshness::FreshWithin(_)
        ));
    }

    #[test]
    fn vacancy_invalidated_by_any_later_marking() {
        let kp = keypair();
        // Table emptied at ts 5 (deletions marked in period (0, 10]); an
        // insert in (10, 20] contradicts the vacancy claim.
        let sums = vec![summary(&kp, 0, 0, 10, &[3]), summary(&kp, 1, 10, 20, &[0])];
        assert_eq!(
            check_vacancy(5, &sums, 10, 21),
            Freshness::Stale { exposed_by: 1 }
        );
        // Own-period markings (the deletions that emptied the table) are
        // not a contradiction.
        let benign = vec![summary(&kp, 0, 0, 10, &[3]), summary(&kp, 1, 10, 20, &[])];
        assert!(matches!(
            check_vacancy(5, &benign, 10, 21),
            Freshness::FreshWithin(_)
        ));
    }

    #[test]
    fn checkpoint_signature_binds_every_field() {
        let kp = keypair();
        let c = SummaryCheckpoint::create(&kp, 2, 1, 7, 80, &[0, 31, 0, 56]);
        assert!(c.verify(&kp.public_params()));
        assert_eq!(c.signed_message().len(), 101);
        for tamper in [
            |c: &mut SummaryCheckpoint| c.epoch += 1,
            |c: &mut SummaryCheckpoint| c.shard += 1,
            |c: &mut SummaryCheckpoint| c.through_seq += 1,
            |c: &mut SummaryCheckpoint| c.through_ts += 1,
            |c: &mut SummaryCheckpoint| c.exposure.len += 1,
            |c: &mut SummaryCheckpoint| c.exposure.max -= 1,
            |c: &mut SummaryCheckpoint| c.exposure.max_rid -= 1,
            |c: &mut SummaryCheckpoint| c.exposure.root[31] ^= 1,
            // The entries are bound through the root, not the signature.
            |c: &mut SummaryCheckpoint| c.exposure.chunks[0].1[1] = 0,
            |c: &mut SummaryCheckpoint| c.exposure.chunks.push((1, [9; EXPOSURE_CHUNK])),
        ] {
            let mut forged = c.clone();
            tamper(&mut forged);
            assert!(!forged.verify(&kp.public_params()));
        }
    }

    #[test]
    fn checkpoint_exposure_matches_pass_one_semantics() {
        let kp = keypair();
        // Covered summaries: seq 0 period (0,10] marks rid 1; seq 1 period
        // (10,20] marks rids 1 and 3. Cumulative exposure stores the latest
        // marking period_start + 1.
        let c = SummaryCheckpoint::create(&kp, 0, 0, 1, 20, &[0, 11, 0, 11]);
        // rid 0 never marked: no covered summary can prove it stale.
        assert_eq!(c.exposed_after(0), Ok(None));
        // rid 1 marked last in the period starting at 10: any version with
        // ts <= 10 is stale, a version from ts 11 is not provably so.
        assert_eq!(c.exposed_after(1), Ok(Some(10)));
        // Out-of-range rids read as never marked.
        assert_eq!(c.exposed_after(99), Ok(None));
        // Vacancy invalidation: any marking at all, latest period wins, and
        // the last rid holding it is named.
        assert_eq!(c.exposed_any(), Some(10));
        assert_eq!((c.exposure.max, c.exposure.max_rid), (11, 3));
        let clean = SummaryCheckpoint::create(&kp, 0, 0, 1, 20, &[0, 0]);
        assert_eq!(clean.exposed_any(), None);
        assert_eq!((clean.exposure.max, clean.exposure.max_rid), (0, 0));
    }

    #[test]
    fn checkpoint_anchor_seq_anchors_a_retained_suffix() {
        let kp = keypair();
        // Full log: seqs 0..=3. Compaction cut after seq 1; retained run is
        // seqs 2..=3, whose first period does not cover version_ts = 5.
        let retained = vec![summary(&kp, 2, 20, 30, &[]), summary(&kp, 3, 30, 40, &[])];
        // Without an anchor the suffix reads as prefix withholding.
        assert_eq!(
            check_freshness(7, 5, &retained, 10, 42),
            Freshness::Indeterminate
        );
        // With the checkpoint anchor (through_seq 1 → anchor 2) it decides.
        let decoded = DecodedSummaries::new(&retained);
        assert!(matches!(
            decoded.check_freshness(7, 5, 10, 42, 2),
            Freshness::FreshWithin(_)
        ));
        // A run starting past the anchor is still a gap.
        assert_eq!(
            DecodedSummaries::new(&retained[1..]).check_freshness(7, 5, 10, 42, 2),
            Freshness::Indeterminate
        );
        // Vacancy gets the same anchoring.
        assert!(matches!(
            decoded.check_vacancy(5, 10, 42, 2),
            Freshness::FreshWithin(_)
        ));
        assert_eq!(
            check_vacancy(5, &retained, 10, 42),
            Freshness::Indeterminate
        );
    }

    #[test]
    fn deleted_record_detected_via_marking() {
        let kp = keypair();
        // Deletion sets the bit in the deletion period; serving the old
        // version afterwards is stale.
        let sums = vec![
            summary(&kp, 0, 0, 10, &[]),
            summary(&kp, 1, 10, 20, &[42]), // deletion of rid 42
        ];
        let f = check_freshness(42, 5, &sums, 10, 25);
        assert_eq!(f, Freshness::Stale { exposed_by: 1 });
    }
}
