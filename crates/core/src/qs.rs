//! The Query Server (QS): the untrusted proof-constructing server.
//!
//! [`QueryServer`] is one shard's proof-constructing **engine**; the server
//! a deployment runs is
//! [`ShardedQueryServer`](crate::shard::ShardedQueryServer), which holds one
//! engine per shard of the certified map (one, for the paper's single
//! relation image) and fans queries out to them.
//!
//! The QS maintains a replica of the database and authentication structure,
//! applies [`UpdateMsg`]s pushed by the DA (fresh data is disseminated
//! immediately, decoupled from summaries — Section 3.1), stores the
//! certified summaries, and answers queries with verification objects:
//!
//! * **selection** (Section 3.3): matching records, one aggregate signature,
//!   two boundary key values — VO size independent of selectivity;
//! * **projection** (Section 3.4): projected values plus one aggregate of
//!   the relevant attribute signatures;
//! * empty answers carry a **gap proof**: one chained signature bracketing
//!   the queried range.
//!
//! The server's [`PublicParams`] replica shares the DA public key's
//! prepared pairing lines with every other holder of the params (the
//! preparation travels inside the key by `Arc`), so any server-side
//! signature checks and all client verifications of this server's answers
//! run against an already-warm pairing cache.
//!
//! A selection's aggregate is the plain fold over the matched records'
//! signatures, one aggregation per record. The paper's Section 4
//! aggregate-signature cache is reproduced as an analysis and cost model
//! in `authdb_paper::sigcache`, not on this path: the whole server-side shard
//! selection is about 44 µs of a ≈ 3.3 ms live BAS range answer, so a
//! cache could save only a few ECC additions per answer.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use authdb_crypto::signer::{PublicParams, Signature};
use authdb_index::btree::NoAnnotation;
use authdb_index::{BTree, LeafEntry, RangeEvent};
use authdb_storage::{BufferPool, Disk, HeapFile, IoStats, PoolStats};

use crate::da::{Bootstrap, SigningMode, UpdateKind, UpdateMsg, KEY_RID_INDEX};
use crate::freshness::{EmptyTableProof, ExposureTree, SummaryCheckpoint, UpdateSummary};
use crate::record::{Record, Schema, Tick};
use crate::shard::ShardScope;

/// Why the server could not construct an answer. Unlike a verification
/// failure this is the server's *own* refusal — a mis-issued query must
/// surface to the caller (and, in a sharded fan-out, propagate out of the
/// routing layer) instead of aborting the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The query requires a signing mode the server was not built with
    /// (range selections need [`SigningMode::Chained`], projections need
    /// [`SigningMode::PerAttribute`]).
    WrongSigningMode {
        /// The mode the query needs.
        required: SigningMode,
        /// The mode the server runs in.
        actual: SigningMode,
    },
    /// The operation is not available on this deployment. Three producers:
    /// a multi-shard `ShardedQueryServer::project` (the verifier has no
    /// cross-shard projection stitching), a join whose S side spans more
    /// than one shard (`join::execute_join`), and a `Tagged` request nested
    /// inside another that reaches the network server's dispatch.
    Unsupported,
    /// A projection or join named an attribute index past the schema: the
    /// attribute list is the caller's input, so this is a refusal, not a
    /// panic.
    AttributeOutOfSchema {
        /// The offending attribute index.
        index: usize,
    },
    /// The constructed answer exceeds the wire format's frame cap, so the
    /// server refuses rather than ship a frame every client must reject
    /// (split the query range and retry).
    AnswerTooLarge,
    /// A rebalance package is structurally inconsistent with the server's
    /// current map (wrong plan, wrong epoch, malformed handoff). The
    /// networked server accepts these frames from untrusted peers, so this
    /// is a refusal — applied atomically: a refused package changes
    /// nothing.
    BadRebalance,
    /// A per-shard request named a shard index this deployment does not
    /// have. Shard-addressed requests arrive from untrusted peers (and from
    /// clients pinned to a different epoch's partition), so this is a
    /// refusal, not a panic.
    UnknownShard {
        /// The shard index the request named.
        shard: u64,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::WrongSigningMode { required, actual } => write!(
                f,
                "query requires signing mode {required:?} but the server runs {actual:?}"
            ),
            QueryError::Unsupported => {
                write!(f, "operation not supported by this deployment")
            }
            QueryError::AttributeOutOfSchema { index } => {
                write!(f, "attribute index {index} is outside the schema")
            }
            QueryError::AnswerTooLarge => {
                write!(f, "answer exceeds the wire frame cap; narrow the query")
            }
            QueryError::BadRebalance => {
                write!(f, "rebalance package inconsistent with the current map")
            }
            QueryError::UnknownShard { shard } => {
                write!(f, "no shard {shard} in this deployment")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Proof that no record falls inside a queried range: one record whose
/// chained signature brackets the gap.
///
/// The bracketing record travels **in full** — not just its tuple hash —
/// so the verifier can recompute the hash itself, which binds the record's
/// `rid` and `ts` and lets the gap record go through the same
/// summary-freshness check as returned records. (Shipping only the hash
/// would let a server claim an arbitrary rid/ts for the bracket and dodge
/// staleness detection on deleted or superseded chain records.)
#[derive(Clone, Debug, PartialEq)]
pub struct GapProof {
    /// The bracketing record.
    pub record: Record,
    /// Its left neighbour's indexed value.
    pub left_key: i64,
    /// Its right neighbour's indexed value.
    pub right_key: i64,
    /// Its chained signature.
    pub signature: Signature,
}

impl GapProof {
    /// The bracketing record's own indexed value.
    pub fn own_key(&self, schema: &Schema) -> i64 {
        self.record.key(schema)
    }

    /// The chained message this proof's signature must match.
    pub fn chain_msg(&self, schema: &Schema) -> Vec<u8> {
        self.record
            .chain_message(schema, self.left_key, self.right_key)
    }
}

/// An authenticated selection answer (Section 3.3).
#[derive(Clone, Debug, PartialEq)]
pub struct SelectionAnswer {
    /// Matching records in key order.
    pub records: Vec<Record>,
    /// Aggregate signature over the matching records' chained messages.
    pub agg: Signature,
    /// Indexed value of the record immediately left of the range
    /// ([`crate::record::KEY_NEG_INF`] — or the shard's left seam fence —
    /// when the range extends past the first record).
    pub left_key: i64,
    /// Indexed value of the record immediately right of the range.
    pub right_key: i64,
    /// Present iff `records` is empty and the table is non-empty: the
    /// bracketing proof.
    pub gap: Option<GapProof>,
    /// Present iff the whole relation is empty: the certified vacancy
    /// claim (there is no record to bracket the gap with).
    pub vacancy: Option<EmptyTableProof>,
    /// Certified summaries published since the oldest result record (the
    /// latest summary always rides along so the client can anchor the
    /// 2ρ-recency gate). Shared with the server's summary log by `Arc` —
    /// attaching a summary to an answer never deep-copies it.
    pub summaries: Vec<Arc<UpdateSummary>>,
    /// The DA's latest summary checkpoint, when the log has been compacted.
    /// It certifies the compacted prefix, so the attached summary run may
    /// start at `through_seq + 1` instead of seq 0 — without it the
    /// verifier would read the truncated run as prefix-withholding. Its
    /// exposure is opened for the rids of `records` (or of the gap proof's
    /// record; a vacancy needs none) and for nothing else. Absent on
    /// never-compacted deployments and on inverted-range answers.
    pub checkpoint: Option<SummaryCheckpoint>,
}

impl SelectionAnswer {
    /// VO wire size in bytes: aggregate signature + two boundary keys
    /// (+ gap/vacancy proof), excluding the summaries (amortized per
    /// Section 5.3).
    pub fn vo_size(&self, pp: &PublicParams) -> usize {
        let mut size = pp.wire_len() + 16;
        if let Some(g) = &self.gap {
            // rid + ts + attrs + the two neighbour keys.
            size += 16 + 8 * g.record.attrs.len() + 16;
        }
        if self.vacancy.is_some() {
            size += 8 + pp.wire_len();
        }
        size
    }
}

/// One projected row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProjectedRow {
    /// Record identifier.
    pub rid: u64,
    /// Certification timestamp.
    pub ts: Tick,
    /// `(attribute index, value)` pairs for the projected attributes.
    pub values: Vec<(usize, i64)>,
}

/// An authenticated projection answer (Section 3.4): one aggregate
/// signature regardless of how many attributes were dropped.
#[derive(Clone, Debug, PartialEq)]
pub struct ProjectionAnswer {
    /// Projected rows.
    pub rows: Vec<ProjectedRow>,
    /// Aggregate over the projected attributes' signatures.
    pub agg: Signature,
    /// Certified summaries published since the oldest projected row (the
    /// latest one always included), for the client's freshness check.
    /// Shared with the server's summary log by `Arc`.
    pub summaries: Vec<Arc<UpdateSummary>>,
    /// The DA's latest summary checkpoint, when the log has been compacted
    /// — the anchor for a summary run that no longer reaches back to seq 0,
    /// its exposure opened for the rids of `rows`, exactly as on a
    /// [`SelectionAnswer`].
    pub checkpoint: Option<SummaryCheckpoint>,
}

impl ProjectionAnswer {
    /// VO wire size: exactly one aggregate signature.
    pub fn vo_size(&self, pp: &PublicParams) -> usize {
        pp.wire_len()
    }
}

/// Proof-construction statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QsStats {
    /// Signature aggregation operations performed.
    pub agg_ops: u64,
    /// Queries answered.
    pub queries: u64,
    /// Update messages applied.
    pub updates: u64,
    /// Index reads served by the decoded-node cache (no page decode).
    pub node_cache_hits: u64,
    /// Index reads that had to decode a page.
    pub node_cache_misses: u64,
    /// Decoded nodes evicted from the node cache.
    pub node_cache_evictions: u64,
}

/// The field-wise total: how a sharded deployment, in process or over the
/// wire, turns per-shard counters into one set.
impl std::iter::Sum for QsStats {
    fn sum<I: Iterator<Item = QsStats>>(iter: I) -> Self {
        iter.fold(QsStats::default(), |t, s| QsStats {
            agg_ops: t.agg_ops + s.agg_ops,
            queries: t.queries + s.queries,
            updates: t.updates + s.updates,
            node_cache_hits: t.node_cache_hits + s.node_cache_hits,
            node_cache_misses: t.node_cache_misses + s.node_cache_misses,
            node_cache_evictions: t.node_cache_evictions + s.node_cache_evictions,
        })
    }
}

/// Lock-free proof-construction counters: the live form of [`QsStats`],
/// bumped by concurrent readers without any server lock. Relaxed ordering is
/// deliberate — counters are monotone telemetry for operators and the load
/// policy, never part of a proof, so cross-counter skew of a few events is
/// acceptable and the uncontended-increment cost is what matters.
#[derive(Debug, Default)]
pub(crate) struct StatCounters {
    agg_ops: AtomicU64,
    queries: AtomicU64,
    updates: AtomicU64,
}

impl StatCounters {
    fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// A point-in-time copy for reporting. The node-cache counters live in
    /// the index layer, not here; [`QueryServer::stats`] fills them in.
    fn snapshot(&self) -> QsStats {
        QsStats {
            agg_ops: self.agg_ops.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            node_cache_hits: 0,
            node_cache_misses: 0,
            node_cache_evictions: 0,
        }
    }
}

/// Construction options for every shard replica of a
/// [`ShardedQueryServer`](crate::shard::ShardedQueryServer): the two knobs
/// deployments set differently. The index's decoded-node cache always runs
/// at [`DEFAULT_NODE_CACHE`](authdb_index::DEFAULT_NODE_CACHE) nodes.
#[derive(Clone, Debug)]
pub struct QsOptions {
    /// Buffer-pool pages for each shard replica's storage.
    pub buffer_pages: usize,
    /// B+-tree bulk-load fill factor.
    pub fill: f64,
}

impl Default for QsOptions {
    fn default() -> Self {
        QsOptions {
            buffer_pages: 256,
            fill: 2.0 / 3.0,
        }
    }
}

/// One shard's query-server engine.
pub struct QueryServer {
    pp: PublicParams,
    schema: Schema,
    mode: SigningMode,
    heap: HeapFile,
    /// `⟨key, rid⟩` index over the heap. Figure 2 stores each signature in
    /// its leaf entry; this replica keeps them decoded by rid in `sigs`
    /// instead, so a query never decompresses a G1 point and a same-key
    /// update writes no index page.
    tree: BTree<NoAnnotation>,
    /// Decoded record signatures by rid: the only copy either engine keeps.
    sigs: Vec<Signature>,
    /// Per-attribute signatures by rid (PerAttribute mode).
    attr_sigs: Vec<Vec<Signature>>,
    /// Certified summary log. Each entry is `Arc`-shared with every answer
    /// it is attached to, so `summaries_since` never deep-copies. After a
    /// checkpoint this holds only the retained suffix (`seq > through_seq`).
    summaries: Vec<Arc<UpdateSummary>>,
    /// The DA's latest summary checkpoint: certifies the compacted log
    /// prefix and anchors every answer whose summary run no longer reaches
    /// back to seq 0. Held with its whole exposure map and the hash tree
    /// over it, built once on arrival; an answer gets an opening.
    checkpoint: Option<(SummaryCheckpoint, ExposureTree)>,
    /// Current empty-table proof (present only while the relation is empty).
    vacancy: Option<EmptyTableProof>,
    scope: ShardScope,
    stats: StatCounters,
}

impl QueryServer {
    /// Build one shard's replica from its DA bootstrap snapshot. `scope`
    /// is the shard's scope in the certified map — the same one the
    /// bootstrapping [`DataAggregator`](crate::da::DataAggregator) signed
    /// under.
    pub(crate) fn with_options(
        pp: PublicParams,
        schema: Schema,
        mode: SigningMode,
        boot: &Bootstrap,
        scope: ShardScope,
        opts: &QsOptions,
    ) -> Self {
        let pool = BufferPool::new(Disk::new(), opts.buffer_pages);
        let heap = HeapFile::new(pool.clone(), schema.record_len);
        let mut tree = BTree::new(pool, KEY_RID_INDEX, NoAnnotation);
        for rec in &boot.records {
            let rid = heap.append(&rec.to_bytes(&schema));
            debug_assert_eq!(rid, rec.rid);
        }
        let mut entries: Vec<LeafEntry> = boot
            .records
            .iter()
            .map(|rec| LeafEntry {
                key: rec.key(&schema),
                rid: rec.rid,
                payload: Vec::new(),
            })
            .collect();
        entries.sort_by_key(|e| (e.key, e.rid));
        tree.bulk_load(&entries, opts.fill);
        QueryServer {
            pp,
            schema,
            mode,
            heap,
            tree,
            sigs: boot.sigs.clone(),
            attr_sigs: boot.attr_sigs.clone(),
            summaries: Vec::new(),
            checkpoint: None,
            vacancy: boot.vacancy.clone(),
            scope,
            stats: StatCounters::default(),
        }
    }

    /// Verification parameters.
    pub fn public_params(&self) -> &PublicParams {
        &self.pp
    }

    /// I/O counters of the server's disk.
    pub fn io_stats(&self) -> IoStats {
        self.tree.pool().disk().stats()
    }

    /// Buffer-pool counters of the server's storage (hit-rate diagnostics).
    pub fn pool_stats(&self) -> PoolStats {
        self.tree.pool().stats()
    }

    /// Proof-construction statistics (a point-in-time snapshot of the
    /// lock-free counters — readable while other threads answer queries).
    /// The node-cache counters are sampled from the index's decoded-node
    /// cache at the same instant.
    pub fn stats(&self) -> QsStats {
        let mut s = self.stats.snapshot();
        let nc = self.tree.cache_stats();
        s.node_cache_hits = nc.hits;
        s.node_cache_misses = nc.misses;
        s.node_cache_evictions = nc.evictions;
        s
    }

    /// Stored summaries (diagnostics).
    pub fn summary_count(&self) -> usize {
        self.summaries.len()
    }

    /// Apply an update message from the DA. Only an insert, a delete or a
    /// key move touches the index; a same-key Modify/Recertify is a heap
    /// update plus the new decoded signature.
    pub fn apply(&mut self, msg: &UpdateMsg) {
        StatCounters::bump(&self.stats.updates, 1);
        let rid = msg.record.rid;
        match msg.kind {
            UpdateKind::Insert => {
                // Any insertion supersedes a standing vacancy claim.
                self.vacancy = None;
                let appended = self.heap.append(&msg.record.to_bytes(&self.schema));
                debug_assert_eq!(appended, rid);
                self.sigs.push(msg.signature.clone());
                self.attr_sigs.push(msg.attr_sigs.clone());
                self.tree
                    .insert(msg.record.key(&self.schema), rid, Vec::new());
            }
            UpdateKind::Modify | UpdateKind::Recertify => {
                self.heap.update(rid, &msg.record.to_bytes(&self.schema));
                self.sigs[rid as usize] = msg.signature.clone();
                if !msg.attr_sigs.is_empty() {
                    self.attr_sigs[rid as usize] = msg.attr_sigs.clone();
                }
                if let Some(old_key) = msg.old_key {
                    self.tree.delete(old_key, rid);
                    self.tree
                        .insert(msg.record.key(&self.schema), rid, Vec::new());
                }
            }
            UpdateKind::Delete => {
                let key = msg.record.key(&self.schema);
                self.tree.delete(key, rid);
                self.heap.delete(rid);
                if let Some(v) = &msg.vacancy {
                    // This delete emptied the relation: store the fresh
                    // vacancy certificate the DA minted alongside it.
                    self.vacancy = Some(v.clone());
                }
            }
        }
    }

    /// Apply a batch of update messages in order — what the DA's `insert`,
    /// `update_record`, `delete_record` and renewal calls return.
    pub fn apply_all(&mut self, msgs: &[UpdateMsg]) {
        for m in msgs {
            self.apply(m);
        }
    }

    /// Store a newly published certified summary.
    pub fn add_summary(&mut self, s: UpdateSummary) {
        self.summaries.push(Arc::new(s));
    }

    /// Ingest one closed period as
    /// [`maybe_publish_summary`](crate::da::DataAggregator::maybe_publish_summary)
    /// returns it: store the summary, then apply its re-certifications.
    pub fn ingest(&mut self, (summary, recerts): (UpdateSummary, Vec<UpdateMsg>)) {
        self.add_summary(summary);
        self.apply_all(&recerts);
    }

    /// The stored certified summaries, oldest first.
    pub fn summaries(&self) -> &[Arc<UpdateSummary>] {
        &self.summaries
    }

    /// The DA's latest summary checkpoint, if the log has been compacted,
    /// with its whole exposure map.
    pub fn summary_checkpoint(&self) -> Option<&SummaryCheckpoint> {
        self.checkpoint.as_ref().map(|(ckpt, _)| ckpt)
    }

    /// Adopt a freshly minted DA checkpoint: store it and drop the covered
    /// log prefix (every summary with `seq <= through_seq`). Server memory
    /// for the log is thereafter bounded by the checkpoint interval, not
    /// total history.
    pub fn apply_checkpoint(&mut self, ckpt: SummaryCheckpoint) {
        self.summaries.retain(|s| s.seq > ckpt.through_seq);
        self.set_checkpoint(Some(ckpt));
    }

    /// Swap in the DA's re-bound checkpoint at an epoch transition (or
    /// clear it when the re-bound stream was never compacted).
    pub(crate) fn set_checkpoint(&mut self, ckpt: Option<SummaryCheckpoint>) {
        self.checkpoint = ckpt.map(|c| {
            let tree = ExposureTree::build(&c.exposure.chunks);
            (c, tree)
        });
    }

    /// The checkpoint as an answer returning `rids` carries it.
    fn checkpoint_for(&self, rids: impl IntoIterator<Item = u64>) -> Option<SummaryCheckpoint> {
        let (ckpt, tree) = self.checkpoint.as_ref()?;
        Some(ckpt.opened_for(tree, rids))
    }

    /// The key-range responsibility this replica currently answers for
    /// (epoch-tagged; snapshot readers use it to pin a single epoch).
    pub fn scope(&self) -> ShardScope {
        self.scope
    }

    /// Re-tag this replica's key-range responsibility at an epoch
    /// transition (the fences stay put for survivors; only the bound
    /// `(epoch, shard)` tag changes).
    pub(crate) fn set_scope(&mut self, scope: ShardScope) {
        self.scope = scope;
    }

    /// Swap in the DA's re-bound summary stream at an epoch transition.
    /// Entries arrive already `Arc`'d straight from the DA's log — a
    /// handoff moves pointers, never summary bytes.
    pub(crate) fn replace_summaries(&mut self, summaries: Vec<Arc<UpdateSummary>>) {
        self.summaries = summaries;
    }

    /// Swap in the DA's re-bound standing vacancy proof (or clear it).
    pub(crate) fn set_vacancy(&mut self, vacancy: Option<EmptyTableProof>) {
        self.vacancy = vacancy;
    }

    /// Pre-decode the whole index into the decoded-node cache (bounded by
    /// its capacity), then zero the cache counters so the warming pass does
    /// not distort hit-rate telemetry. A rebalance successor is built from
    /// freshly written pages, so the donor's decoded-node cache cannot
    /// transfer — without this its first query sweep pays a full decode
    /// per node.
    pub(crate) fn warm_node_cache(&self) {
        self.tree.warm_node_cache();
        self.tree.reset_cache_stats();
    }

    fn read_record(&self, rid: u64) -> Record {
        // Decode straight out of the buffer-pool frame — no intermediate
        // byte-vector copy per record.
        self.heap
            .read_with(rid, |bytes| Record::from_bytes(&self.schema, bytes))
            .expect("indexed record exists")
    }

    /// Summaries published at or after `since`, always including the latest
    /// one: the client needs it to anchor the 2ρ-recency gate even when
    /// every result record postdates the last published summary. Clones are
    /// `Arc` bumps, never summary deep-copies.
    fn summaries_since(&self, since: Tick) -> Vec<Arc<UpdateSummary>> {
        let mut out: Vec<Arc<UpdateSummary>> = self
            .summaries
            .iter()
            .filter(|s| s.ts >= since)
            .cloned()
            .collect();
        if out.is_empty() {
            if let Some(last) = self.summaries.last() {
                out.push(last.clone());
            }
        }
        out
    }

    /// Answer a range selection `lo <= Aind <= hi` (Section 3.3), or
    /// [`QueryError::WrongSigningMode`] if the server cannot build chained
    /// completeness proofs.
    ///
    /// An inverted range (`lo > hi`) matches no key by definition, so the
    /// canonical answer is empty with the identity aggregate and **no**
    /// gap or vacancy proof — emptiness is vacuous, nothing needs to be
    /// certified, and the verifier accepts exactly this form.
    pub fn select_range(&self, lo: i64, hi: i64) -> Result<SelectionAnswer, QueryError> {
        if self.mode != SigningMode::Chained {
            return Err(QueryError::WrongSigningMode {
                required: SigningMode::Chained,
                actual: self.mode,
            });
        }
        StatCounters::bump(&self.stats.queries, 1);
        if lo > hi {
            return Ok(SelectionAnswer {
                records: Vec::new(),
                agg: self.pp.identity(),
                left_key: self.scope.left_fence,
                right_key: self.scope.right_fence,
                gap: None,
                vacancy: None,
                summaries: Vec::new(),
                checkpoint: None,
            });
        }
        // Walk the range once through the visitor API: matching records are
        // decoded straight out of the borrowed leaf nodes — no intermediate
        // `Vec<LeafEntry>` with per-entry payload clones is ever built.
        let mut records: Vec<Record> = Vec::new();
        let mut left_bound: Option<(i64, u64)> = None;
        let mut right_bound: Option<(i64, u64)> = None;
        self.tree.for_each_in_range(lo, hi, |ev| match ev {
            RangeEvent::LeftBoundary(e) => left_bound = Some((e.key, e.rid)),
            RangeEvent::Match(e) => records.push(self.read_record(e.rid)),
            RangeEvent::RightBoundary(e) => right_bound = Some((e.key, e.rid)),
        });
        let left_key = left_bound.map(|(k, _)| k).unwrap_or(self.scope.left_fence);
        let right_key = right_bound
            .map(|(k, _)| k)
            .unwrap_or(self.scope.right_fence);

        if records.is_empty() {
            // Empty answer: ship the bracketing record's chain, or — when
            // the whole relation is empty — the certified vacancy claim.
            let bracket = left_bound.or(right_bound);
            let gap = bracket.map(|(bkey, brid)| {
                let rec = self.read_record(brid);
                let (l, r) = self.neighbor_keys_of(bkey, brid);
                GapProof {
                    record: rec,
                    left_key: l,
                    right_key: r,
                    signature: self.sigs[brid as usize].clone(),
                }
            });
            let vacancy = if gap.is_none() {
                self.vacancy.clone()
            } else {
                None
            };
            // Trim to the window the verifier needs: from the proof
            // version's own period onward. When the log has been compacted,
            // a gap or vacancy older than the checkpoint would otherwise get
            // a window starting mid-history that the verifier reads as
            // prefix-withholding — the checkpoint rides along as the
            // certified anchor for the missing prefix.
            let summaries = match (&gap, &vacancy) {
                (Some(g), _) => self.summaries_since(g.record.ts),
                (None, Some(v)) => self.summaries_since(v.ts),
                (None, None) => Vec::new(),
            };
            return Ok(SelectionAnswer {
                records: Vec::new(),
                agg: self.pp.identity(),
                left_key,
                right_key,
                summaries,
                checkpoint: self.checkpoint_for(gap.iter().map(|g| g.record.rid)),
                gap,
                vacancy,
            });
        }

        let agg = self.aggregate_records(&records);
        let oldest = records.iter().map(|r| r.ts).min().unwrap_or(0);
        Ok(SelectionAnswer {
            checkpoint: self.checkpoint_for(records.iter().map(|r| r.rid)),
            records,
            agg,
            left_key,
            right_key,
            gap: None,
            vacancy: None,
            summaries: self.summaries_since(oldest),
        })
    }

    /// Aggregate the matched records' signatures: one fold per record, run
    /// lock-free over their rids.
    fn aggregate_records(&self, records: &[Record]) -> Signature {
        let mut agg = self.pp.identity();
        for r in records {
            agg = self.pp.aggregate(&agg, &self.sigs[r.rid as usize]);
        }
        StatCounters::bump(&self.stats.agg_ops, records.len() as u64);
        agg
    }

    /// Neighbour keys of an index position (seam fences at the extremes),
    /// via the same shared helper the DA signs with.
    fn neighbor_keys_of(&self, key: i64, rid: u64) -> (i64, i64) {
        self.scope.neighbor_keys_in(&self.tree.range(key, key), rid)
    }

    /// Answer a projection `π_{attrs}(σ_{lo..hi}(R))` (Section 3.4): rows
    /// carry only the projected attributes; the VO is a single aggregate of
    /// the corresponding attribute signatures. Returns
    /// [`QueryError::WrongSigningMode`] unless the server runs in
    /// [`SigningMode::PerAttribute`].
    pub fn project(
        &self,
        lo: i64,
        hi: i64,
        attrs: &[usize],
    ) -> Result<ProjectionAnswer, QueryError> {
        if self.mode != SigningMode::PerAttribute {
            return Err(QueryError::WrongSigningMode {
                required: SigningMode::PerAttribute,
                actual: self.mode,
            });
        }
        if let Some(&index) = attrs.iter().find(|&&i| i >= self.schema.num_attrs) {
            return Err(QueryError::AttributeOutOfSchema { index });
        }
        StatCounters::bump(&self.stats.queries, 1);
        // Single borrowed walk over the range: rows and the attribute
        // aggregate are built directly from the cached leaf nodes.
        let mut rows = Vec::new();
        let mut agg = self.pp.identity();
        let mut agg_ops = 0u64;
        self.tree.for_each_in_range(lo, hi, |ev| {
            if let RangeEvent::Match(e) = ev {
                let rec = self.read_record(e.rid);
                let values: Vec<(usize, i64)> = attrs.iter().map(|&i| (i, rec.attrs[i])).collect();
                for &i in attrs {
                    agg = self.pp.aggregate(&agg, &self.attr_sigs[e.rid as usize][i]);
                    agg_ops += 1;
                }
                rows.push(ProjectedRow {
                    rid: rec.rid,
                    ts: rec.ts,
                    values,
                });
            }
        });
        StatCounters::bump(&self.stats.agg_ops, agg_ops);
        let oldest = rows.iter().map(|r| r.ts).min().unwrap_or(0);
        Ok(ProjectionAnswer {
            checkpoint: self.checkpoint_for(rows.iter().map(|r| r.rid)),
            rows,
            agg,
            summaries: self.summaries_since(oldest),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::da::{DaConfig, DataAggregator};
    use crate::freshness::EXPOSURE_CHUNK;
    use crate::record::{KEY_NEG_INF, KEY_POS_INF};
    use crate::shard::ShardMap;
    use authdb_crypto::signer::Keypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(mode: SigningMode) -> DaConfig {
        DaConfig {
            mode,
            ..DaConfig::small()
        }
    }

    /// A one-shard engine pair (epoch 1, fenced at ±∞) over `n` records
    /// with keys `i·10`, the replica built with default options.
    fn system(n: i64, mode: SigningMode) -> (DataAggregator, QueryServer) {
        let cfg = cfg(mode);
        let keypair = Keypair::generate(cfg.scheme, &mut StdRng::seed_from_u64(11));
        let scope = ShardMap::create(&keypair, vec![]).scope(0);
        let mut da = DataAggregator::new(cfg, keypair, scope);
        let boot = da.bootstrap((0..n).map(|i| vec![i * 10, i]).collect(), 2);
        let qs = QueryServer::with_options(
            da.public_params(),
            da.config().schema,
            mode,
            &boot,
            scope,
            &QsOptions::default(),
        );
        (da, qs)
    }

    #[test]
    fn selection_answer_contains_expected_records() {
        let (_, qs) = system(100, SigningMode::Chained);
        let ans = qs.select_range(200, 300).unwrap();
        let keys: Vec<i64> = ans.records.iter().map(|r| r.attrs[0]).collect();
        assert_eq!(keys, (20..=30).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(ans.left_key, 190);
        assert_eq!(ans.right_key, 310);
        assert!(ans.gap.is_none());
    }

    #[test]
    fn vo_size_independent_of_selectivity() {
        let (_, qs) = system(1000, SigningMode::Chained);
        let pp = qs.public_params().clone();
        let small = qs.select_range(0, 90).unwrap();
        let large = qs.select_range(0, 9000).unwrap();
        assert!(large.records.len() > 10 * small.records.len());
        assert_eq!(small.vo_size(&pp), large.vo_size(&pp));
    }

    #[test]
    fn empty_answer_has_gap_proof() {
        let (_, qs) = system(100, SigningMode::Chained);
        let ans = qs.select_range(201, 209).unwrap(); // keys are multiples of 10
        assert!(ans.records.is_empty());
        let gap = ans.gap.expect("gap proof");
        assert_eq!(gap.own_key(&Schema::new(2, 64)), 200);
        assert_eq!(gap.right_key, 210);
        assert!(ans.vacancy.is_none());
    }

    #[test]
    fn empty_table_answer_carries_vacancy_proof() {
        let (_, qs) = system(0, SigningMode::Chained);
        let ans = qs.select_range(0, 100).unwrap();
        assert!(ans.records.is_empty());
        assert!(ans.gap.is_none());
        let vac = ans.vacancy.expect("empty-table proof");
        assert!(vac.verify(qs.public_params()));
        assert_eq!(ans.left_key, KEY_NEG_INF);
        assert_eq!(ans.right_key, KEY_POS_INF);
    }

    #[test]
    fn vacancy_proof_tracks_delete_and_insert_transitions() {
        let (mut da, mut qs) = system(1, SigningMode::Chained);
        assert!(qs.select_range(0, 100).unwrap().vacancy.is_none());
        da.advance_clock(3);
        qs.apply_all(&da.delete_record(0));
        let ans = qs.select_range(0, 100).unwrap();
        assert!(ans.gap.is_none());
        let vac = ans.vacancy.expect("delete emptied the table");
        assert_eq!(vac.ts, 3);
        da.advance_clock(1);
        qs.apply_all(&da.insert(vec![55, 9]));
        assert!(qs.select_range(200, 300).unwrap().vacancy.is_none());
        assert!(qs.select_range(200, 300).unwrap().gap.is_some());
    }

    #[test]
    fn updates_flow_to_answers() {
        let (mut da, mut qs) = system(50, SigningMode::Chained);
        da.advance_clock(5);
        qs.apply_all(&da.update_record(25, vec![250, 4242]));
        let ans = qs.select_range(250, 250).unwrap();
        assert_eq!(ans.records.len(), 1);
        assert_eq!(ans.records[0].attrs[1], 4242);
        assert_eq!(ans.records[0].ts, 5);
    }

    #[test]
    fn inserts_and_deletes_flow() {
        let (mut da, mut qs) = system(50, SigningMode::Chained);
        da.advance_clock(1);
        qs.apply_all(&da.insert(vec![255, 1]));
        let ans = qs.select_range(255, 255).unwrap();
        assert_eq!(ans.records.len(), 1);
        qs.apply_all(&da.delete_record(ans.records[0].rid));
        let ans = qs.select_range(255, 255).unwrap();
        assert!(ans.records.is_empty());
    }

    #[test]
    fn summaries_attached_since_oldest_record() {
        let (mut da, mut qs) = system(20, SigningMode::Chained);
        da.advance_clock(15);
        qs.ingest(da.maybe_publish_summary().unwrap());
        da.advance_clock(3);
        qs.apply_all(&da.update_record(5, vec![50, 9]));
        da.advance_clock(10);
        qs.ingest(da.maybe_publish_summary().unwrap());
        let ans = qs.select_range(0, 1000).unwrap();
        // Oldest record ts = 0, so both summaries attach.
        assert_eq!(ans.summaries.len(), 2);
    }

    #[test]
    fn projection_carries_one_signature() {
        let (_, qs) = system(30, SigningMode::PerAttribute);
        let pp = qs.public_params().clone();
        let ans = qs.project(0, 100, &[1]).unwrap();
        assert_eq!(ans.rows.len(), 11);
        assert!(ans.rows.iter().all(|r| r.values.len() == 1));
        assert_eq!(ans.vo_size(&pp), pp.wire_len());
    }

    #[test]
    fn wrong_mode_is_a_typed_error_not_a_panic() {
        let (_, qs) = system(10, SigningMode::PerAttribute);
        assert_eq!(
            qs.select_range(0, 100).unwrap_err(),
            QueryError::WrongSigningMode {
                required: SigningMode::Chained,
                actual: SigningMode::PerAttribute,
            }
        );
        let (_, qs) = system(10, SigningMode::Chained);
        assert_eq!(
            qs.project(0, 100, &[1]).unwrap_err(),
            QueryError::WrongSigningMode {
                required: SigningMode::PerAttribute,
                actual: SigningMode::Chained,
            }
        );
    }

    #[test]
    fn inverted_range_is_the_canonical_empty_answer() {
        let (_, qs) = system(50, SigningMode::Chained);
        let ans = qs.select_range(300, 200).unwrap();
        assert!(ans.records.is_empty());
        assert!(ans.gap.is_none() && ans.vacancy.is_none());
        assert!(ans.summaries.is_empty());
        assert_eq!(ans.agg, qs.public_params().identity());
        // Extreme inversion behaves identically.
        let ans = qs.select_range(i64::MAX, i64::MIN).unwrap();
        assert!(ans.records.is_empty() && ans.gap.is_none());
    }

    #[test]
    fn stats_surface_node_cache_counters() {
        let (_, qs) = system(2000, SigningMode::Chained);
        // First scan warms the decoded-node cache; the repeat scan must be
        // answered from it without decoding a single page.
        let _ = qs.select_range(0, 5000).unwrap();
        let after_first = qs.stats();
        let _ = qs.select_range(0, 5000).unwrap();
        let s = qs.stats();
        assert!(s.node_cache_hits > after_first.node_cache_hits, "{s:?}");
        assert_eq!(
            s.node_cache_misses, after_first.node_cache_misses,
            "repeat scan must not decode: {s:?}"
        );

        // A selection costs exactly one aggregation per returned record:
        // a non-empty range folds each match once, and neither a gap
        // answer nor an inverted range aggregates anything.
        for ((lo, hi), want) in [((200, 300), 11), ((201, 209), 0), ((300, 200), 0)] {
            let before = qs.stats().agg_ops;
            let ans = qs.select_range(lo, hi).unwrap();
            assert_eq!(ans.records.len(), want, "range {lo}..{hi}");
            assert_eq!(qs.stats().agg_ops - before, want as u64, "range {lo}..{hi}");
        }
    }

    /// A same-key update re-signs a record without moving it, so it must
    /// leave the index alone: a warm selection re-runs without decoding a
    /// page after its record is modified.
    #[test]
    fn same_key_update_keeps_the_node_cache_warm() {
        let (mut da, mut qs) = system(2000, SigningMode::Chained);
        let _ = qs.select_range(200, 300).unwrap();
        let warm = qs.stats();
        da.advance_clock(1);
        let msgs = da.update_record(25, vec![250, 4242]);
        assert_eq!(msgs.len(), 1);
        assert_eq!((msgs[0].kind, msgs[0].old_key), (UpdateKind::Modify, None));
        qs.apply_all(&msgs);
        let ans = qs.select_range(200, 300).unwrap();
        assert_eq!(ans.records[5].attrs, [250, 4242]);
        assert_eq!(
            qs.stats().node_cache_misses,
            warm.node_cache_misses,
            "a same-key update evicted an index node"
        );
    }

    /// A gap record older than the checkpoint cut would get a summary
    /// window starting mid-history — unreadable without the certified
    /// anchor. The answer must ship the checkpoint alongside the retained
    /// run (and the retained run must start exactly at the cut).
    #[test]
    fn gap_before_checkpoint_ships_the_checkpoint_anchor() {
        let (mut da, mut qs) = system(100, SigningMode::Chained);
        for _ in 0..3 {
            da.advance_clock(10);
            qs.ingest(da.maybe_publish_summary().unwrap());
        }
        let ckpt = da.checkpoint_summaries(1).expect("prefix to compact");
        qs.apply_checkpoint(ckpt.clone());
        // Keys are multiples of 10, so this range is empty; the bracketing
        // record was certified at bootstrap (ts 0), before the cut.
        let ans = qs.select_range(201, 209).unwrap();
        let gap = ans.gap.expect("gap proof");
        assert!(gap.record.ts <= ckpt.through_ts);
        // The DA's checkpoint, opened for the bracketing record alone.
        let anchor = ans.checkpoint.expect("anchor attached");
        assert_eq!(anchor.signed_message(), ckpt.signed_message());
        assert_eq!(anchor.signature, ckpt.signature);
        let opened: Vec<u64> = anchor.exposure.chunks.iter().map(|c| c.0).collect();
        assert_eq!(opened, [gap.record.rid / EXPOSURE_CHUNK as u64]);
        assert!(anchor.verify(&da.public_params()));
        assert!(ans.summaries.iter().all(|s| s.seq > ckpt.through_seq));
        assert_eq!(
            ans.summaries.first().map(|s| s.seq),
            Some(ckpt.through_seq + 1),
            "retained run must start exactly at the cut"
        );
        // The canonical inverted-range answer certifies nothing, so it
        // never carries the checkpoint either.
        assert!(qs.select_range(300, 200).unwrap().checkpoint.is_none());
    }

    /// Same for a standing vacancy proof minted before the cut.
    #[test]
    fn vacancy_before_checkpoint_ships_the_checkpoint_anchor() {
        let (mut da, mut qs) = system(1, SigningMode::Chained);
        da.advance_clock(3);
        qs.apply_all(&da.delete_record(0));
        for _ in 0..3 {
            da.advance_clock(10);
            qs.ingest(da.maybe_publish_summary().unwrap());
        }
        let ckpt = da.checkpoint_summaries(1).expect("prefix to compact");
        qs.apply_checkpoint(ckpt.clone());
        let ans = qs.select_range(0, 100).unwrap();
        let vac = ans.vacancy.expect("vacancy proof");
        assert!(vac.ts <= ckpt.through_ts);
        // A vacancy is judged by the signed maximum: nothing is opened.
        let anchor = ans.checkpoint.expect("anchor attached");
        assert_eq!(anchor.signed_message(), ckpt.signed_message());
        assert_eq!(anchor.signature, ckpt.signature);
        assert!(anchor.exposure.chunks.is_empty() && anchor.exposure.siblings.is_empty());
        assert!(ans.summaries.iter().all(|s| s.seq > ckpt.through_seq));
    }

    #[test]
    fn key_change_moves_record_in_index() {
        let (mut da, mut qs) = system(50, SigningMode::Chained);
        da.advance_clock(1);
        qs.apply_all(&da.update_record(10, vec![455, 10]));
        assert!(qs.select_range(100, 100).unwrap().records.is_empty());
        let ans = qs.select_range(455, 455).unwrap();
        assert_eq!(ans.records.len(), 1);
        assert_eq!(ans.records[0].rid, 10);
    }
}
