//! The Data Aggregator (DA): the trusted signer of Section 3.1.
//!
//! [`DataAggregator`] is one shard's signing **engine**; a deployment is
//! minted by [`ShardedAggregator`](crate::shard::ShardedAggregator), which
//! builds one engine per shard of its certified map (a one-shard map for
//! the paper's single relation image) and routes updates to them.
//!
//! The DA owns the database of record: a heap file of serialized records and
//! a plain B+-tree of `⟨key, rid⟩` entries that orders the chain. Unlike
//! Figure 2's `⟨key, sn, rid⟩` leaves, no signature is stored here: each
//! one ships in its [`UpdateMsg`] and the query server keeps it decoded by
//! rid, so a query never decompresses a G1 point. Every certification signs
//! the record content together with its timestamp and chains it to the
//! left/right neighbours' indexed-attribute values (Section 3.3), so
//! inserts and deletes re-certify up to two neighbours while plain value
//! updates touch exactly one signature — the concurrency advantage over
//! the MHT that the whole paper builds on.
//!
//! Freshness machinery: per-period update marking, certified bitmap
//! summaries every ρ ticks, the multiple-update re-certification rule, and
//! active signature renewal (piggybacked on page fetches and via a
//! background cursor, Section 3.1).
//!
//! # Checkpointing the summary log
//!
//! The log of published summaries grows without bound, and the verifier's
//! anchored-run rule forces servers to retain (and epoch transitions to
//! re-sign) all of it. [`DataAggregator::checkpoint_summaries`] collapses a
//! log prefix into one signed
//! [`SummaryCheckpoint`] and drops the
//! covered entries. The checkpoint is sound because it commits to the
//! prefix's cumulative exposure map — per rid, the latest covered period
//! start whose summary marked it — which is *exactly* what pass-1 staleness
//! extracts from the prefix: a compacted prefix cannot hide a staleness
//! marking, because the marking survives inside the committed map. The DA
//! keeps the map cumulative across successive checkpoints — its one copy is
//! the whole-map exposure of the checkpoint it holds — so each new
//! checkpoint again covers the complete prefix from seq 0 and a retained
//! run starting at `through_seq + 1` stays anchored. After a checkpoint,
//! [`DataAggregator::retag`] re-signs only the retained suffix plus the
//! checkpoint's 101-byte message over the root it already has —
//! epoch-transition cost is bounded by the checkpoint interval, not total
//! history or shard size.

use std::collections::HashMap;
use std::sync::Arc;

use authdb_crypto::signer::{Keypair, PublicParams, SchemeKind, Signature};
use authdb_filters::bitmap::Bitmap;
use authdb_index::btree::{BTree, LeafEntry, NoAnnotation, TreeConfig};
use authdb_storage::{BufferPool, Disk, HeapFile};

use crate::freshness::{EmptyTableProof, SummaryCheckpoint, UpdateSummary};
use crate::record::{Record, Schema, Tick, KEY_NEG_INF, KEY_POS_INF};
use crate::shard::ShardScope;

/// The engines' index layout: `⟨key, rid⟩` leaves with no payload over
/// plain internal nodes (shared with the query server's replica).
pub(crate) const KEY_RID_INDEX: TreeConfig = TreeConfig {
    payload_len: 0,
    ann_len: 0,
};

/// What the per-record signature binds (Section 3.2: "what exactly sn is
/// computed on depends on the operations we want to support"). Serving
/// deployments chain, always; the §3.4 per-attribute mode is reproduced
/// in process by `authdb_paper::projection`. This one-variant enum and
/// [`DaConfig::mode`] survive only because the pinned benchmark harness
/// names them in its `DaConfig` literal; nothing reads them, and the
/// benchmark change that un-pins that literal (ROADMAP 6(g)) deletes both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SigningMode {
    /// Chained messages for selection completeness (Section 3.3).
    Chained,
}

/// DA configuration.
#[derive(Clone, Debug)]
pub struct DaConfig {
    /// Relation schema.
    pub schema: Schema,
    /// Signature scheme.
    pub scheme: SchemeKind,
    /// Signing mode: always [`SigningMode::Chained`], read by nothing (see
    /// [`SigningMode`]).
    pub mode: SigningMode,
    /// Summary publication period ρ (ticks).
    pub rho: Tick,
    /// Signature renewal age ρ′ (ticks).
    pub rho_prime: Tick,
    /// Buffer-pool pages for the DA's own storage.
    pub buffer_pages: usize,
    /// B+-tree bulk-load fill factor.
    pub fill: f64,
}

impl DaConfig {
    /// The paper's Table 2 defaults: 512-byte records with 4 attributes,
    /// BAS signatures, ρ = 1 s, ρ′ = 900 s (1 tick = 1 s).
    pub fn paper_defaults() -> Self {
        DaConfig {
            schema: Schema::new(4, 512),
            scheme: SchemeKind::Bas,
            mode: SigningMode::Chained,
            rho: 1,
            rho_prime: 900,
            buffer_pages: 4096,
            fill: 2.0 / 3.0,
        }
    }

    /// A small relation for tests, scenarios and benches: 64-byte records
    /// with 2 attributes, Mock signatures, ρ = 10,
    /// ρ′ = 10 000, a 256-page pool. Deviate by struct update:
    /// `DaConfig { scheme, ..DaConfig::small() }`.
    // authdb-lint: allow(serving-surface): the one test relation, read by this crate's unit tests, `authdb-testkit`, `authdb-paper`'s tests and the figure benches
    pub fn small() -> Self {
        DaConfig {
            schema: Schema::new(2, 64),
            scheme: SchemeKind::Mock,
            mode: SigningMode::Chained,
            rho: 10,
            rho_prime: 10_000,
            buffer_pages: 256,
            fill: 2.0 / 3.0,
        }
    }
}

/// Kind of change an [`UpdateMsg`] carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateKind {
    /// A new record.
    Insert,
    /// New content (and always a new ts) for an existing record.
    Modify,
    /// Record removal (the message carries the final content).
    Delete,
    /// Unchanged content re-signed with a fresh ts (neighbour re-chaining
    /// or active renewal).
    Recertify,
}

/// A certified change pushed from the DA to the query server immediately
/// (decoupled from summary publication).
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateMsg {
    /// What happened.
    pub kind: UpdateKind,
    /// The record's (new) content.
    pub record: Record,
    /// Signature over the record's signing message.
    pub signature: Signature,
    /// The record's previous key if the indexed attribute changed.
    pub old_key: Option<i64>,
    /// Fresh empty-table proof, present only on a delete that emptied the
    /// relation.
    pub vacancy: Option<EmptyTableProof>,
}

/// Initial database snapshot shipped to a query server.
pub struct Bootstrap {
    /// Records in rid order.
    pub records: Vec<Record>,
    /// Record signatures in rid order.
    pub sigs: Vec<Signature>,
    /// Empty-table proof when the bootstrap holds zero records.
    pub vacancy: Option<EmptyTableProof>,
}

/// One shard's Data Aggregator engine.
pub struct DataAggregator {
    cfg: DaConfig,
    keypair: Keypair,
    heap: HeapFile,
    /// `⟨key, rid⟩` index: the chain order neighbours are signed in.
    tree: BTree<NoAnnotation>,
    /// Last certification tick per rid.
    cert_ts: Vec<Tick>,
    clock: Tick,
    period_start: Tick,
    next_seq: u64,
    /// rid -> number of updates in the current period.
    current_updates: HashMap<u64, u32>,
    /// rids to re-certify right after the next summary (multi-update rule).
    recert_next: Vec<u64>,
    /// Every retained (post-checkpoint) summary, oldest first. Kept so an
    /// epoch transition can re-bind the stream to a new (epoch, shard) tag
    /// ([`DataAggregator::retag`]) without the query server's copy. `Arc`d
    /// so retag re-signs in place and hand-off is pointer work, never a
    /// per-entry deep copy.
    summary_log: Vec<Arc<UpdateSummary>>,
    /// The checkpoint covering the compacted prefix, if any. Its whole-map
    /// exposure is the cumulative map over every *compacted* summary,
    /// carried across checkpoints so each new one covers the complete
    /// prefix from seq 0.
    checkpoint: Option<SummaryCheckpoint>,
    /// Background renewal scan position.
    renewal_cursor: u64,
    /// Standing empty-table proof (present only while the table is empty).
    empty_proof: Option<EmptyTableProof>,
    /// Key-range responsibility: the chain sentinels this aggregator signs
    /// at its extremes, and the shard tag bound into summaries and vacancy
    /// proofs.
    scope: ShardScope,
}

impl DataAggregator {
    /// Create the empty engine for one shard of a certified map: chained
    /// signatures terminate at the scope's fences (±∞ for a one-shard
    /// map), and summaries/vacancy proofs carry its `(epoch, shard)` tag.
    pub(crate) fn new(cfg: DaConfig, keypair: Keypair, scope: ShardScope) -> Self {
        let disk = Disk::new();
        let pool = BufferPool::new(disk, cfg.buffer_pages);
        let heap = HeapFile::new(pool.clone(), cfg.schema.record_len);
        let tree = BTree::new(pool, KEY_RID_INDEX, NoAnnotation);
        DataAggregator {
            cfg,
            keypair,
            heap,
            tree,
            cert_ts: Vec::new(),
            clock: 0,
            period_start: 0,
            next_seq: 0,
            current_updates: HashMap::new(),
            recert_next: Vec::new(),
            summary_log: Vec::new(),
            checkpoint: None,
            renewal_cursor: 0,
            empty_proof: None,
            scope,
        }
    }

    /// The key-range responsibility this aggregator certifies.
    pub fn scope(&self) -> ShardScope {
        self.scope
    }

    /// Verification parameters for distribution to servers and users.
    pub fn public_params(&self) -> PublicParams {
        self.keypair.public_params()
    }

    /// The configuration.
    pub fn config(&self) -> &DaConfig {
        &self.cfg
    }

    /// Current logical time.
    pub fn now(&self) -> Tick {
        self.clock
    }

    /// Advance the logical clock.
    pub fn advance_clock(&mut self, dt: Tick) {
        self.clock += dt;
    }

    /// Certification timestamp for post-bootstrap signings: strictly inside
    /// the current period (never equal to a period boundary), which is what
    /// lets the freshness check attribute boundary-stamped versions
    /// unambiguously. Bootstrap stamps are pre-period and use the raw clock.
    fn cert_clock(&self) -> Tick {
        self.clock.max(self.period_start + 1)
    }

    /// Number of records ever created (bitmap width).
    pub fn record_slots(&self) -> u64 {
        self.heap.len()
    }

    /// Number of live records.
    pub fn live_records(&self) -> u64 {
        self.heap.live_count()
    }

    /// Read a record.
    pub fn record(&self, rid: u64) -> Option<Record> {
        self.heap
            .read(rid)
            .map(|bytes| Record::from_bytes(&self.cfg.schema, &bytes))
    }

    /// The sentinel values `i64::MIN`/`i64::MAX` are reserved as the ±∞
    /// chain terminators: a record carrying one as its indexed key would be
    /// indistinguishable from a boundary sentinel (and unreachable through
    /// a sharded fan-out, whose sub-ranges exclude the sentinels), so the
    /// trusted side refuses to certify it.
    fn check_key_certifiable(&self, key: i64) {
        assert!(
            key > KEY_NEG_INF && key < KEY_POS_INF,
            "indexed key {key} collides with a chain sentinel"
        );
    }

    /// Records whose indexed attribute falls in `lo..=hi` (DA-side query,
    /// used for partition rebuilds and diagnostics).
    pub fn query_range(&self, lo: i64, hi: i64) -> Vec<Record> {
        self.tree
            .range(lo, hi)
            .matches
            .iter()
            .filter_map(|e| self.record(e.rid))
            .collect()
    }

    /// Every live record's attribute row, in `(key, rid)` index order —
    /// the order an epoch transition hands records off in (and the order
    /// the successor shard's bootstrap assigns fresh rids by).
    pub fn live_rows(&self) -> Vec<Vec<i64>> {
        self.tree
            .range(KEY_NEG_INF, KEY_POS_INF)
            .matches
            .iter()
            .filter_map(|e| self.record(e.rid).map(|r| r.attrs))
            .collect()
    }

    /// Bootstrap this (empty, freshly scoped) aggregator as the successor
    /// of a rebalanced shard: certify `rows` under the new fences, then
    /// open the summary stream with a seq-0 **baseline** whose bitmap is
    /// all-ones over `max(mark_width, new slot count)` rids.
    ///
    /// The wide all-ones baseline is the cross-epoch staleness gate: a
    /// pre-transition version — any rid of the donor shard(s), certified
    /// strictly before this tick — is marked by a summary whose period
    /// started at or after its timestamp and is therefore provably
    /// [`Stale`](crate::freshness::Freshness::Stale) under the new stream,
    /// even though donor and successor rid spaces do not line up. The
    /// handoff's own re-certifications are stamped *inside* the baseline
    /// period (the transition occupies its own tick), so the marking reads
    /// as their own version and honest answers stay fresh.
    ///
    /// # Panics
    /// Panics if the aggregator already holds records, or at clock 0 (the
    /// caller must advance the clock to the transition tick first).
    pub fn handoff_bootstrap(
        &mut self,
        rows: Vec<Vec<i64>>,
        mark_width: u64,
        jobs: usize,
    ) -> (Bootstrap, UpdateSummary) {
        assert!(self.clock >= 1, "epoch transitions occupy their own tick");
        assert!(self.heap.is_empty(), "handoff into a non-empty aggregator");
        // Back-date the period start one tick so the bootstrap stamps
        // (ts = clock) sit strictly inside the baseline period while every
        // pre-transition stamp (<= clock - 1) strictly predates it.
        self.period_start = self.clock - 1;
        let boot = self.bootstrap(rows, jobs);
        let width = mark_width.max(self.heap.len()) as usize;
        let mut bitmap = Bitmap::new(width);
        for i in 0..width {
            bitmap.set(i);
        }
        let baseline = UpdateSummary::create(
            &self.keypair,
            self.scope.epoch,
            self.scope.shard,
            self.next_seq,
            self.period_start,
            self.clock,
            &bitmap,
        );
        self.summary_log.push(Arc::new(baseline.clone()));
        self.next_seq += 1;
        self.period_start = self.clock;
        self.current_updates.clear();
        (boot, baseline)
    }

    /// Re-bind this shard's freshness artifacts to a new `(epoch, shard)`
    /// tag at an epoch transition: every retained summary, the summary
    /// checkpoint (if any), and the standing vacancy proof (if any) are
    /// re-signed under the new tag. The chains and records are untouched —
    /// the fences must not move — so the cost is one signature per
    /// *retained* summary plus one for the checkpoint (over its 101-byte
    /// message: the exposure's root does not change with the tag, so
    /// nothing is re-hashed): bounded by the checkpoint interval, not total
    /// history. Summaries are re-signed in
    /// place through their `Arc`s and handed off as pointer clones — no
    /// per-entry reallocation when the DA is the sole owner.
    ///
    /// # Panics
    /// Panics if the new scope's fences differ from the current ones.
    pub fn retag(
        &mut self,
        scope: ShardScope,
    ) -> (
        Vec<Arc<UpdateSummary>>,
        Option<SummaryCheckpoint>,
        Option<EmptyTableProof>,
    ) {
        assert_eq!(
            (self.scope.left_fence, self.scope.right_fence),
            (scope.left_fence, scope.right_fence),
            "retag must not move fences"
        );
        self.scope = scope;
        for arc in &mut self.summary_log {
            let s = Arc::make_mut(arc);
            s.epoch = scope.epoch;
            s.shard = scope.shard;
            s.signature = self.keypair.sign(&UpdateSummary::message(
                s.epoch,
                s.shard,
                s.seq,
                s.period_start,
                s.ts,
                &s.compressed,
            ));
        }
        if let Some(c) = &mut self.checkpoint {
            c.epoch = scope.epoch;
            c.shard = scope.shard;
            c.signature = self.keypair.sign(&c.signed_message());
        }
        if let Some(p) = &mut self.empty_proof {
            *p = EmptyTableProof::create(&self.keypair, scope.epoch, scope.shard, p.ts);
        }
        (
            self.summary_log.clone(),
            self.checkpoint.clone(),
            self.empty_proof.clone(),
        )
    }

    /// Collapse all but the newest `keep` retained summaries into a signed
    /// [`SummaryCheckpoint`] and drop them from the log. The exposure map
    /// stays cumulative across successive checkpoints, so the returned
    /// checkpoint always covers the complete prefix `0..=through_seq`.
    /// Returns `None` when fewer than `keep + 1` summaries are retained
    /// (nothing to compact). Keeping at least one summary preserves the
    /// `summaries_since` latest-summary fallback for recency checks.
    pub fn checkpoint_summaries(&mut self, keep: usize) -> Option<SummaryCheckpoint> {
        if self.summary_log.len() <= keep {
            return None;
        }
        let cut = self.summary_log.len() - keep;
        let mut through = (0, 0);
        let held = self.checkpoint.take();
        let mut map = held.map_or_else(Vec::new, |c| c.exposure.into_map());
        for s in self.summary_log.drain(..cut) {
            if let Some(bm) = s.bitmap() {
                if bm.len() > map.len() {
                    map.resize(bm.len(), 0);
                }
                for rid in bm.iter_ones() {
                    map[rid] = map[rid].max(s.period_start + 1);
                }
            }
            through = (s.seq, s.ts);
        }
        let ckpt = SummaryCheckpoint::create(
            &self.keypair,
            self.scope.epoch,
            self.scope.shard,
            through.0,
            through.1,
            &map,
        );
        self.checkpoint = Some(ckpt.clone());
        Some(ckpt)
    }

    /// The checkpoint covering the compacted summary-log prefix, if any.
    pub fn summary_checkpoint(&self) -> Option<&SummaryCheckpoint> {
        self.checkpoint.as_ref()
    }

    /// The retained (post-checkpoint) summary log, oldest first.
    // authdb-lint: allow(serving-surface): read by `authdb_paper::projection` (its answers' summaries) and by `checkpoint_equivalence`'s DA-side memory bound
    pub fn summary_log(&self) -> &[Arc<UpdateSummary>] {
        &self.summary_log
    }

    // -- signing ----------------------------------------------------------

    fn sign_record(&self, record: &Record, left_key: i64, right_key: i64) -> Signature {
        self.keypair
            .sign(&record.chain_message(&self.cfg.schema, left_key, right_key))
    }

    /// Neighbour keys of position `(key, rid)` in the index. At the shard's
    /// extremes the neighbour is the scope's seam fence (±∞ for one shard),
    /// so the chain certifies exactly — and only — this shard's key range.
    fn neighbor_keys(&self, key: i64, rid: u64) -> (i64, i64) {
        self.scope.neighbor_keys_in(&self.tree.range(key, key), rid)
    }

    /// Neighbour entries (full) of position `(key, rid)`.
    fn neighbor_entries(&self, key: i64, rid: u64) -> (Option<LeafEntry>, Option<LeafEntry>) {
        let scan = self.tree.range(key, key);
        let pos = scan
            .matches
            .iter()
            .position(|e| e.rid == rid)
            .expect("entry present");
        let left = if pos > 0 {
            Some(scan.matches[pos - 1].clone())
        } else {
            scan.left_boundary.clone()
        };
        let right = if pos + 1 < scan.matches.len() {
            Some(scan.matches[pos + 1].clone())
        } else {
            scan.right_boundary.clone()
        };
        (left, right)
    }

    // -- bootstrap --------------------------------------------------------

    /// Load and certify the initial database (one row of attribute values
    /// per record). Signing is parallelized across `jobs` threads.
    ///
    /// # Panics
    /// Panics if the DA already holds records, or if a row's indexed key is
    /// one of the reserved ±∞ sentinels.
    pub fn bootstrap(&mut self, rows: Vec<Vec<i64>>, jobs: usize) -> Bootstrap {
        assert!(self.heap.is_empty(), "bootstrap on a non-empty DA");
        for row in &rows {
            self.check_key_certifiable(row[self.cfg.schema.indexed_attr]);
        }
        let ts = self.clock;
        let schema = self.cfg.schema;
        let records: Vec<Record> = rows
            .into_iter()
            .enumerate()
            .map(|(i, attrs)| {
                assert_eq!(attrs.len(), schema.num_attrs, "row arity");
                Record {
                    rid: i as u64,
                    attrs,
                    ts,
                }
            })
            .collect();

        // Order by (key, rid) for chaining.
        let mut order: Vec<usize> = (0..records.len()).collect();
        order.sort_by_key(|&i| (records[i].key(&schema), records[i].rid));

        // Sign in parallel: chunk the sorted sequence; neighbours are known
        // from the ordering.
        let n = order.len();
        let jobs = jobs.max(1).min(n.max(1));
        let mut sigs_by_rid: Vec<Option<Signature>> = vec![None; n];
        if n > 0 {
            let chunks: Vec<(usize, usize)> = {
                let per = n.div_ceil(jobs);
                (0..jobs)
                    .map(|j| (j * per, ((j + 1) * per).min(n)))
                    .filter(|(a, b)| a < b)
                    .collect()
            };
            let results: Vec<Vec<(usize, Signature)>> = std::thread::scope(|s| {
                let handles: Vec<_> = chunks
                    .iter()
                    .map(|&(a, b)| {
                        let order = &order;
                        let records = &records;
                        let this = &*self;
                        s.spawn(move || {
                            let mut out = Vec::with_capacity(b - a);
                            for sorted_pos in a..b {
                                let idx = order[sorted_pos];
                                let rec = &records[idx];
                                let left = if sorted_pos > 0 {
                                    records[order[sorted_pos - 1]].key(&schema)
                                } else {
                                    this.scope.left_fence
                                };
                                let right = if sorted_pos + 1 < n {
                                    records[order[sorted_pos + 1]].key(&schema)
                                } else {
                                    this.scope.right_fence
                                };
                                out.push((idx, this.sign_record(rec, left, right)));
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("signer thread"))
                    .collect()
            });
            for chunk in results {
                for (idx, sig) in chunk {
                    sigs_by_rid[idx] = Some(sig);
                }
            }
        }
        let sigs: Vec<Signature> = sigs_by_rid
            .into_iter()
            .map(|s| s.expect("signed"))
            .collect();

        // Materialize storage.
        for rec in &records {
            let rid = self.heap.append(&rec.to_bytes(&schema));
            debug_assert_eq!(rid, rec.rid);
        }
        let entries: Vec<LeafEntry> = order
            .iter()
            .map(|&i| LeafEntry {
                key: records[i].key(&schema),
                rid: records[i].rid,
                payload: Vec::new(),
            })
            .collect();
        self.tree.bulk_load(&entries, self.cfg.fill);
        self.cert_ts = vec![ts; n];
        // A bootstrap of zero records still needs an authenticated answer
        // for every query: certify the vacancy.
        let vacancy = if records.is_empty() {
            let proof =
                EmptyTableProof::create(&self.keypair, self.scope.epoch, self.scope.shard, ts);
            self.empty_proof = Some(proof.clone());
            Some(proof)
        } else {
            None
        };

        Bootstrap {
            records,
            sigs,
            vacancy,
        }
    }

    // -- online updates ---------------------------------------------------

    fn mark_updated(&mut self, rid: u64) {
        *self.current_updates.entry(rid).or_insert(0) += 1;
    }

    fn certify(&mut self, record: &Record, kind: UpdateKind) -> UpdateMsg {
        let (left, right) = self.neighbor_keys(record.key(&self.cfg.schema), record.rid);
        let sig = self.sign_record(record, left, right);
        self.cert_ts[record.rid as usize] = record.ts;
        self.mark_updated(record.rid);
        UpdateMsg {
            kind,
            record: record.clone(),
            signature: sig,
            old_key: None,
            vacancy: None,
        }
    }

    /// Re-certify an existing record with a fresh timestamp (content kept).
    fn recertify(&mut self, rid: u64) -> Option<UpdateMsg> {
        let mut rec = self.record(rid)?;
        rec.ts = self.cert_clock();
        self.heap.update(rid, &rec.to_bytes(&self.cfg.schema));
        Some(self.certify(&rec, UpdateKind::Recertify))
    }

    /// Insert a new record; returns the messages to forward to the QS
    /// (the new record plus its re-chained neighbours).
    ///
    /// # Panics
    /// Panics if the indexed key is one of the reserved ±∞ sentinels.
    pub fn insert(&mut self, attrs: Vec<i64>) -> Vec<UpdateMsg> {
        let schema = self.cfg.schema;
        self.check_key_certifiable(attrs[schema.indexed_attr]);
        let record = Record {
            rid: self.heap.len(),
            attrs,
            ts: self.cert_clock(),
        };
        let rid = self.heap.append(&record.to_bytes(&schema));
        debug_assert_eq!(rid, record.rid);
        // The relation is no longer empty.
        self.empty_proof = None;
        self.cert_ts.push(self.clock);
        // Index the record first so neighbour search sees it.
        let key = record.key(&schema);
        self.tree.insert(key, rid, Vec::new());
        let mut msgs = vec![self.certify(&record, UpdateKind::Insert)];
        let (left, right) = self.neighbor_entries(key, rid);
        for e in [left, right].into_iter().flatten() {
            if let Some(m) = self.recertify(e.rid) {
                msgs.push(m);
            }
        }
        msgs
    }

    /// Update a record's attribute values (ts always refreshed).
    ///
    /// # Panics
    /// Panics if the new indexed key is one of the reserved ±∞ sentinels.
    pub fn update_record(&mut self, rid: u64, attrs: Vec<i64>) -> Vec<UpdateMsg> {
        let schema = self.cfg.schema;
        self.check_key_certifiable(attrs[schema.indexed_attr]);
        let Some(old) = self.record(rid) else {
            return Vec::new();
        };
        let old_key = old.key(&schema);
        let record = Record {
            rid,
            attrs,
            ts: self.cert_clock(),
        };
        let new_key = record.key(&schema);
        self.heap.update(rid, &record.to_bytes(&schema));
        if old_key == new_key {
            let mut msgs = vec![self.certify(&record, UpdateKind::Modify)];
            // Piggyback renewal on the fetched block (Section 3.1).
            msgs.extend(self.piggyback_renewal(rid));
            return msgs;
        }
        // Key change: reposition in the index = delete + insert, re-chaining
        // both old and new neighbourhoods.
        let (old_left, old_right) = self.neighbor_entries(old_key, rid);
        self.tree.delete(old_key, rid);
        self.tree.insert(new_key, rid, Vec::new());
        let mut msgs = Vec::new();
        let mut main = self.certify(&record, UpdateKind::Modify);
        main.old_key = Some(old_key);
        msgs.push(main);
        let mut to_recert: Vec<u64> = Vec::new();
        for e in [old_left, old_right].into_iter().flatten() {
            to_recert.push(e.rid);
        }
        let (new_left, new_right) = self.neighbor_entries(new_key, rid);
        for e in [new_left, new_right].into_iter().flatten() {
            to_recert.push(e.rid);
        }
        to_recert.sort_unstable();
        to_recert.dedup();
        for r in to_recert {
            if r != rid {
                if let Some(m) = self.recertify(r) {
                    msgs.push(m);
                }
            }
        }
        msgs
    }

    /// Delete a record.
    pub fn delete_record(&mut self, rid: u64) -> Vec<UpdateMsg> {
        let schema = self.cfg.schema;
        let Some(record) = self.record(rid) else {
            return Vec::new();
        };
        let key = record.key(&schema);
        let (left, right) = self.neighbor_entries(key, rid);
        self.tree.delete(key, rid);
        self.heap.delete(rid);
        self.mark_updated(rid);
        // If this delete emptied the relation, certify the vacancy so
        // servers can keep answering with an authenticated proof.
        let vacancy = if self.heap.live_count() == 0 {
            let proof = EmptyTableProof::create(
                &self.keypair,
                self.scope.epoch,
                self.scope.shard,
                self.cert_clock(),
            );
            self.empty_proof = Some(proof.clone());
            Some(proof)
        } else {
            None
        };
        let mut msgs = vec![UpdateMsg {
            kind: UpdateKind::Delete,
            record,
            signature: self.keypair.public_params().identity(),
            old_key: None,
            vacancy,
        }];
        for e in [left, right].into_iter().flatten() {
            if let Some(m) = self.recertify(e.rid) {
                msgs.push(m);
            }
        }
        msgs
    }

    // -- freshness --------------------------------------------------------

    /// Piggybacked renewal: re-certify page-mates older than ρ′.
    fn piggyback_renewal(&mut self, rid: u64) -> Vec<UpdateMsg> {
        let mut out = Vec::new();
        for other in self.heap.rids_on_same_page(rid) {
            if other != rid
                && self.clock.saturating_sub(self.cert_ts[other as usize]) >= self.cfg.rho_prime
            {
                if let Some(m) = self.recertify(other) {
                    out.push(m);
                }
            }
        }
        out
    }

    /// Background renewal: scan up to `budget` records from the cursor,
    /// re-certifying those older than ρ′ (Section 3.1's low-priority
    /// process).
    pub fn background_renewal(&mut self, budget: usize) -> Vec<UpdateMsg> {
        let n = self.heap.len();
        if n == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for _ in 0..budget {
            let rid = self.renewal_cursor % n;
            self.renewal_cursor = (self.renewal_cursor + 1) % n;
            if self.heap.exists(rid)
                && self.clock.saturating_sub(self.cert_ts[rid as usize]) >= self.cfg.rho_prime
            {
                if let Some(m) = self.recertify(rid) {
                    out.push(m);
                }
            }
        }
        out
    }

    /// Publish the period summary if ρ has elapsed. Also re-certifies
    /// records updated more than once in the closed period (the 2ρ rule),
    /// returning those messages for immediate dissemination.
    pub fn maybe_publish_summary(&mut self) -> Option<(UpdateSummary, Vec<UpdateMsg>)> {
        if self.clock < self.period_start + self.cfg.rho {
            return None;
        }
        Some(self.force_publish_summary())
    }

    /// Close the current period unconditionally and publish its summary.
    fn force_publish_summary(&mut self) -> (UpdateSummary, Vec<UpdateMsg>) {
        let mut bitmap = Bitmap::new(self.heap.len() as usize);
        let mut multi: Vec<u64> = Vec::new();
        for (&rid, &count) in &self.current_updates {
            bitmap.set(rid as usize);
            if count > 1 {
                multi.push(rid);
            }
        }
        let summary = UpdateSummary::create(
            &self.keypair,
            self.scope.epoch,
            self.scope.shard,
            self.next_seq,
            self.period_start,
            self.clock,
            &bitmap,
        );
        self.summary_log.push(Arc::new(summary.clone()));
        self.next_seq += 1;
        self.period_start = self.clock;
        self.current_updates.clear();
        // Re-certify the carried-over multi-update records in the new period
        // so all prior versions are invalidated by the *next* summary.
        let mut pending = std::mem::take(&mut self.recert_next);
        pending.extend(multi.iter().copied());
        let mut msgs = Vec::new();
        for rid in pending {
            if self.heap.exists(rid) {
                if let Some(m) = self.recertify(rid) {
                    msgs.push(m);
                }
            }
        }
        (summary, msgs)
    }

    /// Signature age statistics (diagnostics for Figure 8): average and max
    /// age over live records.
    pub fn signature_age_stats(&self) -> (f64, Tick) {
        let mut sum = 0u128;
        let mut max = 0;
        let mut n = 0u64;
        for rid in 0..self.heap.len() {
            if self.heap.exists(rid) {
                let age = self.clock.saturating_sub(self.cert_ts[rid as usize]);
                sum += age as u128;
                max = max.max(age);
                n += 1;
            }
        }
        if n == 0 {
            (0.0, 0)
        } else {
            (sum as f64 / n as f64, max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cfg() -> DaConfig {
        DaConfig {
            rho_prime: 100,
            ..DaConfig::small()
        }
    }

    /// An empty one-shard engine: epoch 1, fenced at ±∞.
    fn engine(cfg: DaConfig, seed: u64) -> DataAggregator {
        let keypair = Keypair::generate(cfg.scheme, &mut StdRng::seed_from_u64(seed));
        let scope = crate::shard::ShardMap::create(&keypair, vec![]).scope(0);
        DataAggregator::new(cfg, keypair, scope)
    }

    fn da_with(n: i64) -> DataAggregator {
        let mut da = engine(small_cfg(), 5);
        let rows: Vec<Vec<i64>> = (0..n).map(|i| vec![i * 10, i]).collect();
        da.bootstrap(rows, 2);
        da
    }

    #[test]
    fn bootstrap_signs_all_records() {
        let mut da = engine(small_cfg(), 5);
        let boot = da.bootstrap((0..100).map(|i| vec![i * 10, i]).collect(), 2);
        assert_eq!(da.live_records(), 100);
        assert_eq!(boot.sigs.len(), 100);
        let pp = da.public_params();
        // Every record's chained signature binds its neighbours' keys; the
        // edge records chain to the sentinels.
        for (rec, sig) in boot.records.iter().zip(&boot.sigs) {
            let i = rec.rid as i64;
            let left = if i == 0 { KEY_NEG_INF } else { (i - 1) * 10 };
            let right = if i == 99 { KEY_POS_INF } else { (i + 1) * 10 };
            assert_eq!(da.record(rec.rid).as_ref(), Some(rec));
            assert!(pp.verify(&rec.chain_message(&da.cfg.schema, left, right), sig));
        }
    }

    #[test]
    fn value_update_touches_one_signature() {
        let mut da = da_with(50);
        da.advance_clock(1);
        let msgs = da.update_record(25, vec![250, 999]);
        // Same key: exactly one certification (plus any piggyback renewals,
        // none here since ages are fresh).
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].kind, UpdateKind::Modify);
        assert_eq!(msgs[0].record.ts, 1);
    }

    #[test]
    fn insert_recertifies_neighbors() {
        let mut da = da_with(50);
        da.advance_clock(1);
        let msgs = da.insert(vec![255, 7]); // lands between keys 250 and 260
        let kinds: Vec<UpdateKind> = msgs.iter().map(|m| m.kind).collect();
        assert_eq!(kinds[0], UpdateKind::Insert);
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == UpdateKind::Recertify)
                .count(),
            2,
            "both neighbours re-chained"
        );
        // New record verifies against its neighbours.
        let pp = da.public_params();
        let rec = &msgs[0].record;
        assert!(pp.verify(
            &rec.chain_message(&da.cfg.schema, 250, 260),
            &msgs[0].signature
        ));
    }

    #[test]
    fn delete_recertifies_neighbors() {
        let mut da = da_with(50);
        da.advance_clock(1);
        let msgs = da.delete_record(25);
        assert_eq!(msgs[0].kind, UpdateKind::Delete);
        assert_eq!(msgs.len(), 3, "delete + two neighbour re-chains");
        // Left neighbour now chains directly to the right one.
        let pp = da.public_params();
        let left = msgs.iter().find(|m| m.record.rid == 24).unwrap();
        assert!(pp.verify(
            &left.record.chain_message(&da.cfg.schema, 230, 260),
            &left.signature
        ));
        assert!(da.record(25).is_none());
    }

    #[test]
    fn key_change_rechains_both_neighborhoods() {
        let mut da = da_with(50);
        da.advance_clock(1);
        // Move record 10 (key 100) to key 455.
        let msgs = da.update_record(10, vec![455, 10]);
        assert!(msgs[0].old_key == Some(100));
        // Affected: the mover + old neighbours (90, 110) + new (450, 460).
        let rids: Vec<u64> = msgs.iter().map(|m| m.record.rid).collect();
        assert!(rids.contains(&9) && rids.contains(&11));
        assert!(rids.contains(&45) && rids.contains(&46));
    }

    #[test]
    fn summary_marks_updates_and_clears() {
        let mut da = da_with(20);
        da.advance_clock(5);
        da.update_record(3, vec![30, 99]);
        da.advance_clock(5);
        let (summary, recerts) = da.maybe_publish_summary().expect("period elapsed");
        assert!(recerts.is_empty());
        let bm = summary.bitmap().unwrap();
        assert!(bm.get(3));
        assert!(!bm.get(4));
        assert!(summary.verify(&da.public_params()));
        // Second period with no updates: empty bitmap.
        da.advance_clock(10);
        let (s2, _) = da.maybe_publish_summary().unwrap();
        assert_eq!(s2.bitmap().unwrap().ones(), 0);
        assert_eq!(s2.seq, 1);
    }

    #[test]
    fn multi_update_in_period_recertified_next_period() {
        let mut da = da_with(20);
        da.advance_clock(2);
        da.update_record(5, vec![50, 1]);
        da.advance_clock(2);
        da.update_record(5, vec![50, 2]);
        da.advance_clock(6);
        let (_, recerts) = da.maybe_publish_summary().unwrap();
        assert_eq!(recerts.len(), 1);
        assert_eq!(recerts[0].record.rid, 5);
        assert_eq!(recerts[0].kind, UpdateKind::Recertify);
        // The re-certification is marked in the *next* period's bitmap.
        da.advance_clock(10);
        let (s2, _) = da.maybe_publish_summary().unwrap();
        assert!(s2.bitmap().unwrap().get(5));
    }

    #[test]
    fn background_renewal_refreshes_old_signatures() {
        let mut da = da_with(30);
        da.advance_clock(500); // everything is now way past rho_prime=100
        let msgs = da.background_renewal(10);
        assert_eq!(msgs.len(), 10);
        assert!(msgs.iter().all(|m| m.kind == UpdateKind::Recertify));
        assert!(msgs.iter().all(|m| m.record.ts == 500));
        // Scanning further continues from the cursor.
        let more = da.background_renewal(30);
        assert_eq!(more.len(), 20, "only 20 stale records remain");
    }

    #[test]
    fn piggyback_renewal_on_update() {
        let mut da = da_with(30);
        da.advance_clock(500);
        let msgs = da.update_record(8, vec![80, 42]);
        // Heap page of rid 8 (64-byte records, 64/page) holds all 30 records:
        // the modify plus 29 page-mate renewals.
        assert_eq!(msgs.len(), 30);
        assert_eq!(
            msgs.iter()
                .filter(|m| m.kind == UpdateKind::Recertify)
                .count(),
            29
        );
    }

    #[test]
    fn signature_age_tracks_renewals() {
        let mut da = da_with(10);
        da.advance_clock(50);
        let (avg, max) = da.signature_age_stats();
        assert_eq!(avg, 50.0);
        assert_eq!(max, 50);
        da.background_renewal(0); // no budget, no change
        da.update_record(0, vec![0, 1]);
        let (avg2, _) = da.signature_age_stats();
        assert!(avg2 < 50.0);
    }

    #[test]
    fn checkpoint_compacts_log_and_accumulates_exposure() {
        let mut da = da_with(20);
        // Period 1: update rid 3; period 2: update rids 3 and 7.
        da.advance_clock(10);
        da.update_record(3, vec![30, 1]);
        da.force_publish_summary();
        da.advance_clock(10);
        da.update_record(3, vec![30, 2]);
        da.update_record(7, vec![70, 2]);
        da.force_publish_summary();
        da.advance_clock(10);
        da.force_publish_summary();
        assert_eq!(da.summary_log().len(), 3);

        // First checkpoint covers seqs 0..=1, keeps the newest summary.
        let c1 = da.checkpoint_summaries(1).expect("two summaries covered");
        assert!(c1.verify(&da.public_params()));
        assert_eq!(c1.through_seq, 1);
        assert_eq!(da.summary_log().len(), 1);
        assert_eq!(da.summary_log()[0].seq, 2);
        // rid 3 marked last in the period starting at 10; rid 7 likewise;
        // rid 4 never marked.
        assert_eq!(c1.exposed_after(3), Ok(Some(10)));
        assert_eq!(c1.exposed_after(7), Ok(Some(10)));
        assert_eq!(c1.exposed_after(4), Ok(None));

        // Nothing left to compact below the keep floor.
        assert!(da.checkpoint_summaries(1).is_none());

        // Another period, then a second checkpoint: exposure accumulates
        // (still covers the complete prefix from seq 0).
        da.advance_clock(10);
        da.update_record(4, vec![40, 9]);
        da.force_publish_summary();
        let c2 = da.checkpoint_summaries(1).expect("seq 2 covered");
        assert_eq!(c2.through_seq, 2);
        assert_eq!(
            c2.exposed_after(3),
            Ok(Some(10)),
            "carried across checkpoints"
        );
        assert_eq!(c2.exposed_after(4), Ok(None), "rid 4 marked only in seq 3");
        assert_eq!(da.summary_log()[0].seq, 3);
    }

    #[test]
    fn retag_reuses_log_allocations_and_resigns_checkpoint() {
        let mut da = da_with(10);
        for _ in 0..4 {
            da.advance_clock(10);
            da.update_record(1, vec![10, 1]);
            da.force_publish_summary();
        }
        let minted = da.checkpoint_summaries(2).expect("compacted");
        let before: Vec<*const UpdateSummary> = da.summary_log().iter().map(Arc::as_ptr).collect();
        let scope = ShardScope {
            epoch: 2,
            shard: 0,
            ..da.scope()
        };
        let (summaries, ckpt, _) = da.retag(scope);
        // Regression: retag must re-sign in place — the handed-off Arcs are
        // the same allocations the log held before, not per-entry copies.
        let after: Vec<*const UpdateSummary> = summaries.iter().map(Arc::as_ptr).collect();
        assert_eq!(before, after, "retag reallocated log entries");
        let pp = da.public_params();
        for s in &summaries {
            assert_eq!((s.epoch, s.shard), (2, 0));
            assert!(s.verify(&pp));
        }
        let ckpt = ckpt.expect("checkpoint retagged");
        assert_eq!((ckpt.epoch, ckpt.shard), (2, 0));
        assert!(ckpt.verify(&pp));
        // Same map under the new tag: the commitment is kept, not rebuilt.
        assert_eq!(ckpt.exposure, minted.exposure);
        assert_eq!(da.summary_checkpoint(), Some(&ckpt));
    }

    #[test]
    #[should_panic(expected = "chain sentinel")]
    fn sentinel_key_refused_at_insert() {
        let mut da = da_with(5);
        da.insert(vec![KEY_POS_INF, 1]);
    }

    #[test]
    #[should_panic(expected = "chain sentinel")]
    fn sentinel_key_refused_at_bootstrap() {
        let mut da = engine(small_cfg(), 5);
        da.bootstrap(vec![vec![KEY_NEG_INF, 0]], 1);
    }
}
