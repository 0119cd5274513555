//! Authenticated equi-join `σ(R) ⋈_{R.A=S.B} S` (Section 3.5).
//!
//! Matched `R` records are handled as selections `σ_{B=r.A}(S)` — each
//! distinct value contributes a *run* of matching `S` records chained like
//! any selection answer. For unmatched values two mechanisms prove absence:
//!
//! * **BV** (the prior art of \[24\]): ship the chained boundary record whose
//!   signature brackets the value — expensive when most values are
//!   unmatched (formula 2);
//! * **BF** (this paper): ship the certified, *partitioned* Bloom filters
//!   probed by unmatched values; filter negatives need no further proof,
//!   false positives fall back to a boundary record (formula 3).
//!
//! The R side is an ordinary fanned-out selection (R may span any number of
//! shards); the S side is probed value by value and its proofs are not
//! stitched across seams, so S must be a one-shard relation
//! ([`JoinRefusal::MultiShardS`] otherwise).
//!
//! The join is an in-process, one-shard reproduction of §3.5 over the
//! serving crates' public selection, record and verifier APIs: no wire
//! request carries it.
//!
//! The [`viability`] module carries the analysis behind Figure 4.

use std::collections::BTreeMap;
use std::fmt;

use authdb_core::qs::GapProof;
use authdb_core::record::{Record, Schema, Tick};
use authdb_core::shard::{ShardedAggregator, ShardedQueryServer, ShardedSelectionAnswer};
use authdb_core::verify::{EpochView, Verifier, VerifyError};
use authdb_crypto::signer::{PublicParams, Signature};

use crate::bloom::BloomFilter;
use crate::partitioned::{PartitionedFilters, Probe};

/// Why [`execute_join`] refuses to build an answer: the join's inputs are
/// the caller's, so a mis-issued join is a refusal, not a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinRefusal {
    /// S spans more than one shard: its point probes are not stitched
    /// across seams.
    MultiShardS,
    /// `attr_a` is not an attribute of R's records.
    AttributeOutOfSchema {
        /// The offending attribute index.
        index: usize,
    },
}

impl fmt::Display for JoinRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinRefusal::MultiShardS => write!(f, "the join's S side must be one shard"),
            JoinRefusal::AttributeOutOfSchema { index } => {
                write!(f, "attribute index {index} is outside R's schema")
            }
        }
    }
}

impl std::error::Error for JoinRefusal {}

/// Which absence-proof mechanism the server uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinMethod {
    /// Boundary values for every unmatched record (prior art).
    BoundaryValues,
    /// Certified partitioned Bloom filters (this paper).
    BloomFilter,
}

/// A run of S records matching one distinct `R.A` value.
#[derive(Clone, Debug)]
pub struct MatchRun {
    /// The joined value (`r.A == s.B`).
    pub value: i64,
    /// Matching S records.
    pub records: Vec<Record>,
    /// S.B value immediately left of the run.
    pub left_key: i64,
    /// S.B value immediately right of the run.
    pub right_key: i64,
}

/// How one unmatched value's absence is proven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbsenceProof {
    /// `gap_pool[idx]` brackets the value (BV, or BF false positive).
    Boundary {
        /// Index into [`JoinAnswer::gap_pool`].
        idx: usize,
    },
    /// `partitions[idx]`'s filter answers negative for the value.
    FilterNegative {
        /// Index into [`JoinAnswer::partitions`].
        idx: usize,
    },
}

/// A partition filter shipped in the VO, with its certified range.
#[derive(Clone, Debug)]
pub struct ShippedPartition {
    /// Partition ordinal in the publisher's filter set.
    pub ordinal: usize,
    /// Inclusive certified range start.
    pub lo: i64,
    /// Exclusive certified range end (`i64::MAX` = open).
    pub hi: i64,
    /// The partition's Bloom filter.
    pub filter: BloomFilter,
}

impl ShippedPartition {
    /// Whether the certified range covers `v`.
    pub fn covers(&self, v: i64) -> bool {
        self.lo <= v && (v < self.hi || self.hi == i64::MAX)
    }
}

/// An authenticated equi-join answer.
#[derive(Clone, Debug)]
pub struct JoinAnswer {
    /// The authenticated selection on R (ASign_R of Figure 3).
    pub r: ShardedSelectionAnswer,
    /// Which attribute of R the server joined on. The client names the
    /// join attribute itself ([`verify_join`]); an answer built over any
    /// other one is rejected.
    pub attr_a: usize,
    /// The absence mechanism used.
    pub method: JoinMethod,
    /// Runs of matching S records, one per matched distinct value.
    pub runs: Vec<MatchRun>,
    /// Absence proofs, one per unmatched distinct value.
    pub absences: Vec<(i64, AbsenceProof)>,
    /// Deduplicated boundary proofs (chained S records).
    pub gap_pool: Vec<GapProof>,
    /// Shipped partition filters (BF method).
    pub partitions: Vec<ShippedPartition>,
    /// Aggregate over every S-side signature: run records, gap-pool
    /// records, and partition certifications (ASign_S of Figure 3).
    pub s_agg: Signature,
}

impl JoinAnswer {
    /// Measured S-side VO size in bytes (boundary proofs + filters +
    /// partition boundaries + one aggregate signature). Matching S records
    /// are answer payload, not VO.
    pub fn vo_size(&self, pp: &PublicParams) -> usize {
        let gaps: usize = self
            .gap_pool
            .iter()
            .map(|g| 16 + 8 * g.record.attrs.len() + 16)
            .sum();
        let filters: usize = self
            .partitions
            .iter()
            .map(|p| p.filter.byte_len() + 16)
            .sum();
        gaps + filters + pp.wire_len()
    }

    /// The paper's accounting (values only, `|S.B|` bytes per value): what
    /// formulas 2 and 3 count. Boundary proofs contribute two values each
    /// (after deduplication), partitions their filter bytes plus two
    /// boundary values.
    pub fn paper_vo_size(&self, s_schema: &Schema, s_b_len: usize) -> usize {
        let mut distinct_vals = std::collections::BTreeSet::new();
        for g in &self.gap_pool {
            distinct_vals.insert(g.own_key(s_schema));
            distinct_vals.insert(g.right_key);
        }
        let gaps = distinct_vals.len() * s_b_len;
        let filters: usize = self
            .partitions
            .iter()
            .map(|p| p.filter.byte_len() + 2 * s_b_len)
            .sum();
        gaps + filters
    }
}

/// DA-side publisher for the S relation: certifies records through the
/// inner [`ShardedAggregator`] and maintains the certified partition
/// filters.
pub struct JoinPublisher {
    /// The S relation's (one-shard) aggregator, indexed on B.
    pub sa: ShardedAggregator,
    filters: PartitionedFilters,
    partition_sigs: Vec<Signature>,
}

impl JoinPublisher {
    /// Build from a bootstrapped S aggregator.
    ///
    /// `values_per_partition` is the paper's `I_B / p`; `bits_per_key` its
    /// `m / I_B`.
    ///
    /// # Panics
    /// Panics unless `sa` is a one-shard deployment.
    pub fn new(sa: ShardedAggregator, values_per_partition: usize, bits_per_key: f64) -> Self {
        assert_eq!(sa.map().shard_count(), 1, "the join's S side is one shard");
        let schema = sa.config().schema;
        let s = sa.shard(0);
        let mut distinct: Vec<i64> = (0..s.record_slots())
            .filter_map(|rid| s.record(rid).map(|r| r.key(&schema)))
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        let filters = PartitionedFilters::build(&distinct, values_per_partition, bits_per_key);
        let mut publisher = JoinPublisher {
            sa,
            filters,
            partition_sigs: Vec::new(),
        };
        publisher.recertify_all_partitions();
        publisher
    }

    fn recertify_all_partitions(&mut self) {
        self.partition_sigs = (0..self.filters.partition_count())
            .map(|i| self.sign_partition(i))
            .collect();
    }

    fn sign_partition(&self, idx: usize) -> Signature {
        // The DA signs the partition certification message. We reach the
        // keypair through a dedicated DA signing hook.
        self.sa.sign_raw(&self.filters.certification_message(idx))
    }

    /// The filter set (served to the query server).
    pub fn filters(&self) -> &PartitionedFilters {
        &self.filters
    }

    /// Partition certification signatures.
    pub fn partition_sigs(&self) -> &[Signature] {
        &self.partition_sigs
    }

    /// Delete one S record by rid, rebuilding and re-certifying the affected
    /// partition ("following every record deletion the Bloom filter has to
    /// be reconstructed from the remaining records"). Returns the number of
    /// values re-hashed (Figure 11(c)'s update cost), or `None` if the rid
    /// does not exist.
    pub fn delete_record(&mut self, rid: u64) -> Option<usize> {
        let schema = self.sa.config().schema;
        let rec = self.sa.shard(0).record(rid)?;
        let value = rec.key(&schema);
        self.sa.delete_record(0, rid);
        // Does any other record still carry this value?
        let still_present = !self.sa.shard(0).query_range(value, value).is_empty();
        if still_present {
            return Some(0);
        }
        let idx = self.filters.partition_for(value)?;
        let p = self.filters.partition(idx);
        let hi_inclusive = if p.hi == i64::MAX { i64::MAX } else { p.hi - 1 };
        let mut remaining: Vec<i64> = self
            .sa
            .shard(0)
            .query_range(p.lo, hi_inclusive)
            .iter()
            .map(|r| r.key(&schema))
            .collect();
        remaining.sort_unstable();
        remaining.dedup();
        let rehashed = self.filters.rebuild_partition(idx, &remaining);
        self.partition_sigs[idx] = self.sign_partition(idx);
        Some(rehashed)
    }
}

/// Server-side join execution: combine an already-computed authenticated
/// selection on R with the S server's index and the published filters.
/// Refuses with [`JoinRefusal::AttributeOutOfSchema`] when `attr_a` is not an
/// attribute of R's records, and with [`JoinRefusal::MultiShardS`] unless S
/// is a one-shard deployment.
pub fn execute_join(
    r_answer: ShardedSelectionAnswer,
    attr_a: usize,
    s_qs: &ShardedQueryServer,
    filters: &PartitionedFilters,
    partition_sigs: &[Signature],
    method: JoinMethod,
) -> Result<JoinAnswer, JoinRefusal> {
    if s_qs.map().shard_count() != 1 {
        return Err(JoinRefusal::MultiShardS);
    }
    let pp = s_qs.with_shard(0, |qs| qs.public_params().clone());
    let mut values = Vec::new();
    for r in r_answer.parts.iter().flat_map(|p| &p.answer.records) {
        let Some(&v) = r.attrs.get(attr_a) else {
            return Err(JoinRefusal::AttributeOutOfSchema { index: attr_a });
        };
        values.push(v);
    }
    values.sort_unstable();
    values.dedup();

    let mut runs = Vec::new();
    let mut absences = Vec::new();
    let mut gap_pool: Vec<GapProof> = Vec::new();
    let mut gap_index: BTreeMap<u64, usize> = BTreeMap::new(); // bracket rid -> pool idx
    let mut shipped: BTreeMap<usize, usize> = BTreeMap::new(); // ordinal -> answer idx
    let mut partitions: Vec<ShippedPartition> = Vec::new();
    let mut s_agg = pp.identity();

    for v in values {
        let ans = s_qs.with_shard(0, |qs| qs.select_range(v, v));
        if !ans.records.is_empty() {
            s_agg = pp.aggregate(&s_agg, &ans.agg);
            runs.push(MatchRun {
                value: v,
                records: ans.records,
                left_key: ans.left_key,
                right_key: ans.right_key,
            });
            continue;
        }
        // Unmatched value: absence proof (deduplicated by bracketing rid).
        let boundary = |gap: GapProof,
                        gap_pool: &mut Vec<GapProof>,
                        gap_index: &mut BTreeMap<u64, usize>,
                        s_agg: &mut Signature| {
            if let Some(&idx) = gap_index.get(&gap.record.rid) {
                return idx;
            }
            *s_agg = pp.aggregate(s_agg, &gap.signature);
            let rid = gap.record.rid;
            gap_pool.push(gap);
            gap_index.insert(rid, gap_pool.len() - 1);
            gap_pool.len() - 1
        };
        match method {
            JoinMethod::BoundaryValues => {
                let gap = ans.gap.expect("empty S selection carries a gap proof");
                let idx = boundary(gap, &mut gap_pool, &mut gap_index, &mut s_agg);
                absences.push((v, AbsenceProof::Boundary { idx }));
            }
            JoinMethod::BloomFilter => match filters.probe(v) {
                Probe::NegativeIn(ordinal) => {
                    let idx = *shipped.entry(ordinal).or_insert_with(|| {
                        let p = filters.partition(ordinal);
                        s_agg = pp.aggregate(&s_agg, &partition_sigs[ordinal]);
                        partitions.push(ShippedPartition {
                            ordinal,
                            lo: p.lo,
                            hi: p.hi,
                            filter: p.filter.clone(),
                        });
                        partitions.len() - 1
                    });
                    absences.push((v, AbsenceProof::FilterNegative { idx }));
                }
                Probe::MaybeIn(_) | Probe::OutOfRange => {
                    // False positive or out of the partitioned span: fall
                    // back to a boundary record.
                    let gap = ans.gap.expect("empty S selection carries a gap proof");
                    let idx = boundary(gap, &mut gap_pool, &mut gap_index, &mut s_agg);
                    absences.push((v, AbsenceProof::Boundary { idx }));
                }
            },
        }
    }

    Ok(JoinAnswer {
        r: r_answer,
        attr_a,
        method,
        runs,
        absences,
        gap_pool,
        partitions,
        s_agg,
    })
}

/// Client-side verification of the join `σ_{lo..hi}(R) ⋈_{R.attr_a=S.B} S` at
/// logical time `now`. The caller names the join attribute — an answer
/// built over another attribute of R proves a different join and is
/// rejected ([`VerifyError::BadAggregate`]), and a record that does not
/// carry `attr_a`, or an S-side record whose arity disagrees with
/// `s_schema`, is [`VerifyError::MalformedRecord`], never a panic. The R
/// side is verified under `view_r` like any selection, its fold
/// coefficients drawn from `rng`.
#[allow(clippy::too_many_arguments)]
pub fn verify_join(
    verifier_r: &Verifier,
    view_r: &EpochView,
    verifier_s_pp: &PublicParams,
    s_schema: &Schema,
    filters_certifier: impl Fn(&ShippedPartition) -> Vec<u8>,
    lo: i64,
    hi: i64,
    attr_a: usize,
    ans: &JoinAnswer,
    now: Tick,
    rng: &mut impl rand::Rng,
) -> Result<(), VerifyError> {
    if ans.attr_a != attr_a {
        return Err(VerifyError::BadAggregate);
    }
    // 1. The R side is an ordinary authenticated selection, freshness
    //    included: its attached summaries expose a replayed R version.
    verifier_r.verify_sharded_selection(lo, hi, &ans.r, view_r, now, true, rng)?;

    // 2. Every distinct R.A value must have exactly one disposition — a
    //    run or an absence proof — and nothing else may be disposed.
    let mut values = Vec::new();
    for r in ans.r.parts.iter().flat_map(|p| &p.answer.records) {
        let Some(&v) = r.attrs.get(attr_a) else {
            return Err(VerifyError::MalformedRecord { rid: r.rid });
        };
        values.push(v);
    }
    values.sort_unstable();
    values.dedup();
    let runs = ans.runs.iter().map(|run| run.value);
    let mut disposed: Vec<i64> = runs.chain(ans.absences.iter().map(|&(v, _)| v)).collect();
    disposed.sort_unstable();
    if disposed != values {
        return Err(VerifyError::BadAggregate);
    }

    // 3. Rebuild the S-side message multiset while checking semantics. The
    //    wire codec cannot check arity, so every S record is fitted to the
    //    schema before its key is read.
    let fits = |rec: &Record| {
        if rec.attrs.len() == s_schema.num_attrs {
            Ok(())
        } else {
            Err(VerifyError::MalformedRecord { rid: rec.rid })
        }
    };
    let mut messages: Vec<Vec<u8>> = Vec::new();
    for run in &ans.runs {
        if run.records.is_empty() {
            return Err(VerifyError::BadAggregate);
        }
        if !(run.left_key < run.value && run.right_key > run.value) {
            return Err(VerifyError::BadBoundary);
        }
        let last = run.records.len() - 1;
        for (i, rec) in run.records.iter().enumerate() {
            fits(rec)?;
            if rec.key(s_schema) != run.value {
                return Err(VerifyError::RecordOutOfRange { rid: rec.rid });
            }
            // Every record of the run carries the run's value, so a chain
            // neighbour is that value inside the run and the run's boundary
            // key at either end.
            let left = if i == 0 { run.left_key } else { run.value };
            let right = if i == last { run.right_key } else { run.value };
            messages.push(rec.chain_message(s_schema, left, right));
        }
    }
    for g in &ans.gap_pool {
        fits(&g.record)?;
        messages.push(g.chain_msg(s_schema));
    }
    for p in &ans.partitions {
        messages.push(filters_certifier(p));
    }
    for (v, proof) in &ans.absences {
        match proof {
            AbsenceProof::Boundary { idx } => {
                let Some(g) = ans.gap_pool.get(*idx) else {
                    return Err(VerifyError::BadGapProof);
                };
                let own = g.own_key(s_schema);
                let brackets = (own < *v && g.right_key > *v) || (own > *v && g.left_key < *v);
                if !brackets {
                    return Err(VerifyError::BadGapProof);
                }
            }
            AbsenceProof::FilterNegative { idx } => {
                let Some(p) = ans.partitions.get(*idx) else {
                    return Err(VerifyError::BadGapProof);
                };
                if !p.covers(*v) {
                    return Err(VerifyError::BadGapProof);
                }
                if p.filter.contains(&v.to_be_bytes()) {
                    // The filter does not actually answer negative.
                    return Err(VerifyError::BadGapProof);
                }
            }
        }
    }
    let refs: Vec<&[u8]> = messages.iter().map(|m| m.as_slice()).collect();
    if !verifier_s_pp.verify_aggregate(&refs, &ans.s_agg) {
        return Err(VerifyError::BadAggregate);
    }
    Ok(())
}

/// Rebuild a shipped partition's certification message exactly as the
/// publisher signs it.
pub fn partition_certification_message(p: &ShippedPartition) -> Vec<u8> {
    let mut msg = Vec::with_capacity(24 + p.filter.byte_len());
    msg.extend_from_slice(b"authdb-partition:");
    msg.extend_from_slice(&(p.ordinal as u64).to_be_bytes());
    msg.extend_from_slice(&p.lo.to_be_bytes());
    msg.extend_from_slice(&p.hi.to_be_bytes());
    msg.extend_from_slice(&p.filter.to_bytes());
    msg
}

/// The analytic viability model of Section 3.5 (Figure 4 and formulas 2-5).
pub mod viability {
    /// `z = 0.0432·(I_A/I_B) + 2·(p/I_B)`; the BF method wins when
    /// `z < 0.75` (primary-key/foreign-key case, `m = 8·I_B`).
    pub fn z(ia_over_ib: f64, ib_over_p: f64) -> f64 {
        0.0432 * ia_over_ib + 2.0 / ib_over_p
    }

    /// The white plane of Figure 4.
    pub const Z_THRESHOLD: f64 = 0.75;

    /// Whether the BF configuration beats BV analytically.
    pub fn bf_viable(ia_over_ib: f64, ib_over_p: f64) -> bool {
        z(ia_over_ib, ib_over_p) < Z_THRESHOLD
    }

    /// Minimum `I_B/p` making BF viable for a given `I_A/I_B`
    /// (2.83 at ratio 1, 6.29 at ratio 10 — the figure's annotations).
    pub fn min_partition_size(ia_over_ib: f64) -> f64 {
        2.0 / (Z_THRESHOLD - 0.0432 * ia_over_ib)
    }

    /// Formula 2: expected BV proof size in bytes.
    pub fn vo_bv(alpha: f64, ia: f64, ib: f64, s_b_len: f64) -> f64 {
        (1.0 - alpha) * ia * (ib / ia).min(2.0) * s_b_len
    }

    /// Formula 1 / Section 2.1: FP at optimal k for `bits_per_key` = m/b.
    pub fn fp_rate(bits_per_key: f64) -> f64 {
        0.6185f64.powf(bits_per_key)
    }

    /// Formula 3: expected BF proof size in bytes.
    pub fn vo_bf(alpha: f64, ia: f64, ib: f64, p: f64, bits_per_key: f64, s_b_len: f64) -> f64 {
        let m = bits_per_key * ib;
        let fp = fp_rate(bits_per_key);
        (1.0 - alpha) * m / 8.0
            + (2.0 * (1.0 - alpha)).min(1.0) * p * s_b_len
            + (1.0 - alpha) * ia * fp * 2.0 * s_b_len
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn figure_4_thresholds() {
            assert!((min_partition_size(1.0) - 2.83).abs() < 0.01);
            assert!((min_partition_size(10.0) - 6.29).abs() < 0.01);
        }

        #[test]
        fn paper_fp_constant() {
            assert!((fp_rate(8.0) - 0.0216).abs() < 0.0005);
        }

        #[test]
        fn bf_beats_bv_in_paper_configuration() {
            // TPC-E-like: IA = 6850, IB = 3425, IB/p = 4, alpha = 0.5.
            let ia = 6850.0;
            let ib = 3425.0;
            let p = ib / 4.0;
            let bv = vo_bv(0.5, ia, ib, 4.0);
            let bf = vo_bf(0.5, ia, ib, p, 8.0, 4.0);
            assert!(bf < bv, "bf={bf} bv={bv}");
        }

        #[test]
        fn bf_not_viable_when_ia_dominates_or_partitions_too_small() {
            // At I_A = 10·I_B the minimum viable partition is 6.29 keys
            // (Figure 4's annotation): 4-key partitions are not viable.
            assert!(!bf_viable(10.0, 4.0));
            assert!(bf_viable(10.0, 8.0));
            // direct check of the z-condition shape
            assert!(!bf_viable(1.0, 2.0));
            assert!(bf_viable(1.0, 4.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use authdb_core::da::DaConfig;
    use authdb_core::qs::QsOptions;
    use authdb_crypto::signer::SchemeKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One side of the join: its DA, server, verifier and the client's view.
    struct Side {
        sa: ShardedAggregator,
        qs: ShardedQueryServer,
        v: Verifier,
        view: EpochView,
    }

    fn side(cfg: DaConfig, splits: Vec<i64>, rows: Vec<Vec<i64>>, rng: &mut StdRng) -> Side {
        let mut sa = ShardedAggregator::new(cfg, splits, rng);
        let boots = sa.bootstrap(rows, 2);
        let qs = sa.replica(&boots, &QsOptions::default());
        let (v, view) = (sa.verifier(), sa.epoch_view());
        Side { sa, qs, v, view }
    }

    /// R: 40 records in two shards, A = attrs[1] in 0..80 step 2 (even
    /// values). S: one shard, B = multiples of 3 in 0..120, two records per
    /// value.
    fn setup() -> (Side, JoinPublisher, ShardedQueryServer, Verifier) {
        setup_under(SchemeKind::Mock)
    }

    fn setup_under(scheme: SchemeKind) -> (Side, JoinPublisher, ShardedQueryServer, Verifier) {
        let mut rng = StdRng::seed_from_u64(41);
        let cfg = DaConfig {
            scheme,
            ..DaConfig::small()
        };
        let r_rows = (0..40).map(|i| vec![i, i * 2]).collect();
        let r = side(cfg.clone(), vec![20], r_rows, &mut rng);
        let s_rows = (0..40)
            .flat_map(|i| {
                let b = i * 3;
                vec![vec![b, 100 + i], vec![b, 200 + i]]
            })
            .collect();
        let s = side(cfg, vec![], s_rows, &mut rng);
        (r, JoinPublisher::new(s.sa, 8, 8.0), s.qs, s.v)
    }

    const SCHEMA: Schema = Schema {
        num_attrs: 2,
        record_len: 64,
        indexed_attr: 0,
    };

    struct Joined {
        ans: JoinAnswer,
        r: Side,
        s_v: Verifier,
    }

    impl Joined {
        /// Verify `ans` as the join of all of R on attribute `attr_a`.
        fn verify_on(&self, attr_a: usize, now: Tick) -> Result<(), VerifyError> {
            verify_join(
                &self.r.v,
                &self.r.view,
                self.s_v.public_params(),
                &SCHEMA,
                partition_certification_message,
                0,
                39,
                attr_a,
                &self.ans,
                now,
                &mut StdRng::seed_from_u64(43),
            )
        }

        fn verify(&self) -> Result<(), VerifyError> {
            self.verify_on(1, 0)
        }
    }

    fn run_join_on(scheme: SchemeKind, attr_a: usize, method: JoinMethod) -> Joined {
        let (r, publisher, s_qs, s_v) = setup_under(scheme);
        let r_ans = r.qs.select_range(0, 39).unwrap(); // all of R
        assert_eq!(r_ans.parts.len(), 2, "R spans both of its shards");
        let ans = execute_join(
            r_ans,
            attr_a,
            &s_qs,
            publisher.filters(),
            publisher.partition_sigs(),
            method,
        )
        .expect("one-shard S");
        Joined { ans, r, s_v }
    }

    fn run_join(method: JoinMethod) -> Joined {
        run_join_on(SchemeKind::Mock, 1, method)
    }

    #[test]
    fn bv_join_verifies() {
        let j = run_join(JoinMethod::BoundaryValues);
        // Even values 0..78: multiples of 6 match (B = multiples of 3).
        assert_eq!(j.ans.runs.len(), 14); // 0,6,12,...,78
        assert!(j.ans.runs.iter().all(|r| r.records.len() == 2));
        assert!(!j.ans.absences.is_empty());
        assert!(j.ans.partitions.is_empty());
        j.verify().expect("BV join verifies");
    }

    #[test]
    fn bf_join_verifies() {
        let j = run_join(JoinMethod::BloomFilter);
        assert_eq!(j.ans.runs.len(), 14);
        assert!(!j.ans.partitions.is_empty(), "some filters shipped");
        j.verify().expect("BF join verifies");
    }

    #[test]
    fn bf_vo_smaller_than_bv_at_scale() {
        // Not guaranteed at toy scale, but the paper accounting must order
        // correctly once unmatched values dominate. Use paper accounting.
        let bv = run_join(JoinMethod::BoundaryValues).ans;
        let bf = run_join(JoinMethod::BloomFilter).ans;
        // At minimum both must produce nonzero absence machinery.
        assert!(bv.paper_vo_size(&SCHEMA, 4) > 0);
        assert!(bf.paper_vo_size(&SCHEMA, 4) > 0);
    }

    #[test]
    fn dropped_match_detected() {
        let mut j = run_join(JoinMethod::BloomFilter);
        // Server hides one matching S record.
        j.ans.runs[0].records.remove(0);
        assert!(j.verify().is_err());
    }

    #[test]
    fn fake_absence_detected() {
        let mut j = run_join(JoinMethod::BloomFilter);
        // Server claims a matched value is absent by dropping its run and
        // pointing at a filter negative.
        let victim = j.ans.runs.remove(0);
        assert!(!j.ans.partitions.is_empty());
        j.ans
            .absences
            .push((victim.value, AbsenceProof::FilterNegative { idx: 0 }));
        assert!(
            j.verify().is_err(),
            "filter positive or aggregate must catch it"
        );
    }

    #[test]
    fn tampered_filter_detected() {
        let mut j = run_join(JoinMethod::BloomFilter);
        // Clear the filter so a matched value would probe negative: the
        // certification signature no longer matches.
        let p = &mut j.ans.partitions[0];
        p.filter = BloomFilter::new(p.filter.bit_len(), p.filter.hash_count());
        assert_eq!(j.verify(), Err(VerifyError::BadAggregate));
    }

    /// The client names the join attribute. A server that joins on another
    /// attribute of R — every proof in the answer genuine, for that other
    /// join — is rejected whether it admits which attribute it used or
    /// claims the one the client asked for.
    #[test]
    fn join_on_another_attribute_rejected() {
        for scheme in [SchemeKind::Mock, SchemeKind::Bas] {
            let mut j = run_join_on(scheme, 0, JoinMethod::BloomFilter);
            assert_eq!(j.verify_on(0, 0), Ok(()), "honest as a join on attr 0");
            assert_eq!(j.verify_on(1, 0), Err(VerifyError::BadAggregate));
            j.ans.attr_a = 1;
            assert_eq!(j.verify_on(1, 0), Err(VerifyError::BadAggregate));
        }
    }

    /// An attribute index past R's schema is a refusal on the server and a
    /// typed error — not an index panic — in the verifier.
    #[test]
    fn out_of_schema_join_attribute_is_a_typed_error() {
        let (r, publisher, s_qs, _) = setup();
        let r_ans = r.qs.select_range(0, 39).unwrap();
        let refused = execute_join(
            r_ans,
            99,
            &s_qs,
            publisher.filters(),
            publisher.partition_sigs(),
            JoinMethod::BloomFilter,
        );
        assert_eq!(
            refused.err(),
            Some(JoinRefusal::AttributeOutOfSchema { index: 99 })
        );
        let mut j = run_join(JoinMethod::BloomFilter);
        j.ans.attr_a = 99;
        assert_eq!(
            j.verify_on(99, 0),
            Err(VerifyError::MalformedRecord { rid: 0 })
        );
    }

    /// The wire codec cannot check arity: an S-side run or gap record whose
    /// attribute count disagrees with the schema is a typed error before
    /// its key is read.
    #[test]
    fn s_side_arity_mismatch_is_a_typed_error() {
        let mut j = run_join(JoinMethod::BoundaryValues);
        let rid = j.ans.runs[0].records[1].rid;
        j.ans.runs[0].records[1].attrs.clear();
        assert_eq!(j.verify(), Err(VerifyError::MalformedRecord { rid }));

        let mut j = run_join(JoinMethod::BoundaryValues);
        let rid = j.ans.gap_pool[0].record.rid;
        j.ans.gap_pool[0].record.attrs.push(7);
        assert_eq!(j.verify(), Err(VerifyError::MalformedRecord { rid }));
    }

    /// A multi-shard S is refused, not probed shard by shard.
    #[test]
    fn multi_shard_s_side_is_unsupported() {
        let (r, publisher, _, _) = setup();
        let mut rng = StdRng::seed_from_u64(44);
        let s2_rows = (0..40).map(|i| vec![i * 3, i]).collect();
        let s2 = side(DaConfig::small(), vec![60], s2_rows, &mut rng);
        let refused = execute_join(
            r.qs.select_range(0, 39).unwrap(),
            1,
            &s2.qs,
            publisher.filters(),
            publisher.partition_sigs(),
            JoinMethod::BoundaryValues,
        );
        assert_eq!(refused.err(), Some(JoinRefusal::MultiShardS));
    }

    /// The R side's freshness is checked at the caller's `now`: an R server
    /// replaying its pre-update answer two summaries later is exposed by
    /// the summaries the answer must carry.
    #[test]
    fn replayed_r_version_rejected_as_stale() {
        let (mut r, publisher, s_qs, s_v) = setup();
        let hoarded = r.qs.select_range(0, 39).unwrap();
        r.sa.advance_clock(5);
        r.qs.apply_all(&r.sa.update_record(0, 7, vec![7, 15]).1);
        for _ in 0..2 {
            r.sa.advance_clock(10);
            r.qs.ingest(r.sa.maybe_publish_summaries());
        }
        let now = r.sa.now();
        let current = r.qs.select_range(0, 39).unwrap();
        // The client fetches the current summaries itself, so the replayer
        // cannot avoid attaching them.
        let mut replayed = hoarded;
        for (old, new) in replayed.parts.iter_mut().zip(&current.parts) {
            old.answer.summaries = new.answer.summaries.clone();
        }
        let mut j = Joined {
            ans: execute_join(
                current,
                1,
                &s_qs,
                publisher.filters(),
                publisher.partition_sigs(),
                JoinMethod::BloomFilter,
            )
            .unwrap(),
            r,
            s_v,
        };
        j.verify_on(1, now).expect("current R version joins");
        j.ans = execute_join(
            replayed,
            1,
            &s_qs,
            publisher.filters(),
            publisher.partition_sigs(),
            JoinMethod::BloomFilter,
        )
        .unwrap();
        assert!(matches!(
            j.verify_on(1, now),
            Err(VerifyError::Stale { .. })
        ));
    }

    #[test]
    fn deletion_rebuilds_partition_and_filter_stops_matching() {
        let (_, mut publisher, _, _) = setup();
        // Both S records with B = 9 are rids... find them.
        let s = publisher.sa.shard(0);
        let victims: Vec<u64> = (0..s.record_slots())
            .filter(|&rid| s.record(rid).is_some_and(|r| r.key(&SCHEMA) == 9))
            .collect();
        assert_eq!(victims.len(), 2);
        let r1 = publisher.delete_record(victims[0]).unwrap();
        assert_eq!(r1, 0, "value still present: no rebuild");
        let r2 = publisher.delete_record(victims[1]).unwrap();
        assert!(r2 > 0, "last copy removed: partition rebuilt");
        assert!(matches!(
            publisher.filters().probe(9),
            Probe::NegativeIn(_) | Probe::OutOfRange
        ));
    }
}
