//! Partitioned Bloom filters for equi-join verification (Section 3.5).
//!
//! The join attribute domain of `S.B` is sorted and split horizontally into
//! `p` partitions whose half-open ranges **tile the whole domain** (Figure 3
//! shows `[0,120), [120,420), [420,1000)`); the outermost ranges extend to
//! ±∞ so *every* probe value falls in exactly one certified partition. Each
//! partition carries a Bloom filter over the distinct values it contains.
//! Deletions only rebuild one partition's filter instead of the whole set —
//! "the finer the partitions, the lower the update cost" — at the price of
//! shipping partition boundaries in the VO (formula 3's `p·|S.B|` term).

use crate::bloom::BloomFilter;

/// Result of probing the partitioned filter set for a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// The value falls in partition `idx` and its filter says "maybe".
    MaybeIn(usize),
    /// The value falls in partition `idx` and its filter says "absent".
    NegativeIn(usize),
    /// No partitions exist (empty relation).
    OutOfRange,
}

/// One partition: the half-open range `[lo, hi)` it certifies and the
/// filter over the distinct values inside it.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    /// Inclusive range start (`i64::MIN` for the first partition).
    pub lo: i64,
    /// Exclusive range end (`i64::MAX` for the last partition).
    pub hi: i64,
    /// Filter over the partition's distinct values.
    pub filter: BloomFilter,
    /// Number of distinct values inserted.
    pub distinct: usize,
}

impl Partition {
    /// Whether `v` falls inside this partition's certified range.
    pub fn covers(&self, v: i64) -> bool {
        self.lo <= v && (v < self.hi || self.hi == i64::MAX)
    }
}

/// A set of range partitions with per-partition Bloom filters.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionedFilters {
    partitions: Vec<Partition>,
    bits_per_key: f64,
}

impl PartitionedFilters {
    /// Build over the **sorted, deduplicated** distinct values of the join
    /// attribute, with at most `values_per_partition` distinct values per
    /// partition (the paper's `I_B / p`) and `bits_per_key` filter bits per
    /// value (the paper's `m / I_B`).
    ///
    /// # Panics
    /// Panics if `values` is unsorted/contains duplicates, or if
    /// `values_per_partition == 0`.
    pub fn build(values: &[i64], values_per_partition: usize, bits_per_key: f64) -> Self {
        assert!(values_per_partition > 0, "partition size must be positive");
        assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "values must be sorted and distinct"
        );
        let chunks: Vec<&[i64]> = values.chunks(values_per_partition).collect();
        let partitions = chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| {
                let mut filter = BloomFilter::with_bits_per_key(chunk.len(), bits_per_key);
                for v in *chunk {
                    filter.insert(&v.to_be_bytes());
                }
                Partition {
                    lo: if i == 0 { i64::MIN } else { chunk[0] },
                    hi: chunks.get(i + 1).map(|c| c[0]).unwrap_or(i64::MAX),
                    filter,
                    distinct: chunk.len(),
                }
            })
            .collect();
        PartitionedFilters {
            partitions,
            bits_per_key,
        }
    }

    /// Number of partitions `p`.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Access a partition.
    pub fn partition(&self, idx: usize) -> &Partition {
        &self.partitions[idx]
    }

    /// All partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Index of the partition whose range covers `v`. Ranges tile the
    /// domain, so this is `None` only for an empty filter set.
    pub fn partition_for(&self, v: i64) -> Option<usize> {
        if self.partitions.is_empty() {
            return None;
        }
        let idx = self
            .partitions
            .partition_point(|p| p.hi <= v && p.hi != i64::MAX);
        Some(idx.min(self.partitions.len() - 1))
    }

    /// Probe for `v`.
    pub fn probe(&self, v: i64) -> Probe {
        match self.partition_for(v) {
            None => Probe::OutOfRange,
            Some(idx) => {
                if self.partitions[idx].filter.contains(&v.to_be_bytes()) {
                    Probe::MaybeIn(idx)
                } else {
                    Probe::NegativeIn(idx)
                }
            }
        }
    }

    /// Rebuild partition `idx` from its new set of **sorted distinct**
    /// values (the deletion path: "following every record deletion, the
    /// Bloom filter has to be reconstructed from the remaining records").
    /// The certified range is unchanged; an empty value set leaves an empty
    /// filter (every probe negative). Returns the number of values
    /// re-hashed (the update-cost metric of Figure 11(c)).
    ///
    /// # Panics
    /// Panics if values are unsorted or fall outside the partition range.
    pub fn rebuild_partition(&mut self, idx: usize, values: &[i64]) -> usize {
        assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "values must be sorted and distinct"
        );
        let p = &mut self.partitions[idx];
        assert!(
            values.iter().all(|v| p.covers(*v)),
            "values outside the partition range"
        );
        let mut filter = BloomFilter::with_bits_per_key(values.len().max(1), self.bits_per_key);
        for v in values {
            filter.insert(&v.to_be_bytes());
        }
        p.filter = filter;
        p.distinct = values.len();
        values.len()
    }

    /// Insert a new distinct value (additions need no rebuild: "new data can
    /// be added easily to a Bloom filter"). Returns the affected partition,
    /// or `None` if no partitions exist.
    pub fn insert(&mut self, v: i64) -> Option<usize> {
        let idx = self.partition_for(v)?;
        let p = &mut self.partitions[idx];
        p.filter.insert(&v.to_be_bytes());
        p.distinct += 1;
        Some(idx)
    }

    /// Total filter size in bytes across all partitions (`m/8` of formula 3).
    pub fn total_filter_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.filter.byte_len()).sum()
    }

    /// Canonical certification message for partition `idx` (what the DA
    /// signs: range boundaries + filter bits).
    pub fn certification_message(&self, idx: usize) -> Vec<u8> {
        let p = &self.partitions[idx];
        let mut msg = Vec::with_capacity(24 + p.filter.byte_len());
        // authdb-lint: allow(domain-binding): join::partition_certification_message is the verifier-side rebuild of this exact preimage — both encode the same logical partition certification, so the shared tag is intentional
        msg.extend_from_slice(b"authdb-partition:");
        msg.extend_from_slice(&(idx as u64).to_be_bytes());
        msg.extend_from_slice(&p.lo.to_be_bytes());
        msg.extend_from_slice(&p.hi.to_be_bytes());
        msg.extend_from_slice(&p.filter.to_bytes());
        msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evens(n: i64) -> Vec<i64> {
        (0..n).map(|i| i * 2).collect()
    }

    #[test]
    fn no_false_negatives_across_partitions() {
        let values = evens(1000);
        let pf = PartitionedFilters::build(&values, 64, 8.0);
        assert_eq!(pf.partition_count(), 1000usize.div_ceil(64));
        for v in &values {
            assert!(matches!(pf.probe(*v), Probe::MaybeIn(_)), "missing {v}");
        }
    }

    #[test]
    fn ranges_tile_the_domain() {
        let pf = PartitionedFilters::build(&evens(100), 10, 8.0);
        let parts = pf.partitions();
        assert_eq!(parts[0].lo, i64::MIN);
        assert_eq!(parts.last().unwrap().hi, i64::MAX);
        for w in parts.windows(2) {
            assert_eq!(w[0].hi, w[1].lo, "ranges must tile");
        }
        // Every value — present, absent, out of span — maps to a partition.
        for v in [-1_000_000, -1, 0, 7, 99, 198, 199, 1_000_000] {
            assert!(pf.partition_for(v).is_some());
            let idx = pf.partition_for(v).unwrap();
            assert!(parts[idx].covers(v), "partition {idx} must cover {v}");
        }
    }

    #[test]
    fn absent_values_mostly_negative() {
        let values = evens(1000);
        let pf = PartitionedFilters::build(&values, 64, 8.0);
        let negatives = (0..1000)
            .map(|i| i * 2 + 1)
            .filter(|v| matches!(pf.probe(*v), Probe::NegativeIn(_)))
            .count();
        // FP ~ 2%, so ≥ 95% of absent odd values must test negative.
        assert!(negatives > 950, "only {negatives} negatives");
    }

    #[test]
    fn out_of_span_values_probe_edge_partitions() {
        let pf = PartitionedFilters::build(&evens(100), 10, 8.0);
        assert!(matches!(pf.probe(-5), Probe::NegativeIn(0)));
        let last = pf.partition_count() - 1;
        match pf.probe(10_000) {
            Probe::NegativeIn(i) => assert_eq!(i, last),
            other => panic!("expected negative in last partition, got {other:?}"),
        }
    }

    #[test]
    fn empty_set_is_out_of_range() {
        let pf = PartitionedFilters::build(&[], 10, 8.0);
        assert_eq!(pf.probe(5), Probe::OutOfRange);
    }

    #[test]
    fn rebuild_removes_deleted_value() {
        let values = evens(100);
        let mut pf = PartitionedFilters::build(&values, 10, 8.0);
        let victim = 40i64;
        let idx = pf.partition_for(victim).unwrap();
        let p = pf.partition(idx).clone();
        let remaining: Vec<i64> = values
            .iter()
            .copied()
            .filter(|v| p.covers(*v) && *v != victim)
            .collect();
        let rehashed = pf.rebuild_partition(idx, &remaining);
        assert_eq!(rehashed, remaining.len());
        assert!(matches!(pf.probe(victim), Probe::NegativeIn(_)));
        // Remaining values still present.
        for v in remaining {
            assert!(matches!(pf.probe(v), Probe::MaybeIn(_)));
        }
    }

    #[test]
    fn rebuild_to_empty_keeps_range() {
        let mut pf = PartitionedFilters::build(&evens(30), 10, 8.0);
        pf.rebuild_partition(1, &[]);
        assert_eq!(pf.partition_count(), 3);
        // Everything in partition 1's range now tests negative.
        assert!(matches!(pf.probe(20), Probe::NegativeIn(1)));
    }

    #[test]
    fn insert_lands_in_covering_partition() {
        let mut pf = PartitionedFilters::build(&evens(100), 10, 8.0);
        let idx = pf.insert(41).unwrap();
        assert!(pf.partition(idx).covers(41));
        assert!(matches!(pf.probe(41), Probe::MaybeIn(_)));
    }

    #[test]
    fn certification_message_changes_with_contents() {
        let pf1 = PartitionedFilters::build(&evens(100), 10, 8.0);
        let mut pf2 = pf1.clone();
        let idx = pf2.insert(41).unwrap();
        assert_ne!(
            pf1.certification_message(idx),
            pf2.certification_message(idx)
        );
    }

    #[test]
    fn filter_bytes_scale_with_bits_per_key() {
        let v = evens(1000);
        let small = PartitionedFilters::build(&v, 100, 4.0).total_filter_bytes();
        let large = PartitionedFilters::build(&v, 100, 16.0).total_filter_bytes();
        assert!(large > 3 * small);
    }
}
