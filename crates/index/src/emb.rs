//! The Embedded Merkle B-tree (EMB− tree) of Li et al. \[18\] — the paper's
//! baseline (Section 2.2).
//!
//! A B+-tree whose leaf entries are `⟨key, digest, rid⟩` (the digest is the
//! tuple's hash) and whose internal entries each carry their child's digest.
//! A node's digest is the hash of its children's digests; the owner signs
//! the root digest. Every data modification propagates digests from the leaf
//! to the root — the structural reason EMB− updates must lock the whole
//! index exclusively, which is the contention mechanism Figures 7 and 9
//! measure.
//!
//! Range queries return the qualifying tuples plus the two boundary tuples
//! and a [`EmbVo`]: a pruned tree of digests from which the client
//! recomputes the root digest.

use authdb_crypto::sha1::Sha1;
use authdb_crypto::sha256::Sha256;
use authdb_storage::{BufferPool, PageId};

use crate::btree::{Annotator, BTree, LeafEntry, TreeConfig};

/// Which hash backs the tree's digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DigestKind {
    /// 160-bit SHA-1 digests — the paper's sizes (20 bytes).
    Sha1,
    /// 256-bit SHA-256 digests — the modern default (32 bytes).
    Sha256,
}

#[allow(clippy::len_without_is_empty)] // a digest length is never zero
impl DigestKind {
    /// Digest length in bytes.
    pub fn len(&self) -> usize {
        match self {
            DigestKind::Sha1 => 20,
            DigestKind::Sha256 => 32,
        }
    }

    /// Hash a concatenation of byte slices.
    pub fn hash_concat<'a>(&self, parts: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
        match self {
            DigestKind::Sha1 => {
                let mut h = Sha1::new();
                for p in parts {
                    h.update(p);
                }
                h.finalize().to_vec()
            }
            DigestKind::Sha256 => {
                let mut h = Sha256::new();
                for p in parts {
                    h.update(p);
                }
                h.finalize().to_vec()
            }
        }
    }

    /// Hash a single message (tuple digest).
    pub fn hash(&self, msg: &[u8]) -> Vec<u8> {
        self.hash_concat([msg])
    }
}

/// Binary-Merkle root over a node's child digests — the *embedded MHT* of
/// \[18\]: each B+-tree node internally organizes its (up to fanout-many)
/// child digests as a binary hash tree, so a VO prunes untouched spans with
/// `O(log fanout)` digests instead of shipping the whole node. A trailing
/// odd element is promoted unchanged; a single digest is its own root; an
/// empty node hashes the empty string.
pub fn embedded_root(kind: DigestKind, digests: &[&[u8]]) -> Vec<u8> {
    if digests.is_empty() {
        return kind.hash(b"");
    }
    let mut level: Vec<Vec<u8>> = digests.iter().map(|d| d.to_vec()).collect();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| {
                if pair.len() == 2 {
                    kind.hash_concat([pair[0].as_slice(), pair[1].as_slice()])
                } else {
                    pair[0].clone()
                }
            })
            .collect();
    }
    level.pop().expect("nonempty")
}

/// Annotator computing embedded-MHT digests over node contents.
#[derive(Clone, Copy, Debug)]
pub struct DigestAnnotator {
    kind: DigestKind,
}

impl DigestAnnotator {
    /// An annotator producing `kind`-flavoured embedded-MHT digests.
    pub fn new(kind: DigestKind) -> Self {
        DigestAnnotator { kind }
    }
}

impl Annotator for DigestAnnotator {
    fn leaf_ann(&self, entries: &[LeafEntry], out: &mut [u8]) {
        let ds: Vec<&[u8]> = entries.iter().map(|e| e.payload.as_slice()).collect();
        out.copy_from_slice(&embedded_root(self.kind, &ds));
    }

    fn node_ann(&self, child_anns: &[&[u8]], out: &mut [u8]) {
        out.copy_from_slice(&embedded_root(self.kind, child_anns));
    }
}

/// A verification object for an EMB− range query: the minimal pruned
/// binary-digest tree from which the root digest is recomputable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmbVo {
    /// Digest of an untouched (sub)tree span or non-result leaf entry.
    Pruned(Vec<u8>),
    /// Placeholder consumed from the returned tuples (in leaf order).
    Result,
    /// An embedded-MHT combination: digest = h(left | right).
    Bin(Box<EmbVo>, Box<EmbVo>),
}

impl EmbVo {
    /// Serialized size in bytes: digests plus one structure byte per item
    /// (how the VO would travel on the wire; Table 4's "VO size").
    pub fn size_bytes(&self) -> usize {
        match self {
            EmbVo::Pruned(d) => 1 + d.len(),
            EmbVo::Result => 1,
            EmbVo::Bin(l, r) => 1 + l.size_bytes() + r.size_bytes(),
        }
    }

    /// Number of `Result` placeholders.
    pub fn result_slots(&self) -> usize {
        match self {
            EmbVo::Pruned(_) => 0,
            EmbVo::Result => 1,
            EmbVo::Bin(l, r) => l.result_slots() + r.result_slots(),
        }
    }

    /// Collapse one node's per-child VO items into the embedded binary MHT,
    /// merging adjacent fully-pruned spans into single digests.
    fn collapse(kind: DigestKind, items: Vec<EmbVo>) -> EmbVo {
        if items.is_empty() {
            return EmbVo::Pruned(kind.hash(b""));
        }
        let mut level = items;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut iter = level.into_iter();
            while let Some(a) = iter.next() {
                match iter.next() {
                    None => next.push(a),
                    Some(b) => match (&a, &b) {
                        (EmbVo::Pruned(da), EmbVo::Pruned(db)) => next.push(EmbVo::Pruned(
                            kind.hash_concat([da.as_slice(), db.as_slice()]),
                        )),
                        _ => next.push(EmbVo::Bin(Box::new(a), Box::new(b))),
                    },
                }
            }
            level = next;
        }
        level.pop().expect("nonempty")
    }
}

/// Result of an authenticated EMB− range query.
#[derive(Clone, Debug)]
pub struct EmbRangeResult {
    /// Matching entries (key order).
    pub matches: Vec<LeafEntry>,
    /// Boundary entry immediately left of the range, if any.
    pub left_boundary: Option<LeafEntry>,
    /// Boundary entry immediately right of the range, if any.
    pub right_boundary: Option<LeafEntry>,
    /// The pruned digest tree.
    pub vo: EmbVo,
}

impl EmbRangeResult {
    /// All returned entries in leaf order (left boundary, matches, right).
    pub fn returned_entries(&self) -> Vec<&LeafEntry> {
        let mut out = Vec::with_capacity(self.matches.len() + 2);
        if let Some(e) = &self.left_boundary {
            out.push(e);
        }
        out.extend(self.matches.iter());
        if let Some(e) = &self.right_boundary {
            out.push(e);
        }
        out
    }
}

/// The EMB− tree.
pub struct EmbTree {
    tree: BTree<DigestAnnotator>,
    kind: DigestKind,
}

impl EmbTree {
    /// Create an empty tree.
    pub fn new(pool: BufferPool, kind: DigestKind) -> Self {
        let config = TreeConfig {
            payload_len: kind.len(),
            ann_len: kind.len(),
        };
        EmbTree {
            tree: BTree::new(pool, config, DigestAnnotator { kind }),
            kind,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// The root digest (what the owner signs together with a timestamp).
    pub fn root_digest(&self) -> Vec<u8> {
        self.tree.root_ann()
    }

    /// Insert an entry whose payload is the tuple digest.
    ///
    /// # Panics
    /// Panics if the digest length does not match the configured kind.
    pub fn insert(&mut self, key: i64, rid: u64, tuple_digest: Vec<u8>) {
        self.tree.insert(key, rid, tuple_digest);
    }

    /// Bulk-load sorted `(key, rid, tuple_digest)` entries.
    pub fn bulk_load(&mut self, entries: &[LeafEntry], fill: f64) {
        self.tree.bulk_load(entries, fill);
    }

    /// Replace a tuple digest after a record modification (propagates to
    /// the root). Returns false if the entry is absent.
    pub fn update(&mut self, key: i64, rid: u64, tuple_digest: Vec<u8>) -> bool {
        self.tree.update_payload(key, rid, tuple_digest)
    }

    /// Delete an entry (propagates to the root).
    pub fn delete(&mut self, key: i64, rid: u64) -> bool {
        self.tree.delete(key, rid)
    }

    /// Number of tree levels an update must touch (the `O(log N)` I/O cost
    /// of Section 2.2's update analysis).
    pub fn update_path_len(&self) -> usize {
        self.tree.height()
    }

    /// Authenticated range query: matching entries, boundary entries, and
    /// the pruned digest tree.
    pub fn range_with_vo(&self, lo: i64, hi: i64) -> EmbRangeResult {
        let scan = self.tree.range(lo, hi);
        // Covered (key, rid) span = boundaries inclusive.
        let lo_cov = scan
            .left_boundary
            .as_ref()
            .map(|e| (e.key, e.rid))
            .or_else(|| scan.matches.first().map(|e| (e.key, e.rid)))
            .unwrap_or((lo, 0));
        let hi_cov = scan
            .right_boundary
            .as_ref()
            .map(|e| (e.key, e.rid))
            .or_else(|| scan.matches.last().map(|e| (e.key, e.rid)))
            .unwrap_or((hi, u64::MAX));
        let vo = self.build_vo(self.tree.root_id(), lo_cov, hi_cov);
        EmbRangeResult {
            matches: scan.matches,
            left_boundary: scan.left_boundary,
            right_boundary: scan.right_boundary,
            vo,
        }
    }

    fn build_vo(&self, page: PageId, lo: (i64, u64), hi: (i64, u64)) -> EmbVo {
        // Borrow the shared decoded node from the tree's cache — VO
        // construction only clones the digests that actually enter the VO.
        let node = self.tree.read(page);
        if node.is_leaf() {
            EmbVo::collapse(
                self.kind,
                node.leaf
                    .iter()
                    .map(|e| {
                        let k = (e.key, e.rid);
                        if k >= lo && k <= hi {
                            EmbVo::Result
                        } else {
                            EmbVo::Pruned(e.payload.clone())
                        }
                    })
                    .collect(),
            )
        } else {
            let entries = &node.internal;
            let mut children = Vec::with_capacity(entries.len());
            for (i, e) in entries.iter().enumerate() {
                // Child i covers [sep_i, sep_{i+1}); child 0's lower
                // bound is -inf.
                let child_lo = if i == 0 {
                    (i64::MIN, u64::MIN)
                } else {
                    (e.key, e.rid)
                };
                let child_hi = entries
                    .get(i + 1)
                    .map(|n| (n.key, n.rid))
                    .unwrap_or((i64::MAX, u64::MAX));
                let overlaps = child_lo <= hi && child_hi > lo;
                if overlaps {
                    children.push(self.build_vo(e.child, lo, hi));
                } else {
                    children.push(EmbVo::Pruned(e.ann.clone()));
                }
            }
            EmbVo::collapse(self.kind, children)
        }
    }

    /// Client-side verification: recompute the root digest from the returned
    /// tuples' digests (in leaf order) and the VO. Returns `None` if the VO
    /// shape and the tuple count disagree; otherwise the recomputed root to
    /// compare against the owner's signed root.
    pub fn root_from_vo(
        kind: DigestKind,
        vo: &EmbVo,
        tuple_digests: &[Vec<u8>],
    ) -> Option<Vec<u8>> {
        let mut iter = tuple_digests.iter();
        let root = walk(kind, vo, &mut iter)?;
        if iter.next().is_some() {
            return None; // extra tuples not accounted for by the VO
        }
        return Some(root);

        fn walk<'a>(
            kind: DigestKind,
            vo: &EmbVo,
            tuples: &mut std::slice::Iter<'a, Vec<u8>>,
        ) -> Option<Vec<u8>> {
            match vo {
                EmbVo::Pruned(d) => {
                    if d.len() != kind.len() {
                        return None;
                    }
                    Some(d.clone())
                }
                EmbVo::Result => tuples.next().cloned(),
                EmbVo::Bin(l, r) => {
                    let dl = walk(kind, l, tuples)?;
                    let dr = walk(kind, r, tuples)?;
                    Some(kind.hash_concat([dl.as_slice(), dr.as_slice()]))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use authdb_storage::Disk;

    fn tuple_digest(kind: DigestKind, key: i64, rid: u64) -> Vec<u8> {
        let mut msg = Vec::new();
        msg.extend_from_slice(&key.to_be_bytes());
        msg.extend_from_slice(&rid.to_be_bytes());
        kind.hash(&msg)
    }

    fn build(kind: DigestKind, n: i64) -> EmbTree {
        let pool = BufferPool::new(Disk::new(), 4096);
        let mut t = EmbTree::new(pool, kind);
        let entries: Vec<LeafEntry> = (0..n)
            .map(|i| LeafEntry {
                key: i * 2,
                rid: i as u64,
                payload: tuple_digest(kind, i * 2, i as u64),
            })
            .collect();
        t.bulk_load(&entries, 2.0 / 3.0);
        t
    }

    #[test]
    fn root_digest_changes_on_update() {
        for kind in [DigestKind::Sha1, DigestKind::Sha256] {
            let mut t = build(kind, 2000);
            let before = t.root_digest();
            assert!(t.update(100, 50, kind.hash(b"new tuple content")));
            let after = t.root_digest();
            assert_ne!(before, after, "{kind:?}");
            assert_eq!(before.len(), kind.len());
        }
    }

    #[test]
    fn root_digest_changes_on_insert_and_delete() {
        let mut t = build(DigestKind::Sha256, 500);
        let d0 = t.root_digest();
        t.insert(1001, 9999, tuple_digest(DigestKind::Sha256, 1001, 9999));
        let d1 = t.root_digest();
        assert_ne!(d0, d1);
        assert!(t.delete(1001, 9999));
        let d2 = t.root_digest();
        assert_eq!(d0, d2, "deleting the inserted entry must restore the root");
    }

    #[test]
    fn range_vo_verifies() {
        let kind = DigestKind::Sha256;
        let t = build(kind, 3000);
        let res = t.range_with_vo(1000, 1100);
        assert_eq!(res.matches.len(), 51);
        assert_eq!(res.left_boundary.as_ref().unwrap().key, 998);
        assert_eq!(res.right_boundary.as_ref().unwrap().key, 1102);
        // Client recomputes tuple digests from returned tuples.
        let digests: Vec<Vec<u8>> = res
            .returned_entries()
            .iter()
            .map(|e| e.payload.clone())
            .collect();
        assert_eq!(res.vo.result_slots(), digests.len());
        let root = EmbTree::root_from_vo(kind, &res.vo, &digests).expect("well-formed VO");
        assert_eq!(root, t.root_digest());
    }

    #[test]
    fn tampered_tuple_fails_verification() {
        let kind = DigestKind::Sha256;
        let t = build(kind, 1000);
        let res = t.range_with_vo(100, 140);
        let mut digests: Vec<Vec<u8>> = res
            .returned_entries()
            .iter()
            .map(|e| e.payload.clone())
            .collect();
        digests[3] = kind.hash(b"forged tuple");
        let root = EmbTree::root_from_vo(kind, &res.vo, &digests).expect("shape ok");
        assert_ne!(root, t.root_digest());
    }

    #[test]
    fn dropped_tuple_fails_verification() {
        let kind = DigestKind::Sha256;
        let t = build(kind, 1000);
        let res = t.range_with_vo(100, 140);
        let mut digests: Vec<Vec<u8>> = res
            .returned_entries()
            .iter()
            .map(|e| e.payload.clone())
            .collect();
        digests.remove(5);
        // Either the shape check fails or the root mismatches.
        match EmbTree::root_from_vo(kind, &res.vo, &digests) {
            None => {}
            Some(root) => assert_ne!(root, t.root_digest()),
        }
    }

    #[test]
    fn embedded_mht_prunes_logarithmically() {
        // With the embedded per-node binary MHT, a point VO carries
        // O(height * log2(fanout)) digests, not O(height * fanout).
        let kind = DigestKind::Sha1;
        let t = build(kind, 100_000);
        let res = t.range_with_vo(50_000, 50_000);
        let digests = res.vo.size_bytes() / kind.len();
        let fanout = 102.0f64; // EMB- internal capacity at 20-byte digests
        let per_node = fanout.log2().ceil() + 1.0;
        let budget = (2.0 * t.height() as f64 * per_node) as usize + 8;
        assert!(
            digests <= budget,
            "VO has {digests} digests; logarithmic budget is {budget}"
        );
    }

    #[test]
    fn embedded_root_promotes_odd_and_handles_edges() {
        let kind = DigestKind::Sha256;
        assert_eq!(embedded_root(kind, &[]), kind.hash(b""));
        let d1 = kind.hash(b"one");
        assert_eq!(embedded_root(kind, &[&d1]), d1);
        let d2 = kind.hash(b"two");
        let d3 = kind.hash(b"three");
        // Three leaves: h(h(d1|d2) | d3) with the odd leaf promoted.
        let h12 = kind.hash_concat([d1.as_slice(), d2.as_slice()]);
        let expect = kind.hash_concat([h12.as_slice(), d3.as_slice()]);
        assert_eq!(embedded_root(kind, &[&d1, &d2, &d3]), expect);
    }

    #[test]
    fn point_query_vo_small() {
        let kind = DigestKind::Sha1;
        let t = build(kind, 10_000);
        let res = t.range_with_vo(5000, 5000);
        assert_eq!(res.matches.len(), 1);
        let digests: Vec<Vec<u8>> = res
            .returned_entries()
            .iter()
            .map(|e| e.payload.clone())
            .collect();
        let root = EmbTree::root_from_vo(kind, &res.vo, &digests).unwrap();
        assert_eq!(root, t.root_digest());
        // The VO must be far smaller than the whole tree's digests.
        assert!(res.vo.size_bytes() < 10_000 * kind.len() / 10);
    }

    #[test]
    fn empty_range_vo_still_verifies() {
        let kind = DigestKind::Sha256;
        let t = build(kind, 1000);
        // Keys are even; query an odd singleton range.
        let res = t.range_with_vo(501, 501);
        assert!(res.matches.is_empty());
        assert_eq!(res.left_boundary.as_ref().unwrap().key, 500);
        assert_eq!(res.right_boundary.as_ref().unwrap().key, 502);
        let digests: Vec<Vec<u8>> = res
            .returned_entries()
            .iter()
            .map(|e| e.payload.clone())
            .collect();
        let root = EmbTree::root_from_vo(kind, &res.vo, &digests).unwrap();
        assert_eq!(root, t.root_digest());
    }

    #[test]
    fn vo_after_updates_verifies() {
        let kind = DigestKind::Sha256;
        let mut t = build(kind, 2000);
        for i in 0..50i64 {
            assert!(t.update(i * 40, (i * 20) as u64, kind.hash(&i.to_be_bytes())));
        }
        let res = t.range_with_vo(0, 400);
        let digests: Vec<Vec<u8>> = res
            .returned_entries()
            .iter()
            .map(|e| e.payload.clone())
            .collect();
        let root = EmbTree::root_from_vo(kind, &res.vo, &digests).unwrap();
        assert_eq!(root, t.root_digest());
    }

    #[test]
    fn update_path_len_is_height() {
        let t = build(DigestKind::Sha1, 100_000);
        assert!(t.update_path_len() >= 3);
    }
}
