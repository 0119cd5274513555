//! The paper's signature-aggregation index ("ASign", Section 3.2, Figure 2).
//!
//! A B+-tree whose leaf entries are `⟨key, sn, rid⟩` — the record's search
//! key, its digital signature, and its heap rid — over *plain* internal
//! nodes. Because internal nodes carry no digests, fanout stays high and the
//! tree is one level shorter than the EMB− tree at large N (Table 1), and an
//! update touches only one leaf entry instead of a root path.
//!
//! Also hosts the analytic height model behind Table 1.

use authdb_storage::BufferPool;

use crate::btree::{BTree, NoAnnotation, TreeConfig};

/// The ASign tree: payload = signature bytes, no internal annotations.
pub type ASignTree = BTree<NoAnnotation>;

/// Layout for an ASign tree storing `sig_len`-byte signatures.
pub fn asign_config(sig_len: usize) -> TreeConfig {
    TreeConfig {
        payload_len: sig_len,
        ann_len: 0,
    }
}

/// Create an empty ASign tree (default decoded-node cache).
pub fn new_asign(pool: BufferPool, sig_len: usize) -> ASignTree {
    ASignTree::new(pool, asign_config(sig_len), NoAnnotation)
}

/// Analytic index-height model of Section 3.2 (used verbatim by Table 1).
pub mod model {
    /// Paper constants: 4-KB page, 4-byte key, 20-byte signature/digest,
    /// 4-byte rid, 4-byte pointer, 2/3 utilization.
    #[derive(Clone, Copy, Debug)]
    pub struct LayoutModel {
        /// Data entries per leaf page (paper: 146).
        pub leaf_entries: usize,
        /// Effective internal fanout at 2/3 utilization.
        pub eff_fanout: usize,
    }

    /// The paper's ASign layout: 28-byte data entries (146/page), max
    /// fanout 512, effective fanout 341.
    pub fn asign_paper() -> LayoutModel {
        LayoutModel {
            leaf_entries: 4096 / 28,
            eff_fanout: (4096 / 8) * 2 / 3,
        }
    }

    /// The paper's EMB− layout: same leaves, but internal entries carry a
    /// 20-byte digest, so effective fanout drops to 97.
    pub fn emb_paper() -> LayoutModel {
        LayoutModel {
            leaf_entries: 4096 / 28,
            eff_fanout: (4096 / 28) * 2 / 3,
        }
    }

    impl LayoutModel {
        /// Number of internal levels above the leaves for `n` records:
        /// `ceil(log_fanout(3/2 * ceil(n / leaf_entries)))` (Section 3.2).
        pub fn internal_levels(&self, n: u64) -> u32 {
            let leaves = (n.div_ceil(self.leaf_entries as u64) as f64) * 1.5;
            if leaves <= 1.0 {
                return 0;
            }
            (leaves.ln() / (self.eff_fanout as f64).ln()).ceil() as u32
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// Table 1 of the paper, verbatim.
        #[test]
        fn table_1_heights() {
            let asign = asign_paper();
            let emb = emb_paper();
            let ns: [u64; 5] = [10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];
            let asign_expect = [1, 2, 2, 2, 3];
            let emb_expect = [2, 2, 3, 3, 4];
            for (i, &n) in ns.iter().enumerate() {
                assert_eq!(asign.internal_levels(n), asign_expect[i], "ASign N={n}");
                assert_eq!(emb.internal_levels(n), emb_expect[i], "EMB- N={n}");
            }
        }

        #[test]
        fn paper_constants() {
            assert_eq!(asign_paper().leaf_entries, 146);
            assert_eq!(asign_paper().eff_fanout, 341);
            assert_eq!(emb_paper().eff_fanout, 97);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::LeafEntry;
    use authdb_storage::Disk;

    #[test]
    fn asign_tree_stores_signatures() {
        let pool = BufferPool::new(Disk::new(), 128);
        let mut t = new_asign(pool, 33);
        let sig = vec![0xAAu8; 33];
        t.insert(5, 1, sig.clone());
        assert_eq!(t.get(5, 1).unwrap().payload, sig);
        // Updating a record touches only its own leaf entry.
        let sig2 = vec![0xBBu8; 33];
        assert!(t.update_payload(5, 1, sig2.clone()));
        assert_eq!(t.get(5, 1).unwrap().payload, sig2);
    }

    #[test]
    fn bulk_loaded_asign_range() {
        let pool = BufferPool::new(Disk::new(), 1024);
        let mut t = new_asign(pool, 20);
        let entries: Vec<LeafEntry> = (0..10_000i64)
            .map(|i| LeafEntry {
                key: i,
                rid: i as u64,
                payload: vec![(i % 251) as u8; 20],
            })
            .collect();
        t.bulk_load(&entries, 2.0 / 3.0);
        let scan = t.range(5000, 5009);
        assert_eq!(scan.matches.len(), 10);
        assert_eq!(scan.left_boundary.unwrap().key, 4999);
        assert_eq!(scan.right_boundary.unwrap().key, 5010);
    }
}
