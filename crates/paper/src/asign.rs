//! The analytic index-height model behind Table 1 (Section 3.2).
//!
//! The paper's signature-aggregation index ("ASign", Figure 2) is a B+-tree
//! whose leaf entries are `⟨key, sn, rid⟩` — the record's search key, its
//! digital signature, and its heap rid — over *plain* internal nodes.
//! Because internal nodes carry no digests, fanout stays high and the tree
//! is one level shorter than the EMB− tree at large N (Table 1), and an
//! update touches only one leaf entry instead of a root path.
//!
//! The live engines deviate from Figure 2 by keeping signatures decoded by
//! rid beside a plain `⟨key, rid⟩` [`BTree`](authdb_index::BTree), so a
//! query never decompresses a G1 point; this module keeps the paper's
//! layout only as the model Table 1 evaluates.

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
