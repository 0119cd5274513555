//! Table 1: Height of Index Tree versus N — ASign vs EMB−.
//!
//! Reproduces the analytic model verbatim (paper layout constants: 28-byte
//! data entries, effective fanouts 341 / 97), then cross-checks with real
//! trees bulk-loaded at the smaller N values (our entries are 8-byte keys /
//! rids, so absolute fanouts differ; the ASign-shorter-than-EMB− shape is
//! what matters).

use authdb_bench::{banner, csv_begin, csv_end, full_scale};
use authdb_index::btree::{BTree, LeafEntry, NoAnnotation, TreeConfig};
use authdb_index::emb::{DigestKind, EmbTree};
use authdb_paper::asign::model;
use authdb_storage::{BufferPool, Disk};

fn real_heights(n: usize) -> (usize, usize) {
    let entries: Vec<LeafEntry> = (0..n as i64)
        .map(|i| LeafEntry {
            key: i,
            rid: i as u64,
            payload: vec![0u8; 20],
        })
        .collect();
    let pool = BufferPool::new(Disk::new(), 512);
    let mut asign = BTree::new(
        pool,
        TreeConfig {
            payload_len: 20,
            ann_len: 0,
        },
        NoAnnotation,
    );
    asign.bulk_load(&entries, 2.0 / 3.0);

    let pool = BufferPool::new(Disk::new(), 512);
    let mut emb = EmbTree::new(pool, DigestKind::Sha1);
    let demb: Vec<LeafEntry> = entries
        .iter()
        .map(|e| LeafEntry {
            key: e.key,
            rid: e.rid,
            payload: DigestKind::Sha1.hash(&e.key.to_be_bytes()),
        })
        .collect();
    emb.bulk_load(&demb, 2.0 / 3.0);
    (asign.height(), emb.height())
}

fn main() {
    banner("Table 1", "Height of Index Tree versus N");
    let asign = model::asign_paper();
    let emb = model::emb_paper();
    let ns: [u64; 5] = [10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

    println!("\nAnalytic model (paper constants: 146 entries/leaf, fanout 341 vs 97):");
    println!("{:>12} | {:>6} | {:>6}", "N", "ASign", "EMB-");
    println!("{:->12}-+-{:->6}-+-{:->6}", "", "", "");
    csv_begin("n,asign_levels,emb_levels");
    let paper_asign = [1, 2, 2, 2, 3];
    let paper_emb = [2, 2, 3, 3, 4];
    for (i, &n) in ns.iter().enumerate() {
        let a = asign.internal_levels(n);
        let e = emb.internal_levels(n);
        println!("{n:>12} | {a:>6} | {e:>6}");
        assert_eq!(a, paper_asign[i], "ASign mismatch vs paper at N={n}");
        assert_eq!(e, paper_emb[i], "EMB- mismatch vs paper at N={n}");
        println!("{n},{a},{e}");
    }
    csv_end();
    println!("(matches the paper's Table 1 exactly)");

    println!("\nMeasured heights of real bulk-loaded trees (total levels incl. leaf):");
    println!("{:>12} | {:>6} | {:>6}", "N", "ASign", "EMB-");
    println!("{:->12}-+-{:->6}-+-{:->6}", "", "", "");
    csv_begin("n,asign_height,emb_height");
    let mut real_ns = vec![10_000usize, 100_000];
    if full_scale() {
        real_ns.push(1_000_000);
    }
    for n in real_ns {
        let (a, e) = real_heights(n);
        println!("{n:>12} | {a:>6} | {e:>6}");
        println!("{n},{a},{e}");
        assert!(e >= a, "EMB- must never be shorter than ASign");
    }
    csv_end();
}
