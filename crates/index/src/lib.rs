#![forbid(unsafe_code)]
//! # authdb-index
//!
//! Authenticated index structures (paper Section 3.2):
//!
//! * [`btree`] — disk-based B+-tree engine with pluggable per-node
//!   annotations. The live engines run it as a plain `⟨key, rid⟩` index and
//!   keep each record's signature decoded by rid beside it, not in the
//!   leaf as Figure 2 does, so a query never decompresses a G1 point.
//! * [`asign`] — the analytic height model behind Table 1 for the paper's
//!   `⟨key, sn, rid⟩` signature-aggregation index.
//! * [`emb`] — the Embedded Merkle B-tree (EMB−) baseline \[18\] with range
//!   VO construction and root-digest maintenance.

pub mod asign;
pub mod btree;
pub mod emb;

pub use btree::{
    BTree, LeafEntry, NodeCacheStats, RangeEvent, RangeScan, TreeConfig, DEFAULT_NODE_CACHE,
};
pub use emb::{DigestKind, EmbRangeResult, EmbTree, EmbVo};
