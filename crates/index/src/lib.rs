#![forbid(unsafe_code)]
//! # authdb-index
//!
//! Authenticated index structures (paper Section 3.2):
//!
//! * [`btree`] — disk-based B+-tree engine with pluggable per-node
//!   annotations.
//! * [`asign`] — the paper's signature-aggregation index: `⟨key, sn, rid⟩`
//!   leaves over plain internal nodes, plus the analytic height model behind
//!   Table 1.
//! * [`emb`] — the Embedded Merkle B-tree (EMB−) baseline \[18\] with range
//!   VO construction and root-digest maintenance.

pub mod asign;
pub mod btree;
pub mod emb;

pub use asign::{asign_config, new_asign, ASignTree};
pub use btree::{
    BTree, LeafEntry, NodeCacheStats, RangeEvent, RangeScan, TreeConfig, DEFAULT_NODE_CACHE,
};
pub use emb::{DigestKind, EmbRangeResult, EmbTree, EmbVo};
