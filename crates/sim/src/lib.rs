#![forbid(unsafe_code)]
//! # authdb-sim
//!
//! The operation cost model and the wire model (both in [`cost`]):
//! per-operation crypto costs measured from this workspace's real
//! implementations ([`cost::CostModel::measure`]) or the paper-calibrated
//! [`cost::CostModel::pinned`] constants, and the byte-exact size model of
//! every wire message ([`cost::wire_model`]). The Section 5
//! discrete-event simulator that runs on these costs is the paper's, and
//! lives in `authdb_paper::{des, models}`.

pub mod cost;

pub use cost::CostModel;
