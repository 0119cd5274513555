#![forbid(unsafe_code)]
//! # authdb-sim
//!
//! The operation cost model and the wire and retry models (all in
//! [`cost`]): per-operation crypto costs measured from this workspace's real
//! implementations ([`cost::CostModel::measure`]) or the paper-calibrated
//! [`cost::CostModel::pinned`] constants, the byte-exact size model of every
//! wire message ([`cost::wire_model`]), and the expected-attempts model of
//! the retrying fan-out ([`cost::retry_model`]). The Section 5
//! discrete-event simulator that runs on these costs is the paper's, and
//! lives in `authdb_paper::{des, models}`.

pub mod cost;

pub use cost::CostModel;
