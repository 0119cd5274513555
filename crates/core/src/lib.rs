#![forbid(unsafe_code)]
//! # authdb-core
//!
//! The paper's primary contribution: scalable query-answer verification for
//! outsourced dynamic databases over signature aggregation.
//!
//! There is one deployment shape. A [`shard::ShardedAggregator`] mints a
//! deployment from a [`da::DaConfig`] and a list of split keys — none for
//! the paper's single relation image: one shard at the genesis epoch, fenced
//! at ±∞ — certifies the partition as a signed [`shard::ShardMap`], and mints
//! the other two parties ([`shard::ShardedAggregator::replica`],
//! [`shard::ShardedAggregator::verifier`] and
//! [`shard::ShardedAggregator::epoch_view`]). A [`shard::ShardedQueryServer`]
//! is the only server, and every answer is verified under the client's
//! pinned [`verify::EpochView`].
//!
//! * [`record`] — records `⟨rid, A1..AM, ts⟩` and signing messages.
//! * [`freshness`] — certified bitmap update summaries and empty-table
//!   proofs (Section 3.1).
//! * [`shard`] — the deployment: the DA-signed shard map, routed updates,
//!   per-shard chains with seam fences, epoch rebalancing, and the
//!   fanned-out query server whose proofs the verifier stitches.
//! * [`da`] — one shard's trusted signing engine: certification, chaining,
//!   summaries, checkpoints, active renewal.
//! * [`qs`] — one shard's untrusted proof-constructing engine: selections,
//!   projections, and the ingest of what its DA engine emits.
//! * [`join`] — authenticated equi-joins over two certified relations.
//! * [`verify`] — the client-side verifier (threat model documented there):
//!   one epoch-gated stitch → fold → freshness pipeline behind the single,
//!   partial and batched selection entry points.
//! * [`adversary`] — the malicious-server conformance subsystem: the tamper
//!   catalogs every verifier change is regression-checked against, and the
//!   timeline fixture ([`adversary::sharded_system`]) the scripted scenarios
//!   here and in `authdb-net` share.
//! * [`wire`] — canonical wire codecs for every proof-carrying type and
//!   the QS request/response protocol (served over TCP by `authdb-net`).

pub mod adversary;
pub mod da;
pub mod freshness;
pub mod join;
pub mod qs;
pub mod record;
pub mod shard;
pub mod verify;
pub mod wire;
