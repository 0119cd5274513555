#![forbid(unsafe_code)]
//! # authdb-core
//!
//! The paper's primary contribution: scalable query-answer verification for
//! outsourced dynamic databases over signature aggregation.
//!
//! * [`record`] — records `⟨rid, A1..AM, ts⟩` and signing messages.
//! * [`freshness`] — certified bitmap update summaries and empty-table
//!   proofs (Section 3.1).
//! * [`da`] — the trusted Data Aggregator: certification, chaining,
//!   summaries, active renewal. A deployment is described once, in its
//!   [`da::DaConfig`]; the aggregator mints the other two parties from it
//!   ([`da::DataAggregator::replica`], [`da::DataAggregator::verifier`]).
//! * [`qs`] — the untrusted Query Server: one shard's replica, proof
//!   construction for selections and projections, and the single-call
//!   ingest of what the DA emits ([`qs::QueryServer::apply_all`],
//!   [`qs::QueryServer::ingest`]).
//! * [`join`] — authenticated equi-joins over two certified relations.
//! * [`verify`] — the client-side verifier (threat model documented there),
//!   including batched multi-answer verification.
//! * [`adversary`] — the malicious-server conformance subsystem: a tamper
//!   catalog (single-server and cross-shard) every verifier change is
//!   regression-checked against, and the sharded timeline fixture
//!   ([`adversary::sharded_system`]) the scripted scenarios here and in
//!   `authdb-net` share.
//! * [`shard`] — key-range partitioning: the DA-signed shard map, routed
//!   updates, per-shard chains with seam fences, and the fanned-out query
//!   server whose proofs the verifier stitches. The sharded aggregator
//!   mints its replica, verifier and client view
//!   ([`shard::ShardedAggregator::replica`]).
//! * [`sigcache`] — the Section 4 aggregate-signature cache, wired into
//!   [`qs::QueryServer::select_range`] via [`qs::AggCacheConfig`].
//! * [`wire`] — canonical wire codecs for every proof-carrying type and
//!   the QS request/response protocol (served over TCP by `authdb-net`).
//! * [`policy`] — the load-driven auto-rebalance policy (when to split or
//!   merge shards).
//! * [`embsys`] — the EMB− baseline system the paper compares against.

pub mod adversary;
pub mod da;
pub mod embsys;
pub mod freshness;
pub mod join;
pub mod policy;
pub mod qs;
pub mod record;
pub mod shard;
pub mod sigcache;
pub mod verify;
pub mod wire;
