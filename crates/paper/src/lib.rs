#![forbid(unsafe_code)]
//! # authdb-paper
//!
//! What only the paper's tables and figures run: the baselines BAS is
//! measured against, the models behind the evaluation, the workload
//! generators, and the two query kinds no deployment serves — the §3.4
//! projection and the §3.5 join, reproduced in process. It depends on the
//! serving crates and none of them depends on it, so a deployment never
//! links it.
//!
//! | module | reproduces | run by |
//! |---|---|---|
//! | [`rsa`] | Condensed RSA, Table 3 | `table3`, `crypto_micro` |
//! | `bigint` (private) | RSA's modular arithmetic: `modexp`, `modinv`, Miller–Rabin, Montgomery | [`rsa`] |
//! | [`embsys`] | the EMB− system, Table 4 | `table4`, `tests/end_to_end.rs` |
//! | [`sigcache`] | Section 4 signature cache, Figs. 6 and 10 | `fig6`, `fig10`, the `sigcache_tuning` example, `tests/properties.rs` |
//! | [`des`] | Section 5 event engine, Figs. 7, 9 and 10 | `fig7`, `fig9`, `fig10` |
//! | [`models`] | EMB−/BAS transaction programs, Figs. 7 and 9 | `fig7`, `fig9`, `fig10` |
//! | [`asign`] | index-height model, Table 1 | `table1` |
//! | [`join`] | authenticated equi-join (BV and BF absence proofs), Section 3.5, Figs. 4 and 11 | `fig4`, `fig11`, the `join_audit` example |
//! | [`bloom`] | Bloom filters, Section 2.1 | `join`, `tests/properties.rs` |
//! | [`partitioned`] | certified partitioned Bloom filters, Section 3.5 | `join`, `fig11` |
//! | [`projection`] | per-attribute signing and one-signature projections, Section 3.4 | `tests/end_to_end.rs`, `tests/honest_conformance.rs` |
//! | [`workload`] | uniform, Poisson-arrival, cardinality and TPC-E-like generators, Section 5.1 | `fig10`, `fig11`, the `join_audit` example |
//!
//! Four baselines still live in the serving crates, because moving them
//! today would widen or fork what a deployment runs. Each moves here once
//! the serving index stops being a paged B+-tree:
//!
//! * `authdb_index::emb` — the EMB− tree reads the B+-tree's crate-private
//!   node layout;
//! * `authdb_crypto::sha1` — EMB's 160-bit digest;
//! * `authdb_crypto::bigint::BigUint` — BN254 derives its Frobenius
//!   constants with it at runtime (its RSA-only arithmetic is already
//!   here, in `bigint`);
//! * `authdb-storage` and `authdb_index::btree` — the serving engines' page
//!   store and index.

pub mod asign;
mod bigint;
pub mod bloom;
pub mod des;
pub mod embsys;
pub mod join;
pub mod models;
pub mod partitioned;
pub mod projection;
pub mod rsa;
pub mod sigcache;
pub mod workload;
