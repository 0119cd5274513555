#![forbid(unsafe_code)]
//! # authdb-paper
//!
//! What only the paper's tables and figures run: the baselines BAS is
//! measured against and the models behind the evaluation. It depends on the
//! serving crates and none of them depends on it, so a deployment never
//! links it.
//!
//! | module | reproduces | run by |
//! |---|---|---|
//! | [`rsa`] | Condensed RSA, Table 3 | `table3`, `crypto_micro` |
//! | [`embsys`] | the EMB− system, Table 4 | `table4`, `tests/end_to_end.rs` |
//! | [`sigcache`] | Section 4 signature cache, Figs. 6 and 10 | `fig6`, `fig10`, the `sigcache_tuning` example, `tests/properties.rs` |
//! | [`des`] | Section 5 event engine, Figs. 7, 9 and 10 | `fig7`, `fig9`, `fig10` |
//! | [`models`] | EMB−/BAS transaction programs, Figs. 7 and 9 | `fig7`, `fig9`, `fig10` |
//! | [`asign`] | index-height model, Table 1 | `table1` |
//!
//! Four baselines still live in the serving crates, because moving them
//! today would widen or fork what a deployment runs. Each moves here once
//! the serving index stops being a paged B+-tree:
//!
//! * `authdb_index::emb` — the EMB− tree reads the B+-tree's crate-private
//!   node layout;
//! * `authdb_crypto::sha1` — EMB's 160-bit digest;
//! * `authdb_crypto::bigint` — BN254 derives its Frobenius constants with
//!   it at runtime;
//! * `authdb-storage` and `authdb_index::btree` — the serving engines' page
//!   store and index.

pub mod asign;
pub mod des;
pub mod embsys;
pub mod models;
pub mod rsa;
pub mod sigcache;
