#![forbid(unsafe_code)]
//! # authdb-testkit — what only tests run
//!
//! The workspace splits by trust. `authdb-core` and `authdb-net` are what a
//! server runs (and the verifier in `authdb-core` is what a client trusts);
//! this crate and `authdb-paper` are what only tests and the paper's
//! reproduction run. The serving crates take it as a dev-dependency only,
//! so a deployment links none of the attack tooling below.
//!
//! * [`deploy`] — the one deployment fixture ([`deploy::Deployment`]: DA,
//!   honest server, verifier and pinned view, addressed by logical record
//!   id), [`deploy::serve`], which puts one behind a loopback `QsServer`,
//!   the scripted-workload vocabulary and the plain model the property
//!   suites compare against. The verifier's own suite,
//!   `crates/core/tests/verifier.rs`, runs on it too.
//! * [`adversary`] — the malicious-server conformance subsystem: the four
//!   tamper catalogs every verifier change is regression-checked against,
//!   and the shared timeline their scenarios play.
//! * [`tamper`] — the byte-level arm of the catalog: frame corruptions a
//!   malicious server or the network can apply, each pinned to the typed
//!   error it must surface as.
//! * [`fault`] — the deterministic fault-injecting proxy ([`fault::ChaosProxy`])
//!   that applies them, and the transport faults, to an honest server's
//!   responses.
//! * [`netfault`] — the network-fault catalog, and the chaos fixture
//!   ([`netfault::ChaosSystem`], built on [`deploy::serve`]) it shares with
//!   the chaos and partial-answer tests.

pub mod adversary;
pub mod deploy;
pub mod fault;
pub mod netfault;
pub mod tamper;
