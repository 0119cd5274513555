#![forbid(unsafe_code)]
//! # authdb-crypto
//!
//! From-scratch cryptographic substrate for the `authdb` reproduction of
//! *Scalable Verification for Outsourced Dynamic Databases* (Pang, Zhang,
//! Mouratidis, VLDB 2009):
//!
//! * [`bigint`] — arbitrary-precision arithmetic (Knuth division, Montgomery
//!   exponentiation, Miller-Rabin). BN254 derives its Frobenius constants
//!   with it; the paper's Condensed-RSA baseline (`authdb_paper::rsa`)
//!   builds on it too.
//! * [`sha1`] / [`sha256`] — the one-way hashes (the paper's 160-bit digests,
//!   which the EMB− baseline uses, and the modern default, respectively).
//! * [`bn254`] — BN254 field tower, G1/G2 with wNAF scalar multiplication,
//!   and a batched ate-pairing engine: `G2Prepared` line precomputation,
//!   `multi_miller_loop` accumulation, and a shared cyclotomic final
//!   exponentiation (see the [`bn254`] module docs for the pipeline).
//! * [`bls`] — BLS signatures over BN254 with aggregation: the paper's
//!   Bilinear Aggregate Signature ("BAS") scheme. Verification is a single
//!   multi-pairing against the precomputed public key and generator.
//! * [`signer`] — the pluggable aggregate-signature abstraction the rest of
//!   the workspace consumes.

pub mod bigint;
pub mod bls;
pub mod bn254;
pub mod sha1;
pub mod sha256;
pub mod signer;
