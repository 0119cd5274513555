#![forbid(unsafe_code)]
//! # authdb-crypto
//!
//! From-scratch cryptographic substrate for the `authdb` reproduction of
//! *Scalable Verification for Outsourced Dynamic Databases* (Pang, Zhang,
//! Mouratidis, VLDB 2009):
//!
//! * [`bigint`] — arbitrary-precision arithmetic (Knuth division, Montgomery
//!   exponentiation, Miller-Rabin).
//! * [`sha1`] / [`sha256`] — the one-way hashes (the paper's 160-bit digests
//!   and the modern default, respectively).
//! * [`rsa`] — RSA + Condensed-RSA signature aggregation: the Table 3
//!   baseline the paper measures BAS against, not a scheme [`signer`] offers.
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
pub mod rsa;
pub mod sha1;
pub mod sha256;
pub mod signer;
