#![forbid(unsafe_code)]
//! `authdb-lint`: the workspace's soundness-discipline static analyzer.
//!
//! The soundness story of this repo rests on disciplines that used to be
//! enforced only by convention: decode paths must never panic, every proof
//! failure mode must be exercised by the adversary catalog, and every
//! signed message must bind its domain. This crate turns those promises
//! into machine-checked invariants. It is a hand-rolled, comment- and
//! string-aware lexer ([`lexer`]) plus an item-scoped scanner ([`scan`])
//! and rule engine ([`rules`]) — no `syn`, no crates.io dependencies — run
//! three ways:
//!
//! - `cargo run -p authdb-lint -- --workspace` (the CI gate; exits 1 on
//!   any diagnostic),
//! - `cargo test -p authdb-lint` (self-tests plus a workspace-clean test,
//!   so the lint rides the tier-1 sweep),
//! - as a library, for the fixture tests.
//!
//! # Rule reference
//!
//! ## `panic-free-decode`
//!
//! No `unwrap`, `expect`, `panic!`, `unreachable!`, `todo!`,
//! `unimplemented!`, and no direct index/slice expressions (`x[i]`,
//! `&x[..n]`) in any code reachable from the untrusted-input pipeline:
//! `WireDecode` impls, the wire `Reader` helpers and framing entry points
//! (`deframe`, `decode_frame`, `frame_body_len`), and the verifier claim
//! pipeline (`Verifier` methods — the stitcher and its entry points —
//! `analyze_selection`, the claim collection, fold-order and
//! transcript-coefficient helpers beside them — `Analyzed`, `SigClaim`,
//! `ClaimKind`, `TranscriptRng`, `claim_order`, `transcript_digest` — the
//! client's epoch pin `EpochView`, a checkpoint's exposure opening
//! `Exposure`, the join verifier `verify_join`, and everything they call,
//! by call-graph closure over the `wire` and `core` crates).
//!
//! *Why:* these paths run on attacker-controlled bytes and on answers from
//! an untrusted server. A reachable panic is a denial-of-service primitive
//! (PR 4's "panic-free decoding" contract); every malformed input must
//! surface as a typed `WireError`/`VerifyError` the catalog can pin.
//! `assert!`/`debug_assert!` are deliberately allowed — they express local
//! invariants on trusted state, not reactions to input. The closure is
//! not expanded into the `crypto` crate (fixed-limb field arithmetic
//! indexes arrays pervasively and has its own test discipline), but decode
//! entry points defined there are still body-scanned.
//!
//! ## `checked-length-casts`
//!
//! No truncating `as u8`/`as u16`/`as u32` casts in wire code (the whole
//! of `crates/wire/src/lib.rs` and `crates/core/src/wire.rs`, plus every
//! `encode_into`/`decode_from` body anywhere). Lengths must go through
//! `u32::try_from` (or the `authdb_wire::wire_u32` helper) so oversize
//! collections surface as a typed `WireError::Oversize` error
//! instead of silently encoding a wrapped count that the decoder then
//! misparses.
//!
//! ## `catalog-coverage`
//!
//! Every variant of `VerifyError`, `QueryError`, `WireError`, and
//! `NetError` must be *pinned* — referenced as an expected error — by at
//! least one adversary-catalog arm (`adversary.rs`, `netfault.rs`,
//! `tamper.rs`) or test (integration tests, benches, or `#[cfg(test)]`
//! modules). An error variant no attack strategy and no test can produce
//! is either dead code or, worse, a failure mode whose detection logic has
//! never been exercised. Bare variant names count when the file imports
//! the enum (the catalog's `use VerifyError::*` style).
//!
//! ## `domain-binding`
//!
//! Every sign-message builder (a non-test fn whose name contains
//! `message`) must bind the domain it signs over: reference an
//! epoch/shard identifier, embed a byte-string domain tag, or delegate to
//! another builder that does. Domain tags must be unique across builders —
//! two message kinds sharing a tag means a signature for one can be
//! replayed as the other (the classic cross-protocol substitution the
//! paper's signature-chaining scheme exists to prevent).
//!
//! ## `no-wall-clock-in-verify`
//!
//! No `Instant`/`SystemTime` in `verify.rs`/`freshness.rs` production
//! code or anywhere in the rule-1 closure. Freshness verdicts must take
//! the reference time as an argument so verification stays a pure
//! function of (answer, proof, clock) — reproducible in tests and in
//! dispute resolution.
//!
//! # Waivers
//!
//! A violation that is provably safe can be waived on its own line or the
//! line above:
//!
//! ```text
//! // authdb-lint: allow(panic-free-decode): index bounded by the check above
//! ```
//!
//! The justification after the trailing `:` is mandatory — a bare
//! `allow(...)` is itself a diagnostic, as are waivers naming unknown
//! rules and stale waivers that no longer match a violation. Waivers are
//! per-line and per-rule; there is no file-level or crate-level opt-out.

pub mod lexer;
pub mod rules;
pub mod scan;

use std::fs;
use std::path::{Path, PathBuf};

pub use rules::{analyze, Analysis, Diagnostic, VariantCoverage, RULES, TARGET_ENUMS};
pub use scan::FileModel;

/// Directory names never descended into when walking a workspace.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", "testdata", ".git", ".github"];

/// Collect every first-party `.rs` file under `root`, workspace-relative.
///
/// Skips `target/`, vendored stubs (`crates/vendor/`), the lint's own
/// fixture corpus (`testdata/`), and VCS metadata. The returned paths are
/// sorted for deterministic output.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Build [`FileModel`]s for every workspace file under `root` and run the
/// full analysis.
pub fn analyze_root(root: &Path) -> std::io::Result<Analysis> {
    let files = workspace_files(root)?;
    let mut models = Vec::with_capacity(files.len());
    for rel in &files {
        let src = fs::read_to_string(root.join(rel))?;
        models.push(FileModel::build(
            &rel.to_string_lossy().replace('\\', "/"),
            &src,
        ));
    }
    Ok(analyze(&models))
}
