//! The lint rides tier-1: `cargo test -p authdb-lint` analyzes the real
//! workspace and fails on any diagnostic or any unpinned error variant, so
//! a regression in the soundness disciplines fails the ordinary test sweep
//! even where CI does not run the dedicated lint job.

use std::path::PathBuf;

#[test]
fn workspace_is_lint_clean() {
    let root: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", ".."].iter().collect();
    let a = authdb_lint::analyze_root(&root).expect("walk workspace");
    // One coverage row per target enum: a pinned enum that is deleted or
    // renamed must fail here, not silently drop out of the table.
    let mut enums: Vec<&str> = a.coverage.iter().map(|c| c.enum_name.as_str()).collect();
    enums.dedup();
    assert_eq!(
        enums,
        authdb_lint::TARGET_ENUMS,
        "coverage rows per target enum"
    );
    let unpinned: Vec<String> = a
        .coverage
        .iter()
        .filter(|c| c.pins == 0)
        .map(|c| format!("{}::{}", c.enum_name, c.variant))
        .collect();
    assert!(unpinned.is_empty(), "unpinned error variants: {unpinned:?}");
    assert!(
        a.diagnostics.is_empty(),
        "authdb-lint diagnostics:\n{}",
        a.diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
