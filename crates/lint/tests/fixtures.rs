//! Self-test corpus: every known-bad fixture must produce *exactly* the
//! expected diagnostic (right rule, right count), and every known-good
//! fixture must pass clean. A single-file fixture is analyzed in isolation
//! under a synthetic workspace path that puts it in the scope the rule
//! targets; the whole-workspace rules (`serving-surface`,
//! `unused-dependency`) read a fixture directory laid out as a workspace.

use std::fs;
use std::path::PathBuf;

use authdb_lint::rules::{
    analyze, RULE_CASTS, RULE_CATALOG, RULE_CLOCK, RULE_DECODE, RULE_DEPS, RULE_DOMAIN,
    RULE_SURFACE, RULE_WAIVER,
};
use authdb_lint::{analyze_root, FileModel};

fn fixture_path(dir: &str, name: &str) -> PathBuf {
    [env!("CARGO_MANIFEST_DIR"), "testdata", dir, name]
        .iter()
        .collect()
}

fn fixture(dir: &str, name: &str) -> String {
    let path = fixture_path(dir, name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// (fixture file, synthetic workspace path, expected rule, expected count)
const BAD: [(&str, &str, &str, usize); 8] = [
    (
        "panicking_decode.rs",
        "crates/core/src/fixture.rs",
        RULE_DECODE,
        1,
    ),
    (
        "indexing_opening.rs",
        "crates/core/src/fixture.rs",
        RULE_DECODE,
        1,
    ),
    (
        "unpinned_unopened.rs",
        "crates/core/src/verify.rs",
        RULE_CATALOG,
        1,
    ),
    (
        "truncating_cast.rs",
        "crates/core/src/fixture.rs",
        RULE_CASTS,
        1,
    ),
    (
        "unbound_message.rs",
        "crates/core/src/fixture.rs",
        RULE_DOMAIN,
        1,
    ),
    (
        "unjustified_waiver.rs",
        "crates/core/src/fixture.rs",
        RULE_WAIVER,
        1,
    ),
    ("wall_clock.rs", "crates/core/src/verify.rs", RULE_CLOCK, 1),
    (
        "unpinned_variant.rs",
        "crates/core/src/verify.rs",
        RULE_CATALOG,
        1,
    ),
];

const GOOD: [(&str, &str); 3] = [
    ("clean_decode.rs", "crates/core/src/fixture.rs"),
    ("waived_index.rs", "crates/core/src/fixture.rs"),
    ("bound_message.rs", "crates/core/src/fixture.rs"),
];

#[test]
fn bad_fixtures_produce_exactly_the_expected_diagnostic() {
    for (name, rel, rule, count) in BAD {
        let model = FileModel::build(rel, &fixture("bad", name));
        let a = analyze(&[model], &[]);
        let matching = a.diagnostics.iter().filter(|d| d.rule == rule).count();
        assert_eq!(
            matching, count,
            "{name}: expected {count} `{rule}` diagnostic(s), got {:#?}",
            a.diagnostics
        );
        assert_eq!(
            a.diagnostics.len(),
            count,
            "{name}: unexpected extra diagnostics: {:#?}",
            a.diagnostics
        );
    }
}

#[test]
fn good_fixtures_pass_clean() {
    for (name, rel) in GOOD {
        let model = FileModel::build(rel, &fixture("good", name));
        let a = analyze(&[model], &[]);
        assert!(
            a.diagnostics.is_empty(),
            "{name}: expected clean, got {:#?}",
            a.diagnostics
        );
    }
}

#[test]
fn waived_fixture_reports_the_waiver_justification() {
    let model = FileModel::build(
        "crates/core/src/fixture.rs",
        &fixture("good", "waived_index.rs"),
    );
    let a = analyze(&[model], &[]);
    assert!(!a.waived.is_empty());
    for (d, why) in &a.waived {
        assert_eq!(d.rule, RULE_DECODE);
        assert!(why.contains("exactly two bytes"), "{why}");
    }
}

/// (fixture workspace, expected rule, expected count)
const BAD_WORKSPACES: [(&str, &str, usize); 2] = [
    ("surface_test_only", RULE_SURFACE, 1),
    ("unused_dependency", RULE_DEPS, 1),
];

const GOOD_WORKSPACES: [&str; 2] = ["surface_callers", "dependency_uses"];

#[test]
fn bad_workspaces_produce_exactly_the_expected_diagnostic() {
    for (name, rule, count) in BAD_WORKSPACES {
        let a = analyze_root(&fixture_path("bad", name)).expect("walk fixture");
        assert!(
            a.diagnostics.len() == count && a.diagnostics.iter().all(|d| d.rule == rule),
            "{name}: expected {count} `{rule}` diagnostic(s), got {:#?}",
            a.diagnostics
        );
    }
}

#[test]
fn the_test_only_hook_is_the_finding() {
    let a = analyze_root(&fixture_path("bad", "surface_test_only")).expect("walk fixture");
    assert!(
        a.diagnostics
            .iter()
            .all(|d| d.file == "crates/core/src/da.rs" && d.msg.contains("`hook`")),
        "{:#?}",
        a.diagnostics
    );
}

#[test]
fn good_workspaces_pass_clean_and_honour_their_waivers() {
    for name in GOOD_WORKSPACES {
        let a = analyze_root(&fixture_path("good", name)).expect("walk fixture");
        assert!(
            a.diagnostics.is_empty(),
            "{name}: expected clean, got {:#?}",
            a.diagnostics
        );
        assert_eq!(a.waived.len(), 1, "{name}: one waiver, used");
    }
}
