//! Just enough of a `Cargo.toml` for the `unused-dependency` rule.
//!
//! The analyzer has no TOML parser (the build runs without crates.io), and
//! it needs only the names and lines of the `[dependencies]` and
//! `[dev-dependencies]` entries plus the waiver comments above them. Both
//! spellings cargo accepts are read: `name = …` / `name.workspace = true`
//! lines inside the table, and a `[dependencies.name]` table header.

use crate::scan::{parse_waiver, Waiver};

/// One dependency entry.
#[derive(Clone, Debug)]
pub struct Dep {
    /// Package name as written (`authdb-crypto`).
    pub name: String,
    /// 1-based line of the entry.
    pub line: u32,
    /// Whether it sits in `[dev-dependencies]`.
    pub dev: bool,
}

impl Dep {
    /// The name code spells it by (`authdb_crypto`).
    pub fn code_name(&self) -> String {
        self.name.replace('-', "_")
    }
}

/// Scanned model of one `Cargo.toml`.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Workspace-relative path of the manifest.
    pub rel: String,
    /// Package directory, workspace-relative: `""` for the root,
    /// otherwise ending in `/`.
    pub dir: String,
    /// Normal and dev dependency entries.
    pub deps: Vec<Dep>,
    /// Parsed `# authdb-lint: allow(<rule>): <why>` comments.
    pub waivers: Vec<Waiver>,
    /// Waiver-shaped comments that failed to parse or lack justification.
    pub bad_waivers: Vec<(u32, String)>,
}

impl Manifest {
    /// Scan one manifest's text.
    pub fn build(rel: &str, src: &str) -> Manifest {
        let rel = rel.replace('\\', "/");
        let dir = rel.strip_suffix("Cargo.toml").unwrap_or("").to_string();
        let mut m = Manifest {
            rel,
            dir,
            deps: Vec::new(),
            waivers: Vec::new(),
            bad_waivers: Vec::new(),
        };
        // `Some(dev)` inside a dependency table, `None` elsewhere.
        let mut table: Option<bool> = None;
        for (n, raw) in src.lines().enumerate() {
            let line = u32::try_from(n + 1).unwrap_or(u32::MAX);
            let text = raw.trim();
            if let Some(comment) = text.strip_prefix('#') {
                if let Some(rest) = comment.trim().strip_prefix("authdb-lint") {
                    match parse_waiver(rest) {
                        Some((rule, justification)) if !justification.is_empty() => {
                            m.waivers.push(Waiver {
                                rule,
                                justification,
                                line,
                            });
                        }
                        _ => m.bad_waivers.push((
                            line,
                            "malformed waiver comment (expected `# authdb-lint: allow(<rule>): <why>`)"
                                .to_string(),
                        )),
                    }
                }
                continue;
            }
            if let Some(header) = text.strip_prefix('[') {
                let header = header.trim_end_matches(']').trim();
                let (section, key) = header.split_once('.').unwrap_or((header, ""));
                table = match section {
                    "dependencies" => Some(false),
                    "dev-dependencies" => Some(true),
                    _ => None,
                };
                if let (Some(dev), false) = (table, key.is_empty()) {
                    m.deps.push(Dep {
                        name: key.trim_matches('"').to_string(),
                        line,
                        dev,
                    });
                    table = None; // the keys below are the entry's fields
                }
                continue;
            }
            let Some(dev) = table else { continue };
            let key = text.split(['=', '.']).next().unwrap_or("").trim();
            if !key.is_empty() {
                m.deps.push(Dep {
                    name: key.trim_matches('"').to_string(),
                    line,
                    dev,
                });
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_spellings_and_waivers() {
        let src = "\
[package]
name = \"x\"

[dependencies]
authdb-wire.workspace = true
# authdb-lint: allow(unused-dependency): held by the pinned lock
rand = { path = \"../vendor/rand\" }

[dependencies.parking_lot]
workspace = true

[dev-dependencies]
proptest.workspace = true
";
        let m = Manifest::build("crates/x/Cargo.toml", src);
        assert_eq!(m.dir, "crates/x/");
        let deps: Vec<(&str, u32, bool)> = m
            .deps
            .iter()
            .map(|d| (d.name.as_str(), d.line, d.dev))
            .collect();
        assert_eq!(
            deps,
            [
                ("authdb-wire", 5, false),
                ("rand", 7, false),
                ("parking_lot", 9, false),
                ("proptest", 13, true)
            ]
        );
        assert_eq!(m.waivers.len(), 1);
        assert!(m.waivers.first().is_some_and(|w| w.line == 6));
        assert_eq!(Manifest::build("Cargo.toml", "").dir, "");
    }
}
