//! The five soundness rules, the call-graph closure, and waiver handling.
//!
//! See the crate docs ([`crate`]) for the rule reference. This module turns
//! a set of [`FileModel`]s into an [`Analysis`]: surviving diagnostics,
//! waived diagnostics (with their justifications), and the adversary-
//! catalog coverage table.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use crate::lexer::TokKind;
use crate::scan::{FileKind, FileModel, FnItem};

/// Rule name: panic-free decoding and claim analysis.
pub const RULE_DECODE: &str = "panic-free-decode";
/// Rule name: no truncating length casts in wire code.
pub const RULE_CASTS: &str = "checked-length-casts";
/// Rule name: every error variant pinned by the adversary catalog or a test.
pub const RULE_CATALOG: &str = "catalog-coverage";
/// Rule name: every sign-message builder binds its domain.
pub const RULE_DOMAIN: &str = "domain-binding";
/// Rule name: no wall-clock reads in pure verification code.
pub const RULE_CLOCK: &str = "no-wall-clock-in-verify";
/// Pseudo-rule for malformed/stale waiver comments (not waivable).
pub const RULE_WAIVER: &str = "waiver";

/// All waivable rule names.
pub const RULES: [&str; 5] = [
    RULE_DECODE,
    RULE_CASTS,
    RULE_CATALOG,
    RULE_DOMAIN,
    RULE_CLOCK,
];

/// Error enums whose variants must each be pinned by the adversary catalog
/// or a test (rule `catalog-coverage`).
pub const TARGET_ENUMS: [&str; 4] = ["VerifyError", "QueryError", "WireError", "NetError"];

/// One `file:line` finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name.
    pub rule: &'static str,
    /// Human-readable message.
    pub msg: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Pin count for one error-enum variant.
#[derive(Clone, Debug)]
pub struct VariantCoverage {
    /// Enum name.
    pub enum_name: String,
    /// Variant name.
    pub variant: String,
    /// File defining the enum.
    pub file: String,
    /// Line of the variant.
    pub line: u32,
    /// Number of pin sites (catalog arms + test references).
    pub pins: usize,
}

/// Full analysis result.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Diagnostics that survived waivers, sorted by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Waived diagnostics with their justification text.
    pub waived: Vec<(Diagnostic, String)>,
    /// Coverage table for [`TARGET_ENUMS`], in declaration order.
    pub coverage: Vec<VariantCoverage>,
}

/// Idents that may legitimately precede `[` without it being an index or
/// slice expression (bindings, patterns, type positions).
const NON_INDEX_PREFIX: [&str; 18] = [
    "let", "mut", "ref", "in", "return", "if", "else", "match", "move", "as", "const", "static",
    "break", "continue", "where", "loop", "box", "dyn",
];

/// Control keywords that look like calls when followed by `(`.
const NOT_CALLS: [&str; 7] = ["if", "while", "match", "for", "return", "loop", "in"];

/// Panicking method names (exact: `unwrap_or` etc. are different idents).
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
/// Panicking macros.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
/// Wall-clock types forbidden in pure verification code.
const CLOCK_TYPES: [&str; 2] = ["Instant", "SystemTime"];

/// Crates inside which the call graph is expanded. Crypto is deliberately
/// excluded: its fixed-limb field arithmetic indexes arrays pervasively
/// and is covered by its own unit tests; decode entry points *into* crypto
/// (e.g. signature `decode_from`) are still body-scanned.
const CLOSURE_CRATES: [&str; 2] = ["wire", "core"];

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct FnRef {
    file: usize,
    idx: usize,
}

struct Index<'a> {
    models: &'a [FileModel],
    /// Methods by name (fns with an owner) in closure crates.
    methods: HashMap<&'a str, Vec<FnRef>>,
    /// Owner-qualified fns in closure crates.
    owned: HashMap<(&'a str, &'a str), Vec<FnRef>>,
    /// Free fns by (crate, name).
    free: HashMap<(&'a str, &'a str), Vec<FnRef>>,
    /// Free fns by name in closure crates (for module-qualified calls).
    free_any: HashMap<&'a str, Vec<FnRef>>,
}

impl<'a> Index<'a> {
    fn build(models: &'a [FileModel]) -> Index<'a> {
        let mut ix = Index {
            models,
            methods: HashMap::new(),
            owned: HashMap::new(),
            free: HashMap::new(),
            free_any: HashMap::new(),
        };
        for (fi, m) in models.iter().enumerate() {
            if !CLOSURE_CRATES.contains(&m.crate_name.as_str()) {
                continue;
            }
            if !matches!(m.kind, FileKind::Src | FileKind::Catalog) {
                continue;
            }
            for (gi, f) in m.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let r = FnRef { file: fi, idx: gi };
                match &f.owner {
                    Some(owner) => {
                        ix.methods.entry(&f.name).or_default().push(r);
                        ix.owned
                            .entry((owner.as_str(), f.name.as_str()))
                            .or_default()
                            .push(r);
                    }
                    None => {
                        ix.free
                            .entry((m.crate_name.as_str(), f.name.as_str()))
                            .or_default()
                            .push(r);
                        ix.free_any.entry(&f.name).or_default().push(r);
                    }
                }
            }
        }
        ix
    }

    fn fn_of(&self, r: FnRef) -> &'a FnItem {
        &self.models[r.file].fns[r.idx]
    }
}

#[derive(Clone, Debug)]
struct Call {
    name: String,
    qual: Option<String>,
    method: bool,
}

/// Extract call expressions from a token range.
fn calls_in(m: &FileModel, lo: usize, hi: usize) -> Vec<Call> {
    let mut out = Vec::new();
    for i in lo..hi.min(m.tokens.len()) {
        let t = &m.tokens[i];
        if t.kind != TokKind::Ident || NOT_CALLS.contains(&t.text.as_str()) {
            continue;
        }
        if !m.tokens.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| m.tokens.get(p));
        if prev.is_some_and(|p| p.is_punct(".")) {
            out.push(Call {
                name: t.text.clone(),
                qual: None,
                method: true,
            });
        } else if prev.is_some_and(|p| p.is_punct("::")) {
            // Walk back over an optional turbofish / qualified-path group.
            let mut k = i.saturating_sub(2);
            if m.tokens.get(k).is_some_and(|p| p.is_punct(">")) {
                let mut depth = 0i32;
                while k > 0 {
                    match m.tokens[k].text.as_str() {
                        ">" => depth += 1,
                        "<" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k -= 1;
                }
                k = k.saturating_sub(1);
                if m.tokens.get(k).is_some_and(|p| p.is_punct("::")) {
                    k = k.saturating_sub(1);
                }
            }
            let qual = m
                .tokens
                .get(k)
                .filter(|q| q.kind == TokKind::Ident)
                .map(|q| q.text.clone());
            out.push(Call {
                name: t.text.clone(),
                qual,
                method: false,
            });
        } else {
            out.push(Call {
                name: t.text.clone(),
                qual: None,
                method: false,
            });
        }
    }
    out
}

/// Scan one fn body for rule-1 (and closure rule-5) violations.
fn scan_decode_body(m: &FileModel, f: &FnItem, diags: &mut Vec<Diagnostic>) {
    let Some((lo, hi)) = f.body else { return };
    for i in lo..hi.min(m.tokens.len()) {
        let t = &m.tokens[i];
        let next = m.tokens.get(i + 1);
        let prev = i.checked_sub(1).and_then(|p| m.tokens.get(p));
        match t.kind {
            TokKind::Ident
                if PANIC_METHODS.contains(&t.text.as_str())
                    && prev.is_some_and(|p| p.is_punct("."))
                    && next.is_some_and(|n| n.is_punct("(")) =>
            {
                diags.push(Diagnostic {
                    file: m.rel.clone(),
                    line: t.line,
                    rule: RULE_DECODE,
                    msg: format!(
                        "`.{}()` in `{}`, which is reachable from the decode/verify pipeline; return a typed error instead",
                        t.text, f.name
                    ),
                });
            }
            TokKind::Ident
                if PANIC_MACROS.contains(&t.text.as_str())
                    && next.is_some_and(|n| n.is_punct("!")) =>
            {
                diags.push(Diagnostic {
                    file: m.rel.clone(),
                    line: t.line,
                    rule: RULE_DECODE,
                    msg: format!(
                        "`{}!` in `{}`, which is reachable from the decode/verify pipeline",
                        t.text, f.name
                    ),
                });
            }
            TokKind::Ident if CLOCK_TYPES.contains(&t.text.as_str()) => {
                diags.push(Diagnostic {
                    file: m.rel.clone(),
                    line: t.line,
                    rule: RULE_CLOCK,
                    msg: format!(
                        "`{}` referenced in `{}`, which is reachable from the verify pipeline; freshness decisions must take time as an argument",
                        t.text, f.name
                    ),
                });
            }
            TokKind::Punct if t.text == "[" => {
                let indexing = match prev.map(|p| (p.kind, p.text.as_str())) {
                    Some((TokKind::Ident, s)) => !NON_INDEX_PREFIX.contains(&s),
                    Some((TokKind::Punct, ")" | "]" | "?")) => true,
                    _ => false,
                };
                if indexing {
                    diags.push(Diagnostic {
                        file: m.rel.clone(),
                        line: t.line,
                        rule: RULE_DECODE,
                        msg: format!(
                            "direct index/slice in `{}`, which is reachable from the decode/verify pipeline; use `.get(..)` and surface a typed error",
                            f.name
                        ),
                    });
                }
            }
            _ => {}
        }
    }
}

/// The verifier's claim pipeline outside `impl Verifier` (whose methods —
/// the `stitch` pipeline and its three entry points, `verify_projection` —
/// are all seeds): claim collection (`Analyzed`, `SigClaim`), fold order and
/// localisation (`claim_order`, `ClaimKind`), the transcript coefficient
/// source, the client's epoch pin (`EpochView`: `observe` and
/// `from_bootstrap` judge a bundle an untrusted server sent, and no
/// `Verifier` method calls them), a checkpoint's exposure opening
/// (`Exposure`: its root recomputation and entry lookup run on chunks,
/// indices and sibling digests the server chose, under a declared length of
/// up to 2⁶⁴), and the join verifier (`verify_join`, a free function over a
/// server-built `JoinAnswer`). Seeded by name so they stay covered even if a
/// refactor detaches them from a `Verifier` method's call graph.
const VERIFY_CLAIM_OWNERS: [&str; 6] = [
    "Analyzed",
    "SigClaim",
    "ClaimKind",
    "TranscriptRng",
    "EpochView",
    "Exposure",
];
const VERIFY_CLAIM_FNS: [&str; 4] = [
    "analyze_selection",
    "claim_order",
    "transcript_digest",
    "verify_join",
];

/// Rule 1 + closure part of rule 5: seed the decode/verify entry points,
/// take the call-graph closure inside [`CLOSURE_CRATES`], and scan every
/// reachable body.
fn rule_decode(models: &[FileModel], diags: &mut Vec<Diagnostic>) {
    let ix = Index::build(models);
    let mut queue: VecDeque<FnRef> = VecDeque::new();
    let mut seen: HashSet<FnRef> = HashSet::new();
    let push = |r: FnRef, queue: &mut VecDeque<FnRef>, seen: &mut HashSet<FnRef>| {
        if seen.insert(r) {
            queue.push_back(r);
        }
    };

    for (fi, m) in models.iter().enumerate() {
        if !matches!(m.kind, FileKind::Src | FileKind::Catalog) {
            continue;
        }
        for (gi, f) in m.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let seed = f.trait_name.as_deref() == Some("WireDecode")
                || (m.crate_name == "wire" && f.owner.as_deref() == Some("Reader"))
                || (m.crate_name == "wire"
                    && f.owner.is_none()
                    && matches!(
                        f.name.as_str(),
                        "deframe" | "decode_frame" | "frame_body_len"
                    ))
                || (m.crate_name == "core" && f.owner.as_deref() == Some("Verifier"))
                // An owner's encoder runs on the process's own values, never
                // on a peer's.
                || (m.crate_name == "core"
                    && f.trait_name.as_deref() != Some("WireEncode")
                    && (VERIFY_CLAIM_OWNERS.contains(&f.owner.as_deref().unwrap_or(""))
                        || VERIFY_CLAIM_FNS.contains(&f.name.as_str())));
            if seed {
                push(FnRef { file: fi, idx: gi }, &mut queue, &mut seen);
            }
        }
    }

    while let Some(r) = queue.pop_front() {
        let m = &models[r.file];
        let f = ix.fn_of(r);
        scan_decode_body(m, f, diags);
        if !CLOSURE_CRATES.contains(&m.crate_name.as_str()) {
            continue; // scan entry bodies outside the closure, don't expand
        }
        let Some((lo, hi)) = f.body else { continue };
        for call in calls_in(m, lo, hi) {
            let name = call.name.as_str();
            let targets: Vec<FnRef> = if call.method {
                ix.methods.get(name).cloned().unwrap_or_default()
            } else if let Some(q) = call.qual.as_deref() {
                let owner = if q == "Self" {
                    f.owner.as_deref().unwrap_or(q)
                } else {
                    q
                };
                let owned = ix.owned.get(&(owner, name)).cloned().unwrap_or_default();
                if owned.is_empty() && q.chars().next().is_some_and(char::is_lowercase) {
                    // Module-qualified free-fn call (`freshness::check_marks`).
                    ix.free_any.get(name).cloned().unwrap_or_default()
                } else {
                    owned
                }
            } else {
                ix.free
                    .get(&(m.crate_name.as_str(), name))
                    .cloned()
                    .unwrap_or_default()
            };
            for t in targets {
                push(t, &mut queue, &mut seen);
            }
        }
    }
}

/// Rule 2: no truncating `as u8`/`as u16`/`as u32` casts in wire code.
fn rule_casts(models: &[FileModel], diags: &mut Vec<Diagnostic>) {
    for m in models {
        let whole_file = m.rel.ends_with("crates/wire/src/lib.rs")
            || m.rel.ends_with("crates/core/src/wire.rs")
            || m.rel == "crates/wire/src/lib.rs"
            || m.rel == "crates/core/src/wire.rs";
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        if whole_file {
            ranges.push((0, m.tokens.len()));
        } else if matches!(m.kind, FileKind::Src | FileKind::Catalog) {
            for f in &m.fns {
                if f.in_test {
                    continue;
                }
                if matches!(f.name.as_str(), "encode_into" | "decode_from") {
                    if let Some(b) = f.body {
                        ranges.push(b);
                    }
                }
            }
        }
        for (lo, hi) in ranges {
            for i in lo..hi.min(m.tokens.len()) {
                let t = &m.tokens[i];
                if !t.is_ident("as") {
                    continue;
                }
                if whole_file && m.in_test_region(t.line) {
                    continue;
                }
                if let Some(ty) = m.tokens.get(i + 1) {
                    if ty.kind == TokKind::Ident && matches!(ty.text.as_str(), "u8" | "u16" | "u32")
                    {
                        diags.push(Diagnostic {
                            file: m.rel.clone(),
                            line: t.line,
                            rule: RULE_CASTS,
                            msg: format!(
                                "truncating `as {}` cast in wire code; use `{}::try_from` and surface a typed `WireError`",
                                ty.text, ty.text
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Rule 3: catalog coverage. Returns the coverage table and emits a
/// diagnostic per unpinned variant.
fn rule_catalog(models: &[FileModel], diags: &mut Vec<Diagnostic>) -> Vec<VariantCoverage> {
    struct EnumDef {
        name: String,
        def_file: String,
        variants: Vec<(String, u32)>,
        def_lines: (u32, u32),
        def_fi: usize,
    }
    // Find the defining occurrence of each target enum (first Src match).
    let mut defs: Vec<EnumDef> = Vec::new();
    for (fi, m) in models.iter().enumerate() {
        if m.kind != FileKind::Src {
            continue;
        }
        for e in &m.enums {
            if TARGET_ENUMS.contains(&e.name.as_str()) && !defs.iter().any(|d| d.name == e.name) {
                defs.push(EnumDef {
                    name: e.name.clone(),
                    def_file: m.rel.clone(),
                    variants: e.variants.clone(),
                    def_lines: e.lines,
                    def_fi: fi,
                });
            }
        }
    }
    defs.sort_by_key(|d| {
        TARGET_ENUMS
            .iter()
            .position(|t| *t == d.name)
            .unwrap_or(usize::MAX)
    });

    let mut coverage = Vec::new();
    for EnumDef {
        name,
        def_file,
        variants,
        def_lines,
        def_fi,
    } in &defs
    {
        let variant_names: HashSet<&str> = variants.iter().map(|(v, _)| v.as_str()).collect();
        let mut pins: BTreeMap<&str, usize> =
            variants.iter().map(|(v, _)| (v.as_str(), 0)).collect();
        for (fi, m) in models.iter().enumerate() {
            let whole = matches!(m.kind, FileKind::Test | FileKind::Catalog);
            if !whole && m.test_regions.is_empty() {
                continue;
            }
            // Bare variant idents count when the file (glob-)imports the enum.
            let bare_ok = m.globs.iter().any(|g| g == name) || file_imports_enum(m, name);
            for (i, t) in m.tokens.iter().enumerate() {
                if t.kind != TokKind::Ident {
                    continue;
                }
                let eligible = whole || m.in_test_region(t.line);
                if !eligible {
                    continue;
                }
                if fi == *def_fi && t.line >= def_lines.0 && t.line <= def_lines.1 {
                    continue; // the enum's own definition is not a pin
                }
                let next = m.tokens.get(i + 1);
                let prev = i.checked_sub(1).and_then(|p| m.tokens.get(p));
                if t.text == *name
                    && next.is_some_and(|n| n.is_punct("::"))
                    && m.tokens
                        .get(i + 2)
                        .is_some_and(|v| variant_names.contains(v.text.as_str()))
                {
                    if let Some(v) = m.tokens.get(i + 2) {
                        if let Some(c) = pins.get_mut(v.text.as_str()) {
                            *c += 1;
                        }
                    }
                } else if bare_ok
                    && variant_names.contains(t.text.as_str())
                    && !prev.is_some_and(|p| p.is_punct("::") || p.is_punct("."))
                    && !next.is_some_and(|n| n.is_punct("::"))
                {
                    if let Some(c) = pins.get_mut(t.text.as_str()) {
                        *c += 1;
                    }
                }
            }
        }
        for (v, line) in variants {
            let n = pins.get(v.as_str()).copied().unwrap_or(0);
            coverage.push(VariantCoverage {
                enum_name: name.clone(),
                variant: v.clone(),
                file: def_file.clone(),
                line: *line,
                pins: n,
            });
            if n == 0 {
                diags.push(Diagnostic {
                    file: def_file.clone(),
                    line: *line,
                    rule: RULE_CATALOG,
                    msg: format!(
                        "`{name}::{v}` is pinned by no adversary-catalog arm and no test; add a catalog entry or a targeted test that expects it"
                    ),
                });
            }
        }
    }
    coverage
}

/// Whether the file `use`-imports `name` (qualified or selective), making
/// bare variant idents plausible pins.
fn file_imports_enum(m: &FileModel, name: &str) -> bool {
    let toks = &m.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("use") {
            continue;
        }
        let mut j = i + 1;
        while j < toks.len() && !toks[j].is_punct(";") {
            if toks[j].is_ident(name) {
                return true;
            }
            j += 1;
        }
    }
    false
}

/// Rule 4: every sign-message builder binds a domain (epoch/shard
/// reference, a byte-string domain tag, or delegation to another builder);
/// domain tags must be unique across builders.
fn rule_domain(models: &[FileModel], diags: &mut Vec<Diagnostic>) {
    let mut tags: BTreeMap<String, Vec<(String, u32, String)>> = BTreeMap::new();
    for m in models {
        if !matches!(m.kind, FileKind::Src | FileKind::Catalog) {
            continue;
        }
        for f in &m.fns {
            // Builders are fns named over `message` (singular): plural
            // names (`from_messages`) take messages as input, they do not
            // build one.
            if f.in_test || !f.name.contains("message") || f.name.contains("messages") {
                continue;
            }
            let Some((lo, hi)) = f.body else { continue };
            let mut has_epoch_or_shard = false;
            let mut first_tag: Option<(String, u32)> = None;
            for i in lo..hi.min(m.tokens.len()) {
                let t = &m.tokens[i];
                match t.kind {
                    TokKind::Ident if t.text.contains("epoch") || t.text.contains("shard") => {
                        has_epoch_or_shard = true;
                    }
                    TokKind::ByteStr if first_tag.is_none() => {
                        first_tag = Some((t.text.clone(), t.line));
                    }
                    _ => {}
                }
            }
            let delegates = calls_in(m, lo, hi)
                .iter()
                .any(|c| c.name != f.name && c.name.contains("message"));
            if let Some((tag, line)) = &first_tag {
                tags.entry(tag.clone())
                    .or_default()
                    .push((m.rel.clone(), *line, f.name.clone()));
            } else if !has_epoch_or_shard && !delegates {
                diags.push(Diagnostic {
                    file: m.rel.clone(),
                    line: f.line,
                    rule: RULE_DOMAIN,
                    msg: format!(
                        "sign-message builder `{}` binds no domain: add an epoch/shard reference or a unique byte-string domain tag",
                        f.name
                    ),
                });
            }
        }
    }
    for (tag, mut sites) in tags {
        if sites.len() < 2 {
            continue;
        }
        sites.sort();
        for (file, line, fn_name) in sites.iter().skip(1) {
            diags.push(Diagnostic {
                file: file.clone(),
                line: *line,
                rule: RULE_DOMAIN,
                msg: format!(
                    "domain tag {tag:?} in `{fn_name}` is also used by another sign-message builder; domain tags must be unique so signatures cannot be replayed across message kinds"
                ),
            });
        }
    }
}

/// Rule 5 (file part): no wall-clock reads anywhere in `verify.rs` /
/// `freshness.rs` production code. (The call-graph part rides rule 1.)
fn rule_clock(models: &[FileModel], diags: &mut Vec<Diagnostic>) {
    for m in models {
        if !(m.rel.ends_with("verify.rs") || m.rel.ends_with("freshness.rs")) {
            continue;
        }
        if m.kind != FileKind::Src {
            continue;
        }
        for t in &m.tokens {
            if t.kind == TokKind::Ident
                && CLOCK_TYPES.contains(&t.text.as_str())
                && !m.in_test_region(t.line)
            {
                diags.push(Diagnostic {
                    file: m.rel.clone(),
                    line: t.line,
                    rule: RULE_CLOCK,
                    msg: format!(
                        "`{}` in pure verification code; freshness decisions must take the clock as an argument",
                        t.text
                    ),
                });
            }
        }
    }
}

/// Run every rule and apply waivers.
pub fn analyze(models: &[FileModel]) -> Analysis {
    let mut raw: Vec<Diagnostic> = Vec::new();
    rule_decode(models, &mut raw);
    rule_casts(models, &mut raw);
    let coverage = rule_catalog(models, &mut raw);
    rule_domain(models, &mut raw);
    rule_clock(models, &mut raw);
    raw.sort();
    raw.dedup();

    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut waived: Vec<(Diagnostic, String)> = Vec::new();
    let mut used: HashSet<(usize, usize)> = HashSet::new(); // (model idx, waiver idx)

    for d in raw {
        let m = models.iter().position(|m| m.rel == d.file);
        let mut justification = None;
        if let Some(mi) = m {
            for (wi, w) in models[mi].waivers.iter().enumerate() {
                if w.rule == d.rule && (w.line == d.line || w.line + 1 == d.line) {
                    justification = Some(w.justification.clone());
                    used.insert((mi, wi));
                    break;
                }
            }
        }
        match justification {
            Some(j) => waived.push((d, j)),
            None => diagnostics.push(d),
        }
    }

    // Malformed waivers and stale (unused or unknown-rule) waivers are
    // diagnostics in their own right — and are not themselves waivable.
    for (mi, m) in models.iter().enumerate() {
        for (line, msg) in &m.bad_waivers {
            diagnostics.push(Diagnostic {
                file: m.rel.clone(),
                line: *line,
                rule: RULE_WAIVER,
                msg: msg.clone(),
            });
        }
        for (wi, w) in m.waivers.iter().enumerate() {
            if !RULES.contains(&w.rule.as_str()) {
                diagnostics.push(Diagnostic {
                    file: m.rel.clone(),
                    line: w.line,
                    rule: RULE_WAIVER,
                    msg: format!("waiver names unknown rule `{}`", w.rule),
                });
            } else if !used.contains(&(mi, wi)) {
                diagnostics.push(Diagnostic {
                    file: m.rel.clone(),
                    line: w.line,
                    rule: RULE_WAIVER,
                    msg: format!(
                        "stale waiver: no `{}` diagnostic on this or the next line; remove it",
                        w.rule
                    ),
                });
            }
        }
    }

    diagnostics.sort();
    Analysis {
        diagnostics,
        waived,
        coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(rel: &str, src: &str) -> Vec<FileModel> {
        vec![FileModel::build(rel, src)]
    }

    #[test]
    fn panicking_decode_is_flagged_and_waivable() {
        let src = r#"
impl WireDecode for X {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = r.bytes()?;
        Ok(X(v[0]))
    }
}
"#;
        let a = analyze(&one("crates/core/src/x.rs", src));
        assert_eq!(a.diagnostics.len(), 1);
        assert!(a.diagnostics.first().is_some_and(|d| d.rule == RULE_DECODE));

        let waived_src = r#"
impl WireDecode for X {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = r.bytes()?;
        // authdb-lint: allow(panic-free-decode): bytes() guarantees len >= 1
        Ok(X(v[0]))
    }
}
"#;
        let a = analyze(&one("crates/core/src/x.rs", waived_src));
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert_eq!(a.waived.len(), 1);
    }

    #[test]
    fn closure_reaches_helpers_and_methods() {
        let src = r#"
impl Verifier {
    pub fn analyze_selection(&self) -> Result<(), VerifyError> {
        helper(1);
        self.step()
    }
    fn step(&self) -> Result<(), VerifyError> {
        Ok(())
    }
}
fn helper(x: usize) {
    let v = vec![1];
    v.iter().next().unwrap();
}
"#;
        let a = analyze(&one("crates/core/src/verify.rs", src));
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.rule == RULE_DECODE && d.msg.contains("helper")));
    }

    #[test]
    fn test_code_is_exempt_from_decode_rule() {
        let src = r#"
#[cfg(test)]
mod tests {
    impl WireDecode for Y {
        fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
            Ok(Y(r.bytes().unwrap()[0]))
        }
    }
}
"#;
        let a = analyze(&one("crates/core/src/x.rs", src));
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn truncating_casts_flagged_only_in_wire_code() {
        let wire = "fn put(out: &mut Vec<u8>, b: &[u8]) { let n = b.len() as u32; }";
        let a = analyze(&one("crates/wire/src/lib.rs", wire));
        assert!(a.diagnostics.iter().any(|d| d.rule == RULE_CASTS));
        // Same text elsewhere: only encode_into/decode_from bodies count.
        let a = analyze(&one("crates/sim/src/lib.rs", wire));
        assert!(a.diagnostics.is_empty());
        let widening = "fn put(out: &mut Vec<u8>, b: &[u8]) { let n = b.len() as u64; }";
        let a = analyze(&one("crates/wire/src/lib.rs", widening));
        assert!(a.diagnostics.is_empty());
    }

    #[test]
    fn catalog_coverage_counts_qualified_and_bare_pins() {
        let src = r#"
pub enum VerifyError { Pinned, Bare, Never }
#[cfg(test)]
mod tests {
    use super::VerifyError::*;
    fn t() {
        let a = VerifyError::Pinned;
        let b = matches!(x, Bare);
    }
}
"#;
        let a = analyze(&one("crates/core/src/verify.rs", src));
        let unpinned: Vec<&str> = a
            .diagnostics
            .iter()
            .filter(|d| d.rule == RULE_CATALOG)
            .map(|d| d.msg.as_str())
            .collect();
        assert_eq!(unpinned.len(), 1, "{unpinned:?}");
        assert!(unpinned.first().is_some_and(|m| m.contains("Never")));
        let pinned = a
            .coverage
            .iter()
            .find(|c| c.variant == "Pinned")
            .map(|c| c.pins);
        assert_eq!(pinned, Some(1));
    }

    #[test]
    fn unbound_builder_and_duplicate_tags() {
        let src = r#"
fn naked_message(x: u64) -> Vec<u8> { x.to_be_bytes().to_vec() }
fn a_message() -> Vec<u8> { b"tag:".to_vec() }
fn b_message() -> Vec<u8> { b"tag:".to_vec() }
fn epoch_message(epoch: u64) -> Vec<u8> { epoch.to_be_bytes().to_vec() }
fn outer_message() -> Vec<u8> { a_message() }
"#;
        let a = analyze(&one("crates/core/src/x.rs", src));
        let domain: Vec<&Diagnostic> = a
            .diagnostics
            .iter()
            .filter(|d| d.rule == RULE_DOMAIN)
            .collect();
        assert_eq!(domain.len(), 2, "{domain:?}");
        assert!(domain.iter().any(|d| d.msg.contains("naked_message")));
        assert!(domain.iter().any(|d| d.msg.contains("tag:")));
    }

    #[test]
    fn checkpoint_surfaces_ride_the_existing_rules() {
        // The checkpoint signed messages are ordinary sign-message
        // builders: a second builder reusing their domain tag must be
        // flagged, so `b"ckpt-summary:"` / `b"ckpt-epoch:"` stay unique.
        let src = r#"
fn checkpoint_message() -> Vec<u8> { b"ckpt-summary:".to_vec() }
fn forged_message() -> Vec<u8> { b"ckpt-summary:".to_vec() }
"#;
        let a = analyze(&one("crates/core/src/x.rs", src));
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.rule == RULE_DOMAIN && d.msg.contains("ckpt-summary:")));
        // And the checkpoint error variants are catalog-coverage targets
        // like any other VerifyError variant: unpinned means a diagnostic.
        let src = r#"
pub enum VerifyError { BadCheckpoint, CheckpointUnopened, CheckpointGap, StaleCheckpoint }
"#;
        let a = analyze(&one("crates/core/src/verify.rs", src));
        assert_eq!(
            a.diagnostics
                .iter()
                .filter(|d| d.rule == RULE_CATALOG)
                .count(),
            4,
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn wall_clock_flagged_in_verify_files() {
        let src = "fn freshness_of(&self) -> bool { let now = Instant::now(); true }";
        let a = analyze(&one("crates/core/src/verify.rs", src));
        assert!(a.diagnostics.iter().any(|d| d.rule == RULE_CLOCK));
        let a = analyze(&one("crates/core/src/qs.rs", src));
        assert!(!a.diagnostics.iter().any(|d| d.rule == RULE_CLOCK));
    }

    #[test]
    fn stale_and_malformed_waivers_are_diagnostics() {
        let src = "\
// authdb-lint: allow(panic-free-decode): nothing here needs this
// authdb-lint: allow(no-such-rule): whatever
fn f() {}
";
        let a = analyze(&one("crates/core/src/x.rs", src));
        assert_eq!(
            a.diagnostics
                .iter()
                .filter(|d| d.rule == RULE_WAIVER)
                .count(),
            2,
            "{:?}",
            a.diagnostics
        );
    }
}
