//! Item-scoped scanning over the token stream.
//!
//! [`FileModel::build`] walks one file's tokens and recovers just enough
//! structure for the rules in [`crate::rules`]:
//!
//! - every `fn` item with its name, owning `impl` type, implemented trait
//!   (if any), parameter names, body token range, and whether it lives in
//!   test code;
//! - every `enum` item with its variants (for catalog coverage);
//! - glob imports (`use path::Enum::*;`), at item level *or* inside fn
//!   bodies, so bare-variant `matches!` arms still count as pins;
//! - `#[cfg(test)]` regions (line ranges), so production rules skip test
//!   code and coverage counting includes it;
//! - waiver comments (`// authdb-lint: allow(<rule>): <justification>`).
//!
//! The scanner is deliberately an over-approximation of Rust's grammar: it
//! brace-matches rather than parses expressions, and it never needs to
//! understand types. That is sound for this analyzer because every rule
//! either scans a token window (where false structure is harmless) or
//! resolves calls by name (where over-approximation only adds callees,
//! never hides them).

use crate::lexer::{lex, Comment, TokKind, Token};

/// How a file participates in the rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// First-party production source: production rules apply; only its
    /// `#[cfg(test)]` regions count as pin sites.
    Src,
    /// An adversary-catalog file — any source file of the `authdb-testkit`
    /// crate: production rules apply *and* the whole file counts as a pin
    /// site for catalog coverage.
    Catalog,
    /// Integration tests / benches: no production rules; whole file is a
    /// pin site.
    Test,
    /// Everything else (examples, build scripts): ignored by every rule.
    Other,
}

/// One `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// `impl` type the fn is defined on (`None` for free fns).
    pub owner: Option<String>,
    /// Trait being implemented, when the enclosing impl is `impl Trait for T`
    /// or the fn is a default method in `trait Trait { … }`.
    pub trait_name: Option<String>,
    /// 1-based line of the fn name.
    pub line: u32,
    /// Token range of the body, exclusive of the braces (`lo..hi`), or
    /// `None` for bodiless trait methods.
    pub body: Option<(usize, usize)>,
    /// Parameter names (including `self` when present).
    pub params: Vec<String>,
    /// Whether the fn lives under `#[cfg(test)]` (directly or via an
    /// enclosing module).
    pub in_test: bool,
}

/// One `enum` item with its variants.
#[derive(Clone, Debug)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// `(variant, line)` pairs.
    pub variants: Vec<(String, u32)>,
    /// Line range of the whole definition (for excluding self-references
    /// from pin counting).
    pub lines: (u32, u32),
}

/// A `pub fn`, `pub const` or `pub static` item: plain `pub`, not
/// `pub(crate)`/`pub(super)`, and not a trait's method.
#[derive(Clone, Debug)]
pub struct PubItem {
    /// Item name.
    pub name: String,
    /// 1-based line of the name.
    pub line: u32,
    /// Whether the item lives under `#[cfg(test)]`.
    pub in_test: bool,
}

/// An inline waiver comment.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// Rule name inside `allow(…)`.
    pub rule: String,
    /// Justification text after the closing `):`, trimmed.
    pub justification: String,
    /// 1-based line of the comment.
    pub line: u32,
}

/// Scanned model of one source file.
#[derive(Clone, Debug)]
pub struct FileModel {
    /// Workspace-relative path (display + classification).
    pub rel: String,
    /// Crate the file belongs to (directory name under `crates/`, or the
    /// facade crate name for top-level `src/`).
    pub crate_name: String,
    /// Classification.
    pub kind: FileKind,
    /// Lexed tokens.
    pub tokens: Vec<Token>,
    /// Lexed comments.
    pub comments: Vec<Comment>,
    /// All `fn` items, including ones nested in impls/traits/test mods.
    pub fns: Vec<FnItem>,
    /// All `enum` items.
    pub enums: Vec<EnumItem>,
    /// Every `pub fn` / `pub const` / `pub static`, in impls and modules too.
    pub pub_items: Vec<PubItem>,
    /// Enum names glob-imported anywhere in the file (`use …::Enum::*`).
    pub globs: Vec<String>,
    /// `#[cfg(test)]` line ranges (inclusive).
    pub test_regions: Vec<(u32, u32)>,
    /// Parsed waivers.
    pub waivers: Vec<Waiver>,
    /// Waiver-shaped comments that failed to parse or lack justification.
    pub bad_waivers: Vec<(u32, String)>,
}

impl FileModel {
    /// Lex and scan one file.
    pub fn build(rel: &str, src: &str) -> FileModel {
        let lexed = lex(src);
        let mut model = FileModel {
            rel: rel.to_string(),
            crate_name: crate_of(rel),
            kind: classify(rel),
            tokens: lexed.tokens,
            comments: lexed.comments,
            fns: Vec::new(),
            enums: Vec::new(),
            pub_items: Vec::new(),
            globs: Vec::new(),
            test_regions: Vec::new(),
            waivers: Vec::new(),
            bad_waivers: Vec::new(),
        };
        let hi = model.tokens.len();
        let mut p = Parser { m: &mut model };
        p.items(0, hi, None, None, false);
        scan_globs(&mut model);
        scan_waivers(&mut model);
        model
    }

    /// Whether `line` falls inside a `#[cfg(test)]` region.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }
}

fn classify(rel: &str) -> FileKind {
    let norm = rel.replace('\\', "/");
    if norm.starts_with("crates/testkit/src/") {
        return FileKind::Catalog;
    }
    if norm.contains("/tests/") || norm.contains("/benches/") || norm.starts_with("tests/") {
        return FileKind::Test;
    }
    if norm.contains("/src/") || norm.starts_with("src/") {
        return FileKind::Src;
    }
    FileKind::Other
}

fn crate_of(rel: &str) -> String {
    let norm = rel.replace('\\', "/");
    let mut parts = norm.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name.to_string();
        }
    }
    "authdb".to_string()
}

/// Item keywords that consume a pending `#[cfg(test)]` attribute.
const ITEM_KEYWORDS: [&str; 12] = [
    "mod", "fn", "impl", "enum", "struct", "trait", "use", "const", "static", "type", "macro",
    "extern",
];

struct Parser<'m> {
    m: &'m mut FileModel,
}

impl Parser<'_> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.m.tokens.get(i)
    }

    fn text(&self, i: usize) -> &str {
        self.m.tokens.get(i).map_or("", |t| t.text.as_str())
    }

    fn line(&self, i: usize) -> u32 {
        self.m.tokens.get(i).map_or(0, |t| t.line)
    }

    /// Index one past the close matching the open delimiter at `open`.
    fn matching(&self, open: usize, hi: usize, o: &str, c: &str) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < hi {
            let t = self.text(i);
            if t == o {
                depth += 1;
            } else if t == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        hi.saturating_sub(1)
    }

    /// Skip a balanced `<…>` group starting at `i` (which must be `<`).
    fn skip_angles(&self, mut i: usize, hi: usize) -> usize {
        let mut depth = 0usize;
        while i < hi {
            match self.text(i) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                // `->` inside Fn sugar does not nest.
                "(" => {
                    i = self.matching(i, hi, "(", ")");
                }
                _ => {}
            }
            i += 1;
        }
        hi
    }

    /// Read a type path (`a::b::C<D>`), returning its last identifier
    /// segment and the index just past it. Stops at `for`, `where`, `{`.
    fn type_path(&self, mut i: usize, hi: usize) -> (String, usize) {
        let mut last = String::new();
        while i < hi {
            let t = self.tok(i);
            match t.map(|t| (t.kind, t.text.as_str())) {
                Some((TokKind::Ident, "for" | "where")) => break,
                Some((TokKind::Ident, "dyn" | "mut")) => i += 1,
                Some((TokKind::Ident, s)) => {
                    last = s.to_string();
                    i += 1;
                }
                Some((TokKind::Punct, "::")) => i += 1,
                Some((TokKind::Punct, "<")) => i = self.skip_angles(i, hi),
                Some((TokKind::Punct, "&")) | Some((TokKind::Lifetime, _)) => i += 1,
                Some((TokKind::Punct, "(")) => {
                    // Tuple type target: `impl T for (A, B)` — keep "".
                    i = self.matching(i, hi, "(", ")") + 1;
                }
                Some((TokKind::Punct, "[")) => {
                    i = self.matching(i, hi, "[", "]") + 1;
                }
                _ => break,
            }
        }
        (last, i)
    }

    /// Whether the attribute tokens in `lo..hi` (inside `#[…]`) mention
    /// `cfg` and `test` as idents.
    fn attr_is_cfg_test(&self, lo: usize, hi: usize) -> bool {
        let mut has_cfg = false;
        let mut has_test = false;
        for k in lo..hi {
            if let Some(t) = self.tok(k) {
                if t.is_ident("cfg") {
                    has_cfg = true;
                }
                if t.is_ident("test") {
                    has_test = true;
                }
            }
        }
        has_cfg && has_test
    }

    /// Parse items within `lo..hi`.
    fn items(
        &mut self,
        lo: usize,
        hi: usize,
        owner: Option<&str>,
        trait_name: Option<&str>,
        in_test: bool,
    ) {
        let mut i = lo;
        let mut pending_cfg_test = false;
        while i < hi {
            let text = self.text(i).to_string();
            let kind = self.tok(i).map(|t| t.kind);
            if kind == Some(TokKind::Punct) && text == "#" && self.text(i + 1) == "[" {
                let close = self.matching(i + 1, hi, "[", "]");
                if self.attr_is_cfg_test(i + 2, close) {
                    pending_cfg_test = true;
                }
                i = close + 1;
                continue;
            }
            if kind != Some(TokKind::Ident) {
                i += 1;
                continue;
            }
            match text.as_str() {
                "mod" => {
                    let test_here = in_test || pending_cfg_test;
                    pending_cfg_test = false;
                    // `mod name { … }` or `mod name;`
                    let mut j = i + 2;
                    while j < hi && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                    if self.text(j) == "{" {
                        let close = self.matching(j, hi, "{", "}");
                        if test_here && !in_test {
                            self.m.test_regions.push((self.line(i), self.line(close)));
                        }
                        self.items(j + 1, close, None, None, test_here);
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                }
                "impl" => {
                    pending_cfg_test = false;
                    let mut j = i + 1;
                    if self.text(j) == "<" {
                        j = self.skip_angles(j, hi);
                    }
                    let (first, nj) = self.type_path(j, hi);
                    j = nj;
                    let (own, trt);
                    if self.tok(j).is_some_and(|t| t.is_ident("for")) {
                        let (second, nj2) = self.type_path(j + 1, hi);
                        j = nj2;
                        own = second;
                        trt = Some(first);
                    } else {
                        own = first;
                        trt = None;
                    }
                    while j < hi && self.text(j) != "{" {
                        if self.text(j) == "<" {
                            j = self.skip_angles(j, hi);
                        } else {
                            j += 1;
                        }
                    }
                    let close = self.matching(j, hi, "{", "}");
                    self.items(j + 1, close, Some(&own), trt.as_deref(), in_test);
                    i = close + 1;
                }
                "trait" => {
                    pending_cfg_test = false;
                    let name = self.text(i + 1).to_string();
                    let mut j = i + 2;
                    while j < hi && self.text(j) != "{" && self.text(j) != ";" {
                        if self.text(j) == "<" {
                            j = self.skip_angles(j, hi);
                        } else {
                            j += 1;
                        }
                    }
                    if self.text(j) == "{" {
                        let close = self.matching(j, hi, "{", "}");
                        self.items(j + 1, close, Some(&name), Some(&name), in_test);
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                }
                "fn" => {
                    let test_here = in_test || pending_cfg_test;
                    pending_cfg_test = false;
                    i = self.parse_fn(i, hi, owner, trait_name, test_here);
                }
                "enum" => {
                    pending_cfg_test = false;
                    i = self.parse_enum(i, hi);
                }
                "pub" if self.text(i + 1) == "(" => {
                    // `pub(crate)` and kin: not part of the crate's surface.
                    i = self.matching(i + 1, hi, "(", ")") + 1;
                }
                "pub" => {
                    if trait_name.is_none() {
                        if let Some((name, line)) = self.pub_item_name(i + 1) {
                            self.m.pub_items.push(PubItem {
                                name,
                                line,
                                in_test: in_test || pending_cfg_test,
                            });
                        }
                    }
                    i += 1;
                }
                kw if ITEM_KEYWORDS.contains(&kw) => {
                    pending_cfg_test = false;
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    /// Name and line of the `fn`/`const`/`static` item whose qualifiers
    /// start at `j` (just after `pub`), or `None` for any other item.
    fn pub_item_name(&self, mut j: usize) -> Option<(String, u32)> {
        loop {
            match self.text(j) {
                "const" if matches!(self.text(j + 1), "fn" | "unsafe" | "async" | "extern") => {
                    j += 1;
                }
                "unsafe" | "async" => j += 1,
                "extern" => {
                    j += 1;
                    if self.tok(j).is_some_and(|t| t.kind == TokKind::Str) {
                        j += 1;
                    }
                }
                _ => break,
            }
        }
        match self.text(j) {
            "fn" | "const" => j += 1,
            "static" => {
                j += 1;
                if self.text(j) == "mut" {
                    j += 1;
                }
            }
            _ => return None,
        }
        let t = self
            .tok(j)
            .filter(|t| t.kind == TokKind::Ident && t.text != "_")?;
        Some((t.text.clone(), t.line))
    }

    /// Parse a `fn` item starting at the `fn` keyword; returns the index
    /// one past the item.
    fn parse_fn(
        &mut self,
        at: usize,
        hi: usize,
        owner: Option<&str>,
        trait_name: Option<&str>,
        in_test: bool,
    ) -> usize {
        let name = self.text(at + 1).to_string();
        let line = self.line(at + 1);
        let mut j = at + 2;
        if self.text(j) == "<" {
            j = self.skip_angles(j, hi);
        }
        if self.text(j) != "(" {
            return at + 1; // not a fn item (e.g. `fn` in a type); bail
        }
        let close_paren = self.matching(j, hi, "(", ")");
        let mut params = Vec::new();
        let mut depth = 0usize;
        let mut k = j + 1;
        while k < close_paren {
            match self.text(k) {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
                "self" if depth == 0 => params.push("self".to_string()),
                _ if depth == 0
                    && self.tok(k).is_some_and(|t| t.kind == TokKind::Ident)
                    && self.text(k + 1) == ":"
                    && self.text(k + 2) != ":" =>
                {
                    params.push(self.text(k).to_string());
                }
                _ => {}
            }
            k += 1;
        }
        j = close_paren + 1;
        // Skip return type / where clause to the body or `;`.
        while j < hi && self.text(j) != "{" && self.text(j) != ";" {
            if self.text(j) == "<" {
                j = self.skip_angles(j, hi);
            } else {
                j += 1;
            }
        }
        let body;
        let next;
        if self.text(j) == "{" {
            let close = self.matching(j, hi, "{", "}");
            body = Some((j + 1, close));
            next = close + 1;
        } else {
            body = None;
            next = j + 1;
        }
        self.m.fns.push(FnItem {
            name,
            owner: owner.map(str::to_string),
            trait_name: trait_name.map(str::to_string),
            line,
            body,
            params,
            in_test,
        });
        next
    }

    /// Parse an `enum` item starting at the `enum` keyword.
    fn parse_enum(&mut self, at: usize, hi: usize) -> usize {
        let name = self.text(at + 1).to_string();
        let mut j = at + 2;
        while j < hi && self.text(j) != "{" {
            if self.text(j) == "<" {
                j = self.skip_angles(j, hi);
            } else {
                j += 1;
            }
        }
        let close = self.matching(j, hi, "{", "}");
        let mut variants = Vec::new();
        let mut k = j + 1;
        while k < close {
            if self.text(k) == "#" && self.text(k + 1) == "[" {
                k = self.matching(k + 1, close, "[", "]") + 1;
                continue;
            }
            if self.tok(k).is_some_and(|t| t.kind == TokKind::Ident) {
                variants.push((self.text(k).to_string(), self.line(k)));
                k += 1;
                // Skip the payload to the next top-level comma.
                let mut depth = 0usize;
                while k < close {
                    match self.text(k) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth = depth.saturating_sub(1),
                        "," if depth == 0 => {
                            k += 1;
                            break;
                        }
                        "=" if depth == 0 => {} // discriminant
                        _ => {}
                    }
                    k += 1;
                }
            } else {
                k += 1;
            }
        }
        self.m.enums.push(EnumItem {
            name,
            variants,
            lines: (self.line(at), self.line(close)),
        });
        close + 1
    }
}

/// Find `use …::Enum::*;` anywhere (item level or inside fn bodies).
fn scan_globs(m: &mut FileModel) {
    let toks = &m.tokens;
    for i in 0..toks.len() {
        if !toks.get(i).is_some_and(|t| t.is_ident("use")) {
            continue;
        }
        let mut j = i + 1;
        while j < toks.len() && !toks.get(j).is_some_and(|t| t.is_punct(";")) {
            j += 1;
        }
        if j < toks.len()
            && j >= 3
            && toks.get(j - 1).is_some_and(|t| t.is_punct("*"))
            && toks.get(j - 2).is_some_and(|t| t.is_punct("::"))
        {
            if let Some(seg) = toks.get(j - 3) {
                if seg.kind == TokKind::Ident && !m.globs.contains(&seg.text) {
                    m.globs.push(seg.text.clone());
                }
            }
        }
    }
}

/// Parse waiver comments. Accepted form:
/// `authdb-lint: allow(<rule>): <non-empty justification>`.
/// Anything starting with `authdb-lint` that does not match is recorded in
/// `bad_waivers`.
fn scan_waivers(m: &mut FileModel) {
    for c in &m.comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("authdb-lint") else {
            continue;
        };
        let parsed = parse_waiver(rest);
        match parsed {
            Some((rule, justification)) if !justification.is_empty() => {
                m.waivers.push(Waiver {
                    rule,
                    justification,
                    line: c.line,
                });
            }
            Some((rule, _)) => {
                m.bad_waivers.push((
                    c.line,
                    format!("waiver for `{rule}` lacks a justification (use `authdb-lint: allow({rule}): <why>`)"),
                ));
            }
            None => {
                m.bad_waivers.push((
                    c.line,
                    "malformed waiver comment (expected `authdb-lint: allow(<rule>): <why>`)"
                        .to_string(),
                ));
            }
        }
    }
}

pub(crate) fn parse_waiver(rest: &str) -> Option<(String, String)> {
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rule = rest.get(..close)?.trim().to_string();
    if rule.is_empty() {
        return None;
    }
    let after = rest.get(close + 1..)?.trim_start();
    let justification = after.strip_prefix(':').map_or("", str::trim).to_string();
    Some((rule, justification))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
use crate::verify::VerifyError::*;

pub enum E {
    A,
    B(u32),
    C { x: u8 },
}

impl WireDecode for E {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        helper(r)
    }
}

fn free(x: usize, y: &[u8]) -> usize { x }

pub trait T {
    fn required(&self);
    fn default_method(&self) { self.required() }
}

#[cfg(test)]
mod tests {
    fn in_tests() {}
}
"#;

    #[test]
    fn fns_get_owner_trait_and_test_flags() {
        let m = FileModel::build("crates/core/src/x.rs", SRC);
        let d = m.fns.iter().find(|f| f.name == "decode_from");
        assert!(d.is_some_and(|f| f.owner.as_deref() == Some("E")
            && f.trait_name.as_deref() == Some("WireDecode")
            && !f.in_test));
        let free = m.fns.iter().find(|f| f.name == "free");
        assert!(free.is_some_and(|f| f.owner.is_none() && f.params == ["x", "y"]));
        let dm = m.fns.iter().find(|f| f.name == "default_method");
        assert!(dm.is_some_and(|f| f.trait_name.as_deref() == Some("T") && f.body.is_some()));
        let req = m.fns.iter().find(|f| f.name == "required");
        assert!(req.is_some_and(|f| f.body.is_none()));
        let t = m.fns.iter().find(|f| f.name == "in_tests");
        assert!(t.is_some_and(|f| f.in_test));
    }

    #[test]
    fn enums_globs_and_test_regions() {
        let m = FileModel::build("crates/core/src/x.rs", SRC);
        let e = m.enums.iter().find(|e| e.name == "E");
        let names: Vec<&str> = e
            .map(|e| e.variants.iter().map(|(n, _)| n.as_str()).collect())
            .unwrap_or_default();
        assert_eq!(names, vec!["A", "B", "C"]);
        assert_eq!(m.globs, vec!["VerifyError".to_string()]);
        assert_eq!(m.test_regions.len(), 1);
    }

    #[test]
    fn classification() {
        assert_eq!(classify("crates/core/src/verify.rs"), FileKind::Src);
        assert_eq!(
            classify("crates/testkit/src/adversary.rs"),
            FileKind::Catalog
        );
        // A serving file is production source whatever its name.
        assert_eq!(classify("crates/net/src/tamper.rs"), FileKind::Src);
        assert_eq!(classify("crates/net/tests/loopback.rs"), FileKind::Test);
        assert_eq!(classify("examples/demo.rs"), FileKind::Other);
        assert_eq!(crate_of("crates/net/src/lib.rs"), "net");
        assert_eq!(crate_of("src/lib.rs"), "authdb");
    }

    #[test]
    fn waiver_parsing() {
        let src = "\
// authdb-lint: allow(panic-free-decode): index bounded by the check above
// authdb-lint: allow(checked-length-casts)
// authdb-lint: nonsense
fn f() {}
";
        let m = FileModel::build("crates/core/src/x.rs", src);
        assert_eq!(m.waivers.len(), 1);
        assert!(m.waivers.first().is_some_and(|w| {
            w.rule == "panic-free-decode" && w.justification.starts_with("index bounded")
        }));
        assert_eq!(m.bad_waivers.len(), 2);
    }

    #[test]
    fn pub_items_are_plain_pub_fns_consts_and_statics() {
        let src = "\
pub fn a() {}
pub(crate) fn hidden() {}
pub const fn b() -> u8 { 0 }
pub const C: u8 = 0;
pub static mut D: u8 = 0;
pub struct S { pub field: u8 }
impl S {
    pub fn e(&self) {}
    fn private(&self) {}
}
impl Clone for S {
    fn clone(&self) -> Self { S { field: 0 } }
}
#[cfg(test)]
pub fn f() {}
";
        let m = FileModel::build("crates/core/src/x.rs", src);
        let items: Vec<(&str, bool)> = m
            .pub_items
            .iter()
            .map(|p| (p.name.as_str(), p.in_test))
            .collect();
        assert_eq!(
            items,
            [
                ("a", false),
                ("b", false),
                ("C", false),
                ("D", false),
                ("e", false),
                ("f", true)
            ]
        );
    }

    #[test]
    fn body_level_glob_is_found() {
        let src = "fn f(e: &E) -> bool { use E::*; matches!(e, A | B) }";
        let m = FileModel::build("crates/core/src/x.rs", src);
        assert_eq!(m.globs, vec!["E".to_string()]);
    }
}
