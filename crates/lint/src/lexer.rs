//! A minimal, comment- and string-aware Rust lexer.
//!
//! The analyzer has no access to `syn` or `proc-macro2` (the build runs
//! without crates.io), so this module hand-rolls the one part of parsing
//! that naive text search gets wrong: deciding whether a given `unwrap` or
//! `[` sits in *code* or inside a string literal, a comment, or a doc
//! comment. Everything downstream ([`crate::scan`], [`crate::rules`])
//! operates on the token stream produced here and never looks at raw text
//! again.
//!
//! The lexer understands:
//!
//! - line (`//`) and nested block (`/* /* */ */`) comments, which are
//!   captured separately so waiver comments can be parsed;
//! - plain, raw (`r#"…"#`), and byte (`b"…"`, `br#"…"#`) string literals,
//!   including escapes;
//! - char and byte-char literals, disambiguated from lifetimes;
//! - raw identifiers (`r#fn`);
//! - joined punctuation that matters for scanning: `::`, `->`, `=>`,
//!   `..`, `..=`, `...`.
//!
//! Every token and comment carries its 1-based source line for
//! `file:line` diagnostics.

/// What kind of token was lexed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unwrap`, `r#type`).
    Ident,
    /// A lifetime such as `'a` (text excludes the quote).
    Lifetime,
    /// Numeric literal.
    Num,
    /// Plain or raw string literal; `text` is the source spelling.
    Str,
    /// Byte-string literal; `text` is the contents between the quotes.
    ByteStr,
    /// Character or byte-character literal.
    Char,
    /// Punctuation; multi-char only for `::`, `->`, `=>`, `..`, `..=`, `...`.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Source text (see [`TokKind`] for per-kind conventions).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// Whether this token is an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is punctuation with exactly this text.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// One comment (line or block) with its starting line. `text` excludes the
/// comment markers.
#[derive(Clone, Debug)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment body without `//` / `/*` markers.
    pub text: String,
}

/// The result of lexing one source file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order (for waiver parsing).
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Lexer {
    cs: Vec<char>,
    i: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.cs.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.cs.get(self.i).copied();
        if let Some(c) = c {
            self.i += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.tokens.push(Token { kind, text, line });
    }

    /// Consume a line comment starting at `//` (cursor on first `/`).
    fn line_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment { line, text });
    }

    /// Consume a (possibly nested) block comment starting at `/*`.
    fn block_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        let mut depth = 1usize;
        let mut text = String::new();
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    text.push_str("/*");
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    if depth > 0 {
                        text.push_str("*/");
                    }
                    self.bump();
                    self.bump();
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => break,
            }
        }
        self.out.comments.push(Comment { line, text });
    }

    /// Consume a plain `"…"` string body (cursor on the opening quote).
    /// Returns the contents between the quotes.
    fn quoted(&mut self) -> String {
        self.bump(); // opening "
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                text.push(c);
                self.bump();
                if let Some(e) = self.bump() {
                    text.push(e);
                }
                continue;
            }
            if c == '"' {
                self.bump();
                break;
            }
            text.push(c);
            self.bump();
        }
        text
    }

    /// Consume a raw string `r##"…"##` starting with the cursor on the
    /// first `#` or `"` (after the `r` / `br` prefix). Returns the contents.
    fn raw_quoted(&mut self) -> String {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening "
        let mut text = String::new();
        loop {
            match self.peek(0) {
                None => break,
                Some('"') => {
                    let closes = (0..hashes).all(|k| self.peek(1 + k) == Some('#'));
                    if closes {
                        self.bump();
                        for _ in 0..hashes {
                            self.bump();
                        }
                        break;
                    }
                    text.push('"');
                    self.bump();
                }
                Some(c) => {
                    text.push(c);
                    self.bump();
                }
            }
        }
        text
    }

    /// Consume a char/byte-char literal body (cursor on the opening `'`).
    fn char_lit(&mut self) {
        let line = self.line;
        self.bump(); // '
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                text.push(c);
                self.bump();
                if let Some(e) = self.bump() {
                    text.push(e);
                }
                continue;
            }
            if c == '\'' {
                self.bump();
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokKind::Char, text, line);
    }

    /// Whether the `'` at the cursor starts a char literal (vs a lifetime).
    fn quote_is_char(&self) -> bool {
        match (self.peek(1), self.peek(2)) {
            (Some('\\'), _) => true,
            (Some(c), Some('\'')) if c != '\'' => true,
            // `'a` not followed by a closing quote is a lifetime.
            _ => false,
        }
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line);
    }

    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            // Good enough for scanning: digits, suffixes, `_`, hex, and
            // exponent signs glue into one Num token. `1..2` must not eat
            // the dots, `1.0` should stay one token, and `s.0.len()` is a
            // tuple field then a method call.
            let take = c.is_ascii_alphanumeric()
                || c == '_'
                || (c == '.'
                    && self.peek(1) != Some('.')
                    && !self.peek(1).is_some_and(is_ident_start)
                    && text.as_bytes().last().is_some_and(u8::is_ascii_digit)
                    && !text.contains('.'));
            if take {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Num, text, line);
    }

    fn punct(&mut self) {
        let line = self.line;
        let c = self.bump().unwrap_or(' ');
        let joined = match (c, self.peek(0), self.peek(1)) {
            (':', Some(':'), _) => Some("::"),
            ('-', Some('>'), _) => Some("->"),
            ('=', Some('>'), _) => Some("=>"),
            ('.', Some('.'), Some('=')) => Some("..="),
            ('.', Some('.'), Some('.')) => Some("..."),
            ('.', Some('.'), _) => Some(".."),
            _ => None,
        };
        if let Some(j) = joined {
            for _ in 1..j.chars().count() {
                self.bump();
            }
            self.push(TokKind::Punct, j.to_string(), line);
        } else {
            self.push(TokKind::Punct, c.to_string(), line);
        }
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => {
                    let line = self.line;
                    let body = self.quoted();
                    self.push(TokKind::Str, body, line);
                }
                '\'' => {
                    if self.quote_is_char() {
                        self.char_lit();
                    } else {
                        let line = self.line;
                        self.bump(); // '
                        let mut text = String::new();
                        while let Some(c) = self.peek(0) {
                            if is_ident_continue(c) {
                                text.push(c);
                                self.bump();
                            } else {
                                break;
                            }
                        }
                        self.push(TokKind::Lifetime, text, line);
                    }
                }
                'r' if self.peek(1) == Some('"')
                    || (self.peek(1) == Some('#') && self.raw_prefix_is_string(1)) =>
                {
                    let line = self.line;
                    self.bump(); // r
                    let body = self.raw_quoted();
                    self.push(TokKind::Str, body, line);
                }
                'r' if self.peek(1) == Some('#') && self.peek(2).is_some_and(is_ident_start) => {
                    // Raw identifier r#type: lex as a plain ident.
                    self.bump();
                    self.bump();
                    self.ident();
                }
                'b' if self.peek(1) == Some('"') => {
                    let line = self.line;
                    self.bump(); // b
                    let body = self.quoted();
                    self.push(TokKind::ByteStr, body, line);
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump(); // b
                    self.char_lit();
                }
                'b' if self.peek(1) == Some('r')
                    && (self.peek(2) == Some('"')
                        || (self.peek(2) == Some('#') && self.raw_prefix_is_string(2))) =>
                {
                    let line = self.line;
                    self.bump(); // b
                    self.bump(); // r
                    let body = self.raw_quoted();
                    self.push(TokKind::ByteStr, body, line);
                }
                c if is_ident_start(c) => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                _ => self.punct(),
            }
        }
        self.out
    }

    /// Whether `r#…` starting `hashes_at` chars ahead is a raw *string*
    /// (hashes then a quote) rather than a raw identifier.
    fn raw_prefix_is_string(&self, hashes_at: usize) -> bool {
        let mut k = hashes_at;
        while self.peek(k) == Some('#') {
            k += 1;
        }
        self.peek(k) == Some('"')
    }
}

/// Lex one source file into tokens and comments.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        cs: src.chars().collect(),
        i: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        let l = lex("let s = \"unwrap() [0]\"; // unwrap here too\n/* [1] */ x");
        assert!(!l.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert_eq!(l.comments.len(), 2);
        assert!(l
            .comments
            .first()
            .is_some_and(|c| c.text.contains("unwrap")));
    }

    #[test]
    fn byte_strings_keep_contents() {
        let l = lex(r#"m.extend_from_slice(b"summary:");"#);
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::ByteStr && t.text == "summary:"));
    }

    #[test]
    fn raw_strings_and_nested_comments() {
        let l = lex("r##\"has \"quote\" inside\"## /* a /* nested */ b */ tail");
        assert_eq!(l.tokens.len(), 2);
        assert!(l.tokens.first().is_some_and(|t| t.kind == TokKind::Str));
        assert!(l.tokens.last().is_some_and(|t| t.is_ident("tail")));
        assert_eq!(l.comments.len(), 1);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let ks = kinds("fn f<'a>(x: &'a u8) { let c = 'x'; let e = '\\n'; }");
        assert_eq!(
            ks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(ks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn joined_puncts() {
        let ks = kinds("a::b -> c => 0..=9 .. ...");
        let ps: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(ps, vec!["::", "->", "=>", "..=", "..", "..."]);
    }

    #[test]
    fn tuple_field_then_method_is_not_a_number() {
        let ks = kinds("s.0.to_bytes(); 1.5");
        assert!(ks.contains(&(TokKind::Ident, "to_bytes".to_string())));
        assert!(ks.contains(&(TokKind::Num, "1.5".to_string())));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let ks = kinds("r#type x");
        assert_eq!(ks.first().map(|(k, _)| *k), Some(TokKind::Ident));
        assert_eq!(ks.first().map(|(_, t)| t.as_str()), Some("type"));
    }

    #[test]
    fn lines_are_tracked_across_multiline_tokens() {
        let l = lex("a\n\"x\ny\"\nb");
        let b = l.tokens.iter().find(|t| t.is_ident("b"));
        assert_eq!(b.map(|t| t.line), Some(4));
    }
}
