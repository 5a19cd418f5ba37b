//! A hand-written Rust surface lexer.
//!
//! Splits a source file into classified byte-range tokens — code, line
//! comments, (nested) block comments, string/char literals in every
//! flavour (`"…"`, `b"…"`, `r"…"`/`r#"…"#`, `br#"…"#`, `'c'`, `b'c'`) —
//! so rules can match needles in *code* without being fooled by matches
//! inside comments or literals. Lifetimes (`'a`) are told apart from
//! char literals, and raw-string hash fences may be any length.
//!
//! On top of the token stream the lexer resolves `#[cfg(test)]` (and
//! `#[test]`) scoping by **brace extent**: the attribute exempts exactly
//! the item it is attached to — up to the matching close brace of the
//! item's body, or the terminating `;` for brace-less items — instead of
//! the old verify.sh heuristic that stopped scanning a whole file at its
//! *first* test attribute. Attributes are recognised literally
//! (`#[cfg(test)]`), which is the only spelling this workspace uses.

/// Classification of a lexed byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Plain code: everything that is not a comment or a literal.
    Code,
    /// `// …` to end of line (includes `///` and `//!` doc comments).
    LineComment,
    /// `/* … */`, with nesting.
    BlockComment,
    /// Any string/char/byte literal (`"…"`, `r#"…"#`, `b"…"`, `'c'`, …).
    Literal,
}

/// A classified byte range of the source.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// What the range is.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

/// A lexed source file: tokens plus the line map and test extents
/// derived from them.
pub struct Lexed<'a> {
    /// The source text the token offsets index into.
    pub src: &'a str,
    /// The classified ranges, in order, covering the whole file.
    pub tokens: Vec<Token>,
    /// Byte offset of the start of each line (line 1 first).
    line_starts: Vec<usize>,
    /// Byte ranges covered by a `#[cfg(test)]`/`#[test]` item.
    test_ranges: Vec<(usize, usize)>,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

impl<'a> Lexed<'a> {
    /// Lex a whole file.
    pub fn lex(src: &'a str) -> Lexed<'a> {
        let bytes = src.as_bytes();
        let mut tokens: Vec<Token> = Vec::new();
        let mut code_start = 0usize;
        let mut i = 0usize;

        let flush_code = |tokens: &mut Vec<Token>, code_start: usize, end: usize| {
            if end > code_start {
                tokens.push(Token { kind: TokKind::Code, start: code_start, end });
            }
        };

        while i < bytes.len() {
            let b = bytes[i];
            // Line comment.
            if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                flush_code(&mut tokens, code_start, i);
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                tokens.push(Token { kind: TokKind::LineComment, start, end: i });
                code_start = i;
                continue;
            }
            // Block comment, nesting tracked.
            if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                flush_code(&mut tokens, code_start, i);
                let start = i;
                i += 2;
                let mut depth = 1usize;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                tokens.push(Token { kind: TokKind::BlockComment, start, end: i });
                code_start = i;
                continue;
            }
            // Identifier (consumed whole so `unsafe_code` never reads as
            // `unsafe`, and so `r`/`b`/`br` string prefixes are seen).
            if b.is_ascii_alphabetic() || b == b'_' {
                let word_start = i;
                while i < bytes.len() && is_ident(bytes[i]) {
                    i += 1;
                }
                let word = &src[word_start..i];
                // Raw / byte string prefixes: the literal starts at the
                // prefix, not at the quote.
                let (raw, byte_str) = match word {
                    "r" => (true, false),
                    "b" => (false, true),
                    "br" => (true, true),
                    _ => (false, false),
                };
                if raw || byte_str {
                    let mut j = i;
                    let mut hashes = 0usize;
                    if raw {
                        while bytes.get(j) == Some(&b'#') {
                            hashes += 1;
                            j += 1;
                        }
                    }
                    if bytes.get(j) == Some(&b'"') && (raw || hashes == 0) {
                        flush_code(&mut tokens, code_start, word_start);
                        i = if raw {
                            Self::scan_raw_string(bytes, j + 1, hashes)
                        } else {
                            Self::scan_string(bytes, j + 1)
                        };
                        tokens.push(Token { kind: TokKind::Literal, start: word_start, end: i });
                        code_start = i;
                        continue;
                    }
                    // `b'x'` byte-char literal.
                    if byte_str && !raw && bytes.get(j) == Some(&b'\'') {
                        flush_code(&mut tokens, code_start, word_start);
                        i = Self::scan_char(bytes, j + 1);
                        tokens.push(Token { kind: TokKind::Literal, start: word_start, end: i });
                        code_start = i;
                        continue;
                    }
                }
                continue;
            }
            // String literal.
            if b == b'"' {
                flush_code(&mut tokens, code_start, i);
                let start = i;
                i = Self::scan_string(bytes, i + 1);
                tokens.push(Token { kind: TokKind::Literal, start, end: i });
                code_start = i;
                continue;
            }
            // Char literal vs lifetime: `'` starts a char literal when it
            // is `'\…'` or `'<one scalar>'`; `'ident` not followed by a
            // closing quote is a lifetime and stays code.
            if b == b'\'' {
                let next = bytes.get(i + 1).copied();
                let is_char = match next {
                    Some(b'\\') => true,
                    Some(c) if is_ident(c) => {
                        // `'a'` is a char; `'a` (no close) is a lifetime.
                        let mut j = i + 1;
                        while j < bytes.len() && is_ident(bytes[j]) {
                            j += 1;
                        }
                        bytes.get(j) == Some(&b'\'')
                    }
                    Some(b'\'') => false,
                    Some(_) => {
                        // Punctuation char like `'.'` or `'('`: a char
                        // literal exactly when a quote closes it. Find
                        // the char's end (one UTF-8 scalar) and peek.
                        let mut j = i + 2;
                        while j < bytes.len() && bytes[j] & 0xC0 == 0x80 {
                            j += 1;
                        }
                        j < bytes.len() && bytes[j] == b'\''
                    }
                    None => false,
                };
                if is_char {
                    flush_code(&mut tokens, code_start, i);
                    let start = i;
                    i = Self::scan_char(bytes, i + 1);
                    tokens.push(Token { kind: TokKind::Literal, start, end: i });
                    code_start = i;
                    continue;
                }
                i += 1;
                continue;
            }
            i += 1;
        }
        flush_code(&mut tokens, code_start, bytes.len());

        let mut line_starts = vec![0usize];
        for (off, byte) in bytes.iter().enumerate() {
            if *byte == b'\n' {
                line_starts.push(off + 1);
            }
        }

        let mut lexed = Lexed { src, tokens, line_starts, test_ranges: Vec::new() };
        lexed.test_ranges = lexed.find_test_ranges();
        lexed
    }

    /// Scan past a `"…"` body with escapes; `i` is just after the quote.
    fn scan_string(bytes: &[u8], mut i: usize) -> usize {
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => return i + 1,
                _ => i += 1,
            }
        }
        i
    }

    /// Scan past a `r#"…"#` body; `i` is just after the opening quote.
    fn scan_raw_string(bytes: &[u8], mut i: usize, hashes: usize) -> usize {
        while i < bytes.len() {
            if bytes[i] == b'"' {
                let mut j = i + 1;
                let mut n = 0usize;
                while n < hashes && bytes.get(j) == Some(&b'#') {
                    n += 1;
                    j += 1;
                }
                if n == hashes {
                    return j;
                }
            }
            i += 1;
        }
        i
    }

    /// Scan past a `'…'` body with escapes; `i` is just after the quote.
    fn scan_char(bytes: &[u8], mut i: usize) -> usize {
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'\'' => return i + 1,
                _ => i += 1,
            }
        }
        i
    }

    /// Resolve every `#[cfg(test)]` / `#[test]` attribute in code to the
    /// byte extent of the item it attaches to: through the matching `}`
    /// of the first brace block at the attribute's level, or to the first
    /// `;` before any block (`#[cfg(test)] use …;`, `mod t;`).
    fn find_test_ranges(&self) -> Vec<(usize, usize)> {
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        for t in &self.tokens {
            if t.kind != TokKind::Code {
                continue;
            }
            let text = &self.src[t.start..t.end];
            for pat in ["#[cfg(test)]", "#[test]"] {
                let mut from = 0usize;
                while let Some(rel) = text[from..].find(pat) {
                    let at = t.start + from + rel;
                    from += rel + pat.len();
                    if ranges.iter().any(|(s, e)| at >= *s && at < *e) {
                        continue;
                    }
                    let end = self.item_extent_end(at + pat.len());
                    ranges.push((at, end));
                }
            }
        }
        ranges.sort_unstable();
        ranges
    }

    /// Walk code tokens from `from` and return the byte offset just past
    /// the attached item: the matching `}` of the first top-level brace
    /// block, or the first top-level `;` seen before any block.
    fn item_extent_end(&self, from: usize) -> usize {
        let mut depth = 0i64;
        let mut seen_block = false;
        for t in &self.tokens {
            if t.kind != TokKind::Code || t.end <= from {
                continue;
            }
            let start = t.start.max(from);
            for (rel, b) in self.src.as_bytes()[start..t.end].iter().enumerate() {
                match b {
                    b'{' => {
                        depth += 1;
                        seen_block = true;
                    }
                    b'}' => {
                        depth -= 1;
                        if seen_block && depth <= 0 {
                            return start + rel + 1;
                        }
                    }
                    b';' if depth == 0 && !seen_block => return start + rel + 1,
                    _ => {}
                }
            }
        }
        self.src.len()
    }

    /// 1-based line number of a byte offset.
    pub(crate) fn line_of(&self, off: usize) -> usize {
        self.line_starts.partition_point(|s| *s <= off)
    }

    /// 1-based (line, column) of a byte offset (column in bytes).
    pub fn line_col(&self, off: usize) -> (usize, usize) {
        let line = self.line_of(off);
        (line, off - self.line_starts[line - 1] + 1)
    }

    /// The text of a 1-based line, without its newline.
    pub fn line_text(&self, line: usize) -> &'a str {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map(|s| s - 1)
            .unwrap_or(self.src.len());
        self.src[start..end].trim_end_matches('\r')
    }

    /// Whether `off` falls inside a `#[cfg(test)]`/`#[test]` item.
    pub fn in_test(&self, off: usize) -> bool {
        self.test_ranges.iter().any(|(s, e)| off >= *s && off < *e)
    }

    /// Whether any comment token ending on `line` contains `marker`
    /// (inline allowlists live in comments, never in code or literals).
    pub fn line_has_marker(&self, line: usize, marker: &str) -> bool {
        self.tokens.iter().any(|t| {
            matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
                && self.line_of(t.end.saturating_sub(1)) >= line
                && self.line_of(t.start) <= line
                && self.src[t.start..t.end].contains(marker)
        })
    }

    /// The code tokens (offset + text), in order.
    pub fn code_segments(&self) -> impl Iterator<Item = (usize, &'a str)> + '_ {
        self.tokens
            .iter()
            .filter(|t| t.kind == TokKind::Code)
            .map(|t| (t.start, &self.src[t.start..t.end]))
    }

    /// Flatten the code tokens into a lexeme stream of identifiers and
    /// single punctuation bytes (whitespace and numerics dropped), for
    /// rules that need word-level context.
    pub(crate) fn code_lexemes(&self) -> Vec<(usize, Lexeme<'a>)> {
        let mut out = Vec::new();
        for (base, text) in self.code_segments() {
            let bytes = text.as_bytes();
            let mut i = 0usize;
            while i < bytes.len() {
                let b = bytes[i];
                if b.is_ascii_alphabetic() || b == b'_' {
                    let s = i;
                    while i < bytes.len() && is_ident(bytes[i]) {
                        i += 1;
                    }
                    out.push((base + s, Lexeme::Ident(&text[s..i])));
                } else if b.is_ascii_whitespace() || b.is_ascii_digit() {
                    i += 1;
                } else {
                    out.push((base + i, Lexeme::Punct(b)));
                    i += 1;
                }
            }
        }
        out
    }
}

/// A word-level code lexeme (see `Lexed::code_lexemes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lexeme<'a> {
    /// An identifier or keyword.
    Ident(&'a str),
    /// One punctuation byte.
    Punct(u8),
}
