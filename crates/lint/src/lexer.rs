//! A small hand-rolled Rust lexer: enough token fidelity for the
//! discipline lints, none of the weight of `syn` (which the offline
//! vendored-deps policy rules out).
//!
//! The lexer produces a flat token stream with per-token line numbers and
//! `{}`/`()`/`[]` nesting depth, plus a side list of comments (the rules
//! need comments for `// SAFETY:` adjacency and `// stapl-lint: allow`
//! suppressions). String/char/raw-string literals are lexed as single
//! `Lit` tokens so rule patterns can never match identifiers inside
//! string data; lifetimes are distinguished from char literals so `'a`
//! does not swallow the rest of the file.

/// Token classification; just enough structure for pattern scans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character (`.`, `=`, `|`, `;`, ...).
    Punct,
    /// Opening delimiter: `(`, `[`, or `{`.
    Open,
    /// Closing delimiter: `)`, `]`, or `}`.
    Close,
    /// String / raw-string / byte-string / char / numeric literal, or a
    /// lifetime (`'a`) — atoms the rules never need to look inside.
    Lit,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Tok {
    pub kind: TokKind,
    /// The token text. For `Lit` this is the raw source slice (quotes
    /// included for strings).
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// `{}`/`()`/`[]` nesting depth *outside* this token: an `Open` carries
    /// the depth of the scope it opens from, and its matching `Close`
    /// carries that same depth.
    pub depth: u32,
}

/// One comment (line or block), kept separate from the token stream.
#[derive(Clone, Debug)]
pub struct Comment {
    /// 1-based line of the comment's first character.
    pub line: u32,
    /// 1-based line of the comment's last character (same as `line` for
    /// line comments).
    pub end_line: u32,
    /// Full comment text including the `//` / `/* */` markers.
    pub text: String,
    /// True when nothing but whitespace precedes the comment on its line.
    pub own_line: bool,
}

/// A lexed source file: tokens, comments, and the raw lines (rules use the
/// raw lines for adjacency checks).
pub struct LexedFile {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
    pub lines: Vec<String>,
}

/// Lexes `src`. Malformed input (unterminated string, stray delimiter)
/// degrades gracefully: the lexer never panics, it just stops refining —
/// an analyzer must survive any bytes a sweep feeds it.
pub fn lex(src: &str) -> LexedFile {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut depth: u32 = 0;
    let mut line_had_code = false;

    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                line_had_code = false;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < b.len() && b[i + 1] == '/' => {
                let start = i;
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                comments.push(Comment {
                    line,
                    end_line: line,
                    text: b[start..i].iter().collect(),
                    own_line: !line_had_code,
                });
            }
            '/' if i + 1 < b.len() && b[i + 1] == '*' => {
                let start = i;
                let start_line = line;
                let own = !line_had_code;
                let mut nest = 1;
                i += 2;
                while i < b.len() && nest > 0 {
                    if b[i] == '\n' {
                        line += 1;
                    } else if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        nest += 1;
                        i += 1;
                    } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                        nest -= 1;
                        i += 1;
                    }
                    i += 1;
                }
                comments.push(Comment {
                    line: start_line,
                    end_line: line,
                    text: b[start..i.min(b.len())].iter().collect(),
                    own_line: own,
                });
                line_had_code = false;
            }
            '"' => {
                let (text, nl) = lex_string(&b, &mut i);
                toks.push(Tok { kind: TokKind::Lit, text, line, depth });
                line += nl;
                line_had_code = true;
            }
            '\'' => {
                // Lifetime (`'a`, `'static`) vs char literal (`'x'`,
                // `'\n'`): a lifetime is `'` + ident chars *not* closed by
                // a matching quote right after.
                let is_lifetime = i + 1 < b.len()
                    && (b[i + 1].is_alphanumeric() || b[i + 1] == '_')
                    && b[i + 1] != '\\'
                    && !(i + 2 < b.len() && b[i + 2] == '\'');
                if is_lifetime {
                    let start = i;
                    i += 1;
                    while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lit,
                        text: b[start..i].iter().collect(),
                        line,
                        depth,
                    });
                } else {
                    let start = i;
                    i += 1; // opening quote
                    if i < b.len() && b[i] == '\\' {
                        i += 2; // escape + escaped char
                        // Multi-char escapes (\x41, \u{..}) run to the quote.
                        while i < b.len() && b[i] != '\'' {
                            i += 1;
                        }
                    } else if i < b.len() {
                        i += 1; // the char itself
                    }
                    if i < b.len() && b[i] == '\'' {
                        i += 1; // closing quote
                    }
                    toks.push(Tok {
                        kind: TokKind::Lit,
                        text: b[start..i.min(b.len())].iter().collect(),
                        line,
                        depth,
                    });
                }
                line_had_code = true;
            }
            'r' | 'b' if starts_string_prefix(&b, i) => {
                let start = i;
                // Skip the prefix (`r`, `b`, `br`, `rb`) up to `#`s/quote.
                while i < b.len() && (b[i] == 'r' || b[i] == 'b') {
                    i += 1;
                }
                if i < b.len() && b[i] == '\'' {
                    // b'x' byte char: reuse the char path.
                    i += 1;
                    if i < b.len() && b[i] == '\\' {
                        i += 2;
                        while i < b.len() && b[i] != '\'' {
                            i += 1;
                        }
                    } else if i < b.len() {
                        i += 1;
                    }
                    if i < b.len() && b[i] == '\'' {
                        i += 1;
                    }
                } else {
                    let mut hashes = 0;
                    while i < b.len() && b[i] == '#' {
                        hashes += 1;
                        i += 1;
                    }
                    if i < b.len() && b[i] == '"' {
                        if hashes == 0 && b[start] != 'r' && !b[start..i].contains(&'r') {
                            // Plain b"..." — escapes apply.
                            let (_, nl) = lex_string(&b, &mut i);
                            line += nl;
                        } else {
                            // Raw string: runs to `"` followed by `hashes` #s.
                            i += 1;
                            loop {
                                if i >= b.len() {
                                    break;
                                }
                                if b[i] == '\n' {
                                    line += 1;
                                    i += 1;
                                    continue;
                                }
                                if b[i] == '"' {
                                    let mut ok = true;
                                    for k in 0..hashes {
                                        if b.get(i + 1 + k) != Some(&'#') {
                                            ok = false;
                                            break;
                                        }
                                    }
                                    if ok {
                                        i += 1 + hashes;
                                        break;
                                    }
                                }
                                i += 1;
                            }
                        }
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: b[start..i.min(b.len())].iter().collect(),
                    line,
                    depth,
                });
                line_had_code = true;
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: b[start..i].iter().collect(),
                    line,
                    depth,
                });
                line_had_code = true;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len()
                    && (b[i].is_alphanumeric() || b[i] == '_' || b[i] == '.')
                    // `1..n` range: stop the number before `..`.
                    && !(b[i] == '.' && b.get(i + 1) == Some(&'.'))
                {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: b[start..i].iter().collect(),
                    line,
                    depth,
                });
                line_had_code = true;
            }
            '(' | '[' | '{' => {
                toks.push(Tok { kind: TokKind::Open, text: c.to_string(), line, depth });
                depth += 1;
                i += 1;
                line_had_code = true;
            }
            ')' | ']' | '}' => {
                depth = depth.saturating_sub(1);
                toks.push(Tok { kind: TokKind::Close, text: c.to_string(), line, depth });
                i += 1;
                line_had_code = true;
            }
            _ => {
                toks.push(Tok { kind: TokKind::Punct, text: c.to_string(), line, depth });
                i += 1;
                line_had_code = true;
            }
        }
    }

    LexedFile {
        toks,
        comments,
        lines: src.lines().map(str::to_string).collect(),
    }
}

/// True when position `i` starts a raw/byte string or byte-char prefix
/// (`r"`, `r#`, `b"`, `b'`, `br`, `rb` forms) rather than a plain ident.
fn starts_string_prefix(b: &[char], i: usize) -> bool {
    let mut j = i;
    while j < b.len() && (b[j] == 'r' || b[j] == 'b') && j - i < 2 {
        j += 1;
    }
    match b.get(j) {
        Some('"') | Some('\'') => true,
        Some('#') => {
            // r#"..."# raw string vs r#ident raw identifier: a raw string
            // has `"` after the hashes.
            let mut k = j;
            while b.get(k) == Some(&'#') {
                k += 1;
            }
            b.get(k) == Some(&'"')
        }
        _ => false,
    }
}

/// Lexes a plain `"..."` string starting at `b[*i] == '"'`; advances `*i`
/// past the closing quote and returns `(text, newlines_crossed)`.
fn lex_string(b: &[char], i: &mut usize) -> (String, u32) {
    let start = *i;
    let mut nl = 0;
    *i += 1;
    while *i < b.len() {
        match b[*i] {
            '\\' => *i += 2,
            '"' => {
                *i += 1;
                break;
            }
            '\n' => {
                nl += 1;
                *i += 1;
            }
            _ => *i += 1,
        }
    }
    (b[start..(*i).min(b.len())].iter().collect(), nl)
}

/// Index of the `Close` matching the `Open` at `toks[open]`, or
/// `toks.len()` if unbalanced (graceful degradation on malformed input).
pub fn matching_close(toks: &[Tok], open: usize) -> usize {
    debug_assert_eq!(toks[open].kind, TokKind::Open);
    let d = toks[open].depth;
    for (off, t) in toks[open + 1..].iter().enumerate() {
        if t.kind == TokKind::Close && t.depth == d {
            return open + 1 + off;
        }
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_puncts_and_depth() {
        let f = lex("fn a() { b.c(1); }");
        let texts: Vec<&str> = f.toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["fn", "a", "(", ")", "{", "b", ".", "c", "(", "1", ")", ";", "}"]);
        assert_eq!(f.toks[4].depth, 0); // `{` opens from depth 0
        assert_eq!(f.toks[8].depth, 1); // inner `(`
        assert_eq!(matching_close(&f.toks, 4), 12);
    }

    #[test]
    fn strings_hide_identifiers() {
        let f = lex(r#"let x = "sync_rmi(barrier)"; call();"#);
        assert!(f.toks.iter().all(|t| t.kind != TokKind::Ident || t.text != "sync_rmi"));
    }

    #[test]
    fn raw_strings_and_chars() {
        let f = lex("let a = r#\"barrier()\"#; let c = '\\n'; let l: &'static str = s;");
        assert!(f.toks.iter().all(|t| t.text != "barrier"));
        // 'static lexed as one lifetime atom, not a runaway char literal.
        assert!(f.toks.iter().any(|t| t.kind == TokKind::Lit && t.text == "'static"));
        assert!(f.toks.iter().any(|t| t.kind == TokKind::Ident && t.text == "str"));
    }

    #[test]
    fn comments_collected_not_tokenized() {
        let f = lex("a(); // trailing note\n// SAFETY: fine\nb();");
        assert_eq!(f.comments.len(), 2);
        assert!(!f.comments[0].own_line);
        assert!(f.comments[1].own_line);
        assert_eq!(f.comments[1].line, 2);
        assert!(f.toks.iter().all(|t| t.text != "SAFETY"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let f = lex("/* outer /* inner */ still\ncomment */ code();");
        assert_eq!(f.comments.len(), 1);
        assert_eq!(f.comments[0].line, 1);
        assert_eq!(f.comments[0].end_line, 2);
        assert!(f.toks.iter().any(|t| t.text == "code"));
        assert_eq!(f.toks[0].line, 2);
    }

    #[test]
    fn lines_advance_through_strings() {
        let f = lex("let a = \"x\ny\";\nfinal_tok();");
        let ft = f.toks.iter().find(|t| t.text == "final_tok").unwrap();
        assert_eq!(ft.line, 3);
    }

    #[test]
    fn unterminated_string_does_not_hang() {
        let f = lex("let a = \"never closed");
        assert!(f.toks.iter().any(|t| t.kind == TokKind::Lit));
    }
}
