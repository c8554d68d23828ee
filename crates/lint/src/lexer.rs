//! A small hand-rolled Rust lexer: enough token fidelity for the L2 scan,
//! none of the weight of `syn` (which the offline vendored-deps policy
//! rules out).
//!
//! The lexer produces a flat token stream with per-token line numbers and
//! `{}`/`()`/`[]` nesting depth; comments are skipped. String, char and
//! numeric literals are single `Lit` tokens, so the rule can never match
//! identifiers inside string data; a lifetime (`'a`) is a `Lit` too, never
//! the start of a char literal that swallows the rest of the file.

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
    /// lifetime — atoms the rule never looks inside.
    Lit,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Tok {
    pub kind: TokKind,
    /// The token's source text (quotes included for literals).
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// `{}`/`()`/`[]` nesting depth *outside* this token: an `Open` carries
    /// the depth of the scope it opens from, and its matching `Close`
    /// carries that same depth.
    pub depth: u32,
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src`. Malformed input (unterminated string, stray delimiter)
/// degrades gracefully: the lexer never panics, it just stops refining —
/// an analyzer must survive any bytes a sweep feeds it.
pub fn lex(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let at = |k: usize| b.get(k).copied().unwrap_or('\0');
    let (mut toks, mut i, mut line, mut depth) = (Vec::new(), 0, 1, 0);
    while i < b.len() {
        let start = i;
        let kind = if b[i].is_whitespace() {
            i += 1;
            None
        } else if b[i] == '/' && at(i + 1) == '/' {
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            None
        } else if b[i] == '/' && at(i + 1) == '*' {
            // Block comments nest.
            let mut nest = 0;
            while i < b.len() {
                let pair = (b[i], at(i + 1));
                i += if pair == ('/', '*') || pair == ('*', '/') { 2 } else { 1 };
                nest += i32::from(pair == ('/', '*')) - i32::from(pair == ('*', '/'));
                if nest == 0 {
                    break;
                }
            }
            None
        } else if let Some(end) = literal_end(&b, i) {
            i = end;
            Some(TokKind::Lit)
        } else if is_ident(b[i]) {
            while is_ident(at(i)) {
                i += 1;
            }
            Some(TokKind::Ident)
        } else {
            i += 1;
            Some(match b[start] {
                '(' | '[' | '{' => TokKind::Open,
                ')' | ']' | '}' => TokKind::Close,
                _ => TokKind::Punct,
            })
        };
        if let Some(kind) = kind {
            if kind == TokKind::Close {
                depth = u32::saturating_sub(depth, 1);
            }
            toks.push(Tok { kind, text: b[start..i].iter().collect(), line, depth });
            if kind == TokKind::Open {
                depth += 1;
            }
        }
        line += b[start..i].iter().filter(|&&c| c == '\n').count() as u32;
    }
    toks
}

/// The end of the literal or lifetime starting at `b[i]`, if one does:
/// a number (stopping before a range's `..`), a lifetime or char literal,
/// or a plain, byte (`b"`, `b'`) or raw (`r"`, `r#"`, `br#"`) string.
fn literal_end(b: &[char], i: usize) -> Option<usize> {
    let at = |k: usize| b.get(k).copied().unwrap_or('\0');
    if b[i].is_ascii_digit() {
        let mut j = i;
        while (is_ident(at(j)) || at(j) == '.') && !(at(j) == '.' && at(j + 1) == '.') {
            j += 1;
        }
        return Some(j);
    }
    if b[i] == '\'' && is_ident(at(i + 1)) && at(i + 2) != '\'' {
        // A lifetime: `'` and an identifier no quote closes after one char.
        return (i + 1..=b.len()).find(|&j| !is_ident(at(j)));
    }
    let j = i + usize::from(b[i] == 'b');
    let raw = at(j) == 'r';
    let open = j + usize::from(raw);
    let hashes = b[open.min(b.len())..].iter().take_while(|&&c| c == '#').count();
    match (at(open + hashes), raw) {
        // A raw string runs to a `"` followed by as many `#`s.
        ('"', true) => {
            let close = (open + hashes + 1..b.len()).find(|&k| b[k] == '"' && (1..=hashes).all(|h| at(k + h) == '#'));
            Some(close.map_or(b.len(), |k| k + 1 + hashes))
        }
        (q @ ('"' | '\''), false) if hashes == 0 && (j > i || b[i] == q) => {
            // Escapes skip the escaped char.
            let mut k = open + 1;
            while k < b.len() && b[k] != q {
                k += if b[k] == '\\' { 2 } else { 1 };
            }
            Some((k + 1).min(b.len()))
        }
        _ => None,
    }
}

/// Index of the `Close` matching the `Open` at `toks[open]`, or
/// `toks.len()` if unbalanced (graceful degradation on malformed input).
pub fn matching_close(toks: &[Tok], open: usize) -> usize {
    debug_assert_eq!(toks[open].kind, TokKind::Open);
    let d = toks[open].depth;
    (open + 1..toks.len()).find(|&k| toks[k].kind == TokKind::Close && toks[k].depth == d).unwrap_or(toks.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_puncts_and_depth() {
        let toks = lex("fn a() { b.c(1); }");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["fn", "a", "(", ")", "{", "b", ".", "c", "(", "1", ")", ";", "}"]);
        assert_eq!(toks[4].depth, 0); // `{` opens from depth 0
        assert_eq!(toks[8].depth, 1); // inner `(`
        assert_eq!(matching_close(&toks, 4), 12);
    }

    #[test]
    fn strings_hide_identifiers() {
        let toks = lex(r#"let x = "sync_rmi(barrier)"; call();"#);
        assert!(toks.iter().all(|t| t.kind != TokKind::Ident || t.text != "sync_rmi"));
    }

    #[test]
    fn raw_strings_and_chars() {
        let toks = lex("let a = r#\"barrier()\"#; let c = '\\n'; let l: &'static str = s;");
        assert!(toks.iter().all(|t| t.text != "barrier"));
        // 'static lexed as one lifetime atom, not a runaway char literal.
        assert!(toks.iter().any(|t| t.kind == TokKind::Lit && t.text == "'static"));
        assert!(toks.iter().any(|t| t.kind == TokKind::Ident && t.text == "str"));
    }

    #[test]
    fn comments_are_not_tokenized() {
        let toks = lex("a(); // trailing note\n// SAFETY: fine\nb();");
        assert!(toks.iter().all(|t| t.text != "trailing" && t.text != "SAFETY"));
        assert_eq!(toks.iter().find(|t| t.text == "b").unwrap().line, 3);
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let toks = lex("/* outer /* inner */ still\ncomment */ code();");
        assert_eq!(toks[0].text, "code");
        assert_eq!(toks[0].line, 2);
        assert!(toks.iter().all(|t| t.text != "still" && t.text != "comment"));
    }

    #[test]
    fn lines_advance_through_strings() {
        let toks = lex("let a = \"x\ny\";\nfinal_tok();");
        let ft = toks.iter().find(|t| t.text == "final_tok").unwrap();
        assert_eq!(ft.line, 3);
    }

    #[test]
    fn unterminated_string_does_not_hang() {
        let toks = lex("let a = \"never closed");
        assert!(toks.iter().any(|t| t.kind == TokKind::Lit));
    }
}
