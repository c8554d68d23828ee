//! `// stapl-lint: allow(<rule>)` suppressions.
//!
//! A suppression comment names one or more rules (by slug or `L<n>` code,
//! or `all`) and silences matching findings in its scope:
//!
//! * trailing after code — that line only;
//! * on its own line — the next code line, and when that line begins an
//!   item (`fn`, `impl`, `struct`, a field, ...) the whole item through
//!   its closing brace or `;`.
//!
//! Suppressions are expected to carry a justification after the closing
//! paren (`// stapl-lint: allow(undocumented-unsafe) — vendored shim`);
//! `--list-suppressions` audits them all, flagging unused ones, so a
//! stale allow is visible instead of silently rotting.

use crate::lexer::{LexedFile, TokKind};
use crate::{Finding, Rule};

/// One parsed suppression comment.
#[derive(Clone, Debug)]
pub struct Suppression {
    pub file: String,
    /// Line of the comment itself.
    pub line: u32,
    /// `None` means `allow(all)`.
    pub rules: Vec<Option<Rule>>,
    /// Inclusive line range the suppression covers.
    pub from: u32,
    pub to: u32,
    /// Justification text after `allow(...)`, if any.
    pub note: String,
    /// Set during filtering when the suppression silenced ≥1 finding.
    pub used: bool,
}

const MARKER: &str = "stapl-lint:";

/// Extracts every suppression from a lexed file.
pub fn collect(path: &str, file: &LexedFile) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in &file.comments {
        // Doc comments describe suppressions; they don't carry them —
        // and the marker must *start* the comment, so prose that merely
        // mentions `stapl-lint: allow(...)` (like this crate's own docs)
        // is not a suppression.
        if c.text.starts_with("///") || c.text.starts_with("//!") || c.text.starts_with("/**") {
            continue;
        }
        let content = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = content.strip_prefix(MARKER) else { continue };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow") else { continue };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('(') else { continue };
        let Some(close) = rest.find(')') else { continue };
        let names = &rest[..close];
        let note = rest[close + 1..].trim().trim_start_matches(['—', '-', ' ']).to_string();
        let mut rules = Vec::new();
        for name in names.split(',') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("all") {
                rules.push(None);
            } else if let Some(r) = Rule::from_name(name) {
                rules.push(Some(r));
            }
            // Unknown rule names are skipped: an allow for a rule this
            // version doesn't know suppresses nothing (and shows up as
            // unused in the audit).
        }
        let (from, to) = scope_of(file, c);
        out.push(Suppression {
            file: path.to_string(),
            line: c.line,
            rules,
            from,
            to,
            note,
            used: false,
        });
    }
    out
}

/// The inclusive line range a suppression comment covers.
fn scope_of(file: &LexedFile, c: &crate::lexer::Comment) -> (u32, u32) {
    if !c.own_line {
        return (c.line, c.line);
    }
    // First code token after the comment.
    let Some(start) = file.toks.iter().position(|t| t.line > c.end_line) else {
        return (c.line, c.end_line);
    };
    let d = file.toks[start].depth;
    let mut end_line = file.toks[start].line;
    let mut j = start;
    while j < file.toks.len() {
        let t = &file.toks[j];
        if t.depth < d {
            break;
        }
        end_line = t.line;
        if t.depth == d {
            // `;` ends statements/items; `,` ends struct fields and enum
            // variants (so a field-level allow doesn't bleed into the
            // next field). Item-level code never uses bare `,`.
            if t.kind == TokKind::Punct && (t.text == ";" || t.text == ",") {
                break;
            }
            if t.kind == TokKind::Open && t.text == "{" {
                let close = crate::lexer::matching_close(&file.toks, j);
                end_line = file.toks.get(close).map_or(end_line, |t| t.line);
                break;
            }
        }
        j += 1;
    }
    (c.line, end_line)
}

/// Splits `findings` into (kept, suppressed_count), marking used
/// suppressions. A finding is suppressed by any suppression in the same
/// file whose line range contains it and whose rule list matches.
pub fn apply(findings: Vec<Finding>, sups: &mut [Suppression]) -> (Vec<Finding>, usize) {
    let mut kept = Vec::new();
    let mut suppressed = 0;
    for f in findings {
        let mut hit = false;
        for s in sups.iter_mut() {
            if s.file == f.file
                && s.from <= f.line
                && f.line <= s.to
                && s.rules.iter().any(|r| r.is_none() || *r == Some(f.rule))
            {
                s.used = true;
                hit = true;
            }
        }
        if hit {
            suppressed += 1;
        } else {
            kept.push(f);
        }
    }
    (kept, suppressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn finding(file: &str, line: u32, rule: Rule) -> Finding {
        Finding {
            file: file.into(),
            line,
            rule,
            message: "m".into(),
            hint: "h".into(),
        }
    }

    #[test]
    fn trailing_comment_covers_its_line_only() {
        let f = lex("unsafe { x() } // stapl-lint: allow(undocumented-unsafe) — test shim\nunsafe { y() }");
        let mut sups = collect("a.rs", &f);
        assert_eq!(sups.len(), 1);
        assert_eq!((sups[0].from, sups[0].to), (1, 1));
        assert_eq!(sups[0].note, "test shim");
        let (kept, n) = apply(
            vec![finding("a.rs", 1, Rule::UndocumentedUnsafe), finding("a.rs", 2, Rule::UndocumentedUnsafe)],
            &mut sups,
        );
        assert_eq!((kept.len(), n), (1, 1));
        assert!(sups[0].used);
    }

    #[test]
    fn own_line_comment_covers_the_following_item() {
        let src = "// stapl-lint: allow(L6) — whole fn is a shim\nfn f() {\n    unsafe { a() }\n    unsafe { b() }\n}\nunsafe fn g() {}";
        let f = lex(src);
        let mut sups = collect("a.rs", &f);
        assert_eq!((sups[0].from, sups[0].to), (1, 5));
        let (kept, n) = apply(
            vec![
                finding("a.rs", 3, Rule::UndocumentedUnsafe),
                finding("a.rs", 4, Rule::UndocumentedUnsafe),
                finding("a.rs", 6, Rule::UndocumentedUnsafe),
            ],
            &mut sups,
        );
        assert_eq!((kept.len(), n), (1, 2));
        assert_eq!(kept[0].line, 6);
    }

    #[test]
    fn rule_mismatch_does_not_suppress() {
        let f = lex("// stapl-lint: allow(borrow-across-poll)\nunsafe fn g() {}");
        let mut sups = collect("a.rs", &f);
        let (kept, n) = apply(vec![finding("a.rs", 2, Rule::UndocumentedUnsafe)], &mut sups);
        assert_eq!((kept.len(), n), (1, 0));
        assert!(!sups[0].used);
    }

    #[test]
    fn allow_all_and_multiple_rules() {
        let f = lex("// stapl-lint: allow(all)\nfn f() { let g = c.borrow(); loc.poll(); }");
        let mut sups = collect("a.rs", &f);
        let (kept, _) = apply(vec![finding("a.rs", 2, Rule::BorrowAcrossPoll)], &mut sups);
        assert!(kept.is_empty());

        let f2 = lex("x(); // stapl-lint: allow(L1, L2)");
        let sups2 = collect("b.rs", &f2);
        assert_eq!(sups2[0].rules.len(), 2);
    }

    #[test]
    fn prose_mentions_are_not_suppressions() {
        let src = "/// Silence with `// stapl-lint: allow(L6)`.\nfn f() {}\n//! also stapl-lint: allow(L1)\n// see stapl-lint: allow(L2) for details";
        assert!(collect("a.rs", &lex(src)).is_empty());
    }

    #[test]
    fn field_suppression_covers_one_declaration() {
        let src = "struct S {\n    // stapl-lint: allow(undocumented-unsafe) — see the struct docs\n    pub a: AtomicU64,\n    pub b: AtomicU64,\n}";
        let f = lex(src);
        let sups = collect("s.rs", &f);
        assert!(sups[0].from <= 3 && 3 <= sups[0].to, "covers its own field");
        assert!(sups[0].to < 4, "must not bleed into the next field");
    }
}
