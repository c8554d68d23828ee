//! `stapl-lint` — a workspace-wide RMI-discipline static analyzer.
//!
//! The STAPL runtime's correctness story rests on discipline the type
//! system cannot see: handlers must not block (they run inside the
//! polling loop), collectives must be reached by every location, storage
//! borrows must not be held across poll points, and `unsafe` must state
//! its invariants. This crate
//! checks those rules as named, suppressible lints over a hand-rolled
//! token-level lexer (no `syn` — the workspace builds offline with
//! vendored deps only). See DESIGN.md "Static analysis: stapl-lint".
//!
//! Rule catalog:
//!
//! | code | slug                  | checks                                   |
//! |------|-----------------------|------------------------------------------|
//! | L1   | blocking-in-handler   | blocking calls in RMI-handler closures   |
//! | L2   | borrow-across-poll    | borrow guards live across poll points    |
//! | L3   | divergent-collective  | collectives under location-id guards     |
//! | L6   | undocumented-unsafe   | `unsafe` without `// SAFETY:`            |
//!
//! (L4, counter-gate-drift, is retired: counters are declared once in the
//! `counters!` table of `stapl-rts`, so there is no drift to detect. L5,
//! knob-doc-drift, is retired as L4: knobs are declared once in the
//! `knobs!` table, which also generates their documented table.)

pub mod lexer;
pub mod rules;
pub mod suppress;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use lexer::LexedFile;
use suppress::Suppression;

/// The lint rules. Suppressible by slug or code via
/// `// stapl-lint: allow(<rule>)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    BlockingInHandler,
    BorrowAcrossPoll,
    DivergentCollective,
    UndocumentedUnsafe,
}

impl Rule {
    pub const ALL: [Rule; 4] = [
        Rule::BlockingInHandler,
        Rule::BorrowAcrossPoll,
        Rule::DivergentCollective,
        Rule::UndocumentedUnsafe,
    ];

    /// Kebab-case rule name used in diagnostics and `allow(...)`.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::BlockingInHandler => "blocking-in-handler",
            Rule::BorrowAcrossPoll => "borrow-across-poll",
            Rule::DivergentCollective => "divergent-collective",
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
        }
    }

    /// Short code (`L1`..`L6`; `L4` and `L5` are retired), also accepted in
    /// `allow(...)`.
    pub fn code(self) -> &'static str {
        match self {
            Rule::BlockingInHandler => "L1",
            Rule::BorrowAcrossPoll => "L2",
            Rule::DivergentCollective => "L3",
            Rule::UndocumentedUnsafe => "L6",
        }
    }

    /// Parses a slug or code, case-insensitively.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL
            .into_iter()
            .find(|r| r.slug().eq_ignore_ascii_case(name) || r.code().eq_ignore_ascii_case(name))
    }
}

/// One diagnostic: `file:line: rule: message (hint)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the sweep root (stable across machines — the
    /// JSON output must diff cleanly in CI).
    pub file: String,
    pub line: u32,
    pub rule: Rule,
    pub message: String,
    pub hint: String,
}

impl Finding {
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {} [{}]: {}\n    hint: {}",
            self.file,
            self.line,
            self.rule.slug(),
            self.rule.code(),
            self.message,
            self.hint
        )
    }
}

/// Result of one full lint run.
pub struct LintRun {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Count of findings silenced by suppressions.
    pub suppressed: usize,
    /// Every suppression seen, with its `used` flag set.
    pub suppressions: Vec<Suppression>,
    /// Number of files lexed and scanned.
    pub files_scanned: usize,
}

/// Directories under the root a default sweep visits.
const SWEEP_DIRS: &[&str] = &["src", "crates", "vendor", "examples", "tests"];

/// Directory names pruned from the sweep: build output and the lint's
/// own deliberately-bad fixtures. Checked against the entry name only,
/// so a fixture tree can itself be swept by pointing the root inside it.
fn excluded(path: &Path) -> bool {
    path.file_name().is_some_and(|n| n == "target" || n == "fixtures")
}

/// Collects the `.rs` files of a default sweep under `root`, sorted.
pub fn sweep_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for dir in SWEEP_DIRS {
        collect_rs(&root.join(dir), &mut out);
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if excluded(&path) {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints the given files (paths shown relative to `root` when possible).
pub fn run(root: &Path, files: &[PathBuf]) -> LintRun {
    let mut lexed: BTreeMap<String, LexedFile> = BTreeMap::new();
    for path in files {
        let Ok(src) = std::fs::read_to_string(path) else { continue };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        lexed.insert(rel, lexer::lex(&src));
    }

    let mut findings = Vec::new();
    let mut sups: Vec<Suppression> = Vec::new();
    for (rel, file) in &lexed {
        findings.extend(rules::blocking_in_handler(rel, file));
        findings.extend(rules::borrow_across_poll(rel, file));
        findings.extend(rules::divergent_collective(rel, file));
        findings.extend(rules::undocumented_unsafe(rel, file));
        sups.extend(suppress::collect(rel, file));
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    findings.dedup();

    let files_scanned = lexed.len();
    let (findings, suppressed) = suppress::apply(findings, &mut sups);
    LintRun { findings, suppressed, suppressions: sups, files_scanned }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes a run as the machine-readable report:
/// `{"version":1,"files_scanned":N,"suppressed":N,"findings":[...]}`.
pub fn to_json(run: &LintRun) -> String {
    let mut s = format!(
        "{{\n  \"version\": 1,\n  \"files_scanned\": {},\n  \"suppressed\": {},\n  \"findings\": [",
        run.files_scanned, run.suppressed
    );
    for (i, f) in run.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"code\": \"{}\", \
             \"message\": \"{}\", \"hint\": \"{}\"}}",
            json_escape(&f.file),
            f.line,
            f.rule.slug(),
            f.rule.code(),
            json_escape(&f.message),
            json_escape(&f.hint)
        ));
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Parses the findings array back out of [`to_json`] output — the
/// schema's round-trip contract, used by tests and any tooling that
/// consumes the report. Returns `None` on malformed input.
pub fn findings_from_json(json: &str) -> Option<Vec<Finding>> {
    let start = json.find("\"findings\"")?;
    let open = start + json[start..].find('[')?;
    // The array ends at the matching `]`; findings objects contain no
    // nested arrays, so the first `]` after the last object closes it.
    let close = open + json[open..].find("\n  ]")?;
    let body = &json[open + 1..close];
    let mut out = Vec::new();
    for obj in body.split("},") {
        let obj = obj.trim().trim_start_matches('{').trim_end_matches(['}', '\n', ' ']);
        if obj.is_empty() {
            continue;
        }
        let field = |key: &str| -> Option<String> {
            let k = format!("\"{key}\": ");
            let p = obj.find(&k)? + k.len();
            let rest = &obj[p..];
            if let Some(rest) = rest.strip_prefix('"') {
                let mut val = String::new();
                let mut chars = rest.chars();
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => match chars.next() {
                            Some('n') => val.push('\n'),
                            Some('t') => val.push('\t'),
                            Some('r') => val.push('\r'),
                            Some(e) => val.push(e),
                            None => return None,
                        },
                        '"' => return Some(val),
                        c => val.push(c),
                    }
                }
                None
            } else {
                Some(rest.split([',', '}']).next()?.trim().to_string())
            }
        };
        out.push(Finding {
            file: field("file")?,
            line: field("line")?.parse().ok()?,
            rule: Rule::from_name(&field("rule")?)?,
            message: field("message")?,
            hint: field("hint")?,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_name(r.slug()), Some(r));
            assert_eq!(Rule::from_name(r.code()), Some(r));
            assert_eq!(Rule::from_name(&r.code().to_lowercase()), Some(r));
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    #[test]
    fn json_round_trips() {
        let run = LintRun {
            findings: vec![
                Finding {
                    file: "a/b.rs".into(),
                    line: 7,
                    rule: Rule::UndocumentedUnsafe,
                    message: "quote \" and \\ backslash\nnewline".into(),
                    hint: "h".into(),
                },
                Finding {
                    file: "c.rs".into(),
                    line: 1,
                    rule: Rule::DivergentCollective,
                    message: "m".into(),
                    hint: "tab\there".into(),
                },
            ],
            suppressed: 3,
            suppressions: Vec::new(),
            files_scanned: 2,
        };
        let json = to_json(&run);
        let parsed = findings_from_json(&json).expect("parses");
        assert_eq!(parsed, run.findings);
        assert!(json.contains("\"suppressed\": 3"));
    }

    #[test]
    fn empty_findings_round_trip() {
        let run = LintRun {
            findings: Vec::new(),
            suppressed: 0,
            suppressions: Vec::new(),
            files_scanned: 0,
        };
        assert_eq!(findings_from_json(&to_json(&run)), Some(Vec::new()));
    }

    #[test]
    fn render_is_clickable() {
        let f = Finding {
            file: "crates/rts/src/lib.rs".into(),
            line: 42,
            rule: Rule::BlockingInHandler,
            message: "m".into(),
            hint: "h".into(),
        };
        let r = f.render();
        assert!(r.starts_with("crates/rts/src/lib.rs:42: blocking-in-handler [L1]:"));
    }
}
