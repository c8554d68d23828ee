//! Cross-file workspace check: L5 knob-doc drift.
//!
//! Every `STAPL_*` env var read in `rts/src/config.rs` (plus the
//! `STAPL_FAULTS` sub-keys matched in `rts/src/fault.rs`) must appear in
//! the README knob table, and every `STAPL_*` var the README knob table
//! documents must be read by `config.rs`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::lexer::{lex, str_lit_value, LexedFile, TokKind};
use crate::{Finding, Rule};

/// Relative paths of the artifacts the workspace check correlates. A
/// directory missing `config` or `readme` is not a stapl workspace root
/// and the check is skipped.
pub struct WorkspacePaths {
    pub config: &'static str,
    pub fault: &'static str,
    pub readme: &'static str,
}

impl Default for WorkspacePaths {
    fn default() -> Self {
        WorkspacePaths {
            config: "crates/rts/src/config.rs",
            fault: "crates/rts/src/fault.rs",
            readme: "README.md",
        }
    }
}

/// True when `root` has the artifacts the workspace check needs.
pub fn is_workspace_root(root: &Path) -> bool {
    let p = WorkspacePaths::default();
    root.join(p.config).is_file() && root.join(p.readme).is_file()
}

/// Runs L5 against `root`.
pub fn check(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    let p = WorkspacePaths::default();
    let lexed = |rel: &str| -> Option<LexedFile> {
        let abs = root.join(rel);
        std::fs::read_to_string(abs).ok().map(|s| lex(&s))
    };

    if let Some(config) = lexed(p.config) {
        let read_vars = stapl_literals(&config);
        let readme_text = std::fs::read_to_string(root.join(p.readme)).unwrap_or_default();
        let (table_vars, table_text) = readme_knob_table(&readme_text);

        for (var, line) in &read_vars {
            if !table_vars.contains_key(var.as_str()) {
                out.push(Finding {
                    file: p.config.to_string(),
                    line: *line,
                    rule: Rule::KnobDocDrift,
                    message: format!(
                        "env knob `{var}` is read here but missing from the \
                         README knob table"
                    ),
                    hint: "every runtime knob needs a README row: variable, \
                           default, and one-line meaning"
                        .to_string(),
                });
            }
        }
        for (var, line) in &table_vars {
            if !read_vars.iter().any(|(v, _)| v == var) {
                out.push(Finding {
                    file: p.readme.to_string(),
                    line: *line,
                    rule: Rule::KnobDocDrift,
                    message: format!(
                        "README knob table documents `{var}` but \
                         rts/src/config.rs never reads it"
                    ),
                    hint: "delete the stale row or wire the knob back up".to_string(),
                });
            }
        }
        if let Some(fault) = lexed(p.fault) {
            for (key, line) in fault_subkeys(&fault) {
                if !table_text.contains(&format!("{key}:")) {
                    out.push(Finding {
                        file: p.fault.to_string(),
                        line,
                        rule: Rule::KnobDocDrift,
                        message: format!(
                            "`STAPL_FAULTS` sub-key `{key}` is parsed here but \
                             not shown in the README knob table's STAPL_FAULTS row"
                        ),
                        hint: "extend the STAPL_FAULTS example in the README knob \
                               table to mention every sub-key"
                            .to_string(),
                    });
                }
            }
        }
    }

    out
}

/// `STAPL_*` string literals in config.rs (the env vars actually read),
/// with lines, deduplicated.
fn stapl_literals(config: &LexedFile) -> Vec<(String, u32)> {
    let mut out: Vec<(String, u32)> = Vec::new();
    for t in &config.toks {
        if t.kind != TokKind::Lit {
            continue;
        }
        let Some(v) = str_lit_value(&t.text) else { continue };
        if v.starts_with("STAPL_") && !out.iter().any(|(n, _)| n == v) {
            out.push((v.to_string(), t.line));
        }
    }
    out
}

/// Fault-schedule sub-keys: string literals matched with `=>` arms in
/// fault.rs (`"drop" => ...`).
fn fault_subkeys(fault: &LexedFile) -> Vec<(String, u32)> {
    let toks = &fault.toks;
    let mut out: Vec<(String, u32)> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Lit
            && toks.get(i + 1).is_some_and(|t| t.text == "=")
            && toks.get(i + 2).is_some_and(|t| t.text == ">")
        {
            if let Some(v) = str_lit_value(&toks[i].text) {
                let is_key =
                    !v.is_empty() && v.chars().all(|c| c.is_ascii_lowercase() || c == '_');
                if is_key && !out.iter().any(|(n, _)| n == v) {
                    out.push((v.to_string(), toks[i].line));
                }
            }
        }
    }
    out
}

/// `STAPL_*` variables mentioned in README *table rows* (lines starting
/// with `|`), with lines — plus the concatenated table text for sub-key
/// checks. Prose mentions outside tables are ignored.
fn readme_knob_table(readme: &str) -> (BTreeMap<String, u32>, String) {
    let mut vars = BTreeMap::new();
    let mut table_text = String::new();
    for (lineno, line) in readme.lines().enumerate() {
        if !line.trim_start().starts_with('|') {
            continue;
        }
        table_text.push_str(line);
        table_text.push('\n');
        let bytes = line.as_bytes();
        let mut k = 0;
        while let Some(pos) = line[k..].find("STAPL_") {
            let start = k + pos;
            let mut end = start;
            while end < bytes.len()
                && (bytes[end].is_ascii_uppercase() || bytes[end] == b'_' || bytes[end].is_ascii_digit())
            {
                end += 1;
            }
            let var = &line[start..end];
            if var.len() > "STAPL_".len() {
                vars.entry(var.to_string()).or_insert(lineno as u32 + 1);
            }
            k = end;
        }
    }
    (vars, table_text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn fault_keys_parse() {
        let f = lex("fn parse() { match key { \"drop\" => x(), \"delay_us\" => y(), _ => return Err(format!(\"bad {k}\")) } }");
        let keys = fault_subkeys(&f);
        let names: Vec<&str> = keys.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["drop", "delay_us"]);
    }

    #[test]
    fn readme_table_vars_only_from_table_rows() {
        let md = "Set STAPL_IGNORED=1 in prose.\n| `aggregation` | 16 | `STAPL_AGGREGATION` | how many |\n| `trace` | 0 | `STAPL_TRACE` (0/1) | on/off |\n";
        let (vars, text) = readme_knob_table(md);
        assert!(vars.contains_key("STAPL_AGGREGATION"));
        assert!(vars.contains_key("STAPL_TRACE"));
        assert!(!vars.contains_key("STAPL_IGNORED"));
        assert!(text.contains("aggregation"));
    }

    #[test]
    fn stapl_literals_dedup() {
        let f = lex("fn f() { get(\"STAPL_A\"); get(\"STAPL_A\"); get(\"STAPL_B\"); get(\"other\"); }");
        let v = stapl_literals(&f);
        assert_eq!(v.len(), 2);
    }
}
