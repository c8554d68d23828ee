//! `stapl-lint` — the one RMI-discipline rule neither the runtime nor the
//! type system holds: **L2, borrow-across-poll**. A `RefCell` storage
//! borrow held across a poll point lets a handler delivered by that poll
//! touch the same container and panic on the double borrow — usually only
//! under the right interleaving, so no test reliably reaches it.
//!
//! The rule scans tokens from a hand-rolled lexer (no `syn`: the workspace
//! builds offline with vendored deps only). The other rules live where they
//! are held: blocking-in-handler (L1) in `Location::poll` and the
//! rendezvous, divergent-collective (L3) in the rendezvous, and
//! undocumented-unsafe (L6) in the workspace's clippy lint table. See
//! DESIGN.md "The RMI discipline: where each rule is held".

pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

/// One diagnostic: `file:line: borrow-across-poll [L2]: message (hint)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the sweep root, so diagnostics read the same on
    /// every machine.
    pub file: String,
    pub line: u32,
    pub message: String,
    pub hint: String,
}

impl Finding {
    pub fn render(&self) -> String {
        format!("{}:{}: borrow-across-poll [L2]: {}\n    hint: {}", self.file, self.line, self.message, self.hint)
    }
}

/// Directories under the root a default sweep visits.
const SWEEP_DIRS: &[&str] = &["src", "crates", "vendor", "examples", "tests"];

/// Collects the `.rs` files under `root`'s sweep directories, sorted. Build
/// output and the lint's own deliberately bad fixtures are pruned by
/// directory name, so a fixture tree can itself be swept by pointing the
/// root inside it.
pub fn sweep_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for dir in SWEEP_DIRS {
        collect_rs(&root.join(dir), &mut out);
    }
    out.sort();
    out
}

/// Recursively collects the `.rs` files under `dir`, skipping `target` and
/// `fixtures` directories.
pub fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.file_name().is_some_and(|n| n == "target" || n == "fixtures") {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints `files` (shown relative to `root` when they lie under it); returns
/// the findings sorted by file and line.
pub fn run(root: &Path, files: &[PathBuf]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for path in files {
        let Ok(src) = std::fs::read_to_string(path) else { continue };
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        findings.extend(rules::borrow_across_poll(&rel, &lexer::lex(&src)));
    }
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    findings.dedup();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_clickable() {
        let f = Finding {
            file: "crates/rts/src/lib.rs".into(),
            line: 42,
            message: "m".into(),
            hint: "h".into(),
        };
        assert!(f.render().starts_with("crates/rts/src/lib.rs:42: borrow-across-poll [L2]:"));
    }
}
