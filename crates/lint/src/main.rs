//! CLI for `stapl-lint`.
//!
//! ```text
//! stapl-lint [--root DIR] [--json] [--deny-all] [--list-suppressions] [PATH...]
//! ```
//!
//! With no PATHs, sweeps the workspace under `--root` (default: the
//! current directory, walking up to the workspace root if invoked from a
//! crate directory). With explicit PATHs, lints just those
//! files/directories.
//!
//! Exit status: 0 clean, 1 findings present (or, under `--deny-all`,
//! unused suppressions), 2 usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stapl_lint as lint;

const USAGE: &str = "\
usage: stapl-lint [options] [PATH...]

options:
  --root DIR            workspace root to sweep and resolve paths against
  --json                emit the machine-readable report on stdout
  --deny-all            exit 1 on any finding or unused suppression (CI mode)
  --list-suppressions   audit every `stapl-lint: allow(...)` comment
  --help                show this help

rules: blocking-in-handler (L1), borrow-across-poll (L2),
       divergent-collective (L3), undocumented-unsafe (L6)
suppress with: // stapl-lint: allow(<rule>[, <rule>...]) — justification";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut deny_all = false;
    let mut list_sups = false;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => {
                    eprintln!("stapl-lint: --root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--deny-all" => deny_all = true,
            "--list-suppressions" => list_sups = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with("--") => {
                eprintln!("stapl-lint: unknown option `{arg}`\n{USAGE}");
                return ExitCode::from(2);
            }
            _ => paths.push(PathBuf::from(arg)),
        }
    }

    let root = root.unwrap_or_else(find_root);
    let files = if !paths.is_empty() {
        let mut out = Vec::new();
        for p in &paths {
            let p = if p.is_absolute() { p.clone() } else { root.join(p) };
            if p.is_dir() {
                out.extend(lint::sweep_files(&p));
                // sweep_files only looks in the standard subdirs; also
                // take .rs files directly under an arbitrary dir arg.
                collect_dir(&p, &mut out);
            } else if p.is_file() {
                out.push(p);
            } else {
                eprintln!("stapl-lint: no such path: {}", p.display());
                return ExitCode::from(2);
            }
        }
        out.sort();
        out.dedup();
        out
    } else {
        lint::sweep_files(&root)
    };

    let run = lint::run(&root, &files);

    if list_sups {
        for s in &run.suppressions {
            let rules: Vec<&str> = s
                .rules
                .iter()
                .map(|r| r.map_or("all", |r| r.slug()))
                .collect();
            let status = if s.used { "used" } else { "UNUSED" };
            let note = if s.note.is_empty() { "(no justification)" } else { s.note.as_str() };
            println!(
                "{}:{}: allow({}) [{}] lines {}-{} — {}",
                s.file, s.line, rules.join(", "), status, s.from, s.to, note
            );
        }
        println!(
            "{} suppression(s), {} unused",
            run.suppressions.len(),
            run.suppressions.iter().filter(|s| !s.used).count()
        );
    }

    if json {
        print!("{}", lint::to_json(&run));
    } else if !list_sups {
        for f in &run.findings {
            println!("{}", f.render());
        }
        println!(
            "stapl-lint: {} file(s) scanned, {} finding(s), {} suppressed",
            run.files_scanned,
            run.findings.len(),
            run.suppressed
        );
    }

    let unused = run.suppressions.iter().filter(|s| !s.used).count();
    if !run.findings.is_empty() || (deny_all && unused > 0) {
        if deny_all && unused > 0 && run.findings.is_empty() {
            eprintln!("stapl-lint: {unused} unused suppression(s) — remove stale allows (--list-suppressions shows them)");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Workspace root: the current dir, or the nearest ancestor that looks
/// like the stapl workspace (has `crates/` and a `Cargo.toml`).
fn find_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.as_path();
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return dir.to_path_buf();
        }
        match dir.parent() {
            Some(p) => dir = p,
            None => return cwd,
        }
    }
}

/// Recursively collects `.rs` files under `dir` (used for explicit
/// directory args that aren't one of the standard sweep roots).
fn collect_dir(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.components().any(|c| c.as_os_str() == "target") {
            continue;
        }
        if path.is_dir() {
            collect_dir(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
