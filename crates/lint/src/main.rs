//! CLI for `stapl-lint`.
//!
//! ```text
//! stapl-lint [--root DIR] [PATH...]
//! ```
//!
//! With no PATHs, sweeps the workspace under `--root` (default: the
//! current directory, walking up to the workspace root if invoked from a
//! crate directory). With explicit PATHs, lints just those
//! files/directories.
//!
//! Exit status: 0 when clean, 1 on any finding, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use stapl_lint as lint;

const USAGE: &str = "\
usage: stapl-lint [options] [PATH...]

options:
  --root DIR   workspace root to sweep and resolve paths against
  --help       show this help

rule: borrow-across-poll (L2) — a RefCell borrow live across a poll point";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
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
    let files = if paths.is_empty() {
        lint::sweep_files(&root)
    } else {
        let mut out = Vec::new();
        for p in &paths {
            let p = if p.is_absolute() { p.clone() } else { root.join(p) };
            if p.is_dir() {
                lint::collect_rs(&p, &mut out);
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
    };

    let findings = lint::run(&root, &files);
    for f in &findings {
        println!("{}", f.render());
    }
    println!("stapl-lint: {} file(s) scanned, {} finding(s)", files.len(), findings.len());
    if !findings.is_empty() {
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
