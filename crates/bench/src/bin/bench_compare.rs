//! `bench-compare` — gate a fresh benchmark run against checked-in
//! `BENCH_*.json` baselines.
//!
//! ```text
//! bench-compare <baseline-dir> <fresh-dir> [--exact]
//! ```
//!
//! Exit codes: 0 = pass (improvements allowed), 1 = counter regression /
//! missing area / missing or extra record, 2 = usage or unreadable input.

use std::process::exit;

use stapl_bench::compare::{compare_dirs, Tolerance};

const USAGE: &str = "usage: bench-compare <baseline-dir> <fresh-dir> [--exact]";

fn main() {
    let mut dirs: Vec<String> = Vec::new();
    let mut tol = Tolerance::default_gate();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--exact" => tol = Tolerance::exact(),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if other.starts_with('-') => {
                usage_error(&format!("unknown flag {other}"));
            }
            dir => dirs.push(dir.to_string()),
        }
    }
    if dirs.len() != 2 {
        usage_error("expected exactly <baseline-dir> <fresh-dir>");
    }
    let baseline = std::path::Path::new(&dirs[0]);
    let fresh = std::path::Path::new(&dirs[1]);
    match compare_dirs(baseline, fresh, tol) {
        Ok(outcome) => {
            println!("{}", outcome.report());
            exit(if outcome.passed() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("bench-compare: {e}");
            exit(2);
        }
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("bench-compare: {msg}\n{USAGE}");
    exit(2);
}
