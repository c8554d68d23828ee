//! Fixture self-test: every rule fires on its bad fixture at exactly the
//! `EXPECT-<code>` marker lines, stays silent on the good fixture, and
//! the suppression / JSON machinery round-trips.

use std::path::{Path, PathBuf};
use std::process::Command;

use stapl_lint::{findings_from_json, run, to_json, LintRun, Rule};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures")
}

/// 1-based lines of `file` carrying an `EXPECT-<code>` marker.
fn marker_lines(file: &Path, code: &str) -> Vec<u32> {
    let text = std::fs::read_to_string(file).expect("fixture readable");
    let tag = format!("EXPECT-{code}");
    text.lines()
        .enumerate()
        .filter(|(_, l)| l.contains(&tag))
        .map(|(i, _)| i as u32 + 1)
        .collect()
}

fn run_single(name: &str) -> LintRun {
    let dir = fixtures();
    run(&dir, &[dir.join(name)])
}

fn check_bad(name: &str, rule: Rule) {
    let lints = run_single(name);
    let markers = marker_lines(&fixtures().join(name), rule.code());
    assert!(!markers.is_empty(), "{name} must carry EXPECT markers");
    let mut lines: Vec<u32> = lints.findings.iter().map(|f| f.line).collect();
    lines.sort();
    assert_eq!(
        lines, markers,
        "{name}: findings must hit exactly the marked lines; got {:#?}",
        lints.findings
    );
    for f in &lints.findings {
        assert_eq!(f.rule, rule, "{name}: unexpected rule in {f:?}");
        assert_eq!(f.file, name);
        assert!(!f.hint.is_empty(), "{name}: every diagnostic carries a fix hint");
    }
}

fn check_good(name: &str) {
    let lints = run_single(name);
    assert!(
        lints.findings.is_empty(),
        "{name} must be clean; got {:#?}",
        lints.findings
    );
}

#[test]
fn l1_blocking_in_handler() {
    check_bad("l1_bad.rs", Rule::BlockingInHandler);
    check_good("l1_good.rs");
}

#[test]
fn l2_borrow_across_poll() {
    check_bad("l2_bad.rs", Rule::BorrowAcrossPoll);
    check_good("l2_good.rs");
}

#[test]
fn l3_divergent_collective() {
    check_bad("l3_bad.rs", Rule::DivergentCollective);
    check_good("l3_good.rs");
}

#[test]
fn l6_undocumented_unsafe() {
    check_bad("l6_bad.rs", Rule::UndocumentedUnsafe);
    check_good("l6_good.rs");
}

#[test]
fn suppressions_silence_and_audit() {
    let lints = run_single("suppressed.rs");
    assert!(lints.findings.is_empty(), "{:#?}", lints.findings);
    assert_eq!(lints.suppressed, 3, "unsafe + handler fence + unsafe");
    assert_eq!(lints.suppressions.len(), 2);
    assert!(lints.suppressions.iter().all(|s| s.used));
    assert!(lints.suppressions.iter().all(|s| !s.note.is_empty()));
}

#[test]
fn json_report_round_trips() {
    for name in ["l1_bad.rs", "l2_bad.rs", "l3_bad.rs", "l6_bad.rs"] {
        let lints = run_single(name);
        let parsed = findings_from_json(&to_json(&lints)).expect("report parses");
        assert_eq!(parsed, lints.findings, "{name}");
    }
}

#[test]
fn cli_exit_codes_and_json() {
    let bin = env!("CARGO_BIN_EXE_stapl-lint");
    let dir = fixtures();

    let bad = Command::new(bin)
        .args(["--root", dir.to_str().unwrap(), "--json", "l1_bad.rs"])
        .output()
        .expect("bin runs");
    assert_eq!(bad.status.code(), Some(1), "findings exit 1");
    let json = String::from_utf8(bad.stdout).unwrap();
    let parsed = findings_from_json(&json).expect("CLI --json parses");
    assert_eq!(parsed.len(), 3);
    assert!(parsed.iter().all(|f| f.rule == Rule::BlockingInHandler));

    let good = Command::new(bin)
        .args(["--root", dir.to_str().unwrap(), "--deny-all", "l1_good.rs"])
        .output()
        .expect("bin runs");
    assert_eq!(good.status.code(), Some(0), "clean file exits 0");

    let usage = Command::new(bin).arg("--no-such-flag").output().expect("bin runs");
    assert_eq!(usage.status.code(), Some(2), "usage error exits 2");
}
