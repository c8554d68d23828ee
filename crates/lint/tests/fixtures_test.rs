//! Fixture self-test: L2 fires on its bad fixture at exactly the
//! `EXPECT-L2` marker lines and stays silent on the good fixture, and the
//! CLI's exit codes hold.

use std::path::{Path, PathBuf};
use std::process::Command;

use stapl_lint::{run, Finding};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures")
}

fn run_single(name: &str) -> Vec<Finding> {
    let dir = fixtures();
    run(&dir, &[dir.join(name)])
}

#[test]
fn l2_borrow_across_poll() {
    let text = std::fs::read_to_string(fixtures().join("l2_bad.rs")).expect("fixture readable");
    let markers: Vec<u32> =
        text.lines().enumerate().filter(|(_, l)| l.contains("EXPECT-L2")).map(|(i, _)| i as u32 + 1).collect();
    assert!(!markers.is_empty(), "l2_bad.rs must carry EXPECT markers");
    let findings = run_single("l2_bad.rs");
    let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, markers, "findings must hit exactly the marked lines; got {findings:#?}");
    for f in &findings {
        assert_eq!(f.file, "l2_bad.rs");
        assert!(!f.hint.is_empty(), "every diagnostic carries a fix hint");
    }
    let clean = run_single("l2_good.rs");
    assert!(clean.is_empty(), "l2_good.rs must be clean; got {clean:#?}");
}

#[test]
fn cli_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_stapl-lint");
    let dir = fixtures();
    let exit = |args: &[&str]| {
        let out = Command::new(bin).args(["--root", dir.to_str().unwrap()]).args(args).output().expect("bin runs");
        (out.status.code(), String::from_utf8(out.stdout).unwrap())
    };

    let (code, report) = exit(&["l2_bad.rs"]);
    assert_eq!(code, Some(1), "any finding exits 1");
    assert_eq!(report.matches("borrow-across-poll [L2]").count(), 4, "{report}");
    assert_eq!(exit(&["l2_good.rs"]).0, Some(0), "clean file exits 0");
    assert_eq!(exit(&["--no-such-flag"]).0, Some(2), "usage error exits 2");
    assert_eq!(exit(&["--deny-all", "l2_good.rs"]).0, Some(2), "--deny-all is an unknown option");
}
