//! End-to-end tests for the `bench-compare` binary: fixture baseline vs
//! identical / regressed / improved / missing-area fresh runs, asserting
//! the exit codes CI keys off (0 pass, 1 regression, 2 unusable input)
//! and the human-readable report.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_bench-compare");

/// A fresh scratch directory per test (unique by test name).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("stapl-bench-compare-gate")
        .join(format!("{}-{}", test, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a schema-2 `BENCH_<area>.json`: per record its id and its gated
/// counters.
fn write_area(dir: &Path, area: &str, records: &[(&str, &[(&str, u64)])]) {
    let recs: Vec<String> = records
        .iter()
        .map(|(id, counters)| {
            let body: Vec<String> = counters.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("{{\"id\": \"{id}\", \"knobs\": {{}}, \"counters\": {{{}}}}}", body.join(", "))
        })
        .collect();
    let text =
        format!("{{\"schema\": 2, \"area\": \"{area}\", \"records\": [{}]}}", recs.join(", "));
    std::fs::write(dir.join(format!("BENCH_{area}.json")), text).unwrap();
}

fn run_compare(baseline: &Path, fresh: &Path, extra: &[&str]) -> Output {
    Command::new(BIN)
        .arg(baseline)
        .arg(fresh)
        .args(extra)
        .output()
        .expect("bench-compare spawns")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn identical_runs_pass() {
    let root = scratch("identical");
    let (base, fresh) = (root.join("base"), root.join("fresh"));
    for d in [&base, &fresh] {
        std::fs::create_dir_all(d).unwrap();
        write_area(d, "localization", &[("copy/a", &[("remote_requests", 100)])]);
    }
    let out = run_compare(&base, &fresh, &["--exact"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("PASS"));
}

#[test]
fn counter_regression_fails_with_report() {
    let root = scratch("regressed");
    let (base, fresh) = (root.join("base"), root.join("fresh"));
    std::fs::create_dir_all(&base).unwrap();
    std::fs::create_dir_all(&fresh).unwrap();
    write_area(&base, "localization", &[("copy/a", &[("remote_requests", 100)])]);
    write_area(&fresh, "localization", &[("copy/a", &[("remote_requests", 250)])]);
    let out = run_compare(&base, &fresh, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let report = stdout(&out);
    assert!(report.contains("REGRESSION localization/copy/a"), "{report}");
    assert!(report.contains("remote_requests 100 -> 250"), "{report}");
    assert!(report.contains("FAIL"), "{report}");
}

#[test]
fn improvement_passes_and_is_reported() {
    let root = scratch("improved");
    let (base, fresh) = (root.join("base"), root.join("fresh"));
    std::fs::create_dir_all(&base).unwrap();
    std::fs::create_dir_all(&fresh).unwrap();
    write_area(&base, "dynamic", &[("traversal", &[("segment_requests", 200)])]);
    write_area(&fresh, "dynamic", &[("traversal", &[("segment_requests", 20)])]);
    let out = run_compare(&base, &fresh, &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    let report = stdout(&out);
    assert!(report.contains("improved"), "{report}");
    assert!(report.contains("1 improvements"), "{report}");
}

#[test]
fn missing_area_file_fails() {
    let root = scratch("missing-area");
    let (base, fresh) = (root.join("base"), root.join("fresh"));
    std::fs::create_dir_all(&base).unwrap();
    std::fs::create_dir_all(&fresh).unwrap();
    write_area(&base, "localization", &[("copy/a", &[("remote_requests", 10)])]);
    write_area(&base, "executor", &[("gen", &[("tasks_executed", 64)])]);
    // Fresh run only produced one of the two areas.
    write_area(&fresh, "localization", &[("copy/a", &[("remote_requests", 10)])]);
    let out = run_compare(&base, &fresh, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("fresh run produced no BENCH_executor.json"));
}

#[test]
fn missing_record_fails() {
    let root = scratch("missing-record");
    let (base, fresh) = (root.join("base"), root.join("fresh"));
    std::fs::create_dir_all(&base).unwrap();
    std::fs::create_dir_all(&fresh).unwrap();
    write_area(
        &base,
        "directory",
        &[("hot/a", &[("remote_requests", 10)]), ("hot/b", &[("remote_requests", 10)])],
    );
    write_area(&fresh, "directory", &[("hot/a", &[("remote_requests", 10)])]);
    let out = run_compare(&base, &fresh, &["--exact"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("record missing"), "{}", stdout(&out));
}

#[test]
fn tolerance_flags_change_the_verdict() {
    let root = scratch("tolerance");
    let (base, fresh) = (root.join("base"), root.join("fresh"));
    std::fs::create_dir_all(&base).unwrap();
    std::fs::create_dir_all(&fresh).unwrap();
    write_area(&base, "localization", &[("copy/a", &[("remote_requests", 100)])]);
    write_area(&fresh, "localization", &[("copy/a", &[("remote_requests", 104)])]);
    // +4 on 100: within the default 5% gate...
    let out = run_compare(&base, &fresh, &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    // ...a regression under --exact.
    let out = run_compare(&base, &fresh, &["--exact"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("remote_requests 100 -> 104 (allowed +/-0)"), "{}", stdout(&out));
}

#[test]
fn extra_fresh_record_fails() {
    let root = scratch("extra-record");
    let (base, fresh) = (root.join("base"), root.join("fresh"));
    std::fs::create_dir_all(&base).unwrap();
    std::fs::create_dir_all(&fresh).unwrap();
    write_area(&base, "chaos", &[("storm/a", &[("remote_requests", 10)])]);
    let records: &[(&str, &[(&str, u64)])] =
        &[("storm/a", &[("remote_requests", 10)]), ("storm/b", &[("remote_requests", 10)])];
    write_area(&fresh, "chaos", records);
    let out = run_compare(&base, &fresh, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("REGRESSION chaos/storm/b: record has no baseline"));
}

#[test]
fn unusable_inputs_exit_2() {
    let root = scratch("unusable");
    let (base, fresh) = (root.join("base"), root.join("fresh"));
    std::fs::create_dir_all(&fresh).unwrap();
    // Baseline dir doesn't exist.
    let out = run_compare(&base, &fresh, &[]);
    assert_eq!(out.status.code(), Some(2));
    // Malformed baseline JSON.
    std::fs::create_dir_all(&base).unwrap();
    std::fs::write(base.join("BENCH_localization.json"), "{not json").unwrap();
    std::fs::write(fresh.join("BENCH_localization.json"), "{}").unwrap();
    let out = run_compare(&base, &fresh, &[]);
    assert_eq!(out.status.code(), Some(2));
    // Bad usage.
    let out = Command::new(BIN).arg("only-one-dir").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn a_schema_1_baseline_is_refused() {
    let root = scratch("mixed-schema");
    let (base, fresh) = (root.join("base"), root.join("fresh"));
    std::fs::create_dir_all(&base).unwrap();
    std::fs::create_dir_all(&fresh).unwrap();
    // What a pre-schema-2 baseline looked like: a `gated` list beside the
    // full counter block, wall-clock and all.
    let old = "{\"schema\": 1, \"area\": \"localization\", \"tier\": \"kick-tires\", \"records\": \
               [{\"id\": \"copy/a\", \"wall_s\": 0.001, \"gated\": [\"remote_requests\"], \
               \"counters\": {\"remote_requests\": 100, \"batches_sent\": 7}}]}";
    std::fs::write(base.join("BENCH_localization.json"), old).unwrap();
    write_area(&fresh, "localization", &[("copy/a", &[("remote_requests", 100)])]);
    let out = run_compare(&base, &fresh, &[]);
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("schema 1 != supported 2"), "{err}");
}
