//! Baseline comparison for `BENCH_*.json` reports: the policy half of the
//! perf-regression gate (`bench-compare` is a thin CLI over this).
//!
//! The gate runs on the deterministic `StatsSnapshot` counters a baseline
//! record holds — a `BENCH_*.json` holds the gated counters and nothing
//! else, so there is no time in it to compare. Which way drift is a
//! regression is the counter's [`Class`] in the `counters!` table of
//! `stapl-rts`, not a list kept here:
//!
//! * `Up` (traffic, cost) regresses **upward**; doing less is an
//!   improvement and passes (with a note, so baselines get refreshed);
//! * `Down` (benefit) regresses **downward** — the optimization silently
//!   stopped applying;
//! * `Exact`: any move beyond tolerance is a regression;
//! * a baseline that holds a `Timing` counter, or a name that is no
//!   counter at all, is itself a gate failure.
//!
//! The tolerance per counter is `max(2, 5 % of the baseline)`
//! ([`Tolerance::default_gate`]); `--exact` sets it to zero, which is what
//! the determinism self-test uses. Missing fresh files, missing or extra
//! record ids, and missing gated counters are regressions: a deleted
//! scenario must be a deliberate baseline update, not a silent skip, and
//! an added one is gated from its first run.

use std::collections::BTreeMap;
use std::path::Path;

use stapl_rts::{Class, Counter};

use crate::harness::{ParsedArea, ParsedRecord};

/// Allowed drift for a gated counter: `max(abs, baseline * rel)`.
#[derive(Clone, Copy, Debug)]
pub struct Tolerance {
    rel: f64,
    abs: u64,
}

impl Tolerance {
    /// The CI default: counters are deterministic by construction, but a
    /// hair of slack keeps the gate from firing on incidental ±1 drift
    /// in large counters while still catching real path changes.
    pub fn default_gate() -> Tolerance {
        Tolerance { rel: 0.05, abs: 2 }
    }

    /// Zero slack — for the run-twice determinism self-test.
    pub fn exact() -> Tolerance {
        Tolerance { rel: 0.0, abs: 0 }
    }

    fn slack(&self, baseline: u64) -> u64 {
        let rel = (baseline as f64 * self.rel).ceil() as u64;
        self.abs.max(rel)
    }
}

/// The outcome of diffing one fresh run against one baseline directory.
pub struct CompareOutcome {
    /// Human-readable report lines, in emission order.
    pub lines: Vec<String>,
    /// Gate failures: counter regressions, missing files/records/counters.
    pub regressions: usize,
    /// Gated counters that moved in the *good* direction beyond slack.
    pub improvements: usize,
    /// (record, counter) pairs actually compared.
    pub compared: usize,
}

impl CompareOutcome {
    pub fn passed(&self) -> bool {
        self.regressions == 0
    }

    pub fn report(&self) -> String {
        self.lines.join("\n")
    }

    /// Records one gate failure about `what` (an area, record or counter).
    fn regress(&mut self, what: &str, why: String) {
        self.regressions += 1;
        self.lines.push(format!("REGRESSION {what}: {why}"));
    }
}

fn read_area(path: &Path) -> Result<ParsedArea, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    ParsedArea::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Lists the `BENCH_*.json` files in `dir`, sorted by name.
fn bench_files(dir: &Path) -> Result<Vec<std::path::PathBuf>, String> {
    let mut out = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            out.push(entry.path());
        }
    }
    out.sort();
    Ok(out)
}

/// Diffs every `BENCH_*.json` under `baseline_dir` against its
/// counterpart in `fresh_dir`. `Err` means the inputs themselves were
/// unusable (missing baseline dir, malformed JSON) — callers exit 2;
/// a returned outcome with `regressions > 0` is the gate firing (exit 1).
pub fn compare_dirs(
    baseline_dir: &Path,
    fresh_dir: &Path,
    tol: Tolerance,
) -> Result<CompareOutcome, String> {
    let baseline_files = bench_files(baseline_dir)?;
    if baseline_files.is_empty() {
        return Err(format!("no BENCH_*.json baselines in {}", baseline_dir.display()));
    }
    let mut out = CompareOutcome {
        lines: Vec::new(),
        regressions: 0,
        improvements: 0,
        compared: 0,
    };
    for base_path in baseline_files {
        let file_name = base_path.file_name().expect("bench file name").to_owned();
        let baseline = read_area(&base_path)?;
        let fresh_path = fresh_dir.join(&file_name);
        if !fresh_path.exists() {
            let file = file_name.to_string_lossy();
            out.regress(&baseline.area, format!("fresh run produced no {file} (area dropped?)"));
            continue;
        }
        let fresh = read_area(&fresh_path)?;
        compare_area(&baseline, &fresh, tol, &mut out);
    }
    out.lines.push(format!(
        "summary: {} gated counters compared, {} regressions, {} improvements -> {}",
        out.compared,
        out.regressions,
        out.improvements,
        if out.passed() { "PASS" } else { "FAIL" }
    ));
    Ok(out)
}

fn compare_area(
    baseline: &ParsedArea,
    fresh: &ParsedArea,
    tol: Tolerance,
    out: &mut CompareOutcome,
) {
    let fresh_by_id: BTreeMap<&str, &ParsedRecord> =
        fresh.records.iter().map(|r| (r.id.as_str(), r)).collect();
    for b in &baseline.records {
        let Some(f) = fresh_by_id.get(b.id.as_str()) else {
            let record = format!("{}/{}", baseline.area, b.id);
            out.regress(&record, "record missing from fresh run".to_string());
            continue;
        };
        compare_record(&baseline.area, b, f, tol, out);
    }
    for f in fresh.records.iter().filter(|f| !baseline.records.iter().any(|b| b.id == f.id)) {
        out.regress(&format!("{}/{}", baseline.area, f.id), "record has no baseline".to_string());
    }
}

fn compare_record(
    area: &str,
    b: &ParsedRecord,
    f: &ParsedRecord,
    tol: Tolerance,
    out: &mut CompareOutcome,
) {
    let record = format!("{area}/{}", b.id);
    for (counter, &base) in &b.counters {
        let class = match Counter::from_name(counter).map(Counter::class) {
            Some(class @ (Class::Up | Class::Down | Class::Exact)) => class,
            ungateable => {
                let why = match ungateable {
                    Some(Class::Timing(why)) => format!("is timing-dependent: {why}"),
                    _ => "is not a counter (renamed or removed?)".to_string(),
                };
                out.regress(&record, format!("baseline gates {counter}, which {why}"));
                continue;
            }
        };
        let Some(&val) = f.counters.get(counter) else {
            out.regress(&record, format!("gated counter {counter} missing from fresh run"));
            continue;
        };
        out.compared += 1;
        let slack = tol.slack(base);
        let (grew, drift) =
            if val >= base { (true, val - base) } else { (false, base - val) };
        if drift <= slack {
            continue;
        }
        let bad = match class {
            Class::Up => grew,
            Class::Down => !grew,
            Class::Exact | Class::Timing(_) => true,
        };
        if bad {
            out.regress(&record, format!("{counter} {base} -> {val} (allowed +/-{slack})"));
        } else {
            out.improvements += 1;
            out.lines.push(format!(
                "improved {record}: {counter} {base} -> {val} — consider refreshing baselines"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, counters: &[(&str, u64)]) -> ParsedRecord {
        ParsedRecord {
            id: id.into(),
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn area(records: Vec<ParsedRecord>) -> ParsedArea {
        ParsedArea { area: "localization".into(), records }
    }

    fn outcome() -> CompareOutcome {
        CompareOutcome { lines: Vec::new(), regressions: 0, improvements: 0, compared: 0 }
    }

    #[test]
    fn identical_records_pass() {
        let b = area(vec![rec("a", &[("remote_requests", 100)])]);
        let f = area(vec![rec("a", &[("remote_requests", 100)])]);
        let mut out = outcome();
        compare_area(&b, &f, Tolerance::exact(), &mut out);
        assert_eq!(out.regressions, 0);
        assert_eq!(out.compared, 1);
    }

    #[test]
    fn traffic_counter_up_is_regression_down_is_improvement() {
        let tol = Tolerance::default_gate();
        let b = area(vec![rec("a", &[("remote_requests", 100)])]);
        let worse = area(vec![rec("a", &[("remote_requests", 120)])]);
        let better = area(vec![rec("a", &[("remote_requests", 50)])]);
        let mut out = outcome();
        compare_area(&b, &worse, tol, &mut out);
        assert_eq!((out.regressions, out.improvements), (1, 0));
        let mut out = outcome();
        compare_area(&b, &better, tol, &mut out);
        assert_eq!((out.regressions, out.improvements), (0, 1));
    }

    #[test]
    fn benefit_counter_down_is_regression() {
        let tol = Tolerance::default_gate();
        let b = area(vec![rec("a", &[("localized_chunks", 40)])]);
        let worse = area(vec![rec("a", &[("localized_chunks", 0)])]);
        let mut out = outcome();
        compare_area(&b, &worse, tol, &mut out);
        assert_eq!(out.regressions, 1);
        assert!(out.lines[0].contains("localized_chunks 40 -> 0"), "{}", out.lines[0]);
    }

    #[test]
    fn exactness_counter_drifts_both_ways() {
        let b = area(vec![rec("a", &[("tasks_executed", 128)])]);
        for fresh_v in [120u64, 136] {
            let f = area(vec![rec("a", &[("tasks_executed", fresh_v)])]);
            let mut out = outcome();
            compare_area(&b, &f, Tolerance::exact(), &mut out);
            assert_eq!(out.regressions, 1, "{fresh_v} should regress");
        }
    }

    #[test]
    fn tolerance_slack_absorbs_small_drift() {
        let tol = Tolerance { rel: 0.05, abs: 2 };
        // 5% of 100 = 5: drift of 5 passes, 6 fails.
        let b = area(vec![rec("a", &[("remote_requests", 100)])]);
        let ok = area(vec![rec("a", &[("remote_requests", 105)])]);
        let bad = area(vec![rec("a", &[("remote_requests", 106)])]);
        let mut out = outcome();
        compare_area(&b, &ok, tol, &mut out);
        assert_eq!(out.regressions, 0);
        let mut out = outcome();
        compare_area(&b, &bad, tol, &mut out);
        assert_eq!(out.regressions, 1);
        // abs floor dominates for tiny baselines: 3 -> 5 passes.
        let b = area(vec![rec("a", &[("remote_requests", 3)])]);
        let f = area(vec![rec("a", &[("remote_requests", 5)])]);
        let mut out = outcome();
        compare_area(&b, &f, tol, &mut out);
        assert_eq!(out.regressions, 0);
    }

    #[test]
    fn missing_record_and_counter_are_regressions() {
        let b = area(vec![
            rec("a", &[("remote_requests", 10)]),
            rec("b", &[("remote_requests", 10)]),
        ]);
        let f = area(vec![rec("a", &[])]);
        let mut out = outcome();
        compare_area(&b, &f, Tolerance::default_gate(), &mut out);
        // record "b" missing + counter missing from record "a".
        assert_eq!(out.regressions, 2);
        assert!(out.lines.iter().any(|l| l.contains("record missing")));
        assert!(out.lines.iter().any(|l| l.contains("counter remote_requests missing")));
    }

    #[test]
    fn gating_an_unknown_or_timing_counter_is_a_gate_failure() {
        for (name, why) in [("no_such_counter", "not a counter"), ("retransmits", "timing")] {
            let b = area(vec![rec("a", &[(name, 10)])]);
            let f = area(vec![rec("a", &[(name, 10)])]);
            let mut out = outcome();
            compare_area(&b, &f, Tolerance::default_gate(), &mut out);
            assert_eq!((out.regressions, out.compared), (1, 0), "{name}");
            assert!(out.lines[0].contains(why), "{}", out.lines[0]);
        }
    }

    #[test]
    fn extra_fresh_record_is_a_regression() {
        let b = area(vec![rec("a", &[("remote_requests", 10)])]);
        let f = area(vec![
            rec("a", &[("remote_requests", 10)]),
            rec("new", &[("remote_requests", 10)]),
        ]);
        let mut out = outcome();
        compare_area(&b, &f, Tolerance::exact(), &mut out);
        assert_eq!((out.regressions, out.compared), (1, 1));
        assert_eq!(out.lines, ["REGRESSION localization/new: record has no baseline"]);
    }
}
