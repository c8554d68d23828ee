//! Drives the built benchmark in `--quick` mode: every workload, traced
//! and untraced, and checks what the driver and later readers rely on —
//! the shape of the result line, the exact metric sets, correctness,
//! counts that repeat for one seed, inputs that change with the seed,
//! and a trace whose spans nest.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use stapl_benchmark::json::Json;
use stapl_benchmark::metrics::{self, WORKLOADS};

fn bench() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_stapl-benchmark"));
    // The benchmark refuses to run with STAPL_* set; the test must not
    // inherit them from whoever runs `cargo test`.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("STAPL_") {
            c.env_remove(k);
        }
    }
    c
}

/// A fresh directory under the test's target directory.
fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quick(workload: &str, seed: u64, trace: u8, out: &Path, extra: &[&str]) -> Output {
    bench()
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string(), "--quick", "--out"])
        .arg(out)
        .args(extra)
        .output()
        .unwrap()
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    let last = stdout
        .lines()
        .last()
        .expect("the benchmark printed nothing");
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn result_file(out: &Path, workload: &str, seed: u64, trace: u8) -> Json {
    let path = out.join(format!("{workload}-s{seed}-t{trace}.json"));
    Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap()
}

fn keys(j: &Json) -> BTreeSet<&str> {
    j.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

/// The result line has exactly the contract's keys, reports success, and
/// carries exactly the metrics of its kind, each with the table's unit.
fn check_line(line: &Json, traced: bool) {
    assert_eq!(
        keys(line),
        BTreeSet::from(["correct", "attempted", "failed", "metrics"])
    );
    assert_eq!(
        line.get("correct").unwrap().as_bool(),
        Some(true),
        "{}",
        line.render()
    );
    assert_eq!(line.get("failed").unwrap().as_f64(), Some(0.0));
    let attempted = line.get("attempted").unwrap().as_f64().unwrap();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    let want: Vec<&metrics::Metric> = if traced {
        metrics::per_layer().collect()
    } else {
        metrics::end_to_end().collect()
    };
    let got = line.get("metrics").unwrap();
    assert_eq!(
        keys(got),
        want.iter().map(|m| m.name).collect::<BTreeSet<_>>()
    );
    for m in want {
        let entry = got.get(m.name).unwrap();
        assert_eq!(keys(entry), BTreeSet::from(["value", "unit"]));
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit));
        let v = entry.get("value").unwrap().as_f64().unwrap();
        assert!(v.is_finite() && v >= 0.0, "{} = {v}", m.name);
        if !traced {
            assert!(v > 0.0, "end-to-end metric {} must never be 0", m.name);
        }
    }
}

#[test]
fn every_workload_runs_quick_traced_and_untraced() {
    let out = out_dir("all");
    for w in WORKLOADS {
        for trace in [0u8, 1] {
            let run = quick(w.name, 3, trace, &out, &[]);
            assert!(
                run.status.success(),
                "{} trace {trace}: {}",
                w.name,
                String::from_utf8_lossy(&run.stderr)
            );
            check_line(&result_line(&run), trace == 1);
            let file = result_file(&out, w.name, 3, trace);
            assert_eq!(file.get("quick").unwrap().as_bool(), Some(true));
            assert_eq!(file.get("workload").unwrap().as_str(), Some(w.name));
            // The allocator settings are part of the result.
            assert!(file.get("GLIBC_TUNABLES").unwrap().as_str().is_some());
        }
        check_trace(&out.join(format!("{}-s3-trace.json", w.name)));
        let traced = result_file(&out, w.name, 3, 1);
        let value = |name: &str| {
            let m = traced.get("metrics").unwrap().get(name).unwrap();
            m.get("value").unwrap().as_f64().unwrap()
        };
        let shares: f64 = metrics::per_layer()
            .filter(|m| m.name.ends_with(".pass_share"))
            .map(|m| value(m.name))
            .sum();
        // Quick passes are so short that the benchmark's own loop code
        // shows; the full-size bound (1 +- 0.02) is in the README.
        assert!(
            shares > 0.5 && shares <= 1.0 + 1e-9,
            "{}: layer shares sum to {shares}",
            w.name
        );
    }
}

/// Spans nest `run -> instance -> pass -> phase`: every event but a run
/// names a parent of the next-outer category on the same thread that
/// contains it in time.
fn check_trace(path: &Path) {
    let trace = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(events.len() > 10);
    let field = |e: &Json, k: &str| e.get(k).unwrap().as_f64().unwrap();
    let by_id: std::collections::HashMap<u64, &Json> = events
        .iter()
        .map(|e| {
            (
                e.get("args").unwrap().get("id").unwrap().as_f64().unwrap() as u64,
                e,
            )
        })
        .collect();
    let mut phases = 0;
    for e in events {
        assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
        let cat = e.get("cat").unwrap().as_str().unwrap();
        let outer = match cat {
            "run" => continue,
            "instance" => "run",
            "pass" => "instance",
            _ => {
                phases += 1;
                assert!(e.get("args").unwrap().get("pass").is_some());
                "pass"
            }
        };
        let parent = by_id[&(e
            .get("args")
            .unwrap()
            .get("parent")
            .unwrap()
            .as_f64()
            .unwrap() as u64)];
        assert_eq!(parent.get("cat").unwrap().as_str(), Some(outer));
        assert_eq!(field(parent, "tid"), field(e, "tid"));
        let eps = 1e-3;
        assert!(field(parent, "ts") <= field(e, "ts") + eps);
        assert!(
            field(parent, "ts") + field(parent, "dur") + eps >= field(e, "ts") + field(e, "dur")
        );
    }
    assert!(phases > 0);
}

#[test]
fn counts_repeat_for_a_seed_and_inputs_follow_it() {
    for w in WORKLOADS {
        let (a, b, c) = (
            out_dir(&format!("rep-a-{}", w.name)),
            out_dir(&format!("rep-b-{}", w.name)),
            out_dir(&format!("rep-c-{}", w.name)),
        );
        assert!(quick(w.name, 5, 1, &a, &[]).status.success());
        assert!(quick(w.name, 5, 1, &b, &[]).status.success());
        assert!(quick(w.name, 6, 1, &c, &[]).status.success());
        let (fa, fb, fc) = (
            result_file(&a, w.name, 5, 1),
            result_file(&b, w.name, 5, 1),
            result_file(&c, w.name, 6, 1),
        );
        let exact = fa.get("exact_counts").unwrap();
        assert!(exact.as_obj().unwrap().len() >= 5);
        assert_eq!(
            exact,
            fb.get("exact_counts").unwrap(),
            "{}: counts differ between two runs of seed 5",
            w.name
        );
        assert_eq!(fa.get("input_digest"), fb.get("input_digest"));
        assert_ne!(
            fa.get("input_digest"),
            fc.get("input_digest"),
            "{}: seed does not reach the input",
            w.name
        );
    }
}

#[test]
fn a_corrupted_reference_is_reported() {
    let out = out_dir("corrupt");
    for w in WORKLOADS {
        let run = quick(w.name, 1, 0, &out, &["--selftest-corrupt"]);
        assert_eq!(run.status.code(), Some(1), "{}", w.name);
        let line = result_line(&run);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(false));
        assert!(line.get("failed").unwrap().as_f64().unwrap() > 0.0);
    }
}

#[test]
fn refuses_what_it_cannot_measure() {
    let out = out_dir("refuse");
    let run = bench()
        .env("STAPL_AGGREGATION", "4")
        .args(["--workload", "rmi-writes", "--quick", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty(), "no result line when refusing");
    assert!(String::from_utf8_lossy(&run.stderr).contains("STAPL_AGGREGATION"));
    for bad in [
        &["--workload", "nope"][..],
        &["--trace", "2", "--workload", "rmi-reads"],
        &[],
    ] {
        let run = bench().args(bad).output().unwrap();
        assert_eq!(run.status.code(), Some(2), "{bad:?}");
        assert!(run.stdout.is_empty());
    }
}

#[test]
fn manifest_is_generated_from_the_table() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let run = bench()
        .arg("--check-manifest")
        .arg(&manifest)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stdout)
    );

    // Any drift in a name, unit, bound or workload is reported.
    let text = std::fs::read_to_string(&manifest).unwrap();
    let out = out_dir("manifest");
    for (from, to) in [
        ("\"abstraction_cost_x\"", "\"abstraction_cost\""),
        ("\"bound\": 0.15\n", "\"bound\": 0.16\n"),
        ("\"us\"", "\"ms\""),
        ("rmi-reads", "rmi-read"),
    ] {
        let tampered = out.join("tampered.json");
        assert!(text.contains(from), "{from}");
        std::fs::write(&tampered, text.replacen(from, to, 1)).unwrap();
        let run = bench()
            .arg("--check-manifest")
            .arg(&tampered)
            .output()
            .unwrap();
        assert_eq!(run.status.code(), Some(1), "{from} -> {to} went unnoticed");
    }
}

#[test]
fn compare_reads_two_sets() {
    // Two "sets" of hand-written results: B's abstraction_cost_x is 40 %
    // worse.
    let (a, b) = (out_dir("cmp-a"), out_dir("cmp-b"));
    for (dir, scale) in [(&a, 1.0), (&b, 1.4)] {
        for w in WORKLOADS {
            for seed in 1..=4 {
                let metrics = Json::Obj(
                    metrics::end_to_end()
                        .map(|m| {
                            let v = if m.name == "abstraction_cost_x" {
                                scale
                            } else {
                                1.0
                            } * (1.0 + 0.001 * f64::from(seed));
                            (
                                m.name.to_string(),
                                Json::obj(vec![
                                    ("value", Json::Num(v)),
                                    ("unit", Json::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                );
                let file = Json::obj(vec![
                    ("workload", Json::str(w.name)),
                    ("quick", Json::Bool(false)),
                    ("failed", Json::Num(0.0)),
                    ("metrics", metrics),
                ]);
                std::fs::write(
                    dir.join(format!("{}-s{seed}-t0.json", w.name)),
                    file.pretty(),
                )
                .unwrap();
            }
        }
    }
    let same = bench().arg("--compare").arg(&a).arg(&a).output().unwrap();
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    let worse = bench().arg("--compare").arg(&a).arg(&b).output().unwrap();
    assert_eq!(worse.status.code(), Some(1));
    let table = String::from_utf8_lossy(&worse.stdout);
    assert!(
        table.lines().any(|l| l.contains("abstraction_cost_x")
            && l.contains("+40.00%")
            && l.contains("exceeds")),
        "{table}"
    );
    assert!(
        !table
            .lines()
            .any(|l| l.contains("peak_rss_mb") && l.contains("exceeds")),
        "{table}"
    );
}
