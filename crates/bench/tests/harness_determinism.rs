//! The counter gate: the checked-in `bench/baselines/` is the expected
//! output of a sweep. Gating on counters rests on two runs at the same
//! knobs producing identical gated values — and since a `BENCH_*.json`
//! holds nothing else, identical **files**. This runs every area twice
//! over `RtsConfig::base()` and asserts that both runs write the same file,
//! that it is the area's `BENCH_<area>.json` byte for byte, and that the
//! directory holds no other `BENCH_*.json`. A gated counter that moved
//! without `scripts/bench/regen-baselines.sh` fails here, naming the area,
//! the record and the first line that differs. Then it checks the area's
//! claims on the first run, so `cargo test` checks them all.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use stapl_bench::harness::AREAS;
use stapl_rts::{Class, Counter, RtsConfig};

fn baselines() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baselines")
}

/// The `BENCH_*.json` files in `dir` that no area writes.
fn strays(dir: &Path) -> Vec<String> {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let names = entries.map(|e| e.expect("a directory entry").file_name());
    let names = names.map(|n| n.to_string_lossy().into_owned());
    let written = |n: &str| AREAS.iter().any(|a| n == format!("BENCH_{}.json", a.name));
    names.filter(|n| n.starts_with("BENCH_") && n.ends_with(".json") && !written(n)).collect()
}

/// `Err` naming the area, the record and the first line where `fresh`
/// differs from `dir`'s `BENCH_<area>.json`.
fn check_area(dir: &Path, area: &str, fresh: &str) -> Result<(), String> {
    let path = dir.join(format!("BENCH_{area}.json"));
    let base = std::fs::read_to_string(&path).map_err(|e| format!("{area}: no baseline: {e}"))?;
    let (b, f): (Vec<&str>, Vec<&str>) = (base.split('\n').collect(), fresh.split('\n').collect());
    let Some(i) = (0..b.len().max(f.len())).find(|&i| b.get(i) != f.get(i)) else { return Ok(()) };
    // The record a line belongs to: the last `"id"` line at or above it.
    let record = |lines: &[&str]| {
        let above = &lines[..(i + 1).min(lines.len())];
        let ids = above.iter().rev().filter_map(|l| l.trim().strip_prefix("\"id\": \""));
        ids.map(|id| id.trim_end_matches("\",").to_string()).next().unwrap_or_default()
    };
    let (swept, expected) = (record(&f), record(&b));
    let held =
        if swept == expected { String::new() } else { format!(" (baseline record {expected})") };
    let line =
        |l: &[&str]| l.get(i).map_or("the end of the file".into(), |s| format!("`{}`", s.trim()));
    Err(format!(
        "{area}/{swept}{held}: line {} is {} in the sweep but {} in the baseline",
        i + 1,
        line(&f),
        line(&b)
    ))
}

#[test]
fn gated_counters_are_identical_across_runs() {
    let dir = baselines();
    assert_eq!(strays(&dir), Vec::<String>::new(), "{}: baselines no area writes", dir.display());
    let mut fires: HashSet<Counter> = HashSet::new();
    for area in AREAS {
        let (a, b) = (area.run(&RtsConfig::base()), area.run(&RtsConfig::base()));
        assert_eq!(a.to_json(), b.to_json(), "{}: two runs wrote different files", area.name);
        if let Err(e) = check_area(&dir, area.name, &a.to_json()) {
            panic!("{e}\nafter a deliberate counter change, run scripts/bench/regen-baselines.sh");
        }
        a.check_claims();
        for r in &a.records {
            fires.extend(area.gated.iter().filter(|&&c| r.counters.get(c) > 0));
        }
    }
    // A gate must be able to fire: no area gates a timing counter, and
    // every deterministic counter is gated above zero by some record — a
    // counter gated only at zero is gated on a constant.
    // `poisoned_responses` is the one exception: no handler of the storm
    // panics, and zero is the point.
    for &c in Counter::ALL {
        let gated = AREAS.iter().any(|a| a.gated.contains(&c));
        match c.class() {
            Class::Timing(why) => assert!(!gated, "{} is gated but timing: {why}", c.name()),
            _ if c == Counter::poisoned_responses => assert!(gated),
            Class::Exact => assert!(fires.contains(&c), "{} is never gated above zero", c.name()),
        }
    }
}

/// Each edit a sensitivity check makes fails the gate, named. No sweep
/// runs: the checked-in files stand in for one, and the edits are made to
/// a copy of the directory.
#[test]
fn every_edit_of_the_baselines_fails_the_gate() {
    let read = |area: &str| {
        std::fs::read_to_string(baselines().join(format!("BENCH_{area}.json"))).unwrap()
    };
    let sweep: Vec<(&str, String)> = AREAS.iter().map(|a| (a.name, read(a.name))).collect();
    // `text` with `counter` of record `id` moved by `by`.
    let nudge = |text: &str, id: &str, counter: &str, by: i64| {
        let at = text.find(&format!("\"id\": \"{id}\"")).expect("the record");
        let key = format!("\"{counter}\": ");
        let from = at + text[at..].find(&key).expect("the counter") + key.len();
        let len = text[from..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let v: i64 = text[from..from + len].parse().unwrap();
        format!("{}{}{}", &text[..from], v + by, &text[from + len..])
    };
    let hot = "hot-key/p4/reads6400/cache-off/agg16";
    let aligned = "copy/aligned/p4/n4096/localized/agg16";
    let third = "word-count/p4/words800/per-pair";
    type Edit = (&'static str, Option<String>, &'static str);
    let edits: [Edit; 5] = [
        ("directory", Some(nudge(&read("directory"), hot, "remote_requests", 1)), hot),
        ("localization", Some(nudge(&read("localization"), aligned, "localized_chunks", -1)), aligned),
        ("dynamic", Some(drop_record(&read("dynamic"), third)), third),
        ("extra", Some("{}\n".to_string()), "BENCH_extra.json"),
        ("transport", None, "transport: no baseline"),
    ];
    for (area, edited, named) in edits {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("baseline-edits");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (a, text) in &sweep {
            std::fs::write(dir.join(format!("BENCH_{a}.json")), text).unwrap();
        }
        let file = dir.join(format!("BENCH_{area}.json"));
        match edited {
            Some(text) => std::fs::write(&file, text).unwrap(),
            None => std::fs::remove_file(&file).unwrap(),
        }
        let mut failures = strays(&dir);
        failures.extend(sweep.iter().filter_map(|(a, text)| check_area(&dir, a, text).err()));
        assert_eq!(failures.len(), 1, "{area}: {failures:?}");
        let failure = &failures[0];
        assert!(failure.contains(named), "{area}: {failure:?} does not name {named}");
        assert!(area == "extra" || failure.starts_with(area), "{area}: {failure:?} names no area");
    }
}

/// `text` without the record `id`.
fn drop_record(text: &str, id: &str) -> String {
    let at = text.find(&format!("\"id\": \"{id}\"")).expect("the record");
    let start = text[..at].rfind("    {\n").unwrap();
    let end = at + text[at..].find("    },\n").unwrap() + "    },\n".len();
    format!("{}{}", &text[..start], &text[end..])
}
