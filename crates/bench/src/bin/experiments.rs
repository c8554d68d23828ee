//! Renders the counter harness's areas (`stapl_bench::harness`) — every
//! figure of the paper's evaluation that carries a claim on this system is
//! a record of one — and nothing else.
//!
//! Usage (`--list` prints the areas):
//!   experiments                          # every area: records as a table, then its claims
//!   experiments dynamic executor         # some areas
//!   experiments --json DIR               # the areas as BENCH_<area>.json, claims checked
//!   experiments --trace FILE --metrics dynamic   # plus a Chrome trace and per-location metrics

use stapl_bench::harness::{self, Area};
use stapl_bench::{fmt_time, Table};
use stapl_rts::{RtsConfig, RunTrace};

/// What `--trace` / `--metrics` asked for, set once in `main` before
/// anything runs. Chrome event lines accumulate here across executions;
/// `runs` numbers them so each gets a disjoint pid range in the merged
/// timeline.
struct TraceCtx {
    chrome: Option<Vec<String>>,
    metrics: bool,
    runs: u64,
}

static TRACE: std::sync::Mutex<TraceCtx> =
    std::sync::Mutex::new(TraceCtx { chrome: None, metrics: false, runs: 0 });

/// The trace tap: files one execution's trace under what was asked for.
fn observe(rt: &RunTrace) {
    let mut t = TRACE.lock().expect("trace ctx poisoned");
    let run_idx = t.runs;
    t.runs += 1;
    if let Some(chrome) = &mut t.chrome {
        // 1000 pids per execution keeps locations of different runs in
        // disjoint ranges of the merged timeline.
        rt.push_chrome_events(1 + run_idx * 1000, &format!("run {run_idx}"), chrome);
    }
    if t.metrics {
        print_run_metrics(run_idx, rt);
    }
}

/// `--metrics`: one row per location of one execution — event volume,
/// RMI traffic and tasks (from the location's counters), and the latency
/// quantiles the trace histograms carry.
fn print_run_metrics(run_idx: u64, rt: &RunTrace) {
    use stapl_rts::{LatencyHistogram, LocationTrace, SpanKind};
    let q = |l: &LocationTrace, kind: SpanKind, pick: fn(&LatencyHistogram) -> u64| {
        let h = l.histogram(kind);
        if h.count() == 0 { "-".to_string() } else { fmt_time(pick(h) as f64 * 1e-9) }
    };
    let mut t = Table::new(
        &format!("trace metrics: run {run_idx} (P={})", rt.nlocs),
        &[
            "loc", "events", "sends", "execs", "tasks", "sync n", "sync p50", "sync p99",
            "wait p99", "barrier p99",
        ],
    );
    for l in &rt.locs {
        t.row(vec![
            l.loc.to_string(),
            (l.events.len() as u64 + l.dropped).to_string(),
            l.stats.remote_requests.to_string(),
            l.stats.requests_handled.to_string(),
            l.stats.tasks_executed.to_string(),
            l.histogram(SpanKind::SyncRmi).count().to_string(),
            q(l, SpanKind::SyncRmi, LatencyHistogram::p50),
            q(l, SpanKind::SyncRmi, LatencyHistogram::p99),
            q(l, SpanKind::FutureWait, LatencyHistogram::p99),
            q(l, SpanKind::Barrier, LatencyHistogram::p99),
        ]);
    }
    t.print();
}

/// Writes the accumulated Chrome trace-event lines of every traced
/// execution as one JSON array (the format `chrome://tracing` / Perfetto
/// load directly).
fn write_chrome_trace(path: &str) {
    let t = TRACE.lock().expect("trace ctx poisoned");
    let chrome = t.chrome.as_deref().unwrap_or_default();
    if let Err(e) = std::fs::write(path, stapl_rts::chrome_json(chrome)) {
        eprintln!("experiments: writing trace {path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {path} ({} events from {} traced executions)", chrome.len(), t.runs);
}

/// `experiments <area>`: the area's records over the environment's config
/// as one table — knob columns, gated-counter columns, the kernel's seconds
/// and, where a scenario sweeps `mode`, its speed relative to the first
/// mode listed (never asserted) — then the area's claims.
fn area_table(area: &'static Area) {
    let report = area.run(&RtsConfig::default());
    let mut knobs: Vec<&str> = Vec::new();
    for (k, _) in report.records.iter().flat_map(|r| &r.knobs) {
        if *k != "scenario" && !knobs.contains(k) {
            knobs.push(k);
        }
    }
    let modes = knobs.contains(&"mode");
    let mut headers = vec!["scenario"];
    headers.extend(&knobs);
    headers.extend(area.gated.iter().map(|c| c.name()));
    headers.push("time");
    if modes {
        headers.push("speedup vs 1st mode");
    }
    let mut t = Table::new(area.name, &headers);
    for r in &report.records {
        let mut row = vec![r.scenario().to_string()];
        row.extend(knobs.iter().map(|k| match r.knob(k) {
            "" => "-".to_string(),
            v => v.to_string(),
        }));
        row.extend(area.gated.iter().map(|&c| r.counters.get(c).to_string()));
        row.push(fmt_time(r.wall_s));
        if modes {
            let first = report.records.iter().find(|b| b.same_but(r, "mode")).expect("r itself");
            row.push(format!("{:.2}x", first.wall_s / r.wall_s));
        }
        t.row(row);
    }
    t.print();
    report.check_claims();
    println!("{}: claims hold", area.name);
}

fn areas() -> String {
    harness::AREAS.iter().map(|a| a.name).collect::<Vec<_>>().join(" ")
}

fn list_experiments() {
    println!("areas (a table + its claims; --json): {}", areas());
}

const USAGE: &str =
    "usage: experiments [--trace FILE] [--metrics] [--json DIR] [<area>...] | --list | --help";

fn usage_error(msg: &str) -> ! {
    eprintln!("experiments: {msg}");
    eprintln!("{USAGE}");
    eprintln!("  areas: {} (default: all)", areas());
    eprintln!("  --json DIR: write each area's records as DIR/BENCH_<area>.json instead of a table");
    eprintln!("  --trace FILE: write a Chrome trace-event JSON timeline of every execution");
    eprintln!("  --metrics: print per-location event counts and latency quantiles");
    std::process::exit(2);
}

/// `--json DIR`: the area's records over `RtsConfig::base()`, its claims
/// checked, written as DIR/`BENCH_<area>.json`. A sweep of every area must
/// reproduce `bench/baselines/` byte for byte.
fn write_json(area: &'static Area, dir: &str) {
    let report = area.run(&RtsConfig::base());
    report.check_claims();
    let path = report.write_to(std::path::Path::new(dir)).unwrap_or_else(|e| {
        eprintln!("experiments: writing {}: {e}", area.name);
        std::process::exit(2);
    });
    println!("wrote {} ({} records)", path.display(), report.records.len());
}

fn main() {
    // Peel off the flags; every other argument names an area.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let mut take = |flag: &str| -> Option<String> {
        let i = raw.iter().position(|a| a == flag)?;
        if i + 1 >= raw.len() {
            usage_error(&format!("{flag} needs a value"));
        }
        raw.remove(i);
        Some(raw.remove(i))
    };
    let trace_path = take("--trace");
    let json_dir = take("--json");
    let metrics = raw.iter().position(|a| a == "--metrics").map(|i| raw.remove(i)).is_some();
    match raw.first().map(String::as_str) {
        Some("--list") => return list_experiments(),
        Some("--help") => {
            println!("{USAGE}");
            return list_experiments();
        }
        _ => {}
    }
    // Validate every name before running anything: a typo half-way through
    // a list must not leave a partial (expensive) run.
    let mut picked: Vec<&'static Area> = raw
        .iter()
        .map(|n| harness::area(n).unwrap_or_else(|| usage_error(&format!("unknown area {n:?}"))))
        .collect();
    if picked.is_empty() {
        picked = harness::AREAS.iter().collect();
    }
    if trace_path.is_some() || metrics {
        let chrome = trace_path.as_ref().map(|_| Vec::new());
        *TRACE.lock().expect("trace ctx poisoned") = TraceCtx { chrome, metrics, runs: 0 };
        harness::tap_traces(observe);
    }
    for area in picked {
        match &json_dir {
            Some(dir) => write_json(area, dir),
            None => area_table(area),
        }
    }
    if let Some(path) = &trace_path {
        write_chrome_trace(path);
    }
}
