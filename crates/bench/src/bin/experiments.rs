//! Renders the counter harness's areas (`stapl_bench::harness`) — every
//! figure of the paper's evaluation that carries a claim on this system is
//! a record of one — and runs the chaos soak.
//!
//! Usage (`--list` prints the areas):
//!   experiments                          # every area table, then the chaos soak
//!   experiments dynamic executor         # some areas: records as a table, then their claims
//!   experiments chaos                    # the fault soak
//!   experiments --json DIR               # the areas as BENCH_<area>.json, claims checked

use stapl_algorithms::prelude::*;
use stapl_bench::harness::{self, Area};
use stapl_bench::{fmt_time, Table};
use stapl_containers::array::PArray;
use stapl_core::interfaces::ElementRead;
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
    let q = |l: &stapl_rts::LocationTrace, name: &str, pick: fn(&stapl_rts::LatencyHistogram) -> u64| {
        let h = l.histogram(name).expect("known histogram");
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
            l.handled.to_string(),
            l.stats.tasks_executed.to_string(),
            l.histogram("sync_rmi").expect("known histogram").count().to_string(),
            q(l, "sync_rmi", stapl_rts::LatencyHistogram::p50),
            q(l, "sync_rmi", stapl_rts::LatencyHistogram::p99),
            q(l, "future_wait", stapl_rts::LatencyHistogram::p99),
            q(l, "barrier_wait", stapl_rts::LatencyHistogram::p99),
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
    let body = format!("[\n{}\n]\n", chrome.join(",\n"));
    if let Err(e) = std::fs::write(path, &body) {
        eprintln!("experiments: writing trace {path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {path} ({} events from {} traced executions)", chrome.len(), t.runs);
}

/// The chaos soak: mixed container traffic (an all-pairs async-increment
/// storm, a misaligned bulk `p_copy`, a fenced sync-read phase) under four
/// escalating fault schedules at P ∈ {1,2,4}, each run's observation digest
/// compared against a clean reference run.
///
/// This is a differential test, not the `chaos` area rendered: the area's
/// storm (`harness::CHAOS_GATED`) sends no replies and runs at aggregation
/// 1 so that its fault draws are program-order stable and gateable; the
/// soak's replies and bulk copy make batch sequence numbers
/// timing-dependent, so it gates nothing and asserts zero divergence
/// instead. The two share only the misaligned destination's constructor.
fn chaos_exp() {
    use stapl_rts::{FaultSchedule, StatsSnapshot};
    use std::cell::RefCell;

    const PS: [usize; 3] = [1, 2, 4];
    let n = 2048usize;
    let mut t = Table::new(
        "Chaos soak: mixed container traffic under escalating fault schedules \
         (reliable layer: checksum, ack/retransmit recovery)",
        &[
            "profile", "P", "time", "dropped", "retransmits", "crc rejects", "dups discarded",
            "acks", "divergence",
        ],
    );

    // Returns every location's observation digest (via allgather, so one
    // run's result carries all of them) plus the kernel counter delta. Like
    // every execution of this binary it starts in `harness::run`, which
    // shows its trace to the tap `main` installed.
    let soak = |p: usize, cfg: RtsConfig| -> (f64, Vec<Vec<u64>>, StatsSnapshot) {
        harness::run(cfg, p, move |loc| {
            let nlocs = loc.nlocs();
            let me = loc.id();
            let (h, rep) = loc.register_cell(0u64);
            let src = PArray::from_fn(loc, n, |i| (i * 3 + 1) as u64);
            let dst = harness::misaligned_dst(loc, n);
            let (secs, delta) = harness::timed_scoped(loc, || {
                for round in 1..=3u64 {
                    for dest in 0..nlocs {
                        if dest != me {
                            for j in 1..=4u64 {
                                let add = round * j;
                                loc.async_rmi(dest, h, move |c: &RefCell<u64>, _| {
                                    *c.borrow_mut() += add;
                                });
                            }
                        }
                    }
                    loc.rmi_fence();
                }
                p_copy(&src, &dst);
            });
            // Observation digest: own counter, every location's counter via
            // sync round trips, and sampled copy results — everything the
            // fault schedule could plausibly have corrupted or lost.
            let mut digest = vec![*rep.borrow()];
            for d in 0..nlocs {
                digest.push(loc.sync_rmi(d, h, |c: &RefCell<u64>, _| *c.borrow()));
            }
            for i in (0..n).step_by(97) {
                digest.push(dst.get_element(i));
            }
            let all = loc.allgather(digest);
            (secs, all, delta)
        })
    };

    // The clean reference digests, per P.
    let clean: Vec<Vec<Vec<u64>>> =
        PS.iter().map(|&p| soak(p, RtsConfig::default()).1).collect();

    let profiles: &[(&str, &str)] = &[
        ("mild", "drop:0.01,corrupt:0.005"),
        ("medium", "drop:0.1,dup:0.05,reorder:0.1,corrupt:0.05"),
        ("severe", "drop:0.3,dup:0.1,reorder:0.2,corrupt:0.15,delay_us:10"),
        ("brutal", "drop:1.0"),
    ];
    let mut severe_p4 = StatsSnapshot::default();
    for (name, profile) in profiles {
        for (pi, &p) in PS.iter().enumerate() {
            let cfg = RtsConfig {
                faults: FaultSchedule::parse(profile).expect("soak profile parses"),
                fault_seed: 0xC4A0_5EED ^ p as u64,
                retransmit_rto_us: 2_000,
                ..RtsConfig::default()
            };
            let (secs, digests, d) = soak(p, cfg);
            let diverged = digests != clean[pi];
            t.row(vec![
                name.to_string(),
                p.to_string(),
                fmt_time(secs),
                d.frames_dropped.to_string(),
                d.retransmits.to_string(),
                d.checksum_failures.to_string(),
                d.duplicates_discarded.to_string(),
                d.acks_sent.to_string(),
                if diverged { "DIVERGED".into() } else { "none".into() },
            ]);
            // The soak's whole point: an adversarial fabric may cost
            // retransmissions, but it may not change one observed value.
            assert!(
                !diverged,
                "soak diverged from the clean reference under profile `{profile}` at P={p}"
            );
            if *name == "severe" && p == 4 {
                severe_p4 = d;
            }
            if p > 1 {
                // Recovery must pay for injected damage, never multiply it.
                assert!(
                    d.retransmits <= 4 * (d.frames_dropped + d.checksum_failures) + 16,
                    "retransmit overhead unbounded under `{profile}` at P={p}: \
                     {} redrives for {} drops + {} rejections",
                    d.retransmits,
                    d.frames_dropped,
                    d.checksum_failures
                );
            }
        }
    }
    t.print();

    // The acceptance claim: at P=4 the severe profile actually exercised
    // every recovery path — losses injected, corrupt batches rejected by
    // CRC, both redriven — with zero divergence (asserted above).
    assert!(severe_p4.frames_dropped > 0, "severe profile never dropped a batch");
    assert!(severe_p4.checksum_failures > 0, "severe profile never corrupted a batch");
    assert!(severe_p4.retransmits > 0, "severe profile never forced a redrive");
    assert!(severe_p4.acks_sent > 0, "reliable delivery sent no acknowledgments");
    println!(
        "P=4 severe soak: {} requests recovered through {} retransmissions \
         ({} dropped, {} CRC-rejected) — zero divergence",
        severe_p4.remote_requests,
        severe_p4.retransmits,
        severe_p4.frames_dropped,
        severe_p4.checksum_failures,
    );
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

/// The one id that is not an area table: the chaos soak, which shadows the
/// `chaos` area's table (see [`chaos_exp`]; `--json` writes the area).
const SOAK: &str = "chaos";

/// An area by its CLI spelling: its name, or `localize` — the id CI and the
/// README have always used for `localization`.
fn cli_area(name: &str) -> Option<&'static Area> {
    harness::area(if name == "localize" { "localization" } else { name })
}

/// What an id on the command line runs: the soak, else an area's table.
enum Pick {
    Soak,
    Table(&'static Area),
}

fn pick(name: &str) -> Option<Pick> {
    if name == SOAK {
        return Some(Pick::Soak);
    }
    cli_area(name).map(Pick::Table)
}

fn areas() -> String {
    harness::AREAS.iter().map(|a| a.name).collect::<Vec<_>>().join(" ")
}

fn list_experiments() {
    println!("areas (a table + its claims; --json): {}", areas());
    println!("{SOAK}: the fault soak, in place of the {SOAK} area's table");
}

const USAGE: &str = "usage: experiments [--trace FILE] [--metrics] [<area|chaos>...] \
     | --list | --json DIR [<area>...] | --validate-trace FILE";

fn usage_error(msg: &str) -> ! {
    eprintln!("experiments: {msg}");
    eprintln!("{USAGE}");
    eprintln!("  areas: {} (--json: default all)", areas());
    eprintln!("  {SOAK}: the fault soak, in place of the {SOAK} area's table");
    eprintln!("  --trace FILE: write a Chrome trace-event JSON timeline of every execution");
    eprintln!("  --metrics: print per-location event counts and latency quantiles");
    eprintln!("  --validate-trace FILE: check a trace file's structure and exit");
    std::process::exit(2);
}

/// `--validate-trace FILE`: structural check of a Chrome trace-event file
/// (the `trace-smoke` CI step); exit 0 when loadable, 2 otherwise.
fn run_validate_trace(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("experiments: reading {path}: {e}");
        std::process::exit(2);
    });
    match stapl_bench::trace_check::validate_chrome_trace(&text) {
        Ok(check) => {
            println!(
                "{path}: ok ({} events, {} spans, {} instants, {} lanes)",
                check.events, check.spans, check.instants, check.lanes
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{path}: invalid trace: {e}");
            std::process::exit(2);
        }
    }
}

/// `--json DIR [<area>...]`: run the areas over `RtsConfig::base()`, check
/// their claims, and write one `BENCH_<area>.json` per area into DIR — the
/// machine-readable feed `bench-compare` gates on.
fn run_json_mode(mut names: impl Iterator<Item = String>) {
    let Some(dir) = names.next() else { usage_error("--json needs an output DIR") };
    let dir = std::path::PathBuf::from(dir);
    let mut picked: Vec<&'static Area> = names
        .map(|a| cli_area(&a).unwrap_or_else(|| usage_error(&format!("unknown area {a:?}"))))
        .collect();
    if picked.is_empty() {
        picked = harness::AREAS.iter().collect();
    }
    for area in picked {
        let report = area.run(&RtsConfig::base());
        report.check_claims();
        let path = report.write_to(&dir).unwrap_or_else(|e| {
            eprintln!("experiments: writing {}: {e}", area.name);
            std::process::exit(2);
        });
        println!("wrote {} ({} records)", path.display(), report.records.len());
    }
}

fn main() {
    // Peel off the flags that compose with any mode first.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let mut take = |flag: &str| -> Option<String> {
        let i = raw.iter().position(|a| a == flag)?;
        if i + 1 >= raw.len() {
            usage_error(&format!("{flag} needs a value"));
        }
        raw.remove(i);
        Some(raw.remove(i))
    };
    if let Some(path) = take("--validate-trace") {
        run_validate_trace(&path);
    }
    let trace_path = take("--trace");
    let metrics = raw.iter().position(|a| a == "--metrics").map(|i| raw.remove(i)).is_some();
    if trace_path.is_some() || metrics {
        let chrome = trace_path.as_ref().map(|_| Vec::new());
        *TRACE.lock().expect("trace ctx poisoned") = TraceCtx { chrome, metrics, runs: 0 };
        harness::tap_traces(observe);
    }
    let mut args = raw.into_iter().peekable();
    match args.peek().map(String::as_str) {
        Some("--list") | Some("-l") => list_experiments(),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            list_experiments();
        }
        Some("--json") => {
            args.next();
            run_json_mode(args);
        }
        _ => {
            let mut names: Vec<String> = args.collect();
            if names.is_empty() {
                // Everything: each area table the soak does not shadow, then the soak.
                names = harness::AREAS.iter().map(|a| a.name.to_string()).filter(|a| a != SOAK).collect();
                names.push(SOAK.to_string());
            }
            // Validate every name before running anything: a typo
            // half-way through a list must not leave a partial
            // (expensive) run.
            let picked: Vec<Pick> = names
                .iter()
                .map(|n| pick(n).unwrap_or_else(|| usage_error(&format!("unknown experiment id {n:?}"))))
                .collect();
            for p in picked {
                match p {
                    Pick::Soak => chaos_exp(),
                    Pick::Table(area) => area_table(area),
                }
            }
        }
    }
    if let Some(path) = &trace_path {
        write_chrome_trace(path);
    }
}
