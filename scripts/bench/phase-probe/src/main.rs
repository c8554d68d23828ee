//! Where a P=1 pass of a `benchmark/` workload goes, phase by phase.
//!
//! ```text
//! cargo run --release --offline --manifest-path scripts/bench/phase-probe/Cargo.toml -- \
//!     <workload> [--seed N] [--passes N] [--quick]
//! ```
//!
//! Runs the workload's own `generate` / `setup` / `pass` on one location
//! and its `ref_pass` right after each pass on the same thread, as the
//! harness does, and prints the minimum over the passes of every `PassRec`
//! phase (same-named phases of one pass summed), of the whole pass and of
//! the reference pass, in ms. No verification, no JSON, no comparison:
//! point one checkout's probe at the parent and one at the change.

use std::sync::Mutex;
use std::time::Instant;

use stapl::rts::{execute, RtsConfig};
use stapl_benchmark::harness::Workload;
use stapl_benchmark::spans::{now_ns, PassRec};
use stapl_benchmark::workloads::{array_bulk, dynamic_graph_kv, rmi_reads, rmi_writes};

/// Folds `ns` into `name`'s entry of a first-seen-ordered table.
fn merge(table: &mut Vec<(&'static str, u64)>, name: &'static str, ns: u64, fold: fn(u64, u64) -> u64) {
    match table.iter_mut().find(|(n, _)| *n == name) {
        Some((_, have)) => *have = fold(*have, ns),
        None => table.push((name, ns)),
    }
}

fn probe<W: Workload>(seed: u64, passes: usize, quick: bool) {
    let input = W::generate(seed, quick);
    println!("{} (seed {seed}, min of {passes} passes, ms): {}", W::NAME, W::describe(&input));
    let reference = Mutex::new(W::ref_setup(&input));
    execute(RtsConfig::default(), 1, |loc| {
        let mut reference = reference.lock().expect("one location");
        let mut st = W::setup(loc, &input);
        // (name, min ns) in first-seen order; the pass and the reference last.
        let mut mins: Vec<(&'static str, u64)> = Vec::new();
        let (mut pass_min, mut ref_min) = (u64::MAX, u64::MAX);
        for pass in 0..passes {
            let mut rec = PassRec { start_ns: now_ns(), ..PassRec::default() };
            W::pass(loc, &mut st, &input, pass, &mut rec);
            loc.rmi_fence();
            pass_min = pass_min.min(now_ns() - rec.start_ns);
            let t = Instant::now();
            W::ref_pass(&mut reference, &input, pass);
            ref_min = ref_min.min(t.elapsed().as_nanos() as u64);
            let mut sums = Vec::new();
            for p in &rec.phases {
                merge(&mut sums, p.name, p.end_ns - p.start_ns, |sum, ns| sum + ns);
            }
            for (name, ns) in sums {
                merge(&mut mins, name, ns, u64::min);
            }
        }
        for (name, ns) in mins.iter().chain(&[("pass", pass_min), ("reference pass", ref_min)]) {
            println!("  {name:<36} {:>9.3}", *ns as f64 / 1e6);
        }
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str, default: u64| {
        args.iter().position(|a| a == flag).map_or(default, |i| {
            args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("{flag} takes a number"))
        })
    };
    let (seed, passes) = (value("--seed", 1), value("--passes", 12) as usize);
    let quick = args.iter().any(|a| a == "--quick");
    match args.first().map(String::as_str) {
        Some("array-bulk") => probe::<array_bulk::ArrayBulk>(seed, passes, quick),
        Some("rmi-writes") => probe::<rmi_writes::RmiWrites>(seed, passes, quick),
        Some("rmi-reads") => probe::<rmi_reads::RmiReads>(seed, passes, quick),
        Some("dynamic-graph-kv") => probe::<dynamic_graph_kv::DynamicGraphKv>(seed, passes, quick),
        _ => {
            eprintln!("usage: phase-probe <array-bulk|rmi-writes|rmi-reads|dynamic-graph-kv> [--seed N] [--passes N] [--quick]");
            std::process::exit(2);
        }
    }
}
