//! Where a P=1 pass of a `benchmark/` workload goes, phase by phase — and,
//! with `--mem`, what each pass holds and asks of the allocator; with
//! `--setup`, where a P=2 instance's `setup_s` goes.
//!
//! ```text
//! cargo run --release --offline --manifest-path scripts/bench/phase-probe/Cargo.toml -- \
//!     <workload> [--seed N] [--passes N] [--quick] [--mem [--p N]]
//! cargo run --release --offline --manifest-path scripts/bench/phase-probe/Cargo.toml -- \
//!     <workload> --setup [--instances N] [--p N] [--seed N] [--quick]
//! ```
//!
//! Runs the workload's own `generate` / `setup` / `pass` on one location
//! and its `ref_pass` right after each pass on the same thread, and prints
//! two tables of every `PassRec` phase (same-named phases of one pass
//! summed), of the whole pass and of the reference pass, in ms. No
//! verification, no JSON, no comparison: point one checkout's probe at the
//! parent and one at the change.
//!
//! The first is the minimum over `--passes` passes of one instance, each
//! pass followed by one reference pass: every phase warm, what the code
//! costs at best. Both tables time the fence that closes a pass as
//! `rmi_fence (closing)`; it also runs the destructors of the p_objects
//! the pass dropped (in the workloads, the previous pass's containers).
//! The second is shaped as the harness times `abstraction_cost_x`: 12
//! fresh instances of `PASSES` passes, each pass followed by `REF_REPS`
//! reference passes, and per phase the median over the timed passes (1..)
//! of every instance.
//! The library pass then runs with its data evicted by the reference's,
//! which the warm minimum hides; its `pass / reference` line is the
//! harness's statistic — each instance's median ratio, p10 over instances.
//! Under `--mem` the counting allocator would skew its times, so it is not
//! run.
//!
//! `--mem` adds a column to the first table: each phase's peak live bytes,
//! over what was live when pass 0 began and the most over the passes. The
//! counting allocator stamps every call with `(now_ns, live)` in a
//! preallocated buffer, and after each pass the samples are attributed to
//! location 0's `PassRec` phases by timestamp (a phase's peak is the most
//! live at its start or at any call inside it).
//! It also adds one line per pass from the counting allocator: the
//! most bytes live at once during the pass, the process's resident-set
//! high-water mark after it (`VmHWM`, read as `peak_rss_mb` reads it;
//! absolute and never falling, so a resident-memory change can be placed
//! in a pass) and the bytes live after its closing fence, the two
//! allocator figures over what was live when pass 0 began, the
//! allocator calls (`alloc` + `realloc` + `dealloc`) the pass made and
//! those made while location 0 was in its closing fence, and
//! the pass's `remote_requests` and `bytes_sent` summed over locations
//! with the peak bytes live per remote request beside them (a peer drains
//! only at its fence, so at P > 1 the peak is the pass's requests in
//! flight; a pass that sent none, as every pass at P=1, prints `–`). A program that frees what it builds prints the same `live
//! after` for every pass but the first. `--p N` runs N locations: the
//! figures are process-wide, read by location 0 between barriers, and the
//! reference pass (location 0's alone) stays outside the window; phase
//! times at N > 1 are location 0's and do not repeat on a small host.
//!
//! `--setup` runs `--instances` (default 32, the gated run's P=2 count)
//! fresh instances at `--p` (default 2) locations, each shaped as the
//! harness runs one (`PASSES` passes, each followed by `REF_REPS`
//! reference passes on location 0), and prints per location the median
//! time from the `execute` call to its first instruction, to the end of
//! its `W::setup` and to the end of its first fence, where the harness's
//! `setup_s` ends: thread start, constructors and the first fence, apart.
//! The last row is the slowest location's per instance, as `setup_s`
//! reads it (median and p10, the gated estimator). Run it with the
//! benchmark's `GLIBC_TUNABLES` (`benchmark/src/main.rs`) for figures
//! comparable with `setup_s`: the probe does not set it itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

use stapl::rts::{execute, execute_collect, RtsConfig};
use stapl_benchmark::estimate::{median, p10};
use stapl_benchmark::harness::{Workload, PASSES};
use stapl_benchmark::host::peak_rss_mib;
use stapl_benchmark::spans::{now_ns, Layer, PassRec};
use stapl_benchmark::workloads::{array_bulk, dynamic_graph_kv, rmi_reads, rmi_writes};

/// Whether the allocator counts (`--mem`): off, a pass pays one load per call.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes live now; the most that were live since the last reset; calls made.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// Room for one pass's allocator calls (a P=2 `dynamic-graph-kv` pass
/// makes ≈ 18 k); calls past it go unsampled, and the table says so.
const SAMPLES: usize = 1 << 20;
/// `(now_ns, live)` after each allocator call of the pass, in call order;
/// `SAMPLED` counts the calls, sampled or not.
static SAMPLE_NS: [AtomicU64; SAMPLES] = [const { AtomicU64::new(0) }; SAMPLES];
static SAMPLE_LIVE: [AtomicUsize; SAMPLES] = [const { AtomicUsize::new(0) }; SAMPLES];
static SAMPLED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn resized(&self, from: usize, to: usize) {
        if !COUNTING.load(Relaxed) {
            return;
        }
        CALLS.fetch_add(1, Relaxed);
        let live = if to >= from {
            let live = LIVE.fetch_add(to - from, Relaxed) + (to - from);
            PEAK.fetch_max(live, Relaxed);
            live
        } else {
            LIVE.fetch_sub(from - to, Relaxed).wrapping_sub(from - to)
        };
        let i = SAMPLED.fetch_add(1, Relaxed);
        if i < SAMPLES {
            SAMPLE_NS[i].store(now_ns(), Relaxed);
            SAMPLE_LIVE[i].store(live, Relaxed);
        }
    }
}

/// Each phase's peak bytes live over `base`, from the pass's samples: the
/// most live at any call inside the phase, or at the last call before it.
fn phase_peaks(rec: &PassRec, base: usize) -> Vec<(&'static str, u64)> {
    let n = SAMPLED.load(Relaxed).min(SAMPLES);
    let samples: Vec<(u64, usize)> = (0..n).map(|i| (SAMPLE_NS[i].load(Relaxed), SAMPLE_LIVE[i].load(Relaxed))).collect();
    let mut peaks = Vec::new();
    for p in &rec.phases {
        let before = samples.iter().filter(|(t, _)| *t < p.start_ns).max_by_key(|(t, _)| *t);
        let inside = samples.iter().filter(|(t, _)| (p.start_ns..=p.end_ns).contains(t));
        let over_base = before.into_iter().chain(inside).map(|(_, live)| live.wrapping_sub(base) as isize).max();
        merge(&mut peaks, p.name, over_base.unwrap_or(0).max(0) as u64, u64::max);
    }
    peaks
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are a side effect only.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations are those of `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.resized(0, layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.resized(layout.size(), 0);
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.resized(layout.size(), new_size);
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Folds `ns` into `name`'s entry of a first-seen-ordered table.
fn merge(table: &mut Vec<(&'static str, u64)>, name: &'static str, ns: u64, fold: fn(u64, u64) -> u64) {
    match table.iter_mut().find(|(n, _)| *n == name) {
        Some((_, have)) => *have = fold(*have, ns),
        None => table.push((name, ns)),
    }
}

fn probe<W: Workload>(seed: u64, passes: usize, quick: bool, nlocs: usize) {
    let input = W::generate(seed, quick);
    println!("{} (seed {seed}, P={nlocs}, min of {passes} passes, ms): {}", W::NAME, W::describe(&input));
    let reference = Mutex::new(W::ref_setup(&input));
    execute(RtsConfig::default(), nlocs, |loc| {
        let mut st = W::setup(loc, &input);
        // (name, min ns) in first-seen order; the pass and the reference last.
        let mut mins: Vec<(&'static str, u64)> = Vec::new();
        let (mut pass_min, mut ref_min) = (u64::MAX, u64::MAX);
        // Per pass: peak live over `base`, VmHWM in MiB (`--mem`, location 0),
        // live after over `base`, allocator calls in the pass and in its
        // closing fence, remote requests and bytes sent by all locations.
        let mut mem = Vec::with_capacity(passes);
        // (name, most bytes live over `base`) in first-seen order, `--mem` only.
        let mut peaks: Vec<(&'static str, u64)> = Vec::new();
        let mut unsampled = 0;
        loc.barrier();
        let base = LIVE.load(Relaxed);
        for pass in 0..passes {
            let calls = CALLS.load(Relaxed);
            PEAK.store(LIVE.load(Relaxed), Relaxed);
            // Every location's, read while none is in a pass.
            let sent = loc.stats();
            if loc.id() == 0 {
                SAMPLED.store(0, Relaxed);
            }
            loc.barrier();
            let mut rec = PassRec { start_ns: now_ns(), ..PassRec::default() };
            W::pass(loc, &mut st, &input, pass, &mut rec);
            // Not the harness's: with every location's drops before any
            // location's fence entry, all reclaim at this fence. Without
            // it a location that runs ahead reclaims one fence later and
            // `live after` wobbles by its share.
            loc.barrier();
            let reclaim = CALLS.load(Relaxed);
            rec.phase("rmi_fence (closing)", Layer::Rts, || loc.rmi_fence());
            let reclaim = CALLS.load(Relaxed) - reclaim;
            pass_min = pass_min.min(now_ns() - rec.start_ns);
            // Every location is out of the fence, so has reclaimed what
            // the pass dropped; none is into the next pass.
            loc.barrier();
            let over_base = |bytes: &AtomicUsize| bytes.load(Relaxed).wrapping_sub(base) as isize;
            let sent = loc.stats().since(&sent);
            let (peak, after, calls) = (over_base(&PEAK), over_base(&LIVE), CALLS.load(Relaxed) - calls);
            // Read after the counted figures: reading the file allocates.
            let hwm = (COUNTING.load(Relaxed) && loc.id() == 0).then(peak_rss_mib).flatten();
            mem.push((peak, hwm, after, calls, reclaim, sent.remote_requests, sent.bytes_sent));
            if COUNTING.load(Relaxed) && loc.id() == 0 {
                unsampled = unsampled.max(SAMPLED.load(Relaxed).saturating_sub(SAMPLES));
                for (name, peak) in phase_peaks(&rec, base) {
                    merge(&mut peaks, name, peak, u64::max);
                }
            }
            if loc.id() == 0 {
                let t = Instant::now();
                W::ref_pass(&mut reference.lock().expect("location 0 only"), &input, pass);
                ref_min = ref_min.min(t.elapsed().as_nanos() as u64);
            }
            loc.barrier();
            let mut sums = Vec::new();
            for p in &rec.phases {
                merge(&mut sums, p.name, p.end_ns - p.start_ns, |sum, ns| sum + ns);
            }
            for (name, ns) in sums {
                merge(&mut mins, name, ns, u64::min);
            }
        }
        if loc.id() != 0 {
            return;
        }
        if COUNTING.load(Relaxed) {
            println!("  {:<36} {:>9}   {:>13}", "phase", "min ms", "peak live KiB");
        }
        for (name, ns) in mins.iter().chain(&[("pass", pass_min), ("reference pass", ref_min)]) {
            let peak = match *name {
                "pass" => mem.iter().map(|m| m.0.max(0) as u64).max(),
                _ => peaks.iter().find(|(n, _)| n == name).map(|(_, b)| *b),
            };
            match peak {
                Some(bytes) => println!("  {name:<36} {:>9.3}   {:>13}", *ns as f64 / 1e6, bytes / 1024),
                None => println!("  {name:<36} {:>9.3}", *ns as f64 / 1e6),
            }
        }
        if unsampled > 0 {
            println!("  ({unsampled} allocator calls of the busiest pass went unsampled: its phase peaks are low bounds)");
        }
        if COUNTING.load(Relaxed) {
            println!("  pass   peak live MiB   VmHWM MiB   live after MiB   allocator calls   in closing fence   remote requests   bytes sent   peak live B/request   (over {:.2} MiB live before pass 0)", mib(base as isize));
            for (pass, (peak, hwm, after, calls, reclaim, requests, bytes)) in mem.iter().enumerate() {
                // Without a remote request (P=1) the column has nothing to divide by.
                let per_request = match requests {
                    0 => "–".to_string(),
                    n => format!("{:.1}", *peak as f64 / *n as f64),
                };
                let hwm = hwm.map_or("–".to_string(), |mib| format!("{mib:.2}"));
                println!("  {pass:>4}   {:>13.2}   {hwm:>9}   {:>14.2}   {calls:>15}   {reclaim:>16}   {requests:>15}   {bytes:>10}   {per_request:>19}", mib(*peak), mib(*after));
            }
        }
    });
    if !COUNTING.load(Relaxed) {
        harness_shaped::<W>(&input, nlocs);
    }
}

/// Fresh instances in the harness-shaped table.
const INSTANCES: usize = 12;

/// The harness's shape (`benchmark/src/harness.rs`, `run_instance`): per
/// instance a fresh reference and a fresh runtime, `PASSES` passes each
/// closed by an `rmi_fence` and followed, on location 0, by `REF_REPS`
/// reference passes timed together. Prints, per phase, the median over
/// every instance's timed passes and its share of the pass.
fn harness_shaped<W: Workload>(input: &W::Input, nlocs: usize) {
    // Per timed pass of every instance: (phase, ns) sums, the pass, the reference.
    let mut phases: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let (mut pass_ns, mut ref_ns, mut cost_x) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..INSTANCES {
        let reference = Mutex::new(W::ref_setup(input));
        let runs = Mutex::new(Vec::new());
        execute(RtsConfig::default(), nlocs, |loc| {
            let mut st = W::setup(loc, input);
            loc.rmi_fence();
            for pass in 0..PASSES {
                loc.barrier();
                loc.barrier();
                let mut rec = PassRec { start_ns: now_ns(), ..PassRec::default() };
                W::pass(loc, &mut st, input, pass, &mut rec);
                rec.phase("rmi_fence (closing)", Layer::Rts, || loc.rmi_fence());
                rec.end_ns = now_ns();
                if loc.id() == 0 {
                    let mut r = reference.lock().expect("location 0 only");
                    let t = Instant::now();
                    for _ in 0..W::REF_REPS {
                        W::ref_pass(&mut r, input, pass);
                    }
                    let ref_pass = t.elapsed().as_nanos() as f64 / W::REF_REPS as f64;
                    runs.lock().expect("location 0 only").push((rec, ref_pass));
                }
            }
        });
        let mut ratios = Vec::new();
        for (rec, ref_pass) in runs.into_inner().expect("no location panicked").into_iter().skip(1) {
            let mut sums = Vec::new();
            for p in &rec.phases {
                merge(&mut sums, p.name, p.end_ns - p.start_ns, |sum, ns| sum + ns);
            }
            for (name, ns) in sums {
                match phases.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, all)) => all.push(ns as f64),
                    None => phases.push((name, vec![ns as f64])),
                }
            }
            let pass = (rec.end_ns - rec.start_ns) as f64;
            ratios.push(pass / ref_pass);
            pass_ns.push(pass);
            ref_ns.push(ref_pass);
        }
        cost_x.push(median(&ratios));
    }
    println!(
        "{} harness-shaped (P={nlocs}, {INSTANCES} instances x passes 1..{}, each pass followed by {} reference passes; median ms, share of the pass):",
        W::NAME,
        PASSES - 1,
        W::REF_REPS
    );
    let pass = median(&pass_ns);
    for (name, all) in &phases {
        let ms = median(all);
        println!("  {name:<36} {:>9.3}   {:>5.1} %", ms / 1e6, 100.0 * ms / pass);
    }
    println!("  {:<36} {:>9.3}", "pass", pass / 1e6);
    println!("  {:<36} {:>9.3}", "reference pass", median(&ref_ns) / 1e6);
    println!(
        "  pass / reference: p10 {:.3}, median {:.3} over instances (at P=1, p10 is abstraction_cost_x's estimator)",
        p10(&cost_x),
        median(&cost_x)
    );
}

/// `--setup`: per location, the median µs from the `execute` call to its
/// first instruction, to the end of `W::setup` and to the end of the first
/// fence, over `instances` fresh harness-shaped instances.
fn setup_probe<W: Workload>(seed: u64, quick: bool, nlocs: usize, instances: usize) {
    let input = W::generate(seed, quick);
    // Per location, per mark (started, set up, fenced): µs after the call, one per instance.
    let mut marks: Vec<[Vec<f64>; 3]> = (0..nlocs).map(|_| Default::default()).collect();
    for _ in 0..instances {
        let reference = Mutex::new(W::ref_setup(&input));
        let call_ns = now_ns();
        let per_loc = execute_collect(RtsConfig::default(), nlocs, |loc| {
            let started = now_ns();
            let mut st = W::setup(loc, &input);
            let set_up = now_ns();
            loc.rmi_fence();
            let fenced = now_ns();
            for pass in 0..PASSES {
                loc.barrier();
                loc.barrier();
                W::pass(loc, &mut st, &input, pass, &mut PassRec::default());
                loc.rmi_fence();
                if loc.id() == 0 {
                    let mut r = reference.lock().expect("location 0 only");
                    for _ in 0..W::REF_REPS {
                        W::ref_pass(&mut r, &input, pass);
                    }
                }
            }
            [started, set_up, fenced]
        });
        for (loc, ns) in marks.iter_mut().zip(&per_loc) {
            for (mark, t) in loc.iter_mut().zip(ns) {
                mark.push((t - call_ns) as f64 / 1e3);
            }
        }
    }
    println!(
        "{} setup (seed {seed}, P={nlocs}, {instances} fresh instances; median µs after the `execute` call):",
        W::NAME
    );
    println!("  {:<28} {:>17} {:>15} {:>16}", "", "first instruction", "W::setup done", "first fence done");
    for (id, [started, set_up, fenced]) in marks.iter().enumerate() {
        println!("  location {id:<19} {:>17.1} {:>15.1} {:>16.1}", median(started), median(set_up), median(fenced));
    }
    let slowest = |k: usize| (0..instances).map(|i| marks.iter().map(|m| m[k][i]).fold(0.0, f64::max)).collect::<Vec<_>>();
    let (started, set_up, fenced) = (slowest(0), slowest(1), slowest(2));
    println!("  {:<28} {:>17.1} {:>15.1} {:>16.1}", "slowest location, median", median(&started), median(&set_up), median(&fenced));
    println!("  {:<28} {:>17.1} {:>15.1} {:>16.1}", "slowest location, p10", p10(&started), p10(&set_up), p10(&fenced));
}

fn mib(bytes: isize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

fn main() {
    // First, so that nothing counted as freed was allocated uncounted.
    COUNTING.store(std::env::args().any(|a| a == "--mem"), Relaxed);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str, default: u64| {
        args.iter().position(|a| a == flag).map_or(default, |i| {
            args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("{flag} takes a number"))
        })
    };
    let setup = args.iter().any(|a| a == "--setup").then(|| value("--instances", 32) as usize);
    let (seed, passes, nlocs) = (value("--seed", 1), value("--passes", 12) as usize, value("--p", if setup.is_some() { 2 } else { 1 }) as usize);
    let quick = args.iter().any(|a| a == "--quick");
    fn run<W: Workload>(seed: u64, passes: usize, quick: bool, nlocs: usize, setup: Option<usize>) {
        match setup {
            Some(instances) => setup_probe::<W>(seed, quick, nlocs, instances),
            None => probe::<W>(seed, passes, quick, nlocs),
        }
    }
    match args.first().map(String::as_str) {
        Some("array-bulk") => run::<array_bulk::ArrayBulk>(seed, passes, quick, nlocs, setup),
        Some("rmi-writes") => run::<rmi_writes::RmiWrites>(seed, passes, quick, nlocs, setup),
        Some("rmi-reads") => run::<rmi_reads::RmiReads>(seed, passes, quick, nlocs, setup),
        Some("dynamic-graph-kv") => run::<dynamic_graph_kv::DynamicGraphKv>(seed, passes, quick, nlocs, setup),
        _ => {
            eprintln!("usage: phase-probe <array-bulk|rmi-writes|rmi-reads|dynamic-graph-kv> [--seed N] [--passes N] [--quick] [--mem [--p N]]");
            eprintln!("       phase-probe <array-bulk|rmi-writes|rmi-reads|dynamic-graph-kv> --setup [--instances N] [--p N] [--seed N] [--quick]");
            std::process::exit(2);
        }
    }
}
