//! Running a workload: fresh runtime instances, P=2 and then P=1. In
//! every instance each library pass is followed at once by the same pass
//! of the plain-Rust reference on the same thread, and what the instance
//! reports is the ratio of the two: the speed of this host changes by
//! +-15 % from one quarter second to the next, and two samples taken
//! milliseconds apart are the only ones it changes alike (NOISE.md).
//!
//! Work per pass is a frozen constant of the workload, never adapted to
//! the time it takes. `--seconds` scales only the number of instances.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stapl::rts::{execute_collect, Location, RtsConfig, StatsSnapshot};

use crate::estimate::{median, p10, percentile};
use crate::host;
use crate::json::Json;
use crate::ladder;
use crate::metrics::{self, Class, Values, RUN_SECONDS};
use crate::spans::{chrome_trace, now_ns, InstanceSpans, Layer, PassRec};

/// Locations of the parallel instances. Location threads spin or yield
/// while they wait, so there are never more of them than cores.
pub const P_PAR: usize = 2;
/// Passes per instance: one warm-up, then the timed ones.
pub const PASSES: usize = 5;
/// P=2 instances, and then as many P=1 instances, of a full untraced run.
const ROUNDS: usize = 32;
/// Traced + untraced P=2 instance pairs of a full traced run.
const TRACED_ROUNDS: usize = 8;
const QUICK_ROUNDS: usize = 4;
/// Blocking remote operations timed one by one in each P=2 instance.
const SYNC_OPS: usize = 1000;
const QUICK_SYNC_OPS: usize = 100;
/// An instance that takes longer than this has hung: a failure, not a hang.
const WATCHDOG: Duration = Duration::from_secs(60);
/// The driver kills a run at 180 s. On a host so slow that the fixed
/// work does not fit, stop starting instances here and say so.
const HARD_DEADLINE: Duration = Duration::from_secs(140);

/// Outcome of comparing one instance's outputs with the reference.
#[derive(Default)]
pub struct Check {
    pub checks: u64,
    pub mismatches: Vec<String>,
}

impl Check {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.mismatches.push(what());
        }
    }

    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: &T, want: &T) {
        self.expect(got == want, || {
            format!("{what}: got {got:?}, reference {want:?}")
        });
    }

    /// Element-wise comparison that reports only the first difference.
    pub fn slices<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: &[T], want: &[T]) {
        let ok = got == want;
        self.expect(ok, || {
            match got.iter().zip(want).position(|(g, w)| g != w) {
                Some(i) => format!("{what}[{i}]: got {:?}, reference {:?}", got[i], want[i]),
                None => format!("{what}: length {} vs reference {}", got.len(), want.len()),
            }
        });
    }
}

/// One workload: how to make its input from a seed, run it on the
/// library, run it in plain Rust, and compare the two.
pub trait Workload: 'static {
    const NAME: &'static str;
    /// The blocking remote operation behind `sync_op_cost_x`.
    const SYNC_OP: &'static str;
    /// Times the reference pass runs per sample, so that a sample is
    /// milliseconds long however cheap plain Rust makes the pass.
    const REF_REPS: usize;

    type Input: Send + Sync + 'static;
    /// One location's containers; lives inside `execute`.
    type State;
    /// What one location hands back for verification.
    type Output: Send + 'static;
    /// State of the plain-Rust reference.
    type Ref: Send;

    fn generate(seed: u64, quick: bool) -> Self::Input;
    fn digest(input: &Self::Input) -> u64;
    /// Elements, operations, edges.. one pass processes (for `items_per_s`).
    fn items_per_pass(input: &Self::Input) -> u64;
    /// Sizes worth printing next to the host's cache sizes.
    fn describe(input: &Self::Input) -> String;

    /// Constructs the containers and loads the input (collective).
    fn setup(loc: &Location, input: &Self::Input) -> Self::State;
    /// One pass; the harness adds the barrier before and the closing
    /// `rmi_fence` after.
    fn pass(
        loc: &Location,
        st: &mut Self::State,
        input: &Self::Input,
        pass: usize,
        rec: &mut PassRec,
    );
    fn output(loc: &Location, st: &Self::State) -> Self::Output;
    /// The `i`-th blocking remote operation, issued by location 0.
    fn sync_op(loc: &Location, st: &Self::State, input: &Self::Input, i: usize);

    fn ref_setup(input: &Self::Input) -> Self::Ref;
    fn ref_pass(r: &mut Self::Ref, input: &Self::Input, pass: usize);
    /// Flips one reference value (`--selftest-corrupt`).
    fn corrupt(r: &mut Self::Ref);
    /// Compares the per-location outputs of an instance that ran
    /// [`PASSES`] passes with a reference that did the same.
    fn verify(input: &Self::Input, r: &Self::Ref, outputs: &[Self::Output]) -> Check;
}

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub selftest_corrupt: bool,
    pub out_dir: std::path::PathBuf,
}

/// What one runtime instance produced.
struct Instance<O> {
    start_ns: u64,
    end_ns: u64,
    setup_s: f64,
    /// `[location][pass]`
    passes: Vec<Vec<PassRec>>,
    /// Seconds the reference took for each pass, on location 0's thread
    /// right after the library's pass.
    ref_s: Vec<f64>,
    /// Global counter deltas of each pass.
    counts: Vec<StatsSnapshot>,
    /// Microseconds of each blocking remote operation.
    sync_us: Vec<f64>,
    outputs: Vec<O>,
}

impl<O> Instance<O> {
    /// Fig. 24: a pass takes as long as its slowest location.
    fn pass_s(&self, pass: usize) -> f64 {
        self.passes
            .iter()
            .map(|l| l[pass].dur_ns())
            .max()
            .expect("a location") as f64
            / 1e9
    }

    /// Median over the timed passes.
    fn solve_s(&self) -> f64 {
        median(&(1..PASSES).map(|p| self.pass_s(p)).collect::<Vec<_>>())
    }

    fn seq_solve_s(&self) -> f64 {
        median(&self.ref_s[1..])
    }

    /// The instance statistic: median over the timed passes of library
    /// pass over the reference pass that followed it.
    fn cost_x(&self) -> f64 {
        median(
            &(1..PASSES)
                .map(|p| self.pass_s(p) / self.ref_s[p])
                .collect::<Vec<_>>(),
        )
    }
}

fn run_instance<W: Workload>(
    input: &W::Input,
    reference: W::Ref,
    nlocs: usize,
    cfg: RtsConfig,
    sync_ops: usize,
) -> Instance<W::Output> {
    let reference = Mutex::new(reference);
    let start_ns = now_ns();
    let per_loc = execute_collect(cfg, nlocs, |loc| {
        let mut st = W::setup(loc, input);
        loc.rmi_fence();
        let setup_end_ns = now_ns();
        let mut reference =
            (loc.id() == 0).then(|| reference.lock().expect("only location 0 locks it"));
        let mut recs = Vec::with_capacity(PASSES);
        let mut ref_s = Vec::with_capacity(PASSES);
        let mut counts = Vec::with_capacity(PASSES);
        for pass in 0..PASSES {
            // Two barriers so the counter snapshot is taken while every
            // location is between passes.
            loc.barrier();
            let before = loc.stats();
            loc.barrier();
            let mut rec = PassRec {
                start_ns: now_ns(),
                ..PassRec::default()
            };
            W::pass(loc, &mut st, input, pass, &mut rec);
            rec.phase("rmi_fence (closing)", Layer::Rts, || loc.rmi_fence());
            rec.end_ns = now_ns();
            counts.push(loc.stats().since(&before));
            recs.push(rec);
            // The other locations wait in the next barrier meanwhile.
            if let Some(r) = reference.as_mut() {
                let t = Instant::now();
                for _ in 0..W::REF_REPS {
                    W::ref_pass(r, input, pass);
                }
                ref_s.push(t.elapsed().as_secs_f64() / W::REF_REPS as f64);
            }
        }
        drop(reference);
        let output = W::output(loc, &st);
        let mut sync_us = Vec::new();
        if nlocs > 1 {
            loc.barrier();
            if loc.id() == 0 {
                sync_us.reserve(sync_ops);
                for i in 0..sync_ops {
                    let t0 = Instant::now();
                    W::sync_op(loc, &st, input, i);
                    sync_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
            // The other locations wait here, which is to say they poll.
            loc.barrier();
        }
        (setup_end_ns, recs, ref_s, counts, sync_us, output)
    });
    let end_ns = now_ns();
    std::hint::black_box(&reference);
    let mut inst = Instance {
        start_ns,
        end_ns,
        setup_s: 0.0,
        passes: Vec::new(),
        ref_s: Vec::new(),
        counts: Vec::new(),
        sync_us: Vec::new(),
        outputs: Vec::new(),
    };
    for (id, (setup_end_ns, recs, ref_s, counts, sync_us, output)) in
        per_loc.into_iter().enumerate()
    {
        inst.setup_s = inst.setup_s.max((setup_end_ns - start_ns) as f64 / 1e9);
        inst.passes.push(recs);
        inst.outputs.push(output);
        if id == 0 {
            inst.ref_s = ref_s;
            inst.counts = counts;
            inst.sync_us = sync_us;
        }
    }
    inst
}

/// The watchdog: a thread that ends the process, with a failed result,
/// when an instance takes longer than [`WATCHDOG`] — stuck location
/// threads cannot be stopped, and a hang is a failure, not a hang.
///
/// Instances run on the main thread and the watchdog allocates nothing
/// while it waits, so the only threads with a malloc arena of their own
/// are the location threads (see `run`, "P=2 instances first").
pub(crate) struct Watchdog {
    /// When the running instance is overdue, in `now_ns`; 0 while none runs.
    deadline_ns: Arc<AtomicU64>,
}

/// A location panicked (the runtime re-raises it in the caller).
pub(crate) struct Panicked;

impl Watchdog {
    pub(crate) fn start() -> Self {
        let deadline_ns = Arc::new(AtomicU64::new(0));
        let seen = deadline_ns.clone();
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(200));
            let deadline = seen.load(Ordering::Acquire);
            if deadline != 0 && now_ns() > deadline {
                eprintln!(
                    "watchdog: an instance gave no result after {} s",
                    WATCHDOG.as_secs()
                );
                println!(r#"{{"correct": false, "attempted": 1, "failed": 1, "metrics": {{}}}}"#);
                std::process::exit(1);
            }
        });
        Watchdog { deadline_ns }
    }

    /// Runs `f` with the clock running.
    pub(crate) fn watch<T>(&self, f: impl FnOnce() -> T) -> Result<T, Panicked> {
        let deadline = now_ns() + WATCHDOG.as_nanos() as u64;
        self.deadline_ns.store(deadline, Ordering::Release);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        self.deadline_ns.store(0, Ordering::Release);
        result.map_err(|_| Panicked)
    }
}

/// Tally of operations for the result line.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    fn absorb(&mut self, label: &str, timed_passes: u64, check: Check) {
        self.attempted += timed_passes + check.checks;
        self.failed += check.mismatches.len() as u64;
        for m in check.mismatches {
            if self.failures.len() < 20 {
                self.failures.push(format!("{label}: {m}"));
            }
        }
    }
}

/// Instance statistics of one kind of instance, one entry per instance.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    cost_x: Vec<f64>,
    solve_s: Vec<f64>,
    seq_solve_s: Vec<f64>,
    sync_p50_us: Vec<f64>,
    sync_p99_us: Vec<f64>,
}

impl Samples {
    fn push<O>(&mut self, inst: &Instance<O>) {
        self.setup_s.push(inst.setup_s);
        self.cost_x.push(inst.cost_x());
        self.solve_s.push(inst.solve_s());
        self.seq_solve_s.push(inst.seq_solve_s());
        if !inst.sync_us.is_empty() {
            self.sync_p50_us.push(percentile(&inst.sync_us, 0.50));
            self.sync_p99_us.push(percentile(&inst.sync_us, 0.99));
        }
    }

    fn to_json(&self) -> Json {
        let arr = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        Json::obj(vec![
            ("setup_s", arr(&self.setup_s)),
            ("cost_x", arr(&self.cost_x)),
            ("solve_s", arr(&self.solve_s)),
            ("seq_solve_s", arr(&self.seq_solve_s)),
            ("sync_op_p50_us", arr(&self.sync_p50_us)),
        ])
    }
}

/// How the instance ratios of a run become one number: the nearest-rank
/// 10th percentile. For minutes at a time the host makes the library's
/// passes slower than the reference's (memory-bound code suffers more
/// from its neighbours), never faster, so the low end is the end that
/// repeats (NOISE.md).
fn across(values: &[f64]) -> f64 {
    p10(values)
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Everything else worth keeping in the result file.
    pub extra: Vec<(&'static str, Json)>,
}

fn rounds(opts: &Opts, full: usize) -> usize {
    if opts.quick {
        return QUICK_ROUNDS;
    }
    let scaled = (full as f64 * opts.seconds / f64::from(RUN_SECONDS)).round() as usize;
    scaled.max(QUICK_ROUNDS)
}

pub fn run<W: Workload>(opts: &Opts) -> Report {
    let wall = Instant::now();
    let run_start_ns = now_ns();
    let disturbance = host::Disturbance::start();
    let mut tally = Tally::default();
    let mut values = Values::default();

    let t = Instant::now();
    let input = Arc::new(W::generate(opts.seed, opts.quick));
    let input_gen_s = t.elapsed().as_secs_f64();
    let digest = W::digest(&input);
    eprintln!(
        "# {} seed {} input {:016x}: {}",
        W::NAME,
        opts.seed,
        digest,
        W::describe(&input)
    );

    // The reference result every instance is checked against.
    let mut expected = W::ref_setup(&input);
    for pass in 0..PASSES {
        W::ref_pass(&mut expected, &input, pass);
    }
    if opts.selftest_corrupt {
        W::corrupt(&mut expected);
    }
    let expected = Arc::new(expected);

    let sync_ops = if opts.quick { QUICK_SYNC_OPS } else { SYNC_OPS };
    let watchdog = Watchdog::start();
    let mut truncated = false;

    // Instance statistics, one entry per instance.
    let mut p2 = Samples::default();
    let mut p1 = Samples::default();
    let mut p2_traced = Samples::default();
    let mut traced_instances: Vec<Instance<W::Output>> = Vec::new();

    // One checked library instance; `None` after a panic.
    let mut checked = |label: String, nlocs: usize, cfg: RtsConfig| {
        let reference = W::ref_setup(&input);
        match watchdog.watch(|| run_instance::<W>(&input, reference, nlocs, cfg, sync_ops)) {
            Ok(inst) => {
                let check = W::verify(&input, &expected, &inst.outputs);
                tally.absorb(&label, (PASSES - 1) as u64, check);
                Some(inst)
            }
            Err(Panicked) => {
                tally.fail(format!("{label}: a location panicked"));
                None
            }
        }
    };
    let mut overdue = |done: usize, of: usize| {
        let over = wall.elapsed() > HARD_DEADLINE;
        if over && !truncated {
            truncated = true;
            eprintln!(
                "# stopping after {done} of {of} instances: {} s deadline",
                HARD_DEADLINE.as_secs()
            );
        }
        over
    };

    let nrounds = rounds(opts, if opts.traced { TRACED_ROUNDS } else { ROUNDS });
    if opts.traced {
        // Traced and untraced P=2 instances alternate; their ratio is the
        // tracing overhead.
        for round in 0..nrounds {
            if overdue(2 * round, 2 * nrounds) {
                break;
            }
            if let Some(inst) = checked(format!("P=2 traced #{round}"), P_PAR, RtsConfig::traced())
            {
                p2_traced.push(&inst);
                traced_instances.push(inst);
            }
            if let Some(inst) = checked(format!("P=2 #{round}"), P_PAR, RtsConfig::default()) {
                p2.push(&inst);
            }
        }
    } else {
        // P=2 instances first, then the P=1 ones. glibc gives each thread
        // an arena and hands the arenas of finished threads to new ones,
        // last freed first. The one location of a P=1 instance needs
        // twice the memory of a location of a P=2 instance; in turns with
        // P=2 instances it inherits now one of their two arenas, now the
        // other, depending on which of them ended last, and in three runs
        // of ten both arenas grew to the larger size (`peak_rss_mb` +8 %
        // on an 8 MiB array). One after another, the P=1 locations all
        // inherit the same arena. Nothing gated compares a P=2 instance
        // with a P=1 one, so nothing is lost by the order.
        for k in 0..nrounds {
            if overdue(k, 2 * nrounds) {
                break;
            }
            if let Some(inst) = checked(format!("P=2 #{k}"), P_PAR, RtsConfig::default()) {
                p2.push(&inst);
            }
        }
        for k in 0..nrounds {
            if overdue(nrounds + k, 2 * nrounds) {
                break;
            }
            if let Some(inst) = checked(format!("P=1 #{k}"), 1, RtsConfig::default()) {
                p1.push(&inst);
            }
        }
    }

    let mut extra: Vec<(&'static str, Json)> = vec![
        ("input_digest", Json::Str(format!("{digest:016x}"))),
        ("input", Json::Str(W::describe(&input))),
        ("sync_op", Json::str(W::SYNC_OP)),
    ];
    if truncated {
        extra.push(("truncated", Json::Bool(true)));
    }

    if opts.traced {
        let ladder = ladder::run(&watchdog, opts.quick);
        for f in ladder.failures {
            tally.fail(f);
        }
        for (name, v) in ladder.values {
            values.set(name, v);
        }
        if !traced_instances.is_empty() && !p2.cost_x.is_empty() {
            traced_metrics(
                &mut values,
                &traced_instances,
                &p2_traced.solve_s,
                &p2.solve_s,
            );
            extra.push(("exact_counts", exact_counts(&values)));
        }
        let spans: Vec<InstanceSpans> = traced_instances
            .into_iter()
            .enumerate()
            .map(|(k, inst)| InstanceSpans {
                label: format!("{} P={} traced #{k}", W::NAME, P_PAR),
                start_ns: inst.start_ns,
                end_ns: inst.end_ns,
                passes: inst.passes,
            })
            .collect();
        let path = opts
            .out_dir
            .join(format!("{}-s{}-trace.json", W::NAME, opts.seed));
        let trace = chrome_trace(&spans, W::NAME, run_start_ns, now_ns());
        match std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| std::fs::write(&path, trace.render()))
        {
            Ok(()) => extra.push(("trace_file", Json::Str(path.display().to_string()))),
            Err(e) => tally.fail(format!("writing {}: {e}", path.display())),
        }
    } else if !opts.traced && !p2.cost_x.is_empty() && !p1.cost_x.is_empty() {
        let solve_s = p10(&p2.solve_s);
        let items = W::items_per_pass(&input) as f64;
        let seq: Vec<f64> = [&p2.seq_solve_s[..], &p1.seq_solve_s[..]].concat();
        values.set("setup_s", p10(&p2.setup_s));
        values.set("abstraction_cost_x", across(&p1.cost_x));
        values.set("parallel_cost_x", across(&p2.cost_x));
        values.set("solve_s", solve_s);
        values.set("solve_p1_s", p10(&p1.solve_s));
        values.set("seq_solve_s", p10(&seq));
        values.set("speedup_x", across(&p1.cost_x) / across(&p2.cost_x));
        values.set("items_per_s", items / solve_s);
        values.set("items_per_pass", items);
        values.set("solve_med_s", median(&p2.solve_s));
        values.set("solve_p1_med_s", median(&p1.solve_s));
        values.set("sync_op_p50_us", median(&p2.sync_p50_us));
        values.set("sync_op_p99_us", median(&p2.sync_p99_us));
        values.set("input_gen_s", input_gen_s);
        values.set("instances", (p2.cost_x.len() + p1.cost_x.len()) as f64);
        // The instance statistics behind the numbers above, for
        // NOISE.md-style analysis of their shape.
        extra.push((
            "per_instance",
            Json::obj(vec![("p2", p2.to_json()), ("p1", p1.to_json())]),
        ));
    }

    extra.push(("disturbance", disturbance.finish()));
    extra.push((
        "failures",
        Json::Arr(tally.failures.iter().map(|f| Json::str(f)).collect()),
    ));
    if !opts.traced {
        // Last, so that it covers everything the run allocated.
        match host::peak_rss_mib() {
            Some(m) => values.set("peak_rss_mb", m),
            None => tally.fail("cannot read VmHWM from /proc/self/status".into()),
        }
        values.set("wall_s", wall.elapsed().as_secs_f64());
    }
    Report {
        correct: tally.failed == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        values,
        extra,
    }
}

/// Span shares and per-pass counts of the traced P=2 instances.
fn traced_metrics<O>(
    values: &mut Values,
    traced: &[Instance<O>],
    solve_traced: &[f64],
    solve_untraced: &[f64],
) {
    // Shares: layer time over pass time, summed over locations, timed
    // passes and instances.
    let mut layer_ns = [0u64; 6];
    let mut pass_ns = 0u64;
    let mut closing_ns = 0u64;
    for inst in traced {
        for loc in &inst.passes {
            for rec in &loc[1..] {
                for (acc, ns) in layer_ns.iter_mut().zip(rec.layer_ns()) {
                    *acc += ns;
                }
                pass_ns += rec.dur_ns();
                let closing = rec.phases.last().expect("closing fence phase");
                closing_ns += closing.end_ns - closing.start_ns;
            }
        }
    }
    let share = |ns: u64| ns as f64 / pass_ns.max(1) as f64;
    for (layer, ns) in Layer::ALL.iter().zip(layer_ns) {
        let name = metrics::METRICS
            .iter()
            .map(|m| m.name)
            .find(|n| n.strip_suffix(".pass_share") == Some(layer.name()))
            .expect("a pass_share metric per layer");
        values.set(name, share(ns));
    }
    values.set("rts.fence_wait_share", share(closing_ns));
    // A traced instance and the untraced one after it run within a
    // second of each other; the median of their ratios leaves the speed
    // of the host out.
    let overhead: Vec<f64> = solve_traced
        .iter()
        .zip(solve_untraced)
        .map(|(t, u)| t / u)
        .collect();
    values.set("rts.trace_overhead_x", median(&overhead));
    let fastest = solve_untraced.iter().copied().fold(f64::INFINITY, f64::min);
    let slow = solve_untraced
        .iter()
        .filter(|s| **s > 1.5 * fastest)
        .count();
    values.set(
        "rts.slow_instance_share",
        slow as f64 / solve_untraced.len() as f64,
    );

    // Counts: the median over timed passes and instances (for the exact
    // ones, every pass has the same count).
    let per_pass: Vec<&StatsSnapshot> = traced.iter().flat_map(|i| &i.counts[1..]).collect();
    let med = |f: fn(&StatsSnapshot) -> u64| {
        median(&per_pass.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    let total = |f: fn(&StatsSnapshot) -> u64| per_pass.iter().map(|s| f(s)).sum::<u64>() as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    values.set("rts.remote_requests", med(|s| s.remote_requests));
    values.set("rts.local_invocations", med(|s| s.local_invocations));
    values.set("rts.batches_sent", med(|s| s.batches_sent));
    values.set(
        "rts.reqs_per_batch",
        ratio(total(|s| s.remote_requests), total(|s| s.batches_sent)),
    );
    values.set("rts.responses_sent", med(|s| s.responses_sent));
    values.set("rts.fence_rounds", med(|s| s.fence_rounds));
    let hits = total(|s| s.dir_cache_hits);
    values.set(
        "core.dir_cache_hit_rate",
        ratio(hits, hits + total(|s| s.dir_cache_misses)),
    );
    values.set("core.dir_cache_stale", med(|s| s.dir_cache_stale));
    values.set("containers.bulk_requests", med(|s| s.bulk_requests));
    values.set("containers.segment_requests", med(|s| s.segment_requests));
    values.set("containers.element_fallbacks", med(|s| s.element_fallbacks));
    values.set("views.localized_chunks", med(|s| s.localized_chunks));
    values.set("paragraph.tasks_executed", med(|s| s.tasks_executed));
    values.set("paragraph.tasks_stolen", med(|s| s.tasks_stolen));
    values.set("paragraph.steal_requests", med(|s| s.steal_requests));
}

/// The counts that must repeat exactly for one seed, for the result file.
/// When a pass runs the task-graph executor, its completion probes and
/// steal attempts are RMIs whose number depends on thread timing, so the
/// RMI counts of such a workload are left out.
fn exact_counts(values: &Values) -> Json {
    let executor_ran = values
        .get("paragraph.tasks_executed")
        .is_some_and(|n| n > 0.0);
    let timing_dependent = |name: &str| {
        executor_ran
            && [
                "rts.remote_requests",
                "rts.local_invocations",
                "rts.responses_sent",
            ]
            .contains(&name)
    };
    Json::Obj(
        metrics::per_layer()
            .filter(|m| m.class == Class::PerLayer { exact: true } && !timing_dependent(m.name))
            .filter_map(|m| {
                values
                    .get(m.name)
                    .map(|v| (m.name.to_string(), Json::Num(v)))
            })
            .collect(),
    )
}
