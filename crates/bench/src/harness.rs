//! Tiered benchmark harness: parameterized scenarios → `BENCH_*.json`.
//!
//! This is the repo's perf-trajectory subsystem (ROADMAP item 5, shaped
//! after pSTL-Bench's micro-benchmark suites and the ruler artifact's
//! kick-tires / lite / full tier scripts). Each **area** groups scenarios
//! around one optimization the repo reproduced and must not regress:
//!
//! * `localization` — bulk-range transport + view localization (PR 4):
//!   `p_copy` localized vs element-wise over aligned / shifted / strided /
//!   misaligned placements, aggregation and `bulk_threshold` knobs;
//! * `directory` — owner caches with epoch invalidation (PR 3): hot-key
//!   and traversal access on a dynamic pGraph, cache on vs off;
//! * `dynamic` — segment-at-a-time transport for pList / pAssoc (PR 5):
//!   segmented vs element-wise traversal and copy-onto-migrated-slabs,
//!   bucket-grained vs per-pair MapReduce shuffle, and the
//!   gather-vs-broadcast `collect_ordered` data paths;
//! * `executor` — the PARAGRAPH task-graph executor (PR 2): SPMD vs
//!   executor vs executor+stealing on uniform and skewed workloads;
//! * `transport` — bytes on the wire (PR 8, one format since PR 20): the
//!   same copy and traversal kernels gated on `bytes_sent`, the length of
//!   the records their requests are relocated into;
//! * `chaos` — fault injection + reliable delivery (PR 9): an async-RMI
//!   storm under seeded fault schedules (total drop, total corruption, a
//!   mixed profile), gating the injected damage (`frames_dropped` /
//!   `checksum_failures`) exactly and bounding the timing-driven recovery
//!   cost by assertion — with zero divergence of the final container
//!   state asserted in-run.
//!
//! Each scenario runs in its **own** [`execute_collect_traced`] execution
//! with an explicit [`RtsConfig`] built from [`RtsConfig::base`] (environment
//! `STAPL_*` overrides deliberately do **not** apply — records must mean
//! the same thing on every machine), and counters are scoped with
//! [`StatsSnapshot::since`] around the timed kernel, so back-to-back
//! scenarios in one process cannot cross-contaminate records. All
//! generators are seeded from [`BENCH_SEED`]: two runs at the same knobs
//! produce **identical** gated counter values (asserted by
//! `tests/harness_determinism.rs`), which is what lets `bench-compare`
//! gate CI on counters while wall-clock stays advisory.

use stapl_algorithms::prelude::*;
use stapl_containers::array::PArray;
use stapl_containers::associative::PHashMap;
use stapl_containers::graph::{Directedness, GraphPartitionKind, PGraph};
use stapl_containers::list::PList;
use stapl_core::interfaces::*;
use stapl_core::mapper::{CyclicMapper, GeneralMapper};
use stapl_core::partition::{
    BalancedPartition, BlockCyclicPartition, BlockedPartition, IndexPartition,
};
use stapl_paragraph::executor::ExecPolicy;
use stapl_rts::{
    execute_collect_traced, Counter, FaultSchedule, Location, RtsConfig, StatsSnapshot,
    TraceSummary,
};
use stapl_views::array_view::ArrayView;
use stapl_views::assoc_view::MapView;

use crate::json::{escape, fmt_f64, Json};
use crate::time_kernel;

/// The one fixed seed threaded through every scenario generator (corpus
/// synthesis, graph generators, index shuffles). Centralizing it keeps
/// harness runs reproducible and makes "is this seeded?" greppable.
pub const BENCH_SEED: u64 = 0x57A9_15EED;

/// Schema version stamped into every `BENCH_*.json`; bump on breaking
/// format changes so `bench-compare` can refuse mixed-schema diffs.
pub const SCHEMA_VERSION: u64 = 1;

/// The benchmark areas, in emission order. `BENCH_<area>.json` baselines
/// for each are checked into `bench/baselines/`.
pub const AREAS: [&str; 6] =
    ["localization", "directory", "dynamic", "executor", "transport", "chaos"];

/// Benchmark tiers, each a strict superset of the previous one — so a
/// lite or full run still contains every kick-tires record and can be
/// compared against the kick-tires baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// < 1 minute on a laptop; what CI gates on.
    KickTires,
    /// A few minutes: more placements, more P values, knob sweeps.
    Lite,
    /// The whole sweep, sized for a real machine evaluation.
    Full,
}

impl Tier {
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "kick-tires" | "kick_tires" | "kicktires" => Some(Tier::KickTires),
            "lite" => Some(Tier::Lite),
            "full" => Some(Tier::Full),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Tier::KickTires => "kick-tires",
            Tier::Lite => "lite",
            Tier::Full => "full",
        }
    }
}

/// One measured scenario: a stable id, the knobs it ran under, its
/// wall-clock (advisory), the counter snapshot scoped to the kernel, and
/// the subset of counters that are deterministic for this scenario and
/// therefore CI-gated. Timing-dependent counters (batches, fence rounds,
/// steals) stay in `counters` for the record but are never gated.
pub struct BenchRecord {
    pub id: String,
    pub knobs: Vec<(&'static str, String)>,
    pub wall_s: f64,
    pub gated: Vec<Counter>,
    pub counters: StatsSnapshot,
    /// Trace summary of the whole scenario execution (setup + kernel +
    /// verification — tracing is per-run, not scoped like `counters`).
    /// Serialized as the advisory `"trace"` block: event counts are
    /// deterministic for gated kinds, histogram durations never are.
    pub trace: TraceSummary,
}

/// What one scenario run measured: wall-clock seconds, the counter delta
/// scoped to its kernel, and the trace summary of the whole execution.
type Measured = (f64, StatsSnapshot, TraceSummary);

impl BenchRecord {
    fn new(
        id: String,
        knobs: Vec<(&'static str, String)>,
        gated: &[Counter],
        (wall_s, counters, trace): Measured,
    ) -> BenchRecord {
        BenchRecord { id, knobs, wall_s, gated: gated.to_vec(), counters, trace }
    }
}

/// All records of one area at one tier.
pub struct AreaReport {
    pub area: &'static str,
    pub tier: Tier,
    pub records: Vec<BenchRecord>,
}

// ---------------------------------------------------------------------
// Measurement scoping
// ---------------------------------------------------------------------

/// Times `kernel` collectively and returns `(max-over-locations seconds,
/// counter delta scoped to the kernel)`. The leading fence drains setup
/// traffic out of the window; the trailing barrier keeps every location
/// from issuing post-kernel (e.g. verification) requests until all
/// locations have read their delta.
///
/// **Collective.**
pub fn timed_scoped(loc: &Location, kernel: impl FnOnce()) -> (f64, StatsSnapshot) {
    loc.rmi_fence();
    let before = loc.stats();
    let secs = time_kernel(loc, kernel);
    let delta = loc.stats().since(&before);
    loc.barrier();
    (secs, delta)
}

fn knob(name: &'static str, value: impl ToString) -> (&'static str, String) {
    (name, value.to_string())
}

/// Runs one scenario with tracing forced on and returns `(wall_s, counter
/// delta, run-wide trace summary)`. Tracing does not touch the Stats
/// counters (asserted by `tests/trace_overhead.rs`), so records measured
/// through this helper gate on exactly the same values as untraced runs.
fn traced(
    cfg: RtsConfig,
    p: usize,
    f: impl Fn(&Location) -> (f64, StatsSnapshot) + Send + Sync,
) -> Measured {
    let cfg = RtsConfig { trace: true, ..cfg };
    let (mut results, trace) = execute_collect_traced(cfg, p, f);
    let (secs, delta) = results.remove(0);
    (secs, delta, trace.expect("tracing enabled for harness runs").summary())
}

// ---------------------------------------------------------------------
// Area: localization (PR 4 — bulk-range transport + view localization)
// ---------------------------------------------------------------------

const LOCALIZATION_GATED: &[Counter] = &[
    Counter::remote_requests,
    Counter::bulk_requests,
    Counter::localized_chunks,
    Counter::element_fallbacks,
    // Localization converts remote element traffic into direct local
    // invocations, so their count is placement-determined too.
    Counter::local_invocations,
];

/// `p_copy` between a balanced source and a destination whose placement
/// forces the given amount of misalignment; localized vs element-wise.
fn localization_copy(
    p: usize,
    n: usize,
    placement: &'static str,
    localized: bool,
    cfg: RtsConfig,
) -> Measured {
    traced(cfg, p, move |loc| {
        let nlocs = loc.nlocs();
        let src = PArray::from_fn(loc, n, |i| i as u64);
        let dst = match placement {
            "aligned" => PArray::new(loc, n, 0u64),
            "shifted" => {
                // Same block bounds, placement rotated by one location:
                // every element lands remote, but runs stay whole blocks.
                let part = BalancedPartition::new(n, nlocs);
                let parts = IndexPartition::num_subdomains(&part);
                PArray::with_partition(
                    loc,
                    Box::new(part),
                    Box::new(GeneralMapper::new(nlocs, (0..parts).map(|b| (b + 1) % nlocs).collect())),
                    0u64,
                )
            }
            "strided" => PArray::with_partition(
                loc,
                Box::new(BlockCyclicPartition::new(n, nlocs, 64)),
                Box::new(CyclicMapper::new(nlocs)),
                0u64,
            ),
            "misaligned" => {
                // Off-by-17 block bounds AND rotated placement: off-grid
                // boundaries, nearly everything remote.
                let part = BlockedPartition::new(n, n / nlocs + 17);
                let parts = IndexPartition::num_subdomains(&part);
                PArray::with_partition(
                    loc,
                    Box::new(part),
                    Box::new(GeneralMapper::new(nlocs, (0..parts).map(|b| (b + 1) % nlocs).collect())),
                    0u64,
                )
            }
            other => panic!("unknown placement {other}"),
        };
        let (secs, delta) = timed_scoped(loc, || {
            if localized {
                p_copy(&src, &dst);
            } else {
                p_copy_elementwise(&src, &dst);
            }
        });
        for i in (0..n).step_by((n / 16).max(1)) {
            assert_eq!(dst.get_element(i), i as u64, "{placement}: copy corrupted at {i}");
        }
        (secs, delta)
    })
}

fn localization_area(tier: Tier) -> Vec<BenchRecord> {
    let n = 4096usize;
    let mut specs: Vec<(usize, usize, &'static str, bool, usize, usize)> = Vec::new();
    // (p, n, placement, localized, aggregation, bulk_threshold)
    for placement in ["aligned", "misaligned"] {
        for p in [1usize, 4] {
            for localized in [true, false] {
                specs.push((p, n, placement, localized, 16, 2));
            }
        }
    }
    // Knob sweep on the interesting cell: aggregation and the
    // bulk-threshold ablation (huge threshold = bulk path disabled).
    for agg in [1usize, 64] {
        specs.push((4, n, "misaligned", true, agg, 2));
    }
    specs.push((4, n, "misaligned", true, 16, usize::MAX / 2));
    if tier >= Tier::Lite {
        for placement in ["shifted", "strided"] {
            for localized in [true, false] {
                specs.push((2, n, placement, localized, 16, 2));
                specs.push((4, 40_000, placement, localized, 16, 2));
            }
        }
        specs.push((2, n, "misaligned", true, 16, 2));
        specs.push((4, 40_000, "misaligned", true, 16, 2));
        specs.push((4, 40_000, "misaligned", false, 16, 2));
    }
    if tier >= Tier::Full {
        for placement in ["aligned", "shifted", "strided", "misaligned"] {
            for localized in [true, false] {
                specs.push((8, 160_000, placement, localized, 16, 2));
            }
        }
    }
    specs
        .into_iter()
        .map(|(p, n, placement, localized, agg, bulk)| {
            let cfg = RtsConfig {
                aggregation: agg,
                bulk_threshold: bulk,
                ..RtsConfig::base()
            };
            let mode = if localized { "localized" } else { "element-wise" };
            let bulk_label = if bulk > n { "off".to_string() } else { bulk.to_string() };
            BenchRecord::new(
                format!("copy/{placement}/p{p}/n{n}/{mode}/agg{agg}/bulk{bulk_label}"),
                vec![
                    knob("p", p),
                    knob("n", n),
                    knob("placement", placement),
                    knob("mode", mode),
                    knob("aggregation", agg),
                    knob("bulk_threshold", bulk_label),
                ],
                LOCALIZATION_GATED,
                localization_copy(p, n, placement, localized, cfg),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Area: directory (PR 3 — owner caches with epoch invalidation)
// ---------------------------------------------------------------------

const DIRECTORY_GATED: &[Counter] = &[
    Counter::remote_requests,
    Counter::dir_cache_hits,
    Counter::dir_cache_misses,
    Counter::dir_cache_stale,
    // Every routed read replies exactly once, so the reply count tracks
    // the (deterministic) read schedule.
    Counter::responses_sent,
];

/// Hot-key or sweep reads over a dynamic (forwarding) pGraph; the owner
/// cache turns the 2-hop home-forwarded read into 1 hop on repeats.
fn directory_access(
    p: usize,
    nverts: usize,
    reads: usize,
    hot: bool,
    cfg: RtsConfig,
) -> Measured {
    traced(cfg, p, move |loc| {
        let g: PGraph<u64, ()> =
            PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
        for vd in 0..nverts {
            if vd % loc.nlocs() == loc.id() {
                g.add_vertex_with_descriptor(vd, vd as u64);
            }
        }
        g.commit();
        let (secs, delta) = timed_scoped(loc, || {
            if hot {
                // Four hot vertices owned by the next location, hammered.
                let base = (loc.id() + 1) % loc.nlocs();
                for k in 0..reads {
                    let vd = base + (k % 4) * loc.nlocs();
                    std::hint::black_box(g.vertex_property(vd));
                }
            } else {
                // Repeated full sweeps over the vertex set.
                let sweeps = reads / nverts;
                for _ in 0..sweeps {
                    for vd in 0..nverts {
                        std::hint::black_box(g.vertex_property(vd));
                    }
                }
            }
        });
        (secs, delta)
    })
}

fn directory_area(tier: Tier) -> Vec<BenchRecord> {
    let nverts = 64usize;
    let reads = 640usize;
    // (p, reads, hot, cache, aggregation)
    let mut specs: Vec<(usize, usize, bool, bool, usize)> = Vec::new();
    for hot in [true, false] {
        for cache in [true, false] {
            specs.push((4, reads, hot, cache, 16));
        }
    }
    for agg in [1usize, 64] {
        specs.push((4, reads, true, true, agg));
    }
    if tier >= Tier::Lite {
        for cache in [true, false] {
            specs.push((2, reads, true, cache, 16));
            specs.push((4, 6400, true, cache, 16));
        }
    }
    if tier >= Tier::Full {
        for cache in [true, false] {
            specs.push((8, 25_600, true, cache, 16));
            specs.push((8, 25_600, false, cache, 16));
        }
    }
    specs
        .into_iter()
        .map(|(p, reads, hot, cache, agg)| {
            let cfg = RtsConfig { dir_cache: cache, aggregation: agg, ..RtsConfig::base() };
            let scenario = if hot { "hot-key" } else { "traversal" };
            let cache_label = if cache { "on" } else { "off" };
            BenchRecord::new(
                format!("{scenario}/p{p}/reads{reads}/cache-{cache_label}/agg{agg}"),
                vec![
                    knob("p", p),
                    knob("vertices", nverts),
                    knob("reads", reads),
                    knob("scenario", scenario),
                    knob("dir_cache", cache_label),
                    knob("aggregation", agg),
                ],
                DIRECTORY_GATED,
                directory_access(p, nverts, reads, hot, cfg),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Area: dynamic (PR 5 — segment transport, kv shuffle, gather paths)
// ---------------------------------------------------------------------

const DYNAMIC_GATED: &[Counter] = &[
    Counter::remote_requests,
    Counter::segment_requests,
    Counter::gather_items,
    Counter::responses_sent,
];

/// Location 0 reads the whole pList: one `get_segment` per slab vs the
/// element-wise GID walk. Takes the config so the `transport` area can
/// re-run the same kernel under its own knobs.
fn dynamic_traversal(
    p: usize,
    per: usize,
    segmented: bool,
    cfg: RtsConfig,
) -> Measured {
    traced(cfg, p, move |loc| {
        let l: PList<u64> = PList::new(loc);
        for i in 0..per {
            l.push_anywhere((loc.id() * per + i) as u64);
        }
        l.commit();
        let n = per * loc.nlocs();
        let (secs, delta) = timed_scoped(loc, || {
            if loc.id() == 0 {
                let (mut sum, mut count) = (0u64, 0usize);
                if segmented {
                    for sid in l.segments() {
                        for (_, v) in l.get_segment(sid) {
                            sum += v;
                            count += 1;
                        }
                    }
                } else {
                    let mut cur = l.front_gid();
                    while let Some(g) = cur {
                        sum += l.try_get(g).expect("live element");
                        count += 1;
                        cur = l.next_gid(g);
                    }
                }
                assert_eq!(count, n, "traversal must visit every element");
                assert_eq!(sum, (n as u64 - 1) * n as u64 / 2, "traversal corrupted");
            }
        });
        (secs, delta)
    })
}

/// `p_copy` between twin pLists after every destination slab migrated one
/// location over (every write remote, stale owner hints self-heal).
fn dynamic_copy_migrated(p: usize, per: usize, segmented: bool) -> Measured {
    traced(RtsConfig::base(), p, move |loc| {
        let src: PList<u64> = PList::new(loc);
        let dst: PList<u64> = PList::new(loc);
        for i in 0..per {
            src.push_anywhere((loc.id() * per + i) as u64);
            dst.push_anywhere(0);
        }
        src.commit();
        dst.commit();
        if loc.id() == 0 {
            for sid in 0..loc.nlocs() {
                dst.migrate_bcontainer(sid, (sid + 1) % loc.nlocs());
            }
        }
        let (secs, delta) = timed_scoped(loc, || {
            if segmented {
                p_copy_segmented(&src, &dst);
            } else {
                p_copy_elementwise(&src, &dst);
            }
        });
        assert!(p_equal_segmented(&src, &dst), "copy corrupted");
        (secs, delta)
    })
}

/// MapReduce word count over a `MapView` of per-location documents:
/// bucket-grained local-combine shuffle vs the per-pair shuffle.
fn dynamic_wordcount(p: usize, words_per_loc: usize, chunked: bool) -> Measured {
    traced(RtsConfig::base(), p, move |loc| {
        let docs: PHashMap<u64, String> = PHashMap::new(loc);
        let text = synthetic_corpus(loc, words_per_loc, 300, BENCH_SEED);
        docs.insert_async(loc.id() as u64, text.clone());
        docs.commit();
        let texts: Vec<String> = loc.allgather(text);
        let counts: PHashMap<String, u64> = PHashMap::new(loc);
        let (secs, delta) = timed_scoped(loc, || {
            if chunked {
                word_count_kv(&MapView::new(docs.clone()), &counts);
            } else {
                let mine = &texts[loc.id()];
                map_reduce(
                    &counts,
                    mine.split_whitespace(),
                    |w, emit| emit(w.to_string(), 1),
                    0,
                    |acc, v| *acc += v,
                );
            }
        });
        // Distinct-word count must match a sequential model of the corpus.
        let mut distinct: Vec<&str> =
            texts.iter().flat_map(|t| t.split_whitespace()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(counts.global_size(), distinct.len(), "distinct-word count diverged");
        (secs, delta)
    })
}

/// The data-collecting paths: `collect_ordered` one-sided gather (O(N) on
/// the wire) and the opt-in `collect_ordered_bcast` (O(N·P)); the
/// `gather_items` counter is the bytes-on-the-wire proxy.
fn dynamic_collect(p: usize, per: usize, bcast: bool) -> Measured {
    traced(RtsConfig::base(), p, move |loc| {
        let m: PHashMap<u64, u64> = PHashMap::new(loc);
        for i in 0..per {
            let k = (loc.id() * per + i) as u64;
            m.insert_async(k, k * 2);
        }
        m.commit();
        let n = per * loc.nlocs();
        let (secs, delta) = timed_scoped(loc, || {
            if bcast {
                let all = m.collect_ordered_bcast();
                assert_eq!(all.len(), n);
            } else if loc.id() == 0 {
                let all = m.collect_ordered();
                assert_eq!(all.len(), n);
            }
        });
        (secs, delta)
    })
}

fn dynamic_area(tier: Tier) -> Vec<BenchRecord> {
    let per = 200usize;
    let words = 800usize;
    let mut records = Vec::new();
    let mut push = |id: String, knobs: Vec<(&'static str, String)>, r: Measured| {
        records.push(BenchRecord::new(id, knobs, DYNAMIC_GATED, r));
    };
    for segmented in [true, false] {
        let mode = if segmented { "segmented" } else { "element-wise" };
        push(
            format!("plist-traversal/p4/per{per}/{mode}"),
            vec![knob("p", 4), knob("per_loc", per), knob("mode", mode)],
            dynamic_traversal(4, per, segmented, RtsConfig::base()),
        );
    }
    for chunked in [true, false] {
        let mode = if chunked { "chunked-kv" } else { "per-pair" };
        push(
            format!("word-count/p4/words{words}/{mode}"),
            vec![knob("p", 4), knob("words_per_loc", words), knob("mode", mode)],
            dynamic_wordcount(4, words, chunked),
        );
    }
    for bcast in [false, true] {
        let mode = if bcast { "bcast" } else { "gather" };
        push(
            format!("collect-ordered/p4/per{per}/{mode}"),
            vec![knob("p", 4), knob("per_loc", per), knob("mode", mode)],
            dynamic_collect(4, per, bcast),
        );
    }
    if tier >= Tier::Lite {
        for segmented in [true, false] {
            let mode = if segmented { "segmented" } else { "element-wise" };
            push(
                format!("plist-copy-migrated/p4/per{per}/{mode}"),
                vec![knob("p", 4), knob("per_loc", per), knob("mode", mode)],
                dynamic_copy_migrated(4, per, segmented),
            );
            push(
                format!("plist-traversal/p2/per{per}/{mode}"),
                vec![knob("p", 2), knob("per_loc", per), knob("mode", mode)],
                dynamic_traversal(2, per, segmented, RtsConfig::base()),
            );
        }
    }
    if tier >= Tier::Full {
        for segmented in [true, false] {
            let mode = if segmented { "segmented" } else { "element-wise" };
            push(
                format!("plist-traversal/p8/per2000/{mode}"),
                vec![knob("p", 8), knob("per_loc", 2000), knob("mode", mode)],
                dynamic_traversal(8, 2000, segmented, RtsConfig::base()),
            );
        }
        for chunked in [true, false] {
            let mode = if chunked { "chunked-kv" } else { "per-pair" };
            push(
                format!("word-count/p8/words8000/{mode}"),
                vec![knob("p", 8), knob("words_per_loc", 8000), knob("mode", mode)],
                dynamic_wordcount(8, 8000, chunked),
            );
        }
    }
    records
}

// ---------------------------------------------------------------------
// Area: executor (PR 2 — PARAGRAPH task-graph executor)
// ---------------------------------------------------------------------

/// Only the task count is deterministic: how many tasks get *stolen* (and
/// the steal-probe RMI traffic with them) depends on thread timing, so
/// those counters ship in the record but are never gated.
const EXECUTOR_GATED: &[Counter] = &[Counter::tasks_executed];

#[derive(Clone, Copy, PartialEq, Eq)]
enum ExecutorMode {
    Spmd,
    NoSteal,
    Steal,
}

impl ExecutorMode {
    fn label(self) -> &'static str {
        match self {
            ExecutorMode::Spmd => "spmd",
            ExecutorMode::NoSteal => "executor",
            ExecutorMode::Steal => "executor-steal",
        }
    }
}

/// `p_generate` of `dst[k] = k` with a simulated per-element service time:
/// `light_us` µs except the last quarter of the index space at `heavy_us`
/// µs (the PR 2 skewed scenario). Kick-tires runs it at zero sleep — the
/// scheduling overhead and task accounting are the signal, and the record
/// stays sub-millisecond.
fn executor_generate(
    p: usize,
    n: usize,
    light_us: u64,
    heavy_us: u64,
    mode: ExecutorMode,
) -> Measured {
    traced(RtsConfig::base(), p, move |loc| {
        let a = PArray::new(loc, n, 0u64);
        let v = ArrayView::new(a.clone());
        let gen = move |k: usize| {
            let us = if k >= n - n / 4 { heavy_us } else { light_us };
            if us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(us));
            }
            k as u64
        };
        let (secs, delta) = timed_scoped(loc, || match mode {
            ExecutorMode::Spmd => p_generate_view(&v, gen),
            ExecutorMode::NoSteal => p_generate_pg(&v, ExecPolicy::no_stealing(), gen),
            ExecutorMode::Steal => p_generate_pg(&v, ExecPolicy::default(), gen),
        });
        for i in (0..n).step_by((n / 16).max(1)) {
            assert_eq!(a.get_element(i), i as u64, "mode {} corrupted {i}", mode.label());
        }
        (secs, delta)
    })
}

fn executor_area(tier: Tier) -> Vec<BenchRecord> {
    // (p, n, light_us, heavy_us, workload label)
    let mut specs: Vec<(usize, usize, u64, u64, &'static str, ExecutorMode)> = Vec::new();
    for mode in [ExecutorMode::Spmd, ExecutorMode::NoSteal, ExecutorMode::Steal] {
        specs.push((4, 128, 0, 0, "uniform-0us", mode));
    }
    if tier >= Tier::Lite {
        for mode in [ExecutorMode::Spmd, ExecutorMode::Steal] {
            specs.push((4, 256, 50, 800, "skewed-16x", mode));
        }
    }
    if tier >= Tier::Full {
        for mode in [ExecutorMode::Spmd, ExecutorMode::NoSteal, ExecutorMode::Steal] {
            specs.push((4, 1024, 50, 800, "skewed-16x-large", mode));
            specs.push((8, 512, 50, 50, "uniform-50us", mode));
        }
    }
    specs
        .into_iter()
        .map(|(p, n, light, heavy, workload, mode)| {
            BenchRecord::new(
                format!("generate/{workload}/p{p}/n{n}/{}", mode.label()),
                vec![
                    knob("p", p),
                    knob("n", n),
                    knob("workload", workload),
                    knob("light_us", light),
                    knob("heavy_us", heavy),
                    knob("mode", mode.label()),
                ],
                EXECUTOR_GATED,
                executor_generate(p, n, light, heavy, mode),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Area: transport (PR 8 — bytes on the wire; one staging format since PR 20)
// ---------------------------------------------------------------------

/// Every remote request is relocated into its batch buffer as one record,
/// so `bytes_sent` is a real traffic counter: record size is the 8-byte
/// thunk word plus `size_of` the request capture rounded up to a word, and
/// the request mix is seeded, so it is deterministic and gateable. A
/// capture that grows — or a path that quietly falls back from bulk
/// records to per-element ones — moves `bytes_sent` and fires the gate.
/// Batch/flush counts are timing-dependent and never gated.
///
/// Caveat on magnitudes: relocation is a shallow byte copy, so a `Vec`
/// inside a bulk capture is charged as its 24-byte handle, not its heap
/// payload. The bulk-vs-element-wise ratios below are driven by the
/// O(runs)-vs-O(N) *record count*, which holds either way.
const TRANSPORT_GATED: &[Counter] = &[
    Counter::remote_requests,
    Counter::bytes_sent,
    Counter::bulk_requests,
    Counter::segment_requests,
];

fn transport_area(tier: Tier) -> Vec<BenchRecord> {
    let n = 4096usize;
    let per = 200usize;
    // Same aggregation/bulk knobs as the localization area's default cell.
    let wire = || RtsConfig { aggregation: 16, bulk_threshold: 2, ..RtsConfig::base() };
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut push = |id: String, knobs: Vec<(&'static str, String)>, r: Measured| {
        records.push(BenchRecord::new(id, knobs, TRANSPORT_GATED, r));
    };

    // Bytes on the wire, element-wise vs bulk-range: misaligned p_copy at
    // P=4 (the paper's bandwidth argument, measured in record bytes).
    let mut copy_bytes = [0u64; 2]; // [bulk, element-wise]
    for (ix, localized) in [(0usize, true), (1usize, false)] {
        let mode = if localized { "bulk" } else { "element-wise" };
        let r = localization_copy(4, n, "misaligned", localized, wire());
        copy_bytes[ix] = r.1.bytes_sent;
        push(
            format!("wire-copy/misaligned/p4/n{n}/{mode}"),
            vec![knob("p", 4), knob("n", n), knob("mode", mode)],
            r,
        );
    }
    // The acceptance claim: the bulk-range path puts >= 10x fewer bytes
    // on the wire than element-wise at P=4.
    assert!(
        copy_bytes[0] * 10 <= copy_bytes[1],
        "bulk p_copy must put >= 10x fewer bytes on the wire than element-wise at P=4 \
         (got {} vs {})",
        copy_bytes[0],
        copy_bytes[1]
    );

    // Segment-at-a-time vs per-element GID walk over a pList, on the wire.
    let mut trav_bytes = [0u64; 2]; // [segmented, element-wise]
    for (ix, segmented) in [(0usize, true), (1usize, false)] {
        let mode = if segmented { "segmented" } else { "element-wise" };
        let r = dynamic_traversal(4, per, segmented, wire());
        trav_bytes[ix] = r.1.bytes_sent;
        push(
            format!("wire-plist-traversal/p4/per{per}/{mode}"),
            vec![knob("p", 4), knob("per_loc", per), knob("mode", mode)],
            r,
        );
    }
    assert!(
        trav_bytes[0] * 10 <= trav_bytes[1],
        "segmented traversal must put >= 10x fewer bytes on the wire than the GID walk \
         at P=4 (got {} vs {})",
        trav_bytes[0],
        trav_bytes[1]
    );

    if tier >= Tier::Lite {
        for (localized, mode) in [(true, "bulk"), (false, "element-wise")] {
            let r = localization_copy(4, 40_000, "misaligned", localized, wire());
            push(
                format!("wire-copy/misaligned/p4/n40000/{mode}"),
                    vec![knob("p", 4), knob("n", 40_000), knob("mode", mode)],
                r,
            );
        }
        for (segmented, mode) in [(true, "segmented"), (false, "element-wise")] {
            let r = dynamic_traversal(2, per, segmented, wire());
            push(
                format!("wire-plist-traversal/p2/per{per}/{mode}"),
                    vec![knob("p", 2), knob("per_loc", per), knob("mode", mode)],
                r,
            );
        }
    }
    if tier >= Tier::Full {
        for (localized, mode) in [(true, "bulk"), (false, "element-wise")] {
            let r = localization_copy(8, 160_000, "misaligned", localized, wire());
            push(
                format!("wire-copy/misaligned/p8/n160000/{mode}"),
                    vec![knob("p", 8), knob("n", 160_000), knob("mode", mode)],
                r,
            );
        }
    }
    records
}

// ---------------------------------------------------------------------
// Area: chaos (PR 9 — fault injection + reliable delivery)
// ---------------------------------------------------------------------

/// Injected damage under a *fixed seeded fault schedule*: at
/// `aggregation = 1` every request is its own batch, batch sequence numbers
/// are assigned in program order, and the injector's drop/corrupt draws are
/// a pure function of (seed, src, dest, seq) — so what was dropped and what
/// was rejected is deterministic and gated exactly. `poisoned_responses`
/// gates at zero: no handler in the storm panics. What recovery then
/// *costs* (`retransmits`, `duplicates_discarded`, `acks_sent`) follows the
/// retransmit timer — a merely-late batch is redriven, discarded as a
/// duplicate and re-acked — so those are `Timing` counters, bounded
/// relative to the injected damage by the assertions in `chaos_area`.
const CHAOS_GATED: &[Counter] = &[
    Counter::remote_requests,
    Counter::frames_dropped,
    Counter::checksum_failures,
    Counter::poisoned_responses,
];

/// An all-pairs async-increment storm: `k` requests per peer per round,
/// `rounds` fenced rounds. Verifies the final per-location sum on every
/// location — zero divergence under the fault schedule is part of every
/// record, not a separate test.
fn chaos_storm(p: usize, k: u64, rounds: u64, cfg: RtsConfig) -> Measured {
    traced(cfg, p, move |loc| {
        let (h, rep) = loc.register(std::cell::RefCell::new(0u64));
        loc.rmi_fence();
        let (secs, delta) = timed_scoped(loc, || {
            for round in 1..=rounds {
                for dest in 0..loc.nlocs() {
                    if dest != loc.id() {
                        for j in 1..=k {
                            let add = round * j;
                            loc.async_rmi(dest, h, move |c: &std::cell::RefCell<u64>, _| {
                                *c.borrow_mut() += add;
                            });
                        }
                    }
                }
                loc.rmi_fence();
            }
        });
        let per_src: u64 = (1..=rounds).map(|r| (1..=k).map(|j| r * j).sum::<u64>()).sum();
        assert_eq!(
            *rep.borrow(),
            per_src * (loc.nlocs() as u64 - 1),
            "chaos storm diverged on location {} — the fault schedule leaked through \
             the reliability layer",
            loc.id()
        );
        (secs, delta)
    })
}

fn chaos_area(tier: Tier) -> Vec<BenchRecord> {
    let cfg_for = |profile: &str| {
        // `reliable` keeps the layer on for the clean control's empty schedule.
        let mut cfg = RtsConfig { reliable: true, ..RtsConfig::base() };
        cfg.aggregation = 1; // one batch per request: seeded draws are program-order stable
        cfg.retransmit_rto_us = 25_000;
        cfg.faults = FaultSchedule::parse(profile).expect("bundled profile parses");
        cfg.fault_seed = BENCH_SEED;
        cfg
    };
    let (p, k, rounds) = (4usize, 5u64, 4u64);
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut push = |id: String, profile: &'static str, p: usize, r: Measured| {
        let knobs = vec![
            knob("profile", if profile.is_empty() { "none" } else { profile }),
            knob("p", p),
            knob("k", k),
            knob("rounds", rounds),
            knob("aggregation", 1),
            knob("rto_us", 25_000),
        ];
        records.push(BenchRecord::new(id, knobs, CHAOS_GATED, r));
    };

    // Lossless control: the reliability machinery must be free when the
    // fabric is clean — any nonzero recovery counter is a protocol bug
    // (e.g. the retransmission timer firing on acknowledged batches).
    let r = chaos_storm(p, k, rounds, cfg_for(""));
    let d = &r.1;
    assert_eq!(d.frames_dropped, 0, "clean fabric must drop nothing");
    assert_eq!(d.retransmits, 0, "clean fabric must not redrive");
    assert_eq!(d.checksum_failures, 0, "clean fabric must not reject");
    push(format!("storm/clean/p{p}"), "", p, r);

    // Total loss: every first transmission is dropped, so every batch is
    // recovered by exactly one redrive — drops and retransmits both equal
    // the request count (one request per batch at aggregation 1).
    let r = chaos_storm(p, k, rounds, cfg_for("drop:1.0"));
    let d = &r.1;
    assert!(d.frames_dropped >= d.remote_requests, "every batch must be dropped once");
    assert!(d.retransmits >= d.remote_requests, "every dropped batch must be redriven");
    assert_eq!(d.checksum_failures, 0, "drops are not corruption");
    push(format!("storm/drop-all/p{p}"), "drop:1.0", p, r);

    // Total corruption: every first transmission has one bit flipped, is
    // rejected by its CRC (never executed), and is redriven.
    let r = chaos_storm(p, k, rounds, cfg_for("corrupt:1.0"));
    let d = &r.1;
    assert!(d.checksum_failures >= d.remote_requests, "every batch must be rejected once");
    assert!(d.retransmits >= d.remote_requests, "every rejected batch must be redriven");
    push(format!("storm/corrupt-all/p{p}"), "corrupt:1.0", p, r);

    // Mixed profile: the realistic soak point — all five fault kinds at
    // once, with the retransmit overhead bounded relative to the injected
    // damage (redrives answer losses, they don't multiply).
    let mixed = "drop:0.2,dup:0.1,reorder:0.2,corrupt:0.1,delay_us:5";
    let r = chaos_storm(p, k, rounds, cfg_for(mixed));
    let d = &r.1;
    assert!(d.frames_dropped > 0 && d.retransmits > 0 && d.checksum_failures > 0);
    assert!(
        d.retransmits <= 4 * (d.frames_dropped + d.checksum_failures) + 16,
        "retransmit overhead unbounded: {} redrives for {} drops + {} rejections",
        d.retransmits,
        d.frames_dropped,
        d.checksum_failures
    );
    // The same shape for the other two recovery counters: a duplicate is
    // an injected dup (at most one per request) or a redrive that raced
    // its original; an ack answers a delivered batch or a duplicate.
    assert!(d.duplicates_discarded <= d.remote_requests + d.retransmits, "duplicates: {d:?}");
    assert!(d.acks_sent <= d.remote_requests + d.duplicates_discarded, "acks: {d:?}");
    push(format!("storm/mixed/p{p}"), mixed, p, r);

    if tier >= Tier::Lite {
        let r = chaos_storm(2, k, rounds, cfg_for(mixed));
        push("storm/mixed/p2".to_string(), mixed, 2, r);
        let severe = "drop:0.4,dup:0.2,reorder:0.2,corrupt:0.2";
        let r = chaos_storm(p, k, rounds, cfg_for(severe));
        push(format!("storm/severe/p{p}"), severe, p, r);
    }
    if tier >= Tier::Full {
        let r = chaos_storm(8, k, rounds, cfg_for(mixed));
        push("storm/mixed/p8".to_string(), mixed, 8, r);
    }
    records
}

// ---------------------------------------------------------------------
// Driver + serialization
// ---------------------------------------------------------------------

/// Runs every scenario of `area` at `tier`. Returns `None` for an unknown
/// area name (callers print [`AREAS`]).
pub fn run_area(area: &str, tier: Tier) -> Option<AreaReport> {
    let records = match area {
        "localization" => localization_area(tier),
        "directory" => directory_area(tier),
        "dynamic" => dynamic_area(tier),
        "executor" => executor_area(tier),
        "transport" => transport_area(tier),
        "chaos" => chaos_area(tier),
        _ => return None,
    };
    let area = AREAS.iter().find(|a| **a == area).expect("known area");
    Some(AreaReport { area, tier, records })
}

impl AreaReport {
    /// Serializes the report as the `BENCH_<area>.json` schema: pretty
    /// enough for line-oriented git diffs (one counter per line), strict
    /// enough for [`Json::parse`].
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": {},\n", SCHEMA_VERSION));
        s.push_str(&format!("  \"area\": \"{}\",\n", escape(self.area)));
        s.push_str(&format!("  \"tier\": \"{}\",\n", self.tier.name()));
        s.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"id\": \"{}\",\n", escape(&r.id)));
            s.push_str("      \"knobs\": {");
            for (j, (k, v)) in r.knobs.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{}\": \"{}\"", escape(k), escape(v)));
            }
            s.push_str("},\n");
            s.push_str(&format!("      \"wall_s\": {},\n", fmt_f64(r.wall_s)));
            s.push_str("      \"gated\": [");
            for (j, g) in r.gated.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{}\"", g.name()));
            }
            s.push_str("],\n");
            s.push_str("      \"counters\": {\n");
            let counters = r.counters.counters();
            for (j, (name, v)) in counters.iter().enumerate() {
                let comma = if j + 1 < counters.len() { "," } else { "" };
                s.push_str(&format!("        \"{name}\": {v}{comma}\n"));
            }
            s.push_str("      },\n");
            s.push_str("      \"derived\": {\n");
            let derived = [
                ("aggregation_ratio", r.counters.aggregation_ratio()),
                ("steal_fraction", r.counters.steal_fraction()),
                ("dir_cache_hit_rate", r.counters.dir_cache_hit_rate()),
                ("localization_rate", r.counters.localization_rate()),
                ("remote_fraction", r.counters.remote_fraction()),
                ("bytes_per_message", r.counters.bytes_per_message()),
            ];
            for (j, (name, v)) in derived.iter().enumerate() {
                let comma = if j + 1 < derived.len() { "," } else { "" };
                s.push_str(&format!("        \"{name}\": {}{comma}\n", fmt_f64(*v)));
            }
            s.push_str("      },\n");
            // Advisory observability block (rts::trace): event counts are
            // deterministic for the gated kinds; histogram durations are
            // wall-clock-like and must never be gated or diffed strictly.
            s.push_str("      \"trace\": {\n");
            s.push_str(&format!("        \"dropped\": {},\n", r.trace.dropped));
            s.push_str("        \"events\": {\n");
            let events = r.trace.event_counts();
            for (j, (name, v)) in events.iter().enumerate() {
                let comma = if j + 1 < events.len() { "," } else { "" };
                s.push_str(&format!("          \"{name}\": {v}{comma}\n"));
            }
            s.push_str("        },\n");
            s.push_str("        \"histograms\": {\n");
            let hists = r.trace.histograms();
            for (j, (name, h)) in hists.iter().enumerate() {
                let comma = if j + 1 < hists.len() { "," } else { "" };
                s.push_str(&format!(
                    "          \"{name}\": {{\"count\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
                     \"p99_ns\": {}, \"max_ns\": {}}}{comma}\n",
                    h.count(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max_ns()
                ));
            }
            s.push_str("        }\n");
            s.push_str("      }\n");
            s.push_str(if i + 1 < self.records.len() { "    },\n" } else { "    }\n" });
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }

    /// The `BENCH_<area>.json` file name for this report.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.area)
    }

    /// Writes the report into `dir` (created if missing); returns the path.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// A `BENCH_*.json` file read back for comparison (schema-tolerant: any
/// counter name is accepted, so old binaries can diff newer files).
#[derive(Debug)]
pub struct ParsedArea {
    pub schema: u64,
    pub area: String,
    pub tier: String,
    pub records: Vec<ParsedRecord>,
}

#[derive(Debug)]
pub struct ParsedRecord {
    pub id: String,
    pub wall_s: f64,
    pub gated: Vec<String>,
    pub counters: std::collections::BTreeMap<String, u64>,
    /// Event counts from the advisory `"trace"` block; empty when the
    /// file predates tracing. Never gated — kept for inspection only.
    pub trace_events: std::collections::BTreeMap<String, u64>,
}

impl ParsedArea {
    pub fn parse(text: &str) -> Result<ParsedArea, String> {
        let v = Json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("missing \"schema\"")?;
        if schema != SCHEMA_VERSION {
            return Err(format!("schema {schema} != supported {SCHEMA_VERSION}"));
        }
        let area = v.get("area").and_then(Json::as_str).ok_or("missing \"area\"")?.to_string();
        let tier = v.get("tier").and_then(Json::as_str).unwrap_or("unknown").to_string();
        let mut records = Vec::new();
        for r in v.get("records").and_then(Json::as_arr).ok_or("missing \"records\"")? {
            let id = r.get("id").and_then(Json::as_str).ok_or("record missing \"id\"")?;
            let wall_s = r.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0);
            let gated = r
                .get("gated")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(|g| g.as_str().map(String::from)).collect())
                .unwrap_or_default();
            let mut counters = std::collections::BTreeMap::new();
            if let Some(obj) = r.get("counters").and_then(Json::as_obj) {
                for (k, v) in obj {
                    counters.insert(
                        k.clone(),
                        v.as_u64().ok_or_else(|| format!("counter {k} not a u64 in {id}"))?,
                    );
                }
            }
            let mut trace_events = std::collections::BTreeMap::new();
            if let Some(obj) =
                r.get("trace").and_then(|t| t.get("events")).and_then(Json::as_obj)
            {
                for (k, v) in obj {
                    if let Some(n) = v.as_u64() {
                        trace_events.insert(k.clone(), n);
                    }
                }
            }
            records.push(ParsedRecord { id: id.to_string(), wall_s, gated, counters, trace_events });
        }
        Ok(ParsedArea { schema, area, tier, records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_rts::Class;

    #[test]
    fn tiers_parse_and_order() {
        assert_eq!(Tier::parse("kick-tires"), Some(Tier::KickTires));
        assert_eq!(Tier::parse("lite"), Some(Tier::Lite));
        assert_eq!(Tier::parse("full"), Some(Tier::Full));
        assert_eq!(Tier::parse("huge"), None);
        assert!(Tier::KickTires < Tier::Lite && Tier::Lite < Tier::Full);
        assert_eq!(Tier::KickTires.name(), "kick-tires");
    }

    /// Half of what lint L4 used to check across files (the other half —
    /// stale or misspelt names — no longer compiles): every deterministic
    /// counter is gated by some area, and no timing counter is.
    #[test]
    fn a_counter_is_gated_somewhere_iff_it_is_deterministic() {
        let lists = [
            LOCALIZATION_GATED,
            DIRECTORY_GATED,
            DYNAMIC_GATED,
            EXECUTOR_GATED,
            TRANSPORT_GATED,
            CHAOS_GATED,
        ];
        for &c in Counter::ALL {
            let gated = lists.iter().any(|l| l.contains(&c));
            match c.class() {
                Class::Timing(why) => assert!(!gated, "{} is gated but timing: {why}", c.name()),
                _ => assert!(gated, "{} is deterministic but no area gates it", c.name()),
            }
        }
    }

    #[test]
    fn unknown_area_is_none() {
        assert!(run_area("no-such-area", Tier::KickTires).is_none());
    }

    #[test]
    fn report_json_round_trips() {
        let report = AreaReport {
            area: "localization",
            tier: Tier::KickTires,
            records: vec![BenchRecord {
                id: "copy/misaligned/p4".into(),
                knobs: vec![("p", "4".into()), ("mode", "localized".into())],
                wall_s: 1.25e-4,
                gated: vec![Counter::remote_requests],
                counters: StatsSnapshot {
                    remote_requests: 4,
                    bulk_requests: 3,
                    ..Default::default()
                },
                trace: TraceSummary::default(),
            }],
        };
        let text = report.to_json();
        let parsed = ParsedArea::parse(&text).unwrap();
        assert_eq!(parsed.area, "localization");
        assert_eq!(parsed.tier, "kick-tires");
        assert_eq!(parsed.records.len(), 1);
        let r = &parsed.records[0];
        assert_eq!(r.id, "copy/misaligned/p4");
        assert_eq!(r.wall_s, 1.25e-4);
        assert_eq!(r.gated, vec!["remote_requests".to_string()]);
        assert_eq!(r.counters["remote_requests"], 4);
        assert_eq!(r.counters["bulk_requests"], 3);
        assert_eq!(r.counters["local_invocations"], 0);
        // The advisory trace block round-trips: every kind serialized,
        // parsed back as plain (name, count) pairs.
        assert_eq!(r.trace_events.len(), stapl_rts::KIND_COUNT);
        assert_eq!(r.trace_events["rmi_send"], 0);
        assert_eq!(r.trace_events["task_run"], 0);
    }

    #[test]
    fn parse_rejects_other_schemas() {
        let err = ParsedArea::parse("{\"schema\": 99, \"area\": \"x\", \"records\": []}")
            .unwrap_err();
        assert!(err.contains("schema"), "{err}");
        assert!(ParsedArea::parse("{}").is_err());
        assert!(ParsedArea::parse("not json").is_err());
    }
}
