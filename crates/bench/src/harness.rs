//! The counter harness: one table of **areas**, each scenario defined once.
//!
//! An [`Area`] groups the scenarios around one optimization the repo
//! reproduced and must not regress (shaped after pSTL-Bench's suites). It
//! names the counters it gates, builds its records, and states the
//! paper-style claims those records must satisfy. There is one sweep, and
//! two renderers read the same records: `experiments --json` writes them as
//! `BENCH_<area>.json`, `experiments <area>` prints them as a table; both
//! then run the claims. The files checked into `bench/baselines/` are the
//! gate: a sweep must reproduce them byte for byte.
//!
//! * `localization` — bulk-range transport + view localization: `p_copy`
//!   localized vs element-wise over aligned / shifted / strided /
//!   misaligned placements and aggregation widths; and
//!   Fig. 62's row-min over composed containers and a pMatrix
//!   (`fig62-row-min`);
//! * `directory` — the directory's owner caches: hot-key and
//!   traversal reads on a dynamic pGraph, cache on vs off, and the stale
//!   self-heal after a vertex migrates; and the graph figures: Fig. 51's
//!   find-sources under the three address-resolution strategies
//!   (`fig51-find-sources`) and Fig. 56's PageRank on a square and a
//!   skinny mesh (`fig56-pagerank-mesh`);
//! * `dynamic` — segment-at-a-time transport for pList / pAssoc: segmented
//!   vs element-wise traversal and copy-onto-migrated-slabs, bucket-grained
//!   vs per-pair MapReduce shuffle (Fig. 59), gather-vs-broadcast
//!   `collect_ordered`; and Fig. 39's pList pushes (`fig39-plist-push`);
//! * `executor` — the PARAGRAPH task-graph executor: SPMD vs executor vs
//!   executor+stealing on uniform and skewed workloads;
//! * `transport` — bytes on the wire: the copy and traversal kernels gated
//!   on `bytes_sent`, the length of the capture images their requests are
//!   relocated as, and the aggregation ablation (`async-sets`);
//! * `chaos` — fault injection + reliable delivery: an async-RMI storm
//!   under seeded fault schedules, gating the injected damage exactly and
//!   bounding the timing-driven recovery cost by claim — with zero
//!   divergence of the final state asserted in-run.
//!
//! Each scenario runs in its **own** execution through [`run`], under a
//! config that overrides the *base* its area was handed: `--json` passes
//! [`RtsConfig::base`] (no `STAPL_*` override applies — records mean the
//! same on every machine), the table passes `RtsConfig::default()` (so the
//! CI fault leg's `experiments transport` really runs under its fault
//! schedule). Counters are scoped with [`StatsSnapshot::since`] around the
//! timed kernel and every generator is seeded from [`BENCH_SEED`]: two runs
//! at the same knobs write **byte-identical** files, and over
//! [`RtsConfig::base`] the files in `bench/baselines/` (both asserted by
//! `tests/harness_determinism.rs`). Time and memory are `benchmark/`'s job;
//! a record's seconds are a table column, never written and never asserted.

use std::collections::HashMap;
use std::sync::OnceLock;

use stapl_algorithms::prelude::*;
use stapl_containers::array::PArray;
use stapl_containers::associative::PHashMap;
use stapl_containers::generators::{fill_dag_with_sources, fill_mesh};
use stapl_containers::graph::{Directedness, GraphPartitionKind, PGraph};
use stapl_containers::list::PList;
use stapl_containers::matrix::PMatrix;
use stapl_core::interfaces::*;
use stapl_core::mapper::{CyclicMapper, GeneralMapper};
use stapl_core::partition::{
    BalancedPartition, BlockCyclicPartition, BlockedPartition, IndexPartition, MatrixLayout,
};
use stapl_paragraph::executor::ExecPolicy;
use stapl_rts::{
    execute_collect_traced, Counter, FaultSchedule, Location, RtsConfig, RunTrace, StatsSnapshot,
};
use stapl_views::array_view::{ArrayView, BalancedView};
use stapl_views::assoc_view::MapView;
use stapl_views::graph_view::GraphView;
use stapl_views::matrix_view::RowsView;

use crate::json::escape;
use crate::time_kernel;

/// The one fixed seed threaded through every scenario generator (corpus
/// synthesis, graph generators, index shuffles). Centralizing it keeps
/// harness runs reproducible and makes "is this seeded?" greppable.
pub const BENCH_SEED: u64 = 0x57A9_15EED;

/// Schema version stamped into every `BENCH_*.json`; bump on a format
/// change, which moves every baseline. Schema 2 holds only what is gated:
/// `id`, `knobs`, the gated counters.
pub const SCHEMA_VERSION: u64 = 2;

type Knobs = Vec<(&'static str, String)>;

/// One measured scenario: a stable id, the knobs it ran under, the kernel's
/// seconds (a table column only) and the counter snapshot scoped to the
/// kernel. Of the snapshot, the counters its area gates ([`Area::gated`] —
/// deterministic for every scenario of the area) are written and CI-gated;
/// timing-dependent ones (batches, fence rounds, steals) stay here for the
/// claims and are never written.
pub struct BenchRecord {
    pub id: String,
    pub knobs: Knobs,
    pub wall_s: f64,
    pub counters: StatsSnapshot,
}

/// What one scenario run measured: kernel seconds and the counter delta
/// scoped to its kernel.
type Measured = (f64, StatsSnapshot);

impl BenchRecord {
    fn new(id: String, knobs: Knobs, (wall_s, counters): Measured) -> BenchRecord {
        BenchRecord { id, knobs, wall_s, counters }
    }

    /// The value of knob `name` (`""` when the record has no such knob).
    pub fn knob(&self, name: &str) -> &str {
        self.knobs.iter().find(|(k, _)| *k == name).map_or("", |(_, v)| v)
    }

    /// The scenario this record belongs to: the first segment of its id.
    pub fn scenario(&self) -> &str {
        self.id.split('/').next().unwrap_or_default()
    }

    /// Whether `other` is a record of the same scenario whose knobs differ
    /// from this one's in `knob` at most.
    pub fn same_but(&self, other: &BenchRecord, knob: &str) -> bool {
        type Knob = (&'static str, String);
        fn rest<'a>(r: &'a BenchRecord, knob: &'a str) -> impl Iterator<Item = &'a Knob> {
            r.knobs.iter().filter(move |(k, _)| *k != knob)
        }
        self.scenario() == other.scenario() && rest(self, knob).eq(rest(other, knob))
    }
}

/// One benchmark area: a row of [`AREAS`].
pub struct Area {
    /// `BENCH_<name>.json`; also the `experiments <name>` table id.
    pub name: &'static str,
    /// The counters every record of the area writes and gates.
    pub gated: &'static [Counter],
    /// Runs the area's scenarios, each under a config that overrides the
    /// given base (never replaces it).
    pub records: fn(&RtsConfig) -> Vec<BenchRecord>,
    /// The paper-style claims, as assertions over the records (looked up by
    /// knobs: mostly pairs that differ only in `mode`).
    pub claims: fn(&[BenchRecord]),
}

/// The benchmark areas, in emission order. `BENCH_<area>.json` baselines
/// for each are checked into `bench/baselines/`.
pub const AREAS: &[Area] = &[
    Area {
        name: "localization",
        gated: LOCALIZATION_GATED,
        records: localization_area,
        claims: localization_claims,
    },
    Area {
        name: "directory",
        gated: DIRECTORY_GATED,
        records: directory_area,
        claims: directory_claims,
    },
    Area {
        name: "dynamic",
        gated: DYNAMIC_GATED,
        records: dynamic_area,
        claims: dynamic_claims,
    },
    Area {
        name: "executor",
        gated: EXECUTOR_GATED,
        records: executor_area,
        claims: executor_claims,
    },
    Area {
        name: "transport",
        gated: TRANSPORT_GATED,
        records: transport_area,
        claims: transport_claims,
    },
    Area {
        name: "chaos",
        gated: CHAOS_GATED,
        records: chaos_area,
        claims: chaos_claims,
    },
];

/// The area called `name`, if there is one.
pub fn area(name: &str) -> Option<&'static Area> {
    AREAS.iter().find(|a| a.name == name)
}

impl Area {
    /// Runs every scenario of the area over `base`.
    pub fn run(&'static self, base: &RtsConfig) -> AreaReport {
        AreaReport { area: self, records: (self.records)(base) }
    }
}

/// All records of one area.
pub struct AreaReport {
    pub area: &'static Area,
    pub records: Vec<BenchRecord>,
}

impl AreaReport {
    /// Runs the area's claims over the records; panics naming the first
    /// that fails.
    pub fn check_claims(&self) {
        (self.area.claims)(&self.records)
    }
}

// ---------------------------------------------------------------------
// Execution + measurement scoping
// ---------------------------------------------------------------------

static TRACE_TAP: OnceLock<fn(&RunTrace)> = OnceLock::new();

/// Installs the process-wide observer every traced execution is shown to
/// (`experiments --trace` / `--metrics`). With a tap installed, [`run`]
/// traces every execution. Once per process; a second call is ignored.
pub fn tap_traces(tap: fn(&RunTrace)) {
    let _ = TRACE_TAP.set(tap);
}

/// The one way this crate starts an execution: runs `f` on `p` locations
/// and returns location 0's result. With a tap installed the run is traced
/// and its trace shown to the tap. Tracing does not touch the counters
/// (asserted by `tests/trace_overhead.rs`).
pub fn run<R: Send>(cfg: RtsConfig, p: usize, f: impl Fn(&Location) -> R + Send + Sync) -> R {
    let tap = TRACE_TAP.get();
    let cfg = RtsConfig { trace: cfg.trace || tap.is_some(), ..cfg };
    let (mut results, trace) = execute_collect_traced(cfg, p, f);
    if let (Some(tap), Some(rt)) = (tap, &trace) {
        tap(rt);
    }
    results.remove(0)
}

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

/// The two-valued `mode` knob most scenarios sweep: the coarse path first.
const SEGMENTED: [(bool, &str); 2] = [(true, "segmented"), (false, "element-wise")];

// ---------------------------------------------------------------------
// Claims: lookups by knobs
// ---------------------------------------------------------------------

/// Every `(coarse, fine)` pair of records of one scenario whose knobs
/// differ only in `knob`, which reads `coarse` in the first and `fine` in
/// the second. Panics when there is none: a claim must not hold vacuously.
fn pairs<'a>(
    records: &'a [BenchRecord],
    scenario: &str,
    knob: &str,
    (coarse, fine): (&str, &str),
) -> Vec<(&'a BenchRecord, &'a BenchRecord)> {
    let mut found = Vec::new();
    for a in records.iter().filter(|a| a.scenario() == scenario && a.knob(knob) == coarse) {
        if let Some(b) = records.iter().find(|b| b.knob(knob) == fine && a.same_but(b, knob)) {
            found.push((a, b));
        }
    }
    assert!(!found.is_empty(), "no {scenario} records paired on {knob}={coarse}|{fine}");
    found
}

/// The records of `scenario`. Panics when there is none: a claim must not
/// hold vacuously.
fn of<'a>(records: &'a [BenchRecord], scenario: &str) -> Vec<&'a BenchRecord> {
    let found: Vec<_> = records.iter().filter(|r| r.scenario() == scenario).collect();
    assert!(!found.is_empty(), "no {scenario} records");
    found
}

/// The value of `r`'s numeric knob `name`.
fn count(r: &BenchRecord, name: &str) -> u64 {
    r.knob(name).parse().unwrap_or_else(|_| panic!("{}: knob {name} is not a count", r.id))
}

/// Asserts `coarse` issues at least `factor` times less of counter `c`
/// than `fine` does.
fn assert_coarsens(coarse: &BenchRecord, fine: &BenchRecord, c: Counter, factor: u64) {
    let (a, b) = (coarse.counters.get(c), fine.counters.get(c));
    assert!(
        a * factor <= b,
        "{} must cost >= {factor}x less {} than {} (got {a} vs {b})",
        coarse.id,
        c.name(),
        fine.id
    );
}

// ---------------------------------------------------------------------
// Area: localization (bulk-range transport + view localization)
// ---------------------------------------------------------------------

const LOCALIZATION_GATED: &[Counter] = &[
    Counter::remote_requests,
    Counter::bulk_requests,
    Counter::localized_chunks,
    Counter::element_fallbacks,
];

/// A pArray of `n` zeros whose block bounds are off the balanced grid by
/// 17 **and** whose placement is rotated one location over: off-grid
/// boundaries, nearly everything remote. The one spelling of the
/// "misaligned" destination — the `localization` and `transport` areas copy
/// onto it, and so does the chaos soak (`tests/chaos_soak.rs`).
///
/// **Collective.**
pub fn misaligned_dst(loc: &Location, n: usize) -> PArray<u64> {
    rotated(loc, BlockedPartition::new(n, n / loc.nlocs() + 17))
}

/// A pArray of zeros over `part` whose block `b` lives on location `b + 1`.
fn rotated(loc: &Location, part: impl Into<IndexPartition>) -> PArray<u64> {
    let (part, nlocs) = (part.into(), loc.nlocs());
    let owners = (0..part.num_subdomains()).map(|b| (b + 1) % nlocs).collect();
    PArray::with_partition(loc, part, GeneralMapper::new(nlocs, owners), 0u64)
}

/// `p_copy` between a balanced source and a destination whose placement
/// forces the given amount of misalignment; localized vs element-wise.
/// Takes the config so the `transport` area can re-run the same kernel
/// gated on its own counters.
fn localization_copy(
    p: usize,
    n: usize,
    placement: &'static str,
    localized: bool,
    cfg: RtsConfig,
) -> Measured {
    run(cfg, p, move |loc| {
        let nlocs = loc.nlocs();
        let src = PArray::from_fn(loc, n, |i| i as u64);
        let dst = match placement {
            "aligned" => PArray::new(loc, n, 0u64),
            // Same block bounds, placement rotated by one location:
            // every element lands remote, but runs stay whole blocks.
            "shifted" => rotated(loc, BalancedPartition::new(n, nlocs)),
            "strided" => PArray::with_partition(
                loc,
                BlockCyclicPartition::new(n, nlocs, 64),
                CyclicMapper::new(nlocs),
                0u64,
            ),
            "misaligned" => misaligned_dst(loc, n),
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

const PLACEMENTS: [&str; 4] = ["aligned", "shifted", "strided", "misaligned"];
const LOCALIZED: [(bool, &str); 2] = [(true, "localized"), (false, "element-wise")];
/// The size the localization claims are stated at.
const CLAIM_N: usize = 40_000;

fn localization_area(base: &RtsConfig) -> Vec<BenchRecord> {
    let n = 4096usize;
    let mut records = Vec::new();
    let mut copy = |p: usize, n: usize, placement: &'static str, (localized, mode), agg: usize| {
        let cfg = RtsConfig { aggregation: agg, ..base.clone() };
        records.push(BenchRecord::new(
            format!("copy/{placement}/p{p}/n{n}/{mode}/agg{agg}"),
            vec![
                knob("p", p),
                knob("n", n),
                knob("placement", placement),
                knob("mode", mode),
                knob("aggregation", agg),
            ],
            localization_copy(p, n, placement, localized, cfg),
        ));
    };
    for placement in ["aligned", "misaligned"] {
        for p in [1, 4] {
            LOCALIZED.into_iter().for_each(|l| copy(p, n, placement, l, 16));
        }
    }
    // Aggregation sweep on the interesting cell.
    for agg in [1, 64] {
        copy(4, n, "misaligned", LOCALIZED[0], agg);
    }
    // The placement x P grid the claims are stated over.
    for placement in PLACEMENTS {
        for p in [1, 2, 4] {
            LOCALIZED.into_iter().for_each(|l| copy(p, CLAIM_N, placement, l, 16));
        }
    }
    for placement in ["shifted", "strided"] {
        LOCALIZED.into_iter().for_each(|l| copy(2, n, placement, l, 16));
    }
    copy(2, n, "misaligned", LOCALIZED[0], 16);
    for container in ROW_MIN_CONTAINERS {
        records.push(BenchRecord::new(
            format!("fig62-row-min/p4/{container}"),
            vec![knob("p", 4), knob("container", container)],
            localization_row_min(4, container, base.clone()),
        ));
    }
    for view in ["array", "balanced"] {
        records.push(BenchRecord::new(
            format!("view-sum/p2/n{n}/{view}"),
            vec![knob("p", 2), knob("n", n), knob("view", view)],
            localization_view_sum(2, n, view, base.clone()),
        ));
    }
    records
}

/// `p_reduce_view` sums a pArray through its localized `ArrayView`, which
/// lends one slice per local chunk, or a `BalancedView` over it, which has
/// no localized override and counts every element in `element_fallbacks`.
fn localization_view_sum(p: usize, n: usize, view: &'static str, cfg: RtsConfig) -> Measured {
    run(cfg, p, move |loc| {
        let v = ArrayView::new(PArray::from_fn(loc, n, |i| i as u64));
        let (mut sum, add) = (None, |a: u64, b: u64| a + b);
        let measured = timed_scoped(loc, || {
            sum = match view {
                "array" => p_reduce_view(&v, |_, x| x, add),
                _ => p_reduce_view(&BalancedView::new(v.clone()), |_, x| x, add),
            }
        });
        assert_eq!(sum, Some((n * (n - 1) / 2) as u64), "{view}: wrong sum");
        measured
    })
}

/// The containers Fig. 62 compares: a pArray of rows, a pList of rows, and
/// a row-blocked pMatrix read through its `RowsView`.
const ROW_MIN_CONTAINERS: [&str; 3] = ["parray-of-rows", "plist-of-rows", "pmatrix-rows"];

/// Fig. 62: the minimum of a 256 × 64 matrix, row by row where each row is
/// stored, then one `allreduce`. A composed container keeps each inner row
/// whole on its outer element's owner, and a row-blocked pMatrix keeps a
/// row on one location: the kernel is local work and one collective.
fn localization_row_min(p: usize, container: &'static str, cfg: RtsConfig) -> Measured {
    const ROWS: usize = 256;
    const COLS: usize = 64;
    let cell = |r: usize, c: usize| ((r * 13 + c) % 97) as i64;
    let row = move |r: usize| (0..COLS).map(|c| cell(r, c)).collect::<Vec<i64>>();
    let row_min = |r: &Vec<i64>| *r.iter().min().expect("a row has columns");
    run(cfg, p, move |loc| {
        let local_min: Box<dyn Fn() -> i64> = match container {
            "parray-of-rows" => {
                let a = PArray::from_fn(loc, ROWS, row);
                Box::new(move || {
                    let mut best = i64::MAX;
                    a.for_each_local(|_, r| best = best.min(row_min(r)));
                    best
                })
            }
            "plist-of-rows" => {
                let l = PList::new(loc);
                for r in (loc.id()..ROWS).step_by(loc.nlocs()) {
                    l.push_anywhere(row(r));
                }
                l.commit();
                Box::new(move || {
                    let mut best = i64::MAX;
                    l.for_each_local(|_, r| best = best.min(row_min(r)));
                    best
                })
            }
            _ => {
                let m = PMatrix::from_fn(loc, ROWS, COLS, MatrixLayout::RowBlocked, cell);
                let rows = RowsView::new(m);
                Box::new(move || {
                    let min_of = |r| rows.read_row(r).into_iter().min().expect("a row has columns");
                    let local = rows.local_rows().into_iter().flat_map(|rr| rr.iter());
                    local.map(min_of).min().unwrap_or(i64::MAX)
                })
            }
        };
        let mut min = i64::MAX;
        let measured = timed_scoped(loc, || min = loc.allreduce(local_min(), i64::min));
        assert_eq!(min, 0, "{container}: wrong row-min");
        measured
    })
}

/// The localized path issues O(contiguous runs) remote requests where the
/// element-wise path issues O(N); Fig. 62's row-min issues none.
fn localization_claims(records: &[BenchRecord]) {
    let row_mins = of(records, "fig62-row-min");
    assert_eq!(row_mins.len(), ROW_MIN_CONTAINERS.len(), "a fig62 record per container");
    for r in row_mins {
        assert_eq!(r.counters.remote_requests, 0, "{}: the row-min sent a request", r.id);
    }
    // Only a view without a localized override reads element by element.
    for r in of(records, "view-sum") {
        let want = if r.knob("view") == "balanced" { count(r, "n") } else { 0 };
        assert_eq!(r.counters.element_fallbacks, want, "{}: element fallbacks", r.id);
    }
    let cells = pairs(records, "copy", "mode", ("localized", "element-wise"));
    for &(loc, elem) in &cells {
        // Never more remote traffic than the element-wise baseline, on any
        // placement at any P; >= 10x less on every communicating cell.
        let communicating = loc.knob("p") != "1" && loc.knob("placement") != "aligned";
        assert_coarsens(loc, elem, Counter::remote_requests, if communicating { 10 } else { 1 });
    }
    let grid = cells.iter().filter(|(l, _)| l.knob("n") == CLAIM_N.to_string()).count();
    assert_eq!(grid, PLACEMENTS.len() * 3, "the n={CLAIM_N} placement x P grid is incomplete");
    let at = |l: &BenchRecord, knobs: [&str; 3]| ["placement", "p", "n"].map(|k| l.knob(k)) == knobs;
    let (loc, elem) = cells
        .iter()
        .find(|(l, _)| at(l, ["misaligned", "4", &CLAIM_N.to_string()]))
        .expect("misaligned P=4 cell");
    let (runs, each) = (loc.counters.remote_requests, elem.counters.remote_requests);
    assert!(runs < (CLAIM_N / 100) as u64, "misaligned localized copy must be O(runs): {runs}");
    assert!(each >= (CLAIM_N / 2) as u64, "element-wise baseline should be O(N): {each}");
}

// ---------------------------------------------------------------------
// Area: directory (owner caches)
// ---------------------------------------------------------------------

const DIRECTORY_GATED: &[Counter] = &[
    Counter::remote_requests,
    Counter::dir_cache_hits,
    Counter::dir_cache_misses,
    Counter::dir_cache_stale,
    // Every routed read replies exactly once, so the reply count tracks
    // the (deterministic) read schedule.
    Counter::responses_sent,
    // A read of a vertex its reader owns, or that its home owns, runs
    // where it is issued: placement-determined, like the rest.
    Counter::local_invocations,
    // Churn moves one vertex a round; nothing else here migrates.
    Counter::migrations,
];

/// A dynamic (forwarding) pGraph of `nverts` vertices dealt round-robin.
fn directory_graph(loc: &Location, nverts: usize) -> PGraph<u64, ()> {
    let g = PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
    for vd in (loc.id()..nverts).step_by(loc.nlocs()) {
        g.add_vertex_with_descriptor(vd, vd as u64);
    }
    g.commit();
    g
}

/// Hot-key or sweep reads over a dynamic pGraph; the owner cache turns the
/// 2-hop home-forwarded read into 1 hop on repeats.
fn directory_access(p: usize, nverts: usize, reads: usize, hot: bool, cfg: RtsConfig) -> Measured {
    run(cfg, p, move |loc| {
        let g = directory_graph(loc, nverts);
        timed_scoped(loc, || {
            if hot {
                // Four hot vertices owned by the next location, hammered.
                let base = (loc.id() + 1) % loc.nlocs();
                for k in 0..reads {
                    let vd = base + (k % 4) * loc.nlocs();
                    std::hint::black_box(g.vertex_property(vd));
                }
            } else {
                // Repeated full sweeps over the vertex set.
                for _ in 0..reads / nverts {
                    for vd in 0..nverts {
                        std::hint::black_box(g.vertex_property(vd));
                    }
                }
            }
        })
    })
}

/// The price of churn: every cache is warmed, then each round location 0
/// migrates a vertex and every location re-reads it — with the cache on, a
/// read sent to the cached owner finds the vertex gone and self-heals (it
/// follows the old owner's forwarding pointer, which re-points the
/// reader's cache). The only scenario
/// that drives that path, hence the only one where `dir_cache_stale` and
/// `migrations` are not gated on a constant zero.
fn directory_churn(p: usize, rounds: usize, cfg: RtsConfig) -> Measured {
    run(cfg, p, move |loc| {
        let g = directory_graph(loc, loc.nlocs());
        for vd in 0..loc.nlocs() {
            assert_eq!(g.vertex_property(vd), vd as u64);
        }
        timed_scoped(loc, || {
            for round in 0..rounds {
                let victim = round % loc.nlocs();
                if loc.id() == 0 {
                    g.migrate_vertex(victim, (round + 1) % loc.nlocs());
                }
                loc.rmi_fence();
                assert_eq!(g.vertex_property(victim), victim as u64, "vertex lost in flight");
                loc.rmi_fence();
            }
        })
    })
}

fn directory_area(base: &RtsConfig) -> Vec<BenchRecord> {
    let nverts = 64usize;
    let reads = 640usize;
    let cache_label = |cache: bool| if cache { "on" } else { "off" };
    // A cache that is on has the built-in capacity, whatever the base says:
    // the claims are about a cache that holds the 64 vertices, and a
    // smaller one (a test leg shrinks it to 8 to exercise eviction) would
    // thrash, each refill a request the cache-off run never sends.
    let capacity = |cache: bool| if cache { RtsConfig::base().dir_cache_capacity } else { 0 };
    let mut records = Vec::new();
    let mut access = |p: usize, reads: usize, hot: bool, cache: bool, agg: usize| {
        let cfg = RtsConfig { dir_cache_capacity: capacity(cache), aggregation: agg, ..base.clone() };
        let scenario = if hot { "hot-key" } else { "traversal" };
        records.push(BenchRecord::new(
            format!("{scenario}/p{p}/reads{reads}/cache-{}/agg{agg}", cache_label(cache)),
            vec![
                knob("p", p),
                knob("vertices", nverts),
                knob("reads", reads),
                knob("scenario", scenario),
                knob("dir_cache", cache_label(cache)),
                knob("aggregation", agg),
            ],
            directory_access(p, nverts, reads, hot, cfg),
        ));
    };
    for hot in [true, false] {
        for cache in [true, false] {
            access(4, reads, hot, cache, 16);
        }
    }
    for agg in [1, 64] {
        access(4, reads, true, true, agg);
    }
    for cache in [true, false] {
        access(2, reads, true, cache, 16);
        access(4, 6400, true, cache, 16);
    }
    let (p, rounds) = (4usize, 8usize);
    for cache in [true, false] {
        let cfg = RtsConfig { dir_cache_capacity: capacity(cache), ..base.clone() };
        records.push(BenchRecord::new(
            format!("churn/p{p}/rounds{rounds}/cache-{}", cache_label(cache)),
            vec![knob("p", p), knob("rounds", rounds), knob("dir_cache", cache_label(cache))],
            directory_churn(p, rounds, cfg),
        ));
    }
    for (partition, kind) in RESOLUTIONS {
        let (p, n) = (2usize, 2000usize);
        // The claims read the cache's misses, whatever the base says.
        let cfg = RtsConfig { dir_cache_capacity: capacity(true), ..base.clone() };
        records.push(BenchRecord::new(
            format!("fig51-find-sources/p{p}/n{n}/{partition}"),
            vec![knob("p", p), knob("n", n), knob("partition", partition), knob("dir_cache", "on")],
            graph_find_sources(p, n, kind, cfg),
        ));
    }
    for (rows, cols) in [(100usize, 100usize), (10, 1000)] {
        let (p, iters) = (2usize, 10usize);
        records.push(BenchRecord::new(
            format!("fig56-pagerank-mesh/p{p}/{rows}x{cols}/iters{iters}"),
            vec![knob("p", p), knob("rows", rows), knob("cols", cols), knob("iters", iters)],
            graph_page_rank(p, (rows, cols), iters, base.clone()),
        ));
    }
    records
}

/// The address-resolution strategies Fig. 51 compares: a static graph
/// computes a vertex's owner; a dynamic one asks the directory, either
/// forwarding each request through the vertex's home or looking the owner
/// up at the home first (two-phase).
const RESOLUTIONS: [(&str, Option<GraphPartitionKind>); 3] = [
    ("static", None),
    ("forwarding", Some(GraphPartitionKind::DynamicFwd)),
    ("two-phase", Some(GraphPartitionKind::DynamicTwoPhase)),
];

/// Fig. 51: find-sources over a DAG whose first fifth is its source band
/// (`fill_dag_with_sources`), the vertices blocked as the static partition
/// blocks them. The kernel routes one in-degree increment along every
/// edge.
fn graph_find_sources(
    p: usize,
    n: usize,
    kind: Option<GraphPartitionKind>,
    cfg: RtsConfig,
) -> Measured {
    run(cfg, p, move |loc| {
        let g: AlgoGraph = match kind {
            None => PGraph::new_static(loc, n, Directedness::Directed, VProps::default()),
            Some(kind) => {
                let g = PGraph::new_dynamic(loc, Directedness::Directed, kind);
                let per = n.div_ceil(loc.nlocs());
                for vd in loc.id() * per..((loc.id() + 1) * per).min(n) {
                    g.add_vertex_with_descriptor(vd, VProps::default());
                }
                g.commit();
                g
            }
        };
        fill_dag_with_sources(loc, &g, 4, 0.2, BENCH_SEED, ());
        let mut sources = Vec::new();
        let measured = timed_scoped(loc, || sources = find_sources(&g));
        assert!((0..n / 5).all(|v| sources.binary_search(&v).is_ok()), "a band vertex is not a source");
        measured
    })
}

/// Boundary vertices of a mesh whose `p` blocks are cut between rows: one
/// row on each side of each cut.
fn mesh_boundary(p: u64, cols: u64) -> u64 {
    2 * (p - 1) * cols
}

/// Fig. 56: PageRank on a `rows × cols` mesh (`fill_mesh`) over the static
/// blocked partition, which cuts it between two rows. A boundary vertex
/// has exactly one out-edge across the cut, so an iteration sends one
/// share per boundary vertex (`GraphView::boundary`).
fn graph_page_rank(p: usize, (rows, cols): (usize, usize), iters: usize, cfg: RtsConfig) -> Measured {
    run(cfg, p, move |loc| {
        let g: AlgoGraph =
            PGraph::new_static(loc, rows * cols, Directedness::Directed, VProps::default());
        fill_mesh(&g, rows, cols, ());
        let boundary = loc.allreduce_sum(GraphView::boundary(g.clone()).local_len() as u64);
        assert_eq!(boundary, mesh_boundary(p as u64, cols as u64), "the cut is not between rows");
        let mut mass = 0.0;
        let measured = timed_scoped(loc, || mass = page_rank(&g, iters, 0.85));
        assert!((mass - 1.0).abs() < 1e-6, "PageRank lost mass: {mass}");
        measured
    })
}

/// With the cache off every routed read pays the home hop; with it on,
/// repeats go straight to the cached owner — and a cached owner that moved
/// away costs one stale re-forward, once. Only a dynamic graph asks the
/// directory (Fig. 51), and PageRank's traffic is its partition's cut
/// (Fig. 56).
fn directory_claims(records: &[BenchRecord]) {
    let sources = of(records, "fig51-find-sources");
    assert_eq!(sources.len(), RESOLUTIONS.len(), "a fig51 record per resolution");
    for r in sources {
        let (s, id) = (&r.counters, &r.id);
        match r.knob("partition") {
            "static" => {
                assert_eq!(s.dir_cache_hits + s.dir_cache_misses, 0, "{id}: asked the directory")
            }
            // Through the home to the owner: asynchronous all the way.
            "forwarding" => assert_eq!(s.responses_sent, 0, "{id}: forwarding answered"),
            // One synchronous lookup per target not cached yet; a lookup
            // at a home that is the caller itself sends no response.
            _ => assert!(
                0 < s.responses_sent && s.responses_sent <= s.dir_cache_misses,
                "{id}: two-phase must answer one lookup per miss at most: {s:?}"
            ),
        }
    }
    let meshes = of(records, "fig56-pagerank-mesh");
    for r in &meshes {
        let boundary = mesh_boundary(count(r, "p"), count(r, "cols"));
        let want = count(r, "iters") * boundary;
        let got = r.counters.remote_requests;
        assert_eq!(got, want, "{}: not one request per boundary vertex per iteration", r.id);
    }
    let sent = |rows: &str| {
        let mesh = meshes.iter().find(|r| r.knob("rows") == rows).expect("a mesh of that shape");
        mesh.counters.remote_requests
    };
    assert_eq!(sent("10"), 10 * sent("100"), "the skinny mesh must cut 10x the square's edges");
    for scenario in ["hot-key", "traversal"] {
        for (on, off) in pairs(records, scenario, "dir_cache", ("on", "off")) {
            // At P=2 a vertex's home is its reader or its owner: no hop to save.
            if on.knob("p") == "2" {
                continue;
            }
            let (a, b) = (on.counters.remote_requests, off.counters.remote_requests);
            assert!(a < b, "{}: the owner cache must save remote requests ({a} vs {b})", on.id);
        }
    }
    for (on, off) in pairs(records, "churn", "dir_cache", ("on", "off")) {
        assert!(on.counters.dir_cache_stale > 0, "{}: no stale entry self-healed", on.id);
        assert_eq!(off.counters.dir_cache_stale, 0, "{}: stale without a cache", off.id);
    }
}

// ---------------------------------------------------------------------
// Area: dynamic (segment transport, kv shuffle, gather paths)
// ---------------------------------------------------------------------

const DYNAMIC_GATED: &[Counter] = &[
    Counter::remote_requests,
    Counter::segment_requests,
    Counter::gather_items,
    Counter::responses_sent,
];

/// Location 0 reads the whole pList: one `get_segment` per slab vs the
/// element-wise GID walk (`next_gid` + `try_get` per element, O(N) sync
/// RMIs). Takes the config so the `transport` area can re-run the same
/// kernel gated on its own counters.
fn dynamic_traversal(p: usize, per: usize, segmented: bool, cfg: RtsConfig) -> Measured {
    run(cfg, p, move |loc| {
        let l: PList<u64> = PList::new(loc);
        for i in 0..per {
            l.push_anywhere((loc.id() * per + i) as u64);
        }
        l.commit();
        let n = per * loc.nlocs();
        timed_scoped(loc, || {
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
        })
    })
}

/// `p_copy` between twin pLists after every destination slab migrated one
/// location over (every write remote, stale owner hints self-heal).
fn dynamic_copy_migrated(p: usize, per: usize, segmented: bool, cfg: RtsConfig) -> Measured {
    run(cfg, p, move |loc| {
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
        let measured = timed_scoped(loc, || {
            if segmented {
                p_copy_segmented(&src, &dst);
            } else {
                p_copy_elementwise(&src, &dst);
            }
        });
        assert!(p_equal_segmented(&src, &dst), "copy corrupted");
        measured
    })
}

/// MapReduce word count over a `MapView` of per-location documents:
/// bucket-grained local-combine shuffle (one merge RMI per (owner, bucket))
/// vs the per-pair shuffle. Either must reproduce a sequential model of
/// the corpus exactly.
fn dynamic_wordcount(p: usize, words_per_loc: usize, chunked: bool, cfg: RtsConfig) -> Measured {
    run(cfg, p, move |loc| {
        let docs: PHashMap<u64, String> = PHashMap::new(loc);
        let text = synthetic_corpus(loc, words_per_loc, 300, BENCH_SEED);
        docs.insert_async(loc.id() as u64, text.clone());
        docs.commit();
        let texts: Vec<String> = loc.allgather(text);
        let counts: PHashMap<String, u64> = PHashMap::new(loc);
        let measured = timed_scoped(loc, || {
            if chunked {
                word_count_kv(&MapView::new(docs.clone()), &counts);
            } else {
                map_reduce(
                    &counts,
                    texts[loc.id()].split_whitespace(),
                    |w, emit| emit(w.to_string(), 1),
                    0,
                    |acc, v| *acc += v,
                );
            }
        });
        let mut model: HashMap<String, u64> = HashMap::new();
        for w in texts.iter().flat_map(|t| t.split_whitespace()) {
            *model.entry(w.to_string()).or_insert(0) += 1;
        }
        assert_eq!(counts.global_size(), model.len(), "distinct-word count diverged");
        assert_eq!(counts.segments().len(), loc.nlocs(), "the claims' bound assumes a bucket per location");
        if loc.id() == 0 {
            let mut got = counts.collect_ordered();
            got.sort_unstable();
            let mut want: Vec<(String, u64)> = model.into_iter().collect();
            want.sort_unstable();
            assert_eq!(got, want, "word counts disagree with the sequential model");
        }
        measured
    })
}

/// Location 0 collects a pHashMap of `per` pairs per location with
/// `collect_ordered`, a one-sided gather: O(N) on the wire, of which the
/// `gather_items` counter is the proxy.
fn dynamic_collect(p: usize, per: usize, cfg: RtsConfig) -> Measured {
    run(cfg, p, move |loc| {
        let m: PHashMap<u64, u64> = PHashMap::new(loc);
        for i in 0..per {
            let k = (loc.id() * per + i) as u64;
            m.insert_async(k, k * 2);
        }
        m.commit();
        let n = per * loc.nlocs();
        timed_scoped(loc, || {
            if loc.id() == 0 {
                assert_eq!(m.collect_ordered().len(), n);
            }
        })
    })
}

fn dynamic_area(base: &RtsConfig) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    let mut push = |scenario: &str, p: usize, size: (&'static str, usize), mode: &str, m| {
        // The id abbreviates the size knob to its first word (`per200`).
        let short = size.0.split('_').next().unwrap_or_default();
        records.push(BenchRecord::new(
            format!("{scenario}/p{p}/{short}{}/{mode}", size.1),
            vec![knob("p", p), knob(size.0, size.1), knob("mode", mode)],
            m,
        ));
    };
    let mut traversal = |p: usize, per: usize| {
        for (segmented, mode) in SEGMENTED {
            let m = dynamic_traversal(p, per, segmented, base.clone());
            push("plist-traversal", p, ("per_loc", per), mode, m);
        }
    };
    traversal(4, 200);
    traversal(2, 200);
    for (chunked, mode) in [(true, "chunked-kv"), (false, "per-pair")] {
        let m = dynamic_wordcount(4, 800, chunked, base.clone());
        push("word-count", 4, ("words_per_loc", 800), mode, m);
    }
    push("collect-ordered", 4, ("per_loc", 200), "gather", dynamic_collect(4, 200, base.clone()));
    for (segmented, mode) in SEGMENTED {
        let m = dynamic_copy_migrated(4, 200, segmented, base.clone());
        push("plist-copy-migrated", 4, ("per_loc", 200), mode, m);
    }
    for (back, mode) in [(false, "anywhere"), (true, "back")] {
        let m = dynamic_push(4, 200, back, base.clone());
        push("fig39-plist-push", 4, ("per_loc", 200), mode, m);
    }
    records
}

/// Fig. 39: `per` pushes from every location onto an empty pList —
/// `push_anywhere` into a local base container, or `push_back` onto the
/// global end, the last base container, which the last location holds.
fn dynamic_push(p: usize, per: usize, back: bool, cfg: RtsConfig) -> Measured {
    run(cfg, p, move |loc| {
        let l: PList<u64> = PList::new(loc);
        let measured = timed_scoped(loc, || {
            for i in 0..per {
                let v = (loc.id() * per + i) as u64;
                if back {
                    l.push_back(v);
                } else {
                    l.push_anywhere(v);
                }
            }
        });
        l.commit();
        assert_eq!(l.global_size(), per * loc.nlocs(), "a push was lost");
        measured
    })
}

/// Segment-at-a-time transport issues O(segments) remote requests where
/// the element-wise paths issue O(N); `push_anywhere` sends nothing.
fn dynamic_claims(records: &[BenchRecord]) {
    let p4 = |pairs: Vec<(&BenchRecord, &BenchRecord)>, factor: u64| {
        let (a, b) = *pairs.iter().find(|(a, _)| a.knob("p") == "4").expect("a P=4 pair");
        assert_coarsens(a, b, Counter::remote_requests, factor);
    };
    p4(pairs(records, "plist-traversal", "mode", ("segmented", "element-wise")), 10);
    p4(pairs(records, "plist-copy-migrated", "mode", ("segmented", "element-wise")), 10);
    let word_count = pairs(records, "word-count", "mode", ("chunked-kv", "per-pair"));
    // Fig. 59's combine: at most one merge per (location, bucket) of the
    // output, whose `PHashMap::new` has one bucket per location.
    for (kv, _) in &word_count {
        let (p, merges) = (count(kv, "p"), kv.counters.segment_requests);
        assert!(merges <= p * p, "{}: {merges} merges for {p} locations x {p} buckets", kv.id);
    }
    p4(word_count, 5);
    // Fig. 39: every `push_back` off the last location is one request to
    // it, and `push_anywhere` never leaves its location.
    for (anywhere, back) in pairs(records, "fig39-plist-push", "mode", ("anywhere", "back")) {
        assert_eq!(anywhere.counters.remote_requests, 0, "{}: sent a request", anywhere.id);
        let want = (count(back, "p") - 1) * count(back, "per_loc");
        let got = back.counters.remote_requests;
        assert_eq!(got, want, "{}: not one request per push_back off the last location", back.id);
    }
    // The gather ships each remote pair once, to the one caller: one
    // response per peer, and fewer items than the map holds.
    let r = records.iter().find(|r| r.scenario() == "collect-ordered").expect("a collect-ordered record");
    let (p, n) = (count(r, "p"), count(r, "p") * count(r, "per_loc"));
    assert_eq!(r.counters.responses_sent, p - 1, "{}: not one response per peer", r.id);
    assert!(r.counters.gather_items < n, "{}: {} items gathered of {n}", r.id, r.counters.gather_items);
}

// ---------------------------------------------------------------------
// Area: executor (the PARAGRAPH task-graph executor)
// ---------------------------------------------------------------------

/// Only the task count is deterministic: how many tasks get *stolen* (and
/// the steal-probe RMI traffic with them) depends on thread timing, so
/// those counters are never gated.
const EXECUTOR_GATED: &[Counter] = &[Counter::tasks_executed];

/// How `executor_generate` schedules its element work: the lock-step SPMD
/// loop over local chunks, or the PARAGRAPH executor — every task on its
/// home location, or with work stealing.
const EXECUTOR_MODES: [&str; 3] = ["spmd", "executor", "executor-steal"];

/// `p_generate` of `dst[k] = k` with a simulated per-element service time
/// (a sleep): `light_us` µs, except the last quarter of the index space —
/// the trailing location's block under the balanced distribution — at
/// `heavy_us` µs. This models irregular per-element latency (out-of-core
/// fetches, remote lookups): sleeps overlap across location threads even
/// on one core, so SPMD serializes the heavy quarter on one location while
/// the stealing executor spreads it. The uniform workload runs it at zero
/// sleep — the task accounting is the signal there.
fn executor_generate(
    p: usize,
    n: usize,
    light_us: u64,
    heavy_us: u64,
    mode: &'static str,
    cfg: RtsConfig,
) -> Measured {
    run(cfg, p, move |loc| {
        let a = PArray::new(loc, n, 0u64);
        let v = ArrayView::new(a.clone());
        let gen = move |k: usize| {
            let us = if k >= n - n / 4 { heavy_us } else { light_us };
            if us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(us));
            }
            k as u64
        };
        let policy = match mode {
            "spmd" => None,
            "executor" => Some(ExecPolicy::no_stealing()),
            _ => Some(ExecPolicy::default()),
        };
        let measured = timed_scoped(loc, || match policy {
            None => p_generate_view(&v, gen),
            Some(policy) => p_generate_pg(&v, policy, gen),
        });
        for i in (0..n).step_by((n / 16).max(1)) {
            assert_eq!(a.get_element(i), i as u64, "mode {mode} corrupted {i}");
        }
        measured
    })
}

fn executor_area(base: &RtsConfig) -> Vec<BenchRecord> {
    // (p, n, light_us, heavy_us, workload label, mode)
    let mut specs: Vec<(usize, usize, u64, u64, &'static str, &'static str)> = Vec::new();
    for mode in EXECUTOR_MODES {
        specs.push((4, 128, 0, 0, "uniform-0us", mode));
    }
    for mode in ["spmd", "executor-steal"] {
        specs.push((4, 256, 50, 800, "skewed-16x", mode));
    }
    specs
        .into_iter()
        .map(|(p, n, light, heavy, workload, mode)| {
            BenchRecord::new(
                format!("generate/{workload}/p{p}/n{n}/{mode}"),
                vec![
                    knob("p", p),
                    knob("n", n),
                    knob("workload", workload),
                    knob("light_us", light),
                    knob("heavy_us", heavy),
                    knob("mode", mode),
                ],
                executor_generate(p, n, light, heavy, mode, base.clone()),
            )
        })
        .collect()
}

/// Scheduling changes where a task runs, never how many there are: the
/// SPMD loop runs none, and stealing runs exactly the tasks the
/// no-stealing executor runs.
fn executor_claims(records: &[BenchRecord]) {
    for (spmd, steal) in pairs(records, "generate", "mode", ("spmd", "executor-steal")) {
        assert_eq!(spmd.counters.tasks_executed, 0, "{}: SPMD ran tasks", spmd.id);
        assert!(steal.counters.tasks_executed > 0, "{}: the executor ran no task", steal.id);
    }
    for (home, steal) in pairs(records, "generate", "mode", ("executor", "executor-steal")) {
        assert_eq!(
            home.counters.tasks_executed, steal.counters.tasks_executed,
            "{}: stealing changed the task count",
            steal.id
        );
    }
}

// ---------------------------------------------------------------------
// Area: transport (bytes on the wire; one staging format)
// ---------------------------------------------------------------------

/// Every remote request is relocated into its batch buffer as the image of
/// its capture, so `bytes_sent` is a real traffic counter: `size_of` the
/// capture rounded up to a word, summed over requests. Headers are not in
/// it — a run of requests to one method of one p_object shares one, and
/// where runs break follows flush timing, as seals and acks do — so with a
/// seeded request mix it is deterministic and gateable, also under a fault
/// schedule, since recovery traffic is not counted. A capture that grows —
/// or a path that quietly falls back from bulk requests to per-element
/// ones — moves `bytes_sent` and fires the gate. Batch/flush counts are
/// timing-dependent and never gated.
///
/// Caveat on magnitudes: relocation is a shallow byte copy, so a `Vec`
/// inside a bulk capture is charged as its 24-byte handle, not its heap
/// payload. The bulk-vs-element-wise ratios below are driven by the
/// O(runs)-vs-O(N) *request count*, which holds either way.
const TRANSPORT_GATED: &[Counter] = &[
    Counter::remote_requests,
    Counter::bytes_sent,
    Counter::bulk_requests,
    Counter::segment_requests,
];

fn transport_area(base: &RtsConfig) -> Vec<BenchRecord> {
    // Same aggregation width as the localization area's default cell.
    let wire = || RtsConfig { aggregation: 16, ..base.clone() };
    let mut records = Vec::new();
    // (p, n) of the misaligned p_copy.
    for (p, n) in [(4usize, 4096usize), (4, 40_000)] {
        for (localized, mode) in [(true, "bulk"), (false, "element-wise")] {
            records.push(BenchRecord::new(
                format!("wire-copy/misaligned/p{p}/n{n}/{mode}"),
                vec![knob("p", p), knob("n", n), knob("mode", mode)],
                localization_copy(p, n, "misaligned", localized, wire()),
            ));
        }
    }
    // (p, per_loc) of the pList traversal.
    for (p, per) in [(4usize, 200usize), (2, 200)] {
        for (segmented, mode) in SEGMENTED {
            records.push(BenchRecord::new(
                format!("wire-plist-traversal/p{p}/per{per}/{mode}"),
                vec![knob("p", p), knob("per_loc", per), knob("mode", mode)],
                dynamic_traversal(p, per, segmented, wire()),
            ));
        }
    }
    for agg in [1usize, 64] {
        let (p, sets) = (2usize, 4096usize);
        records.push(BenchRecord::new(
            format!("async-sets/p{p}/sets{sets}/agg{agg}"),
            vec![knob("p", p), knob("sets", sets), knob("aggregation", agg)],
            transport_async_sets(p, sets, RtsConfig { aggregation: agg, ..base.clone() }),
        ));
    }
    records
}

/// The aggregation ablation: every location sets each element of the next
/// location's block asynchronously. The factor decides how the requests
/// are packed into batches, not how many there are or what they carry.
fn transport_async_sets(p: usize, sets: usize, cfg: RtsConfig) -> Measured {
    run(cfg, p, move |loc| {
        let a = PArray::new(loc, sets * loc.nlocs(), 0u64);
        let next = (loc.id() + 1) % loc.nlocs();
        let measured = timed_scoped(loc, || {
            for k in 0..sets {
                a.set_element(next * sets + k, k as u64);
            }
        });
        for k in (0..sets).step_by((sets / 16).max(1)) {
            assert_eq!(a.get_element(loc.id() * sets + k), k as u64, "set {k} lost");
        }
        measured
    })
}

/// The paper's bandwidth argument, measured in capture bytes: the bulk-range
/// and segment paths put >= 10x fewer bytes on the wire than element-wise
/// transfer, and the bytes are the requests' own: whole words, none without
/// a request (a capture-less request in a run adds none). Aggregation packs
/// the same requests into fewer batches.
fn transport_claims(records: &[BenchRecord]) {
    let copies = pairs(records, "wire-copy", "mode", ("bulk", "element-wise"));
    let walks = pairs(records, "wire-plist-traversal", "mode", ("segmented", "element-wise"));
    for (coarse, fine) in copies.into_iter().chain(walks) {
        assert_coarsens(coarse, fine, Counter::bytes_sent, 10);
    }
    // `batches_sent` follows flush timing, so it is read here, never gated.
    for (packed, single) in pairs(records, "async-sets", "aggregation", ("64", "1")) {
        for c in [Counter::remote_requests, Counter::bytes_sent] {
            let (a, b) = (packed.counters.get(c), single.counters.get(c));
            assert_eq!(a, b, "{}: aggregation changed {} ({a} vs {b})", packed.id, c.name());
        }
        let (a, b) = (packed.counters.batches_sent, single.counters.batches_sent);
        assert!(a * 8 <= b, "{}: {a} batches at 64 per batch vs {b} at one", packed.id);
    }
    for r in records {
        let s = &r.counters;
        assert!(s.bytes_sent % 8 == 0, "{}: images are whole words", r.id);
        assert!(s.bytes_sent == 0 || s.remote_requests > 0, "{}: bytes without a request", r.id);
    }
}

// ---------------------------------------------------------------------
// Area: chaos (fault injection + reliable delivery)
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
/// relative to the injected damage by `chaos_claims`.
///
/// This is why the storm sends no replies, and why the chaos soak
/// (`tests/chaos_soak.rs`) — the differential test whose sync reads and
/// bulk copy make batch sequence numbers timing-dependent — is a separate
/// kernel that gates nothing.
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
    run(cfg, p, move |loc| {
        let (h, rep) = loc.register_cell(0u64);
        loc.rmi_fence();
        let measured = timed_scoped(loc, || {
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
        measured
    })
}

const CHAOS_MIXED: &str = "drop:0.2,dup:0.1,reorder:0.2,corrupt:0.1,delay_us:5";

fn chaos_area(base: &RtsConfig) -> Vec<BenchRecord> {
    let (k, rounds, rto_us) = (5u64, 4u64, 25_000u64);
    // (id, fault profile, p)
    let specs = [
        ("storm/clean/p4", "", 4usize),
        ("storm/drop-all/p4", "drop:1.0", 4),
        ("storm/corrupt-all/p4", "corrupt:1.0", 4),
        ("storm/mixed/p4", CHAOS_MIXED, 4),
        ("storm/mixed/p2", CHAOS_MIXED, 2),
        ("storm/severe/p4", "drop:0.4,dup:0.2,reorder:0.2,corrupt:0.2", 4),
    ];
    specs
        .into_iter()
        .map(|(id, profile, p)| {
            let cfg = RtsConfig {
                // Keeps the layer on for the clean control's empty schedule.
                reliable: true,
                // One batch per request: seeded draws are program-order stable.
                aggregation: 1,
                retransmit_rto_us: rto_us,
                faults: FaultSchedule::parse(profile).expect("bundled profile parses"),
                fault_seed: BENCH_SEED,
                ..base.clone()
            };
            BenchRecord::new(
                id.to_string(),
                vec![
                    knob("profile", if profile.is_empty() { "none" } else { profile }),
                    knob("p", p),
                    knob("k", k),
                    knob("rounds", rounds),
                    knob("aggregation", 1),
                    knob("rto_us", rto_us),
                ],
                chaos_storm(p, k, rounds, cfg),
            )
        })
        .collect()
}

/// Recovery pays for injected damage and never multiplies it; on a clean
/// fabric the reliability machinery is free.
fn chaos_claims(records: &[BenchRecord]) {
    for r in records {
        let (d, id) = (&r.counters, &r.id);
        match r.knob("profile") {
            // Any nonzero recovery counter is a protocol bug (e.g. the
            // retransmission timer firing on acknowledged batches).
            "none" => {
                assert_eq!(d.frames_dropped, 0, "{id}: clean fabric must drop nothing");
                assert_eq!(d.retransmits, 0, "{id}: clean fabric must not redrive");
                assert_eq!(d.checksum_failures, 0, "{id}: clean fabric must not reject");
            }
            // Every first transmission is dropped, so every batch (one
            // request each at aggregation 1) is recovered by a redrive.
            "drop:1.0" => {
                assert!(d.frames_dropped >= d.remote_requests, "{id}: every batch drops once");
                assert!(d.retransmits >= d.remote_requests, "{id}: every drop is redriven");
                assert_eq!(d.checksum_failures, 0, "{id}: drops are not corruption");
            }
            // Every first transmission has one bit flipped, is rejected by
            // its CRC (never executed), and is redriven.
            "corrupt:1.0" => {
                assert!(d.checksum_failures >= d.remote_requests, "{id}: every batch is rejected");
                assert!(d.retransmits >= d.remote_requests, "{id}: every rejection is redriven");
            }
            // The realistic soak points — every fault kind at once.
            _ => {
                assert!(d.frames_dropped > 0 && d.checksum_failures > 0, "{id}: no damage: {d:?}");
                assert!(d.retransmits > 0, "{id}: damage never redriven");
                let damage = d.frames_dropped + d.checksum_failures;
                assert!(d.retransmits <= 4 * damage + 16, "{id}: unbounded redrives: {d:?}");
                // A duplicate is an injected dup (at most one per request)
                // or a redrive that raced its original; an ack answers a
                // delivered batch or a duplicate.
                assert!(d.duplicates_discarded <= d.remote_requests + d.retransmits, "{id}: {d:?}");
                assert!(d.acks_sent <= d.remote_requests + d.duplicates_discarded, "{id}: {d:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

impl AreaReport {
    /// Serializes the report as the `BENCH_<area>.json` schema: per record
    /// its id, its knobs and its gated counters, nothing that differs
    /// between two runs of one commit. Pretty enough for line-oriented git
    /// diffs (one counter per line), strict enough for
    /// [`Json::parse`](crate::json::Json::parse).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n  \"schema\": {SCHEMA_VERSION},\n  \"area\": \"{}\",\n  \"records\": [\n",
            escape(self.area.name)
        );
        for (i, r) in self.records.iter().enumerate() {
            let knobs: Vec<String> =
                r.knobs.iter().map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v))).collect();
            let counters: Vec<String> = self
                .area
                .gated
                .iter()
                .map(|&g| format!("        \"{}\": {}", g.name(), r.counters.get(g)))
                .collect();
            s.push_str(&format!(
                "    {{\n      \"id\": \"{}\",\n      \"knobs\": {{{}}},\n      \"counters\": \
                 {{\n{}\n      }}\n    }}{}\n",
                escape(&r.id),
                knobs.join(", "),
                counters.join(",\n"),
                if i + 1 < self.records.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Writes the report as `BENCH_<area>.json` into `dir` (created if
    /// missing); returns the path.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.area.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use stapl_rts::Class;
    use std::collections::BTreeSet;

    /// A gate must be able to fire: no area gates a timing counter, and
    /// every deterministic counter is gated by some record of the
    /// checked-in baselines **at a non-zero value** — a counter gated
    /// only at zero is gated on a constant. `poisoned_responses` is the one
    /// exception: no handler of the storm panics, and zero is the point.
    /// `tests/harness_determinism.rs` holds a sweep to these files byte for
    /// byte and checks the same rules on that sweep's in-process records.
    #[test]
    fn a_counter_is_gated_somewhere_iff_it_is_deterministic() {
        let baselines =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baselines");
        let mut fires = BTreeSet::new();
        for area in AREAS {
            let path = baselines.join(format!("BENCH_{}.json", area.name));
            let text = std::fs::read_to_string(&path).expect("a baseline per area");
            let parsed = Json::parse(&text).expect("baseline parses");
            let gated: BTreeSet<&str> = area.gated.iter().map(|c| c.name()).collect();
            for r in parsed.get("records").and_then(Json::as_arr).expect("records") {
                let id = r.get("id").and_then(Json::as_str).expect("an id");
                let counters = r.get("counters").and_then(Json::as_obj).expect("counters");
                let held: BTreeSet<&str> = counters.keys().map(String::as_str).collect();
                assert_eq!(held, gated, "{}/{id} holds other than the area's gates", area.name);
                let above_zero = counters.iter().filter(|(_, v)| v.as_u64() != Some(0));
                fires.extend(above_zero.map(|(k, _)| k.clone()));
            }
        }
        for &c in Counter::ALL {
            let gated = AREAS.iter().any(|a| a.gated.contains(&c));
            match c.class() {
                Class::Timing(why) => assert!(!gated, "{} is gated but timing: {why}", c.name()),
                _ if c == Counter::poisoned_responses => assert!(gated),
                Class::Exact => assert!(
                    fires.contains(c.name()),
                    "{} is deterministic but no baseline gates it above zero",
                    c.name()
                ),
            }
        }
    }

    #[test]
    fn unknown_area_is_none() {
        assert!(area("no-such-area").is_none());
        assert_eq!(area("dynamic").map(|a| a.name), Some("dynamic"));
    }

    #[test]
    fn report_json_round_trips() {
        let report = AreaReport {
            area: area("localization").unwrap(),
            records: vec![BenchRecord {
                id: "copy/misaligned/p4".into(),
                knobs: vec![("p", "4".into()), ("mode", "localized".into())],
                wall_s: 1.25e-4,
                counters: StatsSnapshot {
                    remote_requests: 4,
                    bulk_requests: 3,
                    batches_sent: 2,
                    ..Default::default()
                },
            }],
        };
        let text = report.to_json();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("schema").and_then(Json::as_u64), Some(SCHEMA_VERSION));
        assert_eq!(parsed.get("area").and_then(Json::as_str), Some("localization"));
        let records = parsed.get("records").and_then(Json::as_arr).unwrap();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.get("id").and_then(Json::as_str), Some("copy/misaligned/p4"));
        // The file holds the area's gated counters and nothing else.
        let counters = r.get("counters").and_then(Json::as_obj).unwrap();
        let held: Vec<(&str, u64)> =
            counters.iter().map(|(k, v)| (k.as_str(), v.as_u64().unwrap())).collect();
        let gated =
            [("bulk_requests", 3), ("element_fallbacks", 0), ("localized_chunks", 0), ("remote_requests", 4)];
        assert_eq!(held, gated);
        assert!(!text.contains("wall_s") && !text.contains("batches_sent"), "{text}");
    }
}
