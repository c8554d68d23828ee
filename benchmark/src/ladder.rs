//! The layer ladder: a fixed set of direct calls into each layer, run in
//! every traced run. Its values do not depend on the workload, which
//! makes them a free repeatability check (four traced runs, four
//! readings), and they put a regression on a rung: `rts.async_rmi_ns`
//! moved, or `core.locate_ns`, not "it got slower".
//!
//! Same estimator as the workloads: each rung is measured once per
//! runtime instance (a fixed number of operations, never adapted to the
//! time they take), and the reported value is the p10 over the
//! instances. Rungs that share a configuration share an instance. The
//! local fast paths run at P=1, everything else at P=2; "per element"
//! means wall time over the global element count. Where only location 0
//! works, location 1 polls in a barrier.

use std::cell::Cell;
use std::time::Instant;

use stapl::algorithms::graph_algos::{bfs, page_rank, AlgoGraph, VProps};
use stapl::algorithms::map_func::{p_copy, p_generate, p_reduce_view, p_sum};
use stapl::algorithms::mapreduce::word_count_kv;
use stapl::algorithms::numeric::p_partial_sum;
use stapl::algorithms::paragraph_algos::p_reduce_pg;
use stapl::algorithms::sorting::p_sort;
use stapl::containers::array::PArray;
use stapl::containers::associative::PHashMap;
use stapl::containers::graph::{Directedness, GraphPartitionKind, PGraph};
use stapl::containers::list::PList;
use stapl::core::interfaces::{
    AssociativeContainer, ElementRead, ElementWrite, PContainer, SegmentedContainer,
};
use stapl::core::mapper::CyclicMapper;
use stapl::core::partition::ExplicitPartition;
use stapl::core::pobject::PObject;
use stapl::paragraph::executor::{ExecPolicy, Executor};
use stapl::paragraph::prange::map_task_graph;
use stapl::rts::{execute, execute_collect, Location, RmiFuture, RtsConfig};
use stapl::views::array_view::{ArrayView, StridedView};
use stapl::views::assoc_view::MapView;
use stapl::views::view::ViewRead;

use crate::estimate::{median, p10};
use crate::harness::{Panicked, Watchdog, P_PAR};
use crate::input::mix;

/// Instances per rung in a full traced run.
const INSTANCES: usize = 12;
const QUICK_INSTANCES: usize = 2;
const WINDOW: usize = 64;

/// Operation counts, divided by this in quick mode.
const QUICK_DIVISOR: usize = 32;

type Samples = Vec<(&'static str, f64)>;
/// Runs one instance and returns one sample per rung.
type Group = fn(usize) -> Samples;

/// Rung values that are not metrics themselves but feed a ratio.
const SERIALIZED_ASYNC_NS: &str = "serialized async_rmi ns";
const PG_BASE_NS: &str = "p_reduce_view ns on the executor's view";

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median wall time of `reps` collective calls of `f`, each entered
/// through a barrier.
fn median_secs(loc: &Location, reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            loc.barrier();
            secs(&mut f)
        })
        .collect();
    median(&times)
}

/// An operation or element count of the full ladder, divided by `div`
/// for the quick one; never less than one window of futures.
fn scaled(div: usize, full: usize) -> usize {
    (full / div).max(WINDOW)
}

/// `async_rmi` to the peer with the instance's aggregation setting, the
/// closing fence included: seconds per request.
fn async_rmi_rung(cfg: RtsConfig, k: usize) -> f64 {
    execute_collect(cfg, P_PAR, |loc| {
        let (h, _cell) = loc.register(Cell::new(0u64));
        loc.rmi_fence();
        loc.barrier();
        secs(|| {
            if loc.id() == 0 {
                for _ in 0..k {
                    loc.async_rmi(1, h, |c: &Cell<u64>, _| c.set(c.get() + 1));
                }
            }
            loc.rmi_fence();
        }) / k as f64
    })[0]
}

fn rts_group(div: usize) -> Samples {
    let (k_sync, k_split) = (scaled(div, 4_000), scaled(div, 64_000));
    let (k_fence, k_barrier, k_allreduce) =
        (scaled(div, 1_000), scaled(div, 4_000), scaled(div, 2_000));
    let mut out = execute_collect(RtsConfig::default(), P_PAR, |loc| {
        let me0 = loc.id() == 0;
        let (h, _cell) = loc.register(Cell::new(0u64));
        loc.rmi_fence();
        let mut out: Samples = Vec::new();

        loc.barrier();
        if me0 {
            let t = secs(|| {
                for _ in 0..k_sync {
                    std::hint::black_box(loc.sync_rmi(1, h, |c: &Cell<u64>, _| c.get()));
                }
            });
            out.push(("rts.sync_rmi_us", t / k_sync as f64 * 1e6));
        }
        loc.barrier();
        if me0 {
            let mut window: Vec<RmiFuture<u64>> = Vec::with_capacity(WINDOW);
            let t = secs(|| {
                for _ in 0..k_split / WINDOW {
                    window.extend(
                        (0..WINDOW).map(|_| loc.split_rmi(1, h, |c: &Cell<u64>, _| c.get())),
                    );
                    window.drain(..).for_each(|f| {
                        std::hint::black_box(f.get());
                    });
                }
            });
            out.push((
                "rts.split_rmi_ns",
                t / (k_split / WINDOW * WINDOW) as f64 * 1e9,
            ));
        }
        loc.barrier();
        let t = secs(|| (0..k_fence).for_each(|_| loc.rmi_fence()));
        out.push(("rts.fence_us", t / k_fence as f64 * 1e6));
        let t = secs(|| (0..k_barrier).for_each(|_| loc.barrier()));
        out.push(("rts.barrier_us", t / k_barrier as f64 * 1e6));
        let t = secs(|| {
            for _ in 0..k_allreduce {
                std::hint::black_box(loc.allreduce_sum(1));
            }
        });
        out.push(("rts.allreduce_us", t / k_allreduce as f64 * 1e6));
        out
    })
    .swap_remove(0);

    let k_async = scaled(div, 200_000);
    out.push((
        "rts.async_rmi_ns",
        async_rmi_rung(RtsConfig::default(), k_async) * 1e9,
    ));
    out.push((
        "rts.async_rmi_agg1_ns",
        async_rmi_rung(RtsConfig::unbuffered(), k_async / 2) * 1e9,
    ));
    out.push((
        SERIALIZED_ASYNC_NS,
        async_rmi_rung(RtsConfig::serialized(), k_async / 2) * 1e9,
    ));
    let spawns: Vec<f64> = (0..5)
        .map(|_| secs(|| execute(RtsConfig::default(), P_PAR, |_| {})))
        .collect();
    out.push(("rts.execute_ms", median(&spawns) * 1e3));
    out
}

fn core_group(div: usize) -> Samples {
    let k_remote = scaled(div, 200_000);
    execute_collect(RtsConfig::default(), P_PAR, |loc| {
        let obj = PObject::register(loc, 0u64);
        loc.rmi_fence();
        loc.barrier();
        let t = secs(|| {
            if loc.id() == 0 {
                (0..k_remote).for_each(|_| obj.invoke_at(1, |c, _| *c.borrow_mut() += 1));
            }
            loc.rmi_fence();
        });
        vec![("core.invoke_remote_ns", t / k_remote as f64 * 1e9)]
    })
    .swap_remove(0)
}

/// The local fast paths, at P=1: these are the calls `solve_p1_s` and
/// `abstraction_cost_x` are made of, and with a second location spinning
/// in a barrier next to them they read 9 or 18 ns by instance (NOISE.md).
fn local_group(div: usize) -> Samples {
    let (k_invoke, k_locate, k_set) = (
        scaled(div, 400_000),
        scaled(div, 1_000_000),
        scaled(div, 200_000),
    );
    let n = scaled(div, 1 << 16);
    execute_collect(RtsConfig::default(), 1, |loc| {
        let (h, _cell) = loc.register(Cell::new(0u64));
        let obj = PObject::register(loc, 0u64);
        let a = PArray::new(loc, n, 0u64);
        loc.rmi_fence();
        let per = |t: f64, k: usize| t / k as f64 * 1e9;
        let bump = |c: &Cell<u64>, _: &Location| c.set(c.get() + 1);
        let mut out: Samples = Vec::new();
        let t = secs(|| (0..k_invoke).for_each(|_| loc.async_rmi(0, h, bump)));
        out.push(("rts.local_invoke_ns", per(t, k_invoke)));
        let t = secs(|| (0..k_invoke).for_each(|_| obj.invoke_at(0, |c, _| *c.borrow_mut() += 1)));
        out.push(("core.invoke_local_ns", per(t, k_invoke)));
        let mut g = 1usize;
        let t = secs(|| {
            for _ in 0..k_locate {
                g = (g * 5 + 1) % n;
                std::hint::black_box(a.locate_element(g));
            }
        });
        out.push(("core.locate_ns", per(t, k_locate)));
        let t = secs(|| (0..k_set).for_each(|i| a.set_element((i * 4099) % n, i as u64)));
        out.push(("containers.parray_set_local_ns", per(t, k_set)));
        out
    })
    .swap_remove(0)
}

fn containers_group(div: usize) -> Samples {
    let n = scaled(div, 1 << 17);
    let (k_set, k_get, k_split, k_map, k_edge, k_push) = (
        scaled(div, 200_000),
        scaled(div, 4_000),
        scaled(div, 64_000),
        scaled(div, 100_000),
        scaled(div, 100_000),
        scaled(div, 200_000),
    );
    let (nv, nmig) = (
        scaled(div, 8_192),
        scaled(div, 1_024).min(scaled(div, 8_192) / 2),
    );
    execute_collect(RtsConfig::default(), P_PAR, |loc| {
        let me0 = loc.id() == 0;
        let mut out: Samples = Vec::new();
        loc.barrier();
        let t0 = Instant::now();
        let a = PArray::new(loc, n, 0u64);
        let h: PHashMap<u64, u64> = PHashMap::new(loc);
        let g: PGraph<u64, ()> =
            PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
        let list: PList<u64> = PList::new(loc);
        loc.rmi_fence();
        out.push(("containers.construct_ms", t0.elapsed().as_secs_f64() * 1e3));

        // Location 0 owns the lower half of `a`.
        let half = n / 2;
        let walk = |i: usize| (i * 4099) % half;
        let t = secs(|| {
            if me0 {
                (0..k_set).for_each(|i| a.set_element(half + walk(i), i as u64));
            }
            loc.rmi_fence();
        });
        out.push(("containers.parray_set_remote_ns", t / k_set as f64 * 1e9));
        if me0 {
            let t = secs(|| {
                for i in 0..k_get {
                    std::hint::black_box(a.get_element(half + walk(i)));
                }
            });
            out.push(("containers.parray_get_remote_us", t / k_get as f64 * 1e6));
            let mut window: Vec<RmiFuture<u64>> = Vec::with_capacity(WINDOW);
            let t = secs(|| {
                for w in 0..k_split / WINDOW {
                    window.extend(
                        (0..WINDOW).map(|j| a.split_get_element(half + walk(w * WINDOW + j))),
                    );
                    window.drain(..).for_each(|f| {
                        std::hint::black_box(f.get());
                    });
                }
            });
            out.push((
                "containers.parray_split_get_ns",
                t / (k_split / WINDOW * WINDOW) as f64 * 1e9,
            ));
        }
        loc.barrier();

        let t = secs(|| {
            if me0 {
                (0..k_map).for_each(|i| h.insert_async(mix(i as u64), i as u64));
            }
            loc.rmi_fence();
        });
        out.push(("containers.passoc_insert_ns", t / k_map as f64 * 1e9));
        if me0 {
            let remote: Vec<u64> = (0..k_map as u64)
                .map(mix)
                .filter(|k| !h.is_local_segment(h.bucket_of(k)))
                .take(k_get)
                .collect();
            let t = secs(|| {
                for k in &remote {
                    std::hint::black_box(h.find(*k));
                }
            });
            out.push(("containers.passoc_find_us", t / remote.len() as f64 * 1e6));
        }
        loc.barrier();

        let mine: Vec<usize> = (0..nv / P_PAR).map(|_| g.add_vertex(0)).collect();
        g.commit();
        let t = secs(|| {
            if me0 {
                for i in 0..k_edge {
                    g.add_edge_async(
                        mix(i as u64) as usize % nv,
                        mix(!(i as u64)) as usize % nv,
                        (),
                    );
                }
            }
            loc.rmi_fence();
        });
        out.push(("containers.pgraph_add_edge_ns", t / k_edge as f64 * 1e9));
        let t = secs(|| {
            if me0 {
                mine[..nmig].iter().for_each(|&v| g.migrate_vertex(v, 1));
            }
            loc.rmi_fence();
        });
        out.push(("containers.pgraph_migrate_us", t / nmig as f64 * 1e6));

        if me0 {
            let t = secs(|| {
                for i in 0..k_push {
                    list.push_anywhere(i as u64);
                }
            });
            out.push(("containers.plist_push_ns", t / k_push as f64 * 1e9));
        }
        loc.barrier();
        out
    })
    .swap_remove(0)
}

fn views_group(div: usize) -> Samples {
    let (n, n_strided, npairs, k_localize) = (
        scaled(div, 1 << 17),
        scaled(div, 1 << 16),
        scaled(div, 1 << 15),
        scaled(div, 20_000),
    );
    execute_collect(RtsConfig::default(), P_PAR, |loc| {
        let mut out: Samples = Vec::new();
        let a = PArray::new(loc, n, 1u64);
        let small = PArray::new(loc, n_strided, 1u64);
        let h: PHashMap<u64, u64> = PHashMap::new(loc);
        for k in crate::workloads::share(npairs, loc.nlocs(), loc.id()) {
            h.insert_async(k as u64, k as u64);
        }
        h.commit();

        let va = ArrayView::new(a.clone());
        let t = median_secs(loc, 5, || {
            std::hint::black_box(p_reduce_view(&va, |_, x| x, |x: u64, y| x.wrapping_add(y)));
        });
        out.push(("views.chunk_ns", t / n as f64 * 1e9));

        let sv = StridedView::new(ArrayView::new(small.clone()), 0, 2);
        let mut copy: Vec<u64> = Vec::with_capacity(sv.len());
        let t = median_secs(loc, 3, || {
            copy.clear();
            sv.for_each_chunk(|_, vals| copy.extend_from_slice(vals));
            loc.barrier();
        });
        std::hint::black_box(&copy);
        out.push(("views.strided_ns", t / sv.len() as f64 * 1e9));

        let t = secs(|| {
            for _ in 0..k_localize {
                std::hint::black_box(ArrayView::new(a.clone()).localize());
            }
        });
        out.push(("views.localize_us", t / k_localize as f64 * 1e6));

        let mv = MapView::new(h.clone());
        let t = median_secs(loc, 5, || {
            let mut acc = 0u64;
            mv.for_each_kv(|k, v| acc = acc.wrapping_add(k ^ v));
            std::hint::black_box(acc);
            loc.barrier();
        });
        out.push(("views.mapview_ns", t / npairs as f64 * 1e9));
        out
    })
    .swap_remove(0)
}

fn algorithms_group(div: usize) -> Samples {
    let (n, nkeys) = (scaled(div, 1 << 17), scaled(div, 1 << 16));
    let (nv, ndocs, words_per_doc, pr_iters) = (scaled(div, 1 << 13), scaled(div, 1 << 10), 64, 3);
    execute_collect(RtsConfig::default(), P_PAR, |loc| {
        let mut out: Samples = Vec::new();
        let a = PArray::new(loc, n, 0u64);
        let b = PArray::new(loc, n, 0u64);
        let c = PArray::with_partition(
            loc,
            Box::new(ExplicitPartition::from_sizes(&[n / 4, n - n / 4])),
            Box::new(CyclicMapper::new(loc.nlocs())),
            0u64,
        );
        let keys = PArray::new(loc, nkeys, 0u64);
        let per = |t: f64, n: usize| t / n as f64 * 1e9;
        out.push((
            "algorithms.p_generate_ns",
            per(median_secs(loc, 7, || p_generate(&a, |g| mix(g as u64))), n),
        ));
        out.push((
            "algorithms.p_copy_ns",
            per(median_secs(loc, 7, || p_copy(&a, &b)), n),
        ));
        out.push((
            "algorithms.p_copy_shifted_ns",
            per(median_secs(loc, 7, || p_copy(&a, &c)), n),
        ));
        let t = median_secs(loc, 7, || {
            std::hint::black_box(p_sum(&a));
        });
        out.push(("algorithms.p_reduce_ns", per(t, n)));
        let t = median_secs(loc, 7, || {
            p_partial_sum(&b, 0u64, |x, y| x.wrapping_add(*y))
        });
        out.push(("algorithms.p_partial_sum_ns", per(t, n)));
        // Sorting sorted keys is a different job: refill before each sort.
        let sorts: Vec<f64> = (0..3u64)
            .map(|r| {
                p_generate(&keys, |g| mix(g as u64 ^ (r << 40)));
                loc.barrier();
                secs(|| p_sort(&keys))
            })
            .collect();
        out.push(("algorithms.p_sort_ns", per(median(&sorts), nkeys)));

        let docs: PHashMap<u64, String> = PHashMap::new(loc);
        for id in crate::workloads::share(ndocs, loc.nlocs(), loc.id()) {
            let text: String = (0..words_per_doc)
                .map(|w| format!("w{} ", mix((id * words_per_doc + w) as u64) % 4096))
                .collect();
            docs.insert_async(id as u64, text);
        }
        docs.commit();
        let view = MapView::new(docs.clone());
        let t = median_secs(loc, 3, || {
            let counts: PHashMap<String, u64> = PHashMap::new(loc);
            word_count_kv(&view, &counts);
        });
        out.push(("algorithms.word_count_ns", per(t, ndocs * words_per_doc)));

        let g: AlgoGraph = PGraph::new_static(loc, nv, Directedness::Directed, VProps::default());
        let nedges = 8 * nv;
        for e in crate::workloads::share(nedges, loc.nlocs(), loc.id()) {
            g.add_edge_async(
                mix(e as u64) as usize % nv,
                mix(!(e as u64)) as usize % nv,
                (),
            );
        }
        g.commit();
        let t = median_secs(loc, 3, || {
            std::hint::black_box(bfs(&g, 0));
        });
        out.push(("algorithms.bfs_ns", per(t, nedges)));
        let t = median_secs(loc, 3, || {
            std::hint::black_box(page_rank(&g, pr_iters, 0.85));
        });
        out.push(("algorithms.page_rank_ns", per(t, nedges * pr_iters)));
        out
    })
    .swap_remove(0)
}

fn paragraph_group(div: usize) -> Samples {
    let (n, ntasks) = (scaled(div, 1 << 16), scaled(div, 1 << 13));
    execute_collect(RtsConfig::default(), P_PAR, |loc| {
        let mut out: Samples = Vec::new();
        let a = PArray::new(loc, n, 1u64);
        let va = ArrayView::new(a.clone());
        let add = |x: u64, y: u64| x.wrapping_add(y);
        let t = median_secs(loc, 3, || {
            std::hint::black_box(p_reduce_pg(&va, ExecPolicy::default(), |_, x| x, add));
        });
        out.push(("paragraph.p_reduce_pg_ns", t / n as f64 * 1e9));
        let t = median_secs(loc, 3, || {
            std::hint::black_box(p_reduce_view(&va, |_, x| x, add));
        });
        out.push((PG_BASE_NS, t / n as f64 * 1e9));

        let tasks = ArrayView::new(PArray::new(loc, ntasks, 0u8));
        let pr = map_task_graph(&tasks, 1);
        let t = median_secs(loc, 3, || {
            Executor::new(&pr, ExecPolicy::default()).run::<(), _>(loc, |_, _| None);
        });
        out.push(("paragraph.task_ns", t / pr.num_tasks() as f64 * 1e9));
        out
    })
    .swap_remove(0)
}

pub struct LadderOut {
    /// (metric name, p10 over instances)
    pub values: Vec<(&'static str, f64)>,
    /// One line per instance that panicked.
    pub failures: Vec<String>,
}

/// Runs every rung in `INSTANCES` fresh instances, groups interleaved
/// round-robin.
pub(crate) fn run(watchdog: &Watchdog, quick: bool) -> LadderOut {
    let groups: [(&str, Group); 7] = [
        ("local", local_group),
        ("rts", rts_group),
        ("core", core_group),
        ("containers", containers_group),
        ("views", views_group),
        ("algorithms", algorithms_group),
        ("paragraph", paragraph_group),
    ];
    let instances = if quick { QUICK_INSTANCES } else { INSTANCES };
    let div = if quick { QUICK_DIVISOR } else { 1 };
    let mut samples: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut failures = Vec::new();
    for round in 0..instances {
        for (name, group) in groups {
            match watchdog.watch(|| group(div)) {
                Ok(rungs) => {
                    for (rung, v) in rungs {
                        match samples.iter_mut().find(|(r, _)| *r == rung) {
                            Some((_, vs)) => vs.push(v),
                            None => samples.push((rung, vec![v])),
                        }
                    }
                }
                Err(Panicked) => {
                    failures.push(format!("ladder {name} #{round}: a location panicked"))
                }
            }
        }
    }
    let p10_of = |rung: &str| {
        samples
            .iter()
            .find(|(r, _)| *r == rung)
            .map(|(_, vs)| p10(vs))
    };
    let mut values: Vec<(&'static str, f64)> = samples
        .iter()
        .filter(|(rung, _)| crate::metrics::find(rung).is_some())
        .map(|(rung, vs)| (*rung, p10(vs)))
        .collect();
    if let (Some(ser), Some(closure)) = (p10_of(SERIALIZED_ASYNC_NS), p10_of("rts.async_rmi_ns")) {
        values.push(("rts.serialized_x", ser / closure));
    }
    if let (Some(pg), Some(base)) = (p10_of("paragraph.p_reduce_pg_ns"), p10_of(PG_BASE_NS)) {
        values.push(("paragraph.pg_overhead_x", pg / base));
    }
    LadderOut { values, failures }
}
