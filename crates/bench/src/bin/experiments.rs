//! Regenerates the tables and figures of the paper's evaluation as
//! paper-style series (scaled to a laptop), and renders the counter
//! harness's areas (`stapl_bench::harness`).
//!
//! Usage (`--list` prints every id and area):
//!   experiments                          # every figure, then the chaos soak
//!   experiments fig31 agg                # some figures
//!   experiments dynamic                  # one area: its records as a table, then its claims
//!   experiments --json DIR               # the areas as BENCH_<area>.json, claims checked

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use stapl_algorithms::prelude::*;
use stapl_bench::harness::{self, Area};
use stapl_bench::{fmt_per_op, fmt_time, time_kernel, time_kernel_nofence, Table, BENCH_SEED};
use stapl_containers::associative::PHashMap;
use stapl_containers::composed::LocalArray;
use stapl_containers::generators::*;
use stapl_containers::graph::{Directedness, GraphPartitionKind, PGraph};
use stapl_containers::list::PList;
use stapl_containers::matrix::PMatrix;
use stapl_containers::vector::PVector;
use stapl_containers::array::{ArrayStorage, PArray};
use stapl_core::interfaces::*;
use stapl_core::mapper::CyclicMapper;
use stapl_core::partition::{BalancedPartition, MatrixLayout};
use stapl_core::thread_safety::*;
use stapl_rts::{RtsConfig, RunTrace};

const PS: [usize; 3] = [1, 2, 4];

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

/// The funnel every execution of this binary goes through — a figure's
/// directly, an area scenario's inside the harness: `harness::run`, which
/// traces when `main` installed [`observe`] and shows it each run's trace.
fn run<R: Send>(cfg: RtsConfig, p: usize, f: impl Fn(&stapl_rts::Location) -> R + Send + Sync) -> R {
    harness::run(cfg, p, f).0
}

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
/// RMI traffic, and the latency quantiles the trace histograms carry.
fn print_run_metrics(run_idx: u64, rt: &RunTrace) {
    use stapl_rts::TraceEventKind;
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
            l.count(TraceEventKind::RmiSend).to_string(),
            l.count(TraceEventKind::RmiExecute).to_string(),
            l.count(TraceEventKind::TaskSpan).to_string(),
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

/// Fig. 27: pArray constructor time for various sizes / location counts.
fn fig27() {
    let mut t = Table::new(
        "Fig. 27: pArray constructor time (total size sweep, per P)",
        &["P", "n", "time", "per elem"],
    );
    for p in PS {
        for n in [100_000usize, 400_000, 1_600_000] {
            let secs = run(RtsConfig::default(), p, move |loc| {
                time_kernel_nofence(loc, || {
                    std::hint::black_box(PArray::new(loc, n, 0u64));
                })
            });
            t.row(vec![p.to_string(), n.to_string(), fmt_time(secs), fmt_per_op(secs, n)]);
        }
    }
    t.print();
}

/// Fig. 28: purely local method invocations for various container sizes.
fn fig28() {
    let mut t = Table::new(
        "Fig. 28: pArray local methods (per-op cost vs container size, P=2)",
        &["n", "set_element", "get_element", "apply_set"],
    );
    for n in [10_000usize, 100_000, 1_000_000] {
        let ops = 50_000usize;
        let (s, g, a) = run(RtsConfig::default(), 2, move |loc| {
            let arr = PArray::new(loc, n, 0u64);
            let lo = loc.id() * (n / loc.nlocs());
            let set = time_kernel(loc, || {
                for k in 0..ops {
                    arr.set_element(lo + k % (n / loc.nlocs()), k as u64);
                }
            });
            let get = time_kernel_nofence(loc, || {
                for k in 0..ops {
                    std::hint::black_box(arr.get_element(lo + k % (n / loc.nlocs())));
                }
            });
            let app = time_kernel(loc, || {
                for k in 0..ops {
                    arr.apply_set(lo + k % (n / loc.nlocs()), |v| *v += 1);
                }
            });
            (set, get, app)
        });
        t.row(vec![
            n.to_string(),
            fmt_per_op(s, ops),
            fmt_per_op(g, ops),
            fmt_per_op(a, ops),
        ]);
    }
    t.print();
}

/// Figs. 29/30: set (async) vs get (sync) vs split-phase get, remote.
fn fig30() {
    let mut t = Table::new(
        "Figs. 29/30: method flavors on remote elements (per-op cost)",
        &["P", "set async", "get sync", "split-phase get (batch 64)"],
    );
    let ops = 20_000usize;
    for p in [2usize, 4] {
        let (s, g, sp) = run(RtsConfig::default(), p, move |loc| {
            let n = 100_000;
            let arr = PArray::new(loc, n, 0u64);
            // Remote victim indices: owned by the next location.
            let peer_lo = ((loc.id() + 1) % loc.nlocs()) * (n / loc.nlocs());
            let set = time_kernel(loc, || {
                for k in 0..ops {
                    arr.set_element(peer_lo + k % 1000, k as u64);
                }
            });
            let get = time_kernel_nofence(loc, || {
                for k in 0..ops / 10 {
                    std::hint::black_box(arr.get_element(peer_lo + k % 1000));
                }
            });
            let split = time_kernel_nofence(loc, || {
                let mut futs = Vec::with_capacity(64);
                for k in 0..ops / 10 {
                    futs.push(arr.split_get_element(peer_lo + k % 1000));
                    if futs.len() == 64 {
                        for f in futs.drain(..) {
                            std::hint::black_box(f.get());
                        }
                    }
                }
                for f in futs {
                    std::hint::black_box(f.get());
                }
            });
            (set, get, split)
        });
        t.row(vec![
            p.to_string(),
            fmt_per_op(s, ops),
            fmt_per_op(g, ops / 10),
            fmt_per_op(sp, ops / 10),
        ]);
    }
    t.print();
}

/// Fig. 31: per-op cost as the fraction of remote invocations grows.
fn fig31() {
    let mut t = Table::new(
        "Fig. 31: pArray set_element vs %% remote invocations (P=2)",
        &["% remote", "per op", "slowdown vs 0%"],
    );
    let ops = 40_000usize;
    let mut base = 0.0f64;
    for pct in [0usize, 25, 50, 75, 100] {
        let secs = run(RtsConfig::default(), 2, move |loc| {
            let n = 100_000;
            let arr = PArray::new(loc, n, 0u64);
            let half = n / loc.nlocs();
            let my_lo = loc.id() * half;
            let peer_lo = (loc.id() + 1) % loc.nlocs() * half;
            let mut rng = StdRng::seed_from_u64(BENCH_SEED + 7 + loc.id() as u64);
            let idx: Vec<usize> = (0..ops)
                .map(|k| {
                    if rng.random_range(0..100) < pct {
                        peer_lo + k % half
                    } else {
                        my_lo + k % half
                    }
                })
                .collect();
            time_kernel(loc, || {
                for (k, i) in idx.iter().enumerate() {
                    arr.set_element(*i, k as u64);
                }
            })
        });
        if pct == 0 {
            base = secs;
        }
        t.row(vec![
            pct.to_string(),
            fmt_per_op(secs, ops),
            format!("{:.1}x", secs / base),
        ]);
    }
    t.print();
}

/// Fig. 32: local vs remote per-op cost across container sizes.
fn fig32() {
    let mut t = Table::new(
        "Fig. 32: local vs remote set_element across sizes (P=2)",
        &["n", "local", "remote", "remote/local"],
    );
    let ops = 30_000usize;
    for n in [10_000usize, 100_000, 1_000_000] {
        let (l, r) = run(RtsConfig::default(), 2, move |loc| {
            let arr = PArray::new(loc, n, 0u64);
            let half = n / loc.nlocs();
            let my_lo = loc.id() * half;
            let peer_lo = (loc.id() + 1) % loc.nlocs() * half;
            let local = time_kernel(loc, || {
                for k in 0..ops {
                    arr.set_element(my_lo + k % half, k as u64);
                }
            });
            let remote = time_kernel(loc, || {
                for k in 0..ops {
                    arr.set_element(peer_lo + k % half, k as u64);
                }
            });
            (local, remote)
        });
        t.row(vec![
            n.to_string(),
            fmt_per_op(l, ops),
            fmt_per_op(r, ops),
            format!("{:.1}x", r / l),
        ]);
    }
    t.print();
}

/// Fig. 33: generic algorithms on pArray, weak scaling (N per location
/// fixed).
fn fig33() {
    let mut t = Table::new(
        "Fig. 33: generic algorithms on pArray (weak scaling, 200k/loc)",
        &["P", "p_generate", "p_for_each", "p_accumulate", "per-elem for_each"],
    );
    let per = 200_000usize;
    for p in PS {
        let n = per * p;
        let (tg, tf, ta) = run(RtsConfig::default(), p, move |loc| {
            let arr = PArray::new(loc, n, 0u64);
            let tg = time_kernel_nofence(loc, || p_generate(&arr, |i| i as u64));
            let tf = time_kernel_nofence(loc, || p_for_each(&arr, |v| *v += 1));
            let ta = time_kernel_nofence(loc, || {
                std::hint::black_box(p_sum(&arr));
            });
            (tg, tf, ta)
        });
        t.row(vec![
            p.to_string(),
            fmt_time(tg),
            fmt_time(tf),
            fmt_time(ta),
            fmt_per_op(tf, n),
        ]);
    }
    t.print();
}

/// Fig. 34 + Tables XXII/XXIII: memory consumption, measured vs
/// theoretical, contiguous vs per-element allocation.
fn fig34() {
    let mut t = Table::new(
        "Fig. 34 / Tables XXII-XXIII: pArray memory (P=2, u64 elements)",
        &["n", "storage", "data B", "metadata B", "theoretical B", "data/theory"],
    );
    for n in [10_000usize, 100_000] {
        for (name, storage) in [("contiguous", ArrayStorage::Contiguous), ("boxed", ArrayStorage::Boxed)] {
            let m = run(RtsConfig::default(), 2, move |loc| {
                let arr = PArray::with_options(
                    loc,
                    Box::new(BalancedPartition::new(n, loc.nlocs())),
                    Box::new(CyclicMapper::new(loc.nlocs())),
                    0u64,
                    storage,
                    ThreadSafety::unlocked(),
                );
                arr.memory_size()
            });
            let theory = n * std::mem::size_of::<u64>();
            t.row(vec![
                n.to_string(),
                name.into(),
                m.data.to_string(),
                m.metadata.to_string(),
                theory.to_string(),
                format!("{:.2}x", m.data as f64 / theory as f64),
            ]);
        }
    }
    t.print();
}

/// Fig. 39: pList method costs.
fn fig39() {
    let mut t = Table::new(
        "Fig. 39: pList methods (per-op cost, P=2)",
        &["method", "per op"],
    );
    let ops = 30_000usize;
    let (anywhere, back, insert, erase) = run(RtsConfig::default(), 2, move |loc| {
        let l: PList<u64> = PList::new(loc);
        let t_any = time_kernel(loc, || {
            for k in 0..ops {
                l.push_anywhere(k as u64);
            }
        });
        let t_back = time_kernel(loc, || {
            for k in 0..ops / 10 {
                PList::push_back(&l, k as u64);
            }
        });
        let anchor = l.push_anywhere(0);
        loc.rmi_fence();
        let t_ins = time_kernel(loc, || {
            for k in 0..ops / 10 {
                SequenceContainer::insert_before_async(&l, anchor, k as u64);
            }
        });
        let gids: Vec<_> = {
            let mut v = Vec::new();
            l.for_each_local(|g, _| v.push(g));
            v
        };
        let t_er = time_kernel(loc, || {
            for g in gids.iter().take(ops / 10) {
                SequenceContainer::erase_async(&l, *g);
            }
        });
        (t_any, t_back, t_ins, t_er)
    });
    t.row(vec!["push_anywhere (local)".into(), fmt_per_op(anywhere, ops)]);
    t.row(vec!["push_back (global end)".into(), fmt_per_op(back, ops / 10)]);
    t.row(vec!["insert_before (async)".into(), fmt_per_op(insert, ops / 10)]);
    t.row(vec!["erase (async)".into(), fmt_per_op(erase, ops / 10)]);
    t.print();
}

/// Fig. 40: the same generic algorithms on pArray vs pList.
fn fig40() {
    let mut t = Table::new(
        "Fig. 40: p_generate / p_for_each / p_accumulate — pArray vs pList (100k/loc, P=2)",
        &["container", "p_generate", "p_for_each", "p_accumulate"],
    );
    let per = 100_000usize;
    let (ag, af, aa) = run(RtsConfig::default(), 2, move |loc| {
        let arr = PArray::new(loc, per * loc.nlocs(), 0u64);
        (
            time_kernel_nofence(loc, || p_generate(&arr, |i| i as u64)),
            time_kernel_nofence(loc, || p_for_each(&arr, |v| *v += 1)),
            time_kernel_nofence(loc, || {
                std::hint::black_box(p_sum(&arr));
            }),
        )
    });
    let (lg, lf, la) = run(RtsConfig::default(), 2, move |loc| {
        let l: PList<u64> = PList::new(loc);
        for k in 0..per {
            l.push_anywhere(k as u64);
        }
        l.commit();
        (
            time_kernel_nofence(loc, || {
                l.for_each_local_mut(|_, v| *v = 1);
                loc.barrier();
            }),
            time_kernel_nofence(loc, || p_for_each(&l, |v| *v += 1)),
            time_kernel_nofence(loc, || {
                std::hint::black_box(p_reduce(&l, |_, v| *v, |a, b| a + b));
            }),
        )
    });
    t.row(vec!["pArray".into(), fmt_time(ag), fmt_time(af), fmt_time(aa)]);
    t.row(vec!["pList".into(), fmt_time(lg), fmt_time(lf), fmt_time(la)]);
    t.print();
}

/// Fig. 41: placement on the same node vs different nodes (node model).
fn fig41() {
    let mut t = Table::new(
        "Fig. 41: p_for_each + fence, same-node vs cross-node placement (P=4)",
        &["placement", "time", "note"],
    );
    let per = 100_000usize;
    for (name, cfg) in [
        ("same node", RtsConfig::default()),
        ("different nodes", RtsConfig::clustered(1, 30_000, 300)),
    ] {
        let secs = run(cfg, 4, move |loc| {
            let arr = PArray::new(loc, per * loc.nlocs(), 0u64);
            time_kernel_nofence(loc, || p_for_each(&arr, |v| *v += 1))
        });
        t.row(vec![name.into(), fmt_time(secs), "fence crosses the interconnect".into()]);
    }
    t.print();
}

/// Fig. 42: pList vs pVector under a mixed read/write/insert/delete load.
fn fig42() {
    let mut t = Table::new(
        "Fig. 42: pList vs pVector, mixed operations (40k ops/loc, P=2)",
        &["% insert+delete", "pList", "pVector", "winner"],
    );
    let ops = 40_000usize;
    let n0 = 20_000usize;
    for dyn_pct in [0usize, 20, 50] {
        let list_t = run(RtsConfig::default(), 2, move |loc| {
            let l: PList<u64> = PList::new(loc);
            let mut gids: Vec<_> = (0..n0 / 2).map(|k| l.push_anywhere(k as u64)).collect();
            loc.rmi_fence();
            let mut rng = StdRng::seed_from_u64(BENCH_SEED + 3 + loc.id() as u64);
            time_kernel(loc, || {
                for k in 0..ops {
                    let g = gids[rng.random_range(0..gids.len())];
                    if rng.random_range(0..100) < dyn_pct {
                        if k % 2 == 0 {
                            gids.push(l.push_anywhere(k as u64));
                        } else {
                            SequenceContainer::erase_async(&l, g);
                        }
                    } else if k % 2 == 0 {
                        l.set_element(g, k as u64);
                    } else {
                        std::hint::black_box(l.try_get(g));
                    }
                }
            })
        });
        let vec_t = run(RtsConfig::default(), 2, move |loc| {
            let v: PVector<u64> = PVector::new(loc, n0, 0);
            let mut rng = StdRng::seed_from_u64(BENCH_SEED + 3 + loc.id() as u64);
            time_kernel(loc, || {
                for k in 0..ops {
                    let i = rng.random_range(0..n0);
                    if rng.random_range(0..100) < dyn_pct {
                        if k % 2 == 0 {
                            v.insert_async(i, k as u64);
                        } else {
                            v.erase_async(i);
                        }
                    } else if k % 2 == 0 {
                        v.set_element(i, k as u64);
                    } else {
                        std::hint::black_box(v.get_element(i));
                    }
                }
            })
        });
        let winner = if list_t < vec_t { "pList" } else { "pVector" };
        t.row(vec![
            dyn_pct.to_string(),
            fmt_time(list_t),
            fmt_time(vec_t),
            winner.into(),
        ]);
    }
    t.print();
}

/// Fig. 43: Euler tour weak scaling (tree vertices per location fixed).
fn fig43() {
    let mut t = Table::new(
        "Fig. 43: Euler tour weak scaling (8k vertices/loc)",
        &["P", "n", "time", "per arc"],
    );
    for p in PS {
        let n = 8_000 * p;
        let secs = run(RtsConfig::default(), p, move |loc| {
            let g: PGraph<(), ()> = PGraph::new_static(loc, n, Directedness::Undirected, ());
            fill_binary_tree(loc, &g, ());
            time_kernel_nofence(loc, || {
                std::hint::black_box(euler_tour(&g, 0));
            })
        });
        t.row(vec![p.to_string(), n.to_string(), fmt_time(secs), fmt_per_op(secs, 2 * (n - 1))]);
    }
    t.print();
}

/// Fig. 44: Euler tour applications for two tree sizes.
fn fig44() {
    let mut t = Table::new(
        "Fig. 44: Euler tour + applications (P=2)",
        &["n", "tour", "tour+apps"],
    );
    for n in [8_000usize, 16_000] {
        let (tt, ta) = run(RtsConfig::default(), 2, move |loc| {
            let g: PGraph<(), ()> = PGraph::new_static(loc, n, Directedness::Undirected, ());
            fill_binary_tree(loc, &g, ());
            let tt = time_kernel_nofence(loc, || {
                std::hint::black_box(euler_tour(&g, 0));
            });
            let ta = time_kernel_nofence(loc, || {
                std::hint::black_box(euler_applications(&g, 0));
            });
            (tt, ta)
        });
        t.row(vec![n.to_string(), fmt_time(tt), fmt_time(ta)]);
    }
    t.print();
}

/// Figs. 49/50: pGraph method costs with the SSCA2 generator, static vs
/// dynamic partitions.
fn fig49() {
    let mut t = Table::new(
        "Figs. 49/50: pGraph add_edge with SSCA2 workload (4k vertices, P=2)",
        &["partition", "edges", "build time", "per edge"],
    );
    let n = 4_000usize;
    for kind in [None, Some(GraphPartitionKind::DynamicFwd), Some(GraphPartitionKind::DynamicTwoPhase)] {
        let (secs, edges) = run(RtsConfig::default(), 2, move |loc| {
            let g = match kind {
                None => static_digraph(loc, n),
                Some(k) => dynamic_digraph_with_vertices(loc, n, k),
            };
            let params = Ssca2Params { n, max_clique_size: 8, inter_clique_prob: 0.05, seed: BENCH_SEED + 42 };
            let secs = time_kernel_nofence(loc, || {
                fill_ssca2(loc, &g, &params, ());
            });
            (secs, g.num_edges())
        });
        let name = match kind {
            None => "static",
            Some(GraphPartitionKind::DynamicFwd) => "dynamic + forwarding",
            _ => "dynamic, two-phase",
        };
        t.row(vec![name.into(), edges.to_string(), fmt_time(secs), fmt_per_op(secs, edges)]);
    }
    t.print();
}

/// Fig. 51: find-sources under the three address-resolution strategies.
fn fig51() {
    let mut t = Table::new(
        "Fig. 51: find_sources — static vs dynamic(fwd) vs dynamic(no fwd) (P=2)",
        &["partition", "n", "time", "sources"],
    );
    for kind in [None, Some(GraphPartitionKind::DynamicFwd), Some(GraphPartitionKind::DynamicTwoPhase)] {
        for n in [2_000usize, 8_000] {
            let (secs, ns) = run(RtsConfig::default(), 2, move |loc| {
                let g: AlgoGraph = match kind {
                    None => PGraph::new_static(loc, n, Directedness::Directed, VProps::default()),
                    Some(k) => {
                        let g = PGraph::new_dynamic(loc, Directedness::Directed, k);
                        let per = n.div_ceil(loc.nlocs());
                        for vd in loc.id() * per..((loc.id() + 1) * per).min(n) {
                            g.add_vertex_with_descriptor(vd, VProps::default());
                        }
                        g.commit();
                        g
                    }
                };
                fill_dag_with_sources(loc, &g, 4, 0.2, 9, ());
                let mut count = 0;
                let secs = time_kernel_nofence(loc, || {
                    count = find_sources(&g).len();
                });
                (secs, count)
            });
            let name = match kind {
                None => "static",
                Some(GraphPartitionKind::DynamicFwd) => "dynamic + forwarding",
                _ => "dynamic, two-phase",
            };
            t.row(vec![name.into(), n.to_string(), fmt_time(secs), ns.to_string()]);
        }
    }
    t.print();
}

/// Fig. 52: partition comparison on a traversal workload.
fn fig52() {
    let mut t = Table::new(
        "Fig. 52: pGraph partitions compared on BFS (4k vertices, P=2)",
        &["partition", "bfs time"],
    );
    for kind in [None, Some(GraphPartitionKind::DynamicFwd), Some(GraphPartitionKind::DynamicTwoPhase)] {
        let secs = run(RtsConfig::default(), 2, move |loc| {
            let n = 4_000;
            let g: AlgoGraph = match kind {
                None => PGraph::new_static(loc, n, Directedness::Directed, VProps::default()),
                Some(k) => {
                    let g = PGraph::new_dynamic(loc, Directedness::Directed, k);
                    let per = n / loc.nlocs();
                    for vd in loc.id() * per..(loc.id() + 1) * per {
                        g.add_vertex_with_descriptor(vd, VProps::default());
                    }
                    g.commit();
                    g
                }
            };
            fill_mesh(loc, &g, 40, 100, ());
            time_kernel_nofence(loc, || {
                std::hint::black_box(bfs(&g, 0));
            })
        });
        let name = match kind {
            None => "static",
            Some(GraphPartitionKind::DynamicFwd) => "dynamic + forwarding",
            _ => "dynamic, two-phase",
        };
        t.row(vec![name.into(), fmt_time(secs)]);
    }
    t.print();
}

/// Figs. 53/54/55: pGraph algorithm suite, weak scaling.
fn fig53() {
    let mut t = Table::new(
        "Figs. 53-55: pGraph algorithms (weak scaling, 2k vertices/loc, SSCA2)",
        &["P", "n", "find_sources", "BFS", "CC", "PageRank(5)"],
    );
    for p in PS {
        let n = 2_000 * p;
        let (fs, b, cc, pr) = run(RtsConfig::default(), p, move |loc| {
            let g: AlgoGraph =
                PGraph::new_static(loc, n, Directedness::Directed, VProps::default());
            let params = Ssca2Params { n, max_clique_size: 6, inter_clique_prob: 0.1, seed: BENCH_SEED + 5 };
            fill_ssca2(loc, &g, &params, ());
            let fs = time_kernel_nofence(loc, || {
                std::hint::black_box(find_sources(&g));
            });
            let b = time_kernel_nofence(loc, || {
                std::hint::black_box(bfs(&g, 0));
            });
            let cc = time_kernel_nofence(loc, || {
                std::hint::black_box(connected_components(&g));
            });
            let pr = time_kernel_nofence(loc, || {
                std::hint::black_box(page_rank(&g, 5, 0.85));
            });
            (fs, b, cc, pr)
        });
        t.row(vec![
            p.to_string(),
            n.to_string(),
            fmt_time(fs),
            fmt_time(b),
            fmt_time(cc),
            fmt_time(pr),
        ]);
    }
    t.print();
}

/// Fig. 56: PageRank on square vs skinny meshes.
fn fig56() {
    let mut t = Table::new(
        "Fig. 56: PageRank, square vs skinny mesh (10 iters, P=2)",
        &["mesh", "boundary verts", "time"],
    );
    for (rows, cols) in [(100usize, 100usize), (10, 1000)] {
        let (secs, boundary) = run(RtsConfig::default(), 2, move |loc| {
            let g: AlgoGraph =
                PGraph::new_static(loc, rows * cols, Directedness::Directed, VProps::default());
            fill_mesh(loc, &g, rows, cols, ());
            let bv = stapl_views::graph_view::GraphView::boundary(g.clone());
            let boundary = loc.allreduce_sum(bv.local_len() as u64);
            let secs = time_kernel_nofence(loc, || {
                std::hint::black_box(page_rank(&g, 10, 0.85));
            });
            (secs, boundary)
        });
        t.row(vec![format!("{rows}x{cols}"), boundary.to_string(), fmt_time(secs)]);
    }
    t.print();
}

/// Fig. 59: MapReduce word count, weak scaling.
fn fig59() {
    let mut t = Table::new(
        "Fig. 59: MapReduce word count (100k words/loc, zipf vocab 20k)",
        &["P", "total words", "distinct", "time", "per word"],
    );
    for p in PS {
        let words = 100_000usize;
        let (secs, distinct) = run(RtsConfig::default(), p, move |loc| {
            let text = synthetic_corpus(loc, words, 20_000, BENCH_SEED);
            let mut out = 0;
            let secs = time_kernel_nofence(loc, || {
                let counts = word_count(loc, &text);
                out = counts.global_size();
            });
            (secs, out)
        });
        t.row(vec![
            p.to_string(),
            (words * p).to_string(),
            distinct.to_string(),
            fmt_time(secs),
            fmt_per_op(secs, words * p),
        ]);
    }
    t.print();
}

/// Fig. 60: generic algorithms over associative containers.
fn fig60() {
    let mut t = Table::new(
        "Fig. 60: generic algorithms on pHashMap (weak scaling, 50k pairs/loc)",
        &["P", "insert (async)", "p_count_if", "find (sync, local keys)"],
    );
    for p in PS {
        let per = 50_000usize;
        let (ti, tc, tf) = run(RtsConfig::default(), p, move |loc| {
            let m: PHashMap<u64, u64> = PHashMap::new(loc);
            let base = (loc.id() as u64) << 32;
            let ti = time_kernel(loc, || {
                for k in 0..per as u64 {
                    m.insert_async(base | k, k);
                }
            });
            m.commit();
            let mut local_keys = Vec::new();
            m.for_each_local(|k, _| local_keys.push(*k));
            let tc = time_kernel_nofence(loc, || {
                let mut n = 0u64;
                m.for_each_local(|_, v| {
                    if *v % 2 == 0 {
                        n += 1;
                    }
                });
                std::hint::black_box(loc.allreduce_sum(n));
            });
            let tf = time_kernel_nofence(loc, || {
                for k in local_keys.iter().take(per / 5) {
                    std::hint::black_box(m.find(*k));
                }
            });
            (ti, tc, tf)
        });
        t.row(vec![
            p.to_string(),
            fmt_per_op(ti, per),
            fmt_time(tc),
            fmt_per_op(tf, per / 5),
        ]);
    }
    t.print();
}

/// Fig. 62: composed containers vs pMatrix on row-min.
fn fig62() {
    let mut t = Table::new(
        "Fig. 62: row-min — pArray<pArray> vs pList<pArray> vs pMatrix (512x256)",
        &["P", "pArray<pArray>", "pList<pArray>", "pMatrix rows"],
    );
    const ROWS: usize = 512;
    const COLS: usize = 256;
    for p in [1usize, 2, 4] {
        let (ta, tl, tm) = run(RtsConfig::default(), p, move |loc| {
            let pa: PArray<LocalArray<i64>> =
                PArray::from_fn(loc, ROWS, |r| LocalArray::from_fn(COLS, move |c| ((r * 13 + c) % 97) as i64));
            let ta = time_kernel_nofence(loc, || {
                let mut best = i64::MAX;
                pa.for_each_local(|_, row| best = best.min(*row.iter().min().unwrap()));
                std::hint::black_box(loc.allreduce(best, i64::min));
            });
            let pl: PList<LocalArray<i64>> = PList::new(loc);
            for r in 0..ROWS {
                if r % loc.nlocs() == loc.id() {
                    pl.push_anywhere(LocalArray::from_fn(COLS, move |c| ((r * 13 + c) % 97) as i64));
                }
            }
            pl.commit();
            let tl = time_kernel_nofence(loc, || {
                let mut best = i64::MAX;
                pl.for_each_local(|_, row| best = best.min(*row.iter().min().unwrap()));
                std::hint::black_box(loc.allreduce(best, i64::min));
            });
            let m = PMatrix::from_fn(loc, ROWS, COLS, MatrixLayout::RowBlocked, |r, c| {
                ((r * 13 + c) % 97) as i64
            });
            let rows_view = stapl_views::matrix_view::RowsView::new(m);
            let tm = time_kernel_nofence(loc, || {
                let mut best = i64::MAX;
                for rr in rows_view.local_rows() {
                    for r in rr.iter() {
                        best = best.min(rows_view.read_row(r).into_iter().min().unwrap());
                    }
                }
                std::hint::black_box(loc.allreduce(best, i64::min));
            });
            (ta, tl, tm)
        });
        t.row(vec![p.to_string(), fmt_time(ta), fmt_time(tl), fmt_time(tm)]);
    }
    t.print();
}

/// Ablation: RMI aggregation factor (the RTS bandwidth optimization).
fn agg() {
    let mut t = Table::new(
        "Ablation: aggregation factor vs remote async cost (P=2, 40k ops)",
        &["aggregation", "per op", "batches"],
    );
    let ops = 40_000usize;
    for a in [1usize, 4, 16, 64, 256] {
        let (secs, batches) = run(RtsConfig::with_aggregation(a), 2, move |loc| {
            let arr = PArray::new(loc, 100_000, 0u64);
            let peer_lo = (loc.id() + 1) % loc.nlocs() * 50_000;
            let before = loc.stats().batches_sent;
            let secs = time_kernel(loc, || {
                for k in 0..ops {
                    arr.set_element(peer_lo + k % 50_000, k as u64);
                }
            });
            (secs, loc.stats().batches_sent - before)
        });
        t.row(vec![a.to_string(), fmt_per_op(secs, ops), batches.to_string()]);
    }
    t.print();
}

/// Ablation: thread-safety manager overhead on the method fast path.
fn ths() {
    let mut t = Table::new(
        "Ablation: thread-safety manager overhead (local set_element, P=2)",
        &["manager", "per op"],
    );
    let ops = 100_000usize;
    let managers: Vec<(&str, std::sync::Arc<dyn ThreadSafetyManager>)> = vec![
        ("NoLock", std::sync::Arc::new(NoLockManager)),
        ("GlobalMutex", std::sync::Arc::new(GlobalMutexManager::default())),
        ("HashedLocks(64)", std::sync::Arc::new(HashedLockManager::new(64))),
        ("RwLock", std::sync::Arc::new(RwLockManager::default())),
    ];
    for (name, mgr) in managers {
        let secs = run(RtsConfig::default(), 2, move |loc| {
            let ths = ThreadSafety::new(LockingPolicyTable::dynamic_default(), mgr.clone());
            let arr = PArray::with_options(
                loc,
                Box::new(BalancedPartition::new(100_000, loc.nlocs())),
                Box::new(CyclicMapper::new(loc.nlocs())),
                0u64,
                ArrayStorage::Contiguous,
                ths,
            );
            let lo = loc.id() * 50_000;
            time_kernel(loc, || {
                for k in 0..ops {
                    arr.set_element(lo + k % 50_000, k as u64);
                }
            })
        });
        t.row(vec![name.into(), fmt_per_op(secs, ops)]);
    }
    t.print();
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
    // run() result carries all of them) plus the kernel counter delta.
    let soak = |p: usize, cfg: RtsConfig| -> (f64, Vec<Vec<u64>>, StatsSnapshot) {
        run(cfg, p, move |loc| {
            let nlocs = loc.nlocs();
            let me = loc.id();
            let (h, rep) = loc.register(RefCell::new(0u64));
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

/// Every printer that is not an area table, in report order: the paper's
/// figures, the two ablations, and the chaos soak (which shadows the
/// `chaos` area's table — see [`chaos_exp`]).
const EXPERIMENTS: &[(&str, fn())] = &[
    ("fig27", fig27),
    ("fig28", fig28),
    ("fig30", fig30),
    ("fig31", fig31),
    ("fig32", fig32),
    ("fig33", fig33),
    ("fig34", fig34),
    ("fig39", fig39),
    ("fig40", fig40),
    ("fig41", fig41),
    ("fig42", fig42),
    ("fig43", fig43),
    ("fig44", fig44),
    ("fig49", fig49),
    ("fig51", fig51),
    ("fig52", fig52),
    ("fig53", fig53),
    ("fig56", fig56),
    ("fig59", fig59),
    ("fig60", fig60),
    ("fig62", fig62),
    ("agg", agg),
    ("ths", ths),
    ("chaos", chaos_exp),
];

/// An area by its CLI spelling: its name, or `localize` — the id CI and the
/// README have always used for `localization`.
fn cli_area(name: &str) -> Option<&'static Area> {
    harness::area(if name == "localize" { "localization" } else { name })
}

/// What an id on the command line runs: a printer, else an area's table.
enum Pick {
    Printer(fn()),
    Table(&'static Area),
}

fn pick(name: &str) -> Option<Pick> {
    let printer = EXPERIMENTS.iter().find(|(n, _)| *n == name).map(|(_, f)| Pick::Printer(*f));
    printer.or_else(|| cli_area(name).map(Pick::Table))
}

fn ids() -> String {
    EXPERIMENTS.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ")
}

fn areas() -> String {
    harness::AREAS.iter().map(|a| a.name).collect::<Vec<_>>().join(" ")
}

fn list_experiments() {
    println!("experiments: {}", ids());
    println!("areas (a table + its claims; --json): {}", areas());
}

const USAGE: &str = "usage: experiments [--trace FILE] [--metrics] [all | <id|area>...] \
     | --list | --json DIR [<area>...] | --validate-trace FILE";

fn usage_error(msg: &str) -> ! {
    eprintln!("experiments: {msg}");
    eprintln!("{USAGE}");
    eprintln!("  ids: {}", ids());
    eprintln!("  areas: {} (--json: default all)", areas());
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
            if names.iter().any(|n| n == "all") {
                if names.len() > 1 {
                    usage_error("'all' cannot be combined with other ids");
                }
                names.clear();
            }
            if names.is_empty() {
                // Everything: each printer, then each area table no printer shadows.
                names = EXPERIMENTS.iter().map(|(n, _)| n.to_string()).collect();
                let tables = harness::AREAS.iter().map(|a| a.name.to_string());
                names.extend(tables.filter(|a| EXPERIMENTS.iter().all(|(n, _)| n != a)));
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
                    Pick::Printer(f) => f(),
                    Pick::Table(area) => area_table(area),
                }
            }
        }
    }
    if let Some(path) = &trace_path {
        write_chrome_trace(path);
    }
}
