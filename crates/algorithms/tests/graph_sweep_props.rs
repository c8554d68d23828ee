//! Property test for `PGraph::scatter`: the four graph algorithms, whose
//! relaxations are one scatter per round, equal a model that routes every
//! relaxation through `apply_vertex` — one closure per edge, kept here as
//! the reference. On seeded random graphs, P = 1..3 and every
//! `GraphPartitionKind`, with vertices migrated on the dynamic kinds so
//! that a target is local, remote at a cached owner, or resolved through
//! its home (forwarded, or looked up under two-phase resolution), both
//! return the same results, leave the same levels, labels and in-degrees
//! on every vertex, and send the same traffic. At P = 1 the ranks match
//! bit for bit. At P > 1 they agree within 1e-12: a peer released first
//! from a barrier may deliver its next round's pushes while this location
//! still polls in it, ahead of this location's own, so two runs of either
//! side sum in their own orders. Seeded, so a failure names a case that
//! reproduces.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use stapl_algorithms::graph_algos::{
    bfs, connected_components, find_sources, page_rank, AlgoGraph, VProps,
};
use stapl_containers::graph::{Directedness, GraphPartitionKind, PGraph, VertexDesc};
use stapl_core::interfaces::PContainer;
use stapl_rts::{execute, Location, RtsConfig};

const CASES: u64 = 40;

/// The reference: each algorithm collects its round's relaxations as
/// (target, value) pairs, then routes each through `apply_vertex`.
mod model {
    use super::*;

    pub fn find_sources(g: &AlgoGraph) -> Vec<VertexDesc> {
        let loc = g.location().clone();
        g.for_each_local_vertex_mut(|v| v.property.indeg = 0);
        loc.barrier();
        let mut targets: Vec<VertexDesc> = Vec::new();
        g.for_each_local_vertex(|v| targets.extend(v.edges.iter().map(|e| e.target)));
        for t in targets {
            g.apply_vertex(t, |tv| tv.property.indeg += 1);
        }
        loc.rmi_fence();
        let mut local_sources: Vec<VertexDesc> = Vec::new();
        g.for_each_local_vertex(|v| {
            if v.property.indeg == 0 {
                local_sources.push(v.descriptor);
            }
        });
        let mut all = loc.allreduce(local_sources, |mut a, mut b| {
            a.append(&mut b);
            a
        });
        all.sort_unstable();
        all
    }

    pub fn bfs(g: &AlgoGraph, root: VertexDesc) -> (usize, usize) {
        let loc = g.location().clone();
        g.for_each_local_vertex_mut(|v| v.property.level = -1);
        loc.barrier();
        g.apply_vertex(root, |v| v.property.level = 0);
        loc.rmi_fence();
        let mut round: i64 = 0;
        let mut targets: Vec<VertexDesc> = Vec::new();
        loop {
            targets.clear();
            g.for_each_local_vertex(|v| {
                if v.property.level == round {
                    targets.extend(v.edges.iter().map(|e| e.target));
                }
            });
            let next = round + 1;
            for &t in &targets {
                g.apply_vertex(t, move |tv| {
                    if tv.property.level < 0 {
                        tv.property.level = next;
                    }
                });
            }
            loc.rmi_fence();
            let mut discovered = 0u64;
            g.for_each_local_vertex(|v| {
                if v.property.level == next {
                    discovered += 1;
                }
            });
            if loc.allreduce_sum(discovered) == 0 {
                break;
            }
            round += 1;
        }
        let mut reached = 0u64;
        g.for_each_local_vertex(|v| {
            if v.property.level >= 0 {
                reached += 1;
            }
        });
        (loc.allreduce_sum(reached) as usize, (round + 1) as usize)
    }

    /// Collects its pushes where the library reads its labels: after a
    /// round's fence, before the allreduce that decides whether the next
    /// round runs.
    pub fn connected_components(g: &AlgoGraph) -> usize {
        let loc = g.location().clone();
        g.for_each_local_vertex_mut(|v| {
            v.property.comp = v.descriptor as u64;
            v.property.acc = 0.0;
        });
        let mut pushes: Vec<(VertexDesc, u64)> = Vec::new();
        let collect = |pushes: &mut Vec<(VertexDesc, u64)>| {
            pushes.clear();
            g.for_each_local_vertex(|v| {
                for e in &v.edges {
                    pushes.push((e.target, v.property.comp));
                }
            });
        };
        collect(&mut pushes);
        loc.barrier();
        loop {
            for &(t, label) in &pushes {
                g.apply_vertex(t, move |tv| {
                    if label < tv.property.comp {
                        tv.property.comp = label;
                        tv.property.acc = 1.0;
                    }
                });
            }
            loc.rmi_fence();
            let mut changed = 0u64;
            g.for_each_local_vertex_mut(|v| {
                changed += v.property.acc as u64;
                v.property.acc = 0.0;
            });
            collect(&mut pushes);
            if loc.allreduce_sum(changed) == 0 {
                break;
            }
        }
        let mut roots = 0u64;
        g.for_each_local_vertex(|v| roots += u64::from(v.property.comp == v.descriptor as u64));
        loc.allreduce_sum(roots) as usize
    }

    pub fn page_rank(g: &AlgoGraph, iters: usize, d: f64) -> f64 {
        let loc = g.location().clone();
        let n = g.num_vertices() as f64;
        g.for_each_local_vertex_mut(|v| {
            v.property.rank = 1.0 / n;
            v.property.acc = 0.0;
        });
        loc.barrier();
        let mut pushes: Vec<(VertexDesc, f64)> = Vec::new();
        for _ in 0..iters {
            pushes.clear();
            let mut dangling = 0.0f64;
            g.for_each_local_vertex(|v| {
                if v.edges.is_empty() {
                    dangling += v.property.rank;
                } else {
                    let share = v.property.rank / v.edges.len() as f64;
                    for e in &v.edges {
                        pushes.push((e.target, share));
                    }
                }
            });
            for &(t, share) in &pushes {
                g.apply_vertex(t, move |tv| tv.property.acc += share);
            }
            let dangling_total = loc.allreduce(dangling, |a, b| a + b);
            loc.rmi_fence();
            g.for_each_local_vertex_mut(|v| {
                v.property.rank = (1.0 - d) / n + d * (v.property.acc + dangling_total / n);
                v.property.acc = 0.0;
            });
            loc.barrier();
        }
        let mut local = 0.0;
        g.for_each_local_vertex(|v| local += v.property.rank);
        loc.allreduce(local, |a, b| a + b)
    }
}

/// One drawn graph and its placement.
#[derive(Debug)]
struct Case {
    nlocs: usize,
    directedness: Directedness,
    n: usize,
    /// The location each vertex is created on (dynamic kinds).
    owner: Vec<usize>,
    /// Inserted by location 0, so every vertex's out-edges are in one
    /// order on both graphs (per-pair FIFO).
    edges: Vec<(VertexDesc, VertexDesc)>,
    /// (vertex, destination), each issued by the vertex's creator, which
    /// caches no owner for it.
    moves: Vec<(VertexDesc, usize)>,
    cached: bool,
    root: VertexDesc,
}

impl Case {
    fn draw(rng: &mut StdRng) -> Case {
        let nlocs = rng.random_range(1..=3);
        let n = rng.random_range(1..48);
        let owner: Vec<usize> = (0..n).map(|_| rng.random_range(0..nlocs)).collect();
        let edges = (0..rng.random_range(0..4 * n))
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let mut moves = Vec::new();
        if nlocs > 1 {
            for (v, from) in owner.iter().enumerate() {
                if rng.random_bool(0.2) {
                    moves.push((v, (from + rng.random_range(1..nlocs)) % nlocs));
                }
            }
        }
        let directedness =
            if rng.random_bool(0.5) { Directedness::Directed } else { Directedness::Undirected };
        Case {
            nlocs,
            directedness,
            n,
            owner,
            edges,
            moves,
            cached: rng.random_bool(0.75),
            root: rng.random_range(0..n),
        }
    }

    /// **Collective.** The case's graph under `kind`. The moves come
    /// before the edges: location 0's inserts then route to owners the
    /// directory learned from a move, caching them as they go, and no
    /// cached owner is stale. A stale hit's invalidation and the home's
    /// refill reach the requester from two locations, in arrival order, so
    /// whether the next sweep hits would be timing, not the algorithm.
    fn graph(&self, loc: &Location, kind: GraphPartitionKind) -> AlgoGraph {
        let me = loc.id();
        let g = if kind == GraphPartitionKind::Static {
            PGraph::new_static(loc, self.n, self.directedness, VProps::default())
        } else {
            let g = PGraph::new_dynamic(loc, self.directedness, kind);
            for v in (0..self.n).filter(|&v| self.owner[v] == me) {
                g.add_vertex_with_descriptor(v, VProps::default());
            }
            g.commit();
            for &(v, dest) in self.moves.iter().filter(|(v, _)| self.owner[*v] == me) {
                g.migrate_vertex(v, dest);
            }
            g.commit();
            g
        };
        if me == 0 {
            for &(s, t) in &self.edges {
                g.add_edge_async(s, t, ());
            }
        }
        g.commit();
        g
    }
}

/// `run`'s result and the traffic it sent, summed over all locations:
/// remote requests, local invocations, owner-cache hits, misses and stale
/// hits, bytes sent. **Collective.**
fn measured<R>(loc: &Location, run: impl FnOnce() -> R) -> (R, [u64; 6]) {
    loc.barrier();
    let before = loc.stats();
    loc.barrier();
    let r = run();
    loc.barrier();
    let d = loc.stats().since(&before);
    loc.barrier();
    let traffic = [
        d.remote_requests,
        d.local_invocations,
        d.dir_cache_hits,
        d.dir_cache_misses,
        d.dir_cache_stale,
        d.bytes_sent,
    ];
    (r, traffic)
}

/// Every local vertex's (descriptor, in-degree, level, label, rank).
fn vertices(g: &AlgoGraph) -> Vec<(VertexDesc, u32, i64, u64, f64)> {
    let mut out = Vec::new();
    g.for_each_local_vertex(|v| {
        let p = &v.property;
        out.push((v.descriptor, p.indeg, p.level, p.comp, p.rank));
    });
    out
}

fn same_rank(got: f64, want: f64, exact: bool) -> bool {
    if exact {
        got.to_bits() == want.to_bits()
    } else {
        (got - want).abs() <= 1e-12
    }
}

#[test]
fn scatter_algorithms_equal_the_per_edge_model() {
    for case_id in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5ca7 ^ case_id);
        let case = Case::draw(&mut rng);
        let base = RtsConfig::base();
        let dir_cache_capacity = if case.cached { base.dir_cache_capacity } else { 0 };
        let config = RtsConfig { dir_cache_capacity, ..base };
        let exact = case.nlocs == 1;
        for kind in [
            GraphPartitionKind::Static,
            GraphPartitionKind::DynamicFwd,
            GraphPartitionKind::DynamicTwoPhase,
        ] {
            execute(config.clone(), case.nlocs, |loc| {
                let what = |alg: &str| format!("{alg}, case {case_id}, {kind:?}: {case:?}");
                let (model, lib) = (case.graph(loc, kind), case.graph(loc, kind));
                let compare = |alg: &str| {
                    let (want, got) = (vertices(&model), vertices(&lib));
                    assert_eq!(got.len(), want.len(), "{}", what(alg));
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!((g.0, g.1, g.2, g.3), (w.0, w.1, w.2, w.3), "{}", what(alg));
                        assert!(same_rank(g.4, w.4, exact), "rank {} vs {}, {}", g.4, w.4, what(alg));
                    }
                };

                let want = measured(loc, || model::find_sources(&model));
                assert_eq!(measured(loc, || find_sources(&lib)), want, "{}", what("find_sources"));
                compare("find_sources");

                let want = measured(loc, || model::bfs(&model, case.root));
                assert_eq!(measured(loc, || bfs(&lib, case.root)), want, "{}", what("bfs"));
                compare("bfs");

                let want = measured(loc, || model::connected_components(&model));
                let got = measured(loc, || connected_components(&lib));
                assert_eq!(got, want, "{}", what("connected_components"));
                compare("connected_components");

                let (want, want_traffic) = measured(loc, || model::page_rank(&model, 4, 0.85));
                let (got, got_traffic) = measured(loc, || page_rank(&lib, 4, 0.85));
                assert!(same_rank(got, want, exact), "rank sum {got} vs {want}, {}", what("page_rank"));
                assert_eq!(got_traffic, want_traffic, "{}", what("page_rank"));
                compare("page_rank");
            });
        }
    }
}
