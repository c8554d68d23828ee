//! pGraph algorithms (Chapter XI.F): find-sources, level-synchronous
//! traversal (BFS), connected components, and PageRank (Fig. 56).
//!
//! All algorithms run on `PGraph<VProps, ()>` and keep their working
//! state in the vertex property. A round's relaxations are one
//! [`PGraph::scatter`]: those whose target is stored on the calling
//! location run in place under one borrow, and each remote one is routed
//! through the graph's address-resolution strategy — that is what makes
//! the static / dynamic-forwarding / dynamic-two-phase comparison of
//! Fig. 51 measurable.

use stapl_containers::graph::{PGraph, VertexDesc};
use stapl_core::interfaces::PContainer;

/// Working vertex properties shared by the algorithms.
#[derive(Clone, Debug)]
pub struct VProps {
    /// In-degree counter (find_sources).
    pub indeg: u32,
    /// BFS level; -1 = undiscovered.
    pub level: i64,
    /// Connected-component label.
    pub comp: u64,
    /// PageRank value and incoming accumulator (connected components'
    /// label-lowered flag, 1.0 when set).
    pub rank: f64,
    pub acc: f64,
}

impl Default for VProps {
    fn default() -> Self {
        VProps { indeg: 0, level: -1, comp: u64::MAX, rank: 0.0, acc: 0.0 }
    }
}

/// The graph type the algorithms operate on.
pub type AlgoGraph = PGraph<VProps, ()>;

/// **Collective.** Vertices with no incoming edges (Fig. 51's kernel),
/// sorted. Phase 1 counts in-degrees by routing an increment to every
/// edge target; phase 2 scans locally.
pub fn find_sources(g: &AlgoGraph) -> Vec<VertexDesc> {
    let loc = g.location().clone();
    g.for_each_local_vertex_mut(|v| v.property.indeg = 0);
    loc.barrier();
    g.scatter(|_| Some(()), |p, ()| p.indeg += 1);
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

/// **Collective.** Level-synchronous breadth-first traversal from `root`.
/// Returns (number of reached vertices, number of levels).
pub fn bfs(g: &AlgoGraph, root: VertexDesc) -> (usize, usize) {
    let loc = g.location().clone();
    g.for_each_local_vertex_mut(|v| v.property.level = -1);
    loc.barrier();
    g.apply_vertex(root, |v| v.property.level = 0);
    loc.rmi_fence();
    let mut round: i64 = 0;
    loop {
        // Edges out of this round's frontier.
        let next = round + 1;
        g.scatter(
            |v| (v.property.level == round).then_some(next),
            |p, next| {
                if p.level < 0 {
                    p.level = next;
                }
            },
        );
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

/// **Collective.** Connected components by min-label propagation (use on
/// undirected graphs). Returns the number of components.
pub fn connected_components(g: &AlgoGraph) -> usize {
    let loc = g.location().clone();
    // A round pushes the labels its vertices began it with: not one a
    // neighbor earlier in the sweep lowered, and not one a peer's next
    // round lowered while this location still waited in the allreduce
    // before it. The rounds, and so the messages, depend neither on how
    // the vertices are placed nor on timing.
    let mut labels: Vec<u64> = Vec::with_capacity(g.local_num_vertices());
    g.for_each_local_vertex_mut(|v| {
        v.property.comp = v.descriptor as u64;
        v.property.acc = 0.0;
        labels.push(v.property.comp);
    });
    loc.barrier();
    loop {
        // Push my label to every neighbor; keep the minimum.
        let mut start = labels.iter().copied();
        g.scatter(
            |_| start.next(),
            |p, label| {
                if label < p.comp {
                    p.comp = label;
                    p.acc = 1.0;
                }
            },
        );
        loc.rmi_fence();
        // Converged when no label was lowered this round: the lowering
        // flags it in the `acc` scratch field (a `u64` label does not
        // survive a round trip through `f64` above 2^53).
        let mut changed = 0u64;
        labels.clear();
        g.for_each_local_vertex_mut(|v| {
            changed += v.property.acc as u64;
            v.property.acc = 0.0;
            labels.push(v.property.comp);
        });
        if loc.allreduce_sum(changed) == 0 {
            break;
        }
    }
    // Count distinct labels: each is its component's smallest descriptor.
    let mut roots = 0u64;
    g.for_each_local_vertex(|v| roots += u64::from(v.property.comp == v.descriptor as u64));
    loc.allreduce_sum(roots) as usize
}

/// **Collective.** PageRank with damping `d` for `iters` iterations
/// (Fig. 56's kernel). Returns the global rank sum (≈ 1.0) for sanity.
pub fn page_rank(g: &AlgoGraph, iters: usize, d: f64) -> f64 {
    let loc = g.location().clone();
    let n = g.num_vertices() as f64;
    g.for_each_local_vertex_mut(|v| {
        v.property.rank = 1.0 / n;
        v.property.acc = 0.0;
    });
    loc.barrier();
    for _ in 0..iters {
        // Push contributions along out-edges; dangling mass is gathered
        // and spread uniformly.
        let mut dangling = 0.0f64;
        g.scatter(
            |v| {
                if v.edges.is_empty() {
                    dangling += v.property.rank;
                    return None;
                }
                Some(v.property.rank / v.edges.len() as f64)
            },
            |p, share| p.acc += share,
        );
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

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_containers::generators::{
        fill_dag_with_sources, fill_mesh, fill_ssca2, Ssca2Params,
    };
    use stapl_containers::graph::{Directedness, GraphPartitionKind};
    use stapl_rts::{execute, RtsConfig};

    fn algo_graph(loc: &stapl_rts::Location, n: usize) -> AlgoGraph {
        PGraph::new_static(loc, n, Directedness::Directed, VProps::default())
    }

    #[test]
    fn find_sources_on_known_dag() {
        execute(RtsConfig::default(), 2, |loc| {
            let g = algo_graph(loc, 6);
            // 0 -> 2 -> 4, 1 -> 2, 3 -> 4, 5 isolated. Sources: 0, 1, 3, 5.
            if loc.id() == 0 {
                g.add_edge_async(0, 2, ());
                g.add_edge_async(1, 2, ());
                g.add_edge_async(2, 4, ());
                g.add_edge_async(3, 4, ());
            }
            g.commit();
            assert_eq!(find_sources(&g), vec![0, 1, 3, 5]);
        });
    }

    #[test]
    fn find_sources_matches_generator_band() {
        execute(RtsConfig::default(), 2, |loc| {
            let g = algo_graph(loc, 40);
            fill_dag_with_sources(loc, &g, 3, 0.25, 7, ());
            let sources = find_sources(&g);
            // The first 10 vertices are the source band; all of them have
            // no in-edges (some later vertices may also be sources).
            for v in 0..10 {
                assert!(sources.contains(&v), "band vertex {v} must be a source");
            }
        });
    }

    #[test]
    fn find_sources_same_result_across_partitions() {
        // Fig. 51: three partitions, same answer.
        let run = |kind: Option<GraphPartitionKind>| {
            stapl_rts::execute_collect(RtsConfig::default(), 2, |loc| {
                let g = match kind {
                    None => algo_graph(loc, 24),
                    Some(k) => {
                        let g: AlgoGraph = PGraph::new_dynamic(loc, Directedness::Directed, k);
                        let per = 12;
                        for vd in loc.id() * per..(loc.id() + 1) * per {
                            g.add_vertex_with_descriptor(vd, VProps::default());
                        }
                        g.commit();
                        g
                    }
                };
                fill_dag_with_sources(loc, &g, 2, 0.3, 3, ());
                find_sources(&g)
            })
            .remove(0)
        };
        let s_static = run(None);
        let s_fwd = run(Some(GraphPartitionKind::DynamicFwd));
        let s_two = run(Some(GraphPartitionKind::DynamicTwoPhase));
        assert_eq!(s_static, s_fwd);
        assert_eq!(s_static, s_two);
        assert!(!s_static.is_empty());
    }

    #[test]
    fn bfs_levels_on_mesh_are_manhattan() {
        execute(RtsConfig::default(), 2, |loc| {
            let g = algo_graph(loc, 12); // 3x4 mesh
            fill_mesh(&g, 3, 4, ());
            let (reached, levels) = bfs(&g, 0);
            assert_eq!(reached, 12);
            assert_eq!(levels, 6); // max manhattan distance = (3-1)+(4-1) = 5 → 6 levels
            let level = |vd| g.apply_vertex_ret(vd, |v| v.property.level);
            assert_eq!(level(0), 0);
            assert_eq!(level(5), 2); // (1,1)
            assert_eq!(level(11), 5); // (2,3)
        });
    }

    #[test]
    fn bfs_unreachable_vertices_stay_unmarked() {
        execute(RtsConfig::default(), 2, |loc| {
            let g = algo_graph(loc, 4);
            if loc.id() == 0 {
                g.add_edge_async(0, 1, ());
            }
            g.commit();
            let (reached, _) = bfs(&g, 0);
            assert_eq!(reached, 2);
            assert_eq!(g.apply_vertex_ret(3, |v| v.property.level), -1);
        });
    }

    #[test]
    fn connected_components_counts_clusters() {
        execute(RtsConfig::default(), 2, |loc| {
            let g: AlgoGraph =
                PGraph::new_static(loc, 9, Directedness::Undirected, VProps::default());
            // Components: {0,1,2}, {3,4}, {5}, {6,7,8}.
            if loc.id() == 0 {
                g.add_edge_async(0, 1, ());
                g.add_edge_async(1, 2, ());
                g.add_edge_async(3, 4, ());
                g.add_edge_async(6, 7, ());
                g.add_edge_async(7, 8, ());
            }
            g.commit();
            assert_eq!(connected_components(&g), 4);
        });
    }

    /// Above 2^53 neighbouring labels share an `f64`: 2^60 + 2 and 2^60
    /// do, so a convergence test through one stopped while 2^60 + 2 still
    /// carried its own label.
    #[test]
    fn connected_components_labels_are_exact_above_2_pow_53() {
        for base in [0, 1usize << 60] {
            for path in [&[2usize, 7, 8, 0][..], &[2, 7, 8, 9, 0]] {
                execute(RtsConfig::default(), 1, |loc| {
                    let g: AlgoGraph = PGraph::new_dynamic(
                        loc,
                        Directedness::Undirected,
                        GraphPartitionKind::DynamicFwd,
                    );
                    for &k in path {
                        g.add_vertex_with_descriptor(base + k, VProps::default());
                    }
                    for w in path.windows(2) {
                        g.add_edge_async(base + w[0], base + w[1], ());
                    }
                    g.commit();
                    assert_eq!(connected_components(&g), 1, "path {base} + {path:?}");
                    for &k in path {
                        let label = g.apply_vertex_ret(base + k, |v| v.property.comp);
                        assert_eq!(label, base as u64, "label of {base} + {k}");
                    }
                });
            }
        }
    }

    #[test]
    fn pagerank_sums_to_one_and_is_uniform_on_symmetric_graph() {
        execute(RtsConfig::default(), 2, |loc| {
            let g = algo_graph(loc, 8);
            // Ring: fully symmetric → uniform stationary distribution.
            for v in g.local_vertices() {
                g.add_edge_async(v, (v + 1) % 8, ());
                g.add_edge_async(v, (v + 7) % 8, ());
            }
            g.commit();
            let total = page_rank(&g, 20, 0.85);
            assert!((total - 1.0).abs() < 1e-9, "rank mass must be conserved: {total}");
            let rank = |vd| g.apply_vertex_ret(vd, |v| v.property.rank);
            let r0 = rank(0);
            for v in 1..8 {
                assert!((rank(v) - r0).abs() < 1e-9);
            }
        });
    }

    #[test]
    fn pagerank_favors_high_in_degree() {
        execute(RtsConfig::default(), 2, |loc| {
            let g = algo_graph(loc, 6);
            // Everyone points at vertex 0; 0 points at 1.
            for v in g.local_vertices() {
                if v != 0 {
                    g.add_edge_async(v, 0, ());
                }
            }
            if loc.id() == 0 {
                g.add_edge_async(0, 1, ());
            }
            g.commit();
            page_rank(&g, 30, 0.85);
            let rank = |vd| g.apply_vertex_ret(vd, |v| v.property.rank);
            let r0 = rank(0);
            for v in 2..6 {
                assert!(r0 > rank(v) * 2.0);
            }
        });
    }

    #[test]
    fn bfs_on_ssca2_reaches_cliques() {
        execute(RtsConfig::default(), 2, |loc| {
            let g = algo_graph(loc, 32);
            let p = Ssca2Params { n: 32, max_clique_size: 4, inter_clique_prob: 1.0, seed: 5 };
            fill_ssca2(loc, &g, &p, ());
            let (reached, _) = bfs(&g, 0);
            // Cliques chained by inter-clique edges with p=1.0: everything
            // reachable from vertex 0's clique onward.
            assert!(reached >= 31, "reached only {reached}");
        });
    }
}
