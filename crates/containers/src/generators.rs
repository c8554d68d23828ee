//! Graph workload generators for the evaluation (Chapter XI):
//! an SSCA#2-style clustered graph, torus/mesh graphs for the PageRank
//! inputs of Fig. 56, binary trees for the Euler-tour studies, and the
//! layered DAG of the find-sources study (Fig. 51).
//!
//! The DARPA SSCA#2 reference generator is proprietary-ish C; this module
//! implements the same structure the benchmark specifies — vertices
//! grouped into cliques of random size, fully connected inside a clique,
//! with sparse random inter-clique edges — which is what the paper's
//! method evaluation exercises (bulk edge insertion with a mix of local
//! and remote targets).
//!
//! All generators are **collective**: every location inserts the edges
//! whose *source* vertex it owns, so generation itself scales.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use stapl_core::interfaces::PContainer;
use stapl_rts::Location;

use crate::graph::{Directedness, PGraph, VertexDesc};

/// Parameters of the SSCA#2-style generator.
#[derive(Clone, Copy, Debug)]
pub struct Ssca2Params {
    /// Total vertices.
    pub n: usize,
    /// Maximum clique size (cliques have uniform random size in
    /// `[1, max_clique_size]`).
    pub max_clique_size: usize,
    /// Probability of an inter-clique edge between consecutive cliques'
    /// members.
    pub inter_clique_prob: f64,
    pub seed: u64,
}

impl Default for Ssca2Params {
    fn default() -> Self {
        Ssca2Params { n: 1024, max_clique_size: 8, inter_clique_prob: 0.05, seed: 42 }
    }
}

/// Deterministic clique layout shared by all locations: returns each
/// vertex's clique id given the parameters (cheap closed form through a
/// replicated boundary list).
fn clique_bounds(p: &Ssca2Params) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut bounds = Vec::new();
    let mut at = 0;
    while at < p.n {
        let size = rng.random_range(1..=p.max_clique_size).min(p.n - at);
        at += size;
        bounds.push(at);
    }
    bounds
}

/// **Collective.** Fills `g` (a static directed graph of `params.n`
/// vertices) with SSCA#2-style clique + inter-clique edges. Returns the
/// number of edges this location inserted.
pub fn fill_ssca2<VP, EP>(
    loc: &Location,
    g: &PGraph<VP, EP>,
    params: &Ssca2Params,
    edge_prop: EP,
) -> usize
where
    VP: Send + Clone + 'static,
    EP: Send + Clone + 'static,
{
    let bounds = clique_bounds(params);
    let clique_of = |v: usize| bounds.partition_point(|&b| b <= v);
    let clique_range = |c: usize| {
        let lo = if c == 0 { 0 } else { bounds[c - 1] };
        (lo, bounds[c])
    };
    let mut rng = StdRng::seed_from_u64(params.seed ^ (loc.id() as u64).wrapping_mul(0x9e37));
    let mut inserted = 0;
    // Each location generates edges for the vertices it owns (balanced
    // static partition: contiguous stripe).
    for v in g.local_vertices() {
        let c = clique_of(v);
        let (lo, hi) = clique_range(c);
        // Intra-clique: complete digraph among clique members.
        for u in lo..hi {
            if u != v {
                g.add_edge_async(v, u, edge_prop.clone());
                inserted += 1;
            }
        }
        // Inter-clique: sparse edges into the next clique.
        if bounds.len() > 1 {
            let (nlo, nhi) = clique_range((c + 1) % bounds.len());
            for u in nlo..nhi {
                if u != v && rng.random_bool(params.inter_clique_prob) {
                    g.add_edge_async(v, u, edge_prop.clone());
                    inserted += 1;
                }
            }
        }
    }
    g.commit();
    inserted
}

/// **Collective.** Builds a directed `rows × cols` mesh (the PageRank
/// inputs of Fig. 56: 1500×1500 vs 15×150000): each cell links to its
/// right and down neighbors, plus reciprocal links so every vertex has
/// incoming edges. Vertex `r * cols + c`.
pub fn fill_mesh<VP, EP>(g: &PGraph<VP, EP>, rows: usize, cols: usize, edge_prop: EP)
where
    VP: Send + Clone + 'static,
    EP: Send + Clone + 'static,
{
    for v in g.local_vertices() {
        let (r, c) = (v / cols, v % cols);
        let link = |u: VertexDesc| {
            g.add_edge_async(v, u, edge_prop.clone());
        };
        if c + 1 < cols {
            link(v + 1);
        }
        if c > 0 {
            link(v - 1);
        }
        if r + 1 < rows {
            link(v + cols);
        }
        if r > 0 {
            link(v - cols);
        }
    }
    g.commit();
}

/// **Collective.** Builds a complete binary tree over vertices `0..n`
/// (`parent(i) = (i-1)/2`) as an *undirected* graph — the Euler-tour
/// input shape ("a single binary tree", Fig. 44). Each location adds the
/// parent edge of its local vertices.
pub fn fill_binary_tree<VP, EP>(g: &PGraph<VP, EP>, edge_prop: EP)
where
    VP: Send + Clone + 'static,
    EP: Send + Clone + 'static,
{
    for v in g.local_vertices() {
        if v > 0 {
            let parent = (v - 1) / 2;
            g.add_edge_async(v, parent, edge_prop.clone());
        }
    }
    g.commit();
}

/// **Collective.** A directed acyclic "layered" graph where `frac_sources`
/// of the vertices have no incoming edges — the find-sources workload of
/// Fig. 51. Edges go from lower to strictly higher descriptors.
pub fn fill_dag_with_sources<VP, EP>(
    loc: &Location,
    g: &PGraph<VP, EP>,
    avg_degree: usize,
    frac_sources: f64,
    seed: u64,
    edge_prop: EP,
) where
    VP: Send + Clone + 'static,
    EP: Send + Clone + 'static,
{
    let n = g.num_vertices();
    let first_non_source = ((n as f64) * frac_sources) as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ (loc.id() as u64).wrapping_mul(0xda94));
    for v in g.local_vertices() {
        for _ in 0..avg_degree {
            // Targets are always beyond the source band and after v.
            let lo = v.max(first_non_source) + 1;
            if lo >= n {
                continue;
            }
            let u = rng.random_range(lo..n);
            g.add_edge_async(v, u, edge_prop.clone());
        }
    }
    g.commit();
}

/// Convenience: a static directed graph of `n` vertices (the usual input
/// shell for the generators above).
pub fn static_digraph(loc: &Location, n: usize) -> PGraph<u64, ()> {
    PGraph::new_static(loc, n, Directedness::Directed, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn ssca2_is_deterministic_and_clustered() {
        execute(RtsConfig::default(), 2, |loc| {
            let g = static_digraph(loc, 64);
            let p = Ssca2Params { n: 64, max_clique_size: 4, inter_clique_prob: 0.2, seed: 7 };
            fill_ssca2(loc, &g, &p, ());
            assert!(g.num_edges() > 0);
            // Members of the same clique must be mutually connected.
            let bounds = clique_bounds(&p);
            let (lo, hi) = (0, bounds[0]);
            for a in lo..hi {
                for b in lo..hi {
                    if a != b {
                        assert!(g.find_edge(a, b), "clique edge {a}->{b} missing");
                    }
                }
            }
        });
    }

    #[test]
    fn clique_bounds_cover_exactly_n() {
        let p = Ssca2Params { n: 100, max_clique_size: 7, inter_clique_prob: 0.0, seed: 3 };
        let b = clique_bounds(&p);
        assert_eq!(*b.last().unwrap(), 100);
        let mut prev = 0;
        for &x in &b {
            assert!(x > prev && x - prev <= 7);
            prev = x;
        }
    }

    #[test]
    fn mesh_degrees_match_geometry() {
        execute(RtsConfig::default(), 2, |loc| {
            let g = static_digraph(loc, 12); // 3 x 4 mesh
            fill_mesh(&g, 3, 4, ());
            // Corner (0,0) = vertex 0: right + down = 2 out-edges.
            assert_eq!(g.out_degree(0), 2);
            // Interior (1,1) = vertex 5: 4 neighbors.
            assert_eq!(g.out_degree(5), 4);
            // Edge cell (0,1) = vertex 1: left, right, down.
            assert_eq!(g.out_degree(1), 3);
            // Total directed edges of a 4-neighbor mesh: 2*(2*r*c - r - c).
            assert_eq!(g.num_edges(), 2 * (2 * 3 * 4 - 3 - 4));
        });
    }

    #[test]
    fn binary_tree_has_n_minus_one_undirected_edges() {
        execute(RtsConfig::default(), 2, |loc| {
            let g: PGraph<(), ()> = PGraph::new_static(loc, 15, Directedness::Undirected, ());
            fill_binary_tree(&g, ());
            // Undirected edges stored twice.
            assert_eq!(g.num_edges(), 2 * 14);
            // Root's children are 1 and 2.
            assert!(g.find_edge(0, 1) && g.find_edge(0, 2));
            assert!(g.find_edge(7, 3)); // leaf to parent
        });
    }

    #[test]
    fn dag_sources_have_no_incoming_edges() {
        execute(RtsConfig::default(), 2, |loc| {
            let g = static_digraph(loc, 40);
            fill_dag_with_sources(loc, &g, 3, 0.25, 11, ());
            // Compute in-degrees by scanning all edges.
            let mut local_targets: Vec<usize> = Vec::new();
            g.for_each_local_vertex(|v| {
                for e in &v.edges {
                    local_targets.push(e.target);
                }
            });
            let all = loc.allreduce(local_targets, |mut a, mut b| {
                a.append(&mut b);
                a
            });
            for t in all {
                assert!(t >= 10, "vertex {t} in the source band has an incoming edge");
            }
        });
    }
}
