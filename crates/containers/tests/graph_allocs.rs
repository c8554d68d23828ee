//! pGraph keeps a location's out-edges in one buffer, not one heap block
//! per vertex: adding 4096 vertices grows the slots and the index a
//! doubling at a time (a vertex born where its descriptor names needs no
//! directory entry), adding 32768 edges grows two vectors — the buffer
//! and its log — a doubling at a time, the first read merges the log in
//! place, and reclaiming the graph frees a handful of blocks. Its own test
//! binary, with a counting global allocator and one test: allocator calls
//! are deterministic, so this holds on any host.

use stapl_algorithms::graph_algos::{page_rank, AlgoGraph, VProps};
use stapl_containers::graph::{Directedness, GraphPartitionKind, PGraph};
use stapl_core::interfaces::PContainer;
use stapl_rts::{execute, RtsConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Allocations, reallocations and frees the calling thread — the one
/// location's — makes while `call` runs.
fn calls<R>(call: impl FnOnce() -> R) -> (R, usize) {
    let (r, counted) = counting_alloc::measure(call);
    (r, counted.calls + counted.frees)
}

const VERTICES: usize = 4096;
const EDGES: usize = 8 * VERTICES;

#[test]
fn edges_cost_logarithmically_many_allocator_calls() {
    execute(RtsConfig::base(), 1, |loc| {
        let g: AlgoGraph = PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
        let ((), births) = calls(|| {
            for _ in 0..VERTICES {
                g.add_vertex(VProps::default());
            }
        });
        // The slots and the index: one allocation, then a doubling at a time.
        let growth = 2 * (VERTICES.ilog2() as usize + 1);
        assert!(births <= growth, "{births} allocator calls adding {VERTICES} vertices (> {growth})");
        g.commit();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng as usize % VERTICES
        };
        let pairs: Vec<(usize, usize)> = (0..EDGES).map(|_| (next(), next())).collect();
        let ((), build) = calls(|| pairs.iter().for_each(|&(s, t)| g.add_edge_async(s, t, ())));
        g.commit();
        assert_eq!(g.num_edges(), EDGES);
        // The first sweep merges the log; the second run makes only
        // PageRank's own calls.
        let (first, merging) = calls(|| page_rank(&g, 5, 0.85));
        let (second, rank) = calls(|| page_rank(&g, 5, 0.85));
        assert!((first - 1.0).abs() < 1e-9 && first == second, "rank sums {first}, {second}");
        let merge = merging - rank;
        let ((), reclaim) = calls(|| {
            drop(g);
            loc.rmi_fence();
        });
        println!(
            "allocator calls: {births} adding {VERTICES} vertices, {build} adding {EDGES} edges, {merge} merging them, {reclaim} reclaiming the graph ({rank} in PageRank itself)"
        );
        assert!(build + merge + reclaim <= 64, "{build} + {merge} + {reclaim} allocator calls");
    });
}
