//! The graph algorithms allocate no per-edge temporaries where the edges'
//! targets are stored on the calling location: a round's relaxations run
//! in place during the sweep over the out-edges, not from a copied list of
//! (target, value) pairs. Its own test binary, with a counting global
//! allocator and one test: bytes requested from the allocator are
//! deterministic, so this holds on a shared CI runner.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use stapl_algorithms::graph_algos::{
    bfs, connected_components, find_sources, page_rank, AlgoGraph, VProps,
};
use stapl_containers::graph::{Directedness, GraphPartitionKind, PGraph};
use stapl_core::interfaces::PContainer;
use stapl_rts::{execute, Location, RtsConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Bytes the calling thread — the one location's — requests while `call`
/// runs.
fn requested(call: impl FnOnce()) -> usize {
    counting_alloc::measure(call).1.bytes
}

const VERTICES: usize = 4096;
const EDGES: usize = 8 * VERTICES;

/// **Collective.** A dynamic graph of `VERTICES` vertices and `EDGES`
/// seeded random edges.
fn random_graph(loc: &Location, directedness: Directedness) -> AlgoGraph {
    let g = PGraph::new_dynamic(loc, directedness, GraphPartitionKind::DynamicFwd);
    for _ in 0..VERTICES {
        g.add_vertex(VProps::default());
    }
    let mut rng = StdRng::seed_from_u64(0x6a2f);
    for _ in 0..EDGES {
        g.add_edge_async(rng.random_range(0..VERTICES), rng.random_range(0..VERTICES), ());
    }
    g.commit();
    g
}

#[test]
fn graph_algorithms_allocate_no_per_edge_temporaries() {
    // Two bytes per edge: an eighth of one (target, share) pair.
    const SMALL: usize = 64 << 10;
    execute(RtsConfig::base(), 1, |loc| {
        let small = |what: &str, call: &dyn Fn()| {
            let bytes = requested(call);
            assert!(bytes < SMALL, "{what} requested {bytes} bytes for {EDGES} local edges");
        };
        let g = random_graph(loc, Directedness::Directed);
        assert_eq!(g.global_size(), VERTICES);
        small("bfs", &|| assert!(bfs(&g, 0).0 > 1));
        small("page_rank", &|| assert!((page_rank(&g, 5, 0.85) - 1.0).abs() < 1e-9));
        small("find_sources", &|| assert!(find_sources(&g).len() < VERTICES));
        let g = random_graph(loc, Directedness::Undirected);
        small("connected_components", &|| assert!(connected_components(&g) >= 1));
    });
}
