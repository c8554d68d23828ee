//! PageRank over a distributed pGraph — the Fig. 56 workload: compares
//! a square mesh against a long skinny mesh of the same size, showing how
//! the aspect ratio changes the boundary-to-interior ratio (and therefore
//! communication volume).
//!
//! Run with: `cargo run --release --example graph_pagerank [nlocs]`

use stapl::containers::generators::fill_mesh;
use stapl::containers::graph::{Directedness, PGraph};
use stapl::prelude::*;
use std::time::Instant;

fn run_mesh(nlocs: usize, rows: usize, cols: usize) {
    let results = stapl::rts::execute_collect(RtsConfig::default(), nlocs, move |loc| {
        let g: AlgoGraph =
            PGraph::new_static(loc, rows * cols, Directedness::Directed, VProps::default());
        fill_mesh(&g, rows, cols, ());
        // Boundary fraction: vertices with at least one remote neighbor.
        let bv = stapl::views::graph_view::GraphView::boundary(g.clone());
        let boundary = loc.allreduce_sum(bv.local_len() as u64);
        let t = Instant::now();
        let total = page_rank(&g, 10, 0.85);
        let elapsed = loc.allreduce_max_f64(t.elapsed().as_secs_f64());
        (total, elapsed, boundary)
    });
    let (total, elapsed, boundary) = results[0];
    println!(
        "  {rows:>6} x {cols:<7} | rank sum {total:.6} | boundary vertices {boundary:>6} | {elapsed:.3}s"
    );
}

fn main() {
    let nlocs = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    // Scaled-down versions of the paper's 1500x1500 and 15x150000 meshes
    // (same area ratio, laptop-sized).
    println!("PageRank, 10 iterations, {nlocs} locations (Fig. 56 shape):");
    run_mesh(nlocs, 150, 150);
    run_mesh(nlocs, 15, 1500);
    println!("\nBoth meshes have the same number of vertices, but the row-major");
    println!("balanced partition cuts the skinny mesh along its long rows, so its");
    println!("cross-location boundary — and hence communication per iteration —");
    println!("is ~10x larger. Mesh shape changing the comm/compute ratio at equal");
    println!("size is exactly what Fig. 56 contrasts.");
}
