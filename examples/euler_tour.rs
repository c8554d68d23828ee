//! Euler tour of a distributed tree and its applications (Figs. 43/44):
//! rooting, vertex depth, and subtree sizes of a binary tree, computed
//! with the tour + parallel list ranking.
//!
//! Run with: `cargo run --release --example euler_tour [nlocs] [n]`

use stapl::containers::generators::fill_binary_tree;
use stapl::containers::graph::{Directedness, PGraph};
use stapl::prelude::*;
use std::time::Instant;

fn main() {
    let nlocs = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let n: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(1023);

    execute(RtsConfig::default(), nlocs, move |loc| {
        let g: PGraph<(), ()> = PGraph::new_static(loc, n, Directedness::Undirected, ());
        fill_binary_tree(&g, ());
        let t = Instant::now();
        let apps = euler_applications(&g, 0);
        let elapsed = loc.allreduce_max_f64(t.elapsed().as_secs_f64());

        // Verify against the closed form of a complete binary tree.
        let mut checked = 0u64;
        for v in (0..n).step_by((n / 64).max(1)) {
            if v == 0 {
                continue;
            }
            assert_eq!(apps.parent.get_element(v), (v - 1) / 2);
            let depth = apps.depth.get_element(v);
            assert_eq!(depth, (usize::BITS - (v + 1).leading_zeros() - 1) as i64);
            checked += 1;
        }
        let total_checked = loc.allreduce_sum(checked);
        if loc.id() == 0 {
            println!("Euler tour of a {n}-vertex binary tree on {nlocs} locations");
            println!("  arcs ranked: {}", 2 * (n - 1));
            println!("  spot-checked {total_checked} parent/depth values: OK");
            println!("  root subtree size: {}", apps.subtree.get_element(0));
            println!("  time: {elapsed:.3}s");
        }
    });
}
