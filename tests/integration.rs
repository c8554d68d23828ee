//! Cross-crate integration tests: containers + views + algorithms + RTS
//! working together on multi-step workflows.

use stapl::containers::generators::{fill_mesh, fill_ssca2, Ssca2Params};
use stapl::containers::graph::{Directedness, PGraph};
use stapl::containers::list::PList;
use stapl::containers::matrix::PMatrix;
use stapl::core::interfaces::{ElementRead, LocalIteration, PContainer};
use stapl::core::mapper::CyclicMapper;
use stapl::core::partition::{BlockCyclicPartition, MatrixLayout};
use stapl::prelude::*;

/// Generate → sort → prefix-sum → verify: a full numeric pipeline.
#[test]
fn numeric_pipeline() {
    execute(RtsConfig::default(), 3, |loc| {
        let a = PArray::new(loc, 90, 0u64);
        // Deterministic "random" fill.
        p_generate(&a, |i| ((i * 7919 + 13) % 1000) as u64);
        let before_sum = p_sum(&a);
        p_sort(&a);
        assert!(p_is_sorted(&a));
        assert_eq!(p_sum(&a), before_sum, "sorting must preserve the multiset");
        p_partial_sum(&a, 0, |a, b| a + b);
        // The last prefix equals the total.
        assert_eq!(a.get_element(89), before_sum);
        let _ = loc;
    });
}

/// Graph pipeline: SSCA2 generation → BFS reachability → connected
/// components over the undirected closure → PageRank sanity.
#[test]
fn graph_pipeline() {
    execute(RtsConfig::default(), 2, |loc| {
        let g: AlgoGraph = PGraph::new_static(loc, 48, Directedness::Directed, VProps::default());
        let p = Ssca2Params { n: 48, max_clique_size: 5, inter_clique_prob: 1.0, seed: 17 };
        fill_ssca2(loc, &g, &p, ());
        let (reached, levels) = bfs(&g, 0);
        assert!(reached > 40, "chained cliques should be mostly reachable");
        assert!(levels >= 2);
        let total = page_rank(&g, 8, 0.85);
        assert!((total - 1.0).abs() < 1e-9);
    });
}

/// Algorithms run identically over differently partitioned pArrays —
/// the decoupling the PCF promises.
#[test]
fn partition_transparency() {
    let sums: Vec<u64> = stapl::rts::execute_collect(RtsConfig::default(), 2, |loc| {
        let balanced = PArray::from_fn(loc, 60, |i| i as u64);
        let cyclic = PArray::with_partition(
            loc,
            BlockCyclicPartition::new(60, 4, 3),
            CyclicMapper::new(loc.nlocs()),
            0u64,
        );
        p_generate(&cyclic, |i| i as u64);
        let s1 = p_sum(&balanced);
        let s2 = p_sum(&cyclic);
        assert_eq!(s1, s2);
        s1
    });
    assert_eq!(sums[0], (0..60).sum::<u64>());
}

/// Redistribution mid-computation: results are unchanged, placement is.
#[test]
fn redistribute_between_phases() {
    execute(RtsConfig::default(), 2, |loc| {
        let a = PArray::from_fn(loc, 40, |i| i as u64);
        let sum_before = p_sum(&a);
        a.redistribute(
            stapl::core::partition::BlockedPartition::new(40, 5),
            CyclicMapper::new(loc.nlocs()),
        );
        assert_eq!(p_sum(&a), sum_before);
        // The new partition actually changed ownership granularity.
        assert_eq!(a.local_pieces().len(), 4); // 8 blocks cyclic over 2
        a.rebalance();
        assert_eq!(a.local_pieces().len(), 1);
        assert_eq!(p_sum(&a), sum_before);
        let _ = loc;
    });
}

/// List → array conversion via push_anywhere + collect, with algorithms
/// on both (the pList/pVector interoperability story of Chapter X).
#[test]
fn list_array_interop() {
    execute(RtsConfig::default(), 2, |loc| {
        let l: PList<u64> = PList::new(loc);
        for k in 0..20 {
            l.push_anywhere(loc.id() as u64 * 1000 + k);
        }
        l.commit();
        assert_eq!(l.global_size(), 40);
        let from_list = p_reduce(&l, |_, v| *v, |a, b| a + b).unwrap();
        // Mirror into an array by index.
        let a = PArray::new(loc, 40, 0u64);
        let mut k = 0;
        let base = loc.id() * 20;
        l.for_each_local(|_, v| {
            a.set_element(base + k, *v);
            k += 1;
        });
        loc.rmi_fence();
        assert_eq!(p_sum(&a), from_list);
        l.clear();
        l.commit();
        assert_eq!(l.global_size(), 0);
    });
}

/// Matrix viewed as linear 1-D data and processed by array algorithms
/// (the pView re-interpretation of Chapter III).
#[test]
fn matrix_linear_view_with_algorithms() {
    execute(RtsConfig::default(), 2, |loc| {
        let m = PMatrix::from_fn(loc, 8, 8, MatrixLayout::RowBlocked, |r, c| (r * 8 + c) as u64);
        let lin = ArrayView::new(m.linear().clone());
        let sum = p_reduce_view(&lin, |_, v| v, |a, b| a + b).unwrap();
        assert_eq!(sum, (0..64).sum::<u64>());
        // Mutate through the view, observe through the matrix.
        p_for_each_view(&lin, |v| *v += 1);
        assert_eq!(m.get_element((7, 7)), 64);
        let _ = loc;
    });
}

/// Nested-parallelism composition (Fig. 61): outer map over a composed
/// container invoking an inner reduction, then a global reduction.
#[test]
fn nested_algorithm_invocation() {
    execute(RtsConfig::default(), 2, |loc| {
        let rows = 10;
        let pa: PArray<Vec<u64>> =
            PArray::from_fn(loc, rows, |r| (0..6).map(|c| (r * 6 + c) as u64).collect());
        // Inner algorithm: per-row sum at the owner; outer: global max.
        let mut local_best = 0u64;
        pa.for_each_local(|_, row| {
            let inner_sum: u64 = row.iter().sum();
            local_best = local_best.max(inner_sum);
        });
        let best = loc.allreduce(local_best, u64::max);
        // Last row has the largest values: sum = 54+55+..+59.
        assert_eq!(best, (54..60).sum::<u64>());
    });
}

/// Weak-scaling smoke over location counts: results identical regardless
/// of nlocs (determinism of the SPMD algorithms).
#[test]
fn results_independent_of_location_count() {
    let mut answers = Vec::new();
    for nlocs in [1, 2, 4] {
        let r = stapl::rts::execute_collect(RtsConfig::default(), nlocs, |loc| {
            let g: AlgoGraph =
                PGraph::new_static(loc, 30, Directedness::Directed, VProps::default());
            fill_mesh(&g, 5, 6, ());
            let sources = find_sources(&g);
            let (reached, levels) = bfs(&g, 0);
            (sources.len(), reached, levels)
        });
        answers.push(r[0]);
    }
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[1], answers[2]);
    assert_eq!(answers[0].1, 30); // mesh fully reachable
}
