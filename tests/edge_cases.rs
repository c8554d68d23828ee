//! Edge-case and failure-injection tests across the stack: degenerate
//! sizes, skewed distributions, deep forwarding chains, rotation, view
//! seams, and graph oddities.

use stapl::containers::generators::fill_mesh;
use stapl::containers::graph::{Directedness, GraphPartitionKind, PGraph};
use stapl::containers::list::PList;
use stapl::core::interfaces::*;
use stapl::core::mapper::{CyclicMapper, GeneralMapper};
use stapl::core::partition::BalancedPartition;
use stapl::prelude::*;
use stapl_views::view::ViewRead;

#[test]
fn single_element_array_across_many_locations() {
    execute(RtsConfig::default(), 4, |loc| {
        // Fewer elements than locations: the balanced partition creates
        // one sub-domain per element; some locations own nothing.
        let a = PArray::new(loc, 1, 9u8);
        assert_eq!(a.global_size(), 1);
        assert_eq!(loc.allreduce_sum(a.local_size() as u64), 1);
        assert_eq!(a.get_element(0), 9);
        // Separate the read phase from the write: a fast location 3 could
        // otherwise overwrite the element before a slow one has read it.
        loc.barrier();
        if loc.id() == 3 {
            a.set_element(0, 5);
        }
        loc.rmi_fence();
        assert_eq!(a.get_element(0), 5);
    });
}

#[test]
fn empty_containers_do_not_panic() {
    execute(RtsConfig::default(), 2, |loc| {
        let a = PArray::new(loc, 0usize, 0u64);
        assert_eq!(a.global_size(), 0);
        assert!(a.is_empty());
        let l: PList<u64> = PList::new(loc);
        l.commit();
        assert!(l.front_gid().is_none());
        assert_eq!(l.collect_ordered(), vec![]);
        assert_eq!(p_count_if(&a, |_| true), 0);
        assert_eq!(p_min_element(&a), None);
        let _ = loc;
    });
}

#[test]
fn all_elements_on_one_location() {
    execute(RtsConfig::default(), 3, |loc| {
        // Everything mapped to location 1: skewed placement must still
        // give correct global semantics.
        let a = PArray::with_partition(
            loc,
            BalancedPartition::new(30, 3),
            GeneralMapper::new(3, vec![1, 1, 1]),
            0u64,
        );
        p_generate(&a, |i| i as u64);
        assert_eq!(a.local_size(), if loc.id() == 1 { 30 } else { 0 });
        assert_eq!(p_sum(&a), (0..30).sum::<u64>());
        assert_eq!(a.get_element(29), 29);
    });
}

#[test]
fn rotate_moves_data_and_preserves_content() {
    execute(RtsConfig::default(), 3, |loc| {
        let a = PArray::from_fn(loc, 30, |i| i as i64);
        let owner_before = a.locate_element(0).1;
        a.rotate(1);
        let owner_after = a.locate_element(0).1;
        assert_eq!(owner_after, (owner_before + 1) % loc.nlocs());
        for i in (0..30).step_by(7) {
            assert_eq!(a.get_element(i), i as i64);
        }
        // Rotating nlocs times returns to the original placement.
        a.rotate(1);
        a.rotate(1);
        assert_eq!(a.locate_element(0).1, owner_before);
    });
}

#[test]
fn deep_forwarding_chain_through_graph_ops() {
    // Dynamic deletes + re-adds force directory churn; fence must drain
    // multi-hop chains.
    execute(RtsConfig::with_aggregation(4), 3, |loc| {
        let g: PGraph<u64, ()> =
            PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
        let vd = g.add_vertex(loc.id() as u64);
        g.commit();
        let all = loc.allgather(vd);
        // Chain of edges 0 -> 1 -> 2 -> 0 added purely remotely.
        let next = all[(loc.id() + 1) % loc.nlocs()];
        g.add_edge_async(vd, next, ());
        g.commit();
        assert_eq!(g.num_edges(), 3);
        for &v in &all {
            assert_eq!(g.out_degree(v), 1);
        }
    });
}

#[test]
fn graph_self_loops_and_multi_edges() {
    execute(RtsConfig::default(), 2, |loc| {
        let g: PGraph<(), u8> = PGraph::new_static(loc, 4, Directedness::Directed, ());
        if loc.id() == 0 {
            g.add_edge_async(1, 1, 7); // self loop
            g.add_edge_async(0, 2, 1); // multi-edges allowed (paper's MULTI)
            g.add_edge_async(0, 2, 2);
        }
        g.commit();
        assert_eq!(g.out_degree(1), 1);
        assert!(g.find_edge(1, 1));
        assert_eq!(g.out_degree(0), 2);
        // delete removes one instance at a time.
        if loc.id() == 1 {
            g.delete_edge_async(0, 2);
        }
        g.commit();
        assert_eq!(g.out_degree(0), 1);
        assert!(g.find_edge(0, 2));
    });
}

#[test]
fn dynamic_vertex_delete_then_read_is_detectable() {
    execute(RtsConfig::default(), 2, |loc| {
        let g: PGraph<u32, ()> =
            PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
        let vd = g.add_vertex(1);
        g.commit();
        if loc.id() == 0 {
            g.delete_vertex(vd); // delete my own vertex
        }
        g.commit();
        assert_eq!(g.num_vertices(), 1, "only location 1's vertex remains");
        if loc.id() == 0 {
            assert!(!g.find_vertex(vd));
        }
    });
}

#[test]
fn overlap_view_windows_cross_location_seams() {
    execute(RtsConfig::default(), 4, |loc| {
        let a = PArray::from_fn(loc, 40, |i| i as i64);
        let ov = OverlapView::new(ArrayView::new(a), 1, 0, 1);
        // Every window [i, i+1] — including those straddling ownership
        // boundaries — reads consistently.
        for w in ov.local_windows() {
            for i in w.iter() {
                let win = ov.window(i);
                assert_eq!(win, vec![i as i64, i as i64 + 1]);
            }
        }
        let _ = loc;
    });
}

#[test]
fn strided_and_transform_compose() {
    execute(RtsConfig::default(), 2, |loc| {
        let a = PArray::from_fn(loc, 16, |i| i as i64);
        let even = StridedView::new(ArrayView::new(a), 0, 2);
        assert_eq!(even.len(), 8);
        assert_eq!(even.get(3), 6);
        // The transform is the reduce's map function.
        let total = p_reduce_view(&even, |_, v| v * v, |x, y| x + y).unwrap();
        assert_eq!(total, (0..8).map(|k| (2 * k) * (2 * k)).sum::<i64>());
        let _ = loc;
    });
}

#[test]
fn balanced_view_with_more_parts_than_elements() {
    execute(RtsConfig::default(), 2, |loc| {
        let a = PArray::from_fn(loc, 3, |i| i as u64);
        let v = BalancedView::with_parts(ArrayView::new(a), 8);
        let covered: u64 =
            loc.allreduce_sum(v.local_chunks().iter().map(|c| c.len() as u64).sum());
        assert_eq!(covered, 3);
    });
}

#[test]
fn list_front_back_after_cross_location_churn() {
    execute(RtsConfig::default(), 3, |loc| {
        let l: PList<i32> = PList::new(loc);
        let g = l.push_anywhere(loc.id() as i32);
        loc.rmi_fence();
        // Everyone erases its own element and pushes a replacement at the
        // global front; only location 0's bContainer receives them.
        l.erase_async(g);
        l.push_front(-(loc.id() as i32));
        l.commit();
        assert_eq!(l.global_size(), 3);
        let front = l.front_gid().unwrap();
        assert_eq!(front.bcid, 0);
        let v = l.collect_ordered();
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|x| *x <= 0));
    });
}

#[test]
fn mesh_bfs_from_every_corner_is_symmetric() {
    execute(RtsConfig::default(), 2, |loc| {
        let g: AlgoGraph = PGraph::new_static(loc, 20, Directedness::Directed, VProps::default());
        fill_mesh(&g, 4, 5, ());
        let corners = [0usize, 4, 15, 19];
        let mut results = Vec::new();
        for c in corners {
            results.push(bfs(&g, c));
        }
        // Full reachability from every corner; level count = diameter+1.
        for (reached, levels) in results {
            assert_eq!(reached, 20);
            assert_eq!(levels, (4 - 1) + (5 - 1) + 1);
        }
    });
}

#[test]
fn prefix_sum_on_skewed_partition() {
    execute(RtsConfig::default(), 2, |loc| {
        // All data on location 1; prefix sums must still be globally
        // correct (exercises the bcid-ordered scan).
        let a = PArray::with_partition(
            loc,
            BalancedPartition::new(16, 4),
            GeneralMapper::new(2, vec![1, 1, 0, 1]),
            1u64,
        );
        p_partial_sum(&a, 0, |a, b| a + b);
        for i in 0..16 {
            assert_eq!(a.get_element(i), i as u64 + 1);
        }
        let _ = loc;
    });
}

#[test]
fn concurrent_mixed_container_traffic() {
    // Several containers interleave traffic on the same locations; the
    // per-object registries must keep requests separated.
    execute(RtsConfig::with_aggregation(8), 3, |loc| {
        let a = PArray::new(loc, 30, 0u64);
        let l: PList<u64> = PList::new(loc);
        let m: stapl::containers::associative::PHashMap<u64, u64> =
            stapl::containers::associative::PHashMap::new(loc);
        for k in 0..30u64 {
            a.set_element((k as usize + loc.id()) % 30, k);
            l.push_anywhere(k);
            m.apply_or_insert(k % 7, 0, |v| *v += 1);
        }
        loc.rmi_fence();
        l.commit();
        m.commit();
        assert_eq!(l.global_size(), 90);
        assert_eq!(m.global_size(), 7);
        let total: u64 = (0..7).map(|k| m.find(k).unwrap()).sum();
        assert_eq!(total, 90);
    });
}

#[test]
fn cyclic_vs_blocked_mapper_changes_placement_not_semantics() {
    execute(RtsConfig::default(), 2, |loc| {
        let cyc = PArray::with_partition(
            loc,
            BalancedPartition::new(24, 6),
            CyclicMapper::new(2),
            0u64,
        );
        let blk = PArray::with_partition(
            loc,
            BalancedPartition::new(24, 6),
            // Blocked: three consecutive sub-domains per location.
            GeneralMapper::new(2, vec![0, 0, 0, 1, 1, 1]),
            0u64,
        );
        p_generate(&cyc, |i| i as u64);
        p_generate(&blk, |i| i as u64);
        assert!(p_equal(&cyc, &blk));
        // Placement differs: sub-domain 1 is on loc1 cyclic, loc0 blocked.
        assert_eq!(cyc.locate_element(4).1, 1);
        assert_eq!(blk.locate_element(4).1, 0);
    });
}
