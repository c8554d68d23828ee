//! The owner-side half of the lazily replicated size (DESIGN.md "Lazy
//! sizes without stale reads"): a size-changing mutation marks the size
//! dirty where it *lands* as well as where it was issued. Location 0
//! mutates storage that location 1 owns; after a fence — no commit —
//! location 1, which issued nothing, must read the new size. After the
//! commit a read is clean again and sends nothing. Every pList, pAssoc and
//! pGraph mutation that changes a count at its owner is one step.

use stapl_containers::associative::PHashMap;
use stapl_containers::graph::{Directedness, Edge, GraphPartitionKind, PGraph};
use stapl_containers::list::PList;
use stapl_core::interfaces::{AssociativeContainer, PContainer, SegmentedContainer};
use stapl_rts::{execute, Location, RtsConfig};

/// Location 0 runs each step in turn; after a fence location 1 must read
/// the step's size, and after the commit that follows a read on either
/// location must send no request. A barrier ends each step.
fn owner_side_marks<S: PartialEq + std::fmt::Debug>(
    loc: &Location,
    read: impl Fn() -> S,
    commit: impl Fn(),
    steps: &[(&str, &dyn Fn(), S)],
) {
    for (what, step, size) in steps {
        if loc.id() == 0 {
            step();
        }
        loc.rmi_fence();
        if loc.id() == 1 {
            assert_eq!(
                read(),
                *size,
                "location 1 missed `{what}` issued by location 0"
            );
        }
        commit();
        let before = loc.local_stats().remote_requests;
        assert_eq!(read(), *size, "after `{what}` and a commit");
        assert_eq!(
            loc.local_stats().remote_requests,
            before,
            "a clean read after `{what}` sent a request"
        );
        // The next step lands on location 1: not while location 1 is still
        // in the commit's last barrier, where it would make this step's
        // clean read dirty.
        loc.barrier();
    }
}

#[test]
fn a_mutation_marks_the_size_at_its_owner() {
    execute(RtsConfig::default(), 2, |loc| {
        let l: PList<u32> = PList::new(loc);
        let g = loc
            .broadcast(1, (loc.id() == 1).then(|| l.push_anywhere(7)))
            .unwrap();
        // Every slab on location 1, so each of location 0's ops lands there.
        if loc.id() == 0 {
            l.migrate_bcontainer(0, 1);
        }
        l.commit();
        owner_side_marks(
            loc,
            || l.global_size(),
            || l.commit(),
            &[
                ("push_back", &|| l.push_back(1), 2),
                ("push_front", &|| l.push_front(2), 3),
                ("push_anywhere", &|| _ = l.push_anywhere(3), 4),
                ("insert_before", &|| _ = l.insert_before(g, 4), 5),
                ("insert_before_async", &|| l.insert_before_async(g, 5), 6),
                ("erase_async", &|| l.erase_async(g), 5),
            ],
        );
    });
    execute(RtsConfig::default(), 2, |loc| {
        let m: PHashMap<u64, u64> = PHashMap::new(loc);
        let mine: Vec<u64> = (0..)
            .filter(|k| m.is_local_segment(m.bucket_of(k)))
            .take(4)
            .collect();
        let k = loc.broadcast(1, mine);
        owner_side_marks(
            loc,
            || m.global_size(),
            || m.commit(),
            &[
                ("insert_async", &|| m.insert_async(k[0], 0), 1),
                ("insert", &|| _ = m.insert(k[1], 0), 2),
                (
                    "apply_or_insert",
                    &|| m.apply_or_insert(k[2], 0, |v| *v += 1),
                    3,
                ),
                (
                    "merge_segment",
                    &|| m.merge_segment(m.bucket_of(&k[3]), vec![(k[3], 1)], 0, |a, b| *a += b),
                    4,
                ),
                ("erase_async", &|| m.erase_async(k[0]), 3),
            ],
        );
    });
    execute(RtsConfig::default(), 2, |loc| {
        let g: PGraph<u32, ()> =
            PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
        let mine = (g.add_vertex(0), g.add_vertex(1));
        g.commit();
        let (a, b) = loc.broadcast(1, mine);
        owner_side_marks(
            loc,
            || (g.num_vertices(), g.num_edges()),
            || g.commit(),
            &[
                ("add_edge_async", &|| g.add_edge_async(a, b, ()), (4, 1)),
                (
                    "apply_vertex",
                    &|| {
                        g.apply_vertex(b, move |v| {
                            v.edges.push(Edge {
                                target: a,
                                property: (),
                            })
                        })
                    },
                    (4, 2),
                ),
                ("delete_edge_async", &|| g.delete_edge_async(a, b), (4, 1)),
                ("delete_vertex", &|| g.delete_vertex(b), (3, 0)),
            ],
        );
    });
}
