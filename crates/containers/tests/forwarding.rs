//! The directory's three rules, end to end on a dynamic pGraph and a
//! pList: a birth needs no directory entry, a departure leaves a
//! forwarding pointer that a request reaching the old owner follows, and
//! absence still reads as absence.

use std::time::Duration;

use stapl_containers::graph::{Directedness, GraphPartitionKind, PGraph};
use stapl_containers::list::PList;
use stapl_core::directory::home_of;
use stapl_core::interfaces::PContainer;
use stapl_rts::{execute, RtsConfig};

const KINDS: [GraphPartitionKind; 2] =
    [GraphPartitionKind::DynamicFwd, GraphPartitionKind::DynamicTwoPhase];

fn dynamic(loc: &stapl_rts::Location, kind: GraphPartitionKind) -> PGraph<u32, ()> {
    PGraph::new_dynamic(loc, Directedness::Directed, kind)
}

/// The old owner reads a vertex it has just migrated while the destination
/// is not polling: the payload sits unread at the destination, and the
/// vertex's home — neither of the two — has no registration naming the
/// destination yet. The read must follow the old owner's pointer and wait
/// behind the payload, not bounce between home and old owner until it runs
/// where the vertex is gone.
#[test]
fn read_at_old_owner_follows_the_pointer_while_the_destination_sleeps() {
    execute(RtsConfig::default(), 4, |loc| {
        let (old, dest) = (0, 1);
        let g = dynamic(loc, GraphPartitionKind::DynamicFwd);
        let mine: Vec<usize> = (0..16).map(|k| g.add_vertex(100 * loc.id() as u32 + k)).collect();
        g.commit();
        let all = loc.allgather(mine);
        let (k, vd) = all[old]
            .iter()
            .copied()
            .enumerate()
            .find(|(_, vd)| ![old, dest].contains(&home_of(vd, loc.nlocs())))
            .expect("a vertex of the old owner homed elsewhere");
        loc.barrier();
        if loc.id() == dest {
            std::thread::sleep(Duration::from_millis(50));
        }
        if loc.id() == old {
            g.migrate_vertex(vd, dest);
            assert_eq!(g.vertex_property(vd), k as u32);
        }
        g.commit();
        assert_eq!(g.is_local_vertex(vd), loc.id() == dest);
        assert_eq!(g.vertex_property(vd), k as u32);
        assert_eq!(g.num_vertices(), 64);
    });
}

/// L → M → L, then a delete at L: every route — through the home, and
/// from a cache that still names M, whose pointer names L — ends in "not
/// found", under both resolution protocols.
#[test]
fn there_and_back_then_delete_reads_as_absent() {
    for kind in KINDS {
        execute(RtsConfig::default(), 4, |loc| {
            let (l, m, reader) = (0, 1, 2);
            let g = dynamic(loc, kind);
            let vd = loc.allgather(g.add_vertex(7))[l];
            g.commit();
            if loc.id() == l {
                g.migrate_vertex(vd, m);
            }
            g.commit();
            // The reader caches M as the owner.
            if loc.id() == reader {
                assert_eq!(g.vertex_property(vd), 7);
            }
            loc.barrier();
            if loc.id() == m {
                g.migrate_vertex(vd, l);
            }
            g.commit();
            assert_eq!(g.is_local_vertex(vd), loc.id() == l);
            if loc.id() == l {
                g.delete_vertex(vd);
            }
            g.commit();
            assert!(!g.find_vertex(vd), "{kind:?}: location {} still finds {vd}", loc.id());
            assert_eq!(g.num_vertices(), 3);
        });
    }
}

/// A remote `delete_vertex` whose issuer is neither the owner nor the home
/// and whose cache names a stale owner. The vertex was born on S and read
/// from X, so X caches S; S deleted it, and D created it again with
/// `add_vertex_with_descriptor`. X's delete goes to S, which sleeps, and
/// from there through the home to D. The owner unregisters the vertex
/// after deleting it, so nothing X sends can reach the home ahead of the
/// delete and leave it resolving to a location without the vertex.
#[test]
fn remote_delete_through_a_stale_cache_reaches_the_owner() {
    for kind in KINDS {
        execute(RtsConfig::base(), 4, |loc| {
            let s = 0;
            let g = dynamic(loc, kind);
            let born = loc.allgather((0..8).map(|_| g.add_vertex(1)).collect::<Vec<_>>()).swap_remove(s);
            g.commit();
            let vd = born.into_iter().find(|vd| home_of(vd, 4) != s).expect("a vertex of S homed elsewhere");
            let others: Vec<usize> = (1..4).filter(|&l| l != home_of(&vd, 4)).collect();
            let (x, d) = (others[0], others[1]);
            if loc.id() == x {
                assert_eq!(g.vertex_property(vd), 1);
            }
            g.commit();
            if loc.id() == s {
                g.delete_vertex(vd);
            }
            g.commit();
            if loc.id() == d {
                g.add_vertex_with_descriptor(vd, 2);
            }
            g.commit();
            if loc.id() == s {
                std::thread::sleep(Duration::from_millis(50));
            }
            if loc.id() == x {
                g.delete_vertex(vd);
            }
            g.commit();
            assert!(!g.find_vertex(vd), "{kind:?}: location {} still finds {vd}", loc.id());
            assert_eq!(g.num_vertices(), 31);
        });
    }
}

/// `find_vertex` is false for a vertex never created, one deleted where it
/// was born and one deleted after it migrated — asked from every location,
/// under both protocols, at P=2 and P=3 — and true for every other vertex.
#[test]
fn absence_reads_as_absence() {
    for kind in KINDS {
        for p in [2, 3] {
            execute(RtsConfig::default(), p, |loc| {
                let g = dynamic(loc, kind);
                let mine: Vec<usize> = (0..4).map(|_| g.add_vertex(1)).collect();
                g.commit();
                let all: Vec<usize> = loc.allgather(mine).concat();
                let (at_birth, migrated) = (all[0], all[1]);
                let never = all.iter().max().unwrap() + loc.nlocs();
                if loc.id() == 0 {
                    g.delete_vertex(at_birth);
                    g.migrate_vertex(migrated, 1);
                }
                g.commit();
                if loc.id() == loc.nlocs() - 1 {
                    g.delete_vertex(migrated);
                }
                g.commit();
                for vd in [never, at_birth, migrated] {
                    assert!(!g.find_vertex(vd), "{kind:?} P={p}: location {} finds {vd}", loc.id());
                }
                for &vd in &all[2..] {
                    assert!(g.find_vertex(vd), "{kind:?} P={p}: location {} misses {vd}", loc.id());
                }
            });
        }
    }
}

/// Building a dynamic pGraph of 4096 vertices and a pList sends nothing:
/// each element is stored where its name says it was born.
#[test]
fn births_send_no_request() {
    execute(RtsConfig::base(), 2, |loc| {
        let g = dynamic(loc, GraphPartitionKind::DynamicFwd);
        let before = loc.stats().remote_requests;
        loc.barrier();
        for k in 0..4096 / loc.nlocs() {
            g.add_vertex(k as u32);
        }
        let list: PList<u64> = PList::with_bcontainers(loc, 4);
        list.push_anywhere(1);
        loc.barrier();
        let after = loc.stats().remote_requests;
        loc.barrier();
        assert_eq!(after, before, "a birth sent a request");
        g.commit();
        assert_eq!(g.num_vertices(), 4096);
    });
}

/// At P=1 an `add_vertex` loop invokes nothing, locally or remotely.
#[test]
fn add_vertex_makes_no_local_invocation() {
    execute(RtsConfig::base(), 1, |loc| {
        let g = dynamic(loc, GraphPartitionKind::DynamicFwd);
        let before = loc.stats();
        for k in 0..4096 {
            g.add_vertex(k);
        }
        let after = loc.stats();
        assert_eq!(after.local_invocations, before.local_invocations);
        assert_eq!(after.remote_requests, before.remote_requests);
    });
}
