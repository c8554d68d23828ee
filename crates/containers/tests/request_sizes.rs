//! What a remote request carries, pinned at P=2: `bytes_sent` per remote
//! request of the element methods and of each leg a directory request
//! travels (DESIGN.md "What a request carries"). `bytes_sent` counts each
//! request's capture image, so a capture that grows fails its row by name.

use stapl_algorithms::graph_algos::{AlgoGraph, VProps};
use stapl_containers::array::PArray;
use stapl_containers::associative::PHashMap;
use stapl_containers::graph::{Directedness, GraphPartitionKind, PGraph, VertexDesc};
use stapl_containers::list::PList;
use stapl_containers::matrix::PMatrix;
use stapl_containers::slab_list::SlabList;
use stapl_core::directory::home_of;
use stapl_core::interfaces::{AssociativeContainer, ElementRead, ElementWrite, PContainer};
use stapl_rts::{execute_collect, Location, RtsConfig};

/// `(remote_requests, bytes_sent)` over both locations while location 0
/// runs `issue` and both fence.
fn window(loc: &Location, issue: impl FnOnce()) -> (u64, u64) {
    loc.rmi_fence();
    let before = loc.stats();
    loc.barrier();
    if loc.id() == 0 {
        issue();
    }
    loc.rmi_fence();
    let sent = loc.stats().since(&before);
    loc.barrier();
    (sent.remote_requests, sent.bytes_sent)
}

/// Location 0's [`window`] of `row` run on two locations.
fn at_p2(cfg: RtsConfig, row: impl Fn(&Location) -> (u64, u64) + Send + Sync) -> (u64, u64) {
    execute_collect(cfg, 2, row).remove(0)
}

/// A dynamic (forwarding) graph whose every edge crosses locations: at
/// P=2 location `l` is born with the descriptors `≡ l (mod 2)`, and each
/// vertex `s` gets the edge `s → s ^ 1`, of the other parity (an edge
/// between equal parities would be local and send nothing).
fn crossing_graph(loc: &Location) -> AlgoGraph {
    let g: AlgoGraph = PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
    let mine: Vec<VertexDesc> = (0..8).map(|_| g.add_vertex(VProps::default())).collect();
    for s in mine {
        g.add_edge_async(s, s ^ 1, ());
    }
    g.commit();
    g
}

/// A PageRank push: `rank` added into the target's `acc`.
fn push_rank(g: &AlgoGraph) {
    g.scatter(|v| Some(v.property.rank), |p, share: f64| p.acc += share);
}

/// `add_edge_async` from location 0 to a source stored on location 1 whose
/// home is `home`, on a cold owner cache: the request takes the home path,
/// one leg of it between the two locations — and, with the cache on, the
/// home's fill comes back.
fn add_edge_via_home(home: usize, cached: bool) -> (u64, u64) {
    let base = RtsConfig::base();
    let dir_cache_capacity = if cached { base.dir_cache_capacity } else { 0 };
    at_p2(RtsConfig { dir_cache_capacity, ..base }, move |loc| {
        let g = crossing_graph(loc);
        let s = (1..64).step_by(2).find(|s| home_of(s, 2) == home).expect("a vertex of location 1 homed there");
        window(loc, || g.add_edge_async(s, 0, ()))
    })
}

/// `migrate_vertex` from location 0 of one of its vertices whose home is
/// `home`: the payload crosses to location 1 and — when the home is 0 —
/// the re-registration crosses back.
fn migrate_homed_at(home: usize) -> (u64, u64) {
    at_p2(RtsConfig::base(), move |loc| {
        let g = crossing_graph(loc);
        let v = (0..64).step_by(2).find(|v| home_of(v, 2) == home).expect("a vertex of location 0 homed there");
        window(loc, || g.migrate_vertex(v, 1))
    })
}

/// A `TwoPhase` `add_edge_async` from location 0, on a cold owner cache, to
/// a source stored on location 1 and homed there: the lookup, its answer,
/// then the request to the owner.
fn two_phase_add_edge() -> (u64, u64) {
    at_p2(RtsConfig::base(), |loc| {
        let g: AlgoGraph = PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicTwoPhase);
        let mine: Vec<VertexDesc> = (0..8).map(|_| g.add_vertex(VProps::default())).collect();
        g.commit();
        let theirs = loc.allgather(mine).swap_remove(1);
        let s = theirs.into_iter().find(|s| home_of(s, 2) == 1).expect("a vertex of location 1 homed there");
        window(loc, || g.add_edge_async(s, 0, ()))
    })
}

/// Every row: its name, the bytes each request of one round of it carries,
/// and the measured `(requests, bytes)` of whole rounds.
fn rows() -> Vec<(&'static str, &'static [u64], (u64, u64))> {
    let set_element = at_p2(RtsConfig::base(), |loc| {
        let a = PArray::new(loc, 64, 0u64);
        window(loc, || {
            for i in (0..64).filter(|&i| !a.is_local(i)) {
                a.set_element(i, i as u64);
            }
        })
    });
    let matrix_set_element = at_p2(RtsConfig::base(), |loc| {
        let m = PMatrix::new(loc, 8, 8, 0u64);
        window(loc, || {
            for g in (0..64).map(|i| (i / 8, i % 8)).filter(|&g| !m.is_local(g)) {
                m.set_element(g, 7);
            }
        })
    });
    let hash_map = |apply: bool| {
        at_p2(RtsConfig::base(), move |loc| {
            let m: PHashMap<u64, u64> = PHashMap::new(loc);
            window(loc, || {
                for k in 0..64u64 {
                    if apply {
                        m.apply_async(k, move |v| *v += k);
                    } else {
                        m.insert_async(k, k);
                    }
                }
            })
        })
    };
    let warm_scatter = at_p2(RtsConfig::base(), |loc| {
        let g = crossing_graph(loc);
        // The first push resolves every target through its home, which
        // fills the pusher's owner cache; the second hits it.
        push_rank(&g);
        loc.rmi_fence();
        window(loc, || push_rank(&g))
    });
    let list_set = at_p2(RtsConfig::base(), |loc| {
        let l: PList<u64> = PList::new(loc);
        let theirs = loc.allgather(l.push_anywhere(7))[1];
        window(loc, || l.set_element(theirs, 8))
    });
    vec![
        ("PArray::set_element", &[16], set_element),
        ("PHashMap::insert_async", &[16], hash_map(false)),
        ("PHashMap::apply_async", &[16], hash_map(true)),
        ("AlgoGraph scatter, warm owner cache", &[24], warm_scatter),
        ("add_edge_async, requester -> home (the owner)", &[24], add_edge_via_home(1, false)),
        ("add_edge_async, home (the requester) -> owner", &[24], add_edge_via_home(0, false)),
        // The fill carries `g` and the owner: the owner names its bcid.
        ("add_edge_async, requester -> home (the owner), and its cache fill back", &[24, 16], add_edge_via_home(1, true)),
        ("PList::set_element, to the birth owner", &[32], list_set),
        // The vertex, `g` and its move count, and the install's capture.
        ("migrate_vertex, the payload to its home", &[96], migrate_homed_at(1)),
        // The re-registration is `g`, the owner and the move count.
        ("migrate_vertex, the payload, then the re-registration", &[96, 24], migrate_homed_at(0)),
        // The lookup is `g`, a reply slot and the requester; its answer the
        // slot, the owner and whether it is a birth.
        ("TwoPhase add_edge_async: the lookup, its answer, the request", &[24, 24, 24], two_phase_add_edge()),
        // pArray's request on the linear gid: no bcid, no (row, col).
        ("PMatrix::set_element", &[16], matrix_set_element),
    ]
}

#[test]
fn each_request_carries_its_pinned_bytes() {
    let rows = rows();
    let wrong: Vec<String> = rows
        .iter()
        .filter(|(_, pinned, (requests, bytes))| {
            let (round, n) = (pinned.iter().sum::<u64>(), pinned.len() as u64);
            *requests == 0 || requests % n != 0 || *bytes != round * (requests / n)
        })
        .map(|(name, pinned, (requests, bytes))| {
            format!("{name}: pinned {pinned:?} B per round, sent {bytes} B in {requests} requests")
        })
        .collect();
    assert!(wrong.is_empty(), "request sizes moved:\n  {}", wrong.join("\n  "));
    // The warm scatter is one request per crossing edge: no fill, no hop.
    assert_eq!(rows[3].2 .0, 8, "{rows:?}");
    assert_eq!((rows[4].2 .0, rows[5].2 .0), (1, 1), "one leg crosses: {rows:?}");
    assert_eq!(rows[6].2 .0, 2, "the leg and the fill: {rows:?}");
    assert_eq!((rows[8].2 .0, rows[9].2 .0, rows[10].2 .0), (1, 2, 3), "{rows:?}");
}

#[test]
fn a_u64_list_slot_is_24_bytes() {
    // The value, then generation and two links (three u32s) with the
    // live/free tag in their padding.
    assert_eq!(SlabList::<u64>::SLOT_BYTES, 24);
    assert_eq!(SlabList::<String>::SLOT_BYTES, 40);
}
