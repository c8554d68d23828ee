//! Nothing built inside `execute` outlives its last handle by more than one
//! fence. Its own test binary, with a counting global allocator and one
//! test (live bytes are summed over every location's thread): for every
//! p_object user — the six container families, the PARAGRAPH executor,
//! `p_sort`'s bucket object — fifty rounds of construct → use through
//! remote methods → drop → `rmi_fence` hold what three rounds hold, and the
//! registry is back at its base size. What a handle leaves behind for good
//! is its tombstone (a `RegEntry` per location) and its retire count:
//! `RESIDUE` bounds that.

use stapl::containers::graph::{Directedness, GraphPartitionKind, PGraph};
use stapl::containers::list::PList;
use stapl::containers::matrix::PMatrix;
use stapl::core::interfaces::{AssociativeContainer, ElementRead, ElementWrite, PContainer};
use stapl::prelude::*;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{count_this_thread, totals};

/// Bytes the measured threads — every location's — allocated and have not
/// freed.
fn live_bytes() -> isize {
    let t = totals();
    t.bytes as isize - t.freed as isize
}

/// Elements per container: a round that leaked would leave ≥ 32 KiB.
const N: usize = 4096;
const ROUNDS: usize = 50;
/// What 47 rounds may add for good: the tombstones (32 bytes a location)
/// and retire counts (4 bytes) of at most two handles a round, in `Vec`s
/// that double — 16 KiB at P=4. The parent commit adds ≥ 1.5 MiB for every
/// family.
const RESIDUE: isize = 32 << 10;

/// An element some other location owns (any, at P=1).
fn remote(loc: &Location, round: usize) -> usize {
    (N / loc.nlocs() * ((loc.id() + 1) % loc.nlocs()) + round) % N
}

fn parray(loc: &Location, round: usize) {
    let a = PArray::new(loc, N, 0u64);
    a.set_element(remote(loc, round), 7);
    loc.rmi_fence();
    assert_eq!(a.get_element(remote(loc, round)), 7);
}

fn pvector(loc: &Location, round: usize) {
    let v = PVector::new(loc, N, 0u64);
    v.array().set_element(remote(loc, round), 7);
    loc.rmi_fence();
    assert_eq!(v.array().get_element(remote(loc, round)), 7);
}

fn pmatrix(loc: &Location, round: usize) {
    let m = PMatrix::new(loc, 64, N / 64, 0u64);
    let g = remote(loc, round);
    m.set_element((g / 64, g % 64), 7);
    loc.rmi_fence();
    assert_eq!(m.get_element((g / 64, g % 64)), 7);
}

fn plist(loc: &Location, round: usize) {
    let l: PList<u64> = PList::new(loc);
    for i in 0..N / loc.nlocs() {
        l.push_anywhere(i as u64);
    }
    l.push_back(round as u64);
    l.commit();
    assert_eq!(l.global_size(), N / loc.nlocs() * loc.nlocs() + loc.nlocs());
}

fn phashmap(loc: &Location, round: usize) {
    let m: PHashMap<u64, u64> = PHashMap::new(loc);
    for k in 0..(N / loc.nlocs()) as u64 {
        m.insert_async(k * loc.nlocs() as u64 + loc.id() as u64, round as u64);
    }
    m.commit();
    assert_eq!(m.find(remote(loc, round) as u64), Some(round as u64));
}

fn graph_round(loc: &Location, g: PGraph<u64, ()>, round: usize) {
    let v = remote(loc, round);
    g.add_edge_async(v, (v + 1) % N, ());
    g.commit();
    assert!(g.find_edge(v, (v + 1) % N));
}

fn static_graph(loc: &Location, round: usize) {
    graph_round(loc, PGraph::new_static(loc, N, Directedness::Directed, 0), round);
}

fn dynamic_graph(loc: &Location, round: usize) {
    let g = PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
    for vd in (loc.id()..N).step_by(loc.nlocs()) {
        g.add_vertex_with_descriptor(vd, 0);
    }
    g.commit();
    graph_round(loc, g, round);
}

fn sort(loc: &Location, round: usize) {
    let a = PArray::from_fn(loc, N, |i| (i as u64 ^ round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    p_sort(&a);
    assert!(p_is_sorted(&a));
}

fn reduce_pg(loc: &Location, round: usize) {
    let a = PArray::from_fn(loc, N, |i| (i + round) as u64);
    let sum = p_reduce_pg(&ArrayView::new(a), ExecPolicy::default(), |_, v| v, |x, y| x + y);
    assert_eq!(sum, Some((0..N).map(|i| (i + round) as u64).sum()));
}

/// One round of a family: construct, use, drop (on return).
type Round = fn(&Location, usize);

const FAMILIES: [(&str, Round); 9] = [
    ("PArray", parray),
    ("PVector", pvector),
    ("PMatrix", pmatrix),
    ("PList", plist),
    ("PHashMap", phashmap),
    ("static PGraph", static_graph),
    ("dynamic PGraph", dynamic_graph),
    ("p_sort", sort),
    ("p_reduce_pg", reduce_pg),
];

#[test]
fn a_dropped_p_object_is_gone_after_the_next_fence() {
    for nlocs in [1, 2, 4] {
        for (family, round) in FAMILIES {
            execute(RtsConfig::default(), nlocs, |loc| {
                count_this_thread(true);
                let base = loc.live_p_objects();
                let mut live = [0; ROUNDS];
                for (r, live) in live.iter_mut().enumerate() {
                    round(loc, r);
                    // The rule's premise — every location has dropped its
                    // last handle — made true before the fence is entered;
                    // a location that runs ahead of a peer's drop reclaims
                    // at its next fence instead (tests/reclaim_rule.rs).
                    loc.barrier();
                    loc.rmi_fence();
                    assert_eq!(loc.live_p_objects(), base, "{family}, P={nlocs}, round {r}");
                    // Read with every location past its reclaim and none
                    // into the next round.
                    loc.barrier();
                    *live = live_bytes();
                    loc.barrier();
                }
                let grown = live[ROUNDS - 1] - live[2];
                assert!(
                    grown <= RESIDUE,
                    "{family}, P={nlocs}: {grown} bytes more live after round {ROUNDS} than after round 3"
                );
                count_this_thread(false);
            });
        }
    }
}
