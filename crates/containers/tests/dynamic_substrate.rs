//! The sequential substrates under the dynamic containers, through their
//! public interfaces. The pGraph vertex table (`GraphBc`: dense slots
//! behind an open-addressed table of slot numbers keyed by the slots' own
//! descriptors) against an ordered-map model — with the table's edge
//! cases: emptied and refilled, a probe run that wraps past its end, keys
//! past 2^32 — and what its index costs, with the contract that makes its
//! lazy re-ordering invisible: whatever order racing migrations land in,
//! every ordered read of a location's vertices is ascending. The id hasher
//! on the strided descriptors the directory keys by. `SlabList`'s
//! generational ids: a stale one names nothing.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasher, BuildHasherDefault};

use stapl_containers::graph::{
    Directedness, GraphBc, GraphPartitionKind, PGraph, Vertex, VertexDesc,
};
use stapl_containers::slab_list::SlabList;
use stapl_core::bcontainer::BaseContainer;
use stapl_core::gid::{KeyHasher, MUL};
use stapl_core::interfaces::{PContainer, SegmentedContainer};
use stapl_rts::{execute, RtsConfig};

fn vertex(descriptor: VertexDesc, property: u64) -> Vertex<u64, ()> {
    Vertex { descriptor, property, edges: Vec::new() }
}

/// A vertex table and the ordered map it must agree with; `gone` holds
/// every descriptor removed and not stored again.
#[derive(Default)]
struct Modelled {
    bc: GraphBc<u64, ()>,
    model: BTreeMap<VertexDesc, u64>,
    gone: BTreeSet<VertexDesc>,
}

impl Modelled {
    fn insert(&mut self, vd: VertexDesc, p: u64) {
        assert_eq!(self.bc.insert(vertex(vd, p)).map(|v| v.property), self.model.insert(vd, p), "insert {vd}");
        self.gone.remove(&vd);
        assert_eq!(self.bc.len(), self.model.len());
    }

    fn remove(&mut self, vd: VertexDesc) {
        let expect = self.model.remove(&vd);
        assert_eq!(self.bc.remove(vd).map(|v| v.property), expect, "remove {vd}");
        if expect.is_some() {
            self.gone.insert(vd);
        }
        assert_eq!(self.bc.len(), self.model.len());
    }

    fn lookup(&mut self, vd: VertexDesc) {
        assert_eq!(self.bc.get_mut(vd).map(|v| *v.property), self.model.get(&vd).copied(), "get {vd}");
        assert_eq!(self.bc.contains(vd), self.model.contains_key(&vd), "contains {vd}");
    }

    /// Every stored descriptor hits and every removed one misses.
    fn lookups(&mut self) {
        for (vd, p) in &self.model {
            assert_eq!(self.bc.get_mut(*vd).map(|v| *v.property), Some(*p), "vertex {vd}");
        }
        for vd in &self.gone {
            assert!(!self.bc.contains(*vd) && self.bc.get_mut(*vd).is_none(), "removed {vd} found");
        }
    }

    /// Lookups before and after an ordered read, which must be the model's.
    fn check(&mut self) {
        self.lookups();
        let ordered: Vec<_> = self.bc.ordered().map(|v| (v.descriptor, *v.property)).collect();
        assert_eq!(ordered, self.model.iter().map(|(vd, p)| (*vd, *p)).collect::<Vec<_>>());
        self.lookups();
    }
}

/// A random insert / remove / re-insert / lookup stream over descriptors
/// `me + k·P` (what `add_vertex` hands out on one of P locations) mixed
/// with explicit out-of-order ones, each mapped into a family of
/// descriptors — small, past 2^32, multiples of 2^40, near `usize::MAX` —
/// with every eighth burst removing every vertex: same membership and
/// values as a `BTreeMap` at every step, the same ordered iteration after
/// every burst. Then a probe run that wraps past the index's end, losing
/// entries from its middle and its start.
#[test]
fn vertex_table_agrees_with_an_ordered_map_model() {
    let families: [fn(usize) -> usize; 4] = [|d| d, |d| d + (1 << 32), |d| d << 40, |d| usize::MAX - d];
    for (family, &f) in families.iter().enumerate() {
        for stride in [1usize, 2, 3, 64] {
            let mut t = Modelled::default();
            let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ stride as u64 ^ (family as u64) << 8;
            let mut next = || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut auto = 5 % stride;
            for burst in 0..40 {
                if burst % 8 == 7 {
                    // Empty the table; the next bursts refill it.
                    for vd in t.model.keys().copied().collect::<Vec<_>>() {
                        t.remove(vd);
                    }
                    t.check();
                    continue;
                }
                for _ in 0..50 {
                    let r = next();
                    // A present descriptor half of the time, else any (often
                    // absent, or removed earlier) one.
                    let vd = match t.model.keys().nth(next() as usize % t.model.len().max(1)) {
                        Some(vd) if r & 8 == 0 => *vd,
                        _ => f(next() as usize % (1024 * stride)),
                    };
                    match r % 5 {
                        0 | 1 => {
                            t.insert(f(auto), r);
                            auto += stride;
                        }
                        2 => t.insert(vd, r),
                        3 => t.remove(vd),
                        _ => t.lookup(vd),
                    }
                }
                t.check();
            }
        }
    }

    // The top twelve bits of `vd × MUL` pick the home entry of any index
    // up to 4096 entries: all ones is its last entry, all zeros its first.
    let homed = |top: u64| (0usize..).filter(move |vd| (*vd as u64).wrapping_mul(MUL) >> 52 == top);
    let (last, first): (Vec<_>, Vec<_>) = (homed(0xfff).take(6).collect(), homed(0).take(3).collect());
    let mut t = Modelled::default();
    for (k, &vd) in last.iter().enumerate() {
        t.insert(vd, k as u64);
        if let Some(&vd) = first.get(k) {
            t.insert(vd, 100 + k as u64);
        }
    }
    t.lookups();
    for vd in [last[2], first[0], last[0], last[4], first[2]] {
        t.remove(vd);
        t.lookups();
    }
    t.check();
    for (k, &vd) in last.iter().chain(&first).enumerate() {
        t.insert(vd, 200 + k as u64);
    }
    t.check();
}

/// The index holds a 4-byte slot number per entry at load ≤ 1/2, so it
/// costs 8 to 16 bytes per vertex.
#[test]
fn vertex_index_costs_at_most_16_bytes_per_vertex() {
    let mut bc: GraphBc<u64, ()> = GraphBc::default();
    for k in 0..1usize << 12 {
        bc.insert(vertex(5 + k * 64, 0));
    }
    let per_vertex = bc.memory_size().metadata as f64 / bc.len() as f64;
    assert!(per_vertex <= 16.0, "index metadata is {per_vertex} bytes per vertex");
}

/// Two locations migrate disjoint vertex sets into the third with no
/// fence between them, so the payloads interleave there in arrival order.
#[test]
fn racing_migrations_leave_every_location_in_descriptor_order() {
    for _ in 0..20 {
        execute(RtsConfig::default(), 3, |loc| {
            let g: PGraph<u64, ()> =
                PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
            let mine: Vec<VertexDesc> = (0..16).map(|k| g.add_vertex(k)).collect();
            g.commit();
            if loc.id() < 2 {
                // Highest descriptor first: arrival order is not sorted
                // even from one source.
                for &vd in mine.iter().rev().step_by(2) {
                    g.migrate_vertex(vd, 2);
                }
            }
            g.commit();
            let mut local: Vec<(VertexDesc, u64)> = Vec::new();
            g.for_each_local_vertex(|v| local.push((v.descriptor, *v.property)));
            assert_eq!(local.len(), if loc.id() == 2 { 32 } else { 8 });
            assert!(local.windows(2).all(|w| w[0].0 < w[1].0), "unordered: {local:?}");
            assert_eq!(g.local_vertices(), local.iter().map(|(vd, _)| *vd).collect::<Vec<_>>());
            // `get_segment`, served locally or by the owner, agrees.
            let all = loc.allgather(local);
            for sid in g.segments() {
                assert_eq!(g.get_segment(sid), all[sid], "segment {sid} read at {}", loc.id());
            }
            loc.barrier();
        });
    }
}

/// `std`'s table — the directory shard's and the owner cache's — takes
/// the bucket from the low bits of the hash and its tag from the top
/// seven: both must vary over what one of 64 locations' `add_vertex` hands
/// out, `me + k·64`.
#[test]
fn id_hasher_spreads_strided_descriptors() {
    let build = BuildHasherDefault::<KeyHasher>::default();
    let (mut buckets, mut tags) = (vec![false; 4096], [false; 128]);
    for k in 0..4096usize {
        let h = build.hash_one(5 + k * 64);
        buckets[(h & 4095) as usize] = true;
        tags[(h >> 57) as usize] = true;
    }
    let used = buckets.iter().filter(|b| **b).count();
    assert!(used >= 2000, "4096 stride-64 descriptors landed in {used} of 4096 buckets");
    assert!(tags.iter().filter(|t| **t).count() >= 100, "the tags must vary too");
}

#[test]
fn a_stale_list_id_names_nothing_once_its_slot_is_reused() {
    let mut l = SlabList::new();
    let keep = l.push_back(0);
    let stale = l.push_back(1);
    l.erase(stale);
    let tenant = l.push_back(2);
    assert_eq!(tenant as u32, stale as u32, "same slot, next generation");
    assert!(!l.contains(stale) && l.get(stale).is_none() && l.get_mut(stale).is_none());
    assert_eq!((l.erase(stale), l.insert_before(stale, 9)), (None, None));
    assert_eq!((l.next_id(stale), l.prev_id(stale)), (None, None));
    assert_eq!(l.iter().collect::<Vec<_>>(), vec![(keep, &0), (tenant, &2)]);
}
