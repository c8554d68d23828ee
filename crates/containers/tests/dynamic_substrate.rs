//! The sequential substrates under the dynamic containers, through their
//! public interfaces. The pGraph vertex table (`GraphBc`: dense slots
//! behind a descriptor → slot hash index) against an ordered-map model,
//! with the contract that makes its lazy re-ordering invisible: whatever
//! order racing migrations land in, every ordered read of a location's
//! vertices is ascending. The id hasher on the strided descriptors it
//! exists for. `SlabList`'s generational ids: a stale one names nothing.

use std::collections::BTreeMap;
use std::hash::{BuildHasher, BuildHasherDefault};

use stapl_containers::graph::{
    Directedness, GraphBc, GraphPartitionKind, PGraph, Vertex, VertexDesc,
};
use stapl_containers::slab_list::SlabList;
use stapl_core::bcontainer::BaseContainer;
use stapl_core::gid::IdHasher;
use stapl_core::interfaces::{PContainer, SegmentedContainer};
use stapl_rts::{execute, RtsConfig};

fn vertex(descriptor: VertexDesc, property: u64) -> Vertex<u64, ()> {
    Vertex { descriptor, property, edges: Vec::new() }
}

/// A random insert / remove / re-insert / lookup stream over descriptors
/// `me + k·P` (what `add_vertex` hands out on one of P locations) mixed
/// with explicit out-of-order ones: same membership and values as a
/// `BTreeMap` at every step, the same ordered iteration after every burst.
#[test]
fn vertex_table_agrees_with_an_ordered_map_model() {
    for stride in [1usize, 2, 3, 64] {
        let mut bc: GraphBc<u64, ()> = GraphBc::default();
        let mut model: BTreeMap<VertexDesc, u64> = BTreeMap::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ stride as u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut auto = 5 % stride;
        for _burst in 0..40 {
            for _ in 0..50 {
                let r = next();
                // A present descriptor half of the time, else any (often
                // absent, or removed earlier) one.
                let vd = match model.keys().nth(next() as usize % model.len().max(1)) {
                    Some(vd) if r & 8 == 0 => *vd,
                    _ => next() as usize % (1024 * stride),
                };
                match r % 5 {
                    0 | 1 => {
                        assert_eq!(bc.insert(vertex(auto, r)).map(|v| v.property), model.insert(auto, r));
                        auto += stride;
                    }
                    2 => assert_eq!(bc.insert(vertex(vd, r)).map(|v| v.property), model.insert(vd, r)),
                    3 => assert_eq!(bc.remove(vd).map(|v| v.property), model.remove(&vd)),
                    _ => {
                        assert_eq!(bc.get_mut(vd).map(|v| v.property), model.get(&vd).copied());
                        assert_eq!(bc.contains(vd), model.contains_key(&vd));
                    }
                }
                assert_eq!(bc.len(), model.len());
            }
            let ordered: Vec<_> = bc.ordered().iter().map(|v| (v.descriptor, v.property)).collect();
            assert_eq!(ordered, model.iter().map(|(vd, p)| (*vd, *p)).collect::<Vec<_>>());
            for (vd, p) in &model {
                assert_eq!(bc.get_mut(*vd).map(|v| v.property), Some(*p), "stride {stride}, vertex {vd}");
            }
        }
    }
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
            g.for_each_local_vertex(|v| local.push((v.descriptor, v.property)));
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

/// `std`'s table takes the bucket from the low bits of the hash and its
/// tag from the top seven: both must vary over what one of 64 locations'
/// `add_vertex` hands out, `me + k·64`.
#[test]
fn id_hasher_spreads_strided_descriptors() {
    let build = BuildHasherDefault::<IdHasher>::default();
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
