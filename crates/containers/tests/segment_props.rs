//! Property tests for the dynamic-container segmented transport: the
//! segment-at-a-time paths (`get_segment`/`set_segment`/`merge_segment`
//! and the segmented algorithms) must agree with the
//! element-wise baselines on random pList/pAssoc workloads — with random
//! slab migrations thrown in, owner cache on and off, P ∈ {1..4} (the
//! mirror of `bulk_props.rs` for the non-indexed containers). The pAssoc
//! combines and pList's `push_anywhere` placement are also checked against
//! sequential models.

use std::collections::BTreeMap;

use proptest::prelude::*;
use stapl_algorithms::segmented::{p_copy_segmented, p_equal_segmented, p_reduce_segmented};
use stapl_containers::associative::{KvStore, PAssoc, PHashMap, PMap, PMultiMap};
use stapl_containers::list::PList;
use stapl_core::interfaces::{
    AssociativeContainer, LocalIteration, PContainer, SegmentedContainer,
};
use stapl_rts::{execute, RtsConfig};

fn cfg(cache: bool) -> RtsConfig {
    let base = RtsConfig::base();
    RtsConfig { dir_cache_capacity: if cache { base.dir_cache_capacity } else { 0 }, ..base }
}

/// Builds a pList with `per` elements pushed on every location, then
/// applies the fuzzed slab migrations (issued by location 0).
fn fuzzed_list(
    loc: &stapl_rts::Location,
    per: usize,
    bpl: usize,
    migrations: &[(usize, usize)],
    value_of: impl Fn(usize, usize) -> u64,
) -> PList<u64> {
    let l: PList<u64> = PList::with_bcontainers(loc, bpl);
    for i in 0..per {
        l.push_anywhere(value_of(loc.id(), i));
    }
    l.commit();
    if loc.id() == 0 {
        for (slab_pick, dest_pick) in migrations {
            let sid = slab_pick % (loc.nlocs() * bpl);
            l.migrate_bcontainer(sid, dest_pick % loc.nlocs());
        }
    }
    loc.rmi_fence();
    l
}

/// What location `l` contributes to a combine: the pairs from index `l`
/// on, each value raised by `l` — so keys overlap across locations, and
/// duplicate keys meet within one location's batch too.
fn contribution(pairs: &[(u64, u64)], l: usize) -> impl Iterator<Item = (u64, u64)> + '_ {
    pairs.iter().skip(l).map(move |&(k, v)| (k, v + l as u64))
}

/// A combine's identity that is not the sum's: a key combined from the
/// identity more than once, or never, shows in the total.
const IDENTITY: u64 = 1000;

/// **Collective.** `merge_segment` (grouped by bucket) and per-pair
/// `apply_or_insert` into two containers `make` builds, from every
/// location, must each equal the sequential model: per key, `IDENTITY`
/// plus every contributed value.
fn combines_match_model<S: KvStore<u64, u64>>(
    loc: &stapl_rts::Location,
    pairs: &[(u64, u64)],
    make: impl Fn() -> PAssoc<u64, u64, S>,
) {
    let (bulk, elem) = (make(), make());
    let mut groups: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for (k, v) in contribution(pairs, loc.id()) {
        groups.entry(bulk.bucket_of(&k)).or_default().push((k, v));
        elem.apply_or_insert(k, IDENTITY, move |c| *c += v);
    }
    for (sid, items) in groups {
        bulk.merge_segment(sid, items, IDENTITY, |a, b| *a += b);
    }
    bulk.commit();
    elem.commit();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for l in 0..loc.nlocs() {
        for (k, v) in contribution(pairs, l) {
            *model.entry(k).or_insert(IDENTITY) += v;
        }
    }
    let model: Vec<(u64, u64)> = model.into_iter().collect();
    for (what, m) in [("merge_segment", &bulk), ("apply_or_insert", &elem)] {
        let mut got = m.collect_ordered();
        got.sort_unstable();
        assert_eq!(got, model, "{what} disagrees with the sequential model");
    }
    loc.barrier();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The pAssoc combines against a sequential model, over both stores
    /// (`BTreeMap` under a pMap, `KeyHashMap` under a pHashMap) and
    /// pMultiMap's `insert_async`, with keys that overlap across locations.
    #[test]
    fn passoc_combines_match_a_sequential_model(
        p in 1usize..4,
        buckets in 1usize..7,
        mut splitters in proptest::collection::vec(0u64..40, 0..4),
        pairs in proptest::collection::vec((0u64..40, 0u64..1000), 0..24),
    ) {
        splitters.sort_unstable();
        splitters.dedup();
        execute(cfg(false), p, |loc| {
            combines_match_model(loc, &pairs, || PMap::new(loc, splitters.clone()));
            combines_match_model(loc, &pairs, || PHashMap::with_buckets(loc, buckets));
            let multi: PMultiMap<u64, u64> = PMultiMap::new(loc, splitters.clone());
            for (k, v) in contribution(&pairs, loc.id()) {
                multi.insert_async(k, v);
            }
            multi.commit();
            let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for l in 0..loc.nlocs() {
                for (k, v) in contribution(&pairs, l) {
                    model.entry(k).or_default().push(v);
                }
            }
            assert_eq!(multi.num_keys(), model.len());
            for (k, mut want) in model {
                let mut got = multi.find_all(k);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "pMultiMap values under {k}");
            }
            loc.barrier();
        });
    }

    /// `push_anywhere` fills a location's slabs round-robin in BCID order:
    /// push number `c` lands in the local slab at position `c % nbc` — also
    /// once a migration has taken one slab away from, or given one to, the
    /// location.
    #[test]
    fn plist_push_anywhere_fills_slabs_round_robin(
        p in 1usize..4,
        before in 0usize..12,
        after in 0usize..12,
        slab_pick in 0usize..64,
        dest_pick in 0usize..4,
    ) {
        const BPL: usize = 3;
        execute(cfg(false), p, |loc| {
            let l: PList<u64> = PList::with_bcontainers(loc, BPL);
            let mut mine: Vec<usize> = (0..BPL).map(|k| loc.id() * BPL + k).collect();
            let mut pushes = 0;
            let mut push = |mine: &[usize], n: usize| {
                for _ in 0..n {
                    let gid = l.push_anywhere(pushes as u64);
                    assert_eq!(gid.bcid, mine[pushes % mine.len()], "push {pushes}");
                    pushes += 1;
                }
            };
            push(&mine, before);
            let sid = slab_pick % (p * BPL);
            let (from, to) = (sid / BPL, dest_pick % p);
            if loc.id() == 0 {
                l.migrate_bcontainer(sid, to);
            }
            loc.rmi_fence();
            if loc.id() == from {
                mine.retain(|b| *b != sid);
            }
            if loc.id() == to {
                mine.push(sid);
                mine.sort_unstable();
            }
            push(&mine, after);
            l.commit();
            assert_eq!(l.global_size(), p * (before + after));
            loc.barrier();
        });
    }

    /// Concatenating `get_segment` over all slabs (from any location)
    /// reproduces exactly the element-wise global linearization, under
    /// random migrations, with the owner cache on and off.
    #[test]
    fn plist_segment_reads_agree_with_elementwise(
        per in 0usize..6,
        p in 1usize..5,
        bpl in 1usize..3,
        cache_pick in 0usize..2,
        migrations in proptest::collection::vec((0usize..64, 0usize..4), 0..4),
    ) {
        execute(cfg(cache_pick == 1), p, |loc| {
            let l = fuzzed_list(loc, per, bpl, &migrations, |id, i| (id * 100 + i) as u64);
            // Element-wise model: local iteration allgathered and ordered
            // by (bcid, seq) — the global linearization.
            let mut mine: Vec<(usize, u64, u64)> = Vec::new();
            l.for_each_local(|g, v| mine.push((g.bcid, g.seq, *v)));
            let mut model = loc.allreduce(mine, |mut a, mut b| {
                a.append(&mut b);
                a
            });
            model.sort_unstable();
            // Segmented traversal: one bulk read per slab, every location.
            let mut seg: Vec<(usize, u64, u64)> = Vec::new();
            for sid in l.segments() {
                for (s, v) in l.get_segment(sid) {
                    seg.push((sid, s, v));
                }
            }
            assert_eq!(seg, model, "segment reads disagree with element-wise model");
            // And the gather-based collector agrees with both.
            let vals: Vec<u64> = model.iter().map(|(_, _, v)| *v).collect();
            assert_eq!(l.collect_ordered(), vals);
            loc.barrier();
        });
    }

    /// Segmented copy between twin pLists (dst slabs randomly migrated)
    /// equals the element-wise baseline copy; `p_equal_segmented` and
    /// `p_reduce_segmented` agree with their element-wise counterparts.
    #[test]
    fn plist_segmented_copy_agrees_with_elementwise(
        per in 0usize..6,
        p in 1usize..5,
        bpl in 1usize..3,
        cache_pick in 0usize..2,
        migrations in proptest::collection::vec((0usize..64, 0usize..4), 0..4),
    ) {
        execute(cfg(cache_pick == 1), p, |loc| {
            let src = fuzzed_list(loc, per, bpl, &[], |id, i| (id * 100 + i) as u64 + 1);
            let dst_seg = fuzzed_list(loc, per, bpl, &migrations, |_, _| 0);
            let dst_elem = fuzzed_list(loc, per, bpl, &migrations, |_, _| 0);
            p_copy_segmented(&src, &dst_seg);
            stapl_algorithms::map_func::p_copy_elementwise(&src, &dst_elem);
            assert_eq!(dst_seg.collect_ordered(), src.collect_ordered());
            assert_eq!(dst_elem.collect_ordered(), src.collect_ordered());
            assert!(p_equal_segmented(&src, &dst_seg));
            assert!(p_equal_segmented(&dst_seg, &dst_elem));
            let seg_sum = p_reduce_segmented(&src, |_, v| *v, |a, b| a + b);
            let elem_sum = stapl_algorithms::map_func::p_reduce(&src, |_, v| *v, |a, b| a + b);
            assert_eq!(seg_sum, elem_sum);
            loc.barrier();
        });
    }

    /// pAssoc: bucket-grained `merge_segment` produces the same container
    /// as element-wise `apply_or_insert` on random key/value workloads
    /// with random bucket counts.
    #[test]
    fn passoc_segmented_writes_agree_with_elementwise(
        p in 1usize..5,
        buckets in 1usize..7,
        cache_pick in 0usize..2,
        pairs in proptest::collection::vec((0u64..40, 0u64..1000), 0..24),
    ) {
        execute(cfg(cache_pick == 1), p, |loc| {
            let bulk: PHashMap<u64, u64> = PHashMap::with_buckets(loc, buckets);
            let elem: PHashMap<u64, u64> = PHashMap::with_buckets(loc, buckets);
            // One writer so duplicate keys resolve last-write-wins
            // identically on both sides.
            if loc.id() == 0 {
                for (k, v) in &pairs {
                    bulk.insert_async(*k, *v);
                    elem.insert_async(*k, *v);
                }
            }
            bulk.commit();
            elem.commit();
            assert_eq!(bulk.global_size(), elem.global_size());
            loc.barrier();
            // Combining writes: merge_segment vs apply_or_insert, from
            // every location concurrently (commutative combine).
            let mut groups: std::collections::HashMap<usize, Vec<(u64, u64)>> = Default::default();
            for (k, _) in &pairs {
                groups.entry(bulk.bucket_of(k)).or_default().push((*k, 1));
            }
            for (sid, items) in groups {
                bulk.merge_segment(sid, items, 0, |a, b| *a += b);
            }
            for (k, _) in &pairs {
                elem.apply_or_insert(*k, 0, |v| *v += 1);
            }
            bulk.commit();
            elem.commit();
            assert!(
                p_equal_segmented(&bulk, &elem),
                "merge_segment disagrees with apply_or_insert"
            );
            loc.barrier();
        });
    }
}
