//! Segmented pAlgorithms: the dynamic-container counterparts of the
//! bulk-range `p_copy`/`p_equal` family. Dynamic containers (pList,
//! pAssoc, pGraph) have no dense GID ranges, but they are organized as
//! base-container *segments* ([`SegmentedContainer`]), so these
//! algorithms move **one RMI per (owner, segment)** — O(segments)
//! messages where the `_elementwise` fallbacks pay O(N).
//!
//! All algorithms are **collective**.

use std::collections::HashMap;
use std::hash::Hash;

use stapl_core::interfaces::SegmentedContainer;

/// `p_copy` over segments: copies every item of `src` into the
/// same-keyed item of `dst`, which must share `src`'s segment structure
/// and item keys (two identically built pLists, two pAssocs over the same
/// key distribution) — the same contract as `p_copy_elementwise` on
/// shared GIDs. Each location reads its local segments under one borrow
/// apiece and ships one `set_segment` RMI per remote (owner, segment);
/// items of `dst` missing a key are skipped, exactly like the
/// element-wise `set_element` path.
pub fn p_copy_segmented<S, D>(src: &S, dst: &D)
where
    S: SegmentedContainer,
    D: SegmentedContainer<ItemKey = S::ItemKey, ItemVal = S::ItemVal>,
{
    for sid in src.local_segments() {
        let mut items = Vec::new();
        src.with_segment(sid, &mut |k, v| items.push((k.clone(), v.clone())));
        dst.set_segment(sid, items);
    }
    src.location().rmi_fence();
}

/// `p_equal` over segments: true when `a` and `b` hold equal items under
/// equal keys in every segment. Each location compares its local segments
/// of `a` against **one bulk fetch** of the corresponding segment of `b`
/// (order-insensitively, so hashed stores with different insertion
/// histories still compare equal), short-circuiting across segments after
/// the first mismatch.
pub fn p_equal_segmented<A, B>(a: &A, b: &B) -> bool
where
    A: SegmentedContainer,
    B: SegmentedContainer<ItemKey = A::ItemKey, ItemVal = A::ItemVal>,
    A::ItemKey: Eq + Hash,
    A::ItemVal: PartialEq,
{
    let mut ok = true;
    for sid in a.local_segments() {
        if !ok {
            break;
        }
        let theirs: HashMap<A::ItemKey, A::ItemVal> = b.get_segment(sid).into_iter().collect();
        let mut n = 0usize;
        a.with_segment(sid, &mut |k, v| {
            n += 1;
            if ok && theirs.get(k) != Some(v) {
                ok = false;
            }
        });
        ok = ok && n == theirs.len();
    }
    a.location().allreduce(ok, |x, y| x && y)
}

/// `p_reduce` over segments: `map` extracts a summary from each (key,
/// item) pair, `combine` merges summaries (associative). Each location
/// folds its local segments under one borrow apiece; returns the global
/// reduction on every location, `None` for an empty container.
pub fn p_reduce_segmented<C, A, M, R>(c: &C, map: M, combine: R) -> Option<A>
where
    C: SegmentedContainer,
    A: Send + Clone + 'static,
    M: Fn(&C::ItemKey, &C::ItemVal) -> A,
    R: Fn(A, A) -> A + Copy,
{
    let mut acc: Option<A> = None;
    for sid in c.local_segments() {
        c.with_segment(sid, &mut |k, v| {
            let x = map(k, v);
            acc = Some(match acc.take() {
                None => x,
                Some(a) => combine(a, x),
            });
        });
    }
    let partials = c.location().allgather(acc);
    partials.into_iter().flatten().reduce(combine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_containers::associative::PHashMap;
    use stapl_containers::list::PList;
    use stapl_core::interfaces::{AssociativeContainer, ElementWrite, LocalIteration, PContainer};
    use stapl_rts::{execute, RtsConfig};

    /// Two identically shaped pLists (same slabs, same sequence numbers).
    fn twin_lists(loc: &stapl_rts::Location, per: usize) -> (PList<u64>, PList<u64>) {
        let src: PList<u64> = PList::new(loc);
        let dst: PList<u64> = PList::new(loc);
        for i in 0..per {
            src.push_anywhere(loc.id() as u64 * 1000 + i as u64);
            dst.push_anywhere(0);
        }
        src.commit();
        dst.commit();
        (src, dst)
    }

    #[test]
    fn copy_and_equal_on_plists() {
        execute(RtsConfig::default(), 3, |loc| {
            let (src, dst) = twin_lists(loc, 6);
            assert!(!p_equal_segmented(&src, &dst));
            p_copy_segmented(&src, &dst);
            assert!(p_equal_segmented(&src, &dst));
            assert_eq!(src.collect_ordered(), dst.collect_ordered());
            loc.barrier();
            // A genuine mismatch is detected.
            if loc.id() == 0 {
                let g = src.push_anywhere(424242);
                src.erase_async(g);
            }
            src.commit();
            if loc.id() == 1 {
                let gid = {
                    let mut first = None;
                    dst.for_each_local(|g, _| first = first.or(Some(g)));
                    first.unwrap()
                };
                dst.set_element(gid, 999_999);
            }
            loc.rmi_fence();
            assert!(!p_equal_segmented(&src, &dst));
        });
    }

    #[test]
    fn copy_beats_elementwise_on_migrated_slabs() {
        execute(RtsConfig::unbuffered(), 4, |loc| {
            let (src, dst) = twin_lists(loc, 64);
            // Rotate every dst slab one location over: all writes remote.
            if loc.id() == 0 {
                for sid in 0..loc.nlocs() {
                    dst.migrate_bcontainer(sid, (sid + 1) % loc.nlocs());
                }
            }
            loc.rmi_fence();
            // Snapshot, then barrier, so no location starts the measured
            // phase before every location has its baseline.
            let before = loc.stats();
            loc.barrier();
            p_copy_segmented(&src, &dst);
            let seg_reqs = loc.stats().remote_requests - before.remote_requests;
            loc.barrier();
            let before = loc.stats();
            loc.barrier();
            crate::map_func::p_copy_elementwise(&src, &dst);
            let elem_reqs = loc.stats().remote_requests - before.remote_requests;
            assert!(p_equal_segmented(&src, &dst));
            assert!(
                seg_reqs * 10 <= elem_reqs,
                "segmented copy should coarsen remote traffic >= 10x \
                 (got {seg_reqs} vs {elem_reqs})"
            );
        });
    }

    #[test]
    fn reduce_over_segments_matches_elementwise() {
        execute(RtsConfig::default(), 3, |loc| {
            let l: PList<u64> = PList::new(loc);
            for i in 0..10 {
                l.push_anywhere(i);
            }
            l.commit();
            let seg = p_reduce_segmented(&l, |_, v| *v, |a, b| a + b).unwrap();
            let elem = crate::map_func::p_reduce(&l, |_, v| *v, |a, b| a + b).unwrap();
            assert_eq!(seg, elem);
            assert_eq!(seg, 45 * loc.nlocs() as u64);
            let empty: PList<u64> = PList::new(loc);
            empty.commit();
            assert_eq!(p_reduce_segmented(&empty, |_, v| *v, |a: u64, b| a + b), None);
        });
    }

    #[test]
    fn copy_and_equal_on_passoc() {
        execute(RtsConfig::default(), 2, |loc| {
            let a: PHashMap<u64, u64> = PHashMap::with_buckets(loc, 4);
            let b: PHashMap<u64, u64> = PHashMap::with_buckets(loc, 4);
            if loc.id() == 0 {
                for k in 0..20 {
                    a.insert_async(k, k * 7);
                    b.insert_async(k, 0); // same keys, different insertion order below
                }
            } else {
                for k in (0..20).rev() {
                    b.insert_async(k, 0);
                }
            }
            a.commit();
            b.commit();
            p_copy_segmented(&a, &b);
            assert!(p_equal_segmented(&a, &b), "order-insensitive segment compare");
            for k in 0..20 {
                assert_eq!(b.find(k), Some(k * 7));
            }
        });
    }
}
