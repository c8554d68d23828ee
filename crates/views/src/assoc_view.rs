//! Associative views: `MapView`, the pView over [`PAssoc`] — the
//! key-value sibling of the sequence views. Parallelism comes from the
//! bucket decomposition of the segmented-transport layer: each location
//! walks its own buckets **bucket-at-a-time**, one borrow per bucket,
//! never one request per pair.

use stapl_containers::associative::{KvStore, PAssoc};
use stapl_core::gid::Key;
use stapl_core::interfaces::SegmentedContainer;

/// Key-value view of an associative pContainer (`map_pview`).
///
/// ```
/// use stapl_rts::{execute, RtsConfig};
/// use stapl_containers::associative::PHashMap;
/// use stapl_views::assoc_view::MapView;
/// use stapl_core::interfaces::{AssociativeContainer, PContainer};
///
/// execute(RtsConfig::default(), 2, |loc| {
///     let m: PHashMap<u64, u64> = PHashMap::new(loc);
///     if loc.id() == 0 {
///         for k in 0..10 {
///             m.insert_async(k, k * k);
///         }
///     }
///     m.commit();
///     let v = MapView::new(m);
///     let mut local_pairs = 0u64;
///     v.for_each_kv(|k, v| {
///         assert_eq!(*v, k * k);
///         local_pairs += 1;
///     });
///     assert_eq!(loc.allreduce_sum(local_pairs), 10);
/// });
/// ```
pub struct MapView<K, V, S>
where
    K: Key,
    V: Send + Clone + 'static,
    S: KvStore<K, V>,
{
    map: PAssoc<K, V, S>,
}

impl<K, V, S> MapView<K, V, S>
where
    K: Key,
    V: Send + Clone + 'static,
    S: KvStore<K, V>,
{
    pub fn new(map: PAssoc<K, V, S>) -> Self {
        MapView { map }
    }

    /// Visits every local (key, value) pair bucket-at-a-time under one
    /// borrow per bucket — the native traversal of the map algorithms.
    /// Over a sorted map ([`stapl_containers::associative::PMap`]) the
    /// pairs come in global key order restricted to this location's
    /// buckets.
    pub fn for_each_kv(&self, mut f: impl FnMut(&K, &V)) {
        for sid in self.map.local_segments() {
            self.map.with_segment(sid, &mut |k, v| f(k, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_containers::associative::{PHashMap, PMap};
    use stapl_core::interfaces::{AssociativeContainer, PContainer};
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn chunks_cover_all_pairs_exactly_once() {
        execute(RtsConfig::default(), 3, |loc| {
            let m: PHashMap<u64, u64> = PHashMap::with_buckets(loc, 7);
            for k in 0..42 {
                if k % loc.nlocs() as u64 == loc.id() as u64 {
                    m.insert_async(k, k + 1);
                }
            }
            m.commit();
            let v = MapView::new(m);
            let mut seen: Vec<(u64, u64)> = Vec::new();
            v.for_each_kv(|k, v| seen.push((*k, *v)));
            let mut all = loc.allreduce(seen, |mut a, mut b| {
                a.append(&mut b);
                a
            });
            all.sort_unstable();
            assert_eq!(all, (0..42).map(|k| (k, k + 1)).collect::<Vec<_>>());
        });
    }

    #[test]
    fn chunked_traversal_is_localized_not_elementwise() {
        execute(RtsConfig::unbuffered(), 2, |loc| {
            let m: PHashMap<u64, u64> = PHashMap::new(loc);
            for k in 0..40 {
                m.insert_async(k, k);
            }
            m.commit();
            let v = MapView::new(m);
            let before = loc.stats();
            let mut n = 0;
            v.for_each_kv(|_, _| n += 1);
            let after = loc.stats();
            assert!(n > 0);
            assert_eq!(
                before.remote_requests, after.remote_requests,
                "local bucket traversal must not communicate"
            );
            assert!(after.localized_chunks > before.localized_chunks);
        });
    }

    #[test]
    fn sorted_view_iterates_in_key_order_and_remote_read_works() {
        execute(RtsConfig::default(), 2, |loc| {
            let m: PMap<u32, u32> = PMap::new(loc, vec![10, 20]);
            if loc.id() == 1 {
                for k in [25, 3, 14, 8, 29, 11] {
                    m.insert_async(k, k);
                }
            }
            m.commit();
            let v = MapView::new(m.clone());
            // Buckets are ordered key intervals ascending by bcid, so the
            // bucket-at-a-time traversal must yield strictly ascending keys
            // — both within each bucket and across this location's buckets.
            let mut mine = Vec::new();
            v.for_each_kv(|k, _| mine.push(*k));
            assert!(
                mine.windows(2).all(|w| w[0] < w[1]),
                "sorted view must iterate in global key order: {mine:?}"
            );
            let total_here = loc.allreduce_sum(mine.len() as u64);
            assert_eq!(total_here, 6, "the traversal must cover every pair exactly once");
            // Remote bucket read: union over all segments sees every pair.
            let total: usize = m.segments().iter().map(|s| m.get_segment(*s).len()).sum();
            assert_eq!(total, 6);
            assert_eq!(m.find(14), Some(14));
            assert_eq!(m.find(15), None);
        });
    }
}
