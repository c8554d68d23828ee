//! Associative views: `MapView`, the first pView over [`PAssoc`] — the
//! key-value sibling of the sequence views. Parallelism comes from the
//! bucket decomposition of the segmented-transport layer: each location
//! processes its own buckets **bucket-at-a-time** (one borrow per
//! bucket), and remote buckets move as one segment RMI each — never one
//! boxed request per pair.

use std::collections::BTreeMap;

use stapl_containers::associative::{KvStore, PAssoc};
use stapl_core::gid::{Key, KeyHashMap};
use stapl_core::interfaces::{PContainer, SegmentId, SegmentedContainer};
use stapl_rts::Location;

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
///     assert_eq!(v.len(), 10);
///     let mut local_pairs = 0u64;
///     v.for_each_chunk(|_bucket, pairs| local_pairs += pairs.len() as u64);
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

impl<K, V, S> Clone for MapView<K, V, S>
where
    K: Key,
    V: Send + Clone + 'static,
    S: KvStore<K, V>,
{
    fn clone(&self) -> Self {
        MapView { map: self.map.clone() }
    }
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

    /// The underlying container handle.
    pub fn container(&self) -> &PAssoc<K, V, S> {
        &self.map
    }

    /// Number of pairs (the container's lazily replicated size; sees the
    /// caller's own uncommitted mutations).
    pub fn len(&self) -> usize {
        self.map.global_size()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Synchronous lookup through the view.
    pub fn get(&self, k: K) -> Option<V> {
        use stapl_core::interfaces::AssociativeContainer;
        self.map.find(k)
    }

    /// All bucket ids of the view (replicated metadata).
    pub fn segments(&self) -> Vec<SegmentId> {
        self.map.segments()
    }

    /// The bucket ids this location should process.
    pub fn local_segments(&self) -> Vec<SegmentId> {
        self.map.local_segments()
    }

    /// Visits every local (key, value) pair bucket-at-a-time under one
    /// borrow per bucket — the native traversal of the map algorithms.
    pub fn for_each_kv(&self, mut f: impl FnMut(&K, &V)) {
        for sid in self.map.local_segments() {
            self.map.with_segment(sid, &mut |k, v| f(k, v));
        }
    }

    /// Chunk-at-a-time read of this location's buckets: one call per
    /// bucket with the bucket's pairs materialized once (one borrow, one
    /// allocation per bucket — never one request per pair).
    pub fn for_each_chunk(&self, f: impl FnMut(SegmentId, &[(K, V)])) {
        self.map.for_each_local_chunk(f);
    }

    /// Bulk read of any bucket, local or remote (one segment RMI when
    /// remote).
    pub fn read_segment(&self, sid: SegmentId) -> Vec<(K, V)> {
        self.map.get_segment(sid)
    }

    pub fn location(&self) -> &Location {
        self.map.location()
    }
}

/// View over a hashed map ([`stapl_containers::associative::PHashMap`]).
pub type HashMapView<K, V> = MapView<K, V, KeyHashMap<K, V>>;

/// View over a sorted map ([`stapl_containers::associative::PMap`]):
/// `for_each_kv` visits pairs in global key order restricted to this
/// location's buckets.
pub type SortedMapView<K, V> = MapView<K, V, BTreeMap<K, V>>;

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_containers::associative::{PHashMap, PMap};
    use stapl_core::interfaces::AssociativeContainer;
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
            assert_eq!(v.len(), 42);
            let mut seen: Vec<(u64, u64)> = Vec::new();
            let mut chunks = 0;
            v.for_each_chunk(|_, pairs| {
                chunks += 1;
                seen.extend_from_slice(pairs);
            });
            assert_eq!(chunks, v.local_segments().len());
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
            let v = SortedMapView::new(m);
            // Buckets are ordered key intervals ascending by bcid, so the
            // chunked traversal must yield strictly ascending keys — both
            // within each chunk and across this location's chunks.
            let mut mine = Vec::new();
            v.for_each_chunk(|_, pairs| mine.extend(pairs.iter().map(|(k, _)| *k)));
            assert!(
                mine.windows(2).all(|w| w[0] < w[1]),
                "sorted view must iterate in global key order: {mine:?}"
            );
            let total_here = loc.allreduce_sum(mine.len() as u64);
            assert_eq!(total_here, 6, "chunks must cover every pair exactly once");
            // Remote bucket read: union over all segments sees every pair.
            let total: usize = v.segments().iter().map(|s| v.read_segment(*s).len()).sum();
            assert_eq!(total, 6);
            assert_eq!(v.get(14), Some(14));
            assert_eq!(v.get(15), None);
        });
    }
}
