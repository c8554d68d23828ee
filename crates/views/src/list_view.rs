//! List views (Table II's `static_list_pview` / `list_pview`): concurrent
//! access to *segments* of a pList, one or more per location, which is how
//! the paper parallelizes list algorithms without random access.

use stapl_containers::list::{ListGid, PList};
use stapl_core::interfaces::{
    ElementRead, ElementWrite, LocalIteration, PContainer, SegmentId, SegmentedContainer,
    SequenceContainer,
};
use stapl_rts::Location;

/// Read-only segmented view of a pList (`static_list_pview`).
pub struct StaticListView<T: Send + Clone + 'static> {
    list: PList<T>,
}

impl<T: Send + Clone + 'static> StaticListView<T> {
    pub fn new(list: PList<T>) -> Self {
        StaticListView { list }
    }

    /// The list's lazily replicated size (sees the caller's own
    /// uncommitted mutations).
    pub fn len(&self) -> usize {
        self.list.global_size()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates this location's segment in linearization order — the
    /// native traversal the algorithms use.
    pub fn for_each_local(&self, f: impl FnMut(ListGid, &T)) {
        self.list.for_each_local(f);
    }

    pub fn read(&self, gid: ListGid) -> T {
        self.list.get_element(gid)
    }

    /// All slab (segment) ids of the viewed list.
    pub fn segments(&self) -> Vec<SegmentId> {
        self.list.segments()
    }

    /// The slab ids currently stored on this location.
    pub fn local_segments(&self) -> Vec<SegmentId> {
        self.list.local_segments()
    }

    /// Chunk-at-a-time traversal of this location's slabs: one call per
    /// slab with its (sequence, value) pairs materialized once — the bulk
    /// sibling of [`StaticListView::for_each_local`].
    pub fn for_each_chunk(&self, f: impl FnMut(SegmentId, &[(u64, T)])) {
        self.list.for_each_local_chunk(f);
    }

    /// Bulk read of any slab, local or remote (one segment RMI when
    /// remote) — how a location traverses list data it does not own
    /// without paying one request per element.
    pub fn read_segment(&self, sid: SegmentId) -> Vec<(u64, T)> {
        self.list.get_segment(sid)
    }

    pub fn location(&self) -> &Location {
        self.list.location()
    }
}

/// Mutable segmented view of a pList (`list_pview`): adds write, insert
/// and erase.
pub struct ListView<T: Send + Clone + 'static> {
    list: PList<T>,
}

impl<T: Send + Clone + 'static> ListView<T> {
    pub fn new(list: PList<T>) -> Self {
        ListView { list }
    }

    pub fn len(&self) -> usize {
        self.list.global_size()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn for_each_local(&self, f: impl FnMut(ListGid, &T)) {
        self.list.for_each_local(f);
    }

    pub fn for_each_local_mut(&self, f: impl FnMut(ListGid, &mut T)) {
        self.list.for_each_local_mut(f);
    }

    pub fn read(&self, gid: ListGid) -> T {
        self.list.get_element(gid)
    }

    pub fn write(&self, gid: ListGid, v: T) {
        self.list.set_element(gid, v);
    }

    pub fn insert_before(&self, gid: ListGid, v: T) {
        SequenceContainer::insert_before_async(&self.list, gid, v);
    }

    pub fn erase(&self, gid: ListGid) {
        SequenceContainer::erase_async(&self.list, gid);
    }

    /// The paper's `insert_any`: position chosen for locality.
    pub fn insert_any(&self, v: T) {
        self.list.push_anywhere(v);
    }

    /// Chunk-at-a-time traversal; see [`StaticListView::for_each_chunk`].
    pub fn for_each_chunk(&self, f: impl FnMut(SegmentId, &[(u64, T)])) {
        self.list.for_each_local_chunk(f);
    }

    /// In-place chunk mutation of this location's slabs: one borrow per
    /// slab, no per-element routing.
    pub fn for_each_chunk_mut(&self, mut f: impl FnMut(SegmentId, &u64, &mut T)) {
        for sid in self.list.local_segments() {
            self.list.with_segment_mut(sid, &mut |seq, v| f(sid, seq, v));
        }
    }

    pub fn location(&self) -> &Location {
        self.list.location()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn static_view_segments_cover_list() {
        execute(RtsConfig::default(), 3, |loc| {
            let l = PList::new(loc);
            for i in 0..4 {
                l.push_anywhere(loc.id() * 10 + i);
            }
            l.commit();
            let v = StaticListView::new(l);
            assert_eq!(v.len(), 12);
            let mut n = 0u64;
            v.for_each_local(|gid, val| {
                assert_eq!(v.read(gid), *val);
                n += 1;
            });
            assert_eq!(loc.allreduce_sum(n), 12);
        });
    }

    #[test]
    fn chunked_traversal_covers_all_segments() {
        execute(RtsConfig::default(), 3, |loc| {
            let l: PList<u64> = PList::new(loc);
            for i in 0..5 {
                l.push_anywhere(loc.id() as u64 * 100 + i);
            }
            l.commit();
            let v = StaticListView::new(l.clone());
            // Local chunks: one per slab, in list order, no communication.
            let before = loc.stats().remote_requests;
            let mut mine = Vec::new();
            v.for_each_chunk(|_, pairs| mine.extend(pairs.iter().map(|(_, x)| *x)));
            assert_eq!(loc.stats().remote_requests, before, "local chunks must not communicate");
            assert_eq!(mine, (0..5).map(|i| loc.id() as u64 * 100 + i).collect::<Vec<_>>());
            loc.barrier();
            // Remote segments: one bulk RMI each, full coverage from root.
            if loc.id() == 0 {
                let total: usize = v.segments().iter().map(|s| v.read_segment(*s).len()).sum();
                assert_eq!(total, 15);
            }
            loc.barrier();
            // Chunked in-place mutation through the mutable view.
            let w = ListView::new(l.clone());
            w.for_each_chunk_mut(|_, _, x| *x += 1);
            loc.barrier();
            let mut after = Vec::new();
            w.for_each_chunk(|_, pairs| after.extend(pairs.iter().map(|(_, x)| *x)));
            assert!(after.iter().zip(&mine).all(|(a, m)| *a == m + 1));
        });
    }

    #[test]
    fn list_view_mutation() {
        execute(RtsConfig::default(), 2, |loc| {
            let l = PList::new(loc);
            let g = l.push_anywhere(1i64);
            loc.rmi_fence();
            let v = ListView::new(l.clone());
            v.write(g, 5);
            v.for_each_local_mut(|_, x| *x *= 10);
            loc.rmi_fence();
            assert_eq!(v.read(g), 50);
            v.insert_any(7);
            v.insert_before(g, 3);
            l.commit();
            assert_eq!(v.len(), 6); // per location: anywhere(1)+any(7)+before(3)
            v.erase(g);
            l.commit();
            assert_eq!(v.len(), 4);
        });
    }
}
