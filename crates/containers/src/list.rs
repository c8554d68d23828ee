//! pList (Chapter X): a distributed doubly-linked sequence.
//!
//! Each location owns one or more [`SlabList`]
//! base containers; the global linearization is base-container order
//! (an ordered partition, Fig. 37) × within-list order. Element GIDs are
//! stable `(bcid, id)` pairs, so — unlike pVector — inserts and erases
//! are O(1) and never invalidate other elements' GIDs. The
//! [`PList::push_anywhere`] method is the paper's scalable insertion: it
//! appends to a local base container with **no communication at all**.
//!
//! Base-container *placement* is directory-backed: a distributed
//! `bcid → owner` directory (plus the per-location owner cache of the
//! locality layer) resolves where each base container currently lives, so
//! [`PList::migrate_bcontainer`] can move whole slabs between locations —
//! the pList load-balancing primitive. A base container is registered
//! only once it migrates: until then its *birth* owner (`bcid / bpl`) is
//! its placement, and accesses route optimistically to it as a static
//! hint; after a migration the stale hint or cache entry self-heals along
//! the old owner's forwarding pointer.

use std::cell::RefCell;

use stapl_core::bcontainer::{BaseContainer, MemSize};
use stapl_core::directory::{
    dir_migrate, dir_register, dir_route, dir_route_ret, DirectoryShard, HasDirectory,
    OwnerCache, Resolution,
};
use stapl_core::gid::Bcid;
use stapl_core::interfaces::{
    ElementRead, ElementWrite, LocalIteration, PContainer, SegmentId, SegmentedContainer,
};
use stapl_core::location_manager::LocationManager;
use stapl_core::pobject::PObject;
use stapl_rts::{Counter, LocId, Location, RmiFuture};

use crate::slab_list::SlabList;
use crate::LazySize;

/// Stable global identifier of a pList element: the base container it
/// lives in plus its never-reused id there.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ListGid {
    pub bcid: Bcid,
    /// The element's [`SlabList`] id (slot and generation) — an opaque
    /// name, not a position: list order is link order.
    pub seq: u64,
}

/// pList base container: a slab list plus its BCID.
pub struct ListBc<T> {
    list: SlabList<T>,
}

impl<T: 'static> BaseContainer for ListBc<T> {
    type Value = T;

    fn len(&self) -> usize {
        self.list.len()
    }

    fn clear(&mut self) {
        self.list.clear();
    }

    fn memory_size(&self) -> MemSize {
        let (meta, data) = self.list.memory_bytes();
        MemSize::new(meta, data)
    }
}

/// Per-location representative.
pub struct ListRep<T> {
    lm: LocationManager<ListBc<T>>,
    /// Base containers per location at construction; bcid `loc * bpl + k`
    /// is *born* on `loc` (the static routing hint) but may migrate.
    bpl: usize,
    nlocs: usize,
    size: LazySize<usize>,
    /// Pushes `push_anywhere` made into local base containers.
    anywhere_pushes: usize,
    /// Position (not BCID) of the local base container `push_anywhere`
    /// fills next: `anywhere_pushes % nbc` (0 when `nbc == 0`), kept by
    /// stepping, and re-derived only when a migration changes `nbc`.
    anywhere_cursor: usize,
    /// This location's shard of the `bcid → owner` directory.
    dir: DirectoryShard<Bcid>,
    /// Cached `bcid → owner` resolutions (the locality layer).
    cache: OwnerCache<Bcid>,
}

impl<T: 'static> HasDirectory<Bcid> for ListRep<T> {
    fn directory(&self) -> &DirectoryShard<Bcid> {
        &self.dir
    }

    fn directory_mut(&mut self) -> &mut DirectoryShard<Bcid> {
        &mut self.dir
    }

    fn owner_cache(&self) -> Option<&OwnerCache<Bcid>> {
        Some(&self.cache)
    }

    /// A base container is its own gid.
    fn owns_gid(&self, bcid: &Bcid) -> Option<Bcid> {
        self.lm.get(*bcid).is_some().then_some(*bcid)
    }

    fn birth(&self, bcid: &Bcid) -> Option<LocId> {
        (*bcid < self.nlocs * self.bpl).then(|| bcid / self.bpl)
    }
}

impl<T: Send + Clone + 'static> ListRep<T> {
    fn bc(&self, bcid: Bcid) -> &SlabList<T> {
        &self.lm.get(bcid).expect("pList: bcid not on this location").list
    }

    fn bc_mut(&mut self, bcid: Bcid) -> &mut SlabList<T> {
        &mut self.lm.get_mut(bcid).expect("pList: bcid not on this location").list
    }

    /// Re-derives `anywhere_cursor` after the local base containers changed.
    fn reseat_anywhere_cursor(&mut self) {
        self.anywhere_cursor = self.anywhere_pushes % self.lm.num_bcontainers().max(1);
    }

    /// This location's slabs as (bcid, values-in-list-order) — the gather
    /// payload.
    fn local_slab_pairs(&self) -> crate::BcidPayload<T> {
        self.lm
            .iter()
            .map(|(bcid, bc)| (bcid, bc.list.iter().map(|(_, v)| v.clone()).collect()))
            .collect()
    }
}

/// The STAPL pList.
///
/// ```
/// use stapl_rts::{execute, RtsConfig};
/// use stapl_containers::list::PList;
/// use stapl_core::interfaces::PContainer;
///
/// execute(RtsConfig::default(), 2, |loc| {
///     let l: PList<u32> = PList::new(loc);
///     // Scalable insertion: local, no communication, O(1).
///     let gid = l.push_anywhere(loc.id() as u32);
///     assert!(l.contains(gid));
///     l.commit(); // refresh the lazily replicated size
///     assert_eq!(l.global_size(), 2);
/// });
/// ```
pub struct PList<T: Send + Clone + 'static> {
    obj: PObject<ListRep<T>>,
}

impl<T: Send + Clone + 'static> Clone for PList<T> {
    fn clone(&self) -> Self {
        PList { obj: self.obj.clone() }
    }
}

impl<T: Send + Clone + 'static> PList<T> {
    /// **Collective.** An empty pList with one base container per location.
    pub fn new(loc: &Location) -> Self {
        Self::with_bcontainers(loc, 1)
    }

    /// **Collective.** An empty pList with `bpl` base containers per
    /// location (the partition granularity knob of Fig. 37).
    pub fn with_bcontainers(loc: &Location, bpl: usize) -> Self {
        assert!(bpl >= 1);
        let mut lm = LocationManager::new();
        for k in 0..bpl {
            lm.add_bcontainer(loc.id() * bpl + k, ListBc { list: SlabList::new() });
        }
        let rep = ListRep {
            lm,
            bpl,
            nlocs: loc.nlocs(),
            size: LazySize::default(),
            anywhere_pushes: 0,
            anywhere_cursor: 0,
            dir: DirectoryShard::new(),
            cache: OwnerCache::from_config(loc.config()),
        };
        // Every base container is where it was born: the directory needs
        // no entry for it until it migrates.
        let obj = dir_register(loc, rep);
        loc.barrier();
        PList { obj }
    }

    fn me(&self) -> LocId {
        self.obj.location().id()
    }

    /// Routes `f` to the location currently owning base container `bcid`
    /// (asynchronous): local fast path, then owner cache, then the birth
    /// owner `bcid / bpl` as a static hint, then the directory home. `f`
    /// receives the representative's cell so read-only operations can take
    /// a shared borrow (nested reads from local iteration stay legal), and
    /// `bcid`, which the request carries once.
    fn route(&self, bcid: Bcid, f: impl FnOnce(&RefCell<ListRep<T>>, &Location, Bcid) + Send + 'static) {
        if self.obj.local().lm.get(bcid).is_some() {
            f(self.obj.rep_cell(), self.obj.location(), bcid);
            return;
        }
        let hint = bcid / self.obj.local().bpl;
        dir_route(&self.obj, Resolution::Forwarding, bcid, Some(hint), move |cell, loc, bcid, found| {
            assert!(found.is_some(), "pList: base container {bcid} is not registered");
            f(cell, loc, bcid);
        });
    }

    /// Routing with a returned value; see [`PList::route`].
    fn route_ret<R: Send + 'static>(
        &self,
        bcid: Bcid,
        f: impl FnOnce(&RefCell<ListRep<T>>, &Location, Bcid) -> R + Send + 'static,
    ) -> RmiFuture<R> {
        if self.obj.local().lm.get(bcid).is_some() {
            let r = f(self.obj.rep_cell(), self.obj.location(), bcid);
            return RmiFuture::ready(r);
        }
        let hint = bcid / self.obj.local().bpl;
        dir_route_ret(&self.obj, Resolution::Forwarding, bcid, Some(hint), move |cell, loc, bcid, found| {
            assert!(found.is_some(), "pList: base container {bcid} is not registered");
            f(cell, loc, bcid)
        })
    }

    /// Appends at the global end (last base container of the global
    /// linearization, wherever it currently lives). Asynchronous.
    pub fn push_back(&self, v: T) {
        let (nlocs, bpl) = {
            let rep = self.obj.local();
            (rep.nlocs, rep.bpl)
        };
        let bcid = nlocs * bpl - 1;
        self.obj.local_mut().size.mark(true);
        self.route(bcid, move |cell, _, bcid| {
            let mut rep = cell.borrow_mut();
            rep.size.mark(true);
            rep.bc_mut(bcid).push_back(v);
        });
    }

    /// Prepends at the global front. Asynchronous.
    pub fn push_front(&self, v: T) {
        self.obj.local_mut().size.mark(true);
        self.route(0, move |cell, _, bcid| {
            let mut rep = cell.borrow_mut();
            rep.size.mark(true);
            rep.bc_mut(bcid).push_front(v);
        });
    }

    /// Adds the element at an unspecified position — into a local base
    /// container, with no communication (the paper's `push_anywhere`).
    /// Returns the new element's GID immediately. Successive pushes
    /// round-robin over the local base containers in BCID order; when every
    /// local base container has been migrated away, falls back to a
    /// synchronous append through this location's birth container.
    #[inline]
    pub fn push_anywhere(&self, v: T) -> ListGid {
        {
            let mut rep = self.obj.local_mut();
            let ListRep { lm, size, anywhere_pushes, anywhere_cursor, .. } = &mut *rep;
            let (k, nbc) = (*anywhere_cursor, lm.num_bcontainers());
            if let Some((bcid, bc)) = lm.nth_mut(k) {
                *anywhere_cursor = if k + 1 < nbc { k + 1 } else { 0 };
                *anywhere_pushes = anywhere_pushes.wrapping_add(1);
                size.mark(true);
                let seq = bc.list.push_back(v);
                return ListGid { bcid, seq };
            }
        }
        self.push_anywhere_at_birth(v)
    }

    /// `push_anywhere` with no local base container left.
    #[cold]
    #[inline(never)]
    fn push_anywhere_at_birth(&self, v: T) -> ListGid {
        let bcid = self.me() * self.obj.local().bpl;
        self.obj.local_mut().size.mark(true);
        let seq = self
            .route_ret(bcid, move |cell, _, bcid| {
                let mut rep = cell.borrow_mut();
                rep.size.mark(true);
                rep.bc_mut(bcid).push_back(v)
            })
            .get();
        ListGid { bcid, seq }
    }

    /// Synchronously inserts before `gid`, returning the new GID, or
    /// `None` when `gid` no longer exists.
    pub fn insert_before(&self, gid: ListGid, v: T) -> Option<ListGid> {
        self.obj.local_mut().size.mark(true);
        let ListGid { bcid, seq: before } = gid;
        self.route_ret(bcid, move |cell, _, bcid| {
            let mut rep = cell.borrow_mut();
            rep.size.mark(true);
            rep.bc_mut(bcid).insert_before(before, v).map(|seq| ListGid { bcid, seq })
        })
        .get()
    }

    /// Inserts before `gid` (asynchronous).
    pub fn insert_before_async(&self, gid: ListGid, v: T) {
        self.obj.local_mut().size.mark(true);
        let seq = gid.seq;
        self.route(gid.bcid, move |cell, _, bcid| {
            let mut rep = cell.borrow_mut();
            rep.size.mark(true);
            rep.bc_mut(bcid).insert_before(seq, v);
        });
    }

    /// Erases the element `gid` (asynchronous).
    pub fn erase_async(&self, gid: ListGid) {
        self.obj.local_mut().size.mark(true);
        let seq = gid.seq;
        self.route(gid.bcid, move |cell, _, bcid| {
            let mut rep = cell.borrow_mut();
            rep.size.mark(true);
            rep.bc_mut(bcid).erase(seq);
        });
    }

    /// **Collective.** Removes all elements; distribution stays valid.
    pub fn clear(&self) {
        let loc = self.obj.location().clone();
        loc.rmi_fence();
        {
            let mut rep = self.obj.local_mut();
            rep.lm.clear();
            rep.size = LazySize::default();
        }
        loc.barrier();
    }

    /// Asynchronously moves base container `bcid` — the whole slab — to
    /// location `dest` and re-registers it in the directory: the pList
    /// load-balancing primitive. Visible after the next fence; an
    /// operation on the container's elements concurrent with the move that
    /// reaches the old owner follows its forwarding pointer to `dest`.
    /// Peers' stale hints and cached owners self-heal on their next access.
    pub fn migrate_bcontainer(&self, bcid: Bcid, dest: LocId) {
        dir_migrate(
            &self.obj,
            Resolution::Forwarding,
            bcid,
            dest,
            move |rep| {
                let bc = rep.lm.remove_bcontainer(bcid);
                rep.reseat_anywhere_cursor();
                bc
            },
            move |rep, bc| {
                rep.lm.add_bcontainer(bcid, bc);
                rep.reseat_anywhere_cursor();
            },
        );
    }

    /// Front/back GIDs of the global linearization (synchronous scans over
    /// base containers in order; `None` for an empty list).
    pub fn front_gid(&self) -> Option<ListGid> {
        let (nlocs, bpl) = {
            let rep = self.obj.local();
            (rep.nlocs, rep.bpl)
        };
        for bcid in 0..nlocs * bpl {
            let found: Option<u64> =
                self.route_ret(bcid, |cell, _, bcid| cell.borrow().bc(bcid).front_id()).get();
            if let Some(seq) = found {
                return Some(ListGid { bcid, seq });
            }
        }
        None
    }

    /// GID following `gid` in the global linearization (synchronous).
    pub fn next_gid(&self, gid: ListGid) -> Option<ListGid> {
        let seq = gid.seq;
        let within: Option<u64> =
            self.route_ret(gid.bcid, move |cell, _, bcid| cell.borrow().bc(bcid).next_id(seq)).get();
        if let Some(seq) = within {
            return Some(ListGid { bcid: gid.bcid, seq });
        }
        // Cross into the next non-empty base container.
        let (nlocs, bpl) = {
            let rep = self.obj.local();
            (rep.nlocs, rep.bpl)
        };
        for bcid in gid.bcid + 1..nlocs * bpl {
            let found: Option<u64> =
                self.route_ret(bcid, |cell, _, bcid| cell.borrow().bc(bcid).front_id()).get();
            if let Some(seq) = found {
                return Some(ListGid { bcid, seq });
            }
        }
        None
    }

    /// Synchronous existence check.
    pub fn contains(&self, gid: ListGid) -> bool {
        let seq = gid.seq;
        self.route_ret(gid.bcid, move |cell, _, bcid| cell.borrow().bc(bcid).contains(seq)).get()
    }

    /// Fallible synchronous read.
    pub fn try_get(&self, gid: ListGid) -> Option<T> {
        let seq = gid.seq;
        self.route_ret(gid.bcid, move |cell, _, bcid| cell.borrow().bc(bcid).get(seq).cloned()).get()
    }

    /// All elements in global linearization order — a test/debug helper.
    ///
    /// **One-sided** gather-to-caller over split RMIs: each peer ships its
    /// slabs once (one response per location, merged here by BCID), so a
    /// single caller pays O(n) — unlike the old allreduce, which made
    /// every location materialize all n elements (O(n·P) on the wire)
    /// whether it wanted them or not. Any subset of locations may call
    /// concurrently; peers only need to be polling (e.g. blocked in a
    /// fence or barrier).
    pub fn collect_ordered(&self) -> Vec<T> {
        crate::gather_by_bcid(&self.obj, ListRep::local_slab_pairs)
    }
}

impl<T: Send + Clone + 'static> PContainer for PList<T> {
    fn location(&self) -> &Location {
        self.obj.location()
    }

    /// The lazily replicated size (`LazySize::read`): the committed
    /// count, or after this location issued or received a size-changing
    /// mutation, a one-sided recount over all locations.
    fn global_size(&self) -> usize {
        LazySize::read(&self.obj, |rep| rep.size, |rep| rep.lm.local_len())
    }

    fn local_size(&self) -> usize {
        self.obj.local().lm.local_len()
    }

    fn commit(&self) {
        LazySize::commit(&self.obj, |rep| &mut rep.size, |rep| rep.lm.local_len());
    }

    fn memory_size(&self) -> MemSize {
        let local = {
            let rep = self.obj.local();
            let mut m = rep.lm.memory_size();
            m.metadata += rep.dir.memory_size() + rep.cache.memory_size();
            m
        };
        self.obj.location().allreduce(local, |a, b| a + b)
    }
}

impl<T: Send + Clone + 'static> ElementRead<ListGid> for PList<T> {
    type Value = T;

    fn get_element(&self, gid: ListGid) -> T {
        self.try_get(gid).expect("pList: GID does not name a live element")
    }

    fn split_get_element(&self, gid: ListGid) -> RmiFuture<T> {
        let seq = gid.seq;
        self.route_ret(gid.bcid, move |cell, _, bcid| {
            cell.borrow().bc(bcid).get(seq).cloned().expect("pList: GID does not name a live element")
        })
    }

    fn is_local(&self, gid: ListGid) -> bool {
        self.obj.local().lm.get(gid.bcid).is_some()
    }
}

impl<T: Send + Clone + 'static> ElementWrite<ListGid> for PList<T> {
    fn set_element(&self, gid: ListGid, v: T) {
        let seq = gid.seq;
        self.route(gid.bcid, move |cell, _, bcid| {
            if let Some(slot) = cell.borrow_mut().bc_mut(bcid).get_mut(seq) {
                *slot = v;
            }
        });
    }

    fn apply_set<F>(&self, gid: ListGid, f: F)
    where
        F: FnOnce(&mut T) + Send + 'static,
    {
        let seq = gid.seq;
        self.route(gid.bcid, move |cell, _, bcid| {
            if let Some(slot) = cell.borrow_mut().bc_mut(bcid).get_mut(seq) {
                f(slot);
            }
        });
    }

    fn apply_get<R, F>(&self, gid: ListGid, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        let seq = gid.seq;
        self.route_ret(gid.bcid, move |cell, _, bcid| {
            let mut rep = cell.borrow_mut();
            f(rep.bc_mut(bcid).get_mut(seq).expect("pList: GID does not name a live element"))
        })
        .get()
    }
}

impl<T: Send + Clone + 'static> LocalIteration<ListGid> for PList<T> {
    fn for_each_local(&self, mut f: impl FnMut(ListGid, &T)) {
        let rep = self.obj.local();
        for (bcid, bc) in rep.lm.iter() {
            for (seq, v) in bc.list.iter() {
                f(ListGid { bcid, seq }, v);
            }
        }
    }

    fn for_each_local_mut(&self, mut f: impl FnMut(ListGid, &mut T)) {
        let mut rep = self.obj.local_mut();
        for (bcid, bc) in rep.lm.iter_mut() {
            bc.list.for_each_mut(|seq, v| f(ListGid { bcid, seq }, v));
        }
    }
}

impl<T: Send + Clone + 'static> SegmentedContainer for PList<T> {
    type ItemKey = u64;
    type ItemVal = T;

    fn segments(&self) -> Vec<SegmentId> {
        let rep = self.obj.local();
        (0..rep.nlocs * rep.bpl).collect()
    }

    fn local_segments(&self) -> Vec<SegmentId> {
        self.obj.local().lm.bcids().collect()
    }

    fn is_local_segment(&self, sid: SegmentId) -> bool {
        self.obj.local().lm.get(sid).is_some()
    }

    fn get_segment(&self, sid: SegmentId) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        if self.with_segment(sid, &mut |seq, v| out.push((*seq, v.clone()))) {
            return out;
        }
        self.obj.location().count(Counter::segment_requests, 1);
        self.route_ret(sid, |cell, _, sid| {
            cell.borrow().bc(sid).iter().map(|(seq, v)| (seq, v.clone())).collect::<Vec<_>>()
        })
        .get()
    }

    fn set_segment(&self, sid: SegmentId, items: Vec<(u64, T)>) {
        if !self.is_local_segment(sid) {
            self.obj.location().count(Counter::segment_requests, 1);
        }
        self.route(sid, move |cell, _, sid| {
            let mut rep = cell.borrow_mut();
            let bc = rep.bc_mut(sid);
            for (seq, v) in items {
                if let Some(slot) = bc.get_mut(seq) {
                    *slot = v;
                }
            }
        });
    }

    // A copy in every codegen unit that walks a segment, as
    // `PAssoc::with_segment` has: only inlined next to its caller does the
    // `dyn FnMut` callback become a direct, inlinable call, not one `dyn`
    // call per element (`p_reduce_segmented`).
    #[inline]
    fn with_segment(&self, sid: SegmentId, f: &mut dyn FnMut(&u64, &T)) -> bool {
        let rep = self.obj.local();
        let Some(bc) = rep.lm.get(sid) else { return false };
        self.obj.location().count(Counter::localized_chunks, 1);
        for (seq, v) in bc.list.iter() {
            f(&seq, v);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn push_anywhere_is_local_and_commit_counts() {
        execute(RtsConfig::unbuffered(), 4, |loc| {
            let l = PList::new(loc);
            let before = loc.stats().remote_requests;
            for i in 0..10 {
                let gid = l.push_anywhere(loc.id() * 10 + i);
                assert!(l.is_local(gid));
            }
            let after = loc.stats().remote_requests;
            assert_eq!(before, after, "push_anywhere must not communicate");
            l.commit();
            assert_eq!(l.global_size(), 40);
        });
    }

    #[test]
    fn global_order_is_bcid_then_list_order() {
        execute(RtsConfig::default(), 3, |loc| {
            let l = PList::new(loc);
            // Each location appends locally; global order must be loc 0's
            // elements, then loc 1's, then loc 2's.
            for i in 0..3 {
                l.push_anywhere(loc.id() as i64 * 100 + i);
            }
            l.commit();
            let v = l.collect_ordered();
            assert_eq!(v, vec![0, 1, 2, 100, 101, 102, 200, 201, 202]);
        });
    }

    #[test]
    fn push_back_and_front_hit_the_ends() {
        execute(RtsConfig::default(), 3, |loc| {
            let l = PList::new(loc);
            if loc.id() == 1 {
                l.push_back(99i32);
                l.push_front(-1);
            }
            l.commit();
            let v = l.collect_ordered();
            assert_eq!(v, vec![-1, 99]);
            let front = l.front_gid().unwrap();
            let back = l.next_gid(front).unwrap();
            assert_eq!(l.next_gid(back), None);
            assert_eq!(l.get_element(front), -1);
            assert_eq!(l.get_element(back), 99);
            assert_eq!(front.bcid, 0);
            assert_eq!(back.bcid, loc.nlocs() - 1);
        });
    }

    #[test]
    fn insert_before_preserves_order() {
        execute(RtsConfig::default(), 2, |loc| {
            let l = PList::new(loc);
            let anchor = (loc.id() == 0).then(|| l.push_anywhere(10));
            loc.rmi_fence();
            if let Some(a) = anchor {
                let b = l.insert_before(a, 5).unwrap();
                let c = l.insert_before(b, 1).unwrap();
                assert!(l.contains(c));
            }
            l.commit();
            // collect_ordered is one-sided: only the consumer calls it.
            if loc.id() == 0 {
                assert_eq!(l.collect_ordered(), vec![1, 5, 10]);
            }
        });
    }

    #[test]
    fn remote_insert_before_and_erase() {
        execute(RtsConfig::default(), 2, |loc| {
            let l = PList::new(loc);
            let gid = (loc.id() == 1).then(|| l.push_anywhere(7i32));
            let gid = loc.broadcast(1, gid);
            loc.rmi_fence();
            if loc.id() == 0 {
                // Remote (cross-location) insert before location 1's element.
                let g2 = l.insert_before(gid.unwrap(), 3).unwrap();
                assert_eq!(l.try_get(g2), Some(3));
                l.erase_async(gid.unwrap());
            }
            l.commit();
            assert_eq!(l.collect_ordered(), vec![3]);
            assert_eq!(l.global_size(), 1);
        });
    }

    #[test]
    fn set_and_apply_cross_location() {
        execute(RtsConfig::default(), 2, |loc| {
            let l = PList::new(loc);
            let g = (loc.id() == 0).then(|| l.push_anywhere(1u64));
            let g = loc.broadcast(0, g).unwrap();
            loc.rmi_fence();
            if loc.id() == 1 {
                l.set_element(g, 5);
                l.apply_set(g, |v| *v *= 3);
                let seen = l.apply_get(g, |v| *v);
                assert_eq!(seen, 15);
            }
            loc.rmi_fence();
            assert_eq!(l.get_element(g), 15);
        });
    }

    #[test]
    fn traversal_crosses_bcontainers() {
        execute(RtsConfig::default(), 3, |loc| {
            let l = PList::new(loc);
            l.push_anywhere(loc.id() as u32);
            l.commit();
            if loc.id() == 0 {
                let mut gids = vec![l.front_gid().unwrap()];
                while let Some(n) = l.next_gid(*gids.last().unwrap()) {
                    gids.push(n);
                }
                let vals: Vec<u32> = gids.iter().map(|g| l.get_element(*g)).collect();
                assert_eq!(vals, vec![0, 1, 2]);
            }
        });
    }

    #[test]
    fn multiple_bcontainers_per_location() {
        execute(RtsConfig::default(), 2, |loc| {
            let l = PList::with_bcontainers(loc, 3);
            for i in 0..6 {
                l.push_anywhere(loc.id() * 100 + i);
            }
            l.commit();
            assert_eq!(l.global_size(), 12);
            // push_anywhere round-robins across the 3 local bContainers.
            let mut per_bc = std::collections::HashMap::new();
            l.for_each_local(|g, _| *per_bc.entry(g.bcid).or_insert(0) += 1);
            assert_eq!(per_bc.len(), 3);
            assert!(per_bc.values().all(|&c| c == 2));
        });
    }

    #[test]
    fn clear_empties_globally() {
        execute(RtsConfig::default(), 2, |loc| {
            let l = PList::new(loc);
            l.push_anywhere(1);
            l.push_back(2);
            l.commit();
            // Both locations pushed: 2 × push_anywhere + 2 × push_back.
            assert_eq!(l.global_size(), 4);
            l.clear();
            l.commit();
            assert_eq!(l.global_size(), 0);
            assert!(l.front_gid().is_none());
        });
    }

    #[test]
    fn erase_then_insert_before_misses_gracefully() {
        execute(RtsConfig::default(), 1, |loc| {
            let l = PList::new(loc);
            let g = l.push_anywhere(1);
            l.erase_async(g);
            loc.rmi_fence();
            assert_eq!(l.insert_before(g, 2), None);
            assert_eq!(l.try_get(g), None);
            assert!(!l.contains(g));
        });
    }

    #[test]
    fn migrate_bcontainer_moves_slab_and_access_self_heals() {
        execute(RtsConfig::default(), 3, |loc| {
            let l: PList<u64> = PList::new(loc);
            let mine: Vec<ListGid> =
                (0..4).map(|i| l.push_anywhere(loc.id() as u64 * 10 + i)).collect();
            l.commit();
            assert_eq!(l.global_size(), 12);
            let all: Vec<Vec<ListGid>> = loc.allgather(mine.clone());
            let g1 = all[1][0]; // first element of location 1's slab
            // Warm caches/hints: everyone reads location 1's element.
            assert_eq!(l.try_get(g1), Some(10));
            loc.barrier();
            // Location 0 migrates location 1's base container to location 2.
            if loc.id() == 0 {
                l.migrate_bcontainer(1, 2);
            }
            loc.rmi_fence();
            assert_eq!(l.local_size(), if loc.id() == 2 { 8 } else if loc.id() == 1 { 0 } else { 4 });
            // Stale hints and cached owners must self-heal.
            assert_eq!(l.try_get(g1), Some(10));
            assert!(l.contains(g1));
            // Separate the read phase from the write phase: without this a
            // fast location's set below could race a slow one's read above.
            loc.barrier();
            l.set_element(g1, 99);
            loc.rmi_fence();
            assert_eq!(l.try_get(g1), Some(99));
            l.commit();
            assert_eq!(l.global_size(), 12);
            // Migration never changes the global linearization (bcid order).
            assert_eq!(
                l.collect_ordered(),
                vec![0, 1, 2, 3, 99, 11, 12, 13, 20, 21, 22, 23]
            );
        });
    }

    #[test]
    fn push_back_follows_migrated_tail_bcontainer() {
        execute(RtsConfig::default(), 2, |loc| {
            let l: PList<i32> = PList::new(loc);
            // Migrate the tail base container (bcid 1, born on loc 1) to 0.
            if loc.id() == 0 {
                l.migrate_bcontainer(1, 0);
            }
            loc.rmi_fence();
            if loc.id() == 1 {
                l.push_back(42);
            }
            l.commit();
            assert_eq!(l.collect_ordered(), vec![42]);
            let back = l.front_gid().unwrap();
            assert_eq!(back.bcid, 1);
            if loc.id() == 0 {
                assert!(l.is_local(back), "the tail slab now lives on location 0");
            }
        });
    }

    #[test]
    fn push_anywhere_falls_back_when_all_local_bcontainers_migrated() {
        execute(RtsConfig::default(), 2, |loc| {
            let l: PList<u32> = PList::new(loc);
            if loc.id() == 0 {
                l.migrate_bcontainer(1, 0);
            }
            loc.rmi_fence();
            if loc.id() == 1 {
                let gid = l.push_anywhere(7);
                assert_eq!(gid.bcid, 1, "falls back to the birth container");
                assert!(!l.is_local(gid));
                assert_eq!(l.try_get(gid), Some(7));
            }
            l.commit();
            assert_eq!(l.global_size(), 1);
        });
    }

    #[test]
    fn global_size_sees_own_uncommitted_mutations() {
        execute(RtsConfig::default(), 3, |loc| {
            let l: PList<u64> = PList::new(loc);
            loc.rmi_fence();
            if loc.id() == 0 {
                for i in 0..16 {
                    l.push_anywhere(i);
                }
                // Regression: this used to return the stale cached 0 until
                // an explicit commit().
                assert_eq!(l.global_size(), 16, "must observe own uncommitted inserts");
                // Remote append (the tail slab lives on the last location).
                PList::push_back(&l, 99);
                assert_eq!(l.global_size(), 17, "must observe own remote push_back");
                let g = l.push_anywhere(1);
                l.erase_async(g);
                assert_eq!(l.global_size(), 17, "must observe own erase");
            }
            l.commit();
            // After commit every location agrees, and reads are O(1) again.
            assert_eq!(l.global_size(), 17);
        });
    }

    #[test]
    fn segment_transport_matches_elementwise() {
        execute(RtsConfig::default(), 3, |loc| {
            let l: PList<u64> = PList::new(loc);
            let mine: Vec<ListGid> =
                (0..4).map(|i| l.push_anywhere(loc.id() as u64 * 10 + i)).collect();
            l.commit();
            let all: Vec<Vec<ListGid>> = loc.allgather(mine);
            // Migrate location 1's slab so a segment is neither at its
            // birth owner nor resolvable without the directory.
            if loc.id() == 0 {
                l.migrate_bcontainer(1, 2);
            }
            loc.rmi_fence();
            // get_segment (local or remote) must agree with element gets.
            for (owner, gids) in all.iter().enumerate() {
                let seg = l.get_segment(owner);
                let baseline: Vec<(u64, u64)> =
                    gids.iter().map(|g| (g.seq, l.try_get(*g).unwrap())).collect();
                assert_eq!(seg, baseline, "segment {owner} disagrees with element-wise reads");
            }
            // with_segment serves only a local segment: slab 1 now lives
            // on location 2.
            let mut n = 0;
            assert_eq!(l.with_segment(1, &mut |_, _| n += 1), loc.id() == 2);
            assert_eq!(n, if loc.id() == 2 { 4 } else { 0 });
            loc.barrier();
            // Whole-segment write-back: double everything, one RMI/slab.
            if loc.id() == 0 {
                for sid in l.segments() {
                    let doubled: Vec<(u64, u64)> =
                        l.get_segment(sid).into_iter().map(|(s, v)| (s, v * 2)).collect();
                    l.set_segment(sid, doubled);
                }
            }
            loc.rmi_fence();
            assert_eq!(
                l.collect_ordered(),
                vec![0, 2, 4, 6, 20, 22, 24, 26, 40, 42, 44, 46],
                "set_segment must write every element exactly once"
            );
        });
    }
}
