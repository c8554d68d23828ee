//! pArray (Chapter IX): the parallel equivalent of `std::valarray` — a
//! fixed-size, globally addressable, distributed array with index GIDs.
//!
//! Assembled exactly as Section V.E describes: a balanced (or blocked,
//! block-cyclic, explicit) [`IndexPartition`] splits the domain `[0, n)`
//! into sub-domains, a [`PartitionMapper`] places one base container per
//! sub-domain, and the replicated [`IndexDistribution`] gives every
//! location closed-form address resolution — no directory traffic, the
//! static-container optimization of Section V.C.

use std::cell::RefCell;

use stapl_core::bcontainer::{BaseContainer, MemSize};
use stapl_core::distribution::{GidRun, IndexDistribution};
use stapl_core::domain::Range1d;
use stapl_core::gid::Bcid;
use stapl_core::interfaces::{
    ElementRead, ElementWrite, LocalIteration, PContainer, RangedContainer,
};
use stapl_core::location_manager::LocationManager;
use stapl_core::mapper::{CyclicMapper, GeneralMapper, PartitionMapper};
use stapl_core::partition::{BalancedPartition, ExplicitPartition, IndexPartition, IndexSubDomain};
use stapl_core::pobject::PObject;
use stapl_rts::{Counter, LocId, Location, RmiFuture};

/// Base container of a pArray: the values of one sub-domain, addressed by
/// the sub-domain's linearization offset.
pub struct ArrayBc<T> {
    sd: IndexSubDomain,
    /// Exactly `sd.len()` values, in the sub-domain's linearization.
    store: Vec<T>,
}

impl<T: Clone> ArrayBc<T> {
    fn new(sd: IndexSubDomain, init: &T) -> Self {
        let store = vec![init.clone(); sd.len()];
        ArrayBc { sd, store }
    }

    /// The element at `gid` when this sub-domain is contiguous (every
    /// default constructor's) and holds it: one range test, no call — the
    /// element methods' inline probe ([`ArrayRep::with`]). The storage has
    /// exactly the sub-domain's length, so the slice's own bounds check on
    /// `gid - lo` (wrapping below `lo`) is the test `lo <= gid < hi`.
    #[inline(always)]
    fn contiguous_get(&self, gid: usize) -> Option<&T> {
        match &self.sd {
            IndexSubDomain::Contiguous(r) => self.store.get(gid.wrapping_sub(r.lo)),
            _ => None,
        }
    }

    #[inline(always)]
    fn contiguous_get_mut(&mut self, gid: usize) -> Option<&mut T> {
        match &self.sd {
            IndexSubDomain::Contiguous(r) => self.store.get_mut(gid.wrapping_sub(r.lo)),
            _ => None,
        }
    }

    /// The storage offset of `gid` when this strided sub-domain holds it,
    /// asked in a `#[cold]` call of its own, which keeps its divisions out
    /// of what [`ArrayBc::get`] inlines into — and is why the probe does not
    /// use `get`: no call may sit between the probe's `RefCell` borrow and
    /// its release.
    #[cold]
    fn strided_offset(&self, gid: usize) -> Option<usize> {
        self.sd.contains(gid).then(|| self.sd.offset(gid))
    }

    /// The element at `gid` when this sub-domain, of either shape, holds it:
    /// resolution's out-of-line rest ([`ArrayRep::with_cold`], `is_local`).
    #[inline]
    fn get(&self, gid: usize) -> Option<&T> {
        match &self.sd {
            IndexSubDomain::Contiguous(_) => self.contiguous_get(gid),
            _ => Some(&self.store[self.strided_offset(gid)?]),
        }
    }

    #[inline]
    fn get_mut(&mut self, gid: usize) -> Option<&mut T> {
        match &self.sd {
            IndexSubDomain::Contiguous(_) => self.contiguous_get_mut(gid),
            _ => {
                let off = self.strided_offset(gid)?;
                Some(&mut self.store[off])
            }
        }
    }

    /// The storage span backing the storage-contiguous GID run `gids`.
    fn slice(&self, gids: Range1d) -> &[T] {
        &self.store[self.span(gids)]
    }

    /// Mutable counterpart of [`ArrayBc::slice`].
    fn slice_mut(&mut self, gids: Range1d) -> &mut [T] {
        let span = self.span(gids);
        &mut self.store[span]
    }

    fn span(&self, gids: Range1d) -> std::ops::Range<usize> {
        if gids.is_empty() {
            return 0..0;
        }
        let lo = self.sd.offset(gids.lo);
        debug_assert_eq!(
            self.sd.offset(gids.hi - 1),
            lo + gids.len() - 1,
            "bulk run {gids:?} is not storage-contiguous in this sub-domain"
        );
        lo..lo + gids.len()
    }

    /// Applies `f(gid, &mut value)` across the run under one borrow.
    fn apply_range<F: FnMut(usize, &mut T)>(&mut self, gids: Range1d, mut f: F) {
        for (g, v) in gids.iter().zip(self.slice_mut(gids)) {
            f(g, v);
        }
    }

    /// The sub-domain's storage-contiguous pieces, each with the slice that
    /// backs it, in storage order — local iteration is a loop over these.
    fn pieces(&self) -> impl Iterator<Item = (Range1d, &[T])> {
        let mut rest = self.store.as_slice();
        self.sd.contiguous_pieces().into_iter().map(move |r| {
            let (s, tail) = rest.split_at(r.len());
            rest = tail;
            (r, s)
        })
    }

    /// Mutable counterpart of [`ArrayBc::pieces`].
    fn pieces_mut(&mut self) -> impl Iterator<Item = (Range1d, &mut [T])> {
        let mut rest = self.store.as_mut_slice();
        self.sd.contiguous_pieces().into_iter().map(move |r| {
            let (s, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
            rest = tail;
            (r, s)
        })
    }

    /// In-order (gid, value) iteration of the sub-domain.
    fn for_each<F: FnMut(usize, &T)>(&self, mut f: F) {
        self.pieces().for_each(|(r, s)| r.iter().zip(s).for_each(|(g, v)| f(g, v)));
    }

    fn for_each_mut<F: FnMut(usize, &mut T)>(&mut self, mut f: F) {
        self.pieces_mut().for_each(|(r, s)| r.iter().zip(s).for_each(|(g, v)| f(g, v)));
    }
}

impl<T: 'static> BaseContainer for ArrayBc<T> {
    type Value = T;

    fn len(&self) -> usize {
        self.store.len()
    }

    fn clear(&mut self) {
        self.store.clear();
    }

    fn memory_size(&self) -> MemSize {
        let meta = std::mem::size_of::<IndexSubDomain>() + std::mem::size_of::<Vec<T>>();
        MemSize::new(meta, self.store.capacity() * std::mem::size_of::<T>())
    }
}

/// Per-location representative of a pArray.
pub struct ArrayRep<T> {
    lm: LocationManager<ArrayBc<T>>,
    dist: IndexDistribution,
    /// Staging area used during redistribution.
    staging: Option<(LocationManager<ArrayBc<T>>, IndexDistribution)>,
}

/// What an owner says when a shipped element method finds no local slot.
const NOT_HERE: &str = "pArray element shipped to a location that does not hold it";

impl<T: Send + Clone + 'static> ArrayRep<T> {
    /// Address resolution (Fig. 7) to the element, local sub-domains first:
    /// the only local bContainer's own accessor inline, anything else —
    /// several bContainers, a miss, a bad index — behind [`ArrayRep::far`].
    #[inline]
    fn find(&self, gid: usize) -> Result<&T, LocId> {
        match self.lm.only().and_then(|(_, bc)| bc.get(gid)) {
            Some(hit) => Ok(hit),
            None => Self::far(&self.lm, &self.dist, gid, move |lm, bcid| lm.get(bcid)?.get(gid)),
        }
    }

    /// The out-of-line rest of resolution, over either kind of borrow `L` of
    /// the location manager: `elem` in the bContainer the partition assigns
    /// `gid` to, or the location that holds it. A gid inside a local
    /// sub-domain is in bounds by construction, so the check is here.
    #[cold]
    fn far<L, E>(
        lm: L,
        dist: &IndexDistribution,
        gid: usize,
        elem: impl FnOnce(L, Bcid) -> Option<E>,
    ) -> Result<E, LocId> {
        let n = dist.global_size();
        assert!(gid < n, "pArray index {gid} out of bounds (size {n})");
        let bcid = dist.partition().find(gid);
        elem(lm, bcid).ok_or_else(|| dist.mapper().map(bcid))
    }

    /// The element-method skeleton on one location's representative: runs
    /// `f` on `gid`'s element when a local bContainer holds it; else hands
    /// `f` back with the owner to ship it to, where the same function runs
    /// it. A remote request's capture is the method's arguments (`gid`, and
    /// what `f` holds).
    ///
    /// This is the inline probe, with no call on any arm between the borrow
    /// and its release (a call there makes the flag's restore a
    /// read-modify-write): the only local bContainer's contiguous sub-domain
    /// holds `gid` — then `f` on the element. Anything else is
    /// [`ArrayRep::with_cold`], under a borrow of its own.
    #[inline(always)]
    fn with<R, F>(cell: &RefCell<Self>, gid: usize, f: F) -> Result<R, (LocId, F)>
    where
        F: FnOnce(&T) -> R,
    {
        {
            let rep = cell.borrow();
            if let Some(v) = rep.lm.only().and_then(|(_, bc)| bc.contiguous_get(gid)) {
                return Ok(f(v));
            }
        }
        Self::with_cold(cell, gid, f)
    }

    /// Mutable counterpart of [`ArrayRep::with`].
    #[inline(always)]
    fn with_mut<R, F>(cell: &RefCell<Self>, gid: usize, f: F) -> Result<R, (LocId, F)>
    where
        F: FnOnce(&mut T) -> R,
    {
        {
            let ArrayRep { lm, .. } = &mut *cell.borrow_mut();
            if let Some(v) = lm.only_mut().and_then(|(_, bc)| bc.contiguous_get_mut(gid)) {
                return Ok(f(v));
            }
        }
        Self::with_mut_cold(cell, gid, f)
    }

    /// What [`ArrayRep::with`]'s probe does not take, out of line: under one
    /// borrow, finds `gid`'s element (strided sub-domains, several
    /// bContainers, the bounds check, the owner of a miss) and runs `f` on
    /// it.
    #[inline(never)]
    fn with_cold<R, F>(cell: &RefCell<Self>, gid: usize, f: F) -> Result<R, (LocId, F)>
    where
        F: FnOnce(&T) -> R,
    {
        let rep = cell.borrow();
        match rep.find(gid) {
            Ok(v) => Ok(f(v)),
            Err(owner) => Err((owner, f)),
        }
    }

    /// Mutable counterpart of [`ArrayRep::with_cold`] (and, inline, of
    /// `find`: a function could not hand out the hit and still lend `lm` to
    /// the miss).
    #[inline(never)]
    fn with_mut_cold<R, F>(cell: &RefCell<Self>, gid: usize, f: F) -> Result<R, (LocId, F)>
    where
        F: FnOnce(&mut T) -> R,
    {
        let ArrayRep { lm, dist, .. } = &mut *cell.borrow_mut();
        let found = match lm.only_mut().and_then(|(_, bc)| bc.get_mut(gid)) {
            Some(hit) => Ok(hit),
            None => Self::far(lm, dist, gid, move |lm, bcid| lm.get_mut(bcid)?.get_mut(gid)),
        };
        match found {
            Ok(v) => Ok(f(v)),
            Err(owner) => Err((owner, f)),
        }
    }

    /// Bulk read of one storage-contiguous run (one borrow), appended to
    /// `out`.
    fn get_range_local(&self, bcid: Bcid, gids: Range1d, out: &mut Vec<T>) {
        out.extend_from_slice(self.lm.get(bcid).expect("get_range: bcid not on this location").slice(gids));
    }

    /// Bulk write of one storage-contiguous run.
    fn set_range_local(&mut self, bcid: Bcid, gids: Range1d, vals: &[T]) {
        self.lm
            .get_mut(bcid)
            .expect("set_range: bcid not on this location")
            .slice_mut(gids)
            .clone_from_slice(vals);
    }

    /// Bulk read-modify-write of one storage-contiguous run.
    fn apply_range_local(&mut self, bcid: Bcid, gids: Range1d, f: impl FnMut(usize, &mut T)) {
        self.lm
            .get_mut(bcid)
            .expect("apply_range: bcid not on this location")
            .apply_range(gids, f);
    }
}

/// The STAPL pArray: static, indexed, globally addressable.
///
/// ```
/// use stapl_rts::{execute, RtsConfig};
/// use stapl_containers::array::PArray;
/// use stapl_core::interfaces::{ElementRead, ElementWrite, PContainer};
///
/// execute(RtsConfig::default(), 2, |loc| {
///     let a = PArray::new(loc, 100, 0i64);
///     // Every location writes its own stripe through the global API.
///     for i in 0..100 {
///         if i % loc.nlocs() == loc.id() {
///             a.set_element(i, i as i64 * 2);
///         }
///     }
///     loc.rmi_fence();
///     assert_eq!(a.get_element(99), 198);
///     assert_eq!(a.global_size(), 100);
/// });
/// ```
pub struct PArray<T: Send + Clone + 'static> {
    obj: PObject<ArrayRep<T>>,
}

impl<T: Send + Clone + 'static> Clone for PArray<T> {
    fn clone(&self) -> Self {
        PArray { obj: self.obj.clone() }
    }
}

/// The distribution of `partition` placed by `mapper`, after checking that
/// every sub-domain's owner is one of `loc`'s locations: a placement beyond
/// them would leave its elements stored nowhere.
fn placed(
    loc: &Location,
    partition: impl Into<IndexPartition>,
    mapper: impl Into<PartitionMapper>,
) -> IndexDistribution {
    let dist = IndexDistribution::new(partition, mapper);
    let nlocs = loc.nlocs();
    for bcid in 0..dist.partition().num_subdomains() {
        let owner = dist.mapper().owner(bcid);
        assert!(
            owner.is_some_and(|l| l < nlocs),
            "pArray sub-domain {bcid} is placed on location {}, but nlocs is {nlocs}",
            owner.map_or("none".to_string(), |l| l.to_string())
        );
    }
    dist
}

impl<T: Send + Clone + 'static> PArray<T> {
    /// **Collective.** A pArray of `n` copies of `init` with the default
    /// balanced partition (one sub-domain per location) and cyclic mapper.
    pub fn new(loc: &Location, n: usize, init: T) -> Self {
        Self::with_partition(
            loc,
            BalancedPartition::new(n, loc.nlocs()),
            CyclicMapper::new(loc.nlocs()),
            init,
        )
    }

    /// **Collective.** A pArray with an explicit partition and mapper —
    /// the instance-specific customization path of Section V.H.
    pub fn with_partition(
        loc: &Location,
        partition: impl Into<IndexPartition>,
        mapper: impl Into<PartitionMapper>,
        init: T,
    ) -> Self {
        let dist = placed(loc, partition, mapper);
        let mut lm = LocationManager::new();
        for (bcid, sd) in dist.local_subdomains(loc.id()) {
            lm.add_bcontainer(bcid, ArrayBc::new(sd, &init));
        }
        let obj = PObject::register(loc, ArrayRep { lm, dist, staging: None });
        // Handles must be in sync before any peer can address us.
        loc.barrier();
        PArray { obj }
    }

    /// **Collective.** Builds the array with `f(i)` at every index, filled
    /// locally (no communication).
    pub fn from_fn(loc: &Location, n: usize, f: impl Fn(usize) -> T) -> Self
    where
        T: Default,
    {
        let a = Self::new(loc, n, T::default());
        {
            let mut rep = a.obj.local_mut();
            for (_, bc) in rep.lm.iter_mut() {
                bc.for_each_mut(|g, slot| *slot = f(g));
            }
        }
        loc.barrier();
        a
    }

    /// The asynchronous element methods: `f` on element `gid`, here or shipped.
    #[inline]
    fn update(&self, gid: usize, f: impl FnOnce(&mut T) + Send + 'static) {
        if let Err((owner, f)) = ArrayRep::with_mut(self.obj.rep_cell(), gid, f) {
            self.obj.invoke_at(owner, move |cell, _| {
                ArrayRep::with_mut(cell, gid, f).ok().expect(NOT_HERE)
            });
        }
    }

    /// The distribution's (bcid, location) for `gid` — exposed for tests
    /// and benchmarks that reason about placement.
    pub fn locate_element(&self, gid: usize) -> (Bcid, LocId) {
        let rep = self.obj.local();
        let n = rep.dist.global_size();
        assert!(gid < n, "pArray index {gid} out of bounds (size {n})");
        rep.dist.locate(gid)
    }

    /// **Collective.** Re-partitions and re-maps the data (Section V.G):
    /// every element moves to its position under the new distribution.
    pub fn redistribute(
        &self,
        new_partition: impl Into<IndexPartition>,
        new_mapper: impl Into<PartitionMapper>,
    ) {
        let loc = self.obj.location().clone();
        let new_dist = placed(&loc, new_partition, new_mapper);
        assert_eq!(
            new_dist.global_size(),
            self.global_size(),
            "redistribution must preserve the domain"
        );
        // Phase 1 (collective): build empty staging bContainers for the new
        // distribution. Vec construction needs *some* placeholder T before
        // the moved values arrive and overwrite it; a location that holds
        // no elements under the old distribution may still gain some under
        // the new one, so the placeholder is agreed on collectively (any
        // location's first element — Some whenever the array is nonempty).
        let placeholder = {
            let rep = self.obj.local();
            let first = rep.lm.iter().find_map(|(_, bc)| bc.store.first().cloned());
            drop(rep);
            loc.allreduce(first, |a, b| a.or(b))
        };
        {
            let mut rep = self.obj.local_mut();
            let mut staging = LocationManager::new();
            for (bcid, sd) in new_dist.local_subdomains(loc.id()) {
                // Empty sub-domains need no placeholder.
                if sd.is_empty() {
                    continue;
                }
                let init = placeholder
                    .clone()
                    .expect("nonempty sub-domain implies a nonempty array, so a placeholder exists");
                staging.add_bcontainer(bcid, ArrayBc::new(sd, &init));
            }
            rep.staging = Some((staging, new_dist.clone()));
        }
        loc.barrier();
        // Phase 2: move every local element to its new home, one request
        // per destination carrying all of its (bcid, gid, value) moves.
        {
            let rep = self.obj.local();
            let mut moves: Vec<Vec<(Bcid, usize, T)>> =
                (0..loc.nlocs()).map(|_| Vec::new()).collect();
            for (_, bc) in rep.lm.iter() {
                bc.for_each(|gid, v| {
                    let (nb, nl) = new_dist.locate(gid);
                    moves[nl].push((nb, gid, v.clone()));
                });
            }
            drop(rep);
            for (dest, batch) in moves.into_iter().enumerate().filter(|(_, b)| !b.is_empty()) {
                self.obj.invoke_at(dest, move |cell, _| {
                    let mut rep = cell.borrow_mut();
                    let staging =
                        &mut rep.staging.as_mut().expect("staging missing during redistribution").0;
                    for (nb, gid, v) in batch {
                        let bc = staging.get_mut(nb).expect("staging bcid");
                        let off = bc.sd.offset(gid);
                        bc.store[off] = v;
                    }
                });
            }
        }
        loc.rmi_fence();
        // Phase 3 (collective): swap staging in.
        {
            let mut rep = self.obj.local_mut();
            let (staging, new_dist) = rep.staging.take().expect("staging vanished");
            rep.lm = staging;
            rep.dist = new_dist;
        }
        loc.barrier();
    }

    /// **Collective.** Redistributes onto the default balanced partition.
    pub fn rebalance(&self) {
        let loc = self.obj.location();
        self.redistribute(
            BalancedPartition::new(self.global_size(), loc.nlocs()),
            CyclicMapper::new(loc.nlocs()),
        );
    }

    /// **Collective.** The paper's `rotate` redistribution: keeps the
    /// partition but cyclically shifts each sub-domain's location by
    /// `shift` (element data migrates accordingly).
    pub fn rotate(&self, shift: usize) {
        let loc = self.obj.location();
        let nlocs = loc.nlocs();
        let (partition, assignment) = {
            let rep = self.obj.local();
            let p = rep.dist.partition().clone();
            let assignment: Vec<usize> = (0..p.num_subdomains())
                .map(|b| (rep.dist.mapper().map(b) + shift) % nlocs)
                .collect();
            (p, assignment)
        };
        self.redistribute(partition, GeneralMapper::new(nlocs, assignment));
    }

    /// **Collective.** Re-cuts the array into one contiguous block per
    /// location, location `l`'s block `l` (pVector's commit). After a fence,
    /// `edit(lo, block)` rewrites this location's elements in place — its
    /// block, first GID `lo`; empty where it holds none. The new lengths,
    /// allgathered, become an [`ExplicitPartition`] placed cyclically,
    /// installed here before the closing barrier: an element method a peer
    /// issues once it has left finds the new layout on every location. The
    /// array is the same object, so every handle and view follows.
    pub(crate) fn reblock(&self, edit: impl FnOnce(usize, &mut Vec<T>)) {
        let loc = self.obj.location().clone();
        let me = loc.id();
        loc.rmi_fence();
        let (lo, mut block) = {
            let mut rep = self.obj.local_mut();
            match (rep.lm.remove_bcontainer(me), rep.lm.num_bcontainers()) {
                (Some(ArrayBc { sd: IndexSubDomain::Contiguous(r), store }), 0) => (r.lo, store),
                (None, 0) => (rep.dist.global_size(), Vec::new()),
                _ => panic!("reblock: location {me}'s elements are not its own contiguous block {me}"),
            }
        };
        edit(lo, &mut block);
        let lens = loc.allgather(block.len());
        let dist = IndexDistribution::new(ExplicitPartition::from_sizes(&lens), CyclicMapper::new(loc.nlocs()));
        let mut rep = self.obj.local_mut();
        rep.lm.add_bcontainer(me, ArrayBc { sd: dist.partition().subdomain(me), store: block });
        rep.dist = dist;
        drop(rep);
        loc.barrier();
    }
}

impl<T: Send + Clone + 'static> PContainer for PArray<T> {
    fn location(&self) -> &Location {
        self.obj.location()
    }

    fn global_size(&self) -> usize {
        self.obj.local().dist.global_size()
    }

    fn local_size(&self) -> usize {
        self.obj.local().lm.local_len()
    }

    fn memory_size(&self) -> MemSize {
        let local = {
            let rep = self.obj.local();
            let mut m = rep.lm.memory_size();
            m.metadata += rep.dist.memory_size();
            m
        };
        self.obj
            .location()
            .allreduce(local, |a, b| a + b)
    }
}

impl<T: Send + Clone + 'static> ElementRead<usize> for PArray<T> {
    type Value = T;

    #[inline]
    fn get_element(&self, gid: usize) -> T {
        ArrayRep::with(self.obj.rep_cell(), gid, T::clone).unwrap_or_else(|(owner, get)| {
            self.obj.invoke_ret_at(owner, move |cell, _| {
                ArrayRep::with(cell, gid, get).ok().expect(NOT_HERE)
            })
        })
    }

    #[inline(always)]
    fn split_get_element(&self, gid: usize) -> RmiFuture<T> {
        match ArrayRep::with(self.obj.rep_cell(), gid, T::clone) {
            Ok(v) => {
                // A split-phase method counts as an invocation wherever it runs.
                self.obj.location().count(Counter::local_invocations, 1);
                RmiFuture::ready(v)
            }
            Err((owner, get)) => self.obj.invoke_split_at(owner, move |cell, _| {
                ArrayRep::with(cell, gid, get).ok().expect(NOT_HERE)
            }),
        }
    }

    fn is_local(&self, gid: usize) -> bool {
        self.obj.local().find(gid).is_ok()
    }
}

impl<T: Send + Clone + 'static> ElementWrite<usize> for PArray<T> {
    #[inline]
    fn set_element(&self, gid: usize, v: T) {
        self.update(gid, move |slot| *slot = v);
    }

    #[inline]
    fn apply_set<F>(&self, gid: usize, f: F)
    where
        F: FnOnce(&mut T) + Send + 'static,
    {
        self.update(gid, f);
    }

    #[inline]
    fn apply_get<R, F>(&self, gid: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        ArrayRep::with_mut(self.obj.rep_cell(), gid, f).unwrap_or_else(|(owner, f)| {
            self.obj.invoke_ret_at(owner, move |cell, _| {
                ArrayRep::with_mut(cell, gid, f).ok().expect(NOT_HERE)
            })
        })
    }
}

impl<T: Send + Clone + 'static> LocalIteration<usize> for PArray<T> {
    fn for_each_local(&self, mut f: impl FnMut(usize, &T)) {
        let rep = self.obj.local();
        for (_, bc) in rep.lm.iter() {
            bc.for_each(&mut f);
        }
    }

    fn for_each_local_mut(&self, mut f: impl FnMut(usize, &mut T)) {
        let mut rep = self.obj.local_mut();
        for (_, bc) in rep.lm.iter_mut() {
            bc.for_each_mut(&mut f);
        }
    }
}

/// A pending piece of a `get_range`: remote fetches are launched for every
/// run up front (split-phase, so round trips overlap) before any reply is
/// awaited.
enum RangePart<T: Send + 'static> {
    Local(Bcid, Range1d),
    Bulk(RmiFuture<Vec<T>>),
}

impl<T: Send + Clone + 'static> RangedContainer for PArray<T> {
    fn runs(&self, r: Range1d) -> Vec<GidRun> {
        self.obj.local().dist.contiguous_runs(r)
    }

    /// One piece per block of each local sub-domain.
    fn local_pieces(&self) -> Vec<(Bcid, Range1d)> {
        let rep = self.obj.local();
        let subdomains = rep.dist.local_subdomains(self.obj.location().id());
        subdomains
            .into_iter()
            .flat_map(|(bcid, sd)| sd.contiguous_pieces().into_iter().map(move |p| (bcid, p)))
            .collect()
    }

    fn get_range(&self, r: Range1d) -> Vec<T> {
        let loc = self.obj.location().clone();
        let me = loc.id();
        // Phase 1: launch every remote fetch before awaiting any reply.
        let parts: Vec<RangePart<T>> = self
            .runs(r)
            .into_iter()
            .map(|run| {
                if run.owner == me {
                    return RangePart::Local(run.bcid, run.gids);
                }
                loc.count(Counter::bulk_requests, 1);
                let (bcid, gids) = (run.bcid, run.gids);
                RangePart::Bulk(self.obj.invoke_split_at(run.owner, move |cell, _| {
                    let mut vals = Vec::with_capacity(gids.len());
                    cell.borrow().get_range_local(bcid, gids, &mut vals);
                    vals
                }))
            })
            .collect();
        // Phase 2: assemble in GID order. Local borrows are scoped per run
        // so awaiting a future (which polls the runtime) never overlaps a
        // representative borrow.
        let mut out = Vec::with_capacity(r.len());
        for part in parts {
            match part {
                RangePart::Local(bcid, gids) => {
                    loc.count(Counter::localized_chunks, 1);
                    self.obj.local().get_range_local(bcid, gids, &mut out);
                }
                RangePart::Bulk(fut) => out.extend(fut.get()),
            }
        }
        out
    }

    fn set_range(&self, lo: usize, vals: &[T]) {
        let loc = self.obj.location().clone();
        let me = loc.id();
        let r = Range1d::new(lo, lo + vals.len());
        for run in self.runs(r) {
            let chunk = &vals[run.gids.lo - lo..run.gids.hi - lo];
            if run.owner == me {
                loc.count(Counter::localized_chunks, 1);
                self.obj.local_mut().set_range_local(run.bcid, run.gids, chunk);
            } else {
                loc.count(Counter::bulk_requests, 1);
                let (bcid, gids) = (run.bcid, run.gids);
                let owned = chunk.to_vec();
                self.obj.invoke_at(run.owner, move |cell, _| {
                    cell.borrow_mut().set_range_local(bcid, gids, &owned);
                });
            }
        }
    }

    fn apply_range<F>(&self, r: Range1d, f: F)
    where
        F: Fn(usize, &mut T) + Clone + Send + 'static,
    {
        let loc = self.obj.location().clone();
        let me = loc.id();
        for run in self.runs(r) {
            if run.owner == me {
                loc.count(Counter::localized_chunks, 1);
                self.obj.local_mut().apply_range_local(run.bcid, run.gids, &f);
            } else {
                loc.count(Counter::bulk_requests, 1);
                let (bcid, gids, f) = (run.bcid, run.gids, f.clone());
                self.obj.invoke_at(run.owner, move |cell, _| {
                    cell.borrow_mut().apply_range_local(bcid, gids, f);
                });
            }
        }
    }

    fn with_slice<R>(&self, bcid: Bcid, gids: Range1d, f: impl FnOnce(&[T]) -> R) -> Option<R> {
        let rep = self.obj.local();
        let bc = rep.lm.get(bcid)?;
        Some(f(bc.slice(gids)))
    }

    fn with_slice_mut<R>(
        &self,
        bcid: Bcid,
        gids: Range1d,
        f: impl FnOnce(&mut [T]) -> R,
    ) -> Option<R> {
        let mut rep = self.obj.local_mut();
        let bc = rep.lm.get_mut(bcid)?;
        Some(f(bc.slice_mut(gids)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_core::partition::{BlockCyclicPartition, BlockedPartition};
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn construct_and_read_initial_values() {
        execute(RtsConfig::default(), 3, |loc| {
            let a = PArray::new(loc, 10, 7i32);
            assert_eq!(a.global_size(), 10);
            for i in 0..10 {
                assert_eq!(a.get_element(i), 7);
            }
            let total = loc.allreduce_sum(a.local_size() as u64);
            assert_eq!(total, 10);
        });
    }

    #[test]
    fn set_then_get_round_trip_all_pairs() {
        execute(RtsConfig::default(), 4, |loc| {
            let a = PArray::new(loc, 16, 0usize);
            // Location i writes element i*4 .. i*4+4 (striped arbitrarily
            // relative to ownership).
            for i in 0..4 {
                a.set_element(loc.id() * 4 + i, loc.id() * 100 + i);
            }
            loc.rmi_fence();
            for who in 0..4 {
                for i in 0..4 {
                    assert_eq!(a.get_element(who * 4 + i), who * 100 + i);
                }
            }
        });
    }

    #[test]
    fn split_phase_get() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::from_fn(loc, 8, |i| i as i64 * 3);
            let futs: Vec<_> = (0..8).map(|i| a.split_get_element(i)).collect();
            for (i, f) in futs.into_iter().enumerate() {
                assert_eq!(f.get(), i as i64 * 3);
            }
        });
    }

    #[test]
    fn apply_set_and_apply_get() {
        execute(RtsConfig::default(), 3, |loc| {
            let a = PArray::new(loc, 9, 10u64);
            if loc.id() == 0 {
                for i in 0..9 {
                    a.apply_set(i, move |v| *v += i as u64);
                }
            }
            loc.rmi_fence();
            if loc.id() == 1 {
                for i in 0..9 {
                    let doubled = a.apply_get(i, |v| {
                        *v *= 2;
                        *v
                    });
                    assert_eq!(doubled, (10 + i as u64) * 2);
                }
            }
            loc.rmi_fence();
            assert_eq!(a.get_element(4), 28);
        });
    }

    #[test]
    fn from_fn_fills_without_communication() {
        execute(RtsConfig::unbuffered(), 2, |loc| {
            let before = loc.stats().remote_requests;
            let a = PArray::from_fn(loc, 100, |i| i * i);
            let after = loc.stats().remote_requests;
            assert_eq!(before, after, "from_fn must be communication-free");
            // `stats()` sums over locations: nobody reads on before everybody counted.
            loc.barrier();
            assert_eq!(a.get_element(9), 81);
        });
    }

    #[test]
    fn is_local_matches_partition() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::new(loc, 10, 0u8);
            // Balanced over 2 locations: [0,5) on loc0, [5,10) on loc1.
            for i in 0..10 {
                assert_eq!(a.is_local(i), (i < 5) == (loc.id() == 0));
            }
        });
    }

    #[test]
    fn local_iteration_covers_exactly_local_elements() {
        execute(RtsConfig::default(), 4, |loc| {
            let a = PArray::from_fn(loc, 37, |i| i);
            let mut seen = Vec::new();
            a.for_each_local(|g, v| {
                assert_eq!(g, *v);
                seen.push(g);
            });
            assert_eq!(seen.len(), a.local_size());
            let all = loc.allreduce(seen, |mut x, mut y| {
                x.append(&mut y);
                x
            });
            let mut all = all;
            all.sort_unstable();
            assert_eq!(all, (0..37).collect::<Vec<_>>());
        });
    }

    #[test]
    fn for_each_local_mut_writes() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::new(loc, 12, 1i32);
            a.for_each_local_mut(|g, v| *v = g as i32 * 10);
            loc.barrier();
            assert_eq!(a.get_element(11), 110);
        });
    }

    #[test]
    fn blocked_and_block_cyclic_partitions() {
        execute(RtsConfig::default(), 2, |loc| {
            let blocked = PArray::with_partition(
                loc,
                BlockedPartition::new(10, 3),
                CyclicMapper::new(loc.nlocs()),
                0usize,
            );
            // 4 sub-domains cyclic over 2 locations.
            assert_eq!(blocked.locate_element(0).1, 0);
            assert_eq!(blocked.locate_element(3).1, 1);
            assert_eq!(blocked.locate_element(9).1, 1);

            let bc = PArray::with_partition(
                loc,
                BlockCyclicPartition::new(12, 2, 2),
                CyclicMapper::new(loc.nlocs()),
                0usize,
            );
            for i in 0..12 {
                bc.set_element(i, i + 1);
            }
            loc.rmi_fence();
            for i in 0..12 {
                assert_eq!(bc.get_element(i), i + 1);
            }
        });
    }

    #[test]
    fn explicit_partition_and_general_placement() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::with_partition(
                loc,
                ExplicitPartition::from_sizes(&[3, 4, 4]),
                GeneralMapper::new(2, vec![1, 0, 1]),
                -1i64,
            );
            assert_eq!(a.locate_element(0).1, 1);
            assert_eq!(a.locate_element(5).1, 0);
            assert_eq!(a.locate_element(8).1, 1);
            a.set_element(8, 42);
            loc.rmi_fence();
            assert_eq!(a.get_element(8), 42);
        });
    }

    #[test]
    fn memory_size_scales_with_elements() {
        execute(RtsConfig::default(), 2, |loc| {
            let small = PArray::new(loc, 100, 0u64);
            let large = PArray::new(loc, 1000, 0u64);
            // Fig. 34's "data/theory 1.00×": contiguous storage is the
            // elements and nothing else, summed over the locations.
            for (a, n) in [(small, 100), (large, 1000)] {
                assert_eq!(a.memory_size().data, n * std::mem::size_of::<u64>());
            }
        });
    }

    #[test]
    fn redistribute_preserves_data() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::from_fn(loc, 20, |i| i as i64 * 7);
            // Rebalance to a blocked partition with block 3, reversed-ish
            // cyclic placement.
            a.redistribute(
                BlockedPartition::new(20, 3),
                CyclicMapper::new(loc.nlocs()),
            );
            for i in 0..20 {
                assert_eq!(a.get_element(i), i as i64 * 7, "element {i} lost in redistribution");
            }
            // And back.
            a.rebalance();
            for i in 0..20 {
                assert_eq!(a.get_element(i), i as i64 * 7);
            }
        });
    }

    /// A redistribution ships one request per (source, destination) pair,
    /// not one per element.
    #[test]
    fn rotate_sends_one_request_per_destination() {
        let (p, n) = (4, 4096);
        execute(RtsConfig::base(), p, |loc| {
            let a = PArray::from_fn(loc, n, |i| i as u64);
            loc.rmi_fence();
            let before = loc.stats();
            a.rotate(1);
            let sent = loc.stats().since(&before).remote_requests;
            loc.barrier();
            assert!(sent <= (p * (p - 1)) as u64, "rotate(1) sent {sent} remote requests");
            for i in 0..n {
                assert_eq!(a.get_element(i), i as u64, "element {i} lost in rotate");
            }
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        execute(RtsConfig::default(), 1, |loc| {
            let a = PArray::new(loc, 5, 0u8);
            a.get_element(5);
        });
    }

    #[test]
    fn get_range_and_set_range_round_trip() {
        execute(RtsConfig::default(), 4, |loc| {
            let a = PArray::from_fn(loc, 41, |i| i as i64);
            // Every location bulk-reads a range crossing all owners.
            let all = a.get_range(Range1d::new(3, 39));
            assert_eq!(all, (3..39).map(|i| i as i64).collect::<Vec<_>>());
            assert!(a.get_range(Range1d::new(7, 7)).is_empty());
            // Phase separation: writes must not overlap the reads above.
            loc.barrier();
            // One location bulk-writes a misaligned stripe.
            if loc.id() == 2 {
                a.set_range(5, &(5..30).map(|i| i as i64 * 10).collect::<Vec<_>>());
            }
            loc.rmi_fence();
            for i in 0..41 {
                let expect = if (5..30).contains(&i) { i as i64 * 10 } else { i as i64 };
                assert_eq!(a.get_element(i), expect, "element {i}");
            }
        });
    }

    #[test]
    fn bulk_ops_work_on_block_cyclic_partitions() {
        execute(RtsConfig::default(), 2, |loc| {
            let bc = PArray::with_partition(
                loc,
                BlockCyclicPartition::new(23, 2, 3),
                CyclicMapper::new(loc.nlocs()),
                0usize,
            );
            if loc.id() == 0 {
                bc.set_range(1, &(1..22).collect::<Vec<_>>());
            }
            loc.rmi_fence();
            assert_eq!(bc.get_range(Range1d::new(0, 23)), {
                let mut v: Vec<usize> = (0..23).collect();
                v[0] = 0;
                v[22] = 0;
                v
            });
        });
    }

    #[test]
    fn apply_range_executes_at_owners() {
        execute(RtsConfig::default(), 3, |loc| {
            let a = PArray::from_fn(loc, 30, |i| i as u64);
            if loc.id() == 0 {
                a.apply_range(Range1d::new(4, 26), |g, v| *v += 1000 + g as u64);
            }
            loc.rmi_fence();
            for i in 0..30 {
                let expect =
                    if (4..26).contains(&i) { i as u64 * 2 + 1000 } else { i as u64 };
                assert_eq!(a.get_element(i), expect);
            }
        });
    }

    #[test]
    fn bulk_transport_issues_one_request_per_remote_run() {
        execute(RtsConfig::unbuffered(), 4, |loc| {
            let n = 4000;
            let a = PArray::from_fn(loc, n, |i| i as u64);
            loc.rmi_fence();
            if loc.id() == 0 {
                let before = loc.stats();
                let vals = a.get_range(Range1d::new(0, n));
                assert_eq!(vals.len(), n);
                let after = loc.stats();
                // 3 remote runs (one per other location), each one bulk
                // request — not O(n) element fetches.
                assert_eq!(after.bulk_requests - before.bulk_requests, 3);
                assert!(
                    after.remote_requests - before.remote_requests <= 6,
                    "bulk read must not issue per-element traffic: {} remote requests",
                    after.remote_requests - before.remote_requests
                );
                assert_eq!(after.element_fallbacks, before.element_fallbacks);
            }
            loc.barrier();
        });
    }

    #[test]
    fn async_ordering_per_element_per_source() {
        // MCM guarantee: same-source writes to the same element apply in
        // program order, so the last value wins.
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::new(loc, 4, 0u64);
            if loc.id() == 1 {
                for k in 0..100u64 {
                    a.set_element(0, k);
                }
            }
            loc.rmi_fence();
            assert_eq!(a.get_element(0), 99);
        });
    }

    #[test]
    fn sync_read_after_async_write_same_element() {
        // MCM: a synchronous method on x observes earlier same-source
        // asyncs on x.
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::new(loc, 4, 0u64);
            let target = if loc.id() == 0 { 3 } else { 0 };
            a.set_element(target, 77);
            assert_eq!(a.get_element(target), 77);
        });
    }
}
