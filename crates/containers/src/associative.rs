//! Associative pContainers (Chapter XII): pMap, pSet, pHashMap, pHashSet,
//! pMultiMap.
//!
//! Sorted associative containers use a *value-based* partition (Fig. 58):
//! splitter keys define ordered key intervals, so the global key order is
//! preserved across base containers (logarithmic access within a base
//! container). Hashed associative containers use a hash partition
//! (amortized constant access, no order).
//!
//! All containers share one generic implementation, [`PAssoc`], that is
//! parameterized by the base-container store — the paper's "same
//! framework, different bContainer/partition" specialization (Fig. 57).

use std::collections::BTreeMap;

use stapl_core::bcontainer::{BaseContainer, MemSize};
use stapl_core::distribution::KeyDistribution;
use stapl_core::gid::{Bcid, Key, KeyHashMap};
use stapl_core::interfaces::{AssociativeContainer, PContainer, SegmentId, SegmentedContainer};
use stapl_core::location_manager::LocationManager;
use stapl_core::mapper::CyclicMapper;
use stapl_core::partition::{HashPartition, KeyPartition, SplitterPartition};
use stapl_core::pobject::PObject;
use stapl_rts::{Counter, LocId, Location, RmiFuture};

use crate::LazySize;

/// Sequential key-value store usable as an associative base container.
pub trait KvStore<K, V>: Default + 'static {
    /// The key partition that places keys into stores of this kind: a
    /// splitter partition for a sorted store, a hash partition for a
    /// hashed one.
    type Partition: KeyPartition<K>;
    /// Inserts or overwrites; returns true when the key was new.
    fn insert(&mut self, k: K, v: V) -> bool;
    fn remove(&mut self, k: &K) -> Option<V>;
    fn get(&self, k: &K) -> Option<&V>;
    fn get_mut(&mut self, k: &K) -> Option<&mut V>;
    /// The value under `k`, inserted as `init()` first when absent — one
    /// lookup (the map's `entry(k).or_insert_with(init)`), and `init` runs
    /// only on a miss. The one combine primitive: `merge_segment` and
    /// `apply_or_insert` are both `combine(store.slot(k, init), v)`.
    fn slot(&mut self, k: K, init: impl FnOnce() -> V) -> &mut V;
    /// Room for `additional` more keys without growing; a no-op for a
    /// store that grows by node (`BTreeMap`).
    fn reserve(&mut self, additional: usize);
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    fn clear(&mut self);
    fn for_each(&self, f: &mut dyn FnMut(&K, &V));
}

/// `KvStore` over a `std` map type: every method is the map's own;
/// `reserve` is given, since not every map has one.
macro_rules! std_map_kv_store {
    ($map:ident, [$($key_bound:tt)+], $partition:ty, reserve: $reserve:expr) => {
        impl<K: $($key_bound)+ + 'static, V: 'static> KvStore<K, V> for $map<K, V> {
            type Partition = $partition;

            fn insert(&mut self, k: K, v: V) -> bool {
                $map::insert(self, k, v).is_none()
            }

            fn remove(&mut self, k: &K) -> Option<V> {
                $map::remove(self, k)
            }

            fn get(&self, k: &K) -> Option<&V> {
                $map::get(self, k)
            }

            fn get_mut(&mut self, k: &K) -> Option<&mut V> {
                $map::get_mut(self, k)
            }

            #[inline]
            fn slot(&mut self, k: K, init: impl FnOnce() -> V) -> &mut V {
                $map::entry(self, k).or_insert_with(init)
            }

            fn reserve(&mut self, additional: usize) {
                let reserve: fn(&mut Self, usize) = $reserve;
                reserve(self, additional)
            }

            fn len(&self) -> usize {
                $map::len(self)
            }

            fn clear(&mut self) {
                $map::clear(self)
            }

            fn for_each(&self, f: &mut dyn FnMut(&K, &V)) {
                for (k, v) in self.iter() {
                    f(k, v);
                }
            }
        }
    };
}

std_map_kv_store!(BTreeMap, [Ord + Clone], SplitterPartition<K>, reserve: |_, _| {});
// The hashed store is the framework's [`KeyHashMap`], not `std`'s
// `RandomState` map: placement and store share one hasher (DESIGN.md "Hashing").
std_map_kv_store!(KeyHashMap, [Eq + std::hash::Hash], HashPartition, reserve: |m, n| m.reserve(n));

/// Associative base container: a sequential store plus accounting.
pub struct AssocBc<K, V, S> {
    store: S,
    _marker: std::marker::PhantomData<fn() -> (K, V)>,
}

impl<K, V, S: Default> Default for AssocBc<K, V, S> {
    fn default() -> Self {
        AssocBc { store: S::default(), _marker: std::marker::PhantomData }
    }
}

impl<K, V, S> BaseContainer for AssocBc<K, V, S>
where
    S: KvStore<K, V>,
    K: 'static,
    V: 'static,
{
    type Value = V;

    fn len(&self) -> usize {
        self.store.len()
    }

    fn clear(&mut self) {
        self.store.clear();
    }

    fn memory_size(&self) -> MemSize {
        MemSize::new(
            self.store.len() * 2 * std::mem::size_of::<usize>(),
            self.store.len() * (std::mem::size_of::<K>() + std::mem::size_of::<V>()),
        )
    }
}

/// Per-location representative of an associative container.
pub struct AssocRep<K: 'static, V: 'static, S: KvStore<K, V>> {
    lm: LocationManager<AssocBc<K, V, S>>,
    dist: KeyDistribution<K, S::Partition>,
    size: LazySize<usize>,
    _marker: std::marker::PhantomData<fn() -> V>,
}

impl<K, V, S> AssocRep<K, V, S>
where
    K: Key,
    V: Send + Clone + 'static,
    S: KvStore<K, V>,
{
    /// The store of `k`'s bucket, at the bucket's owner. The owner
    /// recomputes the bucket from the replicated partition, so a request
    /// carries only the key and the method's arguments.
    fn store_of(&self, k: &K) -> &S {
        &self.lm.get(self.dist.partition().find(k)).expect("assoc bcid").store
    }

    /// [`AssocRep::store_of`], mutably.
    fn store_of_mut(&mut self, k: &K) -> &mut S {
        let bcid = self.dist.partition().find(k);
        &mut self.lm.get_mut(bcid).expect("assoc bcid").store
    }
}

/// Generic associative pContainer over a pluggable sequential store.
///
/// ```
/// use stapl_rts::{execute, RtsConfig};
/// use stapl_containers::associative::PHashMap;
/// use stapl_core::interfaces::{AssociativeContainer, PContainer};
///
/// execute(RtsConfig::default(), 2, |loc| {
///     let m: PHashMap<String, u64> = PHashMap::new(loc);
///     if loc.id() == 0 {
///         m.insert_async("answer".into(), 42);
///     }
///     m.commit();
///     assert_eq!(m.find("answer".into()), Some(42));
///     assert_eq!(m.global_size(), 1);
/// });
/// ```
pub struct PAssoc<K, V, S>
where
    K: Key,
    V: Send + Clone + 'static,
    S: KvStore<K, V>,
{
    obj: PObject<AssocRep<K, V, S>>,
}

impl<K, V, S> Clone for PAssoc<K, V, S>
where
    K: Key,
    V: Send + Clone + 'static,
    S: KvStore<K, V>,
{
    fn clone(&self) -> Self {
        PAssoc { obj: self.obj.clone() }
    }
}

impl<K, V, S> PAssoc<K, V, S>
where
    K: Key,
    V: Send + Clone + 'static,
    S: KvStore<K, V>,
{
    /// **Collective.** Builds from a key distribution.
    fn with_distribution(loc: &Location, dist: KeyDistribution<K, S::Partition>) -> Self {
        let mut lm = LocationManager::new();
        for bcid in dist.bcids_of(loc.id()) {
            lm.add_bcontainer(bcid, AssocBc::default());
        }
        let rep = AssocRep { lm, dist, size: LazySize::default(), _marker: std::marker::PhantomData };
        let obj = PObject::register(loc, rep);
        loc.barrier();
        PAssoc { obj }
    }

    /// The location owning `k`'s bucket.
    fn owner_of(&self, k: &K) -> LocId {
        self.obj.local().dist.locate(k).1
    }

    /// The bucket (segment) `k` belongs to under this container's key
    /// distribution — replicated metadata, no communication. The grouping
    /// key for segment-grained shuffles ([`PAssoc::merge_segment`]).
    #[inline]
    pub fn bucket_of(&self, k: &K) -> SegmentId {
        self.obj.local().dist.partition().find(k)
    }

    /// `find`'s miss: asks the owner of bucket `bcid`.
    #[inline(never)]
    fn find_at_owner(&self, bcid: Bcid, k: K) -> Option<V> {
        let owner = self.obj.local().dist.mapper().map(bcid);
        self.obj.invoke_ret_at(owner, move |cell, _| cell.borrow().store_of(&k).get(&k).cloned())
    }

    fn me(&self) -> LocId {
        self.obj.location().id()
    }

    /// The asynchronous element methods: runs `op` on the store of `k`'s
    /// bucket — here, under the borrow that located it, when this location
    /// holds the bucket; shipped to the owner otherwise. `RESIZES` marks the
    /// lazy size stale (at issuer and owner); `INVOKES` says whether a
    /// local run counts as an invocation. Both are the method's, so part of
    /// the function: what is shipped is the method's arguments.
    ///
    /// Inline, the partition's bucket and the location manager's lookup —
    /// the inline bucket's BCID compared first — and the hit; the miss is
    /// [`PAssoc::update_at_owner`], out of line.
    #[inline(always)]
    fn update_async<const RESIZES: bool, const INVOKES: bool, F>(&self, k: K, op: F)
    where
        F: FnOnce(&mut S, K) + Send + 'static,
    {
        let mut rep = self.obj.local_mut();
        rep.size.mark(RESIZES);
        let bcid = rep.dist.partition().find(&k);
        if let Some(bc) = rep.lm.get_mut(bcid) {
            if INVOKES {
                self.obj.location().count(Counter::local_invocations, 1);
            }
            return op(&mut bc.store, k);
        }
        drop(rep);
        self.update_at_owner::<RESIZES, F>(bcid, k, op);
    }

    /// [`PAssoc::update_async`]'s miss: ships `op` and `k` to the owner of
    /// bucket `bcid`, which finds the bucket again.
    #[inline(never)]
    fn update_at_owner<const RESIZES: bool, F>(&self, bcid: Bcid, k: K, op: F)
    where
        F: FnOnce(&mut S, K) + Send + 'static,
    {
        let owner = self.obj.local().dist.mapper().map(bcid);
        self.obj.invoke_at(owner, move |cell, _| {
            let mut rep = cell.borrow_mut();
            rep.size.mark(RESIZES);
            op(rep.store_of_mut(&k), k);
        });
    }

    /// Asynchronously applies `f` to the value under `k`, inserting
    /// `default` first when absent — the combining primitive MapReduce and
    /// histogramming build on.
    pub fn apply_or_insert<F>(&self, k: K, default: V, f: F)
    where
        F: FnOnce(&mut V) + Send + 'static,
    {
        self.update_async::<true, false, _>(k, move |store, k| f(store.slot(k, || default)));
    }

    /// Asynchronously applies `f` to an existing value (no-op when absent).
    pub fn apply_async<F>(&self, k: K, f: F)
    where
        F: FnOnce(&mut V) + Send + 'static,
    {
        self.update_async::<false, true, _>(k, move |store, k| {
            if let Some(v) = store.get_mut(&k) {
                f(v);
            }
        });
    }

    /// Synchronous insert that reports whether the key was new.
    pub fn insert(&self, k: K, v: V) -> bool {
        let owner = self.owner_of(&k);
        self.obj.local_mut().size.mark(true);
        self.obj.invoke_ret_at(owner, move |cell, _| {
            let mut rep = cell.borrow_mut();
            rep.size.mark(true);
            rep.store_of_mut(&k).insert(k, v)
        })
    }

    /// Iterates local (key, value) pairs; for sorted stores the order is
    /// the key order within each base container.
    pub fn for_each_local(&self, mut f: impl FnMut(&K, &V)) {
        let rep = self.obj.local();
        for (_, bc) in rep.lm.iter() {
            bc.store.for_each(&mut f);
        }
    }

    /// All pairs ordered by (bcid, store order) — for a splitter partition
    /// over a sorted store this is global key order.
    ///
    /// **One-sided** gather-to-caller over split RMIs: each peer ships its
    /// buckets once (one response per location, merged here by BCID), so a
    /// single caller pays O(n). The old implementation allreduced the
    /// entire dataset — every location materialized all n pairs, O(n·P)
    /// bytes on the wire, wanted or not. Locations that need the result
    /// call this (any subset, concurrently); peers only need to be polling
    /// (e.g. blocked in a fence or barrier).
    pub fn collect_ordered(&self) -> Vec<(K, V)> {
        crate::gather_by_bcid(&self.obj, AssocRep::local_bucket_pairs)
    }

    /// Asynchronous **bulk combine** into bucket `sid`: one RMI carrying
    /// all `items` to the bucket's owner, where each value is merged into
    /// the existing entry with `combine` (inserting `identity` first when
    /// the key is absent) — the segment-grained sibling of
    /// [`PAssoc::apply_or_insert`], and the shuffle primitive the chunked
    /// MapReduce builds on (one message per (owner, bucket) instead of one
    /// per pair).
    pub fn merge_segment<C>(&self, sid: SegmentId, items: Vec<(K, V)>, identity: V, combine: C)
    where
        C: Fn(&mut V, V) + Clone + Send + 'static,
    {
        debug_assert!(
            items.iter().all(|(k, _)| self.bucket_of(k) == sid),
            "merge_segment: a key does not belong to bucket {sid} (group with bucket_of)"
        );
        let owner = self.obj.local().dist.mapper().map(sid);
        if owner != self.me() {
            self.obj.location().count(Counter::segment_requests, 1);
        }
        self.obj.local_mut().size.mark(true);
        self.obj.invoke_at(owner, move |cell, _| {
            let mut rep = cell.borrow_mut();
            rep.size.mark(true);
            let store = &mut rep.lm.get_mut(sid).expect("assoc bcid").store;
            // Grow once, to what the bucket surely ends up holding: at least
            // as many keys as the larger of the store and `items` (keys that
            // other locations already merged need no new room).
            store.reserve(items.len().saturating_sub(store.len()));
            // One lookup per pair: this is the inner loop of the shuffle.
            for (k, v) in items {
                combine(store.slot(k, || identity.clone()), v);
            }
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
}

impl<K, V, S> AssocRep<K, V, S>
where
    K: Key,
    V: Send + Clone + 'static,
    S: KvStore<K, V>,
{
    /// This location's buckets as (bcid, pairs-in-store-order) — the
    /// gather payload.
    fn local_bucket_pairs(&self) -> crate::BcidPayload<(K, V)> {
        self.lm
            .iter()
            .map(|(bcid, bc)| {
                let mut pairs = Vec::with_capacity(bc.store.len());
                bc.store.for_each(&mut |k, v| pairs.push((k.clone(), v.clone())));
                (bcid, pairs)
            })
            .collect()
    }
}

impl<K, V, S> PContainer for PAssoc<K, V, S>
where
    K: Key,
    V: Send + Clone + 'static,
    S: KvStore<K, V>,
{
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
        let local = self.obj.local().lm.memory_size();
        self.obj.location().allreduce(local, |a, b| a + b)
    }
}

impl<K, V, S> AssociativeContainer<K> for PAssoc<K, V, S>
where
    K: Key,
    V: Send + Clone + 'static,
    S: KvStore<K, V>,
{
    type Mapped = V;

    fn insert_async(&self, k: K, v: V) {
        self.update_async::<true, false, _>(k, move |store, k| {
            store.insert(k, v);
        });
    }

    fn erase_async(&self, k: K) {
        self.update_async::<true, true, _>(k, move |store, k| {
            store.remove(&k);
        });
    }

    // Inline, as `update_async`: the bucket, the lookup and the hit; the
    // miss is `find_at_owner`.
    #[inline(always)]
    fn find(&self, k: K) -> Option<V> {
        let rep = self.obj.local();
        let bcid = rep.dist.partition().find(&k);
        if let Some(bc) = rep.lm.get(bcid) {
            return bc.store.get(&k).cloned();
        }
        drop(rep);
        self.find_at_owner(bcid, k)
    }

    fn split_find(&self, k: K) -> RmiFuture<Option<V>> {
        let owner = self.owner_of(&k);
        self.obj.invoke_split_at(owner, move |cell, _| cell.borrow().store_of(&k).get(&k).cloned())
    }
}

impl<K, V, S> SegmentedContainer for PAssoc<K, V, S>
where
    K: Key,
    V: Send + Clone + 'static,
    S: KvStore<K, V>,
{
    type ItemKey = K;
    type ItemVal = V;

    fn segments(&self) -> Vec<SegmentId> {
        (0..self.obj.local().dist.num_subdomains()).collect()
    }

    fn local_segments(&self) -> Vec<SegmentId> {
        self.obj.local().dist.bcids_of(self.me())
    }

    fn is_local_segment(&self, sid: SegmentId) -> bool {
        self.obj.local().lm.get(sid).is_some()
    }

    fn get_segment(&self, sid: SegmentId) -> Vec<(K, V)> {
        let mut out = Vec::new();
        if self.with_segment(sid, &mut |k, v| out.push((k.clone(), v.clone()))) {
            return out;
        }
        self.obj.location().count(Counter::segment_requests, 1);
        let owner = self.obj.local().dist.mapper().map(sid);
        self.obj.invoke_ret_at(owner, move |cell, _| {
            let rep = cell.borrow();
            let mut pairs = Vec::new();
            rep.lm
                .get(sid)
                .expect("assoc bcid")
                .store
                .for_each(&mut |k, v| pairs.push((k.clone(), v.clone())));
            pairs
        })
    }

    fn set_segment(&self, sid: SegmentId, items: Vec<(K, V)>) {
        let owner = self.obj.local().dist.mapper().map(sid);
        if owner != self.me() {
            self.obj.location().count(Counter::segment_requests, 1);
        }
        self.obj.invoke_at(owner, move |cell, _| {
            let mut rep = cell.borrow_mut();
            let store = &mut rep.lm.get_mut(sid).expect("assoc bcid").store;
            for (k, v) in items {
                if let Some(slot) = store.get_mut(&k) {
                    *slot = v;
                }
            }
        });
    }

    // A copy in every codegen unit that walks a segment: the walk's
    // callback is a `dyn FnMut`, and only inlined next to its caller does
    // it become a direct, inlinable call (`word_count_kv`'s emit path).
    #[inline]
    fn with_segment(&self, sid: SegmentId, f: &mut dyn FnMut(&K, &V)) -> bool {
        let rep = self.obj.local();
        let Some(bc) = rep.lm.get(sid) else { return false };
        self.obj.location().count(Counter::localized_chunks, 1);
        bc.store.for_each(f);
        true
    }
}

// ---------------------------------------------------------------------
// Concrete containers
// ---------------------------------------------------------------------

/// Sorted pair-associative container (pMap): value-based partition over
/// `BTreeMap` base containers.
pub type PMap<K, V> = PAssoc<K, V, BTreeMap<K, V>>;

/// Hashed pair-associative container (pHashMap): hash partition over
/// [`KeyHashMap`] base containers — placement and store are two seeds of
/// the framework's one hasher.
pub type PHashMap<K, V> = PAssoc<K, V, KeyHashMap<K, V>>;

impl<K, V> PMap<K, V>
where
    K: Key + Ord,
    V: Send + Clone + 'static,
{
    /// **Collective.** A pMap whose key space is cut by the given
    /// splitters (one ordered interval per base container, Fig. 58).
    pub fn new(loc: &Location, splitters: Vec<K>) -> Self {
        let mapper = CyclicMapper::new(loc.nlocs());
        let dist = KeyDistribution::new(SplitterPartition::new(splitters), mapper);
        Self::with_distribution(loc, dist)
    }
}

impl<K, V> PHashMap<K, V>
where
    K: Key + std::hash::Hash,
    V: Send + Clone + 'static,
{
    /// **Collective.** A pHashMap with one hash bucket per location.
    pub fn new(loc: &Location) -> Self {
        Self::with_buckets(loc, loc.nlocs())
    }

    /// **Collective.** A pHashMap with an explicit bucket count.
    pub fn with_buckets(loc: &Location, buckets: usize) -> Self {
        let mapper = CyclicMapper::new(loc.nlocs());
        let dist = KeyDistribution::new(HashPartition::new(buckets), mapper);
        Self::with_distribution(loc, dist)
    }
}

/// Sorted simple-associative container (pSet): keys only.
pub struct PSet<K: Key + Ord> {
    map: PMap<K, ()>,
}

impl<K: Key + Ord> Clone for PSet<K> {
    fn clone(&self) -> Self {
        PSet { map: self.map.clone() }
    }
}

impl<K: Key + Ord> PSet<K> {
    /// **Collective.**
    pub fn new(loc: &Location, splitters: Vec<K>) -> Self {
        PSet { map: PMap::new(loc, splitters) }
    }

    pub fn insert_async(&self, k: K) {
        self.map.insert_async(k, ());
    }

    pub fn erase_async(&self, k: K) {
        self.map.erase_async(k);
    }

    pub fn contains(&self, k: K) -> bool {
        self.map.find(k).is_some()
    }

    pub fn commit(&self) {
        self.map.commit();
    }

    pub fn global_size(&self) -> usize {
        self.map.global_size()
    }

    /// Elements in global key order — a **one-sided** gather to the
    /// caller (see [`PAssoc::collect_ordered`]); only locations that
    /// want the data should call.
    pub fn collect_ordered(&self) -> Vec<K> {
        self.map.collect_ordered().into_iter().map(|(k, _)| k).collect()
    }
}

/// Hashed simple-associative container (pHashSet).
pub struct PHashSet<K: Key + std::hash::Hash> {
    map: PHashMap<K, ()>,
}

impl<K: Key + std::hash::Hash> Clone for PHashSet<K> {
    fn clone(&self) -> Self {
        PHashSet { map: self.map.clone() }
    }
}

impl<K: Key + std::hash::Hash> PHashSet<K> {
    /// **Collective.**
    pub fn new(loc: &Location) -> Self {
        PHashSet { map: PHashMap::new(loc) }
    }

    pub fn insert_async(&self, k: K) {
        self.map.insert_async(k, ());
    }

    pub fn contains(&self, k: K) -> bool {
        self.map.find(k).is_some()
    }

    pub fn commit(&self) {
        self.map.commit();
    }

    pub fn global_size(&self) -> usize {
        self.map.global_size()
    }
}

/// Sorted multi-associative container (pMultiMap): every key maps to the
/// multiset of inserted values.
pub struct PMultiMap<K: Key + Ord, V: Send + Clone + 'static> {
    map: PMap<K, Vec<V>>,
}

impl<K: Key + Ord, V: Send + Clone + 'static> Clone for PMultiMap<K, V> {
    fn clone(&self) -> Self {
        PMultiMap { map: self.map.clone() }
    }
}

impl<K: Key + Ord, V: Send + Clone + 'static> PMultiMap<K, V> {
    /// **Collective.**
    pub fn new(loc: &Location, splitters: Vec<K>) -> Self {
        PMultiMap { map: PMap::new(loc, splitters) }
    }

    /// Asynchronously appends `v` under `k`.
    pub fn insert_async(&self, k: K, v: V) {
        self.map.apply_or_insert(k, Vec::new(), move |vs| vs.push(v));
    }

    /// All values under `k` (synchronous).
    pub fn find_all(&self, k: K) -> Vec<V> {
        self.map.find(k).unwrap_or_default()
    }

    /// Number of distinct keys (after commit).
    pub fn num_keys(&self) -> usize {
        self.map.global_size()
    }

    pub fn commit(&self) {
        self.map.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn hashmap_insert_find_erase() {
        execute(RtsConfig::default(), 3, |loc| {
            let m: PHashMap<u64, String> = PHashMap::new(loc);
            if loc.id() == 0 {
                for k in 0..30 {
                    m.insert_async(k, format!("v{k}"));
                }
            }
            m.commit();
            assert_eq!(m.global_size(), 30);
            for k in 0..30 {
                assert_eq!(m.find(k), Some(format!("v{k}")));
            }
            assert_eq!(m.find(99), None);
            loc.barrier(); // every location's finds above precede the erase
            if loc.id() == 1 {
                m.erase_async(7);
            }
            m.commit();
            assert_eq!(m.global_size(), 29);
            assert_eq!(m.find(7), None);
        });
    }

    #[test]
    fn map_preserves_global_key_order() {
        execute(RtsConfig::default(), 3, |loc| {
            // Splitters cut the key space into [min,10), [10,20), [20,max).
            let m: PMap<i64, i64> = PMap::new(loc, vec![10, 20]);
            // Insert shuffled keys from every location (overwrites collide
            // deterministically because values equal keys).
            for k in [25, 3, 14, 8, 29, 11, 0, 19, 22] {
                m.insert_async(k, k * 2);
            }
            m.commit();
            assert_eq!(m.global_size(), 9);
            let pairs = m.collect_ordered();
            let keys: Vec<i64> = pairs.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, vec![0, 3, 8, 11, 14, 19, 22, 25, 29]);
            assert!(pairs.iter().all(|(k, v)| *v == k * 2));
        });
    }

    #[test]
    fn duplicate_insert_overwrites() {
        execute(RtsConfig::default(), 2, |loc| {
            let m: PHashMap<u32, u32> = PHashMap::new(loc);
            if loc.id() == 0 {
                m.insert_async(5, 1);
                m.insert_async(5, 2); // same source, same key: ordered
            }
            m.commit();
            assert_eq!(m.global_size(), 1);
            assert_eq!(m.find(5), Some(2));
        });
    }

    #[test]
    fn apply_or_insert_accumulates_like_wordcount() {
        execute(RtsConfig::default(), 4, |loc| {
            let m: PHashMap<String, u64> = PHashMap::new(loc);
            // Every location counts the same words.
            for w in ["the", "quick", "the", "fox", "the"] {
                m.apply_or_insert(w.to_string(), 0, |c| *c += 1);
            }
            m.commit();
            assert_eq!(m.find("the".into()), Some(12)); // 3 × 4 locations
            assert_eq!(m.find("quick".into()), Some(4));
            assert_eq!(m.global_size(), 3);
        });
    }

    #[test]
    fn split_find_and_sync_insert() {
        execute(RtsConfig::default(), 2, |loc| {
            let m: PHashMap<u32, u32> = PHashMap::new(loc);
            if loc.id() == 1 {
                let newly = m.insert(1, 10);
                assert!(newly);
                let again = m.insert(1, 11);
                assert!(!again);
            }
            loc.rmi_fence();
            let fut = m.split_find(1);
            assert_eq!(fut.get(), Some(11));
        });
    }

    #[test]
    fn local_fast_path_for_owned_keys() {
        execute(RtsConfig::unbuffered(), 2, |loc| {
            let m: PHashMap<u64, u64> = PHashMap::new(loc);
            loc.rmi_fence();
            let before = loc.stats().remote_requests;
            let mut local_keys = 0;
            for k in 0..50u64 {
                let owner = m.owner_of(&k);
                if owner == loc.id() {
                    m.insert_async(k, k);
                    assert_eq!(m.find(k), Some(k));
                    local_keys += 1;
                }
            }
            assert!(local_keys > 0);
            let after = loc.stats().remote_requests;
            assert_eq!(before, after, "local-key operations must not communicate");
        });
    }

    #[test]
    fn pset_membership_and_order() {
        execute(RtsConfig::default(), 2, |loc| {
            let s: PSet<u32> = PSet::new(loc, vec![50]);
            if loc.id() == 0 {
                for k in [30, 80, 10, 60] {
                    s.insert_async(k);
                }
            }
            s.commit();
            assert_eq!(s.global_size(), 4);
            assert!(s.contains(30));
            assert!(!s.contains(31));
            assert_eq!(s.collect_ordered(), vec![10, 30, 60, 80]);
            if loc.id() == 1 {
                s.erase_async(30);
            }
            s.commit();
            assert!(!s.contains(30));
        });
    }

    #[test]
    fn phashset_dedups() {
        execute(RtsConfig::default(), 3, |loc| {
            let s: PHashSet<String> = PHashSet::new(loc);
            s.insert_async("a".into());
            s.insert_async("b".into());
            s.commit();
            assert_eq!(s.global_size(), 2); // all locations inserted the same two
            assert!(s.contains("a".into()));
        });
    }

    #[test]
    fn multimap_collects_all_values() {
        execute(RtsConfig::default(), 3, |loc| {
            let m: PMultiMap<u32, usize> = PMultiMap::new(loc, vec![5]);
            m.insert_async(1, loc.id());
            m.insert_async(9, loc.id() * 10);
            m.commit();
            assert_eq!(m.num_keys(), 2);
            let mut vals = m.find_all(1);
            vals.sort_unstable();
            assert_eq!(vals, vec![0, 1, 2]);
            assert_eq!(m.find_all(42), Vec::<usize>::new());
        });
    }

    #[test]
    fn global_size_sees_own_uncommitted_mutations() {
        execute(RtsConfig::default(), 3, |loc| {
            let m: PHashMap<u64, u64> = PHashMap::new(loc);
            loc.rmi_fence();
            if loc.id() == 0 {
                for k in 0..16 {
                    m.insert_async(k, k);
                }
                // Regression: this used to return the stale cached 0 until
                // an explicit commit().
                assert_eq!(m.global_size(), 16, "must observe own uncommitted inserts");
                m.erase_async(3);
                assert_eq!(m.global_size(), 15, "must observe own uncommitted erase");
                // Overwrites do not change the size.
                m.insert_async(5, 99);
                assert_eq!(m.global_size(), 15);
            }
            m.commit();
            // After commit every location agrees, and reads are O(1) again.
            assert_eq!(m.global_size(), 15);
        });
    }

    #[test]
    fn global_size_via_sync_insert_and_apply_or_insert() {
        execute(RtsConfig::default(), 2, |loc| {
            let m: PHashMap<u32, u32> = PHashMap::new(loc);
            loc.rmi_fence();
            if loc.id() == 1 {
                assert!(m.insert(7, 1));
                m.apply_or_insert(8, 0, |v| *v += 1);
                assert_eq!(m.global_size(), 2);
            }
            m.commit();
            assert_eq!(m.global_size(), 2);
        });
    }

    #[test]
    fn collect_ordered_gathers_instead_of_replicating() {
        execute(RtsConfig::default(), 4, |loc| {
            let m: PHashMap<u64, u64> = PHashMap::new(loc);
            for k in 0..64u64 {
                if k % loc.nlocs() as u64 == loc.id() as u64 {
                    m.insert_async(k, k * 3);
                }
            }
            m.commit();
            // Snapshot, then barrier, so the root does not start gathering
            // before every location has its baseline.
            let before = loc.stats().gather_items;
            loc.barrier();
            // Root-only collection: the gather ships each remote pair once.
            if loc.id() == 0 {
                let got = m.collect_ordered();
                assert_eq!(got.len(), 64);
                let mut keys: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
                keys.sort_unstable();
                assert_eq!(keys, (0..64).collect::<Vec<u64>>());
                assert!(got.iter().all(|(k, v)| *v == k * 3));
            }
            loc.barrier();
            let gathered = loc.stats().gather_items - before;
            // Regression: the old allreduce-based implementation replicated
            // all n pairs to every location (O(n·P)); the gather moves each
            // remote pair exactly once, to the single caller.
            assert!(gathered > 0, "gather must ship payload");
            assert!(gathered <= 64, "gather-to-root must move each pair at most once: {gathered}");
        });
    }

    #[test]
    fn segment_transport_matches_elementwise() {
        execute(RtsConfig::default(), 3, |loc| {
            let m: PHashMap<u64, u64> = PHashMap::with_buckets(loc, 6);
            if loc.id() == 0 {
                for k in 0..30 {
                    m.insert_async(k, k + 1);
                }
            }
            m.commit();
            // Bucket-at-a-time reads union to exactly the element-wise view.
            let mut union: Vec<(u64, u64)> =
                m.segments().iter().flat_map(|s| m.get_segment(*s)).collect();
            union.sort_unstable();
            assert_eq!(union, (0..30).map(|k| (k, k + 1)).collect::<Vec<_>>());
            loc.barrier();
            // Bucket write-back: one RMI per remote bucket.
            if loc.id() == 1 {
                for sid in m.segments() {
                    let items = m.get_segment(sid).into_iter().map(|(k, v)| (k, v + k)).collect();
                    m.set_segment(sid, items);
                }
            }
            m.commit();
            for k in 0..30 {
                assert_eq!(m.find(k), Some(2 * k + 1));
            }
            // Bulk combine: one merge RMI per destination bucket.
            if loc.id() == 2 {
                let mut groups: std::collections::HashMap<usize, Vec<(u64, u64)>> =
                    Default::default();
                for k in 100..120u64 {
                    groups.entry(m.bucket_of(&k)).or_default().push((k, 7));
                }
                for (sid, items) in groups {
                    m.merge_segment(sid, items, 0, |a, b| *a += b);
                }
                assert_eq!(m.global_size(), 50, "dirty read sees the bulk merge");
            }
            m.commit();
            assert_eq!(m.global_size(), 50);
            for k in 100..120 {
                assert_eq!(m.find(k), Some(7));
            }
        });
    }

    #[test]
    fn clear_and_recommit() {
        execute(RtsConfig::default(), 2, |loc| {
            let m: PHashMap<u32, u32> = PHashMap::new(loc);
            m.insert_async(loc.id() as u32, 1);
            m.commit();
            assert_eq!(m.global_size(), 2);
            m.clear();
            m.commit();
            assert_eq!(m.global_size(), 0);
            assert_eq!(m.find(0), None);
        });
    }

    #[test]
    fn many_buckets_spread_keys() {
        execute(RtsConfig::default(), 2, |loc| {
            let m: PHashMap<u64, u64> = PHashMap::with_buckets(loc, 8);
            for k in 0..64 {
                if k % loc.nlocs() as u64 == loc.id() as u64 {
                    m.insert_async(k, k);
                }
            }
            m.commit();
            assert_eq!(m.global_size(), 64);
            // Both locations hold several of the 8 buckets' worth of keys.
            assert!(m.local_size() > 0);
        });
    }
}
