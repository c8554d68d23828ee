//! pVector: a dynamic indexed sequence — the pArray/pList hybrid of the
//! paper's taxonomy (Fig. 12d).
//!
//! pVector gives O(1) *index-based* access (like pArray) but supports
//! inserts and erases (like pList), paying the well-known tradeoff the
//! paper measures in Fig. 42: inserting shifts elements inside a block
//! (linear time) and unbalances the partition.
//!
//! Index → location resolution uses a replicated vector of cumulative
//! block bounds (an [`ExplicitPartition`](stapl_core::partition::ExplicitPartition)
//! in spirit). Structural operations leave the replicated bounds *stale*
//! until the collective [`PContainer::commit`] refreshes them — exactly
//! the lazy replicated metadata of Chapter VII.G. Between commits,
//! element accesses are routed by the stale bounds and clamped into the
//! owner's current block, which is the relaxed-consistency window the
//! paper's mixed-operation experiments run in.

use stapl_core::bcontainer::MemSize;
use stapl_core::distribution::GidRun;
use stapl_core::domain::Range1d;
use stapl_core::interfaces::{
    ElementRead, ElementWrite, LocalIteration, PContainer, RangedContainer,
};
use stapl_core::pobject::PObject;
use stapl_rts::{Counter, LocId, Location, RmiFuture};

/// Per-location representative: one contiguous block per location.
pub struct VectorRep<T> {
    data: Vec<T>,
    /// Replicated cumulative sizes: location `l` owns global indices
    /// `[bounds[l-1], bounds[l])` as of the last commit.
    bounds: Vec<usize>,
    /// (global index, value) pairs arriving during a [`PVector::rebalance`].
    staging: Vec<(usize, T)>,
}

impl<T> VectorRep<T> {
    fn lo(&self, loc: LocId) -> usize {
        if loc == 0 {
            0
        } else {
            self.bounds[loc - 1]
        }
    }

    fn locate(&self, gid: usize) -> (LocId, usize) {
        let loc = self.bounds.partition_point(|&b| b <= gid);
        let loc = loc.min(self.bounds.len() - 1);
        (loc, gid - self.lo(loc))
    }

    /// Clamped local offset — see the module docs on the relaxed window.
    fn clamp(&self, off: usize) -> usize {
        off.min(self.data.len().saturating_sub(1))
    }
}

/// Writes `vals` at local offsets `off..`, clamped into the owner's
/// current block like `set_element` (the relaxed window between commits).
fn write_clamped<T>(rep: &mut VectorRep<T>, off: usize, vals: &[T])
where
    T: Clone,
{
    if rep.data.is_empty() {
        return;
    }
    for (k, v) in vals.iter().enumerate() {
        let at = rep.clamp(off + k);
        rep.data[at] = v.clone();
    }
}

/// Applies `f(gid, &mut value)` over a run at local offsets `off..`,
/// clamped like `apply_set` (and dropped when the block emptied).
fn apply_clamped<T, F>(rep: &mut VectorRep<T>, off: usize, gids: Range1d, f: &F)
where
    F: Fn(usize, &mut T),
{
    if rep.data.is_empty() {
        return;
    }
    for (k, g) in gids.iter().enumerate() {
        let at = rep.clamp(off + k);
        f(g, &mut rep.data[at]);
    }
}

/// Cumulative upper bounds of `n` indices dealt to `nlocs` balanced blocks
/// (the first `n % nlocs` one longer).
fn balanced_bounds(n: usize, nlocs: usize) -> Vec<usize> {
    let (base, extra) = (n / nlocs, n % nlocs);
    (1..=nlocs).map(|l| l * base + l.min(extra)).collect()
}

/// The STAPL pVector.
pub struct PVector<T: Send + Clone + 'static> {
    obj: PObject<VectorRep<T>>,
}

impl<T: Send + Clone + 'static> Clone for PVector<T> {
    fn clone(&self) -> Self {
        PVector { obj: self.obj.clone() }
    }
}

impl<T: Send + Clone + 'static> PVector<T> {
    /// **Collective.** A pVector of `n` copies of `init`, balanced.
    pub fn new(loc: &Location, n: usize, init: T) -> Self {
        let bounds = balanced_bounds(n, loc.nlocs());
        let mut rep = VectorRep { data: Vec::new(), bounds, staging: Vec::new() };
        rep.data = vec![init; rep.bounds[loc.id()] - rep.lo(loc.id())];
        let obj = PObject::register(loc, rep);
        loc.barrier();
        PVector { obj }
    }

    /// **Collective.** Builds with `f(i)` at every index, locally.
    pub fn from_fn(loc: &Location, n: usize, f: impl Fn(usize) -> T) -> Self
    where
        T: Default,
    {
        let v = Self::new(loc, n, T::default());
        {
            let mut rep = v.obj.local_mut();
            let lo = rep.lo(loc.id());
            for (k, slot) in rep.data.iter_mut().enumerate() {
                *slot = f(lo + k);
            }
        }
        loc.barrier();
        v
    }

    fn locate(&self, gid: usize) -> (LocId, usize) {
        self.obj.local().locate(gid)
    }

    /// Asynchronously inserts `v` before global index `gid` (clamped into
    /// the owner block's current extent). O(block) — the linear cost the
    /// paper contrasts with pList's O(1).
    pub fn insert_async(&self, gid: usize, v: T) {
        let (owner, off) = self.locate(gid);
        self.obj.invoke_at(owner, move |cell, _| {
            let mut rep = cell.borrow_mut();
            let at = off.min(rep.data.len());
            rep.data.insert(at, v);
        });
    }

    /// Asynchronously erases the element at global index `gid` (clamped).
    pub fn erase_async(&self, gid: usize) {
        let (owner, off) = self.locate(gid);
        self.obj.invoke_at(owner, move |cell, _| {
            let mut rep = cell.borrow_mut();
            if !rep.data.is_empty() {
                let at = rep.clamp(off);
                rep.data.remove(at);
            }
        });
    }

    /// Appends at the global end (amortized O(1) at the last location).
    pub fn push_back(&self, v: T) {
        let last = self.obj.location().nlocs() - 1;
        self.obj.invoke_at(last, move |cell, _| cell.borrow_mut().data.push(v));
    }

    /// **Collective.** Restores a balanced distribution after skewed
    /// `insert`/`erase` bursts — pVector's counterpart of
    /// [`PArray::rebalance`](crate::array::PArray::rebalance) (Section
    /// V.G's redistribution for the dynamic case).
    ///
    /// Drains pending structural operations (fence), computes balanced
    /// target block sizes from the *current* global size, ships every
    /// element whose global index now belongs to another location, and
    /// rebuilds the replicated bounds. Afterwards local block sizes
    /// differ by at most one and index resolution is exact again.
    pub fn rebalance(&self) {
        let loc = self.obj.location().clone();
        let me = loc.id();
        let nlocs = loc.nlocs();
        // Drain in-flight inserts/erases so sizes are stable.
        loc.rmi_fence();
        let len = self.obj.local().data.len();
        let lens = loc.allgather(len);
        let total: usize = lens.iter().sum();
        // Balanced target, like `new`.
        let target = balanced_bounds(total, nlocs);
        let owner_of = |g: usize| target.partition_point(|&b| b <= g).min(nlocs - 1);
        let my_lo: usize = lens[..me].iter().sum();
        // Partition the local block: keepers stage locally, movers ship to
        // their new owner with their global index.
        let mut outgoing: Vec<Vec<(usize, T)>> = (0..nlocs).map(|_| Vec::new()).collect();
        {
            let mut rep = self.obj.local_mut();
            let block = std::mem::take(&mut rep.data);
            for (k, v) in block.into_iter().enumerate() {
                let g = my_lo + k;
                let dest = owner_of(g);
                if dest == me {
                    rep.staging.push((g, v));
                } else {
                    outgoing[dest].push((g, v));
                }
            }
        }
        for (dest, batch) in outgoing.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            self.obj.invoke_at(dest, move |cell, _| {
                cell.borrow_mut().staging.extend(batch);
            });
        }
        loc.rmi_fence();
        // Reassemble the local block in global-index order.
        {
            let mut rep = self.obj.local_mut();
            let mut staged = std::mem::take(&mut rep.staging);
            staged.sort_unstable_by_key(|(g, _)| *g);
            debug_assert!(staged.windows(2).all(|w| w[0].0 + 1 == w[1].0));
            rep.data = staged.into_iter().map(|(_, v)| v).collect();
            rep.bounds = target;
        }
        loc.barrier();
    }

    /// **Collective.** All elements in index order (test/debug helper).
    pub fn collect_ordered(&self) -> Vec<T> {
        let local = (self.obj.location().id(), self.obj.local().data.clone());
        let mut all = self.obj.location().allreduce(vec![local], |mut a, mut b| {
            a.append(&mut b);
            a
        });
        all.sort_by_key(|(l, _)| *l);
        all.into_iter().flat_map(|(_, d)| d).collect()
    }

    /// **Collective.** Removes all elements; distribution stays valid.
    pub fn clear(&self) {
        let loc = self.obj.location().clone();
        loc.rmi_fence();
        {
            let mut rep = self.obj.local_mut();
            rep.data.clear();
            let n = rep.bounds.len();
            rep.bounds = vec![0; n];
        }
        loc.barrier();
    }
}

impl<T: Send + Clone + 'static> PContainer for PVector<T> {
    fn location(&self) -> &Location {
        self.obj.location()
    }

    /// Size as of the last commit (lazy replicated metadata).
    fn global_size(&self) -> usize {
        *self.obj.local().bounds.last().unwrap()
    }

    fn local_size(&self) -> usize {
        self.obj.local().data.len()
    }

    /// **Collective.** Drains pending structural ops and rebuilds the
    /// replicated bounds so indices are exact again.
    fn commit(&self) {
        let loc = self.obj.location().clone();
        loc.rmi_fence();
        let len = self.obj.local().data.len();
        let lens = loc.allgather(len);
        let mut acc = 0;
        let bounds: Vec<usize> = lens
            .into_iter()
            .map(|l| {
                acc += l;
                acc
            })
            .collect();
        self.obj.local_mut().bounds = bounds;
        loc.barrier();
    }

    fn memory_size(&self) -> MemSize {
        let local = {
            let rep = self.obj.local();
            MemSize::new(
                rep.bounds.capacity() * std::mem::size_of::<usize>()
                    + std::mem::size_of::<VectorRep<T>>(),
                rep.data.capacity() * std::mem::size_of::<T>(),
            )
        };
        self.obj.location().allreduce(local, |a, b| a + b)
    }
}

impl<T: Send + Clone + 'static> ElementRead<usize> for PVector<T> {
    type Value = T;

    fn get_element(&self, gid: usize) -> T {
        let (owner, off) = self.locate(gid);
        self.obj.invoke_ret_at(owner, move |cell, _| {
            let rep = cell.borrow();
            rep.data[rep.clamp(off)].clone()
        })
    }

    fn split_get_element(&self, gid: usize) -> RmiFuture<T> {
        let (owner, off) = self.locate(gid);
        self.obj.invoke_split_at(owner, move |cell, _| {
            let rep = cell.borrow();
            rep.data[rep.clamp(off)].clone()
        })
    }

    fn is_local(&self, gid: usize) -> bool {
        self.locate(gid).0 == self.obj.location().id()
    }
}

impl<T: Send + Clone + 'static> ElementWrite<usize> for PVector<T> {
    fn set_element(&self, gid: usize, v: T) {
        let (owner, off) = self.locate(gid);
        self.obj.invoke_at(owner, move |cell, _| {
            let mut rep = cell.borrow_mut();
            if !rep.data.is_empty() {
                let at = rep.clamp(off);
                rep.data[at] = v;
            }
        });
    }

    fn apply_set<F>(&self, gid: usize, f: F)
    where
        F: FnOnce(&mut T) + Send + 'static,
    {
        let (owner, off) = self.locate(gid);
        self.obj.invoke_at(owner, move |cell, _| {
            let mut rep = cell.borrow_mut();
            if !rep.data.is_empty() {
                let at = rep.clamp(off);
                f(&mut rep.data[at]);
            }
        });
    }

    fn apply_get<R, F>(&self, gid: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        let (owner, off) = self.locate(gid);
        self.obj.invoke_ret_at(owner, move |cell, _| {
            let mut rep = cell.borrow_mut();
            let at = rep.clamp(off);
            f(&mut rep.data[at])
        })
    }
}

impl<T: Send + Clone + 'static> LocalIteration<usize> for PVector<T> {
    fn for_each_local(&self, mut f: impl FnMut(usize, &T)) {
        let rep = self.obj.local();
        let lo = rep.lo(self.obj.location().id());
        for (k, v) in rep.data.iter().enumerate() {
            f(lo + k, v);
        }
    }

    fn for_each_local_mut(&self, mut f: impl FnMut(usize, &mut T)) {
        let me = self.obj.location().id();
        let mut rep = self.obj.local_mut();
        let lo = rep.lo(me);
        for (k, v) in rep.data.iter_mut().enumerate() {
            f(lo + k, v);
        }
    }
}

impl<T: Send + Clone + 'static> RangedContainer for PVector<T> {
    /// Run decomposition from the replicated bounds: one run per owning
    /// location (each location's block is one contiguous `Vec<T>`). Like
    /// element routing, runs follow the *last-committed* bounds — the
    /// relaxed window of the module docs.
    fn runs(&self, r: Range1d) -> Vec<GidRun> {
        let rep = self.obj.local();
        assert!(
            r.hi <= *rep.bounds.last().unwrap(),
            "range [{}, {}) exceeds the committed pVector domain (size {})",
            r.lo,
            r.hi,
            rep.bounds.last().unwrap()
        );
        let mut out = Vec::new();
        for l in 0..rep.bounds.len() {
            let block = Range1d::new(rep.lo(l), rep.bounds[l]);
            let i = block.intersect(&r);
            if !i.is_empty() {
                out.push(GidRun { gids: i, bcid: l, owner: l });
            }
        }
        out
    }

    /// This location's *committed* block, the piece [`RangedContainer::runs`]
    /// routes to it — not the live one, which an `insert_async` or
    /// `erase_async` before the next commit may have grown or shrunk. A
    /// piece the live block no longer holds is refused by `with_slice`, and
    /// its reader falls back to `get_range`.
    fn local_pieces(&self) -> Vec<(usize, Range1d)> {
        let me = self.obj.location().id();
        let rep = self.obj.local();
        let block = Range1d::new(rep.lo(me), rep.bounds[me]);
        if block.is_empty() {
            vec![]
        } else {
            vec![(me, block)]
        }
    }

    fn get_range(&self, r: Range1d) -> Vec<T> {
        let loc = self.obj.location().clone();
        let me = loc.id();
        let mut parts: Vec<Result<Vec<T>, RmiFuture<Vec<T>>>> = Vec::new();
        for run in self.runs(r) {
            if run.owner == me {
                loc.count(Counter::localized_chunks, 1);
                let rep = self.obj.local();
                let lo = rep.lo(me);
                // Like `get_element`, a read of a block drained to empty
                // since the last commit panics — there is no value to
                // return (writes, which can be dropped, return instead).
                parts.push(Ok(run
                    .gids
                    .iter()
                    .map(|g| rep.data[rep.clamp(g - lo)].clone())
                    .collect()));
            } else {
                // A remote run is one bulk RMI, as in every indexed
                // container. Like the element path, offsets are computed at
                // the *sender* from the routing-time bounds and only
                // clamped at the owner (the relaxed window of the module
                // docs) — the owner's bounds may already have moved on.
                loc.count(Counter::bulk_requests, 1);
                let off = run.gids.lo - self.obj.local().lo(run.owner);
                let len = run.gids.len();
                parts.push(Err(self.obj.invoke_split_at(run.owner, move |cell, _| {
                    let rep = cell.borrow();
                    (off..off + len).map(|o| rep.data[rep.clamp(o)].clone()).collect()
                })));
            }
        }
        let mut out = Vec::with_capacity(r.len());
        for part in parts {
            match part {
                Ok(vals) => out.extend(vals),
                Err(fut) => out.extend(fut.get()),
            }
        }
        out
    }

    fn set_range(&self, lo: usize, vals: &[T]) {
        let loc = self.obj.location().clone();
        let me = loc.id();
        let r = Range1d::new(lo, lo + vals.len());
        // Offsets are sender-computed from the routing-time bounds and
        // clamped at the owner, matching `set_element`'s relaxed window.
        for run in self.runs(r) {
            let chunk = &vals[run.gids.lo - lo..run.gids.hi - lo];
            let off = run.gids.lo - self.obj.local().lo(run.owner);
            if run.owner == me {
                loc.count(Counter::localized_chunks, 1);
                write_clamped(&mut self.obj.local_mut(), off, chunk);
            } else {
                loc.count(Counter::bulk_requests, 1);
                let owned = chunk.to_vec();
                self.obj.invoke_at(run.owner, move |cell, _| {
                    write_clamped(&mut cell.borrow_mut(), off, &owned);
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
            let off = run.gids.lo - self.obj.local().lo(run.owner);
            if run.owner == me {
                // Direct local mutation: one borrow for the whole run.
                loc.count(Counter::localized_chunks, 1);
                apply_clamped(&mut self.obj.local_mut(), off, run.gids, &f);
            } else {
                loc.count(Counter::bulk_requests, 1);
                let (gids, f) = (run.gids, f.clone());
                self.obj.invoke_at(run.owner, move |cell, _| {
                    apply_clamped(&mut cell.borrow_mut(), off, gids, &f);
                });
            }
        }
    }

    fn with_slice<R>(
        &self,
        _bcid: usize,
        gids: Range1d,
        f: impl FnOnce(&[T]) -> R,
    ) -> Option<R> {
        let me = self.obj.location().id();
        let rep = self.obj.local();
        let lo = rep.lo(me);
        // Exact only: the committed bounds must still describe the local
        // block (no clamping on the direct-slice path).
        if gids.lo < lo || gids.hi > lo + rep.data.len() {
            return None;
        }
        Some(f(&rep.data[gids.lo - lo..gids.hi - lo]))
    }

    fn with_slice_mut<R>(
        &self,
        _bcid: usize,
        gids: Range1d,
        f: impl FnOnce(&mut [T]) -> R,
    ) -> Option<R> {
        let me = self.obj.location().id();
        let mut rep = self.obj.local_mut();
        let lo = rep.lo(me);
        if gids.lo < lo || gids.hi > lo + rep.data.len() {
            return None;
        }
        Some(f(&mut rep.data[gids.lo - lo..gids.hi - lo]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn construct_get_set() {
        execute(RtsConfig::default(), 3, |loc| {
            let v = PVector::from_fn(loc, 10, |i| i as i64);
            assert_eq!(v.global_size(), 10);
            for i in 0..10 {
                assert_eq!(v.get_element(i), i as i64);
            }
            if loc.id() == 2 {
                v.set_element(0, -5);
            }
            loc.rmi_fence();
            assert_eq!(v.get_element(0), -5);
        });
    }

    #[test]
    fn insert_shifts_subsequent_elements() {
        execute(RtsConfig::default(), 2, |loc| {
            let v = PVector::from_fn(loc, 6, |i| i as i32 * 10);
            if loc.id() == 0 {
                v.insert_async(2, 99);
            }
            v.commit();
            assert_eq!(v.global_size(), 7);
            assert_eq!(v.collect_ordered(), vec![0, 10, 99, 20, 30, 40, 50]);
        });
    }

    #[test]
    fn erase_removes_and_commit_rebalances_bounds() {
        execute(RtsConfig::default(), 2, |loc| {
            let v = PVector::from_fn(loc, 6, |i| i as i32);
            if loc.id() == 1 {
                v.erase_async(0);
                v.erase_async(5); // stale index: still routed by old bounds
            }
            v.commit();
            assert_eq!(v.global_size(), 4);
            assert_eq!(v.collect_ordered(), vec![1, 2, 3, 4]);
        });
    }

    #[test]
    fn push_back_appends_globally() {
        execute(RtsConfig::default(), 3, |loc| {
            let v = PVector::new(loc, 3, 0u32);
            if loc.id() == 0 {
                v.push_back(7);
                v.push_back(8);
            }
            v.commit();
            assert_eq!(v.global_size(), 5);
            assert_eq!(v.collect_ordered(), vec![0, 0, 0, 7, 8]);
            assert_eq!(v.get_element(4), 8);
        });
    }

    #[test]
    fn apply_get_round_trips() {
        execute(RtsConfig::default(), 2, |loc| {
            let v = PVector::new(loc, 4, 1u64);
            if loc.id() == 0 {
                let r = v.apply_get(3, |x| {
                    *x += 9;
                    *x
                });
                assert_eq!(r, 10);
            }
            loc.rmi_fence();
            assert_eq!(v.get_element(3), 10);
        });
    }

    #[test]
    fn local_iteration_matches_bounds() {
        execute(RtsConfig::default(), 4, |loc| {
            let v = PVector::from_fn(loc, 21, |i| i);
            let mut count = 0;
            v.for_each_local(|g, val| {
                assert_eq!(g, *val);
                assert!(v.is_local(g));
                count += 1;
            });
            assert_eq!(count, v.local_size());
            assert_eq!(loc.allreduce_sum(count as u64), 21);
        });
    }

    #[test]
    fn mixed_operations_converge_after_commit() {
        execute(RtsConfig::default(), 2, |loc| {
            let v = PVector::from_fn(loc, 8, |i| i as i64);
            // Interleave reads/writes/inserts/deletes from both locations,
            // then commit and verify global invariants (size accounting).
            for k in 0..4 {
                if loc.id() == 0 {
                    v.insert_async(k, 100 + k as i64);
                } else {
                    v.erase_async(7 - k);
                }
                let _ = v.get_element(k); // relaxed-window read must not panic
            }
            v.commit();
            assert_eq!(v.global_size(), 8); // 4 inserts, 4 erases
        });
    }

    #[test]
    fn rebalance_restores_balance_after_skewed_inserts() {
        execute(RtsConfig::default(), 3, |loc| {
            let v = PVector::from_fn(loc, 9, |i| i as i64);
            // Location 0 bloats its own block with 12 extra elements.
            if loc.id() == 0 {
                for k in 0..12 {
                    v.insert_async(0, 100 + k);
                }
            }
            v.commit();
            let before = v.collect_ordered();
            assert_eq!(v.global_size(), 21);
            v.rebalance();
            // Same elements in the same order...
            assert_eq!(v.collect_ordered(), before);
            assert_eq!(v.global_size(), 21);
            // ...but block sizes now differ by at most one.
            let sizes = loc.allgather(v.local_size());
            assert_eq!(sizes.iter().sum::<usize>(), 21);
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1, "{sizes:?}");
            // Index resolution is exact again.
            for (i, x) in before.iter().enumerate() {
                assert_eq!(v.get_element(i), *x);
            }
        });
    }

    #[test]
    fn rebalance_handles_emptied_locations() {
        execute(RtsConfig::default(), 2, |loc| {
            let v = PVector::from_fn(loc, 8, |i| i as u32);
            // Erase location 1's whole block.
            if loc.id() == 0 {
                for _ in 0..4 {
                    v.erase_async(4);
                }
            }
            v.commit();
            assert_eq!(v.global_size(), 4);
            v.rebalance();
            assert_eq!(v.collect_ordered(), vec![0, 1, 2, 3]);
            let sizes = loc.allgather(v.local_size());
            assert_eq!(sizes, vec![2, 2]);
        });
    }

    #[test]
    fn rebalance_of_balanced_vector_is_identity() {
        execute(RtsConfig::default(), 4, |loc| {
            let v = PVector::from_fn(loc, 17, |i| i as u64 * 3);
            let before = v.collect_ordered();
            v.rebalance();
            assert_eq!(v.collect_ordered(), before);
            let _ = loc;
        });
    }

    #[test]
    fn clear_empties() {
        execute(RtsConfig::default(), 2, |loc| {
            let v = PVector::new(loc, 10, 3u8);
            v.clear();
            v.commit();
            assert_eq!(v.global_size(), 0);
            assert_eq!(v.local_size(), 0);
        });
    }

    #[test]
    fn bulk_range_round_trip() {
        execute(RtsConfig::default(), 3, |loc| {
            let v = PVector::from_fn(loc, 20, |i| i as i64);
            assert_eq!(
                v.get_range(Range1d::new(2, 18)),
                (2..18).map(|i| i as i64).collect::<Vec<_>>()
            );
            if loc.id() == 1 {
                v.set_range(4, &(4..15).map(|i| -(i as i64)).collect::<Vec<_>>());
            }
            loc.rmi_fence();
            for i in 0..20 {
                let expect = if (4..15).contains(&i) { -(i as i64) } else { i as i64 };
                assert_eq!(v.get_element(i), expect);
            }
            // Runs: one per owning location, in GID order.
            let runs = v.runs(Range1d::new(0, 20));
            assert_eq!(runs.len(), 3);
            assert!(runs.windows(2).all(|w| w[0].gids.hi == w[1].gids.lo));
        });
    }
}
