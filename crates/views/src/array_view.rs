//! Views over 1-D indexed containers: `array_1d_view` (native alignment
//! built in), `balanced_pview`, `strided_1D_pview` and `overlap_pview`
//! (Table II).

use stapl_core::domain::Range1d;
use stapl_core::gid::Bcid;
use stapl_core::interfaces::RangedContainer;
use stapl_rts::{Counter, Location};

use crate::view::{balanced_chunk, ViewRead, ViewWrite};

/// The panic of a container that refuses the slice of one of its own local
/// pieces: [`RangedContainer::with_slice`] is `None` only for a run stored
/// elsewhere.
const LOCAL: &str = "a local piece must lend its slice";

/// `array_1d_view`: identity-mapped view over a sub-range of an indexed
/// container, with **native** alignment: this location's chunks are the
/// intersection of the view's domain with the container's local pieces,
/// so processing a native view touches only local storage.
#[derive(Clone)]
pub struct ArrayView<C> {
    c: C,
    dom: Range1d,
}

impl<C: RangedContainer> ArrayView<C> {
    /// View over the whole container (the container's native pView).
    pub fn new(c: C) -> Self {
        let dom = Range1d::with_size(c.global_size());
        ArrayView { c, dom }
    }

    /// View over GIDs `[r.lo, r.hi)` of the container.
    pub fn over(c: C, r: Range1d) -> Self {
        assert!(r.hi <= c.global_size());
        ArrayView { c, dom: r }
    }

    /// The mapping function `F`: view index → container GID.
    fn gid_of(&self, k: usize) -> usize {
        debug_assert!(k < self.dom.len());
        self.dom.lo + k
    }

    /// The view indices of the container GIDs `gids`.
    fn view_range(&self, gids: Range1d) -> Range1d {
        Range1d::new(gids.lo - self.dom.lo, gids.hi - self.dom.lo)
    }

    /// This location's chunks as storage runs: the container's
    /// [`RangedContainer::local_pieces`] cut to the view's domain, each a
    /// (BCID, GID range) contiguous both in view indices and in the base
    /// container's storage. Asked of the container on every call, so it
    /// follows every redistribution, rebalance and commit.
    pub fn localize(&self) -> Vec<(Bcid, Range1d)> {
        let mut runs = self.c.local_pieces();
        runs.retain_mut(|(_, gids)| {
            *gids = gids.intersect(&self.dom);
            !gids.is_empty()
        });
        runs
    }
}

impl<C: RangedContainer> ViewRead for ArrayView<C> {
    type Value = C::Value;

    fn len(&self) -> usize {
        self.dom.len()
    }

    fn get(&self, k: usize) -> C::Value {
        self.c.get_element(self.gid_of(k))
    }

    fn location(&self) -> &Location {
        self.c.location()
    }

    fn local_chunks(&self) -> Vec<Range1d> {
        self.localize().into_iter().map(|(_, gids)| self.view_range(gids)).collect()
    }

    fn for_each_chunk(&self, mut f: impl FnMut(usize, &[C::Value])) {
        for (bcid, gids) in self.localize() {
            let lo = self.view_range(gids).lo;
            self.c.with_slice(bcid, gids, |s| f(lo, s)).expect(LOCAL);
            self.location().count(Counter::localized_chunks, 1);
        }
    }
}

impl<C: RangedContainer> ViewWrite for ArrayView<C> {
    fn set(&self, k: usize, v: C::Value) {
        self.c.set_element(self.gid_of(k), v);
    }

    fn apply<F>(&self, k: usize, f: F)
    where
        F: FnOnce(&mut C::Value) + Send + 'static,
    {
        self.c.apply_set(self.gid_of(k), f);
    }

    fn fill_from(&self, mut gen: impl FnMut(Range1d) -> Vec<C::Value>) {
        for (bcid, gids) in self.localize() {
            let view = self.view_range(gids);
            let vals = gen(view);
            debug_assert_eq!(vals.len(), view.len(), "fill_from generator length mismatch");
            self.c.with_slice_mut(bcid, gids, |s| s.clone_from_slice(&vals)).expect(LOCAL);
            self.location().count(Counter::localized_chunks, 1);
        }
    }

    fn apply_chunks<F>(&self, f: F)
    where
        F: Fn(&mut C::Value) + Clone + Send + 'static,
    {
        for (bcid, gids) in self.localize() {
            let walked = self.c.with_slice_mut(bcid, gids, |s| {
                for v in s {
                    f(v);
                }
            });
            walked.expect(LOCAL);
            self.location().count(Counter::localized_chunks, 1);
        }
    }
}

/// `balanced_pview`: same data, but the domain is split into `parts`
/// balanced chunks regardless of the underlying distribution — the
/// load-balancing view of the paper (work balance over locality).
pub struct BalancedView<V: ViewRead> {
    inner: V,
    parts: usize,
}

impl<V: ViewRead> BalancedView<V> {
    /// One chunk per location.
    pub fn new(inner: V) -> Self {
        let parts = inner.location().nlocs();
        BalancedView { inner, parts }
    }

    pub fn with_parts(inner: V, parts: usize) -> Self {
        assert!(parts >= 1);
        BalancedView { inner, parts }
    }
}

impl<V: ViewRead> ViewRead for BalancedView<V> {
    type Value = V::Value;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn get(&self, k: usize) -> V::Value {
        self.inner.get(k)
    }

    fn location(&self) -> &Location {
        self.inner.location()
    }

    fn local_chunks(&self) -> Vec<Range1d> {
        let me = self.location().id();
        let nlocs = self.location().nlocs();
        // Chunks are dealt to locations round-robin.
        (0..self.parts)
            .filter(|p| p % nlocs == me)
            .map(|p| balanced_chunk(self.inner.len(), self.parts, p))
            .filter(|c| !c.is_empty())
            .collect()
    }
}

impl<V: ViewWrite> ViewWrite for BalancedView<V> {
    fn set(&self, k: usize, v: V::Value) {
        self.inner.set(k, v);
    }

    fn apply<F>(&self, k: usize, f: F)
    where
        F: FnOnce(&mut V::Value) + Send + 'static,
    {
        self.inner.apply(k, f);
    }
}

/// `strided_1D_pview`: every `stride`-th element starting at `first`.
pub struct StridedView<V: ViewRead> {
    inner: V,
    first: usize,
    stride: usize,
}

impl<V: ViewRead> StridedView<V> {
    pub fn new(inner: V, first: usize, stride: usize) -> Self {
        assert!(stride >= 1);
        StridedView { inner, first, stride }
    }

    fn map(&self, k: usize) -> usize {
        self.first + k * self.stride
    }
}

impl<V: ViewRead> ViewRead for StridedView<V> {
    type Value = V::Value;

    fn len(&self) -> usize {
        let n = self.inner.len();
        if self.first >= n {
            0
        } else {
            (n - self.first).div_ceil(self.stride)
        }
    }

    fn get(&self, k: usize) -> V::Value {
        self.inner.get(self.map(k))
    }

    fn location(&self) -> &Location {
        self.inner.location()
    }

    fn local_chunks(&self) -> Vec<Range1d> {
        // Strided access breaks contiguity; deal view indices balanced.
        let me = self.location().id();
        let c = balanced_chunk(self.len(), self.location().nlocs(), me);
        if c.is_empty() {
            vec![]
        } else {
            vec![c]
        }
    }
}

impl<V: ViewWrite> ViewWrite for StridedView<V> {
    fn set(&self, k: usize, v: V::Value) {
        self.inner.set(self.map(k), v);
    }

    fn apply<F>(&self, k: usize, f: F)
    where
        F: FnOnce(&mut V::Value) + Send + 'static,
    {
        self.inner.apply(self.map(k), f);
    }
}

/// `overlap_pview` (Fig. 2): element `i` is the window
/// `A[c·i, c·i + l + c + r)`; consecutive windows overlap. The natural
/// view for adjacent-difference and string matching.
pub struct OverlapView<V: ViewRead> {
    inner: V,
    core: usize,
    left: usize,
    right: usize,
}

impl<V: ViewRead> OverlapView<V> {
    pub fn new(inner: V, core: usize, left: usize, right: usize) -> Self {
        assert!(core >= 1);
        OverlapView { inner, core, left, right }
    }

    /// Window width `l + c + r`.
    fn window_len(&self) -> usize {
        self.left + self.core + self.right
    }

    /// Number of windows.
    pub fn num_windows(&self) -> usize {
        let n = self.inner.len();
        let w = self.window_len();
        if n < w {
            0
        } else {
            (n - w) / self.core + 1
        }
    }

    /// Reads window `i` (values are fetched through the underlying view;
    /// remote elements at the seams are what the overlap view is for).
    pub fn window(&self, i: usize) -> Vec<V::Value> {
        let start = self.core * i;
        (start..start + self.window_len()).map(|k| self.inner.get(k)).collect()
    }

    /// Window-index ranges for this location: the windows dealt out in
    /// balanced consecutive ranges, one per location, whatever the inner
    /// view's chunks are.
    pub fn local_windows(&self) -> Vec<Range1d> {
        let me = self.location().id();
        let c = balanced_chunk(self.num_windows(), self.inner.location().nlocs(), me);
        if c.is_empty() {
            vec![]
        } else {
            vec![c]
        }
    }

    pub fn location(&self) -> &Location {
        self.inner.location()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_containers::array::PArray;
    use stapl_containers::vector::PVector;
    use stapl_core::interfaces::{ElementRead, PContainer};
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn array_view_reads_and_writes() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::from_fn(loc, 10, |i| i as i64);
            let v = ArrayView::new(a.clone());
            assert_eq!(v.len(), 10);
            assert_eq!(v.get(7), 7);
            if loc.id() == 0 {
                v.set(7, 70);
            }
            loc.rmi_fence();
            assert_eq!(v.get(7), 70);
        });
    }

    #[test]
    fn native_chunks_are_local_and_cover() {
        execute(RtsConfig::default(), 4, |loc| {
            let a = PArray::from_fn(loc, 21, |i| i);
            let v = ArrayView::new(a.clone());
            let mut count = 0u64;
            for ch in v.local_chunks() {
                for k in ch.iter() {
                    assert!(a.is_local(v.gid_of(k)), "chunk element must be local");
                    count += 1;
                }
            }
            assert_eq!(loc.allreduce_sum(count), 21);
        });
    }

    #[test]
    fn subview_offsets_mapping() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::from_fn(loc, 10, |i| i as i32);
            let v = ArrayView::over(a, Range1d::new(3, 8));
            assert_eq!(v.len(), 5);
            assert_eq!(v.get(0), 3);
            assert_eq!(v.get(4), 7);
            // Chunks cover exactly the subview.
            let covered: u64 =
                loc.allreduce_sum(v.local_chunks().iter().map(|c| c.len() as u64).sum());
            assert_eq!(covered, 5);
        });
    }

    #[test]
    fn balanced_view_chunks_ignore_distribution() {
        execute(RtsConfig::default(), 3, |loc| {
            let a = PArray::from_fn(loc, 10, |i| i);
            let v = BalancedView::with_parts(ArrayView::new(a), 5);
            let mine: usize = v.local_chunks().iter().map(|c| c.len()).sum();
            let total = loc.allreduce_sum(mine as u64);
            assert_eq!(total, 10);
        });
    }

    #[test]
    fn strided_view_selects_every_second() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::from_fn(loc, 10, |i| i as u32);
            let v = StridedView::new(ArrayView::new(a), 0, 2);
            assert_eq!(v.len(), 5);
            let vals: Vec<u32> = (0..5).map(|k| v.get(k)).collect();
            assert_eq!(vals, vec![0, 2, 4, 6, 8]);
            if loc.id() == 1 {
                v.set(1, 99);
            }
            loc.rmi_fence();
            assert_eq!(v.get(1), 99);
        });
    }

    #[test]
    fn overlap_view_matches_fig2() {
        // Fig. 2: A[0,10] (11 elements), c = 2, l = 2, r = 1 → windows
        // A[0,4], A[2,6], A[4,8], A[6,10].
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::from_fn(loc, 11, |i| i);
            let v = OverlapView::new(ArrayView::new(a), 2, 2, 1);
            assert_eq!(v.num_windows(), 4);
            assert_eq!(v.window(0), vec![0, 1, 2, 3, 4]);
            assert_eq!(v.window(1), vec![2, 3, 4, 5, 6]);
            assert_eq!(v.window(3), vec![6, 7, 8, 9, 10]);
            let _ = loc;
        });
    }

    #[test]
    fn localize_follows_redistribution() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::from_fn(loc, 16, |i| i as u64);
            let v = ArrayView::new(a.clone());
            a.redistribute(
                stapl_core::partition::BlockedPartition::new(16, 3),
                stapl_core::mapper::CyclicMapper::new(loc.nlocs()),
            );
            // Every run is stored here under the new placement, and the
            // runs of all locations cover the array exactly once.
            let runs = v.localize();
            for &(bcid, gids) in &runs {
                for g in gids.iter() {
                    assert_eq!(a.locate_element(g), (bcid, loc.id()));
                }
            }
            let covered: u64 = loc.allreduce_sum(runs.iter().map(|(_, g)| g.len() as u64).sum());
            assert_eq!(covered, 16);
            let mut seen = 0;
            v.for_each_chunk(|lo, s| {
                for (k, val) in s.iter().enumerate() {
                    assert_eq!(*val, (lo + k) as u64);
                    seen += 1;
                }
            });
            assert_eq!(loc.allreduce_sum(seen), 16);
        });
    }

    #[test]
    fn pvector_chunks_tile_the_view_before_commit() {
        execute(RtsConfig::default(), 2, |loc| {
            let v = PVector::from_fn(loc, 8, |i| i as u64);
            // An insert waits at location 0 for the commit: the committed
            // blocks stay 4 and 4, and each lends its slice.
            if loc.id() == 0 {
                v.insert_async(0, 100);
            }
            loc.rmi_fence();
            let view = ArrayView::new(v.array().clone());
            let mut hits = [0u64; 8];
            for chunks in loc.allgather(view.local_chunks()) {
                for k in chunks.iter().flat_map(|c| c.iter()) {
                    hits[k] += 1;
                }
            }
            assert_eq!(hits, [1; 8], "chunks must tile 0..8 exactly once");
            let mut seen = Vec::new();
            view.for_each_chunk(|_, s| seen.push(s.to_vec()));
            let lo = 4 * loc.id() as u64;
            assert_eq!(seen, [(lo..lo + 4).collect::<Vec<_>>()], "the committed block, one slice");
        });
    }

    #[test]
    fn pvector_view_follows_commit_and_rebalance() {
        execute(RtsConfig::default(), 3, |loc| {
            let v = PVector::from_fn(loc, 12, |i| i as i64);
            let view = ArrayView::new(v.array().clone());
            // Location 0 grows by four, location 2 empties: the size holds.
            if loc.id() == 0 {
                for k in 0..4 {
                    v.insert_async(0, 100 + k);
                }
            }
            if loc.id() == 2 {
                for _ in 0..4 {
                    v.erase_async(8);
                }
            }
            v.commit();
            v.rebalance();
            let before = loc.local_stats();
            let mut vals = Vec::new();
            view.for_each_chunk(|lo, s| vals.extend(s.iter().enumerate().map(|(k, x)| (lo + k, *x))));
            let after = loc.local_stats().since(&before);
            let chunks = view.local_chunks().len() as u64;
            assert!(chunks > 0);
            assert_eq!(after.localized_chunks, chunks, "every chunk is a slice borrow");
            assert_eq!(after.bulk_requests, 0);
            let mut all = loc.allreduce(vals, |mut a, mut b| {
                a.append(&mut b);
                a
            });
            all.sort_unstable();
            let expect = [103, 102, 101, 100, 0, 1, 2, 3, 4, 5, 6, 7];
            assert_eq!(all, expect.iter().copied().enumerate().collect::<Vec<_>>());
        });
    }

    #[test]
    fn for_each_chunk_sees_local_slices() {
        execute(RtsConfig::unbuffered(), 4, |loc| {
            let a = PArray::from_fn(loc, 37, |i| i as i64);
            let v = ArrayView::new(a.clone());
            let before = loc.stats();
            let mut seen = Vec::new();
            v.for_each_chunk(|lo, s| {
                for (k, val) in s.iter().enumerate() {
                    assert_eq!(*val, (lo + k) as i64);
                    seen.push(lo + k);
                }
            });
            let after = loc.stats();
            assert_eq!(seen.len(), a.local_size());
            assert_eq!(
                after.remote_requests, before.remote_requests,
                "native chunk iteration must be communication-free"
            );
            assert!(after.localized_chunks > before.localized_chunks);
            assert_eq!(after.element_fallbacks, before.element_fallbacks);
            let total = loc.allreduce_sum(seen.len() as u64);
            assert_eq!(total, 37);
        });
    }

    #[test]
    fn fill_from_and_apply_chunks_localized() {
        execute(RtsConfig::default(), 3, |loc| {
            let a = PArray::new(loc, 20, 0i64);
            let v = ArrayView::new(a.clone());
            v.fill_from(|r| r.iter().map(|k| k as i64 * 2).collect());
            loc.barrier();
            for i in 0..20 {
                assert_eq!(a.get_element(i), i as i64 * 2);
            }
            // Phase separation: no location may start mutating while a
            // peer is still reading.
            loc.barrier();
            v.apply_chunks(|x| *x += 1);
            loc.barrier();
            for i in 0..20 {
                assert_eq!(a.get_element(i), i as i64 * 2 + 1);
            }
        });
    }

    #[test]
    fn subview_chunks_localize_too() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::from_fn(loc, 12, |i| i as u32);
            let v = ArrayView::over(a, Range1d::new(3, 11));
            let mut collected: Vec<(usize, u32)> = Vec::new();
            v.for_each_chunk(|lo, s| {
                for (k, val) in s.iter().enumerate() {
                    collected.push((lo + k, *val));
                }
            });
            for (k, val) in collected {
                assert_eq!(val, (k + 3) as u32);
            }
            let covered: u64 =
                loc.allreduce_sum(v.local_chunks().iter().map(|c| c.len() as u64).sum());
            assert_eq!(covered, 8);
        });
    }
}
