//! pMatrix: a static, two-dimensional indexed pContainer (the paper's
//! MTL-backed matrix, Section V.F), with row-blocked, column-blocked and
//! 2-D tiled partitions.
//!
//! GIDs are `(row, col)` pairs over the row-major ordered 2-D domain.
//! Row/column/linear views live in `stapl-views`.

use stapl_core::bcontainer::{BaseContainer, MemSize};
use stapl_core::domain::{Range1d, Range2d};
use stapl_core::gid::Bcid;
use stapl_core::interfaces::{ElementRead, ElementWrite, LocalIteration, PContainer};
use stapl_core::location_manager::LocationManager;
use stapl_core::mapper::{CyclicMapper, PartitionMapper};
use stapl_core::partition::{MatrixLayout, MatrixPartition};
use stapl_core::pobject::PObject;
use stapl_rts::{LocId, Location, RmiFuture};

/// A pending piece of a bulk row read: a local (bcid, cols) segment or
/// an in-flight remote fetch.
type RowPart<T> = Result<(Bcid, Range1d), RmiFuture<Vec<T>>>;

/// Dense row-major block of a matrix.
pub struct MatrixBc<T> {
    block: Range2d,
    data: Vec<T>,
}

impl<T: Clone> MatrixBc<T> {
    fn new(block: Range2d, init: &T) -> Self {
        MatrixBc { block, data: vec![init.clone(); block.nrows() * block.ncols()] }
    }

    fn offset(&self, g: (usize, usize)) -> usize {
        self.block.offset(&g)
    }

    fn get(&self, g: (usize, usize)) -> &T {
        &self.data[self.offset(g)]
    }

    fn get_mut(&mut self, g: (usize, usize)) -> &mut T {
        let off = self.offset(g);
        &mut self.data[off]
    }

    /// The storage slice backing columns `cols` of row `r` (row-major
    /// blocks make any within-block row segment contiguous).
    fn row_slice(&self, r: usize, cols: Range1d) -> &[T] {
        let lo = self.offset((r, cols.lo));
        &self.data[lo..lo + cols.len()]
    }

    fn row_slice_mut(&mut self, r: usize, cols: Range1d) -> &mut [T] {
        let lo = self.offset((r, cols.lo));
        &mut self.data[lo..lo + cols.len()]
    }
}

impl<T: 'static> BaseContainer for MatrixBc<T> {
    type Value = T;

    fn len(&self) -> usize {
        self.data.len()
    }

    fn clear(&mut self) {
        self.data.clear();
    }

    fn memory_size(&self) -> MemSize {
        MemSize::new(
            std::mem::size_of::<Range2d>() + std::mem::size_of::<Vec<T>>(),
            self.data.capacity() * std::mem::size_of::<T>(),
        )
    }
}

/// Per-location representative.
pub struct MatrixRep<T> {
    lm: LocationManager<MatrixBc<T>>,
    partition: MatrixPartition,
    nlocs: usize,
}

impl<T: Send + Clone + 'static> MatrixRep<T> {
    fn owner(&self, bcid: Bcid) -> LocId {
        bcid % self.nlocs
    }

    fn get_local(&self, bcid: Bcid, g: (usize, usize)) -> T {
        self.lm.get(bcid).expect("pMatrix: block not local").get(g).clone()
    }

    fn set_local(&mut self, bcid: Bcid, g: (usize, usize), v: T) {
        *self.lm.get_mut(bcid).expect("pMatrix: block not local").get_mut(g) = v;
    }

    fn apply_local<R>(&mut self, bcid: Bcid, g: (usize, usize), f: impl FnOnce(&mut T) -> R) -> R {
        f(self.lm.get_mut(bcid).expect("pMatrix: block not local").get_mut(g))
    }

    /// Bulk read of one within-block row segment (one borrow).
    fn row_segment_local(&self, bcid: Bcid, r: usize, cols: Range1d) -> Vec<T> {
        self.lm.get(bcid).expect("pMatrix: block not local").row_slice(r, cols).to_vec()
    }

    /// Bulk write of one within-block row segment.
    fn set_row_segment_local(&mut self, bcid: Bcid, r: usize, cols: Range1d, vals: &[T]) {
        self.lm
            .get_mut(bcid)
            .expect("pMatrix: block not local")
            .row_slice_mut(r, cols)
            .clone_from_slice(vals);
    }
}

/// The STAPL pMatrix.
pub struct PMatrix<T: Send + Clone + 'static> {
    obj: PObject<MatrixRep<T>>,
}

impl<T: Send + Clone + 'static> Clone for PMatrix<T> {
    fn clone(&self) -> Self {
        PMatrix { obj: self.obj.clone() }
    }
}

impl<T: Send + Clone + 'static> PMatrix<T> {
    /// **Collective.** `nrows × ncols` matrix of `init`, row-blocked with
    /// one stripe per location (the default scientific layout).
    pub fn new(loc: &Location, nrows: usize, ncols: usize, init: T) -> Self {
        Self::with_layout(loc, nrows, ncols, MatrixLayout::RowBlocked, init)
    }

    /// **Collective.** Choose the decomposition: row stripes, column
    /// stripes, or a 2-D tile grid.
    pub fn with_layout(
        loc: &Location,
        nrows: usize,
        ncols: usize,
        layout: MatrixLayout,
        init: T,
    ) -> Self {
        let nparts = match layout {
            MatrixLayout::Blocked2d { grid_rows, grid_cols } => grid_rows * grid_cols,
            _ => loc.nlocs(),
        };
        let partition = MatrixPartition::new(nrows, ncols, layout, nparts);
        let mapper = PartitionMapper::from(CyclicMapper::new(loc.nlocs()));
        let mut lm = LocationManager::new();
        for bcid in mapper.local_bcids(loc.id(), nparts) {
            lm.add_bcontainer(bcid, MatrixBc::new(partition.block(bcid), &init));
        }
        let rep = MatrixRep { lm, partition, nlocs: loc.nlocs() };
        let obj = PObject::register(loc, rep);
        loc.barrier();
        PMatrix { obj }
    }

    /// **Collective.** Fills with `f(row, col)`, locally.
    pub fn from_fn(
        loc: &Location,
        nrows: usize,
        ncols: usize,
        layout: MatrixLayout,
        f: impl Fn(usize, usize) -> T,
    ) -> Self
    where
        T: Default,
    {
        let m = Self::with_layout(loc, nrows, ncols, layout, T::default());
        {
            let mut rep = m.obj.local_mut();
            for (_, bc) in rep.lm.iter_mut() {
                let block = bc.block;
                for r in block.rows.iter() {
                    for c in block.cols.iter() {
                        *bc.get_mut((r, c)) = f(r, c);
                    }
                }
            }
        }
        loc.barrier();
        m
    }

    pub fn nrows(&self) -> usize {
        self.obj.local().partition.nrows
    }

    pub fn ncols(&self) -> usize {
        self.obj.local().partition.ncols
    }

    fn locate(&self, g: (usize, usize)) -> (Bcid, LocId) {
        let rep = self.obj.local();
        assert!(
            g.0 < rep.partition.nrows && g.1 < rep.partition.ncols,
            "pMatrix index {g:?} out of bounds ({}, {})",
            rep.partition.nrows,
            rep.partition.ncols
        );
        let b = rep.partition.find(g);
        (b, rep.owner(b))
    }

    /// (BCID, block) pairs owned by this location.
    pub fn local_blocks(&self) -> Vec<(Bcid, Range2d)> {
        let rep = self.obj.local();
        rep.lm.iter().map(|(bcid, bc)| (bcid, bc.block)).collect()
    }

    /// Copies row `r` when the *entire* row is stored locally (row-blocked
    /// layouts); `None` otherwise. O(ncols).
    pub fn local_row(&self, r: usize) -> Option<Vec<T>> {
        let rep = self.obj.local();
        for (_, bc) in rep.lm.iter() {
            if bc.block.rows.contains(&r) && bc.block.ncols() == rep.partition.ncols {
                let lo = bc.offset((r, bc.block.cols.lo));
                return Some(bc.data[lo..lo + bc.block.ncols()].to_vec());
            }
        }
        None
    }

    /// The partition, for views that align with the layout.
    pub fn partition(&self) -> MatrixPartition {
        self.obj.local().partition
    }

    /// Decomposes columns `cols` of row `r` into per-block runs
    /// `(bcid, owner, cols)` — the bulk-transport units of a matrix row
    /// (one run for row/column stripes, one per tile column for 2-D
    /// grids). O(runs), replicated metadata only.
    pub fn row_runs(&self, r: usize, cols: Range1d) -> Vec<(Bcid, LocId, Range1d)> {
        let rep = self.obj.local();
        assert!(
            r < rep.partition.nrows && cols.hi <= rep.partition.ncols,
            "pMatrix row segment ({r}, {cols:?}) out of bounds ({}, {})",
            rep.partition.nrows,
            rep.partition.ncols
        );
        let mut out = Vec::new();
        let mut c = cols.lo;
        while c < cols.hi {
            let bcid = rep.partition.find((r, c));
            let block = rep.partition.block(bcid);
            let hi = block.cols.hi.min(cols.hi);
            out.push((bcid, rep.owner(bcid), Range1d::new(c, hi)));
            c = hi;
        }
        out
    }

    /// Bulk read of columns `cols` of row `r`: one RMI per remote block
    /// run, a direct slice borrow per local run — the matrix counterpart
    /// of `RangedContainer::get_range`.
    pub fn get_row_range(&self, r: usize, cols: Range1d) -> Vec<T> {
        let loc = self.obj.location().clone();
        let me = loc.id();
        // Launch all remote fetches before awaiting any reply.
        let parts: Vec<RowPart<T>> = self
            .row_runs(r, cols)
            .into_iter()
            .map(|(bcid, owner, run)| {
                if owner == me {
                    Ok((bcid, run))
                } else {
                    loc.note_bulk_request(run.len() as u64);
                    Err(self.obj.invoke_split_at(owner, move |cell, _| {
                        cell.borrow().row_segment_local(bcid, r, run)
                    }))
                }
            })
            .collect();
        let mut out = Vec::with_capacity(cols.len());
        for part in parts {
            match part {
                Ok((bcid, run)) => {
                    loc.note_localized_chunk();
                    out.extend(self.obj.local().row_segment_local(bcid, r, run));
                }
                Err(fut) => out.extend(fut.get()),
            }
        }
        out
    }

    /// Bulk write of `vals` to columns `col_lo..col_lo + vals.len()` of
    /// row `r` (asynchronous; one RMI per remote block run).
    pub fn set_row_range(&self, r: usize, col_lo: usize, vals: Vec<T>) {
        let loc = self.obj.location().clone();
        let me = loc.id();
        for (bcid, owner, run) in self.row_runs(r, Range1d::new(col_lo, col_lo + vals.len())) {
            let chunk = &vals[run.lo - col_lo..run.hi - col_lo];
            if owner == me {
                // Local fast path: straight from the borrowed slice.
                loc.note_localized_chunk();
                self.obj.local_mut().set_row_segment_local(bcid, r, run, chunk);
            } else {
                loc.note_bulk_request(run.len() as u64);
                let owned = chunk.to_vec();
                self.obj.invoke_at(owner, move |cell, _| {
                    cell.borrow_mut().set_row_segment_local(bcid, r, run, &owned);
                });
            }
        }
    }

    /// Direct borrow of the local storage backing columns `cols` of row
    /// `r`, when one local block covers the whole segment; `None`
    /// otherwise (callers fall back to [`PMatrix::get_row_range`]).
    pub fn with_row_slice<R>(
        &self,
        r: usize,
        cols: Range1d,
        f: impl FnOnce(&[T]) -> R,
    ) -> Option<R> {
        if cols.is_empty() {
            return Some(f(&[]));
        }
        let rep = self.obj.local();
        // O(1): resolve the owning block by partition lookup, then check
        // it is local and covers the whole segment.
        let bcid = rep.partition.find((r, cols.lo));
        let bc = rep.lm.get(bcid)?;
        if cols.hi > bc.block.cols.hi {
            return None;
        }
        Some(f(bc.row_slice(r, cols)))
    }

    /// Mutable counterpart of [`PMatrix::with_row_slice`].
    pub fn with_row_slice_mut<R>(
        &self,
        r: usize,
        cols: Range1d,
        f: impl FnOnce(&mut [T]) -> R,
    ) -> Option<R> {
        if cols.is_empty() {
            return Some(f(&mut []));
        }
        let mut rep = self.obj.local_mut();
        let bcid = rep.partition.find((r, cols.lo));
        let bc = rep.lm.get_mut(bcid)?;
        if cols.hi > bc.block.cols.hi {
            return None;
        }
        Some(f(bc.row_slice_mut(r, cols)))
    }
}

impl<T: Send + Clone + 'static> PContainer for PMatrix<T> {
    fn location(&self) -> &Location {
        self.obj.location()
    }

    fn global_size(&self) -> usize {
        let rep = self.obj.local();
        rep.partition.nrows * rep.partition.ncols
    }

    fn local_size(&self) -> usize {
        self.obj.local().lm.local_len()
    }

    fn memory_size(&self) -> MemSize {
        let local = self.obj.local().lm.memory_size();
        self.obj.location().allreduce(local, |a, b| a + b)
    }
}

impl<T: Send + Clone + 'static> ElementRead<(usize, usize)> for PMatrix<T> {
    type Value = T;

    fn get_element(&self, g: (usize, usize)) -> T {
        let (bcid, owner) = self.locate(g);
        if owner == self.obj.location().id() {
            self.obj.local().get_local(bcid, g)
        } else {
            self.obj.invoke_ret_at(owner, move |cell, _| cell.borrow().get_local(bcid, g))
        }
    }

    fn split_get_element(&self, g: (usize, usize)) -> RmiFuture<T> {
        let (bcid, owner) = self.locate(g);
        self.obj.invoke_split_at(owner, move |cell, _| cell.borrow().get_local(bcid, g))
    }

    fn is_local(&self, g: (usize, usize)) -> bool {
        self.locate(g).1 == self.obj.location().id()
    }
}

impl<T: Send + Clone + 'static> ElementWrite<(usize, usize)> for PMatrix<T> {
    fn set_element(&self, g: (usize, usize), v: T) {
        let (bcid, owner) = self.locate(g);
        if owner == self.obj.location().id() {
            self.obj.local_mut().set_local(bcid, g, v);
        } else {
            self.obj.invoke_at(owner, move |cell, _| cell.borrow_mut().set_local(bcid, g, v));
        }
    }

    fn apply_set<F>(&self, g: (usize, usize), f: F)
    where
        F: FnOnce(&mut T) + Send + 'static,
    {
        let (bcid, owner) = self.locate(g);
        self.obj.invoke_at(owner, move |cell, _| {
            cell.borrow_mut().apply_local(bcid, g, f);
        });
    }

    fn apply_get<R, F>(&self, g: (usize, usize), f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        let (bcid, owner) = self.locate(g);
        self.obj.invoke_ret_at(owner, move |cell, _| cell.borrow_mut().apply_local(bcid, g, f))
    }
}

impl<T: Send + Clone + 'static> LocalIteration<(usize, usize)> for PMatrix<T> {
    fn for_each_local(&self, mut f: impl FnMut((usize, usize), &T)) {
        let rep = self.obj.local();
        for (_, bc) in rep.lm.iter() {
            for r in bc.block.rows.iter() {
                for c in bc.block.cols.iter() {
                    f((r, c), bc.get((r, c)));
                }
            }
        }
    }

    fn for_each_local_mut(&self, mut f: impl FnMut((usize, usize), &mut T)) {
        let mut rep = self.obj.local_mut();
        for (_, bc) in rep.lm.iter_mut() {
            let block = bc.block;
            for r in block.rows.iter() {
                for c in block.cols.iter() {
                    f((r, c), bc.get_mut((r, c)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn construct_and_access() {
        execute(RtsConfig::default(), 2, |loc| {
            let m = PMatrix::new(loc, 4, 3, 0i32);
            assert_eq!(m.global_size(), 12);
            assert_eq!((m.nrows(), m.ncols()), (4, 3));
            if loc.id() == 0 {
                m.set_element((3, 2), 42);
            }
            loc.rmi_fence();
            assert_eq!(m.get_element((3, 2)), 42);
            assert_eq!(m.get_element((0, 0)), 0);
        });
    }

    #[test]
    fn row_blocked_locality() {
        execute(RtsConfig::default(), 2, |loc| {
            let m = PMatrix::new(loc, 4, 4, 0u8);
            // Rows 0-1 on loc 0, rows 2-3 on loc 1.
            assert_eq!(m.is_local((0, 3)), loc.id() == 0);
            assert_eq!(m.is_local((3, 0)), loc.id() == 1);
            let blocks = m.local_blocks();
            assert_eq!(blocks.len(), 1);
            assert_eq!(blocks[0].1.nrows(), 2);
            assert_eq!(blocks[0].1.ncols(), 4);
        });
    }

    #[test]
    fn column_blocked_and_tiled() {
        execute(RtsConfig::default(), 2, |loc| {
            let mc = PMatrix::with_layout(loc, 4, 4, MatrixLayout::ColumnBlocked, 0u8);
            assert_eq!(mc.is_local((3, 0)), loc.id() == 0);
            assert_eq!(mc.is_local((0, 3)), loc.id() == 1);

            let mt = PMatrix::with_layout(
                loc,
                4,
                4,
                MatrixLayout::Blocked2d { grid_rows: 2, grid_cols: 2 },
                0u8,
            );
            // 4 tiles cyclic over 2 locations: tiles 0,2 -> loc0; 1,3 -> loc1.
            assert_eq!(mt.is_local((0, 0)), loc.id() == 0);
            assert_eq!(mt.is_local((0, 3)), loc.id() == 1);
            assert_eq!(mt.is_local((3, 0)), loc.id() == 0);
            assert_eq!(mt.is_local((3, 3)), loc.id() == 1);
        });
    }

    #[test]
    fn from_fn_and_local_iteration() {
        execute(RtsConfig::default(), 2, |loc| {
            let m = PMatrix::from_fn(loc, 6, 5, MatrixLayout::RowBlocked, |r, c| r * 10 + c);
            let mut count = 0;
            m.for_each_local(|(r, c), v| {
                assert_eq!(*v, r * 10 + c);
                count += 1;
            });
            assert_eq!(count, m.local_size());
            assert_eq!(loc.allreduce_sum(count as u64), 30);
            assert_eq!(m.get_element((5, 4)), 54);
        });
    }

    #[test]
    fn apply_and_split_phase() {
        execute(RtsConfig::default(), 2, |loc| {
            let m = PMatrix::new(loc, 2, 2, 1u64);
            if loc.id() == 1 {
                m.apply_set((0, 0), |v| *v += 10);
                let doubled = m.apply_get((1, 1), |v| {
                    *v *= 2;
                    *v
                });
                assert_eq!(doubled, 2);
            }
            loc.rmi_fence();
            let f = m.split_get_element((0, 0));
            assert_eq!(f.get(), 11);
        });
    }

    #[test]
    fn for_each_local_mut_transposes_values() {
        execute(RtsConfig::default(), 2, |loc| {
            let m = PMatrix::from_fn(loc, 4, 4, MatrixLayout::RowBlocked, |r, c| (r, c));
            m.for_each_local_mut(|_, v| *v = (v.1, v.0));
            loc.barrier();
            assert_eq!(m.get_element((2, 3)), (3, 2));
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        execute(RtsConfig::default(), 1, |loc| {
            let m = PMatrix::new(loc, 2, 2, 0u8);
            m.get_element((2, 0));
        });
    }

    #[test]
    fn row_range_bulk_round_trip_across_layouts() {
        for layout in [
            MatrixLayout::RowBlocked,
            MatrixLayout::ColumnBlocked,
            MatrixLayout::Blocked2d { grid_rows: 2, grid_cols: 2 },
        ] {
            execute(RtsConfig::default(), 2, move |loc| {
                let m = PMatrix::from_fn(loc, 6, 8, layout, |r, c| (r * 8 + c) as i64);
                // Bulk read of a partial row crossing block boundaries.
                let seg = m.get_row_range(3, Range1d::new(1, 7));
                assert_eq!(seg, (1..7).map(|c| (3 * 8 + c) as i64).collect::<Vec<_>>());
                loc.barrier();
                if loc.id() == 0 {
                    m.set_row_range(4, 2, vec![-1, -2, -3, -4]);
                }
                loc.rmi_fence();
                for c in 0..8 {
                    let expect =
                        if (2..6).contains(&c) { -((c - 1) as i64) } else { (4 * 8 + c) as i64 };
                    assert_eq!(m.get_element((4, c)), expect, "layout {layout:?} col {c}");
                }
            });
        }
    }

    #[test]
    fn row_runs_issue_one_bulk_request_per_remote_block() {
        execute(RtsConfig::unbuffered(), 2, |loc| {
            let m = PMatrix::from_fn(loc, 4, 64, MatrixLayout::ColumnBlocked, |r, c| r * 64 + c);
            loc.rmi_fence();
            if loc.id() == 0 {
                let before = loc.stats();
                let row = m.get_row_range(1, Range1d::new(0, 64));
                assert_eq!(row.len(), 64);
                let after = loc.stats();
                // Two column blocks: one local slice, one remote bulk RMI.
                assert_eq!(after.bulk_requests - before.bulk_requests, 1);
                assert!(after.localized_chunks > before.localized_chunks);
                assert!(
                    after.remote_requests - before.remote_requests <= 2,
                    "whole-row read must not pay per-element traffic"
                );
            }
            loc.barrier();
        });
    }

    #[test]
    fn with_row_slice_requires_single_local_block() {
        execute(RtsConfig::default(), 2, |loc| {
            let m = PMatrix::from_fn(loc, 4, 6, MatrixLayout::RowBlocked, |r, c| r * 6 + c);
            let local_row = if loc.id() == 0 { 0 } else { 2 };
            let sum = m.with_row_slice(local_row, Range1d::new(0, 6), |s| s.iter().sum::<usize>());
            assert_eq!(sum, Some((0..6).map(|c| local_row * 6 + c).sum()));
            let remote_row = if loc.id() == 0 { 3 } else { 1 };
            assert!(m.with_row_slice(remote_row, Range1d::new(0, 6), |_| ()).is_none());
        });
    }
}
