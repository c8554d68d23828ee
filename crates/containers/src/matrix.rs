//! pMatrix: a static, two-dimensional indexed pContainer (the paper's
//! MTL-backed matrix, Section V.F), with row-blocked, column-blocked and
//! 2-D tiled partitions.
//!
//! GIDs are `(row, col)` pairs. The storage is a pArray over the row-major
//! linearization `r * ncols + c`, partitioned by the matrix's blocks
//! ([`IndexPartition::Matrix`](stapl_core::partition::IndexPartition)): a
//! 2-D method checks its index and runs pArray's method on the linear GID.
//! [`PMatrix::linear`] is that pArray — the paper's "same pMatrix viewed
//! as a vector"; the row view lives in `stapl-views`.

use stapl_core::bcontainer::MemSize;
use stapl_core::domain::Range1d;
use stapl_core::interfaces::{ElementRead, ElementWrite, LocalIteration, PContainer, RangedContainer};
use stapl_core::mapper::CyclicMapper;
use stapl_core::partition::{MatrixLayout, MatrixPartition};
use stapl_rts::{Location, RmiFuture};

use crate::array::PArray;

/// The STAPL pMatrix.
pub struct PMatrix<T: Send + Clone + 'static> {
    a: PArray<T>,
    partition: MatrixPartition,
}

impl<T: Send + Clone + 'static> Clone for PMatrix<T> {
    fn clone(&self) -> Self {
        PMatrix { a: self.a.clone(), partition: self.partition }
    }
}

impl<T: Send + Clone + 'static> PMatrix<T> {
    /// **Collective.** `nrows × ncols` matrix of `init`, row-blocked with
    /// one stripe per location (the default scientific layout).
    pub fn new(loc: &Location, nrows: usize, ncols: usize, init: T) -> Self {
        Self::with_layout(loc, nrows, ncols, MatrixLayout::RowBlocked, init)
    }

    /// **Collective.** Choose the decomposition: row stripes, column
    /// stripes, or a 2-D tile grid; blocks are placed cyclically.
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
        let a = PArray::with_partition(loc, partition, CyclicMapper::new(loc.nlocs()), init);
        PMatrix { a, partition }
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
        m.a.for_each_local_mut(|g, v| *v = f(g / ncols, g % ncols));
        loc.barrier();
        m
    }

    pub fn nrows(&self) -> usize {
        self.partition.nrows
    }

    pub fn ncols(&self) -> usize {
        self.partition.ncols
    }

    /// The partition the matrix was built with, for views that align with
    /// the layout.
    pub fn partition(&self) -> MatrixPartition {
        self.partition
    }

    /// The matrix as the pArray of its row-major linearization.
    pub fn linear(&self) -> &PArray<T> {
        &self.a
    }

    /// The linear GID of `(r, c)`, after the 2-D bounds check: a column
    /// past the end would otherwise name an element of the next row.
    #[inline]
    fn gid(&self, (r, c): (usize, usize)) -> usize {
        let (nrows, ncols) = (self.partition.nrows, self.partition.ncols);
        assert!(r < nrows && c < ncols, "pMatrix index {:?} out of bounds ({nrows}, {ncols})", (r, c));
        r * ncols + c
    }

    /// The linear GIDs of columns `cols` of row `r`.
    fn row_gids(&self, r: usize, cols: Range1d) -> Range1d {
        let (nrows, ncols) = (self.partition.nrows, self.partition.ncols);
        assert!(
            r < nrows && cols.hi <= ncols,
            "pMatrix row segment ({r}, {cols:?}) out of bounds ({nrows}, {ncols})"
        );
        Range1d::new(r * ncols + cols.lo, r * ncols + cols.hi)
    }

    /// Copies row `r` when one local bContainer stores the whole row
    /// (row-blocked layouts); `None` otherwise. Counts nothing.
    pub fn local_row(&self, r: usize) -> Option<Vec<T>> {
        match self.a.runs(self.row_gids(r, Range1d::with_size(self.ncols())))[..] {
            [run] => self.a.with_slice(run.bcid, run.gids, <[T]>::to_vec),
            _ => None,
        }
    }

    /// Bulk read of columns `cols` of row `r`: pArray's `get_range` of the
    /// row's linear range — a slice per local run, one RMI per remote one.
    pub fn get_row_range(&self, r: usize, cols: Range1d) -> Vec<T> {
        self.a.get_range(self.row_gids(r, cols))
    }
}

impl<T: Send + Clone + 'static> PContainer for PMatrix<T> {
    fn location(&self) -> &Location {
        self.a.location()
    }

    fn global_size(&self) -> usize {
        self.a.global_size()
    }

    fn local_size(&self) -> usize {
        self.a.local_size()
    }

    fn memory_size(&self) -> MemSize {
        self.a.memory_size()
    }
}

impl<T: Send + Clone + 'static> ElementRead<(usize, usize)> for PMatrix<T> {
    type Value = T;

    fn get_element(&self, g: (usize, usize)) -> T {
        self.a.get_element(self.gid(g))
    }

    fn split_get_element(&self, g: (usize, usize)) -> RmiFuture<T> {
        self.a.split_get_element(self.gid(g))
    }

    fn is_local(&self, g: (usize, usize)) -> bool {
        self.a.is_local(self.gid(g))
    }
}

impl<T: Send + Clone + 'static> ElementWrite<(usize, usize)> for PMatrix<T> {
    fn set_element(&self, g: (usize, usize), v: T) {
        self.a.set_element(self.gid(g), v);
    }

    fn apply_set<F>(&self, g: (usize, usize), f: F)
    where
        F: FnOnce(&mut T) + Send + 'static,
    {
        self.a.apply_set(self.gid(g), f);
    }

    fn apply_get<R, F>(&self, g: (usize, usize), f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        self.a.apply_get(self.gid(g), f)
    }
}

impl<T: Send + Clone + 'static> LocalIteration<(usize, usize)> for PMatrix<T> {
    fn for_each_local(&self, mut f: impl FnMut((usize, usize), &T)) {
        let n = self.ncols();
        self.a.for_each_local(|g, v| f((g / n, g % n), v));
    }

    fn for_each_local_mut(&self, mut f: impl FnMut((usize, usize), &mut T)) {
        let n = self.ncols();
        self.a.for_each_local_mut(|g, v| f((g / n, g % n), v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_rts::{execute, RtsConfig, StatsSnapshot};

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
            // Rows 0-1 on loc 0, rows 2-3 on loc 1: one contiguous stripe each.
            assert_eq!(m.is_local((0, 3)), loc.id() == 0);
            assert_eq!(m.is_local((3, 0)), loc.id() == 1);
            let stripe = Range1d::new(loc.id() * 8, loc.id() * 8 + 8);
            assert_eq!(m.linear().local_pieces(), vec![(loc.id(), stripe)]);
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
    #[should_panic(expected = "out of bounds")]
    fn column_past_the_end_panics() {
        // Linear index 2 is in range: without the 2-D check, (0, 2) would
        // alias (1, 0).
        execute(RtsConfig::default(), 1, |loc| {
            let m = PMatrix::new(loc, 2, 2, 0u8);
            m.get_element((0, 2));
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
                    m.linear().set_range(4 * 8 + 2, &[-1, -2, -3, -4]);
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
    fn row_range_issues_one_bulk_request_per_remote_block() {
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
    fn local_row_requires_the_whole_row_here() {
        for layout in [MatrixLayout::RowBlocked, MatrixLayout::ColumnBlocked] {
            execute(RtsConfig::unbuffered(), 2, move |loc| {
                let m = PMatrix::from_fn(loc, 4, 6, layout, |r, c| r * 6 + c);
                let before = loc.local_stats();
                let (mine, theirs) = if loc.id() == 0 { (0, 3) } else { (2, 1) };
                let row = m.local_row(mine);
                assert_eq!(row.is_some(), layout == MatrixLayout::RowBlocked);
                if let Some(row) = row {
                    assert_eq!(row, (0..6).map(|c| mine * 6 + c).collect::<Vec<_>>());
                }
                assert!(m.local_row(theirs).is_none());
                assert_eq!(loc.local_stats().since(&before), StatsSnapshot::default(), "local_row counts nothing");
            });
        }
    }
}
