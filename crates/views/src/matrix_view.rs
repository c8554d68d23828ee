//! Matrix views (Table II's `matrix_pview` and the row/linearized views
//! of Chapter III.A): the same pMatrix used as a collection of rows or as
//! a flat 1-D sequence. The flat sequence is the pArray the matrix stores,
//! so its view is `ArrayView::new(m.linear().clone())`.

use stapl_containers::matrix::PMatrix;
use stapl_core::domain::Range1d;
use stapl_core::interfaces::{PContainer, RangedContainer};
use stapl_core::partition::MatrixLayout;

use crate::view::balanced_chunk;

/// The matrix as a collection of rows: supplies each location the row
/// indices it should process (all-local rows for row-blocked layouts —
/// the alignment Fig. 62's pMatrix row-min exploits).
pub struct RowsView<T: Send + Clone + 'static> {
    m: PMatrix<T>,
}

impl<T: Send + Clone + 'static> RowsView<T> {
    pub fn new(m: PMatrix<T>) -> Self {
        RowsView { m }
    }

    /// Row indices this location processes. A row-blocked matrix gives
    /// each row to the location that stores its first element, which
    /// covers every row once also after `linear()` was redistributed.
    pub fn local_rows(&self) -> Vec<Range1d> {
        match self.m.partition().layout {
            MatrixLayout::RowBlocked => {
                let n = self.m.ncols();
                let pieces = self.m.linear().local_pieces().into_iter();
                let rows = pieces.map(|(_, g)| Range1d::new(g.lo.div_ceil(n), g.hi.div_ceil(n)));
                rows.filter(|r| !r.is_empty()).collect()
            }
            _ => {
                let me = self.m.location().id();
                let c = balanced_chunk(self.m.nrows(), self.m.location().nlocs(), me);
                if c.is_empty() {
                    vec![]
                } else {
                    vec![c]
                }
            }
        }
    }

    /// Fast whole-row access when the row is entirely local (row-blocked
    /// layout); otherwise assembles the row from **bulk** per-block
    /// transfers — one RMI per remote block, never per element.
    pub fn read_row(&self, r: usize) -> Vec<T> {
        match self.m.local_row(r) {
            Some(row) => row,
            None => self.m.get_row_range(r, Range1d::with_size(self.m.ncols())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array_view::ArrayView;
    use crate::view::{ViewRead, ViewWrite};
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn rows_view_gives_whole_local_rows() {
        execute(RtsConfig::default(), 2, |loc| {
            let m = PMatrix::from_fn(loc, 6, 3, MatrixLayout::RowBlocked, |r, c| r * 3 + c);
            let rows = RowsView::new(m);
            let mine: Vec<usize> = rows.local_rows().iter().flat_map(|r| r.iter()).collect();
            assert_eq!(mine.len(), 3);
            for r in mine {
                let vals = rows.read_row(r);
                assert_eq!(vals, (0..3).map(|c| r * 3 + c).collect::<Vec<_>>());
            }
            assert_eq!(loc.allreduce_sum(rows.local_rows().iter().map(|r| r.len() as u64).sum()), 6);
        });
    }

    #[test]
    fn rows_view_covers_every_row_after_a_redistribution() {
        use stapl_core::mapper::CyclicMapper;
        use stapl_core::partition::BlockedPartition;
        execute(RtsConfig::default(), 2, |loc| {
            let m = PMatrix::from_fn(loc, 6, 4, MatrixLayout::RowBlocked, |r, c| r * 4 + c);
            // Blocks of 5 elements: most rows now start in one block and end in the next.
            m.linear().redistribute(BlockedPartition::new(24, 5), CyclicMapper::new(2));
            let rows = RowsView::new(m);
            let mine: Vec<usize> = rows.local_rows().iter().flat_map(|r| r.iter()).collect();
            for &r in &mine {
                assert_eq!(rows.read_row(r), (0..4).map(|c| r * 4 + c).collect::<Vec<_>>());
            }
            let mut all = loc.allgather(mine).concat();
            all.sort_unstable();
            assert_eq!(all, (0..6).collect::<Vec<_>>());
        });
    }

    #[test]
    fn read_row_works_for_column_layout_too() {
        execute(RtsConfig::default(), 2, |loc| {
            let m = PMatrix::from_fn(loc, 3, 4, MatrixLayout::ColumnBlocked, |r, c| r * 4 + c);
            let rows = RowsView::new(m);
            // No row is whole-local under column blocking; one bulk
            // transfer per remote block instead of per-element reads.
            assert_eq!(rows.read_row(1), vec![4, 5, 6, 7]);
            let _ = loc;
        });
    }

    #[test]
    fn linear_view_chunked_matches_row_major() {
        // Row blocking makes one chunk per stripe; column blocking one per
        // row of each local stripe, every chunk a local slice.
        for layout in [MatrixLayout::RowBlocked, MatrixLayout::ColumnBlocked] {
            execute(RtsConfig::default(), 2, move |loc| {
                let m = PMatrix::from_fn(loc, 4, 5, layout, |r, c| r * 5 + c);
                let v = ArrayView::new(m.linear().clone());
                let mut got: Vec<(usize, usize)> = Vec::new();
                v.for_each_chunk(|lo, s| {
                    for (k, val) in s.iter().enumerate() {
                        got.push((lo + k, *val));
                    }
                });
                for (k, val) in &got {
                    assert_eq!(val, k, "{layout:?}: linearized element {k}");
                }
                assert_eq!(loc.allreduce_sum(got.len() as u64), 20);
                loc.barrier();
                v.fill_from(|r| r.iter().map(|k| k * 10).collect());
                loc.rmi_fence();
                for k in 0..20 {
                    assert_eq!(v.get(k), k * 10, "{layout:?}: element {k}");
                }
            });
        }
    }

    #[test]
    fn linear_view_is_row_major() {
        execute(RtsConfig::default(), 2, |loc| {
            let m = PMatrix::from_fn(loc, 3, 4, MatrixLayout::RowBlocked, |r, c| r * 4 + c);
            let v = ArrayView::new(m.linear().clone());
            assert_eq!(v.len(), 12);
            for k in 0..12 {
                assert_eq!(v.get(k), k);
            }
            // Native chunks cover the linearization exactly.
            let covered: u64 =
                loc.allreduce_sum(v.local_chunks().iter().map(|c| c.len() as u64).sum());
            assert_eq!(covered, 12);
            if loc.id() == 1 {
                v.set(5, 500);
            }
            loc.rmi_fence();
            assert_eq!(v.get(5), 500);
        });
    }
}
