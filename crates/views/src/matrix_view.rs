//! Matrix views (Table II's `matrix_pview` and the row/linearized views
//! of Chapter III.A): the same pMatrix used as a collection of rows or as
//! a flat 1-D sequence.

use stapl_containers::matrix::PMatrix;
use stapl_core::domain::Range1d;
use stapl_core::interfaces::{ElementRead, ElementWrite, PContainer};
use stapl_core::partition::MatrixLayout;
use stapl_rts::Location;

use crate::view::{balanced_chunk, ViewRead, ViewWrite};

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

    /// Row indices this location processes.
    pub fn local_rows(&self) -> Vec<Range1d> {
        match self.m.partition().layout {
            MatrixLayout::RowBlocked => {
                self.m.local_blocks().into_iter().map(|(_, b)| b.rows).collect()
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

/// The matrix linearized row-major as a 1-D view — the "same pMatrix
/// viewed as a vector" example of Chapter III.
pub struct LinearView<T: Send + Clone + 'static> {
    m: PMatrix<T>,
}

impl<T: Send + Clone + 'static> LinearView<T> {
    pub fn new(m: PMatrix<T>) -> Self {
        LinearView { m }
    }

    fn map(&self, k: usize) -> (usize, usize) {
        (k / self.m.ncols(), k % self.m.ncols())
    }
}

impl<T: Send + Clone + 'static> ViewRead for LinearView<T> {
    type Value = T;

    fn len(&self) -> usize {
        self.m.global_size()
    }

    fn get(&self, k: usize) -> T {
        self.m.get_element(self.map(k))
    }

    fn location(&self) -> &Location {
        self.m.location()
    }

    fn local_chunks(&self) -> Vec<Range1d> {
        let ncols = self.m.ncols();
        match self.m.partition().layout {
            MatrixLayout::RowBlocked => self
                .m
                .local_blocks()
                .into_iter()
                .map(|(_, b)| Range1d::new(b.rows.lo * ncols, b.rows.hi * ncols))
                .collect(),
            _ => {
                let me = self.m.location().id();
                let c = balanced_chunk(self.len(), self.m.location().nlocs(), me);
                if c.is_empty() {
                    vec![]
                } else {
                    vec![c]
                }
            }
        }
    }

    fn for_each_chunk(&self, mut f: impl FnMut(usize, &[T])) {
        let ncols = self.m.ncols();
        for ch in self.local_chunks() {
            // A linear chunk decomposes into per-row segments; each is a
            // local slice or one bulk transfer per remote block.
            let mut k = ch.lo;
            while k < ch.hi {
                let (r, c) = (k / ncols, k % ncols);
                let cols = Range1d::new(c, ncols.min(c + (ch.hi - k)));
                let served = self.m.with_row_slice(r, cols, |s| f(k, s));
                match served {
                    Some(()) => self.location().note_localized_chunk(),
                    None => {
                        let buf = self.m.get_row_range(r, cols);
                        f(k, &buf);
                    }
                }
                k += cols.len();
            }
        }
    }
}

impl<T: Send + Clone + 'static> ViewWrite for LinearView<T> {
    fn set(&self, k: usize, v: T) {
        self.m.set_element(self.map(k), v);
    }

    fn apply<F>(&self, k: usize, f: F)
    where
        F: FnOnce(&mut T) + Send + 'static,
    {
        self.m.apply_set(self.map(k), f);
    }

    fn fill_from(&self, mut gen: impl FnMut(Range1d) -> Vec<T>) {
        let ncols = self.m.ncols();
        for ch in self.local_chunks() {
            let mut k = ch.lo;
            while k < ch.hi {
                let (r, c) = (k / ncols, k % ncols);
                let cols = Range1d::new(c, ncols.min(c + (ch.hi - k)));
                let vals = gen(Range1d::new(k, k + cols.len()));
                debug_assert_eq!(vals.len(), cols.len());
                let served = self.m.with_row_slice_mut(r, cols, |s| s.clone_from_slice(&vals));
                match served {
                    Some(()) => self.location().note_localized_chunk(),
                    None => self.m.set_row_range(r, cols.lo, vals),
                }
                k += cols.len();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // Row blocking serves every row segment as a local slice; column
        // blocking splits each row across locations, so segments take the
        // `get_row_range`/`set_row_range` bulk branch.
        for layout in [MatrixLayout::RowBlocked, MatrixLayout::ColumnBlocked] {
            execute(RtsConfig::default(), 2, move |loc| {
                let m = PMatrix::from_fn(loc, 4, 5, layout, |r, c| r * 5 + c);
                let v = LinearView::new(m.clone());
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
            let v = LinearView::new(m);
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
