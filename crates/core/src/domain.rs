//! Domains: the GID sets of the indexed containers (Chapter IV.B.2–3).
//!
//! A *domain* is the set of GIDs identifying a container's elements. Two
//! concrete domains carry every indexed container here: [`Range1d`]
//! (pArray, pVector, and every 1-D partition's sub-domains) and
//! [`Range2d`] (pMatrix blocks). The dynamic containers name their
//! elements by keys, list GIDs or vertex descriptors and need no domain
//! type.
//!
//! Where the interfaces of Tables V and VI went:
//!
//! | Paper method | Here |
//! |---|---|
//! | `contains_gid` (Table V) | [`Range1d::contains`], [`Range2d::contains`] |
//! | linearization: `first`..`last`, `offset` (Table VI) | [`Range1d::iter`], [`Range2d::offset`] (row-major) |
//! | `size` (Table VI) | [`Range1d::len`]; [`Range2d::nrows`] × [`Range2d::ncols`] |
//! | `compare_less_gids`, `next`, `prev`, `advance`, enumerated / key / filtered / composed domains | dropped: no caller |

/// Half-open index range `[lo, hi)` under the natural order of `usize`;
/// the paper's `1DRange`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Range1d {
    pub lo: usize,
    pub hi: usize,
}

impl Range1d {
    pub fn new(lo: usize, hi: usize) -> Self {
        assert!(lo <= hi, "invalid range [{lo}, {hi})");
        Range1d { lo, hi }
    }

    /// `[0, n)`.
    pub fn with_size(n: usize) -> Self {
        Range1d { lo: 0, hi: n }
    }

    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// `contains_gid` of the paper.
    pub fn contains(&self, g: &usize) -> bool {
        *g >= self.lo && *g < self.hi
    }

    /// The GIDs in linearization order.
    pub fn iter(&self) -> std::ops::Range<usize> {
        self.lo..self.hi
    }

    /// Set intersection with another range.
    pub fn intersect(&self, other: &Range1d) -> Range1d {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi).max(lo);
        Range1d { lo, hi }
    }
}

/// Rectangular sub-domain `[row_lo, row_hi) × [col_lo, col_hi)` of a matrix
/// index space, ordered row-wise (the paper's `2DRange row`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Range2d {
    pub rows: Range1d,
    pub cols: Range1d,
}

impl Range2d {
    pub fn new(rows: Range1d, cols: Range1d) -> Self {
        Range2d { rows, cols }
    }

    pub fn with_shape(nrows: usize, ncols: usize) -> Self {
        Range2d { rows: Range1d::with_size(nrows), cols: Range1d::with_size(ncols) }
    }

    pub fn nrows(&self) -> usize {
        self.rows.len()
    }

    pub fn ncols(&self) -> usize {
        self.cols.len()
    }

    pub fn contains(&self, g: &(usize, usize)) -> bool {
        self.rows.contains(&g.0) && self.cols.contains(&g.1)
    }

    /// Position of `g` in the row-major linearization.
    pub fn offset(&self, g: &(usize, usize)) -> usize {
        debug_assert!(self.contains(g));
        (g.0 - self.rows.lo) * self.ncols() + (g.1 - self.cols.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range1d_basics() {
        let d = Range1d::new(5, 12);
        assert_eq!(d.len(), 7);
        assert_eq!(d.iter().next(), Some(5));
        assert_eq!(d.iter().last(), Some(11));
        assert!(d.contains(&5) && d.contains(&11) && !d.contains(&12) && !d.contains(&4));
    }

    #[test]
    fn range1d_empty() {
        let d = Range1d::new(3, 3);
        assert!(d.is_empty());
        assert!(!d.contains(&3));
        assert_eq!(d.iter().count(), 0);
    }

    #[test]
    fn range1d_enumeration_is_linear() {
        let d = Range1d::new(2, 6);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn range1d_intersect() {
        let a = Range1d::new(0, 10);
        let b = Range1d::new(5, 20);
        assert_eq!(a.intersect(&b), Range1d::new(5, 10));
        let c = Range1d::new(12, 15);
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn range2d_row_major_enumeration() {
        let d = Range2d::with_shape(2, 3);
        let order = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)];
        for (k, g) in order.iter().enumerate() {
            assert_eq!(d.offset(g), k);
        }
        assert_eq!((d.nrows(), d.ncols()), (2, 3));
    }

    #[test]
    fn range2d_submatrix() {
        let d = Range2d::new(Range1d::new(1, 3), Range1d::new(2, 4));
        assert!(d.contains(&(1, 2)) && d.contains(&(2, 3)));
        assert!(!d.contains(&(0, 2)) && !d.contains(&(1, 4)));
        assert_eq!(d.offset(&(1, 2)), 0);
        assert_eq!(d.offset(&(2, 3)), d.nrows() * d.ncols() - 1);
    }
}
