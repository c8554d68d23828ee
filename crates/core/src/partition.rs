//! Partitions: decompositions of a domain into sub-domains
//! (Chapter IV.B.4–5 and the interfaces of Tables VII, VIII and XV).
//!
//! A partition groups a container's elements into units of storage: one
//! sub-domain per base container. Partitions of totally ordered domains are
//! *ordered partitions* (Definition 10): the sub-domain sequence preserves
//! the element order, which is what lets a pContainer linearize its data.

use std::hash::{Hash, Hasher};

use crate::domain::Range1d;
use crate::gid::{Bcid, KeyHasher};

// ---------------------------------------------------------------------
// Sub-domains of 1-D index partitions
// ---------------------------------------------------------------------

/// A sub-domain produced by a 1-D index partition. Contiguous for blocked
/// and balanced partitions; strided for block-cyclic ones (the paper's
/// `BLOCK_CYCLIC` example produces sub-domains like `{0,1,2, 6,7,8}`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IndexSubDomain {
    Contiguous(Range1d),
    /// Indices `first + q*stride + r` for `q = 0, 1, ...` and `r in
    /// [0, block)`, restricted to `< global_hi`.
    BlockCyclic { first: usize, block: usize, stride: usize, global_hi: usize },
}

impl IndexSubDomain {
    pub fn len(&self) -> usize {
        match self {
            IndexSubDomain::Contiguous(r) => r.len(),
            IndexSubDomain::BlockCyclic { first, block, stride, global_hi } => {
                if first >= global_hi {
                    return 0;
                }
                let span = global_hi - first;
                let full = span / stride;
                let rem = (span % stride).min(*block);
                full * block + rem
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn contains(&self, gid: usize) -> bool {
        match self {
            IndexSubDomain::Contiguous(r) => r.contains(&gid),
            IndexSubDomain::BlockCyclic { first, block, stride, global_hi } => {
                gid >= *first && gid < *global_hi && (gid - first) % stride < *block
            }
        }
    }

    /// GIDs of the sub-domain in linearization order: the storage order is
    /// defined once, by [`IndexSubDomain::contiguous_pieces`].
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        self.contiguous_pieces().into_iter().flat_map(|r| r.iter())
    }

    /// Offset of `gid` inside the sub-domain's linearization.
    pub fn offset(&self, gid: usize) -> usize {
        debug_assert!(self.contains(gid));
        match self {
            IndexSubDomain::Contiguous(r) => gid - r.lo,
            IndexSubDomain::BlockCyclic { first, block, stride, .. } => {
                let d = gid - first;
                (d / stride) * block + d % stride
            }
        }
    }

    /// The maximal GID ranges that are contiguous both in the index space
    /// *and* in the sub-domain's linearization — the units of bulk
    /// transport: a run maps to one contiguous span of the owning base
    /// container's storage. One range for contiguous sub-domains; one per
    /// block for block-cyclic ones.
    pub fn contiguous_pieces(&self) -> Vec<Range1d> {
        match self {
            IndexSubDomain::Contiguous(r) => {
                if r.is_empty() {
                    vec![]
                } else {
                    vec![*r]
                }
            }
            IndexSubDomain::BlockCyclic { first, block, stride, global_hi } => {
                let mut out = Vec::new();
                let mut lo = *first;
                while lo < *global_hi {
                    out.push(Range1d::new(lo, (lo + block).min(*global_hi)));
                    lo += stride;
                }
                out
            }
        }
    }
}

// ---------------------------------------------------------------------
// 1-D index partitions (pArray / pVector / pMatrix, Table XV)
// ---------------------------------------------------------------------

/// Partition of the index domain `[0, n)` into ordered sub-domains; the
/// paper's indexed-partition concept with a closed-form `find`. The shapes
/// are a closed set, so each query is one `match` the compiler sees
/// through: locating a GID makes no indirect call.
#[derive(Clone, Debug)]
pub enum IndexPartition {
    Balanced(BalancedPartition),
    Blocked(BlockedPartition),
    BlockCyclic(BlockCyclicPartition),
    Explicit(ExplicitPartition),
    /// A matrix's blocks over its row-major linearization `r * ncols + c`.
    Matrix(MatrixPartition),
}

impl IndexPartition {
    /// Total number of indices partitioned.
    pub fn global_size(&self) -> usize {
        match self {
            IndexPartition::Balanced(p) => p.n,
            IndexPartition::Blocked(p) => p.n,
            IndexPartition::BlockCyclic(p) => p.n,
            IndexPartition::Explicit(p) => *p.bounds.last().unwrap(),
            IndexPartition::Matrix(p) => p.nrows * p.ncols,
        }
    }

    /// Number of sub-domains (== number of base containers).
    pub fn num_subdomains(&self) -> usize {
        match self {
            IndexPartition::Balanced(p) => p.p,
            IndexPartition::Blocked(p) => p.n.div_ceil(p.block).max(1),
            IndexPartition::BlockCyclic(p) => p.p,
            IndexPartition::Explicit(p) => p.bounds.len(),
            IndexPartition::Matrix(p) => p.nparts,
        }
    }

    /// The sub-domain assigned to `bcid`.
    pub fn subdomain(&self, bcid: Bcid) -> IndexSubDomain {
        match self {
            IndexPartition::Balanced(p) => IndexSubDomain::Contiguous(p.stripes.range(bcid)),
            IndexPartition::Blocked(p) => {
                let lo = (bcid * p.block).min(p.n);
                IndexSubDomain::Contiguous(Range1d::new(lo, (lo + p.block).min(p.n)))
            }
            IndexPartition::BlockCyclic(p) => IndexSubDomain::BlockCyclic {
                first: bcid * p.block,
                block: p.block,
                stride: p.p * p.block,
                global_hi: p.n,
            },
            IndexPartition::Explicit(p) => {
                let lo = if bcid == 0 { 0 } else { p.bounds[bcid - 1] };
                IndexSubDomain::Contiguous(Range1d::new(lo, p.bounds[bcid]))
            }
            IndexPartition::Matrix(p) => p.subdomain(bcid),
        }
    }

    /// The BCID whose sub-domain contains `gid` (the paper's `get_info`).
    #[inline]
    pub fn find(&self, gid: usize) -> Bcid {
        debug_assert!(gid < self.global_size());
        match self {
            IndexPartition::Balanced(p) => p.stripes.find(gid),
            IndexPartition::Blocked(p) => gid / p.block,
            IndexPartition::BlockCyclic(p) => (gid / p.block) % p.p,
            IndexPartition::Explicit(p) => p.bounds.partition_point(|&b| b <= gid),
            IndexPartition::Matrix(p) => p.find((gid / p.ncols, gid % p.ncols)),
        }
    }
}

impl From<BalancedPartition> for IndexPartition {
    fn from(p: BalancedPartition) -> Self {
        IndexPartition::Balanced(p)
    }
}

impl From<BlockedPartition> for IndexPartition {
    fn from(p: BlockedPartition) -> Self {
        IndexPartition::Blocked(p)
    }
}

impl From<BlockCyclicPartition> for IndexPartition {
    fn from(p: BlockCyclicPartition) -> Self {
        IndexPartition::BlockCyclic(p)
    }
}

impl From<ExplicitPartition> for IndexPartition {
    fn from(p: ExplicitPartition) -> Self {
        IndexPartition::Explicit(p)
    }
}

impl From<MatrixPartition> for IndexPartition {
    fn from(p: MatrixPartition) -> Self {
        IndexPartition::Matrix(p)
    }
}

/// A boxed partition, as `benchmark/` still passes one; it exists only for
/// that crate's two call sites.
impl<P: Into<IndexPartition>> From<Box<P>> for IndexPartition {
    fn from(p: Box<P>) -> Self {
        (*p).into()
    }
}

/// `n` indices cut into `p` consecutive near-equal stripes, the first
/// `n mod p` one longer. The divisions happen once, here: `find` and
/// `range` are on every element access of the default pArray.
#[derive(Clone, Copy, Debug)]
struct Stripes {
    base: usize,
    extra: usize,
    /// Where the longer stripes end: `extra * (base + 1)`.
    big: usize,
}

impl Stripes {
    fn new(n: usize, p: usize) -> Self {
        let (base, extra) = (n / p, n % p);
        Stripes { base, extra, big: extra * (base + 1) }
    }

    fn range(&self, i: usize) -> Range1d {
        let lo = i * self.base + i.min(self.extra);
        Range1d::new(lo, lo + self.base + usize::from(i < self.extra))
    }

    fn find(&self, x: usize) -> usize {
        if x < self.big {
            x / (self.base + 1)
        } else {
            self.extra + (x - self.big) / self.base.max(1)
        }
    }
}

/// `partition_balanced`: `p` sub-domains of size `n/p` (the first `n mod p`
/// get one extra), pArray's default.
#[derive(Clone, Copy, Debug)]
pub struct BalancedPartition {
    n: usize,
    p: usize,
    stripes: Stripes,
}

impl BalancedPartition {
    pub fn new(n: usize, p: usize) -> Self {
        assert!(p >= 1);
        // If n < p the paper creates n sub-domains of size 1.
        let p = if n == 0 { 1 } else { p.min(n) };
        BalancedPartition { n, p, stripes: Stripes::new(n, p) }
    }
}

/// `partition_blocked`: fixed block size; `ceil(n / block)` sub-domains,
/// the last possibly smaller.
#[derive(Clone, Copy, Debug)]
pub struct BlockedPartition {
    n: usize,
    block: usize,
}

impl BlockedPartition {
    pub fn new(n: usize, block: usize) -> Self {
        assert!(block >= 1);
        BlockedPartition { n, block }
    }
}

/// `partition_block_cyclic(domain, p, BLOCK_CYCLIC(b))`: groups of `b`
/// consecutive indices dealt cyclically to `p` sub-domains.
#[derive(Clone, Copy, Debug)]
pub struct BlockCyclicPartition {
    n: usize,
    p: usize,
    block: usize,
}

impl BlockCyclicPartition {
    pub fn new(n: usize, p: usize, block: usize) -> Self {
        assert!(p >= 1 && block >= 1);
        BlockCyclicPartition { n, p, block }
    }
}

/// `partition_blocked_explicit`: arbitrary consecutive block sizes, e.g.
/// `BLOCK(v{3,4,4})`, empty ones included. pVector's partition after every
/// commit: one block per location, the lengths its edits left.
#[derive(Clone, Debug)]
pub struct ExplicitPartition {
    /// Cumulative upper bounds; sub-domain `i` is
    /// `[bounds[i-1], bounds[i])` with `bounds[-1] == 0`.
    bounds: Vec<usize>,
}

impl ExplicitPartition {
    pub fn from_sizes(sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty());
        let mut bounds = Vec::with_capacity(sizes.len());
        let mut acc = 0;
        for s in sizes {
            acc += s;
            bounds.push(acc);
        }
        ExplicitPartition { bounds }
    }
}

// ---------------------------------------------------------------------
// 2-D matrix partition (pMatrix)
// ---------------------------------------------------------------------

/// How a matrix index space is cut into blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatrixLayout {
    /// Horizontal stripes of rows.
    RowBlocked,
    /// Vertical stripes of columns.
    ColumnBlocked,
    /// `grid_rows × grid_cols` rectangular tiles.
    Blocked2d { grid_rows: usize, grid_cols: usize },
}

/// `p_matrix_partition`: blocked decompositions of a 2-D domain; BCIDs
/// enumerate the blocks row-major. As an [`IndexPartition`] it cuts the
/// row-major linearization `r * ncols + c`, and a block's sub-domain keeps
/// the block's own row-major order.
#[derive(Clone, Copy, Debug)]
pub struct MatrixPartition {
    pub nrows: usize,
    pub ncols: usize,
    pub layout: MatrixLayout,
    pub nparts: usize,
}

impl MatrixPartition {
    pub fn new(nrows: usize, ncols: usize, layout: MatrixLayout, nparts: usize) -> Self {
        assert!(nparts >= 1);
        if let MatrixLayout::Blocked2d { grid_rows, grid_cols } = layout {
            assert_eq!(grid_rows * grid_cols, nparts, "grid must have nparts tiles");
        }
        MatrixPartition { nrows, ncols, layout, nparts }
    }

    /// The rectangular block assigned to `bcid`.
    pub fn block(&self, bcid: Bcid) -> crate::domain::Range2d {
        match self.layout {
            MatrixLayout::RowBlocked => crate::domain::Range2d::new(
                Stripes::new(self.nrows, self.nparts).range(bcid),
                Range1d::with_size(self.ncols),
            ),
            MatrixLayout::ColumnBlocked => crate::domain::Range2d::new(
                Range1d::with_size(self.nrows),
                Stripes::new(self.ncols, self.nparts).range(bcid),
            ),
            MatrixLayout::Blocked2d { grid_rows, grid_cols } => {
                let br = bcid / grid_cols;
                let bc = bcid % grid_cols;
                crate::domain::Range2d::new(
                    Stripes::new(self.nrows, grid_rows).range(br),
                    Stripes::new(self.ncols, grid_cols).range(bc),
                )
            }
        }
    }

    /// BCID of the block containing `(row, col)`.
    pub fn find(&self, g: (usize, usize)) -> Bcid {
        match self.layout {
            MatrixLayout::RowBlocked => Stripes::new(self.nrows, self.nparts).find(g.0),
            MatrixLayout::ColumnBlocked => Stripes::new(self.ncols, self.nparts).find(g.1),
            MatrixLayout::Blocked2d { grid_rows, grid_cols } => {
                let br = Stripes::new(self.nrows, grid_rows).find(g.0);
                let bc = Stripes::new(self.ncols, grid_cols).find(g.1);
                br * grid_cols + bc
            }
        }
    }

    /// Block `bcid` as a sub-domain of the linearization: a full-width row
    /// stripe is contiguous; a column stripe or a tile is one run of the
    /// block's width per row, `ncols` indices apart.
    fn subdomain(&self, bcid: Bcid) -> IndexSubDomain {
        let (b, n) = (self.block(bcid), self.ncols);
        let first = b.rows.lo * n + b.cols.lo;
        if b.nrows() == 0 || b.ncols() == 0 {
            IndexSubDomain::Contiguous(Range1d::new(first, first))
        } else if b.ncols() == n {
            IndexSubDomain::Contiguous(Range1d::new(first, b.rows.hi * n))
        } else {
            let global_hi = (b.rows.hi - 1) * n + b.cols.hi;
            IndexSubDomain::BlockCyclic { first, block: b.ncols(), stride: n, global_hi }
        }
    }
}

// ---------------------------------------------------------------------
// Key partitions (associative pContainers, Ch. XII)
// ---------------------------------------------------------------------

/// Maps keys to BCIDs for associative containers. Used statically: each
/// associative store names the one partition that places its keys.
pub trait KeyPartition<K>: 'static {
    fn num_subdomains(&self) -> usize;
    fn find(&self, k: &K) -> Bcid;
}

/// Value-based partition for *sorted* associative containers (Fig. 58):
/// `s` splitter keys define `s + 1` ordered key intervals, preserving the
/// global key order across sub-domains.
#[derive(Clone, Debug)]
pub struct SplitterPartition<K> {
    splitters: Vec<K>,
}

impl<K: Ord + Clone + 'static> SplitterPartition<K> {
    pub fn new(mut splitters: Vec<K>) -> Self {
        splitters.sort();
        SplitterPartition { splitters }
    }
}

impl<K: Ord + Clone + 'static> KeyPartition<K> for SplitterPartition<K> {
    fn num_subdomains(&self) -> usize {
        self.splitters.len() + 1
    }

    #[inline]
    fn find(&self, k: &K) -> Bcid {
        self.splitters.partition_point(|s| s <= k)
    }
}

/// Hash partition for *hashed* associative containers. Does not preserve
/// key order. The bucket is the high 32 bits of the key's hash under
/// [`KeyHasher::placement`], scaled to `[0, buckets)` — never `hash %
/// buckets` on the low bits, which the bucket's own table indexes by.
#[derive(Clone, Copy, Debug)]
pub struct HashPartition {
    buckets: usize,
}

impl HashPartition {
    pub fn new(buckets: usize) -> Self {
        assert!((1..=u32::MAX as usize).contains(&buckets));
        HashPartition { buckets }
    }
}

impl<K: Hash + 'static> KeyPartition<K> for HashPartition {
    fn num_subdomains(&self) -> usize {
        self.buckets
    }

    #[inline]
    fn find(&self, k: &K) -> Bcid {
        let mut h = KeyHasher::placement();
        k.hash(&mut h);
        (((h.finish() >> 32) * self.buckets as u64) >> 32) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sub-domain sizes of `p`, after checking that its sub-domains are
    /// disjoint, cover `[0, n)` (Definition 9) and agree with `find`.
    fn check_cover(p: &IndexPartition) -> Vec<usize> {
        let n = p.global_size();
        let mut seen = vec![0u32; n];
        let mut sizes = Vec::new();
        for b in 0..p.num_subdomains() {
            let sd = p.subdomain(b);
            for g in sd.iter() {
                seen[g] += 1;
                assert_eq!(p.find(g), b, "find({g}) disagrees with subdomain({b})");
            }
            sizes.push(sd.len());
        }
        assert!(seen.iter().all(|&c| c == 1), "not a partition: {seen:?}");
        sizes
    }

    #[test]
    fn balanced_partition_covers_and_balances() {
        let sizes = check_cover(&BalancedPartition::new(10, 4).into());
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
    }

    #[test]
    fn balanced_with_fewer_elements_than_parts() {
        let p = IndexPartition::from(BalancedPartition::new(3, 8));
        assert_eq!(p.num_subdomains(), 3);
        assert!(check_cover(&p).iter().all(|&s| s == 1));
    }

    #[test]
    fn blocked_partition_example_from_paper() {
        // partition_blocked([0..11), 3) -> {0..2, 3..5, 6..8, 9..10}
        let p = IndexPartition::from(BlockedPartition::new(11, 3));
        assert_eq!(p.num_subdomains(), 4);
        assert_eq!(check_cover(&p), vec![3, 3, 3, 2]);
        assert_eq!(p.find(9), 3);
    }

    #[test]
    fn block_cyclic_matches_paper_example() {
        // partition_block_cyclic([0..11), 2, BLOCK_CYCLIC(3))
        //   -> { {0,1,2, 6,7,8}, {3,4,5, 9,10} }
        let p = IndexPartition::from(BlockCyclicPartition::new(11, 2, 3));
        check_cover(&p);
        assert_eq!(p.subdomain(0).iter().collect::<Vec<_>>(), vec![0, 1, 2, 6, 7, 8]);
        assert_eq!(p.subdomain(1).iter().collect::<Vec<_>>(), vec![3, 4, 5, 9, 10]);
    }

    #[test]
    fn block_cyclic_block_one_is_cyclic() {
        // partition_block_cyclic([0..11), 2, BLOCK_CYCLIC(1))
        //   -> { {0,2,4,6,8,10}, {1,3,5,7,9} }
        let p = IndexPartition::from(BlockCyclicPartition::new(11, 2, 1));
        check_cover(&p);
        assert_eq!(p.subdomain(0).iter().collect::<Vec<_>>(), vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn contiguous_pieces_cover_in_order() {
        let p = IndexPartition::from(BlockCyclicPartition::new(23, 3, 4));
        for b in 0..3 {
            let sd = p.subdomain(b);
            let pieces = sd.contiguous_pieces();
            let flat: Vec<usize> = pieces.iter().flat_map(|r| r.iter()).collect();
            assert_eq!(flat, sd.iter().collect::<Vec<_>>());
            // Every piece is storage-contiguous: offsets advance by one.
            for piece in &pieces {
                let base = sd.offset(piece.lo);
                for (k, g) in piece.iter().enumerate() {
                    assert_eq!(sd.offset(g), base + k);
                }
            }
        }
        let c = IndexSubDomain::Contiguous(Range1d::new(5, 9));
        assert_eq!(c.contiguous_pieces(), vec![Range1d::new(5, 9)]);
        let e = IndexSubDomain::Contiguous(Range1d::new(4, 4));
        assert!(e.contiguous_pieces().is_empty());
    }

    #[test]
    fn block_cyclic_subdomain_offsets_roundtrip() {
        let p = IndexPartition::from(BlockCyclicPartition::new(23, 3, 4));
        for b in 0..3 {
            let sd = p.subdomain(b);
            for (k, g) in sd.iter().enumerate() {
                assert_eq!(sd.offset(g), k);
            }
            assert_eq!(sd.len(), sd.iter().count());
        }
    }

    #[test]
    fn explicit_partition_example_from_paper() {
        // partition_blocked_explicit(BLOCK(v{3,4,4})) -> {0..2, 3..6, 7..10}
        let p = IndexPartition::from(ExplicitPartition::from_sizes(&[3, 4, 4]));
        assert_eq!(check_cover(&p), vec![3, 4, 4]);
        assert_eq!(p.find(0), 0);
        assert_eq!(p.find(3), 1);
        assert_eq!(p.find(6), 1);
        assert_eq!(p.find(7), 2);
        // A pVector block a commit emptied: `find` skips empty sub-domains.
        let p = IndexPartition::from(ExplicitPartition::from_sizes(&[0, 3, 0, 2]));
        assert_eq!(check_cover(&p), vec![0, 3, 0, 2]);
        assert_eq!((p.find(0), p.find(3)), (1, 3));
        let p = IndexPartition::from(ExplicitPartition::from_sizes(&[0, 0]));
        assert_eq!(check_cover(&p), vec![0, 0]);
    }

    #[test]
    fn ordered_partition_preserves_order() {
        // Definition 10: contiguous ordered partitions preserve the global
        // order: every gid in sub-domain i precedes every gid in i+1.
        let p = IndexPartition::from(BalancedPartition::new(37, 5));
        let mut prev_max: Option<usize> = None;
        for b in 0..p.num_subdomains() {
            let gids: Vec<_> = p.subdomain(b).iter().collect();
            if let (Some(pm), Some(first)) = (prev_max, gids.first()) {
                assert!(pm < *first);
            }
            prev_max = gids.last().copied().or(prev_max);
        }
    }

    #[test]
    fn matrix_row_blocked() {
        let p = MatrixPartition::new(6, 4, MatrixLayout::RowBlocked, 3);
        assert_eq!(p.block(0).nrows(), 2);
        assert_eq!(p.find((0, 3)), 0);
        assert_eq!(p.find((2, 0)), 1);
        assert_eq!(p.find((5, 3)), 2);
    }

    #[test]
    fn matrix_column_blocked() {
        let p = MatrixPartition::new(4, 6, MatrixLayout::ColumnBlocked, 2);
        assert_eq!(p.find((3, 2)), 0);
        assert_eq!(p.find((0, 3)), 1);
        assert_eq!(p.block(1).ncols(), 3);
    }

    #[test]
    fn matrix_blocked_2d_tiles_cover() {
        let p = MatrixPartition::new(6, 6, MatrixLayout::Blocked2d { grid_rows: 2, grid_cols: 3 }, 6);
        let mut count = 0;
        for b in 0..p.nparts {
            let blk = p.block(b);
            for r in blk.rows.iter() {
                for c in blk.cols.iter() {
                    assert_eq!(p.find((r, c)), b);
                    count += 1;
                }
            }
        }
        assert_eq!(count, 36);
    }

    #[test]
    fn matrix_partition_linearizes_every_layout() {
        // Fewer columns than stripes, fewer rows than grid rows, and 1 x 1.
        for (nrows, ncols) in [(5, 7), (6, 2), (1, 5), (1, 1)] {
            for (layout, nparts) in [
                (MatrixLayout::RowBlocked, 3),
                (MatrixLayout::ColumnBlocked, 3),
                (MatrixLayout::Blocked2d { grid_rows: 2, grid_cols: 3 }, 6),
            ] {
                let m = MatrixPartition::new(nrows, ncols, layout, nparts);
                let p = IndexPartition::from(m);
                let sds: Vec<_> = (0..p.num_subdomains()).map(|b| p.subdomain(b)).collect();
                for g in 0..nrows * ncols {
                    let holders: Vec<_> = (0..nparts).filter(|&b| sds[b].contains(g)).collect();
                    assert_eq!(holders, vec![p.find(g)], "{layout:?} {nrows}x{ncols}: gid {g}");
                }
                assert_eq!(sds.iter().map(IndexSubDomain::len).sum::<usize>(), nrows * ncols);
                // Offsets are the block's own row-major order: 0..len, once each.
                for (b, sd) in sds.iter().enumerate() {
                    let blk = m.block(b);
                    let mut offs = Vec::new();
                    for g in (0..nrows * ncols).filter(|&g| sd.contains(g)) {
                        assert_eq!(sd.offset(g), blk.offset(&(g / ncols, g % ncols)));
                        offs.push(sd.offset(g));
                    }
                    offs.sort_unstable();
                    assert_eq!(offs, (0..sd.len()).collect::<Vec<_>>(), "{layout:?} block {b}");
                }
            }
        }
    }

    #[test]
    fn splitter_partition_orders_keys() {
        let p = SplitterPartition::new(vec![10, 20, 30]);
        assert_eq!(p.num_subdomains(), 4);
        assert_eq!(p.find(&5), 0);
        assert_eq!(p.find(&10), 1);
        assert_eq!(p.find(&19), 1);
        assert_eq!(p.find(&25), 2);
        assert_eq!(p.find(&99), 3);
        // Order preservation: k1 < k2 => bcid(k1) <= bcid(k2).
        for a in 0..40 {
            for b in a..40 {
                assert!(p.find(&a) <= p.find(&b));
            }
        }
    }

    #[test]
    fn hash_partition_is_stable_and_in_range() {
        let p = HashPartition::new(7);
        for k in 0..100 {
            let b = KeyPartition::<i32>::find(&p, &k);
            assert!(b < 7);
            assert_eq!(b, KeyPartition::<i32>::find(&p, &k));
        }
    }
}
