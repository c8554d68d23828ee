//! Property-based tests: distributed containers against sequential
//! reference models, and algebraic invariants of the PCF concepts.

use proptest::prelude::*;
use stapl::containers::list::PList;
use stapl::core::domain::{Range1d, Range2d};
use stapl::core::interfaces::{AssociativeContainer, ElementRead, ElementWrite, PContainer};
use stapl::core::partition::{
    BalancedPartition, BlockCyclicPartition, BlockedPartition, IndexPartition, SplitterPartition,
};
use stapl::core::partition::KeyPartition;
use stapl::prelude::*;

fn cover_exactly_once(p: impl Into<IndexPartition>) {
    let p = p.into();
    let n = p.global_size();
    let mut seen = vec![0u8; n];
    for b in 0..p.num_subdomains() {
        for g in p.subdomain(b).iter() {
            seen[g] += 1;
            assert_eq!(p.find(g), b);
        }
    }
    assert!(seen.iter().all(|&c| c == 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Definition 9: every 1-D partition family covers the domain with
    /// disjoint sub-domains, and `find` inverts `subdomain`.
    #[test]
    fn partitions_are_partitions(n in 1usize..400, p in 1usize..12, block in 1usize..17) {
        cover_exactly_once(BalancedPartition::new(n, p));
        cover_exactly_once(BlockedPartition::new(n, block));
        cover_exactly_once(BlockCyclicPartition::new(n, p, block));
    }

    /// Ordered partitions preserve the element order across sub-domains
    /// (Definition 10) for contiguous families.
    #[test]
    fn ordered_partition_preserves_order(n in 1usize..300, p in 1usize..10) {
        let part = IndexPartition::from(BalancedPartition::new(n, p));
        let mut last: Option<usize> = None;
        for b in 0..part.num_subdomains() {
            for g in part.subdomain(b).iter() {
                if let Some(prev) = last {
                    prop_assert!(g == prev + 1, "linearization must be contiguous");
                }
                last = Some(g);
            }
        }
    }

    /// Range1d: `iter()` enumerates exactly the GIDs `contains` accepts,
    /// in order, each at its offset from `lo`.
    #[test]
    fn range1d_navigation(lo in 0usize..50, len in 1usize..60) {
        let d = Range1d::new(lo, lo + len);
        for (k, g) in d.iter().enumerate() {
            prop_assert_eq!(g, d.lo + k);
            prop_assert!(d.contains(&g));
        }
        prop_assert!(!d.contains(&d.hi));
        prop_assert!(lo == 0 || !d.contains(&(lo - 1)));
        prop_assert_eq!(d.iter().count(), len);
        prop_assert_eq!(d.len(), len);
    }

    /// Range2d row-major linearization: `offset` numbers the GIDs in
    /// row-major order.
    #[test]
    fn range2d_linearization(r in 1usize..8, c in 1usize..8) {
        let d = Range2d::with_shape(r, c);
        let row_major = d.rows.iter().flat_map(|i| d.cols.iter().map(move |j| (i, j)));
        for (k, g) in row_major.enumerate() {
            prop_assert!(d.contains(&g));
            prop_assert_eq!(d.offset(&g), k);
        }
        prop_assert!(!d.contains(&(r, 0)) && !d.contains(&(0, c)));
    }

    /// Splitter partitions map keys monotonically (Fig. 58's order
    /// preservation).
    #[test]
    fn splitter_partition_monotone(mut splitters in proptest::collection::vec(0i64..1000, 0..6)) {
        splitters.sort_unstable();
        splitters.dedup();
        let p = SplitterPartition::new(splitters);
        for k in (-50i64..1050).step_by(7) {
            prop_assert!(p.find(&k) <= p.find(&(k + 1)));
            prop_assert!(p.find(&k) < p.num_subdomains());
        }
    }
}

/// One pVector operation, as location 0 issues it: kind, index, value.
/// Kinds: insert, erase, push_back, set, get (element ops address the
/// committed size; an index is taken modulo it), commit, rebalance.
type VecOp = (u8, usize, u64);

/// The pVector commit contract, sequentially. Each location holds one block
/// of the committed layout. An insert or erase waits at the owner of its
/// index (an append, at the last location) and is replayed there, in issue
/// order, at the next commit: an insert before its offset clamped to the
/// block's live length, an erase at its offset clamped to the live last
/// element and skipped on an empty block. An element write or read
/// addresses the committed layout at once.
struct VecModel {
    blocks: Vec<Vec<u64>>,
    /// Per owner: (index, `Some(value)` to insert or `None` to erase).
    edits: Vec<Vec<(usize, Option<u64>)>>,
}

impl VecModel {
    fn balanced(vals: Vec<u64>, p: usize) -> Self {
        let (base, extra) = (vals.len() / p, vals.len() % p);
        let mut rest = vals.into_iter();
        let blocks = (0..p).map(|l| rest.by_ref().take(base + usize::from(l < extra)).collect()).collect();
        VecModel { blocks, edits: vec![Vec::new(); p] }
    }

    fn len(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// (owner, offset) of index `g` in the committed layout.
    fn locate(&self, g: usize) -> (usize, usize) {
        let mut lo = 0;
        for (l, b) in self.blocks.iter().enumerate() {
            if g < lo + b.len() {
                return (l, g - lo);
            }
            lo += b.len();
        }
        unreachable!("index {g} past the end")
    }

    fn commit(&mut self) {
        let mut lo = 0;
        for (block, edits) in self.blocks.iter_mut().zip(&mut self.edits) {
            let first = lo;
            lo += block.len();
            for (g, v) in edits.drain(..) {
                let off = g - first;
                match v {
                    Some(v) => block.insert(off.min(block.len()), v),
                    None if !block.is_empty() => {
                        block.remove(off.min(block.len() - 1));
                    }
                    None => {}
                }
            }
        }
    }

    /// Applies `op`; a read returns what it must see.
    fn apply(&mut self, (kind, i, v): VecOp) -> Option<u64> {
        let n = self.len();
        let last = self.blocks.len() - 1;
        let (owner, edit) = match kind {
            0 if i % (n + 1) < n => (self.locate(i % (n + 1)).0, (i % (n + 1), Some(v))),
            0 | 2 => (last, (usize::MAX, Some(v))),
            1 if n > 0 => (self.locate(i % n).0, (i % n, None)),
            3 if n > 0 => {
                let (l, off) = self.locate(i % n);
                self.blocks[l][off] = v;
                return None;
            }
            4 if n > 0 => {
                let (l, off) = self.locate(i % n);
                return Some(self.blocks[l][off]);
            }
            5 => {
                self.commit();
                return None;
            }
            6 => {
                self.commit();
                *self = VecModel::balanced(self.blocks.concat(), last + 1);
                return None;
            }
            _ => return None,
        };
        self.edits[owner].push(edit);
        None
    }
}

proptest! {
    // Distributed model checks spawn threads per case; keep cases modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// pArray under a random sequence of scattered writes equals a Vec
    /// written with the same final values.
    #[test]
    fn parray_matches_vec_model(
        n in 4usize..64,
        writes in proptest::collection::vec((0usize..64, 0u64..1000), 1..40),
    ) {
        let writes: Vec<(usize, u64)> =
            writes.into_iter().map(|(i, v)| (i % n, v)).collect();
        let mut model = vec![0u64; n];
        // Last-writer-wins in program order: location 0 performs all
        // writes in order (same-source same-element ordering guarantee).
        for (i, v) in &writes {
            model[*i] = *v;
        }
        let w2 = writes.clone();
        let got = stapl::rts::execute_collect(RtsConfig::default(), 2, move |loc| {
            let a = PArray::new(loc, n, 0u64);
            loc.rmi_fence();
            if loc.id() == 0 {
                for (i, v) in &w2 {
                    a.set_element(*i, *v);
                }
            }
            loc.rmi_fence();
            (0..n).map(|i| a.get_element(i)).collect::<Vec<_>>()
        });
        prop_assert_eq!(&got[0], &model);
        prop_assert_eq!(&got[1], &model);
    }

    /// pList: per-location appends preserve FIFO order inside each
    /// location's segment and concatenate by location order.
    #[test]
    fn plist_matches_segmented_model(
        counts in proptest::collection::vec(0usize..12, 2..4)
    ) {
        let nlocs = counts.len();
        let c2 = counts.clone();
        let got = stapl::rts::execute_collect(RtsConfig::default(), nlocs, move |loc| {
            let l: PList<usize> = PList::new(loc);
            for k in 0..c2[loc.id()] {
                l.push_anywhere(loc.id() * 100 + k);
            }
            l.commit();
            l.collect_ordered()
        });
        let mut model = Vec::new();
        for (id, c) in counts.iter().enumerate() {
            for k in 0..*c {
                model.push(id * 100 + k);
            }
        }
        prop_assert_eq!(&got[0], &model);
    }

    /// pHashMap equals a HashMap given single-writer keys.
    #[test]
    fn phashmap_matches_hashmap_model(
        pairs in proptest::collection::vec((0u32..100, 0u64..1000), 1..50),
        erases in proptest::collection::vec(0u32..100, 0..20),
    ) {
        let mut model = std::collections::HashMap::new();
        for (k, v) in &pairs {
            model.insert(*k, *v);
        }
        for k in &erases {
            model.remove(k);
        }
        let p2 = pairs.clone();
        let e2 = erases.clone();
        let model2 = model.clone();
        let sizes = stapl::rts::execute_collect(RtsConfig::default(), 2, move |loc| {
            let model = &model2;
            let m: stapl::containers::associative::PHashMap<u32, u64> =
                stapl::containers::associative::PHashMap::new(loc);
            if loc.id() == 0 {
                for (k, v) in &p2 {
                    m.insert_async(*k, *v);
                }
            }
            m.commit();
            if loc.id() == 1 {
                for k in &e2 {
                    m.erase_async(*k);
                }
            }
            m.commit();
            for k in 0..100u32 {
                let got = m.find(k);
                assert_eq!(got, model.get(&k).copied(), "key {k}");
            }
            m.global_size()
        });
        prop_assert_eq!(sizes[0], model.len());
    }

    /// p_sort equals the std sort of the same multiset.
    #[test]
    fn psort_matches_std_sort(mut vals in proptest::collection::vec(0u64..500, 1..80)) {
        let input = vals.clone();
        vals.sort_unstable();
        let n = input.len();
        let got = stapl::rts::execute_collect(RtsConfig::default(), 2, move |loc| {
            let a = PArray::new(loc, n, 0u64);
            p_generate(&a, |i| input[i]);
            p_sort(&a);
            (0..n).map(|i| a.get_element(i)).collect::<Vec<_>>()
        });
        prop_assert_eq!(&got[0], &vals);
    }

    /// p_partial_sum with `+` equals the sequential inclusive scan.
    #[test]
    fn prefix_sum_matches_scan(vals in proptest::collection::vec(0u64..100, 1..60)) {
        let n = vals.len();
        let mut expect = vals.clone();
        for i in 1..n {
            expect[i] += expect[i - 1];
        }
        let v2 = vals.clone();
        let got = stapl::rts::execute_collect(RtsConfig::default(), 3, move |loc| {
            let a = PArray::new(loc, n, 0u64);
            p_generate(&a, |i| v2[i]);
            p_partial_sum(&a, 0, |a, b| a + b);
            (0..n).map(|i| a.get_element(i)).collect::<Vec<_>>()
        });
        prop_assert_eq!(&got[0], &expect);
    }

    /// List ranking positions are the inverse of the successor chain for
    /// an arbitrary permutation list.
    #[test]
    fn list_ranking_inverts_permutation(seed in 0u64..10_000) {
        let n = 24usize;
        // Deterministic permutation from the seed.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        for i in (1..n).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            order.swap(i, (s as usize) % (i + 1));
        }
        let ord2 = order.clone();
        let got = stapl::rts::execute_collect(RtsConfig::default(), 2, move |loc| {
            let succ = PArray::from_fn(loc, n, |i| {
                let at = ord2.iter().position(|&x| x == i).unwrap();
                if at + 1 < n { ord2[at + 1] } else { stapl::algorithms::list_ranking::NIL }
            });
            let pos = list_positions(&succ, n);
            (0..n).map(|i| pos.get_element(i)).collect::<Vec<_>>()
        });
        for (expect, &elem) in order.iter().enumerate() {
            prop_assert_eq!(got[0][elem], expect as u64);
        }
    }
}

proptest! {
    // Clamped replays need several edits on one block in one epoch: many
    // short cases, each a few threads.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// pVector against [`VecModel`]: location 0 issues a random sequence of
    /// element and structural operations, every location joins the commits
    /// and rebalances, at P = 1, 2 and 3.
    #[test]
    fn pvector_matches_commit_model(
        n in 0usize..20,
        p in 1usize..4,
        ops in proptest::collection::vec((0u8..7, 0usize..64, 0u64..1000), 1..40),
    ) {
        let mut model = VecModel::balanced((0..n as u64).collect(), p);
        let reads: Vec<u64> = ops.iter().filter_map(|&op| model.apply(op)).collect();
        model.commit();
        let ops2 = ops.clone();
        let got = stapl::rts::execute_collect(RtsConfig::default(), p, move |loc| {
            let v = PVector::from_fn(loc, n, |i| i as u64);
            let mut reads = Vec::new();
            for &(kind, i, x) in &ops2 {
                let size = v.global_size();
                match kind {
                    5 => v.commit(),
                    6 => v.rebalance(),
                    _ if loc.id() != 0 => {}
                    0 => v.insert_async(i % (size + 1), x),
                    1 if size > 0 => v.erase_async(i % size),
                    2 => v.push_back(x),
                    3 if size > 0 => v.array().set_element(i % size, x),
                    4 if size > 0 => reads.push(v.array().get_element(i % size)),
                    _ => {}
                }
            }
            v.commit();
            (reads, v.collect_ordered())
        });
        prop_assert_eq!(&got[0].0, &reads);
        for (_, all) in &got {
            prop_assert_eq!(all, &model.blocks.concat());
        }
    }
}
