//! The STL-like pAlgorithms (the `p_generate` / `p_for_each` /
//! `p_accumulate` family evaluated in Figs. 33, 40 and 60; the paper's
//! `p_accumulate` is [`p_reduce`], and [`p_sum`] its numeric case).
//!
//! Two flavors are provided, mirroring the paper:
//!
//! * **Container-native** algorithms take any container implementing
//!   [`LocalIteration`] and process each location's elements in place —
//!   the native-view fast path (no communication except the final fence /
//!   reduction). This works uniformly for pArray (a pVector's `array()`
//!   included), pList and pMatrix, which is exactly the genericity Fig. 40
//!   and Fig. 60 measure.
//! * **View-based** algorithms (suffix `_view`) take any
//!   [`ViewRead`]/[`ViewWrite`] and process the view's chunks through the
//!   chunk-at-a-time primitives (`for_each_chunk`/`fill_from`/
//!   `apply_chunks`): localized views run at slice speed, unlocalized
//!   ones pay element-access routing.
//!
//! The `p_copy`/`p_transform`/`p_equal`/`p_inner_product` family requires
//! [`RangedContainer`] and walks each local storage piece of the first
//! container cut at the second's run boundaries: two runs stored here are
//! two borrowed slices, any other run is **one bulk RMI per (owner,
//! contiguous run)** — O(runs) messages on misaligned distributions.
//!
//! All algorithms are **collective**.

use stapl_core::distribution::GidRun;
use stapl_core::domain::Range1d;
use stapl_core::gid::{Bcid, Gid};
use stapl_core::interfaces::{ElementWrite, LocalIteration, RangedContainer};
use stapl_rts::Counter;
use stapl_views::view::{ViewRead, ViewWrite};

/// `p_generate`: assigns `gen(gid)` to every element.
pub fn p_generate<C, G, F>(c: &C, gen: F)
where
    G: Gid,
    C: LocalIteration<G> + ElementWrite<G>,
    F: Fn(G) -> C::Value,
{
    c.for_each_local_mut(|g, v| *v = gen(g));
    c.location().rmi_fence();
}

/// `p_for_each`: applies `f` to every element in place.
pub fn p_for_each<C, G, F>(c: &C, f: F)
where
    G: Gid,
    C: LocalIteration<G>,
    F: Fn(&mut C::Value),
{
    c.for_each_local_mut(|_, v| f(v));
    c.location().rmi_fence();
}

/// `p_reduce`: the general reduction — `map` extracts a summary from each
/// element, `combine` merges summaries (associative). Returns the global
/// reduction on every location; `None` for an empty container.
pub fn p_reduce<C, G, A, M, R>(c: &C, map: M, combine: R) -> Option<A>
where
    G: Gid,
    C: LocalIteration<G>,
    A: Send + Clone + 'static,
    M: Fn(G, &C::Value) -> A,
    R: Fn(A, A) -> A + Copy,
{
    let mut acc: Option<A> = None;
    c.for_each_local(|g, v| {
        let x = map(g, v);
        acc = Some(match acc.take() {
            None => x,
            Some(a) => combine(a, x),
        });
    });
    let partials = c.location().allgather(acc);
    partials.into_iter().flatten().reduce(combine)
}

/// `p_reduce` for numeric sums — the `p_accumulate` the paper benchmarks.
pub fn p_sum<C, G>(c: &C) -> u64
where
    G: Gid,
    C: LocalIteration<G, Value = u64>,
{
    p_reduce(c, |_, v| *v, |a, b| a.wrapping_add(b)).unwrap_or(0)
}

/// `p_count_if`: number of elements satisfying `pred`.
pub fn p_count_if<C, G, P>(c: &C, pred: P) -> usize
where
    G: Gid,
    C: LocalIteration<G>,
    P: Fn(&C::Value) -> bool,
{
    let mut n = 0u64;
    c.for_each_local(|_, v| {
        if pred(v) {
            n += 1;
        }
    });
    c.location().allreduce_sum(n) as usize
}

/// `p_min_element`: (GID, value) of a minimum element.
pub fn p_min_element<C, G>(c: &C) -> Option<(G, C::Value)>
where
    G: Gid,
    C: LocalIteration<G>,
    C::Value: Ord + Send + Clone,
{
    p_reduce(
        c,
        |g, v| (g, v.clone()),
        |a, b| if b.1 < a.1 { b } else { a },
    )
}

/// Every local storage piece of `a`, cut at the boundaries of `b`'s storage
/// runs: (`a`'s bcid, `b`'s run) in `a`'s storage order — the cells the
/// pairwise family walks. Metadata only, one `runs` call per piece.
fn cuts<'c, A, B>(a: &'c A, b: &'c B) -> impl Iterator<Item = (Bcid, GidRun)> + 'c
where
    A: RangedContainer,
    B: RangedContainer,
{
    a.local_pieces()
        .into_iter()
        .flat_map(move |(bcid, piece)| b.runs(piece).into_iter().map(move |run| (bcid, run)))
}

/// Runs `f` on `c`'s values over `gids`, a run inside one of its local
/// storage pieces: on the storage slice itself.
pub(crate) fn values<C: RangedContainer, R>(
    c: &C,
    bcid: Bcid,
    gids: Range1d,
    f: impl FnOnce(&[C::Value]) -> R,
) -> R {
    c.with_slice(bcid, gids, f).expect("a local piece must lend its slice")
}

/// The read walk of the pairwise family: `f(a's values, b's values)` over
/// every cell of [`cuts`] until it returns `false`. A run of `b` stored
/// here is borrowed in place (counted as one localized chunk, as
/// `get_range` counts it); any other run is one `get_range` — fetched
/// *before* `a`'s slice is borrowed, so no future is awaited under a
/// representative borrow.
fn zip_runs<A, B>(a: &A, b: &B, mut f: impl FnMut(&[A::Value], &[B::Value]) -> bool)
where
    A: RangedContainer,
    B: RangedContainer,
{
    for (bcid, run) in cuts(a, b) {
        let near = b.with_slice(run.bcid, run.gids, |sb| values(a, bcid, run.gids, |sa| f(sa, sb)));
        let go = match near {
            Some(go) => {
                a.location().count(Counter::localized_chunks, 1);
                go
            }
            None => {
                let theirs = b.get_range(run.gids);
                values(a, bcid, run.gids, |sa| f(sa, &theirs))
            }
        };
        if !go {
            return;
        }
    }
}

/// The write walk of the pairwise family over every cell of [`cuts`]: a
/// run of `dst` stored here is written in place, `near(src's values, dst's
/// slice)` under both borrows (one localized chunk, as `set_range` counts
/// it); any other run is `far(first GID, src's values)`, which ships it
/// with `dst.set_range*` (asynchronous: nothing is awaited under `src`'s
/// borrow).
fn write_runs<S: RangedContainer, D: RangedContainer>(
    src: &S,
    dst: &D,
    near: impl Fn(&[S::Value], &mut [D::Value]),
    far: impl Fn(usize, &[S::Value]),
) {
    for (bcid, run) in cuts(src, dst) {
        // `dst` may be `src` itself (a transform in place): one storage
        // cannot be borrowed both ways, so such a cell is copied out first.
        let at = src.with_slice(bcid, run.gids, |s| s.as_ptr().cast::<()>());
        if at.is_some() && at == dst.with_slice(run.bcid, run.gids, |d| d.as_ptr().cast::<()>()) {
            far(run.gids.lo, &values(src, bcid, run.gids, |s| s.to_vec()));
            continue;
        }
        let served = dst.with_slice_mut(run.bcid, run.gids, |d| values(src, bcid, run.gids, |s| near(s, d)));
        match served {
            Some(()) => src.location().count(Counter::localized_chunks, 1),
            None => values(src, bcid, run.gids, |s| far(run.gids.lo, s)),
        }
    }
    src.location().rmi_fence();
}

/// `p_copy`: copies `src` into `dst` slice by slice: a local run of `src`
/// over a local run of `dst` is one slice-to-slice copy, each misaligned
/// (owner, run) of `dst` one bulk RMI.
pub fn p_copy<S, D>(src: &S, dst: &D)
where
    S: RangedContainer,
    D: RangedContainer<Value = S::Value>,
{
    write_runs(src, dst, |s, d| d.clone_from_slice(s), |lo, s| dst.set_range(lo, s));
}

/// `p_copy` for containers without bulk-range transport (non-`usize`
/// GIDs: pList, pMatrix, …): one `set_element` per element.
pub fn p_copy_elementwise<S, D, G>(src: &S, dst: &D)
where
    G: Gid,
    S: LocalIteration<G>,
    D: ElementWrite<G, Value = S::Value>,
{
    src.for_each_local(|g, v| dst.set_element(g, v.clone()));
    src.location().rmi_fence();
}

/// `p_transform`: `dst[g] = f(src[g])`, slice by slice like [`p_copy`];
/// `dst` may be `src` (runs stored here are then copied out first).
pub fn p_transform<S, D, F, W>(src: &S, dst: &D, f: F)
where
    S: RangedContainer,
    D: RangedContainer<Value = W>,
    W: Send + Clone + 'static,
    F: Fn(&S::Value) -> W,
{
    write_runs(
        src,
        dst,
        |s, d| d.iter_mut().zip(s).for_each(|(d, s)| *d = f(s)),
        |lo, s| dst.set_range(lo, &s.iter().map(&f).collect::<Vec<_>>()),
    );
}

/// `p_equal`: true when both containers hold equal elements at every GID.
/// Slice against slice per run, short-circuiting across runs after the
/// first mismatch.
pub fn p_equal<A, B>(a: &A, b: &B) -> bool
where
    A: RangedContainer,
    B: RangedContainer<Value = A::Value>,
    A::Value: PartialEq,
{
    let mut ok = true;
    zip_runs(a, b, |sa, sb| {
        ok = sa == sb;
        ok
    });
    a.location().allreduce(ok, |x, y| x && y)
}

/// `p_inner_product` over two u64 containers sharing GIDs, one pair of
/// slices (or one bulk fetch) per run.
pub fn p_inner_product<A, B>(a: &A, b: &B) -> u64
where
    A: RangedContainer<Value = u64>,
    B: RangedContainer<Value = u64>,
{
    let mut acc = 0u64;
    zip_runs(a, b, |sa, sb| {
        acc = sa.iter().zip(sb).fold(acc, |t, (x, y)| t.wrapping_add(x.wrapping_mul(*y)));
        true
    });
    a.location().allreduce_sum(acc)
}

// ---------------------------------------------------------------------
// View-based variants
// ---------------------------------------------------------------------

/// `p_for_each` over a view: chunk-at-a-time — localized views mutate
/// their chunks through direct slice borrows (and one `apply_range` RMI
/// per remote run); unlocalized views fall back to owner-side `apply`
/// per element, exactly the old behavior.
pub fn p_for_each_view<V, F>(v: &V, f: F)
where
    V: ViewWrite,
    F: Fn(&mut V::Value) + Clone + Send + 'static,
{
    v.apply_chunks(f);
    v.location().rmi_fence();
}

/// `p_generate` over a view: values are produced per chunk and written
/// with one slice write (local) or one bulk RMI (remote) per run.
pub fn p_generate_view<V, F>(v: &V, gen: F)
where
    V: ViewWrite,
    F: Fn(usize) -> V::Value,
{
    v.fill_from(|r| r.iter().map(&gen).collect());
    v.location().rmi_fence();
}

/// Reduction over a view, folding one chunk slice at a time.
pub fn p_reduce_view<V, A, M, R>(v: &V, map: M, combine: R) -> Option<A>
where
    V: ViewRead,
    A: Send + Clone + 'static,
    M: Fn(usize, V::Value) -> A,
    R: Fn(A, A) -> A + Copy,
{
    let mut acc: Option<A> = None;
    v.for_each_chunk(|lo, s| {
        for (k, val) in s.iter().enumerate() {
            let x = map(lo + k, val.clone());
            acc = Some(match acc.take() {
                None => x,
                Some(a) => combine(a, x),
            });
        }
    });
    let partials = v.location().allgather(acc);
    partials.into_iter().flatten().reduce(combine)
}

/// `p_adjacent_difference` expressed with the overlap view (Fig. 2's
/// motivating algorithm): `dst[i] = src[i+1] - src[i]`.
pub fn p_adjacent_difference<C, D>(src: &stapl_views::array_view::OverlapView<C>, dst: &D)
where
    C: ViewRead<Value = i64>,
    D: ElementWrite<usize, Value = i64>,
{
    for wr in src.local_windows() {
        for i in wr.iter() {
            let w = src.window(i);
            dst.set_element(i, w[1] - w[0]);
        }
    }
    src.location().rmi_fence();
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_containers::array::PArray;
    use stapl_containers::list::PList;
    use stapl_containers::matrix::PMatrix;
    use stapl_core::interfaces::{ElementRead, PContainer};
    use stapl_core::partition::MatrixLayout;
    use stapl_views::array_view::{ArrayView, BalancedView, OverlapView};
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn generate_for_each_accumulate_on_array() {
        execute(RtsConfig::default(), 3, |loc| {
            let a = PArray::new(loc, 30, 0u64);
            p_generate(&a, |g| g as u64);
            p_for_each(&a, |v| *v += 1);
            let sum = p_sum(&a);
            assert_eq!(sum, (1..=30).sum::<u64>());
            let _ = loc;
        });
    }

    #[test]
    fn same_algorithms_work_on_plist() {
        // The genericity Fig. 40 measures: identical algorithm calls on
        // pArray and pList.
        execute(RtsConfig::default(), 2, |loc| {
            let l: PList<u64> = PList::new(loc);
            for i in 0..10 {
                l.push_anywhere(i + loc.id() as u64 * 100);
            }
            l.commit();
            p_for_each(&l, |v| *v *= 2);
            let sum = p_reduce(&l, |_, v| *v, |a, b| a + b).unwrap();
            let expect: u64 = (0..10).map(|i| i * 2).sum::<u64>()
                + (0..10).map(|i| (i + 100) * 2).sum::<u64>();
            assert_eq!(sum, expect);
        });
    }

    #[test]
    fn same_algorithms_work_on_pmatrix() {
        execute(RtsConfig::default(), 2, |loc| {
            let m = PMatrix::from_fn(loc, 4, 4, MatrixLayout::RowBlocked, |r, c| (r * 4 + c) as u64);
            let min = p_min_element(&m).unwrap();
            assert_eq!(min.1, 0);
            assert_eq!(min.0, (0, 0));
            let n = p_count_if(&m, |v| *v % 2 == 0);
            assert_eq!(n, 8);
            let _ = loc;
        });
    }

    #[test]
    fn count_find_min_max() {
        execute(RtsConfig::default(), 4, |loc| {
            let a = PArray::from_fn(loc, 40, |i| (i as i64 - 20).unsigned_abs());
            assert_eq!(p_count_if(&a, |v| *v == 0), 1);
            let (g, v) = p_min_element(&a).unwrap();
            assert_eq!((g, v), (20, 0));
            let _ = loc;
        });
    }

    #[test]
    fn fill_replace_copy_transform_equal() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::from_fn(loc, 12, |i| i as u64);
            let b = PArray::new(loc, 12, 0u64);
            p_copy(&a, &b);
            assert!(p_equal(&a, &b));
            p_for_each(&b, |v| {
                if *v < 6 {
                    *v = 0;
                }
            });
            assert!(!p_equal(&a, &b));
            let c = PArray::new(loc, 12, 0u64);
            p_transform(&a, &c, |v| v * v);
            assert_eq!(c.get_element(5), 25);
            // Phase separation: without it one location's fill could
            // overwrite c[5] before the other's remote read arrives.
            loc.barrier();
            p_generate(&c, |_| 7);
            assert_eq!(p_count_if(&c, |v| *v == 7), 12);
            let _ = loc;
        });
    }

    #[test]
    fn inner_product() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::from_fn(loc, 10, |i| i as u64);
            let b = PArray::from_fn(loc, 10, |_| 2u64);
            assert_eq!(p_inner_product(&a, &b), 2 * (0..10).sum::<u64>());
            let _ = loc;
        });
    }

    #[test]
    fn copy_transform_equal_across_misaligned_distributions() {
        use stapl_core::mapper::{CyclicMapper, GeneralMapper};
        use stapl_core::partition::{BlockCyclicPartition, BlockedPartition, IndexPartition};
        execute(RtsConfig::default(), 3, |loc| {
            // src block-cyclic, dst blocked with rotated placement: every
            // chunk boundary is misaligned.
            let src = PArray::with_partition(
                loc,
                BlockCyclicPartition::new(40, 3, 4),
                CyclicMapper::new(loc.nlocs()),
                0u64,
            );
            p_generate(&src, |g| g as u64 + 1);
            let blocked = IndexPartition::from(BlockedPartition::new(40, 9));
            let parts = blocked.num_subdomains();
            let dst = PArray::with_partition(
                loc,
                blocked,
                GeneralMapper::new(
                    loc.nlocs(),
                    (0..parts).map(|b| (b + 2) % loc.nlocs()).collect(),
                ),
                0u64,
            );
            p_copy(&src, &dst);
            assert!(p_equal(&src, &dst));
            for g in 0..40 {
                assert_eq!(dst.get_element(g), g as u64 + 1);
            }
            loc.barrier();
            let squared = PArray::new(loc, 40, 0u64);
            p_transform(&src, &squared, |v| v * v);
            for g in 0..40 {
                assert_eq!(squared.get_element(g), (g as u64 + 1) * (g as u64 + 1));
            }
            loc.barrier();
            assert_eq!(
                p_inner_product(&src, &dst),
                (1..=40u64).map(|x| x * x).sum::<u64>()
            );
            // A genuine mismatch is detected.
            if loc.id() == 0 {
                dst.set_element(17, 0);
            }
            loc.rmi_fence();
            assert!(!p_equal(&src, &dst));
        });
    }

    #[test]
    fn fill_and_replace_reach_every_local_storage_piece() {
        use stapl_containers::vector::PVector;
        use stapl_core::mapper::CyclicMapper;
        use stapl_core::partition::BlockCyclicPartition;
        execute(RtsConfig::default(), 2, |loc| {
            // Several slices per location, one block.
            let cyclic = PArray::with_partition(
                loc,
                BlockCyclicPartition::new(17, 4, 2),
                CyclicMapper::new(loc.nlocs()),
                0u64,
            );
            let v = PVector::from_fn(loc, 10, |i| i as u32);
            let v = v.array();
            p_generate(&cyclic, |_| 7);
            p_for_each(v, |x| {
                if *x % 2 == 0 {
                    *x = 100;
                }
            });
            assert_eq!(p_count_if(&cyclic, |x| *x == 7), 17);
            assert_eq!(p_count_if(v, |x| *x == 100), 5);
            assert_eq!(v.get_element(9), 9);
        });
    }

    #[test]
    fn fill_and_replace_fall_back_without_slices() {
        // pList's elements live one per node: a fill and a replace walk
        // them element by element and must still be correct.
        execute(RtsConfig::default(), 2, |loc| {
            let l: PList<u64> = PList::new(loc);
            for i in 0..12 {
                l.push_anywhere(i);
            }
            l.commit();
            p_generate(&l, |_| 5);
            assert_eq!(p_count_if(&l, |v| *v == 5), 24);
            p_for_each(&l, |v| {
                if *v == 5 {
                    *v = 9;
                }
            });
            assert_eq!(p_count_if(&l, |v| *v == 9), 24);
        });
    }

    #[test]
    fn view_algorithms_match_on_localized_and_fallback_views() {
        execute(RtsConfig::default(), 3, |loc| {
            // Same computation through the localized native view and the
            // (element-fallback) balanced view must agree.
            let a = PArray::from_fn(loc, 30, |i| i as u64);
            let b = PArray::from_fn(loc, 30, |i| i as u64);
            let va = ArrayView::new(a.clone());
            let vb = BalancedView::with_parts(ArrayView::new(b.clone()), 7);
            p_for_each_view(&va, |x| *x = *x * 3 + 1);
            p_for_each_view(&vb, |x| *x = *x * 3 + 1);
            assert!(p_equal(&a, &b));
            let ra = p_reduce_view(&va, |_, x| x, |p, q| p + q);
            let rb = p_reduce_view(&vb, |_, x| x, |p, q| p + q);
            assert_eq!(ra, rb);
            loc.barrier();
            p_generate_view(&va, |k| k as u64 % 13);
            p_generate_view(&vb, |k| k as u64 % 13);
            assert!(p_equal(&a, &b));
        });
    }

    #[test]
    fn view_based_for_each_balanced() {
        execute(RtsConfig::default(), 3, |loc| {
            let a = PArray::from_fn(loc, 20, |i| i as u64);
            let v = BalancedView::new(ArrayView::new(a.clone()));
            p_for_each_view(&v, |x| *x += 100);
            assert_eq!(a.get_element(0), 100);
            assert_eq!(a.get_element(19), 119);
            let sum = p_reduce_view(&v, |_, x| x, |p, q| p + q).unwrap();
            assert_eq!(sum, (100..120).sum::<u64>());
            let _ = loc;
        });
    }

    #[test]
    fn generate_view_writes_all() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::new(loc, 9, 0i64);
            let v = ArrayView::new(a.clone());
            p_generate_view(&v, |k| -(k as i64));
            assert_eq!(a.get_element(8), -8);
            let _ = loc;
        });
    }

    #[test]
    fn adjacent_difference_via_overlap_view() {
        execute(RtsConfig::default(), 2, |loc| {
            let src = PArray::from_fn(loc, 10, |i| (i * i) as i64);
            let dst = PArray::new(loc, 9, 0i64);
            let ov = OverlapView::new(ArrayView::new(src), 1, 0, 1);
            assert_eq!(ov.num_windows(), 9);
            p_adjacent_difference(&ov, &dst);
            for i in 0..9 {
                // (i+1)^2 - i^2 = 2i + 1
                assert_eq!(dst.get_element(i), (2 * i + 1) as i64);
            }
            let _ = loc;
        });
    }

    #[test]
    fn reduce_on_empty_container() {
        execute(RtsConfig::default(), 2, |loc| {
            let l: PList<u64> = PList::new(loc);
            l.commit();
            assert_eq!(p_reduce(&l, |_, v| *v, |a, b| a + b), None);
            assert_eq!(p_sum(&l), 0);
            let _ = loc;
        });
    }
}
