//! pAlgorithms ported onto the PARAGRAPH executor: the `_pg` entry
//! points.
//!
//! Each `_pg` function is semantically identical to its SPMD counterpart
//! in [`map_func`](crate::map_func) but executes through a
//! [`PRange`](stapl_paragraph::prange::PRange) task graph scheduled by the
//! per-location [`Executor`] — so skewed or irregular workloads can be
//! rebalanced by work stealing instead of idling entire locations at the
//! closing fence. The SPMD versions remain the fast path for regular
//! workloads (no per-task scheduling overhead); pick `_pg` when the
//! per-element cost varies or is dominated by latency.
//!
//! Reductions fold payloads in arrival order, so `combine` must be
//! **commutative** as well as associative (the same requirement the RTS
//! collectives already impose in practice).

use std::cell::RefCell;

use stapl_paragraph::executor::{ExecPolicy, Executor};
use stapl_paragraph::prange::{map_task_graph, reduce_task_graph, TaskKind};
use stapl_views::view::{ViewRead, ViewWrite};

/// `p_generate` on the executor: assigns `gen(k)` to every view index.
/// The generator runs on whichever location executes the task (stolen
/// tasks compute at the thief), and the write routes to the owner.
/// **Collective.**
pub fn p_generate_pg<V, F>(v: &V, policy: ExecPolicy, gen: F)
where
    V: ViewWrite,
    F: Fn(usize) -> V::Value,
{
    let loc = v.location().clone();
    let pr = map_task_graph(v, 0);
    Executor::new(&pr, policy).run::<(), _>(&loc, |task, _| {
        for k in task.range.iter() {
            v.set(k, gen(k));
        }
        None
    });
}

/// `p_reduce` on the executor: a [`reduce_task_graph`] whose leaf tasks
/// fold their range, per-location combine tasks fold the leaf payloads
/// flowing along the dependence edges, and the root task (location 0)
/// folds the combines; the result is broadcast to every location.
/// `combine` must be commutative and associative. **Collective.**
pub fn p_reduce_pg<V, A, M, R>(v: &V, policy: ExecPolicy, map: M, combine: R) -> Option<A>
where
    V: ViewRead,
    A: Send + Clone + 'static,
    M: Fn(usize, V::Value) -> A,
    R: Fn(A, A) -> A + Copy,
{
    let loc = v.location().clone();
    let pr = reduce_task_graph(v, 0);
    let root_out: RefCell<Option<A>> = RefCell::new(None);
    Executor::new(&pr, policy).run::<A, _>(&loc, |task, inputs| match task.kind {
        TaskKind::Map => {
            let mut acc: Option<A> = None;
            for k in task.range.iter() {
                let x = map(k, v.get(k));
                acc = Some(match acc.take() {
                    None => x,
                    Some(a) => combine(a, x),
                });
            }
            acc
        }
        TaskKind::Combine => inputs.into_iter().reduce(combine),
        TaskKind::Root => {
            let r = inputs.into_iter().reduce(combine);
            *root_out.borrow_mut() = r.clone();
            r
        }
    });
    loc.broadcast(0, root_out.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_func::{p_generate_view, p_reduce_view};
    use stapl_containers::array::PArray;
    use stapl_containers::matrix::PMatrix;
    use stapl_containers::vector::PVector;
    use stapl_core::interfaces::ElementRead;
    use stapl_core::partition::MatrixLayout;
    use stapl_rts::{execute, RtsConfig};
    use stapl_views::array_view::{ArrayView, BalancedView};

    /// The equivalence the `_pg` entry points promise: results identical
    /// to their SPMD counterparts, with and without stealing, on a
    /// localized view and on an unlocalized one over a pVector's array.
    #[test]
    fn generate_pg_matches_spmd() {
        for policy in [ExecPolicy::default(), ExecPolicy::no_stealing()] {
            execute(RtsConfig::default(), 3, |loc| {
                let spmd = PArray::new(loc, 31, 0i64);
                let pg = PArray::new(loc, 31, 0i64);
                p_generate_view(&ArrayView::new(spmd.clone()), |k| -(k as i64) * 5);
                p_generate_pg(&ArrayView::new(pg.clone()), policy, |k| -(k as i64) * 5);
                for i in 0..31 {
                    assert_eq!(spmd.get_element(i), pg.get_element(i));
                }

                let v = PVector::new(loc, 23, 0u64);
                p_generate_pg(&BalancedView::new(ArrayView::new(v.array().clone())), policy, |k| {
                    k as u64 + 100
                });
                for i in 0..23 {
                    assert_eq!(v.array().get_element(i), i as u64 + 100);
                }
            });
        }
    }

    #[test]
    fn reduce_pg_matches_spmd_on_array_vector_matrix() {
        for policy in [ExecPolicy::default(), ExecPolicy::no_stealing()] {
            execute(RtsConfig::default(), 3, |loc| {
                let a = PArray::from_fn(loc, 37, |i| i as u64);
                let av = ArrayView::new(a);
                assert_eq!(
                    p_reduce_pg(&av, policy, |_, x| x, |p, q| p + q),
                    p_reduce_view(&av, |_, x| x, |p, q| p + q),
                );

                let v = PVector::from_fn(loc, 19, |i| i as u64 * 2);
                let vv = ArrayView::new(v.array().clone());
                assert_eq!(
                    p_reduce_pg(&vv, policy, |_, x| x, u64::max),
                    p_reduce_view(&vv, |_, x| x, u64::max),
                );

                let m = PMatrix::from_fn(loc, 4, 5, MatrixLayout::RowBlocked, |r, c| {
                    (r * 5 + c) as u64
                });
                let mv = ArrayView::new(m.linear().clone());
                assert_eq!(
                    p_reduce_pg(&mv, policy, |_, x| x, |p, q| p + q),
                    p_reduce_view(&mv, |_, x| x, |p, q| p + q),
                );
                let _ = loc;
            });
        }
    }

    #[test]
    fn reduce_pg_empty_view_is_none() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::new(loc, 0, 0u64);
            let av = ArrayView::new(a);
            assert_eq!(p_reduce_pg(&av, ExecPolicy::default(), |_, x| x, |p, q| p + q), None);
            let _ = loc;
        });
    }
}
