//! Numeric pAlgorithms: parallel prefix sums (`p_partial_sum`, the
//! "important parallel algorithmic technique" of Chapter III) and scans.
//!
//! A scan is a loop over storage slices: each location scans its storage
//! pieces in place, the piece totals (keyed by the piece's first GID, which
//! *is* the prefix order whatever the partition and mapper) meet in one
//! collective, and every piece but the globally first takes its carry in a
//! second slice loop — at P=1 with one piece the algorithm is one pass.

use stapl_core::domain::Range1d;
use stapl_core::gid::Bcid;
use stapl_core::interfaces::RangedContainer;

/// Runs `f` on the values of one local storage piece, in place.
fn on_piece<C: RangedContainer, R>(
    c: &C,
    bcid: Bcid,
    piece: Range1d,
    f: impl FnOnce(&mut [C::Value]) -> R,
) -> R {
    c.with_slice_mut(bcid, piece, f).expect("a local piece must lend its slice")
}

/// `p_partial_sum`: in-place inclusive prefix sum over an indexed
/// container. Three phases: inclusive scan of each local storage piece,
/// exclusive scan of the piece totals in GID order (collective), carry
/// applied to every piece that has one.
///
/// **Collective.** `op` must be associative with identity `identity`; it
/// need not be commutative (the carry is always the left operand).
pub fn p_partial_sum<C, F>(c: &C, identity: C::Value, op: F)
where
    C: RangedContainer,
    C::Value: Send + Clone + 'static,
    F: Fn(&C::Value, &C::Value) -> C::Value,
{
    let loc = c.location().clone();
    let mut pieces = c.local_pieces();
    pieces.sort_unstable_by_key(|(_, piece)| piece.lo);
    // Phase 1: scan each piece; record (first GID, total).
    let totals: Vec<(usize, C::Value)> = pieces
        .iter()
        .map(|&(bcid, piece)| {
            let total = on_piece(c, bcid, piece, |s| {
                let mut acc = identity.clone();
                for v in s {
                    acc = op(&acc, v);
                    *v = acc.clone();
                }
                acc
            });
            (piece.lo, total)
        })
        .collect();
    // Phase 2: every piece of the container in GID order; the carry into a
    // piece is the fold of the totals before it.
    let mut all: Vec<(usize, C::Value)> = loc.allgather(totals).into_iter().flatten().collect();
    all.sort_unstable_by_key(|(lo, _)| *lo);
    // Phase 3: the globally first piece has no carry (`op(identity, v)` is
    // `v`) and is not walked again.
    let mut mine = pieces.into_iter().peekable();
    let mut carry: Option<C::Value> = None;
    for (lo, total) in all {
        if let Some((bcid, piece)) = mine.next_if(|(_, piece)| piece.lo == lo) {
            if let Some(carry) = &carry {
                on_piece(c, bcid, piece, |s| s.iter_mut().for_each(|v| *v = op(carry, v)));
            }
        }
        carry = Some(match carry {
            Some(carry) => op(&carry, &total),
            None => total,
        });
    }
    loc.barrier();
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_containers::array::PArray;
    use stapl_core::interfaces::ElementRead;
    use stapl_core::mapper::CyclicMapper;
    use stapl_core::partition::{BlockCyclicPartition, BlockedPartition, IndexPartition};
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn prefix_sum_matches_sequential() {
        execute(RtsConfig::default(), 3, |loc| {
            let a = PArray::from_fn(loc, 25, |i| (i % 5 + 1) as u64);
            p_partial_sum(&a, 0, |a, b| a + b);
            let mut expect = 0u64;
            for i in 0..25 {
                expect += (i % 5 + 1) as u64;
                assert_eq!(a.get_element(i), expect, "prefix mismatch at {i}");
            }
            let _ = loc;
        });
    }

    #[test]
    fn prefix_sum_with_multiple_bcontainers_per_location() {
        execute(RtsConfig::default(), 2, |loc| {
            // 7 contiguous sub-domains over 2 locations; then interleaving
            // block-cyclic ones, where BCID order is not a prefix order.
            let partitions: [IndexPartition; 2] =
                [BlockedPartition::new(20, 3).into(), BlockCyclicPartition::new(23, 3, 4).into()];
            for partition in partitions {
                let n = partition.global_size();
                let a = PArray::with_partition(loc, partition, CyclicMapper::new(loc.nlocs()), 0u64);
                crate::map_func::p_generate(&a, |g| g as u64);
                p_partial_sum(&a, 0, |a, b| a + b);
                let mut expect = 0u64;
                for i in 0..n {
                    expect += i as u64;
                    assert_eq!(a.get_element(i), expect, "prefix mismatch at {i} of {n}");
                }
            }
        });
    }

    #[test]
    fn signed_prefix_sum() {
        execute(RtsConfig::default(), 2, |loc| {
            // +1/-1 weights: prefix is the tree-walk depth pattern.
            let a = PArray::from_fn(loc, 8, |i| if i % 2 == 0 { 1i64 } else { -1 });
            p_partial_sum(&a, 0, |a, b| a + b);
            let expect = [1, 0, 1, 0, 1, 0, 1, 0];
            for (i, e) in expect.iter().enumerate() {
                assert_eq!(a.get_element(i), *e);
            }
            let _ = loc;
        });
    }

    #[test]
    fn prefix_sum_single_location() {
        execute(RtsConfig::default(), 1, |loc| {
            let a = PArray::from_fn(loc, 5, |_| 2u64);
            p_partial_sum(&a, 0, |a, b| a + b);
            assert_eq!(a.get_element(4), 10);
            let _ = loc;
        });
    }

    #[test]
    fn generic_op_max_scan() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::from_fn(loc, 10, |i| [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3][i]);
            p_partial_sum(&a, 0u64, |x, y| *x.max(y));
            let expect = [3u64, 3, 4, 4, 5, 9, 9, 9, 9, 9];
            for (i, e) in expect.iter().enumerate() {
                assert_eq!(a.get_element(i), *e);
            }
            let _ = loc;
        });
    }
}
