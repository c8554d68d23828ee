//! `p_sort`: parallel sample sort — the algorithm the paper uses to
//! motivate commutative-task thread safety (Chapter VI's bucket-insert
//! example) — as a regular-sampling sort: every location sorts its block
//! **once**, regular quantiles of the sorted blocks give the splitters, the
//! sorted block is cut at the splitters and each cut ships as one sorted
//! run, and the receiver merges presorted runs. Not stable: runs from
//! different sources arrive in either order.

use stapl_core::interfaces::{ElementRead, PContainer, RangedContainer};
use stapl_core::pobject::PObject;
use stapl_containers::array::PArray;
use stapl_rts::Counter;

use crate::map_func::values;

/// **Collective.** Sorts the pArray in place (ascending, not stable):
/// local sort → splitters from regular samples → exchange of sorted runs →
/// merge → write-back at globally scanned offsets.
pub fn p_sort<T>(a: &PArray<T>)
where
    T: Ord + Send + Clone + 'static,
{
    let loc = a.location().clone();
    let nlocs = loc.nlocs();
    // 1. The local block, copied out slice by slice and sorted once;
    //    regular quantiles of it are the samples.
    let mut local: Vec<T> = Vec::with_capacity(a.local_size());
    for (bcid, piece) in a.local_pieces() {
        values(a, bcid, piece, |s| local.extend_from_slice(s));
    }
    local.sort_unstable();
    let oversample = 4;
    let samples: Vec<T> = (0..nlocs * oversample)
        .filter_map(|k| local.get((k * local.len()) / (nlocs * oversample)).cloned())
        .collect();
    let mut all_samples: Vec<T> = loc
        .allgather(samples)
        .into_iter()
        .flatten()
        .collect();
    all_samples.sort_unstable();
    let splitters: Vec<T> = (1..nlocs)
        .filter_map(|k| all_samples.get(k * all_samples.len() / nlocs).cloned())
        .collect();
    // 2. Run exchange, coarsened: the sorted block is cut where each
    //    splitter would be inserted (keys equal to a splitter go right; no
    //    splitters — an empty array — leave one run, for location 0) and
    //    each cut ships as ONE bulk append per peer: O(P) messages per
    //    location instead of O(n/P). Owner-side execution keeps the
    //    concurrent appends atomic (the commutative-task pattern of Ch. VI).
    let buckets = PObject::register(&loc, Vec::<T>::new());
    loc.barrier();
    let mut runs: Vec<Vec<T>> = splitters
        .iter()
        .rev()
        .map(|s| local.split_off(local.partition_point(|v| v < s)))
        .collect();
    runs.push(local);
    for (dest, run) in runs.into_iter().rev().enumerate() {
        if run.is_empty() {
            continue;
        }
        if dest != loc.id() {
            loc.count(Counter::bulk_requests, 1);
        }
        buckets.invoke_at(dest, move |cell, _| {
            let mut mine = cell.borrow_mut();
            // The first run to arrive is kept as it is, not copied.
            if mine.is_empty() {
                *mine = run;
            } else {
                mine.extend(run);
            }
        });
    }
    loc.rmi_fence();
    // 3. Merge: `sort` finds the presorted runs and merges them (one run,
    //    as at P=1, is one verification pass).
    let mut mine = std::mem::take(&mut *buckets.local_mut());
    mine.sort();
    // 4. Write back at scanned global offsets: the sorted block is one
    //    contiguous GID range — one bulk RMI per (owner, run) instead of
    //    one set_element per element.
    let (start, total) = loc.exclusive_scan(mine.len(), 0, |x, y| x + y);
    debug_assert_eq!(total, a.global_size());
    a.set_range(start, &mine);
    loc.rmi_fence();
}

/// **Collective.** True when the array is globally non-decreasing: one
/// adjacent-pair scan per local storage slice, then one neighbour fetched
/// per piece end that is not the array end.
pub fn p_is_sorted<T>(a: &PArray<T>) -> bool
where
    T: Ord + Send + Clone + 'static,
{
    let n = a.global_size();
    let mut ok = true;
    // (GID after the piece, the piece's last element), collected so that no
    // borrow is held while a neighbour is fetched.
    let mut ends: Vec<(usize, T)> = Vec::new();
    for (bcid, piece) in a.local_pieces() {
        let (sorted, last) =
            values(a, bcid, piece, |s| (s.windows(2).all(|w| w[0] <= w[1]), s.last().cloned()));
        ok &= sorted;
        ends.extend(last.map(|v| (piece.hi, v)));
    }
    for (next, last) in ends {
        ok &= next == n || last <= a.get_element(next);
    }
    a.location().allreduce(ok, |x, y| x && y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_core::interfaces::LocalIteration;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn sorts_random_input() {
        execute(RtsConfig::default(), 3, |loc| {
            let a = PArray::new(loc, 120, 0u64);
            // Each location fills its stripe with seeded random values.
            let mut rng = StdRng::seed_from_u64(9 + loc.id() as u64);
            a.for_each_local_mut(|_, v| *v = rng.random_range(0..1000));
            loc.barrier();
            assert!(!p_is_sorted(&a) || a.global_size() < 2);
            p_sort(&a);
            assert!(p_is_sorted(&a));
            // Multiset preserved.
            let sum = crate::map_func::p_sum(&a);
            let check = loc.allreduce_sum(sum) / loc.nlocs() as u64;
            assert_eq!(sum, check);
        });
    }

    #[test]
    fn sorts_already_sorted_and_reverse() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::from_fn(loc, 50, |i| i as u64);
            p_sort(&a);
            assert!(p_is_sorted(&a));
            for i in 0..50 {
                assert_eq!(a.get_element(i), i as u64);
            }
            let b = PArray::from_fn(loc, 50, |i| (49 - i) as u64);
            p_sort(&b);
            for i in 0..50 {
                assert_eq!(b.get_element(i), i as u64);
            }
        });
    }

    #[test]
    fn sorts_with_duplicates_and_single_location() {
        execute(RtsConfig::default(), 1, |loc| {
            let a = PArray::from_fn(loc, 20, |i| (i % 3) as u64);
            p_sort(&a);
            assert!(p_is_sorted(&a));
            assert_eq!(crate::map_func::p_count_if(&a, |v| *v == 0), 7);
            let _ = loc;
        });
    }

    #[test]
    fn sorts_skewed_distribution() {
        // All the mass in one location's range stresses the splitters.
        execute(RtsConfig::default(), 4, |loc| {
            let a = PArray::from_fn(loc, 64, |i| if i < 60 { 5u64 } else { i as u64 });
            p_sort(&a);
            assert!(p_is_sorted(&a));
            assert_eq!(a.get_element(0), 5);
            assert_eq!(a.get_element(63), 63);
            let _ = loc;
        });
    }
}
