//! Counter pins for the pairwise family and `p_sort`: the per-call deltas
//! of `localized_chunks`, `bulk_requests` and `element_fallbacks` (summed
//! over all locations) on the misaligned pair of `map_func.rs`'s bulk
//! test. The numbers were read off the implementation that cloned `b`'s
//! range / built a `Vec` per piece, before the shared slice walk replaced
//! it: the walk may change how data is borrowed, not what is counted. A
//! remote run of one element is one bulk RMI like any other, so no call
//! here falls back to element RMIs.

use stapl_algorithms::map_func::{p_copy, p_equal, p_generate, p_inner_product, p_transform};
use stapl_algorithms::sorting::p_sort;
use stapl_containers::array::PArray;
use stapl_core::mapper::{CyclicMapper, GeneralMapper};
use stapl_core::partition::{BlockCyclicPartition, BlockedPartition, IndexPartition};
use stapl_rts::{execute, Location, RtsConfig};

/// (localized_chunks, bulk_requests, element_fallbacks) of one collective
/// call, over all locations. `loc.stats()` sums every location's block, so
/// both snapshots are taken while everyone is between barriers.
fn delta(loc: &Location, call: impl FnOnce()) -> (u64, u64, u64) {
    loc.barrier();
    let before = loc.stats();
    loc.barrier();
    call();
    loc.rmi_fence();
    let d = loc.stats().since(&before);
    loc.barrier();
    (d.localized_chunks, d.bulk_requests, d.element_fallbacks)
}

/// src block-cyclic, dst blocked with rotated placement: every chunk
/// boundary is misaligned.
fn misaligned_pair(loc: &Location) -> (PArray<u64>, PArray<u64>) {
    let src = PArray::with_partition(
        loc,
        BlockCyclicPartition::new(40, 3, 4),
        CyclicMapper::new(loc.nlocs()),
        0u64,
    );
    let blocked = IndexPartition::from(BlockedPartition::new(40, 9));
    let parts = blocked.num_subdomains();
    let dst = PArray::with_partition(
        loc,
        blocked,
        GeneralMapper::new(loc.nlocs(), (0..parts).map(|b| (b + 2) % loc.nlocs()).collect()),
        0u64,
    );
    (src, dst)
}

#[test]
fn pairwise_family_and_sort_count_what_they_counted() {
    execute(RtsConfig::default(), 3, |loc| {
        let (src, dst) = misaligned_pair(loc);
        p_generate(&src, |g| (g as u64 * 7919) % 41);
        // 13 (src piece x dst run) pairs: 5 on the piece's own location and
        // 8 remote, one of them a single element.
        assert_eq!(delta(loc, || p_copy(&src, &dst)), (5, 8, 0));
        assert_eq!(delta(loc, || assert!(p_equal(&src, &dst))), (5, 8, 0));
        assert_eq!(delta(loc, || p_transform(&src, &dst, |v| v + 1)), (5, 8, 0));
        assert_eq!(delta(loc, || assert_eq!(p_inner_product(&src, &dst), 21_700)), (5, 8, 0));
        // 4 bucket batches leave their location; the write-back of the
        // sorted blocks is 4 local and 10 remote runs.
        assert_eq!(delta(loc, || p_sort(&src)), (4, 14, 0));
    });
}
