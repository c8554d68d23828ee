//! Counter-based proof of the localization + bulk-transport layer: a
//! misaligned `p_copy` of N elements must issue O(number of contiguous
//! runs) remote requests, not O(N). Stats-based, so the assertions are
//! wall-clock-independent and CI-stable.

use stapl_algorithms::map_func::{p_copy, p_copy_elementwise, p_equal};
use stapl_containers::array::PArray;
use stapl_core::interfaces::ElementRead;
use stapl_core::mapper::{CyclicMapper, GeneralMapper};
use stapl_core::partition::{BalancedPartition, BlockedPartition};
use stapl_rts::{execute, RtsConfig};

const N: usize = 4000;
const P: usize = 4;

/// src balanced over P locations; dst blocked with off-by-7 block bounds
/// and rotated placement — every (src-run × dst-run) boundary cut
/// produces a run, but there are O(P) of them, not O(N).
fn misaligned_pair(loc: &stapl_rts::Location) -> (PArray<u64>, PArray<u64>) {
    let src = PArray::from_fn(loc, N, |i| i as u64 * 3 + 1);
    let blocked = stapl_core::partition::IndexPartition::from(BlockedPartition::new(N, N / P + 7));
    let parts = blocked.num_subdomains();
    let assignment: Vec<usize> = (0..parts).map(|b| (b + 1) % loc.nlocs()).collect();
    let dst = PArray::with_partition(
        loc,
        blocked,
        GeneralMapper::new(loc.nlocs(), assignment),
        0u64,
    );
    (src, dst)
}

#[test]
fn misaligned_p_copy_issues_o_runs_remote_requests() {
    execute(RtsConfig::default(), P, |loc| {
        let (src, dst) = misaligned_pair(loc);
        loc.rmi_fence();
        // Measurement window: every location snapshots `before` ahead of
        // the barrier (so no peer's traffic leaks in) and `after` right at
        // the collective fence inside p_copy (before any later traffic).
        let before = loc.stats();
        loc.barrier();
        p_copy(&src, &dst);
        let after = loc.stats();
        loc.barrier();
        // Each location's local block decomposes into at most 3 dst runs
        // (two block boundaries cut it); add slack for fence/scan control
        // traffic. The point: ~N remote requests would dwarf this bound.
        let remote = after.remote_requests - before.remote_requests;
        let bulk = after.bulk_requests - before.bulk_requests;
        assert!(bulk >= 1, "misaligned copy must use the bulk path");
        assert!(
            bulk <= (3 * P) as u64,
            "bulk requests must be O(runs): got {bulk} for {P} locations"
        );
        assert!(
            remote < (N / 10) as u64,
            "misaligned p_copy of {N} elements issued {remote} remote requests — \
             that is O(N), not O(runs)"
        );
        assert_eq!(
            after.element_fallbacks, before.element_fallbacks,
            "no element-wise fallback expected on long runs"
        );
        // And the copy is correct.
        assert!(p_equal(&src, &dst));
        for i in (0..N).step_by(997) {
            assert_eq!(dst.get_element(i), i as u64 * 3 + 1);
        }
    });
}

#[test]
fn elementwise_baseline_really_pays_o_n() {
    // Establishes that the counter comparison above is meaningful: the
    // element-wise path on the same scenario issues ~N remote requests.
    execute(RtsConfig::default(), P, |loc| {
        let (src, dst) = misaligned_pair(loc);
        loc.rmi_fence();
        let before = loc.stats();
        loc.barrier();
        p_copy_elementwise(&src, &dst);
        let after = loc.stats();
        loc.barrier();
        let remote = after.remote_requests - before.remote_requests;
        assert!(
            remote >= (N / 2) as u64,
            "element-wise misaligned copy should be O(N) remote requests, got {remote}"
        );
        assert!(p_equal(&src, &dst));
    });
}

#[test]
fn aligned_p_copy_is_communication_free_except_fence() {
    execute(RtsConfig::default(), P, |loc| {
        let src = PArray::from_fn(loc, N, |i| i as u64);
        let dst = PArray::with_partition(
            loc,
            BalancedPartition::new(N, loc.nlocs()),
            CyclicMapper::new(loc.nlocs()),
            0u64,
        );
        loc.rmi_fence();
        let before = loc.stats();
        loc.barrier();
        p_copy(&src, &dst);
        let after = loc.stats();
        loc.barrier();
        assert_eq!(
            after.bulk_requests, before.bulk_requests,
            "aligned runs are local slice copies, not RMIs"
        );
        assert!(after.localized_chunks > before.localized_chunks);
        assert!(p_equal(&src, &dst));
    });
}
