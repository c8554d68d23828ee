//! Property tests for the bulk-range transport: `get_range`/`set_range`/
//! `apply_range` and the localized chunk iteration must agree with the
//! element-wise baseline across random partitions (balanced / blocked /
//! block-cyclic / explicit), mappers, sub-ranges, and P ∈ {1..4}.

use proptest::prelude::*;
use stapl_containers::array::PArray;
use stapl_core::domain::Range1d;
use stapl_core::interfaces::{ElementRead, LocalIteration, RangedContainer};
use stapl_core::mapper::{CyclicMapper, GeneralMapper, PartitionMapper};
use stapl_core::partition::{
    BalancedPartition, BlockCyclicPartition, BlockedPartition, ExplicitPartition, IndexPartition,
};
use stapl_rts::{execute, RtsConfig};

/// Builds one of the partition families over `[0, n)` from fuzzed
/// parameters (same shapes the redistribute properties fuzz).
fn make_partition(n: usize, family: usize, a: usize, b: usize) -> IndexPartition {
    match family % 4 {
        0 => BalancedPartition::new(n, a % 5 + 1).into(),
        1 => BlockedPartition::new(n, a % 7 + 1).into(),
        2 => BlockCyclicPartition::new(n, a % 4 + 1, b % 5 + 1).into(),
        _ => {
            let mut cuts: Vec<usize> = vec![a % n, b % n, (a + b) % n];
            cuts.push(n);
            cuts.sort_unstable();
            cuts.dedup();
            let mut sizes = Vec::new();
            let mut prev = 0;
            for c in cuts {
                if c > prev {
                    sizes.push(c - prev);
                    prev = c;
                }
            }
            if sizes.is_empty() {
                sizes.push(n);
            }
            ExplicitPartition::from_sizes(&sizes).into()
        }
    }
}

fn make_mapper(parts: usize, nlocs: usize, style: usize, seed: &[usize]) -> PartitionMapper {
    if style % 2 == 0 || seed.is_empty() {
        CyclicMapper::new(nlocs).into()
    } else {
        let assignment: Vec<usize> = (0..parts).map(|i| seed[i % seed.len()] % nlocs).collect();
        GeneralMapper::new(nlocs, assignment).into()
    }
}

fn fuzzed_array(
    loc: &stapl_rts::Location,
    n: usize,
    family: usize,
    a: usize,
    b: usize,
    style: usize,
    seed: &[usize],
) -> PArray<u64> {
    let part = make_partition(n, family, a, b);
    let mapper = make_mapper(part.num_subdomains(), loc.nlocs(), style, seed);
    let arr = PArray::with_partition(loc, part, mapper, 0u64);
    arr.for_each_local_mut(|g, v| *v = g as u64 * 7 + 3);
    loc.barrier();
    arr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `get_range` over a random sub-range equals element-wise gets, from
    /// every location, under every fuzzed placement.
    #[test]
    fn get_range_agrees_with_elementwise(
        n in 3usize..60,
        p in 1usize..5,
        family in 0usize..4,
        a in 1usize..100,
        b in 1usize..100,
        style in 0usize..2,
        lo_pick in 0usize..100,
        hi_pick in 0usize..100,
        seed in proptest::collection::vec(0usize..97, 1..6),
    ) {
        let lo = lo_pick % n;
        let hi = lo + hi_pick % (n - lo + 1);
        execute(RtsConfig::default(), p, |loc| {
            let arr = fuzzed_array(loc, n, family, a, b, style, &seed);
            let bulk = arr.get_range(Range1d::new(lo, hi));
            let baseline: Vec<u64> = (lo..hi).map(|g| arr.get_element(g)).collect();
            assert_eq!(bulk, baseline, "get_range([{lo},{hi})) disagrees with element gets");
            // Runs cover the range exactly, in order.
            let runs = arr.runs(Range1d::new(lo, hi));
            let mut g = lo;
            for run in &runs {
                assert_eq!(run.gids.lo, g);
                g = run.gids.hi;
            }
            assert_eq!(g, hi.max(lo));
            loc.barrier();
        });
    }

    /// `set_range` + `apply_range` from one location agree with a
    /// sequential model array.
    #[test]
    fn set_and_apply_range_agree_with_model(
        n in 3usize..60,
        p in 1usize..5,
        family in 0usize..4,
        a in 1usize..100,
        b in 1usize..100,
        style in 0usize..2,
        lo_pick in 0usize..100,
        hi_pick in 0usize..100,
        writer in 0usize..4,
        seed in proptest::collection::vec(0usize..97, 1..6),
    ) {
        let lo = lo_pick % n;
        let hi = lo + hi_pick % (n - lo + 1);
        execute(RtsConfig::default(), p, |loc| {
            let arr = fuzzed_array(loc, n, family, a, b, style, &seed);
            // Sequential model.
            let mut model: Vec<u64> = (0..n).map(|g| g as u64 * 7 + 3).collect();
            for (k, m) in model.iter_mut().enumerate().take(hi).skip(lo) {
                *m = k as u64 + 100;
            }
            for (k, m) in model.iter_mut().enumerate().take(hi).skip(lo) {
                *m += k as u64 % 5;
            }
            if loc.id() == writer % loc.nlocs() {
                arr.set_range(lo, &(lo..hi).map(|k| k as u64 + 100).collect::<Vec<_>>());
                arr.apply_range(Range1d::new(lo, hi), |g, v| *v += g as u64 % 5);
            }
            loc.rmi_fence();
            for (g, expect) in model.iter().enumerate() {
                assert_eq!(arr.get_element(g), *expect, "element {g} after bulk writes");
            }
            loc.barrier();
        });
    }

    /// Localized `p_copy` between two *differently* fuzzed placements
    /// equals the element-wise baseline copy.
    #[test]
    fn localized_copy_agrees_with_elementwise(
        n in 3usize..60,
        p in 1usize..5,
        fam_src in 0usize..4,
        fam_dst in 0usize..4,
        a in 1usize..100,
        b in 1usize..100,
        style in 0usize..2,
        seed in proptest::collection::vec(0usize..97, 1..6),
    ) {
        execute(RtsConfig::default(), p, |loc| {
            let src = fuzzed_array(loc, n, fam_src, a, b, style, &seed);
            let dst_bulk = PArray::with_partition(
                loc,
                make_partition(n, fam_dst, b, a),
                make_mapper(make_partition(n, fam_dst, b, a).num_subdomains(), loc.nlocs(), style + 1, &seed),
                0u64,
            );
            let dst_base = PArray::with_partition(
                loc,
                make_partition(n, fam_dst, b, a),
                make_mapper(make_partition(n, fam_dst, b, a).num_subdomains(), loc.nlocs(), style + 1, &seed),
                0u64,
            );
            stapl_algorithms::map_func::p_copy(&src, &dst_bulk);
            stapl_algorithms::map_func::p_copy_elementwise(&src, &dst_base);
            for g in 0..n {
                let expect = g as u64 * 7 + 3;
                assert_eq!(dst_bulk.get_element(g), expect, "bulk copy element {g}");
                assert_eq!(dst_base.get_element(g), expect, "baseline copy element {g}");
            }
            assert!(stapl_algorithms::map_func::p_equal(&src, &dst_bulk));
            loc.barrier();
        });
    }
}
