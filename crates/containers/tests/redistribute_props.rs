//! Property tests for pArray redistribution (Section V.G): moving data
//! to a random partition/placement — and rotating, and rebalancing back —
//! must preserve every element.

use proptest::prelude::*;
use stapl_containers::array::PArray;
use stapl_core::interfaces::{ElementRead, PContainer};
use stapl_core::mapper::{CyclicMapper, GeneralMapper, PartitionMapper};
use stapl_core::partition::{
    BalancedPartition, BlockCyclicPartition, BlockedPartition, ExplicitPartition, IndexPartition,
};
use stapl_rts::{execute, RtsConfig};

/// Builds one of the partition families over `[0, n)` from fuzzed
/// parameters, never empty-sub-domain-free by construction.
fn make_partition(n: usize, family: usize, a: usize, b: usize) -> IndexPartition {
    match family % 4 {
        0 => BalancedPartition::new(n, a % 5 + 1).into(),
        1 => BlockedPartition::new(n, a % 7 + 1).into(),
        2 => BlockCyclicPartition::new(n, a % 4 + 1, b % 5 + 1).into(),
        _ => {
            // Explicit partition from random cut points.
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

/// A mapper for `parts` sub-domains over `nlocs` locations: cyclic or a
/// fuzzed explicit assignment.
fn make_mapper(parts: usize, nlocs: usize, style: usize, seed: &[usize]) -> PartitionMapper {
    if style % 2 == 0 || seed.is_empty() {
        CyclicMapper::new(nlocs).into()
    } else {
        let assignment: Vec<usize> = (0..parts).map(|i| seed[i % seed.len()] % nlocs).collect();
        GeneralMapper::new(nlocs, assignment).into()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round trip: redistribute to a random (partition, mapper), rotate,
    /// then rebalance — every element must survive every hop.
    #[test]
    fn redistribute_rotate_rebalance_preserve_elements(
        n in 3usize..70,
        p in 2usize..4,
        family in 0usize..4,
        a in 1usize..100,
        b in 1usize..100,
        style in 0usize..2,
        shift in 0usize..7,
        seed in proptest::collection::vec(0usize..97, 1..6),
    ) {
        execute(RtsConfig::default(), p, |loc| {
            let arr = PArray::from_fn(loc, n, |i| i as u64 * 13 + 5);
            let check = |stage: &str| {
                for i in 0..n {
                    assert_eq!(arr.get_element(i), i as u64 * 13 + 5, "{stage}: element {i}");
                }
                assert_eq!(arr.global_size(), n);
                let local = loc.allreduce_sum(arr.local_size() as u64);
                assert_eq!(local as usize, n, "{stage}: local sizes must sum to n");
            };
            check("initial");
            let part = make_partition(n, family, a, b);
            let mapper = make_mapper(part.num_subdomains(), loc.nlocs(), style, &seed);
            arr.redistribute(part, mapper);
            check("after redistribute");
            arr.rotate(shift);
            check("after rotate");
            arr.rebalance();
            check("after rebalance");
        });
    }
}
