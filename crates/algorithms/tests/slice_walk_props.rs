//! Property tests for the bulk algorithms that walk storage slices
//! (`p_partial_sum`, `p_sort`, the pairwise family): on seeded random
//! distributions — every partition shape, cyclic and arbitrary placement,
//! P = 1..3, n down to 0 — each equals the
//! sequential loop it replaces. Seeded, so a failure names a case that
//! reproduces.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use stapl_algorithms::map_func::{p_copy, p_equal, p_generate, p_inner_product, p_transform};
use stapl_algorithms::numeric::p_partial_sum;
use stapl_algorithms::sorting::{p_is_sorted, p_sort};
use stapl_containers::array::PArray;
use stapl_core::domain::Range1d;
use stapl_core::interfaces::{ElementWrite, RangedContainer};
use stapl_core::mapper::{CyclicMapper, GeneralMapper, PartitionMapper};
use stapl_core::partition::{
    BalancedPartition, BlockCyclicPartition, BlockedPartition, ExplicitPartition, IndexPartition,
};
use stapl_rts::{execute, Location, RtsConfig};

const CASES: u64 = 120;

#[derive(Clone, Debug)]
enum Part {
    Balanced(usize),
    /// Several sub-domains per location.
    Blocked(usize),
    BlockCyclic(usize, usize),
    /// Explicit sizes, some of them zero.
    Explicit(Vec<usize>),
}

/// One drawn distribution of `0..n` over `nlocs` locations.
#[derive(Clone, Debug)]
struct Dist {
    n: usize,
    part: Part,
    /// `None`: cyclic; else the location of each sub-domain.
    placement: Option<Vec<usize>>,
}

impl Dist {
    fn partition(&self) -> IndexPartition {
        match &self.part {
            Part::Balanced(p) => BalancedPartition::new(self.n, *p).into(),
            Part::Blocked(b) => BlockedPartition::new(self.n, *b).into(),
            Part::BlockCyclic(p, b) => BlockCyclicPartition::new(self.n, *p, *b).into(),
            Part::Explicit(sizes) => ExplicitPartition::from_sizes(sizes).into(),
        }
    }

    fn draw(rng: &mut StdRng, n: usize, nlocs: usize) -> Dist {
        let part = match rng.random_range(0..4) {
            0 => Part::Balanced(rng.random_range(1..=3 * nlocs)),
            1 => Part::Blocked(rng.random_range(1..=n / (2 * nlocs) + 1)),
            2 => Part::BlockCyclic(rng.random_range(1..=2 * nlocs), rng.random_range(1..=5)),
            _ => {
                // Cut points drawn with repetition: equal neighbours are
                // empty sub-domains.
                let mut cuts: Vec<usize> = (0..rng.random_range(0..6)).map(|_| rng.random_range(0..=n)).collect();
                cuts.extend([0, n]);
                cuts.sort_unstable();
                Part::Explicit(cuts.windows(2).map(|w| w[1] - w[0]).collect())
            }
        };
        let mut dist = Dist { n, part, placement: None };
        if rng.random_bool(0.5) {
            let subdomains = dist.partition().num_subdomains();
            dist.placement = Some((0..subdomains).map(|_| rng.random_range(0..nlocs)).collect());
        }
        dist
    }

    /// **Collective.** An array of `init` under this distribution.
    fn array<T: Send + Clone + 'static>(&self, loc: &Location, init: T) -> PArray<T> {
        let mapper: PartitionMapper = match &self.placement {
            None => CyclicMapper::new(loc.nlocs()).into(),
            Some(assignment) => GeneralMapper::new(loc.nlocs(), assignment.clone()).into(),
        };
        PArray::with_partition(loc, self.partition(), mapper, init)
    }
}

/// The whole array, read by every location (its own runs borrowed, the
/// others fetched in bulk).
fn whole<T: Send + Clone + 'static>(a: &PArray<T>, n: usize) -> Vec<T> {
    a.get_range(Range1d::new(0, n))
}

fn seq_scan<T: Clone>(vals: &[T], identity: T, op: impl Fn(&T, &T) -> T) -> Vec<T> {
    let mut acc = identity;
    vals.iter()
        .map(|v| {
            acc = op(&acc, v);
            acc.clone()
        })
        .collect()
}

/// Runs `body(case description, rng, n, nlocs)` over the seeded cases.
fn for_cases(salt: u64, body: impl Fn(&str, &mut StdRng, usize, usize)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(salt ^ case);
        let (n, nlocs) = (rng.random_range(0..200), rng.random_range(1..=3));
        body(&format!("case {case}: n {n}, P {nlocs}"), &mut rng, n, nlocs);
    }
}

#[test]
fn partial_sum_equals_the_sequential_scan() {
    for_cases(0x5ca9, |case, rng, n, nlocs| {
        let dist = Dist::draw(rng, n, nlocs);
        let vals: Vec<u64> = (0..n).map(|_| rng.random_range(0..1000)).collect();
        // x -> a x + b mod 2^64, composed left to right: associative, not
        // commutative, identity (1, 0).
        let affine: Vec<(u64, u64)> = vals.iter().map(|v| (2 * v + 1, v ^ 0x55)).collect();
        let then = |f: &(u64, u64), g: &(u64, u64)| (g.0.wrapping_mul(f.0), g.0.wrapping_mul(f.1).wrapping_add(g.1));
        execute(RtsConfig::default(), nlocs, |loc| {
            let sum = dist.array(loc, 0u64);
            p_generate(&sum, |g| vals[g]);
            p_partial_sum(&sum, 0, |x, y| x + y);
            assert_eq!(whole(&sum, n), seq_scan(&vals, 0, |x, y| x + y), "+ scan, {case}, {dist:?}");

            let max = dist.array(loc, 0u64);
            p_generate(&max, |g| vals[g]);
            p_partial_sum(&max, 0, |x, y| *x.max(y));
            assert_eq!(whole(&max, n), seq_scan(&vals, 0, |x, y| *x.max(y)), "max scan, {case}, {dist:?}");

            let maps = dist.array(loc, (1u64, 0u64));
            p_generate(&maps, |g| affine[g]);
            p_partial_sum(&maps, (1, 0), then);
            assert_eq!(whole(&maps, n), seq_scan(&affine, (1, 0), then), "affine scan, {case}, {dist:?}");
        });
    });
}

#[test]
fn sort_equals_sort() {
    for_cases(0x50f7, |case, rng, n, nlocs| {
        let dist = Dist::draw(rng, n, nlocs);
        // A narrow key range some of the time: many duplicates.
        let top = if rng.random_bool(0.3) { 4 } else { 1 << 20 };
        let vals: Vec<u64> = (0..n).map(|_| rng.random_range(0..top)).collect();
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        execute(RtsConfig::default(), nlocs, |loc| {
            let a = dist.array(loc, 0u64);
            p_generate(&a, |g| vals[g]);
            assert_eq!(p_is_sorted(&a), vals == sorted, "p_is_sorted before, {case}, {dist:?}");
            p_sort(&a);
            assert_eq!(whole(&a, n), sorted, "p_sort, {case}, {dist:?}");
            assert!(p_is_sorted(&a), "p_is_sorted after, {case}, {dist:?}");
        });
    });
}

#[test]
fn pairwise_family_equals_the_sequential_loops() {
    for_cases(0x9a12, |case, rng, n, nlocs| {
        // Two independently drawn distributions of the same domain.
        let (da, db) = (Dist::draw(rng, n, nlocs), Dist::draw(rng, n, nlocs));
        let xs: Vec<u64> = (0..n).map(|_| rng.random_range(0..1000)).collect();
        let ys: Vec<u64> = (0..n).map(|_| rng.random_range(0..1000)).collect();
        let spoiled = (n > 0).then(|| rng.random_range(0..n));
        let f = |x: &u64| x * 3 + 1;
        execute(RtsConfig::default(), nlocs, |loc| {
            let what = format!("{case}, {da:?} x {db:?}");
            let (a, b) = (da.array(loc, 0u64), db.array(loc, 0u64));
            p_generate(&a, |g| xs[g]);
            p_generate(&b, |g| ys[g]);
            let dot = xs.iter().zip(&ys).map(|(x, y)| x * y).sum::<u64>();
            assert_eq!(p_inner_product(&a, &b), dot, "p_inner_product, {what}");
            assert_eq!(p_equal(&a, &b), xs == ys, "p_equal of unrelated arrays, {what}");
            loc.barrier();
            p_transform(&a, &b, f);
            assert_eq!(whole(&b, n), xs.iter().map(f).collect::<Vec<_>>(), "p_transform, {what}");
            loc.barrier();
            p_copy(&a, &b);
            assert_eq!(whole(&b, n), xs, "p_copy, {what}");
            assert!(p_equal(&a, &b), "p_equal after p_copy, {what}");
            if let Some(g) = spoiled {
                if loc.id() == 0 {
                    b.set_element(g, xs[g] + 1);
                }
                loc.rmi_fence();
                assert!(!p_equal(&a, &b), "p_equal with element {g} spoiled, {what}");
            }
            // In place: the destination is the source.
            p_transform(&a, &a, f);
            assert_eq!(whole(&a, n), xs.iter().map(f).collect::<Vec<_>>(), "p_transform in place, {what}");
        });
    });
}

#[test]
fn sort_edge_cases() {
    for nlocs in 1..=4 {
        execute(RtsConfig::default(), nlocs, |loc| {
            let empty = PArray::new(loc, 0, 0u64);
            p_sort(&empty);
            assert!(p_is_sorted(&empty));
            // Fewer elements than locations: some own nothing.
            let few = PArray::from_fn(loc, nlocs - 1, |i| (nlocs - i) as u64);
            p_sort(&few);
            assert_eq!(whole(&few, nlocs - 1), (2..=nlocs as u64).collect::<Vec<_>>());
            // All keys equal: every splitter is the same value.
            let flat = PArray::new(loc, 37, 7u64);
            p_sort(&flat);
            assert_eq!(whole(&flat, 37), vec![7; 37]);
        });
    }
}
