//! Address resolution on the local fast path (Fig. 7 as implemented):
//! every element method resolves its target once, local sub-domains first.
//! These tests pin what that must not change — where every gid lives under
//! every partition × mapper, the out-of-bounds panic of every method, which
//! methods count as local invocations, and that a panic inside the inline
//! probe releases its borrow.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use stapl_containers::array::PArray;
use stapl_containers::associative::{KvStore, PAssoc, PHashMap, PMap};
use stapl_core::distribution::IndexDistribution;
use stapl_core::interfaces::{
    AssociativeContainer, ElementRead, ElementWrite, LocalIteration, PContainer, SegmentedContainer,
};
use stapl_core::mapper::{CyclicMapper, GeneralMapper, PartitionMapper};
use stapl_core::partition::{
    BalancedPartition, BlockCyclicPartition, BlockedPartition, ExplicitPartition, HashPartition,
    IndexPartition, KeyPartition, SplitterPartition,
};
use stapl_rts::{execute, Location, RtsConfig};

/// Every partition family over `[0, n)`, tiny blocks (many bContainers per
/// location) and empty sub-domains included.
fn partitions(n: usize) -> Vec<IndexPartition> {
    let mut all: Vec<IndexPartition> = vec![
        BalancedPartition::new(n, 1).into(),
        BalancedPartition::new(n, 3).into(),
        BalancedPartition::new(n, 8).into(),
        BlockedPartition::new(n, 1).into(),
        BlockedPartition::new(n, 2).into(),
        BlockedPartition::new(n, 7).into(),
        BlockCyclicPartition::new(n, 3, 1).into(),
        BlockCyclicPartition::new(n, 2, 3).into(),
        ExplicitPartition::from_sizes(&[n]).into(),
    ];
    if n >= 2 {
        all.push(ExplicitPartition::from_sizes(&[1, 0, n - 2, 0, 1]).into());
    }
    all
}

/// Cyclic, blocked (`ceil(parts / nlocs)` consecutive sub-domains per
/// location) and reversed placements of `parts` sub-domains.
fn mappers(parts: usize, nlocs: usize) -> Vec<PartitionMapper> {
    let per = parts.div_ceil(nlocs);
    vec![
        CyclicMapper::new(nlocs).into(),
        GeneralMapper::new(nlocs, (0..parts).map(|b| (b / per).min(nlocs - 1)).collect()).into(),
        GeneralMapper::new(nlocs, (0..parts).map(|b| (parts - 1 - b) % nlocs).collect()).into(),
    ]
}

fn value(g: usize, round: u64) -> u64 {
    g as u64 * 7 + 2 + round * 1000
}

/// Checks every element method of `a` on every gid against `dist`, an
/// independently built copy of the distribution `a` should be under:
/// placement (`is_local`, `locate_element`), writes from a non-owner and an
/// owner alike, an `apply_set` from a non-owner (the owner itself at P=1),
/// blocking and split-phase reads, and — through local iteration, which
/// walks the storage without resolving anything — that each write landed
/// in the slot of its own gid on its own location.
fn check_against(a: &PArray<u64>, dist: &IndexDistribution, loc: &Location, round: u64, stage: &str) {
    let (n, me, p) = (dist.global_size(), loc.id(), loc.nlocs());
    assert_eq!(a.global_size(), n, "{stage}");
    for g in 0..n {
        assert_eq!(a.locate_element(g), dist.locate(g), "{stage}: locate_element({g})");
        assert_eq!(a.is_local(g), dist.locate(g).1 == me, "{stage}: is_local({g})");
        if g % p == me {
            a.set_element(g, value(g, round) - 2);
        }
    }
    loc.rmi_fence();
    for g in (0..n).filter(|&g| (dist.locate(g).1 + 1) % p == me) {
        a.apply_set(g, |v| *v += 1);
    }
    loc.rmi_fence();
    for g in (0..n).filter(|g| (g + 1) % p == me) {
        let got = a.apply_get(g, |v| {
            *v += 1;
            *v
        });
        assert_eq!(got, value(g, round), "{stage}: apply_get({g})");
    }
    loc.rmi_fence();
    for g in 0..n {
        assert_eq!(a.get_element(g), value(g, round), "{stage}: get_element({g})");
        assert_eq!(a.split_get_element(g).get(), value(g, round), "{stage}: split_get({g})");
    }
    let mut mine = Vec::new();
    a.for_each_local(|g, v| {
        assert_eq!(*v, value(g, round), "{stage}: storage slot of {g}");
        mine.push(g);
    });
    let expect: Vec<usize> = dist
        .local_subdomains(me)
        .iter()
        .flat_map(|(_, sd)| sd.iter().collect::<Vec<_>>())
        .collect();
    assert_eq!(mine, expect, "{stage}: local gids in linearization order");
    // Reads above must finish everywhere before the next round's writes.
    loc.barrier();
}

#[test]
fn resolve_agrees_with_the_distribution_on_every_gid() {
    for p in 1..=4usize {
        for n in [0usize, 1, 2, 23] {
            for pi in 0..partitions(n).len() {
                for mi in 0..3 {
                    let what = format!("P={p} n={n} partition#{pi} mapper#{mi}");
                    execute(RtsConfig::default(), p, |loc| {
                        let part = partitions(n).swap_remove(pi);
                        let mapper = mappers(part.num_subdomains(), p).swap_remove(mi);
                        let dist = IndexDistribution::new(part.clone(), mapper.clone());
                        let a = PArray::with_partition(loc, part, mapper, 0);
                        check_against(&a, &dist, loc, 0, &what);

                        // Onto the next partition family (and another mapper).
                        let to_part = partitions(n).swap_remove((pi + 4) % partitions(n).len());
                        let to_map = mappers(to_part.num_subdomains(), p).swap_remove((mi + 1) % 3);
                        let dist = IndexDistribution::new(to_part.clone(), to_map.clone());
                        a.redistribute(to_part, to_map);
                        check_against(&a, &dist, loc, 1, &format!("{what}, redistributed"));

                        let parts = dist.partition().num_subdomains();
                        let rotated: Vec<usize> =
                            (0..parts).map(|b| (dist.mapper().map(b) + 1) % p).collect();
                        let dist = IndexDistribution::new(
                            dist.partition().clone(),
                            GeneralMapper::new(p, rotated),
                        );
                        a.rotate(1);
                        check_against(&a, &dist, loc, 2, &format!("{what}, rotated"));

                        let dist = IndexDistribution::new(
                            BalancedPartition::new(n, p),
                            CyclicMapper::new(p),
                        );
                        a.rebalance();
                        check_against(&a, &dist, loc, 3, &format!("{what}, rebalanced"));
                    });
                }
            }
        }
    }
}

/// The message `f` panicked with, or `None` when it returned.
fn panic_message<R>(f: impl FnOnce() -> R) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
    let text = payload.downcast_ref::<String>().cloned();
    Some(text.or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string())).unwrap_or_default())
}

/// The two reads that are not the test's own uncaught call — split-phase
/// and `apply_get` — panic on `gid` with the blocking methods' message.
fn reads_panic_out_of_bounds(a: &PArray<u8>, gid: usize) {
    let want = format!("pArray index {gid} out of bounds (size {})", a.global_size());
    let split = panic_message(|| a.split_get_element(gid));
    assert_eq!(split.as_deref(), Some(want.as_str()), "split_get_element");
    let apply = panic_message(|| a.apply_get(gid, |v| *v));
    assert_eq!(apply.as_deref(), Some(want.as_str()), "apply_get");
}

#[test]
#[should_panic(expected = "pArray index 5 out of bounds (size 5)")]
fn out_of_bounds_get_panics_on_one_location() {
    execute(RtsConfig::default(), 1, |loc| {
        let a = PArray::new(loc, 5, 0u8);
        reads_panic_out_of_bounds(&a, 5);
        a.get_element(5);
    });
}

#[test]
#[should_panic(expected = "pArray index 9 out of bounds (size 5)")]
fn out_of_bounds_set_panics_on_one_location() {
    execute(RtsConfig::default(), 1, |loc| {
        let a = PArray::new(loc, 5, 0u8);
        reads_panic_out_of_bounds(&a, 9);
        a.set_element(9, 1);
    });
}

#[test]
#[should_panic(expected = "pArray index 6 out of bounds (size 6)")]
fn out_of_bounds_get_panics_on_two_locations() {
    execute(RtsConfig::default(), 2, |loc| {
        let a = PArray::new(loc, 6, 0u8);
        reads_panic_out_of_bounds(&a, 6);
        a.get_element(6);
    });
}

#[test]
#[should_panic(expected = "pArray index 100 out of bounds (size 6)")]
fn out_of_bounds_set_panics_on_two_locations_and_many_bcontainers() {
    execute(RtsConfig::default(), 2, |loc| {
        let a = PArray::with_partition(
            loc,
            BlockedPartition::new(6, 1),
            CyclicMapper::new(2),
            0u8,
        );
        reads_panic_out_of_bounds(&a, 100);
        a.set_element(100, 1);
    });
}

/// A placement onto a location that does not exist is refused when the
/// array is built, not when an element stored nowhere is first reached.
#[test]
#[should_panic(expected = "pArray sub-domain 2 is placed on location 2, but nlocs is 2")]
fn placement_beyond_the_locations_panics_at_construction() {
    execute(RtsConfig::default(), 2, |loc| {
        let a = PArray::with_partition(loc, BalancedPartition::new(8, 4), CyclicMapper::new(4), 0u8);
        a.get_element(5);
    });
}

/// So is a placement table shorter than the partition, by `redistribute`.
#[test]
#[should_panic(expected = "pArray sub-domain 2 is placed on location none, but nlocs is 2")]
fn placement_table_too_short_panics_at_redistribute() {
    execute(RtsConfig::default(), 2, |loc| {
        let a = PArray::new(loc, 8, 0u8);
        a.redistribute(BalancedPartition::new(8, 4), GeneralMapper::new(2, vec![0, 1]));
    });
}

/// An element whose `Clone` panics on one value: reading that value panics
/// inside the probe, between the borrow and its release.
#[derive(Debug, PartialEq)]
struct Touchy(u64);

const UNCLONABLE: u64 = 13;

impl Clone for Touchy {
    fn clone(&self) -> Self {
        assert_ne!(self.0, UNCLONABLE, "cloned the unclonable value");
        Touchy(self.0)
    }
}

#[test]
fn a_panic_inside_the_probe_releases_the_borrow_and_keeps_the_value() {
    execute(RtsConfig::default(), 1, |loc| {
        let a = PArray::new(loc, 8, 5u64);
        assert!(panic_message(|| a.apply_get(3, |_| -> u64 { panic!("apply_get closure") })).is_some());
        assert!(panic_message(|| a.apply_set(3, |_| panic!("apply_set closure"))).is_some());
        // Neither left the element borrowed ("already borrowed") or changed.
        assert_eq!(a.get_element(3), 5);
        a.set_element(3, 6);
        assert_eq!(a.get_element(3), 6);

        let t = PArray::new(loc, 8, Touchy(1));
        t.set_element(3, Touchy(UNCLONABLE));
        assert!(panic_message(|| t.get_element(3)).is_some(), "get_element");
        assert!(panic_message(|| t.split_get_element(3)).is_some(), "split_get_element");
        assert_eq!(t.apply_get(3, |v| v.0), UNCLONABLE);
        t.set_element(3, Touchy(2));
        assert_eq!(t.get_element(3), Touchy(2));
        assert_eq!(t.split_get_element(3).get(), Touchy(2));
    });
}

/// A strided sub-domain misses the inline probe's one range test: as the
/// only local bContainer it still serves every element method through the
/// cold path's resolution, sending nothing.
#[test]
fn strided_subdomain_on_one_location_reads_and_writes_through_the_cold_path() {
    execute(RtsConfig::default(), 1, |loc| {
        let n = 16usize;
        let a = PArray::with_partition(
            loc,
            BlockCyclicPartition::new(n, 1, 3),
            CyclicMapper::new(1),
            0u64,
        );
        let want = |g: usize| 3 * g as u64 + 1;
        for g in 0..n {
            a.set_element(g, g as u64);
            a.apply_set(g, |v| *v *= 3);
            let bumped = a.apply_get(g, |v| {
                *v += 1;
                *v
            });
            assert_eq!(bumped, want(g));
        }
        for g in 0..n {
            assert_eq!(a.get_element(g), want(g));
            assert_eq!(a.split_get_element(g).get(), want(g));
        }
        let mut seen = Vec::new();
        a.for_each_local(|g, v| seen.push((g, *v)));
        assert_eq!(seen, (0..n).map(|g| (g, want(g))).collect::<Vec<_>>());
        assert_eq!(loc.stats().remote_requests, 0);
    });
}

/// Which element methods count as a local invocation when they run on the
/// caller's own location — the gated `local_invocations` baselines rest on
/// exactly this table.
#[test]
fn owned_element_methods_count_local_invocations_as_before() {
    execute(RtsConfig::default(), 1, |loc| {
        let counted = |f: &dyn Fn()| {
            let before = loc.local_stats();
            f();
            let d = loc.local_stats().since(&before);
            assert_eq!(d.remote_requests, 0);
            d.local_invocations
        };
        let h: PHashMap<u64, u64> = PHashMap::new(loc);
        assert_eq!(counted(&|| h.insert_async(1, 10)), 0);
        assert_eq!(counted(&|| h.apply_async(1, |v| *v += 1)), 1);
        assert_eq!(counted(&|| h.apply_async(2, |_| unreachable!("absent key"))), 1);
        assert_eq!(counted(&|| h.apply_or_insert(2, 0, |v| *v += 5)), 0);
        assert_eq!(counted(&|| assert_eq!(h.find(1), Some(11))), 0);
        assert_eq!(counted(&|| assert_eq!(h.split_find(2).get(), Some(5))), 1);
        assert_eq!(counted(&|| assert!(!h.insert(2, 6))), 1);
        assert_eq!(counted(&|| h.erase_async(2)), 1);
        assert_eq!(counted(&|| assert_eq!(h.find(2), None)), 0);

        let a = PArray::new(loc, 8, 0u64);
        assert_eq!(counted(&|| a.set_element(3, 4)), 0);
        assert_eq!(counted(&|| a.apply_set(3, |v| *v *= 2)), 0);
        assert_eq!(counted(&|| assert_eq!(a.apply_get(3, |v| *v + 1), 9)), 0);
        assert_eq!(counted(&|| assert_eq!(a.get_element(3), 8)), 0);
        assert_eq!(counted(&|| assert_eq!(a.split_get_element(3).get(), 8)), 1);
    });
}

/// This location's (local invocations, remote requests) during `f`.
fn counted(loc: &Location, f: impl FnOnce()) -> (u64, u64) {
    let before = loc.local_stats();
    f();
    let d = loc.local_stats().since(&before);
    (d.local_invocations, d.remote_requests)
}

/// Every associative element method of `c` against a sequential model, on
/// keys of every bucket: `bucket_of` against `bucket` (an independently
/// built copy of the partition), then writes by each key's owner, then
/// blocking and split-phase reads everywhere, then one location's updates of
/// local and remote keys. A method on a local key counts the local
/// invocations of the P=1 table above and sends nothing; on a remote key it
/// sends one request and counts none.
fn check_assoc<S: KvStore<u64, u64>>(loc: &Location, c: &PAssoc<u64, u64, S>, bucket: impl Fn(&u64) -> usize) {
    let (me, p) = (loc.id(), loc.nlocs());
    let keys = 0..120u64;
    let owner = |k: &u64| bucket(k) % p;
    // What a method on `k` that counts `local` when it runs here counts.
    let expect = |k: u64, local: u64| if owner(&k) == me { (local, 0) } else { (0, 1) };
    for k in keys.clone() {
        assert_eq!(c.bucket_of(&k), bucket(&k), "bucket_of({k})");
        assert_eq!(c.is_local_segment(bucket(&k)), owner(&k) == me, "is_local_segment of {k}");
        if owner(&k) == me {
            c.insert_async(k, k * 10);
        }
    }
    loc.rmi_fence();
    let mut model: BTreeMap<u64, u64> = keys.clone().map(|k| (k, k * 10)).collect();
    let check = |model: &BTreeMap<u64, u64>, stage: &str| {
        for k in 0..300u64 {
            assert_eq!(c.find(k), model.get(&k).copied(), "{stage}: find({k})");
            assert_eq!(c.split_find(k).get(), model.get(&k).copied(), "{stage}: split_find({k})");
        }
        loc.barrier();
    };
    check(&model, "inserted by owners");

    // Location 1 updates keys of every bucket; the others wait in the fence.
    if me == 1 {
        for k in keys.clone() {
            assert_eq!(counted(loc, || c.apply_async(k, |v| *v += 1)), expect(k, 1), "apply_async({k})");
            let absent = k + 1000;
            let got = counted(loc, || c.apply_async(absent, |_| unreachable!("absent")));
            assert_eq!(got, expect(absent, 1), "apply_async({absent})");
            let fresh = k + 200;
            let got = counted(loc, || c.apply_or_insert(fresh, 3, |v| *v *= 2));
            assert_eq!(got, expect(fresh, 0), "apply_or_insert({fresh})");
            assert_eq!(counted(loc, || c.insert_async(k, k + 5)), expect(k, 0), "insert_async({k})");
            if k % 3 == 0 {
                assert_eq!(counted(loc, || c.erase_async(k)), expect(k, 1), "erase_async({k})");
            }
        }
    }
    for k in keys.clone() {
        model.insert(k + 200, 6);
        if k % 3 == 0 {
            model.remove(&k);
        } else {
            model.insert(k, k + 5);
        }
    }
    loc.rmi_fence();
    check(&model, "updated by one location");

    if me == 1 {
        for k in keys {
            assert_eq!(counted(loc, || assert_eq!(c.find(k), model.get(&k).copied())), expect(k, 0), "find({k})");
            let split = counted(loc, || assert_eq!(c.split_find(k).get(), model.get(&k).copied()));
            assert_eq!(split, expect(k, 1), "split_find({k})");
        }
    }
    loc.barrier();
}

/// The associative paths that try the inline bucket first, on locations
/// that hold several buckets (7 hash buckets, or 6 splitter intervals, over
/// 3 locations): every element method agrees with a sequential model on
/// local and remote keys, and the local-invocation counts of
/// `owned_element_methods_count_local_invocations_as_before` hold at P=3.
#[test]
fn associative_methods_agree_with_a_model_when_a_location_holds_several_buckets() {
    execute(RtsConfig::default(), 3, |loc| {
        let h: PHashMap<u64, u64> = PHashMap::with_buckets(loc, 7);
        let hashed = HashPartition::new(7);
        check_assoc(loc, &h, |k| hashed.find(k));

        let splitters = vec![15, 40, 41, 90, 250];
        let m: PMap<u64, u64> = PMap::new(loc, splitters.clone());
        let sorted = SplitterPartition::new(splitters);
        check_assoc(loc, &m, |k| sorted.find(k));
    });
}
