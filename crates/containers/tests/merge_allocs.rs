//! The pAssoc combine costs one store operation per pair, not a lookup,
//! an insert that hashes again and a table that grows as it fills:
//! `merge_segment` sizes a bucket's table once, and `apply_or_insert`
//! clones no key. Its own test binary, with a counting global allocator
//! and one test: allocator calls are deterministic, so this holds on a
//! shared CI runner.

use stapl_containers::associative::PHashMap;
use stapl_core::interfaces::{AssociativeContainer, PContainer};
use stapl_rts::{execute, RtsConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Allocations and reallocations the calling thread — the one location's
/// — makes while `call` runs.
fn calls(call: impl FnOnce()) -> usize {
    counting_alloc::measure(call).1.calls
}

const KEYS: usize = 4096;

fn words(from: usize, n: usize) -> Vec<(String, u64)> {
    (from..from + n).map(|i| (format!("w{i}"), 1)).collect()
}

#[test]
fn merges_size_the_bucket_once_and_clone_no_key() {
    execute(RtsConfig::base(), 1, |loc| {
        let m: PHashMap<String, u64> = PHashMap::new(loc);
        let sid = m.bucket_of(&"w0".to_string());
        let add = |a: &mut u64, b: u64| *a += b;

        // Distinct keys into an empty bucket: the table is allocated once,
        // at its final size, not grown a dozen times on the way.
        let fresh = words(0, KEYS);
        assert_eq!(calls(|| m.merge_segment(sid, fresh, 0, add)), 1, "merge into an empty bucket");

        // The same keys again, as a peer's partial would bring them: every
        // pair is a hit, and the table is not grown for keys it holds.
        let again = words(0, KEYS);
        assert_eq!(calls(|| m.merge_segment(sid, again, 0, add)), 0, "merge of held keys");

        // A miss moves the owned key into the store; a hit drops it. Room
        // is left in the table, so no call may allocate.
        let singles: Vec<String> = (KEYS - 8..KEYS + 8).map(|i| format!("w{i}")).collect();
        let n = calls(|| singles.into_iter().for_each(|k| m.apply_or_insert(k, 0, |c| *c += 1)));
        assert_eq!(n, 0, "apply_or_insert cloned a key");

        m.commit();
        assert_eq!(m.global_size(), KEYS + 8);
        assert_eq!(m.find("w0".into()), Some(2));
        assert_eq!(m.find(format!("w{}", KEYS - 1)), Some(3));
        assert_eq!(m.find(format!("w{KEYS}")), Some(1));
    });
}
