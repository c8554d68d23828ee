//! The framework's one hasher (`core::gid::KeyHasher`) decides both which
//! bucket of a hash partition a key goes to and where it sits in that
//! bucket's table. These tests hold it to what that double duty needs, on
//! the key families the containers and benchmarks actually produce:
//! placement is balanced, and placement and table position are independent.

use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

use stapl_core::gid::KeyHasher;
use stapl_core::partition::{HashPartition, KeyPartition};

const N: usize = 1 << 14;

/// Checks one key family over every bucket count.
fn check<K: Hash + 'static>(family: &str, keys: &[K]) {
    let table = BuildHasherDefault::<KeyHasher>::default();
    for buckets in [2usize, 3, 4, 7, 16, 64] {
        let part = HashPartition::new(buckets);
        let mut members: Vec<Vec<u64>> = vec![Vec::new(); buckets];
        for k in keys {
            members[part.find(k)].push(table.hash_one(k));
        }
        let fullest = members.iter().map(Vec::len).max().expect("a bucket");
        assert!(
            fullest * buckets * 4 <= keys.len() * 5,
            "{family}: the fullest of {buckets} buckets holds {fullest} of {} keys",
            keys.len()
        );
        // What one bucket's table sees of its keys: `std`'s table indexes by
        // the low bits and tags by the top seven. 1024 random draws take
        // ~647 of 1024 values; a bucket with fewer keys cannot be held to it.
        for (b, hashes) in members.iter().enumerate().filter(|(_, h)| h.len() >= 1024) {
            let distinct = |f: fn(u64) -> u64, of: usize| {
                let mut seen = vec![false; of];
                hashes.iter().for_each(|h| seen[f(*h) as usize] = true);
                seen.iter().filter(|s| **s).count()
            };
            let (low, top) = (distinct(|h| h & 1023, 1024), distinct(|h| h >> 57, 128));
            assert!(low >= 600, "{family}: bucket {b} of {buckets}: {low} of 1024 low-bit values");
            assert!(top >= 100, "{family}: bucket {b} of {buckets}: {top} of 128 tags");
        }
    }
}

#[test]
fn placement_is_balanced_and_independent_of_table_position() {
    check("0..2^14", &(0..N as u64).collect::<Vec<_>>());
    for k in [1u32, 8, 16, 32, 48] {
        check(&format!("multiples of 2^{k}"), &(0..N as u64).map(|i| i << k).collect::<Vec<_>>());
    }
    for p in [2usize, 3, 64] {
        for me in [0, p - 1] {
            check(&format!("{me} + k*{p}"), &(0..N).map(|k| me + k * p).collect::<Vec<_>>());
        }
    }
    check("word{i}", &(0..N).map(|i| format!("word{i}")).collect::<Vec<_>>());
    check("(u32, u32) grid", &(0..N as u32).map(|i| (i / 128, i % 128)).collect::<Vec<_>>());
    check("(u32, u32) diagonal band", &(0..N as u32).map(|i| (i, i ^ 1)).collect::<Vec<_>>());
}

fn write_hash(bytes: &[u8]) -> u64 {
    let mut h = KeyHasher::default();
    h.write(bytes);
    h.finish()
}

#[test]
fn write_separates_strings_that_differ_in_one_byte_or_only_in_length() {
    for len in 0..=17usize {
        for fill in [0u8, b'a', 0xff] {
            let base = vec![fill; len];
            for at in 0..len {
                for flip in [1u8, 0x80, 0xff] {
                    let mut other = base.clone();
                    other[at] ^= flip;
                    assert_ne!(write_hash(&base), write_hash(&other), "{base:?} / {other:?}");
                }
            }
            // "ab" / "ab\0": the tail's length is hashed, not padded over.
            for pad in 1..=(17 - len) {
                let mut longer = base.clone();
                longer.extend(std::iter::repeat(0).take(pad));
                assert_ne!(write_hash(&base), write_hash(&longer), "{base:?} / {longer:?}");
            }
        }
    }
    assert_ne!(write_hash(b"ab"), write_hash(b"ab\0"));
}
