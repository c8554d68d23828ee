//! Global identifiers (GIDs).
//!
//! Every pContainer element has a unique GID; the GID is what provides the
//! shared-object abstraction (Chapter V.C): all references to an element,
//! from any location, use the same GID. Indices are GIDs for pArray,
//! (row, col) pairs for pMatrix, keys for pMap, vertex descriptors for
//! pGraph, and stable (bcid, sequence) pairs for pList.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The bound every GID type must satisfy: cheap to copy, shippable across
/// locations, hashable (for directories), and comparable for identity.
pub trait Gid: Copy + Send + Eq + Hash + Debug + 'static {}

impl<T: Copy + Send + Eq + Hash + Debug + 'static> Gid for T {}

/// The bound for associative-container keys: like [`Gid`] but only
/// `Clone` (keys such as `String` are not `Copy`).
pub trait Key: Clone + Send + Eq + Hash + Debug + 'static {}

impl<T: Clone + Send + Eq + Hash + Debug + 'static> Key for T {}

/// Identifier of a base container (sub-domain) within a pContainer.
/// BCIDs are globally unique within one container and dense from zero for
/// static partitions.
pub type Bcid = usize;

/// The framework's one hasher (DESIGN.md "Hashing"): key placement
/// ([`crate::partition::HashPartition`]) and every hashed store are
/// evaluations of it under different seeds. Each word is xored in,
/// multiplied by an odd constant and its high half folded down; `finish`
/// runs one more such round, so that the low bits `std`'s table indexes by,
/// the top seven it tags by and the high 32 placement reduces all depend on
/// every input bit, and two seeds disagree. Not keyed: not for keys an
/// adversary chooses.
#[derive(Clone, Copy, Default)]
pub struct KeyHasher(u64);

/// [`KeyHasher`]'s odd multiplier, 2^64 / φ; also, alone, the Fibonacci
/// hash of an integer key whose top bits index a power-of-two table.
pub const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl KeyHasher {
    /// Placement's seed: the keys of one bucket still spread over its table.
    pub fn placement() -> Self {
        KeyHasher(0x2545_f491_4f6c_dd1d)
    }
}

impl Hasher for KeyHasher {
    /// Whole words, then the length and the tail, read with fixed-width
    /// loads: a variable-length copy into a zeroed word is a `memcpy` call
    /// per key, slower than SipHash on short strings.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("chunks of 8")));
        }
        let (t, n) = (words.remainder(), words.remainder().len());
        let u32_at = |i: usize| u64::from(u32::from_le_bytes(t[i..i + 4].try_into().expect("4 bytes")));
        let tail = match n {
            0 => 0,
            1..=3 => u64::from(t[0]) | u64::from(t[n / 2]) << 8 | u64::from(t[n - 1]) << 16,
            _ => u32_at(0) | u32_at(n - 4) << 32,
        };
        self.write_u64(tail.wrapping_add((bytes.len() as u64).wrapping_mul(MUL)));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let m = (self.0 ^ n).wrapping_mul(MUL);
        self.0 = m ^ (m >> 32);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let m = self.0.wrapping_mul(MUL);
        m ^ (m >> 32)
    }
}

/// A `HashMap` under [`KeyHasher`] — the store of every hashed container;
/// its iteration order is the same in every run.
pub type KeyHashMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_gid<G: Gid>() {}

    #[test]
    fn common_types_are_gids() {
        assert_gid::<usize>();
        assert_gid::<(usize, usize)>();
        assert_gid::<u64>();
        assert_gid::<i32>();
        assert_gid::<[u8; 4]>();
    }
}
