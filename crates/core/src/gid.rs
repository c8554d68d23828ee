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

/// Hasher for tables keyed by the ids the framework hands out itself
/// (vertex descriptors `me + k·P`, BCIDs). `std`'s table picks the bucket
/// from the low bits of the hash and its tag from the top seven, so an
/// identity or plain multiplicative hash — whose low bits depend only on
/// the key's low bits — collapses on a constant stride: multiply by an odd
/// constant, then fold the high half down. Not for keys from outside the
/// program, and not for placement ([`crate::directory::home_of`]).
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|b| self.write_u64(u64::from(*b)));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let m = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = m ^ (m >> 32);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` under [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

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
