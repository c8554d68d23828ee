//! The four workloads. Each file holds the library side, the plain-Rust
//! reference and the comparison of the two; the table of names and
//! reasons is in `metrics.rs`.

pub mod array_bulk;
pub mod dynamic_graph_kv;
pub mod rmi_reads;
pub mod rmi_writes;

use std::collections::hash_map::{DefaultHasher, HashMap};
use std::hash::BuildHasherDefault;

use stapl::containers::array::PArray;
use stapl::core::interfaces::RangedContainer;

/// The reference's hash map: `std`'s with its default hash function, but
/// with fixed keys. `HashMap::new()` draws new keys for every map, so the
/// lookups of one reference instance would collide differently from
/// those of the next and the reference would not be one fixed job.
pub type RefMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// This location's elements as (first gid, values) pieces, copied out of
/// the local storage slices — what a location hands back so that the
/// main thread can compare whole arrays with the reference.
pub fn local_pieces(a: &PArray<u64>) -> Vec<(usize, Vec<u64>)> {
    a.local_pieces()
        .into_iter()
        .map(|(bcid, piece)| {
            let vals = a
                .with_slice(bcid, piece, |s| s.to_vec())
                .expect("contiguous local storage");
            (piece.lo, vals)
        })
        .collect()
}

/// Reassembles the pieces of all locations into one array of length `n`;
/// `None` if they do not tile `0..n` exactly.
pub fn assemble<'a>(
    n: usize,
    pieces: impl Iterator<Item = &'a (usize, Vec<u64>)>,
) -> Option<Vec<u64>> {
    let mut out = vec![0u64; n];
    let mut covered = 0usize;
    for (lo, vals) in pieces {
        out.get_mut(*lo..lo + vals.len())?.copy_from_slice(vals);
        covered += vals.len();
    }
    (covered == n).then_some(out)
}

/// The contiguous share of `0..total` that location `me` of `nlocs`
/// issues: operation lists are split, not replicated, so a pass does the
/// same total work at P=1 and P=2.
pub fn share(total: usize, nlocs: usize, me: usize) -> std::ops::Range<usize> {
    (total * me / nlocs)..(total * (me + 1) / nlocs)
}
