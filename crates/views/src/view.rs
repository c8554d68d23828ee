//! The pView concept (Chapter III.A): `V = (C, D, F, O)` — a collection
//! `C`, a domain `D` of view indices, a mapping function `F` from view
//! indices to container GIDs, and operations `O`.
//!
//! Views are value types holding a cheap clone of the container handle.
//! Parallelism comes from [`ViewRead::local_chunks`]: the partition of the
//! view's domain this location should process — aligned with the
//! container's distribution for *native* views, or an arbitrary balanced
//! split otherwise (the paper's base-view/bView mechanism).

use stapl_core::domain::Range1d;
use stapl_rts::{Counter, Location};

/// Read operations of a one-dimensional view over value type `Value`.
pub trait ViewRead {
    type Value: Send + Clone + 'static;

    /// Number of elements the view represents.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Synchronous read of view index `k` (the view applies its mapping
    /// function and routes to the container).
    fn get(&self, k: usize) -> Self::Value;

    /// The location this view handle lives on.
    fn location(&self) -> &Location;

    /// View-index ranges this location should process. The union over all
    /// locations is exactly `[0, len())`; chunks are disjoint.
    fn local_chunks(&self) -> Vec<Range1d>;

    /// Chunk-at-a-time read: calls `f(view_lo, values)` over consecutive
    /// sub-ranges that exactly cover [`ViewRead::local_chunks`] in order,
    /// where `values[i]` is element `view_lo + i`. Implementations may
    /// subdivide a chunk (e.g. one call per storage run or matrix row).
    /// The default gathers element-wise (and records the elements as
    /// `element_fallbacks`); localized views override it with direct
    /// slice borrows and one bulk RMI per remote run.
    fn for_each_chunk(&self, mut f: impl FnMut(usize, &[Self::Value]))
    where
        Self: Sized,
    {
        for ch in self.local_chunks() {
            if ch.is_empty() {
                continue;
            }
            self.location().count(Counter::element_fallbacks, ch.len() as u64);
            let buf: Vec<Self::Value> = ch.iter().map(|k| self.get(k)).collect();
            f(ch.lo, &buf);
        }
    }
}

/// Write operations of a one-dimensional view.
pub trait ViewWrite: ViewRead {
    /// Asynchronous write of view index `k`.
    fn set(&self, k: usize, v: Self::Value);

    /// Asynchronous read-modify-write executed at the owner.
    fn apply<F>(&self, k: usize, f: F)
    where
        F: FnOnce(&mut Self::Value) + Send + 'static;

    /// Chunk-at-a-time generation: calls `gen(r)` over consecutive
    /// sub-ranges covering [`ViewRead::local_chunks`] and writes the
    /// returned values (which must be `r.len()` long) to `r`.
    /// Implementations may subdivide a chunk. The default writes
    /// element-wise; localized views override with one slice write per
    /// chunk.
    fn fill_from(&self, mut gen: impl FnMut(Range1d) -> Vec<Self::Value>)
    where
        Self: Sized,
    {
        for ch in self.local_chunks() {
            if ch.is_empty() {
                continue;
            }
            let vals = gen(ch);
            debug_assert_eq!(vals.len(), ch.len(), "fill_from generator length mismatch");
            self.location().count(Counter::element_fallbacks, ch.len() as u64);
            for (k, v) in ch.iter().zip(vals) {
                self.set(k, v);
            }
        }
    }

    /// Chunk-at-a-time in-place update: applies `f` to every element of
    /// this location's chunks. The default ships `f` element-wise with
    /// [`ViewWrite::apply`] (owner-side execution, one request per
    /// element); localized views override with direct slice mutation, one
    /// slice per chunk.
    fn apply_chunks<F>(&self, f: F)
    where
        Self: Sized,
        F: Fn(&mut Self::Value) + Clone + Send + 'static,
    {
        for ch in self.local_chunks() {
            if ch.is_empty() {
                continue;
            }
            self.location().count(Counter::element_fallbacks, ch.len() as u64);
            for k in ch.iter() {
                self.apply(k, f.clone());
            }
        }
    }
}

/// Splits `[0, n)` into `parts` balanced consecutive chunks; chunk `i`.
pub fn balanced_chunk(n: usize, parts: usize, i: usize) -> Range1d {
    let base = n / parts;
    let extra = n % parts;
    let lo = i * base + i.min(extra);
    let hi = lo + base + usize::from(i < extra);
    Range1d::new(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_chunks_cover_without_overlap() {
        for n in [0usize, 1, 7, 64, 100] {
            for parts in [1usize, 2, 3, 8] {
                let mut covered = 0;
                let mut prev_hi = 0;
                for i in 0..parts {
                    let c = balanced_chunk(n, parts, i);
                    assert_eq!(c.lo, prev_hi, "chunks must be consecutive");
                    prev_hi = c.hi;
                    covered += c.len();
                }
                assert_eq!(covered, n);
                assert_eq!(prev_hi, n);
            }
        }
    }

    #[test]
    fn balanced_chunk_sizes_differ_by_at_most_one() {
        for i in 0..5 {
            let c = balanced_chunk(13, 5, i);
            assert!(c.len() == 2 || c.len() == 3);
        }
    }
}
