//! Container-concept interfaces (the specifications of Tables XI–XVIII).
//! A concept is a trait here only where some view or algorithm is generic
//! over it; the rest are inherent methods of the containers.
//!
//! | Table | Concept | Here |
//! |---|---|---|
//! | XI | base pContainer | [`PContainer`] |
//! | XII, XIV | element access by GID | [`ElementRead`], [`ElementWrite`] |
//! | XIII | dynamic pContainer (`clear`) | inherent methods on pList/pVector/pAssoc: no code is generic over it |
//! | XIV | indexed pContainer | [`RangedContainer`]: element access by index, bulk ranges and local pieces |
//! | XVI | associative pContainer | [`AssociativeContainer`] |
//! | XVII | relational pContainer | inherent methods on pGraph: no code is generic over it |
//! | XVIII | sequence pContainer (`push_*`, `insert_before_async`, `erase_async`) | inherent methods on pList/pVector: no code is generic over it |
//!
//! Two traits have no table: [`LocalIteration`], the native views' walk
//! over this location's elements, and [`SegmentedContainer`], the dynamic
//! containers' one-RMI-per-base-container transport.

use stapl_rts::{Location, RmiFuture};

use crate::bcontainer::MemSize;
use crate::distribution::GidRun;
use crate::domain::Range1d;
use crate::gid::{Bcid, Gid};

/// Base pContainer interface (Table XI): a distributed object with a
/// (possibly lazily tracked) global size.
pub trait PContainer {
    /// The location this handle lives on.
    fn location(&self) -> &Location;

    /// Number of elements, globally. For dynamic containers this may be a
    /// cached value refreshed by [`PContainer::commit`] (the paper's lazy
    /// replicated size, Chapter VII.G).
    fn global_size(&self) -> usize;

    /// Number of elements stored on this location.
    fn local_size(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.global_size() == 0
    }

    /// **Collective.** Synchronization point for dynamic containers: drains
    /// pending structural operations (via fence) and refreshes replicated
    /// metadata such as the cached global size — the paper's
    /// `post_execute()` hook. A no-op beyond the fence for static ones.
    fn commit(&self) {
        self.location().rmi_fence();
    }

    /// **Collective.** Global (metadata, data) memory footprint in bytes.
    fn memory_size(&self) -> MemSize {
        MemSize::default()
    }
}

/// Element read access by GID (read side of Tables XII/XIV).
pub trait ElementRead<G: Gid>: PContainer {
    type Value: Send + Clone + 'static;

    /// Synchronous read (the paper's `get_element`): blocks until the value
    /// is available.
    fn get_element(&self, g: G) -> Self::Value;

    /// Split-phase read (`split_phase_get_element`): returns a future.
    fn split_get_element(&self, g: G) -> RmiFuture<Self::Value>;

    /// True when the element lives on this location.
    fn is_local(&self, g: G) -> bool;
}

/// Element write access by GID (write side of Tables XII/XIV).
pub trait ElementWrite<G: Gid>: ElementRead<G> {
    /// Asynchronous write (`set_element`): returns immediately; completion
    /// guaranteed by the next fence, ordered with respect to other
    /// operations from this location on the same element.
    fn set_element(&self, g: G, v: Self::Value);

    /// Asynchronously applies `f` to the element (`apply_set`). Executes at
    /// the owner — the building block for read-modify-write without a
    /// round trip.
    fn apply_set<F>(&self, g: G, f: F)
    where
        F: FnOnce(&mut Self::Value) + Send + 'static;

    /// Synchronously applies `f` and returns its result (`apply_get`).
    fn apply_get<R, F>(&self, g: G, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut Self::Value) -> R + Send + 'static;
}

/// Iteration over the elements stored on this location, in local
/// linearization order. The fast path used by native views: no RMI.
pub trait LocalIteration<G: Gid>: ElementRead<G> {
    fn for_each_local(&self, f: impl FnMut(G, &Self::Value));

    fn for_each_local_mut(&self, f: impl FnMut(G, &mut Self::Value));
}

/// Indexed pContainers (Table XIV: pArray, and through it pMatrix's
/// row-major linearization and pVector's committed elements): GIDs are
/// dense indices `[0, n)`, and contiguous GID ranges have **bulk-range
/// transport** (the localization layer's container half). A range moves
/// as one RMI per (owner, storage-contiguous run) instead of one boxed
/// request per element, and a fully-local run is served by a direct slice
/// borrow — one `RefCell` borrow per chunk. This is the coarsening the
/// paper's localized views rely on to run pAlgorithms at sequential speed.
///
/// Every remote run, of any length, ships as one bulk RMI. Instrumentation:
/// bulk RMIs bump `bulk_requests` and direct slice borrows bump
/// `localized_chunks`.
pub trait RangedContainer: ElementWrite<usize> + LocalIteration<usize> {
    /// Decomposes `[r.lo, r.hi)` into its maximal storage-contiguous runs
    /// in GID order (O(runs), replicated metadata only — no communication).
    fn runs(&self, r: Range1d) -> Vec<GidRun>;

    /// The storage-contiguous pieces of *this location's* elements,
    /// ascending by BCID — the chunk decomposition localized algorithms
    /// and views walk. One (bcid, GID-range) pair per maximal
    /// slice-backed run, none empty; the same placement [`RangedContainer::runs`]
    /// routes by.
    fn local_pieces(&self) -> Vec<(Bcid, Range1d)>;

    /// Bulk read of `[r.lo, r.hi)` in GID order: one RMI per remote run,
    /// one slice borrow per local run.
    fn get_range(&self, r: Range1d) -> Vec<Self::Value>;

    /// Bulk write of `vals` to GIDs `lo..lo + vals.len()`: asynchronous
    /// (complete by the next fence), one RMI per remote run. Only the
    /// remote runs are copied out of `vals`.
    fn set_range(&self, lo: usize, vals: &[Self::Value]);

    /// Owner-side bulk read-modify-write: applies `f(gid, &mut value)`
    /// over the range, shipping one closure per remote run
    /// (asynchronous, like [`ElementWrite::apply_set`]).
    fn apply_range<F>(&self, r: Range1d, f: F)
    where
        F: Fn(usize, &mut Self::Value) + Clone + Send + 'static;

    /// Direct borrow of the local contiguous storage backing `gids`
    /// (which must be one storage-contiguous run inside `bcid`, as
    /// produced by [`RangedContainer::runs`]). `None` exactly when `bcid`
    /// is not stored on this location: every local piece lends its slice.
    fn with_slice<R>(
        &self,
        bcid: Bcid,
        gids: Range1d,
        f: impl FnOnce(&[Self::Value]) -> R,
    ) -> Option<R>;

    /// Mutable counterpart of [`RangedContainer::with_slice`].
    fn with_slice_mut<R>(
        &self,
        bcid: Bcid,
        gids: Range1d,
        f: impl FnOnce(&mut [Self::Value]) -> R,
    ) -> Option<R>;
}

/// Identifier of one base-container *segment* of a dynamic container: the
/// pList slab, pAssoc bucket, or pGraph vertex-partition BCID.
pub type SegmentId = Bcid;

/// Dynamic containers with **segment-at-a-time bulk transport** — the
/// non-indexed sibling of [`RangedContainer`]. Dynamic containers have no
/// dense GID ranges to coarsen over, but they *are* organized as base
/// containers, so a whole base container (a pList slab, a pAssoc bucket,
/// a pGraph vertex partition) can be read or written back as **one RMI
/// per (owner, segment)** instead of one request per element, and local
/// segments are served by a direct borrow (one `RefCell` borrow per
/// segment). Bulk *insertion* is container-specific: pAssoc's
/// `merge_segment`.
///
/// Items travel as `(key, payload)` pairs, where the key is the item's
/// stable identifier *within* the container (pList element id, pAssoc
/// key, pGraph vertex descriptor) so segmented writes can address existing
/// items. Instrumentation: remote segment RMIs bump `segment_requests`,
/// direct borrows bump `localized_chunks`.
pub trait SegmentedContainer: PContainer {
    /// Stable per-item identifier (pList `(bcid, seq)`'s sequence number,
    /// pAssoc key, pGraph vertex descriptor).
    type ItemKey: Send + Clone + 'static;
    /// The transported per-item payload.
    type ItemVal: Send + Clone + 'static;

    /// All segment ids of the container, ascending — replicated metadata,
    /// no communication. Segments may currently live anywhere.
    fn segments(&self) -> Vec<SegmentId>;

    /// Segment ids currently stored on this location, ascending.
    fn local_segments(&self) -> Vec<SegmentId>;

    /// True when `sid` is stored on this location (no communication).
    fn is_local_segment(&self, sid: SegmentId) -> bool;

    /// Bulk read of a whole segment in segment order: one RMI when the
    /// segment is remote, one borrow when local.
    fn get_segment(&self, sid: SegmentId) -> Vec<(Self::ItemKey, Self::ItemVal)>;

    /// Asynchronous bulk write of the payloads of *existing* items named
    /// by the keys (absent keys are skipped) — the segmented sibling of
    /// `set_element`, one RMI per (owner, segment).
    fn set_segment(&self, sid: SegmentId, items: Vec<(Self::ItemKey, Self::ItemVal)>);

    /// Visits each (key, payload) of a **local** segment in segment order
    /// under a single borrow — the direct-borrow fast path (no clone, no
    /// RMI). Returns `false` without calling `f` when the segment is not
    /// on this location; callers fall back to
    /// [`SegmentedContainer::get_segment`].
    fn with_segment(
        &self,
        sid: SegmentId,
        f: &mut dyn FnMut(&Self::ItemKey, &Self::ItemVal),
    ) -> bool;
}

/// Associative pContainers (Table XVI): key → value storage.
pub trait AssociativeContainer<K: crate::gid::Key>: PContainer {
    type Mapped: Send + Clone + 'static;

    /// Asynchronous insert (last write wins on duplicate keys, as the
    /// paper's pMap overwrite semantics).
    fn insert_async(&self, k: K, v: Self::Mapped);

    /// Asynchronous erase (`erase_async`).
    fn erase_async(&self, k: K);

    /// Synchronous lookup (`find_val`): `None` when absent.
    fn find(&self, k: K) -> Option<Self::Mapped>;

    /// Split-phase lookup (`split_phase_find`).
    fn split_find(&self, k: K) -> RmiFuture<Option<Self::Mapped>>;

    /// True when the key exists (synchronous).
    fn contains(&self, k: K) -> bool {
        self.find(k).is_some()
    }
}
