//! # stapl-containers — the pContainer library
//!
//! The containers of Chapters IX–XIII, all assembled from the
//! `stapl-core` PCF modules (Fig. 12's inheritance, expressed as
//! composition of the framework parts):
//!
//! | Container | Taxonomy (Fig. 5) | Module |
//! |---|---|---|
//! | [`array::PArray`] | static, indexed | [`mod@array`] |
//! | [`vector::PVector`] | dynamic, indexed + sequence | [`vector`] |
//! | [`list::PList`] | dynamic, sequence | [`list`] |
//! | [`matrix::PMatrix`] | static, indexed (2-D) | [`matrix`] |
//! | [`graph::PGraph`] | dynamic, relational | [`graph`] |
//! | [`associative::PMap`] etc. | dynamic, associative | [`associative`] |
//!
//! ## Composition (Section IV.C, Chapter XIII)
//!
//! A composed pContainer is one whose *elements are containers*, with
//! nested GIDs `(outer, inner)` (Eq. 4.2) and nested parallel operations.
//! The outer container is distributed; each inner container lives entirely
//! on its element's owning location. This is the specialization the paper
//! itself proposes for the bottom of a composition hierarchy ("if the
//! lower level of the composed pContainer is distributed across a single
//! shared memory node, then its mapping F can be specialized … some
//! methods may turn into empty function calls"), and here the inner
//! container is a plain `Vec<T>`: inner operations execute at the owner
//! with zero additional communication, and nested parallelism falls out of
//! processing outer elements on their owning locations.
//!
//! Because a `Vec<T>` is an ordinary `Send + Clone` value, *any* container
//! in this crate composes: `PArray<Vec<T>>`, `PList<Vec<T>>`,
//! `PArray<Vec<Vec<T>>>` (height 3), and so on — the
//! closure-under-composition property of Definition 12. A nested get, set,
//! resize or whole-row algorithm is one `apply_get`/`apply_set` with a
//! closure, executed at the owner in one hop (`tests/composition.rs`).

#![forbid(unsafe_code)]

pub mod array;
pub mod associative;
pub mod generators;
pub mod graph;
pub mod list;
pub mod matrix;
pub mod slab_list;
pub mod vector;

pub mod prelude {
    pub use crate::array::PArray;
    pub use crate::associative::{PAssoc, PHashMap, PHashSet, PMap, PMultiMap, PSet};
    pub use crate::generators::{
        fill_binary_tree, fill_dag_with_sources, fill_mesh, fill_ssca2, static_digraph, Ssca2Params,
    };
    pub use crate::graph::{Directedness, Edge, GraphPartitionKind, PGraph, Vertex, VertexDesc};
    pub use crate::list::{ListGid, PList};
    pub use crate::matrix::PMatrix;
    pub use crate::slab_list::SlabList;
    pub use crate::vector::PVector;
}

// ---------------------------------------------------------------------
// Crate-internal transport helpers shared by the dynamic containers
// ---------------------------------------------------------------------

use stapl_core::pobject::PObject;
use stapl_rts::Counter;

/// One location's contribution to a data gather: its base containers'
/// items, keyed by BCID.
pub(crate) type BcidPayload<T> = Vec<(stapl_core::gid::Bcid, Vec<T>)>;

/// One-sided gather-to-caller shared by the dynamic containers'
/// `collect_ordered`: every *other* location ships its (BCID, items)
/// pairs once over a split RMI (noting the payload in `gather_items`),
/// the caller merges by BCID and flattens — O(n) to the single caller,
/// where the old allreduce made every location materialize all n items.
/// Peers only need to be polling (e.g. blocked in a fence or barrier).
pub(crate) fn gather_by_bcid<Rep, T>(
    obj: &PObject<Rep>,
    payload: fn(&Rep) -> BcidPayload<T>,
) -> Vec<T>
where
    Rep: 'static,
    T: Send + Clone + 'static,
{
    let me = obj.location().id();
    let nlocs = obj.location().nlocs();
    let futs: Vec<stapl_rts::RmiFuture<BcidPayload<T>>> = (0..nlocs)
        .filter(|l| *l != me)
        .map(|l| {
            obj.invoke_split_at(l, move |cell, loc| {
                let out = payload(&cell.borrow());
                let items: usize = out.iter().map(|(_, p)| p.len()).sum();
                loc.count(Counter::gather_items, items as u64);
                out
            })
        })
        .collect();
    let mut all = payload(&obj.local());
    for f in futs {
        all.extend(f.get());
    }
    all.sort_by_key(|(bcid, _)| *bcid);
    all.into_iter().flat_map(|(_, p)| p).collect()
}

/// One-sided probe sweep behind [`LazySize::read`]'s dirty reads: asks
/// every location for its local contribution over split RMIs and returns
/// the per-location results. Per-pair FIFO orders each probe behind the
/// caller's directly-routed mutations to that location, so the caller
/// observes its own earlier (non-forwarded) mutations.
pub(crate) fn sweep<Rep, V>(
    obj: &PObject<Rep>,
    probe: fn(&Rep) -> V,
) -> Vec<V>
where
    Rep: 'static,
    V: Send + 'static,
{
    let futs: Vec<stapl_rts::RmiFuture<V>> = (0..obj.location().nlocs())
        .map(|l| obj.invoke_split_at(l, move |cell, _| probe(&cell.borrow())))
        .collect();
    futs.into_iter().map(|f| f.get()).collect()
}

/// What a [`LazySize`] counts: pList's and pAssoc's elements, pGraph's
/// (vertices, edges).
pub(crate) trait Count: Copy + Default + Send + 'static {
    fn add(self, other: Self) -> Self;
}

impl Count for usize {
    fn add(self, other: usize) -> usize {
        self + other
    }
}

impl Count for (usize, usize) {
    fn add(self, other: Self) -> Self {
        (self.0 + other.0, self.1 + other.1)
    }
}

/// The dynamic containers' lazily replicated size (Chapter VII.G): the
/// count agreed by the last `commit`, and whether a mutation that may
/// have changed it has been issued or executed on this location since.
/// A size-changing mutation marks it at the issuer *and* at the owner, so
/// any location a mutation touched stops trusting the committed count.
#[derive(Clone, Copy, Default)]
pub(crate) struct LazySize<N> {
    committed: N,
    dirty: bool,
}

impl<N: Count> LazySize<N> {
    pub(crate) fn new(committed: N) -> Self {
        LazySize { committed, dirty: false }
    }

    /// Marks the committed count stale when `changed`.
    #[inline]
    pub(crate) fn mark(&mut self, changed: bool) {
        self.dirty |= changed;
    }

    /// The committed count when clean. When dirty, a [`sweep`] of every
    /// location's `count`, not cached: reads stay on this path (and re-pay
    /// the O(P) sweep) until `commit` installs the agreed count. The sweep
    /// sees this location's own directly-routed mutations; ones still
    /// forwarding through a directory home, or in flight from other
    /// locations, may be missed.
    pub(crate) fn read<Rep: 'static>(
        obj: &PObject<Rep>,
        size: fn(&Rep) -> Self,
        count: fn(&Rep) -> N,
    ) -> N {
        let size = size(&obj.local());
        if !size.dirty {
            return size.committed;
        }
        sweep(obj, count).into_iter().fold(N::default(), N::add)
    }

    /// **Collective.** Fence, one allreduce of every location's `count`,
    /// install the total as the clean committed count, barrier. (`clear`
    /// resets to `LazySize::default()` inside its own fence and barrier.)
    pub(crate) fn commit<Rep: 'static>(
        obj: &PObject<Rep>,
        size: fn(&mut Rep) -> &mut Self,
        count: fn(&Rep) -> N,
    ) {
        let loc = obj.location();
        loc.rmi_fence();
        let local = count(&obj.local());
        let total = loc.allreduce(local, N::add);
        *size(&mut obj.local_mut()) = Self::new(total);
        loc.barrier();
    }
}
