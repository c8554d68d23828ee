//! pGraph (Chapter XI): a distributed relational pContainer — vertices,
//! edges, and properties on both.
//!
//! Vertices are distributed over locations; a location keeps its vertices'
//! out-edge lists in one buffer (the adjacency-list storage the paper
//! motivates, laid out flat). Three address-resolution strategies are
//! provided, matching the partitions compared in Figs. 51/52:
//!
//! * [`GraphPartitionKind::Static`] — the vertex count is fixed at
//!   construction; vertex → location is a closed-form balanced partition
//!   (`add_vertex` panics, as the paper specifies for static pGraphs);
//! * [`GraphPartitionKind::DynamicFwd`] — vertices are created/deleted at
//!   runtime; resolution goes through the distributed directory with
//!   *method forwarding*;
//! * [`GraphPartitionKind::DynamicTwoPhase`] — same directory, but the
//!   requester performs a synchronous lookup first ("no forwarding").
//!
//! Operations on a vertex that is already local bypass resolution entirely
//! (the local fast path): one probe of the location's vertex table
//! ([`GraphBc`] — dense slots behind an open-addressed table of slot
//! numbers keyed by the slots' own descriptors, the hashed adjacency list
//! STAPL's dynamic pGraph uses) finds the vertex and runs the operation on
//! it.

use std::cell::{Ref, RefCell};
use std::ops::{Deref, Range};

use stapl_core::bcontainer::{BaseContainer, MemSize};
use stapl_core::directory::{
    dir_insert, dir_migrate, dir_register, dir_remove, dir_route, dir_route_ret, DirectoryShard,
    HasDirectory, OwnerCache, Resolution,
};
use stapl_core::gid::{Bcid, MUL};
use stapl_core::interfaces::{PContainer, SegmentId, SegmentedContainer};
use stapl_core::partition::{BalancedPartition, IndexPartition};
use stapl_core::pobject::PObject;
use stapl_rts::{Counter, LocId, Location, RmiFuture};

use crate::LazySize;

/// Vertex descriptor (the vertex GID).
pub type VertexDesc = usize;

/// A directed edge with a property (Table XXVI's edge reference). Its
/// source is not stored: an edge lives among the out-edges of its source
/// vertex, whose descriptor it is.
#[derive(Clone, Debug, PartialEq)]
pub struct Edge<EP> {
    pub target: VertexDesc,
    pub property: EP,
}

/// An owned vertex with property and out-edges: what a migration carries,
/// and what [`GraphBc`] stores and hands back.
#[derive(Clone, Debug)]
pub struct Vertex<VP, EP> {
    pub descriptor: VertexDesc,
    pub property: VP,
    pub edges: Vec<Edge<EP>>,
}

/// A stored vertex, borrowed in place (Table XXV's vertex reference).
pub struct VertexRef<'a, VP, EP> {
    pub descriptor: VertexDesc,
    pub property: &'a VP,
    pub edges: Edges<'a, EP>,
}

/// A vertex's out-edges in arrival order: its run of the edge buffer.
pub struct Edges<'a, EP>(&'a [Edge<EP>]);

impl<EP> Deref for Edges<'_, EP> {
    type Target = [Edge<EP>];

    fn deref(&self) -> &[Edge<EP>] {
        self.0
    }
}

impl<'a, EP> IntoIterator for &Edges<'a, EP> {
    type Item = &'a Edge<EP>;
    type IntoIter = std::slice::Iter<'a, Edge<EP>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// A stored vertex, borrowed mutably: its property in place, and its
/// out-edges, which it can add to.
pub struct VertexMut<'a, VP, EP> {
    pub descriptor: VertexDesc,
    pub property: &'a mut VP,
    pub edges: EdgesMut<'a, EP>,
}

/// A vertex's out-edges, borrowed mutably: the edges pushed through this
/// borrow go to the log.
pub struct EdgesMut<'a, EP> {
    buf: &'a mut Vec<Edge<EP>>,
    log: &'a mut Vec<u32>,
    slot: u32,
    /// The out-degree when the borrow began.
    degree: usize,
    /// `buf.len()` when the borrow began: `buf[pushed..]` are its pushes.
    pushed: usize,
}

impl<EP> EdgesMut<'_, EP> {
    pub fn len(&self) -> usize {
        self.degree + self.buf.len() - self.pushed
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn push(&mut self, e: Edge<EP>) {
        self.buf.push(e);
        self.log.push(self.slot);
    }
}

/// Direction semantics: undirected graphs store each edge at both
/// endpoints (so traversals see it from either side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Directedness {
    Directed,
    Undirected,
}

/// Which address-resolution strategy the pGraph uses (Fig. 51/52).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphPartitionKind {
    Static,
    DynamicFwd,
    DynamicTwoPhase,
}

/// A stored vertex: its out-edges are the run `edges[at..at + len]` of
/// its [`GraphBc`].
struct Slot<VP> {
    descriptor: VertexDesc,
    property: VP,
    at: u32,
    len: u32,
}

impl<VP> Slot<VP> {
    fn run(&self) -> Range<usize> {
        self.at as usize..self.at as usize + self.len as usize
    }
}

/// Graph base container: the vertices owned by one location, stored
/// densely, found through an open-addressed index of slot numbers, and
/// *iterated in descriptor order*; their out-edges in one buffer.
///
/// The index is a power-of-two `Vec<u32>` at load ≤ 1/2 with linear
/// probing; an entry is a slot number or `u32::MAX` (empty), and its key
/// is the `descriptor` of the slot it names, so the table stores no key of
/// its own. A vertex's home entry is the top bits of `descriptor × MUL`
/// (Fibonacci hashing; `gid::MUL` is `KeyHasher`'s multiplier), and a hit
/// costs one multiply, one 4-byte load and the slot load the operation
/// makes anyway. Removal shifts the rest of the probe run back, so the
/// table holds no tombstones.
///
/// The order is a contract: seeded generators walk the local vertices, and
/// what they emit must not depend on the order racing migrations landed
/// in. Creation in ascending descriptor order (`add_vertex`, static
/// construction) keeps the slots ordered; a migration or deletion may
/// leave them unordered until the next ordered read sorts them — and
/// rebuilds the index — once per burst, not per change. A vertex's
/// `descriptor` is its key: operations on a stored vertex must not change
/// it.
///
/// The edge buffer holds each vertex's out-edges as one run, then the log:
/// the edges added since the last merge, in arrival order, each tagged
/// with its source's slot. The first reader that needs a vertex's edges
/// as one run merges the log — one counting pass and one in-place
/// permutation of the buffer, O(V + E), that keeps every vertex's edges in
/// arrival order and drops the dead edges a deleted edge or a removed
/// vertex left. An ordered read also lays the runs out in slot order.
pub struct GraphBc<VP, EP> {
    slots: Vec<Slot<VP>>,
    edges: Vec<Edge<EP>>,
    /// The source slot of each edge in `edges[edges.len() − log.len()..]`.
    log: Vec<u32>,
    /// Edges before the log that no run holds.
    dead: usize,
    index: Vec<u32>,
    /// `64 − log2(index.len())`: a home entry is the hash's top bits.
    shift: u32,
    /// `slots` is in ascending descriptor order.
    sorted: bool,
}

/// An index entry that names no slot.
const EMPTY: u32 = u32::MAX;

/// The smallest index: the shift stays below 64.
const MIN_INDEX: usize = 8;

impl<VP, EP> Default for GraphBc<VP, EP> {
    fn default() -> Self {
        let mut bc = GraphBc {
            slots: Vec::new(),
            edges: Vec::new(),
            log: Vec::new(),
            dead: 0,
            index: Vec::new(),
            shift: 0,
            sorted: true,
        };
        bc.reindex(MIN_INDEX);
        bc
    }
}

impl<VP, EP> GraphBc<VP, EP> {
    #[inline]
    fn home(&self, vd: VertexDesc) -> usize {
        ((vd as u64).wrapping_mul(MUL) >> self.shift) as usize
    }

    /// The index entry naming `vd`'s slot, or the empty entry that ends
    /// its probe run.
    #[inline]
    fn probe(&self, vd: VertexDesc) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut i = self.home(vd);
        loop {
            match self.index[i] {
                EMPTY => return Err(i),
                s if self.slots[s as usize].descriptor == vd => return Ok(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    #[inline]
    fn slot_of(&self, vd: VertexDesc) -> Option<usize> {
        Some(self.index[self.probe(vd).ok()?] as usize)
    }

    /// The first entry from `vd`'s home on that holds `entry`.
    fn seek(&self, vd: VertexDesc, entry: u32) -> usize {
        let mask = self.index.len() - 1;
        let mut i = self.home(vd);
        while self.index[i] != entry {
            i = (i + 1) & mask;
        }
        i
    }

    /// Rebuilds the index at `len` entries from the slots.
    fn reindex(&mut self, len: usize) {
        self.index.clear();
        self.index.resize(len, EMPTY);
        self.shift = 64 - len.trailing_zeros();
        for slot in 0..self.slots.len() {
            let i = self.seek(self.slots[slot].descriptor, EMPTY);
            self.index[i] = slot as u32;
        }
    }

    /// `vd`'s vertex, its edges merged first.
    pub fn get_mut(&mut self, vd: VertexDesc) -> Option<VertexMut<'_, VP, EP>> {
        let s = self.slot_of(vd)?;
        self.group();
        Some(self.vertex_mut(s))
    }

    pub fn contains(&self, vd: VertexDesc) -> bool {
        self.probe(vd).is_ok()
    }

    /// Removes `vd`'s slot from the table. Merges first: the log names
    /// slots, and the last one moves into the hole.
    fn take_slot(&mut self, vd: VertexDesc) -> Option<Slot<VP>> {
        let mut hole = self.probe(vd).ok()?;
        self.group();
        let slot = self.index[hole] as usize;
        // Backward-shift deletion: an entry later in the run moves into
        // the hole unless its home lies cyclically after the hole.
        let mask = self.index.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let s = self.index[i];
            if s == EMPTY {
                break;
            }
            let home = self.home(self.slots[s as usize].descriptor);
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.index[hole] = s;
                hole = i;
            }
        }
        self.index[hole] = EMPTY;
        let v = self.slots.swap_remove(slot);
        if let Some(moved) = self.slots.get(slot) {
            // The last slot moved into `slot`: its entry still names the
            // old number, `slots.len()`.
            let i = self.seek(moved.descriptor, self.slots.len() as u32);
            self.index[i] = slot as u32;
            self.sorted = false;
        }
        Some(v)
    }

    /// Deletes `vd` and its out-edges, which stay in the buffer, dead,
    /// until the next merge.
    fn delete(&mut self, vd: VertexDesc) -> bool {
        let Some(slot) = self.take_slot(vd) else { return false };
        self.dead += slot.len as usize;
        true
    }

    /// Adds an edge out of slot `s` to the log.
    #[inline]
    fn link(&mut self, s: usize, e: Edge<EP>) {
        self.edges.push(e);
        self.log.push(s as u32);
    }

    /// Removes slot `s`'s first edge to `to`: the edges after it in the
    /// run shift down, and the run's last place becomes a dead edge.
    fn unlink(&mut self, s: usize, to: VertexDesc) -> bool {
        self.group();
        let slot = &mut self.slots[s];
        let run = &mut self.edges[slot.run()];
        let Some(k) = run.iter().position(|e| e.target == to) else { return false };
        run[k..].rotate_left(1);
        slot.len -= 1;
        self.dead += 1;
        true
    }

    /// Slot `s`'s out-edges in arrival order, the log merged first.
    fn out_edges(&mut self, s: usize) -> &[Edge<EP>] {
        self.group();
        &self.edges[self.slots[s].run()]
    }

    /// Slot `s`'s vertex; the caller has merged any log entry it has.
    fn vertex(&self, s: usize) -> VertexRef<'_, VP, EP> {
        let slot = &self.slots[s];
        VertexRef { descriptor: slot.descriptor, property: &slot.property, edges: Edges(&self.edges[slot.run()]) }
    }

    /// Slot `s`'s vertex, mutably; the caller has merged any log entry it
    /// has.
    fn vertex_mut(&mut self, s: usize) -> VertexMut<'_, VP, EP> {
        let slot = &mut self.slots[s];
        let (degree, pushed) = (slot.len as usize, self.edges.len());
        VertexMut {
            descriptor: slot.descriptor,
            property: &mut slot.property,
            edges: EdgesMut { buf: &mut self.edges, log: &mut self.log, slot: s as u32, degree, pushed },
        }
    }

    /// Merges the log if it holds an edge.
    #[inline]
    fn group(&mut self) {
        if !self.log.is_empty() {
            self.relayout();
        }
    }

    /// Lays the buffer out as the slots' runs in slot order — each run its
    /// old run, then its log entries in log order — with no log and no
    /// dead edge, in place: one counting pass gives every edge its place,
    /// the log's tags turning into places where they lie, and each cycle
    /// of that permutation is followed once, swapping every edge home.
    fn relayout(&mut self) {
        assert!(self.edges.len() < EMPTY as usize, "pGraph: 2^32 local edges");
        let runs = self.edges.len() - self.log.len();
        // Per slot, its log entries; then where the next of them goes.
        let mut next = vec![0u32; self.slots.len()];
        for &s in &self.log {
            next[s as usize] += 1;
        }
        // Per edge, its place; until placed, a run's edge is dead.
        let mut place = std::mem::take(&mut self.log);
        place.splice(0..0, std::iter::repeat(EMPTY).take(runs));
        let mut at = 0;
        for (slot, n) in self.slots.iter_mut().zip(&mut next) {
            for (k, p) in place[slot.run()].iter_mut().enumerate() {
                *p = at + k as u32;
            }
            (slot.at, slot.len, *n) = (at, slot.len + *n, at + slot.len);
            at += slot.len;
        }
        let live = at as usize;
        for p in &mut place[runs..] {
            let s = *p as usize;
            *p = next[s];
            next[s] += 1;
        }
        for p in place[..runs].iter_mut().filter(|p| **p == EMPTY) {
            *p = at;
            at += 1;
        }
        for i in 0..place.len() {
            // Edge `i` goes to `j`; the edge found there comes to `i`, and
            // goes on to its own place, marked done with its index.
            let mut j = place[i] as usize;
            while j != i {
                self.edges.swap(i, j);
                j = std::mem::replace(&mut place[j], j as u32) as usize;
            }
        }
        self.edges.truncate(live);
        self.edges.shrink_to_fit();
        self.dead = 0;
    }

    fn is_tidy(&self) -> bool {
        self.sorted && self.log.is_empty() && self.dead == 0
    }

    /// Puts the table in the order sweeps read: slots in descriptor order,
    /// their runs in slot order, no log and no dead edge.
    fn tidy(&mut self) {
        if !self.sorted {
            // The log names slots, which the sort renumbers.
            self.group();
            self.slots.sort_unstable_by_key(|v| v.descriptor);
            self.reindex(self.index.len());
            self.sorted = true;
            self.relayout();
        } else if !self.is_tidy() {
            self.relayout();
        }
    }

    fn vertices(&self) -> impl Iterator<Item = VertexRef<'_, VP, EP>> {
        (0..self.slots.len()).map(|s| self.vertex(s))
    }

    /// The vertices in descriptor order, each vertex's edges one run of
    /// the buffer: sorts, merges and compacts first if a change since the
    /// last ordered read disturbed that.
    pub fn ordered(&mut self) -> impl Iterator<Item = VertexRef<'_, VP, EP>> {
        self.tidy();
        self.vertices()
    }
}

impl<VP, EP: Clone> GraphBc<VP, EP> {
    /// Stores `v` under its descriptor, returning the vertex it replaces.
    pub fn insert(&mut self, v: Vertex<VP, EP>) -> Option<Vertex<VP, EP>> {
        let Vertex { descriptor, property, edges } = v;
        let slot = Slot { descriptor, property, at: 0, len: 0 };
        let (s, old) = match self.probe(descriptor) {
            Ok(i) => {
                let s = self.index[i] as usize;
                self.group();
                let old = std::mem::replace(&mut self.slots[s], slot);
                (s, Some(self.owned(old)))
            }
            Err(i) => {
                assert!(self.slots.len() < EMPTY as usize, "pGraph: 2^32 local vertices");
                self.index[i] = self.slots.len() as u32;
                self.sorted &= self.slots.last().map_or(true, |last| last.descriptor < descriptor);
                self.slots.push(slot);
                if 2 * self.slots.len() > self.index.len() {
                    self.reindex(2 * self.index.len());
                }
                (self.slots.len() - 1, None)
            }
        };
        if !edges.is_empty() {
            // A run at the buffer's end while no log follows it.
            if self.log.is_empty() {
                (self.slots[s].at, self.slots[s].len) = (self.edges.len() as u32, edges.len() as u32);
            } else {
                self.log.resize(self.log.len() + edges.len(), s as u32);
            }
            self.edges.extend(edges);
        }
        old
    }

    pub fn remove(&mut self, vd: VertexDesc) -> Option<Vertex<VP, EP>> {
        let slot = self.take_slot(vd)?;
        Some(self.owned(slot))
    }

    /// A slot no longer stored, as an owned vertex; its run's edges are
    /// copied out and left dead.
    fn owned(&mut self, slot: Slot<VP>) -> Vertex<VP, EP> {
        self.dead += slot.len as usize;
        let edges = self.edges[slot.run()].to_vec();
        Vertex { descriptor: slot.descriptor, property: slot.property, edges }
    }
}

impl<VP: 'static, EP: 'static> BaseContainer for GraphBc<VP, EP> {
    type Value = Vertex<VP, EP>;

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn clear(&mut self) {
        *self = Self::default();
    }

    fn memory_size(&self) -> MemSize {
        MemSize::new(
            self.index.capacity() * std::mem::size_of::<u32>(),
            self.slots.capacity() * std::mem::size_of::<Slot<VP>>()
                + self.edges.capacity() * std::mem::size_of::<Edge<EP>>()
                + self.log.capacity() * std::mem::size_of::<u32>(),
        )
    }
}

/// The representative's vertex table in order (see [`GraphBc::ordered`]),
/// under a shared borrow. Restoring the order takes the cell mutably, and
/// that never nests: a reader inside an outer shared borrow cannot find
/// the table untidy — the outer reader tidied it, and nothing could have
/// changed it under that borrow.
fn in_order<VP, EP>(cell: &RefCell<GraphRep<VP, EP>>) -> Ref<'_, GraphBc<VP, EP>> {
    if !cell.borrow().bc.is_tidy() {
        cell.borrow_mut().bc.tidy();
    }
    Ref::map(cell.borrow(), |rep| &rep.bc)
}

/// Per-location representative.
pub struct GraphRep<VP, EP> {
    bc: GraphBc<VP, EP>,
    dir: DirectoryShard<VertexDesc>,
    /// This location's cached `vd → owner` resolutions (the locality
    /// layer); stale entries self-heal through the home location.
    cache: OwnerCache<VertexDesc>,
    kind: GraphPartitionKind,
    directedness: Directedness,
    /// Balanced vertex partition for static graphs.
    static_partition: Option<IndexPartition>,
    /// This location's id, which is also its one base container's bcid.
    me: LocId,
    nlocs: usize,
    /// Next locally generated descriptor: id + k·nlocs.
    next_vd: usize,
    /// (vertices, edges).
    counts: LazySize<(usize, usize)>,
}

impl<VP: 'static, EP: 'static> HasDirectory<VertexDesc> for GraphRep<VP, EP> {
    fn directory(&self) -> &DirectoryShard<VertexDesc> {
        &self.dir
    }

    fn directory_mut(&mut self) -> &mut DirectoryShard<VertexDesc> {
        &mut self.dir
    }

    fn owner_cache(&self) -> Option<&OwnerCache<VertexDesc>> {
        Some(&self.cache)
    }

    fn owns_gid(&self, vd: &VertexDesc) -> Option<Bcid> {
        self.bc.contains(*vd).then_some(self.me)
    }

    /// `add_vertex` on location `l` hands out `l + k·nlocs`, stored on `l`.
    fn birth(&self, vd: &VertexDesc) -> Option<LocId> {
        Some(vd % self.nlocs)
    }
}

impl<VP, EP> GraphRep<VP, EP> {
    /// This location's (vertices, edges).
    fn local_counts(&self) -> (usize, usize) {
        (self.bc.slots.len(), self.bc.edges.len() - self.bc.dead)
    }

    /// Keeps this location's auto-descriptor generator (`add_vertex`
    /// hands out `me + k·nlocs`) ahead of an explicitly chosen
    /// descriptor that lands in its stride, so a later `add_vertex`
    /// cannot silently reuse — and overwrite — an explicitly created
    /// vertex. Descriptors in *other* locations' strides cannot be
    /// protected from here; see the `add_vertex_with_descriptor`
    /// contract.
    fn reserve_descriptor(&mut self, vd: VertexDesc, me: LocId) {
        if vd % self.nlocs == me % self.nlocs && vd >= self.next_vd {
            self.next_vd = vd + self.nlocs;
        }
    }

    /// The vertex-method skeleton on one location's representative: one
    /// probe of the vertex table, and — when `vd` is stored here — `f` on
    /// the representative and the vertex's slot; else `f` is handed back,
    /// to be shipped to the owner, where the same function runs it. An `f`
    /// that changes an out-degree marks the cached counts stale itself.
    #[inline]
    fn with_vertex<R, F>(&mut self, vd: VertexDesc, f: F) -> Result<R, F>
    where
        F: FnOnce(&mut Self, usize) -> R,
    {
        match self.bc.slot_of(vd) {
            Some(s) => Ok(f(self, s)),
            None => Err(f),
        }
    }

    /// `f` on slot `s`'s vertex, the log merged first; an edge `f` adds
    /// makes the cached counts stale.
    fn apply<R>(&mut self, s: usize, f: impl FnOnce(&mut VertexMut<'_, VP, EP>) -> R) -> R {
        self.bc.group();
        let logged = self.bc.log.len();
        let r = f(&mut self.bc.vertex_mut(s));
        self.counts.mark(self.bc.log.len() != logged);
        r
    }
}

/// The STAPL pGraph.
///
/// ```
/// use stapl_rts::{execute, RtsConfig};
/// use stapl_containers::graph::{Directedness, PGraph};
/// use stapl_core::interfaces::PContainer;
///
/// execute(RtsConfig::default(), 2, |loc| {
///     // Static graph: 6 vertices pre-created, balanced over locations.
///     let g: PGraph<u32, f64> = PGraph::new_static(loc, 6, Directedness::Directed, 0);
///     if loc.id() == 0 {
///         g.add_edge_async(0, 5, 2.5); // routed to vertex 0's owner
///     }
///     g.commit();
///     assert_eq!(g.num_edges(), 1);
///     assert!(g.find_edge(0, 5));
///     assert_eq!(g.out_degree(0), 1);
/// });
/// ```
pub struct PGraph<VP: Send + Clone + 'static, EP: Send + Clone + 'static> {
    obj: PObject<GraphRep<VP, EP>>,
}

impl<VP: Send + Clone + 'static, EP: Send + Clone + 'static> Clone for PGraph<VP, EP> {
    fn clone(&self) -> Self {
        PGraph { obj: self.obj.clone() }
    }
}

impl<VP, EP> PGraph<VP, EP>
where
    VP: Send + Clone + 'static,
    EP: Send + Clone + 'static,
{
    /// **Collective.** A static pGraph with vertices `0..n` pre-created
    /// (balanced over locations) holding `init` properties. `add_vertex`
    /// panics on static graphs, per the paper.
    pub fn new_static(loc: &Location, n: usize, directedness: Directedness, init: VP) -> Self {
        let partition = IndexPartition::from(BalancedPartition::new(n, loc.nlocs()));
        let mut bc = GraphBc::default();
        // bcid == location id for the single per-location base container.
        let sd = partition.subdomain(loc.id().min(partition.num_subdomains() - 1));
        if loc.id() < partition.num_subdomains() {
            for vd in sd.iter() {
                bc.insert(Vertex { descriptor: vd, property: init.clone(), edges: Vec::new() });
            }
        }
        let rep = GraphRep {
            bc,
            dir: DirectoryShard::new(),
            cache: OwnerCache::from_config(loc.config()),
            kind: GraphPartitionKind::Static,
            directedness,
            static_partition: Some(partition),
            me: loc.id(),
            nlocs: loc.nlocs(),
            next_vd: loc.id(),
            counts: LazySize::new((n, 0)),
        };
        let obj = dir_register(loc, rep);
        loc.barrier();
        PGraph { obj }
    }

    /// **Collective.** An empty dynamic pGraph using the chosen resolution
    /// protocol (forwarding or two-phase).
    pub fn new_dynamic(
        loc: &Location,
        directedness: Directedness,
        kind: GraphPartitionKind,
    ) -> Self {
        assert_ne!(kind, GraphPartitionKind::Static, "use new_static for static graphs");
        let rep = GraphRep {
            bc: GraphBc::default(),
            dir: DirectoryShard::new(),
            cache: OwnerCache::from_config(loc.config()),
            kind,
            directedness,
            static_partition: None,
            me: loc.id(),
            nlocs: loc.nlocs(),
            next_vd: loc.id(),
            counts: LazySize::default(),
        };
        let obj = dir_register(loc, rep);
        loc.barrier();
        PGraph { obj }
    }

    pub fn directedness(&self) -> Directedness {
        self.obj.local().directedness
    }

    fn me(&self) -> LocId {
        self.obj.location().id()
    }

    fn resolution(&self) -> Option<Resolution> {
        match self.obj.local().kind {
            GraphPartitionKind::Static => None,
            GraphPartitionKind::DynamicFwd => Some(Resolution::Forwarding),
            GraphPartitionKind::DynamicTwoPhase => Some(Resolution::TwoPhase),
        }
    }

    fn static_owner(&self, vd: VertexDesc) -> LocId {
        let rep = self.obj.local();
        let p = rep.static_partition.as_ref().expect("static partition");
        assert!(vd < p.global_size(), "pGraph: vertex {vd} out of static range");
        p.find(vd) // bcid == location for one bc per location
    }

    /// Runs `f` on vertex `vd` at its owner (asynchronous), with the
    /// owner's representative and the vertex's slot. A local vertex is
    /// found with one probe and runs inline, without any resolution
    /// traffic; `f` is dropped if the vertex is gone when it lands (a
    /// racing `delete_vertex`; as the paper notes, not a transaction).
    fn route(&self, vd: VertexDesc, f: impl FnOnce(&mut GraphRep<VP, EP>, usize) + Send + 'static) {
        let here = self.obj.local_mut().with_vertex(vd, f);
        let Err(f) = here else { return };
        self.route_far(vd, f);
    }

    /// The remote half of [`PGraph::route`], for a `vd` the local probe
    /// missed: ships `f` to the owner the static partition or the
    /// directory names. Called with the representative unborrowed.
    fn route_far(&self, vd: VertexDesc, f: impl FnOnce(&mut GraphRep<VP, EP>, usize) + Send + 'static) {
        match self.resolution() {
            None => self.obj.invoke_at(self.static_owner(vd), move |cell, _| {
                let _ = cell.borrow_mut().with_vertex(vd, f);
            }),
            Some(policy) => dir_route(&self.obj, policy, vd, None, move |cell, _, vd, bcid| {
                assert!(bcid.is_some(), "{}", not_found(vd));
                let _ = cell.borrow_mut().with_vertex(vd, f);
            }),
        }
    }

    /// [`PGraph::route`] with a result (split-phase): `None` when the
    /// vertex was gone by the time `f` landed.
    fn route_ret<R: Send + 'static>(
        &self,
        vd: VertexDesc,
        f: impl FnOnce(&mut GraphRep<VP, EP>, usize) -> R + Send + 'static,
    ) -> RmiFuture<Option<R>> {
        let here = self.obj.local_mut().with_vertex(vd, f);
        let f = match here {
            Ok(r) => return RmiFuture::ready(Some(r)),
            Err(f) => f,
        };
        match self.resolution() {
            None => self.obj.invoke_split_at(self.static_owner(vd), move |cell, _| {
                cell.borrow_mut().with_vertex(vd, f).ok()
            }),
            Some(policy) => dir_route_ret(&self.obj, policy, vd, None, move |cell, _, vd, bcid| {
                assert!(bcid.is_some(), "{}", not_found(vd));
                cell.borrow_mut().with_vertex(vd, f).ok()
            }),
        }
    }

    // ------------------------------------------------------------------
    // Vertex methods (Table XXVII)
    // ------------------------------------------------------------------

    /// Adds a vertex with a locally generated descriptor; O(1), no
    /// communication: the descriptor names the location it is born on, so
    /// the directory needs no entry for it until it migrates. Dynamic
    /// graphs only.
    pub fn add_vertex(&self, property: VP) -> VertexDesc {
        assert_ne!(
            self.obj.local().kind,
            GraphPartitionKind::Static,
            "pGraph: add_vertex on a static pGraph (the paper's assertion)"
        );
        let mut rep = self.obj.local_mut();
        let vd = rep.next_vd;
        rep.next_vd += rep.nlocs;
        rep.bc.insert(Vertex { descriptor: vd, property, edges: Vec::new() });
        rep.counts.mark(true);
        vd
    }

    /// Adds a vertex with a caller-chosen descriptor (dynamic graphs):
    /// stored locally, registered in the directory. The local
    /// auto-descriptor generator is advanced past `vd` when it falls in
    /// this location's stride; descriptors in *other* locations' strides
    /// must not collide with their future `add_vertex` output — do not
    /// mix the two schemes over one descriptor range.
    pub fn add_vertex_with_descriptor(&self, vd: VertexDesc, property: VP) {
        assert_ne!(self.obj.local().kind, GraphPartitionKind::Static);
        let me = self.me();
        {
            let mut rep = self.obj.local_mut();
            rep.bc.insert(Vertex { descriptor: vd, property, edges: Vec::new() });
            rep.counts.mark(true);
            rep.reserve_descriptor(vd, me);
        }
        dir_insert(&self.obj, vd);
    }

    /// Asynchronously deletes a vertex and its out-edges. As the paper
    /// notes, this is *not* a transaction: in-edges from other vertices
    /// are not chased.
    pub fn delete_vertex(&self, vd: VertexDesc) {
        assert_ne!(
            self.obj.local().kind,
            GraphPartitionKind::Static,
            "pGraph: delete_vertex on a static pGraph"
        );
        let policy = self.resolution().expect("dynamic graph");
        // Marks the counts stale here, where the op is issued, and at the
        // owner, where it lands and unregisters `vd` after deleting it.
        let remove = |cell: &RefCell<GraphRep<VP, EP>>, loc: &Location, vd| {
            let deleted = {
                let rep = &mut *cell.borrow_mut();
                rep.counts.mark(true);
                rep.bc.delete(vd)
            };
            if deleted {
                dir_remove(cell, loc, vd);
            }
            deleted
        };
        if !remove(self.obj.rep_cell(), self.obj.location(), vd) {
            dir_route(&self.obj, policy, vd, None, move |cell, loc, vd, bcid| {
                assert!(bcid.is_some(), "{}", not_found(vd));
                remove(cell, loc, vd);
            });
        }
    }

    /// Asynchronously moves vertex `vd` — property and out-edges — to
    /// location `dest`, re-registering it in the directory (dynamic graphs
    /// only). The move is visible after the next fence; an operation on
    /// `vd` concurrent with the migration that reaches the old owner
    /// follows its forwarding pointer to `dest`. Peers' cached owners for
    /// `vd` go stale and self-heal on their next access.
    pub fn migrate_vertex(&self, vd: VertexDesc, dest: LocId) {
        assert_ne!(
            self.obj.local().kind,
            GraphPartitionKind::Static,
            "pGraph: migrate_vertex on a static pGraph"
        );
        let policy = self.resolution().expect("dynamic graph");
        dir_migrate(
            &self.obj,
            policy,
            vd,
            dest,
            move |rep| rep.bc.remove(vd),
            move |rep, v| {
                rep.bc.insert(v);
            },
        );
    }

    /// Synchronous existence check: asks the location that would store
    /// `vd` (a dynamic graph's directory names it, or `vd`'s birth).
    pub fn find_vertex(&self, vd: VertexDesc) -> bool {
        if self.is_local_vertex(vd) {
            return true;
        }
        match self.resolution() {
            None => {
                let rep = self.obj.local();
                let p = rep.static_partition.as_ref().unwrap();
                vd < p.global_size()
            }
            // The owner names a bcid only while it stores `vd`.
            Some(policy) => dir_route_ret(&self.obj, policy, vd, None, |_, _, _, bcid| bcid.is_some()).get(),
        }
    }

    /// Synchronous vertex property read.
    pub fn vertex_property(&self, vd: VertexDesc) -> VP {
        self.route_ret(vd, |rep, s| rep.bc.slots[s].property.clone()).get().expect(VANISHED)
    }

    /// Asynchronous vertex property update.
    pub fn set_vertex_property(&self, vd: VertexDesc, p: VP) {
        self.route(vd, move |rep, s| rep.bc.slots[s].property = p);
    }

    /// Asynchronously applies `f` to the vertex (property + edges) at its
    /// owner — the workhorse of the graph algorithms. `f` may add edges;
    /// a pending merge of the owner's edge log runs first.
    pub fn apply_vertex(&self, vd: VertexDesc, f: impl FnOnce(&mut VertexMut<'_, VP, EP>) + Send + 'static) {
        self.route(vd, move |rep, s| rep.apply(s, f));
    }

    /// Applies `value(u)`, where it is `Some(x)`, along every out-edge
    /// `u → t` of every local vertex `u`, in descriptor then edge order:
    /// `apply(&mut t.property, x)` runs at `t`'s owner (the push step of
    /// the graph algorithms). One borrow covers the sweep, which reads the
    /// edge buffer run by run: a target stored here is found with one
    /// probe and updated in place — a self-loop's target is `u` itself,
    /// whose property `apply` then updates after `value(u)` read it. Any
    /// other target is routed after the sweep, in order, as
    /// [`PGraph::apply_vertex`] routes it — routing reads the owner cache,
    /// which the sweep's borrow would block. `apply` sees only the
    /// property, so no out-degree changes. Neither closure may call into
    /// the graph. Not collective: remote updates complete at the next
    /// fence.
    pub fn scatter<T: Copy + Send + 'static>(
        &self,
        mut value: impl FnMut(&VertexRef<'_, VP, EP>) -> Option<T>,
        apply: impl Fn(&mut VP, T) + Copy + Send + 'static,
    ) {
        let mut far = Vec::new();
        {
            let bc = &mut self.obj.local_mut().bc;
            bc.tidy();
            for u in 0..bc.slots.len() {
                let Some(x) = value(&bc.vertex(u)) else { continue };
                for e in &bc.edges[bc.slots[u].run()] {
                    match bc.slot_of(e.target) {
                        Some(t) => apply(&mut bc.slots[t].property, x),
                        None => far.push((e.target, x)),
                    }
                }
            }
        }
        for (t, x) in far {
            self.route_far(t, move |rep, s| apply(&mut rep.bc.slots[s].property, x));
        }
    }

    /// Synchronously applies `f` to the vertex and returns its result.
    pub fn apply_vertex_ret<R: Send + 'static>(
        &self,
        vd: VertexDesc,
        f: impl FnOnce(&mut VertexMut<'_, VP, EP>) -> R + Send + 'static,
    ) -> R {
        self.route_ret(vd, move |rep, s| rep.apply(s, f)).get().expect(VANISHED)
    }

    // ------------------------------------------------------------------
    // Edge methods
    // ------------------------------------------------------------------

    /// Asynchronously adds an edge (the paper's `add_edge_async`). For
    /// undirected graphs the edge is stored at both endpoints.
    pub fn add_edge_async(&self, source: VertexDesc, target: VertexDesc, property: EP) {
        let link = |to, property| {
            move |rep: &mut GraphRep<VP, EP>, s| {
                rep.counts.mark(true);
                rep.bc.link(s, Edge { target: to, property });
            }
        };
        self.at_ends(source, target, |mirror| {
            let back = mirror.then(|| link(source, property.clone()));
            (link(target, property), back)
        });
    }

    /// Asynchronously removes the first edge `source → target` (both
    /// directions for undirected graphs).
    pub fn delete_edge_async(&self, source: VertexDesc, target: VertexDesc) {
        let unlink = |to| move |rep: &mut GraphRep<VP, EP>, s| rep.counts.mark(rep.bc.unlink(s, to));
        self.at_ends(source, target, |mirror| (unlink(target), mirror.then(|| unlink(source))));
    }

    /// An edge method's skeleton: `ops(mirror)` gives the operation on
    /// `source` and, when `mirror` (an undirected edge between two
    /// vertices), the one on `target`. One borrow marks the counts and runs
    /// each end stored here; the others are routed after it, source first.
    #[inline]
    fn at_ends<F>(&self, source: VertexDesc, target: VertexDesc, ops: impl FnOnce(bool) -> (F, Option<F>))
    where
        F: FnOnce(&mut GraphRep<VP, EP>, usize) + Send + 'static,
    {
        let (out, back) = {
            let rep = &mut *self.obj.local_mut();
            rep.counts.mark(true);
            let (out, back) = ops(rep.directedness == Directedness::Undirected && source != target);
            (rep.with_vertex(source, out).err(), back.and_then(|f| rep.with_vertex(target, f).err()))
        };
        if let Some(f) = out {
            self.route_far(source, f);
        }
        if let Some(f) = back {
            self.route_far(target, f);
        }
    }

    /// Synchronous edge existence check.
    pub fn find_edge(&self, source: VertexDesc, target: VertexDesc) -> bool {
        self.route_ret(source, move |rep, s| rep.bc.out_edges(s).iter().any(|e| e.target == target))
            .get()
            .unwrap_or(false)
    }

    /// Synchronous out-degree.
    pub fn out_degree(&self, vd: VertexDesc) -> usize {
        self.route_ret(vd, |rep, s| rep.bc.out_edges(s).len()).get().unwrap_or(0)
    }

    /// Synchronous copy of a vertex's out-edges, in arrival order.
    pub fn out_edges(&self, vd: VertexDesc) -> Vec<Edge<EP>> {
        self.route_ret(vd, |rep, s| rep.bc.out_edges(s).to_vec()).get().unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Global methods
    // ------------------------------------------------------------------

    /// The committed vertex count when clean (exact for static graphs);
    /// after this location issued or received a count-changing mutation,
    /// a one-sided recount over all locations (`LazySize::read`), which
    /// sees this location's own directly-routed mutations — local
    /// vertices and cached owners. Mutations still forwarding through a
    /// directory home — a cold owner cache, or racing a migration — may be
    /// missed, as may mutations in flight from *other* locations. Only
    /// `commit()` yields the globally agreed counts — and restores O(1)
    /// reads.
    pub fn num_vertices(&self) -> usize {
        self.counts().0
    }

    /// Stored directed edges (an undirected edge counts twice, once per
    /// endpoint); same staleness contract as [`PGraph::num_vertices`].
    pub fn num_edges(&self) -> usize {
        self.counts().1
    }

    fn counts(&self) -> (usize, usize) {
        LazySize::read(&self.obj, |rep| rep.counts, GraphRep::local_counts)
    }

    pub fn local_num_vertices(&self) -> usize {
        self.obj.local().bc.slots.len()
    }

    /// Iterates the local vertices in descriptor order.
    pub fn for_each_local_vertex(&self, mut f: impl FnMut(&VertexRef<'_, VP, EP>)) {
        in_order(self.obj.rep_cell()).vertices().for_each(|v| f(&v));
    }

    /// Iterates the local vertices in descriptor order, mutably; an edge
    /// `f` adds makes the cached counts stale.
    pub fn for_each_local_vertex_mut(&self, mut f: impl FnMut(&mut VertexMut<'_, VP, EP>)) {
        let rep = &mut *self.obj.local_mut();
        rep.bc.tidy();
        let logged = rep.bc.log.len();
        for s in 0..rep.bc.slots.len() {
            f(&mut rep.bc.vertex_mut(s));
        }
        rep.counts.mark(rep.bc.log.len() != logged);
    }

    /// Descriptors of the local vertices, ascending.
    pub fn local_vertices(&self) -> Vec<VertexDesc> {
        in_order(self.obj.rep_cell()).slots.iter().map(|v| v.descriptor).collect()
    }

    /// True when `vd` is stored on this location (no communication).
    pub fn is_local_vertex(&self, vd: VertexDesc) -> bool {
        self.obj.local().bc.contains(vd)
    }
}

const VANISHED: &str = "pGraph: vertex vanished";

fn not_found(vd: VertexDesc) -> String {
    format!("pGraph: vertex {vd} not found (did you fence after add_vertex?)")
}

/// Segment-at-a-time transport over the vertex partition: segment `l` is
/// the set of vertices currently stored at location `l` (one graph base
/// container per location), and items travel as (descriptor, vertex
/// property) pairs — the bulk path for whole-partition property reads and
/// write-backs.
impl<VP, EP> SegmentedContainer for PGraph<VP, EP>
where
    VP: Send + Clone + 'static,
    EP: Send + Clone + 'static,
{
    type ItemKey = VertexDesc;
    type ItemVal = VP;

    fn segments(&self) -> Vec<SegmentId> {
        (0..self.obj.local().nlocs).collect()
    }

    fn local_segments(&self) -> Vec<SegmentId> {
        vec![self.me()]
    }

    fn is_local_segment(&self, sid: SegmentId) -> bool {
        sid == self.me()
    }

    fn get_segment(&self, sid: SegmentId) -> Vec<(VertexDesc, VP)> {
        let mut out = Vec::new();
        if self.with_segment(sid, &mut |vd, p| out.push((*vd, p.clone()))) {
            return out;
        }
        self.obj.location().count(Counter::segment_requests, 1);
        self.obj.invoke_ret_at(sid, |cell, _| {
            in_order(cell).slots.iter().map(|v| (v.descriptor, v.property.clone())).collect::<Vec<_>>()
        })
    }

    fn set_segment(&self, sid: SegmentId, items: Vec<(VertexDesc, VP)>) {
        if sid != self.me() {
            self.obj.location().count(Counter::segment_requests, 1);
        }
        self.obj.invoke_at(sid, move |cell, _| {
            let mut rep = cell.borrow_mut();
            for (vd, p) in items {
                if let Some(s) = rep.bc.slot_of(vd) {
                    rep.bc.slots[s].property = p;
                }
            }
        });
    }

    fn with_segment(&self, sid: SegmentId, f: &mut dyn FnMut(&VertexDesc, &VP)) -> bool {
        if sid != self.me() {
            return false;
        }
        self.obj.location().count(Counter::localized_chunks, 1);
        for v in &in_order(self.obj.rep_cell()).slots {
            f(&v.descriptor, &v.property);
        }
        true
    }
}

impl<VP, EP> PContainer for PGraph<VP, EP>
where
    VP: Send + Clone + 'static,
    EP: Send + Clone + 'static,
{
    fn location(&self) -> &Location {
        self.obj.location()
    }

    fn global_size(&self) -> usize {
        self.num_vertices()
    }

    fn local_size(&self) -> usize {
        self.local_num_vertices()
    }

    fn commit(&self) {
        LazySize::commit(&self.obj, |rep| &mut rep.counts, GraphRep::local_counts);
    }

    fn memory_size(&self) -> MemSize {
        let local = {
            let rep = self.obj.local();
            let mut m = rep.bc.memory_size();
            m.metadata += rep.dir.memory_size() + rep.cache.memory_size();
            m
        };
        self.obj.location().allreduce(local, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn static_graph_has_all_vertices() {
        execute(RtsConfig::default(), 3, |loc| {
            let g: PGraph<u32, ()> = PGraph::new_static(loc, 10, Directedness::Directed, 0);
            assert_eq!(g.num_vertices(), 10);
            let total = loc.allreduce_sum(g.local_num_vertices() as u64);
            assert_eq!(total, 10);
            for vd in 0..10 {
                assert!(g.find_vertex(vd));
            }
            assert!(!g.find_vertex(10), "vd 10 is out of range");
        });
    }

    #[test]
    #[should_panic(expected = "add_vertex on a static pGraph")]
    fn static_graph_rejects_add_vertex() {
        execute(RtsConfig::default(), 1, |loc| {
            let g: PGraph<u32, ()> = PGraph::new_static(loc, 4, Directedness::Directed, 0);
            g.add_vertex(1);
        });
    }

    #[test]
    fn static_edges_and_degree() {
        execute(RtsConfig::default(), 2, |loc| {
            let g: PGraph<(), u32> = PGraph::new_static(loc, 6, Directedness::Directed, ());
            if loc.id() == 0 {
                g.add_edge_async(0, 5, 10);
                g.add_edge_async(0, 3, 11);
                g.add_edge_async(5, 0, 12); // remote source vertex
            }
            g.commit();
            assert_eq!(g.num_edges(), 3);
            assert_eq!(g.out_degree(0), 2);
            assert_eq!(g.out_degree(5), 1);
            assert!(g.find_edge(0, 5));
            assert!(!g.find_edge(3, 0));
            let edges = g.out_edges(0);
            assert_eq!(edges.len(), 2);
            assert!(edges.iter().any(|e| e.target == 5 && e.property == 10));
        });
    }

    #[test]
    fn undirected_stores_both_endpoints() {
        execute(RtsConfig::default(), 2, |loc| {
            let g: PGraph<(), ()> = PGraph::new_static(loc, 4, Directedness::Undirected, ());
            if loc.id() == 1 {
                g.add_edge_async(0, 3, ());
            }
            g.commit();
            assert!(g.find_edge(0, 3));
            assert!(g.find_edge(3, 0));
            assert_eq!(g.num_edges(), 2); // stored twice
            // Separate the read phase from the delete phase: without this,
            // one location could observe the other's delete mid-asserts.
            loc.barrier();
            if loc.id() == 0 {
                g.delete_edge_async(3, 0);
            }
            g.commit();
            assert!(!g.find_edge(0, 3));
            assert!(!g.find_edge(3, 0));
            assert_eq!(g.num_edges(), 0);
        });
    }

    #[test]
    fn dynamic_add_vertex_generates_unique_descriptors() {
        for kind in [GraphPartitionKind::DynamicFwd, GraphPartitionKind::DynamicTwoPhase] {
            execute(RtsConfig::default(), 3, |loc| {
                let g: PGraph<u64, ()> = PGraph::new_dynamic(loc, Directedness::Directed, kind);
                let mine: Vec<VertexDesc> =
                    (0..5).map(|k| g.add_vertex(loc.id() as u64 * 100 + k)).collect();
                assert!(g.obj.local().cache.is_empty(), "own vertices must not take cache capacity");
                g.commit();
                assert_eq!(g.num_vertices(), 15);
                // Descriptors are globally unique.
                let all = loc.allreduce(mine.clone(), |mut a, mut b| {
                    a.append(&mut b);
                    a
                });
                let mut sorted = all.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), 15);
                // Properties readable from any location after commit.
                for vd in all {
                    let _ = g.vertex_property(vd);
                }
            });
        }
    }

    #[test]
    fn dynamic_edges_across_locations() {
        execute(RtsConfig::default(), 2, |loc| {
            let g: PGraph<u32, u32> =
                PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
            let vd = g.add_vertex(loc.id() as u32);
            g.commit();
            let peers = loc.allgather(vd);
            // Everyone links its vertex to everyone else's.
            for &p in &peers {
                if p != vd {
                    g.add_edge_async(vd, p, 1);
                }
            }
            g.commit();
            assert_eq!(g.num_edges(), 2);
            assert_eq!(g.out_degree(vd), 1);
        });
    }

    #[test]
    fn dynamic_delete_vertex() {
        execute(RtsConfig::default(), 2, |loc| {
            let g: PGraph<u32, ()> =
                PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
            let vd = g.add_vertex(7);
            g.commit();
            let other = loc.allgather(vd)[1 - loc.id()];
            if loc.id() == 0 {
                g.delete_vertex(other); // remote delete
            }
            g.commit();
            assert_eq!(g.num_vertices(), 1);
            if loc.id() == 0 {
                assert!(g.find_vertex(vd));
                assert!(!g.find_vertex(other));
            }
        });
    }

    #[test]
    fn apply_vertex_and_properties() {
        execute(RtsConfig::default(), 2, |loc| {
            let g: PGraph<u64, ()> = PGraph::new_static(loc, 4, Directedness::Directed, 0);
            if loc.id() == 1 {
                g.set_vertex_property(0, 5);
                g.apply_vertex(0, |v| *v.property *= 10);
            }
            g.commit();
            assert_eq!(g.vertex_property(0), 50);
            let deg = g.apply_vertex_ret(0, |v| {
                v.edges.push(Edge { target: 1, property: () });
                v.edges.len()
            });
            assert!(deg >= 1);
        });
    }

    #[test]
    fn local_fast_path_avoids_communication() {
        execute(RtsConfig::unbuffered(), 2, |loc| {
            let g: PGraph<u32, ()> = PGraph::new_static(loc, 8, Directedness::Directed, 0);
            loc.rmi_fence();
            let before = loc.stats().remote_requests;
            // Operate only on local vertices.
            for vd in 0..8 {
                if g.is_local_vertex(vd) {
                    g.set_vertex_property(vd, 9);
                    let _ = g.vertex_property(vd);
                }
            }
            let after = loc.stats().remote_requests;
            assert_eq!(before, after, "local vertex ops must not communicate");
        });
    }

    #[test]
    fn local_iteration_and_counts() {
        execute(RtsConfig::default(), 4, |loc| {
            let g: PGraph<usize, ()> = PGraph::new_static(loc, 20, Directedness::Directed, 0);
            g.for_each_local_vertex_mut(|v| *v.property = v.descriptor * 2);
            loc.barrier();
            let mut n = 0;
            g.for_each_local_vertex(|v| {
                assert_eq!(*v.property, v.descriptor * 2);
                n += 1;
            });
            assert_eq!(n, g.local_num_vertices());
            assert_eq!(loc.allreduce_sum(n as u64), 20);
            assert_eq!(g.local_vertices().len(), n);
        });
    }

    #[test]
    fn migrate_vertex_moves_data_and_stale_caches_self_heal() {
        for kind in [GraphPartitionKind::DynamicFwd, GraphPartitionKind::DynamicTwoPhase] {
            execute(RtsConfig::default(), 3, |loc| {
                let g: PGraph<u32, u8> = PGraph::new_dynamic(loc, Directedness::Directed, kind);
                let vd = g.add_vertex(loc.id() as u32 * 10);
                g.commit();
                let all = loc.allgather(vd);
                if loc.id() == 1 {
                    g.add_edge_async(all[1], all[0], 7);
                }
                g.commit();
                // Everyone reads location 1's vertex — warming every cache.
                assert_eq!(g.vertex_property(all[1]), 10);
                loc.barrier();
                // Location 0 migrates location 1's vertex to location 2.
                if loc.id() == 0 {
                    g.migrate_vertex(all[1], 2);
                }
                g.commit();
                let expect = match loc.id() {
                    1 => 0, // its only vertex migrated away
                    2 => 2, // its own plus the migrated one
                    _ => 1,
                };
                assert_eq!(g.local_num_vertices(), expect);
                if loc.id() == 2 {
                    assert!(g.is_local_vertex(all[1]));
                }
                // Every location still resolves the vertex — through a now
                // stale cache entry, which must self-heal via the home.
                assert_eq!(g.vertex_property(all[1]), 10);
                assert_eq!(g.out_degree(all[1]), 1, "edges must migrate with the vertex");
                g.commit();
                assert_eq!(g.num_vertices(), 3);
                assert_eq!(g.num_edges(), 1);
            });
        }
    }

    #[test]
    fn read_racing_migration_self_heals_without_fence() {
        execute(RtsConfig::default(), 3, |loc| {
            let g: PGraph<u32, ()> =
                PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
            let vd = g.add_vertex(loc.id() as u32 + 1);
            g.commit();
            let all = loc.allgather(vd);
            loc.barrier();
            if loc.id() == 0 {
                g.migrate_vertex(all[1], 2);
            }
            // Deliberately no fence: reads race the in-flight migration and
            // must follow the old owner's pointer or re-forward through the
            // home until the payload lands, never observing a missing vertex.
            assert_eq!(g.vertex_property(all[1]), 2);
            g.commit();
            assert_eq!(g.num_vertices(), 3);
        });
    }

    #[test]
    fn hot_vertex_access_uses_cache_and_cuts_traffic() {
        let run = |dir_cache_capacity| {
            stapl_rts::execute_collect(
                RtsConfig { dir_cache_capacity, ..RtsConfig::base() },
                4,
                |loc| {
                    let g: PGraph<u64, ()> = PGraph::new_dynamic(
                        loc,
                        Directedness::Directed,
                        GraphPartitionKind::DynamicFwd,
                    );
                    let vd = g.add_vertex(loc.id() as u64);
                    g.commit();
                    let all = loc.allgather(vd);
                    let hot = all[(loc.id() + 1) % loc.nlocs()];
                    // Snapshot, then barrier, so no location starts the
                    // measured phase before every location has its baseline.
                    let before = loc.stats().remote_requests;
                    loc.barrier();
                    for _ in 0..40 {
                        let _ = g.vertex_property(hot);
                    }
                    loc.rmi_fence();
                    (loc.stats().remote_requests - before, loc.stats())
                },
            )
            .remove(0)
        };
        let (cached, stats) = run(RtsConfig::base().dir_cache_capacity);
        let (uncached, _) = run(0);
        assert!(stats.dir_cache_hits > 0, "hot accesses must hit the cache: {stats:?}");
        assert!(
            cached < uncached,
            "owner cache must reduce remote requests: {cached} !< {uncached}"
        );
    }

    #[test]
    fn counts_see_own_uncommitted_mutations() {
        execute(RtsConfig::default(), 3, |loc| {
            let g: PGraph<u32, ()> =
                PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
            loc.rmi_fence();
            if loc.id() == 0 {
                let vds: Vec<VertexDesc> = (0..8).map(|k| g.add_vertex(k)).collect();
                // Regression: these used to return the stale cached 0 until
                // an explicit commit().
                assert_eq!(g.num_vertices(), 8, "must observe own uncommitted add_vertex");
                g.add_edge_async(vds[0], vds[1], ());
                g.add_edge_async(vds[1], vds[2], ());
                assert_eq!(g.num_edges(), 2, "must observe own uncommitted add_edge");
                g.delete_vertex(vds[7]);
                assert_eq!(g.num_vertices(), 7, "must observe own uncommitted delete_vertex");
            }
            g.commit();
            // After commit every location agrees, and reads are O(1) again.
            assert_eq!(g.num_vertices(), 7);
            assert_eq!(g.num_edges(), 2);
        });
    }

    #[test]
    fn segment_transport_over_vertex_partitions() {
        execute(RtsConfig::default(), 3, |loc| {
            let g: PGraph<u64, ()> =
                PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
            // Location l's partition: vertices 100·l .. 100·l + 4.
            for vd in (0..4).map(|k| loc.id() * 100 + k) {
                g.add_vertex_with_descriptor(vd, vd as u64);
            }
            g.commit();
            assert_eq!(g.num_vertices(), 12);
            // get_segment (local and remote) agrees with element reads.
            for sid in g.segments() {
                let seg = g.get_segment(sid);
                assert_eq!(seg.len(), 4, "segment {sid}");
                for (vd, p) in &seg {
                    assert_eq!(g.vertex_property(*vd), *p);
                    assert_eq!(*p, *vd as u64);
                }
            }
            loc.barrier();
            // Whole-partition property write-back: one RMI per remote one.
            if loc.id() == 1 {
                for sid in g.segments() {
                    let items = g.get_segment(sid).into_iter().map(|(vd, _)| (vd, vd as u64 * 2)).collect();
                    g.set_segment(sid, items);
                }
            }
            g.commit();
            g.for_each_local_vertex(|v| assert_eq!(*v.property, v.descriptor as u64 * 2));
            loc.barrier();
            // set_segment writes back existing vertices, skipping absent.
            if loc.id() == 2 {
                g.set_segment(0, vec![(0, 999), (555_555, 1)]);
            }
            g.commit();
            assert_eq!(g.vertex_property(0), 999);
            assert!(!g.find_vertex(555_555), "set_segment must not create vertices");
            loc.barrier();
            // A migrated vertex moves to its new owner's segment.
            if loc.id() == 0 {
                g.migrate_vertex(1, 2);
            }
            g.commit();
            let seg2: Vec<VertexDesc> = g.get_segment(2).into_iter().map(|(vd, _)| vd).collect();
            assert_eq!(seg2, vec![1, 200, 201, 202, 203]);
        });
    }

    #[test]
    fn add_vertex_never_reuses_explicit_descriptors() {
        execute(RtsConfig::default(), 3, |loc| {
            let g: PGraph<u64, ()> =
                PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
            // Regression: explicit descriptors in this location's own auto
            // stride (`me + k·nlocs`), the highest first; a later
            // add_vertex used to hand out a colliding descriptor and
            // silently overwrite the vertex.
            let mine: Vec<VertexDesc> = [2, 0, 1].iter().map(|k| loc.id() + k * loc.nlocs()).collect();
            for &vd in &mine {
                g.add_vertex_with_descriptor(vd, vd as u64 + 50);
            }
            g.add_edge_async(mine[1], mine[2], ());
            g.commit();
            let auto = g.add_vertex(999);
            g.commit();
            assert!(!mine.contains(&auto), "auto descriptor {auto} reused an explicit one");
            assert_eq!(g.num_vertices(), 12, "9 explicit + 3 auto");
            for &vd in &mine {
                assert_eq!(g.vertex_property(vd), vd as u64 + 50, "explicit vertex {vd} must survive");
            }
            assert_eq!(g.out_degree(mine[1]), 1, "its edges must survive");
        });
    }

    #[test]
    fn two_phase_resolution_also_routes_correctly() {
        execute(RtsConfig::default(), 3, |loc| {
            let g: PGraph<u32, u8> = PGraph::new_dynamic(
                loc,
                Directedness::Directed,
                GraphPartitionKind::DynamicTwoPhase,
            );
            let vd = g.add_vertex(loc.id() as u32);
            g.commit();
            let all = loc.allgather(vd);
            for &p in &all {
                assert_eq!(g.vertex_property(p), (p % loc.nlocs()) as u32);
            }
        });
    }
}
