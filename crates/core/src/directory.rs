//! Distributed GID directory for *dynamic* pContainers.
//!
//! Static containers resolve GID → (BCID, location) with a closed-form
//! partition. Dynamic containers (pList, dynamic pGraph) create and delete
//! elements at runtime, so the mapping is stored in a *directory*
//! distributed by GID hash: the *home* location of a GID records where the
//! element currently lives.
//!
//! Two resolution protocols are provided, matching the partitions compared
//! in Fig. 51:
//!
//! * **Forwarding** (the paper's method forwarding, Section V.C): the
//!   operation is shipped to the home location, which forwards it to the
//!   owner — one-way traffic, work migrates to the data.
//! * **Two-phase** ("no forwarding"): the requester synchronously asks the
//!   home for the owner, then ships the operation — an extra round trip.
//!
//! **Owners only.** The directory names the location that stores an
//! element, never its base container: a home entry, a birth placement, a
//! cache entry, a forwarding pointer and every message between them carry
//! a [`LocId`]. The owner names its own bcid ([`HasDirectory::owns_gid`])
//! and hands it to the routed `f`.
//!
//! ## The locality layer: per-location owner caches
//!
//! A location caches resolved `gid → owner` mappings (an [`OwnerCache`]
//! embedded in the representative via [`HasDirectory::owner_cache`]) and
//! routes straight to the cached owner:
//!
//! * a **hit** skips the home hop entirely — O(1) messages per access;
//! * a **stale hit** (the element migrated since the entry was cached) is
//!   detected at the target with [`HasDirectory::owns_gid`] and
//!   *self-heals*: the target follows its forwarding pointer and
//!   re-points the requester's entry, or else re-forwards the request
//!   through the home and piggybacks an invalidation back to the
//!   requester — only while its entry still names the target, so a fill
//!   that overtook the invalidation survives it;
//! * a **miss** resolves through the home, which sends the owner back to
//!   the requester (a cache fill: `g` and the owner, 16 bytes for a `u64`
//!   GID).
//!
//! An entry naming the caller itself is never stored: the local fast path
//! runs before the cache is consulted. Stale entries cost hops, never
//! correctness, so the caches need no coherence traffic.
//!
//! ## Births, moves, deletes and absence
//!
//! * **Implicit birth entry.** A GID still stored where it was born has no
//!   entry: [`HasDirectory::birth`] computes that location (a pGraph
//!   descriptor `l + k·P` was born on `l`), and a home with no entry
//!   answers with it, marking the request *by birth*. Creating an element
//!   there sends nothing.
//! * **Forwarding pointer, set on extraction, cleared on install.**
//!   [`dir_migrate`] leaves `g → dest` in the old owner's shard. A delivery
//!   that finds `g` not stored follows the pointer first; the payload left
//!   on the same FIFO channel first, so the request lands behind it.
//! * **Versioned registrations.** A migration carries the element's move
//!   count; the new owner registers `(g, owner, count)` after the install,
//!   and the home keeps the newest registration whatever order they
//!   arrive in.
//! * **Ordered delete.** The owner of a registered element (one that moved,
//!   or that [`dir_insert`] created) sends [`dir_remove`] after deleting
//!   it, and the home keeps a tombstone with the count, so a late
//!   registration cannot bring `g` back. An element that never moved
//!   sends nothing.
//! * **Absence.** A tombstone, or a by-birth delivery that ends where `g`
//!   is neither stored nor pointed on, runs `f` with `None`.
//!
//! A delivery that finds `g` not stored and no pointer goes back through
//! the home, which by then names a newer owner or knows `g` deleted. No
//! hop budget is spent: a chain cannot cycle (DESIGN.md "Why no chain
//! cycles").
//!
//! ## What a request carries
//!
//! Each leg of a routed request carries `g` once, the method's own
//! capture and one routing word: `f` receives `g`, the owner names its
//! bcid, and a hop that sends on reads the handle from its
//! [`DirectoryShard`] (set by [`dir_register`]). A `u64` pGraph `scatter`
//! request is 24 bytes.

use std::cell::RefCell;
use std::hash::Hash;

use stapl_rts::{Counter, Handle, LocId, Location, RmiFuture, RtsConfig};

use crate::gid::{Bcid, Gid, KeyHashMap};
use crate::partition::{HashPartition, KeyPartition};
use crate::pobject::PObject;

/// The home location of a GID: its bucket when [`HashPartition`] spreads
/// GIDs over all locations — the framework's one hasher.
pub fn home_of<G: Hash + 'static>(g: &G, nlocs: usize) -> LocId {
    HashPartition::new(nlocs).find(g)
}

/// Where a registered element is in its life: how often it has moved, and
/// whether the life began with a [`dir_insert`]. In a home's entry,
/// `inserted` reads: that insert has not landed here yet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Version {
    moves: u32,
    inserted: bool,
}

/// The version a [`dir_insert`] registers.
const INSERTED: Version = Version { moves: 0, inserted: true };

/// One location's shard of the directory: entries for the registered GIDs
/// whose home is this location, the versions of the registered elements
/// stored here, forwarding pointers for the GIDs that left it, and the
/// container's handle.
#[derive(Clone, Debug)]
pub struct DirectoryShard<G: Gid> {
    /// Recorded by [`dir_register`]: a routed request that travels on
    /// reads it here instead of carrying it.
    handle: Option<Handle>,
    /// `g → (owner, version)` of the newest registration; the owner is
    /// `None` once it deleted `g` (a tombstone).
    entries: KeyHashMap<G, (Option<LocId>, Version)>,
    /// The version of every `g` stored here that is registered; an
    /// element that never moved has none.
    versions: KeyHashMap<G, Version>,
    /// `g → dest` for every `g` [`dir_migrate`] extracted here and no
    /// install brought back.
    pointers: KeyHashMap<G, LocId>,
}

impl<G: Gid> Default for DirectoryShard<G> {
    fn default() -> Self {
        DirectoryShard {
            handle: None,
            entries: KeyHashMap::default(),
            versions: KeyHashMap::default(),
            pointers: KeyHashMap::default(),
        }
    }
}

impl<G: Gid> DirectoryShard<G> {
    pub fn new() -> Self {
        Self::default()
    }

    /// The handle of the container this shard belongs to.
    fn handle(&self) -> Handle {
        self.handle.expect("directory shard of a container not built with dir_register")
    }

    /// Applies, at `g`'s home, a registration naming `owner` — `None`: a
    /// removal — that carries version `v`. The lives of one GID are a fence
    /// apart (a deleted GID is created again only after a fence), so a
    /// message that finds no entry or a tombstone begins a life, unless it
    /// is a registration no newer than the entry: within a life the newest
    /// wins. A removal of an element that never moved leaves no tombstone.
    fn record(&mut self, g: G, owner: Option<LocId>, v: Version) {
        let insert = owner.is_some() && v.moves == 0;
        let entry = match self.entries.get(&g).copied() {
            // The life's own insert, after news of its later moves: stale.
            Some((o, e)) if insert && e.inserted => (o, Version { inserted: false, ..e }),
            Some((_, e)) if owner.is_some() && !insert && v.moves <= e.moves => return,
            // The life goes on: its insert is due while it was.
            Some((Some(_), e)) => (owner, Version { inserted: e.inserted && !insert, ..v }),
            _ => (owner, Version { inserted: v.inserted && !insert, ..v }),
        };
        if entry.0.is_none() && entry.1.moves == 0 {
            self.entries.remove(&g);
        } else {
            self.entries.insert(g, entry);
        }
    }

    /// Approximate bytes used — counted as container metadata.
    pub fn memory_size(&self) -> usize {
        let slot = std::mem::size_of::<G>() + std::mem::size_of::<u64>();
        self.entries.len() * (slot + std::mem::size_of::<(Option<LocId>, Version)>())
            + self.versions.len() * (slot + std::mem::size_of::<Version>())
            + self.pointers.len() * (slot + std::mem::size_of::<LocId>())
    }
}

// ---------------------------------------------------------------------
// Owner cache
// ---------------------------------------------------------------------

/// A per-location cache of resolved `gid → owner` mappings, consulted by
/// [`dir_route`] / [`dir_route_ret`] before falling back to
/// home-forwarding.
///
/// Entries are only ever *hints*: a stale entry routes the request to a
/// location that no longer owns the element, which follows its forwarding
/// pointer or re-forwards it through the home (self-healing). The cache
/// therefore needs no coherence protocol — point-wise invalidations are
/// pure latency optimizations.
#[derive(Debug)]
pub struct OwnerCache<G: Gid> {
    capacity: usize,
    entries: RefCell<KeyHashMap<G, LocId>>,
}

impl<G: Gid> OwnerCache<G> {
    /// A cache holding at most `capacity` entries; capacity `0` makes
    /// every operation a no-op (the container then always home-routes).
    pub fn new(capacity: usize) -> Self {
        OwnerCache { capacity, entries: RefCell::new(KeyHashMap::default()) }
    }

    /// A cache sized by the runtime's `dir_cache_capacity` knob.
    pub fn from_config(cfg: &RtsConfig) -> Self {
        Self::new(cfg.dir_cache_capacity)
    }

    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The cached owner of `g`.
    pub fn lookup(&self, g: &G) -> Option<LocId> {
        self.entries.borrow().get(g).copied()
    }

    /// Records `g`'s authoritative owner; a full cache first evicts an
    /// arbitrary entry.
    pub fn record(&self, g: G, owner: LocId) {
        if !self.enabled() {
            return;
        }
        let mut entries = self.entries.borrow_mut();
        if entries.len() >= self.capacity && !entries.contains_key(&g) {
            if let Some(&victim) = entries.keys().next() {
                entries.remove(&victim);
            }
        }
        entries.insert(g, owner);
    }

    /// Drops the entry for `g`, if any.
    pub fn invalidate(&self, g: &G) {
        self.entries.borrow_mut().remove(g);
    }

    /// Drops the entry for `g` only if it still names `stale` as the owner:
    /// a fill that overtook the invalidation names another and survives it.
    fn invalidate_if_owner(&self, g: &G, stale: LocId) {
        let mut entries = self.entries.borrow_mut();
        if entries.get(g) == Some(&stale) {
            entries.remove(g);
        }
    }

    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.borrow().is_empty()
    }

    /// Approximate bytes used — counted as container metadata.
    pub fn memory_size(&self) -> usize {
        self.entries.borrow().len() * (std::mem::size_of::<G>() + std::mem::size_of::<LocId>())
    }
}

/// Representatives that embed a directory shard for GID type `G`.
pub trait HasDirectory<G: Gid>: 'static {
    fn directory(&self) -> &DirectoryShard<G>;
    fn directory_mut(&mut self) -> &mut DirectoryShard<G>;

    /// The caller-side owner cache, when this container participates in the
    /// locality layer. The default (`None`) disables caching entirely.
    fn owner_cache(&self) -> Option<&OwnerCache<G>> {
        None
    }

    /// The base container storing the element `g` on this representative,
    /// if it is stored here. This is the delivery check of the locality
    /// layer: every routed request — optimistic (cached/hinted) *and*
    /// home-forwarded — is verified at its target, which names the bcid
    /// itself (no request carries it), and a request landing where `g` no
    /// longer lives follows a forwarding pointer or re-forwards through the
    /// home instead of executing against a missing element. Answer
    /// honestly; a blanket `Some` opts out of verification (acceptable only
    /// for replicated state).
    fn owns_gid(&self, g: &G) -> Option<Bcid>;

    /// The location storing `g` from its birth, when its name says so: a
    /// home holding no entry for `g` answers with it, and `g` needs no
    /// registration until it moves. The default (`None`) makes every
    /// element register, and an unregistered `g` unknown.
    fn birth(&self, _g: &G) -> Option<LocId> {
        None
    }
}

/// GID resolution protocol for dynamic containers (Fig. 51's comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Ship the operation to the home, which forwards it to the owner.
    Forwarding,
    /// Ask the home for the owner (synchronous), then ship the operation.
    TwoPhase,
}

/// Registers `rep` as this location's representative — **collective**, as
/// [`PObject::register`] — and records the handle in its directory shard,
/// where a routed request reads it when it travels on. Every container
/// routed through the directory is built with it.
pub fn dir_register<Rep, G>(loc: &Location, rep: Rep) -> PObject<Rep>
where
    Rep: HasDirectory<G>,
    G: Gid,
{
    let obj = PObject::register(loc, rep);
    obj.local_mut().directory_mut().handle = Some(obj.handle());
    obj
}

/// Registers `g`, just created and stored on this location, at its home:
/// the life of `g` begins here. Asynchronous; visible after the next
/// fence. A `g` deleted before is created again only after a fence.
pub fn dir_insert<Rep, G>(obj: &PObject<Rep>, g: G)
where
    Rep: HasDirectory<G>,
    G: Gid,
{
    {
        let mut rep = obj.local_mut();
        let shard = rep.directory_mut();
        shard.pointers.remove(&g);
        shard.versions.insert(g, INSERTED);
    }
    let (me, home) = (obj.location().id(), home_of(&g, obj.location().nlocs()));
    obj.invoke_at(home, move |rep, _| {
        rep.borrow_mut().directory_mut().record(g, Some(me), INSERTED);
    });
}

/// Called by the owner of `g` right after it deleted `g`: a registered `g`
/// leaves a removal at its home, carrying its version, which the home
/// keeps as a tombstone; one that never moved sends nothing.
pub fn dir_remove<Rep, G>(rep: &RefCell<Rep>, loc: &Location, g: G)
where
    Rep: HasDirectory<G>,
    G: Gid,
{
    let version = rep.borrow_mut().directory_mut().versions.remove(&g);
    if let Some(v) = version {
        loc.async_rmi(home_of(&g, loc.nlocs()), handle_of(rep), move |r: &RefCell<Rep>, _| {
            r.borrow_mut().directory_mut().record(g, None, v);
        });
    }
}

/// Asynchronously migrates the element (or whole base container) behind
/// `g` to location `dest`: routes to the current owner, `extract`s the
/// payload there and leaves a forwarding pointer `g → dest`,
/// ships the payload with `g`'s version one move later to `dest`,
/// `install`s it (clearing `dest`'s own pointer for `g`), and only then
/// registers `(g, dest, version)` at the home — so the directory never
/// points at a location the payload has not reached. The caches on the old
/// owner and (on their next access) every peer self-heal.
///
/// The move is visible after the next fence; an operation on `g`
/// concurrent with the migration that reaches the old owner follows the
/// pointer to `dest`, behind the payload.
pub fn dir_migrate<Rep, G, P>(
    obj: &PObject<Rep>,
    policy: Resolution,
    g: G,
    dest: LocId,
    extract: impl FnOnce(&mut Rep) -> Option<P> + Send + 'static,
    install: impl FnOnce(&mut Rep, P) + Send + 'static,
) where
    Rep: HasDirectory<G>,
    G: Gid,
    P: Send + 'static,
{
    let handle = obj.handle();
    let migrate = move |cell: &RefCell<Rep>, loc: &Location| {
        if loc.id() == dest {
            return;
        }
        let payload = extract(&mut cell.borrow_mut());
        let Some(payload) = payload else { return };
        loc.count(Counter::migrations, 1);
        let version = {
            let mut rep = cell.borrow_mut();
            if let Some(c) = rep.owner_cache() {
                c.invalidate(&g);
            }
            let shard = rep.directory_mut();
            shard.pointers.insert(g, dest);
            let v = shard.versions.remove(&g).unwrap_or_default();
            Version { moves: v.moves + 1, ..v }
        };
        loc.async_rmi(dest, handle, move |cell2: &RefCell<Rep>, loc2| {
            {
                let mut rep = cell2.borrow_mut();
                install(&mut rep, payload);
                let shard = rep.directory_mut();
                shard.pointers.remove(&g);
                shard.versions.insert(g, version);
            }
            // Authoritative re-registration, strictly after landing.
            let me = loc2.id();
            loc2.async_rmi(home_of(&g, loc2.nlocs()), handle, move |cell3: &RefCell<Rep>, _| {
                cell3.borrow_mut().directory_mut().record(g, Some(me), version);
            });
        });
    };
    // The local fast path: the owner cache holds no entry naming this
    // location, so a migration issued by the owner would otherwise
    // resolve through the home.
    if obj.rep_cell().borrow().owns_gid(&g).is_some() {
        return obj.invoke_at(obj.location().id(), migrate);
    }
    dir_route(obj, policy, g, None, move |cell, loc, g, found| {
        assert!(found.is_some(), "dir_migrate: {g:?} is not registered in the directory");
        migrate(cell, loc);
    });
}

/// `g`'s owner as its home knows it: its entry's — `None` for a tombstone
/// — else, marked `true`, *by birth*, the location it was born on.
fn resolve<Rep, G>(rep: &RefCell<Rep>, g: &G) -> Option<(LocId, bool)>
where
    Rep: HasDirectory<G>,
    G: Gid,
{
    let rep = rep.borrow();
    match rep.directory().entries.get(g) {
        Some(&(owner, _)) => owner.map(|owner| (owner, false)),
        None => rep.birth(g).map(|owner| (owner, true)),
    }
}

/// Synchronously resolves `g`'s owner at its home: its registered owner,
/// else its birth location ([`HasDirectory::birth`]), else `None` — also
/// for a deleted `g`.
pub fn dir_lookup<Rep, G>(obj: &PObject<Rep>, g: G) -> Option<LocId>
where
    Rep: HasDirectory<G>,
    G: Gid,
{
    lookup(obj, g).map(|(owner, _)| owner)
}

/// [`dir_lookup`], with whether the answer is by birth.
fn lookup<Rep, G>(obj: &PObject<Rep>, g: G) -> Option<(LocId, bool)>
where
    Rep: HasDirectory<G>,
    G: Gid,
{
    let home = home_of(&g, obj.location().nlocs());
    obj.invoke_ret_at(home, move |rep, _| resolve(rep, &g))
}

/// Consults the owner cache (with hit/miss accounting), falling back to a
/// caller-supplied static hint. Returns the guessed owner — and whether
/// the guess came from the cache — and whether caching is active for
/// `obj`.
fn take_guess<Rep, G>(obj: &PObject<Rep>, g: &G, hint: Option<LocId>) -> (Option<(LocId, bool)>, bool)
where
    Rep: HasDirectory<G>,
    G: Gid,
{
    let rep = obj.rep_cell().borrow();
    let cache = rep.owner_cache().filter(|c| c.enabled());
    let cache_on = cache.is_some();
    if let Some(c) = cache {
        if let Some(owner) = c.lookup(g) {
            obj.location().count(Counter::dir_cache_hits, 1);
            return (Some((owner, true)), cache_on);
        }
        // A hinted route is still one-hop; only count a miss when the
        // request actually pays the home-location trip.
        if hint.is_none() {
            obj.location().count(Counter::dir_cache_misses, 1);
        }
    }
    (hint.map(|owner| (owner, false)), cache_on)
}

/// How a routed request travels, in one word: who issued it, what that
/// location's owner cache is owed, and whether the owner it follows is a
/// birth. A request carries this, `g` once and the method's own capture —
/// nothing its receiver can know: the owner names the bcid
/// ([`HasDirectory::owns_gid`]), and a hop that sends on reads the handle
/// from its directory shard.
#[derive(Clone, Copy)]
struct Route {
    requester: u32,
    /// Send the requester the owner the home resolves (a cache fill).
    fill: bool,
    /// The guess came from the requester's cache: a target that finds `g`
    /// gone invalidates it there.
    invalidate: bool,
    /// The home answered with `g`'s birth location: a location that
    /// neither stores `g` nor points on from it reports `g` absent.
    by_birth: bool,
}

impl Route {
    fn new(requester: LocId, fill: bool, invalidate: bool, by_birth: bool) -> Self {
        let requester = u32::try_from(requester).expect("location ids fit 32 bits");
        Route { requester, fill, invalidate, by_birth }
    }

    fn requester(self) -> LocId {
        self.requester as LocId
    }
}

/// The handle of the container whose representative is `rep`.
fn handle_of<Rep, G>(rep: &RefCell<Rep>) -> Handle
where
    Rep: HasDirectory<G>,
    G: Gid,
{
    rep.borrow().directory().handle()
}

/// Runs `op` on `to`'s owner cache, if it has one: in place when `to` is
/// this location, else as a message.
fn on_cache<Rep, G>(
    rep: &RefCell<Rep>,
    loc: &Location,
    to: LocId,
    op: impl FnOnce(&OwnerCache<G>) + Send + 'static,
) where
    Rep: HasDirectory<G>,
    G: Gid,
{
    if to == loc.id() {
        if let Some(c) = rep.borrow().owner_cache() {
            op(c);
        }
    } else {
        loc.async_rmi(to, handle_of(rep), move |r2: &RefCell<Rep>, _| {
            if let Some(c) = r2.borrow().owner_cache() {
                op(c);
            }
        });
    }
}

/// Executes `f` at a location the request was routed to, with the bcid
/// [`HasDirectory::owns_gid`] names when `g` is stored there; else see
/// [`redeliver`].
fn deliver_verified<Rep, G, F>(rep: &RefCell<Rep>, loc: &Location, g: G, route: Route, f: F)
where
    Rep: HasDirectory<G>,
    G: Gid,
    F: FnOnce(&RefCell<Rep>, &Location, G, Option<Bcid>) + Send + 'static,
{
    let owned = rep.borrow().owns_gid(&g);
    match owned {
        Some(bcid) => f(rep, loc, g, Some(bcid)),
        None => redeliver(rep, loc, g, route, f),
    }
}

/// A delivery that found `g` not stored here: it follows this location's
/// forwarding pointer; without one, a by-birth delivery runs `f` with
/// `None`, and any other re-forwards through the home.
fn redeliver<Rep, G, F>(rep: &RefCell<Rep>, loc: &Location, g: G, route: Route, f: F)
where
    Rep: HasDirectory<G>,
    G: Gid,
    F: FnOnce(&RefCell<Rep>, &Location, G, Option<Bcid>) + Send + 'static,
{
    let pointer = rep.borrow().directory().pointers.get(&g).copied();
    match pointer {
        Some(to) => loc.async_rmi(to, handle_of(rep), move |rep2: &RefCell<Rep>, loc2| {
            deliver_verified(rep2, loc2, g, route, f);
        }),
        None if route.by_birth => f(rep, loc, g, None),
        None => send_via_home(loc, handle_of(rep), g, route, f),
    }
}

/// Ships `f` through `g`'s home location: the home resolves `g`'s
/// registered or birth owner (see [`resolve`]), sends the requester a
/// cache fill when `route.fill`, and forwards `f` there — where delivery is
/// verified (see [`deliver_verified`]). `f` runs at the home with `None`
/// when `g` has neither, or is deleted.
fn send_via_home<Rep, G, F>(loc: &Location, handle: Handle, g: G, route: Route, f: F)
where
    Rep: HasDirectory<G>,
    G: Gid,
    F: FnOnce(&RefCell<Rep>, &Location, G, Option<Bcid>) + Send + 'static,
{
    let home = home_of(&g, loc.nlocs());
    loc.async_rmi(home, handle, move |rep: &RefCell<Rep>, hloc| {
        let Some((owner, by_birth)) = resolve(rep, &g) else {
            return f(rep, hloc, g, None);
        };
        if route.fill {
            on_cache(rep, hloc, route.requester(), move |c| c.record(g, owner));
        }
        let route = Route { by_birth, ..route };
        if owner == hloc.id() {
            deliver_verified(rep, hloc, g, route, f);
        } else {
            // Method forwarding: migrate the computation.
            hloc.async_rmi(owner, handle_of(rep), move |rep2: &RefCell<Rep>, loc2| {
                deliver_verified(rep2, loc2, g, route, f);
            });
        }
    });
}
/// Ships `f` straight to a guessed `owner`. The target confirms ownership
/// with [`HasDirectory::owns_gid`]; a stale guess self-heals: the target
/// follows its forwarding pointer, re-pointing the requester's cache at the
/// pointer's target, or else re-forwards through the home, piggybacking an
/// invalidation back to the requester when the guess came from its cache
/// (conditionally: see the module docs).
fn route_optimistic<Rep, G, F>(obj: &PObject<Rep>, g: G, owner: LocId, route: Route, f: F)
where
    Rep: HasDirectory<G>,
    G: Gid,
    F: FnOnce(&RefCell<Rep>, &Location, G, Option<Bcid>) + Send + 'static,
{
    obj.invoke_at(owner, move |rep: &RefCell<Rep>, tloc| {
        let owned = rep.borrow().owns_gid(&g);
        if let Some(bcid) = owned {
            return f(rep, tloc, g, Some(bcid));
        }
        tloc.count(Counter::dir_cache_stale, 1);
        let pointer = rep.borrow().directory().pointers.get(&g).copied();
        match pointer {
            Some(to) if route.fill => on_cache(rep, tloc, route.requester(), move |c| c.record(g, to)),
            _ if route.invalidate => {
                let stale = tloc.id();
                on_cache(rep, tloc, route.requester(), move |c| c.invalidate_if_owner(&g, stale))
            }
            _ => {}
        }
        redeliver(rep, tloc, g, route, f);
    });
}

/// Executes `f` on the location owning `g` (asynchronously), resolving
/// through the directory with the chosen protocol. `f` receives `g` and
/// `Some(bcid)` at the owner, or `None` when `g` is unknown or deleted
/// (executed at the home for `Forwarding`, at the caller for `TwoPhase`) or, resolved
/// by birth, stored nowhere along its pointers (executed at the last
/// location asked). `f` need not capture `g`: the request carries it once.
///
/// `hint` is an optional *static hint* — the container's default (birth)
/// owner of `g`, tried when the owner cache has no entry. A wrong hint
/// self-heals exactly like a stale cache hit, so containers whose elements
/// rarely move (e.g. pList base containers) get one-hop routing without
/// any cache warm-up. With a guess in hand (cached or hinted) both
/// policies route identically; on a stale guess even `TwoPhase` heals
/// through the forwarding chain, and `f` runs at the *home* with `None`
/// when `g` is unknown.
pub fn dir_route<Rep, G, F>(obj: &PObject<Rep>, policy: Resolution, g: G, hint: Option<LocId>, f: F)
where
    Rep: HasDirectory<G>,
    G: Gid,
    F: FnOnce(&RefCell<Rep>, &Location, G, Option<Bcid>) + Send + 'static,
{
    let (guess, cache_on) = take_guess(obj, &g, hint);
    let me = obj.location().id();
    if let Some((owner, from_cache)) = guess {
        return route_optimistic(obj, g, owner, Route::new(me, cache_on, from_cache, false), f);
    }
    match policy {
        Resolution::Forwarding => {
            send_via_home(obj.location(), obj.handle(), g, Route::new(me, cache_on, false, false), f)
        }
        Resolution::TwoPhase => match lookup(obj, g) {
            None => f(obj.rep_cell(), obj.location(), g, None),
            Some((owner, by_birth)) => {
                if let Some(c) = obj.rep_cell().borrow().owner_cache() {
                    c.record(g, owner);
                }
                // Delivery is verified like any optimistic route: the
                // owner may have changed between the lookup and arrival.
                route_optimistic(obj, g, owner, Route::new(me, cache_on, cache_on, by_birth), f);
            }
        },
    }
}

/// [`dir_route`] with a result: `f` answers through a reply slot, so the
/// executing location replies directly to the caller and a forwarding
/// chain costs one response regardless of hop count. Where `f` runs on the
/// caller (an unknown `g` under `TwoPhase`) it fills the slot in place,
/// which sends and counts nothing.
pub fn dir_route_ret<Rep, G, R, F>(
    obj: &PObject<Rep>,
    policy: Resolution,
    g: G,
    hint: Option<LocId>,
    f: F,
) -> RmiFuture<R>
where
    Rep: HasDirectory<G>,
    G: Gid,
    R: Send + 'static,
    F: FnOnce(&RefCell<Rep>, &Location, G, Option<Bcid>) -> R + Send + 'static,
{
    let (token, fut) = obj.location().make_reply_slot::<R>();
    dir_route(obj, policy, g, hint, move |rep, loc, g, b| loc.reply(token, f(rep, loc, g, b)));
    fut
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_rts::{execute, execute_collect, RtsConfig};
    use std::collections::HashMap;

    struct Rep {
        me: LocId,
        dir: DirectoryShard<u64>,
        cache: OwnerCache<u64>,
        values: HashMap<u64, i64>, // elements living on this location
    }

    impl HasDirectory<u64> for Rep {
        fn directory(&self) -> &DirectoryShard<u64> {
            &self.dir
        }

        fn directory_mut(&mut self) -> &mut DirectoryShard<u64> {
            &mut self.dir
        }

        fn owner_cache(&self) -> Option<&OwnerCache<u64>> {
            Some(&self.cache)
        }

        /// Each location stores its elements in bcid = its id.
        fn owns_gid(&self, g: &u64) -> Option<Bcid> {
            self.values.contains_key(g).then_some(self.me)
        }
    }

    fn setup(loc: &Location) -> PObject<Rep> {
        let obj = dir_register(
            loc,
            Rep {
                me: loc.id(),
                dir: DirectoryShard::new(),
                cache: OwnerCache::from_config(loc.config()),
                values: HashMap::new(),
            },
        );
        loc.rmi_fence();
        // Each location owns gids congruent to its id mod nlocs, with
        // value gid*10; ownership is registered in the directory.
        for g in 0..64u64 {
            if g as usize % loc.nlocs() == loc.id() {
                obj.local_mut().values.insert(g, g as i64 * 10);
                dir_insert(&obj, g);
            }
        }
        loc.rmi_fence();
        obj
    }

    #[test]
    fn shard_insert_lookup_remove() {
        let mut s = DirectoryShard::<u64>::new();
        let owner = |s: &DirectoryShard<u64>| s.entries.get(&4).map(|e| e.0);
        s.record(4, Some(1), INSERTED);
        assert_eq!(owner(&s), Some(Some(1)));
        // An element that never moved leaves no tombstone.
        s.record(4, None, INSERTED);
        assert_eq!(owner(&s), None);
    }

    /// Every order of `0..n`.
    fn orders(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        let grow = |o: Vec<usize>| (0..n).map(move |i| [&o[..i], &[n - 1], &o[i..]].concat());
        orders(n - 1).into_iter().flat_map(grow).collect()
    }

    /// The registrations of A → B → C, and C's removal, reach the home in
    /// every order, with and without the `dir_insert` that began the life
    /// at A: the home keeps the newest, a late registration never brings
    /// back the removed `g`, and an insert after them begins a new life.
    #[test]
    fn registrations_in_any_order_keep_the_newest_and_stay_removed() {
        let (a, b, c, d) = (0, 1, 2, 3);
        for inserted in [false, true] {
            for removed in [false, true] {
                let v = |moves| Version { moves, inserted };
                let mut msgs = vec![(Some(b), v(1)), (Some(c), v(2))];
                msgs.extend(inserted.then_some((Some(a), v(0))));
                msgs.extend(removed.then_some((None, v(2))));
                for order in orders(msgs.len()) {
                    let mut s = DirectoryShard::<u64>::new();
                    let mut gone = false;
                    for &k in &order {
                        s.record(7, msgs[k].0, msgs[k].1);
                        gone |= msgs[k].0.is_none();
                        let now = s.entries[&7].0;
                        assert!(!gone || now.is_none(), "{msgs:?} in order {order:?}: {now:?} after the removal");
                    }
                    let want = ((!removed).then_some(c), Version { moves: 2, inserted: false });
                    assert_eq!(s.entries[&7], want, "{msgs:?} in order {order:?}");
                    s.record(7, Some(d), INSERTED);
                    assert_eq!(s.entries[&7].0, Some(d), "a new life after {order:?}");
                }
            }
        }
    }

    /// A pGraph's descriptors `l + k·P` are born on `l`: each birth
    /// location's must spread over every home, not one.
    #[test]
    fn home_is_stable_and_in_range() {
        for p in [2, 3, 7] {
            let mut homes = vec![vec![0usize; p]; p];
            for g in 0..4096usize {
                let h = home_of(&g, p);
                assert_eq!(h, home_of(&g, p));
                homes[g % p][h] += 1;
            }
            let fair = 4096 / (p * p);
            assert!(homes.iter().flatten().all(|&n| n > fair * 3 / 4), "P={p}: {homes:?}");
        }
    }

    #[test]
    fn cache_basics_and_eviction() {
        let c = OwnerCache::<u64>::new(2);
        assert!(c.is_empty());
        c.record(1, 0);
        c.record(2, 1);
        assert_eq!(c.lookup(&1), Some(0));
        assert_eq!(c.lookup(&2), Some(1));
        // Capacity bound: a third entry evicts one of the existing two.
        c.record(3, 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(&3), Some(2));
        // Point invalidation.
        c.invalidate(&3);
        assert_eq!(c.lookup(&3), None);
        // An entry naming owner 2 survives an invalidation naming 1.
        c.record(3, 2);
        c.invalidate_if_owner(&3, 1);
        assert_eq!(c.lookup(&3), Some(2));
        c.invalidate_if_owner(&3, 2);
        assert_eq!(c.lookup(&3), None);
        // A full cache evicts one entry per record, and never grows.
        let c = OwnerCache::<u64>::new(64);
        for g in 0..11 * 64 {
            c.record(g, 1);
            assert!(c.len() <= 64);
        }
        assert_eq!(c.len(), 64);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let c = OwnerCache::<u64>::new(0);
        assert!(!c.enabled());
        c.record(1, 0);
        assert_eq!(c.lookup(&1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn lookup_resolves_owner() {
        execute(RtsConfig::default(), 4, |loc| {
            let obj = setup(loc);
            for g in 0..64u64 {
                assert_eq!(dir_lookup(&obj, g), Some(g as usize % loc.nlocs()));
            }
            assert_eq!(dir_lookup(&obj, 1000), None);
        });
    }

    #[test]
    fn route_with_forwarding_executes_at_owner() {
        execute(RtsConfig::default(), 4, |loc| {
            let obj = setup(loc);
            for g in 0..64u64 {
                dir_route(&obj, Resolution::Forwarding, g, None, move |rep, loc2, _, bcid| {
                    assert_eq!(bcid, Some(g as usize % loc2.nlocs()));
                    *rep.borrow_mut().values.get_mut(&g).expect("must run at owner") += 1;
                });
            }
            loc.rmi_fence();
            for (g, v) in &obj.local().values {
                // 4 locations each routed one increment to every gid.
                assert_eq!(*v, *g as i64 * 10 + 4);
            }
        });
    }

    #[test]
    fn route_two_phase_executes_at_owner() {
        execute(RtsConfig::default(), 4, |loc| {
            let obj = setup(loc);
            for g in (loc.id() as u64..64).step_by(5) {
                dir_route(&obj, Resolution::TwoPhase, g, None, move |rep, _, _, _| {
                    *rep.borrow_mut().values.get_mut(&g).expect("must run at owner") -= 1;
                });
            }
            loc.rmi_fence();
            let bad = obj.local().values.iter().filter(|(g, v)| (**v - **g as i64 * 10) > 0).count();
            assert_eq!(bad, 0);
        });
    }

    #[test]
    fn route_ret_returns_value_through_forwarding() {
        execute(RtsConfig::default(), 4, |loc| {
            let obj = setup(loc);
            for g in 0..64u64 {
                for policy in [Resolution::Forwarding, Resolution::TwoPhase] {
                    let v = dir_route_ret(&obj, policy, g, None, move |rep, _, _, _| {
                        rep.borrow().values[&g]
                    })
                    .get();
                    assert_eq!(v, g as i64 * 10);
                }
            }
        });
    }

    #[test]
    fn route_missing_gid_reports_none() {
        execute(RtsConfig::default(), 2, |loc| {
            let obj = setup(loc);
            let missing =
                dir_route_ret(&obj, Resolution::Forwarding, 9999, None, |_, _, _, bcid| bcid.is_none()).get();
            assert!(missing);
            let missing2 =
                dir_route_ret(&obj, Resolution::TwoPhase, 9999, None, |_, _, _, bcid| bcid.is_none()).get();
            assert!(missing2);
        });
    }

    #[test]
    fn migration_updates_routing() {
        execute(RtsConfig::default(), 2, |loc| {
            let obj = setup(loc);
            // Move gid 3 from its owner to location 0 and re-register.
            if loc.id() == 0 {
                let owner = dir_lookup(&obj, 3).unwrap();
                let v = obj
                    .invoke_ret_at(owner, |rep, _| rep.borrow_mut().values.remove(&3).unwrap());
                obj.local_mut().values.insert(3, v);
                dir_insert(&obj, 3);
            }
            loc.rmi_fence();
            let v = dir_route_ret(&obj, Resolution::Forwarding, 3, None, |rep, loc2, _, _| {
                assert_eq!(loc2.id(), 0);
                rep.borrow().values[&3]
            })
            .get();
            assert_eq!(v, 30);
        });
    }

    #[test]
    fn repeated_access_hits_cache_and_cuts_messages() {
        let run = |dir_cache_capacity| {
            execute_collect(RtsConfig { dir_cache_capacity, ..RtsConfig::base() }, 4, |loc| {
                let obj = setup(loc);
                // Pick a hot gid owned by the next location and hammer it.
                let hot = (loc.id() as u64 + 1) % loc.nlocs() as u64;
                // Snapshot, then barrier, so no location starts the measured
                // phase before every location has its baseline.
                let before = loc.stats().remote_requests;
                loc.barrier();
                for _ in 0..50 {
                    let v = dir_route_ret(&obj, Resolution::Forwarding, hot, None, move |rep, _, _, _| {
                        rep.borrow().values[&hot]
                    })
                    .get();
                    assert_eq!(v, hot as i64 * 10);
                }
                loc.rmi_fence();
                (loc.stats().remote_requests - before, loc.stats())
            })
            .remove(0)
        };
        let (cached_reqs, stats) = run(RtsConfig::base().dir_cache_capacity);
        let (uncached_reqs, _) = run(0);
        // The fill arrives asynchronously, so the first few accesses may
        // miss; the vast majority must hit.
        assert!(stats.dir_cache_hits >= 40 * 4, "hot key must hit: {stats:?}");
        assert_eq!(stats.dir_cache_stale, 0);
        assert!(
            cached_reqs < uncached_reqs,
            "cached routing must send fewer remote requests: {cached_reqs} !< {uncached_reqs}"
        );
    }

    #[test]
    fn stale_cache_hit_self_heals_and_invalidates() {
        let snaps = execute_collect(RtsConfig::base(), 3, |loc| {
            let obj = setup(loc);
            // Location 0 warms its cache for gid 7 (owned by location 1).
            if loc.id() == 0 {
                let v =
                    dir_route_ret(&obj, Resolution::Forwarding, 7, None, |rep, _, _, _| rep.borrow().values[&7])
                        .get();
                assert_eq!(v, 70);
            }
            loc.rmi_fence();
            // Location 2 steals gid 7 from its owner.
            if loc.id() == 2 {
                let owner = dir_lookup(&obj, 7).unwrap();
                let v = obj.invoke_ret_at(owner, |rep, _| rep.borrow_mut().values.remove(&7).unwrap());
                obj.local_mut().values.insert(7, v);
                dir_insert(&obj, 7);
            }
            loc.rmi_fence();
            // Location 0's cached owner is now stale; the access must
            // self-heal through the home and still observe the value.
            if loc.id() == 0 {
                let v = dir_route_ret(&obj, Resolution::Forwarding, 7, None, |rep, loc2, _, _| {
                    assert_eq!(loc2.id(), 2, "must execute at the new owner");
                    rep.borrow().values[&7]
                })
                .get();
                assert_eq!(v, 70);
                // The stale entry was invalidated and re-filled by the
                // home; the next access goes straight to the new owner.
                let v2 = dir_route_ret(&obj, Resolution::Forwarding, 7, None, |rep, loc2, _, _| {
                    assert_eq!(loc2.id(), 2);
                    rep.borrow().values[&7]
                })
                .get();
                assert_eq!(v2, 70);
            }
            loc.rmi_fence();
            loc.stats()
        });
        assert!(snaps[0].dir_cache_stale >= 1, "the stale path must have fired: {:?}", snaps[0]);
    }

    #[test]
    fn hinted_route_skips_home_and_heals_wrong_hints() {
        execute(RtsConfig { dir_cache_capacity: 0, ..RtsConfig::base() }, 2, |loc| {
            let obj = setup(loc);
            // Correct hint: straight to the owner, works with caching off.
            let owner1 = 1 % loc.nlocs();
            let hint = Some(owner1);
            let v = dir_route_ret(&obj, Resolution::Forwarding, 1, hint, |rep, _, _, _| rep.borrow().values[&1]);
            assert_eq!(v.get(), 10);
            // Wrong hint: self-heals through the home.
            let wrong = (owner1 + 1) % loc.nlocs();
            let v = dir_route_ret(&obj, Resolution::Forwarding, 1, Some(wrong), |rep, loc2, _, _| {
                assert_eq!(loc2.id(), 1 % loc2.nlocs());
                rep.borrow().values[&1]
            });
            assert_eq!(v.get(), 10);
        });
    }
}
