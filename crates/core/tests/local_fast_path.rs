//! The local fast path of the core layer: a `PObject` invokes on itself
//! through the representative it holds (counted, but no registry lookup)
//! and in place (a wait there panics, a reply made there leaves at once),
//! the location manager stays a BCID-ordered map whatever order base
//! containers come and go in, and a directory-backed element that is
//! stored here is registered and migrated without touching the owner
//! cache or the home.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use stapl_core::bcontainer::{BaseContainer, MemSize};
use stapl_core::directory::{
    dir_insert, dir_lookup, dir_migrate, dir_register, home_of, DirectoryShard, HasDirectory,
    OwnerCache, Resolution,
};
use stapl_core::gid::Bcid;
use stapl_core::location_manager::LocationManager;
use stapl_core::pobject::PObject;
use stapl_rts::{execute, Location, RtsConfig};

#[path = "../../../tests/support/run_panic.rs"]
mod run_panic;

/// Every member of the `invoke` family counts exactly one local invocation
/// (and no request) for `dest == me`, and one request (and no local
/// invocation) for a remote `dest` — what `Location::{async,sync,split}_rmi`
/// counted when the self-invoke still went through the registry.
#[test]
fn pobject_invoke_family_counts_like_the_rmi_primitives() {
    execute(RtsConfig::default(), 2, |loc| {
        let obj = PObject::register(loc, 0u64);
        loc.rmi_fence();
        let (me, peer) = (loc.id(), 1 - loc.id());
        let before = loc.local_stats();
        obj.invoke_at(me, |rep, _| *rep.borrow_mut() += 1);
        assert_eq!(obj.invoke_ret_at(me, |rep, l| *rep.borrow() + l.id() as u64), 1 + me as u64);
        {
            let fut = obj.invoke_split_at(me, |rep, _| *rep.borrow() * 10);
            assert!(fut.is_ready(), "a self-invoke completes inline");
            assert_eq!(fut.get(), 10);
        }
        let local = loc.local_stats().since(&before);
        assert_eq!((local.local_invocations, local.remote_requests), (3, 0));

        let before = loc.local_stats();
        obj.invoke_at(peer, |rep, _| *rep.borrow_mut() += 100);
        loc.rmi_fence();
        let remote = loc.local_stats().since(&before);
        assert_eq!((remote.local_invocations, remote.remote_requests), (0, 1));
        assert_eq!(*obj.local(), 101);
    });
}

/// `invoke_at(me, ..)` with a handler that fences fails at P=1, naming the
/// fence (L1 in place, DESIGN.md "The RMI discipline").
#[test]
fn a_pobject_handler_run_in_place_may_not_wait() {
    let (fence, line): (fn(&Location), u32) = (|l| l.rmi_fence(), line!());
    let msg = run_panic::panic_of(1, move |loc| {
        let obj = PObject::register(loc, 0u64);
        obj.invoke_at(loc.id(), move |_, l| fence(l));
    });
    assert!(msg.contains("location 0: an RMI handler waits at"), "{msg}");
    run_panic::names(&msg, file!(), line);
}

/// Location 1 waits on a reply token that location 0 answers from an
/// in-place `invoke_at` while it waits outside the runtime: the reply must
/// not sit staged until location 0 next delivers a batch.
#[test]
fn a_reply_from_an_in_place_run_leaves_at_once() {
    let answered = AtomicBool::new(false);
    execute(RtsConfig::default(), 2, |loc| {
        let obj = PObject::register(loc, 41u64);
        let (token, answer) = loc.make_reply_slot::<u64>();
        let token = loc.broadcast(1, token);
        if loc.id() == 1 {
            assert_eq!(answer.get(), 42);
            return answered.store(true, Ordering::Release);
        }
        obj.invoke_at(0, move |rep, l| l.reply(token, *rep.borrow() + 1));
        let start = Instant::now();
        while !answered.load(Ordering::Acquire) {
            assert!(start.elapsed() < Duration::from_secs(5), "location 1 never got its reply");
            std::thread::yield_now();
        }
    });
}

struct Bc(usize);

impl BaseContainer for Bc {
    type Value = ();

    fn len(&self) -> usize {
        self.0
    }

    fn clear(&mut self) {
        self.0 = 0;
    }

    fn memory_size(&self) -> MemSize {
        MemSize::new(0, self.0)
    }
}

#[test]
fn location_manager_stays_bcid_ordered_across_adds_and_removes() {
    let mut lm = LocationManager::new();
    let order = |lm: &LocationManager<Bc>| lm.iter().map(|(b, bc)| (b, bc.0)).collect::<Vec<_>>();
    for b in [40, 7, 19, 3, 1000, 0] {
        lm.add_bcontainer(b, Bc(b + 1));
    }
    assert_eq!(order(&lm), [(0, 1), (3, 4), (7, 8), (19, 20), (40, 41), (1000, 1001)]);
    assert_eq!(lm.remove_bcontainer(19).map(|bc| bc.0), Some(20));
    assert!(lm.remove_bcontainer(19).is_none(), "already removed");
    assert_eq!(lm.remove_bcontainer(0).map(|bc| bc.0), Some(1));
    lm.add_bcontainer(5, Bc(6));
    lm.add_bcontainer(19, Bc(99)); // a removed BCID may come back
    assert_eq!(order(&lm), [(3, 4), (5, 6), (7, 8), (19, 99), (40, 41), (1000, 1001)]);
    assert_eq!(lm.bcids().collect::<Vec<_>>(), [3, 5, 7, 19, 40, 1000]);
    for (b, bc) in lm.iter_mut() {
        bc.0 = b;
    }
    // Lookup agrees with iteration for present and absent BCIDs alike.
    for b in 0..=1001 {
        assert_eq!(lm.get(b).map(|bc| bc.0), lm.iter().find(|(x, _)| *x == b).map(|(_, bc)| bc.0));
        assert_eq!(lm.get_mut(b).is_some(), lm.get(b).is_some());
    }
    assert_eq!((lm.num_bcontainers(), lm.local_len()), (6, 3 + 5 + 7 + 19 + 40 + 1000));
}

/// Random `add_bcontainer`/`remove_bcontainer` sequences that cross
/// 0 ↔ 1 ↔ many bContainers — the manager's inline and `Vec` shapes —
/// checked after every step against a `BTreeMap` model: lookup, the only
/// bContainer, positions, iteration order, the counts and the memory
/// report. Its metadata term is one BCID per slot the manager holds room
/// for: exactly one for a single bContainer, the `Vec`'s capacity else.
#[test]
fn location_manager_matches_a_btreemap_model_across_its_two_shapes() {
    const BCID: usize = std::mem::size_of::<Bcid>();
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let mut crossings = BTreeMap::new();
    for _ in 0..40 {
        let mut lm = LocationManager::new();
        let mut model = BTreeMap::new();
        for _ in 0..80 {
            let (b, before) = (next(6), model.len().min(2));
            if next(2) == 0 && !model.contains_key(&b) {
                let v = next(100);
                lm.add_bcontainer(b, Bc(v));
                model.insert(b, v);
            } else {
                assert_eq!(lm.remove_bcontainer(b).map(|bc| bc.0), model.remove(&b), "remove {b}");
            }
            *crossings.entry((before, model.len().min(2))).or_insert(0) += 1;

            let entries: Vec<(Bcid, usize)> = model.iter().map(|(b, v)| (*b, *v)).collect();
            for b in 0..8 {
                assert_eq!(lm.get(b).map(|bc| bc.0), model.get(&b).copied(), "get {b}");
                assert_eq!(lm.get_mut(b).map(|bc| bc.0), model.get(&b).copied(), "get_mut {b}");
            }
            let only = if let [e] = entries[..] { Some(e) } else { None };
            assert_eq!(lm.only().map(|(b, bc)| (b, bc.0)), only);
            assert_eq!(lm.only_mut().map(|(b, bc)| (b, bc.0)), only);
            for k in 0..=entries.len() {
                assert_eq!(lm.nth_mut(k).map(|(b, bc)| (b, bc.0)), entries.get(k).copied(), "nth_mut {k}");
            }
            assert_eq!(lm.iter().map(|(b, bc)| (b, bc.0)).collect::<Vec<_>>(), entries);
            assert_eq!(lm.bcids().collect::<Vec<_>>(), model.keys().copied().collect::<Vec<_>>());
            assert_eq!(lm.num_bcontainers(), entries.len());
            let mem = lm.memory_size();
            assert_eq!(mem.data, model.values().sum::<usize>());
            match entries.len() {
                1 => assert_eq!(mem.metadata, BCID),
                n => assert!(mem.metadata >= n * BCID && mem.metadata % BCID == 0, "{mem:?} for {n}"),
            }
        }
    }
    // Every crossing between the shapes happened, both ways.
    for crossing in [(0, 1), (1, 0), (1, 2), (2, 1), (1, 1), (2, 2)] {
        assert!(crossings.get(&crossing).is_some_and(|n| *n > 10), "{crossing:?}: {crossings:?}");
    }
}

#[test]
#[should_panic(expected = "bcid 7 already managed")]
fn location_manager_rejects_a_duplicate_bcid_wherever_it_sorts() {
    let mut lm = LocationManager::new();
    for b in [9, 7, 8] {
        lm.add_bcontainer(b, Bc(0));
    }
    lm.add_bcontainer(7, Bc(0));
}

/// A directory-backed representative: the elements stored here.
struct Rep {
    dir: DirectoryShard<u64>,
    cache: OwnerCache<u64>,
    values: HashMap<u64, i64>,
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

    /// The bcid is never read: nothing here is routed to an owner.
    fn owns_gid(&self, g: &u64) -> Option<Bcid> {
        self.values.contains_key(g).then_some(0)
    }
}

/// Registering one's own elements leaves the owner cache empty (the local
/// fast path never reads it, so such entries would only take capacity),
/// and migrating one of them away costs the payload message and nothing
/// else — no trip through the home to find out that it is here.
#[test]
fn an_element_stored_here_is_registered_and_migrated_without_resolution() {
    execute(RtsConfig::unbuffered(), 2, |loc| {
        let cache = OwnerCache::from_config(loc.config());
        let obj = dir_register(loc, Rep { dir: DirectoryShard::new(), cache, values: HashMap::new() });
        loc.rmi_fence();
        for g in (loc.id() as u64..64).step_by(2) {
            obj.local_mut().values.insert(g, g as i64 * 10);
            dir_insert(&obj, g);
        }
        loc.rmi_fence();
        assert!(obj.local().cache.is_empty(), "own registrations must not take cache capacity");
        // Stored on location 0, registered at location 1.
        let g = (0..64u64).step_by(2).find(|g| home_of(g, 2) == 1).expect("some home is 1");
        let before = loc.stats().remote_requests;
        loc.barrier();
        if loc.id() == 0 {
            let extract = move |rep: &mut Rep| rep.values.remove(&g);
            dir_migrate(&obj, Resolution::Forwarding, g, 1, extract, move |rep, v| {
                rep.values.insert(g, v);
            });
        }
        loc.rmi_fence();
        let sent = loc.stats().remote_requests - before;
        loc.barrier();
        assert_eq!(sent, 1, "the payload from 0 to 1, and nothing else");
        assert_eq!(dir_lookup(&obj, g), Some(1));
        assert_eq!(obj.local().values.get(&g).copied(), (loc.id() == 1).then_some(g as i64 * 10));
    });
}
