//! `PObject`: the SPMD-distributed object base every pContainer builds on
//! (the paper's `p_object` / `p_container_base`).
//!
//! A pContainer has one *representative* per location; the union of the
//! representatives is the container. Constructing a `PObject` registers the
//! representative with the RTS (a collective operation — all locations must
//! construct the same objects in the same order so handles agree), after
//! which the `invoke` family routes method executions to any location.
//! Dropping the last `PObject` of a handle on a location retires it there;
//! no collective destructor exists or is needed (DESIGN.md "p_object
//! lifetime").

use std::cell::{Ref, RefCell, RefMut};
use std::rc::Rc;

use stapl_rts::{Handle, LocId, Location, RmiFuture};

/// One location's view of a distributed object whose per-location
/// representative has type `Rep`.
///
/// **Lifetime.** Clones share the representative and keep the handle alive
/// (a view holding a clone of its container is enough). When the last
/// clone on a location is dropped the location retires the handle
/// ([`Location::retire`]): peers may go on invoking methods here, and the
/// representative is freed at the first `rmi_fence` this location enters
/// after *every* location has dropped its last clone. Drop order and
/// timing are free — no fence is needed before a drop, asynchronous
/// requests still unfenced are executed — but memory comes back only at a
/// fence.
///
/// **Thread safety (S).** Only the representative's own location thread
/// reaches it — `Rc<RefCell<_>>` is neither `Send` nor `Sync` — so no
/// container method takes a lock. The compiler checks it:
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<stapl_core::pobject::PObject<u64>>();
/// ```
pub struct PObject<Rep: 'static> {
    loc: Location,
    handle: Handle,
    rep: Rc<RefCell<Rep>>,
    /// Shared by this location's clones and by nothing else (`rep` is also
    /// held by the registry and by running handlers): dropped with the
    /// last of them.
    last: Rc<RetireOnDrop>,
}

struct RetireOnDrop {
    loc: Location,
    handle: Handle,
}

impl Drop for RetireOnDrop {
    fn drop(&mut self) {
        self.loc.retire(self.handle);
    }
}

impl<Rep: 'static> Clone for PObject<Rep> {
    fn clone(&self) -> Self {
        PObject { loc: self.loc.clone(), handle: self.handle, rep: self.rep.clone(), last: self.last.clone() }
    }
}

impl<Rep: 'static> PObject<Rep> {
    /// Registers `rep` as this location's representative.
    ///
    /// **Collective**: every location must call this at the same point of
    /// the SPMD program (the paper's collective constructors).
    pub fn register(loc: &Location, rep: Rep) -> Self {
        let (handle, rep) = loc.register_cell(rep);
        let last = Rc::new(RetireOnDrop { loc: loc.clone(), handle });
        PObject { loc: loc.clone(), handle, rep, last }
    }

    pub fn location(&self) -> &Location {
        &self.loc
    }

    pub fn handle(&self) -> Handle {
        self.handle
    }

    /// Immutable access to the local representative.
    ///
    /// # Panics
    /// While the borrow is held, a wait of this location (a sync RMI, a
    /// fence, a barrier or collective, a poll) panics, naming its site and
    /// the representative's type ([`Location::poll`]). A borrow in a call's
    /// argument lives to the end of the statement: bind what it reads first.
    pub fn local(&self) -> Ref<'_, Rep> {
        self.rep.borrow()
    }

    /// Mutable access to the local representative. Panics as
    /// [`PObject::local`] does.
    pub fn local_mut(&self) -> RefMut<'_, Rep> {
        self.rep.borrow_mut()
    }

    /// The raw cell holding the local representative, in the shape RMI
    /// handlers receive it.
    pub fn rep_cell(&self) -> &RefCell<Rep> {
        &self.rep
    }

    /// The local fast path of the `invoke` family: runs `f` in place on the
    /// representative this `PObject` already holds, counted as one local
    /// invocation. The registry lookup `Location::async_rmi(me, ..)` makes
    /// could not fail here — the handle is retired only when the last
    /// `PObject` holding this `Rc` is gone.
    fn invoke_here<R>(&self, f: impl FnOnce(&RefCell<Rep>, &Location) -> R) -> R {
        self.loc.note_local_invocation();
        self.loc.run_in_place(|| f(&self.rep, &self.loc))
    }

    /// Asynchronous method execution on `dest` (the paper's
    /// distribution-manager `invoke`): returns immediately; completion is
    /// guaranteed by the next fence. Executes inline when `dest` is this
    /// location (the local fast path).
    pub fn invoke_at<F>(&self, dest: LocId, f: F)
    where
        F: FnOnce(&RefCell<Rep>, &Location) + Send + 'static,
    {
        if dest == self.loc.id() {
            return self.invoke_here(f);
        }
        self.loc.async_rmi(dest, self.handle, f);
    }

    /// Synchronous method execution on `dest` (`invoke_ret`): blocks until
    /// the result is available, servicing incoming requests meanwhile.
    pub fn invoke_ret_at<R, F>(&self, dest: LocId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&RefCell<Rep>, &Location) -> R + Send + 'static,
    {
        if dest == self.loc.id() {
            return self.invoke_here(f);
        }
        self.loc.sync_rmi(dest, self.handle, f)
    }

    /// Split-phase method execution on `dest` (`invoke_opaque_ret`):
    /// returns a future immediately.
    #[inline]
    pub fn invoke_split_at<R, F>(&self, dest: LocId, f: F) -> RmiFuture<R>
    where
        R: Send + 'static,
        F: FnOnce(&RefCell<Rep>, &Location) -> R + Send + 'static,
    {
        if dest == self.loc.id() {
            return RmiFuture::ready(self.invoke_here(f));
        }
        self.loc.split_rmi(dest, self.handle, f)
    }

    /// Broadcast-style asynchronous execution on every location (including
    /// this one). One-sided: peers need not participate.
    pub fn invoke_everywhere<F>(&self, f: F)
    where
        F: Fn(&RefCell<Rep>, &Location) + Clone + Send + 'static,
    {
        for dest in 0..self.loc.nlocs() {
            self.invoke_at(dest, f.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn register_and_local_access() {
        execute(RtsConfig::default(), 2, |loc| {
            let obj = PObject::register(loc, loc.id() * 7);
            assert_eq!(*obj.local(), loc.id() * 7);
            *obj.local_mut() += 1;
            assert_eq!(*obj.local(), loc.id() * 7 + 1);
        });
    }

    #[test]
    fn invoke_routes_to_destination() {
        execute(RtsConfig::default(), 4, |loc| {
            let obj = PObject::register(loc, Vec::<usize>::new());
            loc.rmi_fence();
            let me = loc.id();
            obj.invoke_at((me + 1) % loc.nlocs(), move |rep, _| rep.borrow_mut().push(me));
            loc.rmi_fence();
            let v = obj.local().clone();
            let expect = (loc.id() + loc.nlocs() - 1) % loc.nlocs();
            assert_eq!(v, vec![expect]);
        });
    }

    #[test]
    fn invoke_ret_and_split() {
        execute(RtsConfig::default(), 3, |loc| {
            let obj = PObject::register(loc, loc.id() as u64 * 11);
            loc.rmi_fence();
            let dest = (loc.id() + 2) % loc.nlocs();
            let sync = obj.invoke_ret_at(dest, |rep, _| *rep.borrow());
            assert_eq!(sync, dest as u64 * 11);
            let fut = obj.invoke_split_at(dest, |rep, _| *rep.borrow() + 1);
            assert_eq!(fut.get(), dest as u64 * 11 + 1);
        });
    }

    #[test]
    fn invoke_everywhere_reaches_all() {
        execute(RtsConfig::default(), 4, |loc| {
            let obj = PObject::register(loc, 0u64);
            loc.rmi_fence();
            if loc.id() == 0 {
                obj.invoke_everywhere(|rep, _| *rep.borrow_mut() += 1);
            }
            loc.rmi_fence();
            assert_eq!(*obj.local(), 1);
        });
    }

    #[test]
    fn clone_shares_representative() {
        execute(RtsConfig::default(), 1, |loc| {
            let obj = PObject::register(loc, 5i32);
            let other = obj.clone();
            *obj.local_mut() = 9;
            assert_eq!(*other.local(), 9);
            assert_eq!(obj.handle(), other.handle());
        });
    }

    #[test]
    fn the_last_clone_retires_wherever_it_is_dropped() {
        struct Selfish(Option<PObject<Selfish>>);
        execute(RtsConfig::default(), 2, |loc| {
            let obj = PObject::register(loc, Selfish(None));
            let h = obj.handle();
            // A clone — a view's, here the representative's own — keeps
            // the handle alive.
            obj.local_mut().0 = Some(obj.clone());
            drop(obj);
            loc.barrier();
            loc.rmi_fence();
            assert_eq!(loc.live_p_objects(), 1);
            // Dropped by a handler on the object's own representative,
            // while the runtime's lookup holds that `Rc` too.
            let drop_it = |rep: &RefCell<Selfish>, _: &Location| drop(rep.borrow_mut().0.take());
            loc.async_rmi((loc.id() + 1) % 2, h, drop_it);
            loc.rmi_fence();
            loc.rmi_fence();
            assert_eq!(loc.live_p_objects(), 0);
        });
    }

    #[test]
    fn a_nested_p_object_goes_one_fence_after_its_owner() {
        execute(RtsConfig::default(), 2, |loc| {
            let outer = PObject::register(loc, PObject::register(loc, 0u64));
            assert_eq!(loc.live_p_objects(), 2);
            drop(outer);
            loc.barrier();
            loc.rmi_fence();
            // Reclaiming the owner dropped its representative, which
            // retired the p_object inside.
            assert_eq!(loc.live_p_objects(), 1);
            loc.barrier();
            loc.rmi_fence();
            assert_eq!(loc.live_p_objects(), 0);
        });
    }

    #[test]
    fn handles_agree_across_locations() {
        execute(RtsConfig::default(), 4, |loc| {
            let a = PObject::register(loc, 1u8);
            let b = PObject::register(loc, 2u8);
            let handles = loc.allgather((a.handle(), b.handle()));
            assert!(handles.iter().all(|h| *h == handles[0]));
        });
    }
}
