//! `PObject`: the SPMD-distributed object base every pContainer builds on
//! (the paper's `p_object` / `p_container_base`).
//!
//! A pContainer has one *representative* per location; the union of the
//! representatives is the container. Constructing a `PObject` registers the
//! representative with the RTS (a collective operation — all locations must
//! construct the same objects in the same order so handles agree), after
//! which the `invoke` family routes method executions to any location.

use std::cell::{Ref, RefCell, RefMut};
use std::rc::Rc;

use stapl_rts::{Handle, LocId, Location, RmiFuture};

/// One location's view of a distributed object whose per-location
/// representative has type `Rep`.
pub struct PObject<Rep: 'static> {
    loc: Location,
    handle: Handle,
    rep: Rc<RefCell<Rep>>,
}

impl<Rep: 'static> Clone for PObject<Rep> {
    fn clone(&self) -> Self {
        PObject { loc: self.loc.clone(), handle: self.handle, rep: self.rep.clone() }
    }
}

impl<Rep: 'static> PObject<Rep> {
    /// Registers `rep` as this location's representative.
    ///
    /// **Collective**: every location must call this at the same point of
    /// the SPMD program (the paper's collective constructors).
    pub fn register(loc: &Location, rep: Rep) -> Self {
        let (handle, rc) = loc.register(RefCell::new(rep));
        PObject { loc: loc.clone(), handle, rep: rc }
    }

    pub fn location(&self) -> &Location {
        &self.loc
    }

    pub fn handle(&self) -> Handle {
        self.handle
    }

    /// Immutable access to the local representative.
    ///
    /// Do not hold the borrow across any call that may poll the runtime
    /// (sync RMIs, fences, collectives): incoming requests also borrow the
    /// representative.
    pub fn local(&self) -> Ref<'_, Rep> {
        self.rep.borrow()
    }

    /// Mutable access to the local representative. Same caveat as
    /// [`PObject::local`].
    pub fn local_mut(&self) -> RefMut<'_, Rep> {
        self.rep.borrow_mut()
    }

    /// The raw cell holding the local representative, in the shape RMI
    /// handlers receive it.
    pub fn rep_cell(&self) -> &RefCell<Rep> {
        &self.rep
    }

    /// The local fast path of the `invoke` family: runs `f` on the
    /// representative this `PObject` already holds, counted as one local
    /// invocation. The registry lookup `Location::async_rmi(me, ..)` makes
    /// could not fail here — nothing unregisters a `PObject`'s handle.
    fn invoke_here<R>(&self, f: impl FnOnce(&RefCell<Rep>, &Location) -> R) -> R {
        self.loc.note_local_invocation();
        f(&self.rep, &self.loc)
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
    fn handles_agree_across_locations() {
        execute(RtsConfig::default(), 4, |loc| {
            let a = PObject::register(loc, 1u8);
            let b = PObject::register(loc, 2u8);
            let handles = loc.allgather((a.handle(), b.handle()));
            assert!(handles.iter().all(|h| *h == handles[0]));
        });
    }
}
