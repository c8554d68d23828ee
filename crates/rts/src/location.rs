//! Locations, the p_object registry, and the RMI primitives.
//!
//! A [`Location`] is the paper's abstraction of "a component of a parallel
//! machine that has a contiguous address space and associated execution
//! capabilities". Each location runs on its own OS thread, location 0 on
//! the caller of `execute`; the `Location` handle is `!Send` and cheap to
//! clone (it is an `Rc` around the per-thread state).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

use crossbeam::channel::{Receiver, Sender};

use crate::barrier::{Kind, PollBarrier};
use crate::config::RtsConfig;
use crate::future::{PoisonedResponse, RmiFuture};
use crate::stats::{Counter, CounterBlock, StatsSnapshot};
use crate::trace::{LocationTrace, SpanKind, TraceBuf, TRACE_CAPACITY};
use crate::transport::{image_bytes, Batch, Endpoint, Image, Staging};

/// Identifier of a location (0-based, dense).
pub type LocId = usize;

/// Handle of a registered p_object; identical on every location because
/// registration is a collective operation performed in the same order by
/// all locations (SPMD).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Handle(pub(crate) u32);

/// Address of a pending reply slot on the requesting location; see
/// [`Location::make_reply_slot`].
pub struct ReplyToken<R> {
    src: LocId,
    slot: u64,
    _marker: std::marker::PhantomData<fn() -> R>,
}

impl<R> Clone for ReplyToken<R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for ReplyToken<R> {}

/// State shared by all locations of one SPMD execution. Only control-plane
/// data lives here (channel endpoints, counters, barriers); p_object data
/// never does.
pub(crate) struct Shared {
    pub nlocs: usize,
    pub cfg: RtsConfig,
    /// The full sender side of the fabric; each location's transport
    /// endpoint clones these at construction.
    pub senders: Vec<Sender<Batch>>,
    /// Every location's counter block, indexed by location id. The only
    /// counter storage of the execution: [`Location::stats`] and the
    /// fence's quiescence test sum over it at read time.
    pub counters: Vec<Arc<CounterBlock>>,
    pub barrier: PollBarrier,
    /// The first location to panic and its message: once set, every wait
    /// aborts naming it ([`Location::wait_until`]); `execute` re-raises it.
    pub poisoned: OnceLock<(usize, String)>,
    /// Indexed by handle: how many locations have retired it
    /// ([`Location::retire`]). A location reclaims a representative only
    /// once this reads `nlocs` (DESIGN.md "p_object lifetime").
    pub retired: Mutex<Vec<u32>>,
    /// Indexed by location: its contribution to the collective in progress,
    /// taken out by the fold ([`Location::allreduce`]).
    pub board: Vec<Mutex<Option<Box<dyn Any + Send>>>>,
    /// The instant [`Location::now`] counts from, shared by every location.
    pub epoch: std::time::Instant,
}

/// What a reply slot holds between its request and its value being taken.
enum SlotState {
    Waiting,
    Filled(Box<dyn Any>),
    /// The future gave up (a timeout, or dropped un-awaited): the reply,
    /// when it lands, frees the slot instead of filling it.
    Abandoned,
}

/// One reply slot, with what a wait on it reports: the latency span
/// (`SyncRmi` from `issued_ns`, else `FutureWait` from the start of
/// the wait), and the peer (`usize::MAX` for a bare reply token, which
/// anyone may answer) and handler type a timeout or a poison names.
struct ReplySlot {
    generation: u32,
    state: SlotState,
    wait_kind: SpanKind,
    issued_ns: u64,
    peer: usize,
    handler: &'static str,
}

/// The reply slots of one location: a slab indexed by the low half of the
/// slot id, whose high half is the entry's generation — bumped when the
/// slot is freed, so an id names one request only and a reply to a freed
/// slot is caught, not delivered to the slot's next tenant.
#[derive(Default)]
struct ReplySlots {
    entries: Vec<ReplySlot>,
    free: Vec<u32>,
}

impl ReplySlots {
    /// Puts `fresh` into a freed entry, under that entry's generation, or
    /// into a new one; returns its id.
    fn alloc(&mut self, fresh: ReplySlot) -> u64 {
        let index = self.free.pop().unwrap_or(self.entries.len() as u32);
        match self.entries.get_mut(index as usize) {
            Some(e) => *e = ReplySlot { generation: e.generation, ..fresh },
            None => self.entries.push(fresh),
        }
        u64::from(self.entries[index as usize].generation) << 32 | u64::from(index)
    }

    /// The entry `slot` names, unless it was freed since.
    fn entry(&mut self, slot: u64) -> Option<&mut ReplySlot> {
        self.entries.get_mut(slot as u32 as usize).filter(|e| e.generation == (slot >> 32) as u32)
    }

    /// Frees `slot`'s entry, handing back what it held.
    fn free(&mut self, slot: u64) -> SlotState {
        let e = &mut self.entries[slot as u32 as usize];
        e.generation = e.generation.wrapping_add(1);
        self.free.push(slot as u32);
        std::mem::replace(&mut e.state, SlotState::Abandoned)
    }
}

/// One registry slot: the representative (until unregistered) plus the
/// registered Rust type name, kept after unregistration so that a late RMI
/// panics with the name of the p_object that died instead of only a number.
struct RegEntry {
    rep: Option<Rc<dyn Any>>,
    type_name: &'static str,
}

type IsBorrowed = fn(&dyn Any) -> bool;

struct LocInner {
    id: LocId,
    shared: Arc<Shared>,
    /// This location's endpoint of the message fabric (staging buffers,
    /// flush, inbound queue); see [`crate::transport`].
    endpoint: Endpoint,
    registry: RefCell<Vec<RegEntry>>,
    /// The live [`Location::register_cell`] representatives, each with how
    /// to read its borrow flag ([`Location::refuse_to_wait`]).
    cells: RefCell<Vec<(Handle, IsBorrowed)>>,
    /// Handles this location retired and has not reclaimed yet.
    retiring: RefCell<Vec<Handle>>,
    slots: RefCell<ReplySlots>,
    /// This location's own block of `shared.counters`, cloned out so a
    /// bump is one load away from `LocInner`.
    counters: Arc<CounterBlock>,
    /// Set while a delivered batch runs: a reply is then staged, not flushed
    /// ([`Location::deliver`]), and a wait panics ([`Location::poll`]).
    delivering: Cell<bool>,
    /// Set while a handler runs in place ([`Location::run_in_place`]): a
    /// wait panics, as in a delivered batch, but a reply leaves at once.
    in_place: Cell<bool>,
    /// Where the replies staged during delivery are bound: each is flushed
    /// once when the batch being delivered has run.
    reply_dests: RefCell<Vec<LocId>>,
    /// The trace ring buffer; `None` unless `RtsConfig::trace` is set, so
    /// the disabled hot path pays exactly one branch. Boxed: an untraced
    /// location does not carry a histogram per span kind.
    trace: Option<Box<RefCell<TraceBuf>>>,
}

/// A per-thread handle to the runtime. Cloning is cheap; the clone refers
/// to the same location.
#[derive(Clone)]
pub struct Location {
    inner: Rc<LocInner>,
}

impl Location {
    pub(crate) fn new(id: LocId, shared: Arc<Shared>, rx: Receiver<Batch>) -> Self {
        let trace = shared.cfg.trace.then(|| Box::new(RefCell::new(TraceBuf::new(TRACE_CAPACITY))));
        let endpoint = Endpoint::new(&shared.cfg, id, shared.senders.clone(), rx);
        let counters = shared.counters[id].clone();
        Location {
            inner: Rc::new(LocInner {
                id,
                shared,
                endpoint,
                registry: RefCell::new(Vec::new()),
                cells: RefCell::default(),
                retiring: RefCell::default(),
                slots: RefCell::default(),
                counters,
                delivering: Cell::new(false),
                in_place: Cell::new(false),
                reply_dests: RefCell::default(),
                trace,
            }),
        }
    }

    /// This location's identifier.
    pub fn id(&self) -> LocId {
        self.inner.id
    }

    /// Number of locations in the execution.
    pub fn nlocs(&self) -> usize {
        self.inner.shared.nlocs
    }

    /// The runtime configuration of this execution.
    pub fn config(&self) -> &RtsConfig {
        &self.inner.shared.cfg
    }

    /// Snapshot of the global communication counters: the sum of every
    /// location's [`Location::local_stats`], taken now.
    pub fn stats(&self) -> StatsSnapshot {
        let blocks = &self.inner.shared.counters;
        blocks.iter().fold(StatsSnapshot::default(), |acc, b| acc.add(&b.snapshot()))
    }

    /// Snapshot of the counters attributable to *this* location only: the
    /// work its thread performed (requests it enqueued, responses it sent,
    /// tasks it executed, ...).
    pub fn local_stats(&self) -> StatsSnapshot {
        self.inner.counters.snapshot()
    }

    /// Adds `n` to this location's counter `c`. Under `RtsConfig::trace`,
    /// a move of a traced row is also an instant named `c.name()` that
    /// carries `n`; an untraced row compiles to the bare bump, and a traced
    /// one, untraced run, to the bump and one test of `inner.trace`.
    #[inline]
    pub fn count(&self, c: Counter, n: u64) {
        self.inner.counters.bump(c, n);
        if c.traced() && n != 0 && self.inner.trace.is_some() {
            self.trace_count(c, n);
        }
    }

    #[cold]
    fn trace_count(&self, c: Counter, n: u64) {
        if let Some(t) = &self.inner.trace {
            t.borrow_mut().instant(c, self.now().as_nanos() as u64, n);
        }
    }

    // ------------------------------------------------------------------
    // Tracing (see `crate::trace`; all of these are no-ops — one branch —
    // unless `RtsConfig::trace` is set)
    // ------------------------------------------------------------------

    /// Time since the execution's epoch: the runtime's one clock, read by
    /// every trace timestamp, RMI deadline, retransmit timer and delay.
    pub fn now(&self) -> Duration {
        self.inner.shared.epoch.elapsed()
    }

    /// [`Location::now`] in nanoseconds; `0` when tracing is off (callers
    /// use it only to open spans, so the value is then never observed).
    pub fn trace_clock(&self) -> u64 {
        self.inner.trace.as_ref().map_or(0, |_| self.now().as_nanos() as u64)
    }

    /// Closes a span of `kind` opened at `start_ns` (a [`Location::trace_clock`]
    /// reading) and feeds its duration into the kind's latency histogram.
    pub fn trace_span_end(&self, kind: SpanKind, start_ns: u64, arg: u64) {
        if let Some(t) = &self.inner.trace {
            t.borrow_mut().span(kind, start_ns, self.now().as_nanos() as u64, arg);
        }
    }

    /// Drains this location's trace buffer (events and histograms, plus a
    /// [`Location::local_stats`] snapshot); `None` when tracing is off.
    /// Called by [`crate::execute_collect_traced`] after the final fence.
    pub(crate) fn take_trace(&self) -> Option<LocationTrace> {
        let trace = self.inner.trace.as_ref()?;
        Some(trace.borrow_mut().take_data(self.id(), self.local_stats()))
    }

    /// Runs `f`, a handler aimed at this location, here: a wait inside it
    /// panics ([`Location::poll`]), and a reply it makes leaves at once.
    #[inline]
    pub fn run_in_place<R>(&self, f: impl FnOnce() -> R) -> R {
        /// Restores the in-place state on return and on unwind.
        struct Restore<'a>(&'a Cell<bool>, bool);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                self.0.set(self.1);
            }
        }
        let _restore = Restore(&self.inner.in_place, self.inner.in_place.replace(true));
        f()
    }

    // ------------------------------------------------------------------
    // p_object registry
    // ------------------------------------------------------------------

    /// Registers a p_object representative on this location and returns its
    /// handle plus a local `Rc` to the representative.
    ///
    /// **Collective**: every location must register its representative of
    /// the same object at the same point in the SPMD program, so handles
    /// agree across locations (the paper's `p_object` registration).
    ///
    /// The registry keeps the representative until it is reclaimed (see
    /// [`Location::retire`]) or [`Location::unregister`]ed; a handle that
    /// is never retired stays registered until the execution ends. Handles
    /// are not reused.
    /// A wait does not see into `rep`: see [`Location::register_cell`].
    pub fn register<T: 'static>(&self, rep: T) -> (Handle, Rc<T>) {
        let rc = Rc::new(rep);
        let mut reg = self.inner.registry.borrow_mut();
        let h = Handle(reg.len() as u32);
        reg.push(RegEntry {
            rep: Some(rc.clone() as Rc<dyn Any>),
            type_name: std::any::type_name::<T>(),
        });
        (h, rc)
    }

    /// [`Location::register`]s `rep` in a `RefCell`, whose borrow flag every
    /// wait here reads while it is live ([`Location::poll`]).
    pub fn register_cell<R: 'static>(&self, rep: R) -> (Handle, Rc<RefCell<R>>) {
        fn borrowed<R: 'static>(rep: &dyn Any) -> bool {
            rep.downcast_ref::<RefCell<R>>().is_some_and(|cell| cell.try_borrow_mut().is_err())
        }
        let (h, rc) = self.register(RefCell::new(rep));
        self.inner.cells.borrow_mut().push((h, borrowed::<R>));
        (h, rc)
    }

    /// Declares that this location will issue no further request to `h`:
    /// what a p_object's destructor calls, once per handle and location.
    /// Sends nothing. The representative stays registered — peers may
    /// still invoke on it — until every location has retired `h`; this
    /// location then reclaims it on completion of the first
    /// [`Location::rmi_fence`] it enters after that (DESIGN.md "p_object
    /// lifetime").
    ///
    /// Runs in `Drop`, possibly while unwinding after a peer's panic: it
    /// leaves alone what it cannot borrow and survives a poisoned lock.
    pub fn retire(&self, h: Handle) {
        let Ok(mut retiring) = self.inner.retiring.try_borrow_mut() else { return };
        let mut retired = self.inner.shared.retired.lock().unwrap_or_else(PoisonError::into_inner);
        let i = h.0 as usize;
        if retired.len() <= i {
            retired.resize(i + 1, 0);
        }
        retired[i] += 1;
        retiring.push(h);
    }

    /// Takes out of the retiring list the handles every location has
    /// retired. With nothing retiring this is one `is_empty`: no lock.
    fn take_retired_everywhere(&self) -> Vec<Handle> {
        let mut retiring = self.inner.retiring.borrow_mut();
        if retiring.is_empty() {
            return Vec::new();
        }
        let retired = self.inner.shared.retired.lock().expect("a location panicked while retiring a p_object");
        let mut agreed = Vec::new();
        retiring.retain(|&h| {
            let everywhere = retired[h.0 as usize] as usize == self.nlocs();
            if everywhere {
                agreed.push(h);
            }
            !everywhere
        });
        agreed
    }

    /// Removes a representative from the registry, leaving its type name.
    /// Subsequent RMIs to this handle on this location panic, naming the
    /// unregistered p_object. Immediate and local: the caller vouches that
    /// no request to `(this location, h)` is in flight or will be issued,
    /// which [`Location::retire`] establishes on its own.
    pub fn unregister(&self, h: Handle) {
        self.inner.cells.borrow_mut().retain(|&(cell, _)| cell != h);
        let rep = self.inner.registry.borrow_mut().get_mut(h.0 as usize).and_then(|slot| slot.rep.take());
        // Outside the registry borrow: the representative may own p_objects
        // of its own, whose destructors come back to this location.
        drop(rep);
    }

    /// Representatives registered here and not reclaimed or unregistered
    /// (for tests: a dropped p_object must not stay).
    #[doc(hidden)]
    pub fn live_p_objects(&self) -> usize {
        self.inner.registry.borrow().iter().filter(|e| e.rep.is_some()).count()
    }

    /// Looks up the local representative registered under `h`.
    ///
    /// A delivered run of requests looks its handle up once and holds the
    /// `Rc` while its images run: if one of them unregisters the handle, the
    /// rest still run on that representative; the next run panics as below.
    ///
    /// # Panics
    /// Panics if the handle is unregistered or the type does not match; the
    /// message names the registered p_object type so the failing RMI can be
    /// traced to a container, not just a numeric handle.
    pub fn lookup<T: 'static>(&self, h: Handle) -> Rc<T> {
        self.try_lookup(h).unwrap_or_else(|why| panic!("{why}"))
    }

    /// [`Location::lookup`], or the message it would panic with.
    #[inline]
    pub(crate) fn try_lookup<T: 'static>(&self, h: Handle) -> Result<Rc<T>, String> {
        let rep = self.inner.registry.borrow().get(h.0 as usize).and_then(|entry| entry.rep.clone());
        rep.and_then(|rc| rc.downcast::<T>().ok()).ok_or_else(|| self.lookup_failure(h, std::any::type_name::<T>()))
    }

    /// Why `h` did not resolve to a representative of type `expected`.
    #[cold]
    fn lookup_failure(&self, h: Handle, expected: &str) -> String {
        let (reg, me) = (self.inner.registry.borrow(), self.id());
        match reg.get(h.0 as usize) {
            None => format!(
                "stapl-rts: RMI to handle {h:?} on location {me}, but only {} p_objects were ever \
                 registered here (registration is collective — did a location skip a constructor?)",
                reg.len()
            ),
            Some(RegEntry { rep: None, type_name }) => format!(
                "stapl-rts: RMI delivered to handle {h:?} on location {me} after its p_object \
                 `{type_name}` was unregistered (the object was destroyed while requests to it \
                 were still in flight — fence before dropping p_objects)"
            ),
            Some(RegEntry { type_name, .. }) => {
                format!("stapl-rts: handle {h:?} is registered as `{type_name}` but the RMI expected `{expected}`")
            }
        }
    }

    // ------------------------------------------------------------------
    // RMI primitives
    // ------------------------------------------------------------------

    /// Asynchronous RMI (the paper's `async_rmi`): runs `f` against the
    /// representative of `h` on location `dest` and returns immediately.
    ///
    /// Guarantees: requests from this location to a fixed destination are
    /// executed in invocation order; completion is guaranteed only after a
    /// subsequent [`Location::rmi_fence`].
    pub fn async_rmi<T, F>(&self, dest: LocId, h: Handle, f: F)
    where
        T: 'static,
        F: FnOnce(&T, &Location) + Send + 'static,
    {
        if dest == self.id() {
            self.count(Counter::local_invocations, 1);
            let obj = self.lookup::<T>(h);
            return self.run_in_place(|| f(&obj, self));
        }
        self.stage_on(dest, h, move |obj: Result<&T, &str>, loc: &Location| f(resolved(obj), loc));
    }

    /// Synchronous RMI (the paper's `sync_rmi`): runs `f` on `dest` and
    /// blocks until the result arrives, servicing incoming requests while
    /// waiting. Run in place, it is still checked as a wait.
    #[track_caller]
    pub fn sync_rmi<T, R, F>(&self, dest: LocId, h: Handle, f: F) -> R
    where
        T: 'static,
        R: Send + 'static,
        F: FnOnce(&T, &Location) -> R + Send + 'static,
    {
        if dest == self.id() {
            self.refuse_to_wait();
        }
        // Tagged as a sync round trip so its wait span covers issue →
        // value arrival, not just the time spent inside `get`.
        let issued = self.issue_split(dest, h, f, SpanKind::SyncRmi);
        if issued.is_err() {
            // Nothing joins a blocking round trip's window: the request (and
            // everything staged before it) leaves now.
            self.flush(dest);
        }
        self.future_of(issued).get()
    }

    /// Split-phase RMI (the paper's two-phase methods, Charm++/X10 style):
    /// returns a future immediately; `RmiFuture::get` blocks until the value
    /// arrives.
    ///
    /// The request is staged, not flushed: the split-phase requests issued
    /// before the first wait on any of them leave together, as a window, at
    /// that wait (its first pass that runs nothing flushes every buffer) —
    /// or earlier, when a buffer fills.
    #[inline]
    pub fn split_rmi<T, R, F>(&self, dest: LocId, h: Handle, f: F) -> RmiFuture<R>
    where
        T: 'static,
        R: Send + 'static,
        F: FnOnce(&T, &Location) -> R + Send + 'static,
    {
        self.future_of(self.issue_split(dest, h, f, SpanKind::FutureWait))
    }

    /// The future of what [`Location::issue_split`] returned — built here,
    /// inline, from scalars: an `RmiFuture` itself comes back through memory.
    #[inline]
    fn future_of<R: 'static>(&self, issued: Result<R, u64>) -> RmiFuture<R> {
        match issued {
            Ok(r) => RmiFuture::ready(r),
            Err(slot) => RmiFuture::pending(self.clone(), slot),
        }
    }

    /// Runs `f` here and returns its value, or ships it to `dest` and
    /// returns the id of the slot its reply will land in.
    #[inline(never)]
    fn issue_split<T, R, F>(&self, dest: LocId, h: Handle, f: F, wait_kind: SpanKind) -> Result<R, u64>
    where
        T: 'static,
        R: Send + 'static,
        F: FnOnce(&T, &Location) -> R + Send + 'static,
    {
        if dest == self.id() {
            self.count(Counter::local_invocations, 1);
            let obj = self.lookup::<T>(h);
            return Ok(self.run_in_place(|| f(&obj, self)));
        }
        let slot = self.alloc_slot(wait_kind, dest, std::any::type_name::<F>());
        let src = self.id();
        self.stage_on(dest, h, move |obj: Result<&T, &str>, loc: &Location| {
            let run = move || f(resolved(obj), loc);
            // A panicking handler must not strand the requester: catch it
            // (a failed lookup too — an unregistered handle is just as fatal
            // to the reply) and poison the issuing future instead of
            // unwinding the whole execution. An asynchronous handler has no
            // future to poison; its panic propagates (DESIGN.md "The
            // message buffer").
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                Ok(r) => loc.send_response(src, slot, r),
                Err(p) => loc.send_poison(src, slot, std::any::type_name::<F>(), panic_message(&*p)),
            }
        });
        Err(slot)
    }

    /// Ships `req` to `dest` for execution there, preserving per-pair FIFO
    /// order. Used by higher layers (e.g. method forwarding) that need raw
    /// request routing without a registry lookup baked in.
    pub fn send_request(&self, dest: LocId, req: Box<dyn FnOnce(&Location) + Send>) {
        if dest == self.id() {
            return self.run_in_place(|| req(self));
        }
        // The box itself is the capture: two words relocated, its pointee
        // travelling by pointer like everything a capture points to.
        self.stage(dest, req);
    }

    /// A `Waiting` slot for a request to `peer`'s `handler`.
    fn alloc_slot(&self, wait_kind: SpanKind, peer: usize, handler: &'static str) -> u64 {
        let (state, issued_ns) = (SlotState::Waiting, self.trace_clock());
        let fresh = ReplySlot { generation: 0, state, wait_kind, issued_ns, peer, handler };
        self.inner.slots.borrow_mut().alloc(fresh)
    }

    /// Creates a (reply token, future) pair for request/response protocols
    /// that are *not* a single round trip — e.g. a request forwarded through
    /// a directory's home location before reaching the owner, who replies
    /// directly to the original requester (the paper's method forwarding
    /// with synchronous semantics).
    ///
    /// Ship the token inside the request; whoever ends up executing it calls
    /// [`Location::reply`]. The requester blocks on the future.
    pub fn make_reply_slot<R: Send + 'static>(&self) -> (ReplyToken<R>, RmiFuture<R>) {
        // A bare reply slot has no single peer: anyone holding the token
        // may answer, so the timeout diagnostic says "unknown".
        let slot = self.alloc_slot(SpanKind::FutureWait, usize::MAX, "<reply token>");
        let token = ReplyToken { src: self.id(), slot, _marker: std::marker::PhantomData };
        (token, RmiFuture::pending(self.clone(), slot))
    }

    /// Sends `r` back to the location that created `token`, completing its
    /// future. May be called from any location.
    pub fn reply<R: Send + 'static>(&self, token: ReplyToken<R>, r: R) {
        self.send_response(token.src, token.slot, r);
    }

    fn send_response<R: Send + 'static>(&self, dest: LocId, slot: u64, r: R) {
        if dest == self.id() {
            self.fill_slot(slot, Box::new(r));
            return;
        }
        // Count every remote response here — sync round trips, split-phase
        // replies, and forwarded `reply()` completions alike — so the
        // per-location twin of `responses_sent` is bumped on the thread
        // that sends the response and `local_stats()` sums to the global
        // counter no matter which path produced the reply.
        self.count(Counter::responses_sent, 1);
        self.stage(dest, move |loc: &Location| loc.fill_slot(slot, Box::new(r)));
        // Someone waits on this value. A reply to a delivered request leaves
        // with its batch's other replies, once that batch has run; any other
        // (a `reply` from user code) leaves now.
        if !self.inner.delivering.get() {
            self.flush(dest);
        } else if !self.inner.reply_dests.borrow().contains(&dest) {
            self.inner.reply_dests.borrow_mut().push(dest);
        }
    }

    /// Completes the future waiting on `(dest, slot)` with a
    /// [`PoisonedResponse`] instead of a value: the handler panicked, and
    /// only the issuing future should fail. In flight a poison is a response
    /// like any other, and is counted as one.
    fn send_poison(&self, dest: LocId, slot: u64, handler: &'static str, message: String) {
        self.count(Counter::poisoned_responses, 1);
        self.send_response(dest, slot, PoisonedResponse { handler, message });
    }

    /// Delivers a reply: fills a `Waiting` slot, frees an `Abandoned` one.
    /// A slot already filled, or freed since, was answered twice.
    fn fill_slot(&self, slot: u64, val: Box<dyn Any>) {
        let mut slots = self.inner.slots.borrow_mut();
        match slots.entry(slot).map(|e| &mut e.state) {
            Some(state @ SlotState::Waiting) => *state = SlotState::Filled(val),
            Some(SlotState::Abandoned) => drop(slots.free(slot)),
            _ => {
                let handler = slots.entries.get(slot as u32 as usize).map_or("?", |e| e.handler);
                drop(slots);
                panic!(
                    "stapl-rts: location {}: second reply to future slot {slot:#x} (handler \
                     `{handler}`) — a request is answered exactly once",
                    self.id()
                );
            }
        }
    }

    /// The value of a filled slot, freeing it.
    pub(crate) fn try_take_slot(&self, slot: u64) -> Option<Box<dyn Any>> {
        let mut slots = self.inner.slots.borrow_mut();
        if !matches!(slots.entry(slot)?.state, SlotState::Filled(_)) {
            return None;
        }
        match slots.free(slot) {
            SlotState::Filled(val) => Some(val),
            _ => None,
        }
    }

    pub(crate) fn slot_filled(&self, slot: u64) -> bool {
        matches!(self.inner.slots.borrow_mut().entry(slot), Some(ReplySlot { state: SlotState::Filled(_), .. }))
    }

    /// What a wait on `slot` reports: (span kind, issue time, peer, handler).
    pub(crate) fn slot_diagnostics(&self, slot: u64) -> (SpanKind, u64, usize, &'static str) {
        let mut slots = self.inner.slots.borrow_mut();
        let e = slots.entry(slot).expect("a pending future's slot is live");
        (e.wait_kind, e.issued_ns, e.peer, e.handler)
    }

    /// `slot`'s future is gone: a filled slot is freed with its value, a
    /// waiting one is left for the reply to free, one taken already is none
    /// of its business. Runs in `Drop`, possibly while unwinding out of this
    /// table: it leaves alone what it cannot borrow.
    pub(crate) fn release_slot(&self, slot: u64) {
        let Ok(mut slots) = self.inner.slots.try_borrow_mut() else { return };
        let unread = match slots.entry(slot).map(|e| &mut e.state) {
            Some(state @ SlotState::Waiting) => return *state = SlotState::Abandoned,
            Some(_) => slots.free(slot),
            None => return,
        };
        // The value may own futures of its own: drop it outside the borrow.
        drop(slots);
        drop(unread);
    }

    /// Reply slots allocated and not freed (for tests: nothing may leak).
    #[doc(hidden)]
    pub fn reply_slots_in_use(&self) -> usize {
        let slots = self.inner.slots.borrow();
        slots.entries.len() - slots.free.len()
    }

    // ------------------------------------------------------------------
    // Message plumbing
    // ------------------------------------------------------------------

    /// Stages `f` for execution on `dest`, preserving per-pair FIFO order:
    /// how a response or a forwarded box leaves this location.
    #[inline]
    fn stage<F>(&self, dest: LocId, f: F)
    where
        F: FnOnce(&Location) + Send + 'static,
    {
        self.staged(dest, image_bytes::<F>(), |buf| buf.push(f));
    }

    /// Stages `g` for application to the representative of `h` on `dest`,
    /// in the run of its neighbours of the same method and handle: how a
    /// request leaves this location.
    #[inline]
    fn stage_on<T: 'static, G: Image<T>>(&self, dest: LocId, h: Handle, g: G) {
        self.staged(dest, image_bytes::<G>(), |buf| buf.push_on::<T, G>(h, g));
    }

    /// The one way anything leaves this location: `push` relocates a capture
    /// of `bytes` straight into `dest`'s batch buffer — no allocation, no
    /// clock read.
    #[inline]
    fn staged(&self, dest: LocId, bytes: usize, push: impl FnOnce(&mut Staging)) {
        debug_assert_ne!(dest, self.id());
        // Count at staging time (not flush time) so the fence's quiescence
        // check observes buffered-but-unflushed requests.
        self.count(Counter::bytes_sent, bytes as u64);
        self.count(Counter::remote_requests, 1);
        if self.inner.endpoint.stage(dest, push) >= self.config().aggregation {
            self.flush(dest);
        }
    }

    /// Flushes the aggregation buffer toward `dest`.
    pub fn flush(&self, dest: LocId) {
        if self.inner.endpoint.flush(dest, || self.now()) {
            self.count(Counter::batches_sent, 1);
            self.reap_transport_events();
        }
    }

    /// Flushes all aggregation buffers.
    pub fn flush_all(&self) {
        (0..self.nlocs()).filter(|&dest| dest != self.id()).for_each(|dest| self.flush(dest));
    }

    /// Services all currently queued incoming batches; returns the number
    /// of requests executed.
    ///
    /// # Panics
    /// As every wait does (a fence, a barrier, a collective, a sync RMI, a
    /// future's wait that begins), naming the call's site: inside an RMI
    /// handler, delivered or run in place (L1), and while a
    /// [`Location::register_cell`] representative is borrowed here (L2).
    #[track_caller]
    pub fn poll(&self) -> usize {
        self.refuse_to_wait();
        self.drain()
    }

    /// [`Location::poll`], unchecked: a wait's passes after its first.
    fn drain(&self) -> usize {
        let mut n = 0;
        // Drive retransmission of overdue unacknowledged batches; on a
        // lossless fabric this is an early-out on a counter.
        self.inner.endpoint.tick(|| self.now());
        while let Some(batch) = self.inner.endpoint.try_recv() {
            n += self.deliver(batch);
        }
        self.reap_transport_events();
        n
    }

    /// Counts the reliability events the endpoint accumulated since the
    /// last reap (drops, retransmits, checksum rejections, acks).
    fn reap_transport_events(&self) {
        let Some(ev) = self.inner.endpoint.take_events() else { return };
        for &c in Counter::ALL {
            self.count(c, ev.get(c));
        }
    }

    /// Runs the requests of `batch` in place, in order, then flushes the
    /// replies they staged: one reply batch per destination per delivered
    /// batch. A panic in one unwinds from here; the buffer then drops the
    /// images behind it.
    fn deliver(&self, batch: Batch) -> usize {
        let Batch { mut records, .. } = batch;
        let n = records.len();
        self.inner.delivering.set(true);
        while records.has_next() {
            records.step(Some(self));
        }
        self.inner.delivering.set(false);
        for dest in self.inner.reply_dests.borrow_mut().drain(..) {
            self.flush(dest);
        }
        n
    }

    /// Runs one delivered request, then counts it handled (the fence's
    /// proof reads `requests_handled` per request, run or not).
    #[inline]
    pub(crate) fn run_record(&self, request: impl FnOnce()) {
        request();
        self.count(Counter::requests_handled, 1);
    }

    /// The one wait loop: every blocking wait — barriers, and through them
    /// fences and collectives, futures, [`RmiFuture::is_ready`], and the
    /// PARAGRAPH executor's idle wait — returns from here once `ready()`
    /// reads true. Each pass aborts if a location has panicked, then polls.
    /// A pass that ran nothing flushes this location's aggregation buffers
    /// — a request this location itself depends on (e.g. the first hop of a
    /// forwarded synchronous method, or the window of split-phase requests
    /// a future is waited on in) must not sit buffered while it waits — and
    /// relaxes: a spin hint for the first 64 empty polls, a yield
    /// after. Its first poll is checked as [`Location::poll`] is; a wait
    /// whose condition already holds runs no check.
    #[track_caller]
    pub fn wait_until(&self, ready: impl FnMut() -> bool) {
        self.spin(ready, false);
    }

    /// [`Location::wait_until`], its first poll unchecked when `checked`.
    #[track_caller]
    fn spin(&self, mut ready: impl FnMut() -> bool, mut checked: bool) {
        let mut empty_polls = 0u32;
        while !ready() {
            if let Some((_, why)) = self.inner.shared.poisoned.get() {
                panic!("stapl-rts: a peer location panicked while this location waited: {why}");
            }
            if !std::mem::replace(&mut checked, true) {
                self.refuse_to_wait();
            }
            if self.drain() == 0 {
                self.flush_all();
                empty_polls += 1;
                if empty_polls > 64 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Poisons the execution with `payload`'s message, unless one came first.
    pub(crate) fn mark_panicked(&self, payload: &(dyn Any + Send)) {
        let _ = self.inner.shared.poisoned.set((self.id(), panic_message(payload)));
    }

    /// Panics, naming the caller's site, where this location must not wait
    /// ([`Location::poll`]).
    #[track_caller]
    pub(crate) fn refuse_to_wait(&self) {
        let (site, me) = (std::panic::Location::caller(), self.id());
        assert!(
            !self.inner.delivering.get() && !self.inner.in_place.get(),
            "stapl-rts: location {me}: an RMI handler waits at {site} — a handler runs inside its \
             location's progress engine, so it must not poll, fence, wait on a future or enter a \
             barrier or collective"
        );
        let reg = self.inner.registry.borrow();
        for &(h, borrowed) in self.inner.cells.borrow().iter() {
            let RegEntry { rep, type_name } = &reg[h.0 as usize];
            assert!(
                !rep.as_deref().is_some_and(borrowed),
                "stapl-rts: location {me}: a wait at {site} begins while `{type_name}` is borrowed \
                 — a handler the wait runs may borrow it again; end the borrow before the wait"
            );
        }
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /// A barrier across all locations that services incoming requests while
    /// waiting. Unlike [`Location::rmi_fence`] it does *not* guarantee that
    /// pending asynchronous RMIs have completed.
    #[track_caller]
    pub fn barrier(&self) {
        self.refuse_to_wait();
        let t0 = self.trace_clock();
        self.rendezvous(Kind::Barrier, || ());
        self.trace_span_end(SpanKind::Barrier, t0, 0);
    }

    /// A [`Location::barrier`] of `kind` whose last arriver runs `last`
    /// before it releases the others; every location returns that value. A
    /// fence round's verdict and a collective's result are computed here.
    /// Unchecked: its caller has checked the wait ([`Location::poll`]).
    #[track_caller]
    pub(crate) fn rendezvous<T: Clone + Send + 'static>(&self, kind: Kind, last: impl FnOnce() -> T) -> T {
        self.inner.shared.barrier.rendezvous(kind, |released| self.spin(released, true), last)
    }

    /// The paper's `rmi_fence`: completes only when every RMI issued before
    /// the fence — including RMIs issued *by* RMI handlers (method
    /// forwarding chains) — has been executed, globally.
    ///
    /// Implemented as termination detection: repeat (flush, drain, barrier)
    /// rounds until, with all locations inside the fence, the requests
    /// handled and the requests sent — summed over the per-location
    /// counter blocks — are equal. A round is two barriers; the second is
    /// a rendezvous whose last arriver takes the sums, so every location
    /// leaves the round with the same verdict.
    ///
    /// Also where a dropped p_object's memory comes back: the handles every
    /// location had retired ([`Location::retire`]) when this location
    /// *entered* the fence are reclaimed when it completes. A fence with
    /// nothing retiring pays one `is_empty` for that.
    #[track_caller]
    pub fn rmi_fence(&self) {
        self.fence(Kind::Fence);
    }

    /// [`Location::rmi_fence`], its rendezvous of `kind`: `Exit` is
    /// `execute`'s closing fence.
    #[track_caller]
    pub(crate) fn fence(&self, kind: Kind) {
        self.refuse_to_wait();
        let t0 = self.trace_clock();
        let mut rounds = 0u64;
        // Decided on entry: a peer that has left this fence may send to a
        // handle and retire it before this location gets out.
        let reclaim = self.take_retired_everywhere();
        loop {
            self.count(Counter::fence_rounds, 1);
            rounds += 1;
            self.flush_all();
            while self.drain() > 0 {}
            self.rendezvous(kind, || ());
            // Polling inside the barrier may have executed handlers that
            // enqueued new requests; push those out and drain again.
            self.flush_all();
            while self.drain() > 0 {}
            if self.rendezvous(kind, || self.quiescent()) {
                reclaim.into_iter().for_each(|h| self.unregister(h));
                self.trace_span_end(SpanKind::Fence, t0, rounds);
                return;
            }
        }
    }

    /// A fence round's verdict, taken by the last location to arrive at the
    /// round's rendezvous. Its peers are still polling — and running
    /// handlers — inside that rendezvous while these sums are taken, so the
    /// read order carries the proof: `handled` first, `remote_requests`
    /// (= sent) second. A request is counted sent before it can run and
    /// handled only after its handler, forwards included, has returned; so
    /// whatever the first scan counts as handled the second counts as sent,
    /// along with everything those handlers sent. Equality therefore means
    /// nothing was in flight between the scans, and with every location in
    /// the fence only a request in flight could send another. Reading
    /// `sent` first lets a forwarding handler run between the scans, move
    /// both sums by one, and balance the books with its hop unexecuted.
    fn quiescent(&self) -> bool {
        let sum = |c: Counter| -> u64 { self.inner.shared.counters.iter().map(|b| b.get(c)).sum() };
        let handled = sum(Counter::requests_handled);
        let sent = sum(Counter::remote_requests);
        // Under the reliable layer every request's carrying batch must also
        // have been acknowledged: executed-but-unacked requests mean a
        // sender may still retransmit (and the fault injector may still be
        // holding a reordered batch), so the system is not yet quiet. Read
        // last: once nothing is left to send, `sent` is final and `acked`
        // only rises toward it.
        handled == sent && (!self.config().reliable_layer() || sum(Counter::requests_acked) == sent)
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.inner.shared
    }
}

/// Extracts the human-readable message out of a caught panic payload
/// (panics raise `&str` or `String` in practice; anything else gets a
/// placeholder rather than a second panic inside the handler shim).
pub(crate) fn panic_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The representative a run's handle resolved to, or the panic
/// [`Location::lookup`] raises — here, inside the request that needed it.
fn resolved<'a, T>(obj: Result<&'a T, &str>) -> &'a T {
    obj.unwrap_or_else(|why| panic!("{why}"))
}

