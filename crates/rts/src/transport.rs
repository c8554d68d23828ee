//! The message buffer: the one way a request, a response or a forwarded
//! box crosses locations.
//!
//! ## Runs
//!
//! Staging a request toward a destination **relocates** its capture into
//! that destination's [`BatchBuf`], a contiguous buffer of 8-byte words.
//! The unit of the buffer is the **run** (ARMI's *combining*): consecutive
//! requests to one method of one p_object share one header,
//!
//! ```text
//! run thunk word | handle, count | image, image, …   (Location::async_rmi, sync_rmi, split_rmi)
//! thunk word     | image                             (a response, a Location::send_request box)
//! ```
//!
//! and each image is `size_of` the capture, rounded up to a word. A request
//! joins the open run of its buffer when that run has its thunk and its
//! handle, else it opens one: combining joins *consecutive* same-key
//! requests only, so staging order is execution order. A run of one costs
//! what a record with the handle captured cost (more only for a capture
//! with four spare bytes before a word boundary, where the handle used to
//! ride); a run of sixteen `set_element`s costs 16 bytes each plus one.
//!
//! A thunk word is the address of `run_thunk::<T, G>` or `thunk::<F>`, the
//! monomorphised function that moves the captures behind it back out of
//! the buffer and runs them — or drops them. It is the handler id and the
//! length field at once: there is no registry, no `TypeId`, no lock and
//! nothing to look up on either side, and the run thunk resolves its handle
//! to the representative **once per run**. A Rust move is a byte copy, so
//! the image *is* the closure (the original is `mem::forget`-ten); what the
//! capture points to — a `Vec`'s buffer, a `Box` handed to
//! [`Location::send_request`] — travels by pointer, valid across the
//! threads of one process because every staged closure is `Send`. A
//! process-crossing backend would replace the thunk word by a stable
//! (p_object type, method) id and each image by a deep encoding of the
//! method's arguments; the run and batch structure around them would stay
//! (DESIGN.md "The message buffer").
//!
//! A flush ships the whole buffer as one [`Batch`] — one allocation per
//! batch, none per request — and the receiver runs it in place, in order,
//! then frees the buffer.
//!
//! ## Who owns an image
//!
//! A buffer owns the images from its cursor on: the rest of the run the
//! cursor is in (a count beside the cursor, set from that run's header on
//! entry) and every run behind it. Both live in the buffer and move past
//! an image *before* it runs — a delivered buffer's words are only read — so
//! dropping a buffer — one never flushed, one still in a channel when an
//! execution aborts, one whose image *k* panicked mid-run — drops each
//! capture it still holds exactly once and runs none.
//!
//! ## The reliable layer
//!
//! When the configuration asks for it ([`RtsConfig::reliable_layer`]: a
//! fault schedule is active, or [`RtsConfig::serialized`] built the config)
//! the same buffer travels under a [`Seal`]: a per-(src, dest) sequence
//! number, a piggybacked cumulative ack, a retransmit mark, and **one
//! CRC-32 over the header and every word of the batch**. Recovery is a
//! cumulative-ack sliding protocol per pair:
//!
//! * the sender **retains** a copy of every flushed batch until it is
//!   acked; a retransmit timer ([`RtsConfig::retransmit_rto_us`]) resends
//!   it with exponential backoff and deterministic jitter;
//! * the receiver verifies the checksum **before running anything**: a
//!   corrupt batch is discarded whole and un-acked (the retransmit recovers
//!   it), a duplicate is discarded and re-acked, an early batch waits in a
//!   reorder stash until the gap fills — restoring per-pair FIFO;
//! * acks ride reverse-direction data batches and are sent standalone
//!   (`seq == 0`) on delivery. Acks and retransmissions are never
//!   fault-injected, which keeps recovery live and deterministic.
//!
//! A sealed batch in flight, a retained copy, an injected duplicate are
//! **raw images**: buffers that own nothing (cursor at the end) and are
//! freed as plain words. The one image the receiver admits — exactly one
//! per sequence number — becomes the owner when it is admitted; every
//! other copy never runs a destructor. An execution that aborts under the
//! reliable layer therefore leaks what its in-flight batches captured
//! rather than risk dropping a capture twice.
//!
//! ## Accounting
//!
//! The `Location` shell bumps `remote_requests` and `bytes_sent` (the
//! image's length) when it stages, so both are per-location and
//! deterministic for a deterministic scenario; run headers, seals, acks and
//! retransmissions are excluded because run boundaries, flush and retry
//! counts follow timing. The endpoint never touches counters: it
//! accumulates a counter delta ([`StatsSnapshot`]) of its reliability
//! events that the shell reaps into the location's counters.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::mem::{self, MaybeUninit};
use std::time::Duration;

use crossbeam::channel::{Receiver, Sender};
use wirecodec::Crc32;

use crate::config::RtsConfig;
use crate::fault::{mix64, FaultInjector};
use crate::location::{Handle, LocId, Location};
use crate::stats::StatsSnapshot;

/// One word of a batch buffer. Capture images carry their padding, so a
/// word is never assumed to be an initialised integer except through
/// [`BatchBuf::word`].
type Word = MaybeUninit<u64>;

const WORD_BYTES: usize = mem::size_of::<Word>();

/// Words of a run's header: its thunk, then `handle << 32 | count`.
const RUN_HEADER: usize = 2;

/// "No run": [`Staging::open`] of a buffer whose next request opens one,
/// [`BatchBuf::run`] of a buffer whose cursor is between runs.
const NO_RUN: usize = usize::MAX;

/// What a thunk does with an image: run it on a location, or (`None`) drop
/// it.
type On<'a> = Option<&'a Location>;

/// A header word: given the buffer and the index `at` of that word, moves
/// the cursor past each image behind it, completes the move of the capture,
/// and runs or drops it.
type Thunk = fn(&mut BatchBuf, usize, On);

/// What a run's images are: a method's arguments, applied to the
/// representative the run's handle resolved to — or to why it did not.
pub(crate) trait Image<T>: FnOnce(Result<&T, &str>, &Location) + Send + 'static {}
impl<T, G: FnOnce(Result<&T, &str>, &Location) + Send + 'static> Image<T> for G {}

fn thunk<F: FnOnce(&Location) + Send + 'static>(buf: &mut BatchBuf, at: usize, on: On) {
    buf.cursor = at + 1;
    let f: F = buf.take();
    match on {
        Some(loc) => loc.run_record(|| f(loc)),
        None => drop(f),
    }
}

fn run_thunk<T: 'static, G: Image<T>>(buf: &mut BatchBuf, at: usize, on: On) {
    let header = buf.word(at + 1).0;
    if buf.run != at {
        // Entering the run; otherwise resuming it behind a panicked image.
        (buf.run, buf.cursor, buf.left) = (at, at + RUN_HEADER, header as u32);
    }
    let Some(loc) = on else {
        while buf.next_of_run() {
            drop(buf.take::<G>());
        }
        return;
    };
    let obj = loc.try_lookup::<T>(Handle((header >> 32) as u32));
    let obj = obj.as_deref().map_err(String::as_str);
    while buf.next_of_run() {
        let g: G = buf.take();
        loc.run_record(|| g(obj, loc));
    }
}

const fn image_words<F>() -> usize {
    mem::size_of::<F>().div_ceil(WORD_BYTES)
}

/// Bytes the image of a staged `F` occupies in its batch buffer — what
/// `bytes_sent` counts for it.
pub(crate) const fn image_bytes<F>() -> usize {
    image_words::<F>() * WORD_BYTES
}

/// A buffer of runs toward one destination; see the module docs for the
/// layout and the ownership rule.
pub(crate) struct BatchBuf {
    words: Vec<Word>,
    /// Requests staged, executed ones included.
    nreqs: usize,
    /// Word index of the first image or header this buffer owns;
    /// `words.len()` for a raw image, which owns none.
    cursor: usize,
    /// Header index of the run the cursor is inside, and how many of its
    /// images the buffer still owns — here, not in the header: a write to a
    /// delivered buffer pulls its line from the sender before the handler.
    run: usize,
    left: u32,
}

/// A buffer being staged into, and the header index of the run its next
/// request may join ([`NO_RUN`] behind a record and in a fresh buffer: a
/// flush closes the open run).
pub(crate) struct Staging {
    buf: BatchBuf,
    open: usize,
}

impl Staging {
    fn with_capacity(words: usize) -> Staging {
        let words = Vec::with_capacity(words);
        Staging { buf: BatchBuf { words, nreqs: 0, cursor: 0, run: NO_RUN, left: 0 }, open: NO_RUN }
    }

    /// Relocates `f` into the buffer as a record of its own.
    #[inline]
    pub(crate) fn push<F: FnOnce(&Location) + Send + 'static>(&mut self, f: F) {
        self.buf.words.push(Word::new(thunk::<F> as Thunk as usize as u64));
        self.open = NO_RUN;
        self.buf.put(f);
    }

    /// Relocates `g` into the buffer as the next image of the open run when
    /// that is a run of `g`'s method on `h`, else of a run it opens.
    #[inline]
    pub(crate) fn push_on<T: 'static, G: Image<T>>(&mut self, h: Handle, g: G) {
        let (buf, thunk, handle) = (&mut self.buf, run_thunk::<T, G> as Thunk as usize as u64, u64::from(h.0));
        let joined = (self.open != NO_RUN && buf.word(self.open).0 == thunk)
            .then(|| buf.word(self.open + 1).0)
            .filter(|header| header >> 32 == handle && *header as u32 != u32::MAX);
        let header = joined.unwrap_or_else(|| {
            self.open = buf.words.len();
            buf.words.extend([thunk, handle << 32].map(Word::new));
            handle << 32
        });
        buf.words[self.open + 1] = Word::new(header + 1);
        buf.put(g);
    }
}

impl BatchBuf {
    /// Appends the image of `f`, which it moves from.
    #[inline]
    fn put<F>(&mut self, f: F) {
        let at = self.words.len();
        self.words.resize(at + image_words::<F>(), Word::uninit());
        // SAFETY: the `resize` above made room for `size_of::<F>()` bytes
        // from word `at` on, and a live `F` is readable for that many. The
        // copy is untyped — padding stays padding — and the `forget` below
        // makes it the move.
        unsafe {
            std::ptr::copy_nonoverlapping(
                &f as *const F as *const u8,
                self.words[at..].as_mut_ptr() as *mut u8,
                mem::size_of::<F>(),
            );
        }
        mem::forget(f);
        self.nreqs += 1;
    }

    /// Completes the move of the `F` whose image starts at the cursor,
    /// having moved the cursor past it.
    #[inline]
    fn take<F>(&mut self) -> F {
        let image = self.words[self.cursor..].as_ptr() as *const F;
        self.cursor += image_words::<F>();
        // SAFETY: only a thunk calls this, with its own `F` and the cursor
        // on an image `put::<F>` copied in behind that thunk's header —
        // `size_of::<F>()` bytes of an `F` whose original was forgotten, in
        // this address space — and at most once per image, because the
        // cursor the buffer owns from (and, in a run, its count of images
        // left) is past it from here on. Reading it out (unaligned: the buffer
        // aligns to words, not to `F`) completes that move. Every staged
        // closure is `Send`, which licenses the thread crossing.
        unsafe { std::ptr::read_unaligned(image) }
    }

    /// Moves the count of the run the cursor is inside past its next image;
    /// `false`, and the cursor no longer inside the run, when none is left.
    #[inline]
    fn next_of_run(&mut self) -> bool {
        if self.left == 0 {
            self.run = NO_RUN;
            return false;
        }
        self.left -= 1;
        true
    }

    /// Reads word `at` back the two ways a word is read: as an integer (a
    /// run's handle and count; the reliable layer's checksum and the fault
    /// injector's bit flip) and as the thunk that integer is the address of
    /// when `at` starts a run or a record (`None` for a zero word).
    fn word(&self, at: usize) -> (u64, Option<Thunk>) {
        // SAFETY: a header word was written as an integer by `push` or
        // `push_on` — from a `Thunk`, so that one reads back as both; every
        // integer is a valid `Option<fn>`. A capture word is read only as
        // an integer and only by the reliable layer, which has to name the
        // bytes it checksums: those of a capture's padding are whatever
        // `put` copied, and the value read is folded into a checksum or
        // written straight back, never branched on.
        unsafe {
            let int = self.words[at].assume_init();
            (int, mem::transmute::<usize, Option<Thunk>>(int as usize))
        }
    }

    /// Runs or drops what the buffer owns next: the rest of the run the
    /// cursor is inside, else the run or record at it.
    pub(crate) fn step(&mut self, on: On) {
        let at = if self.run == NO_RUN { self.cursor } else { self.run };
        let thunk = self.word(at).1.expect("a run or a record starts with its thunk word");
        thunk(self, at, on);
    }

    /// Whether the buffer still owns an image (those of a run of
    /// zero-sized captures lie behind no word).
    pub(crate) fn has_next(&self) -> bool {
        self.run != NO_RUN || self.cursor < self.words.len()
    }

    /// Requests staged.
    pub(crate) fn len(&self) -> usize {
        self.nreqs
    }

    /// A raw copy of the words: same runs, owning none of them.
    fn image(&self) -> BatchBuf {
        BatchBuf { words: self.words.clone(), nreqs: self.nreqs, cursor: self.words.len(), run: NO_RUN, left: 0 }
    }

    /// Turns the buffer into a raw image of itself (it goes in flight under
    /// the reliable layer) …
    fn disown(&mut self) {
        self.cursor = self.words.len();
    }

    /// … and the admitted image back into the owner of all its runs.
    fn adopt(&mut self) {
        self.cursor = 0;
    }

    fn checksum(&self, mut crc: Crc32) -> Crc32 {
        for at in 0..self.words.len() {
            crc = crc.update(&self.word(at).0.to_le_bytes());
        }
        crc
    }
}

impl Drop for BatchBuf {
    fn drop(&mut self) {
        while self.has_next() {
            self.step(None);
        }
    }
}

/// What the reliable layer puts on a batch in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Seal {
    /// Per-(src, dest) sequence number; data batches count from 1, `0`
    /// marks a standalone ack.
    seq: u64,
    /// The highest sequence number the sender has contiguously received
    /// *from* the destination of this batch.
    ack: u64,
    /// This batch is a retransmission (the fault injector passes those
    /// through).
    retransmit: bool,
    /// CRC-32 over `src`, the record count, the fields above, and every
    /// word of the records.
    crc: u32,
}

/// One flushed buffer between a (source, destination) pair. Unsealed, its
/// records are an owner; sealed, a raw image until admitted.
pub(crate) struct Batch {
    pub src: LocId,
    pub dest: LocId,
    pub records: BatchBuf,
    /// Boxed: a batch in flight on the plain path carries a null word of it.
    seal: Option<Box<Seal>>,
}

impl Batch {
    /// A sealed raw image of `records`, checksummed as it will be sent and
    /// retained.
    fn sealed(src: LocId, dest: LocId, mut records: BatchBuf, seq: u64, ack: u64) -> Batch {
        records.disown();
        let mut batch =
            Batch { src, dest, records, seal: Some(Box::new(Seal { seq, ack, retransmit: false, crc: 0 })) };
        batch.reseal();
        batch
    }

    fn reseal(&mut self) {
        let crc = self.checksum();
        if let Some(seal) = &mut self.seal {
            seal.crc = crc;
        }
    }

    fn checksum(&self) -> u32 {
        let seal = self.seal.as_deref().expect("only sealed batches are checksummed");
        let header = Crc32::new()
            .update(&(self.src as u64).to_le_bytes())
            .update(&(self.records.nreqs as u64).to_le_bytes())
            .update(&seal.seq.to_le_bytes())
            .update(&seal.ack.to_le_bytes())
            .update(&[seal.retransmit as u8]);
        self.records.checksum(header).finish()
    }

    /// A copy of a sealed batch: a second raw image of the same records.
    pub(crate) fn image(&self) -> Batch {
        debug_assert!(self.seal.is_some(), "an unsealed batch is an owner; there is one of it");
        Batch { src: self.src, dest: self.dest, records: self.records.image(), seal: self.seal.clone() }
    }

    /// The sequence number of a sealed batch (the fault injector's draw).
    pub(crate) fn seq(&self) -> u64 {
        self.seal.as_ref().map_or(0, |s| s.seq)
    }

    /// A standalone ack or a retransmission: traffic the fault injector
    /// passes through unfaulted.
    pub(crate) fn is_recovery_traffic(&self) -> bool {
        self.seal.as_ref().is_some_and(|s| s.seq == 0 || s.retransmit)
    }

    /// Flips bit `pick % bits` of the records (the fault injector's
    /// corruption).
    pub(crate) fn flip_bit(&mut self, pick: u64) {
        let bit = pick % (self.records.words.len() * WORD_BYTES * 8) as u64;
        let at = (bit / 64) as usize;
        let flipped = self.records.word(at).0 ^ 1 << (bit % 64);
        self.records.words[at] = Word::new(flipped);
    }
}

/// A flushed-but-unacked batch retained for retransmission (a raw image).
struct Retained {
    batch: Batch,
    deadline: Duration,
    attempt: u32,
}

/// Sender-side reliability state toward one destination.
struct PairTx {
    /// Sequence number the next flushed data batch will carry.
    next_seq: u64,
    /// Sent-but-unacked batches, by sequence number.
    unacked: BTreeMap<u64, Retained>,
}

/// Receiver-side reliability state for one source.
struct PairRx {
    /// The next in-order sequence number; everything below is delivered.
    expect: u64,
    /// Early (out-of-order) batches waiting for the gap to fill.
    stash: BTreeMap<u64, Batch>,
}

/// The reliable layer of one endpoint (see the module docs).
struct Reliable {
    rto: Duration,
    jitter_seed: u64,
    tx: RefCell<Vec<PairTx>>,
    rx: RefCell<Vec<PairRx>>,
    /// Total retained batches across all destinations; lets the hot `tick`
    /// path early-out without scanning.
    unacked_total: Cell<usize>,
    /// Total stashed out-of-order batches across all sources.
    stash_total: Cell<usize>,
    /// Reliability events since the last reap, as counter moves.
    events: Cell<StatsSnapshot>,
    /// The tap on every outbound batch, when a fault schedule is active.
    injector: Option<FaultInjector>,
}

impl Reliable {
    fn note(&self, event: impl FnOnce(&mut StatsSnapshot)) {
        let mut events = self.events.get();
        event(&mut events);
        self.events.set(events);
    }
}

/// One location's endpoint of the message fabric: the per-destination
/// staging buffers (the aggregation layer), the channel sends that flush
/// them, and the inbound queue [`Location::poll`] drains. Everything
/// *around* it stays in the `Location` shell — the `sent`/`handled`
/// counters the fence runs on, stats and traces — and per-pair FIFO holds
/// by construction (one buffer per destination, one channel per receiver,
/// the reliable layer re-sequencing what a faulty fabric reorders).
pub(crate) struct Endpoint {
    me: LocId,
    senders: Vec<Sender<Batch>>,
    rx: Receiver<Batch>,
    outbuf: RefCell<Vec<Staging>>,
    reliable: Option<Reliable>,
}

impl Endpoint {
    pub(crate) fn new(
        cfg: &RtsConfig,
        me: LocId,
        senders: Vec<Sender<Batch>>,
        rx: Receiver<Batch>,
    ) -> Endpoint {
        let nlocs = senders.len();
        let reliable = cfg.reliable_layer().then(|| Reliable {
            rto: Duration::from_micros(cfg.retransmit_rto_us.max(1)),
            jitter_seed: mix64(0x5EED_AC4D ^ me as u64),
            tx: RefCell::new(
                (0..nlocs).map(|_| PairTx { next_seq: 1, unacked: BTreeMap::new() }).collect(),
            ),
            rx: RefCell::new(
                (0..nlocs).map(|_| PairRx { expect: 1, stash: BTreeMap::new() }).collect(),
            ),
            unacked_total: Cell::new(0),
            stash_total: Cell::new(0),
            events: Cell::default(),
            injector: cfg
                .faults
                .active()
                .then(|| FaultInjector::new(senders.clone(), cfg.faults, cfg.fault_seed)),
        });
        Endpoint {
            me,
            senders,
            rx,
            outbuf: RefCell::new((0..nlocs).map(|_| Staging::with_capacity(0)).collect()),
            reliable,
        }
    }

    /// Has `push` relocate one request into `dest`'s buffer; returns how
    /// many that buffer now holds (the shell flushes at the threshold).
    #[inline]
    pub(crate) fn stage(&self, dest: LocId, push: impl FnOnce(&mut Staging)) -> usize {
        let staging = &mut self.outbuf.borrow_mut()[dest];
        push(staging);
        staging.buf.nreqs
    }

    /// Ships `dest`'s buffer as one batch at the location's clock `now`;
    /// `false` if it held no request.
    pub(crate) fn flush(&self, dest: LocId, now: impl Fn() -> Duration) -> bool {
        let records = {
            let mut out = self.outbuf.borrow_mut();
            let staging = &mut out[dest];
            if staging.buf.nreqs == 0 {
                return false;
            }
            // Sized for the batch just flushed: exact for a steady stream,
            // small for request/response ping-pong.
            let fresh = Staging::with_capacity(staging.buf.words.len());
            mem::replace(staging, fresh).buf
        };
        let (src, nreqs) = (self.me, records.nreqs);
        let batch = match &self.reliable {
            None => Batch { src, dest, records, seal: None },
            Some(rel) => {
                let mut tx = rel.tx.borrow_mut();
                let pair = &mut tx[dest];
                let seq = pair.next_seq;
                pair.next_seq += 1;
                let ack = rel.rx.borrow()[dest].expect - 1;
                let batch = Batch::sealed(src, dest, records, seq, ack);
                let retained = Retained { batch: batch.image(), deadline: now() + rel.rto, attempt: 0 };
                pair.unacked.insert(seq, retained);
                rel.unacked_total.set(rel.unacked_total.get() + 1);
                if let Some(injector) = &rel.injector {
                    crate::fault::busy_wait(&now, Duration::from_micros(injector.sched.delay_us));
                }
                batch
            }
        };
        if !self.send(batch) {
            panic!(
                "stapl-rts: location {src}: flush of {nreqs} requests to location {dest} \
                 failed — the destination's receive channel hung up (its thread exited; did \
                 a peer location panic?)"
            );
        }
        true
    }

    /// Hands `batch` to the fabric, through the fault injector when one is
    /// active. `false` when the destination hung up (the unsent batch is
    /// dropped here, releasing what it owns); the injector swallows that —
    /// a peer gone mid-abort is reported by the poisoned barrier.
    fn send(&self, batch: Batch) -> bool {
        match self.reliable.as_ref().and_then(|rel| rel.injector.as_ref()) {
            Some(injector) => {
                injector.route(batch);
                true
            }
            None => self.senders[batch.dest].send(batch).is_ok(),
        }
    }

    /// Pulls the next inbound batch that is ready to run — under the
    /// reliable layer, the next in (recovered) FIFO order, admitted exactly
    /// once.
    pub(crate) fn try_recv(&self) -> Option<Batch> {
        let Some(rel) = &self.reliable else {
            return self.rx.try_recv().ok();
        };
        loop {
            if rel.stash_total.get() > 0 {
                if let Some(batch) = self.pop_stashed(rel) {
                    return Some(batch);
                }
            }
            let batch = self.rx.try_recv().ok()?;
            if let Some(batch) = self.admit(rel, batch) {
                return Some(batch);
            }
        }
    }

    /// Runs one inbound image through verification, ack processing and
    /// sequencing; returns it — now the owner of its records — only when
    /// it is the next in-order delivery from its source.
    fn admit(&self, rel: &Reliable, mut batch: Batch) -> Option<Batch> {
        let (src, nreqs) = (batch.src, batch.records.nreqs as u64);
        let seal = match batch.seal.as_deref() {
            Some(&seal) if seal.crc == batch.checksum() => seal,
            _ => {
                // Corrupt on the wire: rejected before anything runs and
                // NOT acked; the sender's retransmit recovers the batch.
                rel.note(|ev| {
                    ev.checksum_failures += 1;
                    ev.frames_dropped += nreqs;
                });
                return None;
            }
        };
        self.process_ack(rel, src, seal.ack);
        if seal.seq == 0 {
            return None; // standalone ack
        }
        let in_order = {
            let mut rx = rel.rx.borrow_mut();
            let pair = &mut rx[src];
            if seal.seq > pair.expect && !pair.stash.contains_key(&seal.seq) {
                // Early: stash until the sequence gap fills.
                pair.stash.insert(seal.seq, batch);
                rel.stash_total.set(rel.stash_total.get() + 1);
                return None;
            }
            let in_order = seal.seq == pair.expect;
            pair.expect += u64::from(in_order);
            in_order
        };
        // Acked when delivered, and again when a duplicate (a retransmit
        // that raced the ack, or an injected dup) is discarded: the first
        // ack may have been lost.
        self.send_ack(rel, src);
        if !in_order {
            rel.note(|ev| ev.duplicates_discarded += nreqs);
            return None;
        }
        batch.records.adopt();
        Some(batch)
    }

    /// Pops the next in-order batch out of the reorder stash, if any
    /// source's gap has filled.
    fn pop_stashed(&self, rel: &Reliable) -> Option<Batch> {
        let mut batch = {
            let mut rx = rel.rx.borrow_mut();
            rx.iter_mut().find_map(|pair| {
                let batch = pair.stash.remove(&pair.expect)?;
                pair.expect += 1;
                rel.stash_total.set(rel.stash_total.get() - 1);
                Some(batch)
            })?
        };
        self.send_ack(rel, batch.src);
        batch.records.adopt();
        Some(batch)
    }

    /// Clears retained batches covered by a cumulative ack from `peer`.
    fn process_ack(&self, rel: &Reliable, peer: LocId, ack: u64) {
        let mut tx = rel.tx.borrow_mut();
        let pair = &mut tx[peer];
        while let Some(entry) = pair.unacked.first_entry() {
            if *entry.key() > ack {
                break;
            }
            let acked = entry.remove().batch.records.nreqs as u64;
            rel.note(|ev| ev.requests_acked += acked);
            rel.unacked_total.set(rel.unacked_total.get() - 1);
        }
    }

    /// Sends a standalone ack to `peer`, acknowledging everything
    /// contiguously received from it. Ack loss is tolerated — the peer's
    /// retransmit timer recovers — so a peer gone mid-teardown is ignored.
    fn send_ack(&self, rel: &Reliable, peer: LocId) {
        let ack = rel.rx.borrow()[peer].expect - 1;
        self.send(Batch::sealed(self.me, peer, Staging::with_capacity(0).buf, 0, ack));
        rel.note(|ev| ev.acks_sent += 1);
    }

    /// Resends overdue unacknowledged batches (a no-op without the reliable
    /// layer); the poll loop's clock `now` is read only if one is retained.
    pub(crate) fn tick(&self, now: impl FnOnce() -> Duration) {
        let Some(rel) = &self.reliable else { return };
        if rel.unacked_total.get() == 0 {
            return;
        }
        let now = now();
        let mut resend: Vec<Batch> = Vec::new();
        for (dest, pair) in rel.tx.borrow_mut().iter_mut().enumerate() {
            for (&seq, r) in pair.unacked.iter_mut() {
                if now < r.deadline {
                    continue;
                }
                r.attempt += 1;
                // Exponential backoff with deterministic jitter keeps a
                // lossy fabric from synchronizing its retry storms.
                let backoff = rel.rto * (1 << r.attempt.min(5));
                let jitter_us = mix64(
                    rel.jitter_seed ^ seq ^ ((r.attempt as u64) << 32) ^ ((dest as u64) << 48),
                ) % (rel.rto.as_micros() as u64 / 2 + 1);
                r.deadline = now + backoff + Duration::from_micros(jitter_us);
                let mut copy = r.batch.image();
                if let Some(seal) = &mut copy.seal {
                    seal.retransmit = true;
                }
                copy.reseal();
                resend.push(copy);
            }
        }
        for batch in resend {
            rel.note(|ev| ev.retransmits += 1);
            // A hung-up peer here means the execution is already aborting.
            self.send(batch);
        }
    }

    /// Drains the reliability events accumulated since the last call;
    /// `None` without the reliable layer.
    pub(crate) fn take_events(&self) -> Option<StatsSnapshot> {
        let rel = self.reliable.as_ref()?;
        let mut events = rel.events.take();
        events.frames_dropped += rel.injector.as_ref().map_or(0, FaultInjector::take_dropped);
        Some(events)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;

    /// The image of a request that adds `v` to a `Cell<u64>` p_object.
    fn add(v: u64) -> impl Image<Cell<u64>> {
        move |obj: Result<&Cell<u64>, &str>, _: &Location| {
            let obj = obj.unwrap();
            obj.set(obj.get() + v);
        }
    }

    fn sealed_with(v: u64) -> Batch {
        let mut st = Staging::with_capacity(0);
        st.push_on(Handle(5), add(v));
        Batch::sealed(3, 1, st.buf, 42, 40)
    }

    fn image_bytes_of<F>(_: &F) -> usize {
        image_bytes::<F>()
    }

    #[test]
    fn frame_header_matches_constant() {
        // A capture-less closure is zero-sized: its record is the thunk
        // word alone, and `bytes_sent` counts none of it.
        let mut st = Staging::with_capacity(0);
        let f = |_: &Location| {};
        assert_eq!(image_bytes_of(&f), 0);
        st.push(f);
        assert_eq!((st.buf.words.len(), st.buf.len()), (1, 1));
        assert!(st.buf.word(0).1.is_some(), "the header word reads back as a thunk");
    }

    #[test]
    fn frame_payload_is_the_capture_image() {
        let mut st = Staging::with_capacity(0);
        let v: u64 = 0x0102_0304_0506_0708;
        // `let _x = v` (a binding, not the `_` wildcard) forces the capture.
        let f = move |_: &Location| {
            let _x = v;
        };
        assert_eq!(image_bytes_of(&f), WORD_BYTES);
        st.push(f);
        assert_eq!(st.buf.word(1).0, v);
        // Odd sizes round up to a word: the next record starts on one.
        let small = 0xABu8;
        st.push(move |_: &Location| {
            let _x = small;
        });
        assert_eq!((st.buf.words.len(), st.buf.len()), (4, 2));
        assert!(st.buf.word(2).1.is_some());
    }

    #[test]
    fn consecutive_requests_of_one_method_and_handle_share_a_run() {
        let mut st = Staging::with_capacity(0);
        // Same method, same handle: one header, then the arguments.
        st.push_on(Handle(1), add(10));
        st.push_on(Handle(1), add(11));
        assert_eq!((st.buf.words.len(), st.buf.word(1).0), (RUN_HEADER + 2, 1 << 32 | 2));
        assert_eq!((st.buf.word(2).0, st.buf.word(3).0), (10, 11));
        // Another handle, a record in between, and another method each open
        // a run: only *consecutive* same-key requests combine.
        st.push_on(Handle(2), add(12));
        assert_eq!(st.open, 4);
        st.push(|_: &Location| {});
        st.push_on(Handle(2), add(13));
        assert_eq!(st.open, 8);
        st.push_on(Handle(2), |_: Result<&Cell<u64>, &str>, _: &Location| {});
        assert_eq!((st.open, st.buf.words.len(), st.buf.len()), (11, 13, 6));
        assert_eq!([1, 5, 9, 12].map(|at| st.buf.word(at).0), [1 << 32 | 2, 2 << 32 | 1, 2 << 32 | 1, 2 << 32 | 1]);
    }

    #[test]
    fn any_bit_flip_is_rejected_by_the_checksum() {
        let clean = sealed_with(0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(clean.seal.as_ref().unwrap().crc, clean.checksum());
        // One bit of the run's thunk word, of its handle and count, of the
        // capture, and every bit position in between: the single checksum
        // covers them all.
        for pick in 0..192 {
            let mut corrupt = clean.image();
            corrupt.flip_bit(pick);
            assert_ne!(corrupt.seal.as_ref().unwrap().crc, corrupt.checksum(), "flip of bit {pick}");
        }
    }

    #[test]
    fn control_frame_round_trips_and_marks_retransmit() {
        let mut batch = sealed_with(7);
        assert_eq!((batch.seq(), batch.seal.as_ref().unwrap().ack), (42, 40));
        assert!(!batch.is_recovery_traffic());
        // Every header field is under the checksum.
        let tampers: [fn(&mut Batch); 5] = [
            |b| b.src = 2,
            |b| b.records.nreqs = 17,
            |b| b.seal.as_mut().unwrap().seq = 43,
            |b| b.seal.as_mut().unwrap().ack = 41,
            |b| b.seal.as_mut().unwrap().retransmit = true,
        ];
        for tamper in tampers {
            let mut bad = batch.image();
            tamper(&mut bad);
            assert_ne!(bad.seal.as_ref().unwrap().crc, bad.checksum());
        }
        batch.seal.as_mut().unwrap().retransmit = true;
        batch.reseal();
        assert_eq!(batch.seal.as_ref().unwrap().crc, batch.checksum(), "re-sealed checksum verifies");
        assert!(batch.is_recovery_traffic());
        assert_eq!((batch.seq(), batch.seal.as_ref().unwrap().ack), (42, 40));
    }

    /// A two-location fabric seen from location 1: `(endpoint of 1, the
    /// sender toward it, what it sends to location 0)`.
    fn reliable_endpoint() -> (Endpoint, Sender<Batch>, Receiver<Batch>) {
        let (tx0, rx0) = crossbeam::channel::unbounded::<Batch>();
        let (tx1, rx1) = crossbeam::channel::unbounded::<Batch>();
        let cfg = RtsConfig { aggregation: 1024, ..RtsConfig::serialized() };
        (Endpoint::new(&cfg, 1, vec![tx0, tx1.clone()], rx1), tx1, rx0)
    }

    #[test]
    fn batch_without_control_header_is_rejected() {
        // Under the reliable layer an unsealed batch never runs: there is
        // no checksum to admit it by.
        let (ep, tx, _acks) = reliable_endpoint();
        let ran = Arc::new(AtomicUsize::new(0));
        let mut st = Staging::with_capacity(0);
        let seen = ran.clone();
        st.push(move |_: &Location| {
            seen.fetch_add(1, Ordering::SeqCst);
        });
        tx.send(Batch { src: 0, dest: 1, records: st.buf, seal: None }).unwrap();
        assert!(ep.try_recv().is_none());
        assert_eq!(ep.take_events().unwrap().checksum_failures, 1);
        assert_eq!(ran.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn verify_batch_checks_every_frame() {
        // A flip in the *last* image of a run rejects the whole batch before
        // its first image could run, un-acked; the clean image is admitted
        // as the owner and acked.
        let (ep, tx, acks) = reliable_endpoint();
        let mut st = Staging::with_capacity(0);
        for v in [1u64, 2, 3] {
            st.push_on(Handle(0), add(v));
        }
        let clean = Batch::sealed(0, 1, st.buf, 1, 0);
        let mut corrupt = clean.image();
        corrupt.flip_bit(4 * 64 + 3);
        tx.send(corrupt).unwrap();
        assert!(ep.try_recv().is_none());
        let ev = ep.take_events().unwrap();
        assert_eq!((ev.checksum_failures, ev.frames_dropped, ev.acks_sent), (1, 3, 0));
        assert!(acks.try_recv().is_err(), "a rejected batch is not acked");

        tx.send(clean).unwrap();
        let admitted = ep.try_recv().expect("the clean image is admitted");
        assert_eq!((admitted.records.len(), admitted.records.cursor), (3, 0));
        assert_eq!(acks.try_recv().expect("admission is acked").seal.as_ref().unwrap().ack, 1);
    }

    #[test]
    fn dropped_transport_releases_staged_captures() {
        // A staged but never-flushed record must run its capture's
        // destructors when the endpoint is dropped (an aborted execution),
        // not leak them.
        let (tx, rx) = crossbeam::channel::unbounded::<Batch>();
        let cfg = RtsConfig { aggregation: 1024, ..RtsConfig::base() };
        let ep = Endpoint::new(&cfg, 0, vec![tx.clone(), tx], rx);
        let payload = Arc::new(0u64);
        let weak = Arc::downgrade(&payload);
        ep.stage(1, |st| {
            st.push(move |_: &Location| {
                let _keep = &payload;
            })
        });
        assert!(weak.upgrade().is_some(), "capture alive while staged");
        drop(ep);
        assert!(weak.upgrade().is_none(), "staged record must drop its capture");
    }
}
