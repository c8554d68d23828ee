//! What the message buffer promises about the captures relocated into it:
//! every staged capture — whatever its size and alignment, a forwarded box
//! included — is run exactly once, in FIFO order, and dropped exactly once;
//! a capture the execution never gets to run (staged, flushed but
//! undelivered, or behind a record that panicked when the execution
//! aborts) is dropped exactly once and run never; and under the reliable
//! layer the retained and duplicated images of a batch never run or drop
//! anything, so the count stays exactly one over a faulty fabric.
//!
//! All on `RtsConfig::base()`: the abort cases are promises of the plain
//! path (under the reliable layer an in-flight image owns nothing and an
//! abort leaks it), so the environment's fault schedule must not apply.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use stapl_rts::{execute, FaultSchedule, Handle, Location, RtsConfig};

/// Per-capture tallies: how often capture `i` ran, how often it was
/// dropped, and how many captures were dropped without having run.
struct Tally {
    runs: Vec<AtomicUsize>,
    drops: Vec<AtomicUsize>,
    dropped_unexecuted: AtomicUsize,
}

impl Tally {
    fn new(n: usize) -> Arc<Tally> {
        let zeros = || (0..n).map(|_| AtomicUsize::new(0)).collect();
        Arc::new(Tally { runs: zeros(), drops: zeros(), dropped_unexecuted: AtomicUsize::new(0) })
    }

    fn counts(&self) -> Vec<(usize, usize)> {
        let get = |v: &AtomicUsize| v.load(Ordering::SeqCst);
        self.runs.iter().zip(&self.drops).map(|(r, d)| (get(r), get(d))).collect()
    }
}

/// A capture that reports to a [`Tally`] when it is run and when it dies.
struct Tracked {
    i: usize,
    ran: bool,
    tally: Arc<Tally>,
}

impl Tracked {
    fn new(i: usize, tally: &Arc<Tally>) -> Tracked {
        Tracked { i, ran: false, tally: tally.clone() }
    }

    fn run(&mut self) {
        self.ran = true;
        self.tally.runs[self.i].fetch_add(1, Ordering::SeqCst);
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.tally.drops[self.i].fetch_add(1, Ordering::SeqCst);
        if !self.ran {
            self.tally.dropped_unexecuted.fetch_add(1, Ordering::SeqCst);
        }
    }
}

type Log = RefCell<Vec<usize>>;

/// Stages an asynchronous request toward location 1 whose own capture is
/// exactly `N` bytes: it checks every one of them and logs `N`.
fn stage_sized<const N: usize>(loc: &Location, h: Handle) {
    let pattern = (N % 251) as u8 + 1;
    let bytes = [pattern; N];
    loc.async_rmi(1, h, move |log: &Log, _| {
        assert!(bytes.iter().all(|&b| b == pattern), "capture of {N} bytes arrived damaged");
        log.borrow_mut().push(N);
    });
}

#[repr(align(32))]
struct Aligned([u64; 4]);

#[test]
fn mixed_captures_in_one_batch_run_exactly_once_in_fifo_order() {
    let tally = Tally::new(1);
    let cfg = RtsConfig { aggregation: 64, ..RtsConfig::base() };
    execute(cfg, 2, |loc| {
        let (h, log) = loc.register(Log::default());
        loc.rmi_fence();
        if loc.id() == 0 {
            let batches_before = loc.local_stats().batches_sent;
            stage_sized::<0>(loc, h);
            stage_sized::<1>(loc, h);
            stage_sized::<7>(loc, h);
            stage_sized::<8>(loc, h);
            stage_sized::<9>(loc, h);
            stage_sized::<4096>(loc, h);
            // An over-aligned capture: the buffer aligns to words only.
            let aligned = Aligned([1, 2, 3, 4]);
            loc.async_rmi(1, h, move |log: &Log, _| {
                assert_eq!(&aligned as *const Aligned as usize % 32, 0);
                assert_eq!(aligned.0, [1, 2, 3, 4]);
                log.borrow_mut().push(32);
            });
            // An already-boxed request: the box itself is the capture.
            loc.send_request(
                1,
                Box::new(move |l: &Location| l.lookup::<Log>(h).borrow_mut().push(16)),
            );
            // A capture that counts its own runs and drops.
            let mut tracked = Tracked::new(0, &tally);
            loc.async_rmi(1, h, move |log: &Log, _| {
                tracked.run();
                log.borrow_mut().push(usize::MAX);
            });
            loc.flush_all();
            assert_eq!(loc.local_stats().batches_sent - batches_before, 1, "one batch");
        }
        loc.rmi_fence();
        if loc.id() == 1 {
            assert_eq!(*log.borrow(), [0, 1, 7, 8, 9, 4096, 32, 16, usize::MAX]);
        }
    });
    assert_eq!(tally.counts(), [(1, 1)]);
    assert_eq!(tally.dropped_unexecuted.load(Ordering::SeqCst), 0);
}

/// Runs `body` on two locations, expecting the execution to abort.
fn aborted(cfg: RtsConfig, body: impl Fn(&Location) + Send + Sync) {
    let outcome = catch_unwind(AssertUnwindSafe(|| execute(cfg, 2, body)));
    assert!(outcome.is_err(), "the execution was meant to abort");
}

const K: usize = 50;

#[test]
fn captures_staged_at_abort_drop_once_and_never_run() {
    let tally = Tally::new(K);
    // Aggregation above K: nothing leaves the staging buffer.
    aborted(RtsConfig { aggregation: 1024, ..RtsConfig::base() }, |loc| {
        let (h, _log) = loc.register(Log::default());
        loc.rmi_fence();
        if loc.id() == 0 {
            for i in 0..K {
                let mut tracked = Tracked::new(i, &tally);
                loc.async_rmi(1, h, move |_: &Log, _| tracked.run());
            }
            panic!("location 0 aborts with {K} requests staged");
        }
    });
    assert_eq!(tally.counts(), vec![(0, 1); K]);
}

/// The regression test of the abort-path leak: a batch that was flushed but
/// never polled — still in the peer's channel when the execution aborts —
/// releases what its requests captured: the batch in the channel is the
/// owner of its records, and dropping it runs their drop arm.
#[test]
fn captures_flushed_but_undelivered_at_abort_drop_once_and_never_run() {
    let tally = Tally::new(K);
    let payload = Arc::new([7u64; 16]);
    let flushed = AtomicBool::new(false);
    aborted(RtsConfig { aggregation: 8, ..RtsConfig::base() }, |loc| {
        let (h, _log) = loc.register(Log::default());
        loc.rmi_fence();
        if loc.id() == 0 {
            for i in 0..K {
                let (mut tracked, payload) = (Tracked::new(i, &tally), payload.clone());
                loc.async_rmi(1, h, move |_: &Log, _| {
                    tracked.run();
                    assert_eq!(payload[0], 7);
                });
            }
            loc.flush_all();
            flushed.store(true, Ordering::SeqCst);
        } else {
            // No poll between the flush and the panic: the batches stay in
            // this location's channel.
            while !flushed.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            panic!("location 1 aborts with {K} requests in its channel");
        }
        loc.barrier(); // location 0 waits here for the peer's panic to poison it
    });
    assert_eq!(tally.counts(), vec![(0, 1); K]);
    assert_eq!(Arc::strong_count(&payload), 1, "an undelivered batch leaked its captures");
}

#[test]
fn tail_behind_a_panicking_record_drops_once_and_never_runs() {
    let tally = Tally::new(K);
    const BOOM: usize = 10;
    aborted(RtsConfig { aggregation: 1024, ..RtsConfig::base() }, |loc| {
        let (h, _log) = loc.register(Log::default());
        loc.rmi_fence();
        if loc.id() == 0 {
            for i in 0..K {
                let mut tracked = Tracked::new(i, &tally);
                loc.async_rmi(1, h, move |_: &Log, _| {
                    tracked.run();
                    // An asynchronous handler has no future to poison: its
                    // panic aborts the execution.
                    assert_ne!(tracked.i, BOOM, "record {BOOM} panics");
                });
            }
        }
        loc.rmi_fence();
    });
    let expect: Vec<(usize, usize)> = (0..K).map(|i| (usize::from(i <= BOOM), 1)).collect();
    assert_eq!(tally.counts(), expect);
    assert_eq!(tally.dropped_unexecuted.load(Ordering::SeqCst), K - BOOM - 1);
}

#[test]
fn reliable_layer_runs_every_capture_exactly_once_over_a_faulty_fabric() {
    const N: usize = 10_000;
    let tally = Tally::new(N);
    let mut cfg = RtsConfig { aggregation: 4, retransmit_rto_us: 300, ..RtsConfig::base() };
    cfg.faults = FaultSchedule::parse("dup:0.3,reorder:0.3,drop:0.2").unwrap();
    execute(cfg, 2, |loc| {
        let (h, log) = loc.register(Log::default());
        loc.rmi_fence();
        // Both directions, so acks ride data batches as well as alone.
        let (me, peer) = (loc.id(), 1 - loc.id());
        for k in 0..N / 2 {
            let mut tracked = Tracked::new(me * (N / 2) + k, &tally);
            loc.async_rmi(peer, h, move |log: &Log, _| {
                tracked.run();
                log.borrow_mut().push(k);
            });
        }
        loc.rmi_fence();
        assert!(log.borrow().iter().copied().eq(0..N / 2), "per-pair FIFO broken");
        let s = loc.stats();
        assert!(s.frames_dropped > 0 && s.duplicates_discarded > 0, "the schedule never fired: {s:?}");
    });
    // Retained copies, injected duplicates and dropped batches are raw
    // images: none of them ran a capture or dropped one.
    assert_eq!(tally.counts(), vec![(1, 1); N]);
    assert_eq!(tally.dropped_unexecuted.load(Ordering::SeqCst), 0);
}
