//! What the message buffer promises about the captures relocated into it:
//! every staged capture — whatever its size and alignment, a forwarded box
//! included, alone or one image of a run of requests to the same method of
//! the same p_object — is run exactly once, in FIFO order, and dropped
//! exactly once; a capture the execution never gets to run (staged, flushed
//! but undelivered, or behind an image that panicked — mid-run or not —
//! when the execution aborts) is dropped exactly once and run never; and
//! under the reliable layer the retained and duplicated images of a batch
//! never run or drop anything, so the count stays exactly one over a
//! faulty fabric.
//!
//! All on `RtsConfig::base()`: the abort cases are promises of the plain
//! path (under the reliable layer an in-flight image owns nothing and an
//! abort leaks it), so the environment's fault schedule must not apply.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
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

/// Stages one request of one method — the same closure type whatever the
/// arguments, so consecutive calls with one handle share a run — that runs
/// `tracked`, logs its index and panics when that is `boom`.
fn stage_tracked(loc: &Location, h: Handle, mut tracked: Tracked, boom: usize) {
    loc.async_rmi(1, h, move |log: &Log, _| {
        tracked.run();
        log.borrow_mut().push(tracked.i);
        // An asynchronous handler has no future to poison: its panic aborts
        // the execution.
        assert_ne!(tracked.i, boom, "image {boom} panics");
    });
}

const NEVER: usize = usize::MAX;

#[test]
fn tail_behind_a_panicking_record_drops_once_and_never_runs() {
    let tally = Tally::new(K);
    const BOOM: usize = 10;
    aborted(RtsConfig { aggregation: 1024, ..RtsConfig::base() }, |loc| {
        let (h, _log) = loc.register(Log::default());
        let (h2, _log2) = loc.register(Log::default());
        loc.rmi_fence();
        if loc.id() == 0 {
            // One batch: a run of 30 whose image 10 panics, a run on another
            // handle, and forwarded boxes — all behind it, none to run.
            for i in 0..K {
                let mut tracked = Tracked::new(i, &tally);
                match i {
                    0..30 => stage_tracked(loc, h, tracked, BOOM),
                    30..40 => stage_tracked(loc, h2, tracked, BOOM),
                    _ => loc.send_request(1, Box::new(move |_: &Location| tracked.run())),
                }
            }
        }
        loc.rmi_fence();
    });
    let expect: Vec<(usize, usize)> = (0..K).map(|i| (usize::from(i <= BOOM), 1)).collect();
    assert_eq!(tally.counts(), expect);
    assert_eq!(tally.dropped_unexecuted.load(Ordering::SeqCst), K - BOOM - 1);
}

#[test]
fn a_run_cut_by_a_threshold_flush_and_by_an_idle_flush_stays_in_order() {
    let tally = Tally::new(K);
    execute(RtsConfig { aggregation: 8, ..RtsConfig::base() }, 2, |loc| {
        let (h, log) = loc.register(Log::default());
        loc.rmi_fence();
        if loc.id() == 0 {
            let before = loc.local_stats();
            // 21 requests of one method: two full batches leave at the
            // threshold, five images wait; the wait of a blocking read goes
            // idle and flushes them ahead of the read; 29 more follow.
            (0..21).for_each(|i| stage_tracked(loc, h, Tracked::new(i, &tally), NEVER));
            assert_eq!(loc.local_stats().since(&before).batches_sent, 2);
            assert_eq!(loc.sync_rmi(1, h, |log: &Log, _| log.borrow().len()), 21);
            (21..K).for_each(|i| stage_tracked(loc, h, Tracked::new(i, &tally), NEVER));
            // Images only — a `Tracked` and `boom` each, the read's reply
            // slot and source: where a run breaks does not show.
            let sent = loc.local_stats().since(&before);
            let image = std::mem::size_of::<(Tracked, usize)>() as u64;
            assert_eq!((sent.remote_requests, sent.bytes_sent), (K as u64 + 1, K as u64 * image + 16));
        }
        loc.rmi_fence();
        if loc.id() == 1 {
            assert!(log.borrow().iter().copied().eq(0..K), "FIFO across the cuts: {:?}", log.borrow());
        }
    });
    assert_eq!(tally.counts(), vec![(1, 1); K]);
}

/// A capture of no bytes that still has a destructor.
struct Zst;

static ZST_DROPS: AtomicUsize = AtomicUsize::new(0);

impl Drop for Zst {
    fn drop(&mut self) {
        ZST_DROPS.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn a_run_of_zero_sized_captures_is_a_count() {
    const N: usize = 40;
    const BOOM: usize = 25;
    let ran = Mutex::new(Vec::new());
    aborted(RtsConfig { aggregation: 1024, ..RtsConfig::base() }, |loc| {
        let (h, _log) = loc.register(Log::default());
        loc.rmi_fence();
        if loc.id() == 0 {
            let before = loc.local_stats();
            for _ in 0..N {
                let zst = Zst;
                let request = move |log: &Log, _: &Location| {
                    let _zst = &zst;
                    let k = log.borrow().len();
                    log.borrow_mut().push(k);
                    assert_ne!(k, BOOM, "image {BOOM} panics");
                };
                assert_eq!(std::mem::size_of_val(&request), 0);
                loc.async_rmi(1, h, request);
            }
            // The whole run is its header: no image has a byte to count.
            let sent = loc.local_stats().since(&before);
            assert_eq!((sent.remote_requests, sent.bytes_sent), (N as u64, 0));
        }
        let log = loc.lookup::<Log>(h);
        let outcome = catch_unwind(AssertUnwindSafe(|| loc.rmi_fence()));
        ran.lock().unwrap().push((loc.id(), log.borrow().clone()));
        outcome.unwrap_or_else(|p| std::panic::resume_unwind(p));
    });
    // Images 0..=BOOM ran; each of the N was dropped once — the BOOM that
    // ran, the one unwinding, and the tail the buffer still owned, though
    // its cursor was already at the end of its words.
    let ran = ran.into_inner().unwrap();
    let at_1 = &ran.iter().find(|(id, _)| *id == 1).expect("location 1 reported").1;
    assert!(at_1.iter().copied().eq(0..=BOOM), "{at_1:?}");
    assert_eq!(ZST_DROPS.load(Ordering::SeqCst), N);
}

#[test]
fn runs_interleave_with_responses_and_forwarded_boxes_in_staging_order() {
    execute(RtsConfig { aggregation: 64, ..RtsConfig::base() }, 2, |loc| {
        let (h, log) = loc.register(Log::default());
        loc.rmi_fence();
        if loc.id() == 0 {
            let note = |v: usize| move |log: &Log, _: &Location| log.borrow_mut().push(v);
            // One batch from location 1: a run of two, a box, a run of one,
            // the response that flushes them.
            let answer = loc.split_rmi(1, h, move |_: &Log, l1: &Location| {
                l1.async_rmi(0, h, note(1));
                l1.async_rmi(0, h, note(2));
                l1.send_request(0, Box::new(move |l0: &Location| l0.lookup::<Log>(h).borrow_mut().push(3)));
                l1.async_rmi(0, h, note(4));
                5
            });
            let answer = answer.get();
            log.borrow_mut().push(answer);
            // And behind a forwarded box: what it stages travels back in
            // the order it staged it.
            loc.send_request(
                1,
                Box::new(move |l1: &Location| {
                    l1.async_rmi(0, h, note(6));
                    l1.send_request(0, Box::new(move |l0: &Location| l0.lookup::<Log>(h).borrow_mut().push(7)));
                    l1.async_rmi(0, h, note(8));
                    l1.async_rmi(0, h, note(9));
                }),
            );
        }
        loc.rmi_fence();
        if loc.id() == 0 {
            assert_eq!(*log.borrow(), [1, 2, 3, 4, 5, 6, 7, 8, 9]);
        }
    });
}

#[test]
fn a_handle_change_mid_stream_opens_a_run_on_the_other_p_object() {
    let tally = Tally::new(8);
    execute(RtsConfig { aggregation: 64, ..RtsConfig::base() }, 2, |loc| {
        let (h1, log1) = loc.register(Log::default());
        let (h2, log2) = loc.register(Log::default());
        loc.rmi_fence();
        if loc.id() == 0 {
            // The same method throughout; the handle alone cuts the runs.
            for (i, h) in [h1, h1, h2, h2, h2, h1, h2, h2].into_iter().enumerate() {
                stage_tracked(loc, h, Tracked::new(i, &tally), NEVER);
            }
        }
        loc.rmi_fence();
        if loc.id() == 1 {
            assert_eq!((&*log1.borrow(), &*log2.borrow()), (&vec![0, 1, 5], &vec![2, 3, 4, 6, 7]));
        }
    });
    assert_eq!(tally.counts(), vec![(1, 1); 8]);
}

#[test]
fn reliable_layer_runs_every_capture_exactly_once_over_a_faulty_fabric() {
    const N: usize = 10_000;
    let tally = Tally::new(N);
    let mut cfg = RtsConfig { aggregation: 4, retransmit_rto_us: 300, ..RtsConfig::base() };
    cfg.faults = FaultSchedule::parse("dup:0.3,reorder:0.3,drop:0.2,corrupt:0.1").unwrap();
    execute(cfg, 2, |loc| {
        let (h, log) = loc.register(Log::default());
        loc.rmi_fence();
        // Both directions, so acks ride data batches as well as alone.
        let (me, peer) = (loc.id(), 1 - loc.id());
        // Runs of four (one method, one handle, aggregation 4), with a
        // forwarded box cutting every 50th.
        for k in 0..N / 2 {
            let mut tracked = Tracked::new(me * (N / 2) + k, &tally);
            let mut request = move |log: &Log, _: &Location| {
                tracked.run();
                log.borrow_mut().push(k);
            };
            if k % 50 == 49 {
                loc.send_request(peer, Box::new(move |l: &Location| request(&l.lookup::<Log>(h), l)));
            } else {
                loc.async_rmi(peer, h, request);
            }
        }
        loc.rmi_fence();
        assert!(log.borrow().iter().copied().eq(0..N / 2), "per-pair FIFO broken");
        let s = loc.stats();
        // A flipped bit — in a run's thunk word, its handle, its count, an
        // image — is caught by the batch's checksum before anything runs.
        assert!(
            s.frames_dropped > 0 && s.duplicates_discarded > 0 && s.checksum_failures > 0,
            "the schedule never fired: {s:?}"
        );
    });
    // Retained copies, injected duplicates and dropped batches are raw
    // images: none of them ran a capture or dropped one.
    assert_eq!(tally.counts(), vec![(1, 1); N]);
    assert_eq!(tally.dropped_unexecuted.load(Ordering::SeqCst), 0);
}
