//! When a staged request or reply leaves (DESIGN.md "The message buffer"):
//! a split-phase request waits for its window — the requests issued before
//! the first wait on one of them — and leaves with it at that wait, or
//! earlier when a buffer fills; the replies to one delivered batch leave
//! as one batch once it has run; a synchronous request leaves at issue.
//! Each test holds location 1 out of polling until location 0 signals,
//! so what location 0 sent is all there is to count.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

use stapl_rts::{execute, execute_collect, Location, RtsConfig};

const WINDOW: u64 = 32;

/// Spins — without polling, so nothing is delivered — until `flag` is set.
fn hold(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
}

#[test]
fn a_window_of_split_requests_leaves_as_full_buffers() {
    for aggregation in [5, 8, 64] {
        let released = AtomicBool::new(false);
        execute(RtsConfig { aggregation, ..RtsConfig::base() }, 2, |loc| {
            let (h, _rep) = loc.register(Cell::new(0u64));
            loc.rmi_fence();
            if loc.id() == 1 {
                hold(&released);
            } else {
                let before = loc.local_stats().batches_sent;
                let window: Vec<_> =
                    (0..WINDOW).map(|i| loc.split_rmi(1, h, move |_: &Cell<u64>, _| i * i)).collect();
                let batches = |loc: &Location| loc.local_stats().batches_sent - before;
                let at_issue = batches(loc);
                // The first wait — here one pass of it — sends the rest.
                let ready = window[0].is_ready();
                let at_wait = batches(loc);
                // Released before anything is asserted: a held location
                // does not see a panic here.
                released.store(true, Ordering::Release);
                let values: Vec<u64> = window.into_iter().map(|f| f.get()).collect();
                assert!(!ready, "location 1 has not run anything");
                assert_eq!(at_issue, WINDOW / aggregation as u64, "aggregation {aggregation}: at issue");
                assert_eq!(at_wait, WINDOW.div_ceil(aggregation as u64), "aggregation {aggregation}: at the wait");
                assert_eq!(values, (0..WINDOW).map(|i| i * i).collect::<Vec<_>>());
            }
            loc.rmi_fence();
        });
    }
}

#[test]
fn the_replies_to_a_delivered_batch_leave_as_one_batch() {
    let released = AtomicBool::new(false);
    // The window is one request batch.
    execute(RtsConfig { aggregation: 2 * WINDOW as usize, ..RtsConfig::base() }, 2, |loc| {
        let (h, _rep) = loc.register(Cell::new(0u64));
        loc.rmi_fence();
        if loc.id() == 1 {
            hold(&released);
            let before = loc.local_stats();
            // The window is one batch: the first poll that runs anything
            // runs all of it.
            let mut ran = 0;
            while ran == 0 {
                ran = loc.poll();
            }
            let sent = loc.local_stats().since(&before);
            assert_eq!(ran as u64, WINDOW);
            assert_eq!(sent.responses_sent, WINDOW);
            assert_eq!(sent.batches_sent, 1, "{WINDOW} replies to one delivered batch");
        } else {
            let window: Vec<_> = (0..WINDOW).map(|i| loc.split_rmi(1, h, move |_: &Cell<u64>, _| i + 1)).collect();
            loc.flush_all();
            released.store(true, Ordering::Release);
            assert_eq!(window.into_iter().map(|f| f.get()).sum::<u64>(), (1..=WINDOW).sum::<u64>());
        }
        loc.rmi_fence();
    });
}

/// What location 0 had flushed when its wait on a request to location 1
/// ran its first delivered request: location 1 sends that request before
/// location 0 issues, so the wait's first poll runs it, and a poll that
/// runs something flushes nothing.
fn batches_sent_before_the_wait(sync: bool) -> u64 {
    let (quiet, issue) = (AtomicBool::new(false), AtomicBool::new(false));
    let out = execute_collect(RtsConfig::base(), 2, |loc| {
        let (h, rep) = loc.register(Cell::new(0u64));
        loc.rmi_fence();
        let mut seen = 0;
        if loc.id() == 1 {
            // Not while location 0 still polls inside the fence.
            hold(&quiet);
            loc.async_rmi(0, h, |c: &Cell<u64>, loc| c.set(loc.local_stats().batches_sent));
            loc.flush(0);
            issue.store(true, Ordering::Release);
        } else {
            quiet.store(true, Ordering::Release);
            hold(&issue);
            let before = loc.local_stats().batches_sent;
            let v = if sync {
                loc.sync_rmi(1, h, |_: &Cell<u64>, _| 7u64)
            } else {
                loc.split_rmi(1, h, |_: &Cell<u64>, _| 7u64).get()
            };
            assert_eq!(v, 7);
            seen = rep.get() - before;
        }
        loc.rmi_fence();
        seen
    });
    out[0]
}

#[test]
fn a_sync_request_leaves_at_issue_and_a_split_request_at_its_wait() {
    assert_eq!(batches_sent_before_the_wait(true), 1, "sync_rmi: flushed at issue");
    assert_eq!(batches_sent_before_the_wait(false), 0, "split_rmi: still staged");
}
