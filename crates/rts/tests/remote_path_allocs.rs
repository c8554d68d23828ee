//! A remote request allocates nothing of its own: it is relocated into its
//! destination's batch buffer, and the buffer is the one allocation of the
//! batch. Its own test binary, with a counting global allocator and one
//! test — calls and bytes requested are deterministic up to batch
//! boundaries, so this holds on a shared CI runner what a clock cannot.
//!
//! At the parent of the PR that introduced the buffer (a `Box` per request,
//! a growing `Vec<Box<..>>` per batch) the same test counted 19 033 calls
//! and 825 552 bytes for the asynchronous burst, and 5 067 calls for the
//! 1 000 blocking round trips: the request's box, its batch `Vec`, the
//! response's box, its batch `Vec`, and the reply slot's `Box<dyn Any>` —
//! the last of which is what a round trip still allocates besides its two
//! buffers. With the buffer, one record per request: 1 038 calls (1 000
//! batches, the channel's blocks) and 739 112 bytes; 3 068 calls. With
//! runs — one header per batch of one method, then the arguments — the
//! same burst asks for 490 800 bytes (731 312 when two methods alternate
//! and every run is a run of one).

use std::cell::RefCell;

use stapl_rts::{execute_collect, Handle, Location, RtsConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{count_this_thread, totals};

const ASYNCS: usize = 16_000;
const AGGREGATION: usize = 16;

/// Runs `burst` on location 0 of two — location 1 only waits in a barrier,
/// running what arrives, and only the two locations' threads count, each
/// from after the fence to the barrier, so everything counted belongs to
/// the burst — and returns the allocator
/// calls and bytes requested, the `bytes_sent` and the batches it took.
fn counted(burst: impl Fn(&Location, Handle) + Send + Sync) -> (usize, usize, u64, u64) {
    // The plain path whatever the environment says: a fault schedule would
    // add the reliable layer's retained copies and acks.
    let cfg = RtsConfig { aggregation: AGGREGATION, ..RtsConfig::base() };
    let out = execute_collect(cfg, 2, |loc| {
        let (h, cell) = loc.register_cell(0u64);
        loc.rmi_fence();
        let (stats, before) = (loc.stats(), totals());
        count_this_thread(true);
        if loc.id() == 0 {
            burst(loc, h);
            loc.flush_all();
        }
        loc.barrier();
        count_this_thread(false);
        let counted = totals().since(before);
        loc.rmi_fence();
        if loc.id() == 1 {
            assert_eq!(*cell.borrow(), (0..ASYNCS as u64).sum::<u64>());
        }
        let sent = loc.stats().since(&stats);
        (counted.calls, counted.bytes, sent.bytes_sent, sent.batches_sent)
    });
    out[0]
}

type Sum = RefCell<u64>;

/// The one test of this binary (a second would allocate into its counts).
#[test]
fn remote_requests_allocate_per_batch_not_per_request() {
    same_method_requests_cost_their_arguments_and_a_header_per_batch();
    alternating_methods_cost_what_their_records_cost();
    a_round_trip_allocates_its_two_buffers_and_its_reply_slot();
}

fn same_method_requests_cost_their_arguments_and_a_header_per_batch() {
    // One method on one p_object: every batch is one run — a header, then
    // sixteen 24-byte captures (40-byte records before runs).
    let (calls, bytes, sent, batches) = counted(|loc, h| {
        for i in 0..ASYNCS as u64 {
            let add = [i, 1, 0];
            loc.async_rmi(1, h, move |c: &Sum, _| *c.borrow_mut() += add[0] * add[1] + add[2]);
        }
    });
    assert_eq!(sent, 24 * ASYNCS as u64, "bytes_sent counts the images");
    assert_eq!(batches as usize, ASYNCS / AGGREGATION);
    let in_buffers = 24 * ASYNCS + 16 * ASYNCS / AGGREGATION;
    assert!(calls <= 3 * ASYNCS / AGGREGATION + 64, "{ASYNCS} async_rmi: {calls} allocation calls");
    assert!(bytes <= in_buffers * 5 / 4, "{ASYNCS} async_rmi: {bytes} bytes requested, {in_buffers} staged");
}

fn alternating_methods_cost_what_their_records_cost() {
    // Two methods taking turns: every request is a run of one, and a run of
    // one is a record with the handle beside the count instead of inside
    // the capture — 8 + 32 bytes then, 16 + 24 now.
    let (calls, bytes, sent, _) = counted(|loc, h| {
        for i in 0..ASYNCS as u64 {
            let add = [i, 1, 0];
            if i % 2 == 0 {
                loc.async_rmi(1, h, move |c: &Sum, _| *c.borrow_mut() += add[0] * add[1] + add[2]);
            } else {
                loc.async_rmi(1, h, move |c: &Sum, _| *c.borrow_mut() += add[0] + add[1] + add[2] - 1);
            }
        }
    });
    assert_eq!(sent, 24 * ASYNCS as u64, "bytes_sent does not depend on where runs break");
    assert!(calls <= 3 * ASYNCS / AGGREGATION + 64, "{ASYNCS} alternating async_rmi: {calls} allocation calls");
    assert!(bytes <= ASYNCS * 40 * 5 / 4, "{ASYNCS} alternating async_rmi: {bytes} bytes requested");
}

fn a_round_trip_allocates_its_two_buffers_and_its_reply_slot() {
    const SYNCS: usize = 1_000;
    execute_collect(RtsConfig { aggregation: AGGREGATION, ..RtsConfig::base() }, 2, |loc| {
        let (h, _cell) = loc.register_cell(1u64);
        loc.rmi_fence();
        // Both sides counted together: the request's buffer, the response's
        // buffer, the reply slot's box.
        let before = totals();
        count_this_thread(true);
        if loc.id() == 0 {
            for _ in 0..SYNCS {
                let v = loc.sync_rmi(1, h, |c: &Sum, _| *c.borrow());
                assert!(v > 0);
            }
        }
        loc.barrier();
        count_this_thread(false);
        if loc.id() == 0 {
            let calls = totals().since(before).calls;
            assert!(calls <= 4 * SYNCS, "{SYNCS} sync_rmi round trips: {calls} allocation calls");
        }
    });
}
