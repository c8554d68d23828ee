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
//! buffers. With the buffer: 1 038 calls (1 000 batches, the channel's
//! blocks) and 739 112 bytes; 3 068 calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use stapl_rts::{execute, RtsConfig};

/// Allocation calls and bytes requested so far, by any thread.
static CALLS: AtomicUsize = AtomicUsize::new(0);
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are a side effect only.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations are those of `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn counts() -> (usize, usize) {
    (CALLS.load(Ordering::Relaxed), REQUESTED.load(Ordering::Relaxed))
}

#[test]
fn remote_requests_allocate_per_batch_not_per_request() {
    const ASYNCS: usize = 16_000;
    const SYNCS: usize = 1_000;
    const AGGREGATION: usize = 16;
    // The plain path whatever the environment says: a fault schedule would
    // add the reliable layer's retained copies and acks.
    let cfg = RtsConfig { aggregation: AGGREGATION, ..RtsConfig::base() };
    execute(cfg, 2, |loc| {
        let (h, cell) = loc.register(RefCell::new(0u64));
        loc.rmi_fence();

        // Location 0 issues; location 1 only waits in the barrier, running
        // what arrives. The main thread is parked in `execute`'s join, so
        // everything counted belongs to the burst.
        let sent_before = loc.stats().bytes_sent;
        let before = counts();
        if loc.id() == 0 {
            for i in 0..ASYNCS as u64 {
                // 24 bytes here, 32 with the handle `async_rmi` adds.
                let add = [i, 1, 0];
                loc.async_rmi(1, h, move |c: &RefCell<u64>, _| {
                    *c.borrow_mut() += add[0] * add[1] + add[2];
                });
            }
            loc.flush_all();
        }
        loc.barrier();
        let (calls, bytes) = (counts().0 - before.0, counts().1 - before.1);
        loc.rmi_fence();
        if loc.id() == 0 {
            assert_eq!(loc.stats().bytes_sent - sent_before, 40 * ASYNCS as u64, "record size");
            let batches = ASYNCS / AGGREGATION;
            assert!(calls <= 3 * batches + 64, "{ASYNCS} async_rmi: {calls} allocation calls");
            assert!(bytes <= ASYNCS * 40 * 5 / 4, "{ASYNCS} async_rmi: {bytes} bytes requested");
        } else {
            assert_eq!(*cell.borrow(), (0..ASYNCS as u64).sum::<u64>());
        }

        // Blocking round trips, both sides counted together: the request's
        // buffer, the response's buffer, the reply slot's box.
        loc.barrier();
        let before = counts().0;
        if loc.id() == 0 {
            for _ in 0..SYNCS {
                let v = loc.sync_rmi(1, h, |c: &RefCell<u64>, _| *c.borrow());
                assert!(v > 0);
            }
        }
        loc.barrier();
        if loc.id() == 0 {
            let calls = counts().0 - before;
            assert!(calls <= 4 * SYNCS, "{SYNCS} sync_rmi round trips: {calls} allocation calls");
        }
    });
}
