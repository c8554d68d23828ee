//! The counting global allocator of the allocation tests. A test binary
//! includes this file as a module by `#[path]`, which makes it the
//! binary's global allocator. Counting is per thread: only calls made by a
//! thread while it is measured (`count_this_thread(true)`, or inside
//! `measure`) are counted, so a test harness thread allocating beside the
//! measured region cannot move a count.

// Each binary reads the counts it asserts on; the others go unused there.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// What measured threads asked of the allocator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Allocations and reallocations.
    pub calls: usize,
    /// Frees.
    pub frees: usize,
    /// Bytes requested: each allocation's size, each reallocation's growth.
    pub bytes: usize,
    /// Bytes given back: each free's size, each reallocation's shrink.
    pub freed: usize,
}

impl Counts {
    /// What was counted after `earlier` was taken.
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            calls: self.calls - earlier.calls,
            frees: self.frees - earlier.frees,
            bytes: self.bytes - earlier.bytes,
            freed: self.freed - earlier.freed,
        }
    }
}

static CALLS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static FREED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread's calls are measured.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is being measured (`false` once its
/// thread-locals are gone).
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

/// Everything counted so far, by every measured thread.
pub fn totals() -> Counts {
    Counts {
        calls: CALLS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        freed: FREED.load(Ordering::Relaxed),
    }
}

/// Starts (`true`) or stops measuring the calling thread.
pub fn count_this_thread(on: bool) {
    COUNTING.set(on);
}

/// What the calling thread asks of the allocator while `call` runs.
pub fn measure<R>(call: impl FnOnce() -> R) -> (R, Counts) {
    let before = totals();
    count_this_thread(true);
    let r = call();
    count_this_thread(false);
    (r, totals().since(before))
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are a side effect only.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations are those of `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            FREES.fetch_add(1, Ordering::Relaxed);
            FREED.fetch_add(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
            FREED.fetch_add(layout.size().saturating_sub(new_size), Ordering::Relaxed);
        }
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;
