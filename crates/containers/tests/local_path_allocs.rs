//! A local element method allocates nothing: its hit is a borrow, a
//! compare and the memory access; a split-phase read of a local element is
//! its value, not a slot. Its own test binary, with a counting global
//! allocator and one test — bytes requested are deterministic, so this
//! holds on a shared CI runner what a clock cannot.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use stapl_containers::array::PArray;
use stapl_containers::associative::PHashMap;
use stapl_core::interfaces::{AssociativeContainer, ElementRead, ElementWrite, PContainer};
use stapl_rts::{execute, RmiFuture, RtsConfig};

/// Bytes requested so far, by measured threads.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread's calls are measured: the harness's threads,
    /// and any thread outside the measured region, count nothing.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is being measured (`false` once its
/// thread-locals are gone).
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations are those of `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        }
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
        if counting() {
            REQUESTED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        }
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn local_element_methods_allocate_nothing() {
    const N: usize = 10_000;
    assert!(std::mem::size_of::<RmiFuture<u64>>() <= 24, "a future is its value or (location, slot)");
    execute(RtsConfig::default(), 1, |loc| {
        let a = PArray::new(loc, N, 1u64);
        let h: PHashMap<u64, u64> = PHashMap::new(loc);
        (0..N as u64).for_each(|k| h.insert_async(k, k));
        h.commit();
        // Counts the calls of this thread, the one location's, only.
        let none = |what: &str, call: &dyn Fn()| {
            let before = REQUESTED.load(Ordering::Relaxed);
            COUNTING.set(true);
            call();
            COUNTING.set(false);
            let bytes = REQUESTED.load(Ordering::Relaxed) - before;
            assert_eq!(bytes, 0, "{N} local {what} requested {bytes} bytes");
        };
        let sum = std::cell::Cell::new(0u64);
        let add = |v: u64| sum.set(sum.get().wrapping_add(v));
        none("get_element", &|| (0..N).for_each(|g| add(a.get_element(g))));
        none("set_element", &|| (0..N).for_each(|g| a.set_element(g, g as u64)));
        none("split_get_element", &|| (0..N).for_each(|g| add(a.split_get_element(g).get())));
        none("PHashMap::find", &|| (0..N as u64).for_each(|k| add(h.find(k).unwrap_or(0))));
        none("PHashMap::apply_async", &|| (0..N as u64).for_each(|k| h.apply_async(k, |v| *v += 1)));
        assert_eq!(sum.get(), (N + 2 * (0..N as u64).sum::<u64>() as usize) as u64);
        assert_eq!(h.find(7), Some(8));
    });
}
