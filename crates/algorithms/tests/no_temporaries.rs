//! The bulk algorithms over an indexed container allocate no array-sized
//! temporaries where both sides are stored on the calling location. Its own
//! test binary, with a counting global allocator and one test: bytes
//! requested from the allocator are deterministic, so this holds on a
//! shared CI runner the property a clock cannot ("the loop runs over the
//! storage slices, not over a copy of them").

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use stapl_algorithms::map_func::{
    p_equal, p_for_each, p_generate, p_inner_product, p_reduce, p_transform,
};
use stapl_algorithms::numeric::p_partial_sum;
use stapl_algorithms::sorting::p_sort;
use stapl_containers::array::PArray;
use stapl_rts::{execute, RtsConfig};

/// Bytes requested so far, by any thread.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations are those of `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
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
        REQUESTED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes the one location's thread requests while `call` runs (the main
/// thread is parked in `execute`'s join meanwhile).
fn requested(call: impl FnOnce()) -> usize {
    let before = REQUESTED.load(Ordering::Relaxed);
    call();
    REQUESTED.load(Ordering::Relaxed) - before
}

#[test]
fn bulk_algorithms_allocate_no_array_sized_temporaries() {
    const N: usize = 1 << 16;
    // An eighth of one array of `u64`.
    const SMALL: usize = N;
    execute(RtsConfig::default(), 1, |loc| {
        let a = PArray::new(loc, N, 0u64);
        let b = PArray::new(loc, N, 0u64);
        let small = |what: &str, call: &dyn Fn()| {
            let bytes = requested(call);
            assert!(bytes < SMALL, "{what} requested {bytes} bytes for {N} local elements");
        };
        small("p_generate", &|| p_generate(&a, |g| (g as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        small("p_for_each", &|| p_for_each(&a, |v| *v ^= *v >> 7));
        small("p_reduce", &|| assert!(p_reduce(&a, |_, v| *v, |x, y| x ^ y).is_some()));
        small("p_transform", &|| p_transform(&a, &b, |v| v.wrapping_mul(3)));
        small("p_inner_product", &|| assert_ne!(p_inner_product(&a, &b), 0));
        small("p_equal", &|| assert!(!p_equal(&a, &b)));
        small("p_partial_sum", &|| p_partial_sum(&b, 0, |x, y| x.wrapping_add(*y)));
        // One copy of the block to sort, and the merge's scratch space.
        let bytes = requested(|| p_sort(&a));
        assert!(bytes <= 2 * 8 * N + (64 << 10), "p_sort requested {bytes} bytes for {N} keys");
    });
}
