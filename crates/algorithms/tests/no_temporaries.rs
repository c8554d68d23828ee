//! The bulk algorithms over an indexed container allocate no array-sized
//! temporaries where both sides are stored on the calling location. Its own
//! test binary, with a counting global allocator and one test: bytes
//! requested from the allocator are deterministic, so this holds on a
//! shared CI runner the property a clock cannot ("the loop runs over the
//! storage slices, not over a copy of them").

use stapl_algorithms::map_func::{
    p_equal, p_for_each, p_generate, p_inner_product, p_reduce, p_transform,
};
use stapl_algorithms::numeric::p_partial_sum;
use stapl_algorithms::sorting::p_sort;
use stapl_containers::array::PArray;
use stapl_rts::{execute, RtsConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Bytes the calling thread — the one location's — requests while `call`
/// runs.
fn requested(call: impl FnOnce()) -> usize {
    counting_alloc::measure(call).1.bytes
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
