//! A local element method allocates nothing: its hit is a borrow, a
//! compare and the memory access; a split-phase read of a local element is
//! its value, not a slot. Its own test binary, with a counting global
//! allocator and one test — bytes requested are deterministic, so this
//! holds on a shared CI runner what a clock cannot.

use stapl_containers::array::PArray;
use stapl_containers::associative::PHashMap;
use stapl_core::interfaces::{AssociativeContainer, ElementRead, ElementWrite, PContainer};
use stapl_rts::{execute, RmiFuture, RtsConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measure;

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
            let bytes = measure(call).1.bytes;
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
