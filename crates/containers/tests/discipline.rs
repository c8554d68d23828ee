//! The RMI discipline at the container layer (DESIGN.md "The RMI
//! discipline: where each rule is held"): a wait inside a `with_slice`
//! closure, which runs under the representative's borrow, panics (L2).

use stapl_containers::array::PArray;
use stapl_core::interfaces::RangedContainer;

#[path = "../../../tests/support/run_panic.rs"]
mod run_panic;

/// `rmi_fence` inside a `with_slice` closure fails at P=1 and at P=2,
/// naming its line and the pArray's representative.
#[test]
fn l2_fence_inside_with_slice() {
    let line = line!() + 6;
    for nlocs in [1, 2] {
        let msg = run_panic::panic_of(nlocs, move |loc| {
            let arr = PArray::new(loc, 8, 1u64);
            let (bcid, gids) = arr.local_pieces()[0];
            arr.with_slice(bcid, gids, |s| {
                loc.rmi_fence();
                s.len()
            });
        });
        assert!(msg.contains("ArrayRep<u64>>` is borrowed"), "P={nlocs}: {msg}");
        run_panic::names(&msg, file!(), line);
    }
}
