//! The RMI discipline, held by the runtime (DESIGN.md "The RMI discipline:
//! where each rule is held"). A handler that waits panics, delivered or run
//! in place (L1); so does a wait that begins while a representative is
//! borrowed, at any P, with no conflicting handler sent (L2); and locations
//! that reach different rendezvous kinds panic there (L3). Each run fails
//! within a second, and the message `execute` re-raises names the sites.

use std::cell::{RefCell, RefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};

use stapl_rts::{execute, Handle, Location, RtsConfig};

#[path = "../../../tests/support/run_panic.rs"]
mod run_panic;
use run_panic::panic_of;

/// What a handler runs: handed its location and the handle of a `()`.
type Body = fn(&Location, Handle);

/// How location 0 sends `dest` a handler that runs a `Body`.
type Path = fn(&Location, usize, Handle, Body);

/// The three RMI paths a handler runs through, in place when `dest` is its
/// own location.
const PATHS: [Path; 3] = [
    |loc, dest, h, wait| loc.async_rmi(dest, h, move |_: &(), l| wait(l, h)),
    |loc, dest, h, wait| _ = loc.split_rmi(dest, h, move |_: &(), l| wait(l, h)),
    |loc, dest, h, wait| loc.send_request(dest, Box::new(move |l| wait(l, h))),
];

/// Location 0 sends the last location, through `path`, a handler that runs
/// `wait`: delivered at P=2, run in place at P=1.
fn in_a_handler(nlocs: usize, path: Path, wait: Body) -> String {
    let msg = panic_of(nlocs, move |loc| {
        let (h, _rep) = loc.register(());
        loc.rmi_fence();
        if loc.id() == 0 {
            path(loc, nlocs - 1, h, wait);
        }
    });
    assert!(msg.contains(&format!("location {}: an RMI handler waits at", nlocs - 1)), "{msg}");
    msg
}

/// A handler that fences, enters a barrier or a collective, makes a
/// blocking or a remote split-phase call, or polls, delivered at P=2; one
/// that fences, run in place at P=1 through each path. A location whose
/// in-place handler unwound may wait again.
#[test]
fn l1_blocking_in_handler() {
    let cases: [(Body, u32); 6] = [
        (|l, _| l.rmi_fence(), line!()),
        (|l, _| l.barrier(), line!()),
        (|l, _| _ = l.allreduce_sum(1), line!()),
        (|l, h| l.sync_rmi(0, h, |_: &(), _| ()), line!()),
        (|l, h| _ = l.split_rmi(0, h, |_: &(), _| 7u64).get(), line!()),
        (|l, _| _ = l.poll(), line!()),
    ];
    for (wait, line) in cases {
        run_panic::names(&in_a_handler(2, PATHS[0], wait), file!(), line);
    }
    let (fence, line) = cases[0];
    for path in PATHS {
        run_panic::names(&in_a_handler(1, path, fence), file!(), line);
    }
    execute(RtsConfig::default(), 1, |loc| {
        let (h, _rep) = loc.register(());
        let failed = catch_unwind(AssertUnwindSafe(|| loc.async_rmi(0, h, |_: &(), _| panic!("the handler fails"))));
        assert!(failed.is_err());
        loc.rmi_fence();
    });
}

/// A collective only some locations reach fails, naming both sites; a
/// symmetric split runs.
#[test]
fn l3_divergent_collective() {
    // Only location 0 reaches the collective; location 1 meets it at
    // `execute`'s closing fence.
    let line = line!() + 3;
    let msg = panic_of(2, |loc| {
        if loc.id() == 0 {
            loc.allreduce_sum(1);
        }
    });
    assert!(msg.contains("divergent collectives"), "{msg}");
    assert!(msg.contains("`Allreduce`") && msg.contains("`Exit`"), "{msg}");
    run_panic::names(&msg, file!(), line);
    assert!(msg.contains("spmd.rs:"), "the closing fence's site: {msg}");

    // Every location but the last fences.
    let line = line!() + 4;
    let msg = panic_of(2, |loc| {
        let last = loc.nlocs() - 1;
        if loc.id() != last {
            loc.rmi_fence();
        } else {
            loc.flush_all();
        }
    });
    assert!(msg.contains("`Fence`") && msg.contains("`Exit`"), "{msg}");
    run_panic::names(&msg, file!(), line);
    assert!(msg.contains("spmd.rs:"), "the closing fence's site: {msg}");

    // Both arms reach a broadcast: the kinds agree.
    execute(RtsConfig::default(), 2, |loc| {
        let v = if loc.id() == 0 { loc.broadcast(0, 42u64) } else { loc.broadcast(0, 0u64) };
        assert_eq!(v, 42);
    });
}

/// The representative every L2 shape borrows, as its panic names it.
type Store = RefCell<Vec<u64>>;

/// What an L2 shape runs, on every location, with `Store`'s handle.
type Shape = fn(&Location, Handle, &Store);

/// A guard that left the statement that took it, inside a struct.
struct Held<'a>(RefMut<'a, Vec<u64>>);

/// The wait `settle` hides from its caller is on this line + 3.
const SETTLE: u32 = line!() + 3;
/// A poll behind a function call: the caller holds the borrow.
fn settle(loc: &Location) {
    loc.rmi_fence();
}

/// A guard held across `poll`, `sync_rmi` and `allreduce_sum`; then three
/// shapes a token scan cannot see: a guard moved into a struct, a wait
/// behind a call, and a borrow in a collective's argument, which lives to
/// the end of the statement. Each fails at P=1 and at P=2, naming its line
/// and the borrowed representative's type.
#[test]
fn l2_borrow_across_poll() {
    let cases: [(Shape, u32); 6] = [
        (|loc, _, s| { let guard = s.borrow_mut(); _ = loc.poll(); drop(guard) }, line!()),
        (|loc, h, s| { let guard = s.borrow(); loc.sync_rmi(loc.nlocs() - 1, h, |_: &Store, _| ()); drop(guard) }, line!()),
        (|loc, _, s| { let guard = s.borrow_mut(); loc.allreduce_sum(guard.len() as u64); drop(guard) }, line!()),
        (|loc, _, s| { let mut held = Held(s.borrow_mut()); loc.barrier(); held.0.push(4) }, line!()),
        (|loc, _, s| { let guard = s.borrow(); settle(loc); drop(guard) }, SETTLE),
        (|loc, _, s| _ = loc.allgather(s.borrow().len()), line!()),
    ];
    let borrowed = format!("while `{}` is borrowed", std::any::type_name::<Store>());
    for ((shape, line), nlocs) in cases.into_iter().flat_map(|case| [(case, 1), (case, 2)]) {
        let msg = panic_of(nlocs, move |loc| {
            let (h, store) = loc.register_cell(vec![1u64, 2, 3]);
            loc.rmi_fence();
            shape(loc, h, &store);
        });
        assert!(msg.contains(&borrowed), "P={nlocs}: {msg}");
        run_panic::names(&msg, file!(), line);
    }
}

/// A guard scoped or dropped before the wait runs clean; so does a wait
/// that need not poll under a borrow: a filled future's `get`, a condition
/// that already holds.
#[test]
fn l2_guards_ended_before_the_wait_run_clean() {
    for nlocs in [1, 2] {
        execute(RtsConfig::default(), nlocs, |loc| {
            let (_, store) = loc.register_cell(vec![1u64, 2, 3]);
            store.borrow_mut().push(4);
            _ = loc.poll();
            let guard = store.borrow();
            let len = guard.len();
            drop(guard);
            assert_eq!(loc.allgather(len), vec![4; nlocs]);
            let _guard = store.borrow_mut();
            let (token, answer) = loc.make_reply_slot::<u64>();
            loc.reply(token, 7);
            assert_eq!(answer.get(), 7);
            loc.wait_until(|| true);
        });
    }
}
