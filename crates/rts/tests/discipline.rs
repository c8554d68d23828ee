//! The RMI discipline, held by the runtime (DESIGN.md "The RMI discipline:
//! where each rule is held"). A handler that waits — on a fence, a barrier,
//! a collective, a future or `poll` itself — panics on its first remote
//! delivery (L1, blocking-in-handler); every case runs at P=2 and targets
//! the other location, since a handler run in place is not checked. Locations that reach different rendezvous
//! kinds panic there (L3, divergent-collective). Each run fails within a
//! second, and the message `execute` re-raises names the offending sites.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use stapl_rts::{execute, Handle, Location, RtsConfig};

/// The message `execute` re-raises when `body` runs on two locations; fails
/// if the run finishes without a panic or has not finished within a second.
fn panic_of(body: impl Fn(&Location) + Send + Sync + 'static) -> String {
    let (tx, rx) = mpsc::channel();
    // Detached, not joined: a run that hangs must fail this test, not hang
    // it. The thread reports its run's panic through the channel.
    std::thread::spawn(move || {
        let run = catch_unwind(AssertUnwindSafe(|| execute(RtsConfig::default(), 2, &body)));
        let _ = tx.send(run.err().map(|p| {
            p.downcast_ref::<String>().cloned().or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        }));
    });
    match rx.recv_timeout(Duration::from_secs(1)) {
        Ok(Some(Some(msg))) => msg,
        Ok(Some(None)) => panic!("the run panicked without a message"),
        Ok(None) => panic!("the run finished without a panic"),
        Err(_) => panic!("the run neither panicked nor finished within 1 s"),
    }
}

/// Asserts that `msg` names line `line` of this file.
fn names(msg: &str, line: u32) {
    let site = format!("{}:{line}:", file!());
    assert!(msg.contains(&site), "the panic must name {site}: {msg}");
}

/// What a handler runs: handed its location and the handle of a `()`.
type Body = fn(&Location, Handle);

/// Location 0 sends location 1 an asynchronous RMI whose handler runs
/// `wait`.
fn in_a_handler(wait: Body) -> String {
    let msg = panic_of(move |loc| {
        let (h, _rep) = loc.register(());
        loc.rmi_fence();
        if loc.id() == 0 {
            loc.async_rmi(1, h, move |_: &(), l| wait(l, h));
        }
    });
    assert!(msg.contains("location 1: an RMI handler waits at"), "{msg}");
    msg
}

/// `l1_bad`'s shapes and more: a handler that fences, enters a barrier or
/// a collective, makes a blocking or a remote split-phase call, or polls.
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
        names(&in_a_handler(wait), line);
    }
}

/// `l3_bad`'s two shapes fail, naming both sites; `l3_good`'s symmetric
/// split runs.
#[test]
fn l3_divergent_collective() {
    // Only location 0 reaches the collective; location 1 meets it at
    // `execute`'s closing fence.
    let line = line!() + 3;
    let msg = panic_of(|loc| {
        if loc.id() == 0 {
            loc.allreduce_sum(1);
        }
    });
    assert!(msg.contains("divergent collectives"), "{msg}");
    assert!(msg.contains("`Allreduce`") && msg.contains("`Exit`"), "{msg}");
    names(&msg, line);
    assert!(msg.contains("spmd.rs:"), "the closing fence's site: {msg}");

    // Every location but the last fences.
    let line = line!() + 4;
    let msg = panic_of(|loc| {
        let last = loc.nlocs() - 1;
        if loc.id() != last {
            loc.rmi_fence();
        } else {
            loc.flush_all();
        }
    });
    assert!(msg.contains("`Fence`") && msg.contains("`Exit`"), "{msg}");
    names(&msg, line);
    assert!(msg.contains("spmd.rs:"), "the closing fence's site: {msg}");

    // Both arms reach a broadcast: the kinds agree.
    execute(RtsConfig::default(), 2, |loc| {
        let v = if loc.id() == 0 { loc.broadcast(0, 42u64) } else { loc.broadcast(0, 0u64) };
        assert_eq!(v, 42);
    });
}
