//! The location threads of `execute`: locations 1.. run on threads parked in
//! one process-wide pool between calls. A call takes as many as it has
//! peers, starts a thread only when none is parked, and puts its threads
//! back once every location has reported; so a thread serves one location
//! of one call at a time and keeps its thread-locals from one call to the
//! next, as the calling thread (location 0) does.
//!
//! The pool is the process's, and the test harness runs a binary's tests
//! concurrently: each test here holds `SERIAL`, so no other test of this
//! binary takes a parked thread from under it. The concurrent-caller test
//! makes its own concurrency.

use std::cell::Cell;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};

use stapl_rts::{execute, execute_collect, RtsConfig};

static SERIAL: Mutex<()> = Mutex::new(());

/// This binary's pool to itself (a failed test does not stop the others).
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The threads that ran each location of one `execute(nlocs)`.
fn threads(nlocs: usize) -> Vec<ThreadId> {
    execute_collect(RtsConfig::default(), nlocs, |_| thread::current().id())
}

/// The peers' threads: every location's but location 0's.
fn peers(ids: &[ThreadId]) -> HashSet<ThreadId> {
    ids[1..].iter().copied().collect()
}

/// A panic payload's message.
fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast_ref::<&str>().map_or("<non-string panic payload>", |s| s).to_string(),
    }
}

/// Location 0 is the calling thread, at P=1 too, and its thread-locals
/// count its runs, not its peers'.
#[test]
fn location_0_is_the_calling_thread_and_keeps_its_thread_locals() {
    thread_local!(static RUNS: Cell<u32> = const { Cell::new(0) });
    let _pool = serial();
    let me = thread::current().id();
    let run = |nlocs| {
        execute_collect(RtsConfig::default(), nlocs, |_| {
            RUNS.with(|n| n.set(n.get() + 1));
            thread::current().id()
        })
    };
    assert_eq!(run(1), vec![me]);
    let ids = run(3);
    assert!(ids[0] == me && ids[1] != me && ids[2] != me && ids[1] != ids[2], "caller {me:?}, locations {ids:?}");
    assert_eq!(RUNS.with(Cell::get), 2, "location 0's runs, not its peers'");
}

/// Consecutive calls from one thread run their peers on the same threads:
/// after the first call, `execute` starts none.
#[test]
fn consecutive_calls_run_their_peers_on_the_same_threads() {
    let _pool = serial();
    let first = threads(3);
    for call in 1..20 {
        let again = threads(3);
        assert_eq!(again[0], first[0], "location 0 is the caller");
        assert_eq!(peers(&again), peers(&first), "call {call} ran its peers on other threads");
    }
}

/// Each location of a call has a thread of its own, the caller's for
/// location 0 only, whether the pool had enough parked threads or started
/// some.
#[test]
fn no_thread_serves_two_locations_of_one_call() {
    let _pool = serial();
    for nlocs in [2, 5, 3, 5, 4] {
        let ids = threads(nlocs);
        let distinct: HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), nlocs, "P={nlocs}: {ids:?}");
        assert_eq!(ids[0], thread::current().id(), "P={nlocs}: location 0 is the caller");
    }
}

/// Two calls in flight at once, from two caller threads, never share a
/// peer's thread. Each call's location 0 holds its call open until the
/// other call has every location running too.
#[test]
fn concurrent_calls_never_share_a_peer_thread() {
    let _pool = serial();
    let both = Barrier::new(2);
    for round in 0..20 {
        let call = || {
            execute_collect(RtsConfig::default(), 3, |loc| {
                let me = thread::current().id();
                loc.barrier();
                if loc.id() == 0 {
                    both.wait();
                }
                me
            })
        };
        let (a, b) = thread::scope(|s| {
            let a = s.spawn(call);
            let b = s.spawn(call);
            (a.join().expect("caller a"), b.join().expect("caller b"))
        });
        let (a, b) = (a.into_iter().collect::<HashSet<_>>(), b.into_iter().collect::<HashSet<_>>());
        assert!(a.is_disjoint(&b), "round {round}: two calls in flight shared a thread: {a:?} and {b:?}");
    }
}

/// A peer whose location panicked leaves its thread to the pool: the next
/// call runs on the same threads and succeeds, and the failed call
/// re-raised that panic, not a peer's report of it.
#[test]
fn a_peer_that_panicked_leaves_its_thread_reusable() {
    let _pool = serial();
    let ran = Mutex::new(Vec::new());
    let err = catch_unwind(AssertUnwindSafe(|| {
        execute(RtsConfig::default(), 3, |loc| {
            ran.lock().unwrap().push((loc.id(), thread::current().id()));
            if loc.id() == 1 {
                panic!("location 1 panics first");
            }
            // Location 2's barrier aborts, naming location 1's panic.
            loc.barrier();
        })
    }))
    .expect_err("location 1's panic propagates");
    assert_eq!(message(err), "location 1 panics first");
    let failed: HashSet<_> = ran.into_inner().unwrap().into_iter().filter(|&(id, _)| id > 0).map(|(_, t)| t).collect();
    let again = threads(3);
    assert_eq!(peers(&again), failed, "the next call runs on the failed call's threads");
}

/// A peer's thread-locals persist from one call to the next, as location
/// 0's do.
#[test]
fn a_peers_thread_locals_persist_from_one_call_to_the_next() {
    thread_local!(static RUNS: Cell<u32> = const { Cell::new(0) });
    let _pool = serial();
    let run = || execute_collect(RtsConfig::default(), 2, |_| RUNS.with(|n| n.replace(n.get() + 1)));
    let before = run();
    assert_eq!(run(), vec![before[0] + 1, before[1] + 1], "each location's thread counts its runs");
}
