//! A delivered run looks its handle up once, for all its images. What that
//! must not cost: a request to a dead or mistyped handle still fails with
//! the message `Location::lookup` gives — naming the p_object — wherever
//! in its batch it sits, the runs before it have run, and a handler that
//! unregisters its own handle leaves the rest of its run on the
//! representative they were sent to.
//!
//! On `RtsConfig::base()`: batch contents are asserted, so the environment's
//! aggregation width must not apply.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use stapl_rts::{execute, Location, RmiError, RtsConfig};

fn cfg() -> RtsConfig {
    RtsConfig { aggregation: 64, ..RtsConfig::base() }
}

fn add_one(c: &RefCell<u64>, _: &Location) {
    *c.borrow_mut() += 1;
}

fn poison_of<R: std::fmt::Debug>(outcome: Result<R, RmiError>) -> String {
    match outcome {
        Err(RmiError::HandlerPanicked { message, .. }) => message,
        other => panic!("expected a poisoned future, got {other:?}"),
    }
}

#[test]
fn a_failed_lookup_behind_other_runs_names_the_p_object_and_poisons_only_its_future() {
    execute(cfg(), 2, |loc| {
        let (good, count) = loc.register(RefCell::new(0u64));
        let (dead, _) = loc.register(RefCell::new(String::from("payload")));
        let (narrow, _) = loc.register(RefCell::new(7u32));
        loc.rmi_fence();
        if loc.id() == 1 {
            loc.unregister(dead);
        }
        loc.barrier();
        if loc.id() == 0 {
            // One batch: a run of three on a live handle, then a run on the
            // dead one (the split-phase request flushes both).
            (0..3).for_each(|_| loc.async_rmi(1, good, add_one));
            let msg = poison_of(loc.split_rmi(1, dead, |s: &RefCell<String>, _| s.borrow().len()).try_get());
            assert!(msg.contains("RefCell") && msg.contains("String"), "must name the type: {msg}");
            assert!(msg.contains("unregistered"), "must say what happened: {msg}");
            // And behind a run of two, a request that expects another type.
            (0..2).for_each(|_| loc.async_rmi(1, good, add_one));
            let msg = poison_of(loc.split_rmi(1, narrow, |v: &RefCell<i64>, _| *v.borrow()).try_get());
            assert!(msg.contains("u32") && msg.contains("i64"), "must name both types: {msg}");
        }
        loc.rmi_fence();
        if loc.id() == 1 {
            assert_eq!(*count.borrow(), 5, "the runs around the failed lookups ran");
        }
    });
}

#[test]
fn an_asynchronous_run_on_a_dead_handle_aborts_with_the_p_object_named_and_runs_none_of_it() {
    static BEFORE: AtomicUsize = AtomicUsize::new(0);
    static ON_DEAD: AtomicUsize = AtomicUsize::new(0);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        execute(cfg(), 2, |loc| {
            let (good, _) = loc.register(RefCell::new(0u64));
            let (dead, _) = loc.register(RefCell::new(String::new()));
            loc.rmi_fence();
            // Location 0 is the one to die: `execute` reports the panic of
            // the lowest location that has one.
            if loc.id() == 0 {
                loc.unregister(dead);
            }
            loc.barrier();
            if loc.id() == 1 {
                for _ in 0..2 {
                    loc.async_rmi(0, good, |_: &RefCell<u64>, _| {
                        BEFORE.fetch_add(1, Ordering::SeqCst);
                    });
                }
                for _ in 0..3 {
                    loc.async_rmi(0, dead, |_: &RefCell<String>, _| {
                        ON_DEAD.fetch_add(1, Ordering::SeqCst);
                    });
                }
            }
            loc.rmi_fence();
        })
    }));
    let payload = outcome.expect_err("an asynchronous request to a dead handle aborts the execution");
    let msg = payload.downcast_ref::<String>().expect("a formatted panic message");
    assert!(msg.contains("String") && msg.contains("unregistered"), "{msg}");
    assert_eq!((BEFORE.load(Ordering::SeqCst), ON_DEAD.load(Ordering::SeqCst)), (2, 0));
}

#[test]
fn a_handler_that_unregisters_its_own_handle_leaves_its_run_on_the_representative() {
    execute(cfg(), 2, |loc| {
        let (h, count) = loc.register(RefCell::new(0u64));
        loc.rmi_fence();
        if loc.id() == 0 {
            // One method, one handle: a run of four whose first image takes
            // the registry entry away from under the other three.
            for k in 0..4 {
                loc.async_rmi(1, h, move |c: &RefCell<u64>, l: &Location| {
                    if k == 0 {
                        l.unregister(h);
                    }
                    *c.borrow_mut() += 1;
                });
            }
        }
        loc.rmi_fence();
        if loc.id() == 1 {
            assert_eq!((*count.borrow(), loc.live_p_objects()), (4, 0));
        }
        // The next run finds the entry gone and says so.
        if loc.id() == 0 {
            let msg = poison_of(loc.split_rmi(1, h, |c: &RefCell<u64>, _| *c.borrow()).try_get());
            assert!(msg.contains("unregistered") && msg.contains("RefCell<u64>"), "{msg}");
        }
        loc.rmi_fence();
    });
}
