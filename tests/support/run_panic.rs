//! The panic an SPMD run re-raises, for the RMI-discipline tests. A test
//! binary includes this file as a module by `#[path]`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use stapl_rts::{execute, Location, RtsConfig};

/// The message `execute` re-raises when `body` runs on `nlocs` locations;
/// fails if the run finishes without a panic or has not finished within a
/// second. The run's thread is detached, not joined: a run that hangs must
/// fail the test, not hang it.
pub fn panic_of(nlocs: usize, body: impl Fn(&Location) + Send + Sync + 'static) -> String {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let run = catch_unwind(AssertUnwindSafe(|| execute(RtsConfig::default(), nlocs, &body)));
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

/// Asserts that `msg` names line `line` of `file`.
pub fn names(msg: &str, file: &str, line: u32) {
    assert!(msg.contains(&format!("{file}:{line}:")), "the panic must name {file}:{line}: {msg}");
}
