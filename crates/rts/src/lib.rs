//! # stapl-rts — an ARMI-style runtime system
//!
//! This crate reproduces the STAPL runtime system (RTS) described in
//! Chapter III.B of *The STAPL Parallel Container Framework*: locations,
//! remote method invocations (RMIs), fences, and collective operations.
//!
//! The paper's RTS runs over MPI/pthreads on distributed-memory machines.
//! Here the distributed machine is simulated inside one process:
//!
//! * a **location** is an OS thread with a *private address space by
//!   convention* — location 0 is the thread that calls [`execute`], which
//!   wakes P−1 parked location threads for the others (starting none after
//!   the first call); no object data is shared between locations; every
//!   cross-location interaction is a message through a channel,
//! * an **RMI** is a closure relocated into the batch buffer bound for the
//!   owning location (see `transport`), where it looks up the target
//!   *p_object* representative in a per-location registry and executes
//!   against it,
//! * requests between a fixed (source, destination) pair are executed in
//!   **invocation order** (the paper's point-to-point FIFO guarantee),
//! * **`rmi_fence`** performs global termination detection over
//!   (sent, handled) counters, so arbitrarily deep *method forwarding*
//!   chains are drained before the fence completes, and
//! * **aggregation** packs multiple requests to the same destination into a
//!   single message (the paper's bandwidth optimization).
//!
//! Every blocking wait in this crate (sync RMI, [`RmiFuture::get`],
//! [`Location::barrier`], [`Location::rmi_fence`]) *polls and executes*
//! incoming requests while waiting, which is what makes the classic
//! "two locations sync-RMI each other" pattern deadlock-free.
//!
//! ## Quick example
//!
//! ```
//! use stapl_rts::{execute, RtsConfig};
//! use std::cell::RefCell;
//!
//! // One counter per location; location 0 asks everyone to increment the
//! // counter of location 1, then reads it back synchronously.
//! execute(RtsConfig::default(), 4, |loc| {
//!     let (h, _rep) = loc.register_cell(0u64);
//!     loc.rmi_fence(); // registration is collective
//!     loc.async_rmi(1, h, |c: &RefCell<u64>, _| *c.borrow_mut() += 1);
//!     loc.rmi_fence();
//!     if loc.id() == 0 {
//!         let v = loc.sync_rmi(1, h, |c: &RefCell<u64>, _| *c.borrow());
//!         assert_eq!(v, 4);
//!     }
//! });
//! ```

mod barrier;
mod collective;
mod config;
mod fault;
mod future;
mod location;
mod spmd;
mod stats;
mod trace;
mod transport;

pub use config::RtsConfig;
pub use fault::FaultSchedule;
pub use future::{RmiError, RmiFuture};
pub use location::{Handle, LocId, Location, ReplyToken};
pub use spmd::{execute, execute_collect, execute_collect_traced};
pub use stats::{Class, Counter, StatsSnapshot};
pub use trace::{chrome_json, LatencyHistogram, LocationTrace, RunTrace, SpanKind, TraceEvent};
