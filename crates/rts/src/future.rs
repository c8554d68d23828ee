//! Split-phase futures (the paper's `pc_future`).
//!
//! A split-phase method returns immediately with an [`RmiFuture`]; calling
//! [`RmiFuture::get`] blocks until the response arrives, servicing incoming
//! requests while waiting. This mirrors the paper's completion guarantee:
//! the acknowledgment of a split-phase method is received no later than the
//! `get()` on its future (or the next fence).
//!
//! Two failure modes degrade gracefully instead of hanging or aborting the
//! whole execution (see [`RmiError`]):
//!
//! * with [`crate::RtsConfig::rmi_timeout_us`] set, a wait gives up after
//!   the deadline with a diagnostic naming the peer, the handler's type,
//!   the elapsed time, and how many retransmissions the fabric has
//!   attempted — instead of spinning forever on a dead peer;
//! * a sync / split-phase handler that panics sends back a **poisoned
//!   response** that fails only the issuing future, carrying the handler
//!   name and panic message.

use std::time::Duration;

use crate::location::Location;
use crate::trace::SpanKind;

/// Marker value a poisoned response delivers into a reply slot: the
/// remote handler panicked, so the slot will never hold a real `R`.
pub(crate) struct PoisonedResponse {
    pub handler: &'static str,
    pub message: String,
}

/// Why a split-phase or sync RMI wait failed. [`RmiFuture::try_get`]
/// returns this; [`RmiFuture::get`] panics with its `Display` form.
#[derive(Debug)]
pub enum RmiError {
    /// The response did not arrive within
    /// [`crate::RtsConfig::rmi_timeout_us`].
    Timeout {
        /// Destination location of the request (`usize::MAX` when the
        /// reply slot was issued without a concrete peer).
        peer: usize,
        /// Type name of the handler the request targets.
        handler: &'static str,
        /// How long the wait spun before giving up.
        elapsed: Duration,
        /// Batches the waiting location itself had redriven by expiry (a
        /// rising number means the fabric is lossy but alive; zero on a
        /// lossless fabric means the peer never replied).
        retransmits: u64,
    },
    /// The remote handler panicked; the panic was caught where it ran and
    /// this future poisoned instead of aborting the execution.
    HandlerPanicked {
        /// Type name of the handler that panicked.
        handler: &'static str,
        /// The panic payload's message, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for RmiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RmiError::Timeout { peer, handler, elapsed, retransmits } => {
                write!(f, "RMI wait timed out after {elapsed:?} (peer ")?;
                if *peer == usize::MAX {
                    write!(f, "unknown")?;
                } else {
                    write!(f, "location {peer}")?;
                }
                write!(
                    f,
                    ", handler `{handler}`, {retransmits} retransmissions attempted — \
                     peer dead, or fabric dropping frames faster than recovery?)"
                )
            }
            RmiError::HandlerPanicked { handler, message } => {
                write!(f, "remote handler `{handler}` panicked: {message}")
            }
        }
    }
}

impl std::error::Error for RmiError {}

enum FutureInner<R> {
    Ready(R),
    Pending(PendingReply),
}

/// The waiting half of a reply slot of `loc` (see `ReplySlots`): dropping it
/// un-awaited — a timeout, or a future nobody calls `get` on — hands the
/// slot back, at once or when the late reply lands.
struct PendingReply {
    loc: Location,
    slot: u64,
}

impl Drop for PendingReply {
    fn drop(&mut self) {
        self.loc.release_slot(self.slot);
    }
}

/// Handle to the eventual result of a split-phase RMI: the value itself
/// when the method ran locally, else the address of a reply slot.
pub struct RmiFuture<R> {
    inner: FutureInner<R>,
}

impl<R: 'static> RmiFuture<R> {
    /// A future that is already complete — the local fast path of
    /// split-phase methods (no reply slot, no polling).
    #[inline]
    pub fn ready(r: R) -> Self {
        RmiFuture { inner: FutureInner::Ready(r) }
    }

    #[inline]
    pub(crate) fn pending(loc: Location, slot: u64) -> Self {
        RmiFuture { inner: FutureInner::Pending(PendingReply { loc, slot }) }
    }

    /// True when the value is already available and `get` will not block.
    /// Takes one pass of the wait loop, so readiness is fresh, a pass that
    /// runs nothing sends the staged window of split-phase requests, and a
    /// caller spinning on it learns of a panicked peer as `get` would.
    #[track_caller]
    pub fn is_ready(&self) -> bool {
        match &self.inner {
            FutureInner::Ready(_) => true,
            FutureInner::Pending(p) => {
                let mut passed = false;
                p.loc.wait_until(|| std::mem::replace(&mut passed, true));
                p.loc.slot_filled(p.slot)
            }
        }
    }

    /// Blocks until the value arrives, servicing incoming requests while
    /// waiting, and returns it — or fails with [`RmiError`] on timeout
    /// (when [`crate::RtsConfig::rmi_timeout_us`] is set) or when the
    /// remote handler panicked.
    #[inline]
    #[track_caller]
    pub fn try_get(self) -> Result<R, RmiError> {
        match self.inner {
            FutureInner::Ready(r) => Ok(r),
            FutureInner::Pending(p) => p.wait(),
        }
    }

    /// Blocks until the value arrives, servicing incoming requests while
    /// waiting, and returns it. Panics with the [`RmiError`] diagnostic on
    /// timeout or a poisoned response; use [`RmiFuture::try_get`] to
    /// handle those gracefully.
    #[inline]
    #[track_caller]
    pub fn get(self) -> R {
        match self.inner {
            FutureInner::Ready(r) => r,
            FutureInner::Pending(p) => p.wait().unwrap_or_else(|e| panic!("stapl-rts: {e}")),
        }
    }
}

impl PendingReply {
    /// The wait, out of line: [`Location::wait_until`] the slot is filled
    /// or the `rmi_timeout_us` deadline passes. What it reports — the span
    /// kind, the issue time, the peer and handler of a timeout — it reads
    /// from the slot.
    #[inline(never)]
    #[track_caller]
    fn wait<R: 'static>(self) -> Result<R, RmiError> {
        let (loc, slot) = (&self.loc, self.slot);
        let (wait_kind, issued_ns, peer, handler) = loc.slot_diagnostics(slot);
        let t0 = if wait_kind == SpanKind::SyncRmi { issued_ns } else { loc.trace_clock() };
        let timeout_us = loc.config().rmi_timeout_us;
        let deadline = (timeout_us > 0).then(|| (loc.now(), Duration::from_micros(timeout_us)));
        let mut taken = None;
        loc.wait_until(|| {
            taken = loc.try_take_slot(slot);
            taken.is_some() || deadline.is_some_and(|(start, limit)| loc.now() - start >= limit)
        });
        let Some(v) = taken else {
            let (start, _) = deadline.expect("a wait ends without its value only at its deadline");
            let retransmits = loc.local_stats().retransmits;
            return Err(RmiError::Timeout { peer, handler, elapsed: loc.now() - start, retransmits });
        };
        loc.trace_span_end(wait_kind, t0, 0);
        match v.downcast::<R>() {
            Ok(v) => Ok(*v),
            Err(v) => match v.downcast::<PoisonedResponse>() {
                Ok(p) => Err(RmiError::HandlerPanicked { handler: p.handler, message: p.message }),
                Err(_) => panic!(
                    "stapl-rts: location {}: future slot {slot} (handler `{handler}`) filled \
                     with a value of the wrong type — expected `{}`",
                    loc.id(),
                    std::any::type_name::<R>()
                ),
            },
        }
    }
}
