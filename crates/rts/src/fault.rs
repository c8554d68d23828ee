//! Deterministic fault injection for the message fabric.
//!
//! A [`FaultInjector`] taps every batch an endpoint sends under the
//! reliable layer and, driven by a seeded [`FaultSchedule`], drops,
//! duplicates, reorders, corrupts, and delays it — the failure modes a
//! process-crossing socket backend will actually exhibit. The reliable
//! layer in [`crate::transport`] must mask all of them; the chaos soak
//! (`crates/bench/tests/chaos_soak.rs`) and the fault-profile property
//! tests prove that it does. An active schedule switches the layer on by itself.
//!
//! ## Schedule grammar
//!
//! A schedule is a comma-separated list of `key:value` terms, e.g.
//! `STAPL_FAULTS=drop:0.01,dup:0.005,reorder:0.02,corrupt:0.001,delay_us:50`:
//!
//! | key        | value            | meaning                                   |
//! |------------|------------------|-------------------------------------------|
//! | `drop`     | rate in `[0, 1]` | batch vanishes                            |
//! | `dup`      | rate in `[0, 1]` | batch is delivered twice                  |
//! | `reorder`  | rate in `[0, 1]` | batch is held and released *after* the next batch to the same destination |
//! | `corrupt`  | rate in `[0, 1]` | one seeded bit of the batch's records is flipped |
//! | `delay_us` | microseconds     | every data batch's send is delayed        |
//!
//! The rates are **exclusive**: a single uniform draw per batch picks at
//! most one fault, so their sum must stay `<= 1`.
//!
//! ## Determinism and liveness
//!
//! Every decision hashes `(seed, src, dest, seq)` — no RNG state, no
//! draw-order dependence — so a fixed seed and a deterministic workload
//! fault exactly the same batches on every run, which is what lets the
//! chaos bench area gate its reliability counters exactly. Two classes
//! of traffic always pass through unfaulted: **retransmissions** (the
//! recovery path must be live, and faulting it would make recovery time
//! unbounded) and **standalone acks** (which carry no data and are
//! themselves recovered by retransmission of whatever they acknowledge). A
//! batch held for reordering is released by the next send to the same
//! destination — including that batch's own retransmission, so a held
//! tail batch cannot be stuck forever.

use std::cell::{Cell, RefCell};
use std::time::Duration;

use crossbeam::channel::Sender;

use crate::transport::Batch;

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer used for
/// all fault decisions and retransmit jitter.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a hash to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded schedule of injected fabric faults. Inactive (all zeros) by
/// default; parsed from the `STAPL_FAULTS` grammar (see module docs) or
/// built directly for tests and benches.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    /// Probability a first-transmission data batch is dropped.
    pub drop: f64,
    /// Probability it is delivered twice.
    pub dup: f64,
    /// Probability it is held and released after the next batch to the
    /// same destination.
    pub reorder: f64,
    /// Probability one bit of it is flipped.
    pub corrupt: f64,
    /// Fixed delay applied to every data-batch send, in microseconds.
    pub delay_us: u64,
}

impl FaultSchedule {
    /// True when any fault is configured (the injector is only built for
    /// active schedules).
    pub fn active(&self) -> bool {
        self.drop > 0.0
            || self.dup > 0.0
            || self.reorder > 0.0
            || self.corrupt > 0.0
            || self.delay_us > 0
    }

    /// Parses the `drop:0.01,dup:0.005,reorder:0.02,corrupt:0.001,delay_us:50`
    /// grammar. The empty string parses to the inactive schedule.
    pub fn parse(s: &str) -> Result<FaultSchedule, String> {
        let mut sched = FaultSchedule::default();
        for term in s.split(',') {
            let term = term.trim();
            if term.is_empty() {
                continue;
            }
            let (key, value) = term
                .split_once(':')
                .ok_or_else(|| format!("fault term `{term}` is not key:value"))?;
            let (key, value) = (key.trim(), value.trim());
            let rate = |slot: &mut f64| -> Result<(), String> {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("fault rate `{value}` for `{key}` is not a number"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("fault rate `{value}` for `{key}` is outside [0, 1]"));
                }
                *slot = v;
                Ok(())
            };
            match key {
                "drop" => rate(&mut sched.drop)?,
                "dup" => rate(&mut sched.dup)?,
                "reorder" => rate(&mut sched.reorder)?,
                "corrupt" => rate(&mut sched.corrupt)?,
                "delay_us" => {
                    sched.delay_us = value
                        .parse()
                        .map_err(|_| format!("delay_us `{value}` is not an integer"))?;
                }
                _ => return Err(format!("unknown fault key `{key}`")),
            }
        }
        let mass = sched.drop + sched.dup + sched.reorder + sched.corrupt;
        if mass > 1.0 {
            return Err(format!(
                "fault rates sum to {mass} > 1 (the rates are exclusive draws)"
            ));
        }
        Ok(sched)
    }
}

/// The fault injector of one endpoint: every outbound batch goes through
/// [`FaultInjector::route`], which applies the schedule and forwards the
/// survivors into the real channels. Everything it handles is a sealed raw
/// image (see [`crate::transport`]), so dropping or copying one is free of
/// ownership consequences.
pub(crate) struct FaultInjector {
    real: Vec<Sender<Batch>>,
    pub(crate) sched: FaultSchedule,
    seed: u64,
    /// At most one reorder-held batch per destination, released by the
    /// next send to that destination.
    held: RefCell<Vec<Option<Batch>>>,
    dropped: Cell<u64>,
}

impl FaultInjector {
    pub(crate) fn new(real: Vec<Sender<Batch>>, sched: FaultSchedule, seed: u64) -> Self {
        let held = RefCell::new((0..real.len()).map(|_| None).collect());
        FaultInjector { real, sched, seed, held, dropped: Cell::new(0) }
    }

    /// Requests dropped by the schedule since the last call.
    pub(crate) fn take_dropped(&self) -> u64 {
        self.dropped.take()
    }

    /// Forwards to the real channel; send errors mean the peer is mid-
    /// abort (the poisoned-barrier path reports that).
    fn forward(&self, batch: Batch) {
        let _ = self.real[batch.dest].send(batch);
    }

    /// Forwards `batch` and then releases any reorder-held batch to the
    /// same destination (it now arrives out of order — the whole point).
    fn forward_then_release(&self, batch: Batch) {
        let dest = batch.dest;
        self.forward(batch);
        if let Some(old) = self.held.borrow_mut()[dest].take() {
            self.forward(old);
        }
    }

    pub(crate) fn route(&self, mut batch: Batch) {
        // Retransmissions and standalone acks pass through so recovery
        // stays live and deterministic.
        if batch.is_recovery_traffic() {
            return self.forward_then_release(batch);
        }
        // One seeded draw per batch picks at most one fault; hashing
        // (seed, src, dest, seq) keeps the decision independent of
        // arrival order and of wall-clock time.
        let h = mix64(
            self.seed ^ mix64((batch.src as u64) << 32 | batch.dest as u64) ^ mix64(batch.seq()),
        );
        let u = unit(h);
        let s = &self.sched;
        if u < s.drop {
            self.dropped.set(self.dropped.get() + batch.records.len() as u64);
        } else if u < s.drop + s.dup {
            self.forward(batch.image());
            self.forward_then_release(batch);
        } else if u < s.drop + s.dup + s.reorder {
            // Hold; the next send to this destination releases it after
            // itself. If something was already held, release that first
            // so at most one batch per destination is in flight here.
            let dest = batch.dest;
            let prev = self.held.borrow_mut()[dest].replace(batch);
            if let Some(prev) = prev {
                self.forward(prev);
            }
        } else {
            if u < s.drop + s.dup + s.reorder + s.corrupt {
                // Flip one seeded bit anywhere in the records; the batch's
                // checksum makes the receiver reject it whole, un-run.
                batch.flip_bit(mix64(h));
            }
            self.forward_then_release(batch);
        }
    }
}

/// The runtime's one timed delay: spins until the location's clock `now`
/// has advanced by `d`.
pub(crate) fn busy_wait(now: impl Fn() -> Duration, d: Duration) {
    let end = now() + d;
    while now() < end {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_by_default() {
        assert!(!FaultSchedule::default().active());
        assert_eq!(FaultSchedule::parse("").unwrap(), FaultSchedule::default());
    }

    #[test]
    fn parses_the_full_grammar() {
        let s = FaultSchedule::parse("drop:0.01,dup:0.005,reorder:0.02,corrupt:0.001,delay_us:50")
            .unwrap();
        assert_eq!(
            s,
            FaultSchedule { drop: 0.01, dup: 0.005, reorder: 0.02, corrupt: 0.001, delay_us: 50 }
        );
        assert!(s.active());
        // Whitespace and partial schedules are fine.
        let s = FaultSchedule::parse(" drop : 0.5 ").unwrap();
        assert_eq!(s.drop, 0.5);
        assert_eq!(s.delay_us, 0);
    }

    #[test]
    fn rejects_malformed_schedules() {
        assert!(FaultSchedule::parse("drop").is_err());
        assert!(FaultSchedule::parse("drop:nope").is_err());
        assert!(FaultSchedule::parse("drop:1.5").is_err());
        assert!(FaultSchedule::parse("jitter:0.5").is_err());
        assert!(FaultSchedule::parse("delay_us:-3").is_err());
        // Exclusive draws: combined probability mass must stay <= 1.
        assert!(FaultSchedule::parse("drop:0.6,corrupt:0.6").is_err());
    }

    #[test]
    fn decisions_are_seed_deterministic_and_uniform() {
        let a = mix64(42);
        assert_eq!(a, mix64(42), "mixing is a pure function");
        assert_ne!(mix64(42), mix64(43));
        // unit() lands in [0, 1) and is roughly uniform.
        let mut below_half = 0;
        for i in 0..1000u64 {
            let u = unit(mix64(i));
            assert!((0.0..1.0).contains(&u));
            if u < 0.5 {
                below_half += 1;
            }
        }
        assert!((350..=650).contains(&below_half), "draws badly skewed: {below_half}");
    }
}
