//! The one wait loop and the one rendezvous (`Location::wait_until`,
//! `PollBarrier::rendezvous`): every wait, even a single `is_ready` probe,
//! learns of a panicked peer; and what a collective's rendezvous publishes
//! is gone before the next collective starts.

use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stapl_rts::{execute, RtsConfig};

/// A caller that polls `is_ready` in its own loop, instead of calling `get`,
/// is told of a dead peer too, rather than spinning forever.
#[test]
#[should_panic(expected = "peer location panicked")]
fn is_ready_reports_a_panicked_peer() {
    execute(RtsConfig::default(), 2, |loc| {
        if loc.id() == 1 {
            panic!("location 1 dies without replying");
        }
        // A reply only location 1 could have sent.
        let (_token, fut) = loc.make_reply_slot::<u64>();
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            assert!(!fut.is_ready(), "nobody replied");
        }
        panic!("is_ready spun for 10 s without noticing that location 1 is gone");
    });
}

/// A collective payload that counts its live copies.
struct Payload {
    v: u64,
    live: Arc<AtomicIsize>,
}

impl Payload {
    fn new(v: u64, live: &Arc<AtomicIsize>) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        Payload { v, live: live.clone() }
    }
}

impl Clone for Payload {
    fn clone(&self) -> Self {
        Payload::new(self.v, &self.live)
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Once every location has dropped the copy a collective returned to it,
/// no copy is left anywhere — the rendezvous's own is gone too — and that
/// holds before any location starts the next collective: a result kept
/// until the next collective overwrites it would double `peak_rss_mb` for
/// a large `allgather`.
#[test]
fn a_collective_result_does_not_outlive_the_collective() {
    for p in [1usize, 3] {
        let live = Arc::new(AtomicIsize::new(0));
        let dropped = AtomicUsize::new(0);
        execute(RtsConfig::default(), p, |loc| {
            // Waits, outside the runtime, for every location to drop its
            // copy of collective `k`, then counts what is left.
            let settled = |k: usize| {
                dropped.fetch_add(1, Ordering::SeqCst);
                while dropped.load(Ordering::SeqCst) < p * (k + 1) {
                    std::thread::yield_now();
                }
                assert_eq!(live.load(Ordering::SeqCst), 0, "P={p}: collective {k} left a copy behind");
                loc.barrier();
            };
            let me = loc.id() as u64;
            for round in 0..10 {
                let sum = loc.allreduce(Payload::new(me, &live), |a, b| Payload::new(a.v + b.v, &a.live));
                assert_eq!(sum.v, (0..p as u64).sum::<u64>());
                drop(sum);
                settled(2 * round);
                let all = loc.allgather(Payload::new(me, &live));
                assert_eq!(all.iter().map(|x| x.v).collect::<Vec<_>>(), (0..p as u64).collect::<Vec<_>>());
                drop(all);
                settled(2 * round + 1);
            }
        });
    }
}
