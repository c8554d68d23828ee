//! The rendezvous behind every barrier, fence round and collective: the
//! last location to arrive runs a closure before it releases the others,
//! and every location returns that closure's value. Waiting is the
//! caller's (`Location::wait_until`, which services incoming RMI requests),
//! so a location can never be blocked at a barrier while a peer waits on a
//! synchronous reply from it. Every location of one generation must arrive
//! for the same [`Kind`] (DESIGN.md "The RMI discipline").

use std::any::Any;
use std::panic::Location;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// What a rendezvous is for; `Exit` is `execute`'s closing fence. Only
/// kinds are compared, so a symmetric split (`broadcast` on both arms of an
/// `if`) still meets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind { Barrier, Fence, Allreduce, Broadcast, Allgather, Scan, Exit }

pub(crate) struct PollBarrier {
    total: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// What the last arriver of the current generation computed, and how
    /// many locations have yet to read it.
    published: Mutex<Option<(Box<dyn Any + Send>, usize)>>,
    /// The generation, kind and call site of the latest generation's first
    /// arriver: an entry of an older generation is no entry.
    first: Mutex<Option<(usize, Kind, &'static Location<'static>)>>,
}

impl PollBarrier {
    pub(crate) fn new(total: usize) -> Self {
        PollBarrier {
            total,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            published: Mutex::new(None),
            first: Mutex::new(None),
        }
    }

    /// Arrives at the barrier. The last arriver runs `last`, publishes its
    /// value and releases the generation; the others `wait` until the
    /// predicate they are handed reads true. Every location returns the
    /// published value, and the last to read it takes it out, so nothing
    /// of it outlives the rendezvous.
    ///
    /// The next generation cannot publish before every location has read
    /// this one's value: its last arriver is, by definition, the last of
    /// them to leave this one.
    #[track_caller]
    pub(crate) fn rendezvous<T: Clone + Send + 'static>(
        &self,
        kind: Kind,
        wait: impl FnOnce(&dyn Fn() -> bool),
        last: impl FnOnce() -> T,
    ) -> T {
        let (site, gen) = (Location::caller(), self.generation.load(Ordering::Acquire));
        let mut first = self.first.lock().unwrap_or_else(PoisonError::into_inner);
        let (_, first_kind, at) = first.filter(|f| f.0 == gen).unwrap_or((gen, kind, site));
        *first = Some((gen, first_kind, at));
        drop(first);
        assert!(
            first_kind == kind,
            "stapl-rts: divergent collectives: `{kind:?}` at {site} meets `{first_kind:?}` at {at} — \
             every location must reach the same barrier, fence or collective"
        );
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            let value: Box<dyn Any + Send> = Box::new(last());
            *self.published.lock().unwrap_or_else(PoisonError::into_inner) = Some((value, self.total));
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            wait(&|| self.generation.load(Ordering::Acquire) != gen);
        }
        self.read()
    }

    /// This location's copy of the published value; the last reader takes
    /// the value itself.
    fn read<T: Clone + 'static>(&self) -> T {
        let mut published = self.published.lock().unwrap_or_else(PoisonError::into_inner);
        let (value, unread) = published.as_mut().expect("a released generation has published its value");
        *unread -= 1;
        let out = if *unread == 0 {
            published.take().and_then(|(value, _)| value.downcast::<T>().ok()).map(|v| *v)
        } else {
            value.downcast_ref::<T>().cloned()
        };
        drop(published);
        out.unwrap_or_else(|| {
            panic!(
                "stapl-rts: a barrier's last arriver published something other than `{}` — \
                 locations disagree on which barrier or collective they are executing",
                std::any::type_name::<T>()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// Waits without a location to poll: these tests run the barrier alone.
    fn busy(released: &dyn Fn() -> bool) {
        while !released() {}
    }

    #[test]
    fn all_threads_pass_each_generation_together() {
        let n = 4;
        let barrier = Arc::new(PollBarrier::new(n));
        let phase = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..n {
                let barrier = barrier.clone();
                let phase = phase.clone();
                s.spawn(move || {
                    for round in 0..50u64 {
                        // Everyone must observe the shared phase of the
                        // current round, never a future one.
                        assert_eq!(phase.load(Ordering::SeqCst) / n as u64, round);
                        phase.fetch_add(1, Ordering::SeqCst);
                        // The last arriver sees every arrival of the round.
                        let seen = barrier.rendezvous(Kind::Barrier, busy, || phase.load(Ordering::SeqCst));
                        assert_eq!(seen, (round + 1) * n as u64);
                    }
                });
            }
        });
        assert_eq!(phase.load(Ordering::SeqCst), 50 * n as u64);
        assert!(barrier.published.lock().unwrap().is_none(), "the last reader took the value");
    }

    #[test]
    fn service_closure_runs_while_waiting() {
        let barrier = Arc::new(PollBarrier::new(2));
        let serviced = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            let b = barrier.clone();
            let sv = serviced.clone();
            s.spawn(move || {
                b.rendezvous(
                    Kind::Barrier,
                    |released| {
                        while !released() {
                            sv.fetch_add(1, Ordering::Relaxed);
                        }
                    },
                    || (),
                );
            });
            // Give the first thread time to spin in the barrier.
            std::thread::sleep(std::time::Duration::from_millis(20));
            barrier.rendezvous(Kind::Barrier, busy, || ());
        });
        assert!(serviced.load(Ordering::Relaxed) > 0);
    }

    #[test]
    #[should_panic(expected = "location 1 dies before the barrier")]
    fn poisoned_barrier_panics_waiters() {
        // Location 0 aborts its wait at the barrier location 1 never reaches.
        crate::execute(crate::RtsConfig::default(), 2, |loc| {
            if loc.id() == 1 {
                panic!("location 1 dies before the barrier");
            }
            loc.barrier();
        });
    }
}
