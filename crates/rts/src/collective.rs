//! Collective operations: broadcast, reductions, scans, all-gather.
//!
//! The paper's ARMI provides collective operations "with the same semantics
//! as the traditional MPI collective operations". Because all locations of
//! the simulated machine live in one process, each location leaves its
//! contribution on a shared board and one rendezvous does the rest: its
//! last arriver folds the board in location order, and every location
//! returns the fold. This is a control-plane shortcut (the paper's RTS
//! similarly implements collectives below the RMI layer) and does not let
//! p_object data bypass the message-passing discipline.

use crate::barrier::Kind;
use crate::location::Location;
use crate::trace::TraceEventKind;

impl Location {
    /// All-reduce: every location contributes `val`; every location receives
    /// the reduction of all contributions under `op` (applied in location
    /// order, so non-commutative `op` still gives a deterministic result).
    ///
    /// **Collective**: must be called by all locations.
    #[track_caller]
    pub fn allreduce<T: Send + Clone + 'static>(&self, val: T, op: impl Fn(T, T) -> T) -> T {
        self.collective(Kind::Allreduce, val, op)
    }

    /// [`Location::allreduce`], its rendezvous of `kind`.
    #[track_caller]
    fn collective<T: Send + Clone + 'static>(&self, kind: Kind, val: T, op: impl Fn(T, T) -> T) -> T {
        self.refuse_to_wait();
        let t0 = self.trace_clock();
        let board = &self.shared().board;
        *board[self.id()].lock().unwrap() = Some(Box::new(val));
        // Every contribution is on the board before the last arriver folds
        // it, and the board is empty again before anyone is released into
        // the next collective.
        let out = self.rendezvous(kind, || {
            let contributions = board.iter().enumerate().map(|(who, slot)| {
                let v = slot.lock().unwrap().take().unwrap_or_else(|| {
                    panic!(
                        "stapl-rts: collective over `{}`: location {who} contributed \
                         nothing — a location skipped the collective call, or two \
                         collectives raced (collectives must be called by all \
                         locations at the same program point)",
                        std::any::type_name::<T>()
                    )
                });
                *v.downcast::<T>().unwrap_or_else(|_| {
                    panic!(
                        "stapl-rts: collective type mismatch: location {who} \
                         contributed a value that is not `{}` — locations disagree \
                         on which collective they are executing",
                        std::any::type_name::<T>()
                    )
                })
            });
            contributions.reduce(op).expect("an execution has at least one location")
        });
        // Every collective funnels through here, so this one span
        // kind covers broadcast / allgather / scans too.
        self.trace_span_end(TraceEventKind::CollectiveSpan, t0, 0);
        out
    }

    /// Broadcast `val` from `root` to every location. Non-root contributions
    /// are ignored.
    ///
    /// **Collective**.
    #[track_caller]
    pub fn broadcast<T>(&self, root: super::LocId, val: T) -> T
    where
        T: Send + Clone + 'static,
    {
        let rooted = (self.id() == root).then_some(val);
        self.collective(Kind::Broadcast, rooted, |a, b| a.or(b)).unwrap_or_else(|| {
            panic!(
                "stapl-rts: broadcast of `{}` from root {root}, but the execution has only \
                 {} locations (roots are 0..nlocs)",
                std::any::type_name::<T>(),
                self.nlocs()
            )
        })
    }

    /// Gathers every location's contribution into a vector indexed by
    /// location id, visible on all locations.
    ///
    /// **Collective**.
    #[track_caller]
    pub fn allgather<T>(&self, val: T) -> Vec<T>
    where
        T: Send + Clone + 'static,
    {
        self.collective(Kind::Allgather, vec![val], |mut a, mut b| {
            a.append(&mut b);
            a
        })
    }

    /// Exclusive prefix scan over location ids: location `i` receives
    /// `op(val_0, ..., val_{i-1})`, and location 0 receives `identity`.
    /// Also returns the global total as the second tuple element.
    ///
    /// **Collective**. Used for, e.g., computing global index offsets.
    #[track_caller]
    pub fn exclusive_scan<T, F>(&self, val: T, identity: T, op: F) -> (T, T)
    where
        T: Send + Clone + 'static,
        F: Fn(T, T) -> T,
    {
        let all = self.collective(Kind::Scan, vec![val], |mut a, mut b| {
            a.append(&mut b);
            a
        });
        let mut acc = identity.clone();
        let mut mine = identity;
        for (i, v) in all.into_iter().enumerate() {
            if i == self.id() {
                mine = acc.clone();
            }
            acc = op(acc, v);
        }
        (mine, acc)
    }

    /// Global sum of `u64` contributions — the most common collective in
    /// the containers (sizes, counters).
    #[track_caller]
    pub fn allreduce_sum(&self, val: u64) -> u64 {
        self.allreduce(val, |a, b| a + b)
    }

    /// Global max — used by the benchmark kernel (Fig. 24 reports the max
    /// time over all locations).
    #[track_caller]
    pub fn allreduce_max_f64(&self, val: f64) -> f64 {
        self.allreduce(val, f64::max)
    }
}
