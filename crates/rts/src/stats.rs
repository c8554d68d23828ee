//! Runtime counters used by tests and benchmarks to observe communication
//! behavior (e.g., counting forwarding hops or aggregation effectiveness).
//!
//! A counter is declared **once**, as a row of the [`counters!`] table
//! below: name, doc comment, gate [`Class`], and whether a move of it is
//! a trace instant. The table generates [`Counter`], the public fields of
//! [`StatsSnapshot`], and the slots of the per-location [`CounterBlock`] —
//! the only place counts are stored.
//! Global numbers ([`crate::Location::stats`], the fence's quiescence
//! test) are sums over the blocks taken at read time.

use std::sync::atomic::{AtomicU64, Ordering};

/// Whether the counter sweep (`stapl-bench`'s harness) may gate a counter.
/// An `Exact` counter is deterministic for a seeded scenario, so a gated
/// one must reproduce its baseline exactly; a `Timing` counter depends on
/// thread interleaving or the wall clock and is never gated — the string
/// says why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Deterministic: any move is a change the baselines must record.
    Exact,
    /// Not reproducible run to run, so not gateable.
    Timing(&'static str),
}

/// Declares every counter: `/// doc` then `name: Class, traced;` or
/// `name: Class, untraced;`.
macro_rules! counters {
    (@traced traced) => { true };
    (@traced untraced) => { false };
    ($($(#[$doc:meta])* $name:ident: $class:expr, $trace:ident;)*) => {
        /// One runtime counter; variants are spelled like the
        /// [`StatsSnapshot`] field they index.
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[$doc])* $name,)*
        }

        impl Counter {
            /// Every counter, in declaration order (the order
            /// [`StatsSnapshot::counters`] lists and the benchmark JSON
            /// schema uses).
            pub const ALL: &'static [Counter] = &[$(Counter::$name),*];
            const NAMES: &'static [&'static str] = &[$(stringify!($name)),*];

            /// The counter's gate class.
            pub fn class(self) -> Class {
                use Class::*;
                match self {
                    $(Counter::$name => $class,)*
                }
            }

            /// Whether a move of this counter is also a trace instant
            /// ([`crate::Location::count`]).
            #[inline]
            pub const fn traced(self) -> bool {
                match self {
                    $(Counter::$name => counters!(@traced $trace),)*
                }
            }
        }

        /// A point-in-time copy of the runtime counters: one location's
        /// ([`crate::Location::local_stats`]) or the sum over all
        /// locations of one execution ([`crate::Location::stats`]).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl StatsSnapshot {
            /// The value of counter `c`.
            pub fn get(&self, c: Counter) -> u64 {
                match c {
                    $(Counter::$name => self.$name,)*
                }
            }

            fn from_fn(f: impl Fn(Counter) -> u64) -> StatsSnapshot {
                StatsSnapshot { $($name: f(Counter::$name),)* }
            }
        }
    };
}

counters! {
    /// RMI requests executed on the location that issued them (fast path).
    local_invocations: Exact, untraced;
    /// RMI requests shipped to another location. Bumped *before* the
    /// request becomes visible (even while it sits in an aggregation
    /// buffer), so the sum over locations is the fence's `sent` count.
    remote_requests: Exact, traced;
    /// Delivered requests run to completion here, forwards included. The
    /// fence reads it: at a fence the sum over locations is
    /// `remote_requests`.
    requests_handled: Timing("a request counts where it ran, when its destination polled it in"), traced;
    /// Message batches actually pushed into channels.
    batches_sent: Timing("batch boundaries depend on when the poller drains the buffer"), traced;
    /// Synchronous / split-phase responses sent back.
    responses_sent: Exact, traced;
    /// Number of `rmi_fence` rounds executed (termination-detection loops).
    fence_rounds: Timing("rounds repeat until traffic quiesces; how many is scheduling"), untraced;
    /// PARAGRAPH tasks executed (on any location, home or thief).
    tasks_executed: Exact, untraced;
    /// PARAGRAPH tasks that ran on a location other than their home
    /// because an idle location stole them.
    tasks_stolen: Timing("which tasks get stolen depends on thread timing"), traced;
    /// Steal probes issued by idle executors (successful or not).
    steal_requests: Timing("probe traffic tracks idle time"), traced;
    /// Directory-routed requests sent straight to a cached owner (the
    /// optimistic one-hop path that skips the home location).
    dir_cache_hits: Exact, traced;
    /// Directory-routed requests that had no usable cache entry and paid
    /// the home-location hop (counted only when caching is enabled).
    dir_cache_misses: Exact, traced;
    /// Cached-owner guesses that turned out stale: the element had moved,
    /// and the request self-healed by re-forwarding through its home.
    dir_cache_stale: Exact, traced;
    /// Elements or base containers that left this location by
    /// `dir_migrate` (counted where the payload was extracted).
    migrations: Exact, traced;
    /// Bulk-range RMIs issued: one per (owner, contiguous run) shipped as a
    /// single message by `get_range`/`set_range`/`apply_range`.
    bulk_requests: Exact, traced;
    /// Chunks served by a direct local slice borrow (one `RefCell` borrow
    /// for the whole chunk) — the view-localization fast path.
    localized_chunks: Exact, untraced;
    /// Elements processed one-at-a-time where a chunk path was asked for
    /// but unavailable (a view without a localized override).
    element_fallbacks: Exact, untraced;
    /// Segment RMIs issued by the dynamic-container bulk transport: one
    /// per (owner, base-container segment) shipped as a single message by
    /// `get_segment`/`set_segment` and `merge_segment` (the grouped
    /// MapReduce merge).
    segment_requests: Exact, traced;
    /// Items shipped as payload by the data-collecting operations
    /// (`collect_ordered` gathers): the simulated bytes-on-the-wire proxy
    /// the O(N·P) → O(N) assertions measure.
    gather_items: Exact, traced;
    /// Bytes of the capture images staged for remote requests and
    /// responses: per request, the shallow size of its capture rounded up
    /// to a word — what is actually handed over, a `Vec` inside a capture
    /// counting as its 24-byte handle. Run and record headers and the
    /// reliable layer's seals, acks and retransmissions are *excluded*:
    /// where a run breaks, flush and retry counts are timing-dependent and
    /// this counter must stay deterministic so it can be gated.
    bytes_sent: Exact, untraced;
    /// Requests lost to *injected* damage: fault-injected drops and
    /// corrupt-batch rejections, counted in requests. A pure function of
    /// (fault seed, src, dest, seq); zero on a fault-free fabric.
    frames_dropped: Exact, traced;
    /// Batches re-sent by the reliable layer's retransmit timer.
    retransmits: Timing("the RTO also redrives batches that were merely late, not lost"), traced;
    /// Inbound batches rejected by their checksum before any record ran.
    checksum_failures: Exact, traced;
    /// Standalone ack batches sent by the reliable layer.
    acks_sent: Timing("every duplicate is re-acked, so it inherits the RTO's timing"), traced;
    /// Requests this location sent whose carrying batch the destination
    /// has acknowledged; 0 without the reliable layer. At a fence under
    /// the reliable layer the sum over locations is `remote_requests`.
    requests_acked: Timing("an ack counts when its sender polls it in"), untraced;
    /// Requests of duplicate batches discarded by the receiver's dedup
    /// window: injected dups and redrives that raced the original.
    duplicates_discarded: Timing("counts spurious RTO redrives of merely-late batches"), untraced;
    /// Panics of sync / split-phase handlers, caught where they ran and
    /// sent back as poisoned responses that fail only the issuing future.
    poisoned_responses: Exact, traced;
}

impl Counter {
    /// The counter's name — its [`StatsSnapshot`] field and JSON key.
    pub fn name(self) -> &'static str {
        Counter::NAMES[self as usize]
    }

    /// Looks a counter up by name; `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.iter().copied().find(|c| c.name() == name)
    }
}

/// One location's counters — the only copy. Written solely by the owning
/// thread, so a bump is `store(load + n)` with no read-modify-write and no
/// line shared between writers (the block is aligned past the adjacent-line
/// prefetcher's reach); any thread may read. Owner stores are `Release`
/// and reads `Acquire`, so a reader that observes a count also observes
/// every count the owner — or anyone it synchronized with through a
/// channel or barrier — published before it. The fence's read order in
/// `rmi_fence` leans on exactly that.
#[repr(align(128))]
pub(crate) struct CounterBlock {
    cells: [AtomicU64; Counter::ALL.len()],
}

impl CounterBlock {
    pub(crate) fn new() -> CounterBlock {
        CounterBlock { cells: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    /// Adds `n` to counter `c`. Owning thread only.
    #[inline]
    pub(crate) fn bump(&self, c: Counter, n: u64) {
        let cell = &self.cells[c as usize];
        cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Release);
    }

    pub(crate) fn get(&self, c: Counter) -> u64 {
        self.cells[c as usize].load(Ordering::Acquire)
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::from_fn(|c| self.get(c))
    }
}

impl StatsSnapshot {
    /// Looks a counter up by name; `None` for unknown names.
    pub fn counter(&self, name: &str) -> Option<u64> {
        Counter::from_name(name).map(|c| self.get(c))
    }

    /// All `(name, value)` pairs, in declaration order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL.iter().map(|&c| (c.name(), self.get(c))).collect()
    }

    /// Adds every counter of `other` into `self` (saturating): how
    /// per-location snapshots become the execution-wide one.
    pub fn add(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot::from_fn(|c| self.get(c).saturating_add(other.get(c)))
    }

    /// The per-counter delta against an `earlier` snapshot of the same
    /// execution (saturating, so a reordered pair degrades to zero instead
    /// of wrapping). This is how benchmark scenarios scope counters: take a
    /// snapshot after setup, run the kernel, and subtract — back-to-back
    /// scenarios in one process then cannot cross-contaminate records.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot::from_fn(|c| self.get(c).saturating_sub(earlier.get(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table's projections agree: `Counter::ALL`, the name list,
    /// `from_name`, and the snapshot fields behind `get`/`counter`.
    #[test]
    fn table_projections_agree() {
        let names = Counter::NAMES;
        assert_eq!(names.len(), Counter::ALL.len());
        for (i, (&c, &name)) in Counter::ALL.iter().zip(names).enumerate() {
            assert_eq!(c as usize, i, "{name} out of declaration order");
            assert_eq!(c.name(), name);
            assert_eq!(Counter::from_name(name), Some(c));
            assert_eq!(names.iter().filter(|n| **n == name).count(), 1, "duplicate {name}");
            if let Class::Timing(why) = c.class() {
                assert!(!why.is_empty(), "{name}: a Timing counter must say why");
            }
        }
        assert_eq!(Counter::from_name("no_such_counter"), None);
        // A distinct value per counter, so a swapped pair cannot pass.
        let snap = StatsSnapshot::from_fn(|c| c as u64 * 3 + 1);
        assert_eq!(snap.counter("no_such_counter"), None);
        for (i, (&c, (name, v))) in Counter::ALL.iter().zip(snap.counters()).enumerate() {
            assert_eq!((name, v), (c.name(), i as u64 * 3 + 1));
            assert_eq!(snap.get(c), v);
            assert_eq!(snap.counter(name), Some(v));
        }
    }

    #[test]
    fn block_snapshot_reads_what_the_owner_bumped() {
        let block = CounterBlock::new();
        block.bump(Counter::gather_items, 4);
        block.bump(Counter::gather_items, 5);
        let expect = StatsSnapshot { gather_items: 9, ..Default::default() };
        assert_eq!(block.snapshot(), expect);
        assert_eq!(std::mem::align_of::<CounterBlock>(), 128);
    }

    #[test]
    fn since_subtracts_and_saturates() {
        let before = StatsSnapshot { remote_requests: 10, batches_sent: 4, ..Default::default() };
        let after = StatsSnapshot { remote_requests: 25, batches_sent: 3, ..Default::default() };
        let d = after.since(&before);
        assert_eq!(d.remote_requests, 15);
        assert_eq!(d.batches_sent, 0, "must saturate, not wrap");
        assert_eq!(d.local_invocations, 0);
        assert_eq!(after.since(&StatsSnapshot::default()), after);
    }
}
