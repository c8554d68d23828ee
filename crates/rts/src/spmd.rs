//! SPMD execution: run the same closure on every location, as STAPL runs
//! `stapl_main` on every location of the machine, which it starts once: locations 1..
//! run on location threads parked in one process-wide pool between calls, which live
//! as long as the process (as many as the most peers ever served at once).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Thread;

use crossbeam::channel::unbounded;

use crate::barrier::{Kind, PollBarrier};
use crate::config::RtsConfig;
use crate::location::{Location, Shared};
use crate::transport::Batch;
use crate::stats::CounterBlock;
use crate::trace::RunTrace;

/// One location's run for a pooled thread, its lifetime erased (see below).
type Job = Box<dyn FnOnce() + Send>;

/// A pooled location thread and the slot its next job arrives in.
struct Worker {
    thread: Thread,
    slot: Arc<Mutex<Option<Job>>>,
}

/// The location threads no `execute` is using.
static IDLE: Mutex<Vec<Worker>> = Mutex::new(Vec::new());

impl Worker {
    /// Takes `n` parked location threads and spawns those the pool lacks,
    /// before any job is handed out: a failed spawn leaves none in flight.
    fn take(n: usize) -> Vec<Worker> {
        let mut workers = Vec::new();
        if n > 0 {
            let mut idle = IDLE.lock().expect("no lock is held across a panic");
            let keep = idle.len().saturating_sub(n);
            workers = idle.split_off(keep);
        }
        workers.resize_with(n, Worker::spawn);
        workers
    }

    /// A location thread, never joined (a job catches its own panic): it runs jobs, parked in between.
    fn spawn() -> Worker {
        let slot = Arc::new(Mutex::new(None::<Job>));
        let mine = slot.clone();
        let thread = std::thread::spawn(move || loop {
            let job = mine.lock().expect("no lock is held across a panic").take();
            job.map_or_else(std::thread::park, |job| job());
        });
        Worker { thread: thread.thread().clone(), slot }
    }
}

/// Reports its job as ended when dropped, on unwind too: its last use of a borrow.
struct Report<'a> {
    pending: &'a AtomicUsize,
    caller: Thread,
}

impl Drop for Report<'_> {
    fn drop(&mut self) {
        if self.pending.fetch_sub(1, Ordering::Release) == 1 {
            self.caller.unpark();
        }
    }
}

/// The jobs of one `execute`: dropped, on unwind too, it awaits their reports (its Acquire
/// load pairs with each `Report`'s Release, so their outcomes are visible), then pools their threads.
struct Handout<'a> {
    pending: &'a AtomicUsize,
    workers: Vec<Worker>,
}

impl Drop for Handout<'_> {
    fn drop(&mut self) {
        while self.pending.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
        if !self.workers.is_empty() {
            IDLE.lock().expect("no lock is held across a panic").append(&mut self.workers);
        }
    }
}

/// Runs `f` on `nlocs` locations in SPMD fashion and returns each
/// location's result, indexed by location id. Location 0 is the calling
/// thread; `execute` wakes P−1 parked location threads for locations 1..,
/// starting one only when the pool has none parked, so none after the
/// first call (`nlocs = 1` takes no lock, wakes and starts nothing). Each
/// thread's thread-locals, location 0's too, persist from call to call.
///
/// An implicit [`Location::rmi_fence`] runs after `f` returns on every
/// location, so all asynchronous RMIs issued by `f` complete before
/// `execute_collect` returns (the paper's program-exit guarantee).
///
/// If any location panics, the remaining locations abort their waits
/// instead of hanging, naming the first panic, and that panic (the first
/// location's to panic, not a peer's report of it) is propagated.
pub fn execute_collect<R, F>(cfg: RtsConfig, nlocs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Location) -> R + Send + Sync,
{
    execute_collect_traced(cfg, nlocs, f).0
}

/// Like [`execute_collect`], but also returns the run's trace when
/// `RtsConfig::trace` is set (`None` otherwise): one
/// [`crate::trace::LocationTrace`] per location, harvested after the final
/// fence — so every event of the execution, including fence traffic, is in
/// the timeline.
pub fn execute_collect_traced<R, F>(cfg: RtsConfig, nlocs: usize, f: F) -> (Vec<R>, Option<RunTrace>)
where
    R: Send,
    F: Fn(&Location) -> R + Send + Sync,
{
    assert!(nlocs >= 1, "need at least one location");
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..nlocs).map(|_| unbounded::<Batch>()).unzip();
    let shared = Arc::new(Shared {
        nlocs,
        cfg,
        senders,
        counters: (0..nlocs).map(|_| Arc::new(CounterBlock::new())).collect(),
        barrier: PollBarrier::new(nlocs),
        poisoned: OnceLock::new(),
        retired: Mutex::default(),
        board: (0..nlocs).map(|_| Mutex::default()).collect(),
        epoch: std::time::Instant::now(),
    });
    let run = |id, rx| {
        let loc = Location::new(id, shared.clone(), rx);
        // A panic poisons the execution, so peers waiting at barriers or
        // futures abort instead of hanging.
        catch_unwind(AssertUnwindSafe(|| {
            let r = f(&loc);
            loc.fence(Kind::Exit);
            // Post-fence the execution is globally quiescent, so the buffer
            // already holds every event this location will ever record.
            (r, loc.take_trace())
        }))
        .map_err(|payload| {
            loc.mark_panicked(&*payload);
            payload
        })
    };
    // Locations 1.. report their outcomes here, each to its slot.
    let theirs: Vec<Mutex<Option<_>>> = (1..nlocs).map(|_| Mutex::new(None)).collect();
    let pending = AtomicUsize::new(nlocs - 1);
    let handout = Handout { pending: &pending, workers: Worker::take(nlocs - 1) };
    let mut receivers = receivers.into_iter();
    let rx0 = receivers.next().expect("location 0's channel");
    for (((id, rx), slot), worker) in (1..).zip(receivers).zip(&theirs).zip(&handout.workers) {
        let report = Report { pending: &pending, caller: std::thread::current() };
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let _report = report;
            // What escapes `run` (a representative's drop) `execute` re-raises.
            let outcome = catch_unwind(AssertUnwindSafe(|| run(id, rx))).unwrap_or_else(Err);
            *slot.lock().expect("only this job locks it") = Some(outcome);
        });
        // SAFETY: the job borrows `run` (so `f` and `shared`), its slot in
        // `theirs` and `pending`, which all outlive `handout`, whose drop, on
        // return and on unwind alike, waits until every job has reported. A
        // job reports from a drop guard, by a panic too, as its last use of
        // a borrow. So `execute` neither returns nor unwinds while a job may
        // use what it borrows: the invariant `std::thread::scope` relies on.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
        *worker.slot.lock().expect("no lock is held across a panic") = Some(job);
        worker.thread.unpark();
    }
    let ours = run(0, rx0);
    drop(handout);
    let mut outcomes = std::iter::once(ours)
        .chain(theirs.into_iter().map(|slot| slot.into_inner().expect("no lock held across a panic").expect("every job reported")));
    // Re-raise the panic that poisoned the execution, not a peer's report
    // of it (an aborted wait, a flush to a location that had ended).
    if let Some(&(first, _)) = shared.poisoned.get() {
        let payload = outcomes.nth(first).and_then(Result::err);
        resume_unwind(payload.expect("the location that poisoned the execution panicked"))
    }
    // No location panicked. Every location hands back a trace, or (tracing
    // off) none does.
    let (results, traces): (Vec<R>, Vec<_>) = outcomes.map(|o| o.unwrap_or_else(|payload| resume_unwind(payload))).unzip();
    let locs = traces.into_iter().collect::<Option<Vec<_>>>();
    (results, locs.map(|locs| RunTrace { nlocs, locs }))
}

/// Runs `f` on `nlocs` locations, discarding results. See
/// [`execute_collect`].
pub fn execute<F>(cfg: RtsConfig, nlocs: usize, f: F)
where
    F: Fn(&Location) + Send + Sync,
{
    execute_collect(cfg, nlocs, |loc| f(loc));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::panic_message;
    use crate::stats::Counter;
    use crate::trace::{LocationTrace, SpanKind, TraceEvent};
    use std::cell::RefCell;

    #[test]
    fn single_location_runs() {
        let out = execute_collect(RtsConfig::default(), 1, |loc| loc.id() * 10 + loc.nlocs());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn results_indexed_by_location() {
        let out = execute_collect(RtsConfig::default(), 4, |loc| loc.id());
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn async_rmi_visible_after_fence() {
        execute(RtsConfig::default(), 4, |loc| {
            let (h, rep) = loc.register_cell(Vec::<usize>::new());
            loc.rmi_fence();
            // Everyone appends its id to location 0's vector.
            let me = loc.id();
            loc.async_rmi(0, h, move |v: &RefCell<Vec<usize>>, _| v.borrow_mut().push(me));
            loc.rmi_fence();
            if loc.id() == 0 {
                let mut got = rep.borrow().clone();
                got.sort_unstable();
                assert_eq!(got, vec![0, 1, 2, 3]);
            }
        });
    }

    #[test]
    fn sync_rmi_round_trip() {
        execute(RtsConfig::default(), 3, |loc| {
            let (h, _rep) = loc.register_cell(loc.id() as u64 * 100);
            loc.rmi_fence();
            for peer in 0..loc.nlocs() {
                let v = loc.sync_rmi(peer, h, |c: &RefCell<u64>, _| *c.borrow());
                assert_eq!(v, peer as u64 * 100);
            }
        });
    }

    #[test]
    fn split_phase_overlaps_computation() {
        execute(RtsConfig::default(), 2, |loc| {
            let (h, _rep) = loc.register_cell(7u32);
            loc.rmi_fence();
            let peer = (loc.id() + 1) % loc.nlocs();
            let fut = loc.split_rmi(peer, h, |c: &RefCell<u32>, _| *c.borrow() + 1);
            // Unrelated local work while the request is in flight.
            let local = (0..100u32).sum::<u32>();
            assert_eq!(local, 4950);
            assert_eq!(fut.get(), 8);
        });
    }

    #[test]
    fn mutual_sync_rmi_does_not_deadlock() {
        // Both locations block in sync_rmi simultaneously; polling while
        // waiting must let each serve the other's request.
        execute(RtsConfig::default(), 2, |loc| {
            let (h, _rep) = loc.register_cell(loc.id() as u64);
            loc.rmi_fence();
            let peer = 1 - loc.id();
            let v = loc.sync_rmi(peer, h, |c: &RefCell<u64>, _| *c.borrow());
            assert_eq!(v, peer as u64);
        });
    }

    #[test]
    fn fence_drains_forwarding_chains() {
        // Location 0 sends to 1, whose handler forwards to 2, whose handler
        // forwards to 3, which records. One fence must drain the chain.
        execute(RtsConfig::default(), 4, |loc| {
            let (h, rep) = loc.register_cell(0u64);
            loc.rmi_fence();
            if loc.id() == 0 {
                loc.async_rmi(1, h, move |_: &RefCell<u64>, l| {
                    l.async_rmi(2, h, move |_: &RefCell<u64>, l| {
                        l.async_rmi(3, h, move |c: &RefCell<u64>, _| {
                            *c.borrow_mut() += 1;
                        });
                    });
                });
            }
            loc.rmi_fence();
            if loc.id() == 3 {
                assert_eq!(*rep.borrow(), 1);
            }
        });
    }

    #[test]
    fn per_pair_fifo_ordering() {
        // Writes from one source to one destination must apply in order,
        // even with aggregation enabled.
        execute(RtsConfig::with_aggregation(8), 2, |loc| {
            let (h, rep) = loc.register_cell(Vec::<u32>::new());
            loc.rmi_fence();
            if loc.id() == 0 {
                for i in 0..100u32 {
                    loc.async_rmi(1, h, move |v: &RefCell<Vec<u32>>, _| v.borrow_mut().push(i));
                }
            }
            loc.rmi_fence();
            if loc.id() == 1 {
                let v = rep.borrow();
                assert_eq!(*v, (0..100).collect::<Vec<u32>>());
            }
        });
    }

    #[test]
    fn collectives_agree() {
        execute(RtsConfig::default(), 4, |loc| {
            let sum = loc.allreduce_sum(loc.id() as u64 + 1);
            assert_eq!(sum, 1 + 2 + 3 + 4);
            let all = loc.allgather(loc.id());
            assert_eq!(all, vec![0, 1, 2, 3]);
            let b = loc.broadcast(2, if loc.id() == 2 { 42u32 } else { 0 });
            assert_eq!(b, 42);
            let (prefix, total) = loc.exclusive_scan(loc.id() as u64 + 1, 0, |a, b| a + b);
            let expect: u64 = (1..=loc.id() as u64).sum();
            assert_eq!(prefix, expect);
            assert_eq!(total, 10);
        });
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        execute(RtsConfig::default(), 3, |loc| {
            for round in 0..50u64 {
                let s = loc.allreduce_sum(round);
                assert_eq!(s, round * 3);
            }
        });
    }

    #[test]
    fn stats_count_local_vs_remote() {
        let snaps = execute_collect(RtsConfig::unbuffered(), 2, |loc| {
            let (h, _rep) = loc.register_cell(0u64);
            loc.rmi_fence();
            if loc.id() == 0 {
                loc.async_rmi(0, h, |c: &RefCell<u64>, _| *c.borrow_mut() += 1);
                loc.async_rmi(1, h, |c: &RefCell<u64>, _| *c.borrow_mut() += 1);
            }
            loc.rmi_fence();
            loc.stats()
        });
        assert_eq!(snaps[0].local_invocations, 1);
        assert!(snaps[0].remote_requests >= 1);
    }

    #[test]
    fn aggregation_reduces_batches() {
        let run = |agg: usize| {
            let snaps = execute_collect(RtsConfig::with_aggregation(agg), 2, |loc| {
                let (h, _rep) = loc.register_cell(0u64);
                loc.rmi_fence();
                if loc.id() == 0 {
                    for _ in 0..256 {
                        loc.async_rmi(1, h, |c: &RefCell<u64>, _| *c.borrow_mut() += 1);
                    }
                }
                loc.rmi_fence();
                loc.stats()
            });
            snaps[0].batches_sent
        };
        let unbuffered = run(1);
        let buffered = run(64);
        assert!(
            buffered < unbuffered,
            "aggregation should cut batch count: {buffered} !< {unbuffered}"
        );
    }

    #[test]
    #[should_panic]
    fn panic_in_one_location_propagates() {
        execute(RtsConfig::default(), 2, |loc| {
            if loc.id() == 1 {
                panic!("boom");
            }
            // Location 0 waits at the final fence; poisoning must wake it.
        });
    }

    /// `waits.rs::is_ready_reports_a_panicked_peer` with the roles swapped:
    /// the caller's location panics while one peer probes `is_ready` and
    /// another waits at a barrier. Both waits abort naming it, and it is the
    /// panic `execute` re-raises.
    #[test]
    fn a_panic_on_location_0_aborts_waiting_peers_and_is_reraised() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let (waiting, reported) = (AtomicUsize::new(0), Mutex::new(Vec::new()));
        let run = catch_unwind(AssertUnwindSafe(|| {
            execute(RtsConfig::default(), 3, |loc| {
                if loc.id() == 0 {
                    loc.wait_until(|| waiting.load(SeqCst) == 2);
                    panic!("location 0 dies without replying");
                }
                // A reply only location 0 could have sent.
                let (_token, fut) = loc.make_reply_slot::<u64>();
                waiting.fetch_add(1, SeqCst);
                let wait = catch_unwind(AssertUnwindSafe(|| {
                    if loc.id() == 2 {
                        loc.barrier();
                    }
                    let start = std::time::Instant::now();
                    while start.elapsed().as_secs() < 10 {
                        assert!(!fut.is_ready(), "nobody replied");
                    }
                }));
                reported.lock().unwrap().extend(wait.err().map(|p| panic_message(&*p)));
            })
        }));
        assert_eq!(run.err().map(|p| panic_message(&*p)).as_deref(), Some("location 0 dies without replying"));
        let reported = reported.into_inner().unwrap();
        let told = |why: &String| why.contains("peer location panicked") && why.contains("location 0 dies");
        assert!(reported.len() == 2 && reported.iter().all(told), "each peer's wait aborts: {reported:?}");
    }

    #[test]
    fn unregistered_handle_panic_names_the_p_object() {
        execute(RtsConfig::default(), 1, |loc| {
            let (h, _rep) = loc.register_cell(String::from("payload"));
            loc.unregister(h);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                loc.lookup::<RefCell<String>>(h);
            }))
            .expect_err("lookup of an unregistered handle must panic");
            let msg = panic_message(&*err);
            // The message must name the dead p_object's type, not just a
            // numeric handle, so the failing container can be identified.
            assert!(msg.contains("RefCell"), "panic must name the type: {msg}");
            assert!(msg.contains("String"), "panic must name the type: {msg}");
            assert!(msg.contains("unregistered"), "panic must say what happened: {msg}");
        });
    }

    #[test]
    fn unregister_drops_the_representative_outside_the_registry_borrow() {
        /// A representative whose destructor comes back to the registry,
        /// as one that owns another p_object may.
        struct Nosy(Location);
        impl Drop for Nosy {
            fn drop(&mut self) {
                assert_eq!(self.0.live_p_objects(), 0);
            }
        }
        execute(RtsConfig::default(), 1, |loc| {
            let (h, rep) = loc.register(Nosy(loc.clone()));
            drop(rep);
            loc.unregister(h);
        });
    }

    #[test]
    fn a_handle_is_reclaimed_at_the_fence_after_every_location_retired_it() {
        execute(RtsConfig::default(), 3, |loc| {
            let (h, _) = loc.register_cell(0u64);
            if loc.id() != 2 {
                loc.retire(h);
            }
            loc.rmi_fence();
            loc.rmi_fence();
            assert_eq!(loc.live_p_objects(), 1, "location 2 may still send to it");
            if loc.id() == 2 {
                loc.retire(h);
            }
            loc.barrier();
            loc.rmi_fence();
            assert_eq!(loc.live_p_objects(), 0);
        });
    }

    #[test]
    fn type_mismatch_panic_names_both_types() {
        execute(RtsConfig::default(), 1, |loc| {
            let (h, _rep) = loc.register_cell(7u32);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                loc.lookup::<RefCell<i64>>(h);
            }))
            .expect_err("type-mismatched lookup must panic");
            let msg = panic_message(&*err);
            assert!(msg.contains("u32"), "panic must name the registered type: {msg}");
            assert!(msg.contains("i64"), "panic must name the expected type: {msg}");
        });
    }

    #[test]
    fn local_stats_sum_to_global() {
        use crate::stats::StatsSnapshot;
        // A mixed workload touching many counters: local + remote asyncs,
        // sync round trips, aggregation batches, fence rounds.
        let per_loc = execute_collect(RtsConfig::with_aggregation(4), 4, |loc| {
            let (h, _rep) = loc.register_cell(0u64);
            loc.rmi_fence();
            for peer in 0..loc.nlocs() {
                for _ in 0..10 {
                    loc.async_rmi(peer, h, |c: &RefCell<u64>, _| *c.borrow_mut() += 1);
                }
                let _ = loc.sync_rmi(peer, h, |c: &RefCell<u64>, _| *c.borrow());
            }
            loc.rmi_fence();
            // The final (implicit) fence bumps counters after this
            // snapshot, and locations leave the fence above at slightly
            // different times — a fast location could reach the final
            // fence before a slow one snapshots the globals. Bracket the
            // snapshots with barriers (which bump nothing while the
            // system is quiescent) so every local snapshot happens before
            // any location's post-snapshot traffic. Under the reliable layer
            // a retransmission that raced its ack may still sit in a channel
            // after the fence, and its re-ack bumps `acks_sent`; the fence
            // leaves nothing unacked, so none is sent after it, and one poll
            // between two barriers drains them all.
            loc.barrier();
            loc.poll();
            loc.barrier();
            let snap = (loc.local_stats(), loc.stats());
            loc.barrier();
            snap
        });
        let global = per_loc[0].1;
        let sum = per_loc
            .iter()
            .fold(StatsSnapshot::default(), |acc, (local, _)| acc.add(local));
        for (name, v) in sum.counters() {
            assert_eq!(
                Some(v),
                global.counter(name),
                "per-location {name} must sum to the global counter"
            );
        }
        assert!(sum.remote_requests > 0, "workload must actually communicate");
        assert!(sum.local_invocations > 0);
    }

    /// How many spans of `kind` location trace `l` holds.
    fn spans_of(l: &LocationTrace, kind: SpanKind) -> usize {
        l.events.iter().filter(|e| matches!(e, TraceEvent::Span { kind: k, .. } if *k == kind)).count()
    }

    #[test]
    fn traced_run_collects_per_location_traces() {
        let cfg = RtsConfig { trace: true, ..RtsConfig::unbuffered() };
        let (_results, trace) = execute_collect_traced(cfg, 3, |loc| {
            let (h, _rep) = loc.register_cell(0u64);
            loc.rmi_fence();
            let peer = (loc.id() + 1) % loc.nlocs();
            let _ = loc.sync_rmi(peer, h, |c: &RefCell<u64>, _| *c.borrow());
            loc.barrier();
        });
        let trace = trace.expect("trace requested");
        assert_eq!(trace.locs.len(), 3);
        for l in &trace.locs {
            // The run is far too small to evict from the ring: it holds
            // every event recorded.
            assert_eq!(l.dropped, 0);
            let spans = |k| spans_of(l, k);
            let moved = |c| {
                let n = l.events.iter().map(|e| match *e {
                    TraceEvent::Count { counter, n, .. } if counter == c => n,
                    _ => 0,
                });
                n.sum::<u64>()
            };
            assert!(moved(Counter::remote_requests) > 0, "loc {} sent nothing", l.loc);
            assert_eq!(spans(SpanKind::Barrier), 1);
            assert_eq!(spans(SpanKind::SyncRmi), 1, "exactly one sync round trip per location");
            assert!(spans(SpanKind::Fence) >= 2, "an explicit and the implicit fence");
            assert_eq!(l.histogram(SpanKind::SyncRmi).count(), 1);
            assert_eq!(l.stats.remote_requests, moved(Counter::remote_requests));
            assert_eq!(l.stats.requests_handled, moved(Counter::requests_handled));
        }
    }

    /// A `barrier` span is a `Location::barrier` call: the rendezvous
    /// inside a fence round or a collective records none.
    #[test]
    fn only_a_barrier_records_a_barrier_span() {
        let cfg = RtsConfig { trace: true, ..RtsConfig::base() };
        let (_, trace) = execute_collect_traced(cfg, 2, |loc| {
            loc.rmi_fence();
            assert_eq!(loc.allreduce_sum(1), 2);
            loc.barrier();
        });
        for l in &trace.expect("trace requested").locs {
            let spans = |k| spans_of(l, k);
            assert_eq!(spans(SpanKind::Fence), 2, "the explicit and the closing fence");
            assert_eq!(spans(SpanKind::Collective), 1);
            assert_eq!(spans(SpanKind::Barrier), 1, "location {}", l.loc);
            assert_eq!(l.histogram(SpanKind::Barrier).count(), 1);
        }
    }

    #[test]
    fn untraced_run_returns_no_trace() {
        let (results, trace) = execute_collect_traced(RtsConfig::default(), 2, |loc| loc.id());
        assert_eq!(results, vec![0, 1]);
        assert!(trace.is_none());
    }

    #[test]
    fn many_locations_smoke() {
        execute(RtsConfig::default(), 16, |loc| {
            let (h, rep) = loc.register_cell(0u64);
            loc.rmi_fence();
            let dest = (loc.id() + 1) % loc.nlocs();
            for _ in 0..100 {
                loc.async_rmi(dest, h, |c: &RefCell<u64>, _| *c.borrow_mut() += 1);
            }
            loc.rmi_fence();
            assert_eq!(*rep.borrow(), 100);
        });
    }
}
