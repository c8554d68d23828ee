//! SPMD execution: run the same closure on every location, as STAPL runs
//! `stapl_main` on every location of the machine.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};

use crossbeam::channel::unbounded;

use crate::barrier::{Kind, PollBarrier};
use crate::config::RtsConfig;
use crate::location::{Location, Shared};
use crate::transport::Batch;
use crate::stats::CounterBlock;
use crate::trace::RunTrace;

/// Runs `f` on `nlocs` locations (one OS thread each) in SPMD fashion and
/// returns each location's result, indexed by location id.
///
/// An implicit [`Location::rmi_fence`] runs after `f` returns on every
/// location, so all asynchronous RMIs issued by `f` complete before
/// `execute_collect` returns (the paper's program-exit guarantee).
///
/// If any location panics, the panic is propagated and the remaining
/// locations abort their waits instead of hanging, naming the first panic.
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
    let mut senders = Vec::with_capacity(nlocs);
    let mut receivers = Vec::with_capacity(nlocs);
    for _ in 0..nlocs {
        let (tx, rx) = unbounded::<Batch>();
        senders.push(tx);
        receivers.push(rx);
    }
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
    let f = &f;
    let mut results = Vec::with_capacity(nlocs);
    std::thread::scope(|s| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(id, rx)| {
                let shared = shared.clone();
                s.spawn(move || {
                    let loc = Location::new(id, shared, rx);
                    // A panic poisons the execution, so peers waiting at
                    // barriers or futures abort instead of hanging.
                    catch_unwind(AssertUnwindSafe(|| {
                        let r = f(&loc);
                        loc.fence(Kind::Exit);
                        // Post-fence the execution is globally quiescent, so
                        // the buffer already holds every event this location
                        // will ever record.
                        (r, loc.take_trace())
                    }))
                    .unwrap_or_else(|payload| {
                        loc.mark_panicked(&*payload);
                        resume_unwind(payload)
                    })
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
    });
    let (results, traces): (Vec<R>, Vec<_>) = results.into_iter().unzip();
    // Every location hands back a trace, or (tracing off) none does.
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

    #[test]
    fn unregistered_handle_panic_names_the_p_object() {
        execute(RtsConfig::default(), 1, |loc| {
            let (h, _rep) = loc.register_cell(String::from("payload"));
            loc.unregister(h);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                loc.lookup::<RefCell<String>>(h);
            }))
            .expect_err("lookup of an unregistered handle must panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .expect("panic payload should be a string");
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
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .expect("panic payload should be a string");
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

    #[test]
    fn traced_run_collects_per_location_traces() {
        use crate::trace::TraceEventKind;
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
            let count = |kind| l.events.iter().filter(|e| e.kind == kind).count() as u64;
            assert!(count(TraceEventKind::RmiSend) > 0, "loc {} sent nothing", l.loc);
            assert!(count(TraceEventKind::BarrierSpan) > 0);
            assert_eq!(count(TraceEventKind::SyncRmiSpan), 1, "exactly one sync round trip per location");
            assert!(count(TraceEventKind::FenceSpan) >= 2, "an explicit and the implicit fence");
            assert_eq!(l.histogram("sync_rmi").unwrap().count(), 1);
            assert_eq!(l.stats.remote_requests, count(TraceEventKind::RmiSend));
            assert_eq!(l.handled, count(TraceEventKind::RmiExecute));
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
