//! The per-location executor: schedules a [`PRange`] in dependence
//! order, driven by the RTS polling loop, with an intra-execution
//! work-stealing path for migratable ready tasks.
//!
//! One executor representative is registered per location (a `p_object`,
//! like any pContainer). Each holds:
//!
//! * a **ready deque** of its home tasks whose predecessors completed —
//!   the location pops from the front, thieves steal from the back,
//! * **pending-predecessor counts** for not-yet-ready home tasks, and
//! * an **inbox** of dataflow payloads produced by predecessors.
//!
//! Execution interleaves task bodies with [`Location::poll`], so steal
//! probes and readiness notifications are serviced between tasks — the
//! executor is "driven by" the same polling loop that makes sync RMIs
//! deadlock-free. When a location runs dry it (if stealing is enabled)
//! probes peers round-robin with a synchronous RMI that pops **half of the
//! victim's migratable ready tasks** — and their inboxes — from the cold
//! end of its deque (steal-half, so one probe moves enough work to matter
//! even when the victim only answers between long task bodies); the thief
//! enqueues the batch, leaving it stealable in turn, and executes the
//! tasks against its own per-location workfunction and view handles, so
//! element accesses route through the normal container RMI paths. A probe
//! that finds nothing leaves the thief on the victim's *hungry* list, and
//! the thief waits in [`Location::wait_until`] for an event, never for a
//! span of time: a task readied at home, a wake-up (one async RMI from a
//! victim that holds migratable ready tasks again), or `done`. Termination
//! is pushed: a location whose deque runs dry reports the tasks it ran
//! since its last report to location 0, which sends `done` to every
//! location once the reports cover every task.
//!
//! Steal and execution counters are surfaced through
//! [`stapl_rts::StatsSnapshot`] (`tasks_executed`, `tasks_stolen`,
//! `steal_requests`).

use std::collections::{HashMap, VecDeque};

use stapl_core::pobject::PObject;
use stapl_rts::{Counter, LocId, Location};

use crate::prange::{PRange, Task, TaskId};

/// Scheduling policy of one executor run. Task size is the graph's: the
/// `_pg` entry points build theirs at [`auto_grain`](crate::prange::auto_grain).
#[derive(Clone, Copy, Debug)]
pub struct ExecPolicy {
    /// Allow idle locations to steal migratable ready tasks from peers.
    pub stealing: bool,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy { stealing: true }
    }
}

impl ExecPolicy {
    /// Executor scheduling without the stealing path (tasks run only on
    /// their home locations, but still in dependence-graph order).
    pub fn no_stealing() -> Self {
        ExecPolicy { stealing: false }
    }
}

/// What one location did during a run (the global view lives in
/// [`stapl_rts::StatsSnapshot`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Tasks this location executed (home + stolen).
    pub executed: u64,
    /// Of those, tasks stolen from another location's deque.
    pub stolen: u64,
}

/// Per-location scheduler state, registered as a p_object so peers can
/// notify successors, deliver payloads, steal, wake and report.
struct ExecRep<P> {
    /// Ready home tasks: popped from the front locally, stolen from the
    /// back.
    ready: VecDeque<TaskId>,
    /// Remaining predecessor counts of not-yet-ready home tasks.
    pending: HashMap<TaskId, usize>,
    /// Dataflow payloads delivered by completed predecessors, keyed by
    /// the consuming task.
    inbox: HashMap<TaskId, Vec<P>>,
    /// Replicated migratability flags (indexed by task id) so steal
    /// probes can be answered without access to the caller's `PRange`.
    migratable: Vec<bool>,
    /// Tasks not yet reported run; counted down on location 0 only.
    unreported: u64,
    /// Every task has run (location 0 decides, then tells the others).
    done: bool,
    /// Thieves that found nothing to steal here since they were last woken.
    hungry: Vec<LocId>,
    /// A victim woke this location since it last cleared the flag.
    woken: bool,
}

impl<P> ExecRep<P> {
    /// A predecessor of `t` completed (possibly delivering a payload).
    fn notify(&mut self, t: TaskId, payload: Option<P>) {
        if let Some(p) = payload {
            self.inbox.entry(t).or_default().push(p);
        }
        let left = self.pending.get_mut(&t).expect("notification for a task not pending here");
        *left -= 1;
        if *left == 0 {
            self.pending.remove(&t);
            self.ready.push_back(t);
        }
    }

    /// Pops half (rounded up) of the migratable ready tasks — and their
    /// inboxes — from the cold end of the deque, for `thief`; an empty
    /// batch puts the thief on the hungry list.
    ///
    /// Steal-half instead of steal-one: a victim busy in a long task body
    /// only answers probes between tasks, so each probe must transfer
    /// enough work to keep the thief busy for a comparable stretch. The
    /// thief enqueues the batch, which keeps it stealable in turn (by
    /// third locations or by the original owner stealing back), so the
    /// load keeps diffusing.
    fn steal_some(&mut self, thief: LocId) -> Vec<(TaskId, Vec<P>)> {
        let candidates = self.ready.iter().filter(|&&t| self.migratable[t]).count();
        let take = candidates.div_ceil(2);
        let mut got = Vec::with_capacity(take);
        let mut i = self.ready.len();
        while i > 0 && got.len() < take {
            i -= 1;
            if self.migratable[self.ready[i]] {
                let tid = self.ready.remove(i).expect("index in range");
                let inputs = self.inbox.remove(&tid).unwrap_or_default();
                got.push((tid, inputs));
            }
        }
        if got.is_empty() && !self.hungry.contains(&thief) {
            self.hungry.push(thief);
        }
        got
    }

    /// The hungry thieves, taken off the list, once a migratable task is
    /// ready here (the scan only runs while someone is hungry).
    fn thieves_to_wake(&mut self) -> Vec<LocId> {
        if self.hungry.is_empty() || !self.ready.iter().any(|&t| self.migratable[t]) {
            return Vec::new();
        }
        std::mem::take(&mut self.hungry)
    }
}

/// A handle binding a [`PRange`] to a scheduling policy; `run` executes
/// the graph collectively.
pub struct Executor<'a> {
    pr: &'a PRange,
    policy: ExecPolicy,
}

impl<'a> Executor<'a> {
    /// Binds `pr` to `policy`.
    ///
    /// # Panics
    /// Panics if the dependence edges contain a cycle: cyclic tasks never
    /// become ready, so `run` would otherwise spin forever. The check is
    /// one O(tasks + edges) Kahn pass — noise next to graph construction.
    pub fn new(pr: &'a PRange, policy: ExecPolicy) -> Self {
        assert!(pr.is_acyclic(), "pRange dependence edges contain a cycle");
        Executor { pr, policy }
    }

    /// **Collective.** Runs every task of the pRange exactly once,
    /// respecting dependence edges, and returns this location's tally.
    ///
    /// `work` is this location's workfunction: it receives the task and
    /// the payloads its predecessors produced (in arrival order — folds
    /// over them must be commutative as well as associative), and may
    /// return a payload delivered to each successor. It is *not*
    /// shipped between locations: a stolen task runs against the
    /// thief's own workfunction and captured view handles, which is why
    /// any per-element state it touches must be routed through container
    /// RMIs (or be location-independent).
    ///
    /// An `rmi_fence` runs before returning, so all RMIs issued by task
    /// bodies (e.g. view writes) are complete on exit.
    pub fn run<P, F>(&self, loc: &Location, mut work: F) -> ExecReport
    where
        P: Send + Clone + 'static,
        F: FnMut(&Task, Vec<P>) -> Option<P>,
    {
        let me = loc.id();
        let total = self.pr.num_tasks() as u64;
        let mut ready = VecDeque::new();
        let mut pending = HashMap::new();
        let mut migratable = vec![false; self.pr.num_tasks()];
        for t in self.pr.tasks() {
            // Hard assert (like the cycle check in `new`): a task homed on
            // a nonexistent location would never run and the scheduling
            // loop would spin forever waiting for completion.
            assert!(t.home < loc.nlocs(), "task {} homed on nonexistent location {}", t.id, t.home);
            migratable[t.id] = t.migratable;
            if t.home == me {
                if t.num_preds == 0 {
                    ready.push_back(t.id);
                } else {
                    pending.insert(t.id, t.num_preds);
                }
            }
        }
        let (inbox, hungry, done, woken) = (HashMap::new(), Vec::new(), total == 0, false);
        let rep = ExecRep { ready, pending, inbox, migratable, unreported: total, done, hungry, woken };
        let obj: PObject<ExecRep<P>> = PObject::register(loc, rep);
        // Handles must agree before any peer can notify or steal.
        loc.barrier();

        let mut report = ExecReport::default();
        let mut next_victim = (me + 1) % loc.nlocs();
        // Tasks run here since this location's last report.
        let mut ran = 0;
        loop {
            // 1. Run one ready task, then poll so steal probes and
            //    notifications are serviced *between* task bodies. Tasks
            //    it leaves behind may feed the thieves that found none.
            let next = {
                let mut rep = obj.local_mut();
                rep.ready
                    .pop_front()
                    .map(|tid| (tid, rep.inbox.remove(&tid).unwrap_or_default()))
            };
            if let Some((tid, inputs)) = next {
                wake_thieves(loc, &obj);
                self.run_task(loc, &obj, tid, inputs, &mut work);
                report.executed += 1;
                ran += 1;
                if self.pr.task(tid).home != me {
                    report.stolen += 1;
                    loc.count(Counter::tasks_stolen, 1);
                }
                loc.poll();
                continue;
            }
            // 2. Dry deque: report what ran since the last report (in place
            //    on location 0).
            if ran > 0 {
                obj.invoke_at(0, move |cell, _| {
                    let mut rep = cell.borrow_mut();
                    rep.unreported -= ran;
                    rep.done = rep.unreported == 0;
                });
                ran = 0;
            }
            if obj.local().done {
                break;
            }
            // 3. Steal: probe peers round-robin; a victim yields half of
            //    its migratable ready tasks, which we enqueue (and which
            //    thereby stay stealable by others, or by the owner
            //    stealing them back). A wake-up that lands during the
            //    sweep sets `woken` again: the wait below cannot miss it.
            if self.policy.stealing && loc.nlocs() > 1 {
                obj.local_mut().woken = false;
                let batch = self.try_steal(loc, &obj, &mut next_victim);
                if !batch.is_empty() {
                    let mut rep = obj.local_mut();
                    for (tid, inputs) in batch {
                        if !inputs.is_empty() {
                            rep.inbox.insert(tid, inputs);
                        }
                        rep.ready.push_back(tid);
                    }
                    continue;
                }
            }
            // 4. Nothing to run or steal: wait for a task readied here, a
            //    victim's wake-up, or the end of the run.
            loc.wait_until(|| {
                let rep = obj.local();
                rep.done || !rep.ready.is_empty() || rep.woken
            });
        }
        if me == 0 && total > 0 {
            obj.invoke_everywhere(|cell, _| cell.borrow_mut().done = true);
        }
        // Drain in-flight RMIs (view writes from task bodies, the `done`
        // messages, peers' last steal probes) before handing back.
        loc.rmi_fence();
        report
    }

    /// Executes one task body and notifies each successor's home,
    /// delivering the task's payload.
    fn run_task<P, F>(
        &self,
        loc: &Location,
        obj: &PObject<ExecRep<P>>,
        tid: TaskId,
        inputs: Vec<P>,
        work: &mut F,
    ) where
        P: Send + Clone + 'static,
        F: FnMut(&Task, Vec<P>) -> Option<P>,
    {
        let task = self.pr.task(tid);
        let t0 = loc.trace_clock();
        let out = work(task, inputs);
        loc.trace_span_end(stapl_rts::SpanKind::Task, t0, tid as u64);
        loc.count(Counter::tasks_executed, 1);
        for &s in &task.succs {
            let payload = out.clone();
            obj.invoke_at(self.pr.task(s).home, move |cell, _| {
                cell.borrow_mut().notify(s, payload);
            });
        }
    }

    /// One round-robin sweep over the peers; returns the first nonempty
    /// batch a victim gave up (empty when every peer came up dry).
    fn try_steal<P>(
        &self,
        loc: &Location,
        obj: &PObject<ExecRep<P>>,
        next_victim: &mut LocId,
    ) -> Vec<(TaskId, Vec<P>)>
    where
        P: Send + Clone + 'static,
    {
        let me = loc.id();
        let n = loc.nlocs();
        for k in 0..n {
            let victim = (*next_victim + k) % n;
            if victim == me {
                continue;
            }
            loc.count(Counter::steal_requests, 1);
            let got = obj.invoke_ret_at(victim, move |cell, _| cell.borrow_mut().steal_some(me));
            if !got.is_empty() {
                // Keep hitting a productive victim first next time.
                *next_victim = victim;
                return got;
            }
        }
        *next_victim = (me + 1) % n;
        Vec::new()
    }
}

/// Wakes the hungry thieves once migratable tasks are ready here, from the
/// scheduling loop (no handler sends): one async RMI each, flushed so it
/// does not wait behind the next task body.
fn wake_thieves<P: 'static>(loc: &Location, obj: &PObject<ExecRep<P>>) {
    let thieves = obj.local_mut().thieves_to_wake();
    for thief in thieves {
        obj.invoke_at(thief, |cell, _| cell.borrow_mut().woken = true);
        loc.flush(thief);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prange::{map_task_graph, reduce_task_graph, TaskKind};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;
    use stapl_containers::array::PArray;
    use stapl_core::domain::Range1d;
    use stapl_core::interfaces::ElementRead;
    use stapl_rts::{execute, execute_collect, RtsConfig};
    use stapl_views::array_view::ArrayView;
    use stapl_views::view::{ViewRead, ViewWrite};

    #[test]
    fn map_graph_processes_every_element_once() {
        execute(RtsConfig::default(), 3, |loc| {
            let a = PArray::new(loc, 40, 0u64);
            let v = ArrayView::new(a.clone());
            let pr = map_task_graph(&v, 4);
            let exec = Executor::new(&pr, ExecPolicy::default());
            exec.run::<(), _>(loc, |task, _| {
                for k in task.range.iter() {
                    v.apply(k, |x| *x += 1);
                }
                None
            });
            // Exactly-once: every element incremented exactly one time.
            for i in 0..40 {
                assert_eq!(a.get_element(i), 1, "element {i}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "contain a cycle")]
    fn cyclic_graph_is_rejected_at_construction() {
        let mut pr = PRange::new();
        let a = pr.add_task(Range1d::new(0, 1), 0, true, TaskKind::Map);
        let b = pr.add_task(Range1d::new(1, 2), 0, true, TaskKind::Map);
        pr.add_edge(a, b);
        pr.add_edge(b, a);
        let _ = Executor::new(&pr, ExecPolicy::default());
    }

    #[test]
    fn empty_graph_returns_immediately() {
        execute(RtsConfig::default(), 2, |loc| {
            let pr = PRange::new();
            let r = Executor::new(&pr, ExecPolicy::default()).run::<(), _>(loc, |_, _| None);
            assert_eq!(r, ExecReport::default());
        });
    }

    #[test]
    fn dependences_gate_execution_and_flow_payloads() {
        // Diamond: a -> {b, c} -> d, across two locations. d must receive
        // both payloads, which is only possible if b and c ran after a.
        execute(RtsConfig::default(), 2, |loc| {
            let mut pr = PRange::new();
            let a = pr.add_task(Range1d::new(0, 1), 0, false, TaskKind::Map);
            let b = pr.add_task(Range1d::new(1, 2), 0, false, TaskKind::Map);
            let c = pr.add_task(Range1d::new(2, 3), 1, false, TaskKind::Map);
            let d = pr.add_task(Range1d::new(3, 4), 1, false, TaskKind::Map);
            pr.add_edge(a, b);
            pr.add_edge(a, c);
            pr.add_edge(b, d);
            pr.add_edge(c, d);
            let d_inputs = RefCell::new(Vec::new());
            Executor::new(&pr, ExecPolicy::default()).run::<u64, _>(loc, |task, inputs| {
                if task.id == d {
                    *d_inputs.borrow_mut() = inputs.clone();
                }
                match task.id {
                    t if t == a => Some(7),
                    t if t == b => Some(inputs[0] * 10),
                    t if t == c => Some(inputs[0] * 100),
                    _ => None,
                }
            });
            if loc.id() == 1 {
                let mut got = d_inputs.into_inner();
                got.sort_unstable();
                assert_eq!(got, vec![70, 700]);
            }
        });
    }

    #[test]
    fn reduce_graph_folds_through_combines_to_root() {
        execute(RtsConfig::default(), 3, |loc| {
            let a = PArray::from_fn(loc, 30, |i| i as u64);
            let v = ArrayView::new(a);
            let pr = reduce_task_graph(&v, 4);
            let root_out = RefCell::new(None::<u64>);
            Executor::new(&pr, ExecPolicy::default()).run::<u64, _>(loc, |task, inputs| {
                match task.kind {
                    TaskKind::Map => Some(task.range.iter().map(|k| v.get(k)).sum()),
                    TaskKind::Combine => Some(inputs.iter().sum()),
                    TaskKind::Root => {
                        let r = inputs.iter().sum();
                        *root_out.borrow_mut() = Some(r);
                        Some(r)
                    }
                }
            });
            let r = loc.broadcast(0, root_out.into_inner());
            assert_eq!(r, Some((0..30).sum::<u64>()));
        });
    }

    #[test]
    fn non_migratable_tasks_never_move() {
        execute(RtsConfig::default(), 3, |loc| {
            let mut pr = PRange::new();
            for t in 0..9 {
                pr.add_task(Range1d::new(t, t + 1), 0, false, TaskKind::Map);
            }
            Executor::new(&pr, ExecPolicy::default()).run::<(), _>(loc, |task, _| {
                assert_eq!(loc.id(), 0, "non-migratable task {} ran on a thief", task.id);
                std::thread::sleep(std::time::Duration::from_millis(1));
                None
            });
            assert_eq!(loc.stats().tasks_stolen, 0);
        });
    }

    #[test]
    fn dependence_order_holds_under_stealing() {
        // A long chain homed on location 0 with migratable links: no
        // matter who executes each link, the chain order must hold —
        // checked through the flowing payload.
        execute(RtsConfig::default(), 4, |loc| {
            let mut pr = PRange::new();
            let mut prev = None;
            for t in 0..12 {
                let id = pr.add_task(Range1d::new(t, t + 1), 0, true, TaskKind::Map);
                if let Some(p) = prev {
                    pr.add_edge(p, id);
                }
                prev = Some(id);
            }
            let last_out = RefCell::new(None::<u64>);
            Executor::new(&pr, ExecPolicy::default()).run::<u64, _>(loc, |task, inputs| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                let acc = inputs.first().copied().unwrap_or(0);
                let out = acc * 2 + 1;
                if task.id == 11 {
                    *last_out.borrow_mut() = Some(out);
                }
                Some(out)
            });
            // x_{n} = 2 x_{n-1} + 1, x_0 = 1 -> x_11 = 2^12 - 1.
            let r = loc.allreduce(last_out.into_inner(), |a, b| a.or(b));
            assert_eq!(r, Some((1 << 12) - 1));
        });
    }

    #[test]
    fn termination_sends_one_report_and_one_done_per_peer() {
        // Without stealing every task runs at home, so the only remote
        // traffic of a run is termination: each peer reports once (its
        // deque runs dry once) and location 0 answers with one `done`.
        // Nothing is polled, so no synchronous RMI runs.
        const P: u64 = 4;
        let runs = execute_collect(RtsConfig::default(), P as usize, |loc| {
            let a = PArray::new(loc, 128, 0u64);
            let v = ArrayView::new(a.clone());
            let pr = map_task_graph(&v, 0);
            let mine = pr.tasks().iter().filter(|t| t.home == loc.id()).count() as u64;
            let exec = Executor::new(&pr, ExecPolicy::no_stealing());
            loc.rmi_fence();
            let before = loc.stats();
            loc.barrier();
            let rep = exec.run::<(), _>(loc, |task, _| {
                assert_eq!(task.home, loc.id(), "without stealing every task runs at home");
                task.range.iter().for_each(|k| v.apply(k, |x| *x += 1));
                None
            });
            loc.barrier();
            let run = loc.stats().since(&before);
            loc.barrier();
            assert_eq!((rep.executed, rep.stolen), (mine, 0));
            assert!((0..128).all(|i| a.get_element(i) == 1), "every element once");
            (pr.num_tasks(), run)
        });
        let (tasks, run) = runs[0];
        assert_eq!((tasks, run.tasks_executed, run.tasks_stolen), (64, 64, 0));
        assert_eq!(run.responses_sent, 0, "termination must not be polled");
        let bound = 2 * (P - 1);
        assert!(run.remote_requests <= bound, "{} remote requests > {bound}", run.remote_requests);
    }

    #[test]
    fn late_work_is_stolen_by_thieves_that_found_none() {
        // Location 1 runs `a` (not migratable, 20 ms); the eight `b`s homed
        // on location 0 depend on it. Locations 2 and 3 find nothing to
        // steal while `a` runs and must still get some `b`s: an empty probe
        // leaves the thief on the victim's list, and the victim wakes it
        // once the `b`s are ready.
        let runs: [AtomicU32; 9] = Default::default();
        let reports = execute_collect(RtsConfig::default(), 4, |loc| {
            let mut pr = PRange::new();
            let a = pr.add_task(Range1d::new(0, 1), 1, false, TaskKind::Map);
            for b in 1..9 {
                let b = pr.add_task(Range1d::new(b, b + 1), 0, true, TaskKind::Map);
                pr.add_edge(a, b);
            }
            let rep = Executor::new(&pr, ExecPolicy::default()).run::<(), _>(loc, |task, _| {
                runs[task.id].fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(if task.id == a { 20 } else { 2 }));
                None
            });
            (rep, loc.stats())
        });
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1), "every task runs exactly once");
        let (home, stats) = reports[0];
        assert_eq!(stats.tasks_executed, 9);
        assert!(stats.steal_requests > 0);
        assert_eq!(home.stolen, 0, "the home location cannot steal its own tasks");
        let late = reports[2].0.stolen + reports[3].0.stolen;
        assert!(late >= 1, "locations 2 and 3 probed before the b's were ready and were never woken");
    }
}
