//! pRange: a view's domain partitioned into coarsened tasks, optionally
//! connected by dependence edges.
//!
//! The paper's pRange is the bridge between the data side (pContainers /
//! pViews) and the execution side (the PARAGRAPH): it partitions a view's
//! domain into *tasks* — units of work coarse enough to amortize
//! scheduling — and records the dependences between them as successor
//! lists plus pending-predecessor counts. A pRange with no edges is a
//! parallel-do; a pRange with edges is a task dependence graph the
//! [`Executor`](crate::executor::Executor) schedules in topological
//! order, migrating `migratable` tasks between locations when
//! work-stealing is enabled.
//!
//! Construction is SPMD-deterministic: every location builds the same
//! replicated task list (like a partition, the graph is metadata — the
//! element data stays distributed). The factories at the bottom coarsen
//! any [`ViewRead`] into the common graph shapes: flat map graphs and
//! per-location reduction trees.

use stapl_core::domain::Range1d;
use stapl_rts::LocId;
use stapl_views::view::ViewRead;

/// Identifier of a task inside one [`PRange`] (dense, 0-based).
pub type TaskId = usize;

/// Role of a task inside a factory-built graph; workfunctions dispatch on
/// this to decide what a task does with its range and inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// Processes its view-index range; the factories' leaf tasks.
    Map,
    /// Folds the payloads of its predecessors (one per location in
    /// [`reduce_task_graph`]).
    Combine,
    /// Final fold of the per-location combines; homed on location 0.
    Root,
}

/// One schedulable unit: a coarsened range of view indices plus its place
/// in the dependence graph.
#[derive(Clone, Debug)]
pub struct Task {
    /// Position in [`PRange::tasks`].
    pub id: TaskId,
    /// View-index range this task covers (empty for pure graph nodes such
    /// as combine/root tasks).
    pub range: Range1d,
    /// Location whose executor initially owns the task.
    pub home: LocId,
    /// Whether an idle location may steal this task once it is ready.
    /// Tasks whose workfunction touches location-private state (e.g. the
    /// local shard of a MapReduce input) must not migrate.
    pub migratable: bool,
    /// Role tag set by the graph factories.
    pub kind: TaskKind,
    /// Tasks that become runnable (closer) once this one completes.
    pub succs: Vec<TaskId>,
    /// Number of tasks that must complete before this one is ready.
    pub num_preds: usize,
}

/// A replicated task dependence graph over a view's domain.
///
/// Every location holds an identical copy (built deterministically by the
/// same SPMD calls), so task metadata never needs to be communicated —
/// only readiness notifications and payloads flow at run time.
#[derive(Clone, Debug, Default)]
pub struct PRange {
    tasks: Vec<Task>,
}

impl PRange {
    /// An empty graph; add tasks with [`PRange::add_task`].
    pub fn new() -> Self {
        PRange { tasks: Vec::new() }
    }

    /// Appends a task with no dependences and returns its id.
    pub fn add_task(
        &mut self,
        range: Range1d,
        home: LocId,
        migratable: bool,
        kind: TaskKind,
    ) -> TaskId {
        let id = self.tasks.len();
        self.tasks.push(Task { id, range, home, migratable, kind, succs: Vec::new(), num_preds: 0 });
        id
    }

    /// Adds a dependence edge: `succ` may not start before `pred`
    /// completes.
    ///
    /// # Panics
    /// Panics if either id is out of range or the edge is a self-loop.
    pub fn add_edge(&mut self, pred: TaskId, succ: TaskId) {
        assert!(pred < self.tasks.len() && succ < self.tasks.len(), "edge endpoint out of range");
        assert_ne!(pred, succ, "self-dependence would deadlock the executor");
        self.tasks[pred].succs.push(succ);
        self.tasks[succ].num_preds += 1;
    }

    /// All tasks, indexed by [`TaskId`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The task with id `id`.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id]
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// True when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Kahn's algorithm: true when the dependence edges admit a schedule
    /// (no cycle). `Executor::new` asserts this in every build — cyclic
    /// tasks never become ready, so running one would spin forever.
    pub fn is_acyclic(&self) -> bool {
        let mut preds: Vec<usize> = self.tasks.iter().map(|t| t.num_preds).collect();
        let mut ready: Vec<TaskId> = (0..preds.len()).filter(|&t| preds[t] == 0).collect();
        let mut seen = 0usize;
        while let Some(t) = ready.pop() {
            seen += 1;
            for &s in &self.tasks[t].succs {
                preds[s] -= 1;
                if preds[s] == 0 {
                    ready.push(s);
                }
            }
        }
        seen == self.tasks.len()
    }
}

/// Default coarsening: about sixteen tasks per location, at least one
/// element per task — enough surplus tasks for stealing to balance skew
/// (and for steal probes, which victims only answer between task bodies,
/// to be serviced promptly) without drowning in per-task overhead.
pub fn auto_grain(len: usize, nlocs: usize) -> usize {
    len.div_ceil(nlocs * 16).max(1)
}

fn push_split(pr: &mut PRange, r: Range1d, grain: usize, home: LocId, kind: TaskKind) -> Vec<TaskId> {
    let mut ids = Vec::new();
    let mut lo = r.lo;
    while lo < r.hi {
        let hi = (lo + grain).min(r.hi);
        ids.push(pr.add_task(Range1d::new(lo, hi), home, true, kind));
        lo = hi;
    }
    ids
}

/// **Collective.** The parallel-do graph behind `p_generate_pg`: `v`'s
/// domain coarsened into an edge-free pRange. Each location's
/// [`ViewRead::local_chunks`] are split into tasks of at most `grain`
/// indices, homed on that location and migratable. Pass `0` for the
/// [`auto_grain`] default.
///
/// The per-location chunk lists are allgathered so every location builds
/// the identical replicated graph.
pub fn map_task_graph<V: ViewRead>(v: &V, grain: usize) -> PRange {
    let loc = v.location();
    let grain = if grain == 0 { auto_grain(v.len(), loc.nlocs()) } else { grain };
    let mine: Vec<Range1d> = v.local_chunks();
    let all: Vec<Vec<Range1d>> = loc.allgather(mine);
    let mut pr = PRange::new();
    for (home, chunks) in all.iter().enumerate() {
        for &c in chunks {
            push_split(&mut pr, c, grain, home, TaskKind::Map);
        }
    }
    pr
}

/// **Collective.** A two-level reduction tree: migratable leaf tasks per
/// [`map_task_graph`], a non-migratable [`TaskKind::Combine`] task per
/// location folding that location's leaf payloads, and a single
/// [`TaskKind::Root`] task on location 0 folding the combines. Empty for
/// an empty view.
pub fn reduce_task_graph<V: ViewRead>(v: &V, grain: usize) -> PRange {
    let loc = v.location();
    let mut pr = map_task_graph(v, grain);
    if pr.is_empty() {
        return pr;
    }
    let nlocs = loc.nlocs();
    let mut combines: Vec<TaskId> = Vec::new();
    for home in 0..nlocs {
        let leaves: Vec<TaskId> =
            pr.tasks().iter().filter(|t| t.home == home).map(|t| t.id).collect();
        if leaves.is_empty() {
            continue;
        }
        let c = pr.add_task(Range1d::new(0, 0), home, false, TaskKind::Combine);
        for l in leaves {
            pr.add_edge(l, c);
        }
        combines.push(c);
    }
    let root = pr.add_task(Range1d::new(0, 0), 0, false, TaskKind::Root);
    for c in combines {
        pr.add_edge(c, root);
    }
    pr
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_containers::array::PArray;
    use stapl_rts::{execute, RtsConfig};
    use stapl_views::array_view::ArrayView;

    #[test]
    fn builder_tracks_edges_and_preds() {
        let mut pr = PRange::new();
        let a = pr.add_task(Range1d::new(0, 4), 0, true, TaskKind::Map);
        let b = pr.add_task(Range1d::new(4, 8), 1, true, TaskKind::Map);
        let c = pr.add_task(Range1d::new(0, 0), 0, false, TaskKind::Combine);
        pr.add_edge(a, c);
        pr.add_edge(b, c);
        assert_eq!(pr.num_tasks(), 3);
        assert_eq!(pr.task(c).num_preds, 2);
        assert_eq!(pr.task(a).succs, vec![c]);
        assert!(pr.is_acyclic());
    }

    #[test]
    fn cycle_is_detected() {
        let mut pr = PRange::new();
        let a = pr.add_task(Range1d::new(0, 1), 0, true, TaskKind::Map);
        let b = pr.add_task(Range1d::new(1, 2), 0, true, TaskKind::Map);
        pr.add_edge(a, b);
        pr.add_edge(b, a);
        assert!(!pr.is_acyclic());
    }

    #[test]
    #[should_panic(expected = "self-dependence")]
    fn self_edge_panics() {
        let mut pr = PRange::new();
        let a = pr.add_task(Range1d::new(0, 1), 0, true, TaskKind::Map);
        pr.add_edge(a, a);
    }

    #[test]
    fn from_view_covers_domain_and_replicates() {
        execute(RtsConfig::default(), 3, |loc| {
            let a = PArray::from_fn(loc, 50, |i| i as u64);
            let v = ArrayView::new(a);
            let pr = map_task_graph(&v, 7);
            // Replicated: every location builds the same graph.
            let sizes = loc.allgather(pr.num_tasks());
            assert!(sizes.iter().all(|&s| s == sizes[0]));
            // Coverage: task ranges tile [0, 50) exactly once.
            let mut seen = [0u8; 50];
            for t in pr.tasks() {
                assert!(t.range.len() <= 7);
                assert!(t.migratable);
                for k in t.range.iter() {
                    seen[k] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1));
            // Homes follow the native chunks.
            for t in pr.tasks() {
                assert!(t.home < loc.nlocs());
            }
        });
    }

    #[test]
    fn auto_grain_bounds() {
        assert_eq!(auto_grain(0, 4), 1);
        assert_eq!(auto_grain(32, 4), 1);
        assert_eq!(auto_grain(64, 2), 2);
        assert_eq!(auto_grain(1024, 4), 16);
        assert!(auto_grain(1_000_000, 4) >= 1);
    }

    #[test]
    fn reduce_graph_shape() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::from_fn(loc, 20, |i| i as u64);
            let v = ArrayView::new(a);
            let pr = reduce_task_graph(&v, 5);
            assert!(pr.is_acyclic());
            let combines: Vec<_> =
                pr.tasks().iter().filter(|t| t.kind == TaskKind::Combine).collect();
            let roots: Vec<_> = pr.tasks().iter().filter(|t| t.kind == TaskKind::Root).collect();
            assert_eq!(combines.len(), 2, "one combine per location with leaves");
            assert_eq!(roots.len(), 1);
            assert_eq!(roots[0].home, 0);
            assert!(!roots[0].migratable);
            assert_eq!(roots[0].num_preds, 2);
            // Every leaf feeds its home's combine.
            for t in pr.tasks().iter().filter(|t| t.kind == TaskKind::Map) {
                assert_eq!(t.succs.len(), 1);
                assert_eq!(pr.task(t.succs[0]).home, t.home);
            }
            let _ = loc;
        });
    }

    #[test]
    fn empty_view_gives_empty_graph() {
        execute(RtsConfig::default(), 2, |loc| {
            let a = PArray::new(loc, 0, 0u64);
            let v = ArrayView::new(a);
            assert!(map_task_graph(&v, 0).is_empty());
            assert!(reduce_task_graph(&v, 0).is_empty());
            let _ = loc;
        });
    }
}
