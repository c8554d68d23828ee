//! # stapl-paragraph — the task-dependence-graph execution layer
//!
//! The paper (Chapter III) splits STAPL into a data side — pContainers
//! wrapped by pViews — and an execution side: the **PARAGRAPH**, a task
//! dependence graph scheduled by per-location executors. This crate
//! reproduces that execution side on top of `stapl-rts`:
//!
//! * [`prange::PRange`] — a view's domain coarsened into tasks with
//!   optional dependence edges (successor lists + pending-predecessor
//!   counts), built deterministically on every location;
//! * [`executor::Executor`] — the per-location scheduler: a ready deque
//!   drained between RTS polls, dataflow payloads delivered along edges,
//!   and an **intra-execution work-stealing** path that lets idle
//!   locations pull migratable ready tasks from loaded peers over
//!   synchronous RMIs;
//! * graph factories ([`prange::map_task_graph`],
//!   [`prange::reduce_task_graph`]) that coarsen any
//!   [`ViewRead`](stapl_views::view::ViewRead) into the common shapes.
//!
//! The `_pg` entry points in `stapl-algorithms` (`p_generate_pg`,
//! `p_reduce_pg`) port the pAlgorithms onto this executor; the lock-step
//! SPMD versions remain as the fast path for regular workloads. Steal
//! and execution counters are surfaced through
//! [`stapl_rts::StatsSnapshot`].
//!
//! ## Quick example
//!
//! ```
//! use stapl_paragraph::prelude::*;
//! use stapl_rts::{execute, RtsConfig};
//! use stapl_views::array_view::ArrayView;
//! use stapl_views::view::ViewWrite;
//! use stapl_containers::array::PArray;
//!
//! execute(RtsConfig::default(), 2, |loc| {
//!     let a = PArray::new(loc, 16, 0u64);
//!     let v = ArrayView::new(a.clone());
//!     let pr = map_task_graph(&v, 4);       // 4 tasks of 4 elements
//!     let exec = Executor::new(&pr, ExecPolicy::default());
//!     exec.run::<(), _>(loc, |task, _inputs| {
//!         for k in task.range.iter() {
//!             v.apply(k, |x| *x += 1);
//!         }
//!         None
//!     });
//!     use stapl_core::interfaces::ElementRead;
//!     assert_eq!(a.get_element(7), 1);
//! });
//! ```

#![forbid(unsafe_code)]

pub mod executor;
pub mod prange;

pub mod prelude {
    pub use crate::executor::{ExecPolicy, ExecReport, Executor};
    pub use crate::prange::{
        auto_grain, map_task_graph, reduce_task_graph, PRange, Task, TaskId, TaskKind,
    };
}
