//! # stapl-views — the pView layer
//!
//! Reproduces Chapter III.A and Table II: abstract-data-type façades over
//! pContainers that (a) decouple algorithms from storage and (b) enable
//! parallelism by exposing a partition of the view's domain
//! ([`view::ViewRead::local_chunks`]). A view exists here only when
//! something runs it; a paper pView that would only forward to its
//! container is that container's own interface.
//!
//! | Paper pView | Here |
//! |---|---|
//! | `array_1d_pview` | [`array_view::ArrayView`] |
//! | `array_1d_ro_pview` | any [`view::ViewRead`] bound (reads only) |
//! | `balanced_pview` | [`array_view::BalancedView`] |
//! | `native_pview` | [`array_view::ArrayView::new`] (native alignment built in) |
//! | `strided_1D_pview` | [`array_view::StridedView`] |
//! | `transform_pview` | dropped: no caller (an algorithm's map function transforms) |
//! | `overlap_pview` | [`array_view::OverlapView`] |
//! | `static_list_pview` / `list_pview` | `PList` itself, through `LocalIteration` / `SegmentedContainer` |
//! | associative views (pMap/pHashMap) | [`assoc_view::MapView`] |
//! | `matrix_pview` rows / linear | [`matrix_view::RowsView`] / [`array_view::ArrayView`] over `PMatrix::linear` |
//! | `matrix_pview` single row / column | dropped: no caller |
//! | `graph_pview` inner / boundary regions | [`graph_view::GraphView`] |
//! | "views that generate values dynamically" | dropped: no caller |

#![forbid(unsafe_code)]

pub mod array_view;
pub mod assoc_view;
pub mod graph_view;
pub mod matrix_view;
pub mod view;

pub mod prelude {
    pub use crate::array_view::{ArrayView, BalancedView, OverlapView, StridedView};
    pub use crate::assoc_view::MapView;
    pub use crate::graph_view::GraphView;
    pub use crate::matrix_view::RowsView;
    pub use crate::view::{ViewRead, ViewWrite};
}
