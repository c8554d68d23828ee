//! # stapl-algorithms — the pAlgorithms library
//!
//! Parallel algorithms written against container interfaces and pViews,
//! reproducing the paper's algorithm suite:
//!
//! * [`map_func`] — STL counterparts (`p_generate`, `p_for_each`,
//!   `p_reduce` — the paper's `p_accumulate` —, `p_count_if`,
//!   `p_min_element`, `p_copy`, `p_transform`, ...), container-native and
//!   view-based;
//! * [`numeric`] — parallel prefix sums (`p_partial_sum`);
//! * [`sorting`] — regular-sampling sample sort (`p_sort`);
//! * [`list_ranking`] — Wyllie pointer jumping;
//! * [`euler`] — the Euler-tour technique and its applications
//!   (rooting, depth, subtree size);
//! * [`graph_algos`] — find-sources, BFS, connected components, PageRank;
//! * [`segmented`] — segment-at-a-time algorithms for the dynamic
//!   containers (`p_copy_segmented`, `p_equal_segmented`,
//!   `p_reduce_segmented`): one RMI per (owner, base-container segment)
//!   where the `_elementwise` fallbacks pay one per element;
//! * [`mapreduce`] — MapReduce with owner-side combining + word count,
//!   including the bucket-grained `p_map_reduce_kv` over `MapView`;
//! * [`paragraph_algos`] — the `_pg` entry points (`p_generate_pg`,
//!   `p_reduce_pg`): the same algorithms scheduled through the PARAGRAPH
//!   task-graph executor
//!   (`stapl-paragraph`), with optional work stealing for skewed
//!   workloads.

#![forbid(unsafe_code)]

pub mod euler;
pub mod graph_algos;
pub mod list_ranking;
pub mod map_func;
pub mod mapreduce;
pub mod numeric;
pub mod paragraph_algos;
pub mod segmented;
pub mod sorting;

pub mod prelude {
    pub use crate::euler::{euler_applications, euler_tour, EulerApps, EulerTour};
    pub use crate::graph_algos::{
        bfs, connected_components, find_sources, page_rank, AlgoGraph, VProps,
    };
    pub use crate::list_ranking::{list_positions, NIL};
    pub use crate::map_func::{
        p_adjacent_difference, p_copy, p_copy_elementwise, p_count_if, p_equal, p_for_each,
        p_for_each_view, p_generate, p_generate_view, p_inner_product, p_min_element, p_reduce,
        p_reduce_view, p_sum, p_transform,
    };
    pub use crate::mapreduce::{
        map_reduce, p_map_reduce_kv, synthetic_corpus, word_count, word_count_kv,
    };
    pub use crate::numeric::p_partial_sum;
    pub use crate::paragraph_algos::{p_generate_pg, p_reduce_pg};
    pub use crate::segmented::{p_copy_segmented, p_equal_segmented, p_reduce_segmented};
    pub use crate::sorting::{p_is_sorted, p_sort};
}
