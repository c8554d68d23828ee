//! Graph views (Fig. 47/48): the *inner* and *boundary* region views of
//! a pGraph's partitioned (native) subgraph.
//!
//! The inner view of a location holds the local vertices whose edges all
//! stay on the location; the boundary view holds the local vertices with
//! at least one cross-location edge. Algorithms overlap computation on
//! the inner region with communication caused by the boundary region —
//! the decomposition Fig. 48 illustrates.

use stapl_containers::graph::{PGraph, VertexRef};

/// Which region of the per-location subgraph a view exposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GraphRegion {
    /// Local vertices whose out-edges all target local vertices.
    Inner,
    /// Local vertices with at least one out-edge to a remote vertex.
    Boundary,
}

/// A per-location region view of a pGraph.
pub struct GraphView<VP: Send + Clone + 'static, EP: Send + Clone + 'static> {
    g: PGraph<VP, EP>,
    region: GraphRegion,
}

impl<VP, EP> GraphView<VP, EP>
where
    VP: Send + Clone + 'static,
    EP: Send + Clone + 'static,
{
    fn new(g: PGraph<VP, EP>, region: GraphRegion) -> Self {
        GraphView { g, region }
    }

    pub fn inner(g: PGraph<VP, EP>) -> Self {
        Self::new(g, GraphRegion::Inner)
    }

    pub fn boundary(g: PGraph<VP, EP>) -> Self {
        Self::new(g, GraphRegion::Boundary)
    }

    fn in_region(&self, v: &VertexRef<'_, VP, EP>) -> bool {
        match self.region {
            GraphRegion::Inner => v.edges.iter().all(|e| self.g.is_local_vertex(e.target)),
            GraphRegion::Boundary => v.edges.iter().any(|e| !self.g.is_local_vertex(e.target)),
        }
    }

    /// Iterates this location's vertices belonging to the region.
    fn for_each_vertex(&self, mut f: impl FnMut(&VertexRef<'_, VP, EP>)) {
        self.g.for_each_local_vertex(|v| {
            if self.in_region(v) {
                f(v);
            }
        });
    }

    /// Number of region vertices on this location.
    pub fn local_len(&self) -> usize {
        let mut n = 0;
        self.for_each_vertex(|_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_containers::generators::{fill_mesh, static_digraph};
    use stapl_containers::graph::Directedness;
    use stapl_core::interfaces::PContainer;
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn regions_partition_local_vertices() {
        execute(RtsConfig::default(), 2, |loc| {
            let g = static_digraph(loc, 16); // 4x4 mesh
            fill_mesh(&g, 4, 4, ());
            let all = g.local_size();
            let inner = GraphView::inner(g.clone()).local_len();
            let boundary = GraphView::boundary(g.clone()).local_len();
            assert_eq!(inner + boundary, all, "inner ⊎ boundary = all");
            // A 4x4 mesh split in row halves has exactly one boundary row
            // per location (4 vertices adjacent to the other half).
            assert_eq!(boundary, 4);
            assert_eq!(inner, 4);
            let _ = loc;
        });
    }

    #[test]
    fn boundary_vertices_have_remote_edges() {
        execute(RtsConfig::default(), 2, |loc| {
            let g: stapl_containers::graph::PGraph<u64, ()> =
                stapl_containers::graph::PGraph::new_static(loc, 12, Directedness::Directed, 0);
            fill_mesh(&g, 3, 4, ());
            let bv = GraphView::boundary(g.clone());
            bv.for_each_vertex(|v| {
                assert!(v.edges.iter().any(|e| !g.is_local_vertex(e.target)));
            });
            let iv = GraphView::inner(g.clone());
            iv.for_each_vertex(|v| {
                assert!(v.edges.iter().all(|e| g.is_local_vertex(e.target)));
            });
            g.commit();
        });
    }

    #[test]
    fn single_location_graph_is_all_inner() {
        execute(RtsConfig::default(), 1, |loc| {
            let g = static_digraph(loc, 9);
            fill_mesh(&g, 3, 3, ());
            assert_eq!(GraphView::boundary(g.clone()).local_len(), 0);
            assert_eq!(GraphView::inner(g.clone()).local_len(), 9);
            let _ = loc;
        });
    }
}
