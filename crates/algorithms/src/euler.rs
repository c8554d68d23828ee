//! The Euler-tour technique (Chapter X.H, Figs. 43/44): turn a tree into
//! a linked list of directed arcs, rank the list in parallel, and derive
//! tree functions — rooting (parent), vertex depth, and subtree size —
//! from arc positions.
//!
//! Input: an *undirected* static pGraph that is a tree over dense vertex
//! descriptors `0..n` (e.g. from
//! [`fill_binary_tree`](stapl_containers::generators::fill_binary_tree)).
//!
//! Construction follows the classical recipe: arc `(u→v)` is succeeded by
//! the arc out of `v` that follows `(v→u)` in `v`'s adjacency rotation;
//! breaking the resulting cycle at the root's first arc linearizes the
//! tour. Arc ids are dense (`offset(v) + index in v's rotation`), the
//! successor array is a pArray, and ranking is the pointer-jumping
//! pAlgorithm from [`crate::list_ranking`].

use stapl_containers::array::PArray;
use stapl_containers::associative::PHashMap;
use stapl_containers::graph::PGraph;
use stapl_core::interfaces::{AssociativeContainer, ElementRead, ElementWrite, LocalIteration, PContainer};

use crate::list_ranking::{list_positions, NIL};
use crate::numeric::p_partial_sum;

/// The computed tour: arc ids, their endpoints, and tour positions.
pub struct EulerTour {
    /// Number of directed arcs (2 · #tree edges).
    pub narcs: usize,
    /// Replicated arc-id offsets: vertex `v`'s arcs are
    /// `offsets[v] .. offsets[v+1]`.
    pub offsets: Vec<usize>,
    /// Arc id → (source, target).
    pub arcs: PArray<(usize, usize)>,
    /// Arc id → position in the tour (0-based).
    pub pos: PArray<u64>,
    /// Arc (u, v) → arc id.
    pub arc_ids: PHashMap<(usize, usize), usize>,
}

/// **Collective.** Builds the Euler tour of `g` rooted at `root`.
pub fn euler_tour<VP, EP>(g: &PGraph<VP, EP>, root: usize) -> EulerTour
where
    VP: Send + Clone + 'static,
    EP: Send + Clone + 'static,
{
    let loc = g.location().clone();
    let n = g.num_vertices();
    // 1. Replicated degree offsets (prefix over all vertex degrees).
    let local_degs: Vec<(usize, usize)> = {
        let mut v = Vec::new();
        g.for_each_local_vertex(|vx| v.push((vx.descriptor, vx.edges.len())));
        v
    };
    let mut all_degs: Vec<(usize, usize)> = loc
        .allreduce(local_degs, |mut a, mut b| {
            a.append(&mut b);
            a
        });
    all_degs.sort_unstable();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for (vd, d) in &all_degs {
        debug_assert_eq!(*vd, offsets.len() - 1, "vertex descriptors must be dense 0..n");
        acc += d;
        offsets.push(acc);
    }
    let narcs = acc;
    // 2. Arc table and arc-id map, filled by each arc's source owner.
    let arcs = PArray::new(&loc, narcs.max(1), (NIL, NIL));
    let arc_ids: PHashMap<(usize, usize), usize> = PHashMap::new(&loc);
    g.for_each_local_vertex(|vx| {
        for (j, e) in vx.edges.iter().enumerate() {
            let id = offsets[vx.descriptor] + j;
            arcs.set_element(id, (vx.descriptor, e.target));
            arc_ids.insert_async((vx.descriptor, e.target), id);
        }
    });
    loc.rmi_fence();
    // 3. Successor array: for local v and neighbor u at rotation slot j,
    //    succ(u→v) = offsets[v] + (j+1) mod deg(v). The assignments are
    //    keyed by the arc id of (u→v), resolved through the arc-id map
    //    with batched split-phase finds.
    let succ = PArray::new(&loc, narcs.max(1), NIL);
    let mut assignments: Vec<((usize, usize), usize)> = Vec::new();
    g.for_each_local_vertex(|vx| {
        let d = vx.edges.len();
        for (j, e) in vx.edges.iter().enumerate() {
            let s = offsets[vx.descriptor] + (j + 1) % d;
            assignments.push(((e.target, vx.descriptor), s));
        }
    });
    for chunk in assignments.chunks(128) {
        let futs: Vec<_> = chunk.iter().map(|(pair, _)| arc_ids.split_find(*pair)).collect();
        for ((pair, s), fut) in chunk.iter().zip(futs) {
            let id = fut
                .get()
                .unwrap_or_else(|| panic!("tree is not symmetric: arc {pair:?} has no reverse"));
            succ.set_element(id, *s);
        }
    }
    loc.rmi_fence();
    // 4. Break the cycle at the root's first arc: whoever owns the arc
    //    whose successor is `first_arc` cuts it.
    let first_arc = offsets[root];
    succ.for_each_local_mut(|_, s| {
        if *s == first_arc {
            *s = NIL;
        }
    });
    loc.barrier();
    // 5. Rank the list.
    let pos = list_positions(&succ, narcs);
    EulerTour { narcs, offsets, arcs, pos, arc_ids }
}

/// Tree functions derived from the tour (the "applications" of Fig. 44).
pub struct EulerApps {
    /// Parent of each vertex (`root`'s parent is itself).
    pub parent: PArray<usize>,
    /// Depth of each vertex (root = 0).
    pub depth: PArray<i64>,
    /// Subtree size of each vertex.
    pub subtree: PArray<u64>,
}

/// **Collective.** Rooting, depth, and subtree size from an Euler tour.
pub fn euler_applications<VP, EP>(g: &PGraph<VP, EP>, root: usize) -> EulerApps
where
    VP: Send + Clone + 'static,
    EP: Send + Clone + 'static,
{
    let loc = g.location().clone();
    let n = g.num_vertices();
    let tour = euler_tour(g, root);
    // Rooting: v's parent is the neighbor u whose arc (u→v) precedes
    // (v→u) in the tour.
    let parent = PArray::new(&loc, n, usize::MAX);
    parent.set_element(root, root);
    let mut queries: Vec<(usize, usize, usize, usize)> = Vec::new(); // (v, u, id_vu, j)
    g.for_each_local_vertex(|vx| {
        if vx.descriptor == root {
            return;
        }
        for (j, e) in vx.edges.iter().enumerate() {
            queries.push((vx.descriptor, e.target, tour.offsets[vx.descriptor] + j, j));
        }
    });
    for chunk in queries.chunks(128) {
        // pos(v→u) is derivable locally via the arc id; pos(u→v) needs
        // the reverse arc id, then its position.
        let rev_futs: Vec<_> =
            chunk.iter().map(|(v, u, _, _)| tour.arc_ids.split_find((*u, *v))).collect();
        let rev_ids: Vec<usize> = rev_futs.into_iter().map(|f| f.get().expect("reverse arc")).collect();
        let pos_futs: Vec<_> = chunk
            .iter()
            .zip(&rev_ids)
            .map(|((_, _, id_vu, _), rid)| {
                (tour.pos.split_get_element(*id_vu), tour.pos.split_get_element(*rid))
            })
            .collect();
        for (((v, u, _, _), _rid), (f_vu, f_uv)) in chunk.iter().zip(&rev_ids).zip(pos_futs) {
            let p_vu = f_vu.get();
            let p_uv = f_uv.get();
            if p_uv < p_vu {
                // u's arc into v comes first: u is v's parent.
                parent.set_element(*v, *u);
            }
        }
    }
    loc.rmi_fence();
    // Depth: weight each arc +1 (down: parent→child) or -1 (up), scatter
    // by tour position, prefix-sum, then read at pos(parent→v).
    let weights = PArray::new(&loc, tour.narcs.max(1), 0i64);
    let mut arc_list: Vec<(usize, (usize, usize))> = Vec::new();
    tour.arcs.for_each_local(|id, uv| arc_list.push((id, *uv)));
    for chunk in arc_list.chunks(128) {
        let par_futs: Vec<_> =
            chunk.iter().map(|(_, (_, v))| parent.split_get_element(*v)).collect();
        let pos_futs: Vec<_> = chunk.iter().map(|(id, _)| tour.pos.split_get_element(*id)).collect();
        for (((_, (u, _v)), pf), posf) in chunk.iter().zip(par_futs).zip(pos_futs) {
            let par_v = pf.get();
            let p = posf.get();
            let w = if par_v == *u { 1 } else { -1 };
            weights.set_element(p as usize, w);
        }
    }
    loc.rmi_fence();
    p_partial_sum(&weights, 0, |a, b| a + b);
    let depth = PArray::new(&loc, n, 0i64);
    let subtree = PArray::new(&loc, n, 0u64);
    subtree.set_element(root, n as u64);
    let mut vverts: Vec<usize> = Vec::new();
    g.for_each_local_vertex(|vx| {
        if vx.descriptor != root {
            vverts.push(vx.descriptor);
        }
    });
    for chunk in vverts.chunks(64) {
        let par: Vec<usize> = chunk
            .iter()
            .map(|v| parent.split_get_element(*v))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|f| f.get())
            .collect();
        for (v, p) in chunk.iter().zip(par) {
            let id_down = tour.arc_ids.find((p, *v)).expect("down arc");
            let id_up = tour.arc_ids.find((*v, p)).expect("up arc");
            let pos_down = tour.pos.get_element(id_down);
            let pos_up = tour.pos.get_element(id_up);
            let d = weights.get_element(pos_down as usize);
            depth.set_element(*v, d);
            subtree.set_element(*v, (pos_up - pos_down).div_ceil(2));
        }
    }
    loc.rmi_fence();
    EulerApps { parent, depth, subtree }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_containers::generators::fill_binary_tree;
    use stapl_containers::graph::{Directedness, PGraph};
    use stapl_rts::{execute, RtsConfig};

    fn tree(loc: &stapl_rts::Location, n: usize) -> PGraph<(), ()> {
        let g = PGraph::new_static(loc, n, Directedness::Undirected, ());
        fill_binary_tree(&g, ());
        g
    }

    #[test]
    fn tour_visits_every_arc_once() {
        execute(RtsConfig::default(), 2, |loc| {
            let g = tree(loc, 7);
            let t = euler_tour(&g, 0);
            assert_eq!(t.narcs, 2 * 6);
            // Positions are a permutation of 0..narcs.
            let mut seen = vec![false; t.narcs];
            let mut local_pos = Vec::new();
            t.pos.for_each_local(|_, p| local_pos.push(*p));
            let all = loc.allreduce(local_pos, |mut a, mut b| {
                a.append(&mut b);
                a
            });
            for p in all {
                assert!(!seen[p as usize], "position {p} repeated");
                seen[p as usize] = true;
            }
            assert!(seen.iter().all(|&x| x));
            // The tour starts at the root's first arc.
            assert_eq!(t.pos.get_element(t.offsets[0]), 0);
        });
    }

    #[test]
    fn parents_match_binary_tree() {
        execute(RtsConfig::default(), 2, |loc| {
            let g = tree(loc, 15);
            let apps = euler_applications(&g, 0);
            for v in 1..15 {
                assert_eq!(apps.parent.get_element(v), (v - 1) / 2, "parent of {v}");
            }
            assert_eq!(apps.parent.get_element(0), 0);
        });
    }

    #[test]
    fn depths_match_binary_tree() {
        execute(RtsConfig::default(), 2, |loc| {
            let g = tree(loc, 15);
            let apps = euler_applications(&g, 0);
            for v in 0..15usize {
                let expect = (usize::BITS - (v + 1).leading_zeros() - 1) as i64;
                assert_eq!(apps.depth.get_element(v), expect, "depth of {v}");
            }
            let _ = loc;
        });
    }

    #[test]
    fn subtree_sizes_match_binary_tree() {
        execute(RtsConfig::default(), 2, |loc| {
            let g = tree(loc, 15);
            let apps = euler_applications(&g, 0);
            // Perfect binary tree of 15: leaves have size 1, internal 3 / 7 / 15.
            assert_eq!(apps.subtree.get_element(0), 15);
            assert_eq!(apps.subtree.get_element(1), 7);
            assert_eq!(apps.subtree.get_element(2), 7);
            assert_eq!(apps.subtree.get_element(3), 3);
            assert_eq!(apps.subtree.get_element(7), 1);
            assert_eq!(apps.subtree.get_element(14), 1);
            let _ = loc;
        });
    }

    #[test]
    fn works_with_non_root_zero() {
        execute(RtsConfig::default(), 2, |loc| {
            let g = tree(loc, 7);
            let apps = euler_applications(&g, 3);
            // Rooted at 3: parent(1) = 3, parent(0) = 1, parent(2) = 0.
            assert_eq!(apps.parent.get_element(3), 3);
            assert_eq!(apps.parent.get_element(1), 3);
            assert_eq!(apps.parent.get_element(0), 1);
            assert_eq!(apps.parent.get_element(2), 0);
            assert_eq!(apps.depth.get_element(2), 3);
            assert_eq!(apps.subtree.get_element(3), 7);
            let _ = loc;
        });
    }
}
