//! The Minimum Vertex Cover variant of Algorithm 1 (§4 closing remark):
//! take all vertices of `m_{3.3}`-local minimal 2-cuts instead of only
//! the interesting ones, plus the local 1-cut vertices, then solve each
//! residual component exactly.
//!
//! With `S` the taken vertices, the residual is the components of
//! `G − S` that have an edge. For `C ⊆ V ∖ S` the edges of `G[C]` are
//! exactly the edges `S` leaves uncovered, and a component of `G − S`
//! has an edge iff it has two vertices. So the residual comes from the
//! MDS pipeline's component scan, and the output is an
//! [`Algorithm1Output`] like the MDS pipeline's.
//!
//! No twin reduction is applied (it does not preserve MVC — a triangle
//! collapses to a single vertex with vertex cover 0 while `MVC(K₃) = 2`).

use crate::algorithm1::{Algorithm1Output, PipelineDiagnostics};
use crate::local_cuts;
use crate::radii::Radii;
use lmds_graph::{Graph, Vertex};
use lmds_localsim::IdAssignment;

/// Solves one residual component exactly and canonically: the instance
/// is `g[comp]` with its vertices ordered by identifier, so every node
/// of the component reconstructs the identical cover. It is built in
/// the pooled engine's instance buffers, like the MDS residual solves.
/// The MVC twin of [`crate::algorithm1::solve_component_with`], shared by
/// [`algorithm1_mvc`] and the LOCAL decider
/// [`crate::distributed::MvcAlgorithm1Decider`].
///
/// `ids[v]` is the identifier of `v`; the result holds vertices of `g`.
pub(crate) fn solve_component(g: &Graph, ids: &[u64], comp: &[Vertex]) -> Vec<Vertex> {
    lmds_graph::exact::with_thread_instance(|engine, inst| {
        inst.order.clear();
        inst.order.extend_from_slice(comp);
        inst.order.sort_by_key(|&v| ids[v]);
        inst.induce(g);
        let cover =
            engine.solve_mvc(inst.graph(), u64::MAX).expect("unbounded budget cannot be exhausted");
        cover.into_iter().map(|li| inst.order[li]).collect()
    })
}

/// Algorithm 1 for MVC, centralized reference. The diagnostics keep
/// every vertex (no twin reduction), put all local-2-cut vertices in
/// `i_set` and leave `u_set` empty.
pub fn algorithm1_mvc(g: &Graph, ids: &IdAssignment, radii: Radii) -> Algorithm1Output {
    // Both masks from one fused sweep of the pooled CutEngine: the
    // endpoint mask is the deduplicated pair union directly (with the
    // engine's pair pruning and sharding), no flatten/sort/dedup pass.
    let (x, two) = local_cuts::with_thread_engine(|e| e.one_cut_and_endpoint_masks(g, radii));
    let s: Vec<bool> = x.iter().zip(&two).map(|(&a, &b)| a || b).collect();
    let mut residual_components = lmds_graph::connectivity::components_avoiding(g, &s);
    residual_components.retain(|c| c.len() >= 2);
    let id_vec: Vec<u64> = g.vertices().map(|v| ids.id_of(v)).collect();
    let brute_selected = lmds_graph::canonical_set(
        residual_components.iter().flat_map(|c| solve_component(g, &id_vec, c)),
    );
    let x_set = local_cuts::mask_to_vertices(&x);
    let i_set = local_cuts::mask_to_vertices(&two);
    let solution =
        lmds_graph::canonical_set(x_set.iter().chain(&i_set).chain(&brute_selected).copied());
    Algorithm1Output {
        solution,
        diagnostics: PipelineDiagnostics {
            kept: g.vertices().collect(),
            x_set,
            i_set,
            u_set: Vec::new(),
            brute_selected,
            residual_components,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmds_graph::vertex_cover::{exact_vertex_cover, is_vertex_cover};

    fn seq(n: usize) -> IdAssignment {
        IdAssignment::sequential(n)
    }

    #[test]
    fn covers_on_structured_graphs() {
        let graphs = vec![
            lmds_gen::basic::path(12),
            lmds_gen::basic::cycle(11),
            lmds_gen::ding::strip(6),
            lmds_gen::ding::fan(5),
            lmds_gen::outerplanar::random_maximal_outerplanar(12, 2),
            lmds_gen::adversarial::clique_with_pendants(5),
        ];
        for g in &graphs {
            for (r1, r2) in [(1, 2), (2, 3)] {
                let out = algorithm1_mvc(g, &seq(g.n()), Radii::practical(r1, r2));
                assert!(
                    is_vertex_cover(g, &out.solution),
                    "{g:?} radii ({r1},{r2}): {:?}",
                    out.solution
                );
            }
        }
    }

    #[test]
    fn two_cut_set_superset_of_interesting() {
        // The MVC variant takes *all* 2-cut vertices; on the clique with
        // pendants family that is Θ(n) — exactly the behavior the MDS
        // version avoids, acceptable for MVC because MVC itself is Θ(n)
        // there.
        let g = lmds_gen::adversarial::clique_with_pendants(6);
        let out = algorithm1_mvc(&g, &seq(g.n()), Radii::practical(3, 4));
        let interesting = crate::local_cuts::interesting_vertices(&g, 4);
        for v in &interesting {
            assert!(out.diagnostics.i_set.contains(v) || out.diagnostics.x_set.contains(v));
        }
        // MVC of the clique is n−1; ratio stays constant.
        let opt = exact_vertex_cover(&g).len();
        assert!(out.solution.len() <= 3 * opt);
    }

    #[test]
    fn brute_step_is_exact_on_cut_free_graphs() {
        // K5 is 3-connected: no local 1-cuts and no minimal 2-cuts at
        // any radius, so the brute-force step computes the exact VC.
        let g = lmds_gen::basic::complete(5);
        let out = algorithm1_mvc(&g, &seq(5), Radii::practical(4, 4));
        assert!(out.diagnostics.x_set.is_empty());
        assert!(out.diagnostics.i_set.is_empty());
        assert_eq!(out.solution.len(), exact_vertex_cover(&g).len());
        // On a cycle the MVC variant takes everything (all vertices sit
        // in minimal 2-cuts) — still a 2-approximation there.
        let c = lmds_gen::basic::cycle(8);
        let outc = algorithm1_mvc(&c, &seq(8), Radii::practical(4, 4));
        assert!(is_vertex_cover(&c, &outc.solution));
        assert!(outc.solution.len() <= 2 * exact_vertex_cover(&c).len());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(3);
        let out = algorithm1_mvc(&g, &seq(3), Radii::practical(1, 2));
        assert!(out.solution.is_empty());
    }
}
