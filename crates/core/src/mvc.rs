//! The Minimum Vertex Cover variant of Algorithm 1 (§4 closing remark):
//! take all vertices of `m_{3.3}`-local minimal 2-cuts instead of only
//! the interesting ones, plus the local 1-cut vertices, then brute-force
//! an exact vertex cover on each residual component of uncovered edges.
//!
//! No twin reduction is applied (it does not preserve MVC — a triangle
//! collapses to a single vertex with vertex cover 0 while `MVC(K₃) = 2`).

use crate::local_cuts;
use crate::radii::Radii;
use lmds_graph::{Graph, Vertex};
use lmds_localsim::IdAssignment;

/// The exact vertex cover of a (canonically encoded) residual
/// component, through the thread-pooled exact engine. Shared by the
/// centralized pipeline here and the LOCAL decider in
/// [`crate::distributed`], which must reconstruct identical covers
/// from per-node views.
pub(crate) fn residual_exact_vc(local: &Graph) -> Vec<Vertex> {
    lmds_graph::exact::with_thread_engine(|e| e.solve_mvc(local, u64::MAX))
        .expect("unbounded budget cannot be exhausted")
}

/// Output of the MVC pipeline.
#[derive(Debug, Clone)]
pub struct MvcOutput {
    /// The returned vertex cover, sorted.
    pub solution: Vec<Vertex>,
    /// Local-1-cut vertices.
    pub x_set: Vec<Vertex>,
    /// All vertices of local minimal 2-cuts.
    pub two_cut_set: Vec<Vertex>,
    /// Components of uncovered edges solved exactly.
    pub residual_components: Vec<Vec<Vertex>>,
}

/// Algorithm 1 for MVC, centralized reference.
pub fn algorithm1_mvc(g: &Graph, ids: &IdAssignment, radii: Radii) -> MvcOutput {
    // Both masks from one fused sweep of the pooled CutEngine: the
    // endpoint mask is the deduplicated pair union directly (with the
    // engine's pair pruning and sharding), no flatten/sort/dedup pass.
    let (x, two) = local_cuts::with_thread_engine(|e| e.one_cut_and_endpoint_masks(g, radii));
    let (x_set, two_cut_set) =
        (local_cuts::mask_to_vertices(&x), local_cuts::mask_to_vertices(&two));

    let mut in_s = vec![false; g.n()];
    for &v in x_set.iter().chain(&two_cut_set) {
        in_s[v] = true;
    }
    // Residual: vertices incident to an uncovered edge.
    let mut residual_verts: Vec<Vertex> = Vec::new();
    for (u, v) in g.edges() {
        if !in_s[u] && !in_s[v] {
            residual_verts.push(u);
            residual_verts.push(v);
        }
    }
    residual_verts.sort_unstable();
    residual_verts.dedup();
    // Build the graph of uncovered edges only and solve per component,
    // canonically ordered by identifier.
    let mut residual_components = Vec::new();
    let mut brute: Vec<Vertex> = Vec::new();
    if !residual_verts.is_empty() {
        let sub = lmds_graph::InducedSubgraph::new(g, &residual_verts);
        // Edges within the residual set with an S endpoint are already
        // covered; drop them.
        let h = Graph::try_from_edges(
            sub.graph.n(),
            sub.graph.edges().filter(|&(a, b)| !in_s[sub.to_host(a)] && !in_s[sub.to_host(b)]),
        )
        .expect("residual edges come from a valid graph");
        for comp in lmds_graph::connectivity::connected_components(&h) {
            if comp.len() < 2 && h.degree(comp[0]) == 0 {
                continue;
            }
            // Canonical id order within the component.
            let mut order = comp.clone();
            order.sort_by_key(|&v| ids.id_of(sub.to_host(v)));
            let local = lmds_graph::induced_in_order(&h, &order);
            let sol = residual_exact_vc(&local);
            brute.extend(sol.into_iter().map(|li| sub.to_host(order[li])));
            residual_components.push(comp.iter().map(|&v| sub.to_host(v)).collect::<Vec<_>>());
        }
    }
    let mut solution: Vec<Vertex> = Vec::new();
    solution.extend(&x_set);
    solution.extend(&two_cut_set);
    solution.extend(&brute);
    solution.sort_unstable();
    solution.dedup();
    MvcOutput { solution, x_set, two_cut_set, residual_components }
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
            assert!(out.two_cut_set.contains(v) || out.x_set.contains(v));
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
        assert!(out.x_set.is_empty());
        assert!(out.two_cut_set.is_empty());
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
