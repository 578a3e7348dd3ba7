//! Algorithm 1 (Theorem 4.1) and its Algorithm 2 generalization
//! (Theorem 4.3): the constant-approximation pipeline.
//!
//! Pipeline on input `G` with radii `(r₁, r₂) = (m_{3.2}, m_{3.3})`:
//!
//! 1. **Twin reduction** — replace `G` by its true-twin-less quotient
//!    `R`, keeping the minimum-*identifier* vertex of each class (the
//!    identifier, not the index, so the distributed version computes the
//!    same quotient).
//! 2. **`X`** — all vertices of `R` in `r₁`-local minimal 1-cuts.
//! 3. **`I`** — all `r₂`-interesting vertices of `r₂`-local minimal
//!    2-cuts of `R`.
//! 4. **Brute force** — with `S = X ∪ I`, `U = {u ∈ N[S] : N[u] ⊆ N[S]}`
//!    (dominated vertices with no undominated neighbor), every component
//!    `C` of `R − (S ∪ U)` solves `MDS(R, C ∖ N[S])` exactly; candidates
//!    automatically lie inside `C`.
//!
//! The output always dominates `G` (for *any* radii); the theoretical
//! radii are what the proved ratio requires. All tie-breaking is by
//! identifier so the centralized reference and the LOCAL deciders in
//! [`crate::distributed`] produce identical sets.

use crate::local_cuts;
use crate::radii::Radii;
use lmds_graph::{par, Graph, InducedSubgraph, Vertex, VertexSet};
use lmds_localsim::IdAssignment;

/// Below this quotient size the dominated/`U` mask passes stay
/// sequential — they are O(n + m) sweeps, so the scoped-thread spawn
/// only pays for itself on large quotients.
const MASK_PARALLEL_THRESHOLD: usize = 1 << 14;

/// Residual components are solved exactly, which is far more expensive
/// per item than a linear sweep, so per-component parallelism pays off
/// at the same (small) scale the CutEngine shards at.
const RESIDUAL_PARALLEL_THRESHOLD: usize = 640;

/// The intermediate sets of the pipeline — the MDS pipeline here or the
/// MVC variant in [`crate::mvc`] — exposed for the lemma-level
/// experiments (Lemmas 3.2, 3.3, 4.2 all measure them). Every set holds
/// host vertices, sorted, and the solution is `X ∪ I ∪` the brute-force
/// picks.
#[derive(Debug, Clone, Default)]
pub struct PipelineDiagnostics {
    /// Vertices kept by the twin reduction (every vertex for MVC).
    pub kept: VertexSet,
    /// `X`: local-1-cut vertices of the quotient.
    pub x_set: VertexSet,
    /// `I`: interesting local-2-cut vertices of the quotient (MDS), or
    /// all local-2-cut vertices (the MVC variant).
    pub i_set: VertexSet,
    /// `U`: dominated vertices with no undominated neighbor (MDS only;
    /// empty for MVC).
    pub u_set: VertexSet,
    /// Vertices added by the brute-force step.
    pub brute_selected: VertexSet,
    /// Residual components, each solved exactly: those of
    /// `R − (S ∪ U)` (MDS), or those of `G − S` that have an edge (MVC).
    pub residual_components: Vec<VertexSet>,
}

/// What the pipeline returns: a dominating set, or a vertex cover for
/// the MVC variant, and the intermediate sets behind it.
#[derive(Debug, Clone)]
pub struct Algorithm1Output {
    /// The returned set (host vertices, sorted).
    pub solution: Vec<Vertex>,
    /// The intermediate sets.
    pub diagnostics: PipelineDiagnostics,
}

/// Per-vertex masks over the twin-free quotient `R`, the shared state of
/// the centralized pipeline and the distributed deciders.
///
/// The state borrows the input graph `'g`: when the twin reduction keeps
/// every vertex (no true twins, as on the Ding-structure chains), `R` is
/// the input graph itself with identity maps, and nothing is copied.
#[derive(Debug, Clone)]
pub struct PipelineState<'g> {
    /// Indexed by input-graph vertex: kept by twin reduction?
    pub kept_mask: Vec<bool>,
    /// The quotient `R` (host = the input graph of `pipeline_state`),
    /// borrowing it when every vertex is kept.
    pub reduced: InducedSubgraph<'g>,
    /// `R`-local masks.
    pub x: Vec<bool>,
    /// `R`-local: interesting vertices.
    pub i: Vec<bool>,
    /// `R`-local: `S = X ∪ I`.
    pub s: Vec<bool>,
    /// `R`-local: dominated by `S` (`N_R[S]`).
    pub dominated: Vec<bool>,
    /// `R`-local: `U`.
    pub u: Vec<bool>,
}

/// Ablation switches for [`algorithm1_with`]: each disables one design
/// decision of the paper's pipeline so its contribution can be measured
/// (the `ablation` benches and E10 experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Step 1: collapse true twins first (paper default `true`).
    pub twin_reduction: bool,
    /// Step 3: take only *interesting* 2-cut vertices (`true`, paper) or
    /// every local-2-cut vertex (`false` — correct but ω(MDS) on the
    /// clique-with-pendants family).
    pub interesting_filter: bool,
    /// Step 4: exact brute force (`true`, paper) or the greedy cover
    /// heuristic (`false`).
    pub exact_brute: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions { twin_reduction: true, interesting_filter: true, exact_brute: true }
    }
}

/// Computes the twin reduction and the `X`/`I`/`S`/dominated/`U` masks
/// on `g` with identifier-based tie-breaking.
///
/// `ids[v]` is the identifier of vertex `v`; the functions here only
/// ever *compare* identifiers.
pub fn pipeline_state<'g>(g: &'g Graph, ids: &[u64], radii: Radii) -> PipelineState<'g> {
    pipeline_state_with(g, ids, radii, PipelineOptions::default())
}

/// [`pipeline_state`] with ablation switches.
pub fn pipeline_state_with<'g>(
    g: &'g Graph,
    ids: &[u64],
    radii: Radii,
    opts: PipelineOptions,
) -> PipelineState<'g> {
    assert_eq!(g.n(), ids.len(), "one identifier per vertex");
    let (kept_mask, reduced) = twin_quotient(g, ids, opts.twin_reduction);
    let rg = &reduced.graph;
    let rn = rg.n();

    // Both masks ride one fused sweep of the shared-work CutEngine (one
    // BFS per vertex for X and the ball index, each unordered pair once,
    // sharded outer loops on large quotients); the thread-local pool
    // reuses one engine per worker across the many per-view calls the
    // adaptive LOCAL deciders make.
    let (x, i) = local_cuts::with_thread_engine(|engine| {
        if opts.interesting_filter {
            engine.one_cut_and_interesting_masks(rg, radii)
        } else {
            engine.one_cut_and_endpoint_masks(rg, radii)
        }
    });
    let s: Vec<bool> = (0..rn).map(|v| x[v] || i[v]).collect();
    let workers = par::workers(rn, MASK_PARALLEL_THRESHOLD, rn);
    let (dominated, u) = domination_masks(rg, &s, workers);
    PipelineState { kept_mask, reduced, x, i, s, dominated, u }
}

/// Step 1, the twin reduction: which vertices of `g` are kept (the
/// minimum-identifier member of each true-twin class, or every vertex
/// when `reduce` is off) and the quotient `R` they induce, which borrows
/// `g` when every vertex is kept. Shared by the centralized pipeline,
/// Theorem 4.4 and the LOCAL decider, which reduces each view.
pub(crate) fn twin_quotient<'g>(
    g: &'g Graph,
    ids: &[u64],
    reduce: bool,
) -> (Vec<bool>, InducedSubgraph<'g>) {
    let mut kept_mask = vec![true; g.n()];
    if reduce {
        // `rep[v]` is the least vertex of `v`'s class, so an ascending
        // scan meets it first; a strict `<` keeps the first member with
        // the least identifier.
        let rep = lmds_graph::twins::twin_representatives(g);
        let mut best = rep.clone();
        for v in g.vertices() {
            if ids[v] < ids[best[rep[v]]] {
                best[rep[v]] = v;
            }
        }
        kept_mask.fill(false);
        for v in g.vertices().filter(|&v| rep[v] == v) {
            kept_mask[best[v]] = true;
        }
    }
    if kept_mask.iter().all(|&k| k) {
        return (kept_mask, InducedSubgraph::whole(g));
    }
    let kept: Vec<Vertex> = g.vertices().filter(|&v| kept_mask[v]).collect();
    (kept_mask, InducedSubgraph::new(g, &kept))
}

/// Computes the dominated mask `N_R[S]` and the `U` filter (distance-≤2
/// information from `S`) over the quotient `rg` on `workers` workers.
/// The dominated mask is built as packed bitsets — workers scatter into
/// private masks that merge by word-wise OR — so the result is
/// independent of worker count and schedule.
fn domination_masks(rg: &Graph, s: &[bool], workers: usize) -> (Vec<bool>, Vec<bool>) {
    let dominated = par::or_masks(workers, rg.n(), &mut (), |_, range, bits| {
        for v in range.filter(|&v| s[v]) {
            bits.set(v);
            for &w in rg.neighbors(v) {
                bits.set(w as usize);
            }
        }
    });
    let mut u = vec![false; rg.n()];
    par::map_chunks(workers, &mut u, &mut (), |_, v, slot| {
        *slot = dominated.contains(v)
            && !s[v]
            && rg.neighbors(v).iter().all(|&w| dominated.contains(w as usize));
    });
    (dominated.to_bools(), u)
}

/// Solves one residual component exactly and canonically: the instance
/// is built with vertices ordered by identifier, so every node of the
/// component reconstructs the identical optimum.
///
/// `comp` is given in `R`-local indices; the result is in host indices
/// of the graph `pipeline_state` ran on.
pub fn solve_component(state: &PipelineState, ids: &[u64], comp: &[Vertex]) -> Vec<Vertex> {
    solve_component_with(&state.reduced, ids, comp, |v| state.dominated[v], true)
}

/// The one residual solver: [`solve_component`] on the quotient
/// `reduced` and the dominated status of the component's members, with
/// a switch between the exact solver (paper) and the greedy heuristic
/// (ablation). The centralized pipeline reads `dominated` from its
/// masks, the LOCAL decider from its on-demand statuses.
///
/// The instance is built in the [`InstanceBuffers`] of this thread's
/// pooled exact engine, so a worker draining thousands of small
/// components reuses one order, one target list and one graph.
///
/// [`InstanceBuffers`]: lmds_graph::exact::InstanceBuffers
pub fn solve_component_with(
    reduced: &InducedSubgraph<'_>,
    ids: &[u64],
    comp: &[Vertex],
    mut dominated: impl FnMut(Vertex) -> bool,
    exact: bool,
) -> Vec<Vertex> {
    lmds_graph::exact::with_thread_instance(|engine, inst| {
        // Canonical ordering: component sorted by identifier, so
        // every node of the component builds the identical instance.
        inst.order.clear();
        inst.order.extend_from_slice(comp);
        inst.order.sort_by_key(|&v| ids[reduced.to_host(v)]);
        let order = &inst.order;
        inst.targets.clear();
        inst.targets.extend((0..order.len()).filter(|&i| !dominated(order[i])));
        if inst.targets.is_empty() {
            return Vec::new();
        }
        inst.induce(&reduced.graph);
        let sol_local = if exact {
            // The exact engine (reductions + B&B/treewidth DP): the
            // adaptive LOCAL deciders re-solve many small components
            // per simulation, and every node must reconstruct the
            // identical optimum — the engine is deterministic per
            // instance, so the canonical id-ordered encoding above
            // guarantees that.
            engine
                .solve_b_dominating(inst.graph(), &inst.targets, u64::MAX)
                .expect("an unbounded budget cannot be exhausted")
        } else {
            lmds_graph::dominating::greedy_b_dominating(inst.graph(), &inst.targets)
        };
        sol_local.into_iter().map(|li| reduced.to_host(inst.order[li])).collect()
    })
}

/// Solves every residual component (sorted, deduped union of the
/// per-component exact solutions, in host indices). Components are
/// independent exact instances drained from a shared index by
/// `workers` workers — each on its own thread-local exact engine — and
/// the final sort erases the claim order, so the result is independent
/// of scheduling.
fn solve_residuals(
    state: &PipelineState,
    ids: &[u64],
    comps: &[Vec<Vertex>],
    exact: bool,
    workers: usize,
) -> Vec<Vertex> {
    let per_worker = par::drain(workers, comps.len(), |mine: &mut Vec<Vertex>, k| {
        mine.extend(solve_component_with(
            &state.reduced,
            ids,
            &comps[k],
            |v| state.dominated[v],
            exact,
        ));
    });
    lmds_graph::canonical_set(per_worker.into_iter().flatten())
}

/// The residual components of `R − (S ∪ U)` in `R`-local indices.
pub fn residual_components(state: &PipelineState) -> Vec<Vec<Vertex>> {
    let rg = &state.reduced.graph;
    let removed: Vec<bool> = (0..rg.n()).map(|v| state.s[v] || state.u[v]).collect();
    lmds_graph::connectivity::components_avoiding(rg, &removed)
}

/// Algorithm 1 / Algorithm 2, centralized reference.
///
/// Use [`Radii::theoretical`] for the paper's parameterization or
/// [`Radii::practical`] for simulable-scale sweeps; the output is a
/// dominating set of `g` either way.
pub fn algorithm1(g: &Graph, ids: &IdAssignment, radii: Radii) -> Algorithm1Output {
    algorithm1_with(g, ids, radii, PipelineOptions::default())
}

/// [`algorithm1`] with ablation switches (see [`PipelineOptions`]).
pub fn algorithm1_with(
    g: &Graph,
    ids: &IdAssignment,
    radii: Radii,
    opts: PipelineOptions,
) -> Algorithm1Output {
    let id_vec: Vec<u64> = g.vertices().map(|v| ids.id_of(v)).collect();
    let state = pipeline_state_with(g, &id_vec, radii, opts);
    let rg_n = state.reduced.graph.n();
    let to_host = |mask: &[bool]| -> Vec<Vertex> {
        (0..rg_n).filter(|&v| mask[v]).map(|v| state.reduced.to_host(v)).collect()
    };
    let x_set = to_host(&state.x);
    let i_set = to_host(&state.i);
    let u_set = to_host(&state.u);
    let kept: Vec<Vertex> = g.vertices().filter(|&v| state.kept_mask[v]).collect();

    let comps = residual_components(&state);
    let workers = par::workers(rg_n, RESIDUAL_PARALLEL_THRESHOLD, comps.len());
    let brute_selected = solve_residuals(&state, &id_vec, &comps, opts.exact_brute, workers);

    let mut solution: Vec<Vertex> = Vec::new();
    solution.extend(&x_set);
    solution.extend(&i_set);
    solution.extend(&brute_selected);
    solution.sort_unstable();
    solution.dedup();

    let residual_host: Vec<Vec<Vertex>> = comps
        .iter()
        .map(|c| {
            let mut h: Vec<Vertex> = c.iter().map(|&v| state.reduced.to_host(v)).collect();
            h.sort_unstable();
            h
        })
        .collect();

    Algorithm1Output {
        solution,
        diagnostics: PipelineDiagnostics {
            kept,
            x_set,
            i_set,
            u_set,
            brute_selected,
            residual_components: residual_host,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmds_graph::dominating::{exact_mds, is_dominating_set};
    use lmds_graph::GraphBuilder;

    fn seq(n: usize) -> IdAssignment {
        IdAssignment::sequential(n)
    }

    fn run(g: &Graph, r1: u32, r2: u32) -> Algorithm1Output {
        algorithm1(g, &seq(g.n()), Radii::practical(r1, r2))
    }

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.cycle(&vs);
        b.build()
    }

    #[test]
    fn output_dominates_on_structured_graphs() {
        let graphs = vec![
            cycle(12),
            lmds_gen::basic::path(15),
            lmds_gen::basic::star(6),
            lmds_gen::ding::strip(5),
            lmds_gen::ding::fan(4),
            lmds_gen::adversarial::clique_with_pendants(5),
            lmds_gen::outerplanar::random_maximal_outerplanar(12, 3),
        ];
        for g in &graphs {
            for (r1, r2) in [(1, 2), (2, 3), (3, 5)] {
                let out = run(g, r1, r2);
                assert!(
                    is_dominating_set(g, &out.solution),
                    "not dominating: {g:?} radii ({r1},{r2})"
                );
            }
        }
    }

    #[test]
    fn long_cycle_takes_all_local_one_cuts() {
        // With a small radius every vertex of a long cycle is an X
        // vertex — solution = everything (the cautionary example for why
        // the *theoretical* radius matters for the ratio).
        let g = cycle(20);
        let out = run(&g, 2, 2);
        assert_eq!(out.diagnostics.x_set.len(), 20);
        // With the ball wrapping radius, no local 1-cuts: the cycle is
        // solved by brute force on bounded components... but a full
        // cycle has no cuts at all, so S = ∅ and one residual component.
        let out2 = run(&g, 10, 10);
        assert!(out2.diagnostics.x_set.is_empty());
        // ... but every vertex of a long cycle is *interesting* at the
        // wrapping radius (C_{≥6} behaves like the C6 example in §5.3),
        // so the solution is still all of V. The ratio is rescued only
        // by Lemma 3.2/3.3's counting at the theoretical radius, which
        // exceeds n here — on graphs this small the cycle is simply a
        // constant-size instance.
        assert_eq!(out2.diagnostics.i_set.len(), 20);
        assert!(is_dominating_set(&g, &out2.solution));
    }

    #[test]
    fn clique_pendant_family_stays_near_optimal() {
        // MDS = 1; the interesting-vertex filter must keep the solution
        // O(1) even though Θ(n) vertices sit in 2-cuts.
        for n in [4, 6, 8] {
            let g = lmds_gen::adversarial::clique_with_pendants(n);
            let out = run(&g, 3, 4);
            assert!(is_dominating_set(&g, &out.solution));
            assert!(out.solution.len() <= 5, "n={n}: solution {:?}", out.solution);
        }
    }

    #[test]
    fn twin_reduction_uses_ids() {
        // Triangle: all three are true twins; the kept vertex must be
        // the minimum-*identifier* one.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let ids = IdAssignment::from_ids(vec![5, 1, 9]);
        let out = algorithm1(&g, &ids, Radii::practical(2, 2));
        assert_eq!(out.diagnostics.kept, vec![1]);
        assert!(is_dominating_set(&g, &out.solution));
        assert_eq!(out.solution, vec![1]);
    }

    /// C6 with every vertex blown up into a triangle: six classes of
    /// three true twins each.
    fn blown_up_c6() -> Graph {
        let mut edges = Vec::new();
        for c in 0..6 {
            let (here, next) = (3 * c, 3 * ((c + 1) % 6));
            for i in 0..3 {
                edges.extend((i + 1..3).map(|j| (here + i, here + j)));
                edges.extend((0..3).map(|j| (here + i, next + j)));
            }
        }
        Graph::from_edges(18, &edges)
    }

    #[test]
    fn twin_quotient_keeps_the_first_least_id_member_of_each_class() {
        // The representative scan against the class-list rule it
        // replaced, under sequential and shuffled identifiers.
        let k4_minus_edge = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4)]);
        let graphs =
            [lmds_gen::basic::complete(5), lmds_gen::basic::path(2), k4_minus_edge, blown_up_c6()];
        for (k, g) in graphs.iter().enumerate() {
            assert!(!lmds_graph::twins::is_twin_free(g), "graph {k} has twins");
            let orders = [seq(g.n()), IdAssignment::shuffled(g.n(), k as u64)];
            for ids in orders.map(|a| g.vertices().map(|v| a.id_of(v)).collect::<Vec<u64>>()) {
                let mut expect = vec![false; g.n()];
                for class in lmds_graph::twins::twin_classes(g) {
                    expect[class.into_iter().min_by_key(|&v| ids[v]).unwrap()] = true;
                }
                assert_eq!(twin_quotient(g, &ids, true).0, expect, "graph {k} ids {ids:?}");
            }
        }
    }

    #[test]
    fn twin_free_quotients_borrow_their_input() {
        // No true twins: the quotient is the input itself, borrowed,
        // with identity maps, in the pipeline and on its own.
        let graphs = [
            lmds_gen::ding::scale_instance(20_000, 3),
            lmds_gen::ding::strip(400),
            lmds_gen::outerplanar::random_outerplanar(3000, 25, 1),
        ];
        for g in &graphs {
            let ids: Vec<u64> = g.vertices().map(|v| v as u64).collect();
            let (kept, reduced) = twin_quotient(g, &ids, true);
            assert!(kept.iter().all(|&k| k));
            assert!(std::ptr::eq(&*reduced.graph, g), "n = {}: the quotient copied", g.n());
            assert!(g
                .vertices()
                .all(|v| reduced.to_host(v) == v && reduced.from_host(v) == Some(v)));
            assert_eq!(reduced.from_host(g.n()), None);
            let state = pipeline_state(g, &ids, Radii::practical(1, 2));
            assert!(std::ptr::eq(&*state.reduced.graph, g));
        }
    }

    #[test]
    fn quotients_with_twins_are_built_with_unchanged_masks() {
        // The blown-up C6 keeps one vertex per class, so its quotient is
        // built; its masks are those the copying quotient produced.
        let g = blown_up_c6();
        let bits = |m: &[bool]| m.iter().map(|&b| if b { '1' } else { '0' }).collect::<String>();
        let shuffled = IdAssignment::shuffled(18, 5);
        let orders = [
            ((0..18).collect::<Vec<u64>>(), "100100100100100100", [0, 3, 6, 9, 12, 15]),
            (
                g.vertices().map(|v| shuffled.id_of(v)).collect(),
                "010100100001010100",
                [1, 3, 6, 11, 13, 15],
            ),
        ];
        for (ids, kept, host) in orders {
            for (radii, x, i) in [((1, 2), "111111", "000000"), ((3, 4), "000000", "111111")] {
                let state = pipeline_state(&g, &ids, Radii::practical(radii.0, radii.1));
                assert!(matches!(state.reduced.graph, std::borrow::Cow::Owned(_)));
                assert_eq!(bits(&state.kept_mask), kept);
                assert_eq!(state.reduced.host_vertices(), host);
                let masks = [&state.x, &state.i, &state.s, &state.dominated, &state.u];
                assert_eq!(
                    masks.map(|m| bits(m)),
                    [x, i, "111111", "111111", "000000"],
                    "{radii:?}"
                );
            }
        }
    }

    #[test]
    fn residual_components_have_bounded_diameter_on_strips() {
        // Lemma 4.2's content: on a long strip, local cuts chop the
        // residual into pieces whose diameter is O(radius), not O(n).
        let g = lmds_gen::ding::strip(20);
        let out = run(&g, 2, 3);
        for comp in &out.diagnostics.residual_components {
            let sub = lmds_graph::InducedSubgraph::new(&g, comp);
            if let Some(d) = lmds_graph::bfs::diameter(&sub.graph) {
                assert!(d <= 16, "component diameter {d} too large");
            }
        }
        assert!(is_dominating_set(&g, &out.solution));
    }

    #[test]
    fn solution_members_partition_consistently() {
        let g = lmds_gen::ding::AugmentationSpec::standard(5, 2, 2, 7).generate();
        let out = run(&g, 2, 3);
        let d = &out.diagnostics;
        assert!(is_dominating_set(&g, &out.solution));
        // X, I ⊆ solution; brute ⊆ solution.
        for &v in d.x_set.iter().chain(&d.i_set).chain(&d.brute_selected) {
            assert!(out.solution.binary_search(&v).is_ok());
        }
        // U is disjoint from S.
        for &v in &d.u_set {
            assert!(d.x_set.binary_search(&v).is_err());
            assert!(d.i_set.binary_search(&v).is_err());
        }
    }

    #[test]
    fn ablations_stay_correct_but_degrade() {
        // Every ablation still returns a dominating set; the
        // interesting-filter ablation blows up on the clique+pendants
        // family exactly as §4 predicts.
        let g = lmds_gen::adversarial::clique_with_pendants(7);
        let ids = seq(g.n());
        let radii = Radii::practical(3, 4);
        let full = algorithm1(&g, &ids, radii);
        for opts in [
            PipelineOptions { twin_reduction: false, ..Default::default() },
            PipelineOptions { interesting_filter: false, ..Default::default() },
            PipelineOptions { exact_brute: false, ..Default::default() },
        ] {
            let out = algorithm1_with(&g, &ids, radii, opts);
            assert!(is_dominating_set(&g, &out.solution), "{opts:?}");
        }
        let no_filter = algorithm1_with(
            &g,
            &ids,
            radii,
            PipelineOptions { interesting_filter: false, ..Default::default() },
        );
        assert!(
            no_filter.solution.len() > full.solution.len(),
            "dropping the interesting filter must cost on this family: {} vs {}",
            no_filter.solution.len(),
            full.solution.len()
        );
    }

    #[test]
    fn greedy_brute_never_beats_exact() {
        let g = lmds_gen::ding::AugmentationSpec::standard(5, 2, 2, 4).generate();
        let ids = seq(g.n());
        let radii = Radii::practical(2, 3);
        let exact = algorithm1(&g, &ids, radii);
        let greedy = algorithm1_with(
            &g,
            &ids,
            radii,
            PipelineOptions { exact_brute: false, ..Default::default() },
        );
        assert!(is_dominating_set(&g, &greedy.solution));
        assert!(greedy.solution.len() >= exact.solution.len());
    }

    #[test]
    fn sharded_phases_match_sequential() {
        // The production gates may resolve to one worker (small
        // quotients, small machines), so force every worker count here
        // and pin each to the sequential pipeline's results.
        let g = lmds_gen::ding::AugmentationSpec::standard(8, 4, 3, 21).generate();
        let radii = Radii::practical(2, 3);
        let ids: Vec<u64> = (0..g.n() as u64).collect();
        let state = pipeline_state(&g, &ids, radii);
        let rg = &state.reduced.graph;
        let comps = residual_components(&state);
        let brute_seq = algorithm1(&g, &seq(g.n()), radii).diagnostics.brute_selected;
        for workers in [1, 2, 4, 7] {
            let (dom, u) = domination_masks(rg, &state.s, workers);
            assert_eq!(dom, state.dominated, "dominated mask drifted at workers={workers}");
            assert_eq!(u, state.u, "U mask drifted at workers={workers}");
            let brute = solve_residuals(&state, &ids, &comps, true, workers);
            assert_eq!(brute, brute_seq, "residual solves drifted at workers={workers}");
        }
    }

    #[test]
    fn reused_instance_buffers_carry_no_state() {
        // One thread's pooled engine builds every instance below in the
        // same buffers, large and tiny interleaved, MDS and MVC; each
        // answer must equal a fresh engine's on the same instance.
        use lmds_graph::exact::ExactEngine;
        let g = lmds_gen::outerplanar::random_outerplanar(120, 25, 3);
        let reduced = InducedSubgraph::new(&g, &g.vertices().collect::<Vec<_>>());
        let ids: Vec<u64> = {
            let a = IdAssignment::shuffled(g.n(), 9);
            g.vertices().map(|v| a.id_of(v)).collect()
        };
        let large: Vec<Vertex> = g.vertices().collect();
        let tiny: Vec<Vertex> = lmds_graph::bfs::ball(&g, 7, 1);
        let order_of = |comp: &[Vertex]| {
            let mut order = comp.to_vec();
            order.sort_by_key(|&v| ids[v]);
            order
        };
        let fresh_mds = |comp: &[Vertex], dominated: &dyn Fn(Vertex) -> bool| {
            let order = order_of(comp);
            let targets: Vec<Vertex> = (0..order.len()).filter(|&i| !dominated(order[i])).collect();
            if targets.is_empty() {
                return Vec::new();
            }
            let local = lmds_graph::induced_in_order(&g, &order);
            let sol = ExactEngine::new().solve_b_dominating(&local, &targets, u64::MAX).unwrap();
            sol.into_iter().map(|li| order[li]).collect::<Vec<Vertex>>()
        };
        let fresh_mvc = |comp: &[Vertex]| {
            let order = order_of(comp);
            let local = lmds_graph::induced_in_order(&g, &order);
            let cover = ExactEngine::new().solve_mvc(&local, u64::MAX).unwrap();
            cover.into_iter().map(|li| order[li]).collect::<Vec<Vertex>>()
        };
        let masks: [&dyn Fn(Vertex) -> bool; 3] = [&|_| false, &|v| v % 3 == 0, &|v| v % 2 == 1];
        for (k, dominated) in masks.into_iter().enumerate() {
            for comp in [&large, &tiny, &large, &tiny, &large] {
                let got = solve_component_with(&reduced, &ids, comp, dominated, true);
                assert_eq!(got, fresh_mds(comp, dominated), "MDS, mask {k}, |C| = {}", comp.len());
                let got = crate::mvc::solve_component(&g, &ids, comp);
                assert_eq!(got, fresh_mvc(comp), "MVC, mask {k}, |C| = {}", comp.len());
            }
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g0 = Graph::new(0);
        let out = algorithm1(&g0, &seq(0), Radii::practical(1, 2));
        assert!(out.solution.is_empty());
        let g1 = Graph::new(1);
        let out = algorithm1(&g1, &seq(1), Radii::practical(1, 2));
        assert_eq!(out.solution, vec![0]);
        let g2 = Graph::from_edges(2, &[(0, 1)]);
        let out = algorithm1(&g2, &seq(2), Radii::practical(1, 2));
        assert!(is_dominating_set(&g2, &out.solution));
        assert_eq!(out.solution.len(), 1);
    }

    #[test]
    fn theoretical_radii_reduce_to_whole_graph_brute_on_small_inputs() {
        // On C5 no vertex is a local 1-cut at wrapping radius and no
        // vertex is interesting (§5.3: C_k with k ≤ 5 has none), so the
        // brute-force step solves the whole graph exactly.
        let g = cycle(5);
        let out = algorithm1(&g, &seq(5), Radii::theoretical(2));
        assert!(out.diagnostics.x_set.is_empty());
        assert!(out.diagnostics.i_set.is_empty());
        assert_eq!(out.solution.len(), exact_mds(&g).len());
    }
}
