//! The **exact engine** for MDS, `B`-domination, and MVC.
//!
//! The paper's Algorithm 1 ends by solving bounded-diameter residual
//! components *exactly* (Theorem 4.1 step 4), and every measured ratio
//! in the experiment harness divides by an exact optimum. This module
//! makes that oracle fast enough to stop being the scalability ceiling:
//!
//! 1. a **reduction layer** — unit-coverer forcing, subsumed-candidate
//!    and subsumed-target rules (the classic row/column domination
//!    reductions lifted to closed neighborhoods, compared within
//!    distance 2), true-twin folding riding [`crate::twins`], and
//!    component splitting riding [`crate::connectivity`] — shrinks the
//!    instance before any search. The rules run to the fixpoint of
//!    repeated passes over all vertices, but each pass examines only
//!    the vertices a flip since their last examination could have
//!    changed: the masks only flip from true to false, each rule reads a
//!    bounded radius and most flips there can only disable it, and the
//!    sweeps keep the full pass's order, so they make its flips in its
//!    order (the proof is on the two reduce functions;
//!    [`EngineStats::rule_checks`] counts the examinations). A pass
//!    over all 3,000 vertices of `random_outerplanar(3000, 25, 1)`
//!    takes 21 rounds, 189,000 examinations; the sweeps make 18,559;
//! 2. a **branch-and-bound core** with a greedy incumbent and packing /
//!    matching lower bounds, running on reusable arenas with an undo
//!    trail (no per-node allocation, unlike the naive solvers in
//!    [`crate::dominating`] / [`crate::vertex_cover`]);
//! 3. a **tree-decomposition DP** riding
//!    [`crate::treewidth::min_fill_decomposition_capped`] with full
//!    solution extraction (not just the optimum size). The MDS and MVC
//!    tables (3 and 2 colors per bag vertex) are built by one
//!    decomposition walk of introduce, forget and join steps.
//!
//! A `B`-domination instance draws its dominators from `N[targets]`,
//! the paper's `MDS(G, B)`: every target can dominate itself, so every
//! instance is feasible and the only error is an exhausted budget.
//!
//! One rule picks the kernel for each residual component, from what
//! the engine can observe: the DP when the component has at least 20
//! vertices and min-fill width at most 5 (8 for MVC), branch and bound
//! otherwise. The width test runs inside the elimination: it stops at
//! the first bag wider than the cap, so a dense component reaches
//! branch and bound without paying for a whole decomposition
//! ([`EngineStats::wide_components`] counts those). Callers cannot
//! force either kernel.
//!
//! The plain solvers in [`crate::dominating`] / [`crate::vertex_cover`]
//! are the oracle of the differential fuzz harness
//! (`tests/exact_differential.rs`): the engine must return the same
//! optimum size on the whole generator corpus, with both kernels run.
//!
//! The engine is fully deterministic: the same instance always yields
//! the same vertex set, which is what lets the LOCAL deciders and the
//! centralized pipeline reconstruct identical residual-component optima
//! from different encodings of the same component.

use crate::connectivity::components_into;
use crate::graph::{Graph, Vertex};
use crate::scratch::Scratch;
use crate::subgraph::{induce_in_order_into, InducedSubgraph};
use crate::treewidth::{min_fill_decomposition_capped, TreeDecomposition};
use crate::twins::twin_representatives;
use std::cell::RefCell;

/// Why an exact solve failed. Every instance the engine takes is
/// feasible, so the only failure is running out of budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactError {
    /// The branch-and-bound node budget ran out before optimality was
    /// proven.
    BudgetExhausted {
        /// The budget that was exhausted.
        budget: u64,
    },
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ExactError::BudgetExhausted { budget } = self;
        write!(f, "exact search budget of {budget} nodes exhausted")
    }
}

impl std::error::Error for ExactError {}

/// What the last [`ExactEngine`] solve did — surfaced so the
/// `exact-scale` experiment and the microbench can report where the
/// speedup comes from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Vertices selected by the reduction layer (no search needed).
    pub forced: usize,
    /// Residual components after reductions.
    pub components: usize,
    /// Components solved by the tree-decomposition DP.
    pub dp_components: usize,
    /// Components solved by branch and bound.
    pub bnb_components: usize,
    /// The part of `bnb_components` with at least 20 vertices: large
    /// enough for the DP, but their min-fill elimination met a bag
    /// wider than the cap.
    pub wide_components: usize,
    /// Branch-and-bound nodes expanded (all components combined).
    pub search_nodes: u64,
    /// (rule, vertex) examinations of the last solve's reduction layer:
    /// every vertex once per rule in the first round, then only the
    /// vertices a flip re-marked. A pass over all vertices per rule and
    /// round makes rules × n × rounds.
    pub rule_checks: u64,
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// Width cap for the MDS DP (table size `3^{w+1}`, join cost its
/// square — 5 keeps joins tiny).
const TW_AUTO_CAP: usize = 5;
/// Below this component size branch and bound runs (the DP's
/// decomposition overhead exceeds the whole search).
const TW_AUTO_MIN_N: usize = 20;
/// Width cap for the VC DP (2-color tables are exponentially cheaper).
const VC_TW_AUTO_CAP: usize = 8;

/// The exact solver. Owns the reusable buffers of its reduction rules
/// (a [`Scratch`] whose marks serve the 2-ball walks, the vertex-cover
/// dominance rule and the component scans) and the masks and component
/// lists of a solve; one engine can be reused across many solves and
/// graphs — see [`with_thread_engine`] for the thread-local pool.
///
/// ```
/// use lmds_graph::exact::ExactEngine;
/// use lmds_graph::Graph;
///
/// // P6: MDS = 2, MVC = 3.
/// let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
/// let mut engine = ExactEngine::new();
/// assert_eq!(engine.solve_mds(&g, u64::MAX).unwrap().len(), 2);
/// assert_eq!(engine.solve_mvc(&g, u64::MAX).unwrap().len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct ExactEngine {
    stats: EngineStats,
    /// The reduction layers and their buffers.
    rules: Reductions,
    /// Masks and component lists of the running solve.
    work: SolveBuffers,
}

/// The reduction rules of both layers, with their buffers.
#[derive(Debug, Default)]
struct Reductions {
    /// Epoch marks of the 2-ball walks, the vertex-cover dominance rule
    /// and the component scans.
    scratch: Scratch,
    /// Ball buffer.
    ball_buf: Vec<Vertex>,
    /// Coverage-set buffer.
    cov_buf: Vec<Vertex>,
    /// Per reduction rule, one bit per vertex: the vertices its next
    /// sweep examines.
    dirty: [Vec<u64>; 3],
    /// The last rule a flip marks: in the first round the rules after
    /// the running one have every vertex dirty already.
    marks_upto: usize,
}

/// The per-solve state of an [`ExactEngine`], kept between solves so a
/// pooled engine allocates nothing once it has grown.
#[derive(Debug, Default)]
struct SolveBuffers {
    needs: Vec<bool>,
    allowed: Vec<bool>,
    alive: Vec<bool>,
    /// Component `k` is `comp_verts[comp_ends[k − 1]..comp_ends[k]]`.
    comp_verts: Vec<Vertex>,
    comp_ends: Vec<usize>,
    /// A component that is not the whole instance, induced on its own.
    local: InstanceBuffers,
    local_needs: Vec<bool>,
    local_allowed: Vec<bool>,
}

/// An instance built in reused storage: the graph `G[order]`, with local
/// vertex `i` standing for host vertex `order[i]` (as in
/// [`crate::induced_in_order`]), and a target list. The thread-local
/// engine pool owns one beside its engine ([`with_thread_instance`]),
/// so a caller that solves many small instances on a pooled engine,
/// such as Algorithm 1's residual components, builds each without
/// allocating.
#[derive(Debug)]
pub struct InstanceBuffers {
    /// The host vertex of each local vertex (distinct).
    pub order: Vec<Vertex>,
    /// The targets of a `B`-domination solve, in local indices.
    pub targets: Vec<Vertex>,
    graph: Graph,
    by_host: Vec<(Vertex, Vertex)>,
    arcs: Vec<(Vertex, Vertex)>,
}

impl Default for InstanceBuffers {
    fn default() -> Self {
        InstanceBuffers {
            order: Vec::new(),
            targets: Vec::new(),
            graph: Graph::new(0),
            by_host: Vec::new(),
            arcs: Vec::new(),
        }
    }
}

impl InstanceBuffers {
    /// Rebuilds [`InstanceBuffers::graph`] as `host[order]`, reusing its
    /// storage.
    ///
    /// # Panics
    ///
    /// Panics if a vertex of `order` is out of range for `host`.
    pub fn induce(&mut self, host: &Graph) {
        induce_in_order_into(host, &self.order, &mut self.by_host, &mut self.arcs, &mut self.graph);
    }

    /// The graph the last [`InstanceBuffers::induce`] built (empty
    /// before the first).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

/// The domination rules, in the order a reduction round sweeps them.
const FORCE: usize = 0;
const CANDIDATE: usize = 1;
const TARGET: usize = 2;
/// The vertex-cover rules, in sweep order.
const DEGREE: usize = 0;
const DOMINANCE: usize = 1;

impl ExactEngine {
    /// A fresh engine (arenas grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Diagnostics of the most recent solve.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    // -- public solves -------------------------------------------------

    /// Exact minimum dominating set of `g`.
    ///
    /// # Errors
    ///
    /// [`ExactError::BudgetExhausted`] if the branch-and-bound node
    /// budget runs out (never infeasible: every graph has a dominating
    /// set).
    pub fn solve_mds(&mut self, g: &Graph, budget: u64) -> Result<Vec<Vertex>, ExactError> {
        self.stats = EngineStats::default();
        if g.n() == 0 {
            return Ok(Vec::new());
        }
        // True-twin folding (sound for whole-graph MDS: the quotient
        // preserves the domination number and any dominating set of the
        // quotient dominates the host — see `crate::twins`).
        let rep = twin_representatives(g);
        if rep.iter().enumerate().any(|(v, &r)| r != v) {
            let kept: Vec<Vertex> = g.vertices().filter(|&v| rep[v] == v).collect();
            let sub = InducedSubgraph::new(g, &kept);
            let local = self.solve_domination(&sub.graph, None, budget)?;
            return Ok(sub.set_to_host(&local));
        }
        self.solve_domination(g, None, budget)
    }

    /// Exact minimum `B`-dominating set: the smallest `S ⊆ N[targets]`
    /// with `targets ⊆ N[S]` — `MDS(G, B)` from the paper (§2), the
    /// residual-component instance of Algorithm 1 step 4. Every target
    /// can dominate itself, so the instance is always feasible.
    ///
    /// # Errors
    ///
    /// [`ExactError::BudgetExhausted`] when the search budget runs out.
    pub fn solve_b_dominating(
        &mut self,
        g: &Graph,
        targets: &[Vertex],
        budget: u64,
    ) -> Result<Vec<Vertex>, ExactError> {
        self.stats = EngineStats::default();
        if g.n() == 0 || targets.is_empty() {
            return Ok(Vec::new());
        }
        self.solve_domination(g, Some(targets), budget)
    }

    /// Exact minimum vertex cover of `g`.
    ///
    /// # Errors
    ///
    /// [`ExactError::BudgetExhausted`] if the branch-and-bound node
    /// budget runs out.
    pub fn solve_mvc(&mut self, g: &Graph, budget: u64) -> Result<Vec<Vertex>, ExactError> {
        self.stats = EngineStats::default();
        if g.n() == 0 {
            return Ok(Vec::new());
        }
        self.solve_vc(g, budget)
    }

    // -- the two pipelines ---------------------------------------------

    /// The shared domination pipeline: masks → reductions → component
    /// split → per-component DP or branch and bound. The targets are
    /// `targets` (every vertex when `None`) and the candidates
    /// `N[targets]`, so every target starts with a coverer, itself, and
    /// the reductions never remove the last coverer of a live target.
    fn solve_domination(
        &mut self,
        g: &Graph,
        targets: Option<&[Vertex]>,
        budget: u64,
    ) -> Result<Vec<Vertex>, ExactError> {
        let ExactEngine { stats, rules, work } = self;
        work.needs.clear();
        work.needs.resize(g.n(), targets.is_none());
        for &t in targets.unwrap_or_default() {
            work.needs[t] = true;
        }
        work.allowed.clear();
        work.allowed.extend(g.vertices().map(|v| closed(g, v).any(|w| work.needs[w])));

        let mut chosen: Vec<Vertex> = Vec::new();
        stats.rule_checks =
            rules.reduce_domination(g, &mut work.needs, &mut work.allowed, &mut chosen);
        stats.forced = chosen.len();
        work.dominate_components(g, stats, &mut rules.scratch, budget, &mut chosen)?;
        chosen.sort_unstable();
        chosen.dedup();
        Ok(chosen)
    }

    fn solve_vc(&mut self, g: &Graph, budget: u64) -> Result<Vec<Vertex>, ExactError> {
        let ExactEngine { stats, rules, work } = self;
        work.alive.clear();
        work.alive.resize(g.n(), true);
        let mut chosen: Vec<Vertex> = Vec::new();
        stats.rule_checks = rules.reduce_vc(g, &mut work.alive, &mut chosen);
        stats.forced = chosen.len();
        work.cover_components(g, stats, &mut rules.scratch, budget, &mut chosen)?;
        chosen.sort_unstable();
        chosen.dedup();
        Ok(chosen)
    }
}

/// The per-component rule: the decomposition the DP runs on, or `None`
/// when branch and bound should run instead — the component has fewer
/// than `TW_AUTO_MIN_N` vertices, or its min-fill elimination met a bag
/// wider than `width_cap` and stopped there. Counts the choice in
/// `stats`.
fn dp_decomposition(
    stats: &mut EngineStats,
    g: &Graph,
    width_cap: usize,
) -> Option<TreeDecomposition> {
    let td = if g.n() < TW_AUTO_MIN_N {
        None
    } else {
        let td = min_fill_decomposition_capped(g, width_cap);
        stats.wide_components += usize::from(td.is_none());
        td
    };
    if td.is_some() {
        stats.dp_components += 1;
    } else {
        stats.bnb_components += 1;
    }
    td
}

impl SolveBuffers {
    /// Splits what the domination reductions left over the
    /// still-relevant vertices and solves each component that has a
    /// target, appending its optimum to `chosen`. A component that is
    /// the whole instance is solved on `g` itself, any other on a copy
    /// induced in `local`.
    fn dominate_components(
        &mut self,
        g: &Graph,
        stats: &mut EngineStats,
        scratch: &mut Scratch,
        budget: u64,
        chosen: &mut Vec<Vertex>,
    ) -> Result<(), ExactError> {
        let SolveBuffers {
            needs,
            allowed,
            comp_verts,
            comp_ends,
            local,
            local_needs,
            local_allowed,
            ..
        } = self;
        components_into(g, scratch, |v| needs[v] || allowed[v], comp_verts, comp_ends);
        let mut spent: u64 = 0;
        let mut start = 0;
        for &end in comp_ends.iter() {
            let comp = &comp_verts[start..end];
            start = end;
            if !comp.iter().any(|&v| needs[v]) {
                continue; // pure-candidate component: nothing to cover
            }
            stats.components += 1;
            // Components are sorted, so the whole instance is `0..n` and
            // `comp[v]` maps a local vertex back to `g` in both cases.
            let (lg, needs_l, allowed_l): (&Graph, &[bool], &[bool]) = if comp.len() == g.n() {
                (g, needs, allowed)
            } else {
                local.order.clear();
                local.order.extend_from_slice(comp);
                local.induce(g);
                local_needs.clear();
                local_needs.extend(comp.iter().map(|&v| needs[v]));
                local_allowed.clear();
                local_allowed.extend(comp.iter().map(|&v| allowed[v]));
                (local.graph(), local_needs, local_allowed)
            };
            let local_sol = if let Some(td) = dp_decomposition(stats, lg, TW_AUTO_CAP) {
                mds_dp(lg, needs_l, allowed_l, &td)
            } else {
                let budget_left = budget.saturating_sub(spent);
                let (sol, nodes) = cover_bnb(lg, needs_l, allowed_l, budget_left)
                    .ok_or(ExactError::BudgetExhausted { budget })?;
                spent += nodes;
                stats.search_nodes += nodes;
                sol
            };
            chosen.extend(local_sol.into_iter().map(|v| comp[v]));
        }
        Ok(())
    }

    /// Splits the live graph left by the vertex-cover reductions and
    /// solves each component that has an edge, appending its optimum to
    /// `chosen` (the whole instance in place, as above).
    fn cover_components(
        &mut self,
        g: &Graph,
        stats: &mut EngineStats,
        scratch: &mut Scratch,
        budget: u64,
        chosen: &mut Vec<Vertex>,
    ) -> Result<(), ExactError> {
        let SolveBuffers { alive, comp_verts, comp_ends, local, .. } = self;
        components_into(g, scratch, |v| alive[v], comp_verts, comp_ends);
        let mut spent: u64 = 0;
        let mut start = 0;
        for &end in comp_ends.iter() {
            let comp = &comp_verts[start..end];
            start = end;
            if comp.len() < 2 {
                continue; // isolated live vertex: covers nothing
            }
            stats.components += 1;
            let lg = if comp.len() == g.n() {
                g
            } else {
                local.order.clear();
                local.order.extend_from_slice(comp);
                local.induce(g);
                local.graph()
            };
            let local_sol = if let Some(td) = dp_decomposition(stats, lg, VC_TW_AUTO_CAP) {
                vc_dp(lg, &td)
            } else {
                let budget_left = budget.saturating_sub(spent);
                let (sol, nodes) =
                    vc_bnb(lg, budget_left).ok_or(ExactError::BudgetExhausted { budget })?;
                spent += nodes;
                stats.search_nodes += nodes;
                sol
            };
            chosen.extend(local_sol.into_iter().map(|v| comp[v]));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The reduction layers
// ---------------------------------------------------------------------

impl Reductions {
    /// The domination reduction layer, run to fixpoint. Returns its
    /// (rule, vertex) examinations.
    ///
    /// * **unit coverer** — a target with exactly one allowed vertex in
    ///   its closed neighborhood forces that vertex;
    /// * **subsumed candidate** — a candidate whose live coverage is
    ///   contained in another candidate's is never needed (on equality
    ///   the smaller index survives); a candidate covering nothing is
    ///   dropped;
    /// * **subsumed target** — a target whose allowed coverers contain
    ///   another target's can be dropped: covering the smaller-coverer
    ///   target covers it too (on equality the smaller index survives).
    ///
    /// Comparable pairs always lie within distance 2: the target scan
    /// walks the 2-ball, and the candidate scan only the row `N[w]` of
    /// one vertex `w` it covers, where every subsumer lies. Both test
    /// membership in a closed neighborhood on the sorted adjacency
    /// ([`Graph::has_edge`]) instead of marking one per pair.
    ///
    /// A round sweeps the three rules in that order, each in ascending
    /// index, and rounds repeat until one changes nothing, as a pass
    /// over all `n` vertices per rule would — but a sweep examines only
    /// its rule's *dirty* vertices, and it makes the full pass's flips
    /// in the full pass's order, so it reaches the same fixpoint with
    /// `chosen` in the same order:
    ///
    /// * `needs` and `allowed` only flip from true to false, and a rule
    ///   at `x` is a function of bits within a bounded radius of `x`:
    ///   forcing reads `needs[x]` and `allowed` on `N[x]`; the candidate
    ///   rule `allowed` within distance 2 and `needs` within 3; the
    ///   target rule `needs` within 2 and `allowed` within 3. So an
    ///   examination that fired retired `x` from its rule for good, and
    ///   one that did not fire cannot fire again until a bit it reads
    ///   flips.
    /// * Most of those flips can only disable the rule, so only the
    ///   others re-mark `x`: forcing at `x` is enabled only by an
    ///   `allowed` flip in `N[x]` (its coverer count drops); the
    ///   candidate rule only by a `needs` flip in `N[x]` (its coverage
    ///   shrinks; every other flip it reads removes a subsumer or grows
    ///   one's relative coverage); the target rule only by an `allowed`
    ///   flip at some `y ∈ N[t₂] ∖ N[x]` for a needing `t₂` within 2 of
    ///   `x` (`y` leaves `t₂`'s coverers and stops blocking
    ///   `covr(t₂) ⊆ N[x]`; every other flip it reads removes a
    ///   subsumed target or shrinks `x`'s own coverers).
    /// * So a `needs` flip at `y` marks the live candidates of `N[y]`,
    ///   and an `allowed` flip at `y` marks forcing at the live targets
    ///   `t₂` of `N[y]` and the target rule at the live targets within 2
    ///   of each `t₂`, as the flip happens. A vertex marked ahead of the
    ///   running sweep's cursor is examined in this sweep, and one at or
    ///   behind it in the next round, which is when the full pass next
    ///   examines it; a mark for a later rule is examined in that rule's
    ///   sweep of this round. The first round marks every vertex for
    ///   every rule (a dead one returns at once), so its flips mark only
    ///   rules up to the running one: the later ones are marked already.
    /// * So every examination the full pass makes either finds the bits
    ///   it read last time, and fires in neither, or is made here too,
    ///   on the same state.
    fn reduce_domination(
        &mut self,
        g: &Graph,
        needs: &mut [bool],
        allowed: &mut [bool],
        chosen: &mut Vec<Vertex>,
    ) -> u64 {
        self.start_sweeps(g.n(), 3);
        let mut checks = 0;
        let mut first_round = true;
        loop {
            for rule in [FORCE, CANDIDATE, TARGET] {
                self.marks_upto = if first_round { rule } else { TARGET };
                let mut from = 0;
                while let Some(v) = take_dirty(&mut self.dirty[rule], from) {
                    from = v + 1;
                    checks += 1;
                    match rule {
                        FORCE => self.unit_coverer(g, v, needs, allowed, chosen),
                        CANDIDATE => self.subsumed_candidate(g, v, needs, allowed),
                        _ => self.subsumed_target(g, v, needs, allowed),
                    }
                }
            }
            first_round = false;
            if self.dirty.iter().all(|bits| bits.iter().all(|&w| w == 0)) {
                return checks;
            }
        }
    }

    /// Starts the first round on `n` vertices: the first `rules` rules
    /// mark every vertex (a dead one returns at once), the others none.
    fn start_sweeps(&mut self, n: usize, rules: usize) {
        for (rule, bits) in self.dirty.iter_mut().enumerate() {
            bits.clear();
            if rule < rules {
                bits.resize(n / 64, u64::MAX);
                if !n.is_multiple_of(64) {
                    bits.push((1 << (n % 64)) - 1);
                }
            }
        }
    }

    /// Unit coverer at target `t`.
    fn unit_coverer(
        &mut self,
        g: &Graph,
        t: Vertex,
        needs: &mut [bool],
        allowed: &mut [bool],
        chosen: &mut Vec<Vertex>,
    ) {
        if !needs[t] {
            return;
        }
        let mut only = usize::MAX;
        let mut count = 0usize;
        for u in closed(g, t) {
            if allowed[u] {
                only = u;
                count += 1;
                if count > 1 {
                    return;
                }
            }
        }
        if count == 1 {
            // Forces `only`: it covers `N[only]` and retires as a
            // candidate.
            chosen.push(only);
            for w in closed(g, only) {
                self.drop_need(g, w, needs, allowed);
            }
            self.drop_allowed(g, only, needs, allowed);
        }
    }

    /// Subsumed candidate at `u`. A subsumer `v` has every member of
    /// `cov(u)` in `N[v]`, so it lies in `N[w]` for the first member `w`
    /// (`u` itself when `u` needs): that row is the whole scan.
    fn subsumed_candidate(&mut self, g: &Graph, u: Vertex, needs: &[bool], allowed: &mut [bool]) {
        if !allowed[u] {
            return;
        }
        self.cov_buf.clear();
        self.cov_buf.extend(closed(g, u).filter(|&w| needs[w]));
        let cov = &self.cov_buf;
        let subsumed = match cov.first().copied() {
            None => true, // covers nothing
            Some(w0) => closed(g, w0).any(|v| {
                // cov(u) ⊆ cov(v) ⟺ every member of cov(u) lies in N[v]
                // (members already need).
                v != u
                    && allowed[v]
                    && cov.iter().all(|&w| w == v || g.has_edge(v, w))
                    && (v < u || cov.len() < closed(g, v).filter(|&w| needs[w]).count())
            }),
        };
        if subsumed {
            self.drop_allowed(g, u, needs, allowed);
        }
    }

    /// Subsumed target at `t`: a subsumed-by target lies within 2.
    fn subsumed_target(&mut self, g: &Graph, t: Vertex, needs: &mut [bool], allowed: &[bool]) {
        if !needs[t] {
            return;
        }
        ball2_into(g, &mut self.scratch, t, &mut self.ball_buf);
        let covr_t_len = closed(g, t).filter(|&u| allowed[u]).count();
        let subsumed = self.ball_buf.iter().any(|&t2| {
            if t2 == t || !needs[t2] {
                return false;
            }
            // covr(t2) ⊆ covr(t) ⟺ every allowed member of N[t2] lies
            // in N[t].
            let mut covr_t2_len = 0usize;
            for u in closed(g, t2) {
                if allowed[u] {
                    covr_t2_len += 1;
                    if u != t && !g.has_edge(t, u) {
                        return false;
                    }
                }
            }
            covr_t2_len < covr_t_len || t2 < t
        });
        if subsumed {
            self.drop_need(g, t, needs, allowed);
        }
    }

    /// Clears `needs[y]`; if it was set, marks the live candidates of
    /// `N[y]`, the only rule the flip can enable.
    fn drop_need(&mut self, g: &Graph, y: Vertex, needs: &mut [bool], allowed: &[bool]) {
        if needs[y] {
            needs[y] = false;
            if self.marks_upto >= CANDIDATE {
                for u in closed(g, y).filter(|&u| allowed[u]) {
                    set_dirty(&mut self.dirty[CANDIDATE], u);
                }
            }
        }
    }

    /// Clears `allowed[y]`; if it was set, marks the rules the flip can
    /// enable: forcing at the live targets of `N[y]`, and the target
    /// rule within 2 of each of them (each is a `t₂` whose coverers lost
    /// `y`).
    fn drop_allowed(&mut self, g: &Graph, y: Vertex, needs: &[bool], allowed: &mut [bool]) {
        if !allowed[y] {
            return;
        }
        allowed[y] = false;
        for t2 in closed(g, y).filter(|&t2| needs[t2]) {
            set_dirty(&mut self.dirty[FORCE], t2);
            if self.marks_upto >= TARGET {
                for x in closed(g, t2) {
                    for t in closed(g, x).filter(|&t| needs[t]) {
                        set_dirty(&mut self.dirty[TARGET], t);
                    }
                }
            }
        }
    }

    /// The vertex-cover reduction layer, run to fixpoint. Returns its
    /// (rule, vertex) examinations.
    ///
    /// * **degree 0** — an isolated live vertex covers nothing;
    /// * **degree 1** — a pendant's unique live neighbor belongs to
    ///   some optimum;
    /// * **dominance** — for a live edge `(u, v)` with
    ///   `N[u] ⊆ N[v]` within the live graph, some optimum contains
    ///   `v`.
    ///
    /// The sweeps are dirty sweeps, with the proof of
    /// [`Reductions::reduce_domination`]: `alive` only flips from true
    /// to false; the degree rule at `v` reads `alive` on `N[v]` and is
    /// enabled only by a flip in `N(v)`; dominance at `v` reads `alive`
    /// within distance 2 and is enabled only by a flip at some
    /// `w ∉ N[v]` adjacent to a live neighbour `u` of `v` (`w` stops
    /// blocking `N_live(u) ⊆ N[v]`). A flip at `y` marks both as it
    /// happens: the degree rule on the live neighbours of `y`,
    /// dominance on the live neighbours of those.
    fn reduce_vc(&mut self, g: &Graph, alive: &mut [bool], chosen: &mut Vec<Vertex>) -> u64 {
        self.start_sweeps(g.n(), 2);
        let mut checks = 0;
        let mut first_round = true;
        loop {
            for rule in [DEGREE, DOMINANCE] {
                self.marks_upto = if first_round { rule } else { DOMINANCE };
                let mut from = 0;
                while let Some(v) = take_dirty(&mut self.dirty[rule], from) {
                    from = v + 1;
                    checks += 1;
                    if rule == DEGREE {
                        self.degree_rule(g, v, alive, chosen);
                    } else {
                        self.dominance_rule(g, v, alive, chosen);
                    }
                }
            }
            first_round = false;
            if self.dirty.iter().all(|bits| bits.iter().all(|&w| w == 0)) {
                return checks;
            }
        }
    }

    /// Degree 0 and degree 1 at `v`.
    fn degree_rule(&mut self, g: &Graph, v: Vertex, alive: &mut [bool], chosen: &mut Vec<Vertex>) {
        if !alive[v] {
            return;
        }
        let mut live = g.neighbors(v).iter().map(|&u| u as Vertex).filter(|&u| alive[u]);
        match (live.next(), live.next()) {
            (None, _) => self.drop_alive(g, v, alive),
            (Some(u), None) => {
                chosen.push(u);
                self.drop_alive(g, u, alive);
                self.drop_alive(g, v, alive);
            }
            _ => {}
        }
    }

    /// Dominance at `v`: mark `N_live[v] ∪ {v}`, test each live neighbor
    /// `u` of `v` for `N_live(u) ⊆ N_live[v]`.
    fn dominance_rule(
        &mut self,
        g: &Graph,
        v: Vertex,
        alive: &mut [bool],
        chosen: &mut Vec<Vertex>,
    ) {
        if !alive[v] {
            return;
        }
        self.scratch.begin(g.n());
        self.scratch.visit(v);
        for &w in g.neighbors(v) {
            if alive[w as usize] {
                self.scratch.visit(w as Vertex);
            }
        }
        let scratch = &self.scratch;
        let take_v = g.neighbors(v).iter().map(|&u| u as Vertex).any(|u| {
            alive[u]
                && g.neighbors(u)
                    .iter()
                    .all(|&w| !alive[w as usize] || scratch.visited(w as Vertex))
        });
        if take_v {
            chosen.push(v);
            self.drop_alive(g, v, alive);
        }
    }

    /// Clears `alive[y]` and marks the rules the flip can enable: the
    /// degree rule on the live neighbours of `y`, dominance on their
    /// live neighbours.
    fn drop_alive(&mut self, g: &Graph, y: Vertex, alive: &mut [bool]) {
        alive[y] = false;
        let dominance = self.marks_upto >= DOMINANCE;
        for u in g.neighbors(y).iter().map(|&u| u as Vertex).filter(|&u| alive[u]) {
            set_dirty(&mut self.dirty[DEGREE], u);
            if dominance {
                for w in g.neighbors(u).iter().map(|&w| w as Vertex).filter(|&w| alive[w]) {
                    set_dirty(&mut self.dirty[DOMINANCE], w);
                }
            }
        }
    }
}

/// Sets bit `v` of a dirty set.
fn set_dirty(bits: &mut [u64], v: Vertex) {
    bits[v / 64] |= 1 << (v % 64);
}

/// Clears and returns the least set bit at or after `from`, if any: the
/// next vertex a sweep whose cursor stands at `from` examines. Bits
/// below `from` stay for the next round.
fn take_dirty(bits: &mut [u64], from: usize) -> Option<Vertex> {
    let mut w = from / 64;
    let mut word = *bits.get(w)? & (u64::MAX << (from % 64));
    while word == 0 {
        w += 1;
        word = *bits.get(w)?;
    }
    let b = word.trailing_zeros() as usize;
    bits[w] &= !(1 << b);
    Some(w * 64 + b)
}

/// Iterates the closed neighborhood `N[v]` (order: `v`, then sorted
/// neighbors).
fn closed(g: &Graph, v: Vertex) -> impl Iterator<Item = Vertex> + '_ {
    std::iter::once(v).chain(g.neighbors(v).iter().map(|&u| u as Vertex))
}

/// Fills `out` with the 2-ball `N²[v]`, unsorted: `v`, its neighbors,
/// then theirs, marked on `scratch`. The subsumption scans only need
/// the members, so this skips the distances and the sort of
/// [`crate::bfs::ball_of_set_into`]: with those, Algorithm 1's residual
/// solves on `scale_instance(10⁵, 3)` at radii (3, 4) took about a fifth
/// longer (process CPU time on a 2-core x86-64 box).
fn ball2_into(g: &Graph, scratch: &mut Scratch, v: Vertex, out: &mut Vec<Vertex>) {
    scratch.begin(g.n());
    out.clear();
    out.extend(closed(g, v).filter(|&u| scratch.visit(u)));
    for i in 1..out.len() {
        for &w in g.neighbors(out[i]) {
            if scratch.visit(w as Vertex) {
                out.push(w as Vertex);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Thread-local engine pool
// ---------------------------------------------------------------------

thread_local! {
    static ENGINE_POOL: RefCell<(ExactEngine, InstanceBuffers)> =
        RefCell::new((ExactEngine::new(), InstanceBuffers::default()));
}

/// Runs `f` on this thread's pooled [`ExactEngine`] (falling back to a
/// fresh engine under reentrancy). The residual-component solves of the
/// Algorithm 1 pipeline and its LOCAL deciders all ride this pool, so
/// one warmed arena serves the many small solves a simulation makes.
pub fn with_thread_engine<R>(f: impl FnOnce(&mut ExactEngine) -> R) -> R {
    with_thread_instance(|engine, _| f(engine))
}

/// [`with_thread_engine`] with the pool's [`InstanceBuffers`] beside the
/// engine: `f` builds an instance in the buffers and solves it on the
/// engine. The buffers keep their capacity from one call to the next
/// and carry nothing else over, so every field is `f`'s to fill.
pub fn with_thread_instance<R>(f: impl FnOnce(&mut ExactEngine, &mut InstanceBuffers) -> R) -> R {
    ENGINE_POOL.with(|cell| match cell.try_borrow_mut() {
        Ok(mut pool) => {
            let (engine, instance) = &mut *pool;
            f(engine, instance)
        }
        Err(_) => f(&mut ExactEngine::new(), &mut InstanceBuffers::default()),
    })
}

// ---------------------------------------------------------------------
// Branch and bound: set-cover search on arenas
// ---------------------------------------------------------------------

/// Exact minimum cover of the `needs` vertices by closed neighborhoods
/// of `allowed` vertices, by branch and bound with an undo trail.
/// Returns `(solution, nodes_expanded)` or `None` on budget
/// exhaustion. Deterministic.
fn cover_bnb(
    g: &Graph,
    needs: &[bool],
    allowed: &[bool],
    budget: u64,
) -> Option<(Vec<Vertex>, u64)> {
    let n = g.n();
    // Dense target/candidate indexing.
    let mut target_idx = vec![usize::MAX; n];
    let mut targets: Vec<Vertex> = Vec::new();
    for v in 0..n {
        if needs[v] {
            target_idx[v] = targets.len();
            targets.push(v);
        }
    }
    let mut cand_idx = vec![usize::MAX; n];
    let mut cands: Vec<Vertex> = Vec::new();
    for v in 0..n {
        if allowed[v] {
            cand_idx[v] = cands.len();
            cands.push(v);
        }
    }
    let mut covers: Vec<Vec<u32>> = Vec::with_capacity(cands.len());
    let mut covered_by: Vec<Vec<u32>> = vec![Vec::new(); targets.len()];
    for (ci, &c) in cands.iter().enumerate() {
        let mut cov: Vec<u32> = closed(g, c)
            .filter(|&w| target_idx[w] != usize::MAX)
            .map(|w| target_idx[w] as u32)
            .collect();
        cov.sort_unstable();
        for &t in &cov {
            covered_by[t as usize].push(ci as u32);
        }
        covers.push(cov);
    }
    debug_assert!(covered_by.iter().all(|c| !c.is_empty()), "every target keeps a coverer");

    let mut search = CoverSearch {
        covers,
        covered_by,
        cover_count: vec![0; targets.len()],
        banned: vec![false; cands.len()],
        remaining: targets.len(),
        current: Vec::new(),
        best: Vec::new(),
        lb_target: vec![0; targets.len()],
        lb_cand: vec![0; cands.len()],
        lb_epoch: 0,
        depth_scratch: Vec::new(),
        nodes: 0,
        budget,
    };
    search.best = crate::dominating::greedy_cover(&search.covers, targets.len());
    let complete = search.branch(0);
    if !complete {
        return None;
    }
    let mut sol: Vec<Vertex> = search.best.iter().map(|&ci| cands[ci as usize]).collect();
    sol.sort_unstable();
    Some((sol, search.nodes))
}

struct CoverSearch {
    covers: Vec<Vec<u32>>,
    covered_by: Vec<Vec<u32>>,
    cover_count: Vec<u32>,
    banned: Vec<bool>,
    remaining: usize,
    current: Vec<u32>,
    best: Vec<u32>,
    lb_target: Vec<u32>,
    lb_cand: Vec<u32>,
    lb_epoch: u32,
    depth_scratch: Vec<Vec<u32>>,
    nodes: u64,
    budget: u64,
}

impl CoverSearch {
    fn choose(&mut self, ci: u32) {
        self.current.push(ci);
        for &t in &self.covers[ci as usize] {
            let c = &mut self.cover_count[t as usize];
            *c += 1;
            if *c == 1 {
                self.remaining -= 1;
            }
        }
    }

    fn unchoose(&mut self, ci: u32) {
        let popped = self.current.pop();
        debug_assert_eq!(popped, Some(ci));
        for &t in &self.covers[ci as usize] {
            let c = &mut self.cover_count[t as usize];
            *c -= 1;
            if *c == 0 {
                self.remaining += 1;
            }
        }
    }

    /// Greedy disjoint-packing lower bound over uncovered targets, on
    /// epoch-marked arenas (no allocation).
    fn lower_bound(&mut self) -> usize {
        self.lb_epoch = self.lb_epoch.wrapping_add(1);
        if self.lb_epoch == 0 {
            self.lb_target.fill(0);
            self.lb_cand.fill(0);
            self.lb_epoch = 1;
        }
        let epoch = self.lb_epoch;
        let mut packing = 0usize;
        for t in 0..self.cover_count.len() {
            if self.cover_count[t] > 0 || self.lb_target[t] == epoch {
                continue;
            }
            let shares = self.covered_by[t]
                .iter()
                .any(|&c| !self.banned[c as usize] && self.lb_cand[c as usize] == epoch);
            if shares {
                continue;
            }
            packing += 1;
            self.lb_target[t] = epoch;
            for &c in &self.covered_by[t] {
                if !self.banned[c as usize] {
                    self.lb_cand[c as usize] = epoch;
                }
            }
        }
        packing
    }

    /// Returns `false` when the budget ran out (search incomplete).
    fn branch(&mut self, depth: usize) -> bool {
        self.nodes += 1;
        if self.nodes > self.budget {
            return false;
        }
        if self.remaining == 0 {
            if self.current.len() < self.best.len() {
                self.best = self.current.clone();
            }
            return true;
        }
        if self.current.len() + self.lower_bound() >= self.best.len() {
            return true;
        }
        // Pick the uncovered target with the fewest available coverers.
        let mut pick = usize::MAX;
        let mut pick_count = usize::MAX;
        for t in 0..self.cover_count.len() {
            if self.cover_count[t] > 0 {
                continue;
            }
            let avail = self.covered_by[t].iter().filter(|&&c| !self.banned[c as usize]).count();
            if avail < pick_count {
                pick = t;
                pick_count = avail;
            }
        }
        debug_assert!(pick != usize::MAX);
        if pick_count == 0 {
            return true; // bans made this branch infeasible
        }
        if self.depth_scratch.len() <= depth {
            self.depth_scratch.resize_with(depth + 1, Vec::new);
        }
        let mut options = std::mem::take(&mut self.depth_scratch[depth]);
        options.clear();
        options.extend(self.covered_by[pick].iter().copied().filter(|&c| !self.banned[c as usize]));
        // Most coverage first, tie → smallest index.
        options.sort_by_key(|&c| (std::cmp::Reverse(self.covers[c as usize].len()), c));
        let mut complete = true;
        for i in 0..options.len() {
            // Branch i: include options[i], exclude options[..i].
            for &earlier in &options[..i] {
                self.banned[earlier as usize] = true;
            }
            let ci = options[i];
            self.choose(ci);
            let ok = self.branch(depth + 1);
            self.unchoose(ci);
            for &earlier in &options[..i] {
                self.banned[earlier as usize] = false;
            }
            if !ok {
                complete = false;
                break;
            }
        }
        self.depth_scratch[depth] = options;
        complete
    }
}

// ---------------------------------------------------------------------
// Branch and bound: vertex cover on a trail
// ---------------------------------------------------------------------

/// Exact minimum vertex cover by branch and bound with degree-0/1
/// inline reductions, a matching lower bound, and an undo trail (no
/// per-node cloning). Returns `(solution, nodes)` or `None` on budget
/// exhaustion. Deterministic.
fn vc_bnb(g: &Graph, budget: u64) -> Option<(Vec<Vertex>, u64)> {
    let n = g.n();
    let mut search = VcSearch {
        g,
        alive: vec![true; n],
        live_deg: (0..n).map(|v| g.degree(v) as u32).collect(),
        current: Vec::new(),
        best: crate::vertex_cover::matching_vertex_cover(g),
        removed: Vec::new(),
        matched: vec![0; n],
        epoch: 0,
        nodes: 0,
        budget,
    };
    let complete = search.branch();
    if !complete {
        return None;
    }
    let mut best = search.best;
    best.sort_unstable();
    Some((best, search.nodes))
}

struct VcSearch<'g> {
    g: &'g Graph,
    alive: Vec<bool>,
    live_deg: Vec<u32>,
    current: Vec<Vertex>,
    best: Vec<Vertex>,
    /// Removal trail for undo (in removal order).
    removed: Vec<Vertex>,
    matched: Vec<u32>,
    epoch: u32,
    nodes: u64,
    budget: u64,
}

impl VcSearch<'_> {
    fn remove(&mut self, v: Vertex) {
        debug_assert!(self.alive[v]);
        self.alive[v] = false;
        for &w in self.g.neighbors(v) {
            if self.alive[w as usize] {
                self.live_deg[w as usize] -= 1;
            }
        }
        self.removed.push(v);
    }

    /// Undoes removals back to trail length `cp` (reverse order).
    fn restore(&mut self, cp: usize) {
        while self.removed.len() > cp {
            let v = self.removed.pop().expect("trail nonempty");
            self.alive[v] = true;
            let mut deg = 0;
            for &w in self.g.neighbors(v) {
                if self.alive[w as usize] {
                    self.live_deg[w as usize] += 1;
                    deg += 1;
                }
            }
            self.live_deg[v] = deg;
        }
    }

    /// Greedy maximal matching within the live subgraph (lower bound),
    /// on an epoch-marked arena.
    fn matching_bound(&mut self) -> usize {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.matched.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let mut lb = 0;
        for u in self.g.vertices() {
            if !self.alive[u] || self.matched[u] == epoch {
                continue;
            }
            for &v in self.g.neighbors(u) {
                let v = v as Vertex;
                if u < v && self.alive[v] && self.matched[v] != epoch {
                    self.matched[u] = epoch;
                    self.matched[v] = epoch;
                    lb += 1;
                    break;
                }
            }
        }
        lb
    }

    fn branch(&mut self) -> bool {
        self.nodes += 1;
        if self.nodes > self.budget {
            return false;
        }
        let trail_cp = self.removed.len();
        let cur_cp = self.current.len();
        // Inline degree-0/1 reductions to fixpoint.
        let mut changed = true;
        while changed {
            changed = false;
            for v in self.g.vertices() {
                if !self.alive[v] {
                    continue;
                }
                match self.live_deg[v] {
                    0 => {
                        self.remove(v);
                        changed = true;
                    }
                    1 => {
                        let u = *self
                            .g
                            .neighbors(v)
                            .iter()
                            .find(|&&u| self.alive[u as usize])
                            .expect("degree-1 vertex has a live neighbor")
                            as Vertex;
                        self.current.push(u);
                        self.remove(u);
                        self.remove(v);
                        changed = true;
                    }
                    _ => {}
                }
            }
        }
        let result = self.branch_core();
        self.current.truncate(cur_cp);
        self.restore(trail_cp);
        result
    }

    fn branch_core(&mut self) -> bool {
        // Branch vertex: maximum live degree, tie → smallest index.
        let mut pick = usize::MAX;
        let mut pick_deg = 0u32;
        for v in self.g.vertices() {
            if self.alive[v] && self.live_deg[v] > pick_deg {
                pick = v;
                pick_deg = self.live_deg[v];
            }
        }
        if pick == usize::MAX {
            // No live vertices: the current selection is a cover.
            if self.current.len() < self.best.len() {
                self.best = self.current.clone();
            }
            return true;
        }
        if self.current.len() + self.matching_bound() >= self.best.len() {
            return true;
        }
        // Branch A: take pick.
        {
            let cp = self.removed.len();
            self.current.push(pick);
            self.remove(pick);
            let ok = self.branch();
            self.current.pop();
            self.restore(cp);
            if !ok {
                return false;
            }
        }
        // Branch B: exclude pick → take all its live neighbors.
        {
            let cp = self.removed.len();
            let cur_cp = self.current.len();
            self.remove(pick);
            let nb: Vec<Vertex> = self
                .g
                .neighbors(pick)
                .iter()
                .map(|&u| u as Vertex)
                .filter(|&u| self.alive[u])
                .collect();
            for &u in &nb {
                self.current.push(u);
                self.remove(u);
            }
            let ok = self.branch();
            self.current.truncate(cur_cp);
            self.restore(cp);
            if !ok {
                return false;
            }
        }
        true
    }
}

// ---------------------------------------------------------------------
// Tree-decomposition DP with solution extraction
// ---------------------------------------------------------------------

const INF: u64 = u64::MAX / 4;

/// Powers of 3 up to the largest bag the width caps permit.
const POW3: [usize; 13] = {
    let mut p = [1usize; 13];
    let mut i = 1;
    while i < 13 {
        p[i] = p[i - 1] * 3;
        i += 1;
    }
    p
};

#[inline]
fn get3(state: usize, i: usize) -> usize {
    (state / POW3[i]) % 3
}

#[inline]
fn set3(state: usize, i: usize, c: usize) -> usize {
    state - get3(state, i) * POW3[i] + c * POW3[i]
}

/// Inserts a slot with color `c` at position `pos` (shifting higher
/// slots up one trit).
fn insert3(state: usize, k_old: usize, pos: usize, c: usize) -> usize {
    debug_assert!(pos <= k_old);
    let low = state % POW3[pos];
    let high = state / POW3[pos];
    low + c * POW3[pos] + high * POW3[pos + 1]
}

/// Removes the slot at `pos`.
fn project3(state: usize, pos: usize) -> usize {
    let low = state % POW3[pos];
    let high = state / POW3[pos + 1];
    low + high * POW3[pos]
}

/// MDS DP colors: `S` = chosen, `D` = dominated, `U` = neither.
const C_S: usize = 0;
const C_D: usize = 1;
const C_U: usize = 2;

/// The step that built a DP table, kept for the traceback.
enum DpOp {
    Leaf,
    Introduce { src: usize, v: Vertex },
    Forget { src: usize, v: Vertex },
    Join { a: usize, b: usize },
}

/// The tables of one DP run: per table, the step that built it, its
/// sorted bag, and its values indexed by the coloring of the bag.
struct DpTables {
    ops: Vec<DpOp>,
    bags: Vec<Vec<Vertex>>,
    values: Vec<Vec<u64>>,
}

impl DpTables {
    fn push(&mut self, op: DpOp, bag: Vec<Vertex>, values: Vec<u64>) -> usize {
        self.ops.push(op);
        self.bags.push(bag);
        self.values.push(values);
        self.ops.len() - 1
    }

    /// The bag of table `src` with `v` inserted, and `v`'s position in
    /// it.
    fn bag_with(&self, src: usize, v: Vertex) -> (Vec<Vertex>, usize) {
        let mut bag = self.bags[src].clone();
        let pos = bag.binary_search(&v).expect_err("introduced vertex is not in the bag");
        bag.insert(pos, v);
        (bag, pos)
    }

    /// The bag of table `src` without `v`, and `v`'s position in the
    /// bag of `src`.
    fn bag_without(&self, src: usize, v: Vertex) -> (Vec<Vertex>, usize) {
        let mut bag = self.bags[src].clone();
        let pos = bag.binary_search(&v).expect("forgotten vertex is in the bag");
        bag.remove(pos);
        (bag, pos)
    }
}

/// The decomposition walk of both DPs. Roots `td` at bag 0 and builds
/// the bags' tables children first: each child's table has the vertices
/// outside the bag forgotten and the bag's missing ones introduced; the
/// first such table is the bag's start and the others are joined in. A
/// bag without children introduces its vertices into the empty leaf
/// table instead. (Starting a bag with children from that leaf table
/// and joining its first child gives the child's table entry for entry:
/// the leaf table has one finite state per chosen set, and the child's
/// finite states already account for every edge inside the bag.) The
/// kernel's `introduce`, `forget` and `join` each push one table and
/// return its index. Returns the tables and the root bag's table.
fn dp_walk(
    td: &TreeDecomposition,
    introduce: impl Fn(&mut DpTables, usize, Vertex) -> usize,
    forget: impl Fn(&mut DpTables, usize, Vertex) -> usize,
    join: impl Fn(&mut DpTables, usize, usize) -> usize,
) -> (DpTables, usize) {
    let b = td.bags.len();
    let mut tadj: Vec<Vec<usize>> = vec![Vec::new(); b];
    for &(x, y) in &td.edges {
        tadj[x].push(y);
        tadj[y].push(x);
    }
    // Iterative pre-order from bag 0; reversed, children come first.
    let mut parent = vec![usize::MAX; b];
    let mut order = Vec::with_capacity(b);
    let mut stack = vec![0usize];
    let mut seen = vec![false; b];
    seen[0] = true;
    while let Some(x) = stack.pop() {
        order.push(x);
        for &y in &tadj[x] {
            if !seen[y] {
                seen[y] = true;
                parent[y] = x;
                stack.push(y);
            }
        }
    }

    let mut tables = DpTables { ops: Vec::new(), bags: Vec::new(), values: Vec::new() };
    let mut final_table = vec![usize::MAX; b];
    for &node in order.iter().rev() {
        let bag = &td.bags[node];
        let mut cur = None;
        for &child in &tadj[node] {
            if parent[child] != node {
                continue;
            }
            let mut ct = final_table[child];
            let extras: Vec<Vertex> =
                tables.bags[ct].iter().copied().filter(|v| bag.binary_search(v).is_err()).collect();
            for v in extras {
                ct = forget(&mut tables, ct, v);
            }
            let missing: Vec<Vertex> =
                bag.iter().copied().filter(|v| tables.bags[ct].binary_search(v).is_err()).collect();
            for v in missing {
                ct = introduce(&mut tables, ct, v);
            }
            cur = Some(match cur {
                None => ct,
                Some(acc) => join(&mut tables, acc, ct),
            });
        }
        final_table[node] = cur.unwrap_or_else(|| {
            let mut leaf = tables.push(DpOp::Leaf, Vec::new(), vec![0]);
            for &v in bag {
                leaf = introduce(&mut tables, leaf, v);
            }
            leaf
        });
    }
    (tables, final_table[0])
}

/// Positions in `bag` of `v`'s graph neighbors.
fn neighbor_positions(g: &Graph, bag: &[Vertex], v: Vertex) -> Vec<usize> {
    (0..bag.len()).filter(|&i| g.has_edge(v, bag[i])).collect()
}

/// Exact minimum domination of the `needs` vertices by `allowed`
/// vertices via DP over the caller's (min-fill) tree decomposition,
/// **with solution extraction**. The caller guarantees the width is
/// within the engine's caps; feasibility is the caller's invariant
/// (targets always retain a coverer).
fn mds_dp(g: &Graph, needs: &[bool], allowed: &[bool], td: &TreeDecomposition) -> Vec<Vertex> {
    let n = g.n();
    debug_assert!(n > 0);
    let (tables, root) = dp_walk(
        td,
        |tables, src, v| dp_introduce(g, allowed, tables, src, v),
        |tables, src, v| dp_forget(needs, tables, src, v),
        dp_join,
    );

    // Root: minimize over states where every needing bag vertex is
    // dominated or chosen.
    let bag = &tables.bags[root];
    let mut best_state = usize::MAX;
    let mut best_val = INF;
    for (state, &val) in tables.values[root].iter().enumerate() {
        if val >= best_val {
            continue;
        }
        let ok = bag.iter().enumerate().all(|(i, &v)| get3(state, i) != C_U || !needs[v]);
        if ok {
            best_val = val;
            best_state = state;
        }
    }
    debug_assert!(best_state != usize::MAX, "feasible instance has a valid root state");

    // Traceback (explicit stack, lazy provenance search).
    let mut chosen = vec![false; n];
    let mut frames = vec![(root, best_state)];
    while let Some((table, state)) = frames.pop() {
        let value = tables.values[table][state];
        match tables.ops[table] {
            DpOp::Leaf => {}
            DpOp::Introduce { src, v } => {
                let pos = tables.bags[table].binary_search(&v).expect("v in bag");
                match get3(state, pos) {
                    C_S => {
                        chosen[v] = true;
                        // Search the source state that maps here with
                        // cost value − 1.
                        let nbrs = neighbor_positions(g, &tables.bags[table], v);
                        let mut found = false;
                        for (s_old, &val_old) in tables.values[src].iter().enumerate() {
                            if val_old >= INF || val_old + 1 != value {
                                continue;
                            }
                            let mut s_new = insert3(s_old, tables.bags[src].len(), pos, C_S);
                            for &ni in &nbrs {
                                if get3(s_new, ni) == C_U {
                                    s_new = set3(s_new, ni, C_D);
                                }
                            }
                            if s_new == state {
                                frames.push((src, s_old));
                                found = true;
                                break;
                            }
                        }
                        debug_assert!(found, "introduce-S provenance exists");
                    }
                    _ => {
                        // D/U cases leave other slots untouched: the
                        // source state is the unique projection.
                        frames.push((src, project3(state, pos)));
                    }
                }
            }
            DpOp::Forget { src, v } => {
                let pos = tables.bags[src].binary_search(&v).expect("v in source bag");
                let mut found = false;
                for c in [C_S, C_D, C_U] {
                    if c == C_U && needs[v] {
                        continue;
                    }
                    let s_old = insert3(state, tables.bags[table].len(), pos, c);
                    if tables.values[src][s_old] == value {
                        frames.push((src, s_old));
                        found = true;
                        break;
                    }
                }
                debug_assert!(found, "forget provenance exists");
            }
            DpOp::Join { a, b } => {
                let k = tables.bags[table].len();
                let mut found = false;
                'outer: for (sa, &va) in tables.values[a].iter().enumerate() {
                    if va >= INF || va > value {
                        continue;
                    }
                    for (sb, &vb) in tables.values[b].iter().enumerate() {
                        if vb >= INF {
                            continue;
                        }
                        if let Some((s, in_set)) = dp_combine(sa, sb, k) {
                            if s == state && va + vb - in_set == value {
                                frames.push((a, sa));
                                frames.push((b, sb));
                                found = true;
                                break 'outer;
                            }
                        }
                    }
                }
                debug_assert!(found, "join provenance exists");
            }
        }
    }
    (0..n).filter(|&v| chosen[v]).collect()
}

fn dp_introduce(
    g: &Graph,
    allowed: &[bool],
    tables: &mut DpTables,
    src: usize,
    v: Vertex,
) -> usize {
    let (bag, pos) = tables.bag_with(src, v);
    let nbrs = neighbor_positions(g, &bag, v);
    let mut values = vec![INF; POW3[bag.len()]];
    for (s_old, &val) in tables.values[src].iter().enumerate() {
        if val >= INF {
            continue;
        }
        let base = insert3(s_old, bag.len() - 1, pos, C_U);
        // Case S: v chosen — U-neighbors become dominated.
        if allowed[v] {
            let mut s = set3(base, pos, C_S);
            for &ni in &nbrs {
                if get3(s, ni) == C_U {
                    s = set3(s, ni, C_D);
                }
            }
            if val + 1 < values[s] {
                values[s] = val + 1;
            }
        }
        // Cases D/U: exact semantics — D iff a bag neighbor is chosen.
        let has_s = nbrs.iter().any(|&ni| get3(base, ni) == C_S);
        let s = set3(base, pos, if has_s { C_D } else { C_U });
        if val < values[s] {
            values[s] = val;
        }
    }
    tables.push(DpOp::Introduce { src, v }, bag, values)
}

fn dp_forget(needs: &[bool], tables: &mut DpTables, src: usize, v: Vertex) -> usize {
    let (bag, pos) = tables.bag_without(src, v);
    let mut values = vec![INF; POW3[bag.len()]];
    for (s_old, &val) in tables.values[src].iter().enumerate() {
        if val >= INF {
            continue;
        }
        if get3(s_old, pos) == C_U && needs[v] {
            continue; // a needing vertex may not leave undominated
        }
        let s = project3(s_old, pos);
        if val < values[s] {
            values[s] = val;
        }
    }
    tables.push(DpOp::Forget { src, v }, bag, values)
}

/// Slotwise join combination: `(S,S) → S` (counted in `in_set`),
/// `(U,U) → U`, one-sided `S` is invalid, anything else `→ D`.
fn dp_combine(sa: usize, sb: usize, k: usize) -> Option<(usize, u64)> {
    let mut s = 0usize;
    let mut in_set = 0u64;
    for i in 0..k {
        let (ca, cb) = (get3(sa, i), get3(sb, i));
        let c = match (ca, cb) {
            (C_S, C_S) => {
                in_set += 1;
                C_S
            }
            (C_S, _) | (_, C_S) => return None,
            (C_U, C_U) => C_U,
            _ => C_D,
        };
        s = set3(s, i, c);
    }
    Some((s, in_set))
}

fn dp_join(tables: &mut DpTables, a: usize, b: usize) -> usize {
    debug_assert_eq!(tables.bags[a], tables.bags[b]);
    let bag = tables.bags[a].clone();
    let k = bag.len();
    let mut values = vec![INF; POW3[k]];
    for (sa, &va) in tables.values[a].iter().enumerate() {
        if va >= INF {
            continue;
        }
        for (sb, &vb) in tables.values[b].iter().enumerate() {
            if vb >= INF {
                continue;
            }
            if let Some((s, in_set)) = dp_combine(sa, sb, k) {
                let v = va + vb - in_set;
                if v < values[s] {
                    values[s] = v;
                }
            }
        }
    }
    tables.push(DpOp::Join { a, b }, bag, values)
}

// ---------------------------------------------------------------------
// VC DP (2 colors) with solution extraction
// ---------------------------------------------------------------------

/// VC colors: bit 1 = in the cover. Runs over the caller's (min-fill)
/// tree decomposition.
fn vc_dp(g: &Graph, td: &TreeDecomposition) -> Vec<Vertex> {
    let n = g.n();
    debug_assert!(n > 0);
    let (tables, root) =
        dp_walk(td, |tables, src, v| vc_introduce(g, tables, src, v), vc_forget, vc_join);

    let mut best_state = 0usize;
    let mut best_val = INF;
    for (state, &val) in tables.values[root].iter().enumerate() {
        if val < best_val {
            best_val = val;
            best_state = state;
        }
    }
    debug_assert!(best_val < INF);

    let mut chosen = vec![false; n];
    let mut frames = vec![(root, best_state)];
    while let Some((table, state)) = frames.pop() {
        let value = tables.values[table][state];
        match tables.ops[table] {
            DpOp::Leaf => {}
            DpOp::Introduce { src, v } => {
                let pos = tables.bags[table].binary_search(&v).expect("v in bag");
                let in_cover = (state >> pos) & 1 == 1;
                if in_cover {
                    chosen[v] = true;
                }
                let s_old = project2(state, pos);
                frames.push((src, s_old));
            }
            DpOp::Forget { src, v } => {
                let pos = tables.bags[src].binary_search(&v).expect("v in source bag");
                let mut found = false;
                for c in [0usize, 1] {
                    let s_old = insert2(state, pos, c);
                    if tables.values[src][s_old] == value {
                        frames.push((src, s_old));
                        found = true;
                        break;
                    }
                }
                debug_assert!(found, "forget provenance exists");
            }
            DpOp::Join { a, b } => {
                // Membership agrees slotwise, so both sides share the
                // state; value = va + vb − |In slots|.
                let k = tables.bags[table].len();
                let in_count = (0..k).filter(|&i| (state >> i) & 1 == 1).count() as u64;
                let va = tables.values[a][state];
                let vb = tables.values[b][state];
                debug_assert_eq!(va + vb - in_count, value);
                let _ = (va, vb, in_count);
                frames.push((a, state));
                frames.push((b, state));
            }
        }
    }
    (0..n).filter(|&v| chosen[v]).collect()
}

#[inline]
fn insert2(state: usize, pos: usize, c: usize) -> usize {
    let low = state & ((1 << pos) - 1);
    let high = state >> pos;
    low | (c << pos) | (high << (pos + 1))
}

#[inline]
fn project2(state: usize, pos: usize) -> usize {
    let low = state & ((1 << pos) - 1);
    let high = state >> (pos + 1);
    low | (high << pos)
}

fn vc_introduce(g: &Graph, tables: &mut DpTables, src: usize, v: Vertex) -> usize {
    let (bag, pos) = tables.bag_with(src, v);
    let nbrs = neighbor_positions(g, &bag, v);
    let mut values = vec![INF; 1 << bag.len()];
    for (s_old, &val) in tables.values[src].iter().enumerate() {
        if val >= INF {
            continue;
        }
        // v in the cover.
        let s_in = insert2(s_old, pos, 1);
        if val + 1 < values[s_in] {
            values[s_in] = val + 1;
        }
        // v out: every bag neighbor must be in (edges are checked in
        // the bag that sees both endpoints — every edge has one).
        let s_out = insert2(s_old, pos, 0);
        if nbrs.iter().all(|&ni| (s_out >> ni) & 1 == 1) && val < values[s_out] {
            values[s_out] = val;
        }
    }
    tables.push(DpOp::Introduce { src, v }, bag, values)
}

fn vc_forget(tables: &mut DpTables, src: usize, v: Vertex) -> usize {
    let (bag, pos) = tables.bag_without(src, v);
    let mut values = vec![INF; 1 << bag.len()];
    for (s_old, &val) in tables.values[src].iter().enumerate() {
        if val >= INF {
            continue;
        }
        let s = project2(s_old, pos);
        if val < values[s] {
            values[s] = val;
        }
    }
    tables.push(DpOp::Forget { src, v }, bag, values)
}

fn vc_join(tables: &mut DpTables, a: usize, b: usize) -> usize {
    debug_assert_eq!(tables.bags[a], tables.bags[b]);
    let bag = tables.bags[a].clone();
    let k = bag.len();
    let mut values = vec![INF; 1 << k];
    for (s, slot) in values.iter_mut().enumerate() {
        let (va, vb) = (tables.values[a][s], tables.values[b][s]);
        if va >= INF || vb >= INF {
            continue;
        }
        let in_count = (0..k).filter(|&i| (s >> i) & 1 == 1).count() as u64;
        *slot = va + vb - in_count;
    }
    tables.push(DpOp::Join { a, b }, bag, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominating::{dominates, exact_b_dominating, exact_mds, is_dominating_set};
    use crate::vertex_cover::{exact_vertex_cover, is_vertex_cover};
    use crate::GraphBuilder;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.path(&vs);
        b.build()
    }

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.cycle(&vs);
        b.build()
    }

    /// Asserts each solution is feasible and of the oracle's size;
    /// `None` marks the DP skipped because the width exceeds its cap.
    fn check(
        g: &Graph,
        oracle: usize,
        feasible: impl Fn(&[Vertex]) -> bool,
        sols: [(&str, Option<Vec<Vertex>>); 3],
    ) {
        for (kernel, sol) in sols {
            let Some(sol) = sol else { continue };
            assert!(feasible(&sol), "{kernel} infeasible on {g:?}");
            assert_eq!(sol.len(), oracle, "{kernel} suboptimal on {g:?}");
        }
    }

    /// The engine, and both kernels run on the whole graph, against the
    /// naive oracle. The rule sends graphs this small to branch and
    /// bound, so the direct DP call keeps it covered below the
    /// 20-vertex gate.
    fn check_mds(g: &Graph) {
        let all = vec![true; g.n()];
        let td = min_fill_decomposition_capped(g, TW_AUTO_CAP);
        check(
            g,
            exact_mds(g).len(),
            |s| is_dominating_set(g, s),
            [
                ("engine", Some(ExactEngine::new().solve_mds(g, u64::MAX).unwrap())),
                ("bnb", Some(cover_bnb(g, &all, &all, u64::MAX).unwrap().0)),
                ("dp", td.map(|td| mds_dp(g, &all, &all, &td))),
            ],
        );
    }

    fn check_mvc(g: &Graph) {
        let td = min_fill_decomposition_capped(g, VC_TW_AUTO_CAP);
        check(
            g,
            exact_vertex_cover(g).len(),
            |s| is_vertex_cover(g, s),
            [
                ("engine", Some(ExactEngine::new().solve_mvc(g, u64::MAX).unwrap())),
                ("bnb", Some(vc_bnb(g, u64::MAX).unwrap().0)),
                ("dp", td.map(|td| vc_dp(g, &td))),
            ],
        );
    }

    /// `B`-domination: the candidate pool is `N[targets]`.
    fn check_b_dominating(g: &Graph, targets: &[Vertex]) {
        let mut needs = vec![false; g.n()];
        for &t in targets {
            needs[t] = true;
        }
        let allowed: Vec<bool> = g.vertices().map(|v| closed(g, v).any(|w| needs[w])).collect();
        let td = min_fill_decomposition_capped(g, TW_AUTO_CAP);
        let engine = ExactEngine::new().solve_b_dominating(g, targets, u64::MAX).unwrap();
        check(
            g,
            exact_b_dominating(g, targets).len(),
            |s| dominates(g, s, targets),
            [
                ("engine", Some(engine)),
                ("bnb", Some(cover_bnb(g, &needs, &allowed, u64::MAX).unwrap().0)),
                ("dp", td.map(|td| mds_dp(g, &needs, &allowed, &td))),
            ],
        );
    }

    // -- the full-pass reference of the reduction layers ----------------

    /// The reduction loops as they stood before the dirty sweeps, kept
    /// verbatim (plus a round count) as the differential reference: every
    /// round examines all `n` vertices under every rule until a round
    /// changes nothing. Each returns its (rule, vertex) examinations,
    /// rules × `n` × rounds.
    impl Reductions {
        fn reduce_domination_full_pass(
            &mut self,
            g: &Graph,
            needs: &mut [bool],
            allowed: &mut [bool],
            chosen: &mut Vec<Vertex>,
        ) -> u64 {
            let n = g.n();
            let mut rounds = 0u64;
            let mut changed = true;
            while changed {
                rounds += 1;
                changed = false;
                // Unit-coverer forcing.
                for t in 0..n {
                    if !needs[t] {
                        continue;
                    }
                    let mut only = usize::MAX;
                    let mut count = 0usize;
                    for u in closed(g, t) {
                        if allowed[u] {
                            only = u;
                            count += 1;
                            if count > 1 {
                                break;
                            }
                        }
                    }
                    if count == 1 {
                        self.force_full_pass(g, only, needs, allowed, chosen);
                        changed = true;
                    }
                }
                // Subsumed candidates.
                for u in 0..n {
                    if !allowed[u] {
                        continue;
                    }
                    self.cov_buf.clear();
                    self.cov_buf.extend(closed(g, u).filter(|&w| needs[w]));
                    if self.cov_buf.is_empty() {
                        allowed[u] = false;
                        changed = true;
                        continue;
                    }
                    ball2_into(g, &mut self.scratch, u, &mut self.ball_buf);
                    for &v in &self.ball_buf {
                        if v == u || !allowed[v] {
                            continue;
                        }
                        // cov(u) ⊆ cov(v) ⟺ every member of cov(u) lies in
                        // N[v] (members already need).
                        if self.cov_buf.iter().all(|&w| w == v || g.has_edge(v, w)) {
                            let cov_v_len = closed(g, v).filter(|&w| needs[w]).count();
                            if self.cov_buf.len() < cov_v_len || v < u {
                                allowed[u] = false;
                                changed = true;
                                break;
                            }
                        }
                    }
                }
                // Subsumed targets.
                for t in 0..n {
                    if !needs[t] {
                        continue;
                    }
                    ball2_into(g, &mut self.scratch, t, &mut self.ball_buf);
                    let covr_t_len = closed(g, t).filter(|&u| allowed[u]).count();
                    for &t2 in &self.ball_buf {
                        if t2 == t || !needs[t2] {
                            continue;
                        }
                        // covr(t2) ⊆ covr(t) ⟺ every allowed member of N[t2]
                        // lies in N[t].
                        let mut subset = true;
                        let mut covr_t2_len = 0usize;
                        for u in closed(g, t2) {
                            if allowed[u] {
                                covr_t2_len += 1;
                                if u != t && !g.has_edge(t, u) {
                                    subset = false;
                                    break;
                                }
                            }
                        }
                        if subset && (covr_t2_len < covr_t_len || t2 < t) {
                            needs[t] = false;
                            changed = true;
                            break;
                        }
                    }
                }
            }
            3 * n as u64 * rounds
        }

        fn force_full_pass(
            &mut self,
            g: &Graph,
            u: Vertex,
            needs: &mut [bool],
            allowed: &mut [bool],
            chosen: &mut Vec<Vertex>,
        ) {
            chosen.push(u);
            allowed[u] = false;
            needs[u] = false;
            for &w in g.neighbors(u) {
                needs[w as usize] = false;
            }
        }

        fn reduce_vc_full_pass(
            &mut self,
            g: &Graph,
            alive: &mut [bool],
            chosen: &mut Vec<Vertex>,
        ) -> u64 {
            let n = g.n();
            let live_deg = |alive: &[bool], v: Vertex| -> usize {
                g.neighbors(v).iter().filter(|&&u| alive[u as usize]).count()
            };
            let mut rounds = 0u64;
            let mut changed = true;
            while changed {
                rounds += 1;
                changed = false;
                for v in 0..n {
                    if !alive[v] {
                        continue;
                    }
                    match live_deg(alive, v) {
                        0 => {
                            alive[v] = false;
                            changed = true;
                        }
                        1 => {
                            let u = *g
                                .neighbors(v)
                                .iter()
                                .find(|&&u| alive[u as usize])
                                .expect("degree-1 vertex has a live neighbor")
                                as Vertex;
                            chosen.push(u);
                            alive[u] = false;
                            alive[v] = false;
                            changed = true;
                        }
                        _ => {}
                    }
                }
                // Dominance: mark N_live[v] ∪ {v}, test each live
                // neighbor u of v for N_live(u) ⊆ N_live[v].
                for v in 0..n {
                    if !alive[v] {
                        continue;
                    }
                    self.scratch.begin(n);
                    self.scratch.visit(v);
                    for &w in g.neighbors(v) {
                        if alive[w as usize] {
                            self.scratch.visit(w as Vertex);
                        }
                    }
                    let mut take_v = false;
                    for &u in g.neighbors(v) {
                        let u = u as Vertex;
                        if !alive[u] {
                            continue;
                        }
                        let dominated = g
                            .neighbors(u)
                            .iter()
                            .all(|&w| !alive[w as usize] || self.scratch.visited(w as Vertex));
                        if dominated {
                            take_v = true;
                            break;
                        }
                    }
                    if take_v {
                        chosen.push(v);
                        alive[v] = false;
                        changed = true;
                    }
                }
            }
            2 * n as u64 * rounds
        }
    }

    /// A generated graph rebuilt from its edge list: `lmds-gen` builds
    /// graphs of the library build of this crate, not of this test build.
    macro_rules! generated {
        ($g:expr) => {{
            let h = $g;
            Graph::from_edges(h.n(), &h.edges().collect::<Vec<_>>())
        }};
    }

    /// The graphs of the worklist differential test.
    fn worklist_corpus() -> Vec<(&'static str, Graph)> {
        vec![
            (
                "random_outerplanar(3000, 25, 1)",
                generated!(lmds_gen::outerplanar::random_outerplanar(3000, 25, 1)),
            ),
            (
                "random_outerplanar(60, 25, 4)",
                generated!(lmds_gen::outerplanar::random_outerplanar(60, 25, 4)),
            ),
            ("scale_instance(2000, 3)", generated!(lmds_gen::ding::scale_instance(2000, 3))),
            ("connected_gnp(80, 6, 2)", generated!(lmds_gen::random::connected_gnp(80, 6, 2))),
            ("connected_gnp(14, 30, 5)", generated!(lmds_gen::random::connected_gnp(14, 30, 5))),
            ("strip(400)", generated!(lmds_gen::ding::strip(400))),
            ("cycle(9)", cycle(9)),
            ("cycle(40)", cycle(40)),
        ]
    }

    /// The three start masks of each graph: every vertex, every third
    /// vertex dropped, even vertices only.
    fn start_masks(n: usize) -> [Vec<bool>; 3] {
        [vec![true; n], (0..n).map(|v| v % 3 != 2).collect(), (0..n).map(|v| v % 2 == 0).collect()]
    }

    /// A 16-vertex graph and target mask on which a candidate flip in
    /// the second round enables a target at distance 3 that nothing else
    /// re-marks: sweeps that re-mark targets only within 2 of an
    /// `allowed` flip miss it (found by a random search over small dense
    /// graphs; the corpus above never needs the third step).
    fn distance_three_target() -> (Graph, Vec<bool>) {
        // Each row: a vertex and its higher-numbered neighbours.
        let rows: [(Vertex, &[Vertex]); 11] = [
            (0, &[3, 5, 6, 9, 11, 15]),
            (1, &[7, 13]),
            (2, &[6, 10, 12, 13, 14]),
            (3, &[6, 11, 12, 13]),
            (4, &[7, 9, 11, 15]),
            (5, &[7, 9, 13, 14]),
            (6, &[9]),
            (7, &[13]),
            (8, &[12, 13, 14]),
            (9, &[11, 15]),
            (11, &[12, 13, 15]),
        ];
        let edges: Vec<(Vertex, Vertex)> =
            rows.iter().flat_map(|&(u, vs)| vs.iter().map(move |&v| (u, v))).collect();
        let dropped = [2, 5, 10, 11];
        assert_eq!(edges.len(), 35);
        (Graph::from_edges(16, &edges), (0..16).map(|v| !dropped.contains(&v)).collect())
    }

    #[test]
    fn worklist_reductions_replay_the_full_pass() {
        let (g3, mask3) = distance_three_target();
        let pinned = std::iter::once(("distance_three_target", g3, vec![mask3]));
        let corpus = worklist_corpus().into_iter().map(|(name, g)| {
            let masks = start_masks(g.n()).to_vec();
            (name, g, masks)
        });
        for (name, g, masks) in pinned.chain(corpus) {
            for (k, mask) in masks.into_iter().enumerate() {
                // Domination: targets = mask, candidates = N[targets].
                let allowed: Vec<bool> =
                    g.vertices().map(|v| closed(&g, v).any(|w| mask[w])).collect();
                let (mut needs_ref, mut allowed_ref, mut chosen_ref) =
                    (mask.clone(), allowed.clone(), Vec::new());
                let mut reference = Reductions::default();
                let full_checks = reference.reduce_domination_full_pass(
                    &g,
                    &mut needs_ref,
                    &mut allowed_ref,
                    &mut chosen_ref,
                );
                let (mut needs, mut allowed, mut chosen) = (mask.clone(), allowed, Vec::new());
                let checks = Reductions::default().reduce_domination(
                    &g,
                    &mut needs,
                    &mut allowed,
                    &mut chosen,
                );
                assert_eq!(needs, needs_ref, "{name} mask {k}: needs");
                assert_eq!(allowed, allowed_ref, "{name} mask {k}: allowed");
                assert_eq!(chosen, chosen_ref, "{name} mask {k}: chosen (in order)");
                assert!(checks <= full_checks, "{name} mask {k}: checks");

                // Vertex cover: alive = mask.
                let (mut alive_ref, mut chosen_ref) = (mask.clone(), Vec::new());
                let full_checks =
                    reference.reduce_vc_full_pass(&g, &mut alive_ref, &mut chosen_ref);
                let (mut alive, mut chosen) = (mask, Vec::new());
                let checks = Reductions::default().reduce_vc(&g, &mut alive, &mut chosen);
                assert_eq!(alive, alive_ref, "{name} mask {k}: alive");
                assert_eq!(chosen, chosen_ref, "{name} mask {k}: VC chosen (in order)");
                assert!(checks <= full_checks, "{name} mask {k}: VC checks");
            }
        }
    }

    #[test]
    fn rule_checks_stay_below_the_full_pass_on_sparse_outerplanar() {
        let g = generated!(lmds_gen::outerplanar::random_outerplanar(3000, 25, 1));
        let all = vec![true; g.n()];
        let full = Reductions::default().reduce_domination_full_pass(
            &g,
            &mut all.clone(),
            &mut all.clone(),
            &mut Vec::new(),
        );
        assert_eq!(full, 3 * 3000 * 21, "the full pass takes 21 rounds here");
        let mut e = ExactEngine::new();
        e.solve_mds(&g, u64::MAX).unwrap();
        let checks = e.stats().rule_checks;
        assert!(checks < full, "{checks} examinations, the full pass makes {full}");
        // The same engine, reused, counts the same.
        e.solve_mds(&g, u64::MAX).unwrap();
        assert_eq!(e.stats().rule_checks, checks);
    }

    #[test]
    fn take_dirty_walks_ascending_from_the_cursor() {
        let mut bits = vec![0u64; 3];
        for v in [0, 5, 63, 64, 130] {
            set_dirty(&mut bits, v);
        }
        assert_eq!(take_dirty(&mut bits, 6), Some(63));
        assert_eq!(take_dirty(&mut bits, 64), Some(64));
        assert_eq!(take_dirty(&mut bits, 65), Some(130));
        assert_eq!(take_dirty(&mut bits, 131), None);
        assert_eq!(take_dirty(&mut bits, 192), None);
        // Bits behind the cursor stay for the next round.
        assert_eq!(take_dirty(&mut bits, 0), Some(0));
        assert_eq!(take_dirty(&mut bits, 1), Some(5));
        assert!(bits.iter().all(|&w| w == 0));
    }

    #[test]
    fn mds_matches_oracle_on_paths_cycles_stars() {
        for n in 1..=14 {
            check_mds(&path(n));
        }
        for n in 3..=14 {
            check_mds(&cycle(n));
        }
        check_mds(&Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]));
    }

    #[test]
    fn mvc_matches_oracle_on_paths_cycles() {
        for n in 2..=14 {
            check_mvc(&path(n));
        }
        for n in 3..=14 {
            check_mvc(&cycle(n));
        }
    }

    // -- reduction-rule edge cases (satellite) -------------------------

    #[test]
    fn reduction_isolated_vertices_are_forced() {
        // Three isolated vertices: the unit rule forces each.
        let g = Graph::new(3);
        let mut e = ExactEngine::new();
        let sol = e.solve_mds(&g, u64::MAX).unwrap();
        assert_eq!(sol, vec![0, 1, 2]);
        assert_eq!(e.stats().forced, 3);
        assert_eq!(e.stats().components, 0, "reductions close the whole instance");
        // Mixed: isolated vertex beside an edge.
        let g2 = Graph::from_edges(3, &[(1, 2)]);
        check_mds(&g2);
        check_mvc(&g2);
    }

    #[test]
    fn reduction_degree_one_chains_close_without_search() {
        // Long paths: candidate/target subsumption + unit forcing chew
        // the chain from the ends without branching.
        for n in [2usize, 3, 6, 10, 30] {
            let g = path(n);
            let mut e = ExactEngine::new();
            let sol = e.solve_mds(&g, u64::MAX).unwrap();
            assert!(is_dominating_set(&g, &sol));
            assert_eq!(sol.len(), n.div_ceil(3));
        }
        // VC pendant rule: a star closes by reductions alone.
        let star = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let mut e = ExactEngine::new();
        let sol = e.solve_mvc(&star, u64::MAX).unwrap();
        assert_eq!(sol, vec![0]);
        assert_eq!(e.stats().search_nodes, 0, "pendant rule needs no search");
    }

    #[test]
    fn reduction_twin_folded_cliques() {
        // K5: one twin class — folding leaves a single vertex, the unit
        // rule forces it.
        let mut g = Graph::new(5);
        for u in 0..5 {
            for v in (u + 1)..5 {
                g.add_edge(u, v);
            }
        }
        let mut e = ExactEngine::new();
        let sol = e.solve_mds(&g, u64::MAX).unwrap();
        assert_eq!(sol, vec![0]);
        assert_eq!(e.stats().search_nodes, 0);
        // Two twin triangles joined by an edge.
        let g2 = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        check_mds(&g2);
    }

    #[test]
    fn reduction_disconnected_inputs_split() {
        // Components are solved independently and re-merged.
        let mut g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        g.add_vertex(); // isolated 5
        check_mds(&g);
        check_mvc(&g);
        let mut e = ExactEngine::new();
        let sol = e.solve_mds(&g, u64::MAX).unwrap();
        assert_eq!(sol.len(), 3);
    }

    #[test]
    fn reduction_cautionary_gadget_clique_with_pendants() {
        // The paper's §4 gadget: a clique whose vertices each carry a
        // pendant 2-cut gadget — Θ(n) cut vertices but MDS = 1. The
        // subsumed-candidate rule collapses everything onto the hub.
        // Built locally (the graph crate cannot depend on lmds-gen):
        // hub 0 adjacent to all; clique on {0..n}; vertex i gets a
        // pendant pair (a_i, b_i) with a_i, b_i adjacent to i and to
        // each other... the adversarial generator attaches pendant
        // triangles; a hub-adjacent pendant triangle keeps MDS = 1.
        let n = 6usize;
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u, v);
            }
        }
        // Pendant triangle gadgets on every non-hub clique vertex,
        // both gadget vertices also adjacent to the hub 0 so the hub
        // still dominates everything (MDS = 1) while {i, a_i} and
        // {i, b_i} style 2-cuts appear throughout.
        for i in 1..n {
            let a = g.add_vertex();
            let b = g.add_vertex();
            g.add_edge(a, b);
            g.add_edge(i, a);
            g.add_edge(i, b);
            g.add_edge(0, a);
            g.add_edge(0, b);
        }
        assert_eq!(exact_mds(&g).len(), 1);
        check_mds(&g);
        // The reduction layer alone closes it (no search).
        let mut e = ExactEngine::new();
        let sol = e.solve_mds(&g, u64::MAX).unwrap();
        assert_eq!(sol, vec![0]);
        assert_eq!(e.stats().search_nodes, 0, "gadget closes by reductions");
    }

    // -- b-domination --------------------------------------------------

    #[test]
    fn b_dominating_matches_oracle() {
        let g = path(6);
        check_b_dominating(&g, &[0]);
        check_b_dominating(&g, &[0, 5]);
        let sol = ExactEngine::new().solve_b_dominating(&g, &[0, 5], u64::MAX).unwrap();
        assert_eq!(sol.len(), 2);
        // Cross-check the oracle on a random-ish target pattern.
        check_b_dominating(&cycle(11), &[0, 2, 3, 7, 9]);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // A 15-cycle has no reductions and is below the DP's size gate,
        // so branch and bound must search — a zero budget kills it.
        let g = cycle(15);
        let mut e = ExactEngine::new();
        let err = e.solve_mds(&g, 0).unwrap_err();
        assert_eq!(err, ExactError::BudgetExhausted { budget: 0 });
        let err = e.solve_mvc(&g, 0).unwrap_err();
        assert_eq!(err, ExactError::BudgetExhausted { budget: 0 });
        // The rule sends a 30-cycle to the DP, which needs no budget.
        assert_eq!(e.solve_mds(&cycle(30), 0).unwrap().len(), 10);
        assert_eq!(e.solve_mvc(&cycle(30), 0).unwrap().len(), 15);
    }

    #[test]
    fn treewidth_backend_solves_long_skinny_instances() {
        // A 200-vertex path closes by reductions; a 120-cycle goes to
        // the DP, which is linear where plain B&B crawls.
        let g = path(200);
        let mut e = ExactEngine::new();
        let sol = e.solve_mds(&g, u64::MAX).unwrap();
        assert!(is_dominating_set(&g, &sol));
        assert_eq!(sol.len(), 200usize.div_ceil(3));
        let c = cycle(120);
        let sol = e.solve_mds(&c, u64::MAX).unwrap();
        assert_eq!(sol.len(), 40);
        assert!(is_dominating_set(&c, &sol));
        assert_eq!(e.stats().dp_components, 1);
        let vc = e.solve_mvc(&c, u64::MAX).unwrap();
        assert_eq!(vc.len(), 60);
        assert!(is_vertex_cover(&c, &vc));
        assert_eq!(e.stats().dp_components, 1);
    }

    #[test]
    fn dense_component_falls_back_from_treewidth() {
        // K_{10,10}: 20 vertices, no twins, no reductions, and width 10
        // above both DP caps — the rule sends it to branch and bound.
        let mut g = Graph::new(20);
        for u in 0..10 {
            for v in 10..20 {
                g.add_edge(u, v);
            }
        }
        let mut e = ExactEngine::new();
        assert_eq!(e.solve_mds(&g, u64::MAX).unwrap().len(), 2);
        let kernels = |s: &EngineStats| (s.dp_components, s.bnb_components, s.wide_components);
        assert_eq!(kernels(e.stats()), (0, 1, 1));
        assert_eq!(e.solve_mvc(&g, u64::MAX).unwrap().len(), 10);
        assert_eq!(kernels(e.stats()), (0, 1, 1));
    }

    #[test]
    fn deterministic_output_across_repeats_and_engines() {
        let g = Graph::from_edges(
            9,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 0), (2, 6)],
        );
        let mut e1 = ExactEngine::new();
        let mut e2 = ExactEngine::new();
        let a = e1.solve_mds(&g, u64::MAX).unwrap();
        assert_eq!(a, e2.solve_mds(&g, u64::MAX).unwrap());
        assert_eq!(a, e1.solve_mds(&g, u64::MAX).unwrap());
    }

    #[test]
    fn stats_report_dp_vs_bnb_split() {
        // A 60-cycle goes to the DP; K6 (small) goes to B&B.
        let mut e = ExactEngine::new();
        e.solve_mds(&cycle(60), u64::MAX).unwrap();
        assert_eq!(e.stats().dp_components, 1);
        assert_eq!(e.stats().bnb_components, 0);
        let mut k6 = Graph::new(6);
        for u in 0..6 {
            for v in (u + 1)..6 {
                k6.add_edge(u, v);
            }
        }
        e.solve_mvc(&k6, u64::MAX).unwrap();
        assert_eq!(e.stats().dp_components, 0);
    }

    #[test]
    fn thread_engine_pool_is_reusable() {
        let g = path(9);
        let a = with_thread_engine(|e| e.solve_mds(&g, u64::MAX)).unwrap();
        let b = with_thread_engine(|e| e.solve_mds(&g, u64::MAX)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }
}
