//! Dynamic solving: revisioned instances over a
//! [`DynamicGraph`] with
//! component-scoped re-solve through
//! [`lmds_core::dynamic::DynamicSolver`].
//!
//! Two entry points:
//!
//! * [`solve_with_cache`] — one solve of an ordinary [`Instance`]
//!   against a caller-held [`DynamicSolver`]: components whose content
//!   fingerprint is cached are stitched back without re-running the
//!   pipeline, and the assembled [`Solution`] is indistinguishable from
//!   the registry's `mds/algorithm1` output (same canonical vertex set,
//!   same certificate). The serving layer uses exactly this to make
//!   `POST /solve` on a `PATCH`ed graph re-solve only dirty components.
//! * [`DynamicInstance`] — an owning revision handle for embedded use:
//!   apply [`GraphUpdate`] batches, then [`DynamicInstance::solve`]
//!   re-solves incrementally; identifiers extend automatically when
//!   vertices are added.
//!
//! The incremental result *equals* the from-scratch pipeline output
//! (Algorithm 1 is component-decomposable — see
//! [`lmds_core::dynamic`]); `tests/dynamic_differential.rs` certifies
//! that across every generator family and random update streams.

use crate::solution::Solution;
use crate::solver::SolveError;
use crate::{ExecutionMode, Instance, Problem, SolveConfig};
use lmds_core::dynamic::{DynamicSolver, DynamicStats};
use lmds_graph::dynamic::{DynamicGraph, GraphUpdate, UpdateStats};
use lmds_graph::GraphError;
use lmds_localsim::IdAssignment;
use std::time::Instant;

/// The registry key the dynamic path substitutes for: solutions carry
/// this solver string so callers (and the serving layer's result cache)
/// cannot distinguish a stitched solve from a from-scratch one.
const SOLVER_KEY: &str = "mds/algorithm1";

/// Rejects configurations the component-scoped path cannot honor
/// bit-identically to the registry solver.
fn check_config(cfg: &SolveConfig) -> Result<(), SolveError> {
    if cfg.problem != Problem::MinDominatingSet {
        return Err(SolveError::UnsupportedProblem { solver: SOLVER_KEY, requested: cfg.problem });
    }
    if cfg.mode != ExecutionMode::Centralized {
        return Err(SolveError::UnsupportedMode { solver: SOLVER_KEY, requested: cfg.mode });
    }
    if cfg.measure_ratio {
        return Err(SolveError::UnsupportedOptions {
            solver: SOLVER_KEY,
            reason: "ratio measurement re-solves the whole graph exactly; use the registry \
                     solver when measure_ratio is set"
                .into(),
        });
    }
    Ok(())
}

/// Whether [`solve_with_cache`] can stand in for the registry solve of
/// `solver` under `cfg`: a plain centralized `mds/algorithm1` solve.
/// For every request it accepts, the assembled solution equals the
/// registry's (same vertex set, same certificate), so a service can
/// route on it invisibly to clients.
pub fn accepts(solver: &str, cfg: &SolveConfig) -> bool {
    solver == SOLVER_KEY && check_config(cfg).is_ok()
}

/// Solves `inst` (MDS, centralized) with component-scoped reuse from
/// `solver`'s cache, returning the assembled [`Solution`] plus reuse
/// statistics.
///
/// The vertex set equals `algorithm1_with(graph, ids, cfg.radii,
/// cfg.options).solution`; only components absent from the cache are
/// re-run.
///
/// # Errors
///
/// [`SolveError::UnsupportedProblem`] /
/// [`SolveError::UnsupportedMode`] /
/// [`SolveError::UnsupportedOptions`] when the config asks for
/// anything but a plain centralized MDS solve (MVC, LOCAL simulation,
/// and ratio measurement stay on the registry path).
pub fn solve_with_cache(
    inst: &Instance,
    cfg: &SolveConfig,
    solver: &mut DynamicSolver,
) -> Result<(Solution, DynamicStats), SolveError> {
    check_config(cfg)?;
    let started = Instant::now();
    let (vertices, stats) = solver.resolve(&inst.graph, &inst.ids, cfg.radii, cfg.options);
    let solution = Solution::assemble(
        SOLVER_KEY,
        inst,
        Problem::MinDominatingSet,
        ExecutionMode::Centralized,
        vertices,
        None,
        None,
        started.elapsed(),
    );
    Ok((solution, stats))
}

/// An owning revision handle: a named [`DynamicGraph`] with its
/// identifier assignment and a private [`DynamicSolver`] cache.
///
/// ```
/// use lmds_api::dynamic::DynamicInstance;
/// use lmds_api::{Instance, SolveConfig};
/// use lmds_graph::dynamic::GraphUpdate;
///
/// let inst = Instance::sequential("p6", lmds_gen::basic::path(6));
/// let mut dyn_inst = DynamicInstance::new(inst);
/// let cfg = SolveConfig::mds();
/// let (first, _) = dyn_inst.solve(&cfg).unwrap();
/// first.verify(&dyn_inst.snapshot()).unwrap();
///
/// dyn_inst.apply(&[GraphUpdate::RemoveEdge(2, 3)]).unwrap();
/// let (second, stats) = dyn_inst.solve(&cfg).unwrap();
/// second.verify(&dyn_inst.snapshot()).unwrap();
/// assert_eq!(dyn_inst.revision(), 1);
/// assert_eq!(stats.components_total, 2);
/// ```
#[derive(Debug)]
pub struct DynamicInstance {
    name: String,
    graph: DynamicGraph,
    ids: Vec<u64>,
    /// Identifier handed to the next vertex added by an update batch
    /// (strictly above every existing identifier, so minimum-id
    /// tie-breaks among pre-existing vertices are undisturbed).
    next_id: u64,
    solver: DynamicSolver,
}

impl DynamicInstance {
    /// Wraps an instance at revision 0. Ground truth is dropped: it
    /// would be stale after the first update.
    pub fn new(inst: Instance) -> Self {
        let ids: Vec<u64> = inst.graph.vertices().map(|v| inst.ids.id_of(v)).collect();
        let next_id = ids.iter().copied().max().map_or(0, |m| m + 1);
        Self {
            name: inst.name,
            graph: DynamicGraph::new(inst.graph),
            ids,
            next_id,
            solver: DynamicSolver::new(),
        }
    }

    /// The number of update batches applied so far.
    pub fn revision(&self) -> u64 {
        self.graph.revision()
    }

    /// The current graph.
    pub fn graph(&self) -> &lmds_graph::Graph {
        self.graph.graph()
    }

    /// Applies an update batch atomically (see
    /// [`DynamicGraph::apply`]); vertices added by the batch receive
    /// fresh identifiers above every existing one.
    ///
    /// # Errors
    ///
    /// [`GraphError`] from batch validation; the graph, identifiers,
    /// and revision are untouched on error.
    pub fn apply(&mut self, batch: &[GraphUpdate]) -> Result<UpdateStats, GraphError> {
        let stats = self.graph.apply(batch)?;
        for _ in 0..stats.added_vertices {
            self.ids.push(self.next_id);
            self.next_id += 1;
        }
        Ok(stats)
    }

    /// A point-in-time [`Instance`] of the current revision, suitable
    /// for [`Solution::verify`] or a from-scratch comparison solve.
    pub fn snapshot(&self) -> Instance {
        Instance::new(
            format!("{}@r{}", self.name, self.graph.revision()),
            self.graph.graph().clone(),
            IdAssignment::from_ids(self.ids.clone()),
        )
    }

    /// Solves the current revision with component-scoped reuse (see
    /// [`solve_with_cache`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`solve_with_cache`].
    pub fn solve(&mut self, cfg: &SolveConfig) -> Result<(Solution, DynamicStats), SolveError> {
        solve_with_cache(&self.snapshot(), cfg, &mut self.solver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverRegistry;

    fn two_component_instance() -> Instance {
        let mut g = lmds_gen::basic::cycle(8);
        g.disjoint_union(&lmds_gen::ding::strip(4));
        Instance::shuffled("dyn", g, 3)
    }

    #[test]
    fn cached_solve_matches_registry_output() {
        let inst = two_component_instance();
        let registry = SolverRegistry::with_defaults();
        let cfg = SolveConfig::mds();
        let reference = registry.solve("mds/algorithm1", &inst, &cfg).unwrap();
        let mut solver = DynamicSolver::new();
        let (first, s1) = solve_with_cache(&inst, &cfg, &mut solver).unwrap();
        let (second, s2) = solve_with_cache(&inst, &cfg, &mut solver).unwrap();
        for sol in [&first, &second] {
            assert_eq!(sol.vertices, reference.vertices);
            assert_eq!(sol.solver, reference.solver);
            sol.verify(&inst).unwrap();
        }
        assert_eq!(s1.components_resolved, 2);
        assert_eq!(s2.components_reused, 2);
    }

    #[test]
    fn unsupported_configs_are_rejected_loudly() {
        let inst = two_component_instance();
        let mut solver = DynamicSolver::new();
        let mvc = SolveConfig::mvc();
        assert!(matches!(
            solve_with_cache(&inst, &mvc, &mut solver),
            Err(SolveError::UnsupportedProblem { .. })
        ));
        let local = SolveConfig::mds().mode(ExecutionMode::LOCAL_ORACLE);
        assert!(matches!(
            solve_with_cache(&inst, &local, &mut solver),
            Err(SolveError::UnsupportedMode { .. })
        ));
        let ratio = SolveConfig::mds().measure_ratio(true);
        assert!(matches!(
            solve_with_cache(&inst, &ratio, &mut solver),
            Err(SolveError::UnsupportedOptions { .. })
        ));
    }

    #[test]
    fn dynamic_instance_tracks_updates_and_grows_ids() {
        let mut d = DynamicInstance::new(two_component_instance());
        let cfg = SolveConfig::mds();
        let registry = SolverRegistry::with_defaults();
        let (sol, _) = d.solve(&cfg).unwrap();
        sol.verify(&d.snapshot()).unwrap();

        // Grow: new vertex hanging off the cycle; its id must be fresh.
        // cycle(8) ∪ strip(4) has 8 + 8 = 16 vertices, so the new one
        // is index 16 and its identifier tops the 0..16 permutation.
        d.apply(&[GraphUpdate::AddVertex, GraphUpdate::InsertEdge(0, 16)]).unwrap();
        assert_eq!(d.graph().n(), 17);
        let snap = d.snapshot();
        assert_eq!(snap.ids.id_of(16), 16, "shuffled ids are a permutation of 0..16");
        let (sol, stats) = d.solve(&cfg).unwrap();
        sol.verify(&snap).unwrap();
        let reference = registry.solve("mds/algorithm1", &snap, &cfg).unwrap();
        assert_eq!(sol.vertices, reference.vertices);
        // The strip component was untouched by the update.
        assert_eq!(stats.components_reused, 1);
        assert_eq!(d.revision(), 1);
    }
}
