//! The solver registry: every algorithm under a stable string key.
//!
//! [`SolverRegistry::with_defaults`] registers the built-in solver
//! table; [`SolverRegistry::register`] adds (or replaces) any other
//! [`Solver`] under its descriptor's key.

use crate::solver::{Solver, SolverDescriptor, BUILTINS};
use crate::{Instance, Problem, Solution, SolveConfig, SolveError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A keyed collection of [`Solver`]s. Iteration order is the key order
/// (BTreeMap), so sweeps are deterministic.
#[derive(Clone, Default)]
pub struct SolverRegistry {
    solvers: BTreeMap<&'static str, Arc<dyn Solver>>,
}

impl SolverRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        SolverRegistry { solvers: BTreeMap::new() }
    }

    /// The registry with every built-in algorithm registered: the
    /// Algorithm 1/2 pipeline, Theorem 4.4 (MDS + MVC), the Algorithm 1
    /// MVC variant, the folklore baselines, and the exact reference
    /// solvers.
    pub fn with_defaults() -> Self {
        let mut r = Self::empty();
        for builtin in BUILTINS {
            r.register(Arc::new(builtin));
        }
        r
    }

    /// Registers (or replaces) a solver under its descriptor's key.
    pub fn register(&mut self, solver: Arc<dyn Solver>) {
        self.solvers.insert(solver.descriptor().key, solver);
    }

    /// Looks a solver up by key.
    pub fn get(&self, key: &str) -> Option<Arc<dyn Solver>> {
        self.solvers.get(key).cloned()
    }

    /// All registered keys, sorted. This is the single source of truth
    /// for "what can I ask for": the [`SolveError::UnknownSolver`]
    /// message, the `reproduce` CLI hints and the serve daemon's 404
    /// envelopes all render this list, and its `GET /solvers` endpoint
    /// renders [`SolverRegistry::descriptors`] in the same order.
    pub fn keys(&self) -> Vec<&'static str> {
        self.solvers.keys().copied().collect()
    }

    /// The descriptor of every registered solver, in key order — the
    /// programmatic face of [`SolverRegistry::keys`] for service
    /// catalogs (`GET /solvers`).
    pub fn descriptors(&self) -> Vec<SolverDescriptor> {
        self.solvers.values().map(|s| s.descriptor().clone()).collect()
    }

    /// All solvers targeting `problem`, in key order.
    pub fn solvers_for(&self, problem: Problem) -> Vec<Arc<dyn Solver>> {
        self.solvers.values().filter(|s| s.descriptor().problem == problem).cloned().collect()
    }

    /// Number of registered solvers.
    pub fn len(&self) -> usize {
        self.solvers.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty()
    }

    /// Convenience: look up by key and solve in one call.
    ///
    /// # Errors
    ///
    /// [`SolveError::UnknownSolver`] for an unregistered key — the
    /// error carries (and its message lists) every valid key — plus
    /// whatever the solver itself returns.
    pub fn solve(
        &self,
        key: &str,
        inst: &Instance,
        cfg: &SolveConfig,
    ) -> Result<Solution, SolveError> {
        let solver = self.get(key).ok_or_else(|| SolveError::UnknownSolver {
            key: key.to_string(),
            known: self.keys(),
        })?;
        solver.solve(inst, cfg)
    }
}

impl std::fmt::Debug for SolverRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverRegistry").field("keys", &self.keys()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecutionMode;

    #[test]
    fn defaults_cover_both_problems_with_at_least_eight_solvers() {
        let r = SolverRegistry::with_defaults();
        assert!(r.len() >= 8, "{:?}", r.keys());
        assert!(!r.solvers_for(Problem::MinDominatingSet).is_empty());
        assert!(!r.solvers_for(Problem::MinVertexCover).is_empty());
        for key in r.keys() {
            let s = r.get(key).unwrap();
            let d = s.descriptor();
            assert_eq!(d.key, key);
            assert!(key.starts_with(d.problem.key_prefix()), "{key}");
            assert!(!d.modes.is_empty());
        }
    }

    /// The whole built-in catalog, pinned: key, name, problem, paper
    /// reference and mode list of every solver, in key order.
    #[test]
    fn default_catalog_is_pinned() {
        use Problem::{MinDominatingSet as Mds, MinVertexCover as Mvc};
        const ALL: &[ExecutionMode] = &ExecutionMode::ALL;
        const CENTRAL: &[ExecutionMode] = &[ExecutionMode::Centralized];
        let row = |key, name, problem, paper_ref, modes| SolverDescriptor {
            key,
            name,
            problem,
            paper_ref,
            modes,
        };
        let expected = vec![
            row("mds/algorithm1", "Algorithm 1 pipeline", Mds, "Theorem 4.1", ALL),
            row(
                "mds/algorithm2",
                "Algorithm 2 (control-function pipeline)",
                Mds,
                "Theorem 4.3",
                ALL,
            ),
            row(
                "mds/exact",
                "exact MDS (reduce + branch & bound / treewidth DP)",
                Mds,
                "baseline (exact)",
                CENTRAL,
            ),
            row("mds/take-all", "take all (0 rounds)", Mds, "Table 1 (K_{1,t} row, folklore)", ALL),
            row("mds/theorem44", "Theorem 4.4 (3-round D₂)", Mds, "Theorem 4.4", ALL),
            row(
                "mds/trees-folklore",
                "trees folklore (degree ≥ 2)",
                Mds,
                "Table 1 (trees row, folklore)",
                ALL,
            ),
            row(
                "mvc/algorithm1",
                "Algorithm 1 MVC variant (take-all 2-cuts)",
                Mvc,
                "§4 closing remark",
                ALL,
            ),
            row(
                "mvc/exact",
                "exact MVC (reduce + branch & bound / treewidth DP)",
                Mvc,
                "baseline (exact)",
                CENTRAL,
            ),
            row("mvc/regular-take-all", "regular-graph take-all MVC", Mvc, "§1 (folklore)", ALL),
            row(
                "mvc/theorem44",
                "Theorem 4.4 MVC variant",
                Mvc,
                "Theorem 4.4 (MVC extension)",
                ALL,
            ),
        ];
        assert_eq!(SolverRegistry::with_defaults().descriptors(), expected);
    }

    #[test]
    fn unknown_key_is_an_error_listing_the_valid_keys() {
        let r = SolverRegistry::with_defaults();
        let inst = Instance::sequential("k1", lmds_graph::Graph::new(1));
        let err = r.solve("mds/nope", &inst, &SolveConfig::mds()).unwrap_err();
        let SolveError::UnknownSolver { ref key, ref known } = err else {
            panic!("expected UnknownSolver, got {err:?}");
        };
        assert_eq!(key, "mds/nope");
        assert_eq!(known, &r.keys(), "the error carries every valid key");
        // The rendered message steers the caller to valid keys.
        let msg = err.to_string();
        assert!(msg.contains("mds/nope"), "{msg}");
        assert!(msg.contains("mds/algorithm1"), "{msg}");
        assert!(msg.contains("mvc/exact"), "{msg}");
    }

    #[test]
    fn every_solver_solves_a_small_instance_centralized() {
        let r = SolverRegistry::with_defaults();
        let g = lmds_gen::basic::path(6);
        let inst = Instance::sequential("p6", g);
        for key in r.keys() {
            let cfg = SolveConfig::new(r.get(key).unwrap().descriptor().problem);
            let sol = r.solve(key, &inst, &cfg).unwrap_or_else(|e| panic!("{key}: {e}"));
            assert!(sol.is_valid(), "{key} produced an invalid solution");
            assert_eq!(sol.mode, ExecutionMode::Centralized);
            assert_eq!(sol.solver, key);
        }
    }

    #[test]
    fn round_limit_errors_are_matchable_and_retryable() {
        use lmds_localsim::RuntimeError;
        let r = SolverRegistry::with_defaults();
        let inst = Instance::sequential("p10", lmds_gen::basic::path(10));
        // Algorithm 1 needs ~max(r1, 2r2) + 2 rounds before anyone can
        // decide; a cap of 1 must fail with a *typed* runtime error.
        let cfg = SolveConfig::mds().mode(ExecutionMode::LOCAL_ORACLE).round_cap(1);
        let err = r.solve("mds/algorithm1", &inst, &cfg).unwrap_err();
        assert!(matches!(
            err,
            SolveError::Runtime(RuntimeError::RoundLimitExceeded { limit: 1, .. })
        ));
        // The cause chains end-to-end through std::error::Error...
        let source = std::error::Error::source(&err).expect("SolveError::Runtime has a source");
        assert!(source.downcast_ref::<RuntimeError>().is_some());
        // ...so callers can read the exceeded cap and retry higher.
        let limit = err.round_limit().expect("round-limit error carries its cap");
        let sol = r.solve("mds/algorithm1", &inst, &cfg.round_cap(limit + 64)).unwrap();
        assert!(sol.is_valid());
        assert!(sol.rounds.unwrap() > 1);
    }

    #[test]
    fn problem_mismatch_is_rejected() {
        let r = SolverRegistry::with_defaults();
        let inst = Instance::sequential("p3", lmds_gen::basic::path(3));
        let err = r.solve("mds/theorem44", &inst, &SolveConfig::mvc()).unwrap_err();
        assert!(matches!(err, SolveError::UnsupportedProblem { .. }));
        let err2 = r
            .solve("mds/exact", &inst, &SolveConfig::mds().mode(ExecutionMode::LOCAL_ORACLE))
            .unwrap_err();
        assert!(matches!(err2, SolveError::UnsupportedMode { .. }));
    }
}
