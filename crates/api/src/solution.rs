//! The structured result of a solve: vertex set, validity certificate,
//! ratio, round count, message stats, wall time, and pipeline
//! diagnostics.

use crate::{ExecutionMode, Instance, Problem};
use lmds_graph::dominating::is_dominating_set;
use lmds_graph::vertex_cover::is_vertex_cover;
use lmds_graph::{Vertex, VertexSet};
use lmds_localsim::FaultReport;
use std::time::Duration;

// The intermediate sets of the Algorithm 1 pipeline family are defined
// once, by the pipeline itself.
pub use lmds_core::PipelineDiagnostics;

/// Validity certificate, checked against the instance graph with the
/// problem's own predicate (`is_dominating_set` / `is_vertex_cover`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Certificate {
    /// The predicate that was checked.
    pub problem: Problem,
    /// Whether the solution satisfied it.
    pub valid: bool,
}

impl Certificate {
    /// Checks `set` against `problem`'s feasibility predicate on `g`.
    pub fn check(problem: Problem, g: &lmds_graph::Graph, set: &[Vertex]) -> Self {
        let valid = match problem {
            Problem::MinDominatingSet => is_dominating_set(g, set),
            Problem::MinVertexCover => is_vertex_cover(g, set),
        };
        Certificate { problem, valid }
    }
}

/// The LOCAL execution profile of a distributed solve: message
/// accounting plus the per-round decision profile. Attached to every
/// [`ExecutionMode::Local`](crate::ExecutionMode) solution.
///
/// [`MessageAccounting`](lmds_localsim::MessageAccounting)
/// distinguishes *measured* bits (message-passing runtime; zero is a
/// real measurement) from *not applicable* (the oracle exchanges no
/// messages), so reports never conflate "no messages measured" with
/// "zero bits".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageStats {
    /// Measured message bits, or
    /// [`NotApplicable`](lmds_localsim::MessageAccounting::NotApplicable)
    /// for the oracle.
    pub accounting: lmds_localsim::MessageAccounting,
    /// The decided-at histogram: entry `r` counts the vertices that
    /// decided at round `r` (length `rounds + 1`).
    pub decided_at: Vec<usize>,
}

impl MessageStats {
    /// Largest single message in bits, when measured.
    pub fn max_message_bits(&self) -> Option<u64> {
        self.accounting.max_bits()
    }

    /// Total bits on the wire, when measured.
    pub fn total_message_bits(&self) -> Option<u64> {
        self.accounting.total_bits()
    }
}

/// The optimum (or certified lower bound) a solution was measured
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Optimum {
    /// The optimum value, or its certified lower bound.
    pub value: usize,
    /// Whether `value` is exact (`false` ⟹ lower bound only, so the
    /// reported ratio is an upper bound on the true ratio).
    pub exact: bool,
}

/// The uniform output of every [`crate::Solver::solve`] call.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Registry key of the solver that produced this.
    pub solver: String,
    /// The problem that was solved.
    pub problem: Problem,
    /// The mode it ran under.
    pub mode: ExecutionMode,
    /// The selected vertex set (sorted, deduplicated).
    pub vertices: VertexSet,
    /// Validity certificate.
    pub certificate: Certificate,
    /// Round complexity (`None` for centralized runs).
    pub rounds: Option<u32>,
    /// The LOCAL execution profile (`Some` for every distributed run;
    /// the oracle reports
    /// [`NotApplicable`](lmds_localsim::MessageAccounting::NotApplicable)
    /// accounting but a real decision histogram).
    pub messages: Option<MessageStats>,
    /// Wall-clock time of the solve.
    pub wall: Duration,
    /// The optimum this solution was measured against, when available
    /// (ground truth, or measured when the config asked for it).
    pub optimum: Option<Optimum>,
    /// Pipeline internals (centralized Algorithm 1 family only): the
    /// intermediate sets behind `vertices`, which are not repeated here.
    pub diagnostics: Option<PipelineDiagnostics>,
    /// What the fault plan actually did, for
    /// [`ExecutionMode::LOCAL_MESSAGE_PASSING`](crate::ExecutionMode)
    /// runs under an active [`SolveConfig::fault`](crate::SolveConfig)
    /// plan (`None` everywhere else): messages dropped, crashed and
    /// silent vertices, maximum staleness observed. Identical seeds
    /// replay identical reports.
    pub fault: Option<FaultReport>,
}

/// How a (typically fault-injected) solution relates to a fault-free
/// reference run of the same solver on the same instance — the
/// degradation taxonomy of the fault harness.
#[derive(Debug, Clone, PartialEq)]
pub enum Degradation {
    /// Bit-identical vertex set to the reference run.
    ExactlyCorrect,
    /// Feasible, but a different set than the reference.
    FeasibleDegraded {
        /// Relative size drift against the reference:
        /// `|S| / |S_ref| − 1` (positive ⟹ larger than fault-free).
        ratio_drift: f64,
    },
    /// The set fails the problem's feasibility predicate.
    Infeasible {
        /// A witness: an undominated vertex (MDS) or an endpoint of an
        /// uncovered edge (MVC).
        witness: Vertex,
    },
}

/// Why [`Solution::verify`] rejected a solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A selected vertex is outside the instance graph.
    VertexOutOfRange(Vertex),
    /// The vertex set is not sorted strictly increasing (the canonical
    /// form every solver promises).
    NotCanonical,
    /// The set fails the problem's feasibility predicate.
    Infeasible(Problem),
    /// The stored certificate disagrees with the recheck.
    CertificateMismatch,
    /// The solution undercuts an exact optimum — one of the two is
    /// wrong.
    BeatsExactOptimum {
        /// The solution size.
        size: usize,
        /// The recorded exact optimum.
        optimum: usize,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::VertexOutOfRange(v) => write!(f, "vertex {v} is outside the instance"),
            VerifyError::NotCanonical => write!(f, "vertex set is not sorted/deduplicated"),
            VerifyError::Infeasible(p) => write!(f, "set fails the {p} feasibility predicate"),
            VerifyError::CertificateMismatch => {
                write!(f, "stored certificate disagrees with the recheck")
            }
            VerifyError::BeatsExactOptimum { size, optimum } => {
                write!(f, "size {size} undercuts the recorded exact optimum {optimum}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl Solution {
    /// Solution size `|S|`.
    pub fn size(&self) -> usize {
        self.vertices.len()
    }

    /// Re-derives the whole validity story of this solution against its
    /// instance: the vertex set is canonical and in range, the
    /// problem's own feasibility predicate holds (recomputed, not read
    /// from the stored [`Certificate`]), the stored certificate agrees,
    /// and the size never undercuts a recorded *exact* optimum.
    ///
    /// [`BatchRunner`](crate::BatchRunner) calls this on every record
    /// under `debug_assertions`, and the integration suites call it
    /// instead of re-implementing feasibility checks.
    ///
    /// # Errors
    ///
    /// The first [`VerifyError`] found.
    pub fn verify(&self, inst: &Instance) -> Result<(), VerifyError> {
        if let Some(&v) = self.vertices.iter().find(|&&v| v >= inst.n()) {
            return Err(VerifyError::VertexOutOfRange(v));
        }
        if self.vertices.windows(2).any(|w| w[0] >= w[1]) {
            return Err(VerifyError::NotCanonical);
        }
        let recheck = Certificate::check(self.problem, &inst.graph, &self.vertices);
        if !recheck.valid {
            return Err(VerifyError::Infeasible(self.problem));
        }
        if self.certificate != recheck {
            return Err(VerifyError::CertificateMismatch);
        }
        if let Some(opt) = self.optimum {
            if opt.exact && self.size() < opt.value {
                return Err(VerifyError::BeatsExactOptimum {
                    size: self.size(),
                    optimum: opt.value,
                });
            }
        }
        Ok(())
    }

    /// Whether the certificate checked out.
    pub fn is_valid(&self) -> bool {
        self.certificate.valid
    }

    /// Classifies this solution against a fault-free `reference` run of
    /// the same solver on the same instance — the degradation verdict
    /// of the fault harness. Feasibility is recomputed from the
    /// instance graph (not read from the stored certificate), so a
    /// crash-degraded run cannot smuggle a stale certificate past the
    /// classifier.
    pub fn classify(&self, inst: &Instance, reference: &Solution) -> Degradation {
        if let Some(witness) = infeasibility_witness(self.problem, &inst.graph, &self.vertices) {
            return Degradation::Infeasible { witness };
        }
        if self.vertices == reference.vertices {
            return Degradation::ExactlyCorrect;
        }
        let drift = self.size() as f64 / reference.size().max(1) as f64 - 1.0;
        Degradation::FeasibleDegraded { ratio_drift: drift }
    }

    /// The measured approximation ratio `|S| / opt`, if an optimum is
    /// attached. `1.0` when both sides are zero.
    pub fn ratio(&self) -> Option<f64> {
        let opt = self.optimum?;
        Some(if self.vertices.is_empty() && opt.value == 0 {
            1.0
        } else {
            self.vertices.len() as f64 / opt.value.max(1) as f64
        })
    }

    /// Assembles a solution, canonicalizing and certifying the vertex
    /// set. Used by every solver; keeps the contract in one place.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        solver: &'static str,
        inst: &Instance,
        problem: Problem,
        mode: ExecutionMode,
        vertices: Vec<Vertex>,
        rounds: Option<u32>,
        messages: Option<MessageStats>,
        wall: Duration,
    ) -> Self {
        let vertices = lmds_graph::canonical_set(vertices);
        let certificate = Certificate::check(problem, &inst.graph, &vertices);
        let optimum =
            inst.ground_truth.for_problem(problem).map(|value| Optimum { value, exact: true });
        Solution {
            solver: solver.to_string(),
            problem,
            mode,
            vertices,
            certificate,
            rounds,
            messages,
            wall,
            optimum,
            diagnostics: None,
            fault: None,
        }
    }
}

/// A concrete witness that `set` fails `problem`'s feasibility
/// predicate on `g`: an undominated vertex (MDS) or the smaller
/// endpoint of an uncovered edge (MVC). `None` when feasible.
fn infeasibility_witness(
    problem: Problem,
    g: &lmds_graph::Graph,
    set: &[Vertex],
) -> Option<Vertex> {
    let mut in_set = vec![false; g.n()];
    for &v in set {
        if let Some(slot) = in_set.get_mut(v) {
            *slot = true;
        }
    }
    match problem {
        Problem::MinDominatingSet => g
            .vertices()
            .find(|&v| !in_set[v] && g.neighbors(v).iter().all(|&u| !in_set[u as usize])),
        Problem::MinVertexCover => g.vertices().find(|&v| {
            !in_set[v] && g.neighbors(v).iter().any(|&u| u as usize > v && !in_set[u as usize])
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmds_graph::Graph;

    #[test]
    fn certificate_uses_the_right_predicate() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        // {1} dominates the path but does not cover edge (0,1)... it
        // does cover both edges actually; use {0} instead: covers (0,1)
        // only.
        assert!(Certificate::check(Problem::MinDominatingSet, &g, &[1]).valid);
        assert!(Certificate::check(Problem::MinVertexCover, &g, &[1]).valid);
        assert!(!Certificate::check(Problem::MinVertexCover, &g, &[0]).valid);
        assert!(!Certificate::check(Problem::MinDominatingSet, &g, &[]).valid);
    }

    #[test]
    fn message_stats_distinguish_measured_from_not_applicable() {
        use lmds_localsim::MessageAccounting;
        let measured = MessageStats {
            accounting: MessageAccounting::Measured { max_message_bits: 0, total_message_bits: 0 },
            decided_at: vec![5],
        };
        // Measured zero bits is a real measurement...
        assert_eq!(measured.max_message_bits(), Some(0));
        assert_eq!(measured.total_message_bits(), Some(0));
        // ...while the oracle measured nothing at all.
        let oracle = MessageStats {
            accounting: MessageAccounting::NotApplicable,
            decided_at: vec![0, 2, 3],
        };
        assert_eq!(oracle.max_message_bits(), None);
    }

    #[test]
    fn verify_accepts_good_and_rejects_bad_solutions() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let inst = crate::Instance::sequential("p3", g).with_mds_optimum(1);
        let mut sol = Solution::assemble(
            "test",
            &inst,
            Problem::MinDominatingSet,
            ExecutionMode::Centralized,
            vec![1],
            None,
            None,
            Duration::ZERO,
        );
        sol.verify(&inst).expect("a correct solution verifies");
        // Out of range.
        let mut bad = sol.clone();
        bad.vertices = vec![7];
        assert_eq!(bad.verify(&inst), Err(VerifyError::VertexOutOfRange(7)));
        // Not canonical.
        bad.vertices = vec![1, 1];
        assert_eq!(bad.verify(&inst), Err(VerifyError::NotCanonical));
        // Infeasible (empty set cannot dominate).
        bad.vertices = vec![0];
        assert_eq!(bad.verify(&inst), Err(VerifyError::Infeasible(Problem::MinDominatingSet)));
        // Undercutting an exact optimum: claim optimum 2 with |S| = 1.
        sol.optimum = Some(Optimum { value: 2, exact: true });
        assert_eq!(sol.verify(&inst), Err(VerifyError::BeatsExactOptimum { size: 1, optimum: 2 }));
        // A lower bound may exceed the size (ratio < 1 impossible only
        // for exact optima).
        sol.optimum = Some(Optimum { value: 2, exact: false });
        sol.verify(&inst).expect("lower bounds are not contradicted by a smaller set");
    }

    #[test]
    fn ratio_handles_edges_cases() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let inst = crate::Instance::sequential("e", g).with_mds_optimum(1);
        let sol = Solution::assemble(
            "test",
            &inst,
            Problem::MinDominatingSet,
            ExecutionMode::Centralized,
            vec![0, 1, 0],
            None,
            None,
            Duration::ZERO,
        );
        assert_eq!(sol.size(), 2, "assemble canonicalizes");
        assert!(sol.is_valid());
        assert!((sol.ratio().unwrap() - 2.0).abs() < 1e-9);
    }
}
