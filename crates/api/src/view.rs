//! The transport summary of a [`Solution`].
//!
//! Service frontends (the `lmds-serve` daemon and its result cache,
//! report emitters) need a flat picture of a solve that survives a trip
//! through JSON without dragging a serializer into this crate:
//! [`SolutionView`] holds the vertices, validity, rounds, message bits,
//! wall time and ratio in plain owned fields, and the fault report as
//! the engine produced it (`Some` exactly under an active plan). The
//! solve *configuration* has no mirror here: `lmds-serve` parses its
//! wire form straight into a [`crate::SolveConfig`].

use crate::{FaultReport, Solution};

/// The transport summary of a [`Solution`]: everything a service
/// client needs, in flat owned fields.
#[derive(Debug, Clone, PartialEq)]
pub struct SolutionView {
    /// Registry key of the producing solver.
    pub solver: String,
    /// Problem key prefix (`"mds"` / `"mvc"`).
    pub problem: String,
    /// Execution mode in `Display` form.
    pub mode: String,
    /// `|S|`.
    pub size: usize,
    /// The selected vertex set (canonical: sorted, deduplicated).
    pub vertices: Vec<usize>,
    /// Whether the validity certificate checked out.
    pub valid: bool,
    /// Round complexity, for distributed runs.
    pub rounds: Option<u32>,
    /// Total message bits, when the runtime measured them.
    pub total_message_bits: Option<u64>,
    /// Largest single message in bits, when measured.
    pub max_message_bits: Option<u64>,
    /// Wall-clock solve time in microseconds.
    pub wall_micros: u64,
    /// Measured approximation ratio, when an optimum was attached.
    pub ratio: Option<f64>,
    /// The optimum it was measured against: `(value, exact)`.
    pub optimum: Option<(usize, bool)>,
    /// What the fault plan did (active fault plans only).
    pub fault: Option<FaultReport>,
}

impl From<&Solution> for SolutionView {
    fn from(sol: &Solution) -> Self {
        SolutionView {
            solver: sol.solver.clone(),
            problem: sol.problem.key_prefix().to_string(),
            mode: sol.mode.to_string(),
            size: sol.size(),
            vertices: sol.vertices.clone(),
            valid: sol.is_valid(),
            rounds: sol.rounds,
            total_message_bits: sol.messages.as_ref().and_then(|m| m.total_message_bits()),
            max_message_bits: sol.messages.as_ref().and_then(|m| m.max_message_bits()),
            wall_micros: sol.wall.as_micros().min(u64::MAX as u128) as u64,
            ratio: sol.ratio(),
            optimum: sol.optimum.map(|o| (o.value, o.exact)),
            fault: sol.fault.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionMode, Instance, SolveConfig};

    #[test]
    fn solution_view_captures_the_summary() {
        let registry = crate::SolverRegistry::with_defaults();
        let inst = Instance::sequential("p8", lmds_gen::basic::path(8)).with_mds_optimum(3);
        let cfg = SolveConfig::mds().mode(ExecutionMode::LOCAL_MESSAGE_PASSING);
        let sol = registry.solve("mds/theorem44", &inst, &cfg).unwrap();
        let view = SolutionView::from(&sol);
        assert_eq!(view.solver, "mds/theorem44");
        assert_eq!(view.problem, "mds");
        assert_eq!(view.mode, "local-message-passing");
        assert_eq!(view.size, sol.size());
        assert_eq!(view.vertices, sol.vertices);
        assert!(view.valid);
        assert_eq!(view.rounds, Some(3));
        assert!(view.total_message_bits.is_some(), "message passing measures bits");
        assert_eq!(view.optimum, Some((3, true)));
        assert!(view.ratio.unwrap() >= 1.0);
    }
}
