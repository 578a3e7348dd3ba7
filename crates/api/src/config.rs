//! The uniform solve configuration: problem, execution mode, LOCAL
//! scenario (identifier policy, round cap, fault plan), radii — one
//! builder shared by every solver. It carries no ablation switches: the
//! registry runs the paper's pipeline, and the ablation experiment calls
//! `lmds_core::algorithm1_with` with its `PipelineOptions` directly.

use lmds_asdim::ControlFunction;
use lmds_core::Radii;
use lmds_localsim::{FaultConfig, IdPolicy, RuntimeKind};
use std::str::FromStr;

/// The optimization problem an [`crate::Solver`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Problem {
    /// Minimum Dominating Set.
    MinDominatingSet,
    /// Minimum Vertex Cover.
    MinVertexCover,
}

impl Problem {
    /// The stable key prefix used by registry keys (`mds/...`,
    /// `mvc/...`).
    pub fn key_prefix(self) -> &'static str {
        match self {
            Problem::MinDominatingSet => "mds",
            Problem::MinVertexCover => "mvc",
        }
    }
}

impl std::fmt::Display for Problem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Problem::MinDominatingSet => write!(f, "MDS"),
            Problem::MinVertexCover => write!(f, "MVC"),
        }
    }
}

impl FromStr for Problem {
    type Err = String;

    /// Inverts [`Problem::key_prefix`] (`"mds"` / `"mvc"`), the wire
    /// form; the `Display` form (`"MDS"`) is for reports only.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mds" => Ok(Problem::MinDominatingSet),
            "mvc" => Ok(Problem::MinVertexCover),
            other => Err(format!("unknown problem {other:?} (expected \"mds\" or \"mvc\")")),
        }
    }
}

/// How a solver executes: the centralized reference, or a LOCAL
/// simulation of one [`RuntimeKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// Centralized reference implementation (no simulator).
    Centralized,
    /// LOCAL simulation on the named runtime backend.
    Local(RuntimeKind),
}

impl ExecutionMode {
    /// LOCAL simulation with oracle state computation (fast; no message
    /// accounting).
    pub const LOCAL_ORACLE: ExecutionMode = ExecutionMode::Local(RuntimeKind::Oracle);
    /// Faithful synchronous message passing (message bits accounted),
    /// under the config's [`SolveConfig::fault`] plan when it is active.
    pub const LOCAL_MESSAGE_PASSING: ExecutionMode =
        ExecutionMode::Local(RuntimeKind::MessagePassing);
    /// Retired: an alias of [`ExecutionMode::LOCAL_MESSAGE_PASSING`],
    /// which now runs the fault plan. It stays only because
    /// `perfbench/src/local.rs` names it; no workspace code uses it, and
    /// the next benchmark change deletes it.
    pub const LOCAL_FAULTY: ExecutionMode = ExecutionMode::LOCAL_MESSAGE_PASSING;

    /// All modes, in the order batch sweeps iterate them.
    pub const ALL: [ExecutionMode; 3] = [
        ExecutionMode::Centralized,
        ExecutionMode::LOCAL_ORACLE,
        ExecutionMode::LOCAL_MESSAGE_PASSING,
    ];

    /// The runtime backend, when distributed.
    pub fn runtime(self) -> Option<RuntimeKind> {
        match self {
            ExecutionMode::Centralized => None,
            ExecutionMode::Local(kind) => Some(kind),
        }
    }
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionMode::Centralized => write!(f, "centralized"),
            ExecutionMode::Local(kind) => write!(f, "local-{kind}"),
        }
    }
}

impl FromStr for ExecutionMode {
    type Err = String;

    /// Inverts the `Display` form: `"centralized"`, or `"local-"`
    /// followed by a [`RuntimeKind`]'s own form.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "centralized" {
            return Ok(ExecutionMode::Centralized);
        }
        s.strip_prefix("local-")
            .and_then(|kind| kind.parse().ok())
            .map(ExecutionMode::Local)
            .ok_or_else(|| {
                format!(
                    "unknown execution mode {s:?} (expected one of: {})",
                    ExecutionMode::ALL.map(|m| m.to_string()).join(", ")
                )
            })
    }
}

/// A set of [`SolveConfig`] fields: the ones a solver reads under a
/// given config ([`crate::Solver::reads`]). `problem` and `mode` are
/// never in it, because every solver reads both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigFields(u8);

impl ConfigFields {
    /// No field.
    pub const NONE: ConfigFields = ConfigFields(0);
    /// [`SolveConfig::id_policy`], seed included.
    pub const ID_POLICY: ConfigFields = ConfigFields(1);
    /// [`SolveConfig::round_cap`].
    pub const ROUND_CAP: ConfigFields = ConfigFields(1 << 1);
    /// [`SolveConfig::fault`].
    pub const FAULT: ConfigFields = ConfigFields(1 << 2);
    /// [`SolveConfig::radii`].
    pub const RADII: ConfigFields = ConfigFields(1 << 3);
    /// [`SolveConfig::measure_ratio`].
    pub const MEASURE_RATIO: ConfigFields = ConfigFields(1 << 4);
    /// [`SolveConfig::opt_budget`].
    pub const OPT_BUDGET: ConfigFields = ConfigFields(1 << 5);
    /// Every field.
    pub const ALL: ConfigFields = ConfigFields(0b11_1111);

    /// The fields of `self` and `other`.
    pub const fn union(self, other: ConfigFields) -> ConfigFields {
        ConfigFields(self.0 | other.0)
    }

    /// Whether every field of `other` is in `self`.
    pub const fn contains(self, other: ConfigFields) -> bool {
        self.0 & other.0 == other.0
    }
}

/// The uniform configuration every [`crate::Solver::solve`] call takes.
///
/// Built fluently:
///
/// ```
/// use lmds_api::{ExecutionMode, IdPolicy, SolveConfig};
/// use lmds_core::Radii;
///
/// let cfg = SolveConfig::mds()
///     .mode(ExecutionMode::LOCAL_MESSAGE_PASSING)
///     .id_policy(IdPolicy::Adversarial { seed: 7 })
///     .round_cap(64)
///     .radii(Radii::practical(2, 3))
///     .measure_ratio(true);
/// assert!(cfg.measure_ratio);
/// assert_eq!(cfg.round_cap, Some(64));
/// ```
#[derive(Debug, Clone)]
pub struct SolveConfig {
    /// Which problem to solve; solvers reject a mismatch.
    pub problem: Problem,
    /// Execution mode; solvers reject unsupported modes.
    pub mode: ExecutionMode,
    /// Identifier-assignment override for LOCAL runs: `None` uses the
    /// instance's own assignment, `Some(policy)` re-assigns per
    /// [`IdPolicy`] (sequential, seeded-shuffled, or
    /// degree-adversarial). Centralized runs ignore it.
    pub id_policy: Option<IdPolicy>,
    /// Upper bound on simulated rounds; `None` ⟹ a solver-specific safe
    /// default. Centralized runs ignore it.
    pub round_cap: Option<u32>,
    /// The fault plan for [`ExecutionMode::LOCAL_MESSAGE_PASSING`] runs:
    /// seeded message drops, crash-stop vertices, bounded
    /// round-asynchrony. The inert (all-zero) plan is the default; an
    /// *active* plan in any other mode, centralized included, is
    /// rejected as unsupported options.
    pub fault: FaultConfig,
    /// Pipeline radii for the Algorithm 1 family: `mds/algorithm1`,
    /// `mds/algorithm2` and `mvc/algorithm1` (ignored by the 3-round
    /// and folklore solvers). The builders [`SolveConfig::radii`] and
    /// [`SolveConfig::control`] both write this one field, so the last
    /// call wins.
    pub radii: Radii,
    /// Whether to measure the approximation ratio against an exact
    /// optimum / certified bound after solving.
    pub measure_ratio: bool,
    /// Branch-and-bound node budget for optimum measurement and for the
    /// exact solvers.
    pub opt_budget: u64,
}

/// Default branch-and-bound budget (matches the bench harness).
pub const DEFAULT_OPT_BUDGET: u64 = 3_000_000;

impl SolveConfig {
    /// A fresh config for the given problem (centralized, practical
    /// radii `(2, 3)`, the instance's identifiers, the solver's round
    /// cap, no faults, no ratio measurement).
    pub fn new(problem: Problem) -> Self {
        SolveConfig {
            problem,
            mode: ExecutionMode::Centralized,
            id_policy: None,
            round_cap: None,
            fault: FaultConfig::default(),
            radii: Radii::practical(2, 3),
            measure_ratio: false,
            opt_budget: DEFAULT_OPT_BUDGET,
        }
    }

    /// Shorthand for [`SolveConfig::new`] with
    /// [`Problem::MinDominatingSet`].
    pub fn mds() -> Self {
        Self::new(Problem::MinDominatingSet)
    }

    /// Shorthand for [`SolveConfig::new`] with
    /// [`Problem::MinVertexCover`].
    pub fn mvc() -> Self {
        Self::new(Problem::MinVertexCover)
    }

    /// Sets the execution mode.
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the identifier assignment for distributed runs.
    pub fn id_policy(mut self, policy: IdPolicy) -> Self {
        self.id_policy = Some(policy);
        self
    }

    /// Caps the number of simulated rounds.
    pub fn round_cap(mut self, cap: u32) -> Self {
        self.round_cap = Some(cap);
        self
    }

    /// Sets the fault plan for [`ExecutionMode::LOCAL_MESSAGE_PASSING`]
    /// runs.
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Sets the pipeline radii explicitly.
    pub fn radii(mut self, radii: Radii) -> Self {
        self.radii = radii;
        self
    }

    /// Sets the radii Algorithm 2 derives from the control function `f`
    /// (`m_{3.2}` and `m_{3.3}`, as Theorem 4.3 prescribes).
    pub fn control(self, f: ControlFunction) -> Self {
        self.radii(Radii::from_control(&f))
    }

    /// Enables or disables ratio measurement.
    pub fn measure_ratio(mut self, yes: bool) -> Self {
        self.measure_ratio = yes;
        self
    }

    /// Sets the optimum-measurement budget.
    pub fn opt_budget(mut self, budget: u64) -> Self {
        self.opt_budget = budget;
        self
    }

    /// This config with every field outside `reads` at its default: a
    /// solver that reads only `reads` answers both configs alike, so a
    /// result cache keys on this one.
    ///
    /// The fault plan is kept whatever `reads` says. A solver that does
    /// not read it rejects an active plan rather than ignoring it, so an
    /// active plan keeps a key of its own, and an inert one renders like
    /// the default anyway.
    pub fn restricted_to(&self, reads: ConfigFields) -> SolveConfig {
        fn pick<T>(read: bool, own: T, default: T) -> T {
            if read {
                own
            } else {
                default
            }
        }
        let default = SolveConfig::new(self.problem);
        let has = |field| reads.contains(field);
        SolveConfig {
            id_policy: pick(has(ConfigFields::ID_POLICY), self.id_policy, default.id_policy),
            round_cap: pick(has(ConfigFields::ROUND_CAP), self.round_cap, default.round_cap),
            radii: pick(has(ConfigFields::RADII), self.radii, default.radii),
            measure_ratio: pick(has(ConfigFields::MEASURE_RATIO), self.measure_ratio, false),
            opt_budget: pick(has(ConfigFields::OPT_BUDGET), self.opt_budget, default.opt_budget),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let cfg = SolveConfig::mvc()
            .mode(ExecutionMode::LOCAL_ORACLE)
            .round_cap(7)
            .opt_budget(10)
            .id_policy(IdPolicy::Sequential);
        assert_eq!(cfg.problem, Problem::MinVertexCover);
        assert_eq!(cfg.mode, ExecutionMode::Local(lmds_localsim::RuntimeKind::Oracle));
        assert_eq!(cfg.round_cap, Some(7));
        assert_eq!(cfg.id_policy, Some(IdPolicy::Sequential));
        assert_eq!(cfg.opt_budget, 10);
    }

    #[test]
    fn control_derives_radii() {
        let f = ControlFunction::Affine { a: 1, b: 0, dim: 1 };
        let cfg = SolveConfig::mds().control(f);
        assert_eq!(cfg.radii, Radii::from_control(&f));
    }

    #[test]
    fn radii_and_control_are_one_knob_last_setter_wins() {
        let f = ControlFunction::Affine { a: 1, b: 0, dim: 1 };
        // control then radii: explicit radii win.
        let cfg = SolveConfig::mds().control(f).radii(Radii::practical(2, 3));
        assert_eq!(cfg.radii, Radii::practical(2, 3));
        // radii then control: control wins and re-derives the radii.
        let cfg2 = SolveConfig::mds().radii(Radii::practical(2, 3)).control(f);
        assert_eq!(cfg2.radii, Radii::from_control(&f));
    }

    #[test]
    fn display_strings_are_stable() {
        assert_eq!(Problem::MinDominatingSet.to_string(), "MDS");
        assert_eq!(ExecutionMode::Centralized.to_string(), "centralized");
        assert_eq!(ExecutionMode::LOCAL_ORACLE.to_string(), "local-oracle");
        assert_eq!(ExecutionMode::LOCAL_MESSAGE_PASSING.to_string(), "local-message-passing");
        assert_eq!(Problem::MinVertexCover.key_prefix(), "mvc");
    }

    #[test]
    fn mode_classification() {
        assert_eq!(ExecutionMode::Centralized.runtime(), None);
        for mode in [ExecutionMode::LOCAL_ORACLE, ExecutionMode::LOCAL_MESSAGE_PASSING] {
            assert!(mode.runtime().is_some());
        }
        assert_eq!(ExecutionMode::ALL.len(), 3);
    }

    #[test]
    fn problem_and_mode_round_trip_their_display_forms() {
        for p in [Problem::MinDominatingSet, Problem::MinVertexCover] {
            assert_eq!(p.key_prefix().parse::<Problem>().unwrap(), p);
        }
        for m in ExecutionMode::ALL {
            assert_eq!(m.to_string().parse::<ExecutionMode>().unwrap(), m);
        }
        assert!("MDS".parse::<Problem>().is_err(), "display form is not the wire form");
        assert!("oracle".parse::<ExecutionMode>().is_err());
        assert!("local-".parse::<ExecutionMode>().is_err());
        // The retired aliases of the two engines no longer parse.
        assert!("local-sharded-oracle".parse::<ExecutionMode>().is_err());
        assert!("local-faulty".parse::<ExecutionMode>().is_err());
    }

    #[test]
    fn fault_builder_threads_the_plan_through_the_scenario() {
        use lmds_localsim::DropPolicy;
        let fault = FaultConfig {
            seed: 3,
            drop: DropPolicy::Bernoulli { per_mille: 100 },
            ..FaultConfig::default()
        };
        let cfg = SolveConfig::mds().mode(ExecutionMode::LOCAL_MESSAGE_PASSING).fault(fault);
        assert_eq!(cfg.fault, fault);
        assert!(!SolveConfig::mds().fault.is_active(), "default plan is inert");
    }
}
