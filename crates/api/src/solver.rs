//! The [`Solver`] trait and the built-in solver table: every algorithm
//! in the workspace behind one `solve(&Instance, &SolveConfig) ->
//! Solution` contract.
//!
//! The built-in solvers are rows of one table, `BUILTINS`: a
//! [`SolverDescriptor`] plus the algorithm the row runs. The paper's
//! algorithms take three shapes, so every row runs one of three solve
//! bodies — the adaptive Algorithm 1 pipeline, an explicit-round state
//! machine next to its centralized reference, or an exact reference
//! search. Adding a built-in solver means adding one row.

use crate::{
    ConfigFields, ExecutionMode, Instance, MessageStats, Optimum, Problem, Solution, SolveConfig,
};
use lmds_core::distributed::{
    self, Algorithm1Decider, DegreeRuleLocal, MvcAlgorithm1Decider, RegularMvcLocal, TakeAllLocal,
    Theorem44Local,
};
use lmds_core::mvc::algorithm1_mvc;
use lmds_core::theorem44::{theorem44_mds, theorem44_mvc};
use lmds_core::{algorithm1, baselines, Algorithm1Output, Radii};
use lmds_graph::exact::{ExactEngine, ExactError};
use lmds_graph::Vertex;
use lmds_localsim::{
    FaultReport, FaultyRuntime, LocalAlgorithm, OracleRuntime, RuntimeError, RuntimeKind,
};
use std::time::Instant;

/// Why a solve call failed.
#[derive(Debug, Clone)]
pub enum SolveError {
    /// No solver is registered under the requested key.
    UnknownSolver {
        /// The key that was looked up.
        key: String,
        /// Every key the registry does know, so the error message can
        /// steer the caller to a valid one.
        known: Vec<&'static str>,
    },
    /// The config's problem does not match the solver's.
    UnsupportedProblem {
        /// The solver's key.
        solver: &'static str,
        /// What the config asked for.
        requested: Problem,
    },
    /// The solver cannot run under the requested execution mode.
    UnsupportedMode {
        /// The solver's key.
        solver: &'static str,
        /// What the config asked for.
        requested: ExecutionMode,
    },
    /// The solver cannot honor part of the configuration.
    UnsupportedOptions {
        /// The solver's key.
        solver: &'static str,
        /// What was wrong.
        reason: String,
    },
    /// An exact solver exhausted its search budget.
    BudgetExhausted {
        /// The solver's key.
        solver: &'static str,
        /// The budget that was exhausted.
        budget: u64,
    },
    /// The LOCAL simulation failed (round cap, malformed instance).
    /// Message passing under an active fault plan attaches the
    /// [`FaultReport`] accumulated up to the failure, so a crash-stalled
    /// run still names which vertices fell silent.
    Runtime(RuntimeError, Option<FaultReport>),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::UnknownSolver { key, known } => {
                write!(f, "no solver registered as {key:?} (known solvers: {})", known.join(", "))
            }
            SolveError::UnsupportedProblem { solver, requested } => {
                write!(f, "solver {solver} does not solve {requested}")
            }
            SolveError::UnsupportedMode { solver, requested } => {
                write!(f, "solver {solver} does not support {requested} execution")
            }
            SolveError::UnsupportedOptions { solver, reason } => {
                write!(f, "solver {solver}: {reason}")
            }
            SolveError::BudgetExhausted { solver, budget } => {
                write!(f, "solver {solver} exhausted its search budget of {budget} nodes")
            }
            SolveError::Runtime(e, fault) => {
                write!(f, "LOCAL runtime error: {e}")?;
                if let Some(r) = fault {
                    write!(
                        f,
                        " (fault run: {} messages dropped, {} crashed, {} silent)",
                        r.messages_dropped,
                        r.crashed.len(),
                        r.silent.len()
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::Runtime(e, _) => Some(e),
            _ => None,
        }
    }
}

impl From<RuntimeError> for SolveError {
    fn from(e: RuntimeError) -> Self {
        SolveError::Runtime(e, None)
    }
}

impl SolveError {
    /// The exceeded round cap, when this error is a
    /// [`RuntimeError::RoundLimitExceeded`] — the retry-with-a-higher-cap
    /// hook for registry callers.
    pub fn round_limit(&self) -> Option<u32> {
        match self {
            SolveError::Runtime(RuntimeError::RoundLimitExceeded { limit, .. }, _) => Some(*limit),
            _ => None,
        }
    }

    /// The fault report a failed run accumulated, when this error came
    /// out of message passing under an active fault plan.
    pub fn fault_report(&self) -> Option<&FaultReport> {
        match self {
            SolveError::Runtime(_, fault) => fault.as_ref(),
            _ => None,
        }
    }
}

/// What a solver is: its registry key, name, problem, paper reference
/// and supported modes, as reported by
/// [`SolverRegistry::descriptors`](crate::SolverRegistry::descriptors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverDescriptor {
    /// Stable registry key, `"<problem>/<algorithm>"`
    /// (e.g. `"mds/algorithm1"`).
    pub key: &'static str,
    /// Human-readable name.
    pub name: &'static str,
    /// The problem it targets.
    pub problem: Problem,
    /// Where in the paper (or folklore) it comes from.
    pub paper_ref: &'static str,
    /// The execution modes it supports.
    pub modes: &'static [ExecutionMode],
}

/// A uniform algorithm: every MDS/MVC algorithm in the workspace
/// implements this one trait, and all consumers (experiments, the
/// `reproduce` binary, examples, batch sweeps) invoke algorithms only
/// through it.
pub trait Solver: Send + Sync {
    /// What this solver is; the registry keys it on
    /// [`SolverDescriptor::key`].
    fn descriptor(&self) -> &SolverDescriptor;

    /// Solves `inst` under `cfg`, returning the structured solution.
    ///
    /// # Errors
    ///
    /// [`SolveError`] on problem/mode/config mismatch or simulator
    /// failure; never panics on well-formed instances.
    fn solve(&self, inst: &Instance, cfg: &SolveConfig) -> Result<Solution, SolveError>;

    /// The config fields [`Solver::solve`] reads under `cfg`, beyond
    /// `problem` and `mode`: `solve` answers `cfg` and
    /// `cfg.restricted_to(self.reads(cfg))` alike, so a result cache
    /// keys on the latter. The default claims every field.
    fn reads(&self, cfg: &SolveConfig) -> ConfigFields {
        let _ = cfg;
        ConfigFields::ALL
    }
}

/// Every mode (shared constant for solvers with full support).
const ALL_MODES: &[ExecutionMode] = &ExecutionMode::ALL;

/// Centralized only (exact solvers).
const CENTRALIZED_ONLY: &[ExecutionMode] = &[ExecutionMode::Centralized];

/// Validates the config's problem and mode against the descriptor, and
/// rejects an active fault plan that the row does not read under the
/// config's mode (`reads`): only message passing injects a plan, so no
/// plan is accepted and then ignored.
fn check(d: &SolverDescriptor, reads: ConfigFields, cfg: &SolveConfig) -> Result<(), SolveError> {
    if cfg.problem != d.problem {
        return Err(SolveError::UnsupportedProblem { solver: d.key, requested: cfg.problem });
    }
    if !d.modes.contains(&cfg.mode) {
        return Err(SolveError::UnsupportedMode { solver: d.key, requested: cfg.mode });
    }
    if cfg.fault.is_active() && !reads.contains(ConfigFields::FAULT) {
        return Err(SolveError::UnsupportedOptions {
            solver: d.key,
            reason: format!(
                "fault plan \"{}\" requires the local-message-passing mode, not {}",
                cfg.fault, cfg.mode
            ),
        });
    }
    Ok(())
}

/// The adaptive Algorithm 1 deciders' round cap
/// ([`distributed::adaptive_round_cap`]).
///
/// # Errors
///
/// [`SolveError::UnsupportedOptions`] naming the radii when the cap
/// does not fit the simulator's `u32` round counter.
fn adaptive_round_cap(solver: &'static str, radii: Radii, n: usize) -> Result<u32, SolveError> {
    distributed::adaptive_round_cap(radii, n).ok_or_else(|| SolveError::UnsupportedOptions {
        solver,
        reason: format!(
            "radii ({}, {}) need a LOCAL round cap above {} on {n} vertices",
            radii.one_cut,
            radii.two_cut,
            u32::MAX
        ),
    })
}

/// The grace budget a fault run grants the completeness-gated native
/// state machines: `None` (strict, wait for full evidence) outside
/// fault runs, the plan's standard budget inside them.
fn fault_grace(cfg: &SolveConfig) -> Option<u32> {
    cfg.fault.is_active().then(|| cfg.fault.grace())
}

/// The effective round cap: an explicit [`SolveConfig::round_cap`]
/// (even a stalling one — the regression tests rely on small explicit
/// caps tripping), or the solver default widened by the fault plan's
/// grace-and-skew headroom so default fault runs terminate.
fn local_round_cap(cfg: &SolveConfig, default: u32) -> u32 {
    cfg.round_cap
        .unwrap_or(default.saturating_add(cfg.fault.grace()).saturating_add(cfg.fault.skew))
}

/// Runs a boolean [`LocalAlgorithm`] under the config's LOCAL fields
/// and finishes the solution: resolves the engine from the mode,
/// applies the identifier policy (instance ids unless overridden), and
/// attaches the round count and the [`MessageStats`].
///
/// Message passing runs the config's [`FaultConfig`] plan (`check` has
/// already rejected an active plan on any other mode). Under an active
/// plan the fault report rides on the solution, or on the
/// [`SolveError::Runtime`] of a failed run, and crashed-undecided
/// vertices are *silent* — absent from the vertex set and named in the
/// report rather than failing the run.
///
/// [`FaultConfig`]: lmds_localsim::FaultConfig
fn run_local<A: LocalAlgorithm<Output = bool>>(
    solver: &'static str,
    inst: &Instance,
    cfg: &SolveConfig,
    started: Instant,
    algo: &A,
    cap: u32,
) -> Result<Solution, SolveError> {
    let kind = cfg
        .mode
        .runtime()
        .unwrap_or_else(|| unreachable!("run_local is only called for ExecutionMode::Local"));
    let scenario_ids;
    let ids = match cfg.id_policy {
        Some(policy) => {
            scenario_ids = policy.assign(&inst.graph);
            &scenario_ids
        }
        None => &inst.ids,
    };
    let (vertices, rounds, stats, fault) = match kind {
        RuntimeKind::MessagePassing => {
            let active = cfg.fault.is_active();
            let run = FaultyRuntime::new(cfg.fault)
                .run_with_report(&inst.graph, ids, algo, cap)
                .map_err(|(e, report)| SolveError::Runtime(e, active.then_some(report)))?;
            let vertices: Vec<Vertex> = run
                .outputs
                .iter()
                .enumerate()
                .filter_map(|(v, o)| matches!(o, Some(true)).then_some(v))
                .collect();
            let stats =
                MessageStats { accounting: run.messages, decided_at: run.decided_histogram() };
            (vertices, run.rounds, stats, active.then_some(run.report))
        }
        RuntimeKind::Oracle => {
            let res = OracleRuntime.run(&inst.graph, ids, algo, cap)?;
            let vertices: Vec<Vertex> =
                res.outputs.iter().enumerate().filter_map(|(v, &b)| b.then_some(v)).collect();
            let stats =
                MessageStats { accounting: res.messages, decided_at: res.decided_histogram() };
            (vertices, res.rounds, stats, None)
        }
    };
    let mut sol = finish(solver, inst, cfg, started, vertices, Some(rounds), Some(stats));
    sol.fault = fault;
    Ok(sol)
}

/// Attaches a measured optimum when the config asks for one and ground
/// truth did not already provide it.
fn measure_optimum(inst: &Instance, cfg: &SolveConfig, sol: &mut Solution) {
    if !cfg.measure_ratio || sol.optimum.is_some() {
        return;
    }
    let rep = match sol.problem {
        Problem::MinDominatingSet => {
            lmds_core::analysis::mds_report(&inst.graph, sol.size(), cfg.opt_budget)
        }
        Problem::MinVertexCover => {
            lmds_core::analysis::vc_report(&inst.graph, sol.size(), cfg.opt_budget)
        }
    };
    sol.optimum = Some(Optimum {
        value: rep.opt,
        exact: rep.kind == lmds_core::analysis::OptimumKind::Exact,
    });
}

/// Shared tail of every solve: assemble, measure, stamp wall time.
fn finish(
    solver: &'static str,
    inst: &Instance,
    cfg: &SolveConfig,
    started: Instant,
    vertices: Vec<Vertex>,
    rounds: Option<u32>,
    messages: Option<MessageStats>,
) -> Solution {
    let mut sol = Solution::assemble(
        solver,
        inst,
        cfg.problem,
        cfg.mode,
        vertices,
        rounds,
        messages,
        started.elapsed(),
    );
    measure_optimum(inst, cfg, &mut sol);
    sol
}

// ---------------------------------------------------------------------
// The three solve bodies
// ---------------------------------------------------------------------

/// The one solve body of the Algorithm 1 family (`mds/algorithm1`,
/// `mds/algorithm2`, `mvc/algorithm1`): the `centralized` pipeline run
/// with its diagnostics, or the adaptive LOCAL `decider` at the
/// config's radii.
fn solve_pipeline<A: LocalAlgorithm<Output = bool>>(
    key: &'static str,
    inst: &Instance,
    cfg: &SolveConfig,
    centralized: impl FnOnce() -> Algorithm1Output,
    decider: &A,
) -> Result<Solution, SolveError> {
    let started = Instant::now();
    if cfg.mode == ExecutionMode::Centralized {
        let out = centralized();
        let mut sol = finish(key, inst, cfg, started, out.solution, None, None);
        sol.diagnostics = Some(out.diagnostics);
        return Ok(sol);
    }
    let cap = local_round_cap(cfg, adaptive_round_cap(key, cfg.radii, inst.n())?);
    run_local(key, inst, cfg, started, decider, cap)
}

/// The solve body of the explicit-round algorithms (Theorem 4.4, its
/// MVC variant, Table 1's folklore rows): the `centralized` reference,
/// or the native state machine `algo` under the config's LOCAL
/// scenario, capped at `default_cap` rounds unless the scenario names
/// a cap.
fn solve_rounds<A: LocalAlgorithm<Output = bool>>(
    key: &'static str,
    inst: &Instance,
    cfg: &SolveConfig,
    centralized: impl FnOnce() -> Vec<Vertex>,
    algo: &A,
    default_cap: u32,
) -> Result<Solution, SolveError> {
    let started = Instant::now();
    if cfg.mode == ExecutionMode::Centralized {
        return Ok(finish(key, inst, cfg, started, centralized(), None, None));
    }
    run_local(key, inst, cfg, started, algo, local_round_cap(cfg, default_cap))
}

/// The solve body of the exact reference solvers: `search` on this
/// thread's [`ExactEngine`], budget-capped. The result *is* the
/// optimum, so it is attached directly instead of re-running the
/// search under `measure_ratio`.
fn solve_exact(
    key: &'static str,
    inst: &Instance,
    cfg: &SolveConfig,
    search: impl FnOnce(&mut ExactEngine) -> Result<Vec<Vertex>, ExactError>,
) -> Result<Solution, SolveError> {
    let started = Instant::now();
    let vertices = lmds_graph::exact::with_thread_engine(search).map_err(
        |ExactError::BudgetExhausted { .. }| SolveError::BudgetExhausted {
            solver: key,
            budget: cfg.opt_budget,
        },
    )?;
    let mut sol = Solution::assemble(
        key,
        inst,
        cfg.problem,
        cfg.mode,
        vertices,
        None,
        None,
        started.elapsed(),
    );
    sol.optimum = Some(Optimum { value: sol.size(), exact: true });
    Ok(sol)
}

// ---------------------------------------------------------------------
// The built-in solver table
// ---------------------------------------------------------------------

/// The algorithm a built-in row runs. [`Builtin::solve`] maps each to
/// one of the three solve bodies.
#[derive(Clone, Copy)]
enum Body {
    /// Algorithm 1 / Theorem 4.1: the `O_t(1)`-round
    /// constant-approximation pipeline (twin reduction → local 1-cuts →
    /// interesting 2-cuts → exact brute force on bounded residuals).
    /// Algorithm 2 / Theorem 4.3 runs it too, with radii derived from an
    /// asymptotic-dimension control function — [`SolveConfig::control`]
    /// writes them into [`SolveConfig::radii`], which this body reads.
    Algorithm1,
    /// The MVC variant of Algorithm 1 (§4 closing remark): take *all*
    /// local-2-cut vertices, then an exact vertex cover of every
    /// component of `G − S` that has an edge.
    Algorithm1Mvc,
    /// Theorem 4.4: the 3-round `(2t−1)`-approximation (`D₂` of the
    /// twin-free quotient).
    Theorem44,
    /// Theorem 4.4's MVC variant: degree ≥ 2 plus smaller-id endpoints
    /// of isolated edges (`t`-approximation), 2 rounds.
    Theorem44Mvc,
    /// Table 1 trees row: the folklore 2-round 3-approximation (degree
    /// ≥ 2 plus small-component rules).
    TreesFolklore,
    /// Table 1 `K_{1,t}` row: every vertex joins at round 0
    /// (`Δ ≤ t−1 ⟹ n ≤ t·MDS`).
    TakeAll,
    /// Folklore 2-approximation for MVC on regular graphs: every
    /// non-isolated vertex joins (1 round).
    RegularMvc,
    /// Exact MDS through the [`ExactEngine`]: reduction rules, then
    /// branch and bound or the tree-decomposition DP per residual
    /// component, picked by the engine's size-and-width rule.
    ExactMds,
    /// Exact MVC through the [`ExactEngine`], under the same rule.
    ExactMvc,
}

/// The [`SolveConfig`] fields a row's body reads, by mode; every row
/// reads `problem` and `mode`. Every LOCAL mode runs through
/// `run_local`, which also reads the fault plan under message passing,
/// and a row that reads `measure_ratio` reads `opt_budget` while it is
/// set (see [`Builtin::reads`]).
#[derive(Clone, Copy)]
struct Reads {
    /// Under [`ExecutionMode::Centralized`].
    centralized: ConfigFields,
    /// Under every LOCAL mode.
    local: ConfigFields,
}

/// The LOCAL scenario `run_local` reads: identifiers and round cap.
const SCENARIO: ConfigFields = ConfigFields::ID_POLICY.union(ConfigFields::ROUND_CAP);

/// The Algorithm 1 family: its radii and the ratio measurement, plus
/// the scenario when simulated.
const PIPELINE_READS: Reads = Reads {
    centralized: ConfigFields::RADII.union(ConfigFields::MEASURE_RATIO),
    local: ConfigFields::RADII.union(ConfigFields::MEASURE_RATIO).union(SCENARIO),
};

/// The explicit-round solvers: no radii.
const ROUNDS_READS: Reads = Reads {
    centralized: ConfigFields::MEASURE_RATIO,
    local: ConfigFields::MEASURE_RATIO.union(SCENARIO),
};

/// The exact solvers: the search budget. Their answer is the optimum,
/// so `measure_ratio` adds nothing.
const EXACT_READS: Reads =
    Reads { centralized: ConfigFields::OPT_BUDGET, local: ConfigFields::NONE };

/// One row of [`BUILTINS`]: what the solver is, what it runs, and
/// which config fields that reads.
pub(crate) struct Builtin {
    descriptor: SolverDescriptor,
    body: Body,
    reads: Reads,
}

/// Every built-in solver, one row each;
/// [`SolverRegistry::with_defaults`](crate::SolverRegistry::with_defaults)
/// registers them all.
pub(crate) const BUILTINS: [Builtin; 10] = [
    Builtin {
        descriptor: SolverDescriptor {
            key: "mds/algorithm1",
            name: "Algorithm 1 pipeline",
            problem: Problem::MinDominatingSet,
            paper_ref: "Theorem 4.1",
            modes: ALL_MODES,
        },
        body: Body::Algorithm1,
        reads: PIPELINE_READS,
    },
    Builtin {
        descriptor: SolverDescriptor {
            key: "mds/algorithm2",
            name: "Algorithm 2 (control-function pipeline)",
            problem: Problem::MinDominatingSet,
            paper_ref: "Theorem 4.3",
            modes: ALL_MODES,
        },
        body: Body::Algorithm1,
        reads: PIPELINE_READS,
    },
    Builtin {
        descriptor: SolverDescriptor {
            key: "mds/theorem44",
            name: "Theorem 4.4 (3-round D₂)",
            problem: Problem::MinDominatingSet,
            paper_ref: "Theorem 4.4",
            modes: ALL_MODES,
        },
        body: Body::Theorem44,
        reads: ROUNDS_READS,
    },
    Builtin {
        descriptor: SolverDescriptor {
            key: "mds/trees-folklore",
            name: "trees folklore (degree ≥ 2)",
            problem: Problem::MinDominatingSet,
            paper_ref: "Table 1 (trees row, folklore)",
            modes: ALL_MODES,
        },
        body: Body::TreesFolklore,
        reads: ROUNDS_READS,
    },
    Builtin {
        descriptor: SolverDescriptor {
            key: "mds/take-all",
            name: "take all (0 rounds)",
            problem: Problem::MinDominatingSet,
            paper_ref: "Table 1 (K_{1,t} row, folklore)",
            modes: ALL_MODES,
        },
        body: Body::TakeAll,
        reads: ROUNDS_READS,
    },
    Builtin {
        descriptor: SolverDescriptor {
            key: "mds/exact",
            name: "exact MDS (reduce + branch & bound / treewidth DP)",
            problem: Problem::MinDominatingSet,
            paper_ref: "baseline (exact)",
            modes: CENTRALIZED_ONLY,
        },
        body: Body::ExactMds,
        reads: EXACT_READS,
    },
    Builtin {
        descriptor: SolverDescriptor {
            key: "mvc/theorem44",
            name: "Theorem 4.4 MVC variant",
            problem: Problem::MinVertexCover,
            paper_ref: "Theorem 4.4 (MVC extension)",
            modes: ALL_MODES,
        },
        body: Body::Theorem44Mvc,
        reads: ROUNDS_READS,
    },
    Builtin {
        descriptor: SolverDescriptor {
            key: "mvc/algorithm1",
            name: "Algorithm 1 MVC variant (take-all 2-cuts)",
            problem: Problem::MinVertexCover,
            paper_ref: "§4 closing remark",
            modes: ALL_MODES,
        },
        body: Body::Algorithm1Mvc,
        reads: PIPELINE_READS,
    },
    Builtin {
        descriptor: SolverDescriptor {
            key: "mvc/regular-take-all",
            name: "regular-graph take-all MVC",
            problem: Problem::MinVertexCover,
            paper_ref: "§1 (folklore)",
            modes: ALL_MODES,
        },
        body: Body::RegularMvc,
        reads: ROUNDS_READS,
    },
    Builtin {
        descriptor: SolverDescriptor {
            key: "mvc/exact",
            name: "exact MVC (reduce + branch & bound / treewidth DP)",
            problem: Problem::MinVertexCover,
            paper_ref: "baseline (exact)",
            modes: CENTRALIZED_ONLY,
        },
        body: Body::ExactMvc,
        reads: EXACT_READS,
    },
];

impl Solver for Builtin {
    fn descriptor(&self) -> &SolverDescriptor {
        &self.descriptor
    }

    fn solve(&self, inst: &Instance, cfg: &SolveConfig) -> Result<Solution, SolveError> {
        check(&self.descriptor, self.reads(cfg), cfg)?;
        let key = self.descriptor.key;
        let (g, ids, radii) = (&inst.graph, &inst.ids, cfg.radii);
        match self.body {
            Body::Algorithm1 => {
                let centralized = || algorithm1(g, ids, radii);
                solve_pipeline(key, inst, cfg, centralized, &Algorithm1Decider { radii })
            }
            Body::Algorithm1Mvc => {
                let centralized = || algorithm1_mvc(g, ids, radii);
                solve_pipeline(key, inst, cfg, centralized, &MvcAlgorithm1Decider { radii })
            }
            Body::Theorem44 => {
                let algo = Theorem44Local { grace: fault_grace(cfg) };
                solve_rounds(key, inst, cfg, || theorem44_mds(g, ids), &algo, 10)
            }
            Body::Theorem44Mvc => {
                let algo = DegreeRuleLocal { isolated_joins: false, grace: fault_grace(cfg) };
                solve_rounds(key, inst, cfg, || theorem44_mvc(g, ids), &algo, 10)
            }
            Body::TreesFolklore => {
                let algo = DegreeRuleLocal { isolated_joins: true, grace: fault_grace(cfg) };
                solve_rounds(key, inst, cfg, || baselines::trees_folklore(g, ids), &algo, 10)
            }
            Body::TakeAll => {
                solve_rounds(key, inst, cfg, || baselines::take_all(g), &TakeAllLocal, 5)
            }
            Body::RegularMvc => {
                let centralized = || baselines::regular_mvc_take_all(g);
                solve_rounds(key, inst, cfg, centralized, &RegularMvcLocal, 5)
            }
            Body::ExactMds => solve_exact(key, inst, cfg, |e| e.solve_mds(g, cfg.opt_budget)),
            Body::ExactMvc => solve_exact(key, inst, cfg, |e| e.solve_mvc(g, cfg.opt_budget)),
        }
    }

    fn reads(&self, cfg: &SolveConfig) -> ConfigFields {
        let reads = match cfg.mode {
            ExecutionMode::Centralized => self.reads.centralized,
            ExecutionMode::LOCAL_MESSAGE_PASSING => self.reads.local.union(ConfigFields::FAULT),
            ExecutionMode::Local(_) => self.reads.local,
        };
        if reads.contains(ConfigFields::MEASURE_RATIO) && cfg.measure_ratio {
            reads.union(ConfigFields::OPT_BUDGET)
        } else {
            reads
        }
    }
}
