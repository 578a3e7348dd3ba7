//! # lmds-api
//!
//! The unified service-facing API of the workspace: one [`Solver`]
//! trait (a [`SolverDescriptor`] plus `solve`), a [`SolverRegistry`]
//! naming every algorithm under a stable string key — the built-in
//! solvers are rows of one table in [`solver`], each running one of
//! three solve bodies — and a [`BatchRunner`] that fans solver sets
//! across many instances on a thread pool.
//!
//! Everything upstream of this crate (graph substrate, the paper's
//! algorithms, the LOCAL simulator, workload generators) is exposed
//! downstream (experiments, the `reproduce` binary, examples, service
//! frontends) exclusively through three types:
//!
//! * [`Instance`] — graph + identifier assignment + optional ground
//!   truth,
//! * [`SolveConfig`] — problem ([`Problem::MinDominatingSet`] or
//!   [`Problem::MinVertexCover`]), [`ExecutionMode`], the LOCAL
//!   identifier [`IdPolicy`], round cap and [`FaultConfig`], radii,
//!   ratio measurement and the exact-search budget. `Problem` and
//!   `ExecutionMode` parse back from their wire strings (`"mds"`,
//!   `"local-oracle"`, …); `lmds-serve` owns the rest of the wire form,
//! * [`Solution`] — vertex set, validity [`Certificate`], measured
//!   ratio, round count, [`MessageStats`] (message-bit accounting +
//!   decided-at histogram), wall time, and [`PipelineDiagnostics`];
//!   [`SolutionView`] is its flat transport summary.
//!
//! Distributed solvers are **registry-native**: every
//! `ExecutionMode::Local(kind)` solve runs a first-class
//! `lmds_localsim::LocalAlgorithm` (native typed-message state machines
//! for the explicit-round algorithms, view deciders for the adaptive
//! pipeline) on the engine `kind` names — the oracle (sharded across
//! workers on large graphs) or faithful message passing (under the
//! config's fault plan, when it is active). Both produce bit-identical
//! solutions on a fault-free network.
//!
//! # Quickstart
//!
//! ```
//! use lmds_api::{ExecutionMode, Instance, SolveConfig, SolverRegistry};
//!
//! let registry = SolverRegistry::with_defaults();
//! let instance = Instance::shuffled("demo", lmds_gen::basic::cycle(12), 7);
//!
//! // Same call shape for every algorithm, centralized or simulated.
//! let cfg = SolveConfig::mds().mode(ExecutionMode::LOCAL_ORACLE).measure_ratio(true);
//! let sol = registry.solve("mds/theorem44", &instance, &cfg).unwrap();
//! assert!(sol.is_valid());
//! assert_eq!(sol.rounds, Some(3));
//! assert!(sol.ratio().unwrap() >= 1.0);
//!
//! // Every distributed run carries its LOCAL execution profile: the
//! // oracle backend exchanges no messages but reports when each vertex
//! // decided.
//! let stats = sol.messages.as_ref().unwrap();
//! assert_eq!(stats.max_message_bits(), None);
//! assert_eq!(stats.decided_at.iter().sum::<usize>(), instance.n());
//!
//! // Enumerate what is available.
//! assert!(registry.keys().len() >= 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod config;
pub mod instance;
pub mod registry;
pub mod solution;
pub mod solver;
pub mod view;

pub use batch::{BatchJob, BatchRecord, BatchRunner};
pub use config::{ConfigFields, ExecutionMode, Problem, SolveConfig, DEFAULT_OPT_BUDGET};
pub use instance::{GroundTruth, Instance};
pub use registry::SolverRegistry;
pub use solution::{
    Certificate, Degradation, MessageStats, Optimum, PipelineDiagnostics, Solution, VerifyError,
};
pub use solver::{SolveError, Solver, SolverDescriptor};
pub use view::SolutionView;

// The LOCAL-scenario vocabulary (including the fault-injection knobs),
// re-exported so API consumers need not depend on the simulator crate
// directly.
pub use lmds_localsim::{
    CrashPolicy, DropPolicy, FaultConfig, FaultReport, IdPolicy, MessageAccounting, RuntimeKind,
};
