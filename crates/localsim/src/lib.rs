//! # lmds-localsim
//!
//! A deterministic synchronous **LOCAL-model** simulator with
//! first-class round state machines and pluggable runtimes.
//!
//! The LOCAL model (Linial): the network is an undirected graph;
//! vertices are processors with unique `O(log n)`-bit identifiers;
//! computation proceeds in synchronous rounds; in each round every
//! vertex exchanges unbounded messages with its neighbors and performs
//! arbitrary local computation. The complexity measure is the number of
//! rounds.
//!
//! The crate is layered:
//!
//! * [`LocalAlgorithm`] — a per-vertex round state machine with explicit
//!   typed messages (`init → (send, receive, decide?)* → decide`). This
//!   is the contract every distributed algorithm implements.
//! * [`Decider`] — the view-function special case: a function from the
//!   [`LocalView`] (everything a vertex can know after `k` rounds) to a
//!   decision. A blanket adapter makes every `Decider` a
//!   `LocalAlgorithm` running the full-information protocol, so
//!   adaptive algorithms stay one `fn` long. What the adapter floods is
//!   [`Knowledge`]: the known vertices and edges as bits in sorted
//!   64-bit blocks over a numbering that each run builds once, in
//!   identifier order, the first time an adapter asks the run's
//!   [`Network`] for it. A round ORs words, and `decide` gets the
//!   `LocalView` the bits spell out, with no sort.
//! * Two engines that run any [`LocalAlgorithm`] with the same
//!   `run(g, ids, algo, max_rounds)` call, each over one [`Network`]
//!   per run that every vertex's [`NodeCtx`] and every projection
//!   share: [`OracleRuntime`] (states computed directly via projection
//!   or ball replay, from the algorithm's
//!   [`LocalAlgorithm::first_round`] on, vertices drained across
//!   `lmds_graph::par` workers on large graphs) and [`FaultyRuntime`]
//!   (faithful synchronous message passing with bits accounted, under
//!   an optional seeded [`FaultConfig`]: drops, crash-stop vertices,
//!   bounded skew). Message passing keeps each round's messages once
//!   and lends them to [`LocalAlgorithm::receive`] as `&[&Message]`; no
//!   delivery copies a message. Both return one [`RunResult`] and fail
//!   with one [`RuntimeError`].
//!   [`RuntimeKind`] names the two engines as configuration layers
//!   select them: `oracle`, and `message-passing` with the empty plan.
//! * [`IdPolicy`] / [`IdAssignment`] — the identifier-assignment axis:
//!   sequential, seeded-shuffled, or degree-adversarial permutations.
//!
//! The fundamental fact the oracle engine is built around: after `k`
//! rounds a vertex `v` can know exactly the identifiers of `N^k[v]` and
//! all edges incident to `N^{k-1}[v]`, and nothing more — so a vertex's
//! state is computable from its `k`-ball alone, either by projecting
//! it directly (view algorithms set their knowledge's bits from one
//! BFS; [`oracle_view`] is the reference view those bits must spell
//! out) or by replaying the state machine inside the ball. Both engines
//! are bit-identical on deterministic algorithms; the [`RunResult`]
//! additionally reports decision rounds, the decided-at histogram,
//! and — on the message-passing engine — measured message bits
//! ([`MessageAccounting`]) and, exactly when the fault plan is active,
//! the [`FaultReport`]. An output is `None` only for a vertex the plan
//! crashed before it decided; a round-limit error carries the report
//! the same way.
//!
//! # Example
//!
//! ```
//! use lmds_graph::Graph;
//! use lmds_localsim::{
//!     Decider, IdAssignment, LocalView, MessageAccounting, OracleRuntime, RuntimeKind,
//! };
//!
//! /// Decide the degree: needs 1 round (vertices start without it).
//! struct DegreeAlgo;
//! impl Decider for DegreeAlgo {
//!     type Output = usize;
//!     fn decide(&self, view: &LocalView) -> Option<usize> {
//!         (view.rounds() >= 1).then(|| view.neighbors_of(view.center_id()).len())
//!     }
//! }
//!
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! let ids = IdAssignment::sequential(4);
//! let res = OracleRuntime.run(&g, &ids, &DegreeAlgo, 16).unwrap();
//! assert_eq!(res.rounds, 1);
//! assert_eq!(res.outputs, [1, 2, 2, 1].map(Some));
//! // The oracle computed states without exchanging messages:
//! assert_eq!(res.messages, MessageAccounting::NotApplicable);
//! // Message passing measures real bits, bit-identically:
//! let mp = RuntimeKind::MessagePassing.run(&g, &ids, &DegreeAlgo, 16).unwrap();
//! assert_eq!(mp.outputs, res.outputs);
//! assert!(mp.messages.total_bits().unwrap() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod fault;
pub mod ids;
pub mod knowledge;
pub mod runtime;
pub mod view;

pub use algorithm::{LocalAlgorithm, Network, NodeCtx};
pub use fault::{
    CrashPolicy, DropPolicy, FaultConfig, FaultReport, FaultyRuntime, ParseFaultError,
};
pub use ids::{IdAssignment, IdPolicy};
pub use knowledge::Knowledge;
pub use runtime::{
    oracle_view, MessageAccounting, OracleRuntime, RunResult, RuntimeError, RuntimeKind,
};
pub use view::LocalView;

/// A LOCAL algorithm expressed as a view-to-decision function.
///
/// Message passing calls `decide` after every round (including round
/// 0, when the view contains only the vertex itself); the oracle starts
/// at [`Decider::first_round`]. Returning `Some` fixes the node's
/// output; the runtime keeps the node relaying messages afterwards (as
/// a real network would) but records its decision round.
///
/// Implementations must be deterministic functions of the view — this
/// is what makes the runtimes interchangeable. Every `Decider` is a
/// [`LocalAlgorithm`] through the blanket adapter in [`algorithm`]:
/// state and message are both the vertex's [`Knowledge`] (the
/// full-information protocol, flooded as 64-bit blocks), `decide` sees
/// the [`LocalView`] it spells out, and oracle backends shortcut the
/// flood by projecting the knowledge of a ball from one BFS.
pub trait Decider: Sync {
    /// Per-node output type.
    type Output: Clone + Send;

    /// Decide from the current view, or return `None` to wait a round.
    fn decide(&self, view: &LocalView) -> Option<Self::Output>;

    /// The first round at which `decide` may return `Some`: it must
    /// return `None` on every view of fewer rounds. The oracle builds
    /// no view before this round; the blanket adapter forwards it as
    /// [`LocalAlgorithm::first_round`]. The default 0 promises nothing.
    fn first_round(&self) -> u32 {
        0
    }
}
