//! The two LOCAL execution engines.
//!
//! * [`OracleRuntime`] — computes each vertex's round-`k` state
//!   directly: through the algorithm's [`LocalAlgorithm::project`] fast
//!   path when it has one (view algorithms set the bits of their
//!   [`crate::Knowledge`] from one BFS of `N^k[v]`, which spell out
//!   [`oracle_view`]), otherwise by replaying the state machine inside
//!   the ball `N^k[v]` — provably the same state, no global message
//!   schedule. It starts each vertex at the algorithm's
//!   [`LocalAlgorithm::first_round`], since no earlier state can
//!   decide. From 640 vertices up it drains the vertices across
//!   [`lmds_graph::par`] workers.
//! * [`FaultyRuntime`] — faithful synchronous message passing behind
//!   an optional seeded fault plan: every round each live vertex
//!   broadcasts one typed message to every neighbor, and message bits
//!   are accounted. Each round's messages are kept once and lent to
//!   `receive` by reference. With the empty plan it is the "ground
//!   truth" message-passing execution.
//!
//! [`RuntimeKind`] names the two engines as configuration layers select
//! them (the `lmds-api` crate selects runtimes by kind): `oracle` and
//! `message-passing`, the latter with the empty plan (fault scenarios
//! construct a [`FaultyRuntime`] with their plan). Both engines expose
//! the same `run(g, ids, algo, max_rounds)` call: [`OracleRuntime::run`]
//! and [`FaultyRuntime::run`]. Each run wraps `(g, ids)` in one
//! [`crate::Network`]: vertices wake up with its [`crate::NodeCtx`]s,
//! projections read it, and the view adapter builds its numbering there
//! once, on first use, so a native algorithm's run never builds one.

use crate::algorithm::{LocalAlgorithm, Network};
use crate::fault::FaultyRuntime;
use crate::ids::IdAssignment;
use crate::view::LocalView;
use lmds_graph::scratch::with_thread_scratch;
use lmds_graph::{bfs, par, Graph};
use std::error::Error;
use std::fmt;

/// Message accounting of a LOCAL execution: message passing measures
/// bits; the oracle exchanges no messages, which is *not* the same as
/// measuring zero bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageAccounting {
    /// Bits were measured on the wire (message-passing runtime). A
    /// 0-round or 0-bit protocol legitimately measures zero.
    Measured {
        /// Largest single message, in bits.
        max_message_bits: u64,
        /// Total bits sent over all edges and rounds.
        total_message_bits: u64,
    },
    /// The runtime computed states without exchanging messages (the
    /// oracle); no bit counts exist.
    NotApplicable,
}

impl MessageAccounting {
    /// The largest single message, when measured.
    pub fn max_bits(&self) -> Option<u64> {
        match *self {
            MessageAccounting::Measured { max_message_bits, .. } => Some(max_message_bits),
            MessageAccounting::NotApplicable => None,
        }
    }

    /// The total bits on the wire, when measured.
    pub fn total_bits(&self) -> Option<u64> {
        match *self {
            MessageAccounting::Measured { total_message_bits, .. } => Some(total_message_bits),
            MessageAccounting::NotApplicable => None,
        }
    }

    /// Whether this execution measured real messages.
    pub fn is_measured(&self) -> bool {
        matches!(self, MessageAccounting::Measured { .. })
    }
}

/// Outcome of a LOCAL execution.
#[derive(Debug, Clone)]
pub struct RunResult<O> {
    /// Per-vertex outputs, indexed by host vertex.
    pub outputs: Vec<O>,
    /// The round at which each vertex decided.
    pub decided_at: Vec<u32>,
    /// Global round complexity: `max(decided_at)`.
    pub rounds: u32,
    /// Message accounting ([`MessageAccounting::NotApplicable`] for the
    /// oracle).
    pub messages: MessageAccounting,
}

impl<O> RunResult<O> {
    /// The decision histogram: entry `r` counts the vertices that
    /// decided at round `r` (length `rounds + 1`).
    pub fn decided_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.rounds as usize + 1];
        for &r in &self.decided_at {
            hist[r as usize] += 1;
        }
        hist
    }
}

/// Errors from a LOCAL execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Some vertex had not decided after the round cap.
    RoundLimitExceeded {
        /// The cap that was hit.
        limit: u32,
        /// Number of vertices still undecided.
        undecided: usize,
    },
    /// The id assignment does not match the graph size.
    SizeMismatch {
        /// Vertices in the graph.
        graph_n: usize,
        /// Identifiers provided.
        ids_n: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::RoundLimitExceeded { limit, undecided } => {
                write!(f, "round limit {limit} exceeded with {undecided} vertices undecided")
            }
            RuntimeError::SizeMismatch { graph_n, ids_n } => {
                write!(f, "graph has {graph_n} vertices but {ids_n} identifiers were given")
            }
        }
    }
}

impl Error for RuntimeError {}

/// The two engines, as a configuration value. Higher layers (solver
/// configs, sweeps) select a kind; [`RuntimeKind::run`] dispatches it to
/// its engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeKind {
    /// Faithful synchronous message passing with bit accounting:
    /// [`FaultyRuntime`]'s loop with the empty plan.
    MessagePassing,
    /// Direct per-vertex state computation (projection or ball replay):
    /// [`OracleRuntime`], which shards itself above its size gate.
    Oracle,
}

impl RuntimeKind {
    /// Both kinds, in the order sweeps iterate them.
    pub const ALL: [RuntimeKind; 2] = [RuntimeKind::MessagePassing, RuntimeKind::Oracle];

    /// Whether this kind exchanges (and accounts) real messages.
    pub fn measures_messages(self) -> bool {
        self == RuntimeKind::MessagePassing
    }

    /// Executes `algo` on the engine this kind names. The kind carries
    /// no fault parameters: message passing runs the empty plan, and
    /// fault scenarios construct a [`FaultyRuntime`] with their plan.
    ///
    /// # Errors
    ///
    /// Same as [`OracleRuntime::run`].
    pub fn run<A: LocalAlgorithm>(
        self,
        g: &Graph,
        ids: &IdAssignment,
        algo: &A,
        max_rounds: u32,
    ) -> Result<RunResult<A::Output>, RuntimeError> {
        match self {
            RuntimeKind::Oracle => OracleRuntime.run(g, ids, algo, max_rounds),
            RuntimeKind::MessagePassing => FaultyRuntime::default().run(g, ids, algo, max_rounds),
        }
    }
}

impl fmt::Display for RuntimeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuntimeKind::MessagePassing => "message-passing",
            RuntimeKind::Oracle => "oracle",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for RuntimeKind {
    type Err = String;

    /// Parses the [`fmt::Display`] form of each kind.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "message-passing" => Ok(RuntimeKind::MessagePassing),
            "oracle" => Ok(RuntimeKind::Oracle),
            other => Err(format!(
                "unknown runtime kind {other:?} (expected one of: {})",
                RuntimeKind::ALL.map(|k| k.to_string()).join(", ")
            )),
        }
    }
}

fn check_sizes(g: &Graph, ids: &IdAssignment) -> Result<(), RuntimeError> {
    if g.n() != ids.n() {
        Err(RuntimeError::SizeMismatch { graph_n: g.n(), ids_n: ids.n() })
    } else {
        Ok(())
    }
}

/// Computes the exact view of `v` after `k` rounds directly from the
/// graph: vertices of `N^k[v]`, edges incident to `N^{k-1}[v]`.
///
/// One scratch-pooled BFS supplies both radii: the outer ball is every
/// visited vertex, the inner ball the ones at distance `< k`. An edge
/// between two inner vertices is emitted once, from its smaller end.
/// This is the reference view: the [`crate::Decider`] adapter's
/// projection and its message-passing knowledge must both spell it out
/// ([`crate::Knowledge::view`]).
pub fn oracle_view(g: &Graph, ids: &IdAssignment, v: lmds_graph::Vertex, k: u32) -> LocalView {
    if k == 0 {
        return LocalView::initial(ids.id_of(v));
    }
    let (verts, edges) = with_thread_scratch(|s| {
        let mut ball = Vec::new();
        bfs::ball_of_set_into(g, s, &[v], k, &mut ball);
        let inner = |u: lmds_graph::Vertex| s.distance(u).is_some_and(|d| d < k);
        let mut edges = Vec::new();
        for &u in ball.iter().filter(|&&u| inner(u)) {
            for &w in g.neighbors(u) {
                let w = w as lmds_graph::Vertex;
                if u < w || !inner(w) {
                    edges.push((ids.id_of(u), ids.id_of(w)));
                }
            }
        }
        (ball.iter().map(|&u| ids.id_of(u)).collect(), edges)
    });
    LocalView::from_parts(ids.id_of(v), k, verts, edges)
}

/// The exact state of `v` after `rounds` rounds, computed by replaying
/// the state machine inside the ball `N^rounds[v]`.
///
/// Correctness: the state of a vertex `u` at distance `d` from `v`
/// after `j` rounds is exact whenever `d + j ≤ rounds` (by induction:
/// `u`'s neighbors are all inside the ball when `d ≤ rounds − 1`, and
/// their states one round earlier are exact at distance `d + 1`). The
/// center (`d = 0`) is therefore exact after `rounds` rounds, and its
/// inbox order matches the global execution's host neighbor order. The
/// inboxes borrow from the round's messages, as in message passing.
fn replay_state<A: LocalAlgorithm>(
    network: &Network,
    algo: &A,
    v: lmds_graph::Vertex,
    rounds: u32,
) -> A::State {
    if rounds == 0 {
        return algo.init(&network.node(v));
    }
    let g = network.graph();
    let ball = bfs::ball(g, v, rounds); // sorted ascending
    let mut states: Vec<A::State> = ball.iter().map(|&u| algo.init(&network.node(u))).collect();
    for round in 1..=rounds {
        let msgs: Vec<A::Message> = states.iter().map(|s| algo.send(s, round)).collect();
        let mut inbox: Vec<&A::Message> = Vec::new();
        for (i, &u) in ball.iter().enumerate() {
            inbox.clear();
            for &w in g.neighbors(u) {
                if let Ok(j) = ball.binary_search(&(w as usize)) {
                    inbox.push(&msgs[j]);
                }
            }
            algo.receive(&mut states[i], round, &inbox);
        }
    }
    let center = ball.binary_search(&v).expect("center is in its own ball");
    states.swap_remove(center)
}

/// The round-`k` state of `v`: projection fast path or ball replay.
fn state_at<A: LocalAlgorithm>(
    network: &Network,
    algo: &A,
    v: lmds_graph::Vertex,
    round: u32,
) -> A::State {
    if round == 0 {
        algo.init(&network.node(v))
    } else {
        algo.project(network, v, round).unwrap_or_else(|| replay_state(network, algo, v, round))
    }
}

/// Below this vertex count the oracle runs on the calling thread — the
/// cut engine's gate: the adaptive deciders' per-vertex work is too
/// small on smaller graphs to pay for a thread spawn.
const PARALLEL_THRESHOLD: usize = 640;

/// Oracle execution: per-vertex states computed directly (projection or
/// ball replay); no messages exchanged, so no bit accounting.
///
/// Under oracle semantics a vertex's decision round depends only on the
/// network, never on other vertices' decisions — so no per-round
/// barrier is needed: each vertex scans its rounds
/// `first_round..=max_rounds` ([`LocalAlgorithm::first_round`]: no
/// earlier state decides, so none is built) until it decides, and from
/// 640 vertices up the vertices are drained across [`lmds_graph::par`]
/// workers. Outputs do not depend on the worker count (algorithms are
/// deterministic).
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleRuntime;

impl OracleRuntime {
    /// Executes `algo` on the network `(g, ids)`, at most `max_rounds`
    /// communication rounds, producing per-vertex outputs, decision
    /// rounds, and [`MessageAccounting::NotApplicable`].
    ///
    /// ```
    /// use lmds_graph::Graph;
    /// use lmds_localsim::{Decider, IdAssignment, LocalView, OracleRuntime};
    ///
    /// /// Decide the degree: needs 1 round.
    /// struct DegreeAlgo;
    /// impl Decider for DegreeAlgo {
    ///     type Output = usize;
    ///     fn decide(&self, view: &LocalView) -> Option<usize> {
    ///         (view.rounds() >= 1).then(|| view.neighbors_of(view.center_id()).len())
    ///     }
    /// }
    ///
    /// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
    /// let ids = IdAssignment::sequential(4);
    /// let res = OracleRuntime.run(&g, &ids, &DegreeAlgo, 16).unwrap();
    /// assert_eq!(res.rounds, 1);
    /// assert_eq!(res.outputs, vec![1, 2, 2, 1]);
    /// assert_eq!(res.decided_histogram(), vec![0, 4]);
    /// ```
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RoundLimitExceeded`] if some vertex never decides
    /// within `max_rounds`; [`RuntimeError::SizeMismatch`] on malformed
    /// input.
    pub fn run<A: LocalAlgorithm>(
        &self,
        g: &Graph,
        ids: &IdAssignment,
        algo: &A,
        max_rounds: u32,
    ) -> Result<RunResult<A::Output>, RuntimeError> {
        let workers = par::workers(g.n(), PARALLEL_THRESHOLD, g.n());
        Self::run_on(g, ids, algo, max_rounds, workers)
    }

    /// [`OracleRuntime::run`] on an explicit worker count.
    fn run_on<A: LocalAlgorithm>(
        g: &Graph,
        ids: &IdAssignment,
        algo: &A,
        max_rounds: u32,
        workers: usize,
    ) -> Result<RunResult<A::Output>, RuntimeError> {
        check_sizes(g, ids)?;
        let n = g.n();
        let first = algo.first_round();
        let network = Network::new(g, ids);
        // Per worker: (vertex, decision round, output) of every vertex
        // that decided within the cap.
        let decided = par::drain(workers, n, |mine: &mut Vec<(usize, u32, A::Output)>, v| {
            let decision = (first..=max_rounds).find_map(|round| {
                algo.decide(&state_at(&network, algo, v, round), round).map(|o| (round, o))
            });
            if let Some((round, o)) = decision {
                mine.push((v, round, o));
            }
        });
        let mut outputs: Vec<Option<A::Output>> = vec![None; n];
        let mut decided_at = vec![0u32; n];
        for (v, round, o) in decided.into_iter().flatten() {
            outputs[v] = Some(o);
            decided_at[v] = round;
        }
        let undecided = outputs.iter().filter(|o| o.is_none()).count();
        if undecided > 0 {
            return Err(RuntimeError::RoundLimitExceeded { limit: max_rounds, undecided });
        }
        Ok(RunResult {
            outputs: outputs.into_iter().map(|o| o.expect("every vertex decided")).collect(),
            rounds: decided_at.iter().copied().max().unwrap_or(0),
            decided_at,
            messages: MessageAccounting::NotApplicable,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decider, NodeCtx};
    use lmds_graph::GraphBuilder;

    struct DegreeAlgo;
    impl Decider for DegreeAlgo {
        type Output = usize;
        fn decide(&self, view: &LocalView) -> Option<usize> {
            (view.rounds() >= 1).then(|| view.neighbors_of(view.center_id()).len())
        }
    }

    /// Decides whether the center lies on a triangle; needs radius-1
    /// induced knowledge, i.e. 2 rounds.
    struct TriangleAlgo;
    impl Decider for TriangleAlgo {
        type Output = bool;
        fn decide(&self, view: &LocalView) -> Option<bool> {
            if view.certified_radius() < 1 {
                return None;
            }
            let me = view.center_id();
            let nb = view.neighbors_of(me);
            for (i, &a) in nb.iter().enumerate() {
                for &b in &nb[i + 1..] {
                    if view.contains_edge(a, b) {
                        return Some(true);
                    }
                }
            }
            Some(false)
        }
        fn first_round(&self) -> u32 {
            2
        }
    }

    /// A native (non-view) algorithm with no projection: forces the
    /// oracle through the ball-replay path. Outputs the
    /// smallest id within distance 2.
    struct MinIdRadius2;

    #[derive(Clone)]
    struct MinState {
        min: u64,
    }

    impl LocalAlgorithm for MinIdRadius2 {
        type State = MinState;
        type Message = u64;
        type Output = u64;
        fn init(&self, ctx: &NodeCtx) -> MinState {
            MinState { min: ctx.id }
        }
        fn send(&self, state: &MinState, _round: u32) -> u64 {
            state.min
        }
        fn receive(&self, state: &mut MinState, _round: u32, incoming: &[&u64]) {
            for &&m in incoming {
                state.min = state.min.min(m);
            }
        }
        fn decide(&self, state: &MinState, round: u32) -> Option<u64> {
            (round >= 2).then_some(state.min)
        }
        fn first_round(&self) -> u32 {
            2
        }
        fn message_bits(&self, _msg: &u64, id_bits: u32) -> u64 {
            id_bits as u64
        }
    }

    /// Delegates to `inner`, recording the round of every `decide` call.
    struct Counting<A> {
        inner: A,
        asked: std::sync::Mutex<Vec<u32>>,
    }

    impl<A> Counting<A> {
        fn new(inner: A) -> Self {
            Counting { inner, asked: std::sync::Mutex::new(Vec::new()) }
        }

        /// The rounds `decide` was asked at since the last call.
        fn take(&self) -> Vec<u32> {
            std::mem::take(&mut *self.asked.lock().unwrap())
        }
    }

    impl<A: LocalAlgorithm> LocalAlgorithm for Counting<A> {
        type State = A::State;
        type Message = A::Message;
        type Output = A::Output;
        fn init(&self, ctx: &NodeCtx) -> A::State {
            self.inner.init(ctx)
        }
        fn send(&self, state: &A::State, round: u32) -> A::Message {
            self.inner.send(state, round)
        }
        fn receive(&self, state: &mut A::State, round: u32, incoming: &[&A::Message]) {
            self.inner.receive(state, round, incoming);
        }
        fn decide(&self, state: &A::State, round: u32) -> Option<A::Output> {
            self.asked.lock().unwrap().push(round);
            self.inner.decide(state, round)
        }
        fn first_round(&self) -> u32 {
            self.inner.first_round()
        }
        fn message_bits(&self, msg: &A::Message, id_bits: u32) -> u64 {
            self.inner.message_bits(msg, id_bits)
        }
        fn project(
            &self,
            network: &Network,
            v: lmds_graph::Vertex,
            round: u32,
        ) -> Option<A::State> {
            self.inner.project(network, v, round)
        }
    }

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.cycle(&vs);
        b.build()
    }

    #[test]
    fn degree_in_one_round_all_runtimes() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (1, 4)]);
        let ids = IdAssignment::shuffled(5, 3);
        let a = RuntimeKind::MessagePassing.run(&g, &ids, &DegreeAlgo, 10).unwrap();
        let b = OracleRuntime.run(&g, &ids, &DegreeAlgo, 10).unwrap();
        let c = OracleRuntime::run_on(&g, &ids, &DegreeAlgo, 10, 4).unwrap();
        assert_eq!(a.outputs, vec![1, 3, 2, 1, 1]);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.outputs, c.outputs);
        assert_eq!(a.rounds, 1);
        assert_eq!(b.rounds, 1);
        assert_eq!(c.rounds, 1);
        assert!(a.messages.max_bits().unwrap() > 0);
        assert!(a.messages.total_bits() >= a.messages.max_bits());
        assert_eq!(b.messages, MessageAccounting::NotApplicable);
        assert_eq!(c.messages, MessageAccounting::NotApplicable);
    }

    #[test]
    fn triangle_detection_needs_two_rounds() {
        let mut g = cycle(6);
        g.add_edge(0, 2); // triangle 0-1-2
        let ids = IdAssignment::sequential(7.min(g.n()));
        let res = RuntimeKind::MessagePassing.run(&g, &ids, &TriangleAlgo, 10).unwrap();
        assert_eq!(res.rounds, 2);
        assert_eq!(res.outputs, vec![true, true, true, false, false, false]);
        let res2 = OracleRuntime.run(&g, &ids, &TriangleAlgo, 10).unwrap();
        assert_eq!(res.outputs, res2.outputs);
        assert_eq!(res.decided_at, res2.decided_at);
        assert_eq!(res.decided_histogram(), res2.decided_histogram());
    }

    #[test]
    fn native_algorithm_replay_matches_message_passing() {
        // MinIdRadius2 has no projection: the oracle replays the
        // state machine inside balls and must still agree bit-for-bit.
        let mut g = cycle(12);
        g.add_edge(0, 6);
        let ids = IdAssignment::shuffled(12, 17);
        let a = RuntimeKind::MessagePassing.run(&g, &ids, &MinIdRadius2, 10).unwrap();
        let b = OracleRuntime.run(&g, &ids, &MinIdRadius2, 10).unwrap();
        let c = OracleRuntime::run_on(&g, &ids, &MinIdRadius2, 10, 5).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.outputs, c.outputs);
        assert_eq!(a.decided_at, b.decided_at);
        assert_eq!(a.decided_at, c.decided_at);
        assert_eq!(a.rounds, 2);
        // Every vertex's output is the true min id within distance 2.
        for v in 0..12 {
            let expect = bfs::ball(&g, v, 2).into_iter().map(|u| ids.id_of(u)).min().unwrap();
            assert_eq!(a.outputs[v], expect, "vertex {v}");
        }
    }

    #[test]
    fn oracle_starts_at_first_round_and_still_matches_message_passing() {
        // The oracle asks each vertex once per round from `first_round`
        // to its decision round and never earlier; message passing asks
        // from round 0. Outputs and decision rounds still agree, for a
        // view algorithm (projection) and a native one (ball replay).
        fn check<A>(g: &Graph, ids: &IdAssignment, algo: A)
        where
            A: LocalAlgorithm,
            A::Output: PartialEq + fmt::Debug,
        {
            let counting = Counting::new(algo);
            let first = counting.first_round();
            let oracle = OracleRuntime.run(g, ids, &counting, 10).unwrap();
            let oracle_asked = counting.take();
            let mp = RuntimeKind::MessagePassing.run(g, ids, &counting, 10).unwrap();
            let mp_asked = counting.take();
            assert_eq!(oracle.outputs, mp.outputs);
            assert_eq!(oracle.decided_at, mp.decided_at);
            assert!(oracle_asked.iter().all(|&r| r >= first), "{oracle_asked:?}");
            let per_vertex = oracle.decided_at.iter().map(|&d| (d - first + 1) as usize);
            assert_eq!(oracle_asked.len(), per_vertex.sum::<usize>());
            assert!(mp_asked.iter().any(|&r| r < first), "message passing asks every round");
        }
        let mut g = cycle(12);
        g.add_edge(0, 2);
        g.add_edge(3, 8);
        let ids = IdAssignment::shuffled(12, 5);
        check(&g, &ids, TriangleAlgo);
        check(&g, &ids, MinIdRadius2);
    }

    #[test]
    fn oracle_equals_message_passing_views() {
        // Cross-validate view contents on a structured graph for several
        // radii (the core simulator invariant).
        let g =
            Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 6), (6, 7)]);
        let ids = IdAssignment::shuffled(8, 11);
        // Reconstruct message-passing views manually (the blanket
        // adapter's receive) and compare to the oracle views.
        let mut views: Vec<LocalView> = (0..8).map(|v| LocalView::initial(ids.id_of(v))).collect();
        for k in 1..=4u32 {
            let snapshot = views.clone();
            for (v, view) in views.iter_mut().enumerate() {
                for &u in g.neighbors(v) {
                    let u = u as usize;
                    view.learn_edge(ids.id_of(v), ids.id_of(u));
                    let s = snapshot[u].clone();
                    view.merge(&s);
                }
                view.advance_round();
            }
            for (v, view) in views.iter().enumerate() {
                let oracle = oracle_view(&g, &ids, v, k);
                assert_eq!(view, &oracle, "vertex {v} round {k}");
            }
        }
    }

    #[test]
    fn round_limit_error() {
        struct Never;
        impl Decider for Never {
            type Output = ();
            fn decide(&self, _: &LocalView) -> Option<()> {
                None
            }
        }
        let g = cycle(4);
        let ids = IdAssignment::sequential(4);
        let err = OracleRuntime.run(&g, &ids, &Never, 3).unwrap_err();
        assert_eq!(err, RuntimeError::RoundLimitExceeded { limit: 3, undecided: 4 });
        let err2 = RuntimeKind::MessagePassing.run(&g, &ids, &Never, 3).unwrap_err();
        assert_eq!(err2, RuntimeError::RoundLimitExceeded { limit: 3, undecided: 4 });
        let err3 = OracleRuntime::run_on(&g, &ids, &Never, 3, 2).unwrap_err();
        assert_eq!(err3, RuntimeError::RoundLimitExceeded { limit: 3, undecided: 4 });
    }

    #[test]
    fn size_mismatch_error() {
        let g = cycle(4);
        let ids = IdAssignment::sequential(3);
        assert!(matches!(
            OracleRuntime.run(&g, &ids, &DegreeAlgo, 5),
            Err(RuntimeError::SizeMismatch { graph_n: 4, ids_n: 3 })
        ));
    }

    #[test]
    fn zero_round_algorithm_measures_zero_bits() {
        struct TakeAll;
        impl Decider for TakeAll {
            type Output = bool;
            fn decide(&self, _: &LocalView) -> Option<bool> {
                Some(true)
            }
        }
        let g = cycle(5);
        let ids = IdAssignment::sequential(5);
        let res = RuntimeKind::MessagePassing.run(&g, &ids, &TakeAll, 5).unwrap();
        assert_eq!(res.rounds, 0);
        // Measured zero is distinct from not-measured.
        assert_eq!(
            res.messages,
            MessageAccounting::Measured { max_message_bits: 0, total_message_bits: 0 }
        );
        assert_eq!(res.decided_histogram(), vec![5]);
    }

    #[test]
    fn sharded_matches_sequential_on_larger_graph() {
        // The oracle's vertex drain at forced worker counts (the
        // production gate may resolve to one worker) against the
        // message-passing execution.
        let mut g = cycle(64);
        g.add_edge(0, 2);
        let ids = IdAssignment::shuffled(64, 99);
        let mp = RuntimeKind::MessagePassing.run(&g, &ids, &TriangleAlgo, 10).unwrap();
        for workers in [1, 2, 4, 7] {
            let res = OracleRuntime::run_on(&g, &ids, &TriangleAlgo, 10, workers).unwrap();
            assert_eq!(res.outputs, mp.outputs, "workers={workers}");
            assert_eq!(res.decided_at, mp.decided_at, "workers={workers}");
            assert_eq!(res.rounds, mp.rounds, "workers={workers}");
        }
    }

    #[test]
    fn ids_do_not_change_decisions_for_id_invariant_algo() {
        // Degree is id-invariant: outputs per *vertex* must be identical
        // under different id assignments.
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)]);
        let r1 = OracleRuntime.run(&g, &IdAssignment::sequential(6), &DegreeAlgo, 5).unwrap();
        let r2 = OracleRuntime.run(&g, &IdAssignment::shuffled(6, 5), &DegreeAlgo, 5).unwrap();
        assert_eq!(r1.outputs, r2.outputs);
    }

    #[test]
    fn runtime_kind_dispatch_matches_direct_runtimes() {
        let g = cycle(9);
        let ids = IdAssignment::shuffled(9, 2);
        let direct = OracleRuntime.run(&g, &ids, &DegreeAlgo, 5).unwrap();
        for kind in RuntimeKind::ALL {
            let via = kind.run(&g, &ids, &DegreeAlgo, 5).unwrap();
            assert_eq!(via.outputs, direct.outputs, "{kind}");
            assert_eq!(via.rounds, direct.rounds, "{kind}");
            assert_eq!(kind.measures_messages(), via.messages.is_measured(), "{kind}");
        }
    }

    #[test]
    fn empty_graph_runs() {
        let g = Graph::new(0);
        let ids = IdAssignment::sequential(0);
        for kind in RuntimeKind::ALL {
            let res = kind.run(&g, &ids, &DegreeAlgo, 3).unwrap();
            assert!(res.outputs.is_empty());
            assert_eq!(res.rounds, 0);
        }
    }
}
