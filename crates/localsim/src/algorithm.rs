//! The round-state-machine form of a LOCAL algorithm: explicit per-node
//! state and **typed messages**, instead of whole-view flooding.
//!
//! A [`LocalAlgorithm`] describes what one processor does:
//!
//! ```text
//! init → (send, receive, decide?)* → decide
//! ```
//!
//! Every vertex starts from [`LocalAlgorithm::init`] knowing only its
//! identifier ([`NodeCtx`]). In each synchronous round it broadcasts one
//! [`LocalAlgorithm::send`] message to all neighbors, folds the incoming
//! messages into its state with [`LocalAlgorithm::receive`], and may fix
//! its output with [`LocalAlgorithm::decide`]. `receive` borrows its
//! inbox: the engine hands it references to the messages it keeps for
//! the round, so a delivery copies nothing. Both engines
//! ([`crate::OracleRuntime`], [`crate::FaultyRuntime`]) execute the same
//! state machine and are bit-identical because implementations are
//! deterministic and treat the incoming slice as arriving in a fixed
//! (host neighbor) order.
//!
//! [`LocalAlgorithm::first_round`] is a promise that `decide` returns
//! `None` on every earlier round. The oracle starts each vertex there
//! instead of at round 0; message passing still asks `decide` every
//! round, so a broken promise shows up as a decision-round mismatch
//! between the engines.
//!
//! # View algorithms are a special case
//!
//! Every [`Decider`] — an algorithm written as a function of the
//! [`LocalView`](crate::LocalView) — is automatically a `LocalAlgorithm` through a blanket
//! adapter running the folklore "full information" protocol: each round
//! a vertex broadcasts everything it knows and takes in everything its
//! neighbors sent. The adapter's state and message are both
//! [`Knowledge`]: the known vertices and edges as bits in 64-bit
//! blocks, over a numbering of the network's vertices (by identifier)
//! and edges (by their identifier pairs) that each run builds once, the
//! first time an adapter asks its [`Network`] for it. `send` copies the
//! blocks, `receive` ORs the senders' words in and sets the bit of the
//! edge each message arrived over, and `decide` hands the decider the
//! [`LocalView`](crate::LocalView) the bits spell out ([`Knowledge::view`]) on every
//! round. A view stores a block only where it knows something, and no
//! algorithm sees host indices or the numbering.
//!
//! # Example: a native two-round algorithm
//!
//! ```
//! use lmds_graph::Graph;
//! use lmds_localsim::{IdAssignment, LocalAlgorithm, NodeCtx, OracleRuntime};
//!
//! /// Each vertex outputs the smallest identifier in its closed
//! /// neighborhood — one round, one id per message.
//! struct MinIdAlgo;
//!
//! #[derive(Clone)]
//! struct MinSeen {
//!     me: u64,
//!     min: u64,
//! }
//!
//! impl LocalAlgorithm for MinIdAlgo {
//!     type State = MinSeen;
//!     type Message = u64;
//!     type Output = u64;
//!
//!     fn init(&self, ctx: &NodeCtx) -> MinSeen {
//!         MinSeen { me: ctx.id, min: ctx.id }
//!     }
//!     fn send(&self, state: &MinSeen, _round: u32) -> u64 {
//!         state.me
//!     }
//!     fn receive(&self, state: &mut MinSeen, _round: u32, incoming: &[&u64]) {
//!         for &&id in incoming {
//!             state.min = state.min.min(id);
//!         }
//!     }
//!     fn decide(&self, state: &MinSeen, round: u32) -> Option<u64> {
//!         (round >= 1).then_some(state.min)
//!     }
//!     fn first_round(&self) -> u32 {
//!         1
//!     }
//!     fn message_bits(&self, _msg: &u64, id_bits: u32) -> u64 {
//!         id_bits as u64
//!     }
//! }
//!
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! let ids = IdAssignment::from_ids(vec![7, 3, 9, 1]);
//! let res = OracleRuntime.run(&g, &ids, &MinIdAlgo, 8).unwrap();
//! assert_eq!(res.rounds, 1);
//! assert_eq!(res.outputs, [3, 3, 1, 1].map(Some));
//! ```

use crate::ids::IdAssignment;
use crate::knowledge::{Knowledge, Numbering};
use crate::Decider;
use lmds_graph::{Graph, Vertex};
use std::sync::{Arc, OnceLock};

/// The network one run executes on: the graph and its identifiers,
/// shared by every vertex's [`NodeCtx`] and handed to
/// [`LocalAlgorithm::project`].
///
/// The numbering the [`Decider`] adapter floods views over is built the
/// first time an adapter asks for it, so native algorithms never pay
/// for it.
pub struct Network<'a> {
    g: &'a Graph,
    ids: &'a IdAssignment,
    numbering: OnceLock<Arc<Numbering>>,
}

impl<'a> Network<'a> {
    /// The network `(g, ids)`.
    pub fn new(g: &'a Graph, ids: &'a IdAssignment) -> Self {
        Network { g, ids, numbering: OnceLock::new() }
    }

    /// The host graph.
    pub fn graph(&self) -> &'a Graph {
        self.g
    }

    /// The identifier assignment.
    pub fn ids(&self) -> &'a IdAssignment {
        self.ids
    }

    /// The context vertex `v` wakes up with.
    pub fn node(&self, v: Vertex) -> NodeCtx<'_> {
        NodeCtx { id: self.ids.id_of(v), vertex: v, network: self }
    }

    /// The run's numbering, built on first use.
    pub(crate) fn numbering(&self) -> &Arc<Numbering> {
        self.numbering.get_or_init(|| Arc::new(Numbering::new(self.g, self.ids)))
    }
}

/// What a processor knows when it wakes up, before any communication:
/// its unique identifier and nothing else (Linial's LOCAL model).
/// Contexts come from [`Network::node`].
#[derive(Clone, Copy)]
pub struct NodeCtx<'a> {
    /// The vertex's unique `O(log n)`-bit identifier.
    pub id: u64,
    /// The host vertex and its network, read only by the view adapter.
    vertex: Vertex,
    network: &'a Network<'a>,
}

/// A LOCAL algorithm as a per-vertex round state machine with typed
/// messages.
///
/// The contract every implementation must satisfy (it is what makes the
/// two engines interchangeable):
///
/// * **Deterministic**: `init`, `send`, `receive`, and `decide` are pure
///   functions of their arguments.
/// * **Message-driven**: the state after `k` rounds depends only on the
///   initial context and the messages received in rounds `1..=k`
///   (delivered in host neighbor order, one per neighbor).
/// * **Persistent**: a vertex keeps sending and receiving after it
///   decides (real networks relay); `decide` is simply not called again.
/// * **Honest first round**: `decide` returns `None` on every round
///   below [`LocalAlgorithm::first_round`].
pub trait LocalAlgorithm: Sync {
    /// Per-vertex state.
    type State: Clone + Send;
    /// The message broadcast to every neighbor each round.
    type Message: Clone + Send;
    /// Per-vertex output type.
    type Output: Clone + Send;

    /// The round-0 state of a vertex.
    fn init(&self, ctx: &NodeCtx) -> Self::State;

    /// The message broadcast at the start of `round` (1-based), computed
    /// from the state after `round - 1` rounds.
    fn send(&self, state: &Self::State, round: u32) -> Self::Message;

    /// Folds the messages received in `round` into the state. `incoming`
    /// holds one message per delivering neighbor, in host neighbor
    /// order, borrowed from the engine's copy of the round's traffic.
    fn receive(&self, state: &mut Self::State, round: u32, incoming: &[&Self::Message]);

    /// Decides from the state after `round` rounds, or returns `None` to
    /// communicate for another round.
    fn decide(&self, state: &Self::State, round: u32) -> Option<Self::Output>;

    /// The first round at which `decide` may return `Some`: on every
    /// state after fewer rounds it must return `None`. The oracle
    /// engine builds no state before this round; message passing asks
    /// `decide` every round regardless, so a hint that is too high
    /// makes the two engines disagree on decision rounds. The default
    /// 0 promises nothing.
    fn first_round(&self) -> u32 {
        0
    }

    /// Size of `msg` on the wire, in bits, with `id_bits` bits per
    /// identifier (the message-passing runtime accounts with this).
    fn message_bits(&self, msg: &Self::Message, id_bits: u32) -> u64;

    /// Optional oracle fast path: the exact state vertex `v` of
    /// `network` would hold after `round` rounds, computed directly
    /// from the global network.
    ///
    /// Oracle runtimes call this first and fall back to a
    /// ball-restricted replay of the state machine when it returns
    /// `None` (the default). Implementations must return exactly the
    /// state the message-passing execution would produce — the runtime
    /// equivalence tests enforce this.
    fn project(&self, network: &Network, v: Vertex, round: u32) -> Option<Self::State> {
        let _ = (network, v, round);
        None
    }
}

/// The blanket adapter: every [`Decider`] is a [`LocalAlgorithm`] whose
/// state and message are both the vertex's [`Knowledge`] — the
/// full-information protocol over the run's numbering. Oracle runtimes
/// shortcut it through [`LocalAlgorithm::project`], which sets the
/// bits of the ball `N^k[v]` from one BFS (provably the same knowledge
/// as `k` rounds of flooding), from the decider's own
/// [`Decider::first_round`] on.
impl<D: Decider> LocalAlgorithm for D {
    type State = Knowledge;
    type Message = Knowledge;
    type Output = D::Output;

    fn init(&self, ctx: &NodeCtx) -> Knowledge {
        Knowledge::initial(ctx.network.numbering(), ctx.vertex)
    }

    fn send(&self, state: &Knowledge, _round: u32) -> Knowledge {
        state.clone()
    }

    fn receive(&self, state: &mut Knowledge, _round: u32, incoming: &[&Knowledge]) {
        state.fold_round(incoming);
    }

    fn decide(&self, state: &Knowledge, _round: u32) -> Option<D::Output> {
        Decider::decide(self, &state.view())
    }

    fn first_round(&self) -> u32 {
        Decider::first_round(self)
    }

    fn message_bits(&self, msg: &Knowledge, id_bits: u32) -> u64 {
        msg.size_bits(id_bits)
    }

    fn project(&self, network: &Network, v: Vertex, round: u32) -> Option<Knowledge> {
        Some(Knowledge::project(network, v, round))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::oracle_view;
    use crate::view::LocalView;

    struct DegreeAlgo;
    impl Decider for DegreeAlgo {
        type Output = usize;
        fn decide(&self, view: &LocalView) -> Option<usize> {
            (view.rounds() >= 1).then(|| view.neighbors_of(view.center_id()).len())
        }
    }

    #[test]
    fn adapter_receive_matches_manual_merge() {
        // One round of the adapter on a path 0-1-2, centered at 1.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let ids = IdAssignment::sequential(3);
        let net = Network::new(&g, &ids);
        let algo = DegreeAlgo;
        let mut state = LocalAlgorithm::init(&algo, &net.node(1));
        let (a, b) = (algo.init(&net.node(0)), algo.init(&net.node(2)));
        algo.receive(&mut state, 1, &[&a, &b]);
        let view = state.view();
        assert_eq!(view.rounds(), 1);
        assert_eq!(view.vertex_ids(), &[0, 1, 2]);
        assert!(view.contains_edge(0, 1) && view.contains_edge(1, 2));
        assert_eq!(LocalAlgorithm::decide(&algo, &state, 1), Some(2));
    }

    #[test]
    fn adapter_projection_is_the_oracle_view() {
        // A path with shuffled ids, and a 10×10 grid (views spanning
        // several blocks) whose ids an odd multiplier spreads over the
        // whole u64 range.
        let path = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut grid_edges = Vec::new();
        for v in 0..100 {
            if v % 10 < 9 {
                grid_edges.push((v, v + 1));
            }
            if v < 90 {
                grid_edges.push((v, v + 10));
            }
        }
        let grid = Graph::from_edges(100, &grid_edges);
        let spread = (0..100u64).map(|v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let cases =
            [(path, IdAssignment::shuffled(5, 3), 3), (grid, IdAssignment::from_ids(spread), 5)];
        let algo = DegreeAlgo;
        for (g, ids, rounds) in &cases {
            let net = Network::new(g, ids);
            for v in g.vertices() {
                for k in 0..*rounds {
                    let projected = algo.project(&net, v, k).expect("adapter projects");
                    assert_eq!(projected.view(), oracle_view(g, ids, v, k), "v={v} k={k}");
                }
            }
        }
    }

    #[test]
    fn adapter_message_bits_match_view_size() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (2, 3)]);
        let ids = IdAssignment::from_ids(vec![40, 7, 1 << 50, 3]);
        let net = Network::new(&g, &ids);
        let algo = DegreeAlgo;
        for k in 0..3 {
            let state = algo.project(&net, 0, k).expect("adapter projects");
            assert_eq!(algo.message_bits(&state, 10), state.view().size_bits(10), "k={k}");
        }
    }
}
