//! LOCAL-model algorithms for every solver, executable on the
//! `lmds-localsim` runtimes — in two forms:
//!
//! * **Native [`LocalAlgorithm`]s** for the algorithms whose round
//!   structure is explicit in the paper: [`Theorem44Local`] (exactly 3
//!   rounds, typed id/neighborhood/two-hop messages),
//!   [`DegreeRuleLocal`] (2 rounds of id + degree exchange; the trees
//!   row and Theorem 4.4's MVC variant, which differ only on isolated
//!   vertices), [`RegularMvcLocal`] (1 round), [`TakeAllLocal`]
//!   (0 rounds). These send *structured* messages sized to what the
//!   algorithm actually needs, not whole views.
//! * **[`Decider`]s** (view functions, run through the blanket
//!   adapter) for the adaptive Algorithm 1 family, whose stopping round
//!   depends on the residual structure around each vertex.
//!
//! Each is a deterministic function of the node's knowledge and is
//! property-tested to reproduce the centralized reference *exactly*
//! (same identifier assignment ⟹ same output set). Trust-region
//! arithmetic follows the simulator's knowledge guarantee: after `k`
//! rounds a node knows all vertices of `N^k[v]` and all edges incident
//! to `N^{k-1}[v]`; hence
//!
//! * `N[w]` is fully known iff `d(v,w) ≤ k−1`;
//! * the twin/kept status of `w` is computable iff `d(v,w) ≤ k−2`;
//! * the `X`/`I`/`S` status of `w` needs `d(v,w) ≤ k−2−max(r₁, 2r₂)`;
//! * domination and `U` statuses each cost one more hop.
//!
//! The adaptive deciders evaluate these statuses **on demand**: a node
//! outputs only its own membership, so instead of running the whole
//! pipeline over its view it asks the [`CutEngine`] per-vertex queries
//! for the center's status, the statuses that status reads, and — only
//! when it needs one — its residual component. Each status is the same
//! predicate on the same (twin-reduced) view graph as the whole-view
//! mask it replaces, so it equals that mask's value; only *which*
//! vertices get evaluated changes, and decisions, rounds and message
//! bits are those of the full pipeline.

use crate::algorithm1::{solve_component_with, twin_quotient};
use crate::local_cuts::{self, CutEngine};
use crate::radii::Radii;
use lmds_graph::{bfs, Graph, Vertex};
use lmds_localsim::{Decider, LocalAlgorithm, LocalView, Network, NodeCtx};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Table 1 `K_{1,t}` row: everyone joins at round 0.
pub struct TakeAllDecider;

impl Decider for TakeAllDecider {
    type Output = bool;
    fn decide(&self, _view: &LocalView) -> Option<bool> {
        Some(true)
    }
}

/// Folklore MVC on regular graphs: every non-isolated vertex joins.
/// 1 round (a vertex must learn whether it has neighbors).
pub struct RegularMvcDecider;

impl Decider for RegularMvcDecider {
    type Output = bool;
    fn decide(&self, view: &LocalView) -> Option<bool> {
        (view.rounds() >= 1).then(|| !view.neighbors_of(view.center_id()).is_empty())
    }
    fn first_round(&self) -> u32 {
        1
    }
}

/// Table 1 trees row (2 rounds): degree ≥ 2 joins; an isolated-edge
/// endpoint joins iff it has the smaller identifier; isolated vertices
/// join.
pub struct TreesFolkloreDecider;

impl Decider for TreesFolkloreDecider {
    type Output = bool;
    fn decide(&self, view: &LocalView) -> Option<bool> {
        if view.rounds() < 2 {
            return None;
        }
        let me = view.center_id();
        let nb = view.neighbors_of(me);
        Some(match nb.len() {
            0 => true,
            1 => {
                let u = nb[0];
                view.neighbors_of(u).len() == 1 && me < u
            }
            _ => true,
        })
    }
    fn first_round(&self) -> u32 {
        2
    }
}

/// Theorem 4.4 MDS (3 rounds): kept-by-twin-reduction and `D₂`
/// membership.
pub struct Theorem44Decider;

/// Whether, in the view, vertex `w` is kept by the minimum-identifier
/// twin reduction. Valid when `d(center, w) ≤ rounds − 2`.
fn view_kept(view: &LocalView, w: u64) -> bool {
    let nw = closed_nbhd(view, w);
    // w is dropped iff some true twin has a smaller id.
    for &z in &nw {
        if z != w && z < w && closed_nbhd(view, z) == nw {
            return false;
        }
    }
    true
}

fn closed_nbhd(view: &LocalView, w: u64) -> Vec<u64> {
    let mut n = view.neighbors_of(w);
    n.push(w);
    n.sort_unstable();
    n
}

impl Decider for Theorem44Decider {
    type Output = bool;
    fn decide(&self, view: &LocalView) -> Option<bool> {
        if view.rounds() < 3 {
            return None;
        }
        let me = view.center_id();
        if !view_kept(view, me) {
            return Some(false);
        }
        // N_R[me]: kept members of N[me] (all at distance ≤ 1, where
        // kept-status is valid at rounds ≥ 3).
        let nr_me: Vec<u64> =
            closed_nbhd(view, me).into_iter().filter(|&w| w == me || view_kept(view, w)).collect();
        // Absorbed iff some kept neighbor u has N_R[me] ⊆ N_R[u] ⟺
        // every w ∈ N_R[me] is u itself or adjacent to u.
        for &u in &view.neighbors_of(me) {
            if !view_kept(view, u) {
                continue;
            }
            if nr_me.iter().all(|&w| w == u || view.contains_edge(u, w)) {
                return Some(false);
            }
        }
        Some(true)
    }
    fn first_round(&self) -> u32 {
        3
    }
}

/// Theorem 4.4 MVC variant (2 rounds): degree ≥ 2, or smaller-id
/// endpoint of an isolated edge.
pub struct Theorem44MvcDecider;

impl Decider for Theorem44MvcDecider {
    type Output = bool;
    fn decide(&self, view: &LocalView) -> Option<bool> {
        if view.rounds() < 2 {
            return None;
        }
        let me = view.center_id();
        let nb = view.neighbors_of(me);
        Some(match nb.len() {
            0 => false,
            1 => view.neighbors_of(nb[0]).len() == 1 && me < nb[0],
            _ => true,
        })
    }
    fn first_round(&self) -> u32 {
        2
    }
}

// ---------------------------------------------------------------------
// Native round state machines (explicit round structure, typed
// messages). Each reproduces its Decider twin bit-for-bit; the
// equivalence is property-tested below and in tests/solver_invariants.
// ---------------------------------------------------------------------

/// Table 1 `K_{1,t}` row as a native state machine: decide at round 0,
/// send nothing.
pub struct TakeAllLocal;

impl LocalAlgorithm for TakeAllLocal {
    type State = ();
    type Message = ();
    type Output = bool;

    fn init(&self, _ctx: &NodeCtx) {}
    fn send(&self, _state: &(), _round: u32) {}
    fn receive(&self, _state: &mut (), _round: u32, _incoming: &[&()]) {}
    fn decide(&self, _state: &(), _round: u32) -> Option<bool> {
        Some(true)
    }
    fn message_bits(&self, _msg: &(), _id_bits: u32) -> u64 {
        0
    }
    fn project(&self, _network: &Network, _v: usize, _round: u32) -> Option<()> {
        Some(())
    }
}

/// Folklore MVC on regular graphs, natively: one round of id broadcast;
/// join iff any message arrived.
pub struct RegularMvcLocal;

/// State of [`RegularMvcLocal`]: own id and the received-message count.
#[derive(Debug, Clone)]
pub struct RegularMvcState {
    me: u64,
    heard: usize,
}

impl LocalAlgorithm for RegularMvcLocal {
    type State = RegularMvcState;
    type Message = u64;
    type Output = bool;

    fn init(&self, ctx: &NodeCtx) -> RegularMvcState {
        RegularMvcState { me: ctx.id, heard: 0 }
    }
    fn send(&self, state: &RegularMvcState, _round: u32) -> u64 {
        state.me
    }
    fn receive(&self, state: &mut RegularMvcState, round: u32, incoming: &[&u64]) {
        if round == 1 {
            state.heard = incoming.len();
        }
    }
    fn decide(&self, state: &RegularMvcState, round: u32) -> Option<bool> {
        (round >= 1).then_some(state.heard > 0)
    }
    fn first_round(&self) -> u32 {
        1
    }
    fn message_bits(&self, _msg: &u64, id_bits: u32) -> u64 {
        id_bits as u64
    }
    fn project(&self, network: &Network, v: usize, round: u32) -> Option<RegularMvcState> {
        let heard = if round >= 1 { network.graph().degree(v) } else { 0 };
        Some(RegularMvcState { me: network.ids().id_of(v), heard })
    }
}

/// Typed messages of [`DegreeRuleLocal`]: round 1 announces the
/// identifier, round 2 the identifier plus degree.
#[derive(Debug, Clone)]
pub enum DegreeMsg {
    /// Round 1: the sender's identifier.
    Id(u64),
    /// Round 2: sender identifier and its degree.
    Degree(u64, u64),
}

/// State of [`DegreeRuleLocal`]: own id, sorted neighbor ids, and the
/// neighbors' degrees.
#[derive(Debug, Clone)]
pub struct DegreeState {
    me: u64,
    nbrs: Vec<u64>,
    nbr_degree: Vec<(u64, u64)>,
}

impl DegreeState {
    fn degree_of(&self, u: u64) -> Option<u64> {
        self.nbr_degree.binary_search_by_key(&u, |e| e.0).ok().map(|i| self.nbr_degree[i].1)
    }

    /// Whether every known neighbor's degree has arrived — holds at
    /// round 2 on a healthy network.
    fn degrees_complete(&self) -> bool {
        self.nbrs.iter().all(|&u| self.degree_of(u).is_some())
    }
}

/// Whether a `grace` budget permits a best-effort decision at `round`,
/// given the algorithm's nominal decision round `base`. `None` never
/// does — the strict algorithms wait for complete evidence.
fn past_grace(grace: Option<u32>, base: u32, round: u32) -> bool {
    grace.is_some_and(|g| round >= base.saturating_add(g))
}

/// The 2-round degree-exchange rule as a native state machine: degree
/// ≥ 2 joins; an isolated-edge endpoint joins iff it has the smaller
/// identifier; a vertex with no known neighbor joins iff
/// `isolated_joins`. Table 1's trees row (folklore MDS) sets it, since
/// a dominating set must contain every isolated vertex; Theorem 4.4's
/// MVC variant clears it, since an isolated vertex covers no edge.
///
/// With `grace: None` the decision waits until every neighbor's degree
/// is known — indistinguishable from the strict rule on a healthy
/// network, where completeness holds at round 2. With `grace: Some(g)`
/// a vertex whose evidence is still incomplete at round `2 + g` decides
/// anyway, defaulting unknown neighbor degrees to the safe side (join),
/// so crash-stop and message-drop runs terminate with
/// feasible-but-degraded output instead of stalling.
pub struct DegreeRuleLocal {
    /// Whether a vertex with no known neighbor joins.
    pub isolated_joins: bool,
    /// Extra rounds to wait for missing degree evidence before a
    /// best-effort decision. `None` waits indefinitely.
    pub grace: Option<u32>,
}

impl LocalAlgorithm for DegreeRuleLocal {
    type State = DegreeState;
    type Message = DegreeMsg;
    type Output = bool;

    fn init(&self, ctx: &NodeCtx) -> DegreeState {
        DegreeState { me: ctx.id, nbrs: Vec::new(), nbr_degree: Vec::new() }
    }
    fn send(&self, state: &DegreeState, round: u32) -> DegreeMsg {
        if round <= 1 {
            DegreeMsg::Id(state.me)
        } else {
            DegreeMsg::Degree(state.me, state.nbrs.len() as u64)
        }
    }
    /// Variant-driven evidence folding: any message proves its sender
    /// is a neighbor, and degree announcements are upserted whenever
    /// (and however stale) they arrive. On a healthy network this
    /// reproduces the strict round-1-ids / round-2-degrees schedule
    /// bit-for-bit; under faults it lets retransmissions repair earlier
    /// losses.
    fn receive(&self, state: &mut DegreeState, _round: u32, incoming: &[&DegreeMsg]) {
        for &m in incoming {
            let id = match m {
                DegreeMsg::Id(id) | DegreeMsg::Degree(id, _) => *id,
            };
            if let Err(pos) = state.nbrs.binary_search(&id) {
                state.nbrs.insert(pos, id);
            }
            if let DegreeMsg::Degree(id, d) = m {
                match state.nbr_degree.binary_search_by_key(id, |e| e.0) {
                    Ok(pos) => state.nbr_degree[pos] = (*id, *d),
                    Err(pos) => state.nbr_degree.insert(pos, (*id, *d)),
                }
            }
        }
    }
    fn decide(&self, state: &DegreeState, round: u32) -> Option<bool> {
        if round < 2 || (!state.degrees_complete() && !past_grace(self.grace, 2, round)) {
            return None;
        }
        Some(match state.nbrs.len() {
            0 => self.isolated_joins,
            1 => match state.degree_of(state.nbrs[0]) {
                Some(d) => d == 1 && state.me < state.nbrs[0],
                // Missing evidence at the grace deadline: join (safe side).
                None => true,
            },
            _ => true,
        })
    }
    fn first_round(&self) -> u32 {
        2
    }
    fn message_bits(&self, msg: &DegreeMsg, id_bits: u32) -> u64 {
        // Degrees are at most n − 1, so they fit in an id-sized field.
        match msg {
            DegreeMsg::Id(_) => id_bits as u64,
            DegreeMsg::Degree(..) => 2 * id_bits as u64,
        }
    }
    /// The exact state after `round` rounds, straight from the graph —
    /// the oracle fast path.
    fn project(&self, network: &Network, v: usize, round: u32) -> Option<DegreeState> {
        let (g, ids) = (network.graph(), network.ids());
        let mut state = DegreeState { me: ids.id_of(v), nbrs: Vec::new(), nbr_degree: Vec::new() };
        if round >= 1 {
            state.nbrs = g.neighbors(v).iter().map(|&u| ids.id_of(u as usize)).collect();
            state.nbrs.sort_unstable();
        }
        if round >= 2 {
            state.nbr_degree = g
                .neighbors(v)
                .iter()
                .map(|&u| (ids.id_of(u as usize), g.degree(u as usize) as u64))
                .collect();
            state.nbr_degree.sort_unstable();
        }
        Some(state)
    }
}

/// Typed messages of the native 3-round Theorem 4.4 algorithm. Closed
/// neighborhoods travel as shared `Arc<[u64]>` slices: a message and
/// every state that stores one point at the same copy.
#[derive(Debug, Clone)]
pub enum Thm44Msg {
    /// Round 1: the sender's identifier.
    Id(u64),
    /// Round 2: sender identifier and its sorted closed neighborhood
    /// (the open neighborhood plus the sender, whose id is counted once).
    Nbhd(u64, Arc<[u64]>),
    /// Round 3: sender identifier and the closed neighborhood of each of
    /// its neighbors (learned in round 2) — exactly the 2-hop knowledge
    /// the twin test needs.
    TwoHop(u64, Vec<(u64, Arc<[u64]>)>),
}

/// State of [`Theorem44Local`]: own id, sorted neighbor ids, and the
/// closed neighborhoods of every vertex in `N²[me]` collected so far.
#[derive(Debug, Clone)]
pub struct Thm44State {
    me: u64,
    nbrs: Vec<u64>,
    closed: BTreeMap<u64, Arc<[u64]>>,
}

impl Thm44State {
    fn try_closed_of(&self, w: u64) -> Option<&[u64]> {
        self.closed.get(&w).map(|cn| &cn[..])
    }

    /// Whether `w` survives the minimum-identifier twin reduction,
    /// judged on the evidence collected so far: `None` when `closed(w)`
    /// itself is unknown. A twin `z` only disqualifies `w` when
    /// `closed(z)` is known to equal `closed(w)` — closed neighborhoods
    /// are ground truth wherever they come from, so a positive twin
    /// proof is exact even on partial evidence; `Some(true)` may be
    /// conservative (kept) when evidence is missing, and is exact once
    /// [`Thm44State::complete`] holds.
    fn kept_on_evidence(&self, w: u64) -> Option<bool> {
        let nw = self.try_closed_of(w)?;
        Some(!nw.iter().any(|&z| z != w && z < w && self.try_closed_of(z) == Some(nw)))
    }

    /// Records `u` as a physical neighbor (every received message
    /// proves its sender is adjacent) and keeps the own closed set in
    /// sync — under faults, neighbors can surface after round 1.
    fn note_neighbor(&mut self, u: u64) {
        if let Err(pos) = self.nbrs.binary_search(&u) {
            self.nbrs.insert(pos, u);
            let mut own = self.nbrs.clone();
            own.push(self.me);
            own.sort_unstable();
            self.closed.insert(self.me, own.into());
        }
    }

    /// Whether every closed set the decision rule touches is present:
    /// the own set, the sets of everything in `N[me]`, and the sets of
    /// everything *in* those (the 2-hop closure the twin tests walk).
    /// On a healthy network this holds exactly at round 3.
    fn complete(&self) -> bool {
        let Some(mine) = self.try_closed_of(self.me) else { return false };
        mine.iter().all(|&w| {
            self.try_closed_of(w).is_some_and(|cw| cw.iter().all(|z| self.closed.contains_key(z)))
        })
    }

    /// The Theorem 4.4 membership rule on current evidence — exact when
    /// [`Thm44State::complete`] holds, safe-side (join) where evidence
    /// is missing.
    fn decide_on_evidence(&self) -> bool {
        if self.kept_on_evidence(self.me) == Some(false) {
            return false;
        }
        let Some(mine) = self.try_closed_of(self.me) else {
            return true; // no evidence at all: joining is always safe
        };
        // N_R[me]: kept members of N[me]; unknown status counts as kept
        // (a larger N_R[me] only makes absorption harder).
        let nr_me: Vec<u64> = mine
            .iter()
            .copied()
            .filter(|&w| w == self.me || self.kept_on_evidence(w).unwrap_or(true))
            .collect();
        // Absorbed iff some provably-kept neighbor u has
        // N_R[me] ⊆ N_R[u] ⟺ every w ∈ N_R[me] is u or adjacent to u.
        for &u in &self.nbrs {
            if self.kept_on_evidence(u) != Some(true) {
                continue;
            }
            let Some(nu) = self.try_closed_of(u) else { continue };
            if nr_me.iter().all(|w| nu.binary_search(w).is_ok()) {
                return false;
            }
        }
        true
    }
}

/// Theorem 4.4 MDS as a native state machine — the paper's headline
/// 3-round structure made explicit: round 1 learns `N(v)`, round 2 the
/// closed neighborhoods of `N(v)` (twin status of `v`), round 3 the
/// closed neighborhoods of `N²(v)` (twin status of the neighbors, i.e.
/// membership of `D₂` of the twin-free quotient).
///
/// **Fault annotation.** The state machine accumulates evidence
/// variant-by-variant (any round's message is folded in), retransmits
/// cumulatively from round 4 on, and only decides once its evidence is
/// complete (`Thm44State::complete`) — so under bounded asynchrony
/// (stale deliveries, nothing lost) it produces the *exact* fault-free
/// output, merely some rounds later. With `grace: Some(g)` it abandons
/// completeness `g` rounds past the nominal round 3 and decides
/// safe-side on partial evidence (join unless disproven) — the
/// graceful-degradation mode fault runs use; `None` (the default)
/// waits indefinitely, which on a healthy network is indistinguishable
/// from the original strict 3-rounder.
#[derive(Default)]
pub struct Theorem44Local {
    /// Rounds past the nominal decision round to keep waiting for
    /// complete evidence before deciding best-effort; `None` = strict.
    pub grace: Option<u32>,
}

impl LocalAlgorithm for Theorem44Local {
    type State = Thm44State;
    type Message = Thm44Msg;
    type Output = bool;

    fn init(&self, ctx: &NodeCtx) -> Thm44State {
        // Seed the own closed set immediately (degree-0 vertices never
        // receive anything, yet must still reach a complete state).
        let mut closed = BTreeMap::new();
        closed.insert(ctx.id, Arc::from([ctx.id]));
        Thm44State { me: ctx.id, nbrs: Vec::new(), closed }
    }

    fn send(&self, state: &Thm44State, round: u32) -> Thm44Msg {
        match round {
            0 | 1 => Thm44Msg::Id(state.me),
            // `init` and `project` seed the own closed set, and
            // `note_neighbor` keeps it equal to `nbrs` plus `me`.
            2 => Thm44Msg::Nbhd(state.me, Arc::clone(&state.closed[&state.me])),
            3 => Thm44Msg::TwoHop(
                state.me,
                // Healthy networks have every neighbor's set by now;
                // under faults, send what is known.
                state
                    .nbrs
                    .iter()
                    .filter_map(|&u| state.closed.get(&u).map(|cn| (u, Arc::clone(cn))))
                    .collect(),
            ),
            // Rounds ≥ 4 only happen when someone is still undecided
            // (never on a healthy network): retransmit *all* collected
            // evidence, own closed set included, so any single delivery
            // repairs any number of earlier losses.
            _ => Thm44Msg::TwoHop(
                state.me,
                state.closed.iter().map(|(&w, cn)| (w, Arc::clone(cn))).collect(),
            ),
        }
    }

    fn receive(&self, state: &mut Thm44State, _round: u32, incoming: &[&Thm44Msg]) {
        // Folding is variant-driven, not round-driven: under skew a
        // round-2 slot may carry a round-1 identifier, and evidence
        // arriving late is still evidence. On a healthy network the
        // rounds and variants coincide, reproducing the strict
        // schedule bit-for-bit.
        for &m in incoming {
            match m {
                Thm44Msg::Id(u) => state.note_neighbor(*u),
                Thm44Msg::Nbhd(u, cn) => {
                    state.note_neighbor(*u);
                    state.closed.insert(*u, Arc::clone(cn));
                }
                Thm44Msg::TwoHop(u, entries) => {
                    state.note_neighbor(*u);
                    for (w, cn) in entries {
                        state.closed.entry(*w).or_insert_with(|| Arc::clone(cn));
                    }
                }
            }
        }
    }

    fn decide(&self, state: &Thm44State, round: u32) -> Option<bool> {
        if round < 3 {
            return None;
        }
        // Evidence still missing at the grace deadline: decide
        // best-effort (safe-side join where unproven).
        if !state.complete() && !past_grace(self.grace, 3, round) {
            return None;
        }
        Some(state.decide_on_evidence())
    }

    fn first_round(&self) -> u32 {
        3
    }

    fn message_bits(&self, msg: &Thm44Msg, id_bits: u32) -> u64 {
        let ids = match msg {
            Thm44Msg::Id(_) => 1,
            // The sender's id and its open neighborhood: |N[u]| ids.
            Thm44Msg::Nbhd(_, cn) => cn.len() as u64,
            Thm44Msg::TwoHop(_, entries) => {
                1 + entries.iter().map(|(_, cn)| 1 + cn.len() as u64).sum::<u64>()
            }
        };
        ids * id_bits as u64
    }

    fn project(&self, network: &Network, v: usize, round: u32) -> Option<Thm44State> {
        let (g, ids) = (network.graph(), network.ids());
        let closed_of = |w: usize| -> Arc<[u64]> {
            let mut cn: Vec<u64> = g.neighbors(w).iter().map(|&x| ids.id_of(x as usize)).collect();
            cn.push(ids.id_of(w));
            cn.sort_unstable();
            cn.into()
        };
        let mut state = self.init(&network.node(v));
        if round >= 1 {
            state.nbrs = g.neighbors(v).iter().map(|&u| ids.id_of(u as usize)).collect();
            state.nbrs.sort_unstable();
            state.closed.insert(state.me, closed_of(v));
        }
        if round >= 2 {
            for &u in g.neighbors(v) {
                state.closed.insert(ids.id_of(u as usize), closed_of(u as usize));
            }
        }
        if round >= 3 {
            for &u in g.neighbors(v) {
                for &w in g.neighbors(u as usize) {
                    let w = w as usize;
                    state.closed.entry(ids.id_of(w)).or_insert_with(|| closed_of(w));
                }
            }
        }
        Some(state)
    }
}

/// The statuses an adaptive Algorithm 1 decider reads on one view,
/// evaluated on demand and memoized for the call:
///
/// * `S(w) = X(w) ∨ P(w)`, where `P` is interestingness (MDS, on the
///   view's twin quotient) or the 2-cut-endpoint bit (MVC, on the view
///   itself);
/// * `dominated(w)` (`w ∈ N[S]`) and `U(w)` (MDS only).
///
/// Each status is the predicate the centralized pipeline's whole-graph
/// masks compute, applied to the same graph, so it equals that mask's
/// value at `w`; only *which* vertices get evaluated changes — the
/// center, the vertices its reads reach, and its residual component.
struct OnDemand<'a> {
    g: &'a Graph,
    radii: Radii,
    variant: Variant,
    engine: &'a mut CutEngine,
    s: Vec<Option<bool>>,
    dominated: Vec<Option<bool>>,
    u: Vec<Option<bool>>,
}

/// Which pipeline an [`OnDemand`] evaluates.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// `S = X ∪ I`; the residual avoids `S ∪ U`.
    Mds,
    /// `S = X ∪` all local-2-cut vertices; the residual avoids `S`.
    Mvc,
}

impl<'a> OnDemand<'a> {
    fn new(g: &'a Graph, radii: Radii, variant: Variant, engine: &'a mut CutEngine) -> Self {
        let n = g.n();
        OnDemand {
            g,
            radii,
            variant,
            engine,
            s: vec![None; n],
            dominated: vec![None; n],
            u: vec![None; n],
        }
    }

    fn s(&mut self, w: Vertex) -> bool {
        if let Some(b) = self.s[w] {
            return b;
        }
        let (g, r) = (self.g, self.radii);
        let b = self.engine.one_cut_at(g, w, r.one_cut)
            || match self.variant {
                Variant::Mds => self.engine.interesting_at(g, w, r.two_cut),
                Variant::Mvc => self.engine.two_cut_endpoint_at(g, w, r.two_cut),
            };
        self.s[w] = Some(b);
        b
    }

    fn dominated(&mut self, w: Vertex) -> bool {
        if let Some(b) = self.dominated[w] {
            return b;
        }
        let g = self.g;
        let b = self.s(w) || g.neighbors(w).iter().any(|&x| self.s(x as Vertex));
        self.dominated[w] = Some(b);
        b
    }

    fn u(&mut self, w: Vertex) -> bool {
        if let Some(b) = self.u[w] {
            return b;
        }
        let g = self.g;
        let b = self.dominated(w)
            && !self.s(w)
            && g.neighbors(w).iter().all(|&x| self.dominated(x as Vertex));
        self.u[w] = Some(b);
        b
    }

    /// Whether `w` survives into the residual graph.
    fn residual(&mut self, w: Vertex) -> bool {
        !self.s(w) && (self.variant == Variant::Mvc || !self.u(w))
    }

    /// The residual component of `c` (itself residual), by BFS — or
    /// `None` at the first member that `trusted` rejects.
    fn component(&mut self, c: Vertex, trusted: impl Fn(Vertex) -> bool) -> Option<Vec<Vertex>> {
        let g = self.g;
        let mut seen = vec![false; g.n()];
        seen[c] = true;
        let mut comp = vec![c];
        let mut head = 0;
        while let Some(&x) = comp.get(head) {
            head += 1;
            for &y in g.neighbors(x) {
                let y = y as Vertex;
                if std::mem::replace(&mut seen[y], true) || !self.residual(y) {
                    continue;
                }
                if !trusted(y) {
                    return None; // component not yet fully trusted
                }
                comp.push(y);
            }
        }
        Some(comp)
    }
}

/// Whether `w` lies within depth `limit` of the view's center.
fn within(dist: &[Option<u32>], w: Vertex, limit: i64) -> bool {
    dist[w].is_some_and(|d| i64::from(d) <= limit)
}

/// The adaptive deciders' view margin `max(r₁, 2r₂) + 2`: the rounds
/// after which the center's own `S` status is trusted (the `X`/`I`/`S`
/// depth of the module docs, at distance 0). No view of fewer rounds
/// decides.
fn margin(radii: Radii) -> i64 {
    i64::from(radii.one_cut).max(2 * i64::from(radii.two_cut)) + 2
}

/// A round cap for the adaptive deciders on `n` vertices: their view
/// margin `max(r₁, 2r₂) + 2`, `n` rounds of residual-component reach
/// and 13 rounds of slack — `max(r₁, 2r₂) + 15 + n`. `None` when the
/// cap does not fit the simulator's `u32` round counter.
pub fn adaptive_round_cap(radii: Radii, n: usize) -> Option<u32> {
    let reach = i64::try_from(n).ok()?;
    u32::try_from(margin(radii).checked_add(13)?.checked_add(reach)?).ok()
}

/// A margin as a [`Decider::first_round`], saturating at the
/// simulator's `u32` round counter.
fn first_round_of(margin: i64) -> u32 {
    u32::try_from(margin).unwrap_or(u32::MAX)
}

/// Algorithm 1 (Theorem 4.1) as an adaptive LOCAL decider. The node
/// keeps extending its view until (a) its own `S`/`U` status is
/// certain, and if it is in neither, (b) its entire residual component
/// sits inside the trusted region — at which point it reconstructs the
/// identical brute-force instance every other component member solves.
///
/// Each view gets its twin quotient; on it the decider evaluates only
/// the statuses its decision reads: the center's `S` and
/// `U`, the statuses those reach, and the center's residual component,
/// whose BFS stops at the first member beyond the trusted depth. Every
/// status equals the whole-view mask value, so decisions and rounds are
/// those of running the full pipeline on every view.
pub struct Algorithm1Decider {
    /// The pipeline radii (theoretical or practical).
    pub radii: Radii,
}

impl Decider for Algorithm1Decider {
    type Output = bool;
    fn decide(&self, view: &LocalView) -> Option<bool> {
        let k = view.rounds() as i64;
        let margin = margin(self.radii);
        if k < margin {
            return None;
        }
        let (vg, vids) = view.to_graph();
        let center = view.center_index();
        let (kept_mask, reduced) = twin_quotient(&vg, &vids, true);
        if !kept_mask[center] {
            return Some(false);
        }
        let cr = reduced.from_host(center).expect("kept center is in the quotient");
        local_cuts::with_thread_engine(|engine| {
            let mut st = OnDemand::new(&reduced.graph, self.radii, Variant::Mds, engine);
            if st.s(cr) {
                return Some(true);
            }
            if k < margin + 2 {
                return None;
            }
            if st.u(cr) {
                return Some(false);
            }
            // Residual component of the center, which must sit within the
            // trusted depth (statuses of members and their boundary valid).
            let limit = k - margin - 3;
            if limit < 0 {
                return None;
            }
            let dist = bfs::bfs_distances(&vg, center);
            let comp = st.component(cr, |w| within(&dist, reduced.to_host(w), limit))?;
            let sol = solve_component_with(&reduced, &vids, &comp, |w| st.dominated(w), true);
            Some(sol.contains(&center))
        })
    }

    fn first_round(&self) -> u32 {
        first_round_of(margin(self.radii))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::algorithm1;
    use crate::baselines;
    use crate::theorem44::{theorem44_mds, theorem44_mvc};
    use lmds_graph::dominating::is_dominating_set;
    use lmds_graph::Graph;
    use lmds_localsim::{IdAssignment, OracleRuntime, RuntimeKind};

    fn outputs_to_set(outputs: &[bool]) -> Vec<usize> {
        outputs.iter().enumerate().filter_map(|(v, &b)| b.then_some(v)).collect()
    }

    fn test_graphs() -> Vec<Graph> {
        vec![
            lmds_gen::basic::path(10),
            lmds_gen::basic::cycle(9),
            lmds_gen::basic::star(5),
            lmds_gen::basic::complete(5),
            lmds_gen::ding::strip(5),
            lmds_gen::ding::fan(4),
            lmds_gen::adversarial::clique_with_pendants(5),
            lmds_gen::trees::random_tree(14, 3),
            lmds_gen::outerplanar::random_maximal_outerplanar(11, 7),
        ]
    }

    #[test]
    fn theorem44_distributed_matches_centralized() {
        for g in &test_graphs() {
            for seed in [0u64, 5] {
                let ids = IdAssignment::shuffled(g.n(), seed);
                let res = OracleRuntime.run(g, &ids, &Theorem44Decider, 10).unwrap();
                let dist_set = outputs_to_set(&res.outputs);
                let mut central = theorem44_mds(g, &ids);
                central.sort_unstable();
                assert_eq!(dist_set, central, "{g:?} seed={seed}");
                assert!(res.rounds <= 3, "rounds = {}", res.rounds);
            }
        }
    }

    #[test]
    fn theorem44_is_exactly_three_rounds_on_nontrivial_graphs() {
        let g = lmds_gen::basic::path(20);
        let ids = IdAssignment::sequential(20);
        let res = RuntimeKind::MessagePassing.run(&g, &ids, &Theorem44Decider, 10).unwrap();
        assert_eq!(res.rounds, 3);
        // Message size stays modest (LOCAL, but only 3 rounds deep).
        assert!(res.messages.max_bits().unwrap() > 0);
    }

    #[test]
    fn theorem44_mvc_matches() {
        for g in &test_graphs() {
            let ids = IdAssignment::shuffled(g.n(), 2);
            let res = OracleRuntime.run(g, &ids, &Theorem44MvcDecider, 10).unwrap();
            let dist_set = outputs_to_set(&res.outputs);
            let mut central = theorem44_mvc(g, &ids);
            central.sort_unstable();
            assert_eq!(dist_set, central, "{g:?}");
            assert_eq!(res.rounds, 2);
        }
    }

    #[test]
    fn trees_folklore_matches_and_two_rounds() {
        for seed in 0..4 {
            let g = lmds_gen::trees::random_tree(16, seed);
            let ids = IdAssignment::shuffled(g.n(), seed);
            let res = OracleRuntime.run(&g, &ids, &TreesFolkloreDecider, 10).unwrap();
            let dist_set = outputs_to_set(&res.outputs);
            let mut central = baselines::trees_folklore(&g, &ids);
            central.sort_unstable();
            assert_eq!(dist_set, central);
            assert_eq!(res.rounds, 2);
            assert!(is_dominating_set(&g, &dist_set));
        }
    }

    #[test]
    fn take_all_zero_rounds() {
        let g = lmds_gen::basic::cycle(6);
        let ids = IdAssignment::sequential(6);
        let res = OracleRuntime.run(&g, &ids, &TakeAllDecider, 5).unwrap();
        assert_eq!(res.rounds, 0);
        assert_eq!(outputs_to_set(&res.outputs).len(), 6);
    }

    #[test]
    fn algorithm1_distributed_matches_centralized() {
        let radii = Radii::practical(2, 2);
        for g in &test_graphs() {
            for seed in [1u64, 9] {
                let ids = IdAssignment::shuffled(g.n(), seed);
                let decider = Algorithm1Decider { radii };
                let max_rounds = (2 * g.n() + 20) as u32;
                let res = OracleRuntime.run(g, &ids, &decider, max_rounds).unwrap();
                let dist_set = outputs_to_set(&res.outputs);
                let central = algorithm1(g, &ids, radii);
                assert_eq!(dist_set, central.solution, "{g:?} seed={seed} (rounds={})", res.rounds);
                assert!(is_dominating_set(g, &dist_set));
            }
        }
    }

    #[test]
    fn algorithm1_rounds_track_radius_plus_component_diameter() {
        // On a long path with small radii the residual components are
        // tiny, so rounds should stay well below n.
        let g = lmds_gen::basic::path(40);
        let ids = IdAssignment::sequential(40);
        let decider = Algorithm1Decider { radii: Radii::practical(2, 2) };
        let res = OracleRuntime.run(&g, &ids, &decider, 200).unwrap();
        assert!(
            res.rounds < 20,
            "rounds = {} should be O(radius + component diameter)",
            res.rounds
        );
    }

    #[test]
    fn algorithm1_message_passing_agrees_with_oracle() {
        let g = lmds_gen::ding::strip(4);
        let ids = IdAssignment::shuffled(g.n(), 4);
        let decider = Algorithm1Decider { radii: Radii::practical(2, 2) };
        let a = OracleRuntime.run(&g, &ids, &decider, 100).unwrap();
        let b = RuntimeKind::MessagePassing.run(&g, &ids, &decider, 100).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.decided_at, b.decided_at);
    }

    /// The native state machines must be indistinguishable from their
    /// view-flooding Decider twins: same outputs, same decision rounds,
    /// on every runtime.
    fn assert_native_matches_decider<N, D>(native: &N, decider: &D, cap: u32)
    where
        N: lmds_localsim::LocalAlgorithm<Output = bool>,
        D: Decider<Output = bool>,
    {
        for g in &test_graphs() {
            for seed in [0u64, 5, 11] {
                let ids = IdAssignment::shuffled(g.n(), seed);
                let reference = OracleRuntime.run(g, &ids, decider, cap).unwrap();
                for kind in RuntimeKind::ALL {
                    let res = kind.run(g, &ids, native, cap).unwrap();
                    assert_eq!(res.outputs, reference.outputs, "{g:?} seed={seed} {kind}");
                    assert_eq!(res.decided_at, reference.decided_at, "{g:?} seed={seed} {kind}");
                    assert_eq!(
                        kind.measures_messages(),
                        res.messages.is_measured(),
                        "{g:?} {kind}"
                    );
                }
            }
        }
    }

    #[test]
    fn native_theorem44_matches_decider_on_all_runtimes() {
        assert_native_matches_decider(&Theorem44Local::default(), &Theorem44Decider, 10);
    }

    #[test]
    fn native_trees_folklore_matches_decider_on_all_runtimes() {
        let native = DegreeRuleLocal { isolated_joins: true, grace: None };
        assert_native_matches_decider(&native, &TreesFolkloreDecider, 10);
    }

    #[test]
    fn native_theorem44_mvc_matches_decider_on_all_runtimes() {
        let native = DegreeRuleLocal { isolated_joins: false, grace: None };
        assert_native_matches_decider(&native, &Theorem44MvcDecider, 10);
    }

    #[test]
    fn native_regular_mvc_matches_decider_on_all_runtimes() {
        assert_native_matches_decider(&RegularMvcLocal, &RegularMvcDecider, 10);
    }

    #[test]
    fn native_take_all_matches_decider_on_all_runtimes() {
        assert_native_matches_decider(&TakeAllLocal, &TakeAllDecider, 5);
    }

    /// `first_round` promises that no earlier state decides, and the
    /// oracle skips those rounds on the strength of it: every vertex of
    /// the corpus, at every round below the promise, must wait.
    fn assert_first_round_is_sound<A: LocalAlgorithm>(algo: &A, name: &str) {
        let first = algo.first_round();
        for g in &test_graphs() {
            for seed in [0u64, 5] {
                let ids = IdAssignment::shuffled(g.n(), seed);
                let network = Network::new(g, &ids);
                for v in 0..g.n() {
                    for round in 0..first {
                        let state = match round {
                            0 => algo.init(&network.node(v)),
                            _ => algo.project(&network, v, round).expect("built-ins project"),
                        };
                        assert!(
                            algo.decide(&state, round).is_none(),
                            "{name} decides at round {round} < first_round {first}: {g:?} v={v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_round_cap_is_the_margin_plus_reach_and_refuses_overflow() {
        // `max(r₁, 2r₂) + 15`, row r₁ = 1..=4, column r₂ = 1..=4; the
        // cap adds n.
        let base = [[17, 19, 21, 23], [17, 19, 21, 23], [18, 19, 21, 23], [19, 19, 21, 23]];
        for n in [0, 40, 535, 1_000_000] {
            for (one_cut, row) in (1..=4).zip(base) {
                for (two_cut, cap) in (1..=4).zip(row) {
                    let radii = Radii { one_cut, two_cut };
                    assert_eq!(adaptive_round_cap(radii, n), Some(cap + n as u32), "{radii:?} {n}");
                }
            }
        }
        assert_eq!(adaptive_round_cap(Radii::practical(3, 4), 100_000), Some(100_023));
        // The cap fills the `u32` round counter and stops there.
        let fits = u32::MAX as usize - 17;
        assert_eq!(adaptive_round_cap(Radii { one_cut: 1, two_cut: 1 }, fits), Some(u32::MAX));
        assert_eq!(adaptive_round_cap(Radii { one_cut: 1, two_cut: 1 }, fits + 1), None);
        assert_eq!(adaptive_round_cap(Radii::practical(1, 1 << 31), 5), None);
        assert_eq!(adaptive_round_cap(Radii::practical(u32::MAX, u32::MAX), 0), None);
        assert_eq!(adaptive_round_cap(Radii::practical(2, 3), usize::MAX), None);
    }

    #[test]
    fn first_rounds_are_sound_for_every_builtin() {
        assert_first_round_is_sound(&TakeAllDecider, "TakeAllDecider");
        assert_first_round_is_sound(&RegularMvcDecider, "RegularMvcDecider");
        assert_first_round_is_sound(&TreesFolkloreDecider, "TreesFolkloreDecider");
        assert_first_round_is_sound(&Theorem44Decider, "Theorem44Decider");
        assert_first_round_is_sound(&Theorem44MvcDecider, "Theorem44MvcDecider");
        assert_first_round_is_sound(&TakeAllLocal, "TakeAllLocal");
        assert_first_round_is_sound(&RegularMvcLocal, "RegularMvcLocal");
        for isolated_joins in [false, true] {
            for grace in [None, Some(0), Some(6)] {
                let algo = DegreeRuleLocal { isolated_joins, grace };
                assert_first_round_is_sound(&algo, "DegreeRuleLocal");
            }
        }
        for grace in [None, Some(0), Some(6)] {
            assert_first_round_is_sound(&Theorem44Local { grace }, "Theorem44Local");
        }
        for one_cut in 1..=4 {
            for two_cut in 1..=4 {
                let radii = Radii { one_cut, two_cut };
                let alg1 = Algorithm1Decider { radii };
                let mvc = MvcAlgorithm1Decider { radii };
                assert_eq!(LocalAlgorithm::first_round(&alg1), one_cut.max(2 * two_cut) + 2);
                assert_eq!(LocalAlgorithm::first_round(&mvc), one_cut.max(2 * two_cut) + 3);
                assert_first_round_is_sound(&alg1, "Algorithm1Decider");
                assert_first_round_is_sound(&mvc, "MvcAlgorithm1Decider");
            }
        }
        // Radii past the round counter saturate rather than wrap.
        let huge = Radii { one_cut: u32::MAX, two_cut: u32::MAX };
        assert_eq!(Decider::first_round(&Algorithm1Decider { radii: huge }), u32::MAX);
    }

    #[test]
    fn native_messages_are_leaner_than_view_flooding() {
        // The whole point of typed messages: Theorem 4.4 native traffic
        // must undercut the full-information protocol on the same run.
        let g = lmds_gen::outerplanar::random_maximal_outerplanar(24, 2);
        let ids = IdAssignment::shuffled(g.n(), 2);
        let native =
            RuntimeKind::MessagePassing.run(&g, &ids, &Theorem44Local::default(), 10).unwrap();
        let flood = RuntimeKind::MessagePassing.run(&g, &ids, &Theorem44Decider, 10).unwrap();
        assert_eq!(native.outputs, flood.outputs);
        assert_eq!(native.rounds, 3);
        let (nt, ft) =
            (native.messages.total_bits().unwrap(), flood.messages.total_bits().unwrap());
        assert!(nt < ft, "native {nt} bits should undercut view flooding {ft} bits");
    }

    #[test]
    fn native_theorem44_is_exact_under_adversarial_ids() {
        use crate::theorem44::theorem44_mds;
        for g in &test_graphs() {
            let ids = IdAssignment::adversarial(g, 3);
            let res = OracleRuntime.run(g, &ids, &Theorem44Local::default(), 10).unwrap();
            let mut central = theorem44_mds(g, &ids);
            central.sort_unstable();
            assert_eq!(outputs_to_set(&res.outputs), central, "{g:?}");
        }
    }

    /// The pinned monotone claim for pure asynchrony: Theorem 4.4's
    /// state machine with the standard grace budget (`FaultConfig::
    /// grace() = 6 + 2·skew`) produces outputs *bit-identical* to the
    /// fault-free run under any bounded skew ≤ 3 — the cumulative
    /// round-≥4 repair messages deliver complete evidence by round
    /// `5 + 2·skew`, before the grace deadline, so the exact decision
    /// rule always wins and only the round count grows.
    #[test]
    fn theorem44_is_exact_under_pure_bounded_asynchrony() {
        use lmds_localsim::{FaultConfig, FaultyRuntime};
        let mut stale_deliveries = 0u64;
        for g in &test_graphs() {
            for seed in [0u64, 7] {
                let ids = IdAssignment::shuffled(g.n(), seed);
                let reference = RuntimeKind::MessagePassing
                    .run(g, &ids, &Theorem44Local::default(), 10)
                    .unwrap();
                for skew in [1u32, 2, 3] {
                    let cfg = FaultConfig { seed: 0xA5 + seed, skew, ..FaultConfig::default() };
                    let algo = Theorem44Local { grace: Some(cfg.grace()) };
                    let run = FaultyRuntime::new(cfg).run_with_report(g, &ids, &algo, 64).unwrap();
                    let outputs: Vec<bool> = run.outputs.iter().map(|o| o.unwrap()).collect();
                    assert_eq!(outputs, reference.outputs, "{g:?} seed={seed} skew={skew}");
                    assert!(run.rounds >= reference.rounds, "{g:?} seed={seed} skew={skew}");
                    assert_eq!(run.report.messages_dropped, 0);
                    assert!(run.report.crashed.is_empty() && run.report.silent.is_empty());
                    assert!(run.report.max_staleness <= skew, "{g:?} skew={skew}");
                    stale_deliveries += u64::from(run.report.max_staleness);
                }
            }
        }
        // The sweep genuinely exercised stale deliveries somewhere.
        assert!(stale_deliveries > 0);
    }

    /// The complementary claim: Algorithm 1's adaptive decider runs
    /// through the blanket adapter, which certifies view radii by
    /// *counting rounds*, not by checking evidence — so under message
    /// drops it never stalls, it decides confidently on an impoverished
    /// view and goes wrong, while the grace-hardened Theorem 4.4
    /// machine on the very same fault plan degrades safe-side (extra
    /// joins) and stays dominating.
    #[test]
    fn adaptive_deciders_degrade_under_drops_while_grace_absorbs_them() {
        use lmds_localsim::{DropPolicy, FaultConfig, FaultyRuntime};
        let graphs = [
            lmds_gen::basic::path(10),
            lmds_gen::ding::strip(5),
            lmds_gen::trees::random_tree(14, 3),
        ];
        let (mut adaptive_bad, mut graced_bad, mut cells) = (0u32, 0u32, 0u32);
        for g in &graphs {
            for fault_seed in [1u64, 2, 3, 17] {
                for per_mille in [200u16, 600, 800] {
                    cells += 1;
                    let ids = IdAssignment::shuffled(g.n(), 4);
                    let cfg = FaultConfig {
                        seed: fault_seed,
                        drop: DropPolicy::Bernoulli { per_mille },
                        ..FaultConfig::default()
                    };
                    let rt = FaultyRuntime::new(cfg);

                    let decider = Algorithm1Decider { radii: Radii::practical(2, 2) };
                    let adaptive =
                        rt.run_with_report(g, &ids, &decider, 100).expect("adapter never stalls");
                    assert!(adaptive.report.messages_dropped > 0);
                    let adaptive_set = outputs_to_set(
                        &adaptive.outputs.iter().map(|o| o.unwrap()).collect::<Vec<_>>(),
                    );
                    adaptive_bad += u32::from(!is_dominating_set(g, &adaptive_set));

                    let algo = Theorem44Local { grace: Some(cfg.grace()) };
                    let graced = rt.run_with_report(g, &ids, &algo, 100).unwrap();
                    let graced_set = outputs_to_set(
                        &graced.outputs.iter().map(|o| o.unwrap()).collect::<Vec<_>>(),
                    );
                    graced_bad += u32::from(!is_dominating_set(g, &graced_set));
                }
            }
        }
        assert!(
            adaptive_bad > 0,
            "some cell in the {cells}-cell grid must break the round-counting adapter"
        );
        assert!(
            graced_bad < adaptive_bad,
            "grace must degrade strictly less often ({graced_bad} vs {adaptive_bad} of {cells})"
        );
    }
}

/// The MVC variant of Algorithm 1 as a LOCAL decider: take all local
/// 1-cut and local-2-cut vertices, then solve the center's component of
/// `G − S` exactly with the component solver
/// [`crate::mvc::algorithm1_mvc`] runs. Matches it exactly.
///
/// Like [`Algorithm1Decider`] it evaluates `S` on demand (on the view
/// itself — MVC has no twin reduction): for the center, its neighbors,
/// and the center's component of `G − S`.
pub struct MvcAlgorithm1Decider {
    /// The pipeline radii.
    pub radii: Radii,
}

impl Decider for MvcAlgorithm1Decider {
    type Output = bool;
    fn decide(&self, view: &LocalView) -> Option<bool> {
        let k = view.rounds() as i64;
        let margin = margin(self.radii);
        if k < margin + 1 {
            return None;
        }
        let (vg, vids) = view.to_graph();
        let center = view.center_index();
        // S = local 1-cuts ∪ all local-2-cut vertices (computed on the
        // view; trusted within depth k − margin).
        local_cuts::with_thread_engine(|engine| {
            let mut st = OnDemand::new(&vg, self.radii, Variant::Mvc, engine);
            if st.s(center) {
                return Some(true);
            }
            // Uncovered incident edge?
            if vg.neighbors(center).iter().all(|&u| st.s(u as Vertex)) {
                return Some(false);
            }
            // The center's component of G − S, within trusted depth.
            let limit = k - margin - 2;
            if limit < 0 {
                return None;
            }
            let dist = bfs::bfs_distances(&vg, center);
            let comp = st.component(center, |w| within(&dist, w, limit))?;
            Some(crate::mvc::solve_component(&vg, &vids, &comp).contains(&center))
        })
    }

    /// One round past [`Algorithm1Decider`]'s: the uncovered-edge test
    /// reads the neighbors' `S` statuses.
    fn first_round(&self) -> u32 {
        first_round_of(margin(self.radii) + 1)
    }
}

#[cfg(test)]
mod mvc_decider_tests {
    use super::*;
    use crate::mvc::algorithm1_mvc;
    use lmds_graph::vertex_cover::is_vertex_cover;
    use lmds_localsim::{IdAssignment, OracleRuntime};

    #[test]
    fn mvc_algorithm1_distributed_matches_centralized() {
        let radii = Radii::practical(2, 2);
        let graphs = vec![
            lmds_gen::basic::path(12),
            lmds_gen::basic::cycle(9),
            lmds_gen::ding::strip(5),
            lmds_gen::ding::fan(4),
            lmds_gen::composite::theta_ring(3, 2),
            lmds_gen::outerplanar::random_maximal_outerplanar(10, 2),
        ];
        for g in &graphs {
            for seed in [0u64, 7] {
                let ids = IdAssignment::shuffled(g.n(), seed);
                let decider = MvcAlgorithm1Decider { radii };
                let res = OracleRuntime.run(g, &ids, &decider, (2 * g.n() + 40) as u32).unwrap();
                let dist_set: Vec<usize> =
                    res.outputs.iter().enumerate().filter_map(|(v, &b)| b.then_some(v)).collect();
                let central = algorithm1_mvc(g, &ids, radii);
                assert_eq!(dist_set, central.solution, "{g:?} seed={seed}");
                assert!(is_vertex_cover(g, &dist_set), "{g:?}");
            }
        }
    }
}
