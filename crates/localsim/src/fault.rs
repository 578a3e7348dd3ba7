//! The message-passing engine: faithful synchronous message passing
//! behind an optional fault plan — message drops, crash-stop vertices,
//! and bounded round-asynchrony — with the same `run` call, result and
//! error as the oracle ([`crate::OracleRuntime::run`]). Under an active
//! plan the [`RunResult`] (or the round-limit [`RuntimeError`]) carries
//! the [`FaultReport`], and a vertex that crashed before deciding has a
//! `None` output.
//!
//! The fault model is layered on the synchronous round loop:
//!
//! * **Drops** — each directed delivery `(u → v, round)` can be lost.
//!   [`DropPolicy::Bernoulli`] draws independently per delivery;
//!   [`DropPolicy::TargetedHubs`] silences the highest-degree senders
//!   outright (an adversary attacking exactly the vertices Theorem 4.4
//!   leans on).
//! * **Crash-stop** — [`CrashPolicy`] picks a vertex set and a crash
//!   round; from that round on a crashed vertex neither sends,
//!   receives, nor decides. Its earlier decisions stand; if it never
//!   decided it stays *silent* and shows up in the report.
//! * **Skew** — bounded asynchrony: at round `ρ` a vertex may receive a
//!   neighbor's message from any round in `[ρ − s, ρ]` (never earlier
//!   than round 1). Exactly one message per live neighbor still arrives
//!   each round, so round-structured algorithms see stale but
//!   well-formed traffic.
//!
//! Everything derives deterministically from [`FaultConfig::seed`] via
//! a splitmix-style hash over `(seed, domain, edge, round)`: the same
//! config replays the same drops, the same crash set, the same
//! staleness draws, and therefore the same [`FaultReport`] — and the
//! Bernoulli threshold test makes drop sets *nested* in the rate, so
//! higher intensities strictly add faults rather than reshuffling them.
//!
//! With [`FaultConfig::default`] (no faults), [`FaultyRuntime`] is plain
//! synchronous message passing — every round each vertex sends, bits
//! are accounted, every message is received and every vertex may
//! decide — and [`crate::RuntimeKind::MessagePassing`] runs exactly that.
//!
//! Faults act on deliveries, not on message contents, so they need
//! nothing from the algorithm. A view algorithm's message is the
//! sender's [`crate::Knowledge`]: a dropped or stale one simply ORs
//! fewer or older bits in, its receiver still sets the bit of the edge
//! each delivered message came over, and its size is counted off the
//! bits exactly as the view it spells out would be
//! ([`crate::LocalView::size_bits`]).

use crate::algorithm::{LocalAlgorithm, Network};
use crate::ids::IdAssignment;
use crate::runtime::{check_sizes, MessageAccounting, RunResult, RuntimeError};
use lmds_graph::Graph;
use std::fmt;
use std::str::FromStr;

/// The largest `skew` the string form accepts. Every deadline derived
/// from skew grows with it — the grace budget is `6 + 2·skew` rounds
/// and default round caps add `skew` more — so a plan arriving as text
/// (the serve wire format) is held to a few dozen rounds. Configs built
/// in code may set any value; the runtime's round arithmetic saturates.
pub const MAX_SKEW: u32 = 64;

/// Message-drop policy, per directed delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DropPolicy {
    /// No deliveries are dropped.
    #[default]
    None,
    /// Each delivery is independently lost with probability
    /// `per_mille / 1000` (clamped to 1000). Same seed + higher rate
    /// drops a superset of the lower rate's messages.
    Bernoulli {
        /// Drop probability in thousandths.
        per_mille: u16,
    },
    /// The `⌈per_mille/1000 · n⌉` highest-degree vertices (ties to the
    /// smaller vertex index) have **all** outgoing messages dropped —
    /// a deterministic adversary aimed at the hubs.
    TargetedHubs {
        /// Fraction of vertices silenced, in thousandths.
        per_mille: u16,
    },
}

/// Crash-stop policy: which vertices crash, and at which round they
/// fall silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CrashPolicy {
    /// No vertex crashes.
    #[default]
    None,
    /// `count` vertices chosen by seeded hash crash at `round` (they
    /// participate in all rounds `< round`). Same seed + higher count
    /// crashes a superset.
    Random {
        /// Number of vertices to crash (clamped to `n`).
        count: u32,
        /// First round the crashed vertices are silent in.
        round: u32,
    },
    /// The `count` highest-degree vertices (ties to the smaller index)
    /// crash at `round`.
    Hubs {
        /// Number of vertices to crash (clamped to `n`).
        count: u32,
        /// First round the crashed vertices are silent in.
        round: u32,
    },
}

/// Complete description of a fault scenario. `Default` is the zero
/// config: no drops, no crashes, no skew — under which
/// [`FaultyRuntime`] is plain synchronous message passing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FaultConfig {
    /// Seed for every randomized draw (drops, crash sets, staleness).
    pub seed: u64,
    /// Message-drop policy.
    pub drop: DropPolicy,
    /// Crash-stop policy.
    pub crash: CrashPolicy,
    /// Maximum staleness (rounds) of a delivered message; 0 = fully
    /// synchronous.
    pub skew: u32,
}

impl FaultConfig {
    /// Whether any fault is actually injected. The seed alone is inert.
    pub fn is_active(&self) -> bool {
        self.drop != DropPolicy::None || self.crash != CrashPolicy::None || self.skew > 0
    }

    /// Extra decision rounds a fault-aware decider should allow itself
    /// before abandoning completeness and deciding on partial evidence:
    /// enough to absorb retransmission latency under `skew`-bounded
    /// asynchrony (stale-but-complete evidence arrives within `O(skew)`
    /// extra rounds). Zero when no fault is active; saturates at
    /// `u32::MAX` for skews past [`MAX_SKEW`] set in code.
    pub fn grace(&self) -> u32 {
        if self.is_active() {
            self.skew.saturating_mul(2).saturating_add(6)
        } else {
            0
        }
    }
}

impl fmt::Display for FaultConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_active() {
            return write!(f, "none");
        }
        let mut parts: Vec<String> = Vec::new();
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        match self.drop {
            DropPolicy::None => {}
            DropPolicy::Bernoulli { per_mille } => {
                parts.push(format!("drop=bernoulli:{per_mille}"))
            }
            DropPolicy::TargetedHubs { per_mille } => parts.push(format!("drop=hubs:{per_mille}")),
        }
        match self.crash {
            CrashPolicy::None => {}
            CrashPolicy::Random { count, round } => {
                parts.push(format!("crash=random:{count}@{round}"));
            }
            CrashPolicy::Hubs { count, round } => parts.push(format!("crash=hubs:{count}@{round}")),
        }
        if self.skew > 0 {
            parts.push(format!("skew={}", self.skew));
        }
        write!(f, "{}", parts.join(";"))
    }
}

/// Error parsing a [`FaultConfig`] from its compact string form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultError(String);

impl fmt::Display for ParseFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault config: {}", self.0)
    }
}

impl std::error::Error for ParseFaultError {}

/// Parses `"count@round"`.
fn parse_at(v: &str) -> Result<(u32, u32), ParseFaultError> {
    let (c, r) = v
        .split_once('@')
        .ok_or_else(|| ParseFaultError(format!("expected count@round, got {v:?}")))?;
    let count = c.parse().map_err(|_| ParseFaultError(format!("bad count {c:?}")))?;
    let round = r.parse().map_err(|_| ParseFaultError(format!("bad round {r:?}")))?;
    Ok((count, round))
}

impl FromStr for FaultConfig {
    type Err = ParseFaultError;

    /// Parses the [`Display`](fmt::Display) form:
    /// `"none"`, or `;`-separated parts among `seed=<u64>`,
    /// `drop=bernoulli:<per_mille>` / `drop=hubs:<per_mille>`,
    /// `crash=random:<count>@<round>` / `crash=hubs:<count>@<round>`,
    /// and `skew=<rounds>` with at most [`MAX_SKEW`] rounds.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "none" {
            return Ok(FaultConfig::default());
        }
        let mut cfg = FaultConfig::default();
        for part in s.split(';') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| ParseFaultError(format!("expected key=value, got {part:?}")))?;
            match key.trim() {
                "seed" => {
                    cfg.seed = value
                        .parse()
                        .map_err(|_| ParseFaultError(format!("bad seed {value:?}")))?;
                }
                "drop" => {
                    let (kind, rate) = value.split_once(':').ok_or_else(|| {
                        ParseFaultError(format!("expected kind:rate in {value:?}"))
                    })?;
                    let per_mille = rate
                        .parse()
                        .map_err(|_| ParseFaultError(format!("bad drop rate {rate:?}")))?;
                    cfg.drop = match kind {
                        "bernoulli" => DropPolicy::Bernoulli { per_mille },
                        "hubs" => DropPolicy::TargetedHubs { per_mille },
                        other => {
                            return Err(ParseFaultError(format!("unknown drop kind {other:?}")))
                        }
                    };
                }
                "crash" => {
                    let (kind, spec) = value.split_once(':').ok_or_else(|| {
                        ParseFaultError(format!("expected kind:spec in {value:?}"))
                    })?;
                    let (count, round) = parse_at(spec)?;
                    cfg.crash = match kind {
                        "random" => CrashPolicy::Random { count, round },
                        "hubs" => CrashPolicy::Hubs { count, round },
                        other => {
                            return Err(ParseFaultError(format!("unknown crash kind {other:?}")))
                        }
                    };
                }
                "skew" => {
                    cfg.skew = value.parse().ok().filter(|&s| s <= MAX_SKEW).ok_or_else(|| {
                        ParseFaultError(format!("bad skew {value:?} (at most {MAX_SKEW} rounds)"))
                    })?;
                }
                other => return Err(ParseFaultError(format!("unknown key {other:?}"))),
            }
        }
        Ok(cfg)
    }
}

/// What actually happened during a faulty execution — fully determined
/// by `(graph, ids, algorithm, FaultConfig)`, so identical seeds replay
/// identical reports.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Directed deliveries suppressed by the drop policy (messages a
    /// live sender put on the wire that never arrived).
    pub messages_dropped: u64,
    /// Vertices the crash policy took down, sorted.
    pub crashed: Vec<usize>,
    /// Crashed vertices that never reached a decision — they produced
    /// no output and must be covered by the live vertices (or reported
    /// as an infeasibility witness).
    pub silent: Vec<usize>,
    /// Largest staleness (rounds) of any delivered message.
    pub max_staleness: u32,
}

/// splitmix64 finalizer — the same dependency-free mixer the id
/// assignments use, rehosted here so fault draws stay self-contained.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless hash chain over the draw coordinates: every fault decision
/// is a pure function of `(seed, domain, a, b, c)`.
fn draw(seed: u64, domain: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut h = seed ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for x in [a, b, c] {
        h = mix64(h ^ x.wrapping_add(0x9E37_79B9_7F4A_7C15));
    }
    mix64(h)
}

const DOMAIN_DROP: u64 = 0xD20B;
const DOMAIN_SKEW: u64 = 0x5CE3;
const DOMAIN_CRASH: u64 = 0xC2A5;

/// The `count` top-degree vertices (ties to the smaller index), sorted
/// by vertex index.
fn top_degree(g: &Graph, count: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..g.n()).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    order.truncate(count.min(g.n()));
    order.sort_unstable();
    order
}

/// A [`FaultConfig`] materialized against a concrete graph: the crash
/// schedule is resolved to explicit vertices, and per-delivery draws
/// are answered from the seed.
#[derive(Debug, Clone)]
struct FaultPlan {
    config: FaultConfig,
    /// `crash_round[v]` = first round `v` is silent in, if it crashes.
    crash_round: Vec<Option<u32>>,
    /// Senders silenced by [`DropPolicy::TargetedHubs`].
    hub_dropped: Vec<bool>,
}

impl FaultPlan {
    /// Resolves `config` against `g`: picks the crash set and the hub
    /// set. Deterministic in `(g, config)`.
    fn materialize(g: &Graph, config: &FaultConfig) -> FaultPlan {
        let n = g.n();
        let mut crash_round = vec![None; n];
        match config.crash {
            CrashPolicy::None => {}
            CrashPolicy::Random { count, round } => {
                // Seeded ranking; prefixes are nested in `count`.
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&v| (draw(config.seed, DOMAIN_CRASH, v as u64, 0, 0), v));
                for &v in order.iter().take(count as usize) {
                    crash_round[v] = Some(round);
                }
            }
            CrashPolicy::Hubs { count, round } => {
                for v in top_degree(g, count as usize) {
                    crash_round[v] = Some(round);
                }
            }
        }
        let mut hub_dropped = vec![false; n];
        if let DropPolicy::TargetedHubs { per_mille } = config.drop {
            let k = (n as u64 * u64::from(per_mille.min(1000))).div_ceil(1000) as usize;
            for v in top_degree(g, k) {
                hub_dropped[v] = true;
            }
        }
        FaultPlan { config: *config, crash_round, hub_dropped }
    }

    /// The crash set, sorted.
    fn crashed_vertices(&self) -> Vec<usize> {
        (0..self.crash_round.len()).filter(|&v| self.crash_round[v].is_some()).collect()
    }

    /// Whether `v` participates in round `round` (send, receive, and
    /// decide all stop at its crash round).
    fn alive_at(&self, v: usize, round: u32) -> bool {
        self.crash_round[v].is_none_or(|c| round < c)
    }

    /// Whether `v` can still decide in some round after `round`.
    fn decides_after(&self, v: usize, round: u32) -> bool {
        self.crash_round[v].is_none_or(|c| c > round + 1)
    }

    /// Whether the delivery `u → v` at `round` is dropped.
    fn dropped(&self, u: usize, v: usize, round: u32) -> bool {
        match self.config.drop {
            DropPolicy::None => false,
            DropPolicy::Bernoulli { per_mille } => {
                let roll =
                    draw(self.config.seed, DOMAIN_DROP, u as u64, v as u64, u64::from(round))
                        % 1000;
                roll < u64::from(per_mille.min(1000))
            }
            DropPolicy::TargetedHubs { .. } => self.hub_dropped[u],
        }
    }

    /// Staleness of the delivery `u → v` at `round`: the message
    /// actually delivered was sent `staleness` rounds ago, in
    /// `[0, min(skew, round − 1)]` (round-1 traffic is never stale —
    /// nothing older exists).
    fn staleness(&self, u: usize, v: usize, round: u32) -> u32 {
        let bound = self.config.skew.min(round.saturating_sub(1));
        if bound == 0 {
            return 0;
        }
        (draw(self.config.seed, DOMAIN_SKEW, u as u64, v as u64, u64::from(round))
            % u64::from(bound + 1)) as u32
    }
}

/// Synchronous message passing under a seeded [`FaultConfig`]. With
/// the zero config this is the faithful message-passing execution
/// ([`crate::RuntimeKind::MessagePassing`]); under an active plan its
/// [`RunResult`] carries the [`FaultReport`], and crashed vertices that
/// never decided are silent (`None` outputs) rather than a failure.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultyRuntime {
    /// The fault scenario to inject.
    pub config: FaultConfig,
}

impl FaultyRuntime {
    /// A runtime injecting `config`.
    pub fn new(config: FaultConfig) -> FaultyRuntime {
        FaultyRuntime { config }
    }

    /// Executes `algo` on the network `(g, ids)` under the fault plan,
    /// at most `max_rounds` communication rounds. Terminates when every
    /// vertex that can still decide has decided; silent vertices yield
    /// `None` outputs. The result's `fault` is the realized
    /// [`FaultReport`] when the plan is active, `None` otherwise.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RoundLimitExceeded`] (with the accumulated
    /// report, under an active plan) if a live vertex is still undecided
    /// at the cap; [`RuntimeError::SizeMismatch`] on malformed input.
    pub fn run<A: LocalAlgorithm>(
        &self,
        g: &Graph,
        ids: &IdAssignment,
        algo: &A,
        max_rounds: u32,
    ) -> Result<RunResult<A::Output>, RuntimeError> {
        check_sizes(g, ids)?;
        let active = self.config.is_active();
        let plan = FaultPlan::materialize(g, &self.config);
        let n = g.n();
        let id_bits = ids.bits();
        let network = Network::new(g, ids);
        let mut states: Vec<A::State> = (0..n).map(|v| algo.init(&network.node(v))).collect();
        let mut outputs: Vec<Option<A::Output>> = vec![None; n];
        let mut decided_at = vec![0u32; n];
        let mut max_msg = 0u64;
        let mut total_msg = 0u64;
        let mut report = FaultReport { crashed: plan.crashed_vertices(), ..Default::default() };

        // Round 0 decisions (a vertex crashing at round 0 never decides).
        for (v, out) in outputs.iter_mut().enumerate() {
            if plan.alive_at(v, 0) {
                if let Some(o) = algo.decide(&states[v], 0) {
                    *out = Some(o);
                }
            }
        }
        let mut round = 0u32;
        // Message history ring: round `r`'s messages live at slot
        // `(r − 1) % depth`. Staleness never exceeds the skew, and no
        // delivery predates round 1, so `min(skew, max_rounds) + 1`
        // slots always suffice; the ring grows only as rounds run.
        // Inboxes borrow their messages from it.
        let depth = self.config.skew.min(max_rounds) as usize + 1;
        let mut history: Vec<Vec<Option<A::Message>>> = Vec::new();
        loop {
            let undecided =
                (0..n).filter(|&v| outputs[v].is_none() && plan.decides_after(v, round)).count();
            if undecided == 0 {
                break;
            }
            if round >= max_rounds {
                report.silent = silent_vertices(&plan, &outputs);
                let fault = active.then_some(report);
                return Err(RuntimeError::RoundLimitExceeded {
                    limit: max_rounds,
                    undecided,
                    fault,
                });
            }
            round += 1;
            // Send phase: live vertices broadcast (decided ones keep
            // relaying, crashed ones are silent); bits are accounted
            // for everything put on the wire — dropped or not.
            let msgs: Vec<Option<A::Message>> = states
                .iter()
                .enumerate()
                .map(|(v, s)| plan.alive_at(v, round).then(|| algo.send(s, round)))
                .collect();
            for (v, m) in msgs.iter().enumerate() {
                if let Some(m) = m {
                    let deg = g.degree(v) as u64;
                    if deg > 0 {
                        let bits = algo.message_bits(m, id_bits);
                        total_msg += bits * deg;
                        max_msg = max_msg.max(bits);
                    }
                }
            }
            if history.len() < depth {
                history.push(msgs);
            } else {
                history[(round as usize - 1) % depth] = msgs;
            }
            // Receive phase: one (possibly stale) message per live
            // neighbor, in host neighbor order, minus drops.
            let mut inbox: Vec<&A::Message> = Vec::new();
            for (v, state) in states.iter_mut().enumerate() {
                if !plan.alive_at(v, round) {
                    continue;
                }
                inbox.clear();
                for &u in g.neighbors(v) {
                    let u = u as usize;
                    let stale = plan.staleness(u, v, round);
                    let src = round - stale; // ≥ 1 by the staleness bound
                    let slot = &history[(src as usize - 1) % depth][u];
                    let Some(m) = slot else { continue }; // sender crashed at src
                    if plan.dropped(u, v, round) {
                        report.messages_dropped += 1;
                        continue;
                    }
                    if stale > report.max_staleness {
                        report.max_staleness = stale;
                    }
                    inbox.push(m);
                }
                algo.receive(state, round, &inbox);
            }
            // Decide phase, live vertices only.
            for (v, out) in outputs.iter_mut().enumerate() {
                if out.is_none() && plan.alive_at(v, round) {
                    if let Some(o) = algo.decide(&states[v], round) {
                        *out = Some(o);
                        decided_at[v] = round;
                    }
                }
            }
        }
        report.silent = silent_vertices(&plan, &outputs);
        let messages = MessageAccounting::Measured {
            max_message_bits: max_msg,
            total_message_bits: total_msg,
        };
        let rounds = decided_at.iter().copied().max().unwrap_or(0);
        Ok(RunResult { outputs, decided_at, rounds, messages, fault: active.then_some(report) })
    }
}

fn silent_vertices<O>(plan: &FaultPlan, outputs: &[Option<O>]) -> Vec<usize> {
    plan.crashed_vertices().into_iter().filter(|&v| outputs[v].is_none()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::LocalView;
    use crate::Decider;

    /// Needs radius 2: the minimum id in the 2-ball.
    struct MinIdRadius2;
    impl Decider for MinIdRadius2 {
        type Output = u64;
        fn decide(&self, view: &LocalView) -> Option<u64> {
            (view.rounds() >= 2).then(|| view.vertex_ids().iter().copied().min().unwrap())
        }
    }

    fn corpus() -> Vec<Graph> {
        vec![
            lmds_graph::Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
            lmds_graph::Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]),
            lmds_graph::Graph::from_edges(
                7,
                &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3)],
            ),
        ]
    }

    #[test]
    fn identical_seeds_replay_identical_reports() {
        let g = corpus().remove(2);
        let ids = IdAssignment::sequential(g.n());
        let cfg = FaultConfig {
            seed: 42,
            drop: DropPolicy::Bernoulli { per_mille: 250 },
            crash: CrashPolicy::Random { count: 2, round: 2 },
            skew: 1,
        };
        let rt = FaultyRuntime::new(cfg);
        let a = rt.run(&g, &ids, &MinIdRadius2, 32);
        let b = rt.run(&g, &ids, &MinIdRadius2, 32);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert!(x.fault.is_some());
                assert_eq!(x.fault, y.fault);
                assert_eq!(x.outputs, y.outputs);
            }
            (Err(ex), Err(ey)) => assert_eq!(ex, ey),
            other => panic!("replay diverged: {:?}", other.0.is_ok()),
        }
    }

    #[test]
    fn bernoulli_drop_counts_are_monotone_in_rate() {
        let g = corpus().remove(0);
        let ids = IdAssignment::sequential(g.n());
        let mut last = 0u64;
        for per_mille in [0u16, 100, 300, 600, 1000] {
            let cfg = FaultConfig {
                seed: 7,
                drop: DropPolicy::Bernoulli { per_mille },
                ..FaultConfig::default()
            };
            // MinIdRadius2 always decides at round 2 regardless of
            // content, so every run sees the same delivery schedule.
            let run = FaultyRuntime::new(cfg).run(&g, &ids, &MinIdRadius2, 16).unwrap();
            let dropped = run.fault.expect("a drop policy is an active plan").messages_dropped;
            assert!(dropped >= last, "rate {per_mille}: {dropped} < {last}");
            last = dropped;
        }
        assert!(last > 0, "full drop rate must drop every delivery");
    }

    #[test]
    fn crashed_vertices_fall_silent_and_are_reported() {
        let g = corpus().remove(0); // path on 6
        let ids = IdAssignment::sequential(g.n());
        let cfg = FaultConfig {
            seed: 3,
            crash: CrashPolicy::Hubs { count: 2, round: 1 },
            ..FaultConfig::default()
        };
        let run = FaultyRuntime::new(cfg).run(&g, &ids, &MinIdRadius2, 16).unwrap();
        let report = run.fault.expect("a crash policy is an active plan");
        assert_eq!(report.crashed.len(), 2);
        assert_eq!(report.silent, report.crashed, "crashed at round 1, decide at 2");
        for &v in &report.silent {
            assert!(run.outputs[v].is_none());
        }
    }

    #[test]
    fn one_result_type_carries_silence_and_the_report_of_active_plans() {
        let g = corpus().remove(2);
        let n = g.n();
        let ids = IdAssignment::shuffled(n, 4);
        let crash = FaultConfig {
            seed: 3,
            crash: CrashPolicy::Random { count: 2, round: 1 },
            ..FaultConfig::default()
        };
        let run = FaultyRuntime::new(crash).run(&g, &ids, &MinIdRadius2, 16).unwrap();
        let report = run.fault.as_ref().expect("a crash plan is active");
        assert_eq!(report.silent.len(), 2, "crashed at round 1, decide at 2");
        for v in 0..n {
            assert_eq!(run.outputs[v].is_none(), report.silent.contains(&v), "vertex {v}");
        }
        assert_eq!(run.decided_histogram().iter().sum::<usize>(), n - report.silent.len());

        // The report rides exactly on active plans: not on the oracle,
        // not on a seed-only plan, but on a plan that drops nothing.
        let oracle = crate::OracleRuntime.run(&g, &ids, &MinIdRadius2, 16).unwrap();
        assert!(oracle.fault.is_none());
        assert_eq!(oracle.decided_histogram().iter().sum::<usize>(), n);
        let seed_only = FaultConfig { seed: 3, ..FaultConfig::default() };
        let run = FaultyRuntime::new(seed_only).run(&g, &ids, &MinIdRadius2, 16).unwrap();
        assert!(run.fault.is_none());
        assert_eq!(run.outputs, oracle.outputs);
        let drop_none: FaultConfig = "seed=3;drop=bernoulli:0".parse().unwrap();
        let run = FaultyRuntime::new(drop_none).run(&g, &ids, &MinIdRadius2, 16).unwrap();
        assert_eq!(run.fault, Some(FaultReport::default()));
        assert_eq!(run.outputs, oracle.outputs);

        // A round-limit error carries a report only under an active plan.
        let err = crate::OracleRuntime.run(&g, &ids, &MinIdRadius2, 1).unwrap_err();
        assert_eq!(err, RuntimeError::RoundLimitExceeded { limit: 1, undecided: n, fault: None });
        let err = FaultyRuntime::new(seed_only).run(&g, &ids, &MinIdRadius2, 1).unwrap_err();
        assert_eq!(err, RuntimeError::RoundLimitExceeded { limit: 1, undecided: n, fault: None });
        let err = FaultyRuntime::new(crash).run(&g, &ids, &MinIdRadius2, 1).unwrap_err();
        assert!(matches!(err, RuntimeError::RoundLimitExceeded { fault: Some(_), .. }), "{err:?}");
    }

    #[test]
    fn round_limit_error_carries_the_report() {
        let g = corpus().remove(0);
        let ids = IdAssignment::sequential(g.n());
        let cfg = FaultConfig {
            seed: 5,
            drop: DropPolicy::Bernoulli { per_mille: 1000 },
            ..FaultConfig::default()
        };
        // A decider that waits for real evidence (at least one merged
        // neighbor view) — under total loss it can never decide, so
        // the cap trips and the report rides the error.
        struct NeedsNeighbor;
        impl Decider for NeedsNeighbor {
            type Output = usize;
            fn decide(&self, view: &LocalView) -> Option<usize> {
                (view.vertex_ids().len() >= 2).then(|| view.vertex_ids().len())
            }
        }
        let err = FaultyRuntime::new(cfg).run(&g, &ids, &NeedsNeighbor, 4).unwrap_err();
        let RuntimeError::RoundLimitExceeded { limit: 4, fault: Some(report), .. } = &err else {
            panic!("{err:?}");
        };
        assert!(report.messages_dropped > 0);
        assert!(err
            .to_string()
            .ends_with(" (fault run: 40 messages dropped, 0 crashed, 0 silent)"));
    }

    #[test]
    fn skew_delivers_stale_but_wellformed_traffic() {
        let g = corpus().remove(2);
        let ids = IdAssignment::shuffled(g.n(), 4);
        let cfg = FaultConfig { seed: 11, skew: 2, ..FaultConfig::default() };
        let run = FaultyRuntime::new(cfg).run(&g, &ids, &MinIdRadius2, 32).unwrap();
        let report = run.fault.expect("skew is an active plan");
        assert!(report.max_staleness <= 2);
        assert_eq!(report.messages_dropped, 0);
        assert!(run.outputs.iter().all(|o| o.is_some()));
    }

    #[test]
    fn skew_past_the_round_cap_keeps_the_history_bounded() {
        // The history ring is sized by the rounds that can run, not by
        // the skew: an unbounded skew set in code must neither allocate
        // for it nor overflow the grace arithmetic.
        let g = corpus().remove(2);
        let ids = IdAssignment::shuffled(g.n(), 4);
        let cfg = FaultConfig { seed: 11, skew: u32::MAX, ..FaultConfig::default() };
        assert_eq!(cfg.grace(), u32::MAX);
        let run = FaultyRuntime::new(cfg).run(&g, &ids, &MinIdRadius2, 16).unwrap();
        assert!(run.outputs.iter().all(|o| o.is_some()));
        assert!(run.fault.expect("skew is an active plan").max_staleness < 16);
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let configs = [
            FaultConfig::default(),
            FaultConfig {
                seed: 9,
                drop: DropPolicy::Bernoulli { per_mille: 150 },
                ..FaultConfig::default()
            },
            FaultConfig {
                drop: DropPolicy::TargetedHubs { per_mille: 200 },
                ..FaultConfig::default()
            },
            FaultConfig {
                seed: 1,
                crash: CrashPolicy::Random { count: 3, round: 2 },
                ..FaultConfig::default()
            },
            FaultConfig {
                crash: CrashPolicy::Hubs { count: 1, round: 4 },
                skew: 2,
                ..FaultConfig::default()
            },
            FaultConfig {
                seed: 77,
                drop: DropPolicy::Bernoulli { per_mille: 500 },
                crash: CrashPolicy::Random { count: 2, round: 1 },
                skew: 3,
            },
        ];
        for cfg in configs {
            let s = cfg.to_string();
            let parsed: FaultConfig = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            if cfg.is_active() {
                assert_eq!(parsed, cfg, "{s}");
            } else {
                assert!(!parsed.is_active());
            }
        }
        assert!("drop=sometimes:1".parse::<FaultConfig>().is_err());
        assert!("crash=random:nope".parse::<FaultConfig>().is_err());
        assert!("frobnicate=1".parse::<FaultConfig>().is_err());
        assert_eq!(format!("skew={MAX_SKEW}").parse::<FaultConfig>().unwrap().skew, MAX_SKEW);
        let too_stale = format!("skew={}", MAX_SKEW + 1).parse::<FaultConfig>().unwrap_err();
        assert!(too_stale.to_string().contains("at most"), "{too_stale}");
        assert!("seed=1;skew=4294967295".parse::<FaultConfig>().is_err());
    }
}
