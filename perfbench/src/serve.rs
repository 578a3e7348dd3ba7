//! `serve-mixed`: an in-process `lmds-serve` with its default config
//! (two workers; see [`config`] for the one change), driven by two
//! closed-loop keep-alive clients. Each client owns its
//! graphs, so a PATCH never races its own jobs (409):
//!
//! * `chain` — `scale_instance(2·10⁴)`, one component: a PATCH forces a
//!   full re-solve;
//! * `strip` — `ding::strip(400)`: `mds/exact` runs the treewidth DP;
//! * `outer` — `random_outerplanar(3000, 25, ·)`.
//!
//! A cycle patches each graph with a seeded batch (drop the previous
//! batch's chords, add four new distance-2 chords, so the graph never
//! repeats and never drifts from its family), sends the cold solves,
//! then repeats every cold request once as a cache hit: about half the
//! solves are hits.

use crate::env::Calibration;
use crate::trace::Tracer;
use crate::{stats, Budget, Run};
use lmds_api::{Instance, SolutionView, SolveConfig, SolverRegistry};
use lmds_core::Radii;
use lmds_gen::rng::SmallRng;
use lmds_graph::{DynamicGraph, Graph, GraphUpdate};
use lmds_serve::http::{self, ClientResponse, KeepAliveClient};
use lmds_serve::json::{self, Value};
use lmds_serve::proto::{parse_solution, render_solution};
use lmds_serve::server::{ServeConfig, Server, ServerHandle};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const CHAIN_N: usize = 20_000;
const STRIP_K: usize = 400;
const OUTER_N: usize = 3_000;
const SMOKE_SIZES: (usize, usize, usize) = (2_000, 40, 300);
const OUTER_CHORD_PERCENT: u32 = 25;
const PATCH_EDGES: usize = 4;
const SETUP_REPEATS: usize = 7;
const TIMEOUT: Duration = Duration::from_secs(60);
const ALG1_CONFIG: &str = r#"{"radii": [3, 4]}"#;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Chain,
    Strip,
    Outer,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Chain, Kind::Strip, Kind::Outer];

    fn name(self) -> &'static str {
        match self {
            Kind::Chain => "chain",
            Kind::Strip => "strip",
            Kind::Outer => "outer",
        }
    }

    /// The cold solves sent after each patch: (solver, config).
    fn solves(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Kind::Chain => &[("mds/algorithm1", ALG1_CONFIG)],
            Kind::Strip => &[("mds/exact", "{}"), ("mvc/exact", "{}")],
            Kind::Outer => {
                &[("mds/algorithm1", ALG1_CONFIG), ("mds/exact", "{}"), ("mvc/exact", "{}")]
            }
        }
    }
}

/// A graph one client owns: the stored original, the live copy the
/// server should hold, and the chords the last patch added.
struct Owned {
    kind: Kind,
    name: String,
    base: Graph,
    live: DynamicGraph,
    chords: Vec<(usize, usize)>,
    rng: SmallRng,
}

impl Owned {
    /// The next patch: remove the previous chords, insert
    /// `PATCH_EDGES` fresh chords between vertices at distance two in
    /// the original graph.
    fn next_batch(&mut self) -> (Vec<GraphUpdate>, Vec<(usize, usize)>) {
        let g = &self.base;
        let mut fresh: Vec<(usize, usize)> = Vec::new();
        for _ in 0..1000 {
            if fresh.len() == PATCH_EDGES {
                break;
            }
            let u = self.rng.gen_range(0..g.n());
            let nu = g.neighbors(u);
            if nu.is_empty() {
                continue;
            }
            let v = nu[self.rng.gen_range(0..nu.len())] as usize;
            let nv = g.neighbors(v);
            let w = nv[self.rng.gen_range(0..nv.len())] as usize;
            let e = (u.min(w), u.max(w));
            if w != u && !g.has_edge(u, w) && !fresh.contains(&e) {
                fresh.push(e);
            }
        }
        let ops = self
            .chords
            .iter()
            .map(|&(u, v)| GraphUpdate::RemoveEdge(u, v))
            .chain(fresh.iter().map(|&(u, v)| GraphUpdate::InsertEdge(u, v)))
            .collect();
        (ops, fresh)
    }
}

fn patch_body(ops: &[GraphUpdate]) -> String {
    let items: Vec<String> = ops
        .iter()
        .map(|op| match *op {
            GraphUpdate::InsertEdge(u, v) => format!(r#"{{"op": "insert", "u": {u}, "v": {v}}}"#),
            GraphUpdate::RemoveEdge(u, v) => format!(r#"{{"op": "delete", "u": {u}, "v": {v}}}"#),
            GraphUpdate::AddVertex => r#"{"op": "add_vertex"}"#.to_string(),
        })
        .collect();
    format!(r#"{{"updates": [{}]}}"#, items.join(", "))
}

fn solve_body(graph: &str, solver: &str, config: &str) -> String {
    format!(r#"{{"graph": "{graph}", "solver": "{solver}", "config": {config}}}"#)
}

/// The three graphs of client `c`, generated from the run seed.
fn graphs_for(c: usize, seed: u64, smoke: bool) -> Vec<Owned> {
    let (chain_n, strip_k, outer_n) = if smoke { SMOKE_SIZES } else { (CHAIN_N, STRIP_K, OUTER_N) };
    let sub = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (c as u64 + 1);
    Kind::ALL
        .into_iter()
        .map(|kind| {
            let g = match kind {
                Kind::Chain => lmds_gen::ding::scale_instance(chain_n, sub),
                Kind::Strip => lmds_gen::ding::strip(strip_k),
                Kind::Outer => {
                    lmds_gen::outerplanar::random_outerplanar(outer_n, OUTER_CHORD_PERCENT, sub)
                }
            };
            Owned {
                kind,
                name: format!("c{c}-{}", kind.name()),
                live: DynamicGraph::new(g.clone()),
                base: g,
                chords: Vec::new(),
                rng: SmallRng::seed_from_u64(sub ^ kind as u64),
            }
        })
        .collect()
}

/// The daemon's default config, except that finished jobs stay
/// pollable for 100 ms instead of 300 s. Each retained job holds its
/// graph, so with the default the heap grows with every request of a
/// 30 s run and peak memory would rise whenever throughput does.
fn config() -> ServeConfig {
    ServeConfig {
        job_retention: Duration::from_millis(100),
        gc_interval: Duration::from_millis(50),
        ..ServeConfig::default()
    }
}

struct Setup {
    server: ServerHandle,
    clients: Vec<Vec<Owned>>,
    setup_s: Vec<f64>,
    gen_ms: Vec<f64>,
}

/// Generates every client's graphs, starts the daemon and uploads them,
/// `SETUP_REPEATS` times; keeps the last daemon.
fn setup(run: &mut Run) -> Setup {
    let (mut setup_s, mut gen_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((server, _)) = last.take() {
            ServerHandle::shutdown(server);
        }
        run.calib.sample();
        let t0 = Instant::now();
        let clients: Vec<Vec<Owned>> =
            (0..CLIENTS).map(|c| graphs_for(c, run.seed, run.smoke)).collect();
        let t1 = Instant::now();
        let server = Server::spawn(config()).expect("serve-mixed: daemon starts");
        for owned in clients.iter().flatten() {
            let body = lmds_graph::io::to_edge_list(&owned.base);
            let put = http::request(
                server.addr(),
                "PUT",
                &format!("/graphs/{}", owned.name),
                body.as_bytes(),
                TIMEOUT,
            );
            run.check(put.as_ref().is_ok_and(|r| r.status == 201), || {
                format!("serve-mixed: upload {} failed", owned.name)
            });
        }
        setup_s.push(run.calib.normalize(t0.elapsed().as_secs_f64()));
        gen_ms.push(stats::ms(t1 - t0));
        last = Some((server, clients));
    }
    let (server, clients) = last.expect("at least one set-up repeat");
    let instances = clients
        .iter()
        .flatten()
        .map(|o| {
            Value::obj([
                ("name", Value::from(o.name.as_str())),
                ("n", Value::from(o.base.n())),
                ("m", Value::from(o.base.m())),
            ])
        })
        .collect();
    run.note(
        "serve",
        Value::obj([
            ("workers", Value::from(config().workers)),
            ("job_retention_ms", Value::from(config().job_retention.as_millis() as u64)),
            ("clients", Value::from(CLIENTS)),
            ("alg1_radii", Value::Arr(vec![Value::from(3u32), Value::from(4u32)])),
            ("patch_edges", Value::from(PATCH_EDGES)),
            ("instances", Value::Arr(instances)),
        ]),
    );
    Setup { server, clients, setup_s, gen_ms }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Patch,
    Cold,
    Hit,
}

/// One timed request.
struct Sample {
    class: Class,
    solver: &'static str,
    cycle: usize,
    start: Instant,
    end: Instant,
    /// Server-side solver time, for cold solves.
    wall_us: Option<u64>,
}

impl Sample {
    fn ms(&self) -> f64 {
        stats::ms(self.end - self.start)
    }
}

/// A keep-alive connection that reconnects when the server ends it
/// (the per-connection request budget).
struct Conn {
    addr: SocketAddr,
    client: Option<KeepAliveClient>,
}

impl Conn {
    fn send(&mut self, method: &str, path: &str, body: &[u8]) -> Result<ClientResponse, String> {
        if !self.client.as_ref().is_some_and(KeepAliveClient::is_open) {
            self.client =
                Some(KeepAliveClient::connect(self.addr, TIMEOUT).map_err(|e| e.to_string())?);
        }
        let client = self.client.as_mut().expect("connected above");
        client.send(method, path, body).map_err(|e| format!("{method} {path}: {e}"))
    }
}

fn parse_body(resp: &ClientResponse) -> Option<Value> {
    json::parse(std::str::from_utf8(&resp.body).ok()?).ok()
}

/// Everything one client saw.
struct ClientOut {
    owned: Vec<Owned>,
    samples: Vec<Sample>,
    patch_solve_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    conflicts: u64,
    /// The latest served `chain` solution and its raw response body.
    chain_solution: Option<Value>,
    chain_body: Option<String>,
    /// Body size of the latest cold MDS response per graph kind.
    bytes: [usize; 3],
    last_batch: Vec<GraphUpdate>,
}

impl ClientOut {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Checks a served solution against the client's own copy of the graph:
/// feasible for its problem, flagged valid, sized as listed.
fn feasible(solution: &Value, solver: &str, g: &Graph) -> bool {
    let Some(items) = solution.get("vertices").and_then(Value::as_arr) else { return false };
    let vs: Option<Vec<usize>> = items.iter().map(|v| v.as_u64().map(|x| x as usize)).collect();
    let Some(vs) = vs else { return false };
    if vs.iter().any(|&v| v >= g.n()) {
        return false;
    }
    let ok = if solver.starts_with("mvc/") {
        lmds_graph::vertex_cover::is_vertex_cover(g, &vs)
    } else {
        lmds_graph::dominating::is_dominating_set(g, &vs)
    };
    ok && solution.get("valid").and_then(Value::as_bool) == Some(true)
        && solution.get("size").and_then(Value::as_u64) == Some(vs.len() as u64)
}

/// One client cycle: patch each graph and cold-solve it, then repeat
/// every cold solve as a cache hit.
fn cycle(conn: &mut Conn, out: &mut ClientOut, cycle: usize) {
    let mut colds: Vec<(String, &'static str, String)> = Vec::new();
    let mut owned = std::mem::take(&mut out.owned);
    for g in &mut owned {
        let (ops, fresh) = g.next_batch();
        let t0 = Instant::now();
        let resp = conn.send("PATCH", &format!("/graphs/{}", g.name), patch_body(&ops).as_bytes());
        let t1 = Instant::now();
        out.samples.push(Sample {
            class: Class::Patch,
            solver: "",
            cycle,
            start: t0,
            end: t1,
            wall_us: None,
        });
        match resp {
            Ok(r) if r.status == 200 => {
                let applied = g.live.apply(&ops);
                out.check(applied.is_ok(), || format!("serve-mixed: local patch of {}", g.name));
                g.chords = fresh;
                if g.kind == Kind::Chain {
                    out.last_batch = ops;
                }
            }
            other => {
                let status = other.as_ref().map_or(0, |r| r.status);
                out.conflicts += u64::from(status == 409);
                out.check(false, || format!("serve-mixed: PATCH {} -> {status}", g.name));
                continue;
            }
        }
        for &(solver, config) in g.kind.solves() {
            let body = solve_body(&g.name, solver, config);
            let t = Instant::now();
            let resp = conn.send("POST", "/solve", body.as_bytes());
            let end = Instant::now();
            let doc = resp.as_ref().ok().filter(|r| r.status == 200).and_then(parse_body);
            let Some(doc) = doc else {
                let status = resp.as_ref().map_or(0, |r| r.status);
                out.conflicts += u64::from(status == 409);
                out.check(false, || format!("serve-mixed: {solver} on {} -> {status}", g.name));
                continue;
            };
            let solution = doc.get("solution").cloned().unwrap_or(Value::Null);
            let cached = doc.get("cached").and_then(Value::as_bool) == Some(true);
            out.check(feasible(&solution, solver, g.live.graph()), || {
                format!("serve-mixed: {solver} on {} returned an infeasible set", g.name)
            });
            let wall_us = solution.get("wall_micros").and_then(Value::as_u64);
            let class = if cached { Class::Hit } else { Class::Cold };
            out.samples.push(Sample { class, solver, cycle, start: t, end, wall_us });
            if g.kind == Kind::Chain {
                out.patch_solve_ms.push(stats::ms(end - t0));
                out.chain_solution = Some(solution.clone());
                if let Ok(r) = &resp {
                    out.chain_body = String::from_utf8(r.body.clone()).ok();
                }
            }
            if solver.starts_with("mds/") && !cached {
                out.bytes[g.kind as usize] = resp.as_ref().map_or(0, |r| r.body.len());
            }
            if !cached {
                colds.push((body, solver, solution.render()));
            }
        }
    }
    out.owned = owned;
    for (body, solver, expected) in colds {
        let t = Instant::now();
        let resp = conn.send("POST", "/solve", body.as_bytes());
        let end = Instant::now();
        let doc = resp.as_ref().ok().filter(|r| r.status == 200).and_then(parse_body);
        let hit = doc.as_ref().is_some_and(|d| {
            d.get("cached").and_then(Value::as_bool) == Some(true)
                && d.get("solution").map(Value::render).as_deref() == Some(expected.as_str())
        });
        out.check(hit, || format!("serve-mixed: repeat of {solver} was not the cached answer"));
        out.samples.push(Sample { class: Class::Hit, solver, cycle, start: t, end, wall_us: None });
    }
}

/// What the clients saw, and per round the factor that scales its
/// timings to the reference machine.
struct Traffic {
    outs: Vec<ClientOut>,
    factors: Vec<f64>,
    /// Normalized and raw duration (ms) of each timed round.
    rounds_ms: Vec<f64>,
    raw_rounds_ms: Vec<f64>,
}

impl Traffic {
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.outs.iter().flat_map(|o| &o.samples)
    }
}

/// Runs the clients in lock-step rounds of one cycle each: an untimed
/// warm-up round, then timed rounds for the budget. Between rounds,
/// with the daemon idle, the calibration kernel runs, so each round's
/// timings scale by the machine speed measured around it.
fn drive(
    addr: SocketAddr,
    clients: Vec<Vec<Owned>>,
    budget: Budget,
    calib: &mut Calibration,
) -> Traffic {
    let barrier = Barrier::new(clients.len() + 1);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|owned| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let mut conn = Conn { addr, client: None };
                    let mut out = ClientOut {
                        owned,
                        samples: Vec::new(),
                        patch_solve_ms: Vec::new(),
                        attempted: 0,
                        failures: Vec::new(),
                        conflicts: 0,
                        chain_solution: None,
                        chain_body: None,
                        bytes: [0; 3],
                        last_batch: Vec::new(),
                    };
                    for round in 0.. {
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        cycle(&mut conn, &mut out, round);
                        if round == 0 {
                            out.samples.clear();
                            out.patch_solve_ms.clear();
                        }
                        barrier.wait();
                    }
                    out
                })
            })
            .collect();
        let (mut factors, mut rounds_ms, mut raw_rounds_ms) = (Vec::new(), Vec::new(), Vec::new());
        calib.sample();
        for round in 0.. {
            if round > 0 && !budget.more(round - 1) {
                stop.store(true, Ordering::SeqCst);
                barrier.wait();
                break;
            }
            let t = Instant::now();
            barrier.wait();
            barrier.wait();
            let raw = stats::ms(t.elapsed());
            let normalized = calib.normalize(raw);
            factors.push(normalized / raw);
            if round > 0 {
                rounds_ms.push(normalized);
                raw_rounds_ms.push(raw);
            }
        }
        let outs = handles.into_iter().map(|h| h.join().expect("serve-mixed client")).collect();
        Traffic { outs, factors, rounds_ms, raw_rounds_ms }
    })
}

/// Folds client checks into the run.
fn absorb(run: &mut Run, outs: &[ClientOut]) {
    for out in outs {
        run.tally(out.attempted, &out.failures);
    }
}

/// Renders a solution without its timing, the one field that differs
/// between two runs of the same solve.
fn canonical(solution: &Value) -> String {
    let mut doc = solution.clone();
    if let Value::Obj(map) = &mut doc {
        map.remove("wall_micros");
    }
    doc.render()
}

/// The end-of-run check: the daemon holds exactly the graph client 0
/// thinks it patched, and its latest `chain` answer is byte-identical
/// to a direct registry solve of that graph. Returns the direct
/// solution's `|S|` over the graph's lower bound.
fn final_check(run: &mut Run, addr: SocketAddr, out: &ClientOut) -> f64 {
    let chain =
        out.owned.iter().find(|o| o.kind == Kind::Chain).expect("every client owns a chain");
    let g = chain.live.graph();
    let summary = http::request(addr, "GET", &format!("/graphs/{}", chain.name), b"", TIMEOUT)
        .ok()
        .and_then(|r| parse_body(&r));
    let want = format!("{:#018x}", lmds_graph::io::graph_checksum(g));
    run.check(
        summary.as_ref().and_then(|d| d.get("checksum")).and_then(Value::as_str) == Some(&want),
        || format!("serve-mixed: daemon's {} differs from the client's copy", chain.name),
    );
    let inst = Instance::sequential(chain.name.clone(), g.clone());
    let cfg = SolveConfig::mds().radii(Radii::practical(3, 4));
    let Ok(direct) = SolverRegistry::with_defaults().solve("mds/algorithm1", &inst, &cfg) else {
        run.check(false, || "serve-mixed: direct chain solve failed".into());
        return 0.0;
    };
    let direct_doc = render_solution(&SolutionView::from(&direct));
    let served = out.chain_solution.as_ref().map(canonical);
    run.check(served.as_deref() == Some(canonical(&direct_doc).as_str()), || {
        "serve-mixed: served chain solution differs from the direct registry solve".into()
    });
    direct.size() as f64 / lmds_graph::dominating::mds_lower_bound(g).max(1) as f64
}

pub fn measure(run: &mut Run, seconds: Duration) {
    let s = setup(run);
    run.e2e("setup_s", stats::median(&s.setup_s));
    let addr = s.server.addr();
    let traffic = drive(addr, s.clients, Budget::until(Instant::now() + seconds), &mut run.calib);
    absorb(run, &traffic.outs);
    // The unit of work is a round (every client runs its script once):
    // single requests range from a 0.2 ms cache hit to a 200 ms chain
    // solve, so their median sits on a class boundary and jumps.
    let requests = traffic.samples().count();
    run.note("serve_requests", Value::from(requests));
    run.note("serve_rounds", Value::from(traffic.rounds_ms.len()));
    run.note("raw_op_p50_ms", Value::from(stats::median(&traffic.raw_rounds_ms)));
    run.e2e("op_p50_ms", stats::median(&traffic.rounds_ms));
    run.e2e("ops_per_s", requests as f64 / (traffic.rounds_ms.iter().sum::<f64>() / 1e3));
    let ratio = final_check(run, addr, &traffic.outs[0]);
    run.e2e("size_ratio_lb", ratio);
    s.server.shutdown();
}

pub fn trace(run: &mut Run, tracer: &mut Tracer, budget: Budget, own: bool) {
    let s = setup(run);
    if own {
        run.layer_median("gen.instance_ms", &s.gen_ms);
    }
    let addr = s.server.addr();
    let calib = &mut run.calib;
    let traffic = tracer.span("serve.traffic", |tr| {
        let traffic = drive(addr, s.clients, budget, calib);
        for sample in traffic.samples().filter(|x| !own || x.cycle % 2 == 1) {
            let name = match sample.class {
                Class::Patch => "serve.patch".to_string(),
                Class::Cold => format!("serve.cold.{}", sample.solver),
                Class::Hit => "serve.hit".to_string(),
            };
            tr.record(&name, sample.start, sample.end);
        }
        traffic
    });
    let outs = &traffic.outs;
    absorb(run, outs);

    let of = |class: Class, pred: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        traffic.samples().filter(|x| x.class == class && pred(x)).map(Sample::ms).collect()
    };
    let all: Vec<f64> = traffic.samples().map(Sample::ms).collect();
    run.layer("serve.p50_ms", stats::median(&all));
    run.layer("serve.p99_ms", stats::quantile(&all, 0.99));
    run.layer_median("serve.hit_p50_ms", &of(Class::Hit, &|_| true));
    run.layer_median("serve.exact_p50_ms", &of(Class::Cold, &|x| x.solver.ends_with("/exact")));
    let patch_solve: Vec<f64> =
        outs.iter().flat_map(|o| o.patch_solve_ms.iter().copied()).collect();
    run.layer_median("serve.patch_solve_p50_ms", &patch_solve);
    let waits: Vec<f64> = traffic
        .samples()
        .filter_map(|x| {
            x.wall_us.filter(|_| x.class == Class::Cold).map(|w| x.ms() - w as f64 / 1e3)
        })
        .collect();
    run.layer_median("serve.queue_wait_p50_ms", &waits);
    if own {
        // Odd rounds were recorded as spans, even ones were not; both
        // sides are scaled by their rounds' machine speed.
        let side = |parity: usize| -> Vec<f64> {
            traffic
                .samples()
                .filter(|x| x.cycle % 2 == parity)
                .map(|x| x.ms() * traffic.factors[x.cycle])
                .collect()
        };
        let (traced, plain) = (side(1), side(0));
        let pct = if traced.is_empty() || plain.is_empty() {
            0.0
        } else {
            (stats::median(&traced) / stats::median(&plain) - 1.0) * 100.0
        };
        run.layer("trace.overhead_pct", pct);
    }

    server_metrics(run, addr, outs);
    codec_and_patch(run, tracer, &outs[0]);
    final_check(run, addr, &outs[0]);
    s.server.shutdown();
}

/// Per-layer numbers the daemon reports about itself at `GET /metrics`.
fn server_metrics(run: &mut Run, addr: SocketAddr, outs: &[ClientOut]) {
    let doc =
        http::request(addr, "GET", "/metrics", b"", TIMEOUT).ok().and_then(|r| parse_body(&r));
    run.check(doc.is_some(), || "serve-mixed: GET /metrics failed".into());
    let doc = doc.unwrap_or(Value::Null);
    let counter = |key: &str| doc.get(key).and_then(Value::as_u64).unwrap_or(0) as f64;
    for solver in ["mds/algorithm1", "mds/exact", "mvc/exact"] {
        let p50 = doc
            .get("solvers")
            .and_then(|s| s.get(solver))
            .and_then(|s| s.get("latency"))
            .and_then(|l| l.get("p50_micros"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        run.layer(&format!("serve.solver_p50_us.{}", solver.replace('/', "-")), p50 as f64);
    }
    let (hits, misses) = (counter("cache_hits"), counter("cache_misses"));
    run.layer("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    run.layer("serve.graphs_patched", counter("graphs_patched"));
    run.layer("serve.components_reused", counter("components_reused"));
    let conflicts: u64 = outs.iter().map(|o| o.conflicts).sum();
    run.layer(
        "serve.rejected",
        counter("rejected_queue_full")
            + counter("rejected_connection_cap")
            + counter("rejected_shutting_down")
            + conflicts as f64,
    );
    for kind in Kind::ALL {
        let bytes = outs[0].bytes[kind as usize];
        run.layer(&format!("serve.response_bytes.{}", kind.name()), bytes as f64);
    }
}

/// Times the wire codec on a recorded `chain` response and the graph
/// layer's batch apply on a copy of the live graph.
fn codec_and_patch(run: &mut Run, tracer: &mut Tracer, out: &ClientOut) {
    const REPEATS: usize = 31;
    let body = out.chain_body.clone().unwrap_or_default();
    let mut parse_us = Vec::new();
    let mut parsed = None;
    for _ in 0..REPEATS {
        let t = Instant::now();
        parsed = json::parse(&body).ok();
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    run.layer_median("serve.json_parse_us", &parse_us);
    let view = parsed.as_ref().and_then(|d| d.get("solution")).and_then(|s| parse_solution(s).ok());
    run.check(view.is_some(), || "serve-mixed: recorded chain response does not parse".into());
    let mut render_us = Vec::new();
    if let Some(view) = &view {
        for _ in 0..REPEATS {
            let t = Instant::now();
            std::hint::black_box(render_solution(view).render());
            render_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    run.layer_median("serve.render_us", &render_us);

    let chain =
        out.owned.iter().find(|o| o.kind == Kind::Chain).expect("every client owns a chain");
    // The last patch reversed, so every op changes the live copy.
    let batch: Vec<GraphUpdate> = out
        .last_batch
        .iter()
        .map(|op| match *op {
            GraphUpdate::InsertEdge(u, v) => GraphUpdate::RemoveEdge(u, v),
            GraphUpdate::RemoveEdge(u, v) => GraphUpdate::InsertEdge(u, v),
            GraphUpdate::AddVertex => GraphUpdate::AddVertex,
        })
        .collect();
    let mut apply_us = Vec::new();
    for _ in 0..REPEATS {
        let mut copy = chain.live.clone();
        let batch = &batch;
        let t = Instant::now();
        let applied = tracer.span("graph.dynamic_apply", |_| copy.apply(batch));
        apply_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(applied.is_ok());
    }
    run.layer_median("graph.dynamic_apply_us", &apply_us);
}
