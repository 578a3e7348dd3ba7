//! End-to-end daemon tests: an in-process server on an ephemeral port,
//! exercised through the real HTTP client.
//!
//! The load-bearing property is *serving equivalence*: a solution
//! obtained over HTTP must be byte-identical (modulo wall-clock timing)
//! to the one obtained by calling the registry directly on the same
//! instance and config.

use lmds_api::{
    ExecutionMode, Instance, Problem, Solution, SolutionView, SolveConfig, SolveError, Solver,
    SolverDescriptor, SolverRegistry,
};
use lmds_graph::io::{to_edge_list, to_snapshot};
use lmds_graph::Graph;
use lmds_serve::http::{
    request, request_with_retry, ClientResponse, KeepAliveClient, RetryPolicy, MAX_BODY_BYTES,
};
use lmds_serve::json::Value;
use lmds_serve::proto::render_solution;
use lmds_serve::server::{ServeConfig, Server, ServerHandle};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const T: Duration = Duration::from_secs(30);

fn send(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> ClientResponse {
    // The retrying client deflakes the startup race: the first probe
    // can land before the daemon's listener is accepting, and a
    // connection-cap 503 (with its Retry-After) is backed off rather
    // than failed.
    request_with_retry(addr, method, path, body, T, RetryPolicy::default())
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"))
}

fn spawn_default() -> ServerHandle {
    Server::spawn(ServeConfig::default()).expect("server starts")
}

/// The corpus graph used throughout: an outerplanar (hence
/// K4-minor-free) instance from the generator family.
fn corpus_graph() -> Graph {
    lmds_gen::random_outerplanar(40, 60, 7)
}

/// Renders a solution the way the server does, with timing removed —
/// the only field that legitimately differs between two runs.
fn canonical(view: &SolutionView) -> String {
    let mut doc = render_solution(view);
    if let Value::Obj(map) = &mut doc {
        map.remove("wall_micros");
    }
    doc.render()
}

fn solution_from_response(doc: &Value) -> String {
    let mut solution = doc.get("solution").expect("response has a solution").clone();
    if let Value::Obj(map) = &mut solution {
        map.remove("wall_micros");
    }
    solution.render()
}

/// The three serving configs the equivalence tests sweep: a distributed
/// pipeline solver, and both exact reference solvers.
fn equivalence_cases() -> Vec<(&'static str, &'static str)> {
    vec![
        ("mds/algorithm1", r#"{"mode": "local-oracle"}"#),
        ("mds/exact", "{}"),
        ("mvc/exact", "{}"),
    ]
}

/// The same config, materialized for a direct registry call.
fn direct_config(solver: &str, registry: &SolverRegistry) -> SolveConfig {
    let problem = registry.get(solver).unwrap().descriptor().problem;
    let mut cfg = SolveConfig::new(problem);
    if solver == "mds/algorithm1" {
        cfg = cfg.mode(ExecutionMode::LOCAL_ORACLE);
    }
    cfg
}

#[test]
fn sync_solves_match_direct_registry_runs() {
    let handle = spawn_default();
    let addr = handle.addr();
    let graph = corpus_graph();

    let put = send(addr, "PUT", "/graphs/outer40", to_edge_list(&graph).as_bytes());
    assert_eq!(put.status, 201, "{}", String::from_utf8_lossy(&put.body));

    let registry = SolverRegistry::with_defaults();
    let instance = Instance::sequential("outer40", graph);
    for (solver, cfg_json) in equivalence_cases() {
        let body = format!(r#"{{"graph": "outer40", "solver": "{solver}", "config": {cfg_json}}}"#);
        let resp = send(addr, "POST", "/solve", body.as_bytes());
        assert_eq!(resp.status, 200, "{solver}: {}", String::from_utf8_lossy(&resp.body));
        let served = solution_from_response(&resp.json());

        let cfg = direct_config(solver, &registry);
        let direct = registry.solve(solver, &instance, &cfg).expect(solver);
        assert_eq!(
            served,
            canonical(&SolutionView::from(&direct)),
            "{solver}: served solution differs from the direct run"
        );
    }

    // The metrics saw every solve: per-solver counts and histograms.
    let metrics = send(addr, "GET", "/metrics", b"").json();
    assert_eq!(metrics.get("jobs_completed").unwrap().as_u64(), Some(3));
    let solvers = metrics.get("solvers").unwrap();
    for (solver, _) in equivalence_cases() {
        let m = solvers.get(solver).unwrap_or_else(|| panic!("metrics for {solver}"));
        assert_eq!(m.get("requests").unwrap().as_u64(), Some(1), "{solver}");
        assert_eq!(m.get("errors").unwrap().as_u64(), Some(0), "{solver}");
        let latency = m.get("latency").unwrap();
        assert_eq!(latency.get("count").unwrap().as_u64(), Some(1), "{solver}");
        assert!(latency.get("p50_micros").unwrap().as_u64().is_some(), "{solver}");
        assert!(latency.get("p99_micros").unwrap().as_u64().is_some(), "{solver}");
    }
    handle.shutdown();
}

/// Fault scenarios ride `POST /solve`: a `local-message-passing` config
/// with a fault-plan string runs the seeded fault injection server-side, the
/// response carries the replayed fault report, and identical requests
/// replay identical reports (the seed contract, observed end-to-end
/// over HTTP).
#[test]
fn fault_scenarios_ride_solve_and_replay_their_reports() {
    let handle = spawn_default();
    let addr = handle.addr();
    let put = send(addr, "PUT", "/graphs/outer40", to_edge_list(&corpus_graph()).as_bytes());
    assert_eq!(put.status, 201, "{}", String::from_utf8_lossy(&put.body));

    let solve = br#"{"graph": "outer40", "solver": "mds/theorem44",
        "config": {"mode": "local-message-passing", "fault": "seed=7;drop=bernoulli:100"}}"#;
    let resp = send(addr, "POST", "/solve", solve);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let doc = resp.json();
    let solution = doc.get("solution").expect("response has a solution");
    // The solution carries the fault report object.
    let fault = solution.get("fault").expect("fault runs report what the plan did");
    let dropped = fault.get("messages_dropped").unwrap().as_u64().expect("dropped count");
    assert!(dropped > 0, "a 10% drop plan on 40 vertices loses something");
    assert_eq!(fault.get("max_staleness").unwrap().as_u64(), Some(0), "no skew in this plan");

    // Identical request ⟹ identical replayed report and vertex set.
    let again = send(addr, "POST", "/solve", solve);
    assert_eq!(again.status, 200);
    assert_eq!(solution_from_response(&again.json()), solution_from_response(&doc));

    // A fault-free run omits the report entirely (null, not zeroes),
    // message passing included.
    let clean = send(
        addr,
        "POST",
        "/solve",
        br#"{"graph": "outer40", "solver": "mds/theorem44",
            "config": {"mode": "local-message-passing"}}"#,
    );
    assert_eq!(clean.status, 200);
    let clean_solution = clean.json().get("solution").unwrap().clone();
    assert!(
        matches!(clean_solution.get("fault"), None | Some(Value::Null)),
        "fault report leaked into a fault-free run"
    );

    // An active plan on the oracle is a 4xx, not a no-op.
    let mismatch = send(
        addr,
        "POST",
        "/solve",
        br#"{"graph": "outer40", "solver": "mds/theorem44",
            "config": {"mode": "local-oracle", "fault": "skew=2"}}"#,
    );
    assert_eq!(mismatch.status, 422, "{}", String::from_utf8_lossy(&mismatch.body));
    handle.shutdown();
}

/// A skew past the wire maximum is refused as a typed 422 before any
/// job runs (such a value once sized the message history and aborted
/// the daemon), and the next job completes.
#[test]
fn oversized_skew_is_a_typed_422_and_the_daemon_keeps_serving() {
    let handle = spawn_default();
    let addr = handle.addr();
    let put = send(addr, "PUT", "/graphs/outer40", to_edge_list(&corpus_graph()).as_bytes());
    assert_eq!(put.status, 201, "{}", String::from_utf8_lossy(&put.body));

    let huge = br#"{"graph": "outer40", "solver": "mds/theorem44",
        "config": {"mode": "local-message-passing", "fault": "seed=1;skew=4294967295"}}"#;
    let resp = send(addr, "POST", "/solve", huge);
    assert_eq!(resp.status, 422, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(resp.json().get("code").unwrap().as_str(), Some("invalid-config"));

    let next = br#"{"graph": "outer40", "solver": "mds/theorem44",
        "config": {"mode": "local-message-passing", "fault": "seed=1;skew=2"}}"#;
    let resp = send(addr, "POST", "/solve", next);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    handle.shutdown();
}

#[test]
fn async_jobs_match_direct_registry_runs() {
    let handle = spawn_default();
    let addr = handle.addr();
    let graph = corpus_graph();
    send(addr, "PUT", "/graphs/outer40", to_edge_list(&graph).as_bytes());

    let registry = SolverRegistry::with_defaults();
    let instance = Instance::sequential("outer40", graph);
    for (solver, cfg_json) in equivalence_cases() {
        let body = format!(r#"{{"graph": "outer40", "solver": "{solver}", "config": {cfg_json}}}"#);
        let accepted = send(addr, "POST", "/jobs", body.as_bytes());
        assert_eq!(accepted.status, 202, "{}", String::from_utf8_lossy(&accepted.body));
        let id = accepted.json().get("job_id").unwrap().as_u64().unwrap();

        let mut served = None;
        for _ in 0..500 {
            let poll = send(addr, "GET", &format!("/jobs/{id}"), b"");
            assert_eq!(poll.status, 200);
            let doc = poll.json();
            match doc.get("status").unwrap().as_str().unwrap() {
                "done" => {
                    served = Some(solution_from_response(&doc));
                    break;
                }
                "failed" => panic!("{solver}: {}", String::from_utf8_lossy(&poll.body)),
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        let served = served.unwrap_or_else(|| panic!("{solver}: job never finished"));

        let cfg = direct_config(solver, &registry);
        let direct = registry.solve(solver, &instance, &cfg).expect(solver);
        assert_eq!(served, canonical(&SolutionView::from(&direct)), "{solver}");
    }
    handle.shutdown();
}

#[test]
fn both_upload_formats_agree() {
    let handle = spawn_default();
    let addr = handle.addr();
    let graph = corpus_graph();

    let text = send(addr, "PUT", "/graphs/as-text", to_edge_list(&graph).as_bytes());
    let snap = send(addr, "PUT", "/graphs/as-snapshot", &to_snapshot(&graph).unwrap());
    assert_eq!((text.status, snap.status), (201, 201));
    let (a, b) = (text.json(), snap.json());
    assert_eq!(a.get("n").unwrap().as_u64(), b.get("n").unwrap().as_u64());
    assert_eq!(
        a.get("checksum").unwrap().as_str(),
        b.get("checksum").unwrap().as_str(),
        "same graph through either format has the same checksum"
    );

    let listing = send(addr, "GET", "/graphs", b"").json();
    assert_eq!(listing.get("graphs").unwrap().as_arr().unwrap().len(), 2);
    let one = send(addr, "GET", "/graphs/as-text", b"");
    assert_eq!(one.status, 200);
    handle.shutdown();
}

/// Regression test for the scale-path overflow fix: a snapshot whose
/// header declares an absurd edge count must be rejected by the typed
/// snapshot validator *before* any allocation, and that rejection must
/// surface through PUT /graphs as a 422 — not as a panic, a wrapped
/// length equation that accidentally matches, or an OOM attempt.
#[test]
fn forged_snapshot_header_is_rejected_through_put() {
    let handle = spawn_default();
    let addr = handle.addr();
    let mut snap = to_snapshot(&corpus_graph()).unwrap();

    // Forge m := u64::MAX at header offset 20. With unchecked u64
    // arithmetic the arc count 2m wraps, so the length equation could
    // be made to pass; the checked path reports the overflow instead.
    snap[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
    let resp = send(addr, "PUT", "/graphs/forged-m", &snap);
    assert_eq!(resp.status, 422, "{}", String::from_utf8_lossy(&resp.body));
    let err = resp.json();
    assert_eq!(err.get("code").unwrap().as_str(), Some("invalid-graph"));
    let message = err.get("message").unwrap().as_str().unwrap().to_string();
    assert!(
        message.contains("invalid graph snapshot"),
        "typed GraphError::Snapshot must reach the wire: {message}"
    );

    // Forge m := 2^61 - 1: the arc count still fits u64, but the byte
    // length 8·(n+1) + 8m + header overflows — also a checked reject.
    let mut snap = to_snapshot(&corpus_graph()).unwrap();
    snap[20..28].copy_from_slice(&((1u64 << 61) - 1).to_le_bytes());
    let resp = send(addr, "PUT", "/graphs/forged-m2", &snap);
    assert_eq!(resp.status, 422, "{}", String::from_utf8_lossy(&resp.body));
    let err = resp.json();
    assert!(err.get("message").unwrap().as_str().unwrap().contains("invalid graph snapshot"));

    // Forge n := u32::MAX + 1: over the u32-compact row capacity.
    let mut snap = to_snapshot(&corpus_graph()).unwrap();
    snap[12..20].copy_from_slice(&(u32::MAX as u64 + 1).to_le_bytes());
    let resp = send(addr, "PUT", "/graphs/forged-n", &snap);
    assert_eq!(resp.status, 422, "{}", String::from_utf8_lossy(&resp.body));

    // Nothing forged was admitted to the corpus.
    let listing = send(addr, "GET", "/graphs", b"").json();
    assert_eq!(listing.get("graphs").unwrap().as_arr().unwrap().len(), 0);
    handle.shutdown();
}

#[test]
fn solver_catalog_comes_from_the_registry() {
    let handle = spawn_default();
    let addr = handle.addr();
    let catalog = send(addr, "GET", "/solvers", b"").json();
    let listed = catalog.get("solvers").unwrap().as_arr().unwrap();
    let descriptors = SolverRegistry::with_defaults().descriptors();
    assert_eq!(listed.len(), descriptors.len(), "GET /solvers mirrors descriptors()");
    for (entry, d) in listed.iter().zip(&descriptors) {
        let text = |field: &str| entry.get(field).unwrap().as_str().unwrap().to_string();
        assert_eq!(text("key"), d.key);
        assert_eq!(text("name"), d.name, "{}", d.key);
        assert_eq!(text("problem"), d.problem.to_string().to_ascii_lowercase(), "{}", d.key);
        assert_eq!(text("paper_ref"), d.paper_ref, "{}", d.key);
        let modes: Vec<&str> = entry
            .get("modes")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| m.as_str().unwrap())
            .collect();
        let expected: Vec<String> = d.modes.iter().map(|m| m.to_string()).collect();
        assert_eq!(modes, expected, "{}", d.key);
    }
    handle.shutdown();
}

#[test]
fn error_envelopes_are_typed_and_carry_valid_keys() {
    let handle = spawn_default();
    let addr = handle.addr();
    send(addr, "PUT", "/graphs/known", b"3 2\n0 1\n1 2\n");

    let assert_envelope = |resp: &ClientResponse, status: u16, code: &str| -> Value {
        assert_eq!(resp.status, status, "{}", String::from_utf8_lossy(&resp.body));
        let doc = resp.json();
        assert_eq!(doc.get("code").unwrap().as_str(), Some(code));
        assert!(doc.get("message").unwrap().as_str().is_some(), "message is text");
        doc
    };

    // Unknown solver: 404 + every registry key.
    let resp = send(addr, "POST", "/solve", br#"{"graph": "known", "solver": "mds/nope"}"#);
    let doc = assert_envelope(&resp, 404, "unknown-solver");
    let keys: Vec<&str> = doc
        .get("valid_keys")
        .expect("unknown-solver lists alternatives")
        .as_arr()
        .unwrap()
        .iter()
        .map(|k| k.as_str().unwrap())
        .collect();
    assert_eq!(keys, SolverRegistry::with_defaults().keys());

    // Unknown graph: 404 + the stored names.
    let resp = send(addr, "POST", "/jobs", br#"{"graph": "ghost", "solver": "mds/exact"}"#);
    let doc = assert_envelope(&resp, 404, "unknown-graph");
    let names: Vec<&str> = doc
        .get("valid_keys")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|k| k.as_str().unwrap())
        .collect();
    assert_eq!(names, ["known"]);

    // Malformed JSON and config typos: 400 naming the problem.
    assert_envelope(&send(addr, "POST", "/solve", b"{invalid"), 400, "bad-request");
    let resp = send(
        addr,
        "POST",
        "/solve",
        br#"{"graph": "known", "solver": "mds/exact", "config": {"mdoe": "x"}}"#,
    );
    let doc = assert_envelope(&resp, 400, "bad-request");
    assert!(doc.get("message").unwrap().as_str().unwrap().contains("mdoe"));
    // The engine picks its own kernel, so a backend choice is an
    // unknown field like any typo.
    let resp = send(
        addr,
        "POST",
        "/solve",
        br#"{"graph": "known", "solver": "mds/exact", "config": {"exact_backend": "treewidth"}}"#,
    );
    let doc = assert_envelope(&resp, 400, "bad-request");
    assert!(doc.get("message").unwrap().as_str().unwrap().contains("exact_backend"));

    // Semantically invalid config: 422.
    let resp = send(
        addr,
        "POST",
        "/solve",
        br#"{"graph": "known", "solver": "mds/exact", "config": {"radii": [0, 1]}}"#,
    );
    assert_envelope(&resp, 422, "invalid-config");

    // A config the solver rejects (exact solvers are centralized-only)
    // surfaces the SolveError taxonomy as 422 on the sync path.
    let resp = send(
        addr,
        "POST",
        "/solve",
        br#"{"graph": "known", "solver": "mds/exact", "config": {"mode": "local-oracle"}}"#,
    );
    assert_envelope(&resp, 422, "unsupported-config");

    // Bad uploads: 422 for garbage bodies, 400 for bad names.
    assert_envelope(&send(addr, "PUT", "/graphs/bad", b"not a graph"), 422, "invalid-graph");
    assert_envelope(&send(addr, "PUT", "/graphs/.dot", b"1 0\n"), 400, "bad-request");

    // Unknown job and unknown route.
    assert_envelope(&send(addr, "GET", "/jobs/999", b""), 404, "unknown-job");
    assert_envelope(&send(addr, "GET", "/jobs/xyz", b""), 400, "bad-request");
    assert_envelope(&send(addr, "GET", "/nope", b""), 404, "not-found");
    assert_envelope(&send(addr, "DELETE", "/graphs/known", b""), 405, "method-not-allowed");
    handle.shutdown();
}

/// The PATCH + re-solve flow end to end: a two-component graph is
/// solved, patched in one component, and solved again. The second
/// solve must miss the result cache (new checksum) and match a
/// from-scratch registry run on the patched graph.
#[test]
fn patch_updates_a_graph_and_the_next_solve_is_exact() {
    let handle = spawn_default();
    let addr = handle.addr();
    // Two path components: {0..4} and {5..9}.
    let put = send(addr, "PUT", "/graphs/two", b"10 8\n0 1\n1 2\n2 3\n3 4\n5 6\n6 7\n7 8\n8 9\n");
    assert_eq!(put.status, 201);
    let old_checksum = put.json().get("checksum").unwrap().as_str().unwrap().to_string();

    let solve = br#"{"graph": "two", "solver": "mds/algorithm1"}"# as &[u8];
    let first = send(addr, "POST", "/solve", solve);
    assert_eq!(first.status, 200, "{}", String::from_utf8_lossy(&first.body));

    // Patch: drop an edge inside the first component, splitting it.
    let patch =
        send(addr, "PATCH", "/graphs/two", br#"{"updates": [{"op": "delete", "u": 2, "v": 3}]}"#);
    assert_eq!(patch.status, 200, "{}", String::from_utf8_lossy(&patch.body));
    let doc = patch.json();
    assert_ne!(
        doc.get("checksum").unwrap().as_str().unwrap(),
        old_checksum,
        "a content change must change the checksum"
    );
    let applied = doc.get("applied").unwrap();
    assert_eq!(applied.get("removed").unwrap().as_u64(), Some(1));
    assert_eq!(applied.get("inserted").unwrap().as_u64(), Some(0));

    // Re-solve: a fresh result (new checksum ⟹ result-cache miss) that
    // matches a from-scratch registry run on the patched graph.
    let second = send(addr, "POST", "/solve", solve);
    assert_eq!(second.status, 200, "{}", String::from_utf8_lossy(&second.body));
    assert!(second.json().get("cached").is_none(), "patched content must miss the result cache");
    let served = solution_from_response(&second.json());
    let patched_graph = lmds_graph::Graph::from_edges(
        10,
        &[(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9)],
    );
    let registry = SolverRegistry::with_defaults();
    let direct = registry
        .solve("mds/algorithm1", &Instance::sequential("two", patched_graph), &SolveConfig::mds())
        .unwrap();
    assert_eq!(served, canonical(&SolutionView::from(&direct)), "patched solve must be exact");

    // The patch counter moved.
    let metrics = send(addr, "GET", "/metrics", b"").json();
    assert_eq!(metrics.get("graphs_patched").unwrap().as_u64(), Some(1));

    // A ratio-measuring solve of the patched graph answers 200 with the
    // ratio attached.
    let ratio =
        br#"{"graph": "two", "solver": "mds/algorithm1", "config": {"measure_ratio": true}}"#;
    let resp = send(addr, "POST", "/solve", ratio);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert!(resp.json().get("solution").unwrap().get("ratio").unwrap().as_f64().is_some());

    // Typed rejections: malformed batch (400), out-of-range endpoint
    // (422), unknown graph (404).
    let bad = send(addr, "PATCH", "/graphs/two", br#"{"updates": [{"op": "explode"}]}"#);
    assert_eq!(bad.status, 400);
    assert_eq!(bad.json().get("code").unwrap().as_str(), Some("bad-request"));
    let oob =
        send(addr, "PATCH", "/graphs/two", br#"{"updates": [{"op": "insert", "u": 0, "v": 99}]}"#);
    assert_eq!(oob.status, 422);
    assert_eq!(oob.json().get("code").unwrap().as_str(), Some("invalid-graph"));
    let ghost = send(addr, "PATCH", "/graphs/ghost", br#"{"updates": [{"op": "add_vertex"}]}"#);
    assert_eq!(ghost.status, 404);
    assert_eq!(ghost.json().get("code").unwrap().as_str(), Some("unknown-graph"));
    handle.shutdown();
}

/// A graph with in-flight work refuses a PATCH with the typed 409
/// envelope, and accepts it once the work drains.
#[test]
fn patch_on_a_busy_graph_is_a_typed_409() {
    let handle = Server::spawn(sleepy_config(Duration::from_millis(400))).unwrap();
    let addr = handle.addr();
    send(addr, "PUT", "/graphs/busy", b"4 3\n0 1\n1 2\n2 3\n");
    send(addr, "PUT", "/graphs/idle", b"4 3\n0 1\n1 2\n2 3\n");

    let job = send(addr, "POST", "/jobs", br#"{"graph": "busy", "solver": "mds/sleepy"}"#);
    assert_eq!(job.status, 202);
    let id = job.json().get("job_id").unwrap().as_u64().unwrap();
    wait_until_running(addr, id);

    let batch = br#"{"updates": [{"op": "delete", "u": 1, "v": 2}]}"# as &[u8];
    let refused = send(addr, "PATCH", "/graphs/busy", batch);
    assert_eq!(refused.status, 409, "{}", String::from_utf8_lossy(&refused.body));
    let doc = refused.json();
    assert_eq!(doc.get("code").unwrap().as_str(), Some("graph-busy"));
    assert!(doc.get("message").unwrap().as_str().unwrap().contains("busy"));

    // A different graph is not blocked by the busy one.
    assert_eq!(send(addr, "PATCH", "/graphs/idle", batch).status, 200);

    // Once the job drains, the same PATCH goes through.
    for _ in 0..1000 {
        let poll = send(addr, "GET", &format!("/jobs/{id}"), b"").json();
        if poll.get("status").unwrap().as_str() == Some("done") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(send(addr, "PATCH", "/graphs/busy", batch).status, 200);
    handle.shutdown();
}

/// A solver that holds its worker for a controlled duration, then
/// delegates to the exact MDS solver — the tool for backpressure,
/// timeout, and mid-solve shutdown tests.
struct SleepySolver {
    delay: Duration,
    inner: Arc<dyn Solver>,
}

const SLEEPY: SolverDescriptor = SolverDescriptor {
    key: "mds/sleepy",
    name: "deliberately slow exact MDS",
    problem: Problem::MinDominatingSet,
    paper_ref: "test fixture",
    modes: &[ExecutionMode::Centralized],
};

impl Solver for SleepySolver {
    fn descriptor(&self) -> &SolverDescriptor {
        &SLEEPY
    }
    fn solve(&self, inst: &Instance, cfg: &SolveConfig) -> Result<Solution, SolveError> {
        std::thread::sleep(self.delay);
        self.inner.solve(inst, cfg)
    }
}

fn sleepy_config(delay: Duration) -> ServeConfig {
    let mut registry = SolverRegistry::with_defaults();
    let inner = registry.get("mds/exact").unwrap();
    registry.register(Arc::new(SleepySolver { delay, inner }));
    ServeConfig { workers: 1, queue_capacity: 1, registry, ..ServeConfig::default() }
}

fn wait_until_running(addr: SocketAddr, id: u64) {
    for _ in 0..1000 {
        let doc = send(addr, "GET", &format!("/jobs/{id}"), b"").json();
        if doc.get("status").unwrap().as_str() != Some("queued") {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("job {id} never left the queue");
}

#[test]
fn backpressure_timeout_and_queue_expiry() {
    let handle = Server::spawn(sleepy_config(Duration::from_millis(600))).unwrap();
    let addr = handle.addr();
    send(addr, "PUT", "/graphs/g", b"4 3\n0 1\n1 2\n2 3\n");
    let job = br#"{"graph": "g", "solver": "mds/sleepy"}"# as &[u8];

    // Occupy the single worker, leaving the queue empty.
    let first = send(addr, "POST", "/jobs", job);
    assert_eq!(first.status, 202);
    let first_id = first.json().get("job_id").unwrap().as_u64().unwrap();
    wait_until_running(addr, first_id);

    // A sync solve now queues behind it; its 40 ms budget elapses while
    // the worker is busy, so the reply is 504 — but carries the job id,
    // and the job stays pollable.
    let timed_out = send(
        addr,
        "POST",
        "/solve",
        br#"{"graph": "g", "solver": "mds/sleepy", "timeout_ms": 40}"#,
    );
    assert_eq!(timed_out.status, 504, "{}", String::from_utf8_lossy(&timed_out.body));
    let doc = timed_out.json();
    assert_eq!(doc.get("code").unwrap().as_str(), Some("timeout"));
    let stuck_id = doc.get("job_id").unwrap().as_u64().unwrap();

    // The queue (capacity 1) still holds the timed-out job: 429.
    let rejected = send(addr, "POST", "/jobs", job);
    assert_eq!(rejected.status, 429, "{}", String::from_utf8_lossy(&rejected.body));
    assert_eq!(rejected.json().get("code").unwrap().as_str(), Some("queue-full"));

    // Drain: the first job completes; the expired one is failed as a
    // timeout *without running* (its deadline passed in the queue).
    for _ in 0..2000 {
        let state = send(addr, "GET", &format!("/jobs/{stuck_id}"), b"").json();
        if state.get("status").unwrap().as_str() == Some("failed") {
            let err = state.get("error").unwrap();
            assert_eq!(err.get("code").unwrap().as_str(), Some("timeout"));
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let first_state = send(addr, "GET", &format!("/jobs/{first_id}"), b"").json();
    assert_eq!(first_state.get("status").unwrap().as_str(), Some("done"));

    let metrics = send(addr, "GET", "/metrics", b"").json();
    assert!(metrics.get("rejected_queue_full").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(metrics.get("queue_capacity").unwrap().as_u64(), Some(1));
    handle.shutdown();
}

#[test]
fn keep_alive_responses_are_byte_equal_to_one_shot_responses() {
    let handle = spawn_default();
    let addr = handle.addr();
    send(addr, "PUT", "/graphs/p6", b"6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n");
    let solve = br#"{"graph": "p6", "solver": "mds/exact"}"# as &[u8];

    // Prime the cache so every request below is answered from it —
    // making the responses deterministic down to `wall_micros`.
    assert_eq!(send(addr, "POST", "/solve", solve).status, 200);

    let mut client = KeepAliveClient::connect(addr, T).expect("keep-alive connect");
    let mut ka_bodies = Vec::new();
    for _ in 0..3 {
        let resp = client.send("POST", "/solve", solve).expect("keep-alive solve");
        assert_eq!(resp.status, 200);
        ka_bodies.push(resp.body);
    }
    assert!(client.is_open(), "the server kept the connection open");
    assert_eq!(client.requests_sent(), 3);
    // Mixed endpoints ride the same socket.
    assert_eq!(client.send("GET", "/healthz", b"").unwrap().status, 200);
    drop(client);

    for ka in &ka_bodies {
        let one_shot = send(addr, "POST", "/solve", solve);
        assert_eq!(one_shot.status, 200);
        assert_eq!(one_shot.body, *ka, "one-shot and keep-alive answers must be byte-identical");
    }

    // Exactly one connection served all three keep-alive solves.
    let metrics = send(addr, "GET", "/metrics", b"").json();
    assert!(metrics.get("cache_hits").unwrap().as_u64().unwrap() >= 6);
    handle.shutdown();
}

#[test]
fn per_connection_request_budget_closes_the_socket() {
    let config = ServeConfig { max_requests_per_conn: 2, ..ServeConfig::default() };
    let handle = Server::spawn(config).unwrap();
    let mut client = KeepAliveClient::connect(handle.addr(), T).unwrap();
    assert_eq!(client.send("GET", "/healthz", b"").unwrap().status, 200);
    assert!(client.is_open(), "first request leaves budget");
    assert_eq!(client.send("GET", "/healthz", b"").unwrap().status, 200);
    assert!(!client.is_open(), "the budget request carries Connection: close");
    assert!(client.send("GET", "/healthz", b"").is_err(), "reuse after close is refused");
    handle.shutdown();
}

#[test]
fn result_cache_hits_misses_and_survives_a_restart() {
    let dir = std::env::temp_dir().join(format!("lmds-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let graph = b"6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n" as &[u8];
    let solve = br#"{"graph": "g", "solver": "mds/exact"}"# as &[u8];
    let cold_solution;
    {
        let config = ServeConfig { persist_dir: Some(dir.clone()), ..ServeConfig::default() };
        let handle = Server::spawn(config).unwrap();
        let addr = handle.addr();
        send(addr, "PUT", "/graphs/g", graph);

        // Cold: a real solve, with a job id.
        let cold = send(addr, "POST", "/solve", solve);
        assert_eq!(cold.status, 200);
        let cold_doc = cold.json();
        assert!(cold_doc.get("job_id").is_some(), "cold solve runs through the queue");
        assert!(cold_doc.get("cached").is_none());
        cold_solution = cold_doc.get("solution").unwrap().render();

        // Warm: answered from the cache, byte-identical solution,
        // no job id (the queue was never touched).
        let warm = send(addr, "POST", "/solve", solve);
        assert_eq!(warm.status, 200);
        let warm_doc = warm.json();
        assert_eq!(warm_doc.get("cached").and_then(Value::as_bool), Some(true));
        assert!(warm_doc.get("job_id").is_none());
        assert_eq!(warm_doc.get("solution").unwrap().render(), cold_solution);

        // A different effective config is a different cache key.
        let other = send(
            addr,
            "POST",
            "/solve",
            br#"{"graph": "g", "solver": "mds/exact", "config": {"opt_budget": 123456}}"#,
        );
        assert_eq!(other.status, 200);
        assert!(other.json().get("cached").is_none(), "distinct config misses");

        let metrics = send(addr, "GET", "/metrics", b"").json();
        assert_eq!(metrics.get("cache_hits").unwrap().as_u64(), Some(1));
        assert_eq!(metrics.get("cache_misses").unwrap().as_u64(), Some(2));
        assert_eq!(metrics.get("cache_entries").unwrap().as_u64(), Some(2));
        assert!(metrics.get("cache_bytes").unwrap().as_u64().unwrap() > 0);
        handle.shutdown();
    }

    // A restarted daemon reloads the persisted cache: the very first
    // solve is already warm.
    let config = ServeConfig { persist_dir: Some(dir.clone()), ..ServeConfig::default() };
    let handle = Server::spawn(config).unwrap();
    let addr = handle.addr();
    let warm = send(addr, "POST", "/solve", solve);
    assert_eq!(warm.status, 200);
    let doc = warm.json();
    assert_eq!(doc.get("cached").and_then(Value::as_bool), Some(true), "restart starts warm");
    assert_eq!(doc.get("solution").unwrap().render(), cold_solution);
    let metrics = send(addr, "GET", "/metrics", b"").json();
    assert_eq!(metrics.get("cache_misses").unwrap().as_u64(), Some(0));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The result cache is keyed by content: a PATCH or PUT that replaces
/// the last stored copy of some content drops that content's entries,
/// while content another name still holds keeps its hits.
#[test]
fn replaced_content_leaves_the_result_cache_unless_another_name_holds_it() {
    let handle = spawn_default();
    let addr = handle.addr();
    let entries = || {
        let metrics = send(addr, "GET", "/metrics", b"").json();
        metrics.get("cache_entries").unwrap().as_u64().unwrap()
    };
    let cached = |name: &str| {
        let body = format!(r#"{{"graph": "{name}", "solver": "mds/exact"}}"#);
        let resp = send(addr, "POST", "/solve", body.as_bytes());
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        resp.json().get("cached").and_then(Value::as_bool) == Some(true)
    };
    let path = b"6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n" as &[u8];
    let split = br#"{"updates": [{"op": "delete", "u": 2, "v": 3}]}"# as &[u8];

    // Patching a solved graph drops its entry.
    assert_eq!(send(addr, "PUT", "/graphs/a", path).status, 201);
    assert!(!cached("a") && cached("a"));
    assert_eq!(entries(), 1);
    assert_eq!(send(addr, "PATCH", "/graphs/a", split).status, 200);
    assert_eq!(entries(), 0, "no stored graph holds the solved content");

    // Two names, one content: patching one keeps the other's hits.
    assert_eq!(send(addr, "PUT", "/graphs/b", path).status, 201);
    assert_eq!(send(addr, "PUT", "/graphs/c", path).status, 201);
    assert!(!cached("b") && cached("c"), "the cache is keyed by content, not name");
    assert_eq!(send(addr, "PATCH", "/graphs/b", split).status, 200);
    assert_eq!(entries(), 1);
    assert!(cached("c"), "c still holds the solved content");

    // Re-uploading the same content retires nothing; replacing the last
    // copy with other content does.
    assert_eq!(send(addr, "PUT", "/graphs/c", path).status, 201);
    assert!(cached("c"));
    assert_eq!(send(addr, "PUT", "/graphs/c", b"3 2\n0 1\n1 2\n").status, 201);
    assert_eq!(entries(), 0);
    handle.shutdown();
}

#[test]
fn connection_cap_turns_extra_connections_away_with_retry_after() {
    let config = ServeConfig {
        max_connections: 2,
        keep_alive_timeout: Duration::from_millis(400),
        ..ServeConfig::default()
    };
    let handle = Server::spawn(config).unwrap();
    let addr = handle.addr();

    // Two keep-alive clients hold both slots (a completed round-trip
    // proves the server accepted each connection).
    let mut a = KeepAliveClient::connect(addr, T).unwrap();
    assert_eq!(a.send("GET", "/healthz", b"").unwrap().status, 200);
    let mut b = KeepAliveClient::connect(addr, T).unwrap();
    assert_eq!(b.send("GET", "/healthz", b"").unwrap().status, 200);

    // The third connection is turned away at the door. The one-shot
    // (non-retrying) client is deliberate: `send` would back off on the
    // Retry-After and spin until the budget ran out.
    let refused = request(addr, "GET", "/healthz", b"", T).expect("503 is a real response");
    assert_eq!(refused.status, 503, "{}", String::from_utf8_lossy(&refused.body));
    assert_eq!(refused.json().get("code").unwrap().as_str(), Some("over-capacity"));
    assert_eq!(refused.header("retry-after"), Some("1"), "503 carries Retry-After");

    // Freeing a slot lets a retry through.
    drop(a);
    drop(b);
    let mut accepted = false;
    for _ in 0..400 {
        if let Ok(resp) = request(addr, "GET", "/healthz", b"", T) {
            if resp.status == 200 {
                accepted = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(accepted, "a freed slot admits the retry");

    let metrics = send(addr, "GET", "/metrics", b"").json();
    assert!(metrics.get("rejected_connection_cap").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(metrics.get("connection_cap").unwrap().as_u64(), Some(2));
    handle.shutdown();
}

#[test]
fn reaped_jobs_answer_410_and_unknown_ids_answer_404() {
    let config = ServeConfig {
        job_retention: Duration::from_millis(50),
        gc_interval: Duration::from_millis(10),
        ..ServeConfig::default()
    };
    let handle = Server::spawn(config).unwrap();
    let addr = handle.addr();
    send(addr, "PUT", "/graphs/g", b"4 3\n0 1\n1 2\n2 3\n");

    let job = send(addr, "POST", "/jobs", br#"{"graph": "g", "solver": "mds/exact"}"#);
    assert_eq!(job.status, 202);
    let id = job.json().get("job_id").unwrap().as_u64().unwrap();
    for _ in 0..500 {
        let poll = send(addr, "GET", &format!("/jobs/{id}"), b"");
        if poll.status == 200 && poll.json().get("status").unwrap().as_str() == Some("done") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // Past the retention window the reaper sweeps it: 410, not 404.
    let mut gone = None;
    for _ in 0..500 {
        let poll = send(addr, "GET", &format!("/jobs/{id}"), b"");
        if poll.status != 200 {
            gone = Some(poll);
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let gone = gone.expect("the terminal job was eventually reaped");
    assert_eq!(gone.status, 410, "{}", String::from_utf8_lossy(&gone.body));
    assert_eq!(gone.json().get("code").unwrap().as_str(), Some("job-expired"));

    // An id that was never issued stays a plain 404.
    let never = send(addr, "GET", &format!("/jobs/{}", id + 1000), b"");
    assert_eq!(never.status, 404);
    assert_eq!(never.json().get("code").unwrap().as_str(), Some("unknown-job"));

    let metrics = send(addr, "GET", "/metrics", b"").json();
    assert!(metrics.get("jobs_reaped").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(metrics.get("jobs_tracked").unwrap().as_u64(), Some(0));
    handle.shutdown();
}

#[test]
fn sync_timeout_counts_deadline_exceeded_and_the_job_still_finishes() {
    let handle = Server::spawn(sleepy_config(Duration::from_millis(300))).unwrap();
    let addr = handle.addr();
    send(addr, "PUT", "/graphs/g", b"4 3\n0 1\n1 2\n2 3\n");

    // The worker picks the job up immediately, but the 40 ms sync wait
    // elapses mid-solve: 504 with the job id.
    let timed_out = send(
        addr,
        "POST",
        "/solve",
        br#"{"graph": "g", "solver": "mds/sleepy", "timeout_ms": 40}"#,
    );
    assert_eq!(timed_out.status, 504, "{}", String::from_utf8_lossy(&timed_out.body));
    let id = timed_out.json().get("job_id").unwrap().as_u64().unwrap();

    let metrics = send(addr, "GET", "/metrics", b"").json();
    assert!(metrics.get("deadline_exceeded").unwrap().as_u64().unwrap() >= 1);

    // The job was not cancelled: polling reaches `done` with a
    // solution.
    let mut done = None;
    for _ in 0..1000 {
        let poll = send(addr, "GET", &format!("/jobs/{id}"), b"").json();
        if poll.get("status").unwrap().as_str() == Some("done") {
            done = Some(poll);
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let done = done.expect("the 504'd job reached a terminal state");
    assert!(done.get("solution").is_some(), "the eventual result is served");
    handle.shutdown();
}

#[test]
fn smuggling_vectors_get_400_and_a_closed_connection() {
    let handle = spawn_default();
    let addr = handle.addr();

    // Duplicate Content-Length.
    let mut client = KeepAliveClient::connect(addr, T).unwrap();
    let resp = client
        .send_raw_head("POST", "/solve", &["Content-Length: 5", "Content-Length: 5"], b"hello")
        .expect("the rejection is a readable response");
    assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(resp.json().get("code").unwrap().as_str(), Some("bad-request"));
    assert!(!client.is_open(), "framing can't be trusted afterwards: close");

    // Transfer-Encoding alongside Content-Length (the TE.CL vector).
    let mut client = KeepAliveClient::connect(addr, T).unwrap();
    let resp = client
        .send_raw_head("POST", "/solve", &["Transfer-Encoding: chunked", "Content-Length: 5"], b"")
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(
        resp.json().get("message").unwrap().as_str().unwrap().contains("Transfer-Encoding"),
        "{}",
        String::from_utf8_lossy(&resp.body)
    );
    assert!(!client.is_open());

    // The server is unharmed.
    assert_eq!(send(addr, "GET", "/healthz", b"").status, 200);
    handle.shutdown();
}

#[test]
fn oversized_declared_body_is_rejected_before_reading_and_does_not_poison_the_server() {
    let handle = spawn_default();
    let addr = handle.addr();

    let mut client = KeepAliveClient::connect(addr, T).unwrap();
    let start = std::time::Instant::now();
    // Declare a body far over the cap but send none of it: the 413 must
    // come back immediately, proving the server never tried to read or
    // allocate the 64 MiB+.
    let resp = client
        .send_raw_head("POST", "/solve", &[&format!("Content-Length: {}", MAX_BODY_BYTES + 1)], b"")
        .expect("413 arrives without the body");
    assert_eq!(resp.status, 413, "{}", String::from_utf8_lossy(&resp.body));
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the rejection must not wait for body bytes that never come"
    );
    assert!(!client.is_open(), "the connection is closed, not left mid-frame");

    // The next request (on a fresh connection) is unaffected.
    assert_eq!(send(addr, "GET", "/healthz", b"").status, 200);
    handle.shutdown();
}

/// The leak regression: 1000 short jobs through a server with a tight
/// retention window and a tiny cache byte budget. The job table must
/// come back to ~zero and the cache must stay under its budget — the
/// two unbounded growths this PR removes.
#[test]
fn soak_job_table_and_cache_stay_bounded_over_1000_jobs() {
    let cache_budget = 4 * 1024;
    let config = ServeConfig {
        workers: 2,
        job_retention: Duration::from_millis(40),
        gc_interval: Duration::from_millis(10),
        cache_entries: 100_000,
        cache_bytes: cache_budget,
        max_requests_per_conn: 10_000,
        ..ServeConfig::default()
    };
    let handle = Server::spawn(config).unwrap();
    let addr = handle.addr();
    send(addr, "PUT", "/graphs/g", b"6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n");

    let mut client = KeepAliveClient::connect(addr, T).unwrap();
    for i in 0..1000u64 {
        // Every request minted with a distinct (but harmless) exact-
        // search budget, so each is a distinct cache key: the cache
        // keeps inserting and must keep evicting.
        let body = format!(
            r#"{{"graph": "g", "solver": "mds/exact", "config": {{"opt_budget": {}}}}}"#,
            100_000 + i
        );
        let resp = client.send("POST", "/solve", body.as_bytes()).expect("soak solve");
        assert_eq!(resp.status, 200, "job {i}: {}", String::from_utf8_lossy(&resp.body));
        if i % 100 == 0 {
            let stats = handle.cache().stats();
            assert!(
                stats.bytes <= cache_budget,
                "job {i}: cache resident {} exceeds its {cache_budget}-byte budget",
                stats.bytes
            );
        }
    }
    drop(client);

    // Every job is terminal; once the retention window passes, the
    // reaper must bring the table back to zero.
    let mut tracked = handle.queue().jobs_tracked();
    for _ in 0..500 {
        tracked = handle.queue().jobs_tracked();
        if tracked == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(tracked, 0, "the job table must drain to zero after retention");

    let stats = handle.cache().stats();
    assert!(stats.bytes <= cache_budget, "final cache resident {} over budget", stats.bytes);
    let dump = handle.shutdown();
    assert_eq!(dump.get("jobs_completed").unwrap().as_u64(), Some(1000));
    assert_eq!(dump.get("jobs_reaped").unwrap().as_u64(), Some(1000));
    assert!(dump.get("cache_evictions").unwrap().as_u64().unwrap() > 0);
    assert_eq!(dump.get("jobs_tracked").unwrap().as_u64(), Some(0));
}

#[test]
fn graceful_shutdown_drains_in_flight_jobs_and_flushes_snapshots() {
    let dir = std::env::temp_dir().join(format!("lmds-serve-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config =
        ServeConfig { persist_dir: Some(dir.clone()), ..sleepy_config(Duration::from_millis(400)) };
    let handle = Server::spawn(config).unwrap();
    let addr = handle.addr();
    send(addr, "PUT", "/graphs/persisted", b"5 4\n0 1\n1 2\n2 3\n3 4\n");

    // Start a slow job and catch the server mid-solve.
    let job = send(addr, "POST", "/jobs", br#"{"graph": "persisted", "solver": "mds/sleepy"}"#);
    let id = job.json().get("job_id").unwrap().as_u64().unwrap();
    wait_until_running(addr, id);

    // Begin the drain over HTTP. While draining: health reports it and
    // new submissions are 503, but reads still work.
    let resp = send(addr, "POST", "/admin/shutdown", b"");
    assert_eq!(resp.status, 200);
    let health = send(addr, "GET", "/healthz", b"").json();
    assert_eq!(health.get("status").unwrap().as_str(), Some("draining"));
    let refused = send(addr, "POST", "/jobs", br#"{"graph": "persisted", "solver": "mds/sleepy"}"#);
    assert_eq!(refused.status, 503, "{}", String::from_utf8_lossy(&refused.body));
    assert_eq!(refused.json().get("code").unwrap().as_str(), Some("shutting-down"));

    // Full shutdown joins the drain: the in-flight job must have
    // *finished*, not been dropped.
    let dump = handle.shutdown();
    assert_eq!(dump.get("jobs_completed").unwrap().as_u64(), Some(1));
    assert!(dump.get("rejected_shutting_down").unwrap().as_u64().unwrap() >= 1);

    // The corpus was flushed: a restart on the same directory serves
    // the same graph.
    let restarted =
        Server::spawn(ServeConfig { persist_dir: Some(dir.clone()), ..ServeConfig::default() })
            .unwrap();
    let listing = send(restarted.addr(), "GET", "/graphs", b"").json();
    let names: Vec<&str> = listing
        .get("graphs")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|e| e.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, ["persisted"]);
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The wire config, pinned field by field through `POST /solve` on a
/// stored graph with `mds/theorem44` (the solver that runs in every
/// mode): the empty config, every field alone with valid values (plus
/// the LOCAL fields where a local mode makes them bite), and every
/// rejection. Each row reads `status` then, for a solution, whether it
/// came from the result cache, its mode, size, rounds and optimum, and
/// for an error envelope its `code` and `message`. Rows run in order on
/// one daemon, so a config that spells out an earlier one's effective
/// values answers from the cache.
#[test]
fn wire_config_answers_are_pinned() {
    let handle = spawn_default();
    let addr = handle.addr();
    let put = send(addr, "PUT", "/graphs/outer40", to_edge_list(&corpus_graph()).as_bytes());
    assert_eq!(put.status, 201, "{}", String::from_utf8_lossy(&put.body));

    let mut mismatches = Vec::new();
    for &(config, expected) in WIRE_CONFIG_CASES {
        let body =
            format!(r#"{{"graph": "outer40", "solver": "mds/theorem44", "config": {config}}}"#);
        let resp = send(addr, "POST", "/solve", body.as_bytes());
        let doc = resp.json();
        let text = |v: Option<&Value>| v.map_or("-".to_string(), Value::render);
        let got = match doc.get("solution") {
            Some(sol) => format!(
                "{} cached={} mode={} size={} rounds={} optimum={}",
                resp.status,
                doc.get("cached").is_some(),
                text(sol.get("mode")),
                text(sol.get("size")),
                text(sol.get("rounds")),
                text(sol.get("optimum")),
            ),
            None => {
                format!("{} {} {}", resp.status, text(doc.get("code")), text(doc.get("message")))
            }
        };
        if got != expected {
            mismatches.push(format!("    (r#\"{config}\"#,\n     r#\"{got}\"#),"));
        }
    }
    assert!(mismatches.is_empty(), "wire config answers changed:\n{}", mismatches.join("\n"));
    handle.shutdown();
}

/// `(config object, pinned answer)` rows of [`wire_config_answers_are_pinned`].
const WIRE_CONFIG_CASES: &[(&str, &str)] = &[
    (r#"{}"#, r#"200 cached=false mode="centralized" size=28 rounds=null optimum=null"#),
    (r#"null"#, r#"200 cached=true mode="centralized" size=28 rounds=null optimum=null"#),
    (
        r#"{"problem": "mds"}"#,
        r#"200 cached=true mode="centralized" size=28 rounds=null optimum=null"#,
    ),
    (
        r#"{"problem": "mvc"}"#,
        r#"422 "unsupported-config" "solver mds/theorem44 does not solve MVC""#,
    ),
    (
        r#"{"mode": "centralized"}"#,
        r#"200 cached=true mode="centralized" size=28 rounds=null optimum=null"#,
    ),
    (
        r#"{"mode": "local-oracle"}"#,
        r#"200 cached=false mode="local-oracle" size=28 rounds=3 optimum=null"#,
    ),
    (
        r#"{"mode": "local-message-passing"}"#,
        r#"200 cached=false mode="local-message-passing" size=28 rounds=3 optimum=null"#,
    ),
    (
        r#"{"mode": "local-sharded-oracle"}"#,
        r#"422 "invalid-config" "invalid mode: unknown execution mode \"local-sharded-oracle\" (expected one of: centralized, local-oracle, local-message-passing)""#,
    ),
    (
        r#"{"mode": "local-faulty"}"#,
        r#"422 "invalid-config" "invalid mode: unknown execution mode \"local-faulty\" (expected one of: centralized, local-oracle, local-message-passing)""#,
    ),
    (
        r#"{"id_policy": "sequential"}"#,
        r#"200 cached=true mode="centralized" size=28 rounds=null optimum=null"#,
    ),
    (
        r#"{"id_policy": "sequential", "id_seed": 3}"#,
        r#"200 cached=true mode="centralized" size=28 rounds=null optimum=null"#,
    ),
    (
        r#"{"id_policy": "shuffled"}"#,
        r#"200 cached=true mode="centralized" size=28 rounds=null optimum=null"#,
    ),
    (
        r#"{"id_policy": "shuffled", "id_seed": 3}"#,
        r#"200 cached=true mode="centralized" size=28 rounds=null optimum=null"#,
    ),
    (
        r#"{"id_policy": "adversarial"}"#,
        r#"200 cached=true mode="centralized" size=28 rounds=null optimum=null"#,
    ),
    (
        r#"{"id_policy": "adversarial", "id_seed": 3}"#,
        r#"200 cached=true mode="centralized" size=28 rounds=null optimum=null"#,
    ),
    (
        r#"{"mode": "local-oracle", "id_policy": "shuffled", "id_seed": 3}"#,
        r#"200 cached=false mode="local-oracle" size=28 rounds=3 optimum=null"#,
    ),
    (
        r#"{"mode": "local-oracle", "id_policy": "adversarial", "id_seed": 3}"#,
        r#"200 cached=false mode="local-oracle" size=28 rounds=3 optimum=null"#,
    ),
    (
        r#"{"round_cap": 2}"#,
        r#"200 cached=true mode="centralized" size=28 rounds=null optimum=null"#,
    ),
    (
        r#"{"mode": "local-oracle", "round_cap": 2}"#,
        r#"422 "solve-error" "LOCAL runtime error: round limit 2 exceeded with 40 vertices undecided""#,
    ),
    (
        r#"{"mode": "local-oracle", "round_cap": 9}"#,
        r#"200 cached=false mode="local-oracle" size=28 rounds=3 optimum=null"#,
    ),
    (
        r#"{"radii": [3, 4]}"#,
        r#"200 cached=true mode="centralized" size=28 rounds=null optimum=null"#,
    ),
    (
        r#"{"opt_budget": 1000}"#,
        r#"200 cached=true mode="centralized" size=28 rounds=null optimum=null"#,
    ),
    (
        r#"{"measure_ratio": true}"#,
        r#"200 cached=false mode="centralized" size=28 rounds=null optimum={"exact":true,"value":11}"#,
    ),
    (
        r#"{"measure_ratio": false}"#,
        r#"200 cached=true mode="centralized" size=28 rounds=null optimum=null"#,
    ),
    (
        r#"{"fault": "seed=7;drop=bernoulli:100"}"#,
        r#"422 "unsupported-config" "solver mds/theorem44: fault plan \"seed=7;drop=bernoulli:100\" requires the local-message-passing mode, not centralized""#,
    ),
    (
        r#"{"mode": "local-oracle", "fault": "seed=7;drop=bernoulli:100"}"#,
        r#"422 "unsupported-config" "solver mds/theorem44: fault plan \"seed=7;drop=bernoulli:100\" requires the local-message-passing mode, not local-oracle""#,
    ),
    (
        r#"{"mode": "local-message-passing", "fault": "seed=7;drop=bernoulli:100"}"#,
        r#"200 cached=false mode="local-message-passing" size=31 rounds=5 optimum=null"#,
    ),
    (
        r#"{"mode": "local-message-passing", "fault": "seed=3;crash=random:2@1", "round_cap": 2}"#,
        r#"422 "solve-error" "LOCAL runtime error: round limit 2 exceeded with 38 vertices undecided (fault run: 0 messages dropped, 2 crashed, 2 silent)""#,
    ),
    (
        r#"{"fault": "seed=42"}"#,
        r#"200 cached=true mode="centralized" size=28 rounds=null optimum=null"#,
    ),
    (
        r#"{"mode": "local-oracle", "fault": "none"}"#,
        r#"200 cached=true mode="local-oracle" size=28 rounds=3 optimum=null"#,
    ),
    (
        r#"{"problem": "mds", "mode": "centralized", "radii": [2, 3], "opt_budget": 3000000, "measure_ratio": false, "fault": "none", "round_cap": null, "id_policy": null, "id_seed": null}"#,
        r#"200 cached=true mode="centralized" size=28 rounds=null optimum=null"#,
    ),
    (
        r#"{"mdoe": "centralized"}"#,
        r#"400 "bad-request" "unknown config field \"mdoe\" (known: problem, mode, id_policy, id_seed, round_cap, radii, opt_budget, measure_ratio, fault)""#,
    ),
    (r#"[1]"#, r#"400 "bad-request" "config must be an object""#),
    (r#""centralized""#, r#"400 "bad-request" "config must be an object""#),
    (r#"{"problem": 1}"#, r#"400 "bad-request" "config.problem must be a string""#),
    (r#"{"mode": true}"#, r#"400 "bad-request" "config.mode must be a string""#),
    (r#"{"id_policy": 3}"#, r#"400 "bad-request" "config.id_policy must be a string""#),
    (
        r#"{"id_policy": "shuffled", "id_seed": "3"}"#,
        r#"400 "bad-request" "config.id_seed must be a non-negative integer""#,
    ),
    (
        r#"{"id_policy": "shuffled", "id_seed": -3}"#,
        r#"400 "bad-request" "config.id_seed must be a non-negative integer""#,
    ),
    (
        r#"{"round_cap": "9"}"#,
        r#"400 "bad-request" "config.round_cap must be a non-negative integer""#,
    ),
    (
        r#"{"round_cap": 1.5}"#,
        r#"400 "bad-request" "config.round_cap must be a non-negative integer""#,
    ),
    (
        r#"{"radii": "3,4"}"#,
        r#"400 "bad-request" "config.radii must be a two-element array [one_cut, two_cut]""#,
    ),
    (r#"{"radii": [3, "4"]}"#, r#"400 "bad-request" "config.radii entries must be u32""#),
    (
        r#"{"opt_budget": -5}"#,
        r#"400 "bad-request" "config.opt_budget must be a non-negative integer""#,
    ),
    (
        r#"{"measure_ratio": "yes"}"#,
        r#"400 "bad-request" "config.measure_ratio must be a boolean""#,
    ),
    (r#"{"fault": 7}"#, r#"400 "bad-request" "config.fault must be a string""#),
    (
        r#"{"id_seed": 5}"#,
        r#"422 "invalid-config" "invalid id_seed: id_seed given without an id_policy""#,
    ),
    (
        r#"{"radii": [0, 1]}"#,
        r#"422 "invalid-config" "invalid radii: radii (0, 1) out of range (need one_cut ≥ 1, two_cut ≥ 2)""#,
    ),
    (
        r#"{"radii": [1, 1]}"#,
        r#"422 "invalid-config" "invalid radii: radii (1, 1) out of range (need one_cut ≥ 1, two_cut ≥ 2)""#,
    ),
    (
        r#"{"radii": [3]}"#,
        r#"400 "bad-request" "config.radii must be a two-element array [one_cut, two_cut]""#,
    ),
    (
        r#"{"radii": [3, 4, 5]}"#,
        r#"400 "bad-request" "config.radii must be a two-element array [one_cut, two_cut]""#,
    ),
    (r#"{"radii": [4294967296, 4]}"#, r#"400 "bad-request" "config.radii entries must be u32""#),
    (r#"{"round_cap": 4294967296}"#, r#"400 "bad-request" "round_cap too large""#),
    (
        r#"{"mode": "warp"}"#,
        r#"422 "invalid-config" "invalid mode: unknown execution mode \"warp\" (expected one of: centralized, local-oracle, local-message-passing)""#,
    ),
    (
        r#"{"mode": "oracle"}"#,
        r#"422 "invalid-config" "invalid mode: unknown execution mode \"oracle\" (expected one of: centralized, local-oracle, local-message-passing)""#,
    ),
    (
        r#"{"problem": "sat"}"#,
        r#"422 "invalid-config" "invalid problem: unknown problem \"sat\" (expected \"mds\" or \"mvc\")""#,
    ),
    (
        r#"{"problem": "MDS"}"#,
        r#"422 "invalid-config" "invalid problem: unknown problem \"MDS\" (expected \"mds\" or \"mvc\")""#,
    ),
    (
        r#"{"id_policy": "chaotic"}"#,
        r#"422 "invalid-config" "invalid id_policy: unknown policy \"chaotic\" (expected \"sequential\", \"shuffled\", or \"adversarial\")""#,
    ),
    (
        r#"{"fault": "drop=always"}"#,
        r#"422 "invalid-config" "invalid fault: invalid fault config: expected kind:rate in \"always\"""#,
    ),
    (
        r#"{"fault": "skew=65"}"#,
        r#"422 "invalid-config" "invalid fault: invalid fault config: bad skew \"65\" (at most 64 rounds)""#,
    ),
    (
        r#"{"mode": "local-faulty", "fault": "seed=1;skew=65"}"#,
        r#"422 "invalid-config" "invalid mode: unknown execution mode \"local-faulty\" (expected one of: centralized, local-oracle, local-message-passing)""#,
    ),
];
