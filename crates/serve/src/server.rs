//! The daemon itself: TCP accept loop, routing, the fixed worker pool,
//! and the graceful-shutdown choreography.
//!
//! # Architecture
//!
//! [`Server::spawn`] binds the listener and starts one OS thread that
//! hosts a [`std::thread::scope`] containing
//!
//! - `workers` long-lived solver threads popping the shared
//!   [`JobQueue`]. Because the engine pools (`Scratch`, `CutEngine`,
//!   `ExactEngine`) are thread-locals, a worker's pools stay warm across
//!   jobs — the serving analogue of `BatchRunner`'s per-thread reuse.
//!   Workers consult the [`ResultCache`] before solving, so a repeated
//!   `(graph, solver, config)` job completes without touching an engine;
//! - a reaper thread that periodically sweeps terminal jobs past their
//!   retention window out of the job table ([`JobQueue::sweep_expired`])
//!   — without it the table grows without bound under sustained traffic;
//! - a supervisor thread that sleeps until shutdown is requested, then
//!   runs the drain protocol;
//! - one handler thread per accepted connection. Connections are
//!   HTTP/1.1 keep-alive: the handler loops reads over the same socket
//!   until the client asks for `Connection: close`, the idle timeout
//!   fires, the per-connection request budget is spent, or shutdown
//!   begins. Admission is gated by a connection cap — beyond it the
//!   acceptor replies `503` with `Retry-After` and closes immediately,
//!   so a connection flood cannot exhaust handler threads.
//!
//! # Shutdown
//!
//! Triggered by [`ServerHandle::shutdown`] or `POST /admin/shutdown`:
//!
//! 1. the submission gate closes — new `POST /solve` / `POST /jobs`
//!    get the 503 `shutting-down` envelope — and the reaper exits (late
//!    results stay pollable until the process exits);
//! 2. workers finish the running jobs **and** everything already queued;
//! 3. the supervisor joins the workers, flushes the corpus and the
//!    result cache to the persistence directory, and unblocks the
//!    accept loop;
//! 4. [`ServerHandle::shutdown`] joins the server thread and returns
//!    the final metrics dump.

use crate::cache::{CacheKey, ResultCache};
use crate::corpus::{CorpusError, CorpusStore};
use crate::http::{
    is_timeout, read_request, write_response, write_response_ext, HttpError, Request,
};
use crate::json::Value;
use crate::metrics::{Gauges, Metrics};
use crate::proto::{
    config_fingerprint, parse_solve_request, parse_update_batch, render_graph_entry,
    render_solution, solve_error_to_wire, SolveRequest, WireError,
};
use crate::queue::{JobLookup, JobQueue, JobSpec, JobState, SubmitError};
use lmds_api::{ConfigFields, SolutionView, SolveConfig, SolverRegistry};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server configuration. `Default` is a loopback ephemeral port with a
/// small pool — the right shape for tests and the smoke runner.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` (port 0 = ephemeral).
    pub addr: String,
    /// Worker pool size (clamped to ≥ 1).
    pub workers: usize,
    /// Bounded queue capacity (clamped to ≥ 1); beyond it, submissions
    /// get 429.
    pub queue_capacity: usize,
    /// Snapshot persistence directory; `None` = in-memory corpus (and
    /// no cache persistence).
    pub persist_dir: Option<PathBuf>,
    /// Wait budget for sync `POST /solve` when the request carries no
    /// `timeout_ms`.
    pub default_timeout: Duration,
    /// Socket read timeout for the *first* request of a connection
    /// (slow-loris guard).
    pub read_timeout: Duration,
    /// Idle timeout between keep-alive requests; an idle connection is
    /// closed quietly when it fires.
    pub keep_alive_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (bounds per-connection resource pinning; clamped to ≥ 1).
    pub max_requests_per_conn: u64,
    /// Concurrent-connection cap; beyond it new connections get an
    /// immediate `503` + `Retry-After` (clamped to ≥ 1).
    pub max_connections: usize,
    /// Result-cache entry budget; 0 disables the cache.
    pub cache_entries: usize,
    /// Result-cache byte budget (estimated resident bytes); 0 disables
    /// the cache.
    pub cache_bytes: usize,
    /// How long a terminal job stays pollable in the job table before
    /// the reaper may sweep it.
    pub job_retention: Duration,
    /// How often the reaper sweeps.
    pub gc_interval: Duration,
    /// The solver catalog. Defaults to every built-in solver; tests
    /// inject custom registries (e.g. a deliberately slow solver).
    pub registry: SolverRegistry,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 16,
            persist_dir: None,
            default_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(10),
            keep_alive_timeout: Duration::from_secs(5),
            max_requests_per_conn: 100,
            max_connections: 64,
            cache_entries: 256,
            cache_bytes: 16 * 1024 * 1024,
            job_retention: Duration::from_secs(300),
            gc_interval: Duration::from_millis(500),
            registry: SolverRegistry::with_defaults(),
        }
    }
}

/// Why the server failed to start.
#[derive(Debug)]
pub enum StartError {
    /// Bind/listen failure.
    Io(std::io::Error),
    /// The persistence directory could not be loaded.
    Corpus(CorpusError),
    /// The persisted result cache is present but unreadable (a damaged
    /// cache fails loudly rather than silently serving cold).
    Cache(String),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::Io(e) => write!(f, "cannot start server: {e}"),
            StartError::Corpus(e) => write!(f, "cannot load corpus: {e}"),
            StartError::Cache(e) => write!(f, "cannot load result cache: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

/// A counting admission gate over the acceptor: at most `cap`
/// connections are handled concurrently; the rest are turned away with
/// an immediate 503 instead of queueing behind a saturated pool.
struct ConnGate {
    open: Mutex<usize>,
    cap: usize,
}

impl ConnGate {
    fn new(cap: usize) -> Self {
        ConnGate { open: Mutex::new(0), cap: cap.max(1) }
    }

    /// Claims a slot if one is free.
    fn try_acquire(&self) -> bool {
        let mut open = self.open.lock().expect("gate lock");
        if *open >= self.cap {
            false
        } else {
            *open += 1;
            true
        }
    }

    fn release(&self) {
        *self.open.lock().expect("gate lock") -= 1;
    }

    fn open_connections(&self) -> usize {
        *self.open.lock().expect("gate lock")
    }
}

/// State shared by the accept loop, handlers, workers, the reaper, and
/// the supervisor.
struct Shared {
    registry: SolverRegistry,
    corpus: CorpusStore,
    queue: JobQueue,
    cache: ResultCache,
    metrics: Metrics,
    conn_gate: ConnGate,
    persist_dir: Option<PathBuf>,
    default_timeout: Duration,
    read_timeout: Duration,
    keep_alive_timeout: Duration,
    max_requests_per_conn: u64,
    gc_interval: Duration,
    addr: SocketAddr,
    /// Set (under `shutdown_mu`) to request the drain protocol.
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    /// Set by the supervisor once drain is complete; the accept loop
    /// exits on the next (poked) accept.
    stopped: AtomicBool,
}

impl Shared {
    fn request_shutdown(&self) {
        *self.shutdown_requested.lock().expect("shutdown lock") = true;
        self.shutdown_cv.notify_all();
    }

    fn wait_for_shutdown_request(&self) {
        let mut requested = self.shutdown_requested.lock().expect("shutdown lock");
        while !*requested {
            requested = self.shutdown_cv.wait(requested).expect("shutdown lock");
        }
    }

    /// Samples the live gauges for a `/metrics` render.
    fn gauges(&self) -> Gauges {
        let cache = self.cache.stats();
        Gauges {
            queue_depth: self.queue.depth(),
            queue_capacity: self.queue.capacity(),
            jobs_tracked: self.queue.jobs_tracked(),
            cache_entries: cache.entries,
            cache_bytes: cache.bytes,
            open_connections: self.conn_gate.open_connections(),
            connection_cap: self.conn_gate.cap,
        }
    }
}

/// The daemon. Construct with [`Server::spawn`].
pub struct Server;

/// A handle to a running server: its address, live introspection for
/// tests, and the shutdown switch.
pub struct ServerHandle {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the daemon, returning once it accepts
    /// connections.
    ///
    /// # Errors
    ///
    /// [`StartError`] when the bind fails or the persistence directory
    /// (corpus snapshots or the result cache) cannot be loaded.
    pub fn spawn(config: ServeConfig) -> Result<ServerHandle, StartError> {
        let listener = TcpListener::bind(&config.addr).map_err(StartError::Io)?;
        let addr = listener.local_addr().map_err(StartError::Io)?;
        let corpus = match &config.persist_dir {
            Some(dir) => CorpusStore::persistent(dir).map_err(StartError::Corpus)?,
            None => CorpusStore::in_memory(),
        };
        let cache = ResultCache::new(config.cache_entries, config.cache_bytes);
        if let Some(dir) = &config.persist_dir {
            cache.load(dir).map_err(StartError::Cache)?;
        }
        let shared = Arc::new(Shared {
            registry: config.registry,
            corpus,
            queue: JobQueue::new(config.queue_capacity, config.job_retention),
            cache,
            metrics: Metrics::new(),
            conn_gate: ConnGate::new(config.max_connections),
            persist_dir: config.persist_dir,
            default_timeout: config.default_timeout,
            read_timeout: config.read_timeout,
            keep_alive_timeout: config.keep_alive_timeout,
            max_requests_per_conn: config.max_requests_per_conn.max(1),
            gc_interval: config.gc_interval,
            addr,
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            stopped: AtomicBool::new(false),
        });
        let workers = config.workers.max(1);
        let thread = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("lmds-serve".into())
                .spawn(move || run(&listener, &shared, workers))
                .map_err(StartError::Io)?
        };
        Ok(ServerHandle { shared, thread: Some(thread) })
    }
}

impl ServerHandle {
    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The job queue (test introspection).
    pub fn queue(&self) -> &JobQueue {
        &self.shared.queue
    }

    /// The corpus store (test introspection).
    pub fn corpus(&self) -> &CorpusStore {
        &self.shared.corpus
    }

    /// The result cache (test introspection).
    pub fn cache(&self) -> &ResultCache {
        &self.shared.cache
    }

    /// The metrics registry (test introspection).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Requests shutdown without waiting (same as `POST
    /// /admin/shutdown`). Idempotent.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Runs the full graceful shutdown — drain jobs, flush snapshots
    /// and the result cache, stop accepting — joins the server thread,
    /// and returns the final metrics dump.
    pub fn shutdown(mut self) -> Value {
        self.shared.request_shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        self.shared.metrics.render(&self.shared.gauges())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.request_shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The server thread body: worker pool + reaper + supervisor + accept
/// loop, all inside one scope so nothing outlives the listener.
fn run(listener: &TcpListener, shared: &Arc<Shared>, workers: usize) {
    std::thread::scope(|scope| {
        let worker_handles: Vec<_> =
            (0..workers).map(|_| scope.spawn(move || worker_loop(shared))).collect();

        scope.spawn(move || reaper_loop(shared));

        scope.spawn(move || {
            shared.wait_for_shutdown_request();
            // 1. Close the submission gate; wake blocked workers.
            shared.queue.begin_shutdown();
            // 2. Wait for the drain: queued + running jobs all finish.
            for handle in worker_handles {
                let _ = handle.join();
            }
            // 3. Flush the corpus and the result cache so a restart
            //    sees every graph and starts warm.
            let _ = shared.corpus.flush();
            if let Some(dir) = &shared.persist_dir {
                if let Err(e) = shared.cache.save(dir) {
                    eprintln!("lmds-serve: {e}");
                }
            }
            // 4. Unblock the accept loop.
            shared.stopped.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(shared.addr);
        });

        for stream in listener.incoming() {
            if shared.stopped.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if !shared.conn_gate.try_acquire() {
                Metrics::bump(&shared.metrics.rejected_connection_cap);
                let cap = shared.conn_gate.cap;
                scope.spawn(move || reject_over_cap(stream, cap));
                continue;
            }
            Metrics::bump(&shared.metrics.connections_accepted);
            scope.spawn(move || {
                handle_connection(stream, shared);
                shared.conn_gate.release();
            });
        }
    });
}

/// The reaper: wakes every `gc_interval`, sweeps terminal jobs past
/// their retention deadline, and exits as soon as shutdown is requested
/// (late results stay pollable until the process exits).
fn reaper_loop(shared: &Shared) {
    let mut requested = shared.shutdown_requested.lock().expect("shutdown lock");
    while !*requested {
        let (guard, _timeout) =
            shared.shutdown_cv.wait_timeout(requested, shared.gc_interval).expect("shutdown lock");
        requested = guard;
        if *requested {
            return;
        }
        drop(requested);
        let reaped = shared.queue.sweep_expired();
        if reaped > 0 {
            shared.metrics.jobs_reaped.fetch_add(reaped as u64, Ordering::Relaxed);
        }
        requested = shared.shutdown_requested.lock().expect("shutdown lock");
    }
}

/// The cache identity of a job: graph content, solver, and the config
/// fields that solver reads (the others at their defaults).
fn cache_key(shared: &Shared, spec: &JobSpec) -> CacheKey {
    let reads =
        shared.registry.get(&spec.solver).map_or(ConfigFields::ALL, |s| s.reads(&spec.config));
    CacheKey {
        graph_checksum: spec.entry.checksum,
        solver: spec.solver.clone(),
        config_fingerprint: config_fingerprint(&spec.config.restricted_to(reads)),
    }
}

/// One worker: pop, check the cache, solve on a miss, record — until
/// the queue drains on shutdown.
fn worker_loop(shared: &Shared) {
    while let Some((id, spec)) = shared.queue.next_job() {
        let solver_metrics = shared.metrics.solver(&spec.solver);
        Metrics::bump(&solver_metrics.requests);
        let key = cache_key(shared, &spec);
        if let Some(view) = shared.cache.get(&key) {
            // Every registered solver is deterministic for a fixed
            // (graph, solver, config), so the cached view *is* the
            // answer. The solver latency histogram is not touched: it
            // measures solver wall time, and no solver ran.
            Metrics::bump(&shared.metrics.cache_hits);
            Metrics::bump(&shared.metrics.jobs_completed);
            shared.queue.complete(id, JobState::Done(Box::new(view)));
            continue;
        }
        Metrics::bump(&shared.metrics.cache_misses);
        // Pre-size this worker's thread-local scratch; repeated jobs on
        // similar graphs then run allocation-free.
        let n = spec.entry.graph().n();
        lmds_graph::scratch::with_thread_scratch(|s| s.reserve(n));
        let start = Instant::now();
        let result = shared.registry.solve(&spec.solver, &spec.entry.instance, &spec.config);
        solver_metrics.latency.record(start.elapsed());
        match result {
            Ok(solution) => {
                let view = SolutionView::from(&solution);
                let evicted = shared.cache.insert(key, view.clone());
                if evicted > 0 {
                    shared.metrics.cache_evictions.fetch_add(evicted as u64, Ordering::Relaxed);
                }
                Metrics::bump(&shared.metrics.jobs_completed);
                shared.queue.complete(id, JobState::Done(Box::new(view)));
            }
            Err(err) => {
                Metrics::bump(&solver_metrics.errors);
                Metrics::bump(&shared.metrics.jobs_failed);
                let wire = solve_error_to_wire(&err);
                shared
                    .queue
                    .complete(id, JobState::Failed { code: wire.code, message: wire.message });
            }
        }
    }
}

/// Turns away a connection over the cap: one 503 with `Retry-After`,
/// then close.
fn reject_over_cap(mut stream: TcpStream, cap: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_nodelay(true);
    let wire = WireError::new(
        503,
        "over-capacity",
        format!("connection cap ({cap}) reached; retry shortly"),
    );
    let _ = write_response_ext(
        &mut stream,
        503,
        "application/json",
        wire.render().render().as_bytes(),
        false,
        &[("Retry-After", "1")],
    );
}

/// The per-connection loop: read a request, route it, write the
/// response, and keep going on the same socket while the client wants
/// keep-alive, the request budget lasts, and the server is not
/// draining. Framing errors get one error response and a close (the
/// stream position can no longer be trusted); idle timeouts close
/// quietly.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    // Without TCP_NODELAY, Nagle holds small response segments until
    // the client's (possibly delayed) ACK — a ~40 ms stall per
    // keep-alive round trip that would dwarf a cache hit.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut served: u64 = 0;
    loop {
        let timeout = if served == 0 { shared.read_timeout } else { shared.keep_alive_timeout };
        let _ = reader.get_ref().set_read_timeout(Some(timeout));
        let request = match read_request(&mut reader) {
            Ok(req) => req,
            Err(HttpError::ConnectionClosed) => return,
            Err(err) if is_timeout(&err) => return,
            Err(err) => {
                let status = match err {
                    HttpError::TooLarge(_) => 413,
                    _ => 400,
                };
                let wire = WireError::new(status, "bad-request", err.to_string());
                let _ = respond(reader.get_mut(), status, &wire.render(), false);
                return;
            }
        };
        served += 1;
        Metrics::bump(&shared.metrics.http_requests);
        let keep = request.keep_alive
            && served < shared.max_requests_per_conn
            && !shared.queue.is_shutting_down();
        let (status, body) = match route(&request, shared) {
            Ok(reply) => reply,
            Err(wire) => (wire.status, wire.render()),
        };
        if respond(reader.get_mut(), status, &body, keep).is_err() || !keep {
            return;
        }
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    body: &Value,
    keep_alive: bool,
) -> std::io::Result<()> {
    let text = body.render();
    write_response(stream, status, "application/json", text.as_bytes(), keep_alive)
}

/// The routing table. Returns the success reply or the wire error.
fn route(req: &Request, shared: &Shared) -> Result<(u16, Value), WireError> {
    let segments = req.segments();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Ok((200, render_health(shared))),
        ("GET", ["metrics"]) => Ok((200, shared.metrics.render(&shared.gauges()))),
        ("GET", ["solvers"]) => Ok((200, render_solvers(shared))),
        ("GET", ["graphs"]) => Ok((
            200,
            Value::obj([(
                "graphs",
                Value::Arr(shared.corpus.list().iter().map(|e| render_graph_entry(e)).collect()),
            )]),
        )),
        ("GET", ["graphs", name]) => {
            let entry = lookup_graph(shared, name)?;
            Ok((200, render_graph_entry(&entry)))
        }
        ("PUT", ["graphs", name]) => put_graph(shared, name, &req.body),
        ("PATCH", ["graphs", name]) => patch_graph(shared, name, &req.body),
        ("POST", ["solve"]) => solve_sync(shared, &req.body),
        ("POST", ["jobs"]) => submit_job(shared, &req.body),
        ("GET", ["jobs", id]) => job_status(shared, id),
        ("POST", ["admin", "shutdown"]) => {
            shared.request_shutdown();
            Ok((200, Value::obj([("status", Value::from("draining"))])))
        }
        (_, ["healthz" | "metrics" | "solvers" | "graphs" | "solve" | "jobs", ..]) => {
            Err(WireError::new(405, "method-not-allowed", format!("{} {}", req.method, req.path)))
        }
        _ => Err(WireError::new(404, "not-found", format!("no route for {}", req.path))),
    }
}

fn render_health(shared: &Shared) -> Value {
    let status = if shared.queue.is_shutting_down() { "draining" } else { "ok" };
    Value::obj([
        ("status", Value::from(status)),
        ("graphs", Value::from(shared.corpus.len())),
        ("solvers", Value::from(shared.registry.len())),
    ])
}

fn render_solvers(shared: &Shared) -> Value {
    let solvers = shared
        .registry
        .descriptors()
        .into_iter()
        .map(|d| {
            Value::obj([
                ("key", Value::from(d.key)),
                ("name", Value::from(d.name)),
                ("problem", Value::from(d.problem.to_string().to_ascii_lowercase())),
                ("paper_ref", Value::from(d.paper_ref)),
                ("modes", Value::Arr(d.modes.iter().map(|m| Value::from(m.to_string())).collect())),
            ])
        })
        .collect();
    Value::obj([("solvers", Value::Arr(solvers))])
}

fn lookup_graph(shared: &Shared, name: &str) -> Result<Arc<crate::corpus::GraphEntry>, WireError> {
    shared.corpus.get(name).ok_or_else(|| {
        WireError::with_keys(
            404,
            "unknown-graph",
            format!("no graph stored as {name:?}"),
            shared.corpus.list().iter().map(|e| e.name().to_string()),
        )
    })
}

fn put_graph(shared: &Shared, name: &str, body: &[u8]) -> Result<(u16, Value), WireError> {
    if shared.queue.is_shutting_down() {
        return Err(WireError::new(503, "shutting-down", SubmitError::ShuttingDown.to_string()));
    }
    let stored = shared.corpus.insert(name, body).map_err(|err| match err {
        CorpusError::InvalidName(_) => WireError::bad_request(err.to_string()),
        CorpusError::InvalidGraph(_) => WireError::new(422, "invalid-graph", err.to_string()),
        CorpusError::Io(_) => WireError::new(500, "internal", err.to_string()),
    })?;
    forget_retired(shared, stored.retired);
    Metrics::bump(&shared.metrics.graphs_uploaded);
    Ok((201, render_graph_entry(&stored.entry)))
}

/// `PATCH /graphs/{name}`: applies a JSON edge-update batch
/// ([`parse_update_batch`]) to a stored graph in place.
///
/// Refused with the typed 409 `graph-busy` envelope while any queued or
/// running job references the graph — in-flight jobs hold the old
/// entry's `Arc` and could not be corrupted, but their results would
/// describe content the client just replaced. A successful patch mints
/// a fresh [`crate::corpus::GraphEntry`] with a new structural
/// checksum, so every result-cache key for the old content misses
/// naturally and a follow-up solve runs through the registry on the
/// patched graph.
fn patch_graph(shared: &Shared, name: &str, body: &[u8]) -> Result<(u16, Value), WireError> {
    if shared.queue.is_shutting_down() {
        return Err(WireError::new(503, "shutting-down", SubmitError::ShuttingDown.to_string()));
    }
    lookup_graph(shared, name)?;
    if shared.queue.has_active_jobs_for(name) {
        return Err(WireError::new(
            409,
            "graph-busy",
            format!("graph {name:?} has queued or running jobs; retry once they finish"),
        ));
    }
    let updates = parse_update_batch(body)?;
    let patched = shared.corpus.patch(name, &updates).map_err(|err| match err {
        CorpusError::InvalidName(_) => WireError::bad_request(err.to_string()),
        CorpusError::InvalidGraph(_) => WireError::new(422, "invalid-graph", err.to_string()),
        CorpusError::Io(_) => WireError::new(500, "internal", err.to_string()),
    })?;
    // The name was just looked up and corpus entries are never removed,
    // so the patch target cannot have vanished; re-check anyway rather
    // than unwrap a protocol handler.
    let (stored, stats) = patched.ok_or_else(|| {
        WireError::new(404, "unknown-graph", format!("no graph stored as {name:?}"))
    })?;
    forget_retired(shared, stored.retired);
    Metrics::bump(&shared.metrics.graphs_patched);
    let mut doc = render_graph_entry(&stored.entry);
    if let Value::Obj(map) = &mut doc {
        map.insert(
            "applied".into(),
            Value::obj([
                ("inserted", Value::from(stats.inserted)),
                ("removed", Value::from(stats.removed)),
                ("added_vertices", Value::from(stats.added_vertices)),
                ("skipped", Value::from(stats.skipped)),
            ]),
        );
    }
    Ok((200, doc))
}

/// Drops the result-cache entries of content a PUT or PATCH replaced
/// when no stored graph holds it any more. The cache is keyed by
/// content, so entries another name still holds stay.
fn forget_retired(shared: &Shared, retired: Option<u64>) {
    if let Some(checksum) = retired {
        shared.cache.forget_graph(checksum);
    }
}

/// Resolves a solve request into a runnable [`JobSpec`]: graph lookup,
/// solver lookup, the solver's problem for a config that names none,
/// deadline. Shared by the sync and async endpoints, so validation
/// errors surface identically.
fn prepare(shared: &Shared, req: SolveRequest) -> Result<JobSpec, WireError> {
    let entry = lookup_graph(shared, &req.graph)?;
    // Resolve the solver *now* so an unknown key is a 404 at submit
    // time, not a failed job discovered by polling.
    let solver = shared.registry.get(&req.solver).ok_or_else(|| {
        WireError::with_keys(
            404,
            "unknown-solver",
            format!("no solver registered as {:?}", req.solver),
            shared.registry.keys().iter().map(|k| k.to_string()),
        )
    })?;
    let config =
        SolveConfig { problem: req.problem.unwrap_or(solver.descriptor().problem), ..req.config };
    let deadline = req.timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    Ok(JobSpec { entry, solver: req.solver, config, deadline })
}

/// Pushes a prepared spec into the queue, mapping backpressure and
/// drain rejections to their wire envelopes.
fn submit(shared: &Shared, spec: JobSpec) -> Result<u64, WireError> {
    shared.queue.submit(spec).map_err(|err| match err {
        SubmitError::QueueFull { .. } => {
            Metrics::bump(&shared.metrics.rejected_queue_full);
            WireError::new(429, "queue-full", err.to_string())
        }
        SubmitError::ShuttingDown => {
            Metrics::bump(&shared.metrics.rejected_shutting_down);
            WireError::new(503, "shutting-down", err.to_string())
        }
    })
}

/// `POST /solve`: check the result cache (a hit replies immediately,
/// bypassing the queue entirely — the warm path), else enqueue, block
/// until done (or the timeout), reply with the solution — or 504
/// carrying the job id so the caller can keep polling `GET /jobs/{id}`
/// (the job itself is not cancelled).
fn solve_sync(shared: &Shared, body: &[u8]) -> Result<(u16, Value), WireError> {
    let req = parse_solve_request(body)?;
    let wait = req.timeout_ms.map_or(shared.default_timeout, Duration::from_millis);
    let spec = prepare(shared, req)?;
    if let Some(view) = shared.cache.get(&cache_key(shared, &spec)) {
        Metrics::bump(&shared.metrics.cache_hits);
        return Ok((
            200,
            Value::obj([("cached", Value::from(true)), ("solution", render_solution(&view))]),
        ));
    }
    let id = submit(shared, spec)?;
    let snapshot = shared
        .queue
        .wait(id, Instant::now() + wait)
        .ok_or_else(|| WireError::new(500, "internal", "job vanished from the table"))?;
    match snapshot.state {
        JobState::Done(view) => Ok((
            200,
            Value::obj([("job_id", Value::from(id)), ("solution", render_solution(&view))]),
        )),
        JobState::Failed { code, message } => {
            let status = if code == "timeout" {
                Metrics::bump(&shared.metrics.deadline_exceeded);
                504
            } else {
                422
            };
            Err(WireError::new(status, code, message))
        }
        JobState::Queued | JobState::Running => {
            Metrics::bump(&shared.metrics.deadline_exceeded);
            let mut body = WireError::new(
                504,
                "timeout",
                format!("job {id} still {} after {wait:?}; poll /jobs/{id}", snapshot.state.name()),
            )
            .render();
            if let Value::Obj(map) = &mut body {
                map.insert("job_id".into(), Value::from(id));
            }
            Ok((504, body))
        }
    }
}

/// `POST /jobs`: enqueue and return 202 immediately. No cache fast
/// path here — the contract is a pollable job id either way; a worker
/// answers a cached job without running its solver.
fn submit_job(shared: &Shared, body: &[u8]) -> Result<(u16, Value), WireError> {
    let req = parse_solve_request(body)?;
    let id = submit(shared, prepare(shared, req)?)?;
    Ok((202, Value::obj([("job_id", Value::from(id)), ("status", Value::from("queued"))])))
}

/// `GET /jobs/{id}`: 404 for an id never issued, 410 for one issued,
/// finished, and garbage-collected after its retention window.
fn job_status(shared: &Shared, id: &str) -> Result<(u16, Value), WireError> {
    let id: u64 = id
        .parse()
        .map_err(|_| WireError::bad_request(format!("job id must be an integer, got {id:?}")))?;
    let snapshot = match shared.queue.lookup(id) {
        JobLookup::NeverExisted => {
            return Err(WireError::new(404, "unknown-job", format!("no job {id}")))
        }
        JobLookup::Expired => {
            return Err(WireError::new(
                410,
                "job-expired",
                format!("job {id} finished and was garbage-collected after the retention window"),
            ))
        }
        JobLookup::Found(snapshot) => *snapshot,
    };
    let mut pairs = vec![
        ("id", Value::from(snapshot.id)),
        ("graph", Value::from(snapshot.graph)),
        ("solver", Value::from(snapshot.solver)),
        ("status", Value::from(snapshot.state.name())),
    ];
    match snapshot.state {
        JobState::Done(view) => pairs.push(("solution", render_solution(&view))),
        JobState::Failed { code, message } => {
            pairs.push((
                "error",
                Value::obj([("code", Value::from(code)), ("message", Value::from(message))]),
            ));
        }
        JobState::Queued | JobState::Running => {}
    }
    Ok((200, Value::obj(pairs)))
}
