//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <chain-solve|local-sim|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! (`--trace 1`) time each layer by calling its public functions from
//! here and print the per-layer metrics. Every output is checked; a
//! failed check counts in `failed` and never aborts the run. The last
//! stdout line is the result object; the line before it carries the
//! provenance. See `README.md` beside this package for why each workload
//! exists and which end-to-end metric each layer metric should move.

mod chain;
mod env;
mod local;
mod serve;
mod spec;
mod stats;
mod trace;

use lmds_serve::json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Chain,
    Local,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Chain, Workload::Local, Workload::Serve];

    fn name(self) -> &'static str {
        match self {
            Workload::Chain => "chain-solve",
            Workload::Local => "local-sim",
            Workload::Serve => "serve-mixed",
        }
    }
}

/// When a measured loop may stop: after its deadline, but never before
/// one iteration, and never past `max_iters`.
#[derive(Clone, Copy)]
pub struct Budget {
    deadline: Instant,
    max_iters: usize,
}

impl Budget {
    fn until(deadline: Instant) -> Self {
        Budget { deadline, max_iters: usize::MAX }
    }

    fn once() -> Self {
        Budget { deadline: Instant::now(), max_iters: 1 }
    }

    /// Whether to run another iteration after `done` of them.
    pub fn more(&self, done: usize) -> bool {
        done == 0 || (done < self.max_iters && Instant::now() < self.deadline)
    }
}

/// The state of one benchmark run: checks, metrics and provenance.
pub struct Run {
    pub seed: u64,
    /// Tiny inputs for the package's own test.
    pub smoke: bool,
    attempted: u64,
    failed: u64,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<String, f64>,
    prov: BTreeMap<String, Value>,
    /// Sampled between iterations, so it sees the machine the workload
    /// ran on.
    pub calib: env::Calibration,
}

impl Run {
    /// Counts one checked operation; a failure is reported on stderr
    /// and counted, never fatal.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
        ok
    }

    /// Folds in checks made elsewhere (client threads).
    pub fn tally(&mut self, attempted: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        for f in failures {
            eprintln!("perfbench: check failed: {f}");
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Records the median of `samples`, or zero when the layer did no
    /// work in this run.
    pub fn layer_median(&mut self, name: &str, samples: &[f64]) {
        let v = if samples.is_empty() { 0.0 } else { stats::median(samples) };
        self.layer(name, v);
    }

    /// Adds a provenance entry.
    pub fn note(&mut self, key: &str, value: Value) {
        self.prov.insert(key.to_string(), value);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str = "usage: perfbench --workload <chain-solve|local-sim|serve-mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run {
        seed: args.seed,
        smoke: args.smoke,
        attempted: 0,
        failed: 0,
        e2e: BTreeMap::new(),
        layers: BTreeMap::new(),
        prov: env::provenance(),
        calib: env::Calibration::new(),
    };
    run.note("workload", Value::from(args.workload.name()));
    run.note("seed", Value::from(args.seed));
    run.note("trace", Value::from(args.trace));
    run.note("smoke", Value::from(args.smoke));
    for _ in 0..5 {
        run.calib.sample();
    }
    let seconds = Duration::from_secs_f64(args.seconds);

    if args.trace {
        let mut tracer = Tracer::new();
        // Every traced run reports every layer: the other workloads get
        // one traced pass each, the named one the whole time budget.
        for other in Workload::ALL.into_iter().filter(|&w| w != args.workload) {
            trace_workload(other, &mut run, &mut tracer, Budget::once(), false);
        }
        let budget = Budget::until(Instant::now() + seconds);
        trace_workload(args.workload, &mut run, &mut tracer, budget, true);
        run.layer("env.calib_bfs_ms", run.calib.median_ms());
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
        let path = PathBuf::from(target).join("perfbench").join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match tracer.write(&path) {
            Ok(()) => run.note("spans", Value::from(path.display().to_string())),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    } else {
        match args.workload {
            Workload::Chain => chain::measure(&mut run, seconds),
            Workload::Local => local::measure(&mut run, seconds),
            Workload::Serve => serve::measure(&mut run, seconds),
        }
        run.e2e("peak_rss_mb", env::peak_rss_mb());
    }
    run.note("calib_bfs_ms", Value::from(run.calib.median_ms()));
    let error_rate = run.failed as f64 / run.attempted.max(1) as f64;
    run.note("error_rate", Value::from(error_rate));
    report(&run, args.trace)
}

fn trace_workload(w: Workload, run: &mut Run, tracer: &mut Tracer, budget: Budget, own: bool) {
    match w {
        Workload::Chain => chain::trace(run, tracer, budget, own),
        Workload::Local => local::trace(run, tracer, budget, own),
        Workload::Serve => serve::trace(run, tracer, budget, own),
    }
}

/// Prints the provenance line and the result line. A metric the spec
/// names but the run did not produce is a benchmark bug: exit non-zero
/// without a result rather than print an incomplete one.
fn report(run: &Run, traced: bool) -> ExitCode {
    let spec = if traced { spec::PER_LAYER } else { spec::END_TO_END };
    let mut metrics = BTreeMap::new();
    for &(name, unit) in spec {
        let value = if traced { run.layers.get(name).copied() } else { run.e2e.get(name).copied() };
        let Some(value) = value.filter(|v| v.is_finite()) else {
            eprintln!("perfbench: metric {name} was not measured");
            return ExitCode::from(3);
        };
        metrics.insert(
            name.to_string(),
            Value::obj([("value", Value::from(value)), ("unit", Value::from(unit))]),
        );
    }
    println!("{}", Value::obj([("provenance", Value::Obj(run.prov.clone()))]).render());
    let result = Value::obj([
        ("correct", Value::from(run.failed == 0)),
        ("attempted", Value::from(run.attempted)),
        ("failed", Value::from(run.failed)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
