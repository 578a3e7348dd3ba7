//! `local-sim`: sweeps of LOCAL registry solves — `mds/algorithm1` and
//! `mds/theorem44` on the oracle, message-passing and faulty runtimes —
//! over `large_augmentation(520, 11)` (n = 535) at radii (2, 2). It is
//! the only workload that runs the simulator's round loops, message
//! accounting and view deciders; n stays below the 640-vertex sharding
//! threshold, so parallelism changes should leave it flat.
//!
//! The seed shuffles the identifier assignment and seeds the fault plan;
//! the graph itself is fixed. Sweep time on `large_augmentation(520, s)`
//! varies by ±25% with the graph seed `s` (how many pieces share a base
//! vertex sets the view sizes), which would drown any code change.

use crate::trace::Tracer;
use crate::{stats, Budget, Run};
use lmds_api::{
    DropPolicy, ExecutionMode, FaultConfig, FaultReport, Instance, SolveConfig, SolverRegistry,
};
use lmds_core::Radii;
use lmds_serve::json::Value;
use std::time::{Duration, Instant};

const TARGET_N: usize = 520;
const SMOKE_TARGET_N: usize = 130;
const GRAPH_SEED: u64 = 11;
const RADII: (u32, u32) = (2, 2);
const SETUP_REPEATS: usize = 25;
/// Drop rate of the faulty cells' seeded plan (per mille).
const DROP_PER_MILLE: u16 = 50;

/// The sweep's cells, in run order: (solver, runtime).
const CELLS: [(&str, &str); 6] = [
    ("mds/algorithm1", "oracle"),
    ("mds/algorithm1", "message-passing"),
    ("mds/algorithm1", "faulty"),
    ("mds/theorem44", "oracle"),
    ("mds/theorem44", "message-passing"),
    ("mds/theorem44", "faulty"),
];

/// Checksum of a full sweep's outputs (vertex sets, rounds, message
/// bits, fault reports) per seed, recorded from the code this benchmark
/// was defined on. Seeds outside the table are pinned to the run's
/// first sweep.
const PINS: &[(u64, u64)] = &[
    (0, 0x187b1328b7bb465b),
    (1, 0x0ec6661dd0a8036e),
    (2, 0xde5154e24385cc9b),
    (3, 0xff96eb1d3efb882e),
    (4, 0xe5098cf75ae7f918),
    (5, 0x73fd2e9a4c3f0cfc),
    (6, 0xd2e9ae2e18d7f8db),
    (7, 0xc0fea4e0ae10d5ca),
    (8, 0xef5f93215c6193eb),
    (9, 0x2f053bcb50e4df5a),
    (10, 0xb4722d7ec56b1306),
    (11, 0xf2901d6a3f3a600f),
    (12, 0x488aff11d64fab5f),
    (13, 0x63052306dd2e8fa1),
    (14, 0xe817803d098ca0d4),
    (15, 0xc4e380e289eabb30),
    (16, 0x73db32d08f214e74),
    (17, 0xeaee9402de29d2ec),
    (18, 0x9573f0c80de6a796),
    (19, 0x430590c444dbdecb),
    (20, 0xf32e847bdf43ec77),
    (21, 0xad00c11a4a620d0e),
    (22, 0x49716188e806d27f),
    (23, 0x30627ec08c13de95),
    (24, 0xb3955ab0a6df7c9c),
    (25, 0xc45c719c48d4d48f),
    (26, 0x45b01ee8ac577feb),
    (27, 0x062ef4c40fcc07c4),
    (28, 0x2be04820936cf927),
    (29, 0xe8d82594adc02e3f),
    (30, 0x05d94ac164e64ba0),
    (31, 0x76fec3e5a47e03c7),
];

/// What one cell produced, everything but its time.
#[derive(Debug, Clone, PartialEq)]
struct CellOut {
    vertices: Vec<usize>,
    rounds: Option<u32>,
    bits: Option<u64>,
    fault: Option<FaultReport>,
}

struct Setup {
    inst: Instance,
    lb: usize,
    setup_s: Vec<f64>,
    gen_ms: Vec<f64>,
}

fn setup(run: &mut Run) -> Setup {
    let target = if run.smoke { SMOKE_TARGET_N } else { TARGET_N };
    let (mut setup_s, mut gen_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    run.calib.sample();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let graph = lmds_bench::experiments::large_augmentation(target, GRAPH_SEED).graph;
        let inst = Instance::shuffled(format!("aug{target}"), graph, run.seed);
        let t1 = Instant::now();
        let lb = lmds_graph::dominating::mds_lower_bound(&inst.graph);
        setup_s.push(run.calib.normalize(t0.elapsed().as_secs_f64()));
        gen_ms.push(stats::ms(t1 - t0));
        last = Some((inst, lb));
    }
    let (inst, lb) = last.expect("at least one set-up repeat");
    run.note(
        "local_instance",
        Value::obj([
            ("generator", Value::from(format!("large_augmentation({target}, {GRAPH_SEED})"))),
            ("ids", Value::from(format!("shuffled({})", run.seed))),
            ("n", Value::from(inst.n())),
            ("m", Value::from(inst.graph.m())),
            ("lower_bound", Value::from(lb)),
            ("radii", Value::Arr(vec![Value::from(RADII.0), Value::from(RADII.1)])),
            ("fault", Value::from(fault(run.seed).to_string())),
        ]),
    );
    Setup { inst, lb, setup_s, gen_ms }
}

fn fault(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        drop: DropPolicy::Bernoulli { per_mille: DROP_PER_MILLE },
        ..Default::default()
    }
}

fn config(runtime: &str, seed: u64) -> SolveConfig {
    let cfg = SolveConfig::mds().radii(Radii::practical(RADII.0, RADII.1));
    match runtime {
        "oracle" => cfg.mode(ExecutionMode::LOCAL_ORACLE),
        "message-passing" => cfg.mode(ExecutionMode::LOCAL_MESSAGE_PASSING),
        "faulty" => cfg.mode(ExecutionMode::LOCAL_FAULTY).fault(fault(seed)),
        other => unreachable!("no runtime {other}"),
    }
}

/// What one sweep produced.
struct Sweep {
    /// Σ cell times (ms), raw and scaled to the reference machine cell
    /// by cell: a sweep outlasts the machine's fast and slow spells.
    raw_ms: f64,
    normalized_ms: f64,
    /// Per cell; a failed solve yields `None`.
    outs: Vec<Option<CellOut>>,
}

/// Runs the cells of one sweep, span-wrapped when traced.
fn sweep(
    run: &mut Run,
    registry: &SolverRegistry,
    inst: &Instance,
    mut tracer: Option<&mut Tracer>,
) -> Sweep {
    let (mut raw_ms, mut normalized_ms) = (0.0, 0.0);
    let mut outs = Vec::new();
    for (solver, runtime) in CELLS {
        let cfg = config(runtime, run.seed);
        let t = Instant::now();
        let result = match tracer.as_deref_mut() {
            Some(tr) => {
                tr.span(&span_name(solver, runtime), |_| registry.solve(solver, inst, &cfg))
            }
            None => registry.solve(solver, inst, &cfg),
        };
        let ms = stats::ms(t.elapsed());
        raw_ms += ms;
        normalized_ms += run.calib.normalize(ms);
        outs.push(match result {
            Ok(sol) => {
                // Fault-free cells must verify; the faulty cells are
                // checked against their pin instead (drops may degrade).
                if runtime != "faulty" {
                    let verified = sol.verify(inst);
                    run.check(verified.is_ok(), || {
                        format!("local-sim: {solver} on {runtime}: {verified:?}")
                    });
                }
                Some(CellOut {
                    bits: sol.messages.as_ref().and_then(|m| m.total_message_bits()),
                    rounds: sol.rounds,
                    fault: sol.fault,
                    vertices: sol.vertices,
                })
            }
            Err(e) => {
                run.check(false, || format!("local-sim: {solver} on {runtime} failed: {e}"));
                None
            }
        });
    }
    Sweep { raw_ms, normalized_ms, outs }
}

fn span_name(solver: &str, runtime: &str) -> String {
    format!("localsim.{}.{runtime}", solver.replace('/', "-"))
}

/// Checks a sweep: oracle and message-passing outputs are bit-identical
/// per solver, and every cell repeats the pinned sweep exactly.
fn check_sweep(run: &mut Run, outs: &[Option<CellOut>], pinned: &mut Option<Vec<Option<CellOut>>>) {
    for solver in 0..2 {
        let (oracle, mp) = (&outs[3 * solver], &outs[3 * solver + 1]);
        let same = oracle
            .as_ref()
            .zip(mp.as_ref())
            .is_some_and(|(o, m)| o.vertices == m.vertices && o.rounds == m.rounds);
        run.check(same, || {
            format!("local-sim: {} oracle and message-passing differ", CELLS[3 * solver].0)
        });
    }
    if pinned.is_none() {
        let sum = checksum(outs);
        if let Some(&(_, want)) = PINS.iter().find(|(s, _)| *s == run.seed).filter(|_| !run.smoke) {
            run.check(sum == want, || {
                format!("local-sim: sweep checksum {sum:016x}, pinned {want:016x}")
            });
        }
        run.note("local_sweep_checksum", Value::from(format!("{sum:016x}")));
        *pinned = Some(outs.to_vec());
        return;
    }
    let reference = pinned.as_ref().expect("pinned above");
    for (k, (got, want)) in outs.iter().zip(reference).enumerate() {
        run.check(got == want, || {
            format!("local-sim: {} on {} drifted from the pinned sweep", CELLS[k].0, CELLS[k].1)
        });
    }
}

/// FNV-1a over the sweep's outputs.
fn checksum(outs: &[Option<CellOut>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for out in outs {
        let Some(c) = out else {
            eat(u64::MAX);
            continue;
        };
        eat(c.vertices.len() as u64);
        c.vertices.iter().for_each(|&v| eat(v as u64));
        eat(c.rounds.map_or(u64::MAX, u64::from));
        eat(c.bits.unwrap_or(u64::MAX));
        if let Some(f) = &c.fault {
            eat(f.messages_dropped);
            eat(f.crashed.len() as u64);
            eat(f.silent.len() as u64);
            eat(u64::from(f.max_staleness));
        }
    }
    h
}

/// Σ rounds over the sweep's cells and Σ measured message bits.
fn work(outs: &[Option<CellOut>]) -> (f64, f64) {
    let cells = outs.iter().flatten();
    let rounds: u64 = cells.clone().map(|c| u64::from(c.rounds.unwrap_or(0))).sum();
    let bits: u64 = cells.map(|c| c.bits.unwrap_or(0)).sum();
    (rounds as f64, bits as f64)
}

pub fn measure(run: &mut Run, seconds: Duration) {
    let s = setup(run);
    run.e2e("setup_s", stats::median(&s.setup_s));
    let registry = SolverRegistry::with_defaults();
    let mut pinned = None;
    let first = sweep(run, &registry, &s.inst, None);
    check_sweep(run, &first.outs, &mut pinned);
    let deadline = Instant::now() + seconds;
    let (mut raw, mut times) = (Vec::new(), Vec::new());
    while times.is_empty() || Instant::now() < deadline {
        let swept = sweep(run, &registry, &s.inst, None);
        raw.push(swept.raw_ms);
        times.push(swept.normalized_ms);
        check_sweep(run, &swept.outs, &mut pinned);
    }
    run.note("local_sweeps", Value::from(times.len()));
    run.note("raw_op_p50_ms", Value::from(stats::median(&raw)));
    run.e2e("op_p50_ms", stats::median(&times));
    run.e2e("ops_per_s", times.len() as f64 / (times.iter().sum::<f64>() / 1e3));
    let alg1 = pinned.as_ref().and_then(|p| p[0].as_ref()).map_or(0, |c| c.vertices.len());
    run.e2e("size_ratio_lb", alg1 as f64 / s.lb.max(1) as f64);
}

pub fn trace(run: &mut Run, tracer: &mut Tracer, budget: Budget, own: bool) {
    let s = setup(run);
    if own {
        run.layer_median("gen.instance_ms", &s.gen_ms);
    }
    let registry = SolverRegistry::with_defaults();
    let centralized = SolveConfig::mds().radii(Radii::practical(RADII.0, RADII.1));
    let mut pinned = None;
    let first = sweep(run, &registry, &s.inst, None);
    check_sweep(run, &first.outs, &mut pinned);
    let (rounds, bits) = work(&first.outs);
    run.layer("localsim.rounds", rounds);
    run.layer("localsim.message_bits", bits);

    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut iters = 0;
    while budget.more(iters) {
        tracer.next_iter();
        if own {
            let swept = sweep(run, &registry, &s.inst, None);
            untraced.push(swept.raw_ms);
            check_sweep(run, &swept.outs, &mut pinned);
        }
        let swept = tracer.span("localsim.sweep", |tr| sweep(run, &registry, &s.inst, Some(tr)));
        traced.push(swept.raw_ms);
        check_sweep(run, &swept.outs, &mut pinned);
        let result = tracer.span("localsim.centralized", |_| {
            registry.solve("mds/algorithm1", &s.inst, &centralized)
        });
        run.check(result.is_ok_and(|sol| sol.verify(&s.inst).is_ok()), || {
            "local-sim: centralized mds/algorithm1 failed verification".into()
        });
        iters += 1;
    }

    let med = |name: &str| stats::median(&tracer.self_ms(name));
    let oracle = med(&span_name("mds/algorithm1", "oracle"));
    let central = med("localsim.centralized");
    run.layer("localsim.oracle_ms", oracle);
    run.layer("localsim.message_passing_ms", med(&span_name("mds/algorithm1", "message-passing")));
    run.layer("localsim.faulty_ms", med(&span_name("mds/algorithm1", "faulty")));
    let thm44: f64 = ["oracle", "message-passing", "faulty"]
        .iter()
        .map(|r| med(&span_name("mds/theorem44", r)))
        .sum();
    run.layer("localsim.thm44_ms", thm44);
    run.layer("localsim.centralized_ms", central);
    run.layer("localsim.overhead_ratio", oracle / central.max(f64::MIN_POSITIVE));
    if own {
        let base = stats::median(&untraced);
        run.layer("trace.overhead_pct", (stats::median(&traced) - base) / base * 100.0);
    }
}
