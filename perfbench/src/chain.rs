//! `chain-solve`: repeated centralized registry `mds/algorithm1` solves
//! of the chain instance `scale_instance(≈10⁵, seed)` at radii (3, 4) —
//! the paper's whole pipeline on a K_{2,t}-minor-free instance large
//! enough that the sharded phases run and residual solves happen.

use crate::trace::Tracer;
use crate::{stats, Budget, Run};
use lmds_api::{Instance, Solution, SolveConfig, SolverRegistry};
use lmds_core::algorithm1::{pipeline_state, residual_components, solve_component};
use lmds_core::{algorithm1_with, local_cuts, PipelineOptions, Radii};
use lmds_graph::{InducedSubgraph, Scratch};
use lmds_serve::json::Value;
use std::time::{Duration, Instant};

const N: usize = 100_000;
const SMOKE_N: usize = 3_000;
const RADII: (u32, u32) = (3, 4);
const KEY: &str = "mds/algorithm1";
const SETUP_REPEATS: usize = 7;

/// `|S|` per seed at full size, recorded from the code this benchmark
/// was defined on. A solve whose size differs counts as failed: a
/// faster configuration must not return a different set unnoticed.
/// Seeds outside the table are pinned to the run's first solve.
const PINS: &[(u64, usize)] = &[
    (0, 25538),
    (1, 25640),
    (2, 25575),
    (3, 25493),
    (4, 25616),
    (5, 25535),
    (6, 25585),
    (7, 25549),
    (8, 25533),
    (9, 25642),
    (10, 25541),
    (11, 25526),
    (12, 25655),
    (13, 25527),
    (14, 25488),
    (15, 25612),
    (16, 25524),
    (17, 25660),
    (18, 25559),
    (19, 25601),
    (20, 25530),
    (21, 25533),
    (22, 25512),
    (23, 25582),
    (24, 25458),
    (25, 25552),
    (26, 25572),
    (27, 25504),
    (28, 25482),
    (29, 25593),
    (30, 25608),
    (31, 25445),
];

struct Setup {
    inst: Instance,
    lb: usize,
    setup_s: Vec<f64>,
    gen_ms: Vec<f64>,
    lb_ms: Vec<f64>,
}

/// Generates the instance and its lower bound `SETUP_REPEATS` times
/// (set-up time is reported as a median) and keeps the last copy.
fn setup(run: &mut Run) -> Setup {
    let n = if run.smoke { SMOKE_N } else { N };
    let (mut setup_s, mut gen_ms, mut lb_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    run.calib.sample();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let g = lmds_gen::ding::scale_instance(n, run.seed);
        let t1 = Instant::now();
        let inst = Instance::sequential(format!("chain{n}"), g);
        let t2 = Instant::now();
        let lb = lmds_graph::dominating::mds_lower_bound(&inst.graph);
        let t3 = Instant::now();
        setup_s.push(run.calib.normalize(t3.duration_since(t0).as_secs_f64()));
        gen_ms.push(stats::ms(t1 - t0));
        lb_ms.push(stats::ms(t3 - t2));
        last = Some((inst, lb));
    }
    let (inst, lb) = last.expect("at least one set-up repeat");
    run.note(
        "chain_instance",
        Value::obj([
            ("generator", Value::from(format!("scale_instance({n}, {})", run.seed))),
            ("n", Value::from(inst.n())),
            ("m", Value::from(inst.graph.m())),
            ("lower_bound", Value::from(lb)),
            ("radii", Value::Arr(vec![Value::from(RADII.0), Value::from(RADII.1)])),
        ]),
    );
    Setup { inst, lb, setup_s, gen_ms, lb_ms }
}

fn radii() -> Radii {
    Radii::practical(RADII.0, RADII.1)
}

/// Checks one solve: it succeeded, verifies against the instance, and
/// has the pinned size. The first checked solve fixes the pin for
/// seeds the table does not cover.
fn check_solve(
    run: &mut Run,
    inst: &Instance,
    result: Result<Solution, lmds_api::SolveError>,
    pin: &mut Option<usize>,
) {
    let sol = match result {
        Ok(sol) => sol,
        Err(e) => {
            run.check(false, || format!("chain-solve: {KEY} failed: {e}"));
            return;
        }
    };
    if pin.is_none() && !run.smoke {
        *pin = PINS.iter().find(|(s, _)| *s == run.seed).map(|&(_, size)| size);
    }
    let expected = *pin.get_or_insert(sol.size());
    let verified = sol.verify(inst);
    run.check(verified.is_ok() && sol.size() == expected, || {
        format!("chain-solve: |S| = {} (pinned {expected}), verify: {verified:?}", sol.size())
    });
}

pub fn measure(run: &mut Run, seconds: Duration) {
    let s = setup(run);
    run.e2e("setup_s", stats::median(&s.setup_s));
    let registry = SolverRegistry::with_defaults();
    let cfg = SolveConfig::mds().radii(radii());
    let mut pin = None;
    // Warm-up: thread-local engines and scratch grow to size here.
    check_solve(run, &s.inst, registry.solve(KEY, &s.inst, &cfg), &mut pin);
    let deadline = Instant::now() + seconds;
    let (mut raw, mut times) = (Vec::new(), Vec::new());
    run.calib.sample();
    while times.is_empty() || Instant::now() < deadline {
        let t = Instant::now();
        let result = registry.solve(KEY, &s.inst, &cfg);
        let ms = stats::ms(t.elapsed());
        raw.push(ms);
        times.push(run.calib.normalize(ms));
        check_solve(run, &s.inst, result, &mut pin);
    }
    run.note("chain_solves", Value::from(times.len()));
    run.note("raw_op_p50_ms", Value::from(stats::median(&raw)));
    run.e2e("op_p50_ms", stats::median(&times));
    run.e2e("ops_per_s", times.len() as f64 / (times.iter().sum::<f64>() / 1e3));
    let size = pin.unwrap_or(0);
    run.note("chain_size", Value::from(size));
    run.e2e("size_ratio_lb", size as f64 / s.lb.max(1) as f64);
}

/// The traced pass. Each iteration runs the registry solve, then the
/// same pipeline again phase by phase through the layers' public
/// functions, so every phase gets its own span.
pub fn trace(run: &mut Run, tracer: &mut Tracer, budget: Budget, own: bool) {
    let s = setup(run);
    if own {
        run.layer_median("gen.instance_ms", &s.gen_ms);
    }
    run.layer_median("graph.lower_bound_ms", &s.lb_ms);
    let registry = SolverRegistry::with_defaults();
    let cfg = SolveConfig::mds().radii(radii());
    let radii = radii();
    let inst = &s.inst;
    let g = &inst.graph;
    let ids: Vec<u64> = g.vertices().map(|v| inst.ids.id_of(v)).collect();
    let mut pin = None;
    check_solve(run, inst, registry.solve(KEY, inst, &cfg), &mut pin);

    let mut untraced = Vec::new();
    let mut iters = 0;
    while budget.more(iters) {
        tracer.next_iter();
        if own {
            // Alternating untraced solves measure what tracing costs.
            let t = Instant::now();
            let result = registry.solve(KEY, inst, &cfg);
            untraced.push(stats::ms(t.elapsed()));
            check_solve(run, inst, result, &mut pin);
        }
        let result = tracer.span("chain.solve", |_| registry.solve(KEY, inst, &cfg));
        if let Ok(sol) = &result {
            tracer.span("api.certificate", |_| std::hint::black_box(sol.verify(inst).is_ok()));
        }
        check_solve(run, inst, result, &mut pin);
        tracer.span("core.algorithm1", |_| {
            algorithm1_with(g, &inst.ids, radii, PipelineOptions::default())
        });
        let state = tracer.span("core.pipeline_state", |_| pipeline_state(g, &ids, radii));

        // The phases of `pipeline_state`, one call each.
        let classes = tracer.span("graph.twins", |_| lmds_graph::twins::twin_classes(g));
        let mut kept: Vec<usize> = classes
            .iter()
            .map(|c| *c.iter().min_by_key(|&&v| ids[v]).expect("twin classes are nonempty"))
            .collect();
        kept.sort_unstable();
        let reduced = tracer.span("graph.quotient", |_| InducedSubgraph::new(g, &kept));
        let rg = &reduced.graph;
        let x = tracer.span("core.x_sweep", |_| {
            local_cuts::with_thread_engine(|e| e.one_cut_mask(rg, radii.one_cut))
        });
        let i = tracer.span("core.i_sweep", |_| {
            local_cuts::with_thread_engine(|e| e.interesting_mask(rg, radii.two_cut))
        });
        run.check(x == state.x && i == state.i, || {
            "chain-solve: phase-by-phase X/I masks differ from pipeline_state".into()
        });

        let comps = tracer.span("core.residual_components", |_| residual_components(&state));
        for comp in &comps {
            tracer.span("core.residual_solve", |_| solve_component(&state, &ids, comp));
        }
        if iters == 0 {
            let count = |m: &[bool]| m.iter().filter(|&&b| b).count() as f64;
            run.layer("core.x_count", count(&state.x));
            run.layer("core.i_count", count(&state.i));
            run.layer("core.u_count", count(&state.u));
            run.layer("core.residual_count", comps.len() as f64);
            run.layer("core.residual_max", comps.iter().map(Vec::len).max().unwrap_or(0) as f64);
            run.layer("graph.quotient_kept_ratio", rg.n() as f64 / g.n().max(1) as f64);
            pair_census(run, tracer, rg, radii.two_cut);
        }
        iters += 1;
    }

    let med = |name: &str| {
        let v = tracer.self_ms(name);
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    let solve = med("chain.solve");
    let alg1 = med("core.algorithm1");
    let state = med("core.pipeline_state");
    let phases = ["graph.twins", "graph.quotient", "core.x_sweep", "core.i_sweep"];
    for (name, metric) in phases.iter().zip([
        "graph.twins_ms",
        "graph.quotient_ms",
        "core.x_sweep_ms",
        "core.i_sweep_ms",
    ]) {
        run.layer(metric, med(name));
    }
    let residual_components = med("core.residual_components");
    let residual_solve = med("core.residual_solve");
    run.layer("chain.solve_ms", solve);
    run.layer("core.algorithm1_ms", alg1);
    run.layer("core.pipeline_state_ms", state);
    run.layer("api.certificate_ms", med("api.certificate"));
    run.layer("core.residual_components_ms", residual_components);
    run.layer("core.residual_solve_ms", residual_solve);
    run.layer_median("core.residual_solve_max_ms", &tracer.max_ms("core.residual_solve"));
    // Derived: what the separately timed phases leave of their parent.
    let phase_sum: f64 = phases.iter().map(|p| med(p)).sum();
    run.layer("core.masks_ms", state - phase_sum);
    run.layer("api.overhead_ms", solve - alg1);
    run.layer("chain.unaccounted_ms", alg1 - (state + residual_components + residual_solve));
    run.layer("chain.i_sweep_share", med("core.i_sweep") / solve.max(f64::MIN_POSITIVE));
    if own {
        let base = stats::median(&untraced);
        run.layer("trace.overhead_pct", (solve - base) / base * 100.0);
    }
}

/// The pair sweep's work, counted once per run: Σ|N^r[v]| over the
/// quotient, the candidate pairs `{u, v}` with `v ∈ N^r[u]`, `v > u`,
/// and how many of them are local minimal 2-cuts.
fn pair_census(run: &mut Run, tracer: &mut Tracer, rg: &lmds_graph::Graph, r: u32) {
    let (entries, candidates) = tracer.span("core.ball_census", |_| {
        let mut scratch = Scratch::new();
        scratch.reserve(rg.n());
        let mut ball = Vec::new();
        let (mut entries, mut candidates) = (0usize, 0usize);
        for u in rg.vertices() {
            lmds_graph::bfs::ball_of_set_into(rg, &mut scratch, &[u], r, &mut ball);
            entries += ball.len();
            candidates += ball.iter().filter(|&&v| v > u).count();
        }
        (entries, candidates)
    });
    let cuts = tracer
        .span("core.cut_census", |_| local_cuts::with_thread_engine(|e| e.two_cuts(rg, r).len()));
    run.layer("core.ball_entries", entries as f64);
    run.layer("core.candidate_pairs", candidates as f64);
    run.layer("core.cut_pairs", cuts as f64);
    run.layer("core.cut_pair_ratio", cuts as f64 / candidates.max(1) as f64);
}
