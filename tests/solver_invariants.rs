//! Solver invariants over a deterministic corpus: every registry solver
//! must (1) return a feasible set on every family, (2) respect the
//! paper's approximation bound wherever the theory states one — checked
//! against the exact reference solvers on small instances — and
//! (3) be representation-independent: a graph bulk-built into CSR and
//! the same graph assembled through the incremental mutation path must
//! produce byte-identical solutions (the CSR-port parity contract), and
//! repeated solves through one thread's warmed scratch pool must not
//! drift.

use lmds_api::{
    BatchJob, BatchRunner, CrashPolicy, DropPolicy, ExecutionMode, FaultConfig, IdPolicy, Instance,
    RuntimeKind, SolveConfig, SolveError, SolverRegistry,
};
use lmds_asdim::ControlFunction;
use lmds_core::Radii;
use lmds_gen::ding::AugmentationSpec;
use lmds_graph::{canonical_set, Graph};

const RADII: Radii = Radii { one_cut: 2, two_cut: 2 };
const AFFINE: ControlFunction = ControlFunction::Affine { a: 1, b: 1, dim: 1 };
const BUDGET: u64 = 50_000_000;

/// Which structural family a corpus instance belongs to — the paper's
/// ratio bounds are per-family (per excluded minor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// `K_3`-minor-free (also `K_{2,2}`-minor-free): folklore ratio 3,
    /// Theorem 4.4 at t = 2.
    Tree,
    /// 2-regular; the regular-graph MVC folklore bound applies.
    Cycle,
    /// `K_4`- and `K_{2,3}`-minor-free: Theorem 4.4 at t = 3.
    Outerplanar,
    /// Ding-style composites (fans/strips/augmentations).
    Ding,
    /// Adversarial gadgets (clique+pendants, subdivided `K_{2,t}`).
    Adversarial,
}

fn corpus() -> Vec<(Family, Instance)> {
    let mut out: Vec<(Family, Instance)> = vec![
        (Family::Tree, Instance::shuffled("path10", lmds_gen::basic::path(10), 1)),
        (Family::Tree, Instance::shuffled("star6", lmds_gen::basic::star(6), 2)),
        (Family::Tree, Instance::shuffled("broom", lmds_gen::trees::broom(5, 3), 3)),
        (Family::Tree, Instance::shuffled("caterpillar", lmds_gen::basic::caterpillar(5, 2), 4)),
        (Family::Cycle, Instance::shuffled("cycle9", lmds_gen::basic::cycle(9), 5)),
        (Family::Cycle, Instance::shuffled("cycle12", lmds_gen::basic::cycle(12), 6)),
        (Family::Ding, Instance::shuffled("strip6", lmds_gen::ding::strip(6), 7)),
        (Family::Ding, Instance::shuffled("fan5", lmds_gen::ding::fan(5), 8)),
        (
            Family::Adversarial,
            Instance::shuffled(
                "clique_pendants6",
                lmds_gen::adversarial::clique_with_pendants(6),
                9,
            ),
        ),
        (
            Family::Adversarial,
            Instance::shuffled("subdivided_k2t4", lmds_gen::adversarial::subdivided_k2t(4), 10),
        ),
        (Family::Adversarial, Instance::shuffled("c6", lmds_gen::adversarial::c6(), 11)),
    ];
    for seed in 0..3u64 {
        out.push((
            Family::Tree,
            Instance::shuffled(
                format!("tree_s{seed}"),
                lmds_gen::trees::random_tree(16, seed),
                seed,
            ),
        ));
        out.push((
            Family::Outerplanar,
            Instance::shuffled(
                format!("outerplanar_s{seed}"),
                lmds_gen::outerplanar::random_maximal_outerplanar(12, seed),
                seed,
            ),
        ));
        out.push((
            Family::Ding,
            Instance::shuffled(
                format!("augmentation_s{seed}"),
                AugmentationSpec::standard(4, 1, 1, seed).generate(),
                seed,
            ),
        ));
    }
    out
}

fn config_for(registry: &SolverRegistry, key: &str) -> SolveConfig {
    let solver = registry.get(key).expect("registered");
    let mut cfg = SolveConfig::new(solver.descriptor().problem).radii(RADII).opt_budget(BUDGET);
    if key == "mds/algorithm2" {
        cfg = cfg.control(AFFINE);
    }
    cfg
}

/// The exact optimum for the solver's problem (reference solvers).
fn optimum(registry: &SolverRegistry, key: &str, inst: &Instance) -> usize {
    let exact_key = if key.starts_with("mds") { "mds/exact" } else { "mvc/exact" };
    registry
        .solve(exact_key, inst, &config_for(registry, exact_key))
        .unwrap_or_else(|e| panic!("{exact_key} on {}: {e}", inst.name))
        .size()
}

#[test]
fn every_solver_is_feasible_on_the_whole_corpus() {
    let registry = SolverRegistry::with_defaults();
    let keys = registry.keys();
    assert_eq!(keys.len(), 10, "the 10 stable registry solvers: {keys:?}");
    for (_, inst) in corpus() {
        for &key in &keys {
            let cfg = config_for(&registry, key);
            let sol = registry
                .solve(key, &inst, &cfg)
                .unwrap_or_else(|e| panic!("{key} on {}: {e}", inst.name));
            // The full certificate recheck (feasibility, canonical
            // form, optimum consistency) instead of a bare predicate.
            sol.verify(&inst).unwrap_or_else(|e| panic!("{key} on {}: {e}", inst.name));
            assert!(sol.size() <= inst.n(), "{key} on {}: oversized", inst.name);
        }
    }
}

#[test]
fn paper_ratio_bounds_hold_against_the_exact_solvers() {
    let registry = SolverRegistry::with_defaults();
    for (family, inst) in corpus() {
        // Per-(solver, family) bounds the paper actually states.
        let mut checks: Vec<(&str, usize, &str)> = Vec::new();
        let max_deg = inst.graph.vertices().map(|v| inst.graph.degree(v)).max().unwrap_or(0);
        // Table 1, K_{1,t} row: take-all is a (Δ+1)-approximation.
        checks.push(("mds/take-all", max_deg + 1, "Δ+1 (Table 1, K1,t row)"));
        match family {
            Family::Tree => {
                checks.push(("mds/trees-folklore", 3, "Table 1, trees row"));
                checks.push(("mds/theorem44", 3, "Thm 4.4 at t=2: 2t−1"));
                checks.push(("mvc/theorem44", 2, "Thm 4.4 MVC at t=2"));
            }
            Family::Outerplanar => {
                checks.push(("mds/theorem44", 5, "Thm 4.4 at t=3: 2t−1"));
                checks.push(("mvc/theorem44", 3, "Thm 4.4 MVC at t=3"));
            }
            Family::Cycle => {
                checks.push(("mvc/regular-take-all", 2, "folklore, regular graphs"));
                checks.push(("mds/algorithm1", 50, "Thm 4.1 constant"));
            }
            Family::Ding | Family::Adversarial => {}
        }
        for (key, factor, why) in checks {
            let opt = optimum(&registry, key, &inst);
            let sol = registry
                .solve(key, &inst, &config_for(&registry, key))
                .unwrap_or_else(|e| panic!("{key} on {}: {e}", inst.name));
            assert!(
                sol.size() <= factor * opt.max(1),
                "{key} on {} ({family:?}): |S|={} > {factor}·opt={} [{why}]",
                inst.name,
                sol.size(),
                factor * opt.max(1),
            );
        }
    }
}

/// The runtime-equivalence contract: for every distributed registry
/// solver, the two engines — message passing and the oracle — must
/// produce bit-identical outputs, identical round counts, and identical
/// decided-at histograms — under the instance's own ids and under every
/// scenario id policy — and only message passing may claim measured
/// bits.
#[test]
fn distributed_backends_are_bit_identical_across_id_policies() {
    let registry = SolverRegistry::with_defaults();
    let policies: [Option<IdPolicy>; 4] = [
        None, // the instance's own (shuffled) assignment
        Some(IdPolicy::Sequential),
        Some(IdPolicy::Shuffled { seed: 7 }),
        Some(IdPolicy::Adversarial { seed: 7 }),
    ];
    for (_, inst) in corpus().into_iter().step_by(3) {
        for &key in &registry.keys() {
            let solver = registry.get(key).expect("registered");
            if !solver.descriptor().modes.contains(&ExecutionMode::LOCAL_ORACLE) {
                continue; // centralized-only (exact baselines)
            }
            for policy in policies {
                let mut reference = None;
                for kind in RuntimeKind::ALL {
                    // An explicitly present but *inert* fault plan (the
                    // seed alone injects nothing) must be accepted by
                    // both kinds and leave the bit-identity contract
                    // untouched: message passing reads the plan, and its
                    // zero-fault path is the plain loop verbatim.
                    let mut cfg = config_for(&registry, key)
                        .mode(ExecutionMode::Local(kind))
                        .fault(FaultConfig { seed: 5, ..FaultConfig::default() });
                    if let Some(p) = policy {
                        cfg = cfg.id_policy(p);
                    }
                    let sol = registry
                        .solve(key, &inst, &cfg)
                        .unwrap_or_else(|e| panic!("{key} {kind} on {}: {e}", inst.name));
                    sol.verify(&inst).unwrap_or_else(|e| {
                        panic!("{key} {kind} on {} {policy:?}: {e}", inst.name)
                    });
                    let stats = sol.messages.clone().expect("distributed runs carry stats");
                    assert_eq!(
                        kind.measures_messages(),
                        stats.accounting.is_measured(),
                        "{key} {kind} on {}",
                        inst.name
                    );
                    assert_eq!(
                        stats.decided_at.iter().sum::<usize>(),
                        inst.n(),
                        "{key} {kind} on {}: histogram must cover every vertex",
                        inst.name
                    );
                    let profile = (sol.vertices.clone(), sol.rounds, stats.decided_at);
                    match &reference {
                        None => reference = Some(profile),
                        Some(r) => assert_eq!(
                            r, &profile,
                            "{key} on {} under {policy:?}: {kind} diverges",
                            inst.name
                        ),
                    }
                }
            }
        }
    }
}

/// Validity is id-independent, but the chosen set may differ between
/// policies — the adversarial policy exists to exercise exactly that.
/// On a twin-rich graph (a clique: every vertex is a true twin) the
/// twin reduction keeps exactly the minimum-id vertex, so the policy
/// knob must be visible in the output (otherwise it is dead).
#[test]
fn adversarial_policy_changes_some_solution() {
    let registry = SolverRegistry::with_defaults();
    let mut differs = false;
    for seed in 0..8u64 {
        let inst = Instance::sequential(format!("k6_s{seed}"), lmds_gen::basic::complete(6));
        let base = config_for(&registry, "mds/theorem44").mode(ExecutionMode::LOCAL_ORACLE);
        let seq = registry
            .solve("mds/theorem44", &inst, &base.clone().id_policy(IdPolicy::Sequential))
            .expect("sequential run");
        let adv = registry
            .solve("mds/theorem44", &inst, &base.id_policy(IdPolicy::Adversarial { seed }))
            .expect("adversarial run");
        assert!(seq.is_valid() && adv.is_valid(), "{}", inst.name);
        assert_eq!(seq.vertices, vec![0], "sequential ids keep vertex 0 of the clique");
        if seq.vertices != adv.vertices {
            differs = true;
        }
    }
    assert!(differs, "the adversarial id policy never changed an outcome");
}

#[test]
fn exact_solvers_are_minimum_among_all_solvers() {
    let registry = SolverRegistry::with_defaults();
    for (_, inst) in corpus() {
        for exact_key in ["mds/exact", "mvc/exact"] {
            let opt = optimum(&registry, exact_key, &inst);
            let prefix = &exact_key[..3];
            for &key in &registry.keys() {
                if !key.starts_with(prefix) {
                    continue;
                }
                let sol = registry
                    .solve(key, &inst, &config_for(&registry, key))
                    .unwrap_or_else(|e| panic!("{key} on {}: {e}", inst.name));
                assert!(
                    sol.size() >= opt,
                    "{key} on {}: beat the exact optimum ({} < {opt})",
                    inst.name,
                    sol.size(),
                );
            }
        }
    }
}

/// Rebuilds `g` through the incremental mutation path (`Graph::new` +
/// `add_edge` in reverse edge order, exercising the CSR row splicing)
/// instead of the bulk counting-sort constructor.
fn rebuild_incrementally(g: &Graph) -> Graph {
    let mut h = Graph::new(g.n());
    let mut edges: Vec<(usize, usize)> = g.edges().collect();
    edges.reverse();
    for (u, v) in edges {
        assert!(h.add_edge(v, u), "edge {u},{v} inserted twice");
    }
    h
}

#[test]
fn representation_parity_bulk_vs_incremental_build() {
    let registry = SolverRegistry::with_defaults();
    for (_, inst) in corpus() {
        let rebuilt = rebuild_incrementally(&inst.graph);
        assert_eq!(rebuilt, inst.graph, "{}: CSR splice path diverged from bulk build", inst.name);
        let inst2 = Instance::new(inst.name.clone(), rebuilt, inst.ids.clone());
        for &key in &registry.keys() {
            let cfg = config_for(&registry, key);
            let a = registry.solve(key, &inst, &cfg).expect("bulk");
            let b = registry.solve(key, &inst2, &cfg).expect("incremental");
            assert_eq!(
                a.vertices, b.vertices,
                "{key} on {}: solution depends on how the graph was built",
                inst.name
            );
        }
    }
}

#[test]
fn warmed_scratch_pool_never_changes_solutions() {
    // Solving the same corpus twice on one thread: the second pass runs
    // entirely on the warmed thread-local scratch (and on scratches that
    // served *other* graphs in between). Any stale-epoch bug shows up as
    // a diverging vertex set.
    let registry = SolverRegistry::with_defaults();
    let sweep = || -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for (_, inst) in corpus() {
            for key in registry.keys() {
                out.push(
                    registry
                        .solve(key, &inst, &config_for(&registry, key))
                        .expect("solve")
                        .vertices,
                );
            }
        }
        out
    };
    assert_eq!(sweep(), sweep());
}

#[test]
fn batch_runner_matches_direct_solves() {
    // The per-worker scratch pools of the batch engine must be
    // invisible: every (job × instance) cell equals the direct call.
    let registry = SolverRegistry::with_defaults();
    let instances: Vec<Instance> = corpus().into_iter().take(5).map(|(_, i)| i).collect();
    let jobs: Vec<BatchJob> = registry
        .keys()
        .into_iter()
        .map(|key| BatchJob::new(key, config_for(&registry, key)))
        .collect();
    for rec in BatchRunner::new().run(&registry, &jobs, &instances) {
        let sol = rec.result.unwrap_or_else(|e| panic!("{}/{}: {e}", rec.solver, rec.instance));
        let inst = instances.iter().find(|i| i.name == rec.instance).expect("known instance");
        let direct = registry
            .solve(&rec.solver, inst, &config_for(&registry, &rec.solver))
            .expect("direct solve");
        assert_eq!(sol.vertices, direct.vertices, "{}/{}", rec.solver, rec.instance);
    }
}

/// Both runtime kinds survive the Display → FromStr round trip, and the
/// parser rejects junk, and the retired aliases, with a message listing
/// the valid names.
#[test]
fn runtime_kind_strings_round_trip() {
    let shown: Vec<String> = RuntimeKind::ALL.iter().map(|k| k.to_string()).collect();
    assert_eq!(shown, ["message-passing", "oracle"]);
    for kind in RuntimeKind::ALL {
        let back: RuntimeKind = kind.to_string().parse().unwrap_or_else(|e| {
            panic!("{kind} did not round-trip: {e}");
        });
        assert_eq!(back, kind);
    }
    let err = "flaky".parse::<RuntimeKind>().unwrap_err().to_string();
    assert!(err.contains("message-passing, oracle"), "the parse error lists valid kinds: {err}");
    for retired in ["faulty", "sharded-oracle"] {
        assert!(retired.parse::<RuntimeKind>().is_err(), "{retired}");
    }
}

/// The `local-sim` benchmark instance, pinned: the augmentation behind
/// `large_augmentation(520, 11)` (n = 535) with ids shuffled by seed 3,
/// at radii (2, 2), on message passing and under seed 3's 50‰ Bernoulli
/// drop plan. Set size, rounds, total and largest message bits and the
/// drop count are those of the sorted-list views the block knowledge
/// replaced, so a flood that learns more or less than the views did
/// moves a number here.
#[test]
fn local_sim_instance_is_pinned() {
    let spec = AugmentationSpec {
        base_n: 10,
        base_density_percent: 30,
        fans: 4,
        fan_len: (8, 16),
        strips: 520 / 120,
        strip_len: (55, 65),
        seed: 11,
    };
    let inst = Instance::shuffled("aug520", spec.generate(), 3);
    assert_eq!(inst.n(), 535);
    let registry = SolverRegistry::with_defaults();
    let plan = FaultConfig {
        seed: 3,
        drop: DropPolicy::Bernoulli { per_mille: 50 },
        ..Default::default()
    };
    // (solver, fault plan, |S|, rounds, total bits, max bits, dropped)
    let pins = [
        ("mds/algorithm1", None, 478, 11, 29_148_880, 8_410, 0),
        ("mds/algorithm1", Some(plan), 478, 11, 28_115_630, 8_210, 862),
        ("mvc/algorithm1", None, 517, 10, 23_369_660, 7_770, 0),
        ("mvc/algorithm1", Some(plan), 517, 10, 22_535_660, 7_610, 769),
    ];
    for (key, fault, size, rounds, total, max, dropped) in pins {
        let cfg = config_for(&registry, key)
            .mode(ExecutionMode::LOCAL_MESSAGE_PASSING)
            .fault(fault.unwrap_or_default());
        let sol = registry.solve(key, &inst, &cfg).unwrap_or_else(|e| panic!("{key}: {e}"));
        let stats = sol.messages.as_ref().expect("message passing carries stats");
        let report = sol.fault.clone().unwrap_or_default();
        assert_eq!(
            (sol.size(), sol.rounds, stats.total_message_bits(), stats.max_message_bits()),
            (size, Some(rounds), Some(total), Some(max)),
            "{key} under {fault:?}"
        );
        assert_eq!(
            (report.messages_dropped, report.crashed.len(), report.max_staleness),
            (dropped, 0, 0),
            "{key} under {fault:?}"
        );
    }
}

/// Satellite regression: a crash-stalled fault run that trips an
/// explicit round cap must surface the accumulated [`lmds_api::FaultReport`]
/// on the error, naming exactly the nodes that fell silent.
#[test]
fn crash_stalled_run_reports_which_nodes_were_silent() {
    use lmds_localsim::RuntimeError;
    let registry = SolverRegistry::with_defaults();
    let inst = Instance::sequential("p12", lmds_gen::basic::path(12));
    // Two vertices crash before anyone can gather two-hop evidence, and
    // the explicit cap of 2 is below Theorem 4.4's round-3 decision
    // point: the run must stall, not silently degrade.
    let fault = FaultConfig {
        seed: 3,
        crash: CrashPolicy::Random { count: 2, round: 1 },
        ..FaultConfig::default()
    };
    let cfg =
        SolveConfig::mds().mode(ExecutionMode::LOCAL_MESSAGE_PASSING).fault(fault).round_cap(2);
    let err = registry.solve("mds/theorem44", &inst, &cfg).unwrap_err();
    assert!(
        matches!(err, SolveError::Runtime(RuntimeError::RoundLimitExceeded { limit: 2, .. }, _)),
        "{err:?}"
    );
    let report = err.fault_report().expect("fault runs attach their report to the error");
    assert_eq!(report.crashed.len(), 2, "{report:?}");
    assert_eq!(report.silent, report.crashed, "crashed-at-1 vertices never decide: {report:?}");
    // The rendered message names the fault context for log readers.
    let msg = err.to_string();
    assert!(msg.contains("2 crashed"), "{msg}");
    // Identical seeds replay identical reports (the determinism
    // contract at the API level, not just inside the simulator).
    let err2 = registry.solve("mds/theorem44", &inst, &cfg).unwrap_err();
    assert_eq!(Some(report), err2.fault_report(), "replay diverged");
}

/// A skew past anything the wire accepts, set in code, must neither
/// size the message history by it nor overflow the grace and round-cap
/// arithmetic derived from it: the solve returns.
#[test]
fn unbounded_skew_set_in_code_still_returns() {
    let registry = SolverRegistry::with_defaults();
    let inst = Instance::sequential("p12", lmds_gen::basic::path(12));
    let fault = FaultConfig { seed: 1, skew: u32::MAX, ..FaultConfig::default() };
    let cfg = SolveConfig::mds().mode(ExecutionMode::LOCAL_MESSAGE_PASSING).fault(fault);
    let sol = registry.solve("mds/theorem44", &inst, &cfg).expect("the run terminates");
    sol.verify(&inst).expect("pure skew loses nothing");
    assert!(sol.fault.is_some_and(|r| r.messages_dropped == 0));
}

/// An *active* fault plan on a mode that cannot inject it is a
/// configuration error, not a silent no-op — on the oracle and on
/// centralized solves, exact ones included.
#[test]
fn active_fault_plans_require_message_passing() {
    let registry = SolverRegistry::with_defaults();
    let inst = Instance::sequential("p6", lmds_gen::basic::path(6));
    let plan = FaultConfig { skew: 1, ..FaultConfig::default() };
    for (key, mode) in [
        ("mds/theorem44", ExecutionMode::LOCAL_ORACLE),
        ("mds/algorithm1", ExecutionMode::Centralized),
        ("mds/exact", ExecutionMode::Centralized),
    ] {
        let cfg = SolveConfig::mds().mode(mode).fault(plan);
        let err = registry.solve(key, &inst, &cfg).unwrap_err();
        assert!(matches!(err, SolveError::UnsupportedOptions { .. }), "{key} {mode}: {err:?}");
        let reason = err.to_string();
        assert!(reason.contains(&format!("local-message-passing mode, not {mode}")), "{reason}");
        // The same plan runs where it is injected, and reports.
        if mode != ExecutionMode::Centralized {
            let passing = cfg.mode(ExecutionMode::LOCAL_MESSAGE_PASSING);
            let sol = registry.solve(key, &inst, &passing).expect("message passing runs the plan");
            assert!(sol.fault.is_some(), "{key}: an active plan attaches its report");
        }
    }
}

/// The diagnostics of every centralized Algorithm 1 family run account
/// for its solution: `solution = X ∪ I ∪ brute`, every residual
/// component avoids `X ∪ I`, and the brute-force picks lie in the
/// residual. For the MVC variant the residual must equal the components
/// of the uncovered-edge graph that have an edge, built here from
/// `g.edges()` as an independent reference.
#[test]
fn pipeline_diagnostics_account_for_the_solution() {
    let registry = SolverRegistry::with_defaults();
    for (_, inst) in corpus() {
        let g = &inst.graph;
        for radii in [RADII, Radii::practical(3, 4)] {
            for key in ["mds/algorithm1", "mds/algorithm2", "mvc/algorithm1"] {
                let problem = registry.get(key).expect("registered").descriptor().problem;
                let cfg = SolveConfig::new(problem).radii(radii);
                let sol = registry
                    .solve(key, &inst, &cfg)
                    .unwrap_or_else(|e| panic!("{key} on {}: {e}", inst.name));
                let d = sol.diagnostics.as_ref().expect("centralized runs carry diagnostics");
                let at = format!("{key} on {} at {radii:?}", inst.name);
                let taken = canonical_set(d.x_set.iter().chain(&d.i_set).copied());
                let claimed = canonical_set(taken.iter().chain(&d.brute_selected).copied());
                assert_eq!(sol.vertices, claimed, "{at}: solution ≠ X ∪ I ∪ brute");
                for comp in &d.residual_components {
                    assert!(comp.iter().all(|v| taken.binary_search(v).is_err()), "{at}: {comp:?}");
                }
                let residual = canonical_set(d.residual_components.iter().flatten().copied());
                for v in &d.brute_selected {
                    assert!(residual.binary_search(v).is_ok(), "{at}: brute pick {v} not residual");
                }
                if key != "mvc/algorithm1" {
                    continue;
                }
                assert!(d.u_set.is_empty(), "{at}");
                assert_eq!(d.kept, g.vertices().collect::<Vec<_>>(), "{at}");
                let uncovered: Vec<(usize, usize)> = g
                    .edges()
                    .filter(|(u, v)| {
                        taken.binary_search(u).is_err() && taken.binary_search(v).is_err()
                    })
                    .collect();
                let h = Graph::from_edges(g.n(), &uncovered);
                let mut want: Vec<Vec<usize>> = lmds_graph::connectivity::connected_components(&h)
                    .into_iter()
                    .filter(|c| c.len() >= 2)
                    .collect();
                let mut got = d.residual_components.clone();
                want.sort();
                got.sort();
                assert_eq!(got, want, "{at}: residual ≠ uncovered-edge components");
            }
        }
    }
}

/// Radii whose adaptive LOCAL round cap does not fit the simulator's
/// `u32` round counter are a typed configuration error under LOCAL,
/// refused before any simulation; centralized, the same radii solve
/// and match the answer at (1, 5), whose balls already cover the cycle.
#[test]
fn radii_past_the_round_counter_are_refused_under_local() {
    let registry = SolverRegistry::with_defaults();
    let inst = Instance::sequential("c5", lmds_gen::basic::cycle(5));
    let huge = Radii::practical(1, 1 << 31);
    for key in ["mds/algorithm1", "mds/algorithm2", "mvc/algorithm1"] {
        let problem = registry.get(key).expect("registered").descriptor().problem;
        let cfg = SolveConfig::new(problem).radii(huge);
        let local = cfg.clone().mode(ExecutionMode::LOCAL_ORACLE);
        let err = registry.solve(key, &inst, &local).unwrap_err();
        assert!(matches!(err, SolveError::UnsupportedOptions { .. }), "{key}: {err:?}");
        assert_eq!(
            err.to_string(),
            format!(
                "solver {key}: radii (1, 2147483648) need a LOCAL round cap above 4294967295 on 5 vertices"
            )
        );
        let sol = registry.solve(key, &inst, &cfg).unwrap_or_else(|e| panic!("{key}: {e}"));
        let at_1_5 = SolveConfig::new(problem).radii(Radii::practical(1, 5));
        let want = registry.solve(key, &inst, &at_1_5).unwrap_or_else(|e| panic!("{key}: {e}"));
        assert_eq!(sol.vertices, want.vertices, "{key}");
    }
}
