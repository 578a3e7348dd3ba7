//! End-to-end integration tests spanning all crates: generator →
//! (centralized + distributed) algorithm → simulator → verification.

use lmds_core::distributed::{
    Algorithm1Decider, MvcAlgorithm1Decider, Theorem44Decider, Theorem44MvcDecider,
    TreesFolkloreDecider,
};
use lmds_core::mvc::algorithm1_mvc;
use lmds_core::{algorithm1, theorem44_mds, theorem44_mvc, Radii};
use lmds_graph::dominating::is_dominating_set;
use lmds_graph::vertex_cover::is_vertex_cover;
use lmds_graph::Graph;
use lmds_localsim::{IdAssignment, OracleRuntime, RuntimeKind};

fn workload() -> Vec<(String, Graph)> {
    let mut out: Vec<(String, Graph)> = vec![
        ("path30".into(), lmds_gen::basic::path(30)),
        ("cycle17".into(), lmds_gen::basic::cycle(17)),
        ("star8".into(), lmds_gen::basic::star(8)),
        ("caterpillar".into(), lmds_gen::basic::caterpillar(8, 2)),
        ("strip8".into(), lmds_gen::ding::strip(8)),
        ("fan6".into(), lmds_gen::ding::fan(6)),
        ("clique_pendants6".into(), lmds_gen::adversarial::clique_with_pendants(6)),
        ("subdivided_k24".into(), lmds_gen::adversarial::subdivided_k2t(4)),
        ("complete6".into(), lmds_gen::basic::complete(6)),
    ];
    for seed in 0..3u64 {
        out.push((format!("tree_s{seed}"), lmds_gen::trees::random_tree(25, seed)));
        out.push((
            format!("outerplanar_s{seed}"),
            lmds_gen::outerplanar::random_maximal_outerplanar(16, seed),
        ));
        out.push((
            format!("augmentation_s{seed}"),
            lmds_gen::ding::AugmentationSpec::standard(5, 2, 1, seed).generate(),
        ));
    }
    out
}

#[test]
fn theorem44_end_to_end() {
    for (name, g) in workload() {
        for seed in [0u64, 13] {
            let ids = IdAssignment::shuffled(g.n(), seed);
            let central = {
                let mut s = theorem44_mds(&g, &ids);
                s.sort_unstable();
                s
            };
            assert!(is_dominating_set(&g, &central), "{name}: centralized invalid");
            let res = OracleRuntime.run(&g, &ids, &Theorem44Decider, 10).unwrap();
            let distributed: Vec<usize> =
                res.outputs.iter().enumerate().filter_map(|(v, &b)| b?.then_some(v)).collect();
            assert_eq!(central, distributed, "{name} seed={seed}");
            assert!(res.rounds <= 3, "{name}: {} rounds", res.rounds);
        }
    }
}

#[test]
fn algorithm1_end_to_end() {
    let radii = Radii::practical(2, 2);
    for (name, g) in workload() {
        let ids = IdAssignment::shuffled(g.n(), 3);
        let central = algorithm1(&g, &ids, radii);
        assert!(is_dominating_set(&g, &central.solution), "{name}");
        let decider = Algorithm1Decider { radii };
        let res = OracleRuntime.run(&g, &ids, &decider, (2 * g.n() + 40) as u32).unwrap();
        let distributed: Vec<usize> =
            res.outputs.iter().enumerate().filter_map(|(v, &b)| b?.then_some(v)).collect();
        assert_eq!(central.solution, distributed, "{name}");
    }
}

#[test]
fn all_three_runtimes_agree() {
    // Centralized reference, oracle and message passing.
    let g = lmds_gen::ding::AugmentationSpec::standard(4, 2, 1, 5).generate();
    let ids = IdAssignment::shuffled(g.n(), 5);
    let radii = Radii::practical(2, 2);
    let dec = Algorithm1Decider { radii };
    let cap = (2 * g.n() + 40) as u32;
    let a = OracleRuntime.run(&g, &ids, &dec, cap).unwrap();
    let b = RuntimeKind::MessagePassing.run(&g, &ids, &dec, cap).unwrap();
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.decided_at, b.decided_at);
    let selected: Vec<usize> =
        a.outputs.iter().enumerate().filter_map(|(v, &x)| x?.then_some(v)).collect();
    assert_eq!(selected, algorithm1(&g, &ids, radii).solution);
}

/// The n = 535 augmentation `lmds_bench::experiments::large_augmentation(520, 11)`
/// builds (the `local-sim` benchmark instance): a small base with long
/// fans and strips, so views stay bounded while n is engine-scale.
fn augmentation535() -> Graph {
    lmds_gen::ding::AugmentationSpec {
        base_n: 10,
        base_density_percent: 30,
        fans: 4,
        fan_len: (8, 16),
        strips: 520 / 120,
        strip_len: (55, 65),
        seed: 11,
    }
    .generate()
}

#[test]
fn all_three_runtimes_agree_at_engine_scale() {
    // The checks above run on n ≲ 60; here the oracle and message
    // passing must agree on every output and decision round at n = 535,
    // and equal the centralized set — on a run where the U and
    // residual-solve branches fire.
    let g = augmentation535();
    assert_eq!(g.n(), 535);
    let ids = IdAssignment::shuffled(g.n(), 3);
    let radii = Radii::practical(2, 2);
    let dec = Algorithm1Decider { radii };
    let cap = 64;
    let oracle = OracleRuntime.run(&g, &ids, &dec, cap).unwrap();
    let passing = RuntimeKind::MessagePassing.run(&g, &ids, &dec, cap).unwrap();
    assert_eq!(oracle.outputs, passing.outputs);
    assert_eq!(oracle.decided_at, passing.decided_at);
    let selected: Vec<usize> =
        oracle.outputs.iter().enumerate().filter_map(|(v, &x)| x?.then_some(v)).collect();
    assert_eq!(selected, algorithm1(&g, &ids, radii).solution);
    // The S branch decides at the margin max(r₁, 2r₂) + 2 = 6; U and
    // residual solves need two more rounds.
    let margin = 6;
    assert!(oracle.decided_at.iter().any(|&r| r >= margin + 2), "{:?}", oracle.decided_at);

    let mvc = OracleRuntime.run(&g, &ids, &MvcAlgorithm1Decider { radii }, cap).unwrap();
    let mvc_set: Vec<usize> =
        mvc.outputs.iter().enumerate().filter_map(|(v, &x)| x?.then_some(v)).collect();
    assert_eq!(mvc_set, algorithm1_mvc(&g, &ids, radii).solution);
}

#[test]
fn mvc_end_to_end() {
    for (name, g) in workload() {
        let ids = IdAssignment::shuffled(g.n(), 1);
        let quick = theorem44_mvc(&g, &ids);
        assert!(is_vertex_cover(&g, &quick), "{name}: thm44 mvc invalid");
        let res = OracleRuntime.run(&g, &ids, &Theorem44MvcDecider, 10).unwrap();
        let distributed: Vec<usize> =
            res.outputs.iter().enumerate().filter_map(|(v, &b)| b?.then_some(v)).collect();
        let mut central = quick.clone();
        central.sort_unstable();
        assert_eq!(central, distributed, "{name}");
        let careful = algorithm1_mvc(&g, &ids, Radii::practical(2, 3));
        assert!(is_vertex_cover(&g, &careful.solution), "{name}: alg1 mvc invalid");
    }
}

#[test]
fn trees_folklore_end_to_end() {
    for seed in 0..5u64 {
        let g = lmds_gen::trees::random_tree(40, seed);
        let ids = IdAssignment::shuffled(g.n(), seed);
        let res = OracleRuntime.run(&g, &ids, &TreesFolkloreDecider, 10).unwrap();
        let sol: Vec<usize> =
            res.outputs.iter().enumerate().filter_map(|(v, &b)| b?.then_some(v)).collect();
        assert!(is_dominating_set(&g, &sol));
        assert_eq!(res.rounds, 2);
        // Folklore ratio 3 against the exact tree optimum.
        let opt = lmds_graph::dominating::tree_mds(&g).unwrap().len();
        assert!(sol.len() <= 3 * opt, "seed={seed}: {} > 3*{opt}", sol.len());
    }
}

#[test]
fn id_assignment_does_not_break_validity() {
    // Deterministic LOCAL algorithms must be correct under every id
    // assignment; solution *size* may vary, validity may not.
    let g = lmds_gen::ding::AugmentationSpec::standard(5, 2, 2, 8).generate();
    for seed in 0..6u64 {
        let ids = IdAssignment::shuffled(g.n(), seed);
        let sol = theorem44_mds(&g, &ids);
        assert!(is_dominating_set(&g, &sol), "seed={seed}");
        let out = algorithm1(&g, &ids, Radii::practical(2, 3));
        assert!(is_dominating_set(&g, &out.solution), "seed={seed}");
    }
}
