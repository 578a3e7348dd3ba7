//! Vertex-cover scenario: place patrols on road intersections so that
//! every road segment is watched — a vertex cover — on an outerplanar
//! "ring road + chords" network, using the paper's MVC extensions
//! through the unified API.
//!
//! Run with: `cargo run --release --example vertex_cover_patrol`

use lmds_api::{Instance, SolveConfig, SolverRegistry};
use lmds_core::Radii;

fn main() {
    // Ring road with some chords: outerplanar ⇒ K_{2,3}-minor-free ⇒
    // Theorem 4.4's MVC variant is a 3-approximation here.
    let city = lmds_gen::outerplanar::random_outerplanar(24, 50, 99);
    let instance = Instance::shuffled("ring-road", city, 99);
    println!(
        "road network: {} intersections, {} segments (outerplanar)",
        instance.n(),
        instance.graph.m()
    );

    let registry = SolverRegistry::with_defaults();

    let quick =
        registry.solve("mvc/theorem44", &instance, &SolveConfig::mvc()).expect("1-round MVC");
    assert!(quick.is_valid());
    println!("1-round patrol plan (Thm 4.4 MVC): {} patrols", quick.size());

    let careful_cfg = SolveConfig::mvc().radii(Radii::practical(2, 3));
    let careful =
        registry.solve("mvc/algorithm1", &instance, &careful_cfg).expect("Algorithm 1 MVC");
    assert!(careful.is_valid());
    let diag = careful.diagnostics.as_ref().expect("centralized diagnostics");
    let from_cuts = lmds_graph::canonical_set(diag.x_set.iter().chain(&diag.i_set).copied());
    println!(
        "Algorithm 1 MVC plan: {} patrols ({} from local cuts, {} brute-forced)",
        careful.size(),
        from_cuts.len(),
        diag.brute_selected.len()
    );

    let opt = registry.solve("mvc/exact", &instance, &SolveConfig::mvc()).expect("exact MVC");
    println!("exact optimum: {} patrols", opt.size());
    println!(
        "ratios: quick = {:.2} (bound 3), careful = {:.2}",
        quick.size() as f64 / opt.size() as f64,
        careful.size() as f64 / opt.size() as f64
    );

    // Show the plan as DOT for visual inspection.
    let dot = lmds_graph::io::to_dot(&instance.graph, &quick.vertices);
    println!("\nGraphviz of the quick plan (patrols highlighted):\n{dot}");
}
