//! WhirlTool end to end on an unmodified app (Sec. 4): profile on the
//! train input, cluster callpoints into pools, run on the ref input, and
//! compare with the manual classification.
//!
//! ```sh
//! cargo run --release --example whirltool_auto
//! ```

use std::collections::HashMap;

use whirlpool_repro::harness::{exec_cycles, speedup_pct, Classification, Experiment, SchemeKind};
use wp_mem::{CallpointId, PageId};
use wp_whirltool::{cluster, profile, ProfilerConfig};
use wp_workloads::{registry, AppModel};

fn main() {
    let app = "delaunay";
    println!("WhirlTool pipeline on {app} (unmodified binary):\n");

    // 1. Profile the training input, recording per-callpoint curves.
    let model = AppModel::new(registry::train_spec(app));
    let page_map: HashMap<PageId, CallpointId> = model
        .callpoints()
        .iter()
        .flat_map(|(cp, _, pages)| pages.iter().map(move |p| (*p, *cp)))
        .collect();
    let mut trace = model.trace();
    let data = profile(
        &mut trace,
        &page_map,
        ProfilerConfig {
            interval_instrs: 2_000_000,
            total_instrs: 10_000_000,
            granule_lines: 1024,
            curve_points: 201,
            sample: None,
        },
    );
    println!(
        "profiled {} callpoints over {} intervals ({} KB of curves)",
        data.callpoints.len(),
        data.intervals.len(),
        data.size_bytes() / 1024,
    );

    // 2. Agglomeratively cluster callpoints (the Fig. 17 dendrogram).
    let tree = cluster(&data, 200);
    println!("\ndendrogram:\n{}", tree.render());

    // 3. Run with 2, 3, 4 pools vs Jigsaw and the manual port (Fig. 16).
    const INSTRS: u64 = 6_000_000;
    let run = |kind, classification| {
        Experiment::single(kind, app)
            .classification(classification)
            .measure(INSTRS)
            .run()
            .expect("app runs")
    };
    let jig = run(SchemeKind::Jigsaw, Classification::None);
    println!(
        "{:<22} {:>12}  {:>9}",
        "configuration", "cycles", "vs Jigsaw"
    );
    println!(
        "{:<22} {:>12.0}  {:>8.1}%",
        "Jigsaw",
        exec_cycles(&jig),
        0.0
    );
    for pools in [2usize, 3, 4] {
        let wt = run(
            SchemeKind::Whirlpool,
            Classification::WhirlTool { pools, train: true },
        );
        println!(
            "{:<22} {:>12.0}  {:>8.1}%",
            format!("WhirlTool ({pools} pools)"),
            exec_cycles(&wt),
            speedup_pct(exec_cycles(&jig), exec_cycles(&wt)),
        );
    }
    let manual = run(SchemeKind::Whirlpool, Classification::Manual);
    println!(
        "{:<22} {:>12.0}  {:>8.1}%",
        "manual (Table 2)",
        exec_cycles(&manual),
        speedup_pct(exec_cycles(&jig), exec_cycles(&manual)),
    );
}
