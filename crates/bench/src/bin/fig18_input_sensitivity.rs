//! Fig. 18: WhirlTool's sensitivity to training inputs — the four apps
//! where profiling on train vs ref inputs changes performance.

use whirlpool_repro::harness::*;
use wp_bench::measure_budget;

fn main() {
    println!("Fig 18 — WhirlTool speedup over Jigsaw (%), profiling on the train");
    println!("input vs the reference input (3 pools).");
    println!("Paper: leslie/omnet/xalanc/setCover lose a few % with train profiles;");
    println!("everything else is robust (0.4% average).\n");
    println!(
        "{:<10} {:>14} {:>14}",
        "app", "train profile", "ref profile"
    );
    for app in ["leslie", "omnet", "xalanc", "setCover", "delaunay", "mcf"] {
        let run = |kind, classification| {
            Experiment::single(kind, app)
                .classification(classification)
                .measure(measure_budget(app))
                .run()
                .unwrap_or_else(|e| panic!("running '{app}' failed: {e}"))
        };
        let jig = run(SchemeKind::Jigsaw, Classification::None);
        let base = exec_cycles(&jig);
        let whirltool = |train| Classification::WhirlTool { pools: 3, train };
        let train = run(SchemeKind::Whirlpool, whirltool(true));
        let reference = run(SchemeKind::Whirlpool, whirltool(false));
        println!(
            "{:<10} {:>13.1}% {:>13.1}%",
            app,
            speedup_pct(base, exec_cycles(&train)),
            speedup_pct(base, exec_cycles(&reference)),
        );
    }
    println!("\n(delaunay and mcf shown as robust controls)");
}
