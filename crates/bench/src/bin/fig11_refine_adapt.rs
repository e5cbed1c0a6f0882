//! Fig. 11: refine's irregular phase changes and how Whirlpool adapts its
//! allocations over time (the Fig. 11a allocation trace).

use whirlpool_repro::harness::*;
use wp_bench::measure_budget;
use wp_sim::LlcScheme;

fn main() {
    let sys = four_core_config();
    let (run, scheme) = Experiment::single(SchemeKind::Whirlpool, "refine")
        .classification(Classification::Manual)
        .measure(measure_budget("refine"))
        .system(sys.clone())
        .run_with_scheme(whirlpool::scheme(sys.clone()))
        .unwrap_or_else(|e| panic!("refine under Whirlpool failed: {e}"));
    let out = run.summary;

    println!("Fig 11a — Whirlpool's allocations over time on refine");
    println!("(granules of 64 KB per pool at each reconfiguration; B = bypassed).");
    println!("Paper: long stretches give vertices most of the cache; during irregular");
    println!("phase changes the pattern inverts.\n");
    println!(
        "{:>9} {:>10} {:>10} {:>10} {:>8}",
        "cycle(M)", "vertices", "triangles", "misc", "thread"
    );
    let hist = scheme.reconfig_log();
    for ev in &hist {
        let find = |name: &str| {
            ev.pools
                .iter()
                .find(|p| p.pool == name)
                .map(|p| format!("{}{}", p.new_granules, if p.bypassed { "B" } else { "" }))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:>9.1} {:>10} {:>10} {:>10} {:>8}",
            ev.cycle as f64 / 1e6,
            find("vertices"),
            find("triangles"),
            find("misc"),
            find("thread0"),
        );
    }
    // Changes in the vertices allocation mark adaptation events.
    let vertices_series: Vec<usize> = hist
        .iter()
        .filter_map(|ev| ev.pools.iter().find(|p| p.pool == "vertices"))
        .map(|p| p.new_granules)
        .collect();
    let changes = vertices_series.windows(2).filter(|w| w[0] != w[1]).count();
    println!(
        "\nallocation changed {} times over {} reconfigurations — Whirlpool keeps",
        changes,
        hist.len()
    );
    println!("adapting to refine's irregular behaviour instead of fixing a policy.");
    println!(
        "\nrun summary: {:.0} cycles, {:.2} nJ/KI",
        exec_cycles(&out),
        out.energy_per_ki()
    );
}
