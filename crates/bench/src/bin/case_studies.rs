//! Quick case-study sweep: the six headline apps under S-NUCA, Jigsaw,
//! and Whirlpool, with paper-vs-measured deltas (a fast sanity harness).

use whirlpool_repro::harness::*;

fn main() {
    for app in std::env::args().nth(1).map(|a| vec![a]).unwrap_or_else(|| {
        ["delaunay", "MIS", "cactus", "SA", "lbm", "refine"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }) {
        let (warm, measure) = run_budget(&app);
        let run = |kind, classification| {
            Experiment::single(kind, &app)
                .classification(classification)
                .run()
                .unwrap_or_else(|e| panic!("running '{app}' failed: {e}"))
        };
        let snuca = run(SchemeKind::SNucaLru, Classification::None);
        let jig = run(SchemeKind::Jigsaw, Classification::None);
        let wp = run(SchemeKind::Whirlpool, Classification::Manual);
        println!(
            "{app:10} (w{}M m{}M) SNUCA {:>9.0}kcy {:>6.1}nJ/KI m{:>5.2} | Jig {:>9.0}kcy {:>6.1} m{:>5.2} b{:>4.1} | Wp {:>9.0}kcy {:>6.1} m{:>5.2} b{:>4.1} | WvJ {:+.1}%p {:+.1}%e | WvS {:+.1}%p {:+.1}%e",
            warm/1_000_000, measure/1_000_000,
            exec_cycles(&snuca)/1e3, snuca.energy_per_ki(), snuca.cores[0].llc_mpki(),
            exec_cycles(&jig)/1e3, jig.energy_per_ki(), jig.cores[0].llc_mpki(), jig.cores[0].llc_bpki(),
            exec_cycles(&wp)/1e3, wp.energy_per_ki(), wp.cores[0].llc_mpki(), wp.cores[0].llc_bpki(),
            speedup_pct(exec_cycles(&jig), exec_cycles(&wp)),
            (wp.energy_per_ki() / jig.energy_per_ki() - 1.0) * 100.0,
            speedup_pct(exec_cycles(&snuca), exec_cycles(&wp)),
            (wp.energy_per_ki() / snuca.energy_per_ki() - 1.0) * 100.0,
        );
    }
}
