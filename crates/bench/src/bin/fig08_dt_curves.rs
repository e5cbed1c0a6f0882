//! Fig. 8: dt's per-pool miss-rate curves and total-latency curves —
//! the inputs to Jigsaw/Whirlpool's sizing step.

use whirlpool_repro::harness::four_core_config;
use wp_mrc::{LatencyCurve, MattsonStack, MissCurve};
use wp_noc::{CoreId, NearestBanksLatency};
use wp_sim::Workload;
use wp_workloads::{registry, AppModel};

fn main() {
    let sys = four_core_config();
    let model = AppModel::new(registry::spec("delaunay"));
    let descs = model.descriptors_manual();
    let mut page_pool = wp_mrc::FastMap::default();
    for (i, d) in descs.iter().enumerate() {
        for p in &d.pages {
            page_pool.insert(p.0, i);
        }
    }
    // Exact per-pool profiling over a long window.
    let mut stacks: Vec<MattsonStack> = descs.iter().map(|_| MattsonStack::new()).collect();
    let mut counts = vec![0u64; descs.len()];
    let mut trace = model.trace();
    let mut instrs = 0u64;
    while instrs < 30_000_000 {
        let ev = trace.next_event().expect("infinite");
        instrs += ev.gap_instrs as u64;
        if let Some(&i) = page_pool.get(&ev.line.page().0) {
            stacks[i].access(ev.line.0);
            counts[i] += 1;
        }
    }
    let total_granules = sys.total_granules();
    let sizes_mb = [0usize, 8, 16, 32, 48, 64, 96, 128, 160, 200];
    println!("Fig 8a — dt miss-rate curves (MPKI vs LLC size):");
    print!("{:>10}", "size(MB)");
    for &g in &sizes_mb {
        print!("{:>8.1}", g as f64 * 64.0 / 1024.0);
    }
    println!();
    let mut curves = Vec::new();
    for (i, d) in descs.iter().enumerate() {
        let c = MissCurve::from_histogram(&stacks[i].histogram(), instrs, 1024)
            .resized(total_granules + 1)
            .monotonized();
        print!("{:>10}", d.name);
        for &g in &sizes_mb {
            print!("{:>8.2}", c.mpki_at(g));
        }
        println!();
        curves.push(c);
    }
    println!("\nFig 8b — total latency curves (data-stall CPI vs VC size):");
    print!("{:>10}", "size(MB)");
    for &g in &sizes_mb {
        print!("{:>8.1}", g as f64 * 64.0 / 1024.0);
    }
    println!();
    let center = sys.floorplan.core_coord(CoreId(0));
    for (i, d) in descs.iter().enumerate() {
        let lat = NearestBanksLatency::new(
            &sys.floorplan,
            center,
            sys.granules_per_bank(),
            sys.bank_latency,
            total_granules,
        );
        let apki = counts[i] as f64 * 1000.0 / instrs as f64;
        let lc = LatencyCurve::build(&curves[i], apki, &lat, sys.miss_penalty(), false);
        print!("{:>10}", d.name);
        for &g in &sizes_mb {
            print!("{:>8.3}", lc.cpi_at(g));
        }
        println!();
        println!(
            "{:>10}  latency-optimal size: {:.1} MB (the paper sizes each VC at this knee)",
            "",
            lc.argmin() as f64 * 64.0 / 1024.0
        );
    }
}
