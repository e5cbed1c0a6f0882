//! Trace capture and replay: record a live run to a `.wpt` file, inspect
//! it, and replay it bit-identically through other schemes.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use whirlpool_repro::harness::{Experiment, SchemeKind};
use wp_trace::TraceInfo;

fn main() {
    let path = std::env::temp_dir().join(format!("wp-example-{}.wpt", std::process::id()));
    const WARMUP: u64 = 1_000_000;
    const MEASURE: u64 = 2_000_000;

    // --- Capture: any run can be recorded (Sec. "trace-driven") ---------
    println!(
        "capturing delaunay under Whirlpool to {} ...",
        path.display()
    );
    let live = Experiment::single(SchemeKind::Whirlpool, "delaunay")
        .warmup(WARMUP)
        .measure(MEASURE)
        .capture_to(&path)
        .run()
        .expect("capture");

    let info = TraceInfo::scan(&path).expect("scan");
    println!(
        "  {} events in {} bytes ({:.2} bytes/event, {:.2}x smaller than naive)",
        info.total_events(),
        info.file_bytes,
        info.file_bytes as f64 / info.total_events() as f64,
        info.compression_ratio(),
    );
    for p in &info.streams[0].meta.pools {
        println!("  recorded pool '{}' ({} KB)", p.name, p.bytes / 1024);
    }

    // --- Replay: the same trace through the same scheme is bit-identical.
    let uri = format!("trace:{}", path.display());
    let replayed = Experiment::single(SchemeKind::Whirlpool, &uri)
        .warmup(WARMUP)
        .measure(MEASURE)
        .run()
        .expect("replay");
    println!(
        "\nreplay determinism: live == replay is {}",
        live.to_json() == replayed.to_json()
    );

    // --- And through every other scheme, no model required. -------------
    println!("\nthe recorded trace under the Fig. 10 schemes:");
    println!(
        "{:<14} {:>8} {:>8} {:>8}",
        "scheme", "mpki", "bpki", "nJ/KI"
    );
    for kind in SchemeKind::FIG10 {
        let out = Experiment::single(kind, &uri)
            .warmup(WARMUP)
            .measure(MEASURE)
            .run()
            .expect("replay");
        println!(
            "{:<14} {:>8.2} {:>8.2} {:>8.1}",
            out.scheme,
            out.cores[0].llc_mpki(),
            out.cores[0].llc_bpki(),
            out.energy_per_ki(),
        );
    }
    std::fs::remove_file(&path).ok();
}
