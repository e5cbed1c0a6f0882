//! `trace_tool obs` reports live telemetry: its closing `metrics` line
//! snapshots a registry the subcommand enabled itself, so the counters
//! are non-zero without `WP_OBS=1` in the environment.

use std::process::Command;

use whirlpool_repro::bench_check::{parse, Json};

#[test]
fn obs_metrics_line_counts_without_the_env_switch() {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .env_remove("WP_OBS")
        .args([
            "obs",
            "delaunay",
            "--scheme",
            "Whirlpool",
            "--classification",
            "manual",
            "--warmup",
            "100000",
            "--measure",
            "1000000",
        ])
        .output()
        .expect("run trace_tool");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a metrics line");
    let doc = parse(last).expect("the metrics line parses");
    assert_eq!(
        doc.get("type"),
        Some(&Json::Str("metrics".into())),
        "{last}"
    );
    let rollovers = doc
        .get("registry")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get("monitor_rollovers"))
        .and_then(Json::as_f64)
        .expect("registry.counters.monitor_rollovers");
    assert!(rollovers > 0.0, "monitor_rollovers is zero: {last}");
}
