//! The repository's benchmark: one command per workload that prints every
//! end-to-end metric (or, traced, every per-layer metric) with its unit,
//! checks the program's outputs, and counts failed operations against
//! operations attempted. See README.md for the metric tables and the
//! reasons behind each workload.
//!
//! ```text
//! wpbench --workload <mix16_replay|classify_profile|serve_closed>
//!         --seed <n> --seconds <s> --trace <0|1> [--record-digests <file>]
//! ```
//!
//! Runs single-process, with at most two busy threads, inside a fresh
//! temp directory under `.bench_tmp/` in the current directory, which it
//! removes on the way out.
#![forbid(unsafe_code)]

mod classify;
mod mix16;
mod report;
mod serve;
mod timed;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use report::Report;

/// The seed whose outputs `digests.json` records.
pub const DEFAULT_SEED: u64 = 1;

/// Every timed phase repeats its round at least this often, so the
/// reported medians never rest on fewer samples.
const MIN_ROUNDS: usize = 3;

/// Environment knobs the program reads. A run starts from none of them
/// set and pins the ones that matter, so no run inherits another's
/// configuration or state.
const KNOBS: [&str; 9] = [
    "WP_JOBS",
    "WP_EXEC",
    "WP_OBS",
    "WP_MRC_SAMPLE",
    "WP_TRACE_CACHE",
    "RUN_SCALE",
    "WP_FAULT",
    "WP_PROGRESS",
    "WP_PREFETCH",
];

/// Digests of the default seed's outputs, recorded from the program as
/// committed with this benchmark.
const RECORDED: &str = include_str!("../digests.json");

/// What every workload receives.
pub struct Ctx {
    /// The workload seed: all inputs derive from it.
    pub seed: u64,
    /// How long a timed phase runs (it always completes [`MIN_ROUNDS`]).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// This run's private temp directory (relative, so socket paths stay
    /// short).
    pub dir: PathBuf,
    recorded: BTreeMap<String, String>,
}

impl Ctx {
    /// The recorded digest for `key`, if this run uses the default seed.
    pub fn recorded(&self, key: &str) -> Option<Option<&str>> {
        (self.seed == DEFAULT_SEED).then(|| self.recorded.get(key).map(String::as_str))
    }

    /// Whether a timed phase that started at `start` and has completed
    /// `rounds` rounds should run another.
    pub fn another_round(&self, start: Instant, rounds: usize) -> bool {
        rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < self.seconds
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_digests: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut record_digests = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
                }
            }
            "--record-digests" => record_digests = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        record_digests,
    })
}

/// Fails if any knob is already set, then pins the run's values.
fn pin_environment(trace: bool, dir: &Path) -> Result<(), String> {
    let set: Vec<&str> = KNOBS
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: the benchmark pins these itself",
            set.join(", ")
        ));
    }
    std::env::set_var("WP_JOBS", "1");
    std::env::set_var("WP_EXEC", "batched");
    std::env::set_var("WP_OBS", if trace { "1" } else { "0" });
    std::env::set_var("WP_TRACE_CACHE", dir.join("trace-cache"));
    Ok(())
}

/// Every per-layer metric with its unit. A traced run reports all of
/// them; those its workload does not exercise read 0 (README.md says
/// which workload measures which).
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("bench.tracing_overhead_pct", "%"),
        ("workloads.gen_s", "s"),
        ("whirltool.profile_self_s", "s"),
        ("whirltool.cluster_s", "s"),
        ("mrc.exact_s", "s"),
        ("mrc.shards_s", "s"),
        ("mrc.shards_speedup", "x"),
        ("mrc.shards_max_abs_error", "ratio"),
        ("serve.accept_ms_p50", "ms"),
        ("serve.accept_ms_p99", "ms"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for verb in ["replay", "profile", "status"] {
        for m in ["job_ms_p50", "latency_ms_p50", "latency_ms_p99"] {
            v.push((format!("serve.{m}.{verb}"), "ms"));
        }
    }
    for (name, unit) in [
        ("serve.curve_memo_hit_ratio", "ratio"),
        ("serve.curve_memo_lookups", "count"),
        ("serve.trace_cache_hit_ratio", "ratio"),
        ("serve.trace_cache_lookups", "count"),
        ("serve.queue_high_water", "count"),
    ] {
        v.push((name.to_string(), unit));
    }
    for kind in whirlpool_repro::harness::SchemeKind::ALL {
        for (m, unit) in [
            ("sim.access_s", "s"),
            ("sim.access_ns_per_event", "ns"),
            ("sim.reconfigure_s", "s"),
            ("sim.reconfigure_calls", "count"),
            ("sim.attach_s", "s"),
            ("trace.fill_s", "s"),
            ("sim.driver_self_s", "s"),
            ("sim.llc_miss_ratio", "ratio"),
        ] {
            v.push((format!("{m}.{}", kind.label()), unit));
        }
    }
    v
}

fn parse_recorded() -> Result<BTreeMap<String, String>, String> {
    let doc =
        whirlpool_repro::bench_check::parse(RECORDED).map_err(|e| format!("digests.json: {e}"))?;
    let whirlpool_repro::bench_check::Json::Obj(entries) = doc else {
        return Err("digests.json must hold one object".into());
    };
    entries
        .into_iter()
        .map(|(k, v)| match v.as_str() {
            Some(s) => Ok((k, s.to_string())),
            None => Err(format!("digests.json: '{k}' is not a string")),
        })
        .collect()
}

fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: dir.to_path_buf(),
        recorded: parse_recorded()?,
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "mix16_replay" => mix16::run(&ctx, &mut report)?,
        "classify_profile" => classify::run(&ctx, &mut report)?,
        "serve_closed" => serve::run(&ctx, &mut report)?,
        other => return Err(format!("unknown workload '{other}'")),
    }
    if args.trace {
        for (name, unit) in per_layer_metrics() {
            if !report.has(&name) {
                report.metric(name, 0.0, unit);
            }
        }
    }
    if let Some(path) = &args.record_digests {
        let body: Vec<String> = report
            .digests
            .iter()
            .map(|(k, v)| format!("  \"{k}\": \"{v}\""))
            .collect();
        std::fs::write(path, format!("{{\n{}\n}}\n", body.join(",\n")))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wpbench: {e}");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = pin_environment(args.trace, &dir) {
        eprintln!("wpbench: {e}");
        std::process::exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("wpbench: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    // Leave `.bench_tmp` itself only if another run is still using it.
    let _ = std::fs::remove_dir(".bench_tmp");
    match result {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("wpbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_repro::bench_check::{parse, Json};

    /// BENCHMARK.json must list exactly the metrics a run reports.
    #[test]
    fn benchmark_json_matches_reported_metrics() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .unwrap();
        let doc = parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} missing");
            };
            items
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let expected: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), expected);
        let e2e: Vec<String> = listed("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            e2e,
            [
                "setup_s",
                "wall_s",
                "events_per_s",
                "req_per_s",
                "latency_p50_ms",
                "latency_p99_ms",
                "peak_rss_mb",
                "sim_wp_speedup"
            ]
        );
    }
}
