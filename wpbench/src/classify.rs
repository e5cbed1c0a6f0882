//! `classify_profile`: WhirlTool profiling and clustering over a fixed
//! registry subset, then exact and SHARDS miss curves over a multi-stream
//! capture.
//!
//! Live generation, MRC stacks and clustering carry the load and no
//! scheme runs, so this is the bypass workload for scheme-access
//! changes: there, the prediction is no change.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use whirlpool_repro::harness::{classify_with_whirltool, Classification, Experiment, SchemeKind};
use wp_mem::{CallpointId, PageId};
use wp_mrc::{max_miss_ratio_error, profile_streams, ProfileMode, ShardsConfig, StreamProfile};
use wp_sim::Workload;
use wp_whirltool::{cluster, profile, ProfilerConfig};
use wp_workloads::{registry, AppModel};

use crate::report::{digest, median, peak_rss_mib, percentile, secs, Report};
use crate::Ctx;

/// Small to large footprints, including the cluster-heavy xalanc and
/// omnet.
pub const APPS: [&str; 7] = ["hull", "xalanc", "omnet", "bzip2", "gems", "lbm", "MIS"];

/// Pools to cluster into (what `--classification auto` asks for).
pub const POOLS: usize = 3;

/// The apps of the multi-stream MRC capture, one per core.
const MRC_APPS: [&str; 4] = ["omnet", "lbm", "xalanc", "mcf"];
const MRC_MEASURE: u64 = 2_000_000;
const SHARDS_RATE: f64 = 0.1;
/// Capacity step of the SHARDS error sweep: one 64 KB granule.
const ERROR_STEP_LINES: u64 = wp_mrc::DEFAULT_GRANULE_LINES;

const SETUPS: usize = 9;

/// The profiler configuration `classify_with_whirltool` uses (with
/// `WP_MRC_SAMPLE` unset, as the benchmark pins it).
pub fn profiler_config() -> ProfilerConfig {
    ProfilerConfig {
        interval_instrs: 2_000_000,
        total_instrs: 10_000_000,
        granule_lines: 1024,
        curve_points: 201,
        sample: None,
    }
}

/// One app's training model and page map, built in set-up.
pub struct AppInput {
    name: &'static str,
    model: AppModel,
    page_map: HashMap<PageId, CallpointId>,
}

/// Builds `app`'s training-input model and page→callpoint map, as
/// `classify_with_whirltool` does.
pub fn app_input(app: &'static str) -> AppInput {
    let model = AppModel::new(registry::train_spec(app));
    let page_map = model
        .callpoints()
        .iter()
        .flat_map(|(cp, _, pages)| pages.iter().map(move |p| (*p, *cp)))
        .collect();
    AppInput {
        name: app,
        model,
        page_map,
    }
}

/// Profiles and clusters one app directly — no memo — returning the
/// assignment, events profiled, and (profile, cluster) seconds.
pub fn classify_direct(input: &AppInput) -> (HashMap<CallpointId, usize>, u64, f64, f64) {
    let t = Instant::now();
    let mut trace = input.model.trace();
    let data = profile(&mut trace, &input.page_map, profiler_config());
    let profiled = secs(t.elapsed());
    let t = Instant::now();
    let assignment = cluster(&data, 200).assignment(POOLS);
    let clustered = secs(t.elapsed());
    let events = data.accesses.values().sum();
    (assignment, events, profiled, clustered)
}

/// A stable digest of an assignment.
pub fn assignment_digest(a: &HashMap<CallpointId, usize>) -> String {
    let mut pairs: Vec<(u64, usize)> = a.iter().map(|(cp, p)| (cp.0, *p)).collect();
    pairs.sort_unstable();
    digest(format!("{pairs:?}").as_bytes())
}

fn curves_digest(profiles: &[StreamProfile]) -> String {
    let mut text = String::new();
    for p in profiles {
        text.push_str(&format!("{} {} {}", p.stream, p.events, p.instructions));
        for v in p.curve(wp_mrc::DEFAULT_GRANULE_LINES).points() {
            text.push_str(&format!(" {:016x}", v.to_bits()));
        }
        text.push('\n');
    }
    digest(text.as_bytes())
}

/// Host time to drain `input`'s generator for the profiler's budget.
fn generation_time(input: &AppInput) -> f64 {
    let t = Instant::now();
    let mut trace = input.model.trace();
    let mut instrs = 0u64;
    while instrs < profiler_config().total_instrs {
        let Some(ev) = trace.next_event() else { break };
        instrs += u64::from(ev.gap_instrs);
        std::hint::black_box(ev);
    }
    secs(t.elapsed())
}

/// One round's timings.
#[derive(Default)]
struct Round {
    wall: f64,
    ops_ms: Vec<f64>,
    events: u64,
    profile: f64,
    cluster: f64,
    exact: f64,
    shards: f64,
}

/// A round's MRC profiles, exact and SHARDS.
#[derive(Default)]
struct Curves {
    exact: Vec<StreamProfile>,
    shards: Vec<StreamProfile>,
}

/// References every op output of a round is checked against.
#[derive(Default)]
struct References {
    by_key: HashMap<String, String>,
}

impl References {
    fn check(&mut self, ctx: &Ctx, key: &str, d: String, report: &mut Report, seeded: bool) {
        if let Some(expected) = self.by_key.get(key) {
            report.op(*expected == d, || format!("{key} changed between rounds"));
            return;
        }
        // Assignments do not depend on the seed, so they are checked
        // against the recorded digests on every seed.
        let recorded = if seeded {
            ctx.recorded(key)
        } else {
            Some(ctx.recorded.get(key).map(String::as_str))
        };
        match recorded {
            Some(expected) => report.expect_digest(key, &d, expected),
            None => report.op(true, String::new),
        }
        self.by_key.insert(key.to_string(), d);
    }
}

fn round(
    ctx: &Ctx,
    inputs: &[AppInput],
    trace: &Path,
    refs: &mut References,
    report: &mut Report,
) -> Result<(Round, Curves), String> {
    let start = Instant::now();
    let mut r = Round::default();
    for input in inputs {
        let t = Instant::now();
        let (assignment, events, p, c) = classify_direct(input);
        r.ops_ms.push(secs(t.elapsed()) * 1e3);
        r.events += events;
        r.profile += p;
        r.cluster += c;
        let key = format!("classify_profile/assign/{}", input.name);
        refs.check(ctx, &key, assignment_digest(&assignment), report, false);
    }
    let streams: Vec<u16> = (0..MRC_APPS.len() as u16).collect();
    let mut curves = Vec::new();
    for (mode, key) in [
        (ProfileMode::Exact, "classify_profile/mrc_exact"),
        (
            ProfileMode::Sampled(ShardsConfig::fixed(SHARDS_RATE)),
            "classify_profile/mrc_shards",
        ),
    ] {
        let t = Instant::now();
        let profiles = profile_streams(trace, &streams, mode).map_err(|e| e.to_string())?;
        let took = secs(t.elapsed());
        r.ops_ms.push(took * 1e3);
        r.events += profiles.iter().map(|p| p.events).sum::<u64>();
        match mode {
            ProfileMode::Exact => r.exact = took,
            ProfileMode::Sampled(_) => r.shards = took,
        }
        refs.check(ctx, key, curves_digest(&profiles), report, true);
        curves.push(profiles);
    }
    r.wall = secs(start.elapsed());
    let shards = curves.pop().unwrap_or_default();
    let exact = curves.pop().unwrap_or_default();
    Ok((r, Curves { exact, shards }))
}

fn phase(
    ctx: &Ctx,
    inputs: &[AppInput],
    trace: &Path,
    refs: &mut References,
    report: &mut Report,
) -> Result<(Vec<Round>, Curves), String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut last = Curves::default();
    while ctx.another_round(start, rounds.len()) {
        let (r, curves) = round(ctx, inputs, trace, refs, report)?;
        rounds.push(r);
        last = curves;
    }
    Ok((rounds, last))
}

fn med(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut setup = Vec::new();
    let mut inputs = Vec::new();
    let mut trace = PathBuf::new();
    for i in 0..SETUPS {
        let t = Instant::now();
        inputs = APPS.into_iter().map(app_input).collect();
        trace = ctx.dir.join(format!("mrc-{i}.wpt"));
        Experiment::mix(SchemeKind::SNucaLru, &MRC_APPS)
            .classification(Classification::Manual)
            .warmup(0)
            .measure(MRC_MEASURE)
            .seed(ctx.seed)
            .capture_to(&trace)
            .run()
            .map_err(|e| format!("mrc capture: {e}"))?;
        setup.push(secs(t.elapsed()));
        if i + 1 < SETUPS {
            let _ = std::fs::remove_file(&trace);
        }
    }
    let mut refs = References::default();
    let (untraced, _) = phase(ctx, &inputs, &trace, &mut refs, report)?;
    let peak_rss = peak_rss_mib();
    let wall = med(&untraced, |r| r.wall);
    // The direct profile + cluster must classify exactly as the
    // memoized harness entry point does.
    for input in &inputs {
        let memo = classify_with_whirltool(input.name, POOLS, true);
        let key = format!("classify_profile/assign/{}", input.name);
        let direct = refs.by_key.get(&key).cloned();
        report.op(
            direct.as_deref() == Some(&*assignment_digest(&memo)),
            || {
                format!(
                    "{}: direct classification differs from classify_with_whirltool",
                    input.name
                )
            },
        );
    }
    if !ctx.trace {
        let events = untraced[0].events as f64;
        let ops = untraced[0].ops_ms.len() as f64;
        // Each operation's median over rounds; p50/p99 are taken across
        // operations.
        let lat: Vec<f64> = (0..untraced[0].ops_ms.len())
            .map(|i| median(&untraced.iter().map(|r| r.ops_ms[i]).collect::<Vec<_>>()))
            .collect();
        report.metric("setup_s", median(&setup), "s");
        report.metric("wall_s", wall, "s");
        report.metric("events_per_s", events / wall, "events/s");
        report.metric("req_per_s", ops / wall, "req/s");
        report.metric("latency_p50_ms", percentile(&lat, 50.0), "ms");
        report.metric("latency_p99_ms", percentile(&lat, 99.0), "ms");
        report.metric(
            "sim_wp_speedup",
            crate::mix16::trace_wp_speedup(&trace, MRC_APPS.len())?,
            "x",
        );
        report.metric("peak_rss_mb", peak_rss, "MiB");
        eprintln!("classify_profile: {} rounds timed", untraced.len());
        return Ok(());
    }
    let (traced, curves) = phase(ctx, &inputs, &trace, &mut refs, report)?;
    let gen: Vec<f64> = (0..SETUPS)
        .map(|_| inputs.iter().map(generation_time).sum())
        .collect();
    let gen = median(&gen);
    report.metric(
        "bench.tracing_overhead_pct",
        (med(&traced, |r| r.wall) / wall - 1.0) * 100.0,
        "%",
    );
    report.metric("workloads.gen_s", gen, "s");
    report.metric(
        "whirltool.profile_self_s",
        med(&traced, |r| r.profile) - gen,
        "s",
    );
    report.metric("whirltool.cluster_s", med(&traced, |r| r.cluster), "s");
    let exact_s = med(&traced, |r| r.exact);
    let shards_s = med(&traced, |r| r.shards);
    report.metric("mrc.exact_s", exact_s, "s");
    report.metric("mrc.shards_s", shards_s, "s");
    report.metric("mrc.shards_speedup", exact_s / shards_s, "x");
    let error = curves
        .exact
        .iter()
        .zip(&curves.shards)
        .map(|(e, s)| max_miss_ratio_error(&e.histogram, &s.histogram, ERROR_STEP_LINES))
        .fold(0.0, f64::max);
    report.metric("mrc.shards_max_abs_error", error, "ratio");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark times `profile` + `cluster` directly to keep the
    /// harness memo out of the timed phase; that must not change the
    /// classification.
    #[test]
    fn direct_classification_matches_harness() {
        for app in ["hull", "xalanc"] {
            let (direct, _, _, _) = classify_direct(&app_input(app));
            assert_eq!(direct, classify_with_whirltool(app, POOLS, true), "{app}");
        }
    }
}
