//! `mix16_replay`: a 16-core mix captured live, replayed under all nine
//! schemes.
//!
//! Steady-state scheme access dominates this workload, so it is where an
//! optimisation of scheme access, trace decode or the simulator's run loop
//! shows. Set-up captures the mix under LRU with the manual pools, so
//! the trace records them; the timed phase replays it with
//! `Experiment::bundles` under each `SchemeKind` in turn.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use whirlpool_repro::harness::{
    make_scheme, mix_base_page, sixteen_core_config, Classification, Experiment, SchemeKind,
};
use wp_sim::{EventBatch, RunSummary, Workload, WorkloadBundle};
use wp_trace::TraceInfo;
use wp_workloads::{registry, AppModel};

use crate::report::{digest, gmean, median, peak_rss_mib, percentile, secs, Report};
use crate::timed::{CountedWorkload, FillTally, SchemeTimes, TimedScheme};
use crate::Ctx;

/// Four footprints (small to streaming), four copies each.
pub const APPS: [&str; 16] = [
    "delaunay", "mcf", "lbm", "milc", "delaunay", "mcf", "lbm", "milc", "delaunay", "mcf", "lbm",
    "milc", "delaunay", "mcf", "lbm", "milc",
];

/// Per-core instruction budgets of capture and replay.
pub const WARMUP: u64 = 250_000;
/// See [`WARMUP`].
pub const MEASURE: u64 = 500_000;

/// Set-up repeats; `setup_s` is their median.
const SETUPS: usize = 5;

/// One replay's outcome.
struct Replay {
    summary: RunSummary,
    wall: f64,
    events: u64,
    /// Traced replays only.
    layers: Option<Layers>,
}

struct Layers {
    scheme: SchemeTimes,
    fill: f64,
}

/// Captures the mix to `path` and validates it; returns per-stream
/// event counts.
pub fn capture(path: &Path, seed: u64, warmup: u64, measure: u64) -> Result<Vec<u64>, String> {
    Experiment::mix(SchemeKind::SNucaLru, &APPS)
        .system(sixteen_core_config())
        .classification(Classification::Manual)
        .warmup(warmup)
        .measure(measure)
        .seed(seed)
        .capture_to(path)
        .run()
        .map_err(|e| format!("mix16 capture: {e}"))?;
    let info = TraceInfo::scan(path).map_err(|e| format!("mix16 capture: {e}"))?;
    Ok(info.streams.iter().map(|s| s.events).collect())
}

/// Replays every stream of `path` under `kind`; traced replays also time
/// each layer.
fn replay(
    kind: SchemeKind,
    path: &Path,
    streams: u16,
    budgets: (u64, u64),
    traced: bool,
) -> Result<Replay, String> {
    let start = Instant::now();
    let tally = Arc::new(FillTally::default());
    let bundles = (0..streams)
        .map(|s| {
            let b = wp_sim::trace_bundle(path, s, true).map_err(|e| e.to_string())?;
            Ok(WorkloadBundle {
                trace: Box::new(CountedWorkload::new(b.trace, Arc::clone(&tally), traced)),
                ..b
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let sys = sixteen_core_config();
    let exp = Experiment::bundles(kind, bundles)
        .system(sys.clone())
        .warmup(budgets.0)
        .measure(budgets.1);
    let (summary, scheme) = if traced {
        let (run, scheme) = exp
            .run_with_scheme(TimedScheme::new(make_scheme(kind, &sys)))
            .map_err(|e| e.to_string())?;
        (run.summary, Some(scheme.times))
    } else {
        (exp.run().map_err(|e| e.to_string())?, None)
    };
    Ok(Replay {
        summary,
        wall: secs(start.elapsed()),
        events: tally.events(),
        layers: scheme.map(|scheme| Layers {
            scheme,
            fill: secs(tally.time()),
        }),
    })
}

/// Replays in rounds over the nine schemes until the phase is over,
/// checking every summary against `reference` (filled in by the first
/// replay of a scheme when empty). Returns the replays by scheme; an
/// error if a scheme never replayed.
fn phase(
    ctx: &Ctx,
    path: &Path,
    streams: u16,
    traced: bool,
    reference: &mut [Option<String>],
    report: &mut Report,
) -> Result<Vec<Vec<Replay>>, String> {
    let mut by_scheme: Vec<Vec<Replay>> = SchemeKind::ALL.iter().map(|_| Vec::new()).collect();
    let start = Instant::now();
    let mut rounds = 0;
    while ctx.another_round(start, rounds) {
        for (i, kind) in SchemeKind::ALL.into_iter().enumerate() {
            let r = replay(kind, path, streams, (WARMUP, MEASURE), traced);
            let Ok(r) = r else {
                report.op(false, || {
                    format!(
                        "replay under {}: {}",
                        kind.label(),
                        r.err().unwrap_or_default()
                    )
                });
                continue;
            };
            let d = digest(r.summary.to_json().as_bytes());
            match &reference[i] {
                Some(expected) => report.op(*expected == d, || {
                    format!("replay under {} changed its summary", kind.label())
                }),
                None => {
                    let key = format!("mix16_replay/{}", kind.label());
                    match ctx.recorded(&key) {
                        Some(expected) => report.expect_digest(&key, &d, expected),
                        None => report.op(true, String::new),
                    }
                    reference[i] = Some(d);
                }
            }
            by_scheme[i].push(r);
        }
        rounds += 1;
    }
    if by_scheme.iter().any(Vec::is_empty) {
        return Err("a scheme failed every replay".into());
    }
    Ok(by_scheme)
}

/// The median round: the sum over schemes of each scheme's median
/// replay time.
fn round_wall(by_scheme: &[Vec<Replay>]) -> f64 {
    by_scheme
        .iter()
        .map(|rs| median(&rs.iter().map(|r| r.wall).collect::<Vec<_>>()))
        .sum()
}

/// Simulated: gmean over cores of LRU cycles ÷ Whirlpool cycles.
pub fn wp_speedup(lru: &RunSummary, wp: &RunSummary) -> f64 {
    let ratios: Vec<f64> = lru
        .cores
        .iter()
        .zip(&wp.cores)
        .map(|(l, w)| l.cycles / w.cycles)
        .collect();
    gmean(&ratios)
}

/// Simulated: Whirlpool's gmean speedup over LRU on the capture's cores.
pub fn trace_wp_speedup(trace: &Path, streams: usize) -> Result<f64, String> {
    let ids: Vec<u16> = (0..streams as u16).collect();
    let run = |kind| {
        Experiment::replay(kind, trace)
            .streams(ids.clone())
            .classification(Classification::Manual)
            .run()
            .map_err(|e| e.to_string())
    };
    Ok(wp_speedup(
        &run(SchemeKind::SNucaLru)?,
        &run(SchemeKind::Whirlpool)?,
    ))
}

/// Host time to drain the capture's generators for the events each
/// core's stream holds.
fn generation_time(seed: u64, stream_events: &[u64]) -> f64 {
    let start = Instant::now();
    let mut batch = EventBatch::with_capacity(256);
    for (core, (&app, &events)) in APPS.iter().zip(stream_events).enumerate() {
        let model = AppModel::new_with_base(registry::spec(app), mix_base_page(core));
        let mut trace = model.trace_seeded(seed + core as u64);
        let mut left = events;
        while left > 0 {
            batch.clear();
            let n = trace.fill_batch(&mut batch, left.min(256) as usize);
            if n == 0 {
                break;
            }
            left -= n as u64;
        }
        std::hint::black_box(&batch);
    }
    secs(start.elapsed())
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut setup = Vec::new();
    let mut path = PathBuf::new();
    let mut stream_events = Vec::new();
    for i in 0..SETUPS {
        let t = Instant::now();
        path = ctx.dir.join(format!("mix16-{i}.wpt"));
        stream_events = capture(&path, ctx.seed, WARMUP, MEASURE)?;
        setup.push(secs(t.elapsed()));
        if i + 1 < SETUPS {
            let _ = std::fs::remove_file(&path);
        }
    }
    let streams = stream_events.len() as u16;
    let mut reference = vec![None; SchemeKind::ALL.len()];
    let untraced = phase(ctx, &path, streams, false, &mut reference, report)?;
    let peak_rss = peak_rss_mib();
    let wall = round_wall(&untraced);
    if !ctx.trace {
        let events: u64 = untraced.iter().map(|rs| rs[0].events).sum();
        // Each scheme's median replay; p50/p99 are taken across schemes.
        let lat: Vec<f64> = untraced
            .iter()
            .map(|rs| median(&rs.iter().map(|r| r.wall * 1e3).collect::<Vec<_>>()))
            .collect();
        let of = |kind| {
            let i = SchemeKind::ALL.iter().position(|&k| k == kind);
            &untraced[i.expect("ALL lists every scheme")][0].summary
        };
        report.metric("setup_s", median(&setup), "s");
        report.metric("wall_s", wall, "s");
        report.metric("events_per_s", events as f64 / wall, "events/s");
        report.metric("req_per_s", SchemeKind::ALL.len() as f64 / wall, "req/s");
        report.metric("latency_p50_ms", percentile(&lat, 50.0), "ms");
        report.metric("latency_p99_ms", percentile(&lat, 99.0), "ms");
        report.metric(
            "sim_wp_speedup",
            wp_speedup(of(SchemeKind::SNucaLru), of(SchemeKind::Whirlpool)),
            "x",
        );
        report.metric("peak_rss_mb", peak_rss, "MiB");
        eprintln!("mix16_replay: {} rounds timed", untraced[0].len());
        return Ok(());
    }
    let traced = phase(ctx, &path, streams, true, &mut reference, report)?;
    let gen: Vec<f64> = (0..SETUPS)
        .map(|_| generation_time(ctx.seed, &stream_events))
        .collect();
    report.metric(
        "bench.tracing_overhead_pct",
        (round_wall(&traced) / wall - 1.0) * 100.0,
        "%",
    );
    report.metric("workloads.gen_s", median(&gen), "s");
    for (kind, rs) in SchemeKind::ALL.into_iter().zip(&traced) {
        let m = |f: &dyn Fn(&Replay, &Layers) -> f64| {
            median(
                &rs.iter()
                    .filter_map(|r| r.layers.as_ref().map(|l| f(r, l)))
                    .collect::<Vec<_>>(),
            )
        };
        let s = kind.label();
        let access = m(&|_, l| secs(l.scheme.access));
        let events = m(&|_, l| l.scheme.access_events as f64);
        report.metric(format!("sim.access_s.{s}"), access, "s");
        report.metric(
            format!("sim.access_ns_per_event.{s}"),
            access * 1e9 / events.max(1.0),
            "ns",
        );
        report.metric(
            format!("sim.reconfigure_s.{s}"),
            m(&|_, l| secs(l.scheme.reconfigure)),
            "s",
        );
        report.metric(
            format!("sim.reconfigure_calls.{s}"),
            m(&|_, l| l.scheme.reconfigure_calls as f64),
            "count",
        );
        report.metric(
            format!("sim.attach_s.{s}"),
            m(&|_, l| secs(l.scheme.attach)),
            "s",
        );
        report.metric(format!("trace.fill_s.{s}"), m(&|_, l| l.fill), "s");
        report.metric(
            format!("sim.driver_self_s.{s}"),
            m(&|r, l| {
                r.wall - secs(l.scheme.access + l.scheme.reconfigure + l.scheme.attach) - l.fill
            }),
            "s",
        );
        let c = &rs[0].summary.cores;
        let accesses: u64 = c.iter().map(|c| c.llc_accesses).sum();
        let misses: u64 = c.iter().map(|c| c.llc_misses).sum();
        report.metric(
            format!("sim.llc_miss_ratio.{s}"),
            misses as f64 / accesses.max(1) as f64,
            "ratio",
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing wraps scheme and workloads; the simulated outcome must not
    /// move, so every scheme's traced summary equals its untraced one.
    #[test]
    fn traced_replays_match_untraced() {
        let dir = std::env::temp_dir().join(format!("wpbench-mix16-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mix16.wpt");
        let budgets = (20_000, 40_000);
        let streams = capture(&path, 3, budgets.0, budgets.1).unwrap().len() as u16;
        for kind in SchemeKind::ALL {
            let plain = replay(kind, &path, streams, budgets, false).unwrap();
            let traced = replay(kind, &path, streams, budgets, true).unwrap();
            assert_eq!(
                plain.summary.to_json(),
                traced.summary.to_json(),
                "{}",
                kind.label()
            );
            assert_eq!(plain.events, traced.events);
            let layers = traced.layers.unwrap();
            assert_eq!(
                layers.scheme.access_events,
                traced.events,
                "{}",
                kind.label()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
