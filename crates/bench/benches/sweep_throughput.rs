//! Warm-sweep throughput: the batched simulator path vs the per-event
//! reference.
//!
//! The simulator has one delivery path; the per-event arm runs the same
//! replay with the workloads and the scheme wrapped in the
//! [`PerEvent`] reference adapter, which hides the batched overrides
//! (`TraceWorkload::fill_batch`, `SNucaScheme::access_batch`) so every
//! event goes through `next_event` and `access` one at a time.
//!
//! Criterion mode (`cargo bench -p wp-bench --bench sweep_throughput`)
//! times a warm single-app replay under both arms.
//!
//! Smoke mode (`cargo bench -p wp-bench --bench sweep_throughput -- --json`)
//! runs the full warm-sweep measurement and writes the machine-readable
//! `BENCH_sweep.json` (override the path with `WP_BENCH_JSON`): one cold
//! cell (live 16-core mix capture) and seventeen warm cells over the
//! resulting trace — the all-streams mix replay plus one per-stream
//! breakdown replay per app — each timed under the per-event reference
//! and the batched path. Every cell's `RunSummary` is asserted
//! bit-identical across arms before its timing counts, so the speedups
//! cannot come from divergent simulation.
//!
//! The per-event reference pays the seed architecture's cost on mix captures:
//! every streaming reader decodes all N streams to deliver its own. The
//! batched path decodes each chunk once (all-streams) or follows one
//! stream and frame-walks the rest (breakdown) — that asymmetry, plus
//! batched scheme loops with software prefetch, is the headline
//! `warm_sweep_speedup` (geometric mean of per-cell speedups, the same
//! aggregation the repo's figures use).

use std::path::{Path, PathBuf};
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use whirlpool_repro::harness::{
    four_core_config, make_scheme, sixteen_core_config, Experiment, SchemeKind,
};
use wp_bench::gmean;
use wp_sim::{trace_bundle, PerEvent, RunSummary, SystemConfig};
use wp_trace::TraceInfo;

/// Four distinct footprints (Fig. 2 spread), repeated over 16 cores.
const MIX_APPS: [&str; 16] = [
    "delaunay", "mcf", "lbm", "milc", "delaunay", "mcf", "lbm", "milc", "delaunay", "mcf", "lbm",
    "milc", "delaunay", "mcf", "lbm", "milc",
];

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wp-sweep-bench-{}-{tag}.wpt", std::process::id()))
}

/// Replays stream `stream` of `cap` — or, with `None`, every stream it
/// scans — on `sys` under LRU, through the batched simulator path or
/// (`per_event`) the reference adapter. `budgets` apply to both arms.
fn replay(
    cap: &Path,
    stream: Option<u16>,
    sys: &SystemConfig,
    per_event: bool,
    budgets: Option<(u64, u64)>,
) -> RunSummary {
    let kind = SchemeKind::SNucaLru;
    let mut exp = if per_event {
        let ids = match stream {
            Some(k) => vec![k],
            None => TraceInfo::scan(cap)
                .expect("scan capture")
                .streams
                .iter()
                .map(|s| s.meta.id)
                .collect(),
        };
        let bundles = ids
            .into_iter()
            .map(|k| PerEvent::bundle(trace_bundle(cap, k, false).expect("open stream")))
            .collect();
        Experiment::bundles(kind, bundles)
    } else {
        match stream {
            Some(k) => Experiment::replay(kind, cap).stream(k),
            None => Experiment::replay(kind, cap).all_streams(),
        }
    };
    if let Some((w, m)) = budgets {
        exp = exp.warmup(w).measure(m);
    }
    let exp = exp.system(sys.clone());
    if per_event {
        exp.run_with_scheme(PerEvent(make_scheme(kind, sys)))
            .map(|(run, _)| run.summary)
    } else {
        exp.run()
    }
    .expect("replay")
}

fn bench(c: &mut Criterion) {
    let path = temp("criterion");
    Experiment::single(SchemeKind::SNucaLru, "delaunay")
        .warmup(100_000)
        .measure(400_000)
        .capture_to(&path)
        .run()
        .expect("capture");
    let sys = four_core_config();
    for (label, per_event) in [("per_event", true), ("batched", false)] {
        c.bench_function(&format!("warm_replay/{label}"), |b| {
            b.iter(|| replay(&path, Some(0), &sys, per_event, Some((100_000, 400_000))))
        });
    }
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench);

struct Cell {
    name: String,
    events: u64,
    per_event_ns: u128,
    batched_ns: u128,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.per_event_ns as f64 / self.batched_ns as f64
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"cell\":\"{}\",\"events\":{},\"per_event_ns\":{},\"batched_ns\":{},\
             \"speedup\":{:.2}}}",
            self.name,
            self.events,
            self.per_event_ns,
            self.batched_ns,
            self.speedup(),
        )
    }
}

/// Times one warm replay cell under both arms, asserting the summaries
/// are bit-identical before the timing is trusted.
fn run_cell(name: &str, events: u64, run: impl Fn(bool) -> RunSummary) -> Cell {
    let t0 = Instant::now();
    let per_event = run(true);
    let per_event_ns = t0.elapsed().as_nanos();
    let t0 = Instant::now();
    let batched = run(false);
    let batched_ns = t0.elapsed().as_nanos();
    assert_eq!(
        per_event.to_json(),
        batched.to_json(),
        "cell {name}: batched replay diverged from per-event"
    );
    Cell {
        name: name.to_string(),
        events,
        per_event_ns,
        batched_ns,
    }
}

/// One-shot smoke measurement: the warm-sweep data point for
/// `BENCH_sweep.json`. `WP_BENCH_SWEEP_MEASURE` overrides the per-core
/// measure budget (instructions) of the recorded mix.
fn smoke() {
    let measure: u64 = std::env::var("WP_BENCH_SWEEP_MEASURE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000_000);
    let cap = temp("smoke");

    // Cold cell: live 16-core mix run, captured to the trace cache.
    let t0 = Instant::now();
    Experiment::mix(SchemeKind::SNucaLru, &MIX_APPS)
        .measure(measure)
        .system(sixteen_core_config())
        .capture_to(&cap)
        .run()
        .expect("record mix");
    let cold_ns = t0.elapsed().as_nanos();
    let info = TraceInfo::scan(&cap).expect("scan capture");
    let total: u64 = info.streams.iter().map(|s| s.events).sum();

    // Warm cells: the all-streams mix replay, then one per-stream
    // breakdown replay per app (per-event readers re-decode all 16
    // streams for each of these; batched readers follow one).
    let (sys16, sys4) = (sixteen_core_config(), four_core_config());
    let mut cells = vec![run_cell("all_streams", total, |per_event| {
        replay(&cap, None, &sys16, per_event, None)
    })];
    for s in &info.streams {
        let k = s.meta.id;
        cells.push(run_cell(
            &format!("stream{k}:{}", s.meta.name),
            s.events,
            |per_event| replay(&cap, Some(k), &sys4, per_event, None),
        ));
    }
    let _ = std::fs::remove_file(&cap);

    let warm_events: u64 = cells.iter().map(|c| c.events).sum();
    let per_event_ns: u128 = cells.iter().map(|c| c.per_event_ns).sum();
    let batched_ns: u128 = cells.iter().map(|c| c.batched_ns).sum();
    let evps = |events: u64, ns: u128| events as f64 * 1e9 / ns as f64;
    let speedups: Vec<f64> = cells.iter().map(Cell::speedup).collect();
    let warm_sweep_speedup = gmean(&speedups);
    let cold_evps = evps(total, cold_ns);
    let per_event_evps = evps(warm_events, per_event_ns);
    let batched_evps = evps(warm_events, batched_ns);
    let aggregate_speedup = per_event_ns as f64 / batched_ns as f64;

    let cell_json: Vec<String> = cells.iter().map(Cell::to_json).collect();
    let json = format!(
        "{{\"bench\":\"sweep_throughput\",\"scheme\":\"LRU\",\"streams\":{},\
         \"capture_events\":{total},\"measure_instrs\":{measure},\
         \"cold\":{{\"ns\":{cold_ns},\"events_per_sec\":{cold_evps:.0}}},\
         \"cells\":[{}],\
         \"warm\":{{\"events\":{warm_events},\"per_event_ns\":{per_event_ns},\
         \"batched_ns\":{batched_ns},\"per_event_events_per_sec\":{per_event_evps:.0},\
         \"batched_events_per_sec\":{batched_evps:.0},\
         \"aggregate_speedup\":{aggregate_speedup:.2},\
         \"gmean_cell_speedup\":{warm_sweep_speedup:.2}}},\
         \"gate\":{{\"warm_sweep_speedup\":{warm_sweep_speedup:.2},\
         \"batched_events_per_sec\":{batched_evps:.0}}}}}",
        info.streams.len(),
        cell_json.join(","),
    );
    let out = std::env::var_os("WP_BENCH_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_sweep.json"));
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_sweep.json");
    println!("{json}");
    eprintln!("wrote {}", out.display());
}

fn main() {
    if std::env::args().any(|a| a == "--json") {
        smoke();
        return;
    }
    let mut c = Criterion::from_args();
    benches(&mut c);
    c.final_summary();
}
