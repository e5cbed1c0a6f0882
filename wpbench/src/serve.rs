//! `serve_closed`: an in-process `wp-serve` daemon under a closed loop of
//! [`CLIENTS`] clients.
//!
//! Each request opens a fresh connection, as `trace_tool --connect`
//! does, and each client waits for its reply before sending the next
//! request, so the loop is closed. Requests are short, so per-request
//! scheme construction, accept, queueing and serialization dominate over
//! scheme access. The seeded mix is about half single-stream `replay` of
//! small windows under a random scheme, a third `profile` over a key set
//! larger than set-up warms (so the curve memo both hits and misses),
//! and the rest `status`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use whirlpool_repro::bench_check::{parse, Json};
use whirlpool_repro::harness::{Classification, Experiment, SchemeKind};
use wp_serve::ops::run_request;
use wp_serve::{Client, ExpOp, OpCtx, Request, ServeConfig, Server};

use crate::report::{digest, median, peak_rss_mib, percentile, secs, Report};
use crate::Ctx;

/// Closed-loop clients (the machine has two cores; the daemon's two
/// workers do the work while the clients wait).
pub const CLIENTS: usize = 2;
/// A timed phase completes at least this many requests, so its p99 has
/// at least ten samples beyond it.
pub const MIN_REQUESTS: usize = 1000;
/// `wall_s` is the median time the loop takes to complete this many.
const ROUND_REQUESTS: usize = 100;
const SETUPS: usize = 5;

/// The served capture: four cores, one stream each.
const APPS: [&str; 4] = ["delaunay", "mcf", "omnet", "milc"];
const MEASURE: u64 = 40_000;
/// Replay `(warmup, measure)` windows, in instructions.
const WINDOWS: [(u64, u64); 3] = [(0, 5_000), (5_000, 10_000), (10_000, 20_000)];
/// Profile modes: exact, or SHARDS at these rates.
const PROFILE_RATES: [Option<&str>; 3] = [None, Some("0.1"), Some("0.05")];
/// Each client thinks for a seeded time drawn uniformly below this
/// before each request. The listener polls for connections every 20 ms;
/// without think time the clients reconnect in step with that poll and
/// every latency locks to its period.
const THINK_MAX_US: u64 = 20_000;
/// Profile granules; set-up warms only the first.
const GRANULES: [&str; 2] = ["1024", "64"];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Verb {
    Replay,
    Profile,
    Status,
}

impl Verb {
    const ALL: [Verb; 3] = [Verb::Replay, Verb::Profile, Verb::Status];

    fn label(self) -> &'static str {
        match self {
            Verb::Replay => "replay",
            Verb::Profile => "profile",
            Verb::Status => "status",
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn profile_request(trace: &str, stream: usize, rate: Option<&str>, granule: &str) -> Request {
    let mut argv = vec![trace.to_string(), "--stream".into(), stream.to_string()];
    if let Some(r) = rate {
        argv.extend(["--sample-rate".into(), r.to_string()]);
    }
    argv.extend(["--granule".into(), granule.to_string(), "--json".into()]);
    Request::Profile { argv }
}

/// Request `i` of the seeded mix, and the think time before it.
fn request(seed: u64, i: usize, trace: &str) -> (Verb, Request, Duration) {
    let mut r = splitmix64(seed ^ splitmix64(i as u64));
    let think = Duration::from_micros(r % THINK_MAX_US);
    r /= THINK_MAX_US;
    let mut pick = |n: usize| {
        let v = (r % n as u64) as usize;
        r /= n as u64;
        v
    };
    let verb = match pick(100) {
        0..=49 => Verb::Replay,
        50..=84 => Verb::Profile,
        _ => Verb::Status,
    };
    let req = match verb {
        Verb::Replay => {
            let kind = SchemeKind::ALL[pick(SchemeKind::ALL.len())];
            let (warmup, measure) = WINDOWS[pick(WINDOWS.len())];
            Request::Experiment {
                op: ExpOp::Replay,
                argv: vec![
                    trace.to_string(),
                    "--scheme".into(),
                    kind.label().into(),
                    "--stream".into(),
                    pick(APPS.len()).to_string(),
                    "--warmup".into(),
                    warmup.to_string(),
                    "--measure".into(),
                    measure.to_string(),
                ],
            }
        }
        Verb::Profile => profile_request(
            trace,
            pick(APPS.len()),
            PROFILE_RATES[pick(PROFILE_RATES.len())],
            GRANULES[pick(GRANULES.len())],
        ),
        Verb::Status => Request::Status,
    };
    (verb, req, think)
}

/// One request as the client saw it.
struct Sample {
    verb: Verb,
    line: String,
    /// Seconds since the phase started: before connect, and at the
    /// reply's last frame.
    start: f64,
    end: f64,
    /// Connect → `ack` (work verbs only).
    accept_ms: f64,
    /// `ack` → `done` for work verbs; send → reply for `status`.
    job_ms: f64,
    /// Digest of the reply's `line` payloads (work verbs).
    digest: String,
    error: Option<String>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

fn frame_type(frame: &str) -> Result<(Json, String), String> {
    let doc = parse(frame).map_err(|e| format!("malformed frame: {e}"))?;
    let ty = doc
        .get("type")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    Ok((doc, ty))
}

/// Sends `req` over a fresh connection and reads its whole reply.
fn call(socket: &Path, verb: Verb, req: &Request, epoch: Instant) -> Sample {
    let start = Instant::now();
    let mut s = Sample {
        verb,
        line: req.to_line(),
        start: secs(start - epoch),
        end: 0.0,
        accept_ms: 0.0,
        job_ms: 0.0,
        digest: String::new(),
        error: None,
    };
    let result = (|| -> Result<(), String> {
        let mut client = Client::connect(socket)?;
        client.send_line(&s.line)?;
        let sent = Instant::now();
        if verb == Verb::Status {
            let (_, ty) = frame_type(&client.read_frame()?)?;
            s.job_ms = secs(sent.elapsed()) * 1e3;
            return if ty == "status" {
                Ok(())
            } else {
                Err(format!("status answered with a '{ty}' frame"))
            };
        }
        let (doc, ty) = frame_type(&client.read_frame()?)?;
        if ty != "ack" {
            let msg = doc.get("message").and_then(Json::as_str).unwrap_or(&ty);
            return Err(format!("no ack: {msg}"));
        }
        let acked = Instant::now();
        s.accept_ms = secs(acked - start) * 1e3;
        let mut payload = Vec::new();
        loop {
            let (doc, ty) = frame_type(&client.read_frame()?)?;
            match ty.as_str() {
                "line" => payload.push(
                    doc.get("data")
                        .and_then(Json::as_str)
                        .ok_or("line frame without data")?
                        .to_string(),
                ),
                "done" => break,
                _ => {
                    let msg = doc.get("message").and_then(Json::as_str).unwrap_or(&ty);
                    return Err(format!("error frame: {msg}"));
                }
            }
        }
        s.job_ms = secs(acked.elapsed()) * 1e3;
        s.digest = digest(payload.join("\n").as_bytes());
        Ok(())
    })();
    s.end = secs(epoch.elapsed());
    s.error = result.err();
    s
}

/// A running in-process daemon with its own socket, store and capture.
struct Daemon {
    socket: PathBuf,
    trace: String,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<Result<(), String>>,
}

impl Daemon {
    /// Captures the served trace, binds and starts the daemon, and warms
    /// its curve memo with the first granule's profile keys.
    fn start(dir: &Path, seed: u64) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let trace = dir.join("serve.wpt");
        Experiment::mix(SchemeKind::SNucaLru, &APPS)
            .classification(Classification::Manual)
            .warmup(0)
            .measure(MEASURE)
            .seed(seed)
            .capture_to(&trace)
            .run()
            .map_err(|e| format!("serve capture: {e}"))?;
        let config = ServeConfig {
            socket: dir.join("d.sock"),
            cache_dir: dir.join("cache"),
            state_dir: dir.join("state"),
            workers: 2,
            queue_capacity: 64,
            job_timeout_ms: None,
        };
        let server = Server::bind(&config)?;
        let shutdown = server.shutdown_flag();
        let thread = std::thread::Builder::new()
            .name("wpbench-daemon".into())
            .spawn(move || server.run())
            .map_err(|e| format!("cannot spawn daemon thread: {e}"))?;
        let daemon = Daemon {
            socket: config.socket,
            trace: trace.to_string_lossy().into_owned(),
            shutdown,
            thread,
        };
        let epoch = Instant::now();
        let mut warm = vec![(Verb::Status, Request::Status)];
        for stream in 0..APPS.len() {
            for rate in PROFILE_RATES {
                let req = profile_request(&daemon.trace, stream, rate, GRANULES[0]);
                warm.push((Verb::Profile, req));
            }
        }
        for (verb, req) in warm {
            if let Some(e) = call(&daemon.socket, verb, &req, epoch).error {
                daemon.stop()?;
                return Err(format!("daemon warm-up: {e}"));
            }
        }
        Ok(daemon)
    }

    /// The daemon's registry counters, via its `metrics` verb.
    fn counters(&self) -> Result<HashMap<String, f64>, String> {
        let frame = Client::connect(&self.socket)?.call(&Request::Metrics)?;
        let (doc, _) = frame_type(&frame)?;
        match doc.get("snapshot").and_then(|s| s.get("counters")) {
            Some(Json::Obj(entries)) => Ok(entries
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()),
            _ => Err("metrics reply lacks counters".into()),
        }
    }

    fn stop(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
    }
}

/// Runs the closed loop against `daemon` until the phase is over.
fn closed_loop(ctx: &Ctx, daemon: &Daemon) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let epoch = Instant::now();
    let cap = 2.0 * ctx.seconds.max(30.0);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (next, done, samples) = (&next, &done, &samples);
            std::thread::Builder::new()
                .name(format!("wpbench-client-{c}"))
                .spawn_scoped(scope, move || loop {
                    let t = secs(epoch.elapsed());
                    if (t >= ctx.seconds && done.load(Ordering::SeqCst) >= MIN_REQUESTS) || t >= cap
                    {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let (verb, req, think) = request(ctx.seed, i, &daemon.trace);
                    std::thread::sleep(think);
                    let s = call(&daemon.socket, verb, &req, epoch);
                    samples.lock().expect("sample list poisoned").push(s);
                    done.fetch_add(1, Ordering::SeqCst);
                })
                .expect("cannot spawn client thread");
        }
    });
    let mut v = samples.into_inner().expect("sample list poisoned");
    v.sort_by(|a, b| a.end.total_cmp(&b.end));
    v
}

/// Checks every reply against the offline op for the same request and
/// counts each request as one operation. Returns the LLC events each
/// distinct work request covers.
fn verify(samples: &[Sample], report: &mut Report) -> HashMap<String, u64> {
    let mut offline: HashMap<String, (String, u64)> = HashMap::new();
    for s in samples {
        if let Some(e) = &s.error {
            report.op(false, || format!("{}: {e}", s.line));
            continue;
        }
        if s.verb == Verb::Status {
            report.op(true, String::new);
            continue;
        }
        let (expected, _) = offline.entry(s.line.clone()).or_insert_with(|| {
            let req = Request::from_line(&s.line).expect("the benchmark's own request parses");
            match run_request(&req, &OpCtx::offline()) {
                Ok(lines) => (digest(lines.join("\n").as_bytes()), events_of(&lines)),
                Err(e) => (format!("offline error: {e}"), 0),
            }
        });
        report.op(*expected == s.digest, || {
            format!("{}: served reply differs from offline ({expected})", s.line)
        });
    }
    offline.into_iter().map(|(k, (_, n))| (k, n)).collect()
}

/// LLC events a reply covers: a replay summary's per-core accesses and
/// bypasses, or a profile's per-stream events.
fn events_of(lines: &[String]) -> u64 {
    let sum = |arr: Option<&Json>, fields: &[&str]| -> f64 {
        match arr {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|it| {
                    fields
                        .iter()
                        .filter_map(|f| it.get(f)?.as_f64())
                        .sum::<f64>()
                })
                .sum(),
            _ => 0.0,
        }
    };
    lines
        .iter()
        .filter_map(|l| parse(l).ok())
        .map(|doc| {
            sum(doc.get("cores"), &["llc_accesses", "llc_bypasses"])
                + sum(doc.get("streams"), &["events"])
        })
        .sum::<f64>() as u64
}

/// The median time the loop took per [`ROUND_REQUESTS`] completed
/// requests (`ok` is in completion order).
fn median_round(ok: &[&Sample]) -> f64 {
    let rounds: Vec<f64> = (1..=ok.len() / ROUND_REQUESTS)
        .map(|k| {
            let from = match k {
                1 => 0.0,
                _ => ok[(k - 1) * ROUND_REQUESTS - 1].end,
            };
            ok[k * ROUND_REQUESTS - 1].end - from
        })
        .collect();
    median(&rounds)
}

fn ms(samples: &[&Sample], f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    samples.iter().map(|s| f(s)).collect()
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut setup = Vec::new();
    let mut daemons = Vec::new();
    for i in 0..SETUPS {
        let t = Instant::now();
        let d = Daemon::start(&ctx.dir.join(format!("serve-{i}")), ctx.seed)?;
        setup.push(secs(t.elapsed()));
        daemons.push(d);
        // Keep the last two: the traced run gives its traced phase a
        // daemon as fresh as the untraced phase's.
        if daemons.len() > 2 {
            daemons.remove(0).stop()?;
        }
    }
    let traced_daemon = daemons.pop().ok_or("no daemon")?;
    let daemon = daemons.pop().ok_or("no daemon")?;
    let result = measure(ctx, &daemon, &traced_daemon, &setup, report);
    daemon.stop()?;
    traced_daemon.stop()?;
    result
}

fn measure(
    ctx: &Ctx,
    daemon: &Daemon,
    traced_daemon: &Daemon,
    setup: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let untraced = closed_loop(ctx, daemon);
    let peak_rss = peak_rss_mib();
    let events = verify(&untraced, report);
    let ok: Vec<&Sample> = untraced.iter().filter(|s| s.error.is_none()).collect();
    let span = untraced.last().map_or(0.0, |s| s.end);
    let wall = median_round(&ok);
    if !ctx.trace {
        let lat = ms(&ok, Sample::latency_ms);
        let served: u64 = ok
            .iter()
            .map(|s| events.get(&s.line).copied().unwrap_or(0))
            .sum();
        report.metric("setup_s", median(setup), "s");
        report.metric("wall_s", wall, "s");
        report.metric("events_per_s", served as f64 / span, "events/s");
        report.metric("req_per_s", ok.len() as f64 / span, "req/s");
        report.metric("latency_p50_ms", percentile(&lat, 50.0), "ms");
        report.metric("latency_p99_ms", percentile(&lat, 99.0), "ms");
        report.metric(
            "sim_wp_speedup",
            crate::mix16::trace_wp_speedup(Path::new(&daemon.trace), APPS.len())?,
            "x",
        );
        report.metric("peak_rss_mb", peak_rss, "MiB");
        eprintln!("serve_closed: {} requests timed", lat.len());
        return Ok(());
    }
    let before = traced_daemon.counters()?;
    let traced = closed_loop(ctx, traced_daemon);
    let after = traced_daemon.counters()?;
    verify(&traced, report);
    let ok: Vec<&Sample> = traced.iter().filter(|s| s.error.is_none()).collect();
    report.metric(
        "bench.tracing_overhead_pct",
        (median_round(&ok) / wall - 1.0) * 100.0,
        "%",
    );
    let work: Vec<&Sample> = ok
        .iter()
        .copied()
        .filter(|s| s.verb != Verb::Status)
        .collect();
    let accept = ms(&work, |s| s.accept_ms);
    report.metric("serve.accept_ms_p50", percentile(&accept, 50.0), "ms");
    report.metric("serve.accept_ms_p99", percentile(&accept, 99.0), "ms");
    for verb in Verb::ALL {
        let of: Vec<&Sample> = ok.iter().copied().filter(|s| s.verb == verb).collect();
        let v = verb.label();
        let lat = ms(&of, Sample::latency_ms);
        report.metric(
            format!("serve.job_ms_p50.{v}"),
            median(&ms(&of, |s| s.job_ms)),
            "ms",
        );
        report.metric(
            format!("serve.latency_ms_p50.{v}"),
            percentile(&lat, 50.0),
            "ms",
        );
        report.metric(
            format!("serve.latency_ms_p99.{v}"),
            percentile(&lat, 99.0),
            "ms",
        );
    }
    let delta = |k: &str| after.get(k).unwrap_or(&0.0) - before.get(k).unwrap_or(&0.0);
    for (name, hits, misses) in [
        ("curve_memo", "curve_store_hits", "curve_store_misses"),
        ("trace_cache", "trace_cache_hits", "trace_cache_misses"),
    ] {
        let base = delta(hits) + delta(misses);
        report.metric(format!("serve.{name}_lookups"), base, "count");
        report.metric(
            format!("serve.{name}_hit_ratio"),
            if base > 0.0 { delta(hits) / base } else { 0.0 },
            "ratio",
        );
    }
    report.metric(
        "serve.queue_high_water",
        *after.get("serve_queue_high_water").unwrap_or(&0.0),
        "count",
    );
    Ok(())
}
