//! Replay determinism: for every Fig. 10 scheme, capturing a short
//! `delaunay` run and replaying the trace with the same budgets yields an
//! *identical* `RunSummary` — instructions, misses, bypasses, cycles, and
//! energy, bit for bit.
//!
//! This is the core guarantee of the trace subsystem: capture tees every
//! event the driver pulls (warmup included), the codec is lossless, and
//! the driver is deterministic given the event stream, so a recorded run
//! is fully reproducible without its generating model.

use whirlpool_repro::harness::{
    four_core_config, make_scheme, Classification, Experiment, SchemeKind,
};
use wp_sim::{trace_bundle, PerEvent};

const WARMUP: u64 = 400_000;
const MEASURE: u64 = 400_000;
/// Per-core budgets of the 4-core mix capture.
const MIX_WARMUP: u64 = 100_000;
const MIX_MEASURE: u64 = 150_000;

fn temp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("wp-replay-det-{}-{tag}.wpt", std::process::id()))
}

#[test]
fn every_fig10_scheme_replays_bit_identically() {
    for kind in SchemeKind::FIG10 {
        let path = temp(kind.label());
        let live = Experiment::single(kind, "delaunay")
            .warmup(WARMUP)
            .measure(MEASURE)
            .capture_to(&path)
            .run()
            .expect("capture run");
        let uri = format!("trace:{}", path.display());
        let replayed = Experiment::single(kind, &uri)
            .warmup(WARMUP)
            .measure(MEASURE)
            .run()
            .expect("replay run");

        // Spot-check the load-bearing counters explicitly...
        let (l, r) = (&live.cores[0], &replayed.cores[0]);
        assert_eq!(l.instructions, r.instructions, "{kind:?} instructions");
        assert_eq!(l.llc_misses, r.llc_misses, "{kind:?} misses");
        assert_eq!(l.llc_hits, r.llc_hits, "{kind:?} hits");
        assert_eq!(l.llc_bypasses, r.llc_bypasses, "{kind:?} bypasses");
        assert_eq!(l.cycles.to_bits(), r.cycles.to_bits(), "{kind:?} cycles");
        assert_eq!(
            live.energy.total_nj().to_bits(),
            replayed.energy.total_nj().to_bits(),
            "{kind:?} energy"
        );
        // ...then the whole summary: the JSON rendering round-trips f64s
        // exactly, so string equality is bit equality of every field.
        assert_eq!(live.to_json(), replayed.to_json(), "{kind:?} full summary");

        // Sanity: the run actually did something.
        assert!(l.instructions >= MEASURE, "{kind:?} ran");
        assert!(
            l.llc_accesses + l.llc_bypasses > 0,
            "{kind:?} accessed the LLC"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

/// The simulator's one delivery path (batched fill + `access_batch`) must be
/// observationally invisible: for every scheme, replaying a capture
/// through it and through the per-event reference adapter
/// ([`PerEvent`]: one `next_event` and one `access` per event) yields
/// bit-identical summaries — for a single stream and for all four
/// streams of a mix capture.
#[test]
fn every_scheme_matches_the_per_event_reference() {
    // Captured with the manual pools, so the pool-aware schemes replay
    // with their per-pool VCs.
    let single = temp("ref-single");
    Experiment::single(SchemeKind::SNucaLru, "delaunay")
        .classification(Classification::Manual)
        .warmup(WARMUP)
        .measure(MEASURE)
        .capture_to(&single)
        .run()
        .expect("single capture");
    let mix = temp("ref-mix");
    Experiment::mix(SchemeKind::SNucaLru, &["delaunay", "mcf", "lbm", "milc"])
        .classification(Classification::Manual)
        .warmup(MIX_WARMUP)
        .measure(MIX_MEASURE)
        .capture_to(&mix)
        .run()
        .expect("mix capture");
    for (trace, streams) in [(&single, 1), (&mix, 4)] {
        let pools: usize = (0..streams)
            .map(|s| trace_bundle(trace, s, true).unwrap().pools.len())
            .sum();
        assert!(pools > 0, "{} recorded no pools", trace.display());
    }
    let sys = four_core_config();
    for kind in SchemeKind::ALL {
        for (trace, streams, (warmup, measure)) in [
            (&single, vec![0], (WARMUP, MEASURE)),
            (&mix, vec![0, 1, 2, 3], (MIX_WARMUP, MIX_MEASURE)),
        ] {
            let batched = Experiment::replay(kind, trace)
                .streams(streams.clone())
                .warmup(warmup)
                .measure(measure)
                .run()
                .expect("batched replay");
            let bundles = streams
                .iter()
                .map(|&s| PerEvent::bundle(trace_bundle(trace, s, kind.uses_pools()).unwrap()))
                .collect();
            let (reference, _) = Experiment::bundles(kind, bundles)
                .warmup(warmup)
                .measure(measure)
                .run_with_scheme(PerEvent(make_scheme(kind, &sys)))
                .expect("reference replay");
            assert_eq!(
                batched.to_json(),
                reference.summary.to_json(),
                "{kind:?} on {} streams: batched replay diverged from the reference",
                streams.len()
            );
            for core in &batched.cores[..streams.len()] {
                assert!(core.instructions >= measure, "{kind:?} ran");
            }
        }
    }
    std::fs::remove_file(&single).unwrap();
    std::fs::remove_file(&mix).unwrap();
}

#[test]
fn replay_without_pools_strips_classification() {
    // A Whirlpool capture replayed with Classification::None must not
    // hand the recorded pools to the scheme: it degenerates to the
    // thread-VC-only configuration and (in general) different stats.
    let path = temp("strip");
    let live = Experiment::single(SchemeKind::Whirlpool, "delaunay")
        .warmup(WARMUP)
        .measure(MEASURE)
        .capture_to(&path)
        .run()
        .expect("capture");
    let uri = format!("trace:{}", path.display());
    let stripped = Experiment::single(SchemeKind::Whirlpool, &uri)
        .classification(Classification::None)
        .warmup(WARMUP)
        .measure(MEASURE)
        .run()
        .expect("replay");
    // Same instruction stream either way.
    assert_eq!(live.cores[0].instructions, stripped.cores[0].instructions);
    // Structurally: None strips the recorded pools, Manual restores them.
    use whirlpool_repro::harness::app_bundle;
    assert!(app_bundle(&uri, Classification::None)
        .unwrap()
        .pools
        .is_empty());
    assert_eq!(
        app_bundle(&uri, Classification::Manual)
            .unwrap()
            .pools
            .len(),
        3
    );
    // Behaviourally: without its per-pool VCs Whirlpool degenerates to
    // the thread-VC-only configuration and places/bypasses differently.
    assert_ne!(live.to_json(), stripped.to_json());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn trace_uri_works_in_a_multiprogram_mix() {
    let path = temp("mix");
    Experiment::single(SchemeKind::SNucaLru, "delaunay")
        .warmup(100_000)
        .measure(150_000)
        .capture_to(&path)
        .run()
        .expect("capture");
    let uri = format!("trace:{}", path.display());
    let out = Experiment::mix(SchemeKind::SNucaLru, &[uri.as_str(), "mcf"])
        .measure(100_000)
        .run()
        .expect("mix with a trace core");
    assert!(out.cores[0].instructions >= 100_000, "trace core ran");
    assert!(out.cores[1].instructions >= 100_000, "model core ran");
    std::fs::remove_file(&path).unwrap();
}
