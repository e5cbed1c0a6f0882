//! Wall-clock phase timing.
//!
//! A [`Span`] measures one phase of work: create it with [`span`], drop
//! it when the phase ends. Elapsed time accumulates in two places:
//!
//! * a process-wide atomic total per phase (exported by the registry's
//!   snapshot as `phases`), and
//! * a thread-local total per phase, drained by [`take_thread_phases`] —
//!   the sweep engine's per-cell attribution: each worker runs one cell
//!   at a time, so the thread-local delta across a cell *is* that cell's
//!   phase breakdown.
//!
//! Spans are cheap and disabled-by-default like the counters: while the
//! registry is off, [`span`] returns an inert guard without reading the
//! clock. Phases are independent accumulators, not a nesting stack — a
//! decode span inside a warmup span counts toward both, which is the
//! useful reading (decode is where warmup's wall-time went).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The phases of a run the stack instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Recording a `.wpt` capture (including the producing run).
    Capture,
    /// Decoding trace chunks on the simulating thread.
    Decode,
    /// The uncounted warmup window of a run.
    Warmup,
    /// The measured window of a run.
    Measure,
    /// MRC profiling (Mattson / SHARDS scans).
    Profile,
    /// WhirlTool pool classification.
    Classify,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; 6] = [
        Phase::Capture,
        Phase::Decode,
        Phase::Warmup,
        Phase::Measure,
        Phase::Profile,
        Phase::Classify,
    ];

    /// The snake_case name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Capture => "capture",
            Phase::Decode => "decode",
            Phase::Warmup => "warmup",
            Phase::Measure => "measure",
            Phase::Profile => "profile",
            Phase::Classify => "classify",
        }
    }
}

const N_PHASES: usize = Phase::ALL.len();

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static GLOBAL_NANOS: [AtomicU64; N_PHASES] = [ZERO; N_PHASES];

thread_local! {
    static THREAD_NANOS: Cell<[u64; N_PHASES]> = const { Cell::new([0; N_PHASES]) };
}

/// Per-phase elapsed seconds, as drained from a thread's accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTotals {
    nanos: [u64; N_PHASES],
}

impl PhaseTotals {
    /// Seconds accumulated in `phase`.
    pub fn seconds(&self, phase: Phase) -> f64 {
        self.nanos[phase as usize] as f64 / 1e9
    }

    /// True when no phase recorded any time (e.g. observability was off).
    pub fn is_empty(&self) -> bool {
        self.nanos.iter().all(|&n| n == 0)
    }

    /// `(name, seconds)` rows for phases with nonzero time.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        Phase::ALL
            .iter()
            .filter(|&&p| self.nanos[p as usize] > 0)
            .map(|&p| (p.name(), self.seconds(p)))
            .collect()
    }

    /// Serializes nonzero phases as one JSON object, e.g.
    /// `{"warmup":0.12,"measure":0.48}`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows()
            .iter()
            .map(|(n, s)| format!("\"{n}\":{}", crate::json::fmt_f64(*s)))
            .collect();
        format!("{{{}}}", rows.join(","))
    }
}

/// A live phase measurement; records on drop.
#[derive(Debug)]
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        GLOBAL_NANOS[self.phase as usize].fetch_add(nanos, Ordering::Relaxed);
        THREAD_NANOS.with(|t| {
            let mut v = t.get();
            v[self.phase as usize] = v[self.phase as usize].saturating_add(nanos);
            t.set(v);
        });
    }
}

/// Starts timing `phase`. Inert (no clock read) while the registry is
/// disabled.
pub fn span(phase: Phase) -> Span {
    Span {
        phase,
        start: crate::registry::enabled().then(Instant::now),
    }
}

/// Drains the calling thread's phase accumulator, returning what was
/// recorded on this thread since the previous drain.
pub fn take_thread_phases() -> PhaseTotals {
    THREAD_NANOS.with(|t| PhaseTotals {
        nanos: t.replace([0; N_PHASES]),
    })
}

/// `(name, seconds)` for every phase, process-wide (the registry
/// snapshot's `phases` object; zero rows included for a stable schema).
pub(crate) fn global_phase_totals() -> Vec<(&'static str, f64)> {
    Phase::ALL
        .iter()
        .map(|&p| {
            (
                p.name(),
                GLOBAL_NANOS[p as usize].load(Ordering::Relaxed) as f64 / 1e9,
            )
        })
        .collect()
}

/// Zeroes the process-wide phase totals (thread-locals drain themselves).
pub(crate) fn reset_global_phases() {
    for p in &GLOBAL_NANOS {
        p.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_into_thread_totals() {
        let _serial = crate::serial_test();
        crate::registry::set_enabled(true);
        let _ = take_thread_phases(); // drain anything earlier tests left
        {
            let _s = span(Phase::Warmup);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _s = span(Phase::Measure);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let totals = take_thread_phases();
        crate::registry::set_enabled(false);
        assert!(totals.seconds(Phase::Warmup) > 0.0);
        assert!(totals.seconds(Phase::Measure) > 0.0);
        assert_eq!(totals.seconds(Phase::Classify), 0.0);
        let json = totals.to_json();
        assert!(json.contains("\"warmup\":"));
        assert!(!json.contains("classify"));
        // Drained: a second take is empty.
        assert!(take_thread_phases().is_empty());
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _serial = crate::serial_test();
        crate::registry::set_enabled(false);
        let _ = take_thread_phases();
        {
            let _s = span(Phase::Profile);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(take_thread_phases().is_empty());
        assert_eq!(take_thread_phases().to_json(), "{}");
    }
}
