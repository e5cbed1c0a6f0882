//! Timing wrappers around the simulator's two plug-in traits.
//!
//! The traced run measures layers from outside the program: it wraps the
//! scheme and every core's workload, and times each call the simulator makes
//! through them. Both wrappers forward *every* trait method — including
//! the batched `access_batch` and `fill_batch` paths, which a wrapper
//! relying on the trait defaults would silently replace with per-event
//! loops — so a traced replay runs the same code and produces the same
//! `RunSummary` as an untraced one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wp_noc::CoreId;
use wp_sim::{
    AccessContext, BatchClock, EventBatch, LlcResponse, LlcScheme, PoolDescriptor, TraceEvent,
    Uncore, Workload,
};

/// Host time spent in each scheme entry point during one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchemeTimes {
    /// `access` + `access_batch`.
    pub access: Duration,
    /// Events served through them.
    pub access_events: u64,
    /// `reconfigure`.
    pub reconfigure: Duration,
    /// `reconfigure` calls.
    pub reconfigure_calls: u64,
    /// `attach_core`.
    pub attach: Duration,
}

/// An [`LlcScheme`] that times every call into `inner`.
pub struct TimedScheme<S> {
    inner: S,
    /// What the run spent so far.
    pub times: SchemeTimes,
}

impl<S> TimedScheme<S> {
    /// Wraps `inner` with zeroed timers.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            times: SchemeTimes::default(),
        }
    }
}

impl<S: LlcScheme> LlcScheme for TimedScheme<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn attach_core(&mut self, core: CoreId, pools: &[PoolDescriptor]) {
        let t = Instant::now();
        self.inner.attach_core(core, pools);
        self.times.attach += t.elapsed();
    }

    fn access(&mut self, ctx: AccessContext, uncore: &mut Uncore) -> LlcResponse {
        let t = Instant::now();
        let resp = self.inner.access(ctx, uncore);
        self.times.access += t.elapsed();
        self.times.access_events += 1;
        resp
    }

    fn access_batch(
        &mut self,
        core: CoreId,
        batch: &EventBatch,
        clock: &mut BatchClock,
        uncore: &mut Uncore,
        out: &mut Vec<LlcResponse>,
    ) {
        let t = Instant::now();
        self.inner.access_batch(core, batch, clock, uncore, out);
        self.times.access += t.elapsed();
        self.times.access_events += batch.len() as u64;
    }

    fn reconfigure(&mut self, uncore: &mut Uncore) {
        let t = Instant::now();
        self.inner.reconfigure(uncore);
        self.times.reconfigure += t.elapsed();
        self.times.reconfigure_calls += 1;
    }

    fn bank_occupancy(&self) -> Vec<(usize, String, f64)> {
        self.inner.bank_occupancy()
    }

    fn pool_occupancy(&self) -> Vec<wp_obs::PoolOcc> {
        self.inner.pool_occupancy()
    }

    fn reconfig_log(&self) -> Vec<wp_obs::ReconfigEvent> {
        self.inner.reconfig_log()
    }
}

/// Events and fill time summed over every workload sharing it.
#[derive(Debug, Default)]
pub struct FillTally {
    events: AtomicU64,
    nanos: AtomicU64,
}

impl FillTally {
    /// Events delivered so far.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Host time spent filling, when timed.
    pub fn time(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

/// A [`Workload`] that counts the events `inner` delivers into a shared
/// [`FillTally`] and, when `timed`, the host time each pull takes.
///
/// The untraced run wraps workloads too, untimed: one relaxed add per
/// 256-event batch is how it learns how many events a replay simulated.
pub struct CountedWorkload {
    inner: Box<dyn Workload>,
    tally: Arc<FillTally>,
    timed: bool,
}

impl CountedWorkload {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Workload>, tally: Arc<FillTally>, timed: bool) -> Self {
        Self {
            inner,
            tally,
            timed,
        }
    }

    fn record(&self, events: u64, start: Option<Instant>) {
        self.tally.events.fetch_add(events, Ordering::Relaxed);
        if let Some(t) = start {
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.tally.nanos.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

impl Workload for CountedWorkload {
    fn next_event(&mut self) -> Option<TraceEvent> {
        let start = self.timed.then(Instant::now);
        let ev = self.inner.next_event();
        self.record(u64::from(ev.is_some()), start);
        ev
    }

    fn fill_batch(&mut self, batch: &mut EventBatch, max: usize) -> usize {
        let start = self.timed.then(Instant::now);
        let n = self.inner.fill_batch(batch, max);
        self.record(n as u64, start);
        n
    }
}
