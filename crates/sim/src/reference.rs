//! The per-event reference path, as an adapter ([`PerEvent`]).

use wp_noc::CoreId;

use crate::scheme::{
    AccessContext, LlcResponse, LlcScheme, PoolDescriptor, TraceEvent, Workload, WorkloadBundle,
};
use crate::uncore::Uncore;

/// The per-event reference path: runs the wrapped scheme or workload
/// through its one-event methods only.
///
/// The simulator has one delivery path: each scheduling quantum is pulled
/// with [`Workload::fill_batch`] and served with
/// [`LlcScheme::access_batch`]. Both trait methods have defaults that
/// loop over the one-event calls (`next_event`, `access`), and the fast
/// sources override them — [`TraceWorkload`](crate::TraceWorkload)
/// decodes column slices, and the schemes listed under
/// [`LlcScheme::access_batch`] prefetch ahead. `PerEvent`
/// hides those overrides so the defaults run instead: wrapped around a
/// scheme it forwards every method except `access_batch`; wrapped around
/// a workload ([`PerEvent::bundle`]) it forwards only `next_event`.
///
/// A run under the adapter is the plain one-event-at-a-time simulation.
/// Tests and benchmarks compare the simulator's path against it: results
/// must be bit-identical, and the throughput gap is what the batched
/// overrides buy.
#[derive(Debug)]
pub struct PerEvent<T>(pub T);

impl PerEvent<Box<dyn Workload>> {
    /// `bundle` with its workload wrapped, pools and name unchanged.
    pub fn bundle(bundle: WorkloadBundle) -> WorkloadBundle {
        WorkloadBundle {
            trace: Box::new(PerEvent(bundle.trace)),
            ..bundle
        }
    }
}

impl Workload for PerEvent<Box<dyn Workload>> {
    fn next_event(&mut self) -> Option<TraceEvent> {
        self.0.next_event()
    }
}

impl<S: LlcScheme> LlcScheme for PerEvent<S> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn attach_core(&mut self, core: CoreId, pools: &[PoolDescriptor]) {
        self.0.attach_core(core, pools);
    }

    fn access(&mut self, ctx: AccessContext, uncore: &mut Uncore) -> LlcResponse {
        self.0.access(ctx, uncore)
    }

    fn reconfigure(&mut self, uncore: &mut Uncore) {
        self.0.reconfigure(uncore);
    }

    fn bank_occupancy(&self) -> Vec<(usize, String, f64)> {
        self.0.bank_occupancy()
    }

    fn pool_occupancy(&self) -> Vec<wp_obs::PoolOcc> {
        self.0.pool_occupancy()
    }

    fn reconfig_log(&self) -> Vec<wp_obs::ReconfigEvent> {
        self.0.reconfig_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventBatch, MultiCoreSim, SystemConfig};
    use wp_mem::LineAddr;

    /// Serves everything as a bank hit and counts which entry point the
    /// simulator used.
    #[derive(Debug, Default)]
    struct Counting {
        batch_calls: usize,
    }

    impl LlcScheme for Counting {
        fn name(&self) -> String {
            "counting".into()
        }

        fn attach_core(&mut self, _core: CoreId, _pools: &[PoolDescriptor]) {}

        fn access(&mut self, ctx: AccessContext, uncore: &mut Uncore) -> LlcResponse {
            let bank = uncore.plan().banks_by_distance(ctx.core)[0];
            LlcResponse {
                latency: uncore.bank_hit(ctx.core, bank),
                outcome: crate::LlcOutcome::Hit,
            }
        }

        fn access_batch(
            &mut self,
            core: CoreId,
            batch: &EventBatch,
            clock: &mut crate::BatchClock,
            uncore: &mut Uncore,
            out: &mut Vec<LlcResponse>,
        ) {
            self.batch_calls += 1;
            for i in 0..batch.len() {
                clock.pre_access(batch.gaps[i], uncore);
                let resp = self.access(
                    AccessContext {
                        core,
                        line: batch.lines[i],
                        is_write: batch.writes[i],
                    },
                    uncore,
                );
                clock.post_access(resp.latency);
                out.push(resp);
            }
        }

        fn reconfigure(&mut self, _uncore: &mut Uncore) {}
    }

    /// A workload whose bulk path is poisoned: only `next_event` may run.
    struct EventsOnly(u64);

    impl Workload for EventsOnly {
        fn next_event(&mut self) -> Option<TraceEvent> {
            self.0 += 1;
            Some(TraceEvent {
                gap_instrs: 50,
                line: LineAddr(self.0 % 4096),
                is_write: false,
            })
        }

        fn fill_batch(&mut self, _batch: &mut EventBatch, _max: usize) -> usize {
            panic!("the reference adapter must not reach fill_batch");
        }
    }

    #[test]
    fn adapter_bypasses_both_batched_overrides() {
        let mut sim = MultiCoreSim::new(SystemConfig::four_core(), PerEvent(Counting::default()));
        let bundle = WorkloadBundle {
            trace: Box::new(EventsOnly(0)),
            pools: vec![],
            name: "events-only".into(),
        };
        sim.attach(CoreId(0), PerEvent::bundle(bundle));
        let out = sim.run(100_000);
        assert_eq!(out.scheme, "counting");
        assert_eq!(out.cores[0].instructions, 100_000);
        assert_eq!(sim.scheme().0.batch_calls, 0, "access_batch override ran");
    }
}
