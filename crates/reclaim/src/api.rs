//! The scheme-neutral executor interface.

use st_machine::Cpu;
use st_obs::MetricsRegistry;
use st_simheap::Word;
use stacktrack::OpBody;

/// A per-thread executor for one reclamation scheme.
///
/// Mirrors [`stacktrack::StThread`]'s step-driven surface so data
/// structures and benchmarks drive every scheme identically: one
/// [`SchemeThread::step_op`] call executes one basic block of the
/// operation body.
pub trait SchemeThread {
    /// Starts an operation. `op_id` names the operation kind; `slots` is
    /// the number of traced locals it uses.
    fn begin_op(&mut self, cpu: &mut Cpu, op_id: u32, slots: usize);

    /// Executes one basic block; `Some(result)` when the operation is done.
    fn step_op(&mut self, cpu: &mut Cpu, body: &mut OpBody<'_>) -> Option<Word>;

    /// Whether deferred reclamation work must run before the next
    /// operation (StackTrack scans, epoch waits).
    fn idle_work_pending(&self) -> bool {
        false
    }

    /// Advances deferred reclamation work by one step.
    fn step_idle(&mut self, _cpu: &mut Cpu) {}

    /// Runs one operation to completion, draining idle work first.
    fn run_op(&mut self, cpu: &mut Cpu, op_id: u32, slots: usize, body: &mut OpBody<'_>) -> Word {
        while self.idle_work_pending() {
            self.step_idle(cpu);
        }
        self.begin_op(cpu, op_id, slots);
        loop {
            if let Some(v) = self.step_op(cpu, body) {
                return v;
            }
        }
    }

    /// Handles a neutralization signal delivered by the scheduler
    /// ([`st_machine::Worker::neutralize`] forwards here). Only NBR reacts
    /// — a signal caught in its restartable read phase abandons the
    /// current attempt; every other scheme ignores inter-thread signals.
    fn neutralize(&mut self, _cpu: &mut Cpu) {}

    /// Retired nodes not yet returned to the allocator.
    fn outstanding_garbage(&self) -> u64;

    /// StackTrack-specific statistics, when the executor is StackTrack.
    fn st_stats(&self) -> Option<stacktrack::StThreadStats> {
        None
    }

    /// Zeroes measurement statistics, keeping learned/reclamation state
    /// (benchmark warm-up support).
    fn reset_stats(&mut self) {}

    /// Reports this executor's counters into the shared metrics registry
    /// (schema in `docs/METRICS.md`): the common surface every scheme has
    /// (`reclaim.outstanding_garbage`, StackTrack stats when present) —
    /// schemes override to add their own `scheme.<name>.*` keys on top.
    fn report_metrics(&self, reg: &mut MetricsRegistry) {
        reg.add("reclaim.outstanding_garbage", self.outstanding_garbage());
        if let Some(st) = self.st_stats() {
            st.report(reg);
        }
    }

    /// Best-effort drain of deferred frees at teardown (every other thread
    /// must be outside an operation for this to fully drain).
    fn teardown(&mut self, cpu: &mut Cpu);

    /// Scheme display name.
    fn scheme_name(&self) -> &'static str;
}
