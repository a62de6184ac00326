//! Benchmark workloads: the paper's four data-structure configurations
//! (defined once, in `st-structures`), driven as discrete-event-simulator
//! workers.

pub use st_structures::{StructureInstance, StructureKind, WorkloadSpec};

use st_machine::{Cpu, Cycles, StepOutcome, Worker};
use st_reclaim::SchemeThread;
use st_structures::OpDriver;
use std::sync::Arc;

/// One benchmark thread: runs the spec's operation mix through an
/// [`OpDriver`] and samples its outstanding garbage over the run.
pub struct BenchWorker {
    driver: OpDriver,
    spec: WorkloadSpec,
    /// Virtual times at which to sample `outstanding_garbage` (sorted).
    sample_points: Vec<Cycles>,
    /// Samples taken so far; backfilled with the final value at `finish`.
    garbage_samples: Vec<u64>,
    /// Outstanding garbage at the deadline, captured in `finish` *before*
    /// any teardown drains it.
    garbage_at_deadline: Option<u64>,
    /// Run the executor's teardown in `finish` (armed for the measured
    /// run only, never for warm-up).
    teardown_armed: bool,
}

impl BenchWorker {
    /// Creates a worker over a scheme executor and a shared structure.
    pub fn new(
        th: Box<dyn SchemeThread>,
        spec: WorkloadSpec,
        instance: Arc<StructureInstance>,
    ) -> Self {
        Self {
            driver: OpDriver::new(th, instance),
            spec,
            sample_points: Vec::new(),
            garbage_samples: Vec::new(),
            garbage_at_deadline: None,
            teardown_armed: false,
        }
    }

    /// Requests an `outstanding_garbage` sample each time this worker's
    /// clock crosses one of `points` (must be sorted ascending). A worker
    /// frozen by a fault keeps its last value: `finish` backfills.
    pub fn sample_garbage_at(&mut self, points: Vec<Cycles>) {
        self.sample_points = points;
        self.garbage_samples.clear();
    }

    /// Arms the end-of-run teardown (drains the scheme's deferred frees so
    /// free-latency histograms cover short runs). Armed after warm-up so a
    /// warm-up deadline never drains mid-experiment.
    pub fn arm_teardown(&mut self) {
        self.teardown_armed = true;
    }

    /// The garbage samples taken at the configured points (complete after
    /// `finish`).
    pub fn garbage_samples(&self) -> &[u64] {
        &self.garbage_samples
    }

    /// Outstanding garbage at the deadline, before teardown drained it.
    pub fn garbage_at_deadline(&self) -> u64 {
        self.garbage_at_deadline
            .unwrap_or_else(|| self.executor().outstanding_garbage())
    }

    fn take_due_samples(&mut self, now: Cycles) {
        while let Some(&at) = self.sample_points.get(self.garbage_samples.len()) {
            if now < at {
                break;
            }
            self.garbage_samples
                .push(self.executor().outstanding_garbage());
        }
    }

    /// The executor (for statistics extraction after the run).
    pub fn executor(&self) -> &dyn SchemeThread {
        self.driver.executor()
    }

    /// Mutable executor access (teardown).
    pub fn executor_mut(&mut self) -> &mut dyn SchemeThread {
        self.driver.executor_mut()
    }

    /// Resets measurement statistics after a warm-up phase.
    pub fn reset_stats(&mut self) {
        self.garbage_samples.clear();
        self.garbage_at_deadline = None;
        self.executor_mut().reset_stats();
    }
}

impl Worker for BenchWorker {
    fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
        self.take_due_samples(cpu.now());
        self.driver.step(cpu, &mut self.spec)
    }

    fn finish(&mut self, cpu: &mut Cpu) {
        // A stalled worker reaches here with its clock frozen mid-run:
        // every remaining checkpoint sees the garbage it was holding.
        let frozen = self.executor().outstanding_garbage();
        while self.garbage_samples.len() < self.sample_points.len() {
            self.garbage_samples.push(frozen);
        }
        self.garbage_at_deadline = Some(frozen);
        if self.teardown_armed {
            self.executor_mut().teardown(cpu);
        }
    }

    fn neutralize(&mut self, cpu: &mut Cpu) {
        self.driver.neutralize(cpu);
    }
}
