//! The one operation loop every harness runs on the simulated machine.
//!
//! An [`OpDriver`] owns a thread's scheme executor and steps it the way
//! the paper's threads run: deferred reclamation work (StackTrack scans,
//! epoch waits) first, then `begin_op` for the next operation, then one
//! basic block of that operation per simulator step. What the thread runs
//! is its [`OpSource`]: the benchmark's mix, the checker's script.

use crate::history::DsOp;
use crate::workload::{StructureInstance, StructureKind, WorkloadSpec};
use st_machine::{Cpu, StepOutcome};
use st_reclaim::SchemeThread;
use st_simheap::Word;
use stacktrack::OpBody;
use std::sync::Arc;

/// A thread's operation policy: which operation to begin next, and what
/// to do with each result.
pub trait OpSource {
    /// The operation to begin next; `None` when the thread is finished.
    fn next_op(&mut self, cpu: &mut Cpu) -> Option<DsOp>;

    /// Takes the result of the operation begun last, as it completes.
    fn op_done(&mut self, _result: Word) {}
}

impl OpSource for WorkloadSpec {
    /// The mix: a roll against `mutation_pct`, then a key from
    /// `1..=key_range`, both drawn for every operation. A mutation
    /// inserts on an odd roll and deletes on an even one; on the queue a
    /// read is a peek, an insert enqueues the key and a delete dequeues.
    fn next_op(&mut self, cpu: &mut Cpu) -> Option<DsOp> {
        let roll = cpu.rng.below(100) as u32;
        let key = cpu.rng.below(self.key_range) + 1;
        let queue = self.structure == StructureKind::Queue;
        Some(match (roll < self.mutation_pct, roll % 2 == 1, queue) {
            (false, _, false) => DsOp::Contains(key),
            (false, _, true) => DsOp::Peek,
            (true, true, false) => DsOp::Insert(key),
            (true, true, true) => DsOp::Enqueue(key),
            (true, false, false) => DsOp::Delete(key),
            (true, false, true) => DsOp::Dequeue,
        })
    }
}

/// Drives one thread's operations on a shared structure through its
/// scheme executor, one simulator step at a time.
pub struct OpDriver {
    th: Box<dyn SchemeThread>,
    instance: Arc<StructureInstance>,
    current: Option<Box<OpBody<'static>>>,
}

impl OpDriver {
    /// A driver of `th` over `instance`, between operations.
    pub fn new(th: Box<dyn SchemeThread>, instance: Arc<StructureInstance>) -> Self {
        Self {
            th,
            instance,
            current: None,
        }
    }

    /// One simulator step: a step of pending idle work, else the next
    /// operation from `source` begins, else the current one runs one
    /// basic block (and hands `source` its result when it completes).
    pub fn step(&mut self, cpu: &mut Cpu, source: &mut impl OpSource) -> StepOutcome {
        if self.th.idle_work_pending() {
            self.th.step_idle(cpu);
            return StepOutcome::Progress;
        }
        let Some(body) = self.current.as_mut() else {
            let Some(op) = source.next_op(cpu) else {
                return StepOutcome::Finished;
            };
            let (op_id, slots, body) = self.instance.body_for(op);
            self.th.begin_op(cpu, op_id, slots);
            self.current = Some(body);
            return StepOutcome::Progress;
        };
        match self.th.step_op(cpu, body.as_mut()) {
            Some(result) => {
                self.current = None;
                source.op_done(result);
                StepOutcome::OpDone
            }
            None => StepOutcome::Progress,
        }
    }

    /// Forwards a neutralization signal to the executor.
    pub fn neutralize(&mut self, cpu: &mut Cpu) {
        self.th.neutralize(cpu);
    }

    /// The executor (statistics, teardown).
    pub fn executor(&self) -> &dyn SchemeThread {
        self.th.as_ref()
    }

    /// Mutable executor access (teardown, statistics reset).
    pub fn executor_mut(&mut self) -> &mut dyn SchemeThread {
        self.th.as_mut()
    }
}
