//! One bounded execution under a dictated schedule, with both oracles.
//!
//! [`run_schedule`] builds a fresh environment (heap, HTM engine, scheme
//! factory, structure), runs a small scripted workload — every thread
//! executes a fixed, seed-derived list of operations — under a
//! [`RecordingController`], and returns everything the explorer needs:
//! the decision trace, any use-after-free violations recorded by the heap
//! oracle, and the linearizability verdict of the recorded history.
//!
//! A panic during the run (e.g. a poison dereference — the classic
//! symptom of a reclamation bug) is caught and reported as a violation,
//! so exploration continues over the remaining schedules.

use crate::schedule::RecordingController;
use st_machine::{
    CostModel, Cpu, Cycles, FaultPlan, Pcg32, SimConfig, StepOutcome, Topology, Worker,
};
use st_reclaim::{ReclaimConfig, Scheme, SchemeFactory};
use st_simheap::{Heap, HeapConfig, LedgerStats, LedgerViolation, UafViolation, Word};
use st_simhtm::{HtmConfig, HtmEngine};
use st_structures::history::{check_linearizable, DsOp, HistoryRecorder, MAX_HISTORY};
use st_structures::{OpDriver, OpSource, StructureInstance, StructureKind};
use stacktrack::{Mutation, StConfig};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The workload and environment of one check, fully determining every
/// schedule's execution together with the controller's choices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckConfig {
    /// Structure under check.
    pub structure: StructureKind,
    /// Reclamation scheme under check.
    pub scheme: Scheme,
    /// Simulated threads.
    pub threads: usize,
    /// Scripted operations per thread.
    pub ops_per_thread: usize,
    /// Keys are drawn from `1..=key_range` (small, to force conflicts).
    pub key_range: u64,
    /// Seed for the scripted workload (and the randomized explorer).
    pub seed: u64,
    /// Injected protocol mutation.
    pub mutation: Mutation,
    /// Scheduler step budget per schedule; pending operations at the
    /// limit are allowed (the linearizability checker handles them).
    pub step_limit: u64,
    /// Deterministic fault schedule applied to every schedule of this
    /// config (the audit harness soaks with stalls and storms enabled).
    pub faults: FaultPlan,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            structure: StructureKind::List,
            scheme: Scheme::StackTrack,
            threads: 3,
            ops_per_thread: 4,
            key_range: 6,
            seed: 1,
            mutation: Mutation::None,
            step_limit: 60_000,
            faults: FaultPlan::default(),
        }
    }
}

/// Words of simulated heap every schedule runs in.
const HEAP_WORDS: u64 = 1 << 18;

/// Operations recorded before the scripts start (two keys, or two
/// values for the queue).
const SETUP_OPS: usize = 2;

impl CheckConfig {
    /// Rejects a config whose schedules cannot run or check nothing: no
    /// threads, a thread with no operations, no keys or a key range that
    /// reaches the structures' `u64::MAX` sentinel, a history longer than
    /// the linearizability check searches, or more StackTrack thread
    /// contexts than the heap holds. At least one op per thread makes the
    /// history bound cap `threads` at `MAX_HISTORY - SETUP_OPS`, which
    /// every scheme's per-thread tables fit.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err(
                "a check runs at least one thread, but 0 threads were asked for".to_string(),
            );
        }
        if self.key_range == 0 || self.key_range == u64::MAX {
            return Err(format!(
                "a check draws keys from 1..=N for N from 1 to u64::MAX - 1 (u64::MAX is the \
                 structures' sentinel key), but N = {} was asked for",
                self.key_range
            ));
        }
        if self.ops_per_thread == 0 {
            return Err(
                "a checked thread runs at least one operation, but 0 ops were asked for"
                    .to_string(),
            );
        }
        let ops = self
            .threads
            .checked_mul(self.ops_per_thread)
            .and_then(|n| n.checked_add(SETUP_OPS));
        if ops.is_none_or(|n| n > MAX_HISTORY) {
            return Err(format!(
                "a checked history holds at most {MAX_HISTORY} operations, but {} threads x {} \
                 ops plus {SETUP_OPS} set-up ops exceed it",
                self.threads, self.ops_per_thread
            ));
        }
        // Each context takes a whole size-class block; word 0 of the heap
        // is reserved, so one block's worth always goes to everything else.
        let ctx_block = stacktrack::layout::CTX_WORDS.next_power_of_two() as u64;
        let max_contexts = (HEAP_WORDS / ctx_block - 1) as usize;
        if self.scheme == Scheme::StackTrack && self.threads > max_contexts {
            return Err(format!(
                "StackTrack fits at most {max_contexts} thread contexts in the checker's \
                 {HEAP_WORDS}-word heap, but {} threads were asked for",
                self.threads
            ));
        }
        Ok(())
    }
}

/// One oracle finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The heap's use-after-free oracle fired.
    Uaf(UafViolation),
    /// The heap's lifecycle ledger fired (double retire, double free,
    /// free-before-retire, or leak-at-teardown; see `docs/AUDIT.md`).
    Ledger(LedgerViolation),
    /// The recorded history has no valid linearization.
    NonLinearizable(String),
    /// The run panicked (e.g. a poison dereference).
    Panic(String),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Uaf(m) => write!(f, "use-after-free: {m}"),
            Violation::Ledger(m) => write!(f, "ledger: {m}"),
            Violation::NonLinearizable(m) => write!(f, "linearizability: {m}"),
            Violation::Panic(m) => write!(f, "panic: {m}"),
        }
    }
}

/// What one schedule produced.
#[derive(Debug)]
pub struct ScheduleOutcome {
    /// All oracle findings, in detection order.
    pub violations: Vec<Violation>,
    /// Scheduling decisions taken.
    pub decisions: u64,
    /// Sparse deviations actually executed (the schedule's signature).
    pub deviations: BTreeMap<u64, usize>,
    /// Operations that responded.
    pub completed_ops: u64,
    /// StackTrack scans completed across all threads (diagnostic: a
    /// mutation can only be exercised if scans actually ran).
    pub scans: u64,
    /// StackTrack inspection restarts forced by the consistency re-read
    /// (diagnostic: nonzero means the schedule opened the torn-snapshot
    /// window the `splits` protocol guards).
    pub scan_retries: u64,
    /// Whether every scripted operation (plus the pre-population) invoked
    /// and responded. False under kills, stalls that outlast the step
    /// budget, or a mid-run panic — the cases where leak-at-teardown
    /// cannot be judged.
    pub all_ops_completed: bool,
    /// Completed operations per thread (audit metrics rows).
    pub per_thread_ops: Vec<u64>,
    /// Aggregate heap-ledger counters for this schedule.
    pub ledger: LedgerStats,
}

/// A thread's fixed script, recording invoke/respond events.
struct Script {
    thread_id: usize,
    ops: VecDeque<DsOp>,
    recorder: Arc<HistoryRecorder>,
    /// History index of the operation in flight.
    pending: Option<usize>,
}

impl OpSource for Script {
    fn next_op(&mut self, _cpu: &mut Cpu) -> Option<DsOp> {
        let op = self.ops.pop_front()?;
        self.pending = Some(self.recorder.invoke(self.thread_id, op));
        Some(op)
    }

    fn op_done(&mut self, result: Word) {
        let id = self.pending.take().expect("an operation in flight");
        self.recorder.respond(id, result);
    }
}

/// A worker running its script through an [`OpDriver`].
struct ScriptWorker {
    driver: OpDriver,
    script: Script,
}

impl Worker for ScriptWorker {
    fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
        self.driver.step(cpu, &mut self.script)
    }

    fn finish(&mut self, cpu: &mut Cpu) {
        self.driver.executor_mut().teardown(cpu);
    }

    fn neutralize(&mut self, cpu: &mut Cpu) {
        self.driver.neutralize(cpu);
    }
}

/// Generates thread `t`'s script.
fn script(config: &CheckConfig, t: usize) -> VecDeque<DsOp> {
    let mut rng = Pcg32::new_stream(config.seed ^ 0x5c81_9e1d, t as u64);
    (0..config.ops_per_thread)
        .map(|i| match config.structure {
            StructureKind::Queue => {
                if rng.below(2) == 0 {
                    DsOp::Enqueue(((t + 1) * 100 + i) as u64)
                } else {
                    DsOp::Dequeue
                }
            }
            _ => {
                let key = rng.below(config.key_range) + 1;
                match rng.below(3) {
                    0 => DsOp::Insert(key),
                    1 => DsOp::Delete(key),
                    _ => DsOp::Contains(key),
                }
            }
        })
        .collect()
}

/// Runs one schedule under `controller` and reports what both oracles saw.
pub fn run_schedule(config: &CheckConfig, controller: Arc<RecordingController>) -> ScheduleOutcome {
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: HEAP_WORDS,
    }));
    let engine = Arc::new(HtmEngine::new(
        heap.clone(),
        HtmConfig::default(),
        config.threads,
    ));
    let rc = ReclaimConfig {
        // Reclaim promptly: a batch of one puts every free inside the
        // explored window instead of deferring it past the race.
        retire_batch: Some(1),
        // Keep quiescence waits short so epoch threads do not eat the
        // step budget spinning.
        epoch_wait_budget: 10_000,
        mutation: config.mutation,
        ..ReclaimConfig::default()
    };
    let st_config = StConfig {
        // Short segments and fine-grained interruptible scans maximize
        // the schedule points where the consistency protocol matters.
        // One-block segments matter most: they let a local-only shuffle
        // (e.g. the list's advance) commit on its own, which is the only
        // commit that can republish a frame mid-scan without conflicting
        // with the reclaimer's unlink writes.
        initial_split_length: 1,
        scan_chunk_words: 1,
        // The same batch of one: StackTrack scans once its free set
        // exceeds `max_free`.
        max_free: 0,
        // Bodies keep every retained pointer in a shadow-stack local, so
        // protection does not rely on the register file; leaving register
        // exposure on would let stale register words pin candidates and
        // mask scan misses from the explorer.
        expose_registers: false,
        mutation: config.mutation,
        ..StConfig::default()
    };
    let factory = SchemeFactory::builder(config.scheme)
        .engine(engine)
        .max_threads(config.threads)
        .reclaim_config(rc)
        .st_config(st_config)
        .guard_requirement(st_structures::max_guard_requirement())
        .build();

    // The lifecycle ledger tracks everything allocated from here on —
    // structure nodes included — so retire/free pairing and teardown
    // leaks are judged per block (see docs/AUDIT.md).
    heap.arm_oracles(&factory.protection_roots());

    let recorder = Arc::new(HistoryRecorder::new());
    let instance = Arc::new(StructureInstance::new_untimed(config.structure, &heap, 4));
    // Pre-populate (untimed, before the clock starts) and record the
    // set-up operations so the specification starts from the same state.
    let (keys, record): (&[u64], fn(u64) -> DsOp) = match config.structure {
        StructureKind::Queue => (&[901, 902], DsOp::Enqueue),
        _ => (&[2, 4], DsOp::Insert),
    };
    let mut level_rng = Pcg32::new_stream(config.seed, 0x5eed);
    for key in instance.insert_untimed(&heap, keys, &mut level_rng) {
        let id = recorder.invoke(0, record(key));
        recorder.respond(id, 1);
    }

    let prepop_ops = recorder.history().len() as u64;

    let workers: Vec<ScriptWorker> = (0..config.threads)
        .map(|t| ScriptWorker {
            driver: OpDriver::new(factory.thread(t), instance.clone()),
            script: Script {
                thread_id: t,
                ops: script(config, t),
                recorder: recorder.clone(),
                pending: None,
            },
        })
        .collect();

    let sim_config = SimConfig {
        topology: Topology::haswell(),
        costs: CostModel::default(),
        seed: config.seed,
        duration: Cycles::MAX / 2,
        step_limit: Some(config.step_limit),
        faults: config.faults.clone(),
        controller: None,
    }
    .with_controller(controller.clone());

    let (finished_workers, panic_msg) = {
        let sim = st_machine::Simulator::new(sim_config);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let (_report, workers) = sim.run(workers);
            workers
        }));
        match result {
            Ok(w) => (w, None),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                (Vec::new(), Some(msg))
            }
        }
    };
    let (mut scans, mut scan_retries) = (0, 0);
    for w in &finished_workers {
        if let Some(st) = w.driver.executor().st_stats() {
            scans += st.scans;
            scan_retries += st.scan_retries;
        }
    }

    let mut violations = Vec::new();
    violations.extend(heap.uaf_violations().into_iter().map(Violation::Uaf));
    // Event-time ledger findings (double retire/free, free-before-retire)
    // are unconditional: they are wrong whenever they happen.
    violations.extend(heap.ledger_violations().into_iter().map(Violation::Ledger));
    let panicked = panic_msg.is_some();
    if let Some(msg) = panic_msg {
        violations.push(Violation::Panic(msg));
    }
    let history = recorder.history();
    let completed_ops = history.iter().filter(|r| r.completed()).count() as u64;
    let mut per_thread_ops = vec![0u64; config.threads];
    for r in &history {
        if r.completed() && r.thread < per_thread_ops.len() {
            per_thread_ops[r.thread] += 1;
        }
    }
    // Leak-at-teardown is only judged on a run that finished cleanly:
    // every scripted op responded (no kill/stall/step-limit cutoff left a
    // thread holding references or undrained limbo) and nothing panicked.
    // `Scheme::None` leaks by design — it is the audit harness's positive
    // reference, not a defect.
    let all_ops_completed =
        completed_ops == prepop_ops + config.threads as u64 * config.ops_per_thread as u64;
    if all_ops_completed && !panicked && config.scheme != Scheme::None {
        violations.extend(heap.ledger_leaks().into_iter().map(Violation::Ledger));
    }
    if let Err(e) = check_linearizable(config.structure.spec(), &history) {
        violations.push(Violation::NonLinearizable(e.to_string()));
    }

    ScheduleOutcome {
        violations,
        decisions: controller.decision_count(),
        deviations: controller.deviations_taken(),
        completed_ops,
        scans,
        scan_retries,
        all_ops_completed,
        per_thread_ops,
        ledger: heap.ledger_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_without_operations_is_rejected() {
        let config = CheckConfig {
            threads: 1000,
            ops_per_thread: 0,
            ..CheckConfig::default()
        };
        let err = config.validate().unwrap_err();
        assert!(err.contains("at least one operation"), "{err}");
    }

    #[test]
    fn a_key_range_without_keys_or_reaching_the_sentinel_is_rejected() {
        for key_range in [0, u64::MAX] {
            let config = CheckConfig {
                key_range,
                ..CheckConfig::default()
            };
            let err = config.validate().unwrap_err();
            assert!(err.contains("a check draws keys from 1..=N"), "{err}");
        }
        for key_range in [1, u64::MAX - 1] {
            let config = CheckConfig {
                key_range,
                ..CheckConfig::default()
            };
            assert_eq!(config.validate(), Ok(()));
        }
    }

    /// The history bound (and StackTrack's context bound) must keep every
    /// scheme's per-thread tables inside the checker's heap.
    #[test]
    fn every_scheme_runs_clean_at_the_largest_accepted_thread_count() {
        for scheme in Scheme::all() {
            let config = |threads| CheckConfig {
                scheme,
                threads,
                ops_per_thread: 1,
                ..CheckConfig::default()
            };
            let threads = (1..)
                .take_while(|&t| config(t).validate().is_ok())
                .last()
                .expect("one thread is accepted");
            let outcome = run_schedule(
                &config(threads),
                Arc::new(RecordingController::replay(BTreeMap::new())),
            );
            assert!(
                outcome.violations.is_empty() && outcome.all_ops_completed,
                "{scheme:?} at {threads} threads: {:?}",
                outcome.violations
            );
        }
    }
}
