//! Deterministic discrete-event scheduler.
//!
//! Simulated threads are state machines ([`Worker`]); one call to
//! [`Worker::step`] executes roughly one basic block of the simulated
//! program (the same granularity at which StackTrack injects split
//! checkpoints). The scheduler always steps the runnable thread with the
//! smallest virtual clock, so shared-memory interleavings are ordered by
//! virtual time and every run is reproducible from the seed.
//!
//! Threads are pinned to hardware contexts ([`Topology::place`]); when a
//! context hosts more than one thread, they round-robin with a quantum and a
//! context-switch charge — this is how the paper's above-8-threads
//! preemption regime (and the resulting epoch-reclamation collapse) is
//! regenerated.

use crate::cpu::ActivityBoard;
use crate::fault::CompiledFaults;
use crate::{
    CostModel, Cpu, Cycles, EventCounters, FaultPlan, FaultStats, HwContext, Topology,
    CYCLES_PER_SECOND,
};
use std::collections::VecDeque;
use std::hint::select_unpredictable;
use std::sync::Arc;

/// What a worker accomplished in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Made progress inside an operation.
    Progress,
    /// Completed one data-structure operation (counted for throughput).
    OpDone,
    /// Spun without logical progress (waiting on other threads).
    Idle,
    /// No more work; do not step this worker again.
    Finished,
}

/// A simulated thread body.
///
/// `step` must charge the virtual cycles of whatever it simulated through
/// `cpu`; the scheduler guarantees forward progress by charging one cycle
/// itself if a step leaves the clock untouched.
pub trait Worker {
    /// Executes roughly one basic block of simulated work.
    fn step(&mut self, cpu: &mut Cpu) -> StepOutcome;

    /// Called once when the simulation ends (deadline or all finished),
    /// while the worker's `cpu` is still available. Not called for workers
    /// retired by a [`crate::FaultEvent::Kill`] — a crashed thread does not
    /// run its teardown.
    fn finish(&mut self, _cpu: &mut Cpu) {}

    /// Delivered when another thread raised a signal against this one via
    /// [`Cpu::raise_signal`] (the NBR neutralization path). The scheduler
    /// calls this immediately before the victim's next step, after its
    /// fault checks — the simulated analogue of a POSIX handler running
    /// before the next user instruction. Because steps are atomic basic
    /// blocks, a handler here observes only committed state. Default:
    /// ignore the signal.
    fn neutralize(&mut self, _cpu: &mut Cpu) {}
}

impl<W: Worker + ?Sized> Worker for Box<W> {
    fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
        (**self).step(cpu)
    }

    fn finish(&mut self, cpu: &mut Cpu) {
        (**self).finish(cpu)
    }

    fn neutralize(&mut self, cpu: &mut Cpu) {
        (**self).neutralize(cpu)
    }
}

/// Dictates the next-thread choice at every preemption point.
///
/// When installed via [`SimConfig::with_controller`], the simulator stops
/// picking the runnable thread with the smallest virtual clock and instead
/// consults the controller at every scheduling decision: it passes the ids
/// of all runnable threads (front-of-queue threads plus stalled threads
/// eligible to wake, sorted ascending) and steps whichever the controller
/// returns. This trades timing realism for schedule control — it is the
/// hook the `st-check` model checker enumerates interleavings through.
///
/// Controllers are shared (`Arc`) and called through `&self`; use interior
/// mutability to record or replay decisions.
pub trait ScheduleController: std::fmt::Debug + Send + Sync {
    /// Returns the thread id to step next. Must be an element of
    /// `runnable` (the simulator panics otherwise).
    fn pick(&self, runnable: &[usize]) -> usize;
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Machine shape.
    pub topology: Topology,
    /// Event costs.
    pub costs: CostModel,
    /// Master seed; thread PRNG streams derive from it.
    pub seed: u64,
    /// Virtual run length in cycles (threads stop once they pass it).
    pub duration: Cycles,
    /// Optional hard cap on total scheduler steps (`None` = unlimited).
    /// When hit, the report is marked truncated instead of looping forever.
    pub step_limit: Option<u64>,
    /// Deterministic fault schedule (empty = no faults).
    pub faults: FaultPlan,
    /// Optional schedule controller overriding the virtual-time pick
    /// (`None` = the default smallest-clock policy).
    pub controller: Option<Arc<dyn ScheduleController>>,
}

impl SimConfig {
    /// The paper's setup: Haswell topology, default costs, `duration`
    /// virtual milliseconds.
    pub fn haswell_ms(duration_ms: u64, seed: u64) -> Self {
        Self {
            topology: Topology::haswell(),
            costs: CostModel::default(),
            seed,
            duration: duration_ms * (CYCLES_PER_SECOND / 1000),
            step_limit: None,
            faults: FaultPlan::default(),
            controller: None,
        }
    }

    /// Returns `self` with the given fault plan installed (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Returns `self` with a schedule controller installed (builder style).
    pub fn with_controller(mut self, controller: Arc<dyn ScheduleController>) -> Self {
        self.controller = Some(controller);
        self
    }
}

/// Per-thread results.
#[derive(Debug, Clone)]
pub struct ThreadReport {
    /// Operations completed before the deadline.
    pub ops: u64,
    /// Final virtual clock of the thread.
    pub final_time: Cycles,
    /// Machine event counters.
    pub counters: EventCounters,
}

/// Whole-run results.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-thread results, indexed by thread id.
    pub threads: Vec<ThreadReport>,
    /// Virtual run length (cycles).
    pub duration: Cycles,
    /// True if the step limit cut the run short.
    pub truncated: bool,
    /// Fault events the scheduler actually applied.
    pub faults: FaultStats,
}

impl SimReport {
    /// Total operations completed across all threads.
    pub fn total_ops(&self) -> u64 {
        self.threads.iter().map(|t| t.ops).sum()
    }

    /// Throughput in operations per virtual second.
    pub fn ops_per_second(&self) -> f64 {
        self.total_ops() as f64 * CYCLES_PER_SECOND as f64 / self.duration as f64
    }

    /// Sums one counter across threads via an accessor.
    pub fn sum_counter(&self, f: impl Fn(&EventCounters) -> u64) -> u64 {
        self.threads.iter().map(|t| f(&t.counters)).sum()
    }
}

struct ThreadState<W> {
    cpu: Cpu,
    worker: W,
    ops: u64,
    /// Retired by a `Kill` fault; `finish` is skipped (crash semantics).
    killed: bool,
    /// Virtual time at which this thread was last scheduled in.
    sched_in: Cycles,
}

/// Per-hardware-context state, one flat array per field. A pick scans
/// `cand` instead of chasing queue-front -> thread -> clock pointers, so
/// every site that changes a front thread or its clock updates `cand`.
struct Contexts {
    /// Run queue of indices into the thread table; front is running.
    queue: Vec<VecDeque<usize>>,
    /// Wall clock of the context.
    wall: Vec<Cycles>,
    /// Virtual clock and id of the front thread (clock `Cycles::MAX` =
    /// context idle, id stale).
    cand: Vec<(Cycles, usize)>,
}

impl Contexts {
    /// Makes `th` the running thread of context `c` at virtual time
    /// `resume`, which includes the context-switch charge.
    fn switch_in<W>(&mut self, c: usize, th: &mut ThreadState<W>, resume: Cycles) {
        th.cpu.advance_to(resume);
        th.sched_in = th.cpu.now();
        th.cpu.counters.context_switches += 1;
        self.cand[c] = (th.cpu.now(), th.cpu.thread_id);
    }

    /// Removes context `c`'s front thread, stopped at virtual time `now`,
    /// from its run queue and switches in the next one, or idles `c`.
    fn retire<W>(
        &mut self,
        c: usize,
        now: Cycles,
        threads: &mut [ThreadState<W>],
        costs: &CostModel,
        board: &ActivityBoard,
    ) {
        self.wall[c] = self.wall[c].max(now);
        self.queue[c].pop_front();
        if let Some(&next) = self.queue[c].front() {
            let resume = self.wall[c] + costs.context_switch;
            self.switch_in(c, &mut threads[next], resume);
        } else {
            board.set_running(c, false);
            self.cand[c].0 = Cycles::MAX;
        }
    }
}

/// The discrete-event simulator.
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Self { config }
    }

    /// Runs `workers` to the virtual deadline and returns the report plus
    /// the workers (so callers can extract scheme-specific statistics).
    ///
    /// Thread `i` is pinned to hardware context `topology.place(i)`.
    pub fn run<W: Worker>(&self, workers: Vec<W>) -> (SimReport, Vec<W>) {
        let topo = self.config.topology;
        let n_ctx = topo.hw_contexts();
        let costs = Arc::new(self.config.costs.clone());
        let board = Arc::new(ActivityBoard::new(n_ctx));
        let signals = Arc::new(crate::cpu::SignalBoard::new(workers.len()));
        let n = workers.len();

        let mut threads: Vec<ThreadState<W>> = workers
            .into_iter()
            .enumerate()
            .map(|(i, worker)| {
                let hw = HwContext::new(&topo, topo.place(i));
                let mut cpu = Cpu::new(i, hw, costs.clone(), board.clone(), self.config.seed);
                cpu.attach_signals(signals.clone());
                ThreadState {
                    cpu,
                    worker,
                    ops: 0,
                    killed: false,
                    sched_in: 0,
                }
            })
            .collect();

        let mut ctxs = Contexts {
            queue: vec![VecDeque::new(); n_ctx],
            wall: vec![0; n_ctx],
            cand: vec![(Cycles::MAX, 0); n_ctx],
        };
        for i in 0..n {
            ctxs.queue[topo.place(i)].push_back(i);
        }
        for c in 0..n_ctx {
            board.set_running(c, !ctxs.queue[c].is_empty());
            if let Some(&t) = ctxs.queue[c].front() {
                ctxs.cand[c] = (threads[t].cpu.now(), t);
            }
        }

        let deadline = self.config.duration;
        let step_limit = self.config.step_limit.unwrap_or(u64::MAX);
        let mut steps: u64 = 0;
        let mut truncated = false;
        let mut faults = CompiledFaults::new(&self.config.faults, n, n_ctx);
        let mut fstats = FaultStats::default();
        // Resume time of each stalled thread (`Cycles::MAX` = not stalled),
        // plus a count of stalls so the fault-free pick skips the list.
        let mut parked: Vec<Cycles> = vec![Cycles::MAX; n];
        let mut n_parked: usize = 0;

        // A run with no fault plan never kills, stalls, or storms; hoist
        // that fact out of the per-step loop.
        let faults_inert = faults.is_inert();

        loop {
            // Pick the next event with the smallest virtual time: either the
            // running (front-of-queue) thread of some context, or the wakeup
            // of a stalled thread. Ties go to running threads, then to the
            // lowest index — strictly deterministic.
            enum Pick {
                Ctx(usize),
                Unpark(usize),
            }
            let pick = if let Some(ctrl) = self.config.controller.as_deref() {
                // Controller mode: every runnable thread is a candidate and
                // the controller dictates the interleaving (virtual clocks
                // no longer order the picks). A thread is either some
                // context's front or parked, never both.
                let mut ids: Vec<usize> = (0..n_ctx)
                    .filter(|&c| ctxs.cand[c].0 < deadline)
                    .map(|c| ctxs.cand[c].1)
                    .collect();
                ids.extend((0..n).filter(|&t| parked[t] < deadline));
                if ids.is_empty() {
                    break;
                }
                ids.sort_unstable();
                let chosen = ctrl.pick(&ids);
                if !ids.contains(&chosen) {
                    panic!("controller picked non-runnable thread {chosen} (runnable: {ids:?})");
                }
                if parked[chosen] < Cycles::MAX {
                    Pick::Unpark(chosen)
                } else {
                    Pick::Ctx(topo.place(chosen))
                }
            } else {
                // First minimum of the clock cache: a later context replaces
                // the best only on a strictly smaller clock, so ties go to
                // the lower index. The selects compile to conditional moves;
                // which context wins is data the branch predictor cannot
                // learn. Idle contexts carry `Cycles::MAX`, which the
                // deadline test rejects like any past-deadline clock.
                let (mut best_c, mut best_t) = (0, ctxs.cand[0].0);
                for (c, &(now, _)) in ctxs.cand.iter().enumerate().skip(1) {
                    let less = now < best_t;
                    best_c = select_unpredictable(less, c, best_c);
                    best_t = select_unpredictable(less, now, best_t);
                }
                let mut pick = (best_t < deadline).then_some(Pick::Ctx(best_c));
                if n_parked > 0 {
                    // Parked threads are scanned after every context, so a
                    // context wins a tie against them. A stall outlasting
                    // the deadline never wakes up: the thread keeps its
                    // publications and its clock stays at park time.
                    let mut limit = best_t.min(deadline);
                    for (t, &resume) in parked.iter().enumerate() {
                        if resume < limit {
                            limit = resume;
                            pick = Some(Pick::Unpark(t));
                        }
                    }
                }
                let Some(pick) = pick else { break };
                pick
            };

            let c = match pick {
                Pick::Unpark(t) => {
                    let resume = std::mem::replace(&mut parked[t], Cycles::MAX);
                    n_parked -= 1;
                    let c = topo.place(t);
                    // Waking up is a context switch: the clock jumps past the
                    // stall window and transactional schemes abort their open
                    // segment, exactly as after a real preemption.
                    let resume = resume.saturating_add(costs.context_switch);
                    let th = &mut threads[t];
                    if ctxs.queue[c].is_empty() {
                        board.set_running(c, true);
                        ctxs.switch_in(c, th, resume);
                    } else {
                        th.cpu.advance_to(resume);
                        th.cpu.counters.context_switches += 1;
                    }
                    ctxs.queue[c].push_back(t);
                    continue;
                }
                Pick::Ctx(c) => c,
            };

            let t = ctxs.cand[c].1;
            if !faults_inert {
                let now = threads[t].cpu.now();
                if faults.kill_due(t, now) {
                    threads[t].killed = true;
                    fstats.kills += 1;
                    ctxs.retire(c, now, &mut threads, &costs, &board);
                    continue;
                }
                if let Some(resume) = faults.take_stall(t, now) {
                    fstats.stalls += 1;
                    fstats.stall_cycles += resume - now;
                    parked[t] = resume;
                    n_parked += 1;
                    ctxs.retire(c, now, &mut threads, &costs, &board);
                    continue;
                }
            }

            if steps >= step_limit {
                truncated = true;
                break;
            }
            steps += 1;

            let th = &mut threads[t];
            // Signal delivery: pending signals are handed to the victim
            // before its next step, like a kernel running the handler on
            // the way back to user space. Coalesced raises cost one
            // delivery; a parked thread receives on its wake-up step.
            if th.cpu.take_signals() > 0 {
                th.cpu.charge(costs.signal_deliver);
                th.worker.neutralize(&mut th.cpu);
            }

            let before = th.cpu.now();
            let outcome = th.worker.step(&mut th.cpu);
            if th.cpu.now() == before {
                // Forward-progress backstop: a step always consumes time.
                th.cpu.charge(1);
            }
            if outcome == StepOutcome::OpDone {
                th.ops += 1;
            }
            let after = th.cpu.now();
            ctxs.wall[c] = after;
            ctxs.cand[c].0 = after;

            let done = outcome == StepOutcome::Finished || after >= deadline;
            let quantum_up = ctxs.queue[c].len() > 1 && after - th.sched_in >= costs.quantum;
            // An active preemption storm forces a context switch after
            // every step on this context (interrupt-storm model).
            let storm = !done && !faults_inert && faults.storm_active(c, after);
            if storm {
                fstats.storm_switches += 1;
            }

            if done {
                ctxs.retire(c, after, &mut threads, &costs, &board);
            } else if quantum_up || storm {
                // Round-robin to the next co-tenant; a storm's sole tenant
                // is evicted and immediately rescheduled, paying the switch.
                ctxs.queue[c].rotate_left(1);
                let next = ctxs.queue[c][0];
                let resume = after + costs.context_switch;
                ctxs.switch_in(c, &mut threads[next], resume);
            }
        }

        let mut report_threads = Vec::with_capacity(n);
        let mut workers_out = Vec::with_capacity(n);
        for mut th in threads {
            if !th.killed {
                th.worker.finish(&mut th.cpu);
            }
            report_threads.push(ThreadReport {
                ops: th.ops,
                final_time: th.cpu.now(),
                counters: th.cpu.counters.clone(),
            });
            workers_out.push(th.worker);
        }
        (
            SimReport {
                threads: report_threads,
                duration: deadline,
                truncated,
                faults: fstats,
            },
            workers_out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worker that completes an op every `per_op` charged cycles.
    struct Clockwork {
        per_op: Cycles,
    }

    impl Worker for Clockwork {
        fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
            cpu.charge(self.per_op);
            StepOutcome::OpDone
        }
    }

    /// Worker that charges 10 cycles per op and finishes after `left` ops.
    struct Countdown {
        left: u32,
    }

    impl Worker for Countdown {
        fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
            cpu.charge(10);
            if self.left == 0 {
                return StepOutcome::Finished;
            }
            self.left -= 1;
            StepOutcome::OpDone
        }
    }

    fn config(duration: Cycles) -> SimConfig {
        SimConfig {
            topology: Topology::haswell(),
            costs: CostModel::default(),
            seed: 42,
            duration,
            step_limit: None,
            faults: FaultPlan::default(),
            controller: None,
        }
    }

    /// Runs `n` [`Clockwork`] threads under `cfg`.
    fn clockwork(cfg: SimConfig, n: usize, per_op: Cycles) -> SimReport {
        let workers = (0..n).map(|_| Clockwork { per_op }).collect();
        Simulator::new(cfg).run(workers).0
    }

    /// Operations completed per thread.
    fn ops(r: &SimReport) -> Vec<u64> {
        r.threads.iter().map(|t| t.ops).collect()
    }

    /// Controller steering: always run the highest runnable thread id.
    #[derive(Debug)]
    struct HighestFirst;
    impl ScheduleController for HighestFirst {
        fn pick(&self, runnable: &[usize]) -> usize {
            *runnable.last().expect("nonempty candidates")
        }
    }

    #[test]
    fn controller_dictates_the_interleaving() {
        let cfg = config(Cycles::MAX / 2).with_controller(Arc::new(HighestFirst));
        let sim = Simulator::new(cfg);
        let (report, _) = sim.run(vec![Countdown { left: 50 }, Countdown { left: 50 }]);
        // Thread 1 ran to completion before thread 0 ever stepped, so its
        // final clock is *earlier* — the opposite of the time-ordered
        // policy, which would interleave them step by step.
        assert_eq!(report.total_ops(), 100);
        assert!(
            report.threads[1].final_time <= report.threads[0].final_time,
            "controller must have run thread 1 first"
        );
    }

    #[test]
    fn controller_runs_are_deterministic() {
        let cfg = config(100_000).with_controller(Arc::new(HighestFirst));
        let run = || clockwork(cfg.clone(), 4, 777);
        assert_eq!(ops(&run()), ops(&run()));
    }

    #[test]
    #[should_panic(expected = "non-runnable thread")]
    fn controller_must_pick_a_runnable_thread() {
        #[derive(Debug)]
        struct Bogus;
        impl ScheduleController for Bogus {
            fn pick(&self, _runnable: &[usize]) -> usize {
                usize::MAX
            }
        }
        clockwork(config(1_000).with_controller(Arc::new(Bogus)), 1, 10);
    }

    #[test]
    fn single_thread_throughput_is_exact() {
        let report = clockwork(config(1_000_000), 1, 1000);
        assert_eq!(report.threads[0].ops, 1000);
        assert!(!report.truncated);
    }

    #[test]
    fn scaling_up_to_physical_contexts() {
        // 8 independent threads on 8 contexts: 8x the single-thread total.
        let r1 = clockwork(config(1_000_000), 1, 1000);
        let r8 = clockwork(config(1_000_000), 8, 1000);
        assert_eq!(r8.total_ops(), 8 * r1.total_ops());
    }

    #[test]
    fn oversubscription_time_shares() {
        // 16 threads on 8 contexts cannot do more total work than 8.
        let r8 = clockwork(config(10_000_000), 8, 1000);
        let r16 = clockwork(config(10_000_000), 16, 1000);
        assert!(r16.total_ops() <= r8.total_ops());
        // But both co-tenant threads must have run (round-robin fairness).
        let ops = ops(&r16);
        assert!(ops.iter().all(|&o| o > 0), "starved thread: {ops:?}");
        // And context switches must have been charged.
        assert!(r16.sum_counter(|c| c.context_switches) > 0);
    }

    #[test]
    fn deterministic_runs() {
        let run = || clockwork(config(5_000_000), 6, 777);
        assert_eq!(ops(&run()), ops(&run()));
    }

    #[test]
    fn finished_workers_stop() {
        let sim = Simulator::new(config(Cycles::MAX / 2));
        let workers = (0..3).map(|_| Countdown { left: 5 }).collect();
        let report = sim.run(workers).0;
        assert_eq!(report.total_ops(), 15);
    }

    #[test]
    fn step_limit_truncates() {
        let mut cfg = config(Cycles::MAX / 2);
        cfg.step_limit = Some(100);
        assert!(clockwork(cfg, 2, 1).truncated);
    }

    #[test]
    fn zero_charge_steps_still_make_progress() {
        struct Lazy;
        impl Worker for Lazy {
            fn step(&mut self, _cpu: &mut Cpu) -> StepOutcome {
                StepOutcome::Idle
            }
        }
        let sim = Simulator::new(config(1_000));
        // Must terminate: scheduler charges 1 cycle for idle steps.
        let report = sim.run(vec![Lazy]).0;
        assert_eq!(report.total_ops(), 0);
    }

    #[test]
    fn ops_per_second_matches_hand_math() {
        let report = clockwork(config(CYCLES_PER_SECOND / 100), 1, 20_000); // 10 ms
        let expect = report.total_ops() as f64 * 100.0;
        assert!((report.ops_per_second() - expect).abs() < 1e-6);
    }

    #[test]
    fn raised_signals_reach_the_victim_before_its_next_step() {
        use std::cell::RefCell;
        use std::rc::Rc;
        type Log = Rc<RefCell<Vec<&'static str>>>;

        struct Sender {
            log: Log,
            sent: bool,
        }
        impl Worker for Sender {
            fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
                cpu.charge(1000);
                if self.sent {
                    return StepOutcome::Finished;
                }
                self.sent = true;
                self.log.borrow_mut().push("raise");
                cpu.raise_signal(1);
                StepOutcome::Progress
            }
        }

        struct Victim {
            log: Log,
        }
        impl Worker for Victim {
            fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
                cpu.charge(1000);
                self.log.borrow_mut().push("step");
                StepOutcome::OpDone
            }
            fn neutralize(&mut self, _cpu: &mut Cpu) {
                self.log.borrow_mut().push("neutralize");
            }
        }

        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let sim = Simulator::new(config(10_000));
        let (_, _) = sim.run(vec![
            Box::new(Sender {
                log: log.clone(),
                sent: false,
            }) as Box<dyn Worker>,
            Box::new(Victim { log: log.clone() }),
        ]);

        let log = log.borrow();
        let raises = log.iter().filter(|&&e| e == "raise").count();
        let deliveries = log.iter().filter(|&&e| e == "neutralize").count();
        assert_eq!(raises, 1);
        assert_eq!(deliveries, 1, "one raise, one delivery: {log:?}");
        let raise_at = log.iter().position(|&e| e == "raise").unwrap();
        let deliver_at = log.iter().position(|&e| e == "neutralize").unwrap();
        assert!(
            deliver_at > raise_at,
            "delivery cannot precede the raise: {log:?}"
        );
        assert!(
            !log[raise_at + 1..deliver_at].contains(&"step"),
            "the victim stepped between raise and delivery: {log:?}"
        );
    }

    #[test]
    fn coalesced_signals_cost_one_delivery() {
        struct Spammer {
            left: u32,
        }
        impl Worker for Spammer {
            fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
                cpu.charge(10);
                if self.left == 0 {
                    return StepOutcome::Finished;
                }
                self.left -= 1;
                cpu.raise_signal(1);
                StepOutcome::Progress
            }
        }
        struct Counter {
            hits: std::rc::Rc<std::cell::Cell<u64>>,
        }
        impl Worker for Counter {
            fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
                // Run slowly so several raises land between two steps.
                cpu.charge(100);
                StepOutcome::OpDone
            }
            fn neutralize(&mut self, _cpu: &mut Cpu) {
                self.hits.set(self.hits.get() + 1);
            }
        }
        let hits = std::rc::Rc::new(std::cell::Cell::new(0));
        let sim = Simulator::new(config(5_000));
        let (_, _) = sim.run(vec![
            Box::new(Spammer { left: 20 }) as Box<dyn Worker>,
            Box::new(Counter { hits: hits.clone() }),
        ]);
        let h = hits.get();
        assert!(h >= 1, "at least one delivery must have happened");
        assert!(h < 20, "back-to-back raises must coalesce (got {h})");
    }

    #[test]
    fn stall_freezes_one_thread_and_spares_the_rest() {
        // Freeze thread 0 for 90% of the run, starting almost immediately.
        let plan = FaultPlan::new().stall(0, 10_000, 900_000);
        let faulted = clockwork(config(1_000_000).with_faults(plan), 4, 1000);
        let clean = clockwork(config(1_000_000), 4, 1000);

        assert_eq!(faulted.faults.stalls, 1);
        assert_eq!(faulted.faults.stall_cycles, 900_000);
        assert_eq!(faulted.faults.kills, 0);
        // The victim lost roughly the stall window...
        assert!(
            faulted.threads[0].ops < clean.threads[0].ops / 5,
            "victim did {} of {} ops",
            faulted.threads[0].ops,
            clean.threads[0].ops
        );
        // ...but did resume and make some progress after the window.
        assert!(faulted.threads[0].ops > 0, "victim never resumed");
        // Unrelated threads are unaffected (distinct hardware contexts).
        for i in 1..4 {
            assert_eq!(faulted.threads[i].ops, clean.threads[i].ops);
        }
        // Resuming charged a context switch (transactional schemes key
        // preemption detection off this counter).
        assert!(faulted.threads[0].counters.context_switches >= 1);
    }

    #[test]
    fn stall_past_the_deadline_never_wakes() {
        let plan = FaultPlan::new().stall(2, 500_000, 10_000_000);
        let report = clockwork(config(1_000_000).with_faults(plan), 4, 1000);
        // The victim stopped at the stall point; its clock stays parked.
        assert!(report.threads[2].ops < 520);
        assert!(report.threads[2].final_time < 520_000);
        assert_eq!(report.faults.stalls, 1);
    }

    #[test]
    fn stalled_thread_cedes_its_context_to_a_cotenant() {
        // 16 threads on 8 contexts: thread 0 and its co-tenant share one
        // context; stalling thread 0 should *speed up* the co-tenant.
        let plan = FaultPlan::new().stall(0, 0, 9_000_000);
        let faulted = clockwork(config(10_000_000).with_faults(plan), 16, 1000);
        let clean = clockwork(config(10_000_000), 16, 1000);
        let mate = (0..16)
            .find(|&i| i != 0 && Topology::haswell().place(i) == Topology::haswell().place(0))
            .expect("oversubscribed context has a co-tenant");
        assert!(
            faulted.threads[mate].ops > clean.threads[mate].ops,
            "co-tenant {} did {} <= {} ops despite a free context",
            mate,
            faulted.threads[mate].ops,
            clean.threads[mate].ops
        );
    }

    #[test]
    fn kill_retires_a_thread_without_running_finish() {
        struct Flagging {
            finished: std::rc::Rc<std::cell::Cell<bool>>,
        }
        impl Worker for Flagging {
            fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
                cpu.charge(1000);
                StepOutcome::OpDone
            }
            fn finish(&mut self, _cpu: &mut Cpu) {
                self.finished.set(true);
            }
        }
        let flags: Vec<_> = (0..2)
            .map(|_| std::rc::Rc::new(std::cell::Cell::new(false)))
            .collect();
        let mut cfg = config(1_000_000);
        cfg.faults = FaultPlan::new().kill(1, 200_000);
        let sim = Simulator::new(cfg);
        let workers: Vec<_> = flags
            .iter()
            .map(|f| Flagging {
                finished: f.clone(),
            })
            .collect();
        let (report, _) = sim.run(workers);
        assert_eq!(report.faults.kills, 1);
        assert!(flags[0].get(), "surviving thread must run finish");
        assert!(!flags[1].get(), "killed thread must not run finish");
        assert!(report.threads[1].ops < report.threads[0].ops / 2);
        assert!(report.threads[1].ops > 0, "victim ran before the kill");
    }

    #[test]
    fn storm_forces_context_switches() {
        let plan = FaultPlan::new().storm(0, 100_000, 200_000);
        let report = clockwork(config(1_000_000).with_faults(plan), 1, 1000);
        let clean = clockwork(config(1_000_000), 1, 1000);
        assert!(report.faults.storm_switches > 0);
        assert_eq!(
            report.threads[0].counters.context_switches,
            report.faults.storm_switches
        );
        // Switch charges eat throughput during the window.
        assert!(report.threads[0].ops < clean.threads[0].ops);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let plan = FaultPlan::new()
            .stall(1, 50_000, 200_000)
            .storm(0, 100_000, 100_000)
            .kill(3, 700_000);
        let run = || {
            let r = clockwork(config(1_000_000).with_faults(plan.clone()), 6, 777);
            let times: Vec<_> = r.threads.iter().map(|t| t.final_time).collect();
            (r.faults, ops(&r), times)
        };
        assert_eq!(run(), run());
    }

    /// Worker drawing its charges, outcomes and signal raises from its
    /// seeded `cpu.rng`: a third of the charges are zero (the backstop's
    /// one cycle) and a third run the clock up to the next multiple of
    /// 1,024, so clocks of different threads tie often.
    /// Each step folds `(thread, clock before the step)` into `hash` as
    /// FNV-1a over their little-endian bytes.
    struct Chaos {
        threads: u64,
        steps_left: u64,
        hash: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl Worker for Chaos {
        fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
            let id = (cpu.thread_id as u64).to_le_bytes();
            let bytes = id.into_iter().chain(cpu.now().to_le_bytes());
            let fold = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            self.hash.set(bytes.fold(self.hash.get(), fold));
            let charge = match cpu.rng.below(6) {
                0 | 1 => 0,
                2 | 3 => 1_024 - cpu.now() % 1_024,
                4 => 64 * (1 + cpu.rng.below(4)),
                _ => cpu.rng.below(2_000),
            };
            cpu.charge(charge);
            if cpu.rng.below(8) == 0 {
                let target = cpu.rng.below(self.threads) as usize;
                cpu.raise_signal(target);
            }
            if self.steps_left == 0 {
                return StepOutcome::Finished;
            }
            self.steps_left -= 1;
            match cpu.rng.below(4) {
                0 => StepOutcome::OpDone,
                1 => StepOutcome::Idle,
                _ => StepOutcome::Progress,
            }
        }

        fn neutralize(&mut self, cpu: &mut Cpu) {
            let charge = 64 * cpu.rng.below(3);
            cpu.charge(charge);
        }
    }

    /// Every step of one run, as a hash. Every third thread finishes early.
    fn pick_order_hash(threads: usize, topology: Topology, faults: FaultPlan) -> u64 {
        let hash = std::rc::Rc::new(std::cell::Cell::new(0xcbf2_9ce4_8422_2325));
        let mut cfg = config(1_500_000).with_faults(faults);
        cfg.topology = topology;
        // A short quantum makes co-tenants rotate many times per run; on the
        // 1,024 grid, quantum ends can fall exactly on a step boundary.
        cfg.costs.quantum = 100 * 1_024;
        cfg.costs.context_switch = 30 * 1_024;
        let workers = (0..threads)
            .map(|i| Chaos {
                threads: threads as u64,
                steps_left: if i % 3 == 2 { 200 * i as u64 } else { u64::MAX },
                hash: hash.clone(),
            })
            .collect();
        assert!(!Simulator::new(cfg).run(workers).0.truncated);
        hash.get()
    }

    /// `pick_order_hash` recorded with the quantum-slice scheduler this one
    /// replaced. Rows: 1, 3, 8, 9, 16 and 24 threads, each on haswell then
    /// unicore (one thread runs alike on both). Columns: no faults, stall,
    /// kill, storm.
    #[rustfmt::skip]
    const GOLDEN: [[u64; 4]; 12] = [
        [0xb913e5200c7728f8, 0x2e3c3d62f777f552, 0x72a0e9675b0ff80e, 0x48892665c3d0d820],
        [0xb913e5200c7728f8, 0x2e3c3d62f777f552, 0x72a0e9675b0ff80e, 0x48892665c3d0d820],
        [0xcf7a72b2f4e117da, 0x932473ece955ce90, 0x76dc8d1e213c2806, 0xc7a2d8efc0e02a13],
        [0x3e6f618a6c5719dd, 0x79576904f8122f88, 0x3a943ca947d07ad3, 0xcf0dcdf7b42bdeb6],
        [0x807315f81d791350, 0xba1352a17c4708bc, 0x59d84c56f1dfef0f, 0xb21c9c992bfa08ab],
        [0xd5c8af422041267c, 0xca46daadaf72510d, 0xc27904417e776a46, 0xa16e475ce2664603],
        [0xf4c5ba281d7a4b47, 0x37764f15ae0cbadf, 0x98021edd860df268, 0x51bc128a598bb3cf],
        [0xf42278144d7173c0, 0x609fb2c9805cdba5, 0xcc64eb7230a2ee31, 0x9f3c5a936fa71621],
        [0xc41e39cedfacf6e2, 0xe565b98c2c00f9fd, 0x18afe985944cd6bb, 0x1a01b6c88a1565f8],
        [0x70f18cd6c0b32af9, 0xd1f8b544c078d757, 0xed7483d3804acc37, 0x29731b347c2c29e8],
        [0x587375c2cb617901, 0x4ab55609495c0bd0, 0xf729a538e85f6f97, 0xb286e53287878f3b],
        [0xa0b9a43f3a23d4b8, 0x22c6f57c2194bac5, 0x9c2659e3be19449b, 0x84fce0173b49df54],
    ];

    #[test]
    fn pick_order_matches_the_recorded_hashes() {
        let mut rows = GOLDEN.iter();
        for threads in [1, 3, 8, 9, 16, 24] {
            let plans = [
                FaultPlan::new(),
                // Two threads park at clock 0 and tie on a resume time that
                // is also a multiple of 1,024.
                FaultPlan::new()
                    .stall(1 % threads, 0, 409_600)
                    .stall(2 % threads, 0, 409_600),
                FaultPlan::new().kill(threads / 3, 50_000),
                FaultPlan::new().storm(0, 100_000, 150_000),
            ];
            for topology in [Topology::haswell(), Topology::unicore()] {
                let row = rows.next().expect("one golden row per case");
                for (faults, &want) in plans.iter().zip(row) {
                    let got = pick_order_hash(threads, topology, faults.clone());
                    let events = faults.events();
                    assert_eq!(got, want, "{threads} threads on {topology:?}, {events:?}");
                }
            }
        }
    }
}
