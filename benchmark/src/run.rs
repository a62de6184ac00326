//! One config, built from the public pieces `st_bench::experiment::run`
//! uses (`Heap`, `HtmEngine`, `SchemeFactory`, `StructureInstance`,
//! `BenchWorker`, `Simulator`), so that set-up, simulation and report are
//! timed apart and the traced run can slip its decorators in.

use crate::host::thread_cpu_ns;
use crate::trace::{Kind, ThreadTrace, TracedScheme, TracedWorker};
use st_bench::experiment::{PerThread, RunConfig, RunResult};
use st_bench::workload::{BenchWorker, StructureInstance};
use st_machine::{Cpu, SimConfig, SimReport, Simulator, StepOutcome, Worker};
use st_obs::MetricsRegistry;
use st_reclaim::SchemeFactory;
use st_simheap::{Heap, HeapConfig};
use st_simhtm::{HtmConfig, HtmEngine};
use stacktrack::StThreadStats;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// What one config produced and cost.
pub struct ConfigRun {
    /// The simulated outputs: the run summary, its per-thread rows and the
    /// metrics snapshot, as JSON lines. Byte-identical across the plain
    /// run, the traced run and `experiment::run`.
    pub output: String,
    /// The run summary.
    pub result: RunResult,
    /// Simulator steps.
    pub steps: u64,
    /// Thread CPU, in ns, of building the heap, engine, factory,
    /// prepopulated structure and workers.
    pub setup_ns: u64,
    /// Thread CPU, in ns, of `Simulator::run`.
    pub simulate_ns: u64,
    /// Wall time, in ns, of `Simulator::run` (what trace spans measure).
    pub simulate_wall_ns: u64,
    /// Thread CPU, in ns, of aggregating the report.
    pub report_ns: u64,
    /// The per-thread traces, when traced.
    pub traces: Vec<ThreadTrace>,
    /// `Err` when a check of the simulated outputs failed.
    pub check: Result<(), String>,
}

/// `Worker` decorator of the plain run: counts steps, nothing else.
struct StepCounter<W> {
    inner: W,
    steps: u64,
}

impl<W: Worker> Worker for StepCounter<W> {
    fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
        self.steps += 1;
        self.inner.step(cpu)
    }

    fn finish(&mut self, cpu: &mut Cpu) {
        self.inner.finish(cpu);
    }

    fn neutralize(&mut self, cpu: &mut Cpu) {
        self.inner.neutralize(cpu);
    }
}

/// How to trace a config: a constructor of each thread's trace state.
pub type TraceFactory<'a> = &'a dyn Fn(u32) -> ThreadTrace;

/// Runs one config (faults, warm-up and garbage sampling are not used by
/// any workload and are not supported), traced when `trace` is given.
pub fn run_config(config: &RunConfig, trace: Option<TraceFactory<'_>>) -> ConfigRun {
    assert!(
        config.warmup_ms == 0 && config.garbage_samples == 0 && config.faults.is_empty(),
        "the benchmark runs neither warm-up, garbage sampling nor faults"
    );
    let setup_start = thread_cpu_ns();
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: config.spec.heap_words(config.duration_ms),
        ..HeapConfig::default()
    }));
    let engine = Arc::new(HtmEngine::new(
        heap.clone(),
        HtmConfig::default(),
        config.threads,
    ));
    let factory = SchemeFactory::builder(config.scheme)
        .engine(engine.clone())
        .max_threads(config.threads)
        .reclaim_config(config.reclaim_config.clone())
        .st_config(config.st_config.clone())
        .guard_requirement(st_structures::max_guard_requirement())
        .build();
    let instance = Arc::new(StructureInstance::build(&config.spec, &heap, config.seed));
    let traces: Vec<Rc<RefCell<ThreadTrace>>> = match trace {
        Some(make) => (0..config.threads)
            .map(|t| Rc::new(RefCell::new(make(t as u32))))
            .collect(),
        None => Vec::new(),
    };
    let workers: Vec<BenchWorker> = (0..config.threads)
        .map(|t| {
            let mut th = factory.thread(t);
            if let Some(trace) = traces.get(t) {
                th = Box::new(TracedScheme::new(th, trace.clone()));
            }
            let mut w = BenchWorker::new(th, config.spec.clone(), instance.clone());
            w.arm_teardown();
            w
        })
        .collect();
    let setup_ns = thread_cpu_ns() - setup_start;

    let sim = Simulator::new(SimConfig::haswell_ms(
        config.duration_ms,
        config.seed.wrapping_add(1),
    ));
    let wall = Instant::now();
    let sim_start = thread_cpu_ns();
    let (report, workers, steps) = if traces.is_empty() {
        let counted = workers
            .into_iter()
            .map(|inner| StepCounter { inner, steps: 0 })
            .collect();
        let (report, counted) = sim.run(counted);
        let steps = counted.iter().map(|w| w.steps).sum();
        (
            report,
            counted.into_iter().map(|w| w.inner).collect(),
            steps,
        )
    } else {
        let traced = workers
            .into_iter()
            .zip(&traces)
            .map(|(w, t)| TracedWorker::new(w, t.clone()))
            .collect();
        let (report, traced) = sim.run(traced);
        let workers: Vec<BenchWorker> = traced.into_iter().map(TracedWorker::into_inner).collect();
        let steps = traces.iter().map(|t| t.borrow().calls(Kind::Step)).sum();
        (report, workers, steps)
    };
    let simulate_ns = thread_cpu_ns() - sim_start;
    let simulate_wall_ns = wall.elapsed().as_nanos() as u64;

    let report_start = thread_cpu_ns();
    let result = summarize(config, &report, &workers, &engine, &heap);
    let report_ns = thread_cpu_ns() - report_start;

    let check = check_outputs(config, &report, &instance, &heap);
    // The executors hold the last references to the decorators' traces.
    drop(workers);
    let traces = traces
        .into_iter()
        .map(|t| {
            Rc::try_unwrap(t)
                .ok()
                .expect("trace still shared")
                .into_inner()
        })
        .collect();
    ConfigRun {
        output: outputs_of(&result),
        result,
        steps,
        setup_ns,
        simulate_ns,
        simulate_wall_ns,
        report_ns,
        traces,
        check,
    }
}

/// The simulated outputs of a run as JSON lines: summary, per-thread
/// rows, metrics snapshot.
pub fn outputs_of(result: &RunResult) -> String {
    let mut out = result.to_json().to_string();
    for row in &result.per_thread {
        out.push('\n');
        out.push_str(&row.to_json().to_string());
    }
    out.push('\n');
    out.push_str(&result.metrics.to_json().to_string());
    out
}

/// `experiment::run`'s report aggregation for a run without warm-up,
/// faults or garbage samples. The benchmark checks it against
/// `experiment::run` on the first config of every run.
fn summarize(
    config: &RunConfig,
    report: &SimReport,
    workers: &[BenchWorker],
    engine: &HtmEngine,
    heap: &Heap,
) -> RunResult {
    let mut metrics = MetricsRegistry::new();
    let mut st_total = StThreadStats::default();
    let mut garbage = 0;
    for w in workers {
        w.executor().report_metrics(&mut metrics);
        if let Some(s) = w.executor().st_stats() {
            st_total = st_total.merged(&s);
        }
        garbage += w.garbage_at_deadline();
    }
    metrics.set("reclaim.outstanding_garbage", garbage);
    let htm = engine.total_stats();
    htm.report(&mut metrics);
    metrics.add("run.total_ops", report.total_ops());
    metrics.add("machine.fences", report.sum_counter(|c| c.fences));
    metrics.add("machine.loads", report.sum_counter(|c| c.loads));
    metrics.add("machine.stores", report.sum_counter(|c| c.stores));
    metrics.add("machine.cas_ops", report.sum_counter(|c| c.cas_ops));
    metrics.add(
        "machine.context_switches",
        report.sum_counter(|c| c.context_switches),
    );
    let live_words = heap.stats().alloc.live_words;
    metrics.set("heap.live_words", live_words);
    let per_thread = report
        .threads
        .iter()
        .zip(workers)
        .enumerate()
        .map(|(thread, (t, w))| PerThread {
            thread,
            ops: t.ops,
            busy_cycles: t.final_time,
            garbage: w.garbage_at_deadline(),
        })
        .collect();
    let busy_cycles: u64 = report.threads.iter().map(|t| t.final_time).sum();
    let scan_penalty_pct = if busy_cycles > 0 {
        100.0 * st_total.scan_cycles as f64 / busy_cycles as f64
    } else {
        0.0
    };
    RunResult {
        scheme: config.scheme.name().to_string(),
        structure: config.spec.structure.name().to_string(),
        threads: config.threads,
        duration_ms: config.duration_ms,
        total_ops: report.total_ops(),
        ops_per_sec: report.ops_per_second(),
        tx_begun: htm.begun,
        tx_committed: htm.committed,
        aborts_conflict: htm.aborts_conflict,
        aborts_capacity: htm.aborts_capacity,
        aborts_explicit: htm.aborts_explicit,
        aborts_preempted: htm.aborts_preempted,
        aborts_other: htm.aborts_other,
        fences: report.sum_counter(|c| c.fences),
        loads: report.sum_counter(|c| c.loads),
        stores: report.sum_counter(|c| c.stores),
        tx_loads: report.sum_counter(|c| c.tx_loads),
        tx_stores: report.sum_counter(|c| c.tx_stores),
        cas_ops: report.sum_counter(|c| c.cas_ops),
        context_switches: report.sum_counter(|c| c.context_switches),
        avg_splits_per_op: st_total.avg_splits_per_op(),
        avg_split_length: st_total.avg_segment_length(),
        slow_ops: st_total.slow_ops,
        scans: st_total.scans,
        avg_scan_depth: st_total.avg_scan_depth(),
        scan_retries: st_total.scan_retries,
        scan_penalty_pct,
        garbage,
        live_words,
        per_thread,
        metrics,
    }
}

/// Checks the structure after the run. List and hash: the structural
/// invariants (sorted, every reachable node live). Queue: it can be
/// traversed and holds no more than it started with plus one value per
/// completed operation. A failed invariant panics, which the caller
/// counts as a failed config.
fn check_outputs(
    config: &RunConfig,
    report: &SimReport,
    instance: &StructureInstance,
    heap: &Heap,
) -> Result<(), String> {
    if report.truncated {
        return Err("the simulation was truncated".into());
    }
    match instance {
        StructureInstance::List(shape) => shape.check_invariants_untimed(heap),
        StructureInstance::Hash(shape) => shape.check_invariants_untimed(heap),
        StructureInstance::Queue(shape) => {
            let len = shape.collect_values_untimed(heap).len() as u64;
            let bound = config.spec.initial_size + report.total_ops();
            if len > bound {
                return Err(format!("queue holds {len} values, more than {bound}"));
            }
        }
        _ => {
            return Err(format!(
                "no output check for {}",
                config.spec.structure.name()
            ))
        }
    }
    Ok(())
}
