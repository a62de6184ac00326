//! One benchmark run: build the machine, populate the structure, simulate,
//! and collect every statistic the figures need — both the flat scalar
//! summary ([`RunResult`]) and the full [`MetricsRegistry`] snapshot that
//! `results/*.metrics.json` serializes (schema in `docs/METRICS.md`).

use crate::workload::{BenchWorker, StructureInstance, WorkloadSpec};
use st_machine::{FaultPlan, SimConfig, Simulator, CYCLES_PER_SECOND};
use st_obs::{Json, MetricsRegistry};
use st_reclaim::{ReclaimConfig, Scheme, SchemeFactory};
use st_simheap::{Heap, HeapConfig};
use st_simhtm::{HtmConfig, HtmEngine, HtmStats};
use stacktrack::{StConfig, StThreadStats};
use std::sync::Arc;

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub spec: WorkloadSpec,
    /// The reclamation scheme.
    pub scheme: Scheme,
    /// Software threads.
    pub threads: usize,
    /// Virtual run length, in milliseconds.
    pub duration_ms: u64,
    /// Unmeasured warm-up before the run, in milliseconds (lets the split
    /// predictor converge, as the paper's 10-second runs implicitly do).
    pub warmup_ms: u64,
    /// Master seed.
    pub seed: u64,
    /// StackTrack tuning (ignored by other schemes).
    pub st_config: StConfig,
    /// Baseline-scheme tuning.
    pub reclaim_config: ReclaimConfig,
    /// Fault schedule applied to the measured run (never to warm-up).
    pub faults: FaultPlan,
    /// Number of evenly spaced `outstanding_garbage` samples to take over
    /// the run (`0` = no time-series).
    pub garbage_samples: usize,
}

impl RunConfig {
    /// A run with default tuning.
    ///
    /// # Panics
    ///
    /// Panics if `spec` violates the [`WorkloadSpec`] builder invariants
    /// (only possible by mutating a built spec's public fields).
    pub fn new(spec: WorkloadSpec, scheme: Scheme, threads: usize, duration_ms: u64) -> Self {
        spec.validate().expect("invalid workload spec");
        let reclaim_config = ReclaimConfig::default();
        Self {
            spec,
            scheme,
            threads,
            duration_ms,
            warmup_ms: 0,
            seed: 0x57ac_c001,
            st_config: StConfig::default(),
            reclaim_config,
            faults: FaultPlan::default(),
            garbage_samples: 0,
        }
    }
}

/// Per-thread breakdown of one run (the `per_thread` envelope of the
/// schema-v2 metrics snapshot, see `docs/METRICS.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerThread {
    /// Simulated thread id (`0..threads`).
    pub thread: usize,
    /// Operations this thread completed.
    pub ops: u64,
    /// Virtual cycles this thread was busy (its final clock).
    pub busy_cycles: u64,
    /// Retired-but-unfreed nodes this thread held at the deadline.
    pub garbage: u64,
}

impl PerThread {
    /// One row of the snapshot's `per_thread` array.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("thread", self.thread);
        o.set("ops", self.ops);
        o.set("busy_cycles", self.busy_cycles);
        o.set("garbage", self.garbage);
        o
    }
}

/// Results of one run (serialized by the report generator).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scheme display name.
    pub scheme: String,
    /// Structure display name.
    pub structure: String,
    /// Software threads.
    pub threads: usize,
    /// Virtual run length (ms).
    pub duration_ms: u64,
    /// Operations completed.
    pub total_ops: u64,
    /// Operations per virtual second.
    pub ops_per_sec: f64,
    /// Transactions begun / committed.
    pub tx_begun: u64,
    /// Committed transactions.
    pub tx_committed: u64,
    /// Conflict aborts.
    pub aborts_conflict: u64,
    /// Capacity aborts.
    pub aborts_capacity: u64,
    /// Explicit (poison/XABORT) aborts.
    pub aborts_explicit: u64,
    /// Scheduler-preemption aborts.
    pub aborts_preempted: u64,
    /// Spurious aborts.
    pub aborts_other: u64,
    /// Memory fences issued.
    pub fences: u64,
    /// Plain loads issued.
    pub loads: u64,
    /// Plain stores issued.
    pub stores: u64,
    /// Transactional loads issued.
    pub tx_loads: u64,
    /// Transactional stores issued.
    pub tx_stores: u64,
    /// Atomic RMW operations issued.
    pub cas_ops: u64,
    /// Context switches suffered.
    pub context_switches: u64,
    /// Average committed segments per operation (StackTrack).
    pub avg_splits_per_op: f64,
    /// Average committed segment length in checkpoints (StackTrack).
    pub avg_split_length: f64,
    /// Operations that used the slow path (StackTrack).
    pub slow_ops: u64,
    /// `SCAN_AND_FREE` invocations (StackTrack).
    pub scans: u64,
    /// Words inspected per scan, on average (StackTrack).
    pub avg_scan_depth: f64,
    /// Inspection restarts from the consistency protocol (StackTrack).
    pub scan_retries: u64,
    /// Share of busy cycles spent scanning, in percent (StackTrack).
    pub scan_penalty_pct: f64,
    /// Retired-but-unfreed nodes at the deadline (before teardown).
    pub garbage: u64,
    /// Live heap words at the end (leak visibility).
    pub live_words: u64,
    /// Per-thread breakdown (ops, busy cycles, deadline garbage), one row
    /// per simulated thread in id order.
    pub per_thread: Vec<PerThread>,
    /// The full metrics snapshot (abort causes, histograms, per-scheme
    /// counters) aggregated over all workers.
    pub metrics: MetricsRegistry,
}

impl RunResult {
    /// The flat scalar summary as one JSON object (one line of the
    /// `results/<name>.json` JSON-lines file; `metrics` is excluded — it
    /// goes to `results/<name>.metrics.json`).
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("scheme", self.scheme.as_str());
        o.set("structure", self.structure.as_str());
        o.set("threads", self.threads);
        o.set("duration_ms", self.duration_ms);
        o.set("total_ops", self.total_ops);
        o.set("ops_per_sec", self.ops_per_sec);
        o.set("tx_begun", self.tx_begun);
        o.set("tx_committed", self.tx_committed);
        o.set("aborts_conflict", self.aborts_conflict);
        o.set("aborts_capacity", self.aborts_capacity);
        o.set("aborts_explicit", self.aborts_explicit);
        o.set("aborts_preempted", self.aborts_preempted);
        o.set("aborts_other", self.aborts_other);
        o.set("fences", self.fences);
        o.set("loads", self.loads);
        o.set("stores", self.stores);
        o.set("tx_loads", self.tx_loads);
        o.set("tx_stores", self.tx_stores);
        o.set("cas_ops", self.cas_ops);
        o.set("context_switches", self.context_switches);
        o.set("avg_splits_per_op", self.avg_splits_per_op);
        o.set("avg_split_length", self.avg_split_length);
        o.set("slow_ops", self.slow_ops);
        o.set("scans", self.scans);
        o.set("avg_scan_depth", self.avg_scan_depth);
        o.set("scan_retries", self.scan_retries);
        o.set("scan_penalty_pct", self.scan_penalty_pct);
        o.set("garbage", self.garbage);
        o.set("live_words", self.live_words);
        o
    }
}

/// Executes one run.
pub fn run(config: &RunConfig) -> RunResult {
    // The warm-up runs on the same heap, and a leaking scheme keeps its
    // garbage, so the heap holds both runs' worth.
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: config
            .spec
            .heap_words(config.duration_ms + config.warmup_ms),
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
        // Guard slots derived from the structures' declared requirements
        // (the matrix maximum, so layout is identical for every row).
        .guard_requirement(st_structures::max_guard_requirement())
        .build();
    let instance = Arc::new(StructureInstance::build(&config.spec, &heap, config.seed));

    let workers: Vec<BenchWorker> = (0..config.threads)
        .map(|t| BenchWorker::new(factory.thread(t), config.spec.clone(), instance.clone()))
        .collect();

    let mut workers = if config.warmup_ms > 0 {
        let warm = Simulator::new(SimConfig::haswell_ms(config.warmup_ms, config.seed));
        let (_, mut workers) = warm.run(workers);
        engine.reset_stats();
        for w in &mut workers {
            w.reset_stats();
        }
        workers
    } else {
        workers
    };
    // Teardown (and garbage sampling, if requested) cover only the
    // measured run — a warm-up deadline must never drain deferred frees.
    let duration_cycles = ms_to_cycles(config.duration_ms);
    let sample_points: Vec<u64> = (1..=config.garbage_samples as u64)
        .map(|k| k * duration_cycles / config.garbage_samples.max(1) as u64)
        .collect();
    for w in &mut workers {
        w.arm_teardown();
        if !sample_points.is_empty() {
            w.sample_garbage_at(sample_points.clone());
        }
    }
    let sim = Simulator::new(
        SimConfig::haswell_ms(config.duration_ms, config.seed.wrapping_add(1))
            .with_faults(config.faults.clone()),
    );
    let (report, workers) = sim.run(workers);

    // Aggregate scheme statistics — once through the unified registry
    // (every scheme reports through SchemeThread::report_metrics) and once
    // into the legacy flat summary.
    let mut metrics = MetricsRegistry::new();
    let mut st_total = StThreadStats::default();
    let mut garbage = 0;
    for w in &workers {
        w.executor().report_metrics(&mut metrics);
        if let Some(s) = w.executor().st_stats() {
            st_total = st_total.merged(&s);
        }
        garbage += w.garbage_at_deadline();
    }
    // `report_metrics` ran after teardown drained the limbo lists; restore
    // the documented "at the deadline" semantics of the gauge.
    metrics.set("reclaim.outstanding_garbage", garbage);
    for k in 0..sample_points.len() {
        let total: u64 = workers
            .iter()
            .map(|w| w.garbage_samples().get(k).copied().unwrap_or(0))
            .sum();
        metrics.set(&format!("reclaim.garbage_ts.{:02}", k + 1), total);
    }
    if !config.faults.is_empty() {
        metrics.add("fault.stalls", report.faults.stalls);
        metrics.add("fault.stall_cycles", report.faults.stall_cycles);
        metrics.add("fault.kills", report.faults.kills);
        metrics.add("fault.storm_switches", report.faults.storm_switches);
    }
    let htm: HtmStats = engine.total_stats();
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
    metrics.set("heap.live_words", heap.stats().alloc.live_words);
    let per_thread: Vec<PerThread> = report
        .threads
        .iter()
        .zip(&workers)
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
        live_words: heap.stats().alloc.live_words,
        per_thread,
        metrics,
    }
}

/// The longest run, and the longest warm-up, in virtual milliseconds that
/// `--ms` and `--warmup` accept (about 11.6 virtual days). Well past it, a
/// deadline in cycles, the multiples of it the robustness figure forms, or
/// the heap sized for a run plus its warm-up would overflow a `u64`.
pub const MAX_RUN_MS: u64 = 1_000_000_000;

/// Virtual milliseconds to cycles.
pub fn ms_to_cycles(ms: u64) -> u64 {
    ms * (CYCLES_PER_SECOND / 1000)
}
