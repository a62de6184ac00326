#![allow(dead_code)] // each test binary uses a different subset

//! Shared helpers for the workspace integration tests: an environment
//! (heap, engine, scheme factory, populated structure) and runs of the
//! benchmark's own worker, `BenchWorker`, at a 20%-mutation mix over it.

use st_bench::workload::BenchWorker;
use st_machine::{FaultPlan, Pcg32, SimConfig, SimReport, Simulator, CYCLES_PER_SECOND};
use st_obs::MetricsRegistry;
use st_reclaim::{ReclaimConfig, Scheme, SchemeFactory};
use st_simheap::{Heap, HeapConfig};
use st_simhtm::{HtmConfig, HtmEngine};
use st_structures::{StructureInstance, StructureKind, WorkloadSpec};
use std::sync::Arc;

/// Virtual cycles per millisecond of simulated time.
pub const MS: u64 = CYCLES_PER_SECOND / 1000;

/// A built environment: heap, engine, factory, and the structure.
pub struct Env {
    pub heap: Arc<Heap>,
    pub engine: Arc<HtmEngine>,
    pub factory: SchemeFactory,
    pub instance: Arc<StructureInstance>,
    /// The population: keys up to twice its size, 64 hash buckets, and
    /// the mix's 20% mutations.
    spec: WorkloadSpec,
}

/// Builds an environment for `scheme` with `threads` slots and default
/// scheme tuning.
pub fn build_env(
    structure: StructureKind,
    scheme: Scheme,
    threads: usize,
    initial: u64,
    seed: u64,
) -> Env {
    build_env_cfg(
        structure,
        scheme,
        threads,
        initial,
        seed,
        ReclaimConfig::default(),
    )
}

/// Builds an environment with explicit scheme tuning.
pub fn build_env_cfg(
    structure: StructureKind,
    scheme: Scheme,
    threads: usize,
    initial: u64,
    seed: u64,
    rc: ReclaimConfig,
) -> Env {
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 21,
    }));
    let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), threads));
    let factory = SchemeFactory::builder(scheme)
        .engine(engine.clone())
        .max_threads(threads)
        .reclaim_config(rc)
        // Guard slots derived from the structures' declared requirements
        // rather than hand-computed per harness.
        .guard_requirement(st_structures::max_guard_requirement())
        .build();
    let spec = WorkloadSpec {
        structure,
        initial_size: initial,
        key_range: 2 * initial.max(8),
        mutation_pct: 20,
        buckets: 64,
    };
    let mut rng = Pcg32::new_stream(seed, 0x7e57);
    let instance = Arc::new(StructureInstance::populate(&spec, &heap, &mut rng));
    Env {
        heap,
        engine,
        factory,
        instance,
        spec,
    }
}

/// Thread `t`'s worker: the mix over `env`'s structure, with keys drawn
/// from `1..=key_range`.
pub fn mix_worker(env: &Env, t: usize, key_range: u64) -> BenchWorker {
    let spec = WorkloadSpec {
        key_range,
        ..env.spec.clone()
    };
    BenchWorker::new(env.factory.thread(t), spec, env.instance.clone())
}

/// Runs `threads` mixed workers for `duration_ms` virtual milliseconds and
/// returns the report plus the workers (for teardown and inspection).
pub fn run_mix(
    env: &Env,
    threads: usize,
    duration_ms: u64,
    key_range: u64,
    seed: u64,
) -> (SimReport, Vec<BenchWorker>) {
    run_mix_faulted(
        env,
        threads,
        duration_ms,
        key_range,
        seed,
        FaultPlan::default(),
    )
}

/// [`run_mix`] with a fault schedule applied to the run.
pub fn run_mix_faulted(
    env: &Env,
    threads: usize,
    duration_ms: u64,
    key_range: u64,
    seed: u64,
    faults: FaultPlan,
) -> (SimReport, Vec<BenchWorker>) {
    let workers: Vec<BenchWorker> = (0..threads)
        .map(|t| mix_worker(env, t, key_range))
        .collect();
    let sim = Simulator::new(SimConfig::haswell_ms(duration_ms, seed).with_faults(faults));
    sim.run(workers)
}

/// Collects everything a run observed into one registry (scheme metrics
/// from every worker, machine counters, fault counters), rendered as
/// canonical JSON so tests can compare two runs byte for byte.
pub fn snapshot(report: &SimReport, workers: &[BenchWorker]) -> String {
    let mut reg = MetricsRegistry::new();
    for w in workers {
        w.executor().report_metrics(&mut reg);
    }
    reg.add("run.total_ops", report.total_ops());
    reg.add("machine.fences", report.sum_counter(|c| c.fences));
    reg.add("machine.loads", report.sum_counter(|c| c.loads));
    reg.add("machine.stores", report.sum_counter(|c| c.stores));
    reg.add(
        "machine.context_switches",
        report.sum_counter(|c| c.context_switches),
    );
    reg.add("fault.stalls", report.faults.stalls);
    reg.add("fault.stall_cycles", report.faults.stall_cycles);
    reg.add("fault.kills", report.faults.kills);
    reg.add("fault.storm_switches", report.faults.storm_switches);
    reg.to_json().to_string()
}

/// The fault plan shared by the fault-injection tests: a mid-run stall on
/// thread 2 plus a preemption storm on context 0.
pub fn stall_storm_plan() -> FaultPlan {
    FaultPlan::default()
        .stall(2, MS / 2, MS)
        .storm(0, MS / 4, MS / 8)
}
