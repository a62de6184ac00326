//! A multi-threaded key-index workload on the skip list, run on the
//! simulated multicore — the paper's Figure 1b scenario as an application.
//!
//! Eight "index server" threads (filling all hardware contexts of the
//! simulated 4-core x 2-SMT machine) serve a 90/10 read/update mix against
//! a shared skip-list index, each under StackTrack. The run reports
//! throughput, HTM behaviour, and reclamation statistics, then verifies
//! the index's structure: sorted keys and the skip-list invariants.
//!
//! Run with: `cargo run --release --example skiplist_store`

use st_machine::{Cpu, Pcg32, SimConfig, Simulator, StepOutcome, Worker};
use st_simheap::{Heap, HeapConfig};
use st_simhtm::{HtmConfig, HtmEngine};
use st_structures::history::DsOp;
use st_structures::skiplist::SkipShape;
use st_structures::{OpDriver, OpSource, StructureInstance};
use stacktrack::{StConfig, StRuntime};
use std::sync::Arc;

const THREADS: usize = 8;
const KEYSPACE: u64 = 50_000;
const INITIAL: u64 = 25_000;

/// The index's request mix: 90% lookups, the rest split evenly between
/// inserts and deletes, over uniform keys.
struct Requests;

impl OpSource for Requests {
    fn next_op(&mut self, cpu: &mut Cpu) -> Option<DsOp> {
        let roll = cpu.rng.below(100);
        let key = cpu.rng.below(KEYSPACE) + 1;
        Some(if roll < 90 {
            DsOp::Contains(key)
        } else if roll.is_multiple_of(2) {
            DsOp::Insert(key)
        } else {
            DsOp::Delete(key)
        })
    }
}

/// One index-server thread.
struct IndexServer {
    driver: OpDriver,
}

impl Worker for IndexServer {
    fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
        self.driver.step(cpu, &mut Requests)
    }
}

fn main() {
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 22,
    }));
    let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), THREADS));
    let rt = StRuntime::new(engine.clone(), StConfig::default(), THREADS);

    // Build and pre-populate the index.
    let shape = SkipShape::new_untimed(&heap);
    let mut rng = Pcg32::new(2024);
    let mut loaded = 0;
    while loaded < INITIAL {
        if shape.insert_untimed(&heap, rng.below(KEYSPACE) + 1, &mut rng) {
            loaded += 1;
        }
    }

    // Run 5 virtual milliseconds on the simulated 8-way machine.
    let index = Arc::new(StructureInstance::SkipList(shape));
    let sim = Simulator::new(SimConfig::haswell_ms(5, 7));
    let workers: Vec<IndexServer> = (0..THREADS)
        .map(|t| IndexServer {
            driver: OpDriver::new(Box::new(rt.register_thread(t)), index.clone()),
        })
        .collect();
    let (report, mut workers) = sim.run(workers);

    println!(
        "index served {} operations in 5 virtual ms",
        report.total_ops()
    );
    println!("throughput: {:.2}M ops/s", report.ops_per_second() / 1e6);

    let htm = engine.total_stats();
    println!(
        "HTM: {} segments committed, {} conflict aborts, {} capacity aborts",
        htm.committed, htm.aborts_conflict, htm.aborts_capacity
    );

    // Drain deferred reclamation and verify structural soundness. The
    // deadline can land mid-operation, so the teardown abandons any
    // in-flight operation (its open segment rolls back) before its scan.
    let mut garbage = 0;
    for (t, w) in workers.iter_mut().enumerate() {
        let th = w.driver.executor_mut();
        garbage += th.outstanding_garbage();
        th.teardown(&mut rt.test_cpu(t));
    }
    println!("free-set entries drained at teardown: {garbage}");
    shape.check_invariants_untimed(&heap);
    let keys = shape.collect_keys_untimed(&heap);
    println!("index holds {} keys; invariants verified", keys.len());
    assert!(keys.windows(2).all(|w| w[0] < w[1]));
}
