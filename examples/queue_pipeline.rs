//! A producer/consumer pipeline on the Michael-Scott queue, comparing
//! reclamation schemes on the paper's most contended structure.
//!
//! Four producers feed four consumers through one shared queue on the
//! simulated 8-way machine. Every dequeue retires the old dummy node, so
//! sustained pipelines churn memory fast — exactly where leaking
//! ("Original") diverges from reclaiming schemes. The example runs the
//! same pipeline under Original, Epoch, Hazards, and StackTrack and
//! reports throughput plus outstanding garbage.
//!
//! Run with: `cargo run --release --example queue_pipeline`

use st_machine::{Cpu, SimConfig, Simulator, StepOutcome, Worker};
use st_reclaim::{Scheme, SchemeFactory};
use st_simheap::{Heap, HeapConfig, Word};
use st_simhtm::{HtmConfig, HtmEngine};
use st_structures::history::DsOp;
use st_structures::queue::{self, QueueShape};
use st_structures::{OpDriver, OpSource, StructureInstance};
use std::sync::Arc;

const THREADS: usize = 8;

/// A pipeline stage: a producer enqueues its own sequence numbers, a
/// consumer dequeues and counts the items it got.
struct Stage {
    producer: bool,
    sequence: u64,
    consumed: u64,
}

impl OpSource for Stage {
    fn next_op(&mut self, _cpu: &mut Cpu) -> Option<DsOp> {
        if self.producer {
            self.sequence += 1;
            Some(DsOp::Enqueue(self.sequence))
        } else {
            Some(DsOp::Dequeue)
        }
    }

    fn op_done(&mut self, result: Word) {
        if !self.producer && result != 0 {
            self.consumed += 1;
        }
    }
}

struct PipelineWorker {
    driver: OpDriver,
    stage: Stage,
}

impl Worker for PipelineWorker {
    fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
        self.driver.step(cpu, &mut self.stage)
    }
}

fn run_scheme(scheme: Scheme) {
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 22,
    }));
    let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), THREADS));
    let factory = SchemeFactory::builder(scheme)
        .engine(engine)
        .max_threads(THREADS)
        // A single-structure harness can size guard slots from the one
        // structure it drives.
        .guard_requirement(queue::guard_requirement())
        .build();
    let shape = QueueShape::new_untimed(&heap);
    for i in 0..64 {
        shape.enqueue_untimed(&heap, i + 1);
    }
    let instance = Arc::new(StructureInstance::Queue(shape));

    let sim = Simulator::new(SimConfig::haswell_ms(2, 99));
    let workers: Vec<PipelineWorker> = (0..THREADS)
        .map(|t| PipelineWorker {
            driver: OpDriver::new(factory.thread(t), instance.clone()),
            stage: Stage {
                producer: t % 2 == 0,
                sequence: 1_000_000 * (t as u64 + 1),
                consumed: 0,
            },
        })
        .collect();
    let (report, workers) = sim.run(workers);

    let consumed: u64 = workers.iter().map(|w| w.stage.consumed).sum();
    let garbage: u64 = workers
        .iter()
        .map(|w| w.driver.executor().outstanding_garbage())
        .sum();
    println!(
        "{:<11} {:>8.2}M ops/s   items consumed: {:>6}   garbage nodes: {:>6}   live words: {}",
        scheme.name(),
        report.ops_per_second() / 1e6,
        consumed,
        garbage,
        heap.stats().alloc.live_words,
    );
}

fn main() {
    println!(
        "4 producers + 4 consumers, one Michael-Scott queue, 2 virtual ms on 4 cores x 2 SMT\n"
    );
    for scheme in [
        Scheme::None,
        Scheme::Epoch,
        Scheme::Hazard,
        Scheme::StackTrack,
    ] {
        run_scheme(scheme);
    }
    println!("\nNote the Original row's garbage: every dequeued dummy leaks.");
}
