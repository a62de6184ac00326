//! The strongest structural test in the suite: after **every simulator
//! step** of a concurrent storm, walk the skip list's bottom level and
//! assert (a) all reachable nodes are live (no freed node is linked),
//! (b) keys are in order across marked nodes too, and (c) the chain
//! terminates. This is the harness that caught two real bugs during
//! development: an insert retry path whose search continuation re-entered
//! the duplicate check and retired its own linked node, and the insert's
//! upper-level cursor being clobbered by the refresh search.

mod common;

use common::{build_env, mix_worker};
use st_bench::workload::BenchWorker;
use st_machine::{Cpu, SimConfig, Simulator, StepOutcome, Topology, Worker};
use st_reclaim::Scheme;
use st_simheap::{Heap, TaggedPtr};
use st_structures::skiplist::{SkipShape, NODE_KEY, NODE_NEXT0};
use st_structures::{StructureInstance, StructureKind};
use std::sync::Arc;

struct Checked {
    inner: BenchWorker,
    shape: SkipShape,
    heap: Arc<Heap>,
}

fn level0_ok(heap: &Heap, shape: &SkipShape) -> Result<(), String> {
    for l in 0..st_structures::skiplist::MAX_LEVEL as u64 {
        level_ok(heap, shape, l)?;
    }
    Ok(())
}

fn level_ok(heap: &Heap, shape: &SkipShape, l: u64) -> Result<(), String> {
    let mut cur = TaggedPtr::from_word(heap.peek(shape.head, NODE_NEXT0 + l));
    let mut prev = shape.head;
    let mut last = 0u64;
    let mut hops = 0u32;
    while !cur.is_null() {
        let a = cur.addr();
        if a == shape.tail {
            return Ok(());
        }
        if a.is_null() || a.index() >= heap.capacity_words() {
            return Err(format!("L{l}: dangling edge out of {prev:?}"));
        }
        if !heap.is_live(a) {
            return Err(format!("L{l}: freed node linked: {prev:?} -> {a:?}"));
        }
        hops += 1;
        if hops > 50_000 {
            return Err(format!("L{l}: cycle"));
        }
        let key = heap.peek(a, NODE_KEY);
        let next = TaggedPtr::from_word(heap.peek(a, NODE_NEXT0 + l));
        if key < last || (key == last && next.marked()) {
            return Err(format!(
                "L{l}: key {key} out of order after {last}: edge {prev:?} -> {a:?}"
            ));
        }
        last = key;
        prev = a;
        cur = next;
    }
    Err(format!("L{l}: null before tail"))
}

impl Worker for Checked {
    fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
        let out = self.inner.step(cpu);
        if let Err(e) = level0_ok(&self.heap, &self.shape) {
            panic!(
                "invariant broken after a step of thread {}: {e}",
                cpu.thread_id
            );
        }
        out
    }
}

fn storm(scheme: Scheme, duration_cycles: u64) {
    let env = build_env(StructureKind::SkipList, scheme, 8, 200, 42);
    let StructureInstance::SkipList(shape) = *env.instance else {
        unreachable!()
    };
    let workers: Vec<Checked> = (0..8)
        .map(|t| Checked {
            inner: mix_worker(&env, t, 400),
            shape,
            heap: env.heap.clone(),
        })
        .collect();
    let sim = Simulator::new(SimConfig {
        topology: Topology::haswell(),
        costs: st_machine::CostModel::default(),
        seed: 42,
        duration: duration_cycles,
        step_limit: None,
        faults: st_machine::FaultPlan::default(),
        controller: None,
    });
    let (report, _) = sim.run(workers);
    assert!(report.total_ops() > 100, "storm must do real work");
}

#[test]
fn skiplist_stepwise_under_epoch() {
    storm(Scheme::Epoch, 2_000_000);
}

#[test]
fn skiplist_stepwise_under_stacktrack() {
    storm(Scheme::StackTrack, 500_000);
}

#[test]
fn skiplist_stepwise_under_hazards() {
    storm(Scheme::Hazard, 500_000);
}

#[test]
fn skiplist_stepwise_under_original() {
    storm(Scheme::None, 500_000);
}

// ----------------------------------------------------------------------
// The same per-step discipline for the Harris list.
// ----------------------------------------------------------------------

struct CheckedList {
    inner: BenchWorker,
    shape: st_structures::list::ListShape,
    heap: Arc<Heap>,
}

fn list_ok(heap: &Heap, shape: &st_structures::list::ListShape) -> Result<(), String> {
    use st_structures::list::{NODE_KEY, NODE_NEXT};
    let mut cur = TaggedPtr::from_word(heap.peek(shape.head, NODE_NEXT));
    let mut prev = shape.head;
    let mut last = 0u64;
    let mut hops = 0u32;
    while !cur.is_null() {
        let a = cur.addr();
        if a == shape.tail {
            return Ok(());
        }
        if a.is_null() || a.index() >= heap.capacity_words() {
            return Err(format!("dangling edge out of {prev:?}"));
        }
        if !heap.is_live(a) {
            return Err(format!("freed node linked: {prev:?} -> {a:?}"));
        }
        hops += 1;
        if hops > 50_000 {
            return Err("cycle".into());
        }
        let key = heap.peek(a, NODE_KEY);
        let next = TaggedPtr::from_word(heap.peek(a, NODE_NEXT));
        if key < last || (key == last && next.marked()) {
            return Err(format!("key {key} out of order after {last}"));
        }
        last = key;
        prev = a;
        cur = next;
    }
    Err("null before tail".into())
}

impl Worker for CheckedList {
    fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
        let out = self.inner.step(cpu);
        if let Err(e) = list_ok(&self.heap, &self.shape) {
            panic!(
                "list invariant broken after a step of thread {}: {e}",
                cpu.thread_id
            );
        }
        out
    }
}

fn list_storm(scheme: Scheme) {
    let env = build_env(StructureKind::List, scheme, 8, 100, 21);
    let StructureInstance::List(shape) = *env.instance else {
        unreachable!()
    };
    let workers: Vec<CheckedList> = (0..8)
        .map(|t| CheckedList {
            inner: mix_worker(&env, t, 200),
            shape,
            heap: env.heap.clone(),
        })
        .collect();
    let sim = Simulator::new(SimConfig {
        topology: Topology::haswell(),
        costs: st_machine::CostModel::default(),
        seed: 21,
        duration: 2_000_000,
        step_limit: None,
        faults: st_machine::FaultPlan::default(),
        controller: None,
    });
    let (report, _) = sim.run(workers);
    assert!(report.total_ops() > 50, "storm must do real work");
}

#[test]
fn list_stepwise_under_epoch() {
    list_storm(Scheme::Epoch);
}

#[test]
fn list_stepwise_under_stacktrack() {
    list_storm(Scheme::StackTrack);
}

#[test]
fn list_stepwise_under_dta() {
    list_storm(Scheme::Dta);
}

#[test]
fn list_stepwise_under_hazards() {
    list_storm(Scheme::Hazard);
}
