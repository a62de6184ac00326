//! The executor contract every scheme keeps, checked on each of
//! `Scheme::all()` through `SchemeFactory::thread`: an operation's locals
//! start at zero, and an undeclared slot or a misused operation lifecycle
//! panics.

use st_machine::{cpu::ActivityBoard, CostModel, Cpu, HwContext, Topology};
use st_reclaim::{Scheme, SchemeFactory, SchemeThread};
use st_simheap::{Heap, HeapConfig};
use st_simhtm::{HtmConfig, HtmEngine};
use stacktrack::layout::STACK_SLOTS;
use stacktrack::Step;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A fresh executor for thread 0 of `scheme`, and its CPU.
fn executor(scheme: Scheme) -> (Box<dyn SchemeThread>, Cpu) {
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 18,
    }));
    let engine = Arc::new(HtmEngine::new(heap, HtmConfig::default(), 1));
    let factory = SchemeFactory::builder(scheme).engine(engine).build();
    let topo = Topology::haswell();
    let cpu = Cpu::new(
        0,
        HwContext::new(&topo, topo.place(0)),
        Arc::new(CostModel::default()),
        Arc::new(ActivityBoard::new(topo.hw_contexts())),
        1,
    );
    (factory.thread(0), cpu)
}

/// The message `f` panics with.
fn panic_message(scheme: Scheme, f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f))
        .err()
        .unwrap_or_else(|| panic!("{scheme}: expected a panic"));
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload.downcast_ref::<&str>().unwrap_or(&"").to_string(),
    }
}

#[test]
fn a_local_set_in_one_operation_reads_zero_in_the_next() {
    for scheme in Scheme::all() {
        let (mut th, mut cpu) = executor(scheme);
        th.run_op(&mut cpu, 0, 2, &mut |m, cpu| {
            m.set_local(cpu, 0, 42);
            m.set_local(cpu, 1, 7);
            Ok(Step::Done(0))
        });
        let next = th.run_op(&mut cpu, 0, 2, &mut |m, cpu| {
            Ok(Step::Done(m.get_local(cpu, 0) | m.get_local(cpu, 1)))
        });
        assert_eq!(next, 0, "{scheme}");
    }
}

#[test]
fn an_undeclared_local_slot_panics() {
    for scheme in Scheme::all() {
        for write in [false, true] {
            let (mut th, mut cpu) = executor(scheme);
            th.begin_op(&mut cpu, 0, 1);
            let message = panic_message(scheme, || {
                th.step_op(&mut cpu, &mut |m, cpu| {
                    if write {
                        m.set_local(cpu, 1, 5);
                    } else {
                        m.get_local(cpu, 1);
                    }
                    Ok(Step::Continue)
                });
            });
            assert!(
                message.contains("undeclared local slot"),
                "{scheme}: {message}"
            );
        }
    }
}

#[test]
fn begin_op_during_an_operation_panics() {
    for scheme in Scheme::all() {
        let (mut th, mut cpu) = executor(scheme);
        th.begin_op(&mut cpu, 0, 1);
        panic_message(scheme, || th.begin_op(&mut cpu, 0, 1));
    }
}

#[test]
fn step_op_with_no_operation_panics() {
    for scheme in Scheme::all() {
        let (mut th, mut cpu) = executor(scheme);
        th.run_op(&mut cpu, 0, 0, &mut |_, _| Ok(Step::Done(0)));
        let message = panic_message(scheme, || {
            th.step_op(&mut cpu, &mut |_, _| Ok(Step::Done(0)));
        });
        assert!(
            message.contains("step_op without an active operation"),
            "{scheme}: {message}"
        );
    }
}

#[test]
fn more_slots_than_the_stack_holds_panics() {
    for scheme in Scheme::all() {
        let (mut th, mut cpu) = executor(scheme);
        panic_message(scheme, || th.begin_op(&mut cpu, 0, STACK_SLOTS + 1));
    }
}
