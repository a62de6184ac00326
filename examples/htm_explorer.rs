//! Explore the best-effort HTM simulator: abort taxonomy, capacity
//! behaviour, and the SMT pressure that drives the paper's Figure 3.
//!
//! Three experiments on the raw engine (no StackTrack on top):
//!
//! 1. conflict aborts: two threads transact on the same line;
//! 2. capacity aborts vs transaction footprint, with the SMT sibling
//!    idle and then active (the halved-budget + eviction model);
//! 3. doomed readers: a non-transactional free kills in-flight readers.
//!
//! Run with: `cargo run --release --example htm_explorer`

use st_machine::{cpu::ActivityBoard, CostModel, Cpu, HwContext, Topology};
use st_obs::AbortCause;
use st_simheap::{Heap, HeapConfig};
use st_simhtm::{HtmConfig, HtmEngine};
use std::sync::Arc;

fn make_cpu(
    thread: usize,
    topo: &Topology,
    costs: &Arc<CostModel>,
    board: &Arc<ActivityBoard>,
) -> Cpu {
    Cpu::new(
        thread,
        HwContext::new(topo, topo.place(thread)),
        costs.clone(),
        board.clone(),
        0xACE + thread as u64,
    )
}

fn main() {
    let topo = Topology::haswell();
    let costs = Arc::new(CostModel::default());
    let board = Arc::new(ActivityBoard::new(topo.hw_contexts()));
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 20,
    }));
    let engine = HtmEngine::new(heap.clone(), HtmConfig::default(), 8);

    // ---------------------------------------------------------------
    println!("1) conflict: reader vs committing writer on one line");
    let mut a = make_cpu(0, &topo, &costs, &board);
    let mut b = make_cpu(1, &topo, &costs, &board);
    let cell = heap.alloc_untimed(1).expect("cell");

    let mut reader = engine.begin(&mut a);
    engine.tx_read(&mut a, &mut reader, cell, 0).expect("read");
    let mut writer = engine.begin(&mut b);
    engine
        .tx_write(&mut b, &mut writer, cell, 0, 42)
        .expect("write");
    engine.commit(&mut b, &mut writer).expect("writer commits");
    // The reader must now fail: its snapshot is stale.
    let scratch = heap.alloc_untimed(1).expect("scratch");
    engine
        .tx_write(&mut a, &mut reader, scratch, 0, 1)
        .expect("buffered");
    let abort = engine.commit(&mut a, &mut reader).expect_err("doomed");
    println!("   reader abort: {:?}\n", abort.cause());
    assert_eq!(abort.cause(), AbortCause::Conflict);

    // ---------------------------------------------------------------
    println!("2) capacity aborts vs footprint (1000 transactions each)");
    println!("   lines   solo-abort%   smt-abort%");
    let array = heap.alloc_untimed(1 << 15).expect("array");
    for lines in [32u64, 96, 160, 224, 320] {
        let mut rates = Vec::new();
        for smt in [false, true] {
            let mut cpu = make_cpu(0, &topo, &costs, &board);
            let sibling = cpu.hw.sibling.expect("smt sibling");
            board.set_running(sibling, smt);
            board.set_footprint(sibling, if smt { 120 } else { 0 });
            let mut aborted = 0;
            for _ in 0..1000 {
                let mut tx = engine.begin(&mut cpu);
                let mut failed = false;
                for l in 0..lines {
                    if engine.tx_read(&mut cpu, &mut tx, array, l * 8).is_err() {
                        failed = true;
                        break;
                    }
                }
                if failed {
                    aborted += 1;
                } else {
                    engine.commit(&mut cpu, &mut tx).expect("commit");
                }
            }
            rates.push(aborted as f64 / 10.0);
            board.set_running(sibling, false);
        }
        println!("   {:>5}   {:>10.1}   {:>9.1}", lines, rates[0], rates[1]);
    }

    // ---------------------------------------------------------------
    println!("\n3) free_object dooms an in-flight transactional reader");
    let node = heap.alloc_untimed(4).expect("node");
    let mut r = make_cpu(2, &topo, &costs, &board);
    let mut f = make_cpu(3, &topo, &costs, &board);
    let mut tx = engine.begin(&mut r);
    engine.tx_read(&mut r, &mut tx, node, 0).expect("read node");
    engine.free_object(&mut f, node);
    let err = engine
        .tx_read(&mut r, &mut tx, node, 1)
        .expect_err("doomed");
    println!(
        "   reader sees {:?}; node live = {} (poisoned, recycled safely)",
        err.cause(),
        heap.is_live(node)
    );
    assert_eq!(err.cause(), AbortCause::Conflict);

    let totals = engine.total_stats();
    println!(
        "\nengine totals: {} begun, {} committed, {} conflict / {} capacity aborts",
        totals.begun, totals.committed, totals.aborts_conflict, totals.aborts_capacity
    );
}
