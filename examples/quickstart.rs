//! Quickstart: a StackTrack-protected lock-free list in ~40 lines of use.
//!
//! Builds the simulated machine stack (heap -> best-effort HTM ->
//! StackTrack runtime), runs a few set operations through the
//! split-transactional executor, retires nodes, and shows that the
//! stack/register-scanning reclaimer actually returns memory.
//!
//! Run with: `cargo run --release --example quickstart`

use st_simheap::{Heap, HeapConfig};
use st_simhtm::{HtmConfig, HtmEngine};
use st_structures::history::DsOp::{Contains, Delete, Insert};
use st_structures::list::ListShape;
use st_structures::StructureInstance;
use stacktrack::{SchemeThread, StConfig, StRuntime};
use std::sync::Arc;

fn main() {
    // 1. The substrate: a simulated heap guarded by a TL2-style
    //    best-effort HTM engine (the stand-in for Intel TSX).
    let heap = Arc::new(Heap::new(HeapConfig::default()));
    let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 1));

    // 2. The StackTrack runtime: activity array, split predictor
    //    defaults from the paper (initial split length 50, +-1 after 5
    //    consecutive commits/aborts), scan batching.
    let rt = StRuntime::new(engine, StConfig::default(), 1);
    let mut thread = rt.register_thread(0);
    let mut cpu = rt.test_cpu(0);

    // 3. A Harris lock-free list whose operations run as chains of
    //    hardware transactions with automatic reclamation. A set
    //    operation returns 1 for success and 0 otherwise.
    let shape = ListShape::new_untimed(&heap);
    let list = StructureInstance::List(shape);

    let live_before = heap.stats().alloc.live_objects;
    for key in [20u64, 5, 30, 10, 25] {
        assert_eq!(list.run(&mut thread, &mut cpu, Insert(key)), 1);
    }
    println!("after inserts:  {:?}", shape.collect_keys_untimed(&heap));

    assert_eq!(list.run(&mut thread, &mut cpu, Contains(10)), 1);
    assert_eq!(list.run(&mut thread, &mut cpu, Contains(11)), 0);

    for key in [5u64, 25] {
        assert_eq!(list.run(&mut thread, &mut cpu, Delete(key)), 1);
    }
    println!("after deletes:  {:?}", shape.collect_keys_untimed(&heap));

    // 4. Reclamation: deleted nodes sit in the free set until a scan of
    //    every thread's exposed stack/registers proves them unreferenced.
    println!(
        "free set before the scan: {} node(s)",
        thread.outstanding_garbage()
    );
    thread.teardown(&mut cpu);
    let live_now = heap.stats().alloc.live_objects - live_before;
    println!("nodes alive after the scan: {live_now} (both deleted nodes reclaimed)");
    assert_eq!(live_now, 3, "three keys remain; two deletions were freed");

    // 5. The executor kept statistics the paper plots in Figures 3-5.
    let stats = thread.stats();
    println!(
        "ops: {}, committed segments: {}, avg splits/op: {:.2}, scans: {}",
        stats.ops,
        stats.committed_segments,
        stats.avg_splits_per_op(),
        stats.scans,
    );
    println!(
        "virtual time consumed: {:.1} microseconds",
        cpu.now() as f64 / 2_000.0
    );
}
