//! Algorithm 3, live: transactional red-black-tree readers racing a
//! rebalancing writer.
//!
//! The paper instruments `REDBLACK_TREE_SEARCH` as its running example of
//! split-checkpoint injection. This example runs that search — one
//! comparison per basic block, one checkpoint per block — under
//! StackTrack while a writer continuously inserts and deletes (forcing
//! rotations through the readers' paths), and shows:
//!
//! 1. readers are strictly serializable (a key present throughout is
//!    found by every search, rotations notwithstanding);
//! 2. deleted nodes are reclaimed by the stack/register scan;
//! 3. the split statistics of the searches (segments per op, lengths).
//!
//! Run with: `cargo run --release --example rbtree_readers`

use st_simheap::{Heap, HeapConfig};
use st_simhtm::{HtmConfig, HtmEngine};
use st_structures::history::DsOp::{Delete, Insert};
use st_structures::rbtree::{self, RbShape, RB_SLOTS};
use st_structures::StructureInstance;
use stacktrack::{SchemeThread, StConfig, StRuntime};
use std::sync::Arc;

fn main() {
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 21,
    }));
    let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 2));
    let rt = StRuntime::new(
        engine.clone(),
        StConfig {
            initial_split_length: 4, // short segments: show real splitting
            ..StConfig::default()
        },
        2,
    );
    let mut reader = rt.register_thread(0);
    let mut writer = rt.register_thread(1);
    let mut cpu_r = rt.test_cpu(0);
    let mut cpu_w = rt.test_cpu(1);

    let shape = RbShape::new_untimed(&heap);
    let tree = StructureInstance::RbTree(shape);
    for k in (10..=2000u64).step_by(10) {
        assert_eq!(tree.run(&mut writer, &mut cpu_w, Insert(k)), 1);
    }
    println!(
        "tree loaded: {} keys, invariants hold",
        shape.collect_keys_untimed(&heap).len()
    );
    shape.check_invariants_untimed(&heap);

    // The anchor key stays put; the writer churns keys around it.
    let anchor_key = 1010u64;
    let live_before = heap.stats().alloc.live_objects;

    let mut found = 0u64;
    let mut churn = 0u64;
    for round in 0..400u64 {
        let mut body = rbtree::search_body(shape, anchor_key);
        reader.begin_op(&mut cpu_r, rbtree::OP_SEARCH, RB_SLOTS);
        let mut result = None;
        while result.is_none() {
            result = reader.step_op(&mut cpu_r, &mut body);
            // One writer mutation between reader blocks.
            churn += 1;
            let k = churn % 500 + 1; // odd keys: never the anchor
            let op = if round % 2 == 0 {
                Insert(k * 2 + 1)
            } else {
                Delete(k * 2 + 1)
            };
            tree.run(&mut writer, &mut cpu_w, op);
        }
        found += result.expect("completed");
    }
    println!("reader found the anchor key in {found}/400 searches (must be 400)");
    assert_eq!(found, 400, "serializable readers never miss a stable key");

    shape.check_invariants_untimed(&heap);
    let r = reader.stats();
    println!(
        "reader: {} ops, {:.1} segments/op, avg segment {:.1} blocks, {} aborts",
        r.ops,
        r.avg_splits_per_op(),
        r.avg_segment_length(),
        r.segment_aborts,
    );

    // Reclaim: writer retired every deleted node.
    writer.teardown(&mut cpu_w);
    reader.teardown(&mut cpu_r);
    let w = writer.stats();
    println!(
        "writer: {} FREE calls, {} scans, {} nodes freed",
        w.free_calls, w.scans, w.frees_completed
    );
    println!(
        "net live objects vs start: {:+}",
        heap.stats().alloc.live_objects as i64 - live_before as i64
    );
}
