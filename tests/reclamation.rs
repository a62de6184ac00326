//! Memory accounting across schemes: reclaiming schemes keep garbage
//! bounded, the leaky baseline provably leaks, and teardown returns
//! everything that can be returned.

mod common;

use common::{build_env, run_mix};
use st_machine::Cpu;
use st_reclaim::Scheme;
use st_structures::{StructureInstance, StructureKind};

fn teardown_cpu(t: usize) -> Cpu {
    Cpu::standalone(t, 5)
}

/// Runs a mutation-heavy hash workload and returns (live objects after
/// teardown, live objects before the run, total ops).
fn churn(scheme: Scheme) -> (u64, u64, u64) {
    let env = build_env(StructureKind::Hash, scheme, 4, 64, 7);
    let before = env.heap.stats().alloc.live_objects;
    let (report, mut workers) = run_mix(&env, 4, 2, 128, 7);
    for (t, w) in workers.iter_mut().enumerate() {
        let mut cpu = teardown_cpu(t);
        w.executor_mut().teardown(&mut cpu);
    }
    (
        env.heap.stats().alloc.live_objects,
        before,
        report.total_ops(),
    )
}

#[test]
fn original_leaks_unboundedly() {
    let (after, before, ops) = churn(Scheme::None);
    assert!(ops > 1000, "need real churn (got {ops} ops)");
    // Deletions leave unlinked nodes allocated forever: the population
    // stays bounded but allocation grows with every successful insert.
    assert!(
        after > before + 100,
        "NoReclaim must leak (before {before}, after {after})"
    );
}

#[test]
fn stacktrack_returns_all_garbage() {
    let (after, before, ops) = churn(Scheme::StackTrack);
    assert!(ops > 500);
    // The resident set fluctuates around its initial size; allocation-wise
    // everything retired must be freed, so live objects stay within the
    // key-range bound (128 keys -> at most 128 nodes beyond the baseline).
    assert!(
        after <= before + 128,
        "StackTrack garbage unbounded (before {before}, after {after})"
    );
}

#[test]
fn epoch_and_hazard_keep_garbage_bounded() {
    for scheme in [Scheme::Epoch, Scheme::Hazard] {
        let (after, before, _) = churn(scheme);
        assert!(
            after <= before + 200,
            "{scheme:?} garbage unbounded (before {before}, after {after})"
        );
    }
}

#[test]
fn stalled_thread_blocks_epoch_but_not_stacktrack() {
    // A thread parked inside an operation: epoch reclaimers stall; the
    // StackTrack scan just reads its committed (empty) stack and frees.
    for (scheme, expect_freed) in [(Scheme::Epoch, false), (Scheme::StackTrack, true)] {
        let env = build_env(StructureKind::List, scheme, 2, 8, 3);
        let mut stalled = env.factory.thread(0);
        let mut reclaimer = env.factory.thread(1);
        let mut cpu_a = teardown_cpu(0);
        let mut cpu_b = teardown_cpu(1);

        // Thread 0 parks mid-operation (never completes).
        let StructureInstance::List(shape) = *env.instance else {
            unreachable!()
        };
        let mut park = st_structures::list::contains_body(shape, 1);
        stalled.begin_op(&mut cpu_a, 0, st_structures::list::LIST_SLOTS);
        stalled.step_op(&mut cpu_a, &mut park);

        // Thread 1 inserts then deletes a key, retiring one node.
        let before = env.heap.stats().alloc.live_objects;
        let mut ins = st_structures::list::insert_body(shape, 5000);
        st_reclaim::SchemeThread::run_op(
            &mut *reclaimer,
            &mut cpu_b,
            1,
            st_structures::list::LIST_SLOTS,
            &mut ins,
        );
        let mut del = st_structures::list::delete_body(shape, 5000);
        st_reclaim::SchemeThread::run_op(
            &mut *reclaimer,
            &mut cpu_b,
            2,
            st_structures::list::LIST_SLOTS,
            &mut del,
        );
        // Bounded teardown attempt.
        reclaimer.teardown(&mut cpu_b);
        let after = env.heap.stats().alloc.live_objects;
        let freed = after == before;
        assert_eq!(
            freed, expect_freed,
            "{scheme:?}: freed={freed} (before {before}, after {after})"
        );
    }
}
