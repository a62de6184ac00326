//! The full matrix: every structure under every reclamation scheme on the
//! simulated 8-way machine, with structural invariants checked after the
//! storm and memory safety enforced by the heap's poison/bounds panics.
//!
//! Any use-after-free in a scheme surfaces here deterministically: a freed
//! node is poisoned, a poison word dereferenced as a pointer lands outside
//! the heap, and the run panics.

mod common;

use common::{build_env, run_mix, run_mix_faulted};
use st_machine::{FaultPlan, CYCLES_PER_SECOND};
use st_reclaim::Scheme;
use st_structures::StructureKind;

fn storm(target: StructureKind, scheme: Scheme, threads: usize) {
    let env = build_env(target, scheme, threads, 200, 42);
    let (report, mut workers) = run_mix(&env, threads, 1, 400, 42);
    assert!(
        report.total_ops() > 0,
        "{target:?}/{scheme:?}: no operations completed"
    );
    env.instance.check_invariants_untimed(&env.heap);

    // Drain deferred reclamation; the structure must stay sound.
    for (t, w) in workers.iter_mut().enumerate() {
        let mut cpu = st_machine::Cpu::standalone(t, 9);
        w.executor_mut().teardown(&mut cpu);
    }
    env.instance.check_invariants_untimed(&env.heap);
}

macro_rules! matrix_test {
    ($name:ident, $kind:ident, $scheme:expr, $threads:expr) => {
        #[test]
        fn $name() {
            storm(StructureKind::$kind, $scheme, $threads);
        }
    };
}

// List under every scheme (including DTA, which is list-only).
matrix_test!(list_original_8, List, Scheme::None, 8);
matrix_test!(list_epoch_8, List, Scheme::Epoch, 8);
matrix_test!(list_hazard_8, List, Scheme::Hazard, 8);
matrix_test!(list_dta_8, List, Scheme::Dta, 8);
matrix_test!(list_refcount_4, List, Scheme::RefCount, 4);
matrix_test!(list_stacktrack_8, List, Scheme::StackTrack, 8);
matrix_test!(list_stacktrack_16, List, Scheme::StackTrack, 16);
matrix_test!(list_nbr_8, List, Scheme::Nbr, 8);
matrix_test!(list_hyaline_8, List, Scheme::Hyaline, 8);

// Skip list.
matrix_test!(skiplist_original_8, SkipList, Scheme::None, 8);
matrix_test!(skiplist_epoch_8, SkipList, Scheme::Epoch, 8);
matrix_test!(skiplist_hazard_8, SkipList, Scheme::Hazard, 8);
matrix_test!(skiplist_stacktrack_8, SkipList, Scheme::StackTrack, 8);
matrix_test!(skiplist_stacktrack_16, SkipList, Scheme::StackTrack, 16);
matrix_test!(skiplist_nbr_8, SkipList, Scheme::Nbr, 8);
matrix_test!(skiplist_hyaline_8, SkipList, Scheme::Hyaline, 8);

// Queue.
matrix_test!(queue_original_8, Queue, Scheme::None, 8);
matrix_test!(queue_epoch_8, Queue, Scheme::Epoch, 8);
matrix_test!(queue_hazard_8, Queue, Scheme::Hazard, 8);
matrix_test!(queue_stacktrack_8, Queue, Scheme::StackTrack, 8);
matrix_test!(queue_stacktrack_16, Queue, Scheme::StackTrack, 16);
matrix_test!(queue_nbr_8, Queue, Scheme::Nbr, 8);
matrix_test!(queue_hyaline_8, Queue, Scheme::Hyaline, 8);

/// Total retired-but-unfreed nodes at the deadline of a run whose last
/// thread stalls from 30 % of the way in until past the deadline.
fn garbage_under_stalled_reader(scheme: Scheme, duration_ms: u64) -> u64 {
    const MS: u64 = CYCLES_PER_SECOND / 1000;
    let threads = 4;
    let env = build_env(StructureKind::List, scheme, threads, 200, 42);
    let plan = FaultPlan::default().stall(threads - 1, duration_ms * MS * 3 / 10, u64::MAX / 2);
    let (_report, workers) = run_mix_faulted(&env, threads, duration_ms, 400, 42, plan);
    env.instance.check_invariants_untimed(&env.heap);
    workers
        .iter()
        .map(|w| w.executor().outstanding_garbage())
        .sum()
}

/// The robustness contrast of the paper's section 2: under a reader that
/// stalls and never comes back, hazard pointers, DTA (via freezing) and
/// StackTrack keep the garbage backlog bounded, while the epoch scheme's
/// limbo lists grow monotonically with run length.
#[test]
fn stalled_reader_bounds_garbage_except_for_epoch() {
    // Hazards: bounded by the scan threshold (2 * threads * slots = 272
    // here). DTA: bounded by the freeze lag. StackTrack: bounded by
    // max_free per thread. Give each headroom for in-flight slack.
    for (scheme, cap) in [
        (Scheme::Hazard, 400),
        (Scheme::Dta, 400),
        (Scheme::StackTrack, 200),
    ] {
        let garbage = garbage_under_stalled_reader(scheme, 4);
        assert!(
            garbage <= cap,
            "{scheme:?}: garbage {garbage} exceeds bound {cap} under a stalled reader"
        );
    }

    // Epoch hoards: strictly more garbage the longer the stall lasts, and
    // far beyond the bounded schemes' caps. (The reclaimers first burn
    // their spin budget on the stalled reader, then hoard.)
    let short = garbage_under_stalled_reader(Scheme::Epoch, 4);
    let long = garbage_under_stalled_reader(Scheme::Epoch, 8);
    assert!(
        long > short,
        "epoch garbage must grow with run length ({short} -> {long})"
    );
    assert!(
        long > 400,
        "epoch should hoard past every bounded scheme's cap (got {long})"
    );
}

/// Like [`garbage_under_stalled_reader`], but the stall begins at a fixed
/// absolute time (1 ms) instead of a fraction of the run, so growing the
/// duration only lengthens the stalled tail — it does not let more nodes
/// be born before the victim's protection state freezes.
fn garbage_with_fixed_stall(scheme: Scheme, duration_ms: u64) -> u64 {
    const MS: u64 = CYCLES_PER_SECOND / 1000;
    let threads = 4;
    let env = build_env(StructureKind::List, scheme, threads, 200, 42);
    let plan = FaultPlan::default().stall(threads - 1, MS, u64::MAX / 2);
    let (_report, workers) = run_mix_faulted(&env, threads, duration_ms, 400, 42, plan);
    env.instance.check_invariants_untimed(&env.heap);
    workers
        .iter()
        .map(|w| w.executor().outstanding_garbage())
        .sum()
}

/// The two "beyond the paper" schemes extend the bounded column of the
/// robustness contrast. NBR: a reader stalled in its read phase has
/// published nothing, so reclaimers free around it; the backlog is capped
/// by the per-thread broadcast threshold (2 * threads * slots ≈ 816 here)
/// regardless of how long the stall lasts. Hyaline: the stalled reader's
/// published era is frozen at the stall, so batch dispatch skips it for
/// every batch whose nodes were all born later — it pins only batches
/// containing nodes born before the freeze, a set the stall length cannot
/// grow. Epoch under the identical fixed-start stall hoards linearly.
#[test]
fn stalled_reader_bounds_nbr_and_hyaline_garbage() {
    const CAP: u64 = 900;
    for scheme in [Scheme::Nbr, Scheme::Hyaline] {
        let mid = garbage_with_fixed_stall(scheme, 8);
        let long = garbage_with_fixed_stall(scheme, 16);
        assert!(
            mid <= CAP && long <= CAP,
            "{scheme:?}: garbage must stay bounded under a stalled reader \
             (8ms -> {mid}, 16ms -> {long}, cap {CAP})"
        );
    }
    let epoch = garbage_with_fixed_stall(Scheme::Epoch, 16);
    assert!(
        epoch > 2 * CAP,
        "epoch should hoard far past the bounded schemes' cap under the \
         same fixed-start stall (got {epoch})"
    );
}

// Hash table.
matrix_test!(hash_original_8, Hash, Scheme::None, 8);
matrix_test!(hash_epoch_8, Hash, Scheme::Epoch, 8);
matrix_test!(hash_hazard_8, Hash, Scheme::Hazard, 8);
matrix_test!(hash_stacktrack_8, Hash, Scheme::StackTrack, 8);
matrix_test!(hash_refcount_4, Hash, Scheme::RefCount, 4);
matrix_test!(hash_nbr_8, Hash, Scheme::Nbr, 8);
matrix_test!(hash_hyaline_8, Hash, Scheme::Hyaline, 8);

// Red-black tree (DTA is list-only).
matrix_test!(rbtree_original_8, RbTree, Scheme::None, 8);
matrix_test!(rbtree_epoch_8, RbTree, Scheme::Epoch, 8);
matrix_test!(rbtree_hazard_8, RbTree, Scheme::Hazard, 8);
matrix_test!(rbtree_stacktrack_8, RbTree, Scheme::StackTrack, 8);
matrix_test!(rbtree_nbr_8, RbTree, Scheme::Nbr, 8);
matrix_test!(rbtree_hyaline_8, RbTree, Scheme::Hyaline, 8);
