//! Randomized property tests for the StackTrack core: predictor bounds and
//! convergence, and executor robustness under arbitrary abort patterns.
//!
//! Driven by the simulator's own deterministic `Pcg32` (seeded per case)
//! instead of an external property-testing crate — the build must work with
//! no registry access, and explicit seeds make failures replayable by
//! construction.

use st_machine::rng::Pcg32;
use st_simheap::{Heap, HeapConfig};
use st_simhtm::{HtmConfig, HtmEngine};
use stacktrack::predictor::SplitPredictor;
use stacktrack::{SchemeThread, StConfig, StRuntime, Step};
use std::sync::Arc;

const CASES: u64 = 64;

/// Limits stay within [min, max] under any commit/abort sequence.
#[test]
fn predictor_limits_stay_bounded() {
    for case in 0..CASES {
        let mut rng = Pcg32::new_stream(0x9e37_79b9, case);
        let initial = 1 + rng.below(99) as u32;
        let span = 1 + rng.below(99) as u32;
        let (min, max) = (initial, initial + span);
        let mut p = SplitPredictor::new(initial, min, max, 5, 5);
        let events = rng.below(500);
        for _ in 0..events {
            let op = rng.below(4) as usize;
            let split = rng.below(8) as usize;
            if rng.chance(0.5) {
                p.on_abort(op, split);
            } else {
                p.on_commit(op, split);
            }
            let l = p.limit(op, split);
            assert!(
                l >= min && l <= max,
                "case {case}: limit {l} outside [{min}, {max}]"
            );
        }
    }
}

/// A segment that deterministically aborts above a threshold and commits at
/// or below it converges to the threshold.
#[test]
fn predictor_converges_to_the_capacity() {
    for case in 0..CASES {
        let mut rng = Pcg32::new_stream(0xc0ff_ee11, case);
        let threshold = 2 + rng.below(38) as u32;
        let mut p = SplitPredictor::new(50, 1, 200, 5, 5);
        for _ in 0..6000 {
            if p.limit(0, 0) > threshold {
                p.on_abort(0, 0);
            } else {
                p.on_commit(0, 0);
            }
        }
        let l = p.limit(0, 0);
        assert!(
            l >= threshold.saturating_sub(1) && l <= threshold + 1,
            "case {case}: converged to {l}, expected ~{threshold}"
        );
    }
}

/// Operations complete and reclaim correctly under any spurious-abort
/// probability (the executor's retry/fallback machinery must never wedge
/// or leak).
#[test]
fn executor_survives_arbitrary_abort_rates() {
    for case in 0..CASES {
        let mut rng = Pcg32::new_stream(0x5eed_5eed, case);
        let abort_prob = rng.unit_f64() * 0.9;
        let ops = 1 + rng.below(19) as usize;

        let heap = Arc::new(Heap::new(HeapConfig {
            capacity_words: 1 << 18,
        }));
        let engine = Arc::new(HtmEngine::new(
            heap.clone(),
            HtmConfig {
                spurious_abort_per_access: abort_prob,
            },
            1,
        ));
        let rt = StRuntime::new(
            engine,
            StConfig {
                initial_split_length: 4,
                ..StConfig::default()
            },
            1,
        );
        let mut th = rt.register_thread(0);
        let mut cpu = rt.test_cpu(0);
        let before = heap.stats().alloc.live_objects;

        for i in 0..ops {
            let v = th.run_op(&mut cpu, 0, 1, &mut |m, cpu| {
                let n = m.alloc(cpu, 2);
                m.store(cpu, n, 0, i as u64)?;
                m.set_local(cpu, 0, n.raw());
                m.retire_unlinked(cpu, n)?;
                Ok(Step::Done(1))
            });
            assert_eq!(v, 1, "case {case}");
        }
        th.force_full_scan(&mut cpu);
        assert_eq!(
            heap.stats().alloc.live_objects,
            before,
            "case {case}: no leak"
        );
        assert_eq!(rt.slow_path_count(), 0, "case {case}: slow counter");
    }
}
