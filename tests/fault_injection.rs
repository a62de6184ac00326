//! Fault-injection integration tests: determinism of faulted runs, fault
//! accounting, and structural soundness around stalled and killed threads.

mod common;

use common::{build_env, build_env_cfg, run_mix_faulted, snapshot, stall_storm_plan, MS};
use st_bench::workload::BenchWorker;
use st_machine::FaultPlan;
use st_reclaim::{ReclaimConfig, Scheme};
use st_structures::StructureKind;

/// The tentpole guarantee: one seed plus one fault plan is one execution.
/// Two runs must agree on every metric, byte for byte.
#[test]
fn identical_seed_and_plan_reproduce_identical_metrics() {
    let mk = || {
        let env = build_env(StructureKind::List, Scheme::StackTrack, 4, 150, 7);
        let (report, workers) = run_mix_faulted(&env, 4, 2, 300, 7, stall_storm_plan());
        snapshot(&report, &workers)
    };
    let first = mk();
    let second = mk();
    assert_eq!(first, second, "faulted runs must be reproducible");
}

/// A different seed must actually change the execution — otherwise the
/// determinism assertion above would be vacuous.
#[test]
fn different_seed_changes_the_execution() {
    let env_a = build_env(StructureKind::List, Scheme::StackTrack, 4, 150, 7);
    let (report_a, workers_a) = run_mix_faulted(&env_a, 4, 2, 300, 7, stall_storm_plan());
    let env_b = build_env(StructureKind::List, Scheme::StackTrack, 4, 150, 8);
    let (report_b, workers_b) = run_mix_faulted(&env_b, 4, 2, 300, 8, stall_storm_plan());
    assert_ne!(
        snapshot(&report_a, &workers_a),
        snapshot(&report_b, &workers_b)
    );
}

/// Fault accounting: the report carries the stall and its length.
#[test]
fn stall_is_accounted_and_costs_the_victim_ops() {
    // Hazard pointers: peers are unaffected by a stalled thread, so the
    // ops contrast cleanly isolates the fault's cost to the victim.
    let env = build_env(StructureKind::List, Scheme::Hazard, 4, 150, 11);
    let stall_for = MS; // 1 ms of a 2 ms run
    let (report, _workers) = run_mix_faulted(
        &env,
        4,
        2,
        300,
        11,
        FaultPlan::default().stall(3, MS / 2, stall_for),
    );
    assert_eq!(report.faults.stalls, 1);
    assert!(report.faults.stall_cycles >= stall_for);
    assert_eq!(report.faults.kills, 0);

    // The victim loses half its run time; every peer does not.
    let victim_ops = report.threads[3].ops;
    let peer_ops = report.threads[0].ops;
    assert!(
        victim_ops < peer_ops * 2 / 3,
        "stalled thread should complete far fewer ops ({victim_ops} vs {peer_ops})"
    );
}

/// A killed thread disappears mid-run; the structure must stay sound and
/// the survivors must keep completing operations. Run under every scheme
/// that supports the list.
#[test]
fn killed_thread_leaves_structure_sound() {
    for scheme in [
        Scheme::None,
        Scheme::Hazard,
        Scheme::Epoch,
        Scheme::StackTrack,
        Scheme::Dta,
    ] {
        let env = build_env(StructureKind::List, scheme, 4, 150, 13);
        let (report, _workers) =
            run_mix_faulted(&env, 4, 2, 300, 13, FaultPlan::default().kill(1, MS / 2));
        assert_eq!(report.faults.kills, 1, "{scheme:?}");
        assert!(
            report.threads[1].final_time <= MS + MS / 10,
            "{scheme:?}: killed thread must stop accruing time"
        );
        let survivors: u64 = [0, 2, 3].iter().map(|&t| report.threads[t].ops).sum();
        assert!(survivors > 0, "{scheme:?}: survivors made no progress");
        env.instance.check_invariants_untimed(&env.heap);
    }
}

/// Epoch recovery after a transient stall: while one thread is parked
/// mid-operation every reclaimer burns its wait budget, abandons the
/// snapshot, and hoards limbo. Once the straggler resumes, each reclaimer
/// must re-arm from a *fresh* deadline (not the expired one) and drain —
/// a stale `give_up_at` would make every post-resume wait give up
/// immediately and the hoard would never shrink.
#[test]
fn epoch_garbage_drains_after_a_stall_resumes() {
    // Guard slots come from the structures' declared requirements, via
    // `guard_requirement` in `build_env_cfg`.
    // A quarter-millisecond budget: cheap to burn during the stall, and
    // several re-arm opportunities fit in the post-resume window.
    let rc = ReclaimConfig {
        epoch_wait_budget: MS / 4,
        ..ReclaimConfig::default()
    };
    let plan = |stall_for| FaultPlan::default().stall(0, MS / 2, stall_for);
    let garbage = |workers: &[BenchWorker]| -> u64 {
        workers
            .iter()
            .map(|w| w.executor().outstanding_garbage())
            .sum()
    };

    // Reference: the straggler never comes back, so limbo hoards to the end.
    let env = build_env_cfg(StructureKind::List, Scheme::Epoch, 4, 150, 19, rc.clone());
    let (_report, workers) = run_mix_faulted(&env, 4, 4, 300, 19, plan(10 * MS));
    let hoarded = garbage(&workers);
    assert!(hoarded > 0, "a run-long stall must hoard limbo garbage");

    // Same seed, but the stall ends mid-run: 2.5 virtual ms of recovery.
    let env = build_env_cfg(StructureKind::List, Scheme::Epoch, 4, 150, 19, rc);
    let (report, workers) = run_mix_faulted(&env, 4, 4, 300, 19, plan(MS));
    assert_eq!(report.faults.stalls, 1);
    let drained = garbage(&workers);
    assert!(
        drained < hoarded / 5,
        "reclaimers must drain after the straggler resumes \
         (post-resume garbage {drained} vs hoarded {hoarded})"
    );
    env.instance.check_invariants_untimed(&env.heap);
}

/// A preemption storm on one context slows its tenants but the run stays
/// deterministic and sound.
#[test]
fn preemption_storm_costs_throughput() {
    let quiet = build_env(StructureKind::List, Scheme::StackTrack, 4, 150, 17);
    let (report_quiet, _w) = run_mix_faulted(&quiet, 4, 2, 300, 17, FaultPlan::default());

    let stormy = build_env(StructureKind::List, Scheme::StackTrack, 4, 150, 17);
    let (report_storm, _w) = run_mix_faulted(
        &stormy,
        4,
        2,
        300,
        17,
        // Storm context 0 for the middle half of the run.
        FaultPlan::default().storm(0, MS / 2, MS),
    );
    assert!(report_storm.faults.storm_switches > 0);
    assert!(
        report_storm.total_ops() < report_quiet.total_ops(),
        "storm should cost throughput ({} vs {})",
        report_storm.total_ops(),
        report_quiet.total_ops()
    );
    stormy.instance.check_invariants_untimed(&stormy.heap);
}
