//! Model-checking tier: bounded schedule exploration with the
//! linearizability and use-after-free oracles (`st-check` end to end).
//!
//! Three claims are established here:
//!
//! 1. **Soundness** — with every protocol intact, no explored schedule
//!    violates an oracle, for every structure × scheme pair.
//! 2. **Teeth** — deliberately breaking a protocol invariant (StackTrack's
//!    scan consistency re-read, Hazard's deferred publication) is caught
//!    by exploration within the default bounds, deterministically.
//! 3. **Replayability** — a failure shrinks to a token string that, parsed
//!    back, reproduces the same violation.

use st_check::{
    check, replay, CheckConfig, ExploreConfig, ExploreMode, Mutation, ReplayToken, Violation,
};
use st_reclaim::Scheme;
use st_structures::StructureKind as Structure;

/// The exploration bound used by every mutation-detection test and its
/// intact twin: systematic DFS, three forced preemptions, branching on
/// the first sixteen scheduling decisions.
fn deep_dfs() -> ExploreConfig {
    ExploreConfig {
        mode: ExploreMode::Dfs {
            depth: 16,
            preemption_bound: 3,
        },
        max_schedules: 50_000,
    }
}

/// The workload on which the splits-recheck mutation is detectable:
/// two threads, one op each. Seed 104 generates the scripts
/// t0=[Delete(4)], t1=[Delete(2)] over the prepopulated list [2, 4],
/// so t0's traversal holds node 2 as its predecessor frame slot while
/// t1 unlinks, retires, and scans for it.
fn splits_config(mutation: Mutation) -> CheckConfig {
    CheckConfig {
        structure: Structure::List,
        scheme: Scheme::StackTrack,
        threads: 2,
        ops_per_thread: 1,
        key_range: 4,
        seed: 104,
        mutation,
        ..CheckConfig::default()
    }
}

/// Workload for the hazard-pointer mutation: enough ops that a retire
/// lands between a traversal's guard publication and its validation.
fn hazard_config(mutation: Mutation) -> CheckConfig {
    CheckConfig {
        structure: Structure::List,
        scheme: Scheme::Hazard,
        threads: 3,
        ops_per_thread: 6,
        key_range: 4,
        seed: 1,
        mutation,
        ..CheckConfig::default()
    }
}

/// Workload for the NBR mutation: the same shape as the hazard race. NBR
/// frees retired nodes the instant no reservation covers them, counting
/// on neutralization to restart any read-phase traversal left holding a
/// stale pointer — so ignoring the signal reopens the identical
/// unprotected-traversal-vs-immediate-free window.
fn nbr_config(mutation: Mutation) -> CheckConfig {
    CheckConfig {
        structure: Structure::List,
        scheme: Scheme::Nbr,
        threads: 3,
        ops_per_thread: 6,
        key_range: 4,
        seed: 1,
        mutation,
        ..CheckConfig::default()
    }
}

/// Workload for the Hyaline mutation: seed 104's two deletes of the
/// prepopulated keys guarantee a retire — and thus a batch dispatch — on
/// every schedule, including the no-deviation one.
fn hyaline_config(mutation: Mutation) -> CheckConfig {
    CheckConfig {
        structure: Structure::List,
        scheme: Scheme::Hyaline,
        threads: 2,
        ops_per_thread: 1,
        key_range: 4,
        seed: 104,
        mutation,
        ..CheckConfig::default()
    }
}

fn is_uaf(v: &Violation) -> bool {
    matches!(v, Violation::Uaf(_))
}

/// The typed-API smoke: the Harris list runs on `st_reclaim::mem`
/// (typed guards, `Shared` borrows, `Unlinked` retire proofs — see
/// docs/MEMORY_API.md), and the checker's oracles attach at that layer
/// generically — every `Shared` deref funnels through the instrumented
/// `load`/`load_ptr` the UAF oracle watches, and every `Unlinked::retire`
/// through the `retire` the heap ledger records. Deep-bound exploration
/// under the two schemes with the most distinctive protection protocols
/// (StackTrack segment scans, NBR neutralization signals) must stay
/// clean with no per-structure oracle wiring.
#[test]
fn typed_list_is_clean_under_stacktrack_and_nbr_at_deep_bounds() {
    for scheme in [Scheme::StackTrack, Scheme::Nbr] {
        let config = CheckConfig {
            structure: Structure::List,
            scheme,
            threads: 2,
            ops_per_thread: 2,
            key_range: 4,
            seed: 104,
            mutation: Mutation::None,
            ..CheckConfig::default()
        };
        let report = check(&config, &deep_dfs());
        assert!(
            report.passed(),
            "typed list under {scheme:?} violated an oracle: {:?}",
            report.failure
        );
        assert!(report.schedules_run > 0);
    }
}

/// The same smoke for the three structures ported after the list: the
/// skip list (per-level guard arrays, helping snips, deferred-ownership
/// retires), the queue (stash/unstash dummy handoff, head-swing
/// `cas_unlink`), and the red-black tree (lock `Field`, `Exclusive`
/// writer sections, `assume_unlinked` delete). Deep-bound exploration
/// under a transactional scheme (StackTrack), a per-pointer scheme
/// (Hazard), and a batch scheme (Hyaline) must stay clean — the typed
/// lowering adds no call the oracles do not already watch.
#[test]
fn typed_skiplist_is_clean_under_three_schemes_at_deep_bounds() {
    typed_structure_smoke(Structure::SkipList);
}

#[test]
fn typed_queue_is_clean_under_three_schemes_at_deep_bounds() {
    typed_structure_smoke(Structure::Queue);
}

#[test]
fn typed_rbtree_is_clean_under_three_schemes_at_deep_bounds() {
    typed_structure_smoke(Structure::RbTree);
}

fn typed_structure_smoke(structure: Structure) {
    for scheme in [Scheme::StackTrack, Scheme::Hazard, Scheme::Hyaline] {
        let config = CheckConfig {
            structure,
            scheme,
            threads: 2,
            ops_per_thread: 2,
            key_range: 4,
            seed: 104,
            mutation: Mutation::None,
            ..CheckConfig::default()
        };
        let report = check(&config, &deep_dfs());
        assert!(
            report.passed(),
            "typed {structure} under {scheme:?} violated an oracle: {:?}",
            report.failure
        );
        assert!(report.schedules_run > 0);
    }
}

#[test]
fn intact_protocols_pass_dfs_and_random_exploration() {
    for structure in [
        Structure::List,
        Structure::Hash,
        Structure::Queue,
        Structure::SkipList,
        Structure::RbTree,
    ] {
        for scheme in [
            Scheme::StackTrack,
            Scheme::Epoch,
            Scheme::Hazard,
            Scheme::Dta,
            Scheme::RefCount,
            Scheme::Nbr,
            Scheme::Hyaline,
        ] {
            let config = CheckConfig {
                structure,
                scheme,
                mutation: Mutation::None,
                ..CheckConfig::default()
            };
            for (label, mode, budget) in [
                (
                    "dfs",
                    ExploreMode::Dfs {
                        depth: 12,
                        preemption_bound: 2,
                    },
                    300u64,
                ),
                ("random", ExploreMode::Random { percent: 25 }, 100),
            ] {
                let report = check(
                    &config,
                    &ExploreConfig {
                        mode,
                        max_schedules: budget,
                    },
                );
                assert!(
                    report.passed(),
                    "{structure}/{scheme:?} violated an oracle under {label} \
                     exploration: {:?}",
                    report.failure
                );
                assert!(report.schedules_run > 0);
            }
        }
    }
}

#[test]
fn mutated_splits_recheck_is_detected_by_dfs() {
    // Breaking Algorithm 1's consistency re-read (the `splits` counter
    // comparison that rejects torn frame snapshots) must let the scan
    // free a node that a concurrent traversal still references.
    let report = check(&splits_config(Mutation::SkipSplitsRecheck), &deep_dfs());
    let failure = report
        .failure
        .expect("splits mutation survived bounded exploration");
    assert!(
        failure.violations.iter().any(is_uaf),
        "expected a use-after-free, got {:?}",
        failure.violations
    );
    // Shrinking strips the schedule to its essential preemptions.
    assert!(
        failure.token.deviations.len() <= 4,
        "shrunk schedule still has {} deviations",
        failure.token.deviations.len()
    );

    // The identical exploration with the protocol intact is clean: the
    // re-read restarts the inspection and the scan finds the node.
    let report = check(&splits_config(Mutation::None), &deep_dfs());
    assert!(
        report.passed(),
        "intact splits recheck flagged a violation: {:?}",
        report.failure
    );
}

#[test]
fn mutated_hazard_validation_is_detected_by_dfs() {
    // Deferring the hazard-slot publication past validation reopens the
    // classic protect-then-check race: a retire between read and publish
    // frees the node the traversal is about to dereference.
    let report = check(&hazard_config(Mutation::DeferHazardPublish), &deep_dfs());
    let failure = report
        .failure
        .expect("hazard mutation survived bounded exploration");
    assert!(
        failure.violations.iter().any(is_uaf),
        "expected a use-after-free, got {:?}",
        failure.violations
    );

    let report = check(&hazard_config(Mutation::None), &deep_dfs());
    assert!(
        report.passed(),
        "intact hazard validation flagged a violation: {:?}",
        report.failure
    );
}

#[test]
fn mutated_nbr_neutralization_is_detected_by_dfs() {
    // An NBR thread that swallows its neutralization signal keeps
    // traversing through locals the signaling reclaimer has already
    // freed — the scheme has no other protection in the read phase, so
    // the use-after-free oracle must fire within the default bounds.
    let report = check(&nbr_config(Mutation::NbrSkipRestart), &deep_dfs());
    let failure = report
        .failure
        .expect("nbr mutation survived bounded exploration");
    assert!(
        failure.violations.iter().any(is_uaf),
        "expected a use-after-free, got {:?}",
        failure.violations
    );

    // Intact, the scheduler delivers the signal before the victim's next
    // step, the traversal restarts, and the same exploration is clean.
    let report = check(&nbr_config(Mutation::None), &deep_dfs());
    assert!(
        report.passed(),
        "intact NBR flagged a violation: {:?}",
        report.failure
    );
}

#[test]
fn mutated_hyaline_decrement_is_detected_by_dfs() {
    // Dropping the dispatcher's own reference decrement strands the first
    // batch at a positive count forever: its nodes are never freed and
    // the heap ledger reports them as leaks at teardown. The defect is
    // schedule-independent, so shrinking strips every deviation.
    let report = check(&hyaline_config(Mutation::HyalineDropDecrement), &deep_dfs());
    let failure = report
        .failure
        .expect("hyaline mutation survived bounded exploration");
    assert!(
        failure
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Ledger(_))),
        "expected a ledger leak, got {:?}",
        failure.violations
    );
    assert!(
        failure.token.deviations.is_empty(),
        "a schedule-independent leak should shrink to no deviations, \
         kept {:?}",
        failure.token.deviations
    );

    let report = check(&hyaline_config(Mutation::None), &deep_dfs());
    assert!(
        report.passed(),
        "intact Hyaline flagged a violation: {:?}",
        report.failure
    );
}

#[test]
fn failure_token_reproduces_through_the_string_form() {
    let report = check(&splits_config(Mutation::SkipSplitsRecheck), &deep_dfs());
    let failure = report.failure.expect("no failure to replay");

    // Round-trip the token through its printed form, as a user pasting
    // `st-bench check --replay <token>` would.
    let printed = failure.token.to_string();
    let parsed: ReplayToken = printed.parse().unwrap_or_else(|e| {
        panic!("token {printed:?} failed to parse: {e}");
    });
    assert_eq!(parsed, failure.token);

    let outcome = replay(&parsed);
    assert!(
        outcome.violations.iter().any(is_uaf),
        "replaying {printed} did not reproduce the violation: {:?}",
        outcome.violations
    );

    // Replay is deterministic: a second run reports the identical
    // violation list.
    let again = replay(&parsed);
    assert_eq!(outcome.violations, again.violations);
}

#[test]
fn randomized_mode_also_finds_the_hazard_race() {
    // The PCT-style fallback must catch the coarse hazard race too (it
    // needs no precisely placed preemptions), and its failure must carry
    // a replayable token even when the violating schedule was random.
    let report = check(
        &hazard_config(Mutation::DeferHazardPublish),
        &ExploreConfig {
            mode: ExploreMode::Random { percent: 30 },
            max_schedules: 3_000,
        },
    );
    let failure = report.failure.expect("random mode missed the hazard race");
    let outcome = replay(&failure.token);
    assert!(
        outcome.violations.iter().any(is_uaf),
        "random-mode token did not replay: {:?}",
        outcome.violations
    );
}
