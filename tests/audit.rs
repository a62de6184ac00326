//! Audit tier: the heap-ledger oracle and differential soak harness
//! (`st-bench audit`) end to end — see `docs/AUDIT.md`.
//!
//! Mirrors the claims of `tests/model_check.rs` for the soak harness:
//!
//! 1. **Teeth** — each seeded reclamation defect ([`Mutation::SkipFree`],
//!    [`Mutation::DoubleRetire`]) is caught by the ledger oracle within
//!    the PR-smoke budget, with a shrunk replay token that reproduces
//!    the finding.
//! 2. **Soundness** — with protocols intact, every scheme (including the
//!    reclaim-none reference) soaks clean at the same budget, faults
//!    included.
//! 3. **Artifacts** — the soak's metrics snapshot round-trips through
//!    the schema-v2 parser and the `audit.*` validator.

use st_bench::auditcmd::{audit_snapshot, soak, AuditOpts, ComboSummary};
use st_bench::cli::CheckerFlags;
use st_bench::report;
use st_check::{replay, CheckConfig, Mutation, Violation};
use st_obs::audit;
use st_reclaim::Scheme;
use st_simheap::LedgerKind;
use st_structures::StructureKind as Structure;

/// The PR-smoke budget: enough episodes to flush each seeded defect
/// (both fire on the very first seed), small enough to stay fast. The
/// intact-protocols test runs at the same budget so "clean" and
/// "caught" are measured on equal footing.
fn smoke(structure: Structure, scheme: Scheme, mutation: Mutation) -> AuditOpts {
    AuditOpts {
        checker: CheckerFlags {
            structures: vec![structure],
            schemes: vec![scheme],
            config: CheckConfig {
                mutation,
                ..CheckConfig::default()
            },
            ..AuditOpts::default().checker
        },
        max_episodes: 8,
        budget_ms: 60_000,
        ..AuditOpts::default()
    }
}

fn sole_failure(combos: &[ComboSummary]) -> &(Vec<Violation>, st_check::ReplayToken) {
    assert_eq!(combos.len(), 1);
    combos[0]
        .failure
        .as_ref()
        .expect("the seeded defect must be caught within the smoke budget")
}

fn ledger_kinds(violations: &[Violation]) -> Vec<LedgerKind> {
    violations
        .iter()
        .filter_map(|v| match v {
            Violation::Ledger(l) => Some(l.kind),
            _ => None,
        })
        .collect()
}

#[test]
fn skipped_free_is_caught_as_a_leak_at_teardown() {
    let combos = soak(&smoke(
        Structure::List,
        Scheme::StackTrack,
        Mutation::SkipFree,
    ));
    let (violations, token) = sole_failure(&combos);
    let ledger = ledger_kinds(violations);
    assert!(
        ledger.contains(&LedgerKind::Leak),
        "a swallowed free verdict must surface as a leak, got {violations:?}"
    );

    // The shrunk token reproduces the leak, and survives the string
    // round-trip the CLI workflow relies on.
    let reparsed: st_check::ReplayToken = token.to_string().parse().expect("token parses back");
    assert_eq!(reparsed.to_string(), token.to_string());
    let outcome = replay(&reparsed);
    assert!(
        ledger_kinds(&outcome.violations).contains(&LedgerKind::Leak),
        "replay must reproduce the leak, got {:?}",
        outcome.violations
    );
}

#[test]
fn double_retire_is_caught_and_absorbed_by_the_ledger() {
    let combos = soak(&smoke(
        Structure::List,
        Scheme::Hazard,
        Mutation::DoubleRetire,
    ));
    let (violations, token) = sole_failure(&combos);
    let ledger = ledger_kinds(violations);
    assert!(
        ledger.contains(&LedgerKind::DoubleRetire),
        "the duplicated retire must be caught at the cycle it happens, got {violations:?}"
    );
    assert!(
        ledger.contains(&LedgerKind::DoubleFree),
        "the duplicated limbo entry must drain into a recorded double free, got {violations:?}"
    );
    // The heap absorbs a ledgered double free instead of crashing the
    // allocator, so the episode report carries attribution, not a panic.
    assert!(
        !violations.iter().any(|v| matches!(v, Violation::Panic(_))),
        "a ledgered double free must not panic the allocator, got {violations:?}"
    );

    let outcome = replay(token);
    assert!(
        ledger_kinds(&outcome.violations).contains(&LedgerKind::DoubleRetire),
        "replay must reproduce the double retire, got {:?}",
        outcome.violations
    );
}

#[test]
fn intact_schemes_soak_clean_at_the_same_budget() {
    let opts = AuditOpts {
        checker: CheckerFlags {
            structures: vec![Structure::List, Structure::Hash],
            schemes: Scheme::all().to_vec(),
            ..AuditOpts::default().checker
        },
        max_episodes: 8,
        budget_ms: 60_000,
        faults: true,
        ..AuditOpts::default()
    };
    let combos = soak(&opts);
    assert_eq!(combos.len(), 16);
    for c in &combos {
        assert!(
            c.failure.is_none(),
            "{}/{}: intact protocols must soak clean, got {:?}",
            c.structure,
            c.scheme,
            c.failure
        );
        assert_eq!(
            c.episodes, 8,
            "{}/{}: full episode count",
            c.structure, c.scheme
        );
        assert!(
            c.retires > 0,
            "{}/{}: workload must retire",
            c.structure,
            c.scheme
        );
        if c.scheme == Scheme::None {
            assert_eq!(c.frees, 0, "the reference scheme never frees");
        } else {
            assert!(
                c.frees > 0,
                "{}/{}: scheme must free",
                c.structure,
                c.scheme
            );
        }
    }
}

#[test]
fn audit_snapshot_round_trips_and_validates() {
    let opts = AuditOpts {
        checker: CheckerFlags {
            structures: vec![Structure::List],
            schemes: vec![Scheme::Epoch, Scheme::None],
            ..AuditOpts::default().checker
        },
        max_episodes: 3,
        budget_ms: 60_000,
        ..AuditOpts::default()
    };
    let combos = soak(&opts);
    let doc = audit_snapshot("audit_test", opts.budget_ms, &combos);
    let runs = report::parse_metrics_snapshot(&doc.to_pretty_string()).expect("snapshot parses");
    assert_eq!(runs.len(), 2);
    report::validate_per_thread(&runs).expect("per-thread envelope is consistent");
    assert_eq!(report::validate_audit(&runs), Ok(2));
    for run in &runs {
        assert_eq!(run.metrics.counter(audit::EPISODES), 3);
        assert_eq!(run.metrics.counter(audit::VIOLATIONS), 0);
        assert!(run.metrics.counter(audit::RETIRES) > 0);
    }
}

#[test]
fn a_caught_defect_lands_in_the_violation_counters() {
    let combos = soak(&smoke(
        Structure::List,
        Scheme::StackTrack,
        Mutation::SkipFree,
    ));
    let doc = audit_snapshot("audit_teeth", 1, &combos);
    let runs = report::parse_metrics_snapshot(&doc.to_pretty_string()).expect("snapshot parses");
    assert_eq!(report::validate_audit(&runs), Ok(1));
    assert!(
        runs[0].metrics.counter(audit::V_LEAK) > 0,
        "the leak must be classified under audit.violations.leak"
    );
    assert_eq!(
        runs[0].metrics.counter(audit::VIOLATIONS),
        audit::VIOLATION_COUNTERS
            .iter()
            .map(|&k| runs[0].metrics.counter(k))
            .sum::<u64>()
    );
}
