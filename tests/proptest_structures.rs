//! Randomized property tests, driven through the `st-check` explorer.
//!
//! Every case is a [`CheckConfig`]: the seed deterministically generates
//! per-thread operation scripts, the explorer's randomized mode varies
//! the interleaving, and the per-operation history is validated against
//! the structure's sequential specification by the Wing–Gong
//! linearizability checker (with the heap's use-after-free oracle armed
//! throughout). A violation shrinks to a replay token and fails the
//! test with it, so any failure here is reproducible with
//! `st-bench check --replay <token>`.
//!
//! No external property-testing crate: the build must work with no
//! registry access, and explicit (seed, schedule-token) pairs make
//! failures replayable by construction.

use st_check::{check, CheckConfig, ExploreConfig, ExploreMode};
use st_reclaim::Scheme;
use st_structures::StructureKind as Structure;

const STRUCTURES: [Structure; 5] = [
    Structure::List,
    Structure::Hash,
    Structure::Queue,
    Structure::SkipList,
    Structure::RbTree,
];

const SCHEMES: [Scheme; 8] = [
    Scheme::None,
    Scheme::Epoch,
    Scheme::Hazard,
    Scheme::Dta,
    Scheme::RefCount,
    Scheme::StackTrack,
    Scheme::Nbr,
    Scheme::Hyaline,
];

/// DTA is list-only by design; substitute the leak-free baseline
/// elsewhere (same convention as the scheme matrix tests).
fn scheme_for(structure: Structure, scheme: Scheme) -> Scheme {
    if scheme == Scheme::Dta && structure != Structure::List {
        Scheme::Epoch
    } else {
        scheme
    }
}

/// Explores one workload and panics with the replay token on violation.
fn explore(config: CheckConfig, explore: ExploreConfig) {
    let report = check(&config, &explore);
    if let Some(f) = report.failure {
        panic!(
            "{}/{} violated an oracle after {} schedules: {:?}\n  \
             reproduce with: st-bench check --replay {}",
            config.structure, config.scheme, report.schedules_run, f.violations, f.token
        );
    }
    assert!(report.schedules_run > 0);
}

/// Single-threaded scripts: with one runnable thread every scheduling
/// decision is forced, so the one explored schedule is the sequential
/// execution and linearizability degenerates to "every return value
/// matches the sequential specification" — the classic
/// structure-vs-oracle property, now routed through the recorder.
#[test]
fn sequential_random_scripts_match_the_specs() {
    for structure in STRUCTURES {
        for scheme in SCHEMES {
            for seed in 1..=4 {
                explore(
                    CheckConfig {
                        structure,
                        scheme: scheme_for(structure, scheme),
                        threads: 1,
                        ops_per_thread: 40,
                        key_range: 16,
                        seed,
                        ..CheckConfig::default()
                    },
                    ExploreConfig {
                        mode: ExploreMode::Random { percent: 0 },
                        max_schedules: 1,
                    },
                );
            }
        }
    }
}

/// Concurrent scripts under randomized interleavings: every structure,
/// every scheme, several seeds, dozens of schedules each. Any torn
/// traversal, premature free, or non-linearizable response fails with a
/// shrunk replay token.
#[test]
fn concurrent_random_schedules_satisfy_oracles() {
    for structure in STRUCTURES {
        for scheme in SCHEMES {
            for seed in 1..=2 {
                explore(
                    CheckConfig {
                        structure,
                        scheme: scheme_for(structure, scheme),
                        threads: 3,
                        ops_per_thread: 5,
                        key_range: 6,
                        seed,
                        ..CheckConfig::default()
                    },
                    ExploreConfig {
                        mode: ExploreMode::Random { percent: 25 },
                        max_schedules: 50,
                    },
                );
            }
        }
    }
}
