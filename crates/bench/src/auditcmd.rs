//! `st-bench audit`: the heap-ledger audit oracle + differential soak
//! harness (see `docs/AUDIT.md`).
//!
//! ```text
//! st-bench audit [--structures list,hash,queue,skiplist,rbtree] [--schemes A,B,...]
//!                [--threads N] [--ops N] [--keys N] [--seed N] [--percent N]
//!                [--mutate none|splits|hazard|skipfree|dretire|nbrskip|hyadrop]
//!                [--budget-ms N] [--episodes N] [--faults on|off] [--out DIR]
//! ```
//!
//! Each *episode* runs one seeded scripted workload (the `st-check`
//! harness) under a randomized schedule with every oracle armed: the
//! heap's use-after-free oracle, the lifecycle ledger (double retire,
//! double free, free-before-retire, leak-at-teardown), and the
//! differential check of per-op results against the structure's
//! sequential specification. Episodes round-robin over every requested
//! structure × scheme combination — `Scheme::None` rides along as the
//! reclaim-none reference — until the wall-clock budget or the episode
//! cap is reached. A violating episode is shrunk to a minimal
//! `st-bench check --replay` token and stops further soaking of its
//! combination.
//!
//! With `--out DIR` the soak writes `DIR/audit.metrics.json` (schema
//! v2): one run per combination, with the `audit.*` counters named in
//! [`st_obs::audit`] and a `per_thread` envelope whose ops rows sum to
//! `run.total_ops`. Without it nothing is written, so a bare run leaves
//! the committed, budget-dependent `results/audit.metrics.json` alone.

use crate::cli::{checker_flags, parse_flags, CheckerFlags, Flag, ANY, POSITIVE};
use crate::experiment::PerThread;
use crate::report::{self, SnapshotRun};
use crate::{err, out};
use st_check::{
    run_schedule, shrink_failure, CheckConfig, RecordingController, ReplayToken, Violation,
};
use st_machine::{FaultPlan, Pcg32};
use st_obs::{audit, Json, MetricsRegistry};
use st_reclaim::Scheme;
use st_simheap::LedgerKind;
use st_structures::StructureKind;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Soak parameters (CLI flags of `st-bench audit`).
#[derive(Debug, Clone)]
pub struct AuditOpts {
    /// The flags `audit` shares with `check`. By default it soaks list and
    /// hash, the two whose node turnover is highest per step, under every
    /// scheme, the reclaim-none reference included. Episode `e` soaks
    /// seed `seed + e * PHI`.
    pub checker: CheckerFlags,
    /// Wall-clock soak budget in milliseconds. Every combination gets at
    /// least one episode even when the budget is already spent.
    pub budget_ms: u64,
    /// Hard cap on episodes per combination (keeps artifacts bounded and
    /// runs reproducible when the budget is generous).
    pub max_episodes: u64,
    /// Inject a seed-derived stall + preemption-storm plan per episode.
    pub faults: bool,
    /// Output directory for `audit.metrics.json`; `None` writes no
    /// snapshot.
    pub out: Option<PathBuf>,
}

impl Default for AuditOpts {
    fn default() -> Self {
        AuditOpts {
            checker: CheckerFlags::new(
                vec![StructureKind::List, StructureKind::Hash],
                Scheme::all().to_vec(),
            ),
            budget_ms: 3_000,
            max_episodes: 40,
            faults: false,
            out: None,
        }
    }
}

impl AsMut<CheckerFlags> for AuditOpts {
    fn as_mut(&mut self) -> &mut CheckerFlags {
        &mut self.checker
    }
}

/// `audit`'s flags: the checker block, then its own.
pub fn flags() -> Vec<Flag<AuditOpts>> {
    let own: [Flag<AuditOpts>; 4] = [
        Flag::int("--budget-ms", ANY, |o, v| o.budget_ms = v),
        Flag::int("--episodes", POSITIVE, |o, v| o.max_episodes = v),
        Flag::text("--faults", "on|off", |o, v| {
            o.faults = match v {
                "on" => true,
                "off" => false,
                other => return Err(format!("--faults takes on or off, got {other:?}")),
            };
            Ok(())
        }),
        Flag::text("--out", "DIR", |o, v| {
            o.out = Some(v.into());
            Ok(())
        }),
    ];
    checker_flags().into_iter().chain(own).collect()
}

/// Reads `audit`'s arguments, refusing a checker config past its limits.
pub(crate) fn parse(args: &[String]) -> Result<AuditOpts, String> {
    let opts: AuditOpts = parse_flags(&flags(), args)?;
    opts.checker.configs()?;
    Ok(opts)
}

/// Accumulated soak state of one structure × scheme combination.
#[derive(Debug)]
pub struct ComboSummary {
    /// Structure soaked.
    pub structure: StructureKind,
    /// Scheme soaked.
    pub scheme: Scheme,
    /// Episodes executed.
    pub episodes: u64,
    /// Completed operations across all episodes.
    pub ops: u64,
    /// Completed operations per thread slot (snapshot envelope rows).
    pub per_thread: Vec<PerThread>,
    /// Ledger retire events across all episodes.
    pub retires: u64,
    /// Ledger free events across all episodes.
    pub frees: u64,
    /// Findings per class, indexed like [`audit::VIOLATION_COUNTERS`].
    pub violation_counts: [u64; audit::VIOLATION_COUNTERS.len()],
    /// The first failing episode: its findings and the shrunk token.
    pub failure: Option<(Vec<Violation>, ReplayToken)>,
}

impl ComboSummary {
    fn new(config: &CheckConfig) -> Self {
        Self {
            structure: config.structure,
            scheme: config.scheme,
            episodes: 0,
            ops: 0,
            per_thread: (0..config.threads)
                .map(|thread| PerThread {
                    thread,
                    ops: 0,
                    busy_cycles: 0,
                    garbage: 0,
                })
                .collect(),
            retires: 0,
            frees: 0,
            violation_counts: [0; audit::VIOLATION_COUNTERS.len()],
            failure: None,
        }
    }

    /// Total findings across all classes.
    pub fn violations(&self) -> u64 {
        self.violation_counts.iter().sum()
    }

    /// The `audit.*` counters, plus `run.total_ops`.
    fn metrics(&self) -> MetricsRegistry {
        let mut metrics = MetricsRegistry::new();
        metrics.add("run.total_ops", self.ops);
        metrics.add(audit::EPISODES, self.episodes);
        metrics.add(audit::RETIRES, self.retires);
        metrics.add(audit::FREES, self.frees);
        metrics.add(audit::VIOLATIONS, self.violations());
        for (key, &count) in audit::VIOLATION_COUNTERS.iter().zip(&self.violation_counts) {
            metrics.add(key, count);
        }
        metrics
    }
}

/// Maps a finding to its `audit.violations.*` counter index.
fn classify(v: &Violation) -> usize {
    let key = match v {
        Violation::Uaf(_) => audit::V_UAF,
        Violation::NonLinearizable(_) => audit::V_DIFFERENTIAL,
        Violation::Panic(_) => audit::V_PANIC,
        Violation::Ledger(v) => match v.kind {
            LedgerKind::DoubleRetire => audit::V_DOUBLE_RETIRE,
            LedgerKind::DoubleFree => audit::V_DOUBLE_FREE,
            LedgerKind::FreeBeforeRetire => audit::V_FREE_BEFORE_RETIRE,
            LedgerKind::Leak => audit::V_LEAK,
        },
    };
    audit::VIOLATION_COUNTERS
        .iter()
        .position(|&k| k == key)
        .expect("classified counter is listed")
}

/// A seed-derived fault plan for one episode: one mid-run stall plus one
/// preemption storm. Kills are deliberately absent — a killed thread
/// never tears down, which would blind the leak oracle for the whole
/// episode (the windows below end well inside the step budget, so every
/// episode still drains and teardown leaks stay judgeable).
fn fault_plan(seed: u64, threads: usize) -> FaultPlan {
    let mut rng = Pcg32::new_stream(seed, 0xfa17);
    FaultPlan::new()
        .stall(
            rng.below(threads.max(1) as u64) as usize,
            rng.below(20_000),
            1_000 + rng.below(9_000),
        )
        .storm(0, rng.below(20_000), 500 + rng.below(4_000))
}

/// Runs the soak and returns one summary per combination.
///
/// # Panics
///
/// If a combination is past the checker's limits, which the command
/// line refuses.
pub fn soak(opts: &AuditOpts) -> Vec<ComboSummary> {
    let started = Instant::now();
    let configs = opts
        .checker
        .configs()
        .expect("every combination is within the checker's limits");
    let mut combos: Vec<ComboSummary> = configs.iter().map(ComboSummary::new).collect();
    'soak: for e in 0..opts.max_episodes {
        for (combo, base) in combos.iter_mut().zip(&configs) {
            // Episode 0 always runs so every combination has coverage.
            if e > 0 && started.elapsed().as_millis() as u64 >= opts.budget_ms {
                break 'soak;
            }
            if combo.failure.is_some() {
                continue;
            }
            let seed = base.seed.wrapping_add(e.wrapping_mul(0x9e37_79b9));
            let config = CheckConfig {
                seed,
                faults: if opts.faults {
                    fault_plan(seed, base.threads)
                } else {
                    FaultPlan::default()
                },
                ..base.clone()
            };
            let ctrl = Arc::new(RecordingController::random(
                seed ^ 0x51ed_c0de,
                opts.checker.percent,
            ));
            let outcome = run_schedule(&config, ctrl);
            combo.episodes += 1;
            combo.ops += outcome.completed_ops;
            for (row, &n) in combo.per_thread.iter_mut().zip(&outcome.per_thread_ops) {
                row.ops += n;
            }
            combo.retires += outcome.ledger.retire_events;
            combo.frees += outcome.ledger.free_events;
            if !outcome.violations.is_empty() {
                for v in &outcome.violations {
                    combo.violation_counts[classify(v)] += 1;
                }
                let violations = outcome.violations.clone();
                let deviations = outcome.deviations.clone();
                let (failure, _shrink_runs) = shrink_failure(&config, deviations, outcome);
                combo.failure = Some((violations, failure.token));
            }
        }
    }
    combos
}

/// Builds the schema-v2 `audit.metrics.json` document: one run per
/// combination, `audit.*` counters plus a `per_thread` envelope whose
/// ops rows sum to `run.total_ops`.
pub fn audit_snapshot(name: &str, budget_ms: u64, combos: &[ComboSummary]) -> Json {
    let labels: Vec<(String, MetricsRegistry)> = combos
        .iter()
        .map(|c| (c.structure.to_string(), c.metrics()))
        .collect();
    report::snapshot(
        name,
        combos
            .iter()
            .zip(&labels)
            .map(|(c, (structure, metrics))| SnapshotRun {
                scheme: c.scheme.name(),
                structure,
                threads: c.per_thread.len(),
                duration_ms: budget_ms,
                per_thread: &c.per_thread,
                metrics,
            }),
    )
}

/// Runs `st-bench audit`: soaks, reports each combination, and writes
/// `audit.metrics.json` under `--out` when one is given.
pub fn run(opts: &AuditOpts) -> ExitCode {
    let combos = soak(opts);
    let mut failed = false;
    for c in &combos {
        match &c.failure {
            None => {
                out!(
                    "audit {}/{}: {} episodes, {} ops, {} retires / {} frees: clean\n",
                    c.structure,
                    c.scheme,
                    c.episodes,
                    c.ops,
                    c.retires,
                    c.frees
                );
            }
            Some((violations, token)) => {
                failed = true;
                out!(
                    "audit {}/{}: FAILED on episode {} ({} finding(s))\n",
                    c.structure,
                    c.scheme,
                    c.episodes,
                    violations.len()
                );
                for v in violations {
                    out!("  violation: {v}\n");
                }
                out!("  replay with: st-bench check --replay {token}\n");
            }
        }
    }
    let mut summary = format!(
        "audit: {} combination(s), {} episode(s)",
        combos.len(),
        combos.iter().map(|c| c.episodes).sum::<u64>()
    );
    if let Some(out) = &opts.out {
        if let Err(e) = std::fs::create_dir_all(out) {
            err!("{}: {e}\n", out.display());
            return ExitCode::FAILURE;
        }
        let path = out.join("audit.metrics.json");
        let doc = audit_snapshot("audit", opts.budget_ms, &combos);
        if let Err(e) = std::fs::write(&path, doc.to_pretty_string() + "\n") {
            err!("{}: {e}\n", path.display());
            return ExitCode::FAILURE;
        }
        summary += &format!(", snapshot {}", path.display());
    }
    out!("{summary}\n");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_simheap::{Addr, LedgerViolation};

    #[test]
    fn each_ledger_kind_lands_in_its_own_counter() {
        let kinds = [
            (LedgerKind::DoubleRetire, audit::V_DOUBLE_RETIRE),
            (LedgerKind::DoubleFree, audit::V_DOUBLE_FREE),
            (LedgerKind::FreeBeforeRetire, audit::V_FREE_BEFORE_RETIRE),
            (LedgerKind::Leak, audit::V_LEAK),
        ];
        for (kind, counter) in kinds {
            let finding = Violation::Ledger(LedgerViolation {
                kind,
                thread: 1,
                base: Addr::from_index(8),
                cycle: 40,
            });
            assert_eq!(
                audit::VIOLATION_COUNTERS[classify(&finding)],
                counter,
                "{kind}"
            );
        }
    }
}
