//! Schedule exploration: bounded DFS over deviation points, a PCT-style
//! randomized mode, and greedy shrinking of failing schedules.
//!
//! **DFS mode** enumerates schedules by the number of forced preemptions
//! they contain (the *preemption bound*), in the spirit of
//! delay-bounded / context-bound model checking: start from the
//! deviation-free default schedule, and for every explored schedule whose
//! deviation budget is not exhausted, branch on each decision point after
//! its last deviation, forcing each alternative runnable thread there.
//! Most reclamation races need one or two preemptions placed at the right
//! step, so the interesting part of the space is covered early.
//!
//! **Random mode** flips a biased coin at every branchable decision
//! instead — much deeper schedules, no systematic coverage. It is fully
//! deterministic per attempt seed, so a failure found at attempt `i` is
//! reproducible, and its recorded deviation list replays identically.
//!
//! Either way, a failing schedule is **shrunk** by greedily dropping
//! deviations that are not needed for the failure, then serialized as a
//! [`ReplayToken`].

use crate::harness::{run_schedule, CheckConfig, ScheduleOutcome, Violation};
use crate::schedule::RecordingController;
use crate::token::ReplayToken;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How to explore the schedule space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreMode {
    /// Systematic bounded DFS.
    Dfs {
        /// Only decisions with an index below this may branch.
        depth: u64,
        /// Maximum forced preemptions per schedule.
        preemption_bound: usize,
    },
    /// Randomized (PCT-style) exploration with the given per-decision
    /// deviation probability in percent.
    Random {
        /// Deviation probability in percent (e.g. 15).
        percent: u32,
    },
}

/// Exploration budget and strategy.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Strategy.
    pub mode: ExploreMode,
    /// Hard cap on schedules executed.
    pub max_schedules: u64,
}

/// `st-bench check`'s defaults: bounded DFS branching over the first 12
/// decisions with at most 2 forced preemptions, capped at 300 schedules.
impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            mode: ExploreMode::Dfs {
                depth: 12,
                preemption_bound: 2,
            },
            max_schedules: 300,
        }
    }
}

/// A schedule that violated an oracle, shrunk and replayable.
#[derive(Debug)]
pub struct Failure {
    /// Findings of the shrunk schedule.
    pub violations: Vec<Violation>,
    /// Minimal replay token.
    pub token: ReplayToken,
    /// Deviations before shrinking (for diagnostics).
    pub original_deviations: usize,
}

/// What an exploration produced.
#[derive(Debug)]
pub struct CheckReport {
    /// Schedules executed (including shrink attempts).
    pub schedules_run: u64,
    /// Scheduling decisions across all schedules.
    pub total_decisions: u64,
    /// The first failure found, if any.
    pub failure: Option<Failure>,
}

impl CheckReport {
    /// Whether every explored schedule satisfied both oracles.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs one schedule from a deviation list.
fn run_devs(config: &CheckConfig, devs: &BTreeMap<u64, usize>) -> (ScheduleOutcome, u64) {
    let ctrl = Arc::new(RecordingController::replay(devs.clone()));
    let outcome = run_schedule(config, ctrl);
    let decisions = outcome.decisions;
    (outcome, decisions)
}

/// Greedily removes deviations while the failure persists; returns the
/// shrunk deviation list, its outcome, and the number of extra schedules
/// executed.
fn shrink(
    config: &CheckConfig,
    mut devs: BTreeMap<u64, usize>,
    mut outcome: ScheduleOutcome,
) -> (BTreeMap<u64, usize>, ScheduleOutcome, u64) {
    let mut runs = 0;
    loop {
        let mut improved = false;
        for idx in devs.keys().copied().collect::<Vec<_>>() {
            let mut candidate = devs.clone();
            candidate.remove(&idx);
            let (attempt, _) = run_devs(config, &candidate);
            runs += 1;
            if !attempt.violations.is_empty() {
                devs = candidate;
                outcome = attempt;
                improved = true;
            }
        }
        if !improved {
            return (devs, outcome, runs);
        }
    }
}

fn failure_from(
    config: &CheckConfig,
    devs: BTreeMap<u64, usize>,
    outcome: ScheduleOutcome,
    schedules_run: &mut u64,
) -> Failure {
    let original = devs.len();
    let (shrunk, shrunk_outcome, shrink_runs) = shrink(config, devs, outcome);
    *schedules_run += shrink_runs;
    Failure {
        violations: shrunk_outcome.violations,
        token: ReplayToken {
            config: config.clone(),
            deviations: shrunk,
        },
        original_deviations: original,
    }
}

/// Shrinks a failing schedule found *outside* [`check`] — e.g. by the
/// audit harness's randomized soak — to a minimal replayable [`Failure`].
/// Returns the failure and the number of extra schedules executed while
/// shrinking.
pub fn shrink_failure(
    config: &CheckConfig,
    deviations: BTreeMap<u64, usize>,
    outcome: ScheduleOutcome,
) -> (Failure, u64) {
    let mut runs = 0;
    let failure = failure_from(config, deviations, outcome, &mut runs);
    (failure, runs)
}

/// Explores schedules of `config` per `explore`; stops at the first
/// failing schedule (shrunk to a minimal replay token) or when the
/// budget is exhausted.
pub fn check(config: &CheckConfig, explore: &ExploreConfig) -> CheckReport {
    let mut report = CheckReport {
        schedules_run: 0,
        total_decisions: 0,
        failure: None,
    };
    match explore.mode {
        ExploreMode::Dfs {
            depth,
            preemption_bound,
        } => {
            let mut stack: Vec<BTreeMap<u64, usize>> = vec![BTreeMap::new()];
            while let Some(devs) = stack.pop() {
                if report.schedules_run >= explore.max_schedules {
                    break;
                }
                let ctrl = Arc::new(RecordingController::replay(devs.clone()));
                let decisions = {
                    let outcome = run_schedule(config, ctrl.clone());
                    report.schedules_run += 1;
                    report.total_decisions += outcome.decisions;
                    if !outcome.violations.is_empty() {
                        report.failure = Some(failure_from(
                            config,
                            devs,
                            outcome,
                            &mut report.schedules_run,
                        ));
                        return report;
                    }
                    outcome.decisions
                };
                if devs.len() >= preemption_bound {
                    continue;
                }
                // Branch on every decision after the last pinned one (the
                // prefix is already covered by earlier schedules).
                let trace = ctrl.decisions();
                let start = devs.keys().next_back().map_or(0, |&i| i + 1);
                let end = decisions.min(depth);
                // Reverse so the lowest decision index is explored first.
                for i in (start..end).rev() {
                    let d = &trace[i as usize];
                    for &c in d.candidates.iter().rev() {
                        if c == d.chosen {
                            continue;
                        }
                        let mut next = devs.clone();
                        next.insert(i, c);
                        stack.push(next);
                    }
                }
            }
        }
        ExploreMode::Random { percent } => {
            for attempt in 0..explore.max_schedules {
                let ctrl = Arc::new(RecordingController::random(
                    config.seed.wrapping_add(attempt.wrapping_mul(0x9e37_79b9)),
                    percent,
                ));
                let outcome = run_schedule(config, ctrl.clone());
                report.schedules_run += 1;
                report.total_decisions += outcome.decisions;
                if !outcome.violations.is_empty() {
                    let devs = outcome.deviations.clone();
                    report.failure = Some(failure_from(
                        config,
                        devs,
                        outcome,
                        &mut report.schedules_run,
                    ));
                    return report;
                }
            }
        }
    }
    report
}

/// Replays a token, returning what its schedule produces now.
pub fn replay(token: &ReplayToken) -> ScheduleOutcome {
    let ctrl = Arc::new(RecordingController::replay(token.deviations.clone()));
    run_schedule(&token.config, ctrl)
}
