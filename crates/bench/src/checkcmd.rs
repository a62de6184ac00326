//! `st-bench check`: the bounded schedule explorer (st-check) from the
//! command line.
//!
//! ```text
//! st-bench check [--structures list,hash,queue,skiplist,rbtree] [--schemes A,B,...]
//!                [--threads N] [--ops N] [--keys N] [--seed N] [--percent N]
//!                [--mutate none|splits|hazard|skipfree|dretire|nbrskip|hyadrop]
//!                [--mode dfs|random] [--depth N] [--preemptions N] [--schedules N]
//!                [--replay TOKEN]
//! ```
//!
//! With `--replay`, runs exactly one schedule from a token printed by an
//! earlier failing exploration and reports what the oracles saw. Without
//! it, explores every requested structure × scheme pair and exits
//! non-zero if any schedule violates an oracle.

use crate::cli::{checker_flags, parse_flags, CheckerFlags, Command, Flag, ANY, COUNT, POSITIVE};
use crate::out;
use st_check::{check, replay, CheckConfig, ExploreConfig, ExploreMode, ReplayToken};
use st_obs::MetricsRegistry;
use st_reclaim::Scheme;
use st_structures::StructureKind;
use std::process::ExitCode;

/// `st-bench check`'s options: the checker block and its own flags.
#[derive(Debug)]
pub struct CheckOpts {
    /// The flags `check` shares with `audit`.
    pub checker: CheckerFlags,
    /// `--mode random`: randomized exploration at `--percent` instead of
    /// bounded DFS.
    pub random: bool,
    /// The DFS bounds (`--depth`, `--preemptions`) and `--schedules`;
    /// its mode stays DFS until every flag is read.
    pub explore: ExploreConfig,
    /// `--replay`: run this one schedule and nothing else.
    pub replay: Option<ReplayToken>,
}

impl Default for CheckOpts {
    fn default() -> Self {
        CheckOpts {
            checker: CheckerFlags::new(
                vec![
                    StructureKind::List,
                    StructureKind::Hash,
                    StructureKind::Queue,
                    StructureKind::SkipList,
                    StructureKind::RbTree,
                ],
                vec![Scheme::StackTrack, Scheme::Epoch],
            ),
            random: false,
            explore: ExploreConfig::default(),
            replay: None,
        }
    }
}

impl AsMut<CheckerFlags> for CheckOpts {
    fn as_mut(&mut self) -> &mut CheckerFlags {
        &mut self.checker
    }
}

/// `check`'s flags: the checker block, then its own.
pub fn flags() -> Vec<Flag<CheckOpts>> {
    let own: [Flag<CheckOpts>; 5] = [
        Flag::text("--mode", "dfs|random", |o, v| {
            o.random = match v {
                "dfs" => false,
                "random" => true,
                other => return Err(format!("--mode takes dfs or random, got {other:?}")),
            };
            Ok(())
        }),
        Flag::int("--depth", ANY, |o, v| {
            if let ExploreMode::Dfs { depth, .. } = &mut o.explore.mode {
                *depth = v;
            }
        }),
        Flag::int("--preemptions", COUNT, |o, v| {
            if let ExploreMode::Dfs {
                preemption_bound, ..
            } = &mut o.explore.mode
            {
                *preemption_bound = v as usize;
            }
        }),
        Flag::int("--schedules", POSITIVE, |o, v| o.explore.max_schedules = v),
        Flag::text("--replay", "TOKEN", |o, v| {
            let token = v.parse().map_err(|e| format!("bad replay token: {e}"))?;
            o.replay = Some(token);
            Ok(())
        }),
    ];
    checker_flags().into_iter().chain(own).collect()
}

/// Reads `check`'s arguments into the replay or exploration they ask for.
pub(crate) fn parse(args: &[String]) -> Result<Command, String> {
    let mut opts: CheckOpts = parse_flags(&flags(), args)?;
    if let Some(token) = opts.replay {
        return Ok(Command::Replay(token));
    }
    if opts.random {
        if opts.checker.percent == 0 {
            return Err(
                "--percent must be at least 1 with --mode random: at 0 no decision deviates, \
                 so every schedule would be the same one"
                    .to_string(),
            );
        }
        opts.explore.mode = ExploreMode::Random {
            percent: opts.checker.percent,
        };
    }
    Ok(Command::Check {
        configs: opts.checker.configs()?,
        explore: opts.explore,
    })
}

/// Runs the one schedule of `token` and reports what the oracles saw.
pub fn run_replay(token: &ReplayToken) -> ExitCode {
    let outcome = replay(token);
    out!(
        "replay {token}: {} decisions, {} scans ({} consistency restarts)\n",
        outcome.decisions,
        outcome.scans,
        outcome.scan_retries
    );
    if outcome.violations.is_empty() {
        out!("replay: no violations\n");
        ExitCode::SUCCESS
    } else {
        for v in &outcome.violations {
            out!("violation: {v}\n");
        }
        ExitCode::FAILURE
    }
}

/// Explores every config and reports each verdict.
pub fn explore(configs: &[CheckConfig], explore: &ExploreConfig) -> ExitCode {
    let mut metrics = MetricsRegistry::new();
    let mut failed = false;
    for config in configs {
        let (structure, scheme) = (config.structure, config.scheme);
        let report = check(config, explore);
        metrics.add("check.schedules", report.schedules_run);
        metrics.add("check.decisions", report.total_decisions);
        match &report.failure {
            None => {
                out!(
                    "check {structure}/{scheme}: {} schedules, {} decisions: pass\n",
                    report.schedules_run,
                    report.total_decisions
                );
            }
            Some(f) => {
                failed = true;
                metrics.add("check.failures", 1);
                out!(
                    "check {structure}/{scheme}: FAILED after {} schedules \
                     ({} deviations before shrinking)\n",
                    report.schedules_run,
                    f.original_deviations
                );
                for v in &f.violations {
                    out!("  violation: {v}\n");
                }
                out!("  replay with: st-bench check --replay {}\n", f.token);
            }
        }
    }
    out!(
        "check: {} schedules / {} decisions explored, {} failing config(s)\n",
        metrics.counter("check.schedules"),
        metrics.counter("check.decisions"),
        metrics.counter("check.failures"),
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
