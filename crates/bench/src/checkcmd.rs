//! `st-bench check`: the bounded schedule explorer (st-check) from the
//! command line.
//!
//! ```text
//! st-bench check [--structures a,b] [--schemes A,B] [--mode dfs|random]
//!                [--depth N] [--preemptions N] [--percent N] [--schedules N]
//!                [--threads N] [--ops N] [--keys N] [--seed N]
//!                [--mutate none|splits|hazard|skipfree|dretire|nbrskip|hyadrop]
//!                [--replay TOKEN]
//! ```
//!
//! With `--replay`, runs exactly one schedule from a token printed by an
//! earlier failing exploration and reports what the oracles saw. Without
//! it, explores every requested structure × scheme pair and exits
//! non-zero if any schedule violates an oracle.

use st_check::{check, replay, CheckConfig, ExploreConfig, ExploreMode, Mutation, ReplayToken};
use st_obs::MetricsRegistry;
use st_reclaim::Scheme;
use st_structures::StructureKind;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: st-bench check [--structures list,hash,queue,skiplist,rbtree] \
         [--schemes StackTrack,Epoch] [--mode dfs|random] [--depth N] \
         [--preemptions N] [--percent N] [--schedules N] [--threads N] \
         [--ops N] [--keys N] [--seed N] \
         [--mutate none|splits|hazard|skipfree|dretire|nbrskip|hyadrop] \
         [--replay TOKEN]"
    );
    ExitCode::from(2)
}

struct CheckOpts {
    structures: Vec<StructureKind>,
    schemes: Vec<Scheme>,
    dfs: bool,
    depth: u64,
    preemptions: usize,
    percent: u32,
    schedules: u64,
    threads: usize,
    ops: usize,
    keys: u64,
    seed: u64,
    mutation: Mutation,
    replay_token: Option<String>,
}

impl Default for CheckOpts {
    fn default() -> Self {
        let base = CheckConfig::default();
        CheckOpts {
            structures: vec![
                StructureKind::List,
                StructureKind::Hash,
                StructureKind::Queue,
                StructureKind::SkipList,
                StructureKind::RbTree,
            ],
            schemes: vec![Scheme::StackTrack, Scheme::Epoch],
            dfs: true,
            depth: 12,
            preemptions: 2,
            percent: 25,
            schedules: 300,
            threads: base.threads,
            ops: base.ops_per_thread,
            keys: base.key_range,
            seed: base.seed,
            mutation: Mutation::None,
            replay_token: None,
        }
    }
}

/// Entry point for `st-bench check`.
pub fn run(args: &[String]) -> ExitCode {
    let mut opts = CheckOpts::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let Some(value) = args.get(i + 1) else {
            eprintln!("missing value for {flag}");
            return usage();
        };
        let int = |what: &str| -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{what} takes an integer, got {value:?}"))
        };
        let result: Result<(), String> = match flag {
            "--structures" => value
                .split(',')
                .map(|s| s.trim().parse())
                .collect::<Result<Vec<StructureKind>, _>>()
                .map(|v| opts.structures = v),
            "--schemes" => value
                .split(',')
                .map(|s| s.trim().parse())
                .collect::<Result<Vec<Scheme>, _>>()
                .map(|v| opts.schemes = v),
            "--mode" => match value.as_str() {
                "dfs" => {
                    opts.dfs = true;
                    Ok(())
                }
                "random" => {
                    opts.dfs = false;
                    Ok(())
                }
                other => Err(format!("--mode takes dfs or random, got {other:?}")),
            },
            "--depth" => int(flag).map(|v| opts.depth = v),
            "--preemptions" => int(flag).map(|v| opts.preemptions = v as usize),
            "--percent" => int(flag).map(|v| opts.percent = v as u32),
            "--schedules" => int(flag).map(|v| opts.schedules = v),
            "--threads" => int(flag).map(|v| opts.threads = v as usize),
            "--ops" => int(flag).map(|v| opts.ops = v as usize),
            "--keys" => int(flag).map(|v| opts.keys = v),
            "--seed" => int(flag).map(|v| opts.seed = v),
            "--mutate" => value.parse().map(|m| opts.mutation = m),
            "--replay" => {
                opts.replay_token = Some(value.clone());
                Ok(())
            }
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(e) = result {
            eprintln!("{e}");
            return usage();
        }
        i += 2;
    }

    if let Some(token) = opts.replay_token {
        return run_replay(&token);
    }
    match configs(&opts) {
        Ok(configs) => explore(&opts, &configs),
        Err(e) => {
            eprintln!("{e}");
            usage()
        }
    }
}

/// One config per requested structure × scheme pair, each validated.
fn configs(opts: &CheckOpts) -> Result<Vec<CheckConfig>, String> {
    let mut configs = Vec::new();
    for &structure in &opts.structures {
        for &scheme in &opts.schemes {
            let config = CheckConfig {
                structure,
                scheme,
                threads: opts.threads,
                ops_per_thread: opts.ops,
                key_range: opts.keys,
                seed: opts.seed,
                mutation: opts.mutation,
                ..CheckConfig::default()
            };
            config.validate()?;
            configs.push(config);
        }
    }
    Ok(configs)
}

fn run_replay(token: &str) -> ExitCode {
    let token: ReplayToken = match token.parse() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bad replay token: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = replay(&token);
    println!(
        "replay {token}: {} decisions, {} scans ({} consistency restarts)",
        outcome.decisions, outcome.scans, outcome.scan_retries
    );
    if outcome.violations.is_empty() {
        println!("replay: no violations");
        ExitCode::SUCCESS
    } else {
        for v in &outcome.violations {
            println!("violation: {v}");
        }
        ExitCode::FAILURE
    }
}

fn explore(opts: &CheckOpts, configs: &[CheckConfig]) -> ExitCode {
    let explore = ExploreConfig {
        mode: if opts.dfs {
            ExploreMode::Dfs {
                depth: opts.depth,
                preemption_bound: opts.preemptions,
            }
        } else {
            ExploreMode::Random {
                percent: opts.percent,
            }
        },
        max_schedules: opts.schedules,
    };
    let mut metrics = MetricsRegistry::new();
    let mut failed = false;
    for config in configs {
        let (structure, scheme) = (config.structure, config.scheme);
        let report = check(config, &explore);
        metrics.add("check.schedules", report.schedules_run);
        metrics.add("check.decisions", report.total_decisions);
        match &report.failure {
            None => {
                println!(
                    "check {structure}/{scheme}: {} schedules, {} decisions: pass",
                    report.schedules_run, report.total_decisions
                );
            }
            Some(f) => {
                failed = true;
                metrics.add("check.failures", 1);
                println!(
                    "check {structure}/{scheme}: FAILED after {} schedules \
                     ({} deviations before shrinking)",
                    report.schedules_run, f.original_deviations
                );
                for v in &f.violations {
                    println!("  violation: {v}");
                }
                println!("  replay with: st-bench check --replay {}", f.token);
            }
        }
    }
    println!(
        "check: {} schedules / {} decisions explored, {} failing config(s)",
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
