//! `st-bench audit`: the heap-ledger audit oracle + differential soak
//! harness (see `docs/AUDIT.md`).
//!
//! ```text
//! st-bench audit [--structures list,hash] [--schemes A,B,...]
//!                [--budget-ms N] [--episodes N] [--threads N] [--ops N]
//!                [--keys N] [--seed N] [--faults on|off] [--percent N]
//!                [--mutate M] [--out DIR]
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
//! The soak writes `audit.metrics.json` (schema v2): one run per
//! combination, with the `audit.*` counters named in [`st_obs::audit`]
//! and a `per_thread` envelope whose ops rows sum to `run.total_ops`.

use crate::experiment::PerThread;
use st_check::{
    run_schedule, shrink_failure, CheckConfig, Mutation, RecordingController, ReplayToken,
    Violation,
};
use st_machine::{FaultPlan, Pcg32};
use st_obs::{audit, Json, MetricsRegistry, SCHEMA_VERSION};
use st_reclaim::Scheme;
use st_structures::StructureKind;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Soak parameters (CLI flags of `st-bench audit`).
#[derive(Debug, Clone)]
pub struct AuditOpts {
    /// Structures to soak (default: list and hash, the two whose node
    /// turnover is highest per step).
    pub structures: Vec<StructureKind>,
    /// Schemes to soak (default: all six, including the reclaim-none
    /// reference).
    pub schemes: Vec<Scheme>,
    /// Wall-clock soak budget in milliseconds. Every combination gets at
    /// least one episode even when the budget is already spent.
    pub budget_ms: u64,
    /// Hard cap on episodes per combination (keeps artifacts bounded and
    /// runs reproducible when the budget is generous).
    pub max_episodes: u64,
    /// Simulated threads per episode.
    pub threads: usize,
    /// Scripted operations per thread per episode.
    pub ops: usize,
    /// Keys drawn from `1..=keys` (small, to force conflicts).
    pub keys: u64,
    /// Base seed; episode `e` soaks seed `base + e * PHI`.
    pub seed: u64,
    /// Inject a seed-derived stall + preemption-storm plan per episode.
    pub faults: bool,
    /// Per-decision deviation probability of the randomized scheduler.
    pub percent: u32,
    /// Protocol mutation (teeth checks; `none` for real audits).
    pub mutation: Mutation,
    /// Output directory for `audit.metrics.json`.
    pub out: PathBuf,
}

impl Default for AuditOpts {
    fn default() -> Self {
        let base = CheckConfig::default();
        AuditOpts {
            structures: vec![StructureKind::List, StructureKind::Hash],
            schemes: Scheme::all().to_vec(),
            budget_ms: 3_000,
            max_episodes: 40,
            threads: base.threads,
            ops: base.ops_per_thread,
            keys: base.key_range,
            seed: base.seed,
            faults: false,
            percent: 25,
            mutation: Mutation::None,
            out: PathBuf::from("results"),
        }
    }
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
    pub per_thread_ops: Vec<u64>,
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
    fn new(structure: StructureKind, scheme: Scheme, threads: usize) -> Self {
        Self {
            structure,
            scheme,
            episodes: 0,
            ops: 0,
            per_thread_ops: vec![0; threads],
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
}

/// Maps a finding to its `audit.violations.*` counter index.
fn classify(v: &Violation) -> usize {
    let key = match v {
        Violation::Uaf(_) => audit::V_UAF,
        Violation::NonLinearizable(_) => audit::V_DIFFERENTIAL,
        Violation::Panic(_) => audit::V_PANIC,
        Violation::Ledger(m) if m.starts_with("double-retire") => audit::V_DOUBLE_RETIRE,
        Violation::Ledger(m) if m.starts_with("double-free") => audit::V_DOUBLE_FREE,
        Violation::Ledger(m) if m.starts_with("free-before-retire") => audit::V_FREE_BEFORE_RETIRE,
        Violation::Ledger(_) => audit::V_LEAK,
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

/// The config of one episode of `structure` under `scheme`.
fn episode_config(
    opts: &AuditOpts,
    structure: StructureKind,
    scheme: Scheme,
    seed: u64,
) -> CheckConfig {
    CheckConfig {
        structure,
        scheme,
        threads: opts.threads,
        ops_per_thread: opts.ops,
        key_range: opts.keys,
        seed,
        mutation: opts.mutation,
        faults: if opts.faults {
            fault_plan(seed, opts.threads)
        } else {
            FaultPlan::default()
        },
        ..CheckConfig::default()
    }
}

/// Runs the soak and returns one summary per combination.
pub fn soak(opts: &AuditOpts) -> Vec<ComboSummary> {
    let started = Instant::now();
    let mut combos: Vec<ComboSummary> = opts
        .structures
        .iter()
        .flat_map(|&structure| {
            opts.schemes
                .iter()
                .map(move |&scheme| ComboSummary::new(structure, scheme, opts.threads))
        })
        .collect();
    'soak: for e in 0..opts.max_episodes {
        for combo in combos.iter_mut() {
            // Episode 0 always runs so every combination has coverage.
            if e > 0 && started.elapsed().as_millis() as u64 >= opts.budget_ms {
                break 'soak;
            }
            if combo.failure.is_some() {
                continue;
            }
            let seed = opts.seed.wrapping_add(e.wrapping_mul(0x9e37_79b9));
            let config = episode_config(opts, combo.structure, combo.scheme, seed);
            let ctrl = Arc::new(RecordingController::random(
                seed ^ 0x51ed_c0de,
                opts.percent,
            ));
            let outcome = run_schedule(&config, ctrl);
            combo.episodes += 1;
            combo.ops += outcome.completed_ops;
            for (t, &n) in outcome.per_thread_ops.iter().enumerate() {
                combo.per_thread_ops[t] += n;
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
    let mut doc = Json::obj();
    doc.set("schema_version", SCHEMA_VERSION);
    doc.set("name", name);
    let runs: Vec<Json> = combos
        .iter()
        .map(|c| {
            let mut metrics = MetricsRegistry::new();
            metrics.add("run.total_ops", c.ops);
            metrics.add(audit::EPISODES, c.episodes);
            metrics.add(audit::RETIRES, c.retires);
            metrics.add(audit::FREES, c.frees);
            metrics.add(audit::VIOLATIONS, c.violations());
            for (key, &count) in audit::VIOLATION_COUNTERS.iter().zip(&c.violation_counts) {
                metrics.add(key, count);
            }
            let rows: Vec<Json> = c
                .per_thread_ops
                .iter()
                .enumerate()
                .map(|(thread, &ops)| {
                    PerThread {
                        thread,
                        ops,
                        busy_cycles: 0,
                        garbage: 0,
                    }
                    .to_json()
                })
                .collect();
            let mut run = Json::obj();
            run.set("scheme", c.scheme.name());
            run.set("structure", c.structure.to_string());
            run.set("threads", c.per_thread_ops.len());
            run.set("duration_ms", budget_ms);
            run.set("per_thread", Json::Arr(rows));
            run.set("metrics", metrics.to_json());
            run
        })
        .collect();
    doc.set("runs", Json::Arr(runs));
    doc
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: st-bench audit [--structures list,hash,queue,skiplist,rbtree] \
         [--schemes None,Hazards,Epoch,StackTrack,DTA,RefCount,NBR,Hyaline] [--budget-ms N] \
         [--episodes N] [--threads N] [--ops N] [--keys N] [--seed N] \
         [--faults on|off] [--percent N] \
         [--mutate none|splits|hazard|skipfree|dretire|nbrskip|hyadrop] [--out DIR]"
    );
    ExitCode::from(2)
}

/// Entry point for `st-bench audit`.
pub fn run(args: &[String]) -> ExitCode {
    let mut opts = AuditOpts::default();
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
            "--budget-ms" => int(flag).map(|v| opts.budget_ms = v),
            "--episodes" => int(flag).map(|v| opts.max_episodes = v.max(1)),
            "--threads" => int(flag).map(|v| opts.threads = v as usize),
            "--ops" => int(flag).map(|v| opts.ops = v as usize),
            "--keys" => int(flag).map(|v| opts.keys = v),
            "--seed" => int(flag).map(|v| opts.seed = v),
            "--percent" => int(flag).map(|v| opts.percent = v as u32),
            "--faults" => match value.as_str() {
                "on" => {
                    opts.faults = true;
                    Ok(())
                }
                "off" => {
                    opts.faults = false;
                    Ok(())
                }
                other => Err(format!("--faults takes on or off, got {other:?}")),
            },
            "--mutate" => value.parse().map(|m| opts.mutation = m),
            "--out" => {
                opts.out = PathBuf::from(value);
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
    for &structure in &opts.structures {
        for &scheme in &opts.schemes {
            if let Err(e) = episode_config(&opts, structure, scheme, opts.seed).validate() {
                eprintln!("{e}");
                return usage();
            }
        }
    }

    let combos = soak(&opts);
    let mut failed = false;
    for c in &combos {
        match &c.failure {
            None => {
                println!(
                    "audit {}/{}: {} episodes, {} ops, {} retires / {} frees: clean",
                    c.structure, c.scheme, c.episodes, c.ops, c.retires, c.frees
                );
            }
            Some((violations, token)) => {
                failed = true;
                println!(
                    "audit {}/{}: FAILED on episode {} ({} finding(s))",
                    c.structure,
                    c.scheme,
                    c.episodes,
                    violations.len()
                );
                for v in violations {
                    println!("  violation: {v}");
                }
                println!("  replay with: st-bench check --replay {token}");
            }
        }
    }
    let doc = audit_snapshot("audit", opts.budget_ms, &combos);
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("{}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }
    let path = opts.out.join("audit.metrics.json");
    if let Err(e) = std::fs::write(&path, doc.to_pretty_string() + "\n") {
        eprintln!("{}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "audit: {} combination(s), {} episode(s), snapshot {}",
        combos.len(),
        combos.iter().map(|c| c.episodes).sum::<u64>(),
        path.display()
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
