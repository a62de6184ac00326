//! `st-bench`: regenerates the StackTrack evaluation.
//!
//! ```text
//! st-bench <figure|all> [--ms N] [--warmup N] [--seed N] [--scale N] [--threads N]
//!                       [--out DIR] [--schemes A,B,...] [--jobs N] [--timing-out FILE]
//! st-bench check [--structures list,hash,queue,skiplist,rbtree] [--schemes A,B,...]
//!                [--threads N] [--ops N] [--keys N] [--seed N] [--percent N]
//!                [--mutate none|splits|hazard|skipfree|dretire|nbrskip|hyadrop]
//!                [--mode dfs|random] [--depth N] [--preemptions N] [--schedules N]
//!                [--replay TOKEN]
//! st-bench audit [--structures list,hash,queue,skiplist,rbtree] [--schemes A,B,...]
//!                [--threads N] [--ops N] [--keys N] [--seed N] [--percent N]
//!                [--mutate none|splits|hazard|skipfree|dretire|nbrskip|hyadrop]
//!                [--budget-ms N] [--episodes N] [--faults on|off] [--out DIR]
//! st-bench check-metrics FILE...
//! st-bench check-timing FILE...
//! st-bench refresh-experiments
//!
//! Figures:
//!   fig1-list fig1-skiplist fig2-queue fig2-hash
//!   fig3-fig4 (aliases fig3-aborts, fig4-splits) fig5-slowpath scan-overhead
//!   ablation-predictor ablation-regfile ablation-scanmode ablation-refcount
//!   ablation-dta-k extra-rbtree robustness
//! ```
//!
//! The figure subcommands are the entries of `st_bench::figures::FIGURES`;
//! `all` runs every one of them in that order. Every figure prints its
//! table(s) and writes JSON + markdown under `--out` (default `results/`),
//! plus a versioned full-metrics snapshot (`<name>.metrics.json`, schema in
//! docs/METRICS.md). `--schemes` picks the columns of `robustness` (and of
//! `all`'s robustness run); the other figures refuse it. `check-metrics`
//! validates existing snapshot files against the current schema;
//! `check-timing` does the same for `--timing-out` reports. `audit`
//! writes its snapshot only under an explicit `--out`.
//! `refresh-experiments` rewrites the measured tables of the working
//! directory's EXPERIMENTS.md from its `results/`
//! (`st_bench::experiments`), or exits 1 naming the file or table it
//! could not use and writes nothing.
//! `--jobs N` fans the sweep across N worker threads without changing any
//! artifact byte (docs/PERF.md); `--timing-out FILE` writes a host
//! wall-clock report per configuration. See EXPERIMENTS.md for the
//! mapping to the paper's figures. `st_bench::cli` reads every flag; a
//! bad one prints its message and the subcommand's usage line and exits 2.

#![forbid(unsafe_code)]

use st_bench::cli::{self, Command};
use st_bench::figures::{BenchOpts, Figure};
use st_bench::{auditcmd, checkcmd, err, experiments, out, report, sweep};
use st_obs::Json;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Result<Vec<String>, OsString> = std::env::args_os()
        .skip(1)
        .map(OsString::into_string)
        .collect();
    let parsed = match args {
        Ok(args) => cli::parse(&args),
        Err(arg) => Err(format!("argument {arg:?} is not UTF-8\n{}", cli::usage())),
    };
    match parsed {
        Ok(Command::Figures {
            command,
            figures,
            opts,
            timing_out,
        }) => run_figures(&command, &figures, opts, timing_out),
        Ok(Command::Check { configs, explore }) => checkcmd::explore(&configs, &explore),
        Ok(Command::Replay(token)) => checkcmd::run_replay(&token),
        Ok(Command::Audit(opts)) => auditcmd::run(&opts),
        Ok(Command::CheckMetrics(paths)) => check_files(&paths, snapshot_lines),
        Ok(Command::CheckTiming(paths)) => check_files(&paths, timing_lines),
        Ok(Command::RefreshExperiments) => refresh_experiments(),
        Err(usage) => {
            err!("{usage}\n");
            ExitCode::from(2)
        }
    }
}

fn run_figures(
    command: &str,
    figures: &[&Figure],
    mut opts: BenchOpts,
    timing_out: Option<PathBuf>,
) -> ExitCode {
    let sink = timing_out
        .as_ref()
        .map(|_| Arc::new(sweep::TimingSink::new()));
    opts.timing = sink.clone();
    let started = Instant::now();

    for figure in figures {
        if command == "all" {
            err!("{}\n", figure.commands[0]);
        }
        if let Err(e) = figure.run(&opts) {
            err!("{e}\n");
            return ExitCode::FAILURE;
        }
    }

    if let (Some(path), Some(sink)) = (timing_out, sink) {
        let total_ms = started.elapsed().as_secs_f64() * 1e3;
        let doc = sweep::timing_report(command, opts.jobs, total_ms, &sink.rows());
        if let Err(e) = std::fs::write(&path, format!("{}\n", doc.to_pretty_string())) {
            err!("{}: {e}\n", path.display());
            return ExitCode::FAILURE;
        }
        err!(
            "timing report: {} ({} configs, {:.0} ms total, {} jobs)\n",
            path.display(),
            sink.rows().len(),
            total_ms,
            opts.jobs
        );
    }
    ExitCode::SUCCESS
}

/// `refresh-experiments`: EXPERIMENTS.md refreshed, or left alone on an error.
fn refresh_experiments() -> ExitCode {
    let path = Path::new("EXPERIMENTS.md");
    let named = |e: std::io::Error| format!("{}: {e}", path.display());
    let doc = std::fs::read_to_string(path).map_err(named);
    let refreshed = doc.and_then(|doc| experiments::refresh(&doc, Path::new("results")));
    match refreshed.and_then(|doc| std::fs::write(path, doc).map_err(named)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            err!("{e}\n");
            ExitCode::FAILURE
        }
    }
}

/// Reads each file and checks its text with `check`, which returns the
/// lines to report in order: `Ok` for stdout, `Err` for a finding on
/// stderr. Exits 1 if a file could not be read or has a finding.
fn check_files(paths: &[String], check: fn(&str) -> Vec<Result<String, String>>) -> ExitCode {
    let mut failed = false;
    for path in paths {
        let lines = match std::fs::read_to_string(path) {
            Ok(text) => check(&text),
            Err(e) => vec![Err(e.to_string())],
        };
        for line in lines {
            match line {
                Ok(line) => out!("{path}: {line}\n"),
                Err(e) => {
                    err!("{path}: {e}\n");
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `check-metrics`: a line per run, then the snapshot validators' lines.
fn snapshot_lines(text: &str) -> Vec<Result<String, String>> {
    let runs = match report::parse_metrics_snapshot(text) {
        Ok(runs) => runs,
        Err(e) => return vec![Err(format!("invalid snapshot: {e}"))],
    };
    let summaries = runs.iter().map(|run| {
        let aborts = st_obs::AbortCause::ALL
            .iter()
            .try_fold(0u64, |sum, c| {
                sum.checked_add(run.metrics.counter(&format!("st.aborts.{c}")))
            })
            .ok_or_else(|| {
                format!(
                    "{}/{} x{}: st.aborts.* counters sum past u64",
                    run.scheme, run.structure, run.threads
                )
            })?;
        Ok(format!(
            "{}/{} x{}: {} metrics, {aborts} aborts attributed, {} per-thread rows",
            run.scheme,
            run.structure,
            run.threads,
            run.metrics.len(),
            run.per_thread.len(),
        ))
    });
    summaries.chain(report::validate_snapshot(&runs)).collect()
}

/// `check-timing`: the report's shape, validated (docs/PERF.md).
fn timing_lines(text: &str) -> Vec<Result<String, String>> {
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![Err(format!("invalid JSON: {e}"))],
    };
    let line = sweep::validate_timing_report(&doc).map(|n| {
        let jobs = doc.get("jobs").and_then(Json::as_u64).unwrap_or(0);
        let cores = doc.get("host_cores").and_then(Json::as_u64).unwrap_or(0);
        let total = doc
            .get("total_host_ms")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        format!("{n} configs, jobs {jobs}, host_cores {cores}, total_host_ms {total:.1}")
    });
    vec![line.map_err(|e| format!("invalid timing report: {e}"))]
}
