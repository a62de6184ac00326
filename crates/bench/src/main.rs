//! `st-bench`: regenerates the StackTrack evaluation.
//!
//! ```text
//! st-bench <subcommand> [--ms N] [--warmup N] [--seed N] [--scale N] [--threads N] [--out DIR]
//!                       [--schemes A,B,...] [--jobs N] [--timing-out FILE]
//!
//! Subcommands:
//!   fig1-list fig1-skiplist fig2-queue fig2-hash
//!   fig3-fig4 (aliases fig3-aborts, fig4-splits) fig5-slowpath scan-overhead
//!   ablation-predictor ablation-regfile ablation-scanmode ablation-refcount
//!   ablation-dta-k extra-rbtree robustness all
//!   check-metrics FILE...
//!   check-timing FILE...
//!   check [--structures a,b] [--mode dfs|random] [--mutate M] [--replay TOKEN] ...
//!   audit [--structures a,b] [--schemes A,B] [--budget-ms N] [--faults on|off] ...
//! ```
//!
//! The figure subcommands are the entries of `st_bench::figures::FIGURES`;
//! `all` runs every one of them in that order. Every figure prints its
//! table(s) and writes JSON + markdown under `--out` (default `results/`),
//! plus a versioned full-metrics snapshot (`<name>.metrics.json`, schema in
//! docs/METRICS.md). `--schemes` picks the columns of `robustness` (and of
//! `all`'s robustness run); the other figures refuse it. `check-metrics`
//! validates existing snapshot files against the current schema;
//! `check-timing` does the same for `--timing-out` reports.
//! `--jobs N` fans the sweep across N worker threads without changing any
//! artifact byte (docs/PERF.md); `--timing-out FILE` writes a host
//! wall-clock report per configuration. See EXPERIMENTS.md for the
//! mapping to the paper's figures.

#![forbid(unsafe_code)]

use st_bench::figures::{self, BenchOpts, Figure, FIGURES};
use st_bench::{auditcmd, checkcmd, report, sweep};
use st_reclaim::Scheme;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn usage() -> ExitCode {
    let commands: Vec<&str> = FIGURES.iter().flat_map(|f| f.commands).copied().collect();
    eprintln!(
        "usage: st-bench <{}|all|check|check-metrics|check-timing|audit> \
         [--ms N] [--warmup N] [--seed N] [--scale N] [--threads N] [--out DIR] \
         [--schemes A,B,... ({} only, also within all)] [--jobs N] \
         [--timing-out FILE] (see `check --help` style flags in docs/TESTING.md)",
        commands.join("|"),
        fault_experiments()
    );
    ExitCode::from(2)
}

/// The figures that take `--schemes`, for messages.
fn fault_experiments() -> String {
    let names: Vec<&str> = FIGURES
        .iter()
        .filter(|f| f.fault)
        .map(|f| f.commands[0])
        .collect();
    names.join(", ")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return usage();
    };

    if cmd == "check-metrics" {
        return check_metrics(&args[1..]);
    }
    if cmd == "check-timing" {
        return check_timing(&args[1..]);
    }
    if cmd == "check" {
        return checkcmd::run(&args[1..]);
    }
    if cmd == "audit" {
        return auditcmd::run(&args[1..]);
    }

    let mut opts = BenchOpts::default();
    let mut ms_set = false;
    let mut timing_out: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let Some(value) = args.get(i + 1) else {
            eprintln!("missing value for {flag}");
            return usage();
        };
        fn parse_int(flag: &str, value: &str) -> Result<u64, ExitCode> {
            value.parse().map_err(|_| {
                eprintln!("{flag} takes an integer, got {value:?}");
                usage()
            })
        }
        // A zero run length, thread count or job count would leave empty
        // or NaN tables behind; refuse it before anything is written.
        fn parse_positive(flag: &str, value: &str) -> Result<u64, ExitCode> {
            match parse_int(flag, value)? {
                0 => {
                    eprintln!("{flag} must be at least 1");
                    Err(usage())
                }
                v => Ok(v),
            }
        }
        match flag {
            "--ms" => match parse_positive(flag, value) {
                Ok(v) => {
                    opts.duration_ms = v;
                    ms_set = true;
                }
                Err(code) => return code,
            },
            "--seed" => match parse_int(flag, value) {
                Ok(v) => opts.seed = v,
                Err(code) => return code,
            },
            "--scale" => match parse_int(flag, value) {
                Ok(v) => opts.scale = v,
                Err(code) => return code,
            },
            "--threads" => match parse_positive(flag, value) {
                Ok(v) => opts.max_threads = v as usize,
                Err(code) => return code,
            },
            "--warmup" => match parse_int(flag, value) {
                Ok(v) => opts.warmup_ms = v,
                Err(code) => return code,
            },
            "--jobs" => match parse_positive(flag, value) {
                Ok(v) => opts.jobs = v as usize,
                Err(code) => return code,
            },
            "--out" => opts.out = PathBuf::from(value),
            "--timing-out" => timing_out = Some(PathBuf::from(value)),
            "--schemes" => {
                let parsed: Result<Vec<Scheme>, String> =
                    value.split(',').map(|s| s.trim().parse()).collect();
                match parsed {
                    Ok(v) => opts.schemes = Some(v),
                    Err(e) => {
                        eprintln!("{e}");
                        return usage();
                    }
                }
            }
            other => {
                eprintln!("unknown flag {other}");
                return usage();
            }
        }
        i += 2;
    }

    let to_run: Vec<&Figure> = match (cmd.as_str(), figures::find(&cmd)) {
        ("all", _) => FIGURES.iter().collect(),
        (_, Some(figure)) if figure.fault => {
            if !ms_set {
                opts.duration_ms = figures::FAULT_RUN_MS;
            }
            vec![figure]
        }
        (_, Some(_)) if opts.schemes.is_some() => {
            eprintln!("--schemes applies only to {}", fault_experiments());
            return usage();
        }
        (_, Some(figure)) => vec![figure],
        (_, None) => return usage(),
    };

    let sink = timing_out
        .as_ref()
        .map(|_| Arc::new(sweep::TimingSink::new()));
    opts.timing = sink.clone();
    let started = Instant::now();

    for figure in to_run {
        if cmd == "all" {
            eprintln!("{}", figure.commands[0]);
        }
        if let Err(e) = figure.run(&opts) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }

    if let (Some(path), Some(sink)) = (timing_out, sink) {
        let total_ms = started.elapsed().as_secs_f64() * 1e3;
        let doc = sweep::timing_report(&cmd, opts.jobs, total_ms, &sink.rows());
        if let Err(e) = std::fs::write(&path, format!("{}\n", doc.to_pretty_string())) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "timing report: {} ({} configs, {:.0} ms total, {} jobs)",
            path.display(),
            sink.rows().len(),
            total_ms,
            opts.jobs
        );
    }
    ExitCode::SUCCESS
}

/// Validates `--timing-out` reports (the `BENCH_sweep.json` schema,
/// docs/PERF.md) so perf-trajectory records cannot silently drift.
fn check_timing(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("usage: st-bench check-timing FILE...");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        let doc = match st_obs::Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{path}: invalid JSON: {e}");
                failed = true;
                continue;
            }
        };
        match sweep::validate_timing_report(&doc) {
            Ok(n) => {
                let jobs = doc.get("jobs").and_then(st_obs::Json::as_u64).unwrap_or(0);
                let cores = doc
                    .get("host_cores")
                    .and_then(st_obs::Json::as_u64)
                    .unwrap_or(0);
                let total = doc
                    .get("total_host_ms")
                    .and_then(st_obs::Json::as_f64)
                    .unwrap_or(0.0);
                println!(
                    "{path}: {n} configs, jobs {jobs}, host_cores {cores}, \
                     total_host_ms {total:.1}"
                );
            }
            Err(e) => {
                eprintln!("{path}: invalid timing report: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Validates `*.metrics.json` snapshot files against the current schema and
/// prints a one-line summary per run.
fn check_metrics(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("usage: st-bench check-metrics FILE...");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        match report::parse_metrics_snapshot(&text) {
            Ok(runs) => {
                for run in &runs {
                    println!(
                        "{path}: {}/{} x{}: {} metrics, {} aborts attributed, \
                         {} per-thread rows",
                        run.scheme,
                        run.structure,
                        run.threads,
                        run.metrics.len(),
                        st_obs::AbortCause::ALL
                            .iter()
                            .map(|c| run.metrics.counter(&format!("st.aborts.{c}")))
                            .sum::<u64>(),
                        run.per_thread.len(),
                    );
                }
                if let Err(e) = report::validate_per_thread(&runs) {
                    eprintln!("{path}: invalid per_thread envelope: {e}");
                    failed = true;
                }
                match report::validate_garbage_series(&runs) {
                    Ok(0) => {}
                    Ok(n) => println!("{path}: garbage_ts series consistent ({n} samples/run)"),
                    Err(e) => {
                        eprintln!("{path}: invalid garbage_ts series: {e}");
                        failed = true;
                    }
                }
                match report::validate_audit(&runs) {
                    Ok(0) => {}
                    Ok(n) => println!("{path}: audit section consistent ({n} runs)"),
                    Err(e) => {
                        eprintln!("{path}: invalid audit section: {e}");
                        failed = true;
                    }
                }
                match report::validate_scheme_counters(&runs) {
                    Ok(0) => {}
                    Ok(n) => println!("{path}: scheme counter families consistent ({n} runs)"),
                    Err(e) => {
                        eprintln!("{path}: invalid scheme counters: {e}");
                        failed = true;
                    }
                }
            }
            Err(e) => {
                eprintln!("{path}: invalid snapshot: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
