//! Every figure and table of the paper's evaluation (section 6), plus the
//! ablations called out in DESIGN.md, declared as data in [`FIGURES`].
//!
//! Most figures are a grid: one workload, thread counts down the rows,
//! and one column per scheme or per labelled tuning of one scheme's
//! [`RunConfig`]. Figures 3–4, the scan table and the robustness run
//! build their own configs and tables. Every figure runs the same way
//! ([`Figure::run`]): build the full list of configs in table order, hand
//! it to the parallel sweep scheduler ([`crate::sweep::run_batch`]), then
//! build, print and persist the tables from the ordered results. Config
//! construction is pure and results come back in config order, so the
//! persisted artifacts do not depend on `--jobs` (see `docs/PERF.md` for
//! the serial-equivalence guarantee).

use crate::experiment::{ms_to_cycles, RunConfig, RunResult};
use crate::report::{fmt_f, fmt_ops, naming, persist, Table};
use crate::sweep::{self, TimingSink};
use crate::workload::WorkloadSpec;
use st_machine::FaultPlan;
use st_reclaim::Scheme;
use stacktrack::{ScanMode, StConfig};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Options shared by every figure.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Virtual run length per configuration, in milliseconds.
    pub duration_ms: u64,
    /// Master seed.
    pub seed: u64,
    /// Workload shrink factor (1 = the paper's sizes).
    pub scale: u64,
    /// Output directory for JSON + markdown results.
    pub out: PathBuf,
    /// Largest thread count in sweeps.
    pub max_threads: usize,
    /// Unmeasured warm-up per configuration, in milliseconds.
    pub warmup_ms: u64,
    /// The schemes of a fault experiment (`None` = every scheme); the
    /// other figures have fixed columns.
    pub schemes: Option<Vec<Scheme>>,
    /// Sweep worker threads (`1` = serial; results are identical either
    /// way — see `docs/PERF.md`).
    pub jobs: usize,
    /// Where per-config host timings go (`--timing-out`).
    pub timing: Option<Arc<TimingSink>>,
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self {
            duration_ms: 2,
            seed: 0x57ac_c001,
            scale: 1,
            out: PathBuf::from("results"),
            max_threads: 16,
            warmup_ms: 0,
            schemes: None,
            jobs: sweep::host_cores(),
            timing: None,
        }
    }
}

impl BenchOpts {
    fn spec(&self, base: WorkloadSpec) -> WorkloadSpec {
        if self.scale > 1 {
            base.shrunk(self.scale)
        } else {
            base
        }
    }

    fn config(&self, spec: WorkloadSpec, scheme: Scheme, threads: usize) -> RunConfig {
        let mut c = RunConfig::new(spec, scheme, threads, self.duration_ms);
        c.seed = self.seed;
        c.warmup_ms = self.warmup_ms;
        c
    }
}

/// Run length of a fault experiment run on its own without `--ms`: a
/// stall is only visible against a run that dwarfs it.
pub const FAULT_RUN_MS: u64 = 250;

/// One figure or table: the subcommands that run it, where it is
/// persisted, and how its configs and tables are built.
#[derive(Debug)]
pub struct Figure {
    /// Subcommands that run it; the first is its name in `all`.
    pub commands: &'static [&'static str],
    /// File stem of its artifacts under `--out`, and its sweep label.
    pub stem: &'static str,
    /// A fault experiment: its columns are the `--schemes` set, and run on
    /// its own without `--ms` it runs [`FAULT_RUN_MS`].
    pub fault: bool,
    /// How its configs and tables are built.
    build: Build,
}

/// How a figure's configs and tables are built.
#[derive(Debug)]
enum Build {
    /// A throughput grid.
    Grid(Grid),
    /// Its own config list (in table order) and table builder.
    Custom {
        /// Builds the config list.
        configs: fn(&BenchOpts) -> Vec<RunConfig>,
        /// Builds the tables from the results, in config order.
        tables: fn(&BenchOpts, &[RunResult]) -> Vec<Table>,
    },
}

/// One workload over a thread axis (rows) and a set of columns, configs
/// in row-major order.
#[derive(Debug)]
struct Grid {
    /// Table title.
    title: &'static str,
    /// The workload at the paper's size (shrunk by `--scale`).
    spec: fn() -> WorkloadSpec,
    /// Thread counts, one row each.
    threads: Threads,
    /// The columns after `threads`.
    columns: Columns,
    /// What each cell shows.
    cell: Cell,
}

/// A grid's thread axis.
#[derive(Debug)]
enum Threads {
    /// `1..=--threads`.
    UpTo,
    /// A fixed list, capped at `--threads`.
    Capped(&'static [usize]),
}

/// A grid's columns.
#[derive(Debug)]
enum Columns {
    /// One column per scheme, headed by its name.
    Schemes(&'static [Scheme]),
    /// One column per tuning of the scheme's default config.
    Tunings(Scheme, &'static [Tuning]),
}

/// A column label and the change it makes to a default [`RunConfig`].
type Tuning = (&'static str, fn(&mut RunConfig));

/// What a grid cell shows.
#[derive(Debug)]
enum Cell {
    /// Throughput.
    Ops,
    /// Throughput and outstanding garbage, `ops | garbage`.
    OpsGarbage,
    /// Throughput as a percentage of the row's first column.
    PercentOfFirst,
}

/// The schemes of Figures 1b–2b and the rbtree extra.
const COMPARED: &[Scheme] = &[
    Scheme::None,
    Scheme::Hazard,
    Scheme::Epoch,
    Scheme::StackTrack,
    Scheme::Nbr,
    Scheme::Hyaline,
];

/// Every figure, in the order `all` runs them.
pub static FIGURES: &[Figure] = &[
    Figure {
        commands: &["fig1-list"],
        stem: "fig1_list",
        fault: false,
        build: Build::Grid(Grid {
            title: "Figure 1a — List: 5K nodes, 20% mutations (ops/s vs threads)",
            spec: WorkloadSpec::paper_list,
            threads: Threads::UpTo,
            columns: Columns::Schemes(&[
                Scheme::None,
                Scheme::Hazard,
                Scheme::Epoch,
                Scheme::StackTrack,
                Scheme::Dta,
                Scheme::Nbr,
                Scheme::Hyaline,
            ]),
            cell: Cell::Ops,
        }),
    },
    Figure {
        commands: &["fig1-skiplist"],
        stem: "fig1_skiplist",
        fault: false,
        build: Build::Grid(Grid {
            title: "Figure 1b — SkipList: 100K nodes, 20% mutations (ops/s vs threads)",
            spec: WorkloadSpec::paper_skiplist,
            threads: Threads::UpTo,
            columns: Columns::Schemes(COMPARED),
            cell: Cell::Ops,
        }),
    },
    Figure {
        commands: &["fig2-queue"],
        stem: "fig2_queue",
        fault: false,
        build: Build::Grid(Grid {
            title: "Figure 2a — Queue: 20% mutations (ops/s vs threads)",
            spec: WorkloadSpec::paper_queue,
            threads: Threads::UpTo,
            columns: Columns::Schemes(COMPARED),
            cell: Cell::Ops,
        }),
    },
    Figure {
        commands: &["fig2-hash"],
        stem: "fig2_hash",
        fault: false,
        build: Build::Grid(Grid {
            title: "Figure 2b — Hash: 10K nodes, 20% mutations (ops/s vs threads)",
            spec: WorkloadSpec::paper_hash,
            threads: Threads::UpTo,
            columns: Columns::Schemes(COMPARED),
            cell: Cell::Ops,
        }),
    },
    // StackTrack's HTM behaviour on the list: abort taxonomy per segment,
    // splits per operation, split lengths.
    Figure {
        commands: &["fig3-fig4", "fig3-aborts", "fig4-splits"],
        stem: "fig3_fig4",
        fault: false,
        build: Build::Custom {
            configs: fig3_fig4_configs,
            tables: fig3_fig4_tables,
        },
    },
    Figure {
        commands: &["fig5-slowpath"],
        stem: "fig5_slowpath",
        fault: false,
        build: Build::Grid(Grid {
            title: "Figure 5 — SkipList: forced slow-path fraction (relative throughput, Slow-0 = 100%)",
            spec: WorkloadSpec::paper_skiplist,
            threads: Threads::Capped(&[1, 2, 3, 4, 6, 8, 10, 12, 14]),
            columns: Columns::Tunings(
                Scheme::StackTrack,
                &[
                    ("Slow-0", |c| c.st_config.forced_slow_prob = 0.0),
                    ("Slow-10", |c| c.st_config.forced_slow_prob = 0.1),
                    ("Slow-50", |c| c.st_config.forced_slow_prob = 0.5),
                    ("Slow-100", |c| c.st_config.forced_slow_prob = 1.0),
                ],
            ),
            cell: Cell::PercentOfFirst,
        }),
    },
    // The section 6 "Scan behavior" table: scan frequency (every free vs
    // every 10 frees), inspected depth, retries, and scan penalty.
    Figure {
        commands: &["scan-overhead"],
        stem: "scan_overhead",
        fault: false,
        build: Build::Custom {
            configs: scan_overhead_configs,
            tables: scan_overhead_tables,
        },
    },
    // Ablation 2 (DESIGN.md): adaptive split predictor vs fixed lengths.
    Figure {
        commands: &["ablation-predictor"],
        stem: "ablation_predictor",
        fault: false,
        build: Build::Grid(Grid {
            title: "Ablation — split-length predictor (List, StackTrack, ops/s)",
            spec: WorkloadSpec::paper_list,
            threads: Threads::Capped(&[1, 2, 4, 8, 12, 16]),
            columns: Columns::Tunings(
                Scheme::StackTrack,
                &[
                    ("adaptive", |_| {}),
                    ("fixed-1", |c| c.st_config = fixed_split(1)),
                    ("fixed-10", |c| c.st_config = fixed_split(10)),
                    ("fixed-50", |c| c.st_config = fixed_split(50)),
                ],
            ),
            cell: Cell::Ops,
        }),
    },
    // Ablation 3 (DESIGN.md): register-file exposure on/off.
    Figure {
        commands: &["ablation-regfile"],
        stem: "ablation_regfile",
        fault: false,
        build: Build::Grid(Grid {
            title: "Ablation — register-file exposure (List, StackTrack, ops/s)",
            spec: WorkloadSpec::paper_list,
            threads: Threads::Capped(&[1, 2, 4, 8, 16]),
            columns: Columns::Tunings(
                Scheme::StackTrack,
                &[
                    ("exposed", |c| c.st_config.expose_registers = true),
                    ("suppressed", |c| c.st_config.expose_registers = false),
                ],
            ),
            cell: Cell::Ops,
        }),
    },
    // Ablation 1 (DESIGN.md): linear vs hashed vs batched `SCAN_AND_FREE`.
    Figure {
        commands: &["ablation-scanmode"],
        stem: "ablation_scanmode",
        fault: false,
        build: Build::Grid(Grid {
            title: "Ablation — scan strategy (List, StackTrack, ops/s)",
            spec: WorkloadSpec::paper_list,
            threads: Threads::Capped(&[1, 2, 4, 8, 16]),
            columns: Columns::Tunings(
                Scheme::StackTrack,
                &[
                    ("linear", |c| scan_often(c, ScanMode::Linear)),
                    ("hashed", |c| scan_often(c, ScanMode::Hashed)),
                    ("batched", |c| scan_often(c, ScanMode::Batched)),
                ],
            ),
            cell: Cell::Ops,
        }),
    },
    // Extra comparator: reference counting vs hazard pointers (the
    // paper's "upper bound" claim).
    Figure {
        commands: &["ablation-refcount"],
        stem: "ablation_refcount",
        fault: false,
        build: Build::Grid(Grid {
            title: "Ablation — RefCount vs Hazards vs Original (List, ops/s)",
            spec: WorkloadSpec::paper_list,
            threads: Threads::Capped(&[1, 2, 4, 8]),
            columns: Columns::Schemes(&[Scheme::None, Scheme::Hazard, Scheme::RefCount]),
            cell: Cell::Ops,
        }),
    },
    // Extra ablation: Drop-the-Anchor's anchor period `K` — the fence
    // amortization that makes DTA fast, against the reclamation lag (and
    // garbage) that longer windows cost.
    Figure {
        commands: &["ablation-dta-k"],
        stem: "ablation_dta_k",
        fault: false,
        build: Build::Grid(Grid {
            title: "Ablation — DTA anchor period K (List, ops/s | garbage nodes)",
            spec: WorkloadSpec::paper_list,
            threads: Threads::Capped(&[1, 2, 4, 8, 16]),
            columns: Columns::Tunings(
                Scheme::Dta,
                &[
                    ("K=4", |c| c.reclaim_config.dta_k = 4),
                    ("K=10", |c| c.reclaim_config.dta_k = 10),
                    ("K=20", |c| c.reclaim_config.dta_k = 20),
                    ("K=50", |c| c.reclaim_config.dta_k = 50),
                ],
            ),
            cell: Cell::OpsGarbage,
        }),
    },
    // Extra workload beyond the paper's figures: the Algorithm 3
    // red-black tree under a read-dominated mix.
    Figure {
        commands: &["extra-rbtree"],
        stem: "extra_rbtree",
        fault: false,
        build: Build::Grid(Grid {
            title: "Extra — RbTree: 10K keys, 10% mutations (ops/s vs threads)",
            spec: WorkloadSpec::extra_rbtree,
            threads: Threads::UpTo,
            columns: Columns::Schemes(COMPARED),
            cell: Cell::Ops,
        }),
    },
    // Robustness under faults: every scheme runs the list workload while
    // one worker stalls mid-run (at 30 % of the duration, for 40 % of it —
    // 100 ms at `FAULT_RUN_MS`). The table is the outstanding-garbage
    // time-series: hazard pointers, DTA and StackTrack must stay bounded
    // while the stalled thread makes epoch-based reclamation hoard
    // (section 2's robustness argument).
    Figure {
        commands: &["robustness"],
        stem: "robustness",
        fault: true,
        build: Build::Custom {
            configs: robustness_configs,
            tables: robustness_tables,
        },
    },
];

/// The figure `command` runs, if any.
pub fn find(command: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.commands.contains(&command))
}

impl Figure {
    /// Runs the figure: creates `opts.out`, runs every config through the
    /// sweep scheduler, then prints the tables and persists them with the
    /// results. An error names the directory or file it could not write.
    pub fn run(&self, opts: &BenchOpts) -> io::Result<Vec<RunResult>> {
        std::fs::create_dir_all(&opts.out).map_err(naming(&opts.out))?;
        let configs = match &self.build {
            Build::Grid(grid) => grid.configs(opts),
            Build::Custom { configs, .. } => configs(opts),
        };
        let results = sweep::run_batch(&configs, opts.jobs, self.stem, opts.timing.as_deref());
        eprintln!();
        let tables = match &self.build {
            Build::Grid(grid) => vec![grid.table(&results)],
            Build::Custom { tables, .. } => tables(opts, &results),
        };
        for table in &tables {
            table.print();
        }
        persist(&opts.out, self.stem, &results, &tables)?;
        Ok(results)
    }
}

impl Grid {
    fn configs(&self, opts: &BenchOpts) -> Vec<RunConfig> {
        let spec = opts.spec((self.spec)());
        let thread_counts: Vec<usize> = match self.threads {
            Threads::UpTo => (1..=opts.max_threads).collect(),
            Threads::Capped(list) => list
                .iter()
                .copied()
                .filter(|&t| t <= opts.max_threads)
                .collect(),
        };
        let mut configs = Vec::new();
        for threads in thread_counts {
            match self.columns {
                Columns::Schemes(schemes) => configs.extend(
                    schemes
                        .iter()
                        .map(|&scheme| opts.config(spec.clone(), scheme, threads)),
                ),
                Columns::Tunings(scheme, tunings) => {
                    configs.extend(tunings.iter().map(|(_, tune)| {
                        let mut config = opts.config(spec.clone(), scheme, threads);
                        tune(&mut config);
                        config
                    }))
                }
            }
        }
        configs
    }

    fn table(&self, results: &[RunResult]) -> Table {
        let mut header = vec!["threads"];
        match self.columns {
            Columns::Schemes(schemes) => header.extend(schemes.iter().map(|s| s.name())),
            Columns::Tunings(_, tunings) => header.extend(tunings.iter().map(|(label, _)| *label)),
        }
        let mut table = Table::new(self.title, &header);
        for group in results.chunks(header.len() - 1) {
            let baseline = group[0].ops_per_sec.max(1.0);
            let mut row = vec![group[0].threads.to_string()];
            row.extend(group.iter().enumerate().map(|(i, r)| match self.cell {
                Cell::Ops => fmt_ops(r.ops_per_sec),
                Cell::OpsGarbage => format!("{} | {}", fmt_ops(r.ops_per_sec), r.garbage),
                Cell::PercentOfFirst if i == 0 => "100.0%".to_string(),
                Cell::PercentOfFirst => format!("{:.1}%", 100.0 * r.ops_per_sec / baseline),
            }));
            table.row(row);
        }
        table
    }
}

/// Segments of `len` blocks: with `min == max` the predictor's streaks
/// cannot move the limit.
fn fixed_split(len: u32) -> StConfig {
    StConfig {
        initial_split_length: len,
        min_split_length: len.max(1),
        max_split_length: len.max(1),
        ..StConfig::default()
    }
}

/// Scan on every free, so the scan strategies actually differ.
fn scan_often(config: &mut RunConfig, mode: ScanMode) {
    config.st_config.scan_mode = mode;
    config.st_config.max_free = 1;
}

fn fig3_fig4_configs(opts: &BenchOpts) -> Vec<RunConfig> {
    let spec = opts.spec(WorkloadSpec::paper_list());
    (1..=opts.max_threads)
        .map(|threads| opts.config(spec.clone(), Scheme::StackTrack, threads))
        .collect()
}

fn fig3_fig4_tables(_: &BenchOpts, results: &[RunResult]) -> Vec<Table> {
    let mut aborts = Table::new(
        "Figure 3 — List: HTM aborts (StackTrack)",
        &[
            "threads",
            "contention",
            "capacity",
            "contention/seg",
            "capacity/seg",
        ],
    );
    let mut splits = Table::new(
        "Figure 4 — List: splits per op and split lengths (StackTrack)",
        &["threads", "avg splits/op", "avg split length"],
    );
    for r in results {
        let segs = r.tx_committed.max(1) as f64;
        aborts.row(vec![
            r.threads.to_string(),
            r.aborts_conflict.to_string(),
            r.aborts_capacity.to_string(),
            fmt_f(r.aborts_conflict as f64 / segs),
            fmt_f(r.aborts_capacity as f64 / segs),
        ]);
        splits.row(vec![
            r.threads.to_string(),
            fmt_f(r.avg_splits_per_op),
            fmt_f(r.avg_split_length),
        ]);
    }
    vec![aborts, splits]
}

/// The scan table's frequencies: scan per 1 and per 10 free calls.
const SCAN_EVERY: [usize; 2] = [1, 10];

fn scan_overhead_configs(opts: &BenchOpts) -> Vec<RunConfig> {
    let spec = opts.spec(WorkloadSpec::paper_skiplist());
    let mut configs = Vec::new();
    for max_free in SCAN_EVERY {
        for threads in 1..=opts.max_threads {
            let mut config = opts.config(spec.clone(), Scheme::StackTrack, threads);
            config.st_config = StConfig {
                max_free: max_free - 1, // scan when free set exceeds this
                // One stack walk per scan batch (the paper's measured
                // amortization implies this shape; see section 5.2's
                // "free procedure optimization").
                scan_mode: ScanMode::Hashed,
                ..StConfig::default()
            };
            configs.push(config);
        }
    }
    configs
}

fn scan_overhead_tables(opts: &BenchOpts, results: &[RunResult]) -> Vec<Table> {
    SCAN_EVERY
        .iter()
        .zip(results.chunks(opts.max_threads))
        .map(|(max_free, group)| {
            let mut table = Table::new(
                format!("Scan behaviour — SkipList, scan per {max_free} free call(s)"),
                &[
                    "threads",
                    "ops/s",
                    "#scans",
                    "avg depth (words)",
                    "retries",
                    "penalty %",
                ],
            );
            for r in group {
                table.row(vec![
                    r.threads.to_string(),
                    fmt_ops(r.ops_per_sec),
                    r.scans.to_string(),
                    fmt_f(r.avg_scan_depth),
                    r.scan_retries.to_string(),
                    fmt_f(r.scan_penalty_pct),
                ]);
            }
            table
        })
        .collect()
}

/// Outstanding-garbage samples per robustness run.
const GARBAGE_SAMPLES: usize = 10;

/// The robustness run's thread count; its last thread stalls.
fn robustness_threads(opts: &BenchOpts) -> usize {
    opts.max_threads.clamp(2, 4)
}

fn robustness_configs(opts: &BenchOpts) -> Vec<RunConfig> {
    let spec = opts.spec(WorkloadSpec::paper_list());
    let threads = robustness_threads(opts);
    let duration = ms_to_cycles(opts.duration_ms);
    let schemes = opts
        .schemes
        .clone()
        .unwrap_or_else(|| Scheme::all().to_vec());
    schemes
        .iter()
        .map(|&scheme| {
            let mut config = opts.config(spec.clone(), scheme, threads);
            config.faults =
                FaultPlan::default().stall(threads - 1, duration * 3 / 10, duration * 4 / 10);
            config.garbage_samples = GARBAGE_SAMPLES;
            config
        })
        .collect()
}

fn robustness_tables(opts: &BenchOpts, results: &[RunResult]) -> Vec<Table> {
    let threads = robustness_threads(opts);
    let mut columns = vec!["t (ms)"];
    columns.extend(results.iter().map(|r| r.scheme.as_str()));
    let mut table = Table::new(
        format!(
            "Robustness — List, {threads} threads: outstanding garbage while thread {} \
             stalls {}–{} ms (run length {} ms)",
            threads - 1,
            fmt_f(opts.duration_ms as f64 * 0.3),
            fmt_f(opts.duration_ms as f64 * 0.7),
            opts.duration_ms
        ),
        &columns,
    );
    for k in 1..=GARBAGE_SAMPLES {
        let t_ms = opts.duration_ms as f64 * k as f64 / GARBAGE_SAMPLES as f64;
        let mut row = vec![fmt_f(t_ms)];
        row.extend(results.iter().map(|r| {
            r.metrics
                .counter(&format!("reclaim.garbage_ts.{k:02}"))
                .to_string()
        }));
        table.row(row);
    }
    vec![table]
}
