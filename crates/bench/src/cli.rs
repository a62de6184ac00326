//! The `st-bench` command line, read without running anything.
//!
//! Every subcommand declares its flags once, as a table of [`Flag`]s: a
//! name, a value form and a parse-and-range check. `parse_flags` is the
//! one loop that reads them, and the usage lines are printed from the same
//! tables. `check` and `audit` share the checker block
//! ([`CheckerFlags`], `checker_flags`), which [`CheckerFlags::configs`]
//! turns into validated [`CheckConfig`]s. [`parse`] reads a whole argument
//! vector into a [`Command`], or into the text to print before exiting 2,
//! so tests drive the front end in process.

use crate::auditcmd::{self, AuditOpts};
use crate::checkcmd;
use crate::experiment::MAX_RUN_MS;
use crate::figures::{self, BenchOpts, Figure, FAULT_RUN_MS, FIGURES};
use st_check::{CheckConfig, ExploreConfig, ReplayToken};
use st_reclaim::Scheme;
use st_structures::StructureKind;
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::str::FromStr;

/// Any integer.
pub(crate) const ANY: RangeInclusive<u64> = 0..=u64::MAX;
/// Any integer but 0.
pub(crate) const POSITIVE: RangeInclusive<u64> = 1..=u64::MAX;
/// Any count that fits a `usize`, so a setter's `as usize` is exact.
pub(crate) const COUNT: RangeInclusive<u64> = 0..=usize::MAX as u64;

/// One flag of a subcommand over its options `O`.
pub struct Flag<O> {
    /// The flag, e.g. `--threads`.
    pub name: &'static str,
    value: Value<O>,
}

/// How a flag's value is read.
enum Value<O> {
    /// An integer in the range, shown as `N`.
    Int(RangeInclusive<u64>, fn(&mut O, u64)),
    /// Any other value, shown as the form given and checked by the setter.
    Text(&'static str, fn(&mut O, &str) -> Result<(), String>),
}

impl<O> Flag<O> {
    /// An integer flag that accepts `range`.
    pub(crate) fn int(
        name: &'static str,
        range: RangeInclusive<u64>,
        set: fn(&mut O, u64),
    ) -> Self {
        Self {
            name,
            value: Value::Int(range, set),
        }
    }

    /// A flag whose value `set` parses and checks, shown as `form`.
    pub(crate) fn text(
        name: &'static str,
        form: &'static str,
        set: fn(&mut O, &str) -> Result<(), String>,
    ) -> Self {
        Self {
            name,
            value: Value::Text(form, set),
        }
    }

    /// The flag as its usage line shows it, e.g. `[--threads N]`.
    pub fn usage(&self) -> String {
        let form = match &self.value {
            Value::Int(..) => "N",
            Value::Text(form, _) => form,
        };
        format!("[{} {form}]", self.name)
    }

    fn set(&self, opts: &mut O, value: &str) -> Result<(), String> {
        let name = self.name;
        match &self.value {
            Value::Int(range, set) => {
                let v: u64 = value
                    .parse()
                    .map_err(|_| format!("{name} takes an integer, got {value:?}"))?;
                if v < *range.start() {
                    return Err(format!("{name} must be at least {}", range.start()));
                }
                if v > *range.end() {
                    return Err(format!("{name} must be at most {}", range.end()));
                }
                set(opts, v);
                Ok(())
            }
            Value::Text(_, set) => set(opts, value),
        }
    }
}

/// Reads `args`, `--flag value` pairs, into `O::default()`: the one flag
/// loop of every subcommand.
pub(crate) fn parse_flags<O: Default>(flags: &[Flag<O>], args: &[String]) -> Result<O, String> {
    let mut opts = O::default();
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("missing value for {}", pair[0]));
        };
        let flag = flags
            .iter()
            .find(|f| f.name == flag)
            .ok_or_else(|| format!("unknown flag {flag}"))?;
        flag.set(&mut opts, value)?;
    }
    Ok(opts)
}

/// `st-bench <command>` and every flag of `flags`.
fn usage_line<O>(command: &str, flags: &[Flag<O>]) -> String {
    let flags: Vec<String> = flags.iter().map(Flag::usage).collect();
    format!("st-bench {command} {}", flags.join(" "))
}

/// Every subcommand's usage line, as `st-bench` with no arguments prints it.
pub fn usage() -> String {
    let lines = [
        figure_usage(),
        usage_line("check", &checkcmd::flags()),
        usage_line("audit", &auditcmd::flags()),
        "st-bench check-metrics FILE...".to_string(),
        "st-bench check-timing FILE...".to_string(),
        "st-bench refresh-experiments".to_string(),
    ];
    format!("usage: {}", lines.join("\n       "))
}

/// A comma-separated list of names.
fn list<T: FromStr<Err = String>>(value: &str) -> Result<Vec<T>, String> {
    value.split(',').map(|s| s.trim().parse()).collect()
}

/// The flags `check` and `audit` share: which structure × scheme pairs
/// to check, and the scripted workload each pair runs.
#[derive(Debug, Clone)]
pub struct CheckerFlags {
    /// Structures to check (`--structures`).
    pub structures: Vec<StructureKind>,
    /// Schemes to check (`--schemes`).
    pub schemes: Vec<Scheme>,
    /// Per-decision deviation probability of the randomized scheduler, in
    /// percent (`--percent`).
    pub percent: u32,
    /// The config every pair shares: `--threads`, `--ops`, `--keys`,
    /// `--seed` and `--mutate` set it; each pair sets its structure and
    /// scheme.
    pub config: CheckConfig,
}

impl CheckerFlags {
    /// The block with these default pairs and every other default.
    pub(crate) fn new(structures: Vec<StructureKind>, schemes: Vec<Scheme>) -> Self {
        Self {
            structures,
            schemes,
            percent: 25,
            config: CheckConfig::default(),
        }
    }

    /// One config per structure × scheme pair, structures outermost, each
    /// validated.
    pub fn configs(&self) -> Result<Vec<CheckConfig>, String> {
        let mut configs = Vec::new();
        for &structure in &self.structures {
            for &scheme in &self.schemes {
                let config = CheckConfig {
                    structure,
                    scheme,
                    ..self.config.clone()
                };
                config.validate()?;
                configs.push(config);
            }
        }
        Ok(configs)
    }
}

/// The checker block's flags, for options that carry one.
pub(crate) fn checker_flags<O: AsMut<CheckerFlags>>() -> Vec<Flag<O>> {
    vec![
        Flag::text("--structures", "list,hash,queue,skiplist,rbtree", |o, v| {
            list(v).map(|l| o.as_mut().structures = l)
        }),
        Flag::text("--schemes", "A,B,...", |o, v| {
            list(v).map(|l| o.as_mut().schemes = l)
        }),
        Flag::int("--threads", COUNT, |o, v| {
            o.as_mut().config.threads = v as usize
        }),
        Flag::int("--ops", COUNT, |o, v| {
            o.as_mut().config.ops_per_thread = v as usize
        }),
        Flag::int("--keys", ANY, |o, v| o.as_mut().config.key_range = v),
        Flag::int("--seed", ANY, |o, v| o.as_mut().config.seed = v),
        Flag::int("--percent", 0..=100, |o, v| o.as_mut().percent = v as u32),
        Flag::text(
            "--mutate",
            "none|splits|hazard|skipfree|dretire|nbrskip|hyadrop",
            |o, v| v.parse().map(|m| o.as_mut().config.mutation = m),
        ),
    ]
}

/// A figure subcommand's options as its flags leave them.
#[derive(Debug, Default)]
pub struct FigureFlags {
    /// Everything but the run length.
    pub bench: BenchOpts,
    /// `--ms`, when given.
    pub ms: Option<u64>,
    /// `--timing-out`, when given.
    pub timing_out: Option<PathBuf>,
}

/// The flags of every figure subcommand and of `all`.
pub fn figure_flags() -> Vec<Flag<FigureFlags>> {
    vec![
        Flag::int("--ms", 1..=MAX_RUN_MS, |o, v| o.ms = Some(v)),
        Flag::int("--warmup", 0..=MAX_RUN_MS, |o, v| o.bench.warmup_ms = v),
        Flag::int("--seed", ANY, |o, v| o.bench.seed = v),
        Flag::int("--scale", ANY, |o, v| o.bench.scale = v),
        Flag::int("--threads", 1..=usize::MAX as u64, |o, v| {
            o.bench.max_threads = v as usize
        }),
        Flag::text("--out", "DIR", |o, v| {
            o.bench.out = v.into();
            Ok(())
        }),
        Flag::text("--schemes", "A,B,...", |o, v| {
            list(v).map(|l| o.bench.schemes = Some(l))
        }),
        Flag::int("--jobs", 1..=usize::MAX as u64, |o, v| {
            o.bench.jobs = v as usize
        }),
        Flag::text("--timing-out", "FILE", |o, v| {
            o.timing_out = Some(v.into());
            Ok(())
        }),
    ]
}

fn figure_usage() -> String {
    let commands: Vec<&str> = FIGURES.iter().flat_map(|f| f.commands).copied().collect();
    usage_line(&format!("<{}|all>", commands.join("|")), &figure_flags())
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

/// What one `st-bench` invocation asks for.
#[derive(Debug)]
pub enum Command {
    /// A figure subcommand or `all`: the figures to run, in order.
    Figures {
        /// The subcommand as given.
        command: String,
        /// The figures it runs.
        figures: Vec<&'static Figure>,
        /// Their options.
        opts: BenchOpts,
        /// Where the host timing report goes, if anywhere.
        timing_out: Option<PathBuf>,
    },
    /// `check`: explore every config.
    Check {
        /// One validated config per structure × scheme pair.
        configs: Vec<CheckConfig>,
        /// The exploration of each.
        explore: ExploreConfig,
    },
    /// `check --replay`: run one schedule.
    Replay(ReplayToken),
    /// `audit`.
    Audit(AuditOpts),
    /// `check-metrics FILE...`.
    CheckMetrics(Vec<String>),
    /// `check-timing FILE...`.
    CheckTiming(Vec<String>),
    /// `refresh-experiments`.
    RefreshExperiments,
}

/// Reads a whole argument vector, without the program name. An error is
/// the text to print before exiting 2: the message, then the usage line of
/// the subcommand (every line when the subcommand is missing or unknown).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some((command, args)) = args.split_first() else {
        return Err(usage());
    };
    let with_usage = |line: String| move |e: String| format!("{e}\nusage: {line}");
    let figure = figures::find(command);
    match command.as_str() {
        "check" => {
            checkcmd::parse(args).map_err(with_usage(usage_line(command, &checkcmd::flags())))
        }
        "audit" => auditcmd::parse(args)
            .map(Command::Audit)
            .map_err(with_usage(usage_line(command, &auditcmd::flags()))),
        "check-metrics" | "check-timing" if args.is_empty() => {
            Err(format!("usage: st-bench {command} FILE..."))
        }
        "check-metrics" => Ok(Command::CheckMetrics(args.to_vec())),
        "check-timing" => Ok(Command::CheckTiming(args.to_vec())),
        "refresh-experiments" if args.is_empty() => Ok(Command::RefreshExperiments),
        "refresh-experiments" => Err("usage: st-bench refresh-experiments".into()),
        _ if figure.is_some() || command == "all" => {
            parse_figures(command, figure, args).map_err(with_usage(figure_usage()))
        }
        _ => Err(usage()),
    }
}

/// Reads the flags of one figure's subcommand, or of `all` (`alone` is
/// `None`).
fn parse_figures(
    command: &str,
    alone: Option<&'static Figure>,
    args: &[String],
) -> Result<Command, String> {
    let flags = parse_flags(&figure_flags(), args)?;
    let mut opts = flags.bench;
    if alone.is_some_and(|f| !f.fault) && opts.schemes.is_some() {
        return Err(format!("--schemes applies only to {}", fault_experiments()));
    }
    // A fault experiment run on its own defaults to a run that dwarfs its
    // stall.
    if let Some(ms) = flags.ms.or(alone.filter(|f| f.fault).map(|_| FAULT_RUN_MS)) {
        opts.duration_ms = ms;
    }
    Ok(Command::Figures {
        command: command.to_string(),
        figures: alone.map_or_else(|| FIGURES.iter().collect(), |f| vec![f]),
        opts,
        timing_out: flags.timing_out,
    })
}
