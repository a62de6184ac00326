//! The repository benchmark: the host cost of simulating each workload,
//! end to end and layer by layer. See `README.md` beside this crate for
//! the command, the workloads and every metric.
//!
//! ```text
//! st-perfbench --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
//! st-perfbench --smoke
//! ```
//!
//! One workload runs in one process on one host thread. Every metric is
//! printed as `<workload> <name> <value> <unit>`, and the last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod host;
mod probes;
mod run;
mod trace;
mod workloads;

use probes::median;
use run::{run_config, ConfigRun};
use st_bench::experiment::{self, RunConfig};
use st_reclaim::Scheme;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Kind, ThreadTrace, Totals, OPMEM_KINDS};
use workloads::{Workload, WORKLOADS};

const USAGE: &str =
    "usage: st-perfbench --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
       st-perfbench --smoke
workloads: list-htm, hash-read, hash-write, queue-oversub";

/// Spans kept per traced run, shared evenly by its thread-configs; the
/// rest are aggregated but not stored.
const SPAN_BUDGET: usize = 1 << 16;

/// Probe calls per timed batch.
const PROBE_ITERS: u64 = 100_000;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| bad("a known workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| bad("a whole number of seconds from 1 to 3600"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--smoke"] {
        return smoke();
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let configs = w.measured_configs(args.seed, args.seconds, args.trace);
    let spans = spans_path(w.name, args.seed);
    let outcome = measure(&configs, args.trace, &spans);
    let metrics = if args.trace {
        let mut m = layer_metrics(&outcome);
        for (name, ns) in probes::run_all(PROBE_ITERS) {
            m.push((name, ns, "ns"));
        }
        m
    } else {
        let (gated, raw) = end_to_end_metrics(&outcome);
        print_lines(w.name, &raw);
        gated
    };
    print_lines(w.name, &metrics);
    print_result(&outcome, &metrics);
    ExitCode::SUCCESS
}

/// Every workload at one seed × 2 virtual ms (at 1 ms the heap-sizing rule
/// leaves no room for 16 StackTrack thread contexts), plain and traced,
/// with every check.
fn smoke() -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        let configs = w.configs(1, 1, 2);
        let plain = measure(&configs, false, &spans_path(w.name, 1));
        let (gated, _) = end_to_end_metrics(&plain);
        let traced = measure(&configs, true, &spans_path(w.name, 1));
        let layers = layer_metrics(&traced);
        println!(
            "{}: {} configs, {} + {} failed, {} end-to-end and {} layer metrics",
            w.name,
            plain.attempted,
            plain.failed,
            traced.failed,
            gated.len(),
            layers.len()
        );
        ok &= plain.failed + traced.failed == 0 && plain.runs.len() + traced.runs.len() == 4;
    }
    let probes = probes::run_all(1);
    println!("probes: {} ran", probes.len());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where a traced run writes its spans: under the cargo target directory.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "benchmark/target".into());
    PathBuf::from(target)
        .join("spans")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

/// One config that passed every check.
struct Accepted {
    config: RunConfig,
    plain: ConfigRun,
    traced: Option<ConfigRun>,
}

/// The configs of one run.
struct Outcome {
    attempted: usize,
    failed: usize,
    /// Accepted configs.
    runs: Vec<Accepted>,
    /// Plain runs: CPU ns per hop of the reference kernel, timed before
    /// each config and once after the last, so that its readings span the
    /// run.
    ref_ns: Vec<f64>,
}

/// Runs every config (plain, then traced if asked) and checks it: a config
/// fails if it panics, if its simulation was truncated, if the structure
/// fails its check, if the traced outputs differ from the plain ones, or —
/// for the first config — if the outputs differ from `experiment::run`.
fn measure(configs: &[RunConfig], traced: bool, spans: &std::path::Path) -> Outcome {
    let reference = catch_unwind(AssertUnwindSafe(|| {
        run::outputs_of(&experiment::run(&configs[0]))
    }))
    .ok();
    let timer_ns = trace::timer_overhead_ns();
    let epoch = Instant::now();
    let threads = configs.iter().map(|c| c.threads).max().unwrap_or(1);
    let span_cap = SPAN_BUDGET / (configs.len() * threads).max(1);
    let kernel = (!traced).then(host::RefKernel::new);

    let mut outcome = Outcome {
        attempted: configs.len(),
        failed: 0,
        runs: Vec::new(),
        ref_ns: Vec::new(),
    };
    for (i, config) in configs.iter().enumerate() {
        outcome
            .ref_ns
            .extend(kernel.as_ref().map(host::RefKernel::ns_per_hop));
        let plain = catch_unwind(AssertUnwindSafe(|| run_config(config, None)));
        let traced = if traced {
            let make = |t| ThreadTrace::new(i as u64, t, epoch, timer_ns, span_cap);
            catch_unwind(AssertUnwindSafe(|| run_config(config, Some(&make)))).map(Some)
        } else {
            Ok(None)
        };
        let verdict = match (plain, traced) {
            (Ok(plain), Ok(traced)) => verify(i, &plain, traced.as_ref(), reference.as_deref())
                .map(|()| Accepted {
                    config: config.clone(),
                    plain,
                    traced,
                }),
            _ => Err("panicked".to_string()),
        };
        match verdict {
            Ok(a) => outcome.runs.push(a),
            Err(e) => {
                eprintln!(
                    "config {i} ({}, seed {:#x}) failed: {e}",
                    config.scheme.name(),
                    config.seed
                );
                outcome.failed += 1;
            }
        }
    }
    outcome
        .ref_ns
        .extend(kernel.as_ref().map(host::RefKernel::ns_per_hop));
    if traced {
        if let Err(e) = write_spans(&outcome, spans) {
            eprintln!("could not write spans to {}: {e}", spans.display());
        }
    }
    outcome
}

fn verify(
    index: usize,
    plain: &ConfigRun,
    traced: Option<&ConfigRun>,
    reference: Option<&str>,
) -> Result<(), String> {
    plain.check.clone()?;
    if index == 0 && reference != Some(plain.output.as_str()) {
        return Err("outputs differ from experiment::run".into());
    }
    if let Some(t) = traced {
        t.check.clone()?;
        if t.output != plain.output || t.steps != plain.steps {
            return Err("traced outputs differ from the untraced run".into());
        }
    }
    Ok(())
}

fn write_spans(outcome: &Outcome, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for a in &outcome.runs {
        for t in a.traced.iter().flat_map(|r| &r.traces) {
            t.write_spans(&mut out)?;
        }
    }
    std::io::Write::flush(&mut out)?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host times are reported at the reference speed: CPU time × (this many
/// ns / the reference kernel's median CPU ns per hop over the run).
const REF_HOP_NS: f64 = 100.0;

/// The end-to-end metrics of a plain run, and the raw host times they are
/// scaled from (printed, not gated).
///
/// The simulate phase is costed per scheme: a scheme's CPU ns per step is
/// that of its fastest config, and the phase's total is each scheme's rate
/// times its exact step count. Contention on a shared host only ever slows
/// a config down, so the least disturbed config is the steadiest estimate;
/// a median or a plain sum lets bursts in. Set-up time is a median over
/// configs.
fn end_to_end_metrics(outcome: &Outcome) -> (Metrics, Metrics) {
    let plain = || outcome.runs.iter().map(|a| (&a.config, &a.plain));
    // (scheme, least CPU ns per step, steps)
    let mut schemes: Vec<(Scheme, f64, u64)> = Vec::new();
    for (c, r) in plain() {
        let rate = ratio(r.simulate_ns as f64, r.steps as f64);
        match schemes.iter_mut().find(|s| s.0 == c.scheme) {
            Some(s) => {
                s.1 = s.1.min(rate);
                s.2 += r.steps;
            }
            None => schemes.push((c.scheme, rate, r.steps)),
        }
    }
    let sim_ns: f64 = schemes.iter().map(|&(_, rate, n)| rate * n as f64).sum();
    let steps: u64 = plain().map(|(_, r)| r.steps).sum();
    let ops: u64 = plain().map(|(_, r)| r.result.total_ops).sum();
    let mut setup: Vec<f64> = plain().map(|(_, r)| r.setup_ns as f64 / 1e9).collect();
    let cpu_ns: u64 = plain()
        .map(|(_, r)| r.setup_ns + r.simulate_ns + r.report_ns)
        .sum();
    let virt_s: f64 = plain().map(|(c, _)| c.duration_ms as f64 / 1e3).sum();
    let (mut st_ops, mut other_ops) = (0, 0);
    for (c, r) in plain() {
        if c.scheme == Scheme::StackTrack {
            st_ops += r.result.total_ops;
        } else {
            other_ops += r.result.total_ops;
        }
    }
    let ns_per_step = ratio(sim_ns, steps as f64);
    let us_per_op = ratio(sim_ns, ops as f64) / 1e3;
    let setup_s = median(&mut setup);
    let kernel_ns = median(&mut outcome.ref_ns.clone());
    let raw = vec![
        ("raw.host_ns_per_step", ns_per_step, "ns"),
        ("raw.host_us_per_op", us_per_op, "us"),
        ("raw.setup_s", setup_s, "s"),
        ("raw.cpu_s", cpu_ns as f64 / 1e9, "s"),
        ("raw.kernel_ns_per_hop", kernel_ns, "ns"),
    ];
    let scale = REF_HOP_NS / kernel_ns;
    let gated = vec![
        ("host_ns_per_step_ref", ns_per_step * scale, "ns"),
        ("host_us_per_op_ref", us_per_op * scale, "us"),
        ("setup_s", setup_s * scale, "s"),
        ("peak_rss_mb", host::peak_rss_mb(), "MiB"),
        ("virt_mops", ratio(ops as f64, virt_s) / 1e6, "Mop/s"),
        (
            "st_throughput_ratio",
            ratio(st_ops as f64, other_ops as f64),
            "ratio",
        ),
    ];
    (gated, raw)
}

/// The per-layer metrics of a traced run. Counts are exact; times are
/// sampled means (ns per call) or self times (the layer's estimated total
/// minus its child boundaries', per call).
fn layer_metrics(outcome: &Outcome) -> Metrics {
    let mut t = Totals::default();
    let (mut steps, mut ops, mut switches) = (0u64, 0u64, 0u64);
    let (mut plain_sim_ns, mut traced_sim_ns, mut traced_wall_ns) = (0u64, 0u64, 0u64);
    let mut report_ns = Vec::new();
    let (mut begun, mut committed) = (0u64, 0u64);
    let mut aborts = [0u64; 4];
    let (mut scans, mut scan_words, mut st_ops, mut splits, mut slow_ops) =
        (0u64, 0u64, 0u64, 0f64, 0u64);
    for a in &outcome.runs {
        let (p, r) = (&a.plain, &a.plain.result);
        let traced = a.traced.as_ref().expect("layer metrics need a traced run");
        for th in &traced.traces {
            t.add(th);
        }
        steps += p.steps;
        ops += r.total_ops;
        switches += r.context_switches;
        plain_sim_ns += p.simulate_ns;
        traced_sim_ns += traced.simulate_ns;
        traced_wall_ns += traced.simulate_wall_ns;
        report_ns.push(p.report_ns as f64);
        begun += r.tx_begun;
        committed += r.tx_committed;
        aborts[0] += r.aborts_conflict;
        aborts[1] += r.aborts_capacity;
        aborts[2] += r.aborts_explicit;
        aborts[3] += r.aborts_preempted;
        if a.config.scheme == Scheme::StackTrack {
            let st = r.metrics.counter("st.ops");
            scans += r.metrics.counter("st.scans");
            scan_words += r.metrics.counter("st.scan_words");
            st_ops += st;
            splits += r.avg_splits_per_op * st as f64;
            slow_ops += r.slow_ops;
        }
    }
    let per = |total: f64, kind: Kind| ratio(total, t.calls(kind) as f64);
    let reclaim_calls = [Kind::IdleCheck, Kind::BeginOp, Kind::StepOp, Kind::StepIdle];
    let step_children: f64 = reclaim_calls.iter().map(|&k| t.total_ns(k)).sum();
    let block_children: f64 = OPMEM_KINDS.iter().map(|&k| t.total_ns(k)).sum();

    let mut m: Metrics = vec![
        ("machine.steps", steps as f64, "count"),
        ("machine.context_switches", switches as f64, "count"),
        (
            "machine.sched_self_ns_per_step",
            per(
                traced_wall_ns as f64 - t.total_ns(Kind::Step) - t.timer_ns(),
                Kind::Step,
            ),
            "ns",
        ),
        (
            "workload.step_self_ns",
            per(t.total_ns(Kind::Step) - step_children, Kind::Step),
            "ns",
        ),
        (
            "workload.steps_per_op",
            ratio(steps as f64, ops as f64),
            "steps/op",
        ),
        ("reclaim.begin_op_ns", t.mean_ns(Kind::BeginOp), "ns"),
        (
            "reclaim.step_op_self_ns",
            per(
                t.total_ns(Kind::StepOp) - t.total_ns(Kind::Block),
                Kind::StepOp,
            ),
            "ns",
        ),
        // Deferred reclamation, checked for on every step and run on some
        // (never on list-htm), per step: a per-call mean would be
        // undefined where no step runs it.
        (
            "reclaim.idle_ns_per_step",
            per(
                t.total_ns(Kind::IdleCheck) + t.total_ns(Kind::StepIdle),
                Kind::Step,
            ),
            "ns",
        ),
        (
            "reclaim.idle_step_share",
            per(t.calls(Kind::StepIdle) as f64, Kind::Step),
            "ratio",
        ),
        ("structures.blocks", t.calls(Kind::Block) as f64, "count"),
        (
            "structures.block_ok_ratio",
            per(t.blocks_ok() as f64, Kind::Block),
            "ratio",
        ),
        (
            "structures.block_self_ns",
            per(t.total_ns(Kind::Block) - block_children, Kind::Block),
            "ns",
        ),
    ];
    for (kind, calls, ns) in [
        (Kind::Load, "opmem.load.calls", "opmem.load.ns"),
        (Kind::LoadPtr, "opmem.load_ptr.calls", "opmem.load_ptr.ns"),
        (Kind::Store, "opmem.store.calls", "opmem.store.ns"),
        (Kind::Cas, "opmem.cas.calls", "opmem.cas.ns"),
        (Kind::Alloc, "opmem.alloc.calls", "opmem.alloc.ns"),
        (Kind::Retire, "opmem.retire.calls", "opmem.retire.ns"),
        (Kind::Local, "opmem.local.calls", "opmem.local.ns"),
    ] {
        m.push((calls, t.calls(kind) as f64, "count"));
        m.push((ns, t.mean_ns(kind), "ns"));
    }
    // Count only: the queue never calls `protect_slot`, so a mean would be
    // undefined there; its time still leaves the block's self time.
    m.push((
        "opmem.protect.calls",
        t.calls(Kind::Protect) as f64,
        "count",
    ));
    m.extend([
        ("simhtm.tx_begun", begun as f64, "count"),
        (
            "simhtm.commit_ratio",
            ratio(committed as f64, begun as f64),
            "ratio",
        ),
        ("simhtm.aborts.conflict", aborts[0] as f64, "count"),
        ("simhtm.aborts.capacity", aborts[1] as f64, "count"),
        ("simhtm.aborts.explicit", aborts[2] as f64, "count"),
        ("simhtm.aborts.preempted", aborts[3] as f64, "count"),
        ("stacktrack.scans", scans as f64, "count"),
        (
            "stacktrack.scan_depth",
            ratio(scan_words as f64, scans as f64),
            "words",
        ),
        (
            "stacktrack.splits_per_op",
            ratio(splits, st_ops as f64),
            "splits/op",
        ),
        ("stacktrack.slow_ops", slow_ops as f64, "count"),
        ("obs.report_ns", median(&mut report_ns), "ns"),
        (
            "trace.overhead_pct",
            100.0 * (ratio(traced_sim_ns as f64, plain_sim_ns as f64) - 1.0),
            "%",
        ),
    ]);
    m
}

fn print_lines(workload: &str, metrics: &Metrics) {
    for (name, value, unit) in metrics {
        println!("{workload} {name} {value} {unit}");
    }
}

/// Prints the result line: the last line of standard output.
fn print_result(outcome: &Outcome, metrics: &Metrics) {
    let correct = outcome.failed == 0 && !outcome.runs.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; the ratios above never divide
            // by zero, so this only guards against a bug.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
}
