//! Parallel deterministic sweep scheduler.
//!
//! Every benchmark configuration is a fully self-contained simulation —
//! its own heap, HTM engine, scheme state, and seeded virtual machine —
//! so a figure's (structure, scheme, threads, workload) grid is
//! embarrassingly parallel. [`run_batch`] fans a config list across
//! `--jobs` OS threads through a shared work-queue cursor and collects
//! results **in config order**, so the persisted `results/*.json` and
//! `results/*.metrics.json` artifacts are byte-identical to a serial run:
//! per-config seeds are derived from the config alone, and output order
//! never depends on completion order. `--jobs 1` is the same path with
//! one worker.
//!
//! Host wall-clock per config is captured into a [`TimingSink`]
//! (`--timing-out`), the repo's perf trajectory record (see
//! `docs/PERF.md` and the committed `BENCH_sweep.json`).

use crate::err;
use crate::experiment::{run, RunConfig, RunResult};
use st_obs::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Host wall-clock record of one configuration's simulation.
#[derive(Debug, Clone)]
pub struct ConfigTiming {
    /// Figure/table the config belongs to (e.g. `fig1_list`).
    pub figure: String,
    /// Scheme display name.
    pub scheme: String,
    /// Structure display name.
    pub structure: String,
    /// Simulated thread count.
    pub threads: usize,
    /// Host milliseconds the simulation took.
    pub host_ms: f64,
}

/// Accumulates [`ConfigTiming`] rows across a sweep, in config order.
///
/// Shared behind an `Arc` by every figure of one invocation; the
/// final report is assembled once by [`timing_report`].
#[derive(Debug, Default)]
pub struct TimingSink {
    entries: Mutex<Vec<ConfigTiming>>,
}

impl TimingSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one batch of rows (already in config order).
    pub fn extend(&self, rows: Vec<ConfigTiming>) {
        self.entries.lock().expect("timing sink").extend(rows);
    }

    /// Snapshot of all rows recorded so far.
    pub fn rows(&self) -> Vec<ConfigTiming> {
        self.entries.lock().expect("timing sink").clone()
    }
}

/// Renders the `--timing-out` report document.
///
/// Shape: `{"command", "jobs", "host_cores", "total_host_ms",
/// "configs": [{figure, scheme, structure, threads, host_ms}, ...]}`.
/// `total_host_ms` is end-to-end wall clock (includes table rendering and
/// persistence, not just the summed simulations).
pub fn timing_report(
    command: &str,
    jobs: usize,
    total_host_ms: f64,
    rows: &[ConfigTiming],
) -> Json {
    let mut doc = Json::obj();
    doc.set("command", command);
    doc.set("jobs", jobs);
    doc.set("host_cores", host_cores());
    doc.set("total_host_ms", total_host_ms);
    let configs: Vec<Json> = rows
        .iter()
        .map(|t| {
            let mut o = Json::obj();
            o.set("figure", t.figure.as_str());
            o.set("scheme", t.scheme.as_str());
            o.set("structure", t.structure.as_str());
            o.set("threads", t.threads);
            o.set("host_ms", t.host_ms);
            o
        })
        .collect();
    doc.set("configs", Json::Arr(configs));
    doc
}

/// Validates a `--timing-out` report document against the schema
/// [`timing_report`] writes. Returns the number of config rows.
///
/// This is the `check-timing` CLI's core: CI regenerates a small figure
/// with `--timing-out` and runs this over the result, so schema drift in
/// the perf-trajectory record (`BENCH_sweep.json`, docs/PERF.md) fails the
/// build instead of silently breaking comparisons.
pub fn validate_timing_report(doc: &Json) -> Result<usize, String> {
    let require_u64 = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer \"{key}\""))
    };
    doc.get("command")
        .and_then(Json::as_str)
        .ok_or("missing or non-string \"command\"")?;
    let jobs = require_u64("jobs")?;
    if jobs == 0 {
        return Err("\"jobs\" must be at least 1".into());
    }
    if require_u64("host_cores")? == 0 {
        return Err("\"host_cores\" must be at least 1".into());
    }
    let total = doc
        .get("total_host_ms")
        .and_then(Json::as_f64)
        .ok_or("missing or non-numeric \"total_host_ms\"")?;
    if !total.is_finite() || total < 0.0 {
        return Err(format!(
            "\"total_host_ms\" must be finite and >= 0, got {total}"
        ));
    }
    let configs = doc
        .get("configs")
        .and_then(Json::as_arr)
        .ok_or("missing or non-array \"configs\"")?;
    if configs.is_empty() {
        return Err("\"configs\" must not be empty".into());
    }
    for (i, row) in configs.iter().enumerate() {
        for key in ["figure", "scheme", "structure"] {
            row.get(key)
                .and_then(Json::as_str)
                .filter(|s| !s.is_empty())
                .ok_or_else(|| format!("config {i}: missing or empty \"{key}\""))?;
        }
        if row.get("threads").and_then(Json::as_u64).is_none() {
            return Err(format!("config {i}: missing or non-integer \"threads\""));
        }
        let ms = row
            .get("host_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("config {i}: missing or non-numeric \"host_ms\""))?;
        if !ms.is_finite() || ms < 0.0 {
            return Err(format!("config {i}: \"host_ms\" must be finite and >= 0"));
        }
    }
    Ok(configs.len())
}

/// Logical CPUs visible to this process (1 if the query fails).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `configs` with up to `jobs` worker threads and returns results in
/// config order, plus per-config host timings (same order).
///
/// Every job count runs the same scoped workers; one worker runs the
/// configs in order. More jobs only change *when* each simulation
/// executes, never its seed or its position in the output — determinism
/// of the persisted artifacts is the scheduler's contract, asserted
/// end-to-end by the workspace determinism tests.
pub fn run_configs(configs: &[RunConfig], jobs: usize) -> (Vec<RunResult>, Vec<f64>) {
    let jobs = jobs.max(1).min(configs.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(RunResult, f64)>>> =
        configs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(config) = configs.get(i) else {
                    break;
                };
                let started = Instant::now();
                let result = run(config);
                let host_ms = started.elapsed().as_secs_f64() * 1e3;
                *slots[i].lock().expect("result slot") = Some((result, host_ms));
                err!(".");
            });
        }
    });
    let mut results = Vec::with_capacity(configs.len());
    let mut times = Vec::with_capacity(configs.len());
    for slot in slots {
        let (result, host_ms) = slot
            .into_inner()
            .expect("result slot")
            .expect("every config ran");
        results.push(result);
        times.push(host_ms);
    }
    (results, times)
}

/// [`run_configs`] plus bookkeeping: records per-config timings into the
/// sink under `figure`, in config order.
pub fn run_batch(
    configs: &[RunConfig],
    jobs: usize,
    figure: &str,
    sink: Option<&TimingSink>,
) -> Vec<RunResult> {
    let (results, times) = run_configs(configs, jobs);
    if let Some(sink) = sink {
        let rows = results
            .iter()
            .zip(&times)
            .map(|(r, &host_ms)| ConfigTiming {
                figure: figure.to_string(),
                scheme: r.scheme.clone(),
                structure: r.structure.clone(),
                threads: r.threads,
                host_ms,
            })
            .collect();
        sink.extend(rows);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use st_reclaim::Scheme;

    fn tiny_configs(n: usize) -> Vec<RunConfig> {
        (1..=n)
            .map(|t| {
                RunConfig::new(
                    WorkloadSpec::paper_list().shrunk(100),
                    Scheme::StackTrack,
                    t,
                    1,
                )
            })
            .collect()
    }

    #[test]
    fn parallel_results_match_serial_in_order() {
        let configs = tiny_configs(3);
        let (serial, _) = run_configs(&configs, 1);
        let (parallel, _) = run_configs(&configs, 3);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.threads, p.threads, "order preserved");
            assert_eq!(s.total_ops, p.total_ops, "identical simulation");
            assert_eq!(s.metrics, p.metrics, "identical metrics");
            assert_eq!(
                s.to_json().to_string(),
                p.to_json().to_string(),
                "identical flat row"
            );
        }
    }

    #[test]
    fn timing_sink_keeps_config_order() {
        let configs = tiny_configs(2);
        let sink = TimingSink::new();
        let results = run_batch(&configs, 2, "demo", Some(&sink));
        let rows = sink.rows();
        assert_eq!(rows.len(), results.len());
        for (row, result) in rows.iter().zip(&results) {
            assert_eq!(row.threads, result.threads);
            assert_eq!(row.figure, "demo");
            assert!(row.host_ms >= 0.0);
        }
    }

    #[test]
    fn timing_report_shape() {
        let rows = [ConfigTiming {
            figure: "fig1_list".into(),
            scheme: "stacktrack".into(),
            structure: "List".into(),
            threads: 4,
            host_ms: 12.5,
        }];
        let doc = timing_report("all", 2, 99.0, &rows);
        let text = doc.to_string();
        for key in [
            "command",
            "jobs",
            "host_cores",
            "total_host_ms",
            "configs",
            "host_ms",
        ] {
            assert!(text.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert_eq!(doc.get("jobs").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn generated_timing_report_validates() {
        let rows = [ConfigTiming {
            figure: "fig1_list".into(),
            scheme: "stacktrack".into(),
            structure: "List".into(),
            threads: 4,
            host_ms: 12.5,
        }];
        let doc = timing_report("all", 2, 99.0, &rows);
        // Round-trip through text, as check-timing does.
        let parsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(validate_timing_report(&parsed), Ok(1));
    }

    #[test]
    fn timing_validation_rejects_bad_shapes() {
        let reject = |text: &str, needle: &str| {
            let err = validate_timing_report(&Json::parse(text).unwrap()).unwrap_err();
            assert!(err.contains(needle), "error {err:?} lacks {needle:?}");
        };
        reject("{}", "command");
        reject(r#"{"command":"all"}"#, "jobs");
        reject(
            r#"{"command":"all","jobs":0,"host_cores":1,"total_host_ms":1.0,"configs":[]}"#,
            "jobs",
        );
        reject(
            r#"{"command":"all","jobs":1,"host_cores":1,"total_host_ms":1.0,"configs":[]}"#,
            "empty",
        );
        reject(
            r#"{"command":"all","jobs":1,"host_cores":1,"total_host_ms":1.0,
                "configs":[{"figure":"f","scheme":"s","structure":"x","threads":1}]}"#,
            "host_ms",
        );
        reject(
            r#"{"command":"all","jobs":1,"host_cores":1,"total_host_ms":1.0,
                "configs":[{"figure":"f","scheme":"s","threads":1,"host_ms":0.5}]}"#,
            "structure",
        );
    }
}
