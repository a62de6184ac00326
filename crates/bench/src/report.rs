//! Table rendering and result persistence.
//!
//! Every figure persists two JSON artifacts per run set: a flat
//! JSON-lines summary (`<name>.json`, one object per run — the format
//! `st-bench refresh-experiments` reads, see [`crate::experiments`]) and a
//! versioned full snapshot (`<name>.metrics.json`) carrying the complete
//! [`MetricsRegistry`] of each run, schema documented in `docs/METRICS.md`.

use crate::experiment::{PerThread, RunResult};
use st_obs::{Json, MetricsRegistry, SCHEMA_VERSION};
use std::fs;
use std::io;
use std::path::Path;

/// A table of formatted cells, rendered as markdown.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity");
        self.rows.push(cells);
    }

    /// Renders the table as GitHub markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.columns.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out.push('\n');
        out
    }
}

/// Formats a throughput in ops/s with engineering notation.
pub fn fmt_ops(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}K", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Formats a float with two decimals.
pub fn fmt_f(v: f64) -> String {
    format!("{v:.2}")
}

/// One run of a schema-v2 snapshot, as [`snapshot`] writes it.
#[derive(Debug)]
pub struct SnapshotRun<'a> {
    /// Scheme display name.
    pub scheme: &'a str,
    /// Structure display name.
    pub structure: &'a str,
    /// Simulated thread count.
    pub threads: usize,
    /// Run length in milliseconds.
    pub duration_ms: u64,
    /// The `per_thread` envelope rows.
    pub per_thread: &'a [PerThread],
    /// The full metrics registry.
    pub metrics: &'a MetricsRegistry,
}

/// Builds a versioned full-snapshot document, the one schema-v2 writer.
///
/// Shape (see `docs/METRICS.md`):
/// `{"schema_version": N, "name": ..., "runs": [{scheme, structure,
/// threads, duration_ms, per_thread: [{thread, ops, busy_cycles,
/// garbage}, ...], metrics: {...}}, ...]}`.
pub fn snapshot<'a>(name: &str, runs: impl IntoIterator<Item = SnapshotRun<'a>>) -> Json {
    let mut doc = Json::obj();
    doc.set("schema_version", SCHEMA_VERSION);
    doc.set("name", name);
    let runs: Vec<Json> = runs
        .into_iter()
        .map(|r| {
            let mut run = Json::obj();
            run.set("scheme", r.scheme);
            run.set("structure", r.structure);
            run.set("threads", r.threads);
            run.set("duration_ms", r.duration_ms);
            let rows: Vec<Json> = r.per_thread.iter().map(PerThread::to_json).collect();
            run.set("per_thread", Json::Arr(rows));
            run.set("metrics", r.metrics.to_json());
            run
        })
        .collect();
    doc.set("runs", Json::Arr(runs));
    doc
}

/// The `<name>.metrics.json` snapshot of a figure's results.
pub fn metrics_snapshot(name: &str, results: &[RunResult]) -> Json {
    snapshot(
        name,
        results.iter().map(|r| SnapshotRun {
            scheme: &r.scheme,
            structure: &r.structure,
            threads: r.threads,
            duration_ms: r.duration_ms,
            per_thread: &r.per_thread,
            metrics: &r.metrics,
        }),
    )
}

/// One run parsed back out of a `<name>.metrics.json` snapshot.
#[derive(Debug, Clone)]
pub struct ParsedRun {
    /// Scheme display name.
    pub scheme: String,
    /// Structure display name.
    pub structure: String,
    /// Simulated thread count.
    pub threads: usize,
    /// The `per_thread` envelope rows, in file order.
    pub per_thread: Vec<PerThread>,
    /// The full metrics registry.
    pub metrics: MetricsRegistry,
}

impl ParsedRun {
    fn label(&self) -> String {
        format!("{}/{}", self.scheme, self.structure)
    }
}

/// Parses a `<name>.metrics.json` document back into per-run registries.
///
/// Rejects documents from a different schema version. A run's
/// `per_thread` rows are parsed structurally here; cross-field
/// consistency is [`validate_per_thread`]'s job.
pub fn parse_metrics_snapshot(text: &str) -> Result<Vec<ParsedRun>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "snapshot schema v{version}, tool expects v{SCHEMA_VERSION}"
        ));
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("missing runs array")?;
    runs.iter()
        .map(|run| {
            let field = |k: &str| {
                run.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("run missing '{k}'"))
            };
            let threads = run
                .get("threads")
                .and_then(Json::as_u64)
                .ok_or("run missing 'threads'")? as usize;
            let per_thread = run
                .get("per_thread")
                .and_then(Json::as_arr)
                .ok_or("run missing 'per_thread' (schema v2 envelope)")?
                .iter()
                .map(parse_per_thread_row)
                .collect::<Result<Vec<PerThread>, String>>()?;
            let metrics = run.get("metrics").ok_or("run missing 'metrics'")?;
            let reg = MetricsRegistry::from_json(metrics).map_err(|e| e.to_string())?;
            Ok(ParsedRun {
                scheme: field("scheme")?,
                structure: field("structure")?,
                threads,
                per_thread,
                metrics: reg,
            })
        })
        .collect()
}

fn parse_per_thread_row(row: &Json) -> Result<PerThread, String> {
    let num = |k: &str| {
        row.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("per_thread row missing '{k}'"))
    };
    Ok(PerThread {
        thread: num("thread")? as usize,
        ops: num("ops")?,
        busy_cycles: num("busy_cycles")?,
        garbage: num("garbage")?,
    })
}

/// Validates the schema-v2 `per_thread` envelope of every parsed run:
/// one row per simulated thread, ids contiguous from 0 in file order,
/// and the rows' `ops` summing to the run's `run.total_ops` counter.
pub fn validate_per_thread(runs: &[ParsedRun]) -> Result<(), String> {
    for run in runs {
        let label = run.label();
        if run.per_thread.len() != run.threads {
            return Err(format!(
                "{label}: {} per_thread rows for {} threads",
                run.per_thread.len(),
                run.threads
            ));
        }
        for (i, row) in run.per_thread.iter().enumerate() {
            if row.thread != i {
                return Err(format!(
                    "{label}: per_thread ids not contiguous: expected {i}, found {}",
                    row.thread
                ));
            }
        }
        let ops = run
            .per_thread
            .iter()
            .try_fold(0u64, |sum, r| sum.checked_add(r.ops))
            .ok_or_else(|| format!("{label}: per_thread ops sum past u64"))?;
        let total = run.metrics.counter("run.total_ops");
        if ops != total {
            return Err(format!(
                "{label}: per_thread ops sum to {ops} but run.total_ops is {total}"
            ));
        }
    }
    Ok(())
}

/// Validates the `reclaim.garbage_ts.NN` gauge series of a parsed
/// snapshot.
///
/// Negative values can never reach this point — the registry parser
/// rejects any counter that is not an unsigned integer — so what is
/// left to check is the series' shape: every run that carries the
/// series must have plain-gauge values whose zero-padded indices form
/// a contiguous `01..=N` sequence, and `N` must agree across runs
/// (the robustness experiment samples all schemes on one shared grid,
/// so a short or gapped series means a truncated or hand-edited
/// snapshot). Returns the common sample count, 0 when no run carries
/// the series.
pub fn validate_garbage_series(runs: &[ParsedRun]) -> Result<u64, String> {
    let mut common: Option<(u64, String)> = None;
    for parsed in runs {
        let run = parsed.label();
        let mut indices = Vec::new();
        for (key, metric) in parsed.metrics.iter() {
            let Some(suffix) = key.strip_prefix("reclaim.garbage_ts.") else {
                continue;
            };
            if matches!(metric, st_obs::Metric::Histogram(_)) {
                return Err(format!("{run}: {key} is a histogram, expected a gauge"));
            }
            if suffix.len() < 2 || suffix.bytes().any(|b| !b.is_ascii_digit()) {
                return Err(format!(
                    "{run}: malformed garbage_ts index {suffix:?} (expected zero-padded digits)"
                ));
            }
            let index = suffix
                .parse::<u64>()
                .map_err(|_| format!("{run}: garbage_ts index {suffix} is past u64"))?;
            indices.push(index);
        }
        if indices.is_empty() {
            continue;
        }
        indices.sort_unstable();
        for (i, idx) in indices.iter().enumerate() {
            let expected = i as u64 + 1;
            if *idx != expected {
                return Err(format!(
                    "{run}: garbage_ts samples are not contiguous: expected index \
                     {expected:02}, found {idx:02}"
                ));
            }
        }
        let n = indices.len() as u64;
        match &common {
            None => common = Some((n, run)),
            Some((cn, witness)) if *cn != n => {
                return Err(format!(
                    "garbage_ts sample counts disagree: {witness} has {cn}, {run} has {n}"
                ));
            }
            Some(_) => {}
        }
    }
    Ok(common.map_or(0, |(n, _)| n))
}

/// Validates the `audit.*` counter section of a parsed snapshot (written
/// by `st-bench audit`, see `docs/AUDIT.md`).
///
/// A run carries the section iff any of its metric keys starts with
/// `audit.`. For such a run: every `audit.*` key must be a counter from
/// the canonical vocabulary in [`st_obs::audit`], the core counters
/// (`audit.episodes`, `audit.retires`, `audit.frees`,
/// `audit.violations`) must all be present, `audit.episodes` must be
/// nonzero (a combination that never soaked proves nothing), and
/// `audit.violations` must equal the sum of the per-class
/// `audit.violations.*` counters. Returns the number of runs carrying
/// the section, 0 when the snapshot is not an audit snapshot.
pub fn validate_audit(runs: &[ParsedRun]) -> Result<u64, String> {
    use st_obs::audit;
    const CORE: [&str; 4] = [
        audit::EPISODES,
        audit::RETIRES,
        audit::FREES,
        audit::VIOLATIONS,
    ];
    let mut audited = 0;
    for parsed in runs {
        let run = parsed.label();
        let mut present: Vec<String> = Vec::new();
        for (key, metric) in parsed.metrics.iter() {
            if !key.starts_with("audit.") {
                continue;
            }
            if matches!(metric, st_obs::Metric::Histogram(_)) {
                return Err(format!("{run}: {key} is a histogram, expected a counter"));
            }
            if !CORE.contains(&key) && !audit::VIOLATION_COUNTERS.contains(&key) {
                return Err(format!(
                    "{run}: unknown audit counter {key} (not in the st_obs::audit vocabulary)"
                ));
            }
            present.push(key.to_string());
        }
        if present.is_empty() {
            continue;
        }
        audited += 1;
        for key in CORE {
            if !present.iter().any(|k| k == key) {
                return Err(format!("{run}: audit section missing {key}"));
            }
        }
        if parsed.metrics.counter(audit::EPISODES) == 0 {
            return Err(format!("{run}: audit.episodes is zero"));
        }
        let total = parsed.metrics.counter(audit::VIOLATIONS);
        let by_class = audit::VIOLATION_COUNTERS
            .iter()
            .try_fold(0u64, |sum, &k| sum.checked_add(parsed.metrics.counter(k)))
            .ok_or_else(|| format!("{run}: per-class audit.violations.* counters sum past u64"))?;
        if total != by_class {
            return Err(format!(
                "{run}: audit.violations is {total} but the per-class counters sum to {by_class}"
            ));
        }
    }
    Ok(audited)
}

/// Runs the four snapshot validators ([`validate_per_thread`],
/// [`validate_garbage_series`], [`validate_audit`],
/// [`validate_scheme_counters`]) over a parsed snapshot, as
/// `st-bench check-metrics` reports them: `Ok` with a line for each
/// optional section found consistent, `Err` with a line for each invalid
/// one.
pub fn validate_snapshot(runs: &[ParsedRun]) -> Vec<Result<String, String>> {
    let sections = [
        (
            "per_thread envelope",
            validate_per_thread(runs).map(|()| None),
        ),
        (
            "garbage_ts series",
            validate_garbage_series(runs).map(|n| {
                (n > 0).then(|| format!("garbage_ts series consistent ({n} samples/run)"))
            }),
        ),
        (
            "audit section",
            validate_audit(runs)
                .map(|n| (n > 0).then(|| format!("audit section consistent ({n} runs)"))),
        ),
        (
            "scheme counters",
            validate_scheme_counters(runs)
                .map(|n| (n > 0).then(|| format!("scheme counter families consistent ({n} runs)"))),
        ),
    ];
    sections
        .into_iter()
        .filter_map(|(section, found)| match found {
            Ok(line) => line.map(Ok),
            Err(e) => Some(Err(format!("invalid {section}: {e}"))),
        })
        .collect()
}

/// Per-scheme counter families: every `scheme.*` key a scheme's
/// `report_metrics` may emit, keyed by the scheme's display name
/// (StackTrack reports `st.*` statistics instead and owns no family;
/// schema in `docs/METRICS.md`, per-scheme semantics in
/// `docs/SCHEMES.md`).
const SCHEME_FAMILIES: [(&str, &[&str]); 7] = [
    ("Original", &["scheme.none.leaked"]),
    ("Epoch", &["scheme.epoch.freed"]),
    ("Hazards", &["scheme.hazard.scans"]),
    (
        "DTA",
        &[
            "scheme.dta.anchors",
            "scheme.dta.freezes",
            "scheme.dta.recoveries",
        ],
    ),
    ("RefCount", &["scheme.rc.freed"]),
    (
        "NBR",
        &[
            "scheme.nbr.neutralizations",
            "scheme.nbr.signals_sent",
            "scheme.nbr.freed",
        ],
    ),
    (
        "Hyaline",
        &[
            "scheme.hyaline.dispatches",
            "scheme.hyaline.batch_handoffs",
            "scheme.hyaline.freed",
        ],
    ),
];

/// Validates the `scheme.*` counter section of every parsed run: each
/// key must be a counter from the canonical per-scheme vocabulary
/// (`SCHEME_FAMILIES`), and a run may only carry the family its own
/// scheme owns — a Hazards run reporting `scheme.epoch.freed` means the
/// snapshot's runs were mislabeled or cross-wired. Returns the number
/// of runs carrying at least one scheme counter.
pub fn validate_scheme_counters(runs: &[ParsedRun]) -> Result<u64, String> {
    let mut carrying = 0;
    for parsed in runs {
        let run = parsed.label();
        let own: Option<&[&str]> = SCHEME_FAMILIES
            .iter()
            .find(|(name, _)| *name == parsed.scheme)
            .map(|(_, keys)| *keys);
        let mut any = false;
        for (key, metric) in parsed.metrics.iter() {
            if !key.starts_with("scheme.") {
                continue;
            }
            if matches!(metric, st_obs::Metric::Histogram(_)) {
                return Err(format!("{run}: {key} is a histogram, expected a counter"));
            }
            any = true;
            if !SCHEME_FAMILIES.iter().any(|(_, keys)| keys.contains(&key)) {
                return Err(format!(
                    "{run}: unknown scheme counter {key} (not in any scheme's vocabulary)"
                ));
            }
            if let Some(own) = own {
                if !own.contains(&key) {
                    return Err(format!(
                        "{run}: counter {key} belongs to another scheme's family"
                    ));
                }
            }
        }
        if any {
            carrying += 1;
        }
    }
    Ok(carrying)
}

/// Persists raw results as JSON lines under `out_dir/name.json`, the full
/// metrics snapshot under `out_dir/name.metrics.json`, and the rendered
/// tables under `out_dir/name.md`. `out_dir` must exist; an error names
/// the file it could not write.
pub fn persist(
    out_dir: &Path,
    name: &str,
    results: &[RunResult],
    markdown: &str,
) -> io::Result<()> {
    let json: Vec<String> = results.iter().map(|r| r.to_json().to_string()).collect();
    let files = [
        (format!("{name}.json"), json.join("\n") + "\n"),
        (
            format!("{name}.metrics.json"),
            metrics_snapshot(name, results).to_pretty_string() + "\n",
        ),
        (format!("{name}.md"), markdown.to_string()),
    ];
    for (file, text) in files {
        let path = out_dir.join(file);
        fs::write(&path, text).map_err(naming(&path))?;
    }
    Ok(())
}

/// Prefixes an I/O error's message with `path`, so the caller can report
/// which directory or file failed.
pub(crate) fn naming(path: &Path) -> impl FnOnce(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn ops_formatting() {
        assert_eq!(fmt_ops(12.0), "12");
        assert_eq!(fmt_ops(1_500.0), "1.5K");
        assert_eq!(fmt_ops(2_300_000.0), "2.30M");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    fn sample_result() -> RunResult {
        let mut metrics = MetricsRegistry::new();
        metrics.add("st.ops", 123);
        metrics.add("st.aborts.conflict", 7);
        metrics.add("run.total_ops", 123);
        metrics.record_n("st.segment_length", 16, 40);
        let per_thread = (0..4)
            .map(|thread| PerThread {
                thread,
                ops: if thread == 0 { 33 } else { 30 },
                busy_cycles: 1_000_000,
                garbage: 1,
            })
            .collect();
        RunResult {
            scheme: "stacktrack".into(),
            structure: "list".into(),
            threads: 4,
            duration_ms: 2,
            total_ops: 123,
            ops_per_sec: 61_500.0,
            tx_begun: 200,
            tx_committed: 180,
            aborts_conflict: 7,
            aborts_capacity: 5,
            aborts_explicit: 3,
            aborts_preempted: 2,
            aborts_other: 3,
            fences: 9,
            loads: 1000,
            stores: 500,
            tx_loads: 800,
            tx_stores: 400,
            cas_ops: 11,
            context_switches: 2,
            avg_splits_per_op: 1.5,
            avg_split_length: 16.0,
            slow_ops: 1,
            scans: 6,
            avg_scan_depth: 32.0,
            scan_retries: 0,
            scan_penalty_pct: 0.5,
            garbage: 4,
            live_words: 4096,
            per_thread,
            metrics,
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let results = [sample_result()];
        let doc = metrics_snapshot("fig_demo", &results);
        let parsed = parse_metrics_snapshot(&doc.to_pretty_string()).unwrap();
        assert_eq!(parsed.len(), 1);
        let run = &parsed[0];
        assert_eq!(run.scheme, "stacktrack");
        assert_eq!(run.structure, "list");
        assert_eq!(run.threads, 4);
        assert_eq!(run.metrics, results[0].metrics);
        assert_eq!(run.metrics.counter("st.aborts.conflict"), 7);
        assert_eq!(
            run.metrics.histogram("st.segment_length").unwrap().count(),
            40
        );
        assert_eq!(run.per_thread, results[0].per_thread);
        assert_eq!(validate_per_thread(&parsed), Ok(()));
    }

    #[test]
    fn per_thread_envelope_is_required() {
        let doc = metrics_snapshot("fig_demo", &[sample_result()])
            .to_string()
            .replace("\"per_thread\":", "\"per_thread_gone\":");
        let err = parse_metrics_snapshot(&doc).unwrap_err();
        assert!(err.contains("per_thread"), "{err}");
    }

    #[test]
    fn per_thread_rejects_row_count_mismatch() {
        let mut result = sample_result();
        result.per_thread.pop();
        let doc = metrics_snapshot("fig_demo", &[result]);
        let parsed = parse_metrics_snapshot(&doc.to_string()).unwrap();
        let err = validate_per_thread(&parsed).unwrap_err();
        assert!(err.contains("3 per_thread rows for 4 threads"), "{err}");
    }

    #[test]
    fn per_thread_rejects_non_contiguous_ids() {
        let mut result = sample_result();
        result.per_thread[2].thread = 9;
        let doc = metrics_snapshot("fig_demo", &[result]);
        let parsed = parse_metrics_snapshot(&doc.to_string()).unwrap();
        let err = validate_per_thread(&parsed).unwrap_err();
        assert!(err.contains("not contiguous"), "{err}");
    }

    #[test]
    fn per_thread_rejects_ops_mismatch() {
        let mut result = sample_result();
        result.per_thread[0].ops += 1;
        let doc = metrics_snapshot("fig_demo", &[result]);
        let parsed = parse_metrics_snapshot(&doc.to_string()).unwrap();
        let err = validate_per_thread(&parsed).unwrap_err();
        assert!(err.contains("run.total_ops"), "{err}");
    }

    #[test]
    fn snapshot_rejects_future_schema() {
        let mut doc = metrics_snapshot("x", &[]);
        doc.set("schema_version", SCHEMA_VERSION + 1);
        let err = parse_metrics_snapshot(&doc.to_string()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    /// A hand-built snapshot with one two-thread list run per `(scheme,
    /// metrics)` pair, whose metrics are exactly `metrics` plus the
    /// envelope-required `run.total_ops`.
    fn snapshot_text<K: AsRef<str>>(runs: &[(&str, &[(K, u64)])]) -> String {
        let mut doc = Json::obj();
        doc.set("schema_version", SCHEMA_VERSION);
        let runs: Vec<Json> = runs
            .iter()
            .map(|(scheme, pairs)| {
                let mut metrics = Json::obj();
                metrics.set("run.total_ops", 0u64);
                for (key, value) in pairs.iter() {
                    metrics.set(key.as_ref(), *value);
                }
                let rows: Vec<Json> = (0..2usize)
                    .map(|thread| {
                        PerThread {
                            thread,
                            ops: 0,
                            busy_cycles: 0,
                            garbage: 0,
                        }
                        .to_json()
                    })
                    .collect();
                let mut run = Json::obj();
                run.set("scheme", *scheme);
                run.set("structure", "list");
                run.set("threads", 2u64);
                run.set("per_thread", Json::Arr(rows));
                run.set("metrics", metrics);
                run
            })
            .collect();
        doc.set("runs", Json::Arr(runs));
        doc.to_string()
    }

    fn ts(indices: &[u64]) -> Vec<(String, u64)> {
        indices
            .iter()
            .map(|i| (format!("reclaim.garbage_ts.{i:02}"), 10 * i))
            .collect()
    }

    #[test]
    fn garbage_series_accepts_contiguous_consistent_runs() {
        let a = ts(&[1, 2, 3]);
        let b = ts(&[1, 2, 3]);
        let text = snapshot_text(&[("Epoch", &a), ("StackTrack", &b)]);
        let runs = parse_metrics_snapshot(&text).unwrap();
        assert_eq!(validate_garbage_series(&runs), Ok(3));
    }

    #[test]
    fn garbage_series_without_samples_is_fine() {
        let text = snapshot_text::<&str>(&[("Epoch", &[])]);
        let runs = parse_metrics_snapshot(&text).unwrap();
        assert_eq!(validate_garbage_series(&runs), Ok(0));
    }

    #[test]
    fn garbage_series_rejects_gaps() {
        let a = ts(&[1, 3]);
        let text = snapshot_text(&[("Epoch", &a)]);
        let runs = parse_metrics_snapshot(&text).unwrap();
        let err = validate_garbage_series(&runs).unwrap_err();
        assert!(err.contains("not contiguous"), "{err}");
    }

    #[test]
    fn garbage_series_rejects_missing_first_sample() {
        let a = ts(&[2, 3]);
        let text = snapshot_text(&[("Epoch", &a)]);
        let runs = parse_metrics_snapshot(&text).unwrap();
        let err = validate_garbage_series(&runs).unwrap_err();
        assert!(err.contains("expected index 01"), "{err}");
    }

    #[test]
    fn garbage_series_rejects_count_mismatch_across_runs() {
        let a = ts(&[1, 2, 3]);
        let b = ts(&[1, 2]);
        let text = snapshot_text(&[("Epoch", &a), ("StackTrack", &b)]);
        let runs = parse_metrics_snapshot(&text).unwrap();
        let err = validate_garbage_series(&runs).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
    }

    #[test]
    fn garbage_series_rejects_malformed_index() {
        let a = vec![("reclaim.garbage_ts.x1".to_string(), 5u64)];
        let text = snapshot_text(&[("Epoch", &a)]);
        let runs = parse_metrics_snapshot(&text).unwrap();
        let err = validate_garbage_series(&runs).unwrap_err();
        assert!(err.contains("malformed"), "{err}");
    }

    #[test]
    fn negative_garbage_sample_is_rejected_at_parse() {
        // Non-negativity is enforced by the registry parser itself: a
        // snapshot carrying a negative sample never yields a registry.
        let a = ts(&[1]);
        let good = snapshot_text(&[("Epoch", &a)]);
        let bad = good.replace(
            "\"reclaim.garbage_ts.01\":10",
            "\"reclaim.garbage_ts.01\":-10",
        );
        assert_ne!(good, bad, "replacement did not apply");
        let err = parse_metrics_snapshot(&bad).unwrap_err();
        assert!(err.contains("unsigned"), "{err}");
    }

    fn clean_audit_pairs() -> Vec<(&'static str, u64)> {
        use st_obs::audit;
        let mut pairs = vec![
            (audit::EPISODES, 5),
            (audit::RETIRES, 40),
            (audit::FREES, 40),
            (audit::VIOLATIONS, 0),
        ];
        pairs.extend(audit::VIOLATION_COUNTERS.iter().map(|&k| (k, 0)));
        pairs
    }

    #[test]
    fn audit_section_accepts_a_clean_run() {
        let text = snapshot_text(&[("Hazards", &clean_audit_pairs())]);
        let runs = parse_metrics_snapshot(&text).unwrap();
        assert_eq!(validate_audit(&runs), Ok(1));
    }

    #[test]
    fn audit_section_is_optional() {
        let text = snapshot_text::<&str>(&[("Epoch", &[])]);
        let runs = parse_metrics_snapshot(&text).unwrap();
        assert_eq!(validate_audit(&runs), Ok(0));
    }

    #[test]
    fn audit_section_rejects_violation_sum_mismatch() {
        use st_obs::audit;
        let mut pairs = clean_audit_pairs();
        for (key, value) in pairs.iter_mut() {
            if *key == audit::VIOLATIONS {
                *value = 3;
            }
            if *key == audit::V_LEAK {
                *value = 2;
            }
        }
        let text = snapshot_text(&[("Hazards", &pairs)]);
        let runs = parse_metrics_snapshot(&text).unwrap();
        let err = validate_audit(&runs).unwrap_err();
        assert!(err.contains("sum to 2"), "{err}");
    }

    #[test]
    fn audit_section_rejects_missing_core_counter() {
        use st_obs::audit;
        let pairs: Vec<(&str, u64)> = clean_audit_pairs()
            .into_iter()
            .filter(|(k, _)| *k != audit::RETIRES)
            .collect();
        let text = snapshot_text(&[("Hazards", &pairs)]);
        let runs = parse_metrics_snapshot(&text).unwrap();
        let err = validate_audit(&runs).unwrap_err();
        assert!(err.contains("missing audit.retires"), "{err}");
    }

    #[test]
    fn audit_section_rejects_unknown_counters() {
        let mut pairs = clean_audit_pairs();
        pairs.push(("audit.violations.typo", 1));
        let text = snapshot_text(&[("Hazards", &pairs)]);
        let runs = parse_metrics_snapshot(&text).unwrap();
        let err = validate_audit(&runs).unwrap_err();
        assert!(err.contains("unknown audit counter"), "{err}");
    }

    #[test]
    fn audit_section_rejects_zero_episodes() {
        use st_obs::audit;
        let mut pairs = clean_audit_pairs();
        for (key, value) in pairs.iter_mut() {
            if *key == audit::EPISODES {
                *value = 0;
            }
        }
        let text = snapshot_text(&[("Hazards", &pairs)]);
        let runs = parse_metrics_snapshot(&text).unwrap();
        let err = validate_audit(&runs).unwrap_err();
        assert!(err.contains("audit.episodes is zero"), "{err}");
    }

    #[test]
    fn scheme_counters_accept_every_family() {
        for (scheme, keys) in SCHEME_FAMILIES {
            let pairs: Vec<(&str, u64)> = keys.iter().map(|&k| (k, 3)).collect();
            let text = snapshot_text(&[(scheme, &pairs)]);
            let runs = parse_metrics_snapshot(&text).unwrap();
            assert_eq!(validate_scheme_counters(&runs), Ok(1), "{scheme}");
        }
    }

    #[test]
    fn scheme_counters_are_optional() {
        let text = snapshot_text(&[("StackTrack", &[("st.splits", 2)])]);
        let runs = parse_metrics_snapshot(&text).unwrap();
        assert_eq!(validate_scheme_counters(&runs), Ok(0));
    }

    #[test]
    fn scheme_counters_reject_unknown_keys() {
        let text = snapshot_text(&[("NBR", &[("scheme.nbr.typo", 1)])]);
        let runs = parse_metrics_snapshot(&text).unwrap();
        let err = validate_scheme_counters(&runs).unwrap_err();
        assert!(err.contains("unknown scheme counter"), "{err}");
    }

    #[test]
    fn scheme_counters_reject_cross_wired_families() {
        let text = snapshot_text(&[("Hyaline", &[("scheme.nbr.freed", 1)])]);
        let runs = parse_metrics_snapshot(&text).unwrap();
        let err = validate_scheme_counters(&runs).unwrap_err();
        assert!(err.contains("another scheme's family"), "{err}");
    }

    /// The committed snapshots the hostile documents below edit.
    const FIG2_QUEUE: &str = include_str!("../../../results/fig2_queue.metrics.json");
    const AUDIT: &str = include_str!("../../../results/audit.metrics.json");

    #[test]
    fn garbage_index_past_u64_is_an_error() {
        let text = FIG2_QUEUE.replacen(
            "\"metrics\": {",
            "\"metrics\": {\"reclaim.garbage_ts.99999999999999999999\": 1,",
            1,
        );
        let runs = parse_metrics_snapshot(&text).unwrap();
        let err = validate_garbage_series(&runs).unwrap_err();
        assert!(err.contains("99999999999999999999 is past u64"), "{err}");
    }

    #[test]
    fn per_thread_ops_past_u64_are_an_error() {
        // Two rows whose u64 sum wraps to exactly run.total_ops.
        let mut runs = parse_metrics_snapshot(FIG2_QUEUE).unwrap();
        let run = runs.iter_mut().find(|r| r.threads == 2).unwrap();
        let total = run.metrics.counter("run.total_ops");
        run.per_thread[0].ops = u64::MAX;
        run.per_thread[1].ops = total + 1;
        let err = validate_per_thread(&runs).unwrap_err();
        assert!(err.contains("per_thread ops sum past u64"), "{err}");
    }

    #[test]
    fn audit_counters_past_u64_are_an_error() {
        // Per-class counts whose u64 sum wraps to audit.violations: 0.
        let text = AUDIT
            .replacen(
                "\"audit.violations.double_free\": 0",
                "\"audit.violations.double_free\": 18446744073709551615",
                1,
            )
            .replacen(
                "\"audit.violations.leak\": 0",
                "\"audit.violations.leak\": 1",
                1,
            );
        let runs = parse_metrics_snapshot(&text).unwrap();
        assert_eq!(runs[0].metrics.counter("audit.violations"), 0);
        let err = validate_audit(&runs).unwrap_err();
        assert!(err.contains("counters sum past u64"), "{err}");
    }

    #[test]
    fn flat_summary_keeps_the_fields_experiments_reads() {
        let json = sample_result().to_json();
        for key in crate::experiments::FLAT_FIELDS {
            assert!(json.get(key).is_some(), "missing {key}");
        }
    }
}
