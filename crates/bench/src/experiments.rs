//! The thirteen measured tables of EXPERIMENTS.md, each found by its
//! header row in document order and rendered from `results/`: seven are
//! row selections of a figure's own `<stem>.md`, six read the flat
//! `<stem>.json` rows ([`FLAT_FIELDS`]) or the `.metrics.json` snapshots.

use crate::report::{self, fmt_f, fmt_ops};
use st_obs::{AbortCause, Json};
use std::path::Path;

/// The flat-summary fields (`RunResult::to_json` keys) the tables read.
pub const FLAT_FIELDS: [&str; 15] = [
    "scheme",
    "threads",
    "ops_per_sec",
    "tx_committed",
    "aborts_conflict",
    "aborts_capacity",
    "fences",
    "cas_ops",
    "garbage",
    "avg_splits_per_op",
    "avg_split_length",
    "scan_penalty_pct",
    "avg_scan_depth",
    "scans",
    "scan_retries",
];

/// A table's header row and its body lines.
type Table = (String, Vec<String>);

/// `doc`, an EXPERIMENTS.md, with its measured tables rendered from `results`.
/// An error names the file or the table header it could not use.
pub fn refresh(doc: &str, results: &Path) -> Result<String, String> {
    let mut tables = tables(results)?.into_iter().peekable();
    let mut lines = doc.split_inclusive('\n').peekable();
    let mut out = String::with_capacity(doc.len());
    while let Some(line) = lines.next() {
        out.push_str(line);
        let separated = lines.peek().is_some_and(|next| next.starts_with("|-"));
        let headed = |(header, _): &Table| separated && line.trim_end() == header;
        if let Some((_, body)) = tables.next_if(headed) {
            out.extend(lines.next());
            out.extend(body);
            while lines.next_if(|line| line.starts_with('|')).is_some() {}
        }
    }
    match tables.next() {
        Some((header, _)) => Err(format!("EXPERIMENTS.md: no table headed {header}")),
        None => Ok(out),
    }
}

/// The thirteen tables, in document order.
fn tables(results: &Path) -> Result<Vec<Table>, String> {
    let read = |file: &str, build: &dyn Fn(&str) -> Result<Table, String>| {
        let path = results.join(file);
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string());
        let table = text.and_then(|text| build(&text));
        table.map_err(|e| format!("{}: {e}", path.display()))
    };
    let rows = |file: &str, threads: &[usize]| read(file, &|text| figure(text, Some(threads)));
    Ok(vec![
        rows("fig1_list.md", &[1, 2, 4, 8, 9, 12, 16])?,
        rows("fig1_skiplist.md", &[1, 4, 8, 9, 16])?,
        rows("fig2_queue.md", &[1, 2, 3, 8, 9, 16])?,
        rows("fig2_hash.md", &[1, 4, 8, 9, 16])?,
        read("warmed/fig3_fig4.json", &fig3)?,
        read("warmed/fig3_fig4.metrics.json", &abort_causes)?,
        read("warmed/fig3_fig4.json", &fig4)?,
        read("fig5_slowpath.md", &fig5)?,
        read("scan_overhead.json", &scan)?,
        rows("ablation_predictor.md", &[1, 8, 16])?,
        read("robustness.md", &|text| figure(text, None))?,
        read("robustness.metrics.json", &garbage_bounds)?,
        read("fig1_list.json", &list_costs)?,
    ])
}

/// A figure's table, with only the rows of `threads` (all when `None`).
fn figure(text: &str, threads: Option<&[usize]>) -> Result<Table, String> {
    let is_row = |line: &&str| line.starts_with('|');
    let mut lines = text.split_inclusive('\n').skip_while(|l| !is_row(l));
    let header = lines.next().ok_or("no table")?.trim_end().to_string();
    let body: Vec<String> = lines.skip(1).take_while(is_row).map(String::from).collect();
    let Some(threads) = threads else {
        return Ok((header, body));
    };
    let row = |t: &usize| {
        let row = body.iter().find(|row| row.starts_with(&format!("| {t} |")));
        row.cloned().ok_or_else(|| no_row(*t))
    };
    Ok((header, threads.iter().map(row).collect::<Result<_, _>>()?))
}

/// Figure 5 without its second column, Slow-0, the baseline of the others.
fn fig5(text: &str) -> Result<Table, String> {
    let (header, body) = figure(text, Some(&[1, 4, 8, 14]))?;
    let without_second = |line: &String| match line.splitn(3, " | ").collect::<Vec<_>>()[..] {
        [first, _, rest] => Ok(format!("{first} | {rest}")),
        _ => Err(format!("{:?} has fewer than three cells", line.trim_end())),
    };
    let body = body.iter().map(without_second).collect::<Result<_, _>>()?;
    Ok((without_second(&header)?, body))
}

fn no_row(threads: usize) -> String {
    format!("no row for {threads} threads")
}

/// Field `key`, one of [`FLAT_FIELDS`], of a flat row, read by `as_t`.
fn field<'a, T>(row: &'a Json, key: &str, as_t: fn(&'a Json) -> Option<T>) -> Result<T, String> {
    debug_assert!(FLAT_FIELDS.contains(&key), "{key} is not in FLAT_FIELDS");
    let value = row.get(key).and_then(as_t);
    value.ok_or_else(|| format!("a row has no {key} of its type"))
}

/// A table of the lines `lines` renders from each thread count's flat rows.
fn per_thread<F>(text: &str, header: &str, threads: &[usize], lines: F) -> Result<Table, String>
where
    F: Fn(usize, &[&Json]) -> Result<String, String>,
{
    let rows = text.lines().map(Json::parse).collect::<Result<Vec<_>, _>>();
    let rows = rows.map_err(|e| e.to_string())?;
    let body = threads.iter().map(|&t| {
        let counted = |row: &&Json| field(row, "threads", Json::as_u64) == Ok(t as u64);
        match rows.iter().filter(counted).collect::<Vec<_>>() {
            found if found.is_empty() => Err(no_row(t)),
            found => lines(t, &found),
        }
    });
    Ok((header.into(), body.collect::<Result<_, _>>()?))
}

/// `v` with thousands separators, as `1,234,567`.
fn grouped(v: u64) -> String {
    match v {
        0..=999 => v.to_string(),
        _ => format!("{},{:03}", grouped(v / 1000), v % 1000),
    }
}

/// Figure 3 (warmed): aborts, and capacity aborts per committed segment.
fn fig3(text: &str) -> Result<Table, String> {
    let header = "| threads | contention | capacity | capacity/segment |";
    per_thread(text, header, &[1, 4, 5, 6, 8, 16], |t, rows| {
        let int = |key| field(rows[0], key, Json::as_u64);
        let capacity = int("aborts_capacity")?;
        let per_segment = fmt_f(capacity as f64 / int("tx_committed")?.max(1) as f64);
        let (conflict, capacity) = (grouped(int("aborts_conflict")?), grouped(capacity));
        let line = format!("| {t} | {conflict} | {capacity} | {per_segment} |\n");
        Ok(line)
    })
}

/// Figure 4 (warmed): splits per operation and split lengths.
fn fig4(text: &str) -> Result<Table, String> {
    let header = "| threads | avg splits/op | avg split length |";
    per_thread(text, header, &[1, 4, 6, 8, 16], |t, rows| {
        let real = |key| field(rows[0], key, Json::as_f64);
        let (splits, length) = (real("avg_splits_per_op")?, real("avg_split_length")?);
        Ok(format!("| {t} | {splits:.1} | {length:.1} |\n"))
    })
}

/// The scan table: each thread count's first row scans per free (F1), its
/// second per ten frees (F10).
fn scan(text: &str) -> Result<Table, String> {
    let header = "| threads | F1 penalty % | F10 penalty % | F10 avg depth (words) \
                  | F10 #scans | retries (F10) |";
    per_thread(text, header, &[1, 4, 8, 16], |t, rows| {
        let [f1, f10] = rows else {
            return Err(format!("no F1 and F10 row pair for {t} threads"));
        };
        let penalty = |row| field(row, "scan_penalty_pct", Json::as_f64).map(fmt_f);
        let (every, tenth) = (penalty(f1)?, penalty(f10)?);
        let depth = field(f10, "avg_scan_depth", Json::as_f64)?;
        let scans = field(f10, "scans", Json::as_u64)?;
        let retries = field(f10, "scan_retries", Json::as_u64)?;
        let line = format!("| {t} | {every} | {tenth} | {depth:.0} | {scans} | {retries} |\n");
        Ok(line)
    })
}

/// The warmed run's segment aborts by cause.
fn abort_causes(text: &str) -> Result<Table, String> {
    let runs = report::parse_metrics_snapshot(text)?;
    let mut body = Vec::new();
    for t in [1, 4, 8, 16] {
        let run = runs.iter().find(|run| run.threads == t);
        let run = run.ok_or_else(|| no_row(t))?;
        let count = |cause| grouped(run.metrics.counter(&format!("st.aborts.{cause}")));
        let counts: Vec<String> = AbortCause::ALL.iter().map(count).collect();
        body.push(format!("| {t} | {} |\n", counts.join(" | ")));
    }
    let causes = AbortCause::ALL.map(AbortCause::key).join(" | ");
    Ok((format!("| threads | {causes} |"), body))
}

/// Peak and deadline backlog of each robustness run's garbage series.
fn garbage_bounds(text: &str) -> Result<Table, String> {
    let runs = report::parse_metrics_snapshot(text)?;
    let samples = report::validate_garbage_series(&runs)?;
    if samples == 0 {
        return Err("no reclaim.garbage_ts series".into());
    }
    let mut body = Vec::new();
    for run in &runs {
        let sample = |k| run.metrics.counter(&format!("reclaim.garbage_ts.{k:02}"));
        let peak = (1..=samples).map(sample).max().unwrap_or(0);
        let (scheme, last) = (&run.scheme, sample(samples));
        body.push(format!("| {scheme} | {peak} | {last} |\n"));
    }
    let header = "| scheme | peak backlog (nodes) | backlog at deadline |";
    Ok((header.into(), body))
}

/// Figure 1a at 8 threads: what each scheme pays, in file order.
fn list_costs(text: &str) -> Result<Table, String> {
    let header = "| scheme | ops/s (8T) | HTM conflict | HTM capacity | fences | CAS | garbage |";
    per_thread(text, header, &[8], |_, rows| {
        let mut lines = String::new();
        for row in rows {
            let mut cells = vec![field(row, "scheme", Json::as_str)?.to_string()];
            cells.push(fmt_ops(field(row, "ops_per_sec", Json::as_f64)?));
            for key in ["aborts_conflict", "aborts_capacity", "fences", "cas_ops"] {
                cells.push(grouped(field(row, key, Json::as_u64)?));
            }
            cells.push(field(row, "garbage", Json::as_u64)?.to_string());
            lines += &format!("| {} |\n", cells.join(" | "));
        }
        Ok(lines)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_are_grouped() {
        assert_eq!(grouped(0), "0");
        assert_eq!(grouped(999), "999");
        assert_eq!(grouped(1_000), "1,000");
        assert_eq!(grouped(954_229), "954,229");
        assert_eq!(grouped(1_234_567), "1,234,567");
    }
}
