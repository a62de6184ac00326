//! The measured tables of the committed EXPERIMENTS.md are the ones
//! `st-bench refresh-experiments` renders from the committed `results/`:
//! a regenerated `results/` cannot leave them stale.

use st_bench::experiments;
use std::path::Path;

#[test]
fn committed_tables_match_committed_results() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("read EXPERIMENTS.md");
    let refreshed =
        experiments::refresh(&doc, &root.join("results")).unwrap_or_else(|e| panic!("{e}"));
    let stale = doc
        .lines()
        .zip(refreshed.lines())
        .find(|(old, new)| old != new);
    if let Some((old, new)) = stale {
        panic!("EXPERIMENTS.md has {old:?} where results/ gives {new:?}; run `st-bench refresh-experiments`");
    }
    assert_eq!(doc, refreshed, "run `st-bench refresh-experiments`");
}
