//! Every registered figure runs end to end at a tiny size and persists
//! artifacts that pass the checks `st-bench check-metrics` runs.

use st_bench::figures::{BenchOpts, FIGURES};
use st_bench::report;

#[test]
fn every_figure_persists_artifacts_that_validate() {
    let out = std::env::temp_dir().join(format!("st-figures-{}", std::process::id()));
    let opts = BenchOpts {
        duration_ms: 1,
        scale: 100,
        max_threads: 2,
        out: out.clone(),
        ..BenchOpts::default()
    };
    for figure in FIGURES {
        let stem = figure.stem;
        let results = figure.run(&opts).unwrap_or_else(|e| panic!("{stem}: {e}"));
        for file in [format!("{stem}.json"), format!("{stem}.md")] {
            assert!(out.join(&file).is_file(), "{file} was not written");
        }
        let file = format!("{stem}.metrics.json");
        let text =
            std::fs::read_to_string(out.join(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let runs = report::parse_metrics_snapshot(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            runs.len(),
            results.len(),
            "{file}: one snapshot run per config"
        );
        report::validate_per_thread(&runs).unwrap_or_else(|e| panic!("{file}: {e}"));
        report::validate_garbage_series(&runs).unwrap_or_else(|e| panic!("{file}: {e}"));
        report::validate_audit(&runs).unwrap_or_else(|e| panic!("{file}: {e}"));
        report::validate_scheme_counters(&runs).unwrap_or_else(|e| panic!("{file}: {e}"));
    }
    let _ = std::fs::remove_dir_all(&out);
}

/// The two hand-written command lists, the README's evaluation table and
/// the `st-bench` module doc, name every registered subcommand.
#[test]
fn docs_name_every_subcommand() {
    let readme = include_str!("../README.md");
    let main_doc: Vec<&str> = include_str!("../crates/bench/src/main.rs")
        .lines()
        .filter(|line| line.starts_with("//!"))
        .collect();
    let main_doc = main_doc.join("\n");
    for command in FIGURES.iter().flat_map(|f| f.commands) {
        assert!(
            readme.contains(&format!("{command}`")),
            "README.md does not list {command}"
        );
        assert!(
            main_doc.contains(&format!(" {command}")),
            "the st-bench module doc does not list {command}"
        );
    }
}
