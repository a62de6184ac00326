//! Every registered figure runs end to end at a tiny size and persists
//! artifacts that pass the checks `st-bench check-metrics` runs.

use st_bench::cli::{self, Flag};
use st_bench::figures::{BenchOpts, FIGURES};
use st_bench::{auditcmd, checkcmd, report};

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
        for line in report::validate_snapshot(&runs) {
            line.unwrap_or_else(|e| panic!("{file}: {e}"));
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}

/// The module doc of a source file: its `//!` lines.
fn module_doc(source: &str) -> String {
    let doc: Vec<&str> = source.lines().filter(|l| l.starts_with("//!")).collect();
    doc.join("\n")
}

/// The two hand-written command lists, the README's evaluation table and
/// the `st-bench` module doc, name every registered subcommand; the
/// `st-bench`, `check` and `audit` module docs, docs/TESTING.md and
/// docs/AUDIT.md show every flag the way the generated usage does.
#[test]
fn docs_name_every_subcommand() {
    let readme = include_str!("../README.md");
    let main_doc = module_doc(include_str!("../crates/bench/src/main.rs"));
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
    let figure_flags: Vec<String> = cli::figure_flags().iter().map(Flag::usage).collect();
    let check_flags: Vec<String> = checkcmd::flags().iter().map(Flag::usage).collect();
    let audit_flags: Vec<String> = auditcmd::flags().iter().map(Flag::usage).collect();
    let check_doc = module_doc(include_str!("../crates/bench/src/checkcmd.rs"));
    let audit_doc = module_doc(include_str!("../crates/bench/src/auditcmd.rs"));
    for (doc, text, flags) in [
        ("the st-bench module doc", main_doc.as_str(), &figure_flags),
        ("the st-bench module doc", &main_doc, &check_flags),
        ("the st-bench module doc", &main_doc, &audit_flags),
        ("the check module doc", &check_doc, &check_flags),
        ("the audit module doc", &audit_doc, &audit_flags),
        (
            "docs/TESTING.md",
            include_str!("../docs/TESTING.md"),
            &check_flags,
        ),
        (
            "docs/AUDIT.md",
            include_str!("../docs/AUDIT.md"),
            &audit_flags,
        ),
    ] {
        for flag in flags {
            assert!(text.contains(flag.as_str()), "{doc} does not show {flag}");
        }
    }
}
