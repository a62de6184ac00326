//! Command-line rejection paths of the `st-bench` binary: a zero run
//! length, thread count or job count, `--schemes` on a figure other than
//! `robustness`, a checker config past its limits, or a check with no
//! schedules or audit episodes, is a usage error (exit 2) and must leave
//! the output directory untouched; an output path that cannot be written
//! exits 1 and names it.

use std::path::PathBuf;
use std::process::Command;

/// Runs `st-bench` with `args` plus `--out` set to a fresh, empty
/// directory; returns the exit code, stderr and the files left behind.
fn run_into_empty_out(case: &str, args: &[&str]) -> (Option<i32>, String, Vec<PathBuf>) {
    let out = std::env::temp_dir().join(format!("st-bench-cli-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("create the temporary --out directory");
    let result = Command::new(env!("CARGO_BIN_EXE_st-bench"))
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawn st-bench");
    let written = std::fs::read_dir(&out)
        .expect("read the --out directory")
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    std::fs::remove_dir_all(&out).expect("remove the temporary --out directory");
    let stderr = String::from_utf8_lossy(&result.stderr).into_owned();
    (result.status.code(), stderr, written)
}

/// A zero count (a figure run of no time, threads or jobs, a check of no
/// schedules, which would report a pass having explored nothing, or an
/// audit of no episodes) or `--schemes` outside `robustness` is refused,
/// naming its flag.
#[test]
fn zero_counts_are_usage_errors_that_write_nothing() {
    let cases: [(&str, &[&str], &str); 6] = [
        (
            "threads",
            &["fig2-hash", "--ms", "1", "--threads", "0"],
            "--threads must be at least 1",
        ),
        (
            "ms",
            &["fig2-hash", "--ms", "0", "--threads", "2"],
            "--ms must be at least 1",
        ),
        (
            "jobs",
            &["fig2-hash", "--ms", "1", "--jobs", "0"],
            "--jobs must be at least 1",
        ),
        (
            "schemes",
            &["fig1-list", "--ms", "1", "--schemes", "Hazards"],
            "--schemes applies only to robustness",
        ),
        (
            "schedules",
            &["check", "--schedules", "0"],
            "--schedules must be at least 1",
        ),
        (
            "episodes",
            &["audit", "--episodes", "0"],
            "--episodes must be at least 1",
        ),
    ];
    for (case, args, message) in cases {
        let (code, stderr, written) = run_into_empty_out(case, args);
        assert_eq!(code, Some(2), "{args:?} must exit 2; stderr: {stderr}");
        assert!(
            stderr.contains(message),
            "{args:?} must say {message:?}; stderr: {stderr}"
        );
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
}

/// An `--out` that cannot be created fails before any config runs, and a
/// result file that cannot be written fails after the sweep; both exit 1
/// naming the path, without a panic.
#[test]
fn unwritable_output_exits_1_naming_the_path() {
    let base = std::env::temp_dir().join(format!("st-bench-cli-{}-unwritable", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create the temporary directory");
    let file = base.join("file");
    std::fs::write(&file, "").expect("create a regular file");
    let under_file = file.join("sub");
    let out = base.join("out");
    let summary = out.join("fig2_hash.json");
    std::fs::create_dir_all(&summary).expect("block the summary file with a directory");
    for (dir, named) in [(&under_file, &under_file), (&out, &summary)] {
        let dir = dir.to_str().expect("a UTF-8 temporary path");
        let args = [
            "fig2-hash",
            "--ms",
            "1",
            "--threads",
            "1",
            "--scale",
            "100",
            "--out",
            dir,
        ];
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(1), "{args:?} must exit 1; stderr: {stderr}");
        assert!(
            stderr.contains(&named.display().to_string()),
            "{args:?} must name {}; stderr: {stderr}",
            named.display()
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&base).expect("remove the temporary directory");
}

/// Runs `st-bench` with `args`; returns the exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let result = Command::new(env!("CARGO_BIN_EXE_st-bench"))
        .args(args)
        .output()
        .expect("spawn st-bench");
    let stderr = String::from_utf8_lossy(&result.stderr).into_owned();
    (result.status.code(), stderr)
}

/// A checker config past one of its limits: no threads (which would pass
/// without checking anything), a thread with no operations (which would
/// leave `--threads` unbounded), a history longer than the
/// linearizability check searches, or more StackTrack thread contexts
/// than the checker's heap holds. `check`, `check --replay` and `audit`
/// reject each before running anything (`check` writes no files).
#[test]
fn checker_configs_past_their_limits_are_usage_errors() {
    let no_threads = "a check runs at least one thread";
    let no_ops = "a checked thread runs at least one operation";
    let history = "a checked history holds at most 64 operations";
    let contexts = "StackTrack fits at most 7 thread contexts";
    let threadless = [
        "--structures",
        "list",
        "--schemes",
        "Hazards",
        "--threads",
        "0",
    ];
    let idle = [
        "--structures",
        "list",
        "--schemes",
        "Hazards",
        "--threads",
        "1000",
        "--ops",
        "0",
    ];
    let long = [
        "--structures",
        "list",
        "--schemes",
        "Hazards",
        "--threads",
        "3",
        "--ops",
        "21",
    ];
    let wide = [
        "--structures",
        "list",
        "--schemes",
        "StackTrack",
        "--threads",
        "8",
    ];
    for (flags, message) in [
        (&threadless[..], no_threads),
        (&idle[..], no_ops),
        (&long[..], history),
        (&wide[..], contexts),
    ] {
        let (code, stderr) = run(&[&["check"], flags].concat());
        assert_eq!(
            code,
            Some(2),
            "check {flags:?} must exit 2; stderr: {stderr}"
        );
        assert!(stderr.contains(message), "check {flags:?}: {stderr}");

        let (code, stderr, written) = run_into_empty_out("audit", &[&["audit"], flags].concat());
        assert_eq!(
            code,
            Some(2),
            "audit {flags:?} must exit 2; stderr: {stderr}"
        );
        assert!(stderr.contains(message), "audit {flags:?}: {stderr}");
        assert!(written.is_empty(), "audit {flags:?} wrote {written:?}");
    }
    for (token, message) in [
        ("stck1:list:Hazards:t0:o1:k6:s1:mnone:-", no_threads),
        ("stck1:list:Hazards:t1000:o0:k6:s1:mnone:-", no_ops),
        ("stck1:list:Hazards:t3:o21:k6:s1:mnone:-", history),
        ("stck1:list:StackTrack:t8:o1:k6:s1:mnone:-", contexts),
    ] {
        let (code, stderr) = run(&["check", "--replay", token]);
        assert_eq!(code, Some(2), "{token} must exit 2; stderr: {stderr}");
        assert!(stderr.contains(message), "{token}: {stderr}");
    }
    // One step inside each limit still runs.
    for token in [
        "stck1:list:Hazards:t62:o1:k6:s1:mnone:-",
        "stck1:list:Hazards:t3:o20:k6:s1:mnone:-",
        "stck1:list:StackTrack:t7:o1:k6:s1:mnone:-",
    ] {
        let (code, stderr) = run(&["check", "--replay", token]);
        assert_eq!(code, Some(0), "{token} must run clean; stderr: {stderr}");
    }
}
