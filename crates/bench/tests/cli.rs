//! Command-line rejection paths of the `st-bench` binary: a zero run
//! length, thread count or job count, a run length or warm-up past its
//! limit, `--schemes` on a figure other than `robustness`, a checker
//! config past its limits, a check with no schedules or audit episodes, a
//! deviation percentage above 100, or a random exploration that never
//! deviates, is a usage error (exit 2) and must leave the output directory
//! untouched; an output path that cannot be written, or a snapshot whose
//! numbers overflow, exits 1 and names it.

use std::path::PathBuf;
use std::process::Command;

/// Runs `st-bench` with `args` plus `--out` set to a fresh, empty
/// directory (`check` takes no `--out` and writes nothing, so it runs
/// without one); returns the exit code, stderr and the files left behind.
fn run_into_empty_out(case: &str, args: &[&str]) -> (Option<i32>, String, Vec<PathBuf>) {
    let out = std::env::temp_dir().join(format!("st-bench-cli-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("create the temporary --out directory");
    let mut command = Command::new(env!("CARGO_BIN_EXE_st-bench"));
    command.args(args);
    if args[0] != "check" {
        command.arg("--out").arg(&out);
    }
    let result = command.output().expect("spawn st-bench");
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
/// audit of no episodes), `--schemes` outside `robustness`, a
/// `--percent` above 100, or `--mode random --percent 0` (every attempt
/// the same schedule) is refused, naming its flag.
#[test]
fn zero_counts_are_usage_errors_that_write_nothing() {
    let cases: [(&str, &[&str], &str); 9] = [
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
        (
            "check-percent",
            &["check", "--percent", "4294967296"],
            "--percent must be at most 100",
        ),
        (
            "audit-percent",
            &["audit", "--percent", "101"],
            "--percent must be at most 100",
        ),
        (
            "random-percent",
            &[
                "check",
                "--mode",
                "random",
                "--percent",
                "0",
                "--schedules",
                "50",
            ],
            "--percent must be at least 1 with --mode random",
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

/// A run length or warm-up past `experiment::MAX_RUN_MS` is refused at
/// parse, naming the limit: past it the deadline in cycles or the heap
/// size would wrap or overflow (a wrapped `--ms 9223372036855` deadline
/// ran about 0.22 virtual ms while recording the full length).
#[test]
fn run_lengths_past_the_limit_are_usage_errors_that_write_nothing() {
    let cases: [(&str, &[&str], &str); 4] = [
        (
            "ms-past-limit",
            &["fig2-queue", "--ms", "1000000001"],
            "--ms must be at most 1000000000",
        ),
        (
            "ms-wrapping-deadline",
            &["fig2-queue", "--ms", "9223372036855"],
            "--ms must be at most 1000000000",
        ),
        (
            "ms-max",
            &["fig2-queue", "--ms", "18446744073709551615"],
            "--ms must be at most 1000000000",
        ),
        (
            "warmup-max",
            &["all", "--ms", "1", "--warmup", "18446744073709551615"],
            "--warmup must be at most 1000000000",
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

/// The warm-up runs on the measured run's heap, so the heap is sized for
/// both: a leaking scheme warmed up for 100 times the run length used to
/// exhaust a heap sized for the run alone.
#[test]
fn a_warm_up_longer_than_the_run_fits_the_heap() {
    let (code, stderr, written) = run_into_empty_out(
        "long-warmup",
        &[
            "fig2-queue",
            "--ms",
            "1",
            "--warmup",
            "100",
            "--threads",
            "1",
            "--scale",
            "100",
        ],
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert_eq!(written.len(), 3, "{written:?}");
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

/// `audit` without `--out` writes no snapshot: run from a checkout root,
/// it leaves the committed `results/audit.metrics.json` byte for byte.
#[test]
fn audit_without_out_leaves_the_committed_snapshot_alone() {
    let root = std::env::temp_dir().join(format!("st-bench-cli-{}-bare-audit", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let results = root.join("results");
    std::fs::create_dir_all(&results).expect("create the temporary results directory");
    let snapshot = results.join("audit.metrics.json");
    let committed = b"{\"schema_version\": 2, \"runs\": []}\n";
    std::fs::write(&snapshot, committed).expect("write the committed snapshot");
    let args = [
        "audit",
        "--structures",
        "list",
        "--schemes",
        "Hazards",
        "--episodes",
        "1",
    ];
    let result = Command::new(env!("CARGO_BIN_EXE_st-bench"))
        .args(args)
        .current_dir(&root)
        .output()
        .expect("spawn st-bench");
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(result.status.code(), Some(0), "{args:?}; stderr: {stderr}");
    assert_eq!(
        std::fs::read(&snapshot).expect("read the snapshot back"),
        committed,
        "{args:?} rewrote results/audit.metrics.json"
    );
    let files: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("read the working directory")
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    assert_eq!(files, [results], "{args:?} wrote elsewhere");
    std::fs::remove_dir_all(&root).expect("remove the temporary directory");
}

/// `check-metrics` on a snapshot whose numbers overflow a `u64` (a
/// garbage_ts index, or counts that wrap to a consistent-looking sum)
/// exits 1 with a message, never a panic or a pass.
#[test]
fn hostile_snapshots_exit_1_with_a_message() {
    // One two-thread run: per_thread `ops`, then its metrics.
    let snapshot = |ops: [u64; 2], metrics: &str| {
        format!(
            "{{\"schema_version\": 2, \"runs\": [{{\"scheme\": \"Epoch\", \
             \"structure\": \"list\", \"threads\": 2, \"per_thread\": [\
             {{\"thread\": 0, \"ops\": {}, \"busy_cycles\": 0, \"garbage\": 0}}, \
             {{\"thread\": 1, \"ops\": {}, \"busy_cycles\": 0, \"garbage\": 0}}], \
             \"metrics\": {{{metrics}}}}}]}}",
            ops[0], ops[1]
        )
    };
    let audit = "\"audit.episodes\": 1, \"audit.retires\": 0, \"audit.frees\": 0, \
                 \"audit.violations\": 0, \"audit.violations.double_free\": 18446744073709551615, \
                 \"audit.violations.leak\": 1";
    let cases = [
        (
            "garbage-index",
            snapshot(
                [0, 0],
                "\"run.total_ops\": 0, \"reclaim.garbage_ts.99999999999999999999\": 1",
            ),
            "is past u64",
        ),
        (
            "per-thread-ops",
            snapshot([u64::MAX, 6], "\"run.total_ops\": 5"),
            "per_thread ops sum past u64",
        ),
        (
            "audit-classes",
            snapshot([0, 0], &format!("\"run.total_ops\": 0, {audit}")),
            "counters sum past u64",
        ),
        (
            "st-aborts",
            snapshot(
                [0, 0],
                "\"run.total_ops\": 0, \"st.aborts.conflict\": 18446744073709551615, \
                 \"st.aborts.capacity\": 1",
            ),
            "st.aborts.* counters sum past u64",
        ),
    ];
    let dir = std::env::temp_dir().join(format!("st-bench-cli-{}-hostile", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the temporary directory");
    for (case, text, message) in cases {
        let path = dir.join(format!("{case}.metrics.json"));
        std::fs::write(&path, text).expect("write the hostile snapshot");
        let (code, stderr) = run(&["check-metrics", path.to_str().expect("a UTF-8 path")]);
        assert_eq!(code, Some(1), "{case} must exit 1; stderr: {stderr}");
        assert!(
            stderr.contains(message),
            "{case} must say {message:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("remove the temporary directory");
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
/// leave `--threads` unbounded), no keys (which would script key 1
/// only), a history longer than the linearizability check searches, or
/// more StackTrack thread contexts than the checker's heap holds. `check`, `check --replay` and `audit`
/// reject each before running anything (`check` writes no files).
#[test]
fn checker_configs_past_their_limits_are_usage_errors() {
    let no_threads = "a check runs at least one thread";
    let no_ops = "a checked thread runs at least one operation";
    let history = "a checked history holds at most 64 operations";
    let contexts = "StackTrack fits at most 7 thread contexts";
    let no_keys = "a check draws keys from 1..=N";
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
    let keyless = [
        "--structures",
        "list",
        "--schemes",
        "Hazards",
        "--keys",
        "0",
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
        (&keyless[..], no_keys),
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
        ("stck1:list:Hazards:t2:o1:k0:s1:mnone:-", no_keys),
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

/// An argument that is not UTF-8 is a usage error, not a panic.
#[cfg(unix)]
#[test]
fn non_utf8_arguments_are_usage_errors() {
    use std::os::unix::ffi::OsStrExt;
    let result = Command::new(env!("CARGO_BIN_EXE_st-bench"))
        .args(["check", "--seed"])
        .arg(std::ffi::OsStr::from_bytes(b"\xff"))
        .output()
        .expect("spawn st-bench");
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(result.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("is not UTF-8"), "{stderr}");
}
