//! Command-line rejection paths of the `st-bench` binary: a zero run
//! length, thread count or job count, a run length or warm-up past its
//! limit, `--schemes` on a figure other than `robustness`, a checker
//! config past its limits, a check with no schedules or audit episodes, a
//! deviation percentage above 100, or a random exploration that never
//! deviates, is a usage error (exit 2) and must leave the output directory
//! untouched; an output path that cannot be written, or a snapshot whose
//! numbers overflow, exits 1 and names it. Output to a closed pipe changes
//! neither an exit code nor the files written, and `refresh-experiments`
//! refuses bad input without touching EXPERIMENTS.md.

use std::path::{Path, PathBuf};
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

/// Runs `st-bench` with stdout, and stderr too when `both`, on a pipe whose
/// reader was closed before the spawn, so every write fails with EPIPE.
/// Returns the exit code and, when stderr stays open, what it printed.
fn run_on_closed_pipe(args: &[&str], both: bool) -> (Option<i32>, String) {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let mut command = Command::new(env!("CARGO_BIN_EXE_st-bench"));
    command
        .args(args)
        .stdout(writer.try_clone().expect("clone the pipe writer"));
    if both {
        command.stderr(writer);
    }
    let result = command.output().expect("spawn st-bench");
    let stderr = String::from_utf8_lossy(&result.stderr).into_owned();
    (result.status.code(), stderr)
}

/// A usage error whose message goes to a closed pipe still exits 2.
#[test]
fn usage_errors_exit_2_on_a_closed_pipe() {
    let out =
        std::env::temp_dir().join(format!("st-bench-cli-{}-closed-usage", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let out = out.to_str().expect("a UTF-8 temporary path");
    let figure = ["fig2-queue", "--ms", "18446744073709551615", "--out", out];
    assert_eq!(run_on_closed_pipe(&figure, true).0, Some(2));
    assert!(!Path::new(out).exists(), "{figure:?} created {out}");
    assert_eq!(run_on_closed_pipe(&[], true).0, Some(2), "bare st-bench");
}

/// `check-metrics` on a valid snapshot exits 0 whether its report can be
/// read or not.
#[test]
fn check_metrics_exits_0_on_a_closed_pipe() {
    let snapshot = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/fig2_queue.metrics.json"
    );
    for both in [true, false] {
        let (code, stderr) = run_on_closed_pipe(&["check-metrics", snapshot], both);
        assert_eq!(code, Some(0), "stderr closed too: {both}; stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

/// A figure whose table goes to a closed pipe exits 0 and writes the same
/// three files as a run whose output is read.
#[test]
fn a_figure_writes_its_files_on_a_closed_pipe() {
    let base =
        std::env::temp_dir().join(format!("st-bench-cli-{}-closed-figure", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    // `closed`: `None` reads the output, `Some(both)` closes stdout (and
    // stderr when `both`).
    let run_into = |case: &str, closed: Option<bool>| {
        let dir = base.join(case);
        let out = dir.to_str().expect("a UTF-8 temporary path");
        let args = [
            "fig2-hash",
            "--ms",
            "1",
            "--threads",
            "2",
            "--scale",
            "20",
            "--out",
            out,
        ];
        let (code, stderr) = match closed {
            None => run(&args),
            Some(both) => run_on_closed_pipe(&args, both),
        };
        assert_eq!(code, Some(0), "{case}; stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
            .expect("read the --out directory")
            .map(|entry| {
                let path = entry.expect("directory entry").path();
                let bytes = std::fs::read(&path).expect("read a written file");
                (path.file_name().expect("a file name").into(), bytes)
            })
            .collect();
        files.sort();
        files
    };
    let expected = run_into("read", None);
    assert_eq!(expected.len(), 3, "{expected:?}");
    for (case, both) in [("closed-both", true), ("closed-stdout", false)] {
        assert!(
            run_into(case, Some(both)) == expected,
            "{case} wrote other files"
        );
    }
    std::fs::remove_dir_all(&base).expect("remove the temporary directory");
}

/// A fresh working directory holding a copy of the committed `results/`
/// and of the committed EXPERIMENTS.md, whose Figure 4 table carries one
/// stale row that a refresh removes.
fn experiments_copy(case: &str) -> PathBuf {
    fn copy_dir(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).expect("create a directory");
        for entry in std::fs::read_dir(from).expect("read a directory") {
            let path = entry.expect("directory entry").path();
            let target = to.join(path.file_name().expect("a file name"));
            if path.is_dir() {
                copy_dir(&path, &target);
            } else {
                std::fs::copy(&path, &target).expect("copy a file");
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = std::env::temp_dir().join(format!("st-bench-cli-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    copy_dir(&root.join("results"), &dir.join("results"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("read EXPERIMENTS.md");
    let table = "| threads | avg splits/op | avg split length |\n|---|---|---|\n";
    assert!(
        doc.contains(table),
        "EXPERIMENTS.md lost its Figure 4 table"
    );
    let stale = doc.replacen(table, &format!("{table}| 0 | stale | stale |\n"), 1);
    std::fs::write(dir.join("EXPERIMENTS.md"), stale).expect("write EXPERIMENTS.md");
    dir
}

/// Runs `refresh-experiments` with `args` in `dir`; returns the exit code
/// and stderr, which must not report a panic.
fn refresh_in(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let result = Command::new(env!("CARGO_BIN_EXE_st-bench"))
        .arg("refresh-experiments")
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn st-bench");
    let stderr = String::from_utf8_lossy(&result.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{stderr}");
    (result.status.code(), stderr)
}

/// In a fresh copy edited by `edit`, `refresh-experiments` with `args`
/// must exit `exit`, say `message` and leave EXPERIMENTS.md as it was.
fn assert_refused(case: &str, args: &[&str], edit: impl Fn(&Path), exit: i32, message: &str) {
    let dir = experiments_copy(case);
    edit(&dir);
    let before = std::fs::read(dir.join("EXPERIMENTS.md")).expect("read EXPERIMENTS.md");
    let (code, stderr) = refresh_in(&dir, args);
    assert_eq!(code, Some(exit), "{case}; stderr: {stderr}");
    assert!(
        stderr.contains(message),
        "{case} must say {message:?}: {stderr}"
    );
    let after = std::fs::read(dir.join("EXPERIMENTS.md")).expect("read EXPERIMENTS.md");
    assert!(after == before, "{case} rewrote EXPERIMENTS.md");
    std::fs::remove_dir_all(&dir).expect("remove the temporary directory");
}

/// `refresh-experiments` refuses bad input and writes nothing: an argument
/// exits 2 with the usage line; a missing results file, a table header
/// missing from EXPERIMENTS.md, or a results file without a row a table
/// needs exits 1 naming the file or the header. On the whole copy it
/// restores the committed EXPERIMENTS.md.
#[test]
fn refresh_experiments_refuses_bad_input_and_writes_nothing() {
    let usage = "usage: st-bench refresh-experiments";
    assert_refused("refresh-argument", &["now"], |_| {}, 2, usage);
    let warmed = "results/warmed/fig3_fig4.json";
    let remove = |dir: &Path| std::fs::remove_file(dir.join(warmed)).expect("remove a file");
    assert_refused("refresh-missing-file", &[], remove, 1, warmed);
    let bounds = "| scheme | peak backlog (nodes) | backlog at deadline |";
    let rename = |dir: &Path| {
        let path = dir.join("EXPERIMENTS.md");
        let text = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
        assert!(text.contains(bounds), "EXPERIMENTS.md lost {bounds}");
        let renamed = text.replace(bounds, "| scheme | peak | last |");
        std::fs::write(&path, renamed).expect("write EXPERIMENTS.md");
    };
    assert_refused("refresh-missing-header", &[], rename, 1, bounds);
    let drop_8_threads = |dir: &Path| {
        let path = dir.join("results/fig1_list.json");
        let text = std::fs::read_to_string(&path).expect("read fig1_list.json");
        let kept: String = text
            .split_inclusive('\n')
            .filter(|row| !row.contains("\"threads\":8,"))
            .collect();
        assert_ne!(kept, text, "fig1_list.json has no 8-thread rows");
        std::fs::write(&path, kept).expect("write fig1_list.json");
    };
    let no_row = "fig1_list.json: no row for 8 threads";
    assert_refused("refresh-missing-row", &[], drop_8_threads, 1, no_row);

    let dir = experiments_copy("refresh-whole");
    let (code, stderr) = refresh_in(&dir, &[]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let committed = include_str!("../../../EXPERIMENTS.md");
    let refreshed =
        std::fs::read_to_string(dir.join("EXPERIMENTS.md")).expect("read EXPERIMENTS.md");
    assert!(
        refreshed == committed,
        "the stale row survived, or more changed"
    );
    std::fs::remove_dir_all(&dir).expect("remove the temporary directory");
}
