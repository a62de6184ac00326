//! Command-line rejection paths of the `st-bench` binary: a zero run
//! length, thread count or job count is a usage error (exit 2) and must
//! leave the output directory untouched.

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

#[test]
fn zero_counts_are_usage_errors_that_write_nothing() {
    let cases: [(&str, &[&str], &str); 3] = [
        (
            "threads",
            &["fig2-hash", "--ms", "1", "--threads", "0"],
            "--threads",
        ),
        ("ms", &["fig2-hash", "--ms", "0", "--threads", "2"], "--ms"),
        ("jobs", &["fig2-hash", "--ms", "1", "--jobs", "0"], "--jobs"),
    ];
    for (case, args, flag) in cases {
        let (code, stderr, written) = run_into_empty_out(case, args);
        assert_eq!(code, Some(2), "{args:?} must exit 2; stderr: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} must be at least 1")),
            "{args:?} must name the flag; stderr: {stderr}"
        );
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
}
