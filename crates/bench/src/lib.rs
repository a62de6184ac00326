//! `st-bench` as a library: the experiment runner, figure table,
//! parallel sweep scheduler, and report/persistence layer behind the
//! `st-bench` binary.
//!
//! The binary (`src/main.rs`) reads its arguments with [`cli::parse`] and
//! runs what they ask for; the split exists so integration tests (notably
//! the serial-vs-parallel determinism test and the command-line fuzz test
//! in the workspace `tests/` directory) can parse command lines and drive
//! whole figure sweeps in-process and byte-compare the artifacts they
//! persist.
//!
//! Everything the crate prints goes through [`out!`] and [`err!`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auditcmd;
pub mod checkcmd;
pub mod cli;
pub mod experiment;
pub mod experiments;
pub mod figures;
pub mod report;
pub mod sweep;
pub mod workload;

/// Writes `args` to stderr, or to stdout when `stdout`, and ignores a
/// failed write: output to a closed pipe changes neither the exit code
/// nor the files a command writes.
pub fn emit(stdout: bool, args: std::fmt::Arguments) {
    use std::io::Write;
    let _ = if stdout {
        std::io::stdout().write_fmt(args)
    } else {
        std::io::stderr().write_fmt(args)
    };
}

/// `print!` through [`emit`], which never panics.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => { $crate::emit(true, format_args!($($arg)*)) };
}

/// `eprint!` through [`emit`], which never panics.
#[macro_export]
macro_rules! err {
    ($($arg:tt)*) => { $crate::emit(false, format_args!($($arg)*)) };
}
