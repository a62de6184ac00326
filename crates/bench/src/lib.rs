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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auditcmd;
pub mod checkcmd;
pub mod cli;
pub mod experiment;
pub mod figures;
pub mod report;
pub mod sweep;
pub mod workload;
