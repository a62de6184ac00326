//! `st-bench` as a library: the experiment runner, figure table,
//! parallel sweep scheduler, and report/persistence layer behind the
//! `st-bench` binary.
//!
//! The binary (`src/main.rs`) is a thin argument parser over these
//! modules; the split exists so integration tests (notably the
//! serial-vs-parallel determinism test in the workspace `tests/`
//! directory) can drive whole figure sweeps in-process and byte-compare
//! the artifacts they persist.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auditcmd;
pub mod checkcmd;
pub mod experiment;
pub mod figures;
pub mod report;
pub mod sweep;
pub mod workload;
