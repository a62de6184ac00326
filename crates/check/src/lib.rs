//! `st-check`: a loom-style bounded schedule explorer for the simulated
//! machine, with linearizability and use-after-free oracles.
//!
//! The StackTrack paper's safety argument rests on a subtle protocol: a
//! reclaimer's stack/register scan is only sound because HTM commits make
//! exposed frames consistent and the `splits`/`oper_counter` re-read loop
//! rejects torn snapshots (Algorithm 1). The simulator is fully
//! deterministic, which enables what real-HTM systems cannot do:
//! *systematically explore interleavings* and mechanically check safety.
//!
//! The pieces:
//!
//! - [`schedule::RecordingController`] plugs into
//!   [`st_machine::ScheduleController`] and expresses a schedule as a
//!   sparse list of *deviations* from a deterministic default policy.
//! - [`harness::run_schedule`] executes one scripted workload under one
//!   schedule with its oracles armed: the heap's use-after-free oracle
//!   and lifecycle ledger ([`st_simheap::Heap::arm_oracles`]) and a
//!   Wing-Gong linearizability check over the recorded operation history
//!   ([`st_structures::history`]).
//! - [`explore::check`] searches the schedule space — bounded DFS over
//!   preemption points, or PCT-style randomized — shrinks any failing
//!   schedule, and serializes it as a [`token::ReplayToken`] that
//!   `st-bench check --replay` reproduces exactly.
//!
//! The harness proves it has teeth via *mutation knobs* ([`Mutation`],
//! declared in `stacktrack` and read by each scheme's executor):
//! disabling StackTrack's consistency re-read or hazard pointers'
//! publish-validate protocol must produce a detected violation within the
//! default budget (see `tests/model_check.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod harness;
pub mod schedule;
pub mod token;

pub use explore::{
    check, replay, shrink_failure, CheckReport, ExploreConfig, ExploreMode, Failure,
};
pub use harness::{run_schedule, CheckConfig, ScheduleOutcome, Violation};
pub use schedule::{Decision, RecordingController};
pub use stacktrack::Mutation;
pub use token::ReplayToken;
