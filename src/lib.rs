//! The root package of the StackTrack (EuroSys 2014) reproduction.
//!
//! It carries the repository's examples (`examples/`) and its
//! cross-crate integration tests (`tests/`), which use the workspace
//! crates under their own names (`st_machine`, `stacktrack`, `st_reclaim`,
//! ...; docs/ARCHITECTURE.md maps them). The library itself exports
//! nothing.

#![forbid(unsafe_code)]
