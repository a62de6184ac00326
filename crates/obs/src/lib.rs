//! `st-obs`: the unified observability layer of the StackTrack reproduction.
//!
//! The paper's evaluation lives or dies on explaining *why* segments abort
//! (Figure 3) and *where* reclamation time goes (the scan table). Counters
//! for those questions used to be scattered across `simhtm::stats`,
//! `stacktrack::stats`, and ad-hoc per-scheme fields; this crate gives them
//! one schema:
//!
//! - [`MetricsRegistry`] — an ordered, string-keyed map of typed metrics
//!   (monotonic counters and log-scale histograms) with element-wise
//!   [`MetricsRegistry::merge`] for per-thread → per-run aggregation.
//! - [`LogHistogram`] — power-of-two-bucket histograms for skewed
//!   distributions: segment lengths in basic blocks, scan depths in words,
//!   retire-to-free latency in virtual cycles.
//! - [`AbortCause`] — the canonical abort taxonomy every layer reports
//!   against (conflict, capacity, explicit poison, spurious, scheduler
//!   preemption), with [`CauseCounts`] as the fixed-size counter block.
//! - [`Json`] — a dependency-free JSON value with writer and parser, so
//!   snapshots round-trip without `serde` (the build must work offline).
//!
//! Every metrics snapshot is versioned with [`SCHEMA_VERSION`]; the schema
//! itself is documented in `docs/METRICS.md` at the workspace root.
//!
//! # Example
//!
//! ```
//! use st_obs::{Json, MetricsRegistry};
//!
//! let mut a = MetricsRegistry::new();
//! a.add("st.ops", 3);
//! a.record("st.segment_length", 17);
//!
//! let mut b = MetricsRegistry::new();
//! b.add("st.ops", 4);
//! b.record("st.segment_length", 2);
//! a.merge(&b);
//!
//! assert_eq!(a.counter("st.ops"), 7);
//! let json = a.to_json().to_string();
//! let back = MetricsRegistry::from_json(&Json::parse(&json).unwrap()).unwrap();
//! assert_eq!(back.counter("st.ops"), 7);
//! assert_eq!(back.histogram("st.segment_length").unwrap().count(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod audit;
pub mod cause;
pub mod hist;
pub mod json;
pub mod registry;

pub use cause::{AbortCause, CauseCounts};
pub use hist::LogHistogram;
pub use json::{Json, JsonError};
pub use registry::{Metric, MetricsRegistry};

/// Version stamped into every serialized metrics snapshot.
///
/// Bump when a key is renamed, a unit changes, or the snapshot envelope
/// gains/loses required fields; consumers (`st-bench check-metrics` and
/// `refresh-experiments`, external dashboards) key their parsing off this
/// number. History:
/// v1 — initial envelope; v2 — runs carry a required `per_thread` array
/// (thread, ops, busy_cycles, garbage per simulated thread).
pub const SCHEMA_VERSION: u64 = 2;
