//! StackTrack: automated transactional concurrent memory reclamation.
//!
//! This crate is the reproduction's core contribution — the scheme of
//! *StackTrack: An Automated Transactional Approach to Concurrent Memory
//! Reclamation* (Alistarh, Eugster, Herlihy, Matveev, Shavit; EuroSys 2014):
//!
//! - **Split-transactional execution** ([`thread::StThread`]): every data
//!   structure operation runs as a chain of best-effort hardware
//!   transactions ("segments"), with a checkpoint per basic block and a
//!   dynamic per-(operation, segment) length predictor
//!   ([`predictor::SplitPredictor`], paper section 5.3).
//! - **Stack/register-scanning reclamation** ([`free`]): `FREE` batches
//!   retired nodes; `SCAN_AND_FREE` inspects every registered thread's
//!   exposed shadow stack and register file for references, with the
//!   split-counter consistency protocol of Algorithm 1 (section 5.2) and
//!   the hashed-scan optimization.
//! - **Non-blocking software slow path** ([`thread`], slow mode): an
//!   "everything is hazardous" reference-set protocol (Algorithm 5) entered
//!   when a length-1 segment keeps aborting, with a global slow-path
//!   counter that scanners consult (section 5.4).
//! - **Interior-pointer resolution** via heap range queries (section 5.5).
//!
//! # The instrumentation contract
//!
//! The paper's compiler pass injects a split checkpoint per basic block and
//! keeps operation state in stack slots and registers, which the reclaimer
//! scans. Rust cannot scan native stacks, so operations here are written as
//! *basic-block step closures* against the [`opmem::OpMem`] interface: one
//! closure invocation is one basic block (one checkpoint), and every
//! pointer that must survive a checkpoint lives in a declared **shadow
//! stack slot** (`set_local`), which the framework exposes atomically at
//! segment commit — exactly when the paper's stack writes and
//! `EXPOSE_REGISTERS` become visible. See `DESIGN.md` for the fidelity
//! argument.
//!
//! # Examples
//!
//! ```
//! use stacktrack::{Step, StConfig, StRuntime};
//! use st_simhtm::{HtmConfig, HtmEngine};
//! use st_simheap::{Heap, HeapConfig};
//! use std::sync::Arc;
//!
//! let heap = Arc::new(Heap::new(HeapConfig {
//!     capacity_words: 1 << 18,
//!     ..HeapConfig::small()
//! }));
//! let engine = Arc::new(HtmEngine::new(heap, HtmConfig::default(), 1));
//! let rt = StRuntime::new(engine, StConfig::default(), 1);
//! let mut th = rt.register_thread(0);
//! let mut cpu = rt.test_cpu(0);
//!
//! // A one-block operation: allocate a node, publish a value, retire it.
//! let v = th.run_op(&mut cpu, 0, 1, &mut |m, cpu| {
//!     let node = m.alloc(cpu, 2);
//!     m.store(cpu, node, 0, 42)?;
//!     m.set_local(cpu, 0, node.raw());
//!     m.retire_unlinked(cpu, node)?;
//!     Ok(Step::Done(1))
//! });
//! assert_eq!(v, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod free;
pub mod layout;
pub mod opmem;
pub mod predictor;
pub mod runtime;
pub mod stats;
pub mod thread;

pub use config::{Mutation, ScanMode, StConfig};
pub use opmem::{OpBody, OpMem, Step};
pub use runtime::StRuntime;
pub use stats::StThreadStats;
pub use thread::StThread;
