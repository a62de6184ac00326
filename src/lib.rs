//! Umbrella crate for the StackTrack (EuroSys 2014) reproduction.
//!
//! Re-exports the workspace crates under one root so that the examples and
//! integration tests in this repository (and downstream users who want the
//! whole stack) can depend on a single package:
//!
//! - [`machine`]: deterministic simulated multicore (virtual time, SMT,
//!   preemption).
//! - [`simheap`]: simulated word-addressable heap with poison-on-free and
//!   interior-pointer range queries.
//! - [`simhtm`]: TL2-style best-effort hardware-transactional-memory
//!   simulator with a conflict/capacity abort taxonomy.
//! - [`stacktrack`]: the paper's contribution — split-transactional
//!   execution with stack/register-scanning memory reclamation.
//! - [`reclaim`]: baseline reclamation schemes (epoch, hazard pointers,
//!   drop-the-anchor, reference counting) behind one interface.
//! - [`structures`]: lock-free list / skip list / queue / hash table
//!   written once against the scheme-neutral memory interface.

#![forbid(unsafe_code)]

pub use st_machine as machine;
pub use st_reclaim as reclaim;
pub use st_simheap as simheap;
pub use st_simhtm as simhtm;
pub use st_structures as structures;
pub use stacktrack;
