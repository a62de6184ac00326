//! Best-effort hardware transactional memory, simulated.
//!
//! StackTrack's correctness and performance both rest on Intel TSX-style
//! best-effort HTM, which is unavailable here (the `xbegin` intrinsics exist
//! in `core::arch`, but TSX hardware does not). This crate substitutes a
//! **TL2-style software transactional engine** over the simulated heap that
//! preserves the two HTM properties the paper's argument uses. Its
//! protocol is versions plus one writer lock: each cache line hashes to a
//! version word, readers validate against those versions without locking,
//! and every writer (a commit, a slow-path store or CAS, a free) runs under
//! the engine's one writer lock, stamping the lines it writes before it
//! writes them.
//!
//! 1. **Atomic, opaque segments.** A transaction's writes (including the
//!    thread's shadow-stack/register exposure) become visible all at once at
//!    commit; reads are validated eagerly against per-cache-line stripe
//!    versions, so a transaction never observes an inconsistent snapshot.
//! 2. **Non-speculative writes doom conflicting transactions.** The
//!    reclaimer's poison ([`HtmEngine::free_object`]) and the slow path's
//!    stores ([`HtmEngine::nontx_write`]) bump stripe versions, so any
//!    in-flight transaction that read those lines aborts before committing —
//!    the paper's "HTM aborts immediately on conflict with non-speculative
//!    code".
//!
//! Every [`Abort`] names its cause in the workspace's one abort taxonomy,
//! [`st_obs::AbortCause`] (conflict, capacity, explicit, spurious,
//! preempted), and an **L1 capacity model** ([`capacity`], whose parameters
//! are constants) shrinks the line budget and adds probabilistic evictions
//! when the SMT sibling context is active — the mechanism behind the
//! paper's capacity-abort explosion once threads outnumber cores
//! (Figure 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abort;
pub mod capacity;
pub mod engine;
pub mod stats;
mod stripes;
pub mod tx;
pub mod util;

pub use abort::Abort;
pub use engine::{HtmConfig, HtmEngine};
pub use stats::HtmStats;
pub use tx::Tx;
