//! Lock-free data structures written once against [`stacktrack::OpMem`].
//!
//! The four structures of the paper's evaluation (section 6) plus its
//! running example, each from the original papers:
//!
//! - [`list`]: the Harris lock-free linked list with Michael's
//!   hazard-compatible `find` (help-unlink on traversal).
//! - [`skiplist`]: the Fraser-Harris lock-free skip list.
//! - [`queue`]: the Michael-Scott lock-free queue.
//! - [`hash`]: a closed-bucket hash table over Harris lists.
//! - [`rbtree`]: the red-black tree of the paper's Algorithm 3 —
//!   transactional readers over a single-writer CLRS tree.
//!
//! Every operation is a *basic-block step closure* (see
//! [`stacktrack::opmem`]): one closure call performs roughly one pointer
//! hop, the granularity at which StackTrack injects split checkpoints. The
//! same bodies run unchanged under every reclamation scheme in
//! `st-reclaim`. Every structure is written against the typed
//! reclamation API (`st_reclaim::mem` — typed guards, `Shared` borrows,
//! `Unlinked` retire proofs; see docs/MEMORY_API.md); the raw
//! `protect`/`retire` surface no longer exists outside the scheme
//! executors themselves.
//!
//! Each structure declares its guard requirement (`guard_requirement()`
//! next to its node layout); harnesses that drive the whole matrix
//! through one factory size guard slots with [`max_guard_requirement`].
//!
//! The matrix itself is written here once, for every harness (the
//! benchmark, the model checker, the integration tests): [`workload`]
//! names the structures ([`StructureKind`]), the operation mix
//! ([`WorkloadSpec`]) and the shared instance that builds, populates and
//! checks a structure and turns a [`history::DsOp`] into its body
//! ([`StructureInstance`]); [`driver`] runs a thread's operations through
//! its scheme executor ([`OpDriver`]), asking an [`OpSource`] policy
//! which operation comes next; [`StructureInstance::run`] runs one
//! operation to completion on an executor (tests, examples).
//!
//! # Conventions
//!
//! - Keys are `u64` in `1..u64::MAX` (0 and `u64::MAX` are the sentinel
//!   keys).
//! - Set operations return `1` for success ("was present" / "inserted" /
//!   "removed") and `0` otherwise, as the operation's result word.
//! - Pointer words carry the Harris deletion mark in bit 0
//!   ([`st_simheap::TaggedPtr`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod hash;
pub mod history;
pub mod list;
pub mod queue;
pub mod rbtree;
pub mod skiplist;
pub mod workload;

pub use driver::{OpDriver, OpSource};
pub use workload::{StructureInstance, StructureKind, WorkloadSpec};

/// The pointwise maximum of every structure's declared guard requirement
/// — what a harness that drives any structure through one factory passes
/// to `SchemeFactoryBuilder::guard_requirement`.
///
/// Using the maximum (the skip list's, today) for every structure keeps
/// guard-table layout — and therefore heap addresses, stripe-conflict
/// patterns, and the committed deterministic figures — identical across
/// structures; per-structure requirements are still the right bound for
/// single-structure harnesses that don't carry that contract.
pub const fn max_guard_requirement() -> st_reclaim::mem::GuardRequirement {
    list::guard_requirement()
        .max(hash::guard_requirement())
        .max(queue::guard_requirement())
        .max(skiplist::guard_requirement())
        .max(rbtree::guard_requirement())
}

#[cfg(test)]
pub(crate) mod testutil {
    use st_machine::Cpu;
    use st_reclaim::{ReclaimConfig, Scheme, SchemeFactory};
    use st_simheap::{Heap, HeapConfig};
    use st_simhtm::{HtmConfig, HtmEngine};
    use std::sync::Arc;

    /// A test heap (no factory).
    pub(crate) fn scheme_env() -> (Arc<Heap>, ()) {
        let heap = Arc::new(Heap::new(HeapConfig {
            capacity_words: 1 << 18,
        }));
        (heap, ())
    }

    /// A factory for `scheme` with `threads` slots, plus its heap.
    pub(crate) fn all_scheme_factories(
        scheme: Scheme,
        threads: usize,
    ) -> (SchemeFactory, Arc<Heap>) {
        let (heap, ()) = scheme_env();
        let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), threads));
        let factory = SchemeFactory::builder(scheme)
            .engine(engine)
            .max_threads(threads)
            .reclaim_config(ReclaimConfig::default())
            .guard_requirement(crate::max_guard_requirement())
            .build();
        (factory, heap)
    }

    /// A standalone CPU on thread slot `id`.
    pub(crate) fn test_cpu(id: usize) -> Cpu {
        Cpu::standalone(id, 0xfeed + id as u64)
    }
}
