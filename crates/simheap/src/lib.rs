//! Simulated word-addressable heap.
//!
//! All shared memory in this reproduction lives in one simulated heap of
//! 64-bit words. This is the substitute for the raw process memory the C
//! implementation of StackTrack operates on; putting it behind an API gives
//! the reproduction three things the paper got from hardware or libc:
//!
//! - **Type-stable, scannable memory**: the reclaimer can walk any thread's
//!   exposed stack words and compare raw values against a candidate pointer,
//!   exactly like the paper's word-by-word stack scan.
//! - **Allocation metadata with range queries** ([`Heap::object_base`]),
//!   the equivalent of the paper's `malloc` hook used to resolve interior
//!   pointers (section 5.5): a flat block table with one byte per carved
//!   word, so alloc, free and liveness queries are array reads and an
//!   interior pointer costs a binary search over the carved block starts
//!   ([`alloc`]).
//! - **Poison-on-free plus liveness tracking**, which turns any
//!   use-after-free in a scheme or data structure into a deterministic test
//!   failure instead of silent corruption.
//!
//! Addresses ([`Addr`]) are byte-style and 8-aligned, so the low 3 bits of a
//! stored pointer are free for the mark bits lock-free structures need
//! ([`tagged`]).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod alloc;
pub mod heap;
pub mod tagged;
pub mod traffic;

pub use addr::{Addr, Word, NULL};
pub use heap::{
    Heap, HeapConfig, HeapStats, LedgerKind, LedgerStats, LedgerViolation, UafKind, UafViolation,
    POISON,
};
pub use tagged::TaggedPtr;

use std::sync::atomic::AtomicU64;

/// A slice of `len` zero words from the allocator's zeroed memory rather
/// than written one by one. A large slice arrives as fresh pages that the
/// kernel zeroes on first touch, so a table sized for the worst case costs
/// only the pages a run reads or writes. The heap's word slab, its traffic
/// table and simhtm's stripe table are built from it.
#[allow(unsafe_code)]
pub fn zeroed_words(len: usize) -> Box<[AtomicU64]> {
    let slab = Box::<[AtomicU64]>::new_zeroed_slice(len);
    // SAFETY: `AtomicU64` has the size and bit validity of `u64`, so every
    // element's all-zero bytes are initialized as `AtomicU64::new(0)`.
    unsafe { slab.assume_init() }
}
