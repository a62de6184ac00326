//! Per-cache-line version stamps (TL2's per-location metadata, without
//! its per-stripe locks).
//!
//! Each 64-byte cache line of the simulated heap hashes to one *stripe*: an
//! `AtomicU64` holding the version of the last write that touched a line on
//! it. Transactions validate reads against stripe versions; the engine's
//! writers stamp them while holding its one writer lock, which is what
//! orders writers against each other (versions plus one writer lock).

use st_simheap::Addr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Stripes in the table: a power of two, so a hash masks into range.
const STRIPES: usize = 1 << 16;

/// The global stripe table.
#[derive(Debug)]
pub(crate) struct StripeTable {
    /// From zeroed pages: a run faults in only the stripes it touches.
    stripes: Box<[AtomicU64]>,
}

impl StripeTable {
    /// Creates a table of [`STRIPES`] stripes, all at version 0.
    pub(crate) fn new() -> Self {
        Self {
            stripes: st_simheap::zeroed_words(STRIPES),
        }
    }

    /// The stripe index covering `addr + off`.
    pub(crate) fn index_of(&self, addr: Addr, off: u64) -> u32 {
        self.index_of_line(addr.offset(off).line())
    }

    /// The stripe index covering cache line `line` (the hot-path form:
    /// callers that already walk whole lines skip the per-word address
    /// arithmetic).
    pub(crate) fn index_of_line(&self, line: u64) -> u32 {
        let h = line.wrapping_mul(0x9e3779b97f4a7c15);
        ((h >> 32) & (STRIPES as u64 - 1)) as u32
    }

    /// The version of the last write stamped on a stripe.
    pub(crate) fn version(&self, idx: u32) -> u64 {
        self.stripes[idx as usize].load(Ordering::Relaxed)
    }

    /// Stamps a stripe with a writer's version. Only a writer holding the
    /// engine's writer lock stamps, so versions never go backwards.
    pub(crate) fn stamp(&self, idx: u32, version: u64) {
        self.stripes[idx as usize].store(version, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_line_same_stripe() {
        let t = StripeTable::new();
        // Cover a full line including both boundary words: words 0..8 are
        // line 0, words 8..16 are line 1.
        let a = Addr::from_index(0);
        let line0 = t.index_of(a, 0);
        for off in 0..8 {
            assert_eq!(t.index_of(a, off), line0, "word {off} left line 0");
        }
        let line1 = t.index_of(a, 8);
        for off in 8..16 {
            assert_eq!(t.index_of(a, off), line1, "word {off} left line 1");
        }
        assert_ne!(line0, line1, "adjacent lines must hash independently");
        assert_eq!(t.index_of_line(0), line0);
        assert_eq!(t.index_of_line(1), line1);
    }

    #[test]
    fn indices_stay_in_range() {
        let t = StripeTable::new();
        for line in [0, 1, 12345, u64::MAX / 3, u64::MAX] {
            assert!((t.index_of_line(line) as usize) < STRIPES);
        }
    }

    #[test]
    fn stamp_sets_version() {
        let t = StripeTable::new();
        assert_eq!(t.version(5), 0);
        t.stamp(5, 9);
        assert_eq!(t.version(5), 9);
        assert_eq!(t.version(4), 0, "a stamp touches one stripe");
    }
}
