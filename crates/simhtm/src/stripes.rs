//! Versioned stripe locks (TL2's per-location metadata).
//!
//! Each 64-byte cache line of the simulated heap hashes to one *stripe*: an
//! `AtomicU64` whose low bit is a write lock and whose upper 63 bits are a
//! version stamp. Transactions validate reads against stripe versions;
//! commits and non-transactional "doomed writes" advance them.

use st_simheap::Addr;
use std::sync::atomic::{AtomicU64, Ordering};

/// A stripe value: `version << 1 | locked`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeValue(pub u64);

impl StripeValue {
    /// Whether the stripe is write-locked.
    pub fn locked(self) -> bool {
        self.0 & 1 != 0
    }

    /// The version stamp.
    pub fn version(self) -> u64 {
        self.0 >> 1
    }

    /// An unlocked value with the given version.
    pub fn unlocked(version: u64) -> Self {
        StripeValue(version << 1)
    }

    /// The locked form of this value.
    pub fn as_locked(self) -> Self {
        StripeValue(self.0 | 1)
    }
}

/// The global stripe table.
#[derive(Debug)]
pub struct StripeTable {
    /// From zeroed pages: a run faults in only the stripes it touches.
    stripes: Box<[AtomicU64]>,
    mask: u64,
}

/// The smallest table `StripeTable::new` will build. Requesting fewer
/// stripes (including `size = 0`) silently gets this floor: the index math
/// needs a non-empty power-of-two table, and anything smaller than a
/// cache-line's worth of locks would alias every address onto a handful of
/// stripes and turn the simulator into a single global lock.
pub const MIN_STRIPES: usize = 64;

impl StripeTable {
    /// Creates a table with `size` stripes, rounded up to a power of two
    /// and floored at [`MIN_STRIPES`]. `size = 0` is therefore accepted and
    /// yields the minimum table, never an empty one.
    pub fn new(size: usize) -> Self {
        let size = size.next_power_of_two().max(MIN_STRIPES);
        Self {
            stripes: st_simheap::zeroed_words(size),
            mask: size as u64 - 1,
        }
    }

    /// Number of stripes (always a power of two, at least [`MIN_STRIPES`]).
    pub fn len(&self) -> usize {
        self.stripes.len()
    }

    /// Whether the table is empty. Never true: `new` floors the size at
    /// [`MIN_STRIPES`]. Kept for the `len`/`is_empty` container convention.
    pub fn is_empty(&self) -> bool {
        self.stripes.is_empty()
    }

    /// The stripe index covering `addr + off`.
    pub fn index_of(&self, addr: Addr, off: u64) -> u32 {
        self.index_of_line(addr.offset(off).line())
    }

    /// The stripe index covering cache line `line` (the hot-path form:
    /// callers that already walk whole lines skip the per-word address
    /// arithmetic).
    pub fn index_of_line(&self, line: u64) -> u32 {
        let h = line.wrapping_mul(0x9e3779b97f4a7c15);
        ((h >> 32) & self.mask) as u32
    }

    /// Reads a stripe.
    pub fn read(&self, idx: u32) -> StripeValue {
        StripeValue(self.stripes[idx as usize].load(Ordering::Relaxed))
    }

    /// Attempts to lock a stripe whose current value is `seen`.
    pub fn try_lock(&self, idx: u32, seen: StripeValue) -> bool {
        !seen.locked()
            && self.stripes[idx as usize]
                .compare_exchange(
                    seen.0,
                    seen.as_locked().0,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
    }

    /// Releases a locked stripe, setting its version to `version`.
    ///
    /// # Panics
    ///
    /// Debug-asserts the stripe was locked.
    pub fn release(&self, idx: u32, version: u64) {
        debug_assert!(self.read(idx).locked(), "releasing an unlocked stripe");
        self.stripes[idx as usize].store(StripeValue::unlocked(version).0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_packing() {
        let v = StripeValue::unlocked(42);
        assert!(!v.locked());
        assert_eq!(v.version(), 42);
        let l = v.as_locked();
        assert!(l.locked());
        assert_eq!(l.version(), 42);
    }

    #[test]
    fn same_line_same_stripe() {
        let t = StripeTable::new(1024);
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
    fn size_floor_and_rounding() {
        // `size = 0` is accepted and floored, never an empty table.
        let zero = StripeTable::new(0);
        assert_eq!(zero.len(), MIN_STRIPES);
        assert!(!zero.is_empty());
        // Sub-floor requests get the same floor; larger ones round up to
        // the next power of two.
        assert_eq!(StripeTable::new(1).len(), MIN_STRIPES);
        assert_eq!(StripeTable::new(MIN_STRIPES).len(), MIN_STRIPES);
        assert_eq!(StripeTable::new(65).len(), 128);
        assert_eq!(StripeTable::new(1000).len(), 1024);
        // The floored table still indexes in range.
        let idx = zero.index_of(Addr::from_index(12345), 0);
        assert!((idx as usize) < zero.len());
    }

    #[test]
    fn lock_release_cycle() {
        let t = StripeTable::new(64);
        let idx = 3;
        let seen = t.read(idx);
        assert!(t.try_lock(idx, seen));
        // Locked stripes refuse second lockers.
        assert!(!t.try_lock(idx, t.read(idx)));
        t.release(idx, 7);
        let after = t.read(idx);
        assert!(!after.locked());
        assert_eq!(after.version(), 7);
    }

    #[test]
    fn stale_witness_fails_to_lock() {
        let t = StripeTable::new(64);
        let idx = 5;
        let stale = t.read(idx);
        let fresh = t.read(idx);
        assert!(t.try_lock(idx, fresh));
        t.release(idx, 9);
        assert!(!t.try_lock(idx, stale), "CAS must reject a stale witness");
    }
}
