//! Cache-line traffic model.
//!
//! A flat cost model cannot reproduce two effects the paper's evaluation
//! leans on: coherence misses on recently written lines, and the
//! "over-throttle" behaviour of the Michael-Scott queue, whose head/tail
//! words become slower per access as more hardware contexts hammer them
//! (section 6.2 cites Dice et al. for the effect). This module keeps a
//! small, lossy, per-line table of who wrote a line last and how *hot* it
//! is, and converts that into extra virtual-cycle charges.
//!
//! The table is open-addressed by line hash with no collision resolution;
//! a collision just attributes heat to the wrong line, which is acceptable
//! noise for a cost model (real L1 set conflicts behave similarly).

use st_machine::{CostModel, Cycles};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sliding window within which a line is considered recently touched.
const HOT_WINDOW: Cycles = 4_000;

/// Maximum tracked contenders per line (heat saturates here).
const MAX_HEAT: u64 = 32;

/// Words per slot in [`Traffic`]'s table: the virtual time of the last
/// write to the line, the hardware context that performed it (plus one;
/// 0 = none), and a saturating count of distinct recent writers.
const SLOT_WORDS: usize = 3;
const LAST_WRITE: usize = 0;
const LAST_WRITER: usize = 1;
const HEAT: usize = 2;

/// Per-line recent-writer table.
#[derive(Debug)]
pub struct Traffic {
    /// `SLOT_WORDS` words per slot, from zeroed pages: an all-zero slot is
    /// a line nobody has written.
    words: Box<[AtomicU64]>,
    mask: u64,
}

impl Traffic {
    /// Creates a table with `size` slots (rounded up to a power of two).
    pub fn new(size: usize) -> Self {
        let size = size.next_power_of_two().max(64);
        Self {
            words: crate::zeroed_words(size * SLOT_WORDS),
            mask: size as u64 - 1,
        }
    }

    /// Index of the first of `line`'s slot words.
    fn slot(&self, line: u64) -> usize {
        // Fibonacci hashing spreads consecutive lines across the table.
        let h = line.wrapping_mul(0x9e3779b97f4a7c15);
        ((h >> 32) & self.mask) as usize * SLOT_WORDS
    }

    /// Extra charge for a read of `line` by hardware context `ctx` at `now`.
    ///
    /// Reading a line someone else wrote recently costs a coherence miss.
    pub fn on_read(&self, costs: &CostModel, line: u64, ctx: usize, now: Cycles) -> Cycles {
        let (s, w) = (self.slot(line), &self.words);
        let writer = w[s + LAST_WRITER].load(Ordering::Relaxed);
        let when = w[s + LAST_WRITE].load(Ordering::Relaxed);
        if writer != 0 && writer != ctx as u64 + 1 && now.saturating_sub(when) < HOT_WINDOW {
            costs.coherence_miss
        } else {
            0
        }
    }

    /// Extra charge for a write/CAS of `line` by context `ctx` at `now`,
    /// and bookkeeping of the line's heat.
    ///
    /// The returned charge grows with the number of distinct recent writers,
    /// which is what throttles hot CAS words like queue head/tail.
    pub fn on_write(&self, costs: &CostModel, line: u64, ctx: usize, now: Cycles) -> Cycles {
        let (s, w) = (self.slot(line), &self.words);
        let me = ctx as u64 + 1;
        let writer = w[s + LAST_WRITER].load(Ordering::Relaxed);
        let when = w[s + LAST_WRITE].load(Ordering::Relaxed);
        let recent = now.saturating_sub(when) < HOT_WINDOW;

        let heat = if !recent {
            w[s + HEAT].store(0, Ordering::Relaxed);
            0
        } else if writer != 0 && writer != me {
            let h = w[s + HEAT].load(Ordering::Relaxed).min(MAX_HEAT - 1) + 1;
            w[s + HEAT].store(h, Ordering::Relaxed);
            h
        } else {
            // Self-write (or first write ever): ownership migrates to this
            // context, cooling the line one step per write.
            let h = w[s + HEAT].load(Ordering::Relaxed).saturating_sub(1);
            w[s + HEAT].store(h, Ordering::Relaxed);
            h
        };

        w[s + LAST_WRITER].store(me, Ordering::Relaxed);
        w[s + LAST_WRITE].store(now, Ordering::Relaxed);

        let mut extra = 0;
        if writer != 0 && writer != me && recent {
            extra += costs.coherence_miss;
        }
        extra + costs.cas_contention * heat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn cold_reads_are_free() {
        let t = Traffic::new(256);
        assert_eq!(t.on_read(&costs(), 42, 0, 0), 0);
    }

    #[test]
    fn read_after_foreign_write_costs_a_miss() {
        let t = Traffic::new(256);
        let c = costs();
        t.on_write(&c, 42, 1, 100);
        assert_eq!(t.on_read(&c, 42, 0, 150), c.coherence_miss);
        // Reading my own line is free.
        assert_eq!(t.on_read(&c, 42, 1, 150), 0);
    }

    #[test]
    fn heat_decays_after_the_window() {
        let t = Traffic::new(256);
        let c = costs();
        t.on_write(&c, 7, 0, 0);
        t.on_write(&c, 7, 1, 10);
        // Long pause: heat resets, no miss.
        assert_eq!(t.on_write(&c, 7, 2, 10 + HOT_WINDOW + 1), 0);
    }

    #[test]
    fn contended_writes_get_progressively_slower() {
        let t = Traffic::new(256);
        let c = costs();
        let mut prev = t.on_write(&c, 3, 0, 0);
        for (i, ctx) in (1..6).enumerate() {
            let cost = t.on_write(&c, 3, ctx, (i as u64 + 1) * 10);
            assert!(cost >= prev, "heat should not cool while hammered");
            prev = cost;
        }
        assert!(prev >= c.coherence_miss + 2 * c.cas_contention);
    }

    #[test]
    fn heat_saturates() {
        let t = Traffic::new(256);
        let c = costs();
        let mut last = 0;
        for i in 0..64 {
            last = t.on_write(&c, 9, (i % 7) as usize, i * 10);
        }
        assert!(last <= c.coherence_miss + MAX_HEAT * c.cas_contention);
    }
}
