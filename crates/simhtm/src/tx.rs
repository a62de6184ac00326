//! Transaction descriptor: read set, write buffer, footprint.

use crate::util::{U64Map, U64Set};
use st_simheap::{Addr, Word};

/// An in-flight hardware transaction.
///
/// Created by [`crate::HtmEngine::begin`] (or recycled with
/// [`crate::HtmEngine::begin_reuse`], which keeps the internal buffers) and
/// driven through the engine's `tx_*` methods. After an abort the
/// descriptor is dead until reset; the engine enforces this.
#[derive(Debug)]
pub struct Tx {
    /// Read version: global clock at begin.
    pub(crate) rv: u64,
    /// Distinct stripes read (validated at commit).
    pub(crate) read_stripes: Vec<u32>,
    pub(crate) read_seen: U64Set,
    /// Buffered writes in program order; `write_map` indexes them by word.
    pub(crate) write_map: U64Map,
    pub(crate) writes: Vec<(Addr, u64, Word)>,
    /// Distinct cache lines touched (capacity footprint).
    pub(crate) lines: U64Set,
    /// Memo of the most recently admitted cache line (`u64::MAX` = none):
    /// consecutive same-line accesses skip the `lines` probe entirely.
    pub(crate) last_line: u64,
    /// Commit-time scratch: the distinct write stripes, sorted. Rebuilt by
    /// every writing commit but the backing allocation is recycled across
    /// `reset`, like the other descriptor buffers.
    pub(crate) write_stripes: Vec<u32>,
    /// Set after an abort; the descriptor can no longer be used.
    pub(crate) dead: bool,
}

impl Tx {
    pub(crate) fn new(rv: u64) -> Self {
        Self {
            rv,
            read_stripes: Vec::with_capacity(64),
            read_seen: U64Set::with_capacity(64),
            write_map: U64Map::with_capacity(16),
            writes: Vec::with_capacity(16),
            lines: U64Set::with_capacity(64),
            last_line: u64::MAX,
            write_stripes: Vec::with_capacity(16),
            dead: false,
        }
    }

    /// Resets the descriptor for a fresh transaction, keeping buffers.
    pub(crate) fn reset(&mut self, rv: u64) {
        self.rv = rv;
        self.read_stripes.clear();
        self.read_seen.clear();
        self.write_map.clear();
        self.writes.clear();
        self.lines.clear();
        self.last_line = u64::MAX;
        self.write_stripes.clear();
        self.dead = false;
    }

    /// Number of distinct cache lines in the data set.
    pub fn footprint_lines(&self) -> u64 {
        self.lines.len() as u64
    }

    /// Number of buffered writes.
    pub fn pending_writes(&self) -> usize {
        self.writes.len()
    }

    /// Number of distinct stripes in the read set.
    pub fn read_set_len(&self) -> usize {
        self.read_stripes.len()
    }

    /// Whether the transaction has performed no writes.
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }

    pub(crate) fn record_read_stripe(&mut self, stripe: u32) {
        if self.read_seen.insert(u64::from(stripe)) {
            self.read_stripes.push(stripe);
        }
    }

    pub(crate) fn buffered(&self, word_idx: u64) -> Option<Word> {
        self.write_map
            .get(word_idx)
            .map(|i| self.writes[i as usize].2)
    }

    pub(crate) fn buffer_write(&mut self, addr: Addr, off: u64, value: Word) {
        let word_idx = addr.index() + off;
        match self.write_map.get(word_idx) {
            Some(i) => self.writes[i as usize].2 = value,
            None => {
                self.write_map.insert(word_idx, self.writes.len() as u32);
                self.writes.push((addr, off, value));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_stripes_dedup() {
        let mut tx = Tx::new(0);
        tx.record_read_stripe(4);
        tx.record_read_stripe(4);
        tx.record_read_stripe(9);
        assert_eq!(tx.read_set_len(), 2);
    }

    #[test]
    fn write_buffer_last_write_wins() {
        let mut tx = Tx::new(0);
        let a = Addr::from_index(10);
        tx.buffer_write(a, 1, 5);
        tx.buffer_write(a, 1, 7);
        assert_eq!(tx.buffered(11), Some(7));
        assert_eq!(tx.pending_writes(), 1);
        assert_eq!(tx.buffered(10), None);
    }

    #[test]
    fn read_only_detection() {
        let mut tx = Tx::new(0);
        assert!(tx.is_read_only());
        tx.buffer_write(Addr::from_index(2), 0, 1);
        assert!(!tx.is_read_only());
    }

    #[test]
    fn reset_keeps_buffer_capacity() {
        let mut tx = Tx::new(0);
        // Outgrow every initial capacity so the next reservation is a real
        // reallocation, then check a reset recycles it instead of freeing.
        for i in 0..256u64 {
            tx.record_read_stripe(i as u32);
            tx.buffer_write(Addr::from_index(i * 8), 0, i);
            tx.write_stripes.push(i as u32);
        }
        let writes_cap = tx.writes.capacity();
        let stripes_cap = tx.read_stripes.capacity();
        let commit_cap = tx.write_stripes.capacity();
        assert!(writes_cap >= 256 && stripes_cap >= 256 && commit_cap >= 256);
        tx.reset(1);
        assert_eq!(tx.pending_writes(), 0);
        assert_eq!(tx.read_set_len(), 0);
        assert!(tx.write_stripes.is_empty());
        assert_eq!(tx.writes.capacity(), writes_cap);
        assert_eq!(tx.read_stripes.capacity(), stripes_cap);
        assert_eq!(tx.write_stripes.capacity(), commit_cap);
    }

    #[test]
    fn reset_clears_state() {
        let mut tx = Tx::new(0);
        tx.record_read_stripe(1);
        tx.buffer_write(Addr::from_index(3), 0, 9);
        tx.lines.insert(1);
        tx.dead = true;
        tx.reset(5);
        assert_eq!(tx.rv, 5);
        assert_eq!(tx.read_set_len(), 0);
        assert_eq!(tx.pending_writes(), 0);
        assert_eq!(tx.footprint_lines(), 0);
        assert!(!tx.dead);
        assert_eq!(tx.buffered(3), None);
    }
}
