//! Per-thread records in the simulated heap, shared by the baseline
//! schemes.
//!
//! Hazard slots, NBR reservations, Epoch timestamps, DTA anchor records and
//! Hyaline's activity and era words are all the same shape: a few heap
//! words per thread that the owner publishes and every reclaimer reads.
//! [`ThreadSlots`] is that shape, written once: each thread's record is
//! padded to whole cache lines, as real implementations pad to avoid false
//! sharing between publishers. Hazards and NBR also share its one
//! snapshot-and-free pass, [`ThreadSlots::free_unprotected`].

use st_machine::Cpu;
use st_simheap::{Addr, Heap, Word};
use std::collections::HashSet;

/// Words per cache line; every thread's record is padded to a multiple.
const LINE_WORDS: usize = 8;

/// `words` heap words per thread, each thread's record padded to
/// `words.next_multiple_of(8)` words.
#[derive(Debug)]
pub struct ThreadSlots {
    base: Addr,
    threads: usize,
    words: usize,
    stride: usize,
}

impl ThreadSlots {
    /// Allocates the records of `threads` threads, `words` words each, as
    /// one untimed heap block.
    ///
    /// # Panics
    ///
    /// Panics if the heap cannot hold the block.
    pub fn new(heap: &Heap, threads: usize, words: usize) -> Self {
        let stride = words.next_multiple_of(LINE_WORDS);
        let base = heap
            .alloc_untimed((threads * stride).max(1))
            .expect("heap too small for per-thread slots");
        Self {
            base,
            threads,
            words,
            stride,
        }
    }

    /// Threads with a record.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Michael's scan threshold: twice the words every thread together can
    /// publish, so each scan of the records amortizes over many retires
    /// and a stalled thread pins a bounded number of nodes.
    pub fn scan_threshold(&self) -> usize {
        2 * self.threads * self.words
    }

    /// The heap offset of word `word` of `thread`'s record.
    #[inline]
    fn offset(&self, thread: usize, word: usize) -> u64 {
        assert!(word < self.words, "slot word {word} out of range");
        debug_assert!(thread < self.threads, "thread {thread} has no record");
        (thread * self.stride + word) as u64
    }

    /// Loads word `word` of `thread`'s record (one simulated load).
    #[inline]
    pub fn load(&self, heap: &Heap, cpu: &mut Cpu, thread: usize, word: usize) -> Word {
        heap.load(cpu, self.base, self.offset(thread, word))
    }

    /// Stores `value` to word `word` of `thread`'s record (one simulated
    /// store).
    #[inline]
    pub fn store(&self, heap: &Heap, cpu: &mut Cpu, thread: usize, word: usize, value: Word) {
        heap.store(cpu, self.base, self.offset(thread, word), value);
    }

    /// Stores zero to each word of `thread`'s record that `mask` names
    /// (bit `g` for word `g`), lowest first.
    pub fn clear(&self, heap: &Heap, cpu: &mut Cpu, thread: usize, mut mask: u64) {
        while mask != 0 {
            let word = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            self.store(heap, cpu, thread, word, 0);
        }
    }

    /// All records as one `(base, words)` region, padding included: a
    /// re-exposure root for the heap's use-after-free oracle when the
    /// words are published protections.
    pub fn region(&self) -> (Addr, u64) {
        (self.base, (self.threads * self.stride) as u64)
    }

    /// Loads every thread's words, thread-major, and keeps the nonzero
    /// ones.
    fn snapshot(&self, heap: &Heap, cpu: &mut Cpu) -> HashSet<Word> {
        let mut seen = HashSet::with_capacity(self.threads * self.words);
        for thread in 0..self.threads {
            for word in 0..self.words {
                let value = self.load(heap, cpu, thread, word);
                if value != 0 {
                    seen.insert(value);
                }
            }
        }
        seen
    }

    /// Snapshots the records, then frees every node of `retired` that no
    /// word names and keeps the rest in order: the scan of Hazards and the
    /// reclaim half of NBR's broadcast. Returns the number freed.
    pub fn free_unprotected(&self, heap: &Heap, cpu: &mut Cpu, retired: &mut Vec<Addr>) -> u64 {
        let protected = self.snapshot(heap, cpu);
        let before = retired.len();
        retired.retain(|&node| {
            let keep = protected.contains(&node.raw());
            if !keep {
                heap.free(cpu, node);
            }
            keep
        });
        (before - retired.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::test_env;

    #[test]
    fn records_are_padded_to_whole_cache_lines() {
        let (heap, _) = test_env();
        let matrix = ThreadSlots::new(&heap, 8, 34);
        assert_eq!(matrix.stride, 40);
        assert_eq!(matrix.region().1, 320);
        let stamps = ThreadSlots::new(&heap, 8, 1);
        assert_eq!(stamps.stride, 8);
        assert_eq!(stamps.region().1, 64);
    }
}
