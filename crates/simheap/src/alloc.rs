//! Size-class free-list allocator over the simulated heap.
//!
//! The allocator is deliberately simple: power-of-two size classes, a bump
//! pointer for fresh memory, and per-class LIFO free lists. Two properties
//! matter for the reproduction:
//!
//! - **Type-stable recycling**: a freed slot is only ever reused for the
//!   same size class, so a stale pointer always points at "an object-shaped
//!   hole", mirroring the arena allocators lock-free C code uses. (The
//!   correctness of every scheme here is nevertheless independent of this.)
//! - **A flat block table** with one byte per word the bump pointer has
//!   carved, answering the interior-pointer range queries of paper section
//!   5.5 and the liveness assertions the test suite relies on. Because
//!   recycling is type-stable, a block's start and class never change once
//!   carved: the byte at a block's first word holds its class and liveness,
//!   so `alloc`, `free`, `block_len` and `is_live` are array reads, and
//!   [`Allocator::object_at`] binary-searches the carve-ordered starts for
//!   an interior word. The table grows with the bump pointer: a byte per
//!   carved word and eight per block, never sized by the heap's capacity.

use crate::addr::Addr;

/// Number of size classes (class `c` holds blocks of `1 << c` words).
pub const NUM_CLASSES: usize = 16;

/// Largest supported allocation, in words.
pub const MAX_ALLOC_WORDS: usize = 1 << (NUM_CLASSES - 1);

/// Block-table byte of a block's first word (the other words hold 0).
const START: u8 = 0x40;
/// Block-table bit set while the block is allocated.
const LIVE: u8 = 0x80;
/// Block-table bits holding the size class.
const CLASS: u8 = 0x0F;
const _: () = assert!(NUM_CLASSES - 1 <= CLASS as usize);

/// Information about one carved-out block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjInfo {
    /// Size class (block length is `1 << class`).
    pub class: u8,
    /// Whether the block is currently allocated.
    pub live: bool,
}

/// A block handed out by [`Allocator::alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Base address.
    pub addr: Addr,
    /// Length in words (the request rounded up to its class).
    pub words: u64,
    /// Whether the block came off a free list, still holding its previous
    /// lifetime's words. A block fresh from the bump pointer lies where
    /// nothing has written, so its words are still zero.
    pub recycled: bool,
}

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The heap is out of fresh memory and the class free list is empty.
    OutOfMemory,
    /// The request exceeds [`MAX_ALLOC_WORDS`] or is zero.
    BadSize,
}

/// Running allocator statistics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AllocStats {
    /// Total successful allocations.
    pub allocs: u64,
    /// Total frees.
    pub frees: u64,
    /// Allocations served from a free list (recycled).
    pub recycled: u64,
    /// Currently live objects.
    pub live_objects: u64,
    /// Currently live words (by block size).
    pub live_words: u64,
    /// High-water mark of live words.
    pub peak_live_words: u64,
}

/// The allocator state (kept behind the heap's lock).
#[derive(Debug)]
pub struct Allocator {
    capacity: u64,
    bump: u64,
    free_lists: Vec<Vec<u64>>,
    /// One byte per word below `bump`: `START | class` (plus `LIVE` while
    /// allocated) at a block's first word, 0 elsewhere.
    table: Vec<u8>,
    /// Block starts in carve order, which is address order.
    starts: Vec<u64>,
    stats: AllocStats,
}

fn class_of(words: usize) -> Option<u8> {
    if words == 0 || words > MAX_ALLOC_WORDS {
        return None;
    }
    Some(words.next_power_of_two().trailing_zeros() as u8)
}

impl Allocator {
    /// Creates an allocator over `capacity_words` of heap, reserving word 0
    /// (so that no object ever has the null address).
    pub fn new(capacity_words: u64) -> Self {
        Self {
            capacity: capacity_words,
            bump: 1,
            free_lists: vec![Vec::new(); NUM_CLASSES],
            table: vec![0],
            starts: Vec::new(),
            stats: AllocStats::default(),
        }
    }

    /// Allocates a block of at least `words` words.
    pub fn alloc(&mut self, words: usize) -> Result<Block, AllocError> {
        let class = class_of(words).ok_or(AllocError::BadSize)?;
        let block = 1u64 << class;

        let recycled = self.free_lists[class as usize].pop();
        let start = match recycled {
            Some(idx) => {
                self.stats.recycled += 1;
                idx
            }
            None => {
                if self.bump + block > self.capacity {
                    return Err(AllocError::OutOfMemory);
                }
                let idx = self.bump;
                self.bump += block;
                self.table.resize(self.bump as usize, 0);
                self.starts.push(idx);
                idx
            }
        };

        self.table[start as usize] = START | LIVE | class;
        self.stats.allocs += 1;
        self.stats.live_objects += 1;
        self.stats.live_words += block;
        self.stats.peak_live_words = self.stats.peak_live_words.max(self.stats.live_words);
        Ok(Block {
            addr: Addr::from_index(start),
            words: block,
            recycled: recycled.is_some(),
        })
    }

    /// Returns a block to its class free list.
    ///
    /// # Panics
    ///
    /// Panics on double free or on an address that was never allocated —
    /// both are scheme bugs this reproduction wants loud.
    pub fn free(&mut self, addr: Addr) {
        let start = addr.index();
        let info = self
            .info(start)
            .unwrap_or_else(|| panic!("free of never-allocated address {addr:?}"));
        assert!(info.live, "double free of {addr:?}");
        self.table[start as usize] &= !LIVE;
        self.free_lists[info.class as usize].push(start);
        self.stats.frees += 1;
        self.stats.live_objects -= 1;
        self.stats.live_words -= 1u64 << info.class;
    }

    /// The block starting at word `idx`, if one was ever carved there.
    fn info(&self, idx: u64) -> Option<ObjInfo> {
        let byte = *self.table.get(usize::try_from(idx).ok()?)?;
        (byte & START != 0).then_some(ObjInfo {
            class: byte & CLASS,
            live: byte & LIVE != 0,
        })
    }

    /// Looks up the object containing the word address `raw` (which may
    /// point anywhere inside the object). Returns `(base, info)`.
    pub fn object_at(&self, raw: u64) -> Option<(Addr, ObjInfo)> {
        if raw & 7 != 0 {
            return None;
        }
        let idx = raw >> 3;
        if idx == 0 || idx >= self.bump {
            return None;
        }
        // Carved blocks tile `[1, bump)`, so the last start at or below
        // `idx` is the block holding it.
        let start = self.starts[self.starts.partition_point(|&s| s <= idx) - 1];
        let info = self
            .info(start)
            .expect("every carved start is in the table");
        Some((Addr::from_index(start), info))
    }

    /// Whether `addr` is the base of a currently live object.
    pub fn is_live(&self, addr: Addr) -> bool {
        self.info(addr.index()).is_some_and(|info| info.live)
    }

    /// The block length (in words) of the object based at `addr`, if known.
    pub fn block_len(&self, addr: Addr) -> Option<u64> {
        self.info(addr.index()).map(|info| 1u64 << info.class)
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> AllocStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_rounding() {
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(2), Some(1));
        assert_eq!(class_of(3), Some(2));
        assert_eq!(class_of(4), Some(2));
        assert_eq!(class_of(5), Some(3));
        assert_eq!(class_of(0), None);
        assert_eq!(class_of(MAX_ALLOC_WORDS), Some((NUM_CLASSES - 1) as u8));
        assert_eq!(class_of(MAX_ALLOC_WORDS + 1), None);
    }

    #[test]
    fn alloc_never_returns_null_or_overlap() {
        let mut a = Allocator::new(1 << 16);
        let mut seen = std::collections::HashSet::new();
        for i in 1..100usize {
            let addr = a.alloc(i % 9 + 1).unwrap().addr;
            assert!(!addr.is_null());
            assert!(seen.insert(addr), "overlapping allocation {addr:?}");
        }
    }

    #[test]
    fn recycling_is_type_stable() {
        let mut a = Allocator::new(1 << 12);
        let x = a.alloc(4).unwrap();
        assert!(!x.recycled);
        a.free(x.addr);
        let y = a.alloc(3).unwrap(); // same class (4 words)
        assert_eq!(
            x.addr, y.addr,
            "same-class alloc should recycle the freed slot"
        );
        assert!(y.recycled);
        let z = a.alloc(8).unwrap(); // different class: fresh memory
        assert_ne!(x.addr, z.addr);
        assert!(!z.recycled);
        assert_eq!(a.stats().recycled, 1);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut a = Allocator::new(8);
        assert!(a.alloc(4).is_ok());
        assert_eq!(a.alloc(4), Err(AllocError::OutOfMemory));
        assert_eq!(a.alloc(0), Err(AllocError::BadSize));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = Allocator::new(1 << 10);
        let x = a.alloc(2).unwrap().addr;
        a.free(x);
        a.free(x);
    }

    #[test]
    #[should_panic(expected = "never-allocated")]
    fn foreign_free_panics() {
        let mut a = Allocator::new(1 << 10);
        a.free(Addr::from_index(5));
    }

    #[test]
    fn object_at_resolves_interior_pointers() {
        let mut a = Allocator::new(1 << 12);
        let x = a.alloc(6).unwrap().addr; // class 3, 8 words
        let interior = x.offset(5).raw();
        let (base, info) = a.object_at(interior).unwrap();
        assert_eq!(base, x);
        assert!(info.live);
        // One past the block is not inside.
        assert!(
            a.object_at(x.offset(8).raw()).map(|(b, _)| b) != Some(x),
            "past-the-end must not resolve to this object"
        );
        // Unaligned and null raw values resolve to nothing.
        assert_eq!(a.object_at(x.raw() + 1).map(|(b, _)| b), None);
        assert_eq!(a.object_at(0).map(|(b, _)| b), None);
    }

    #[test]
    fn stats_track_live_and_peak() {
        let mut a = Allocator::new(1 << 12);
        let x = a.alloc(4).unwrap().addr;
        let y = a.alloc(4).unwrap().addr;
        assert_eq!(a.stats().live_objects, 2);
        assert_eq!(a.stats().live_words, 8);
        a.free(x);
        a.free(y);
        assert_eq!(a.stats().live_objects, 0);
        assert_eq!(a.stats().peak_live_words, 8);
    }
}
