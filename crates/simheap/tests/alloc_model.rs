//! Model test of the size-class allocator: seeded random alloc/free
//! sequences over every size class, checked step by step against a
//! reference written the plainest way (a bump pointer, per-class LIFO free
//! lists and a sorted map from block start to class and liveness). The
//! allocator must hand out the same addresses, answer every liveness,
//! block-length and interior-pointer query the same, keep the same stats
//! and panic on the same bad frees; the heap built on it must also hand
//! out zeroed blocks.

use st_machine::rng::Pcg32;
use st_machine::Cpu;
use st_simheap::alloc::{AllocError, AllocStats, Allocator, ObjInfo, MAX_ALLOC_WORDS, NUM_CLASSES};
use st_simheap::{Addr, Heap, HeapConfig};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A StackTrack thread context's request (its class is the largest).
const CONTEXT_WORDS: usize = 16_456;

/// Room for eight largest-class blocks, so runs also reach out-of-memory.
const CAPACITY: u64 = 1 << 18;

#[derive(Default)]
struct Model {
    bump: u64,
    free_lists: Vec<Vec<u64>>,
    blocks: BTreeMap<u64, ObjInfo>,
    stats: AllocStats,
}

impl Model {
    fn new() -> Self {
        Self {
            bump: 1,
            free_lists: vec![Vec::new(); NUM_CLASSES],
            ..Self::default()
        }
    }

    fn alloc(&mut self, words: usize) -> Result<u64, AllocError> {
        if words == 0 || words > MAX_ALLOC_WORDS {
            return Err(AllocError::BadSize);
        }
        let class = words.next_power_of_two().trailing_zeros() as u8;
        let len = 1u64 << class;
        let start = match self.free_lists[class as usize].pop() {
            Some(start) => {
                self.stats.recycled += 1;
                start
            }
            None if self.bump + len > CAPACITY => return Err(AllocError::OutOfMemory),
            None => {
                self.bump += len;
                self.bump - len
            }
        };
        self.blocks.insert(start, ObjInfo { class, live: true });
        self.stats.allocs += 1;
        self.stats.live_objects += 1;
        self.stats.live_words += len;
        self.stats.peak_live_words = self.stats.peak_live_words.max(self.stats.live_words);
        Ok(start)
    }

    fn free(&mut self, start: u64) {
        let info = self
            .blocks
            .get_mut(&start)
            .expect("model frees live blocks");
        assert!(info.live);
        info.live = false;
        self.free_lists[info.class as usize].push(start);
        self.stats.frees += 1;
        self.stats.live_objects -= 1;
        self.stats.live_words -= 1u64 << info.class;
    }

    fn object_at(&self, raw: u64) -> Option<(Addr, ObjInfo)> {
        let idx = raw >> 3;
        if raw & 7 != 0 || idx == 0 {
            return None;
        }
        let (&start, &info) = self.blocks.range(..=idx).next_back()?;
        (idx < start + (1u64 << info.class)).then_some((Addr::from_index(start), info))
    }

    fn block_len(&self, start: u64) -> Option<u64> {
        self.blocks.get(&start).map(|info| 1u64 << info.class)
    }
}

fn cpu() -> Cpu {
    Cpu::standalone(0, 7)
}

/// A request size: mostly the small classes nodes use, sometimes any class
/// (uniform inside its range), sometimes a thread context; now and then a
/// zero or oversized request.
fn draw_words(rng: &mut Pcg32) -> usize {
    match rng.below(64) {
        0 => CONTEXT_WORDS,
        1 => [0, MAX_ALLOC_WORDS + 1][rng.below(2) as usize],
        2..=9 => {
            let class = rng.below(NUM_CLASSES as u64) as u32;
            let lo = (1usize << class >> 1) + 1;
            lo + rng.below(((1u64 << class) - lo as u64 + 1).max(1)) as usize
        }
        _ => 1 + rng.below(16) as usize,
    }
}

/// The panic message of `f`, which must panic.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Checks every query about the words `[lo, hi)` against the model.
fn check_words(alloc: &Allocator, heap: &Heap, model: &Model, lo: u64, hi: u64) {
    for idx in lo..hi {
        let raw = idx << 3;
        let want = model.object_at(raw);
        assert_eq!(alloc.object_at(raw), want, "object_at word {idx}");
        assert_eq!(alloc.object_at(raw | 4), None, "unaligned word {idx}");
        let live_base = want.and_then(|(base, info)| info.live.then_some(base));
        assert_eq!(heap.object_base(raw), live_base, "object_base word {idx}");
        let addr = Addr::from_index(idx);
        let start = model.blocks.get(&idx);
        assert_eq!(
            alloc.is_live(addr),
            start.is_some_and(|i| i.live),
            "is_live {idx}"
        );
        assert_eq!(
            heap.is_live(addr),
            start.is_some_and(|i| i.live),
            "heap is_live {idx}"
        );
        assert_eq!(
            alloc.block_len(addr),
            model.block_len(idx),
            "block_len {idx}"
        );
    }
}

/// Runs `steps` random operations; returns an FNV-1a digest of every
/// allocation result, in order.
fn run(seed: u64, steps: usize) -> u64 {
    let mut rng = Pcg32::new(seed);
    let mut model = Model::new();
    let mut alloc = Allocator::new(CAPACITY);
    let heap = Heap::new(HeapConfig {
        capacity_words: CAPACITY,
    });
    let mut c = cpu();
    let mut live: Vec<u64> = Vec::new();
    let mut freed: Vec<u64> = Vec::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut classes_carved = 0u32;

    for step in 0..steps {
        if live.is_empty() || rng.below(100) < 55 {
            let words = draw_words(&mut rng);
            let recycled_before = model.stats.recycled;
            let want = model.alloc(words);
            let got = alloc.alloc(words);
            let from_heap = heap.alloc_untimed(words);
            let addr = want.map(Addr::from_index);
            assert_eq!(got.map(|b| b.addr), addr, "step {step}: alloc({words})");
            assert_eq!(from_heap, addr, "step {step}: heap alloc({words})");
            digest = (digest ^ addr.map_or(u64::MAX, Addr::raw)).wrapping_mul(0x100_0000_01b3);
            if let Ok(start) = want {
                let block = got.unwrap();
                assert_eq!(block.words, model.block_len(start).unwrap());
                assert_eq!(block.recycled, model.stats.recycled > recycled_before);
                classes_carved |= 1 << block.words.trailing_zeros();
                for off in 0..block.words {
                    assert_eq!(
                        heap.peek(block.addr, off),
                        0,
                        "step {step}: word {off} not zero"
                    );
                }
                // Every word of the block, and one past its end.
                check_words(&alloc, &heap, &model, start, start + block.words + 1);
                // Dirty the block so a recycled copy must be zeroed again.
                heap.poke(block.addr, block.words - 1, 0xD1D1);
                freed.retain(|&f| f != start);
                live.push(start);
            }
        } else {
            let start = live.swap_remove(rng.below(live.len() as u64) as usize);
            model.free(start);
            alloc.free(Addr::from_index(start));
            heap.free(&mut c, Addr::from_index(start));
            freed.push(start);
            let len = model.block_len(start).unwrap();
            check_words(&alloc, &heap, &model, start, start + len + 1);
        }
        assert_eq!(alloc.stats(), model.stats, "step {step}: stats");
        assert_eq!(heap.stats().alloc, model.stats, "step {step}: heap stats");

        if step % 61 == 0 && !freed.is_empty() {
            let start = freed[rng.below(freed.len() as u64) as usize];
            let msg = panic_message(|| alloc.free(Addr::from_index(start)));
            assert!(msg.starts_with("double free"), "step {step}: {msg}");
        }
        if step % 67 == 0 {
            // A word that starts no block: interior, past the bump, or 0.
            let idx = rng.below(model.bump + 64);
            if !model.blocks.contains_key(&idx) {
                let msg = panic_message(|| alloc.free(Addr::from_index(idx)));
                assert!(msg.contains("never-allocated"), "step {step}: {msg}");
            }
        }
        assert_eq!(alloc.stats(), model.stats, "step {step}: after panics");
        if step % 1000 == 999 {
            check_words(&alloc, &heap, &model, 0, model.bump + 2);
        }
    }
    check_words(&alloc, &heap, &model, 0, model.bump + 2);
    assert_eq!(
        classes_carved,
        (1 << NUM_CLASSES) - 1,
        "every size class carved"
    );
    digest
}

#[test]
fn allocator_matches_the_reference_model() {
    // Digests recorded from the allocator's earlier BTreeMap-table
    // implementation: the addresses it hands out shape every recorded
    // result, so they are pinned and the model cannot drift with the code.
    for (seed, want) in [
        (1, 0x504d_39f4_020c_e4de),
        (7, 0x1ee5_3ec0_10a0_ba5f),
        (42, 0x7102_c7f2_4333_9ab7),
    ] {
        assert_eq!(run(seed, 4000), want, "seed {seed}");
    }
}

#[test]
fn heap_frees_of_unknown_addresses_still_panic() {
    let heap = Heap::new(HeapConfig::small());
    let a = heap.alloc_untimed(6).unwrap();
    let msg = panic_message(|| heap.free(&mut cpu(), a.offset(1)));
    assert!(msg.starts_with("free of unknown address"), "{msg}");
}
