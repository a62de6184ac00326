//! Randomized property tests on the substrates: allocator soundness,
//! tagged-pointer codec, HTM serializability, and scanner completeness.
//!
//! Driven by the simulator's own deterministic `Pcg32` (seeded per case)
//! instead of an external property-testing crate — the build must work with
//! no registry access, and explicit seeds make failures replayable by
//! construction.

use st_machine::rng::Pcg32;
use st_machine::Cpu;
use st_simheap::{Addr, Heap, HeapConfig, TaggedPtr};
use st_simhtm::{HtmConfig, HtmEngine};
use std::collections::HashMap;
use std::sync::Arc;

const CASES: u64 = 64;

fn cpu(thread: usize) -> Cpu {
    Cpu::standalone(thread, 0xF00 + thread as u64)
}

/// Live allocations never overlap, stay 8-aligned, and survive arbitrary
/// interleavings of allocs and frees.
#[test]
fn allocator_soundness() {
    for case in 0..CASES {
        let mut rng = Pcg32::new_stream(0xa110_c8ed, case);
        let steps = 1 + rng.below(199);
        let heap = Heap::new(HeapConfig {
            capacity_words: 1 << 16,
        });
        // (base, requested words, block words)
        let mut live: Vec<(Addr, usize, u64)> = Vec::new();
        for _ in 0..steps {
            let words = 1 + rng.below(39) as usize;
            let free_one = rng.chance(0.5);
            let before = heap.stats().alloc.live_words;
            if free_one && !live.is_empty() {
                let (addr, _, _) = live.swap_remove(0);
                let mut c = cpu(0);
                heap.free(&mut c, addr);
                assert!(!heap.is_live(addr), "case {case}");
            } else if let Ok(addr) = heap.alloc_untimed(words) {
                assert_eq!(addr.raw() % 8, 0, "case {case}");
                assert!(heap.is_live(addr), "case {case}");
                // No overlap with any other live object.
                let block = heap.stats().alloc.live_words - before;
                assert!(block >= words as u64, "case {case}");
                for &(other, _, ob) in &live {
                    let disjoint =
                        addr.index() + block <= other.index() || other.index() + ob <= addr.index();
                    assert!(disjoint, "case {case}: overlap {addr:?} and {other:?}");
                }
                live.push((addr, words, block));
            }
        }
        // Interior resolution agrees with the ground truth.
        for &(addr, words, _) in &live {
            for off in 0..words as u64 {
                assert_eq!(
                    heap.object_base(addr.offset(off).raw()),
                    Some(addr),
                    "case {case}"
                );
            }
        }
    }
}

/// Tagged pointers round-trip through memory words.
#[test]
fn tagged_pointer_roundtrip() {
    for case in 0..CASES {
        let mut rng = Pcg32::new_stream(0x7a66_ed00, case);
        let index = 1 + rng.below((1 << 40) - 1);
        let tag = rng.below(8);
        let p = TaggedPtr::new(Addr::from_index(index), tag);
        let q = TaggedPtr::from_word(p.word());
        assert_eq!(q.addr(), Addr::from_index(index), "case {case}");
        assert_eq!(q.tag(), tag, "case {case}");
        assert_eq!(q.marked(), tag & 1 == 1, "case {case}");
    }
}

/// Committed transactions are serializable: concurrent counter increments
/// through interleaved transactions never lose updates.
#[test]
fn htm_increments_are_serializable() {
    for case in 0..CASES {
        let mut rng = Pcg32::new_stream(0x5e71_a11e, case);
        let steps = 10 + rng.below(190);
        let heap = Arc::new(Heap::new(HeapConfig {
            capacity_words: 1 << 14,
        }));
        let engine = HtmEngine::new(heap.clone(), HtmConfig::default(), 3);
        let counter = heap.alloc_untimed(1).unwrap();
        let mut cpus: Vec<Cpu> = (0..3).map(cpu).collect();
        let mut txs: Vec<Option<st_simhtm::Tx>> = vec![None, None, None];
        let mut commits = 0u64;

        for _ in 0..steps {
            let t = rng.below(3) as usize;
            let c = &mut cpus[t];
            match txs[t].take() {
                None => {
                    // Begin + read-increment-buffer.
                    let mut tx = engine.begin(c);
                    if let Ok(v) = engine.tx_read(c, &mut tx, counter, 0) {
                        if engine.tx_write(c, &mut tx, counter, 0, v + 1).is_ok() {
                            txs[t] = Some(tx);
                        }
                    }
                }
                Some(mut tx) => {
                    if engine.commit(c, &mut tx).is_ok() {
                        commits += 1;
                    }
                }
            }
        }
        // Abandoned transactions never published; the counter equals the
        // number of successful commits exactly (no lost updates).
        assert_eq!(heap.peek(counter, 0), commits, "case {case}");
    }
}

/// The scanner never misses a planted reference: any word pattern placed in
/// a committed shadow slot protects its node. Exhaustive over (tag, slot).
#[test]
fn scanner_has_no_false_negatives() {
    use stacktrack::{OpMem, StConfig, StRuntime, Step};

    for tag in 0u64..8 {
        for slot in 0usize..8 {
            let heap = Arc::new(Heap::new(HeapConfig {
                capacity_words: 1 << 18,
            }));
            let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 2));
            let rt = StRuntime::new(
                engine,
                StConfig {
                    initial_split_length: 1,
                    max_free: 0,
                    ..StConfig::default()
                },
                2,
            );
            let mut holder = rt.register_thread(0);
            let mut reclaimer = rt.register_thread(1);
            let mut cpu_h = rt.test_cpu(0);
            let mut cpu_r = rt.test_cpu(1);

            let cell = heap.alloc_untimed(1).unwrap();
            let x = heap.alloc_untimed(2).unwrap();
            heap.poke(cell, 0, x.raw());

            // Hold a (possibly tagged) reference in an arbitrary slot.
            holder.begin_op(&mut cpu_h, 0, 8);
            let mut hold = |m: &mut dyn OpMem, cpu: &mut Cpu| {
                if m.get_local(cpu, slot) == 0 {
                    let p = m.load(cpu, cell, 0)?;
                    m.set_local(cpu, slot, p | tag);
                }
                Ok(Step::Continue)
            };
            for _ in 0..3 {
                holder.step_op(&mut cpu_h, &mut hold);
            }

            // The reclaimer runs unguarded (StackTrack's transactions
            // protect its reads); winning the raw-word unlink CAS is the
            // `assume_unlinked` proof.
            use st_reclaim::mem::{Atomic, Mem, NodeType, Unlinked};
            use st_reclaim::SchemeThread;
            #[derive(Debug, Clone, Copy)]
            struct TwoWords;
            impl NodeType for TwoWords {
                const WORDS: usize = 2;
            }
            SchemeThread::run_op(&mut reclaimer, &mut cpu_r, 0, 1, &mut |m, cpu| {
                let mut mem = Mem::new(m, cpu);
                let a_cell = Atomic::<TwoWords>::root(cell, 0);
                let cur = a_cell.load_word(&mut mem)?;
                if cur != 0 {
                    a_cell.cas_word(&mut mem, cur, 0)?.expect("unlink");
                    Unlinked::<TwoWords>::assume_unlinked(cur).retire(&mut mem)?;
                }
                Ok(Step::Done(0))
            });
            while reclaimer.idle_work_pending() {
                reclaimer.step_idle(&mut cpu_r);
            }
            assert!(heap.is_live(x), "scan missed slot {slot} with tag {tag}");
        }
    }
}

/// A plain regression: allocator recycling is type-stable across repeated
/// alloc/free cycles.
#[test]
fn allocator_recycles_within_class() {
    let heap = Heap::new(HeapConfig {
        capacity_words: 1 << 16,
    });
    let mut freed_by_class: HashMap<u64, Addr> = HashMap::new();
    let mut c = cpu(0);
    for words in [3usize, 5, 9, 17, 3, 5, 9, 17] {
        let before = heap.stats().alloc.live_words;
        let a = heap.alloc_untimed(words).unwrap();
        let class = heap.stats().alloc.live_words - before;
        if let Some(prev) = freed_by_class.get(&class) {
            assert_eq!(*prev, a, "class {class} must recycle LIFO");
        }
        heap.free(&mut c, a);
        freed_by_class.insert(class, a);
    }
}
