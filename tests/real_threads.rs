//! Real-OS-thread stress tests for the substrate layers.
//!
//! The discrete-event simulator only ever runs one simulated thread at a
//! time, but the heap and the HTM engine are built from atomics and claim
//! `Sync`. These tests put that claim under genuine preemptive
//! concurrency: several OS threads hammer one engine, whose protocol is
//! versions plus one writer lock. Writers (commits, slow-path stores,
//! frees) take the lock one at a time and stamp a line's version before
//! they write it; readers take no lock and validate against the stamps.
//! So no update may be lost, no committed read may see a torn pair, and
//! no transaction may read the poison of a block freed after it began.
//! (On a single-core host the interleavings come from the OS scheduler;
//! the lost-update check is exact regardless.)

use st_machine::{cpu::ActivityBoard, CostModel, Cpu, HwContext, Topology};
use st_simheap::{Heap, HeapConfig, POISON};
use st_simhtm::{HtmConfig, HtmEngine};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

fn make_cpu(id: usize, board: &Arc<ActivityBoard>) -> Cpu {
    let topo = Topology::haswell();
    Cpu::new(
        id,
        HwContext::new(&topo, topo.place(id)),
        Arc::new(CostModel::default()),
        board.clone(),
        0xAB + id as u64,
    )
}

#[test]
fn tl2_counter_increments_never_lose_updates() {
    const THREADS: usize = 4;
    const ATTEMPTS: u64 = 20_000;

    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 16,
    }));
    let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), THREADS));
    let board = Arc::new(ActivityBoard::new(Topology::haswell().hw_contexts()));
    let counter = heap.alloc_untimed(1).unwrap();
    let commits = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = engine.clone();
            let commits = commits.clone();
            let board = board.clone();
            thread::spawn(move || {
                let mut cpu = make_cpu(t, &board);
                for _ in 0..ATTEMPTS {
                    let mut tx = engine.begin(&mut cpu);
                    let Ok(v) = engine.tx_read(&mut cpu, &mut tx, counter, 0) else {
                        continue;
                    };
                    if engine
                        .tx_write(&mut cpu, &mut tx, counter, 0, v + 1)
                        .is_err()
                    {
                        continue;
                    }
                    if engine.commit(&mut cpu, &mut tx).is_ok() {
                        commits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }

    let total = commits.load(Ordering::Relaxed);
    assert!(total > 0, "some transactions must commit");
    assert_eq!(
        heap.peek(counter, 0),
        total,
        "every committed increment must be visible exactly once"
    );
}

#[test]
fn concurrent_alloc_free_stays_sound() {
    const THREADS: usize = 4;
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 18,
    }));
    let board = Arc::new(ActivityBoard::new(Topology::haswell().hw_contexts()));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let heap = heap.clone();
            let board = board.clone();
            thread::spawn(move || {
                let mut cpu = make_cpu(t, &board);
                let mut mine = Vec::new();
                for i in 0..5_000u64 {
                    if i % 3 == 2 {
                        if let Some(a) = mine.pop() {
                            heap.free(&mut cpu, a);
                        }
                    } else {
                        let a = heap.alloc(&mut cpu, (i % 7 + 1) as usize).unwrap();
                        // Tag the block; nobody else may ever see this value
                        // change under them (blocks are never shared here).
                        heap.store(&mut cpu, a, 0, t as u64 + 1);
                        assert_eq!(heap.peek(a, 0), t as u64 + 1);
                        mine.push(a);
                    }
                }
                for a in mine {
                    heap.free(&mut cpu, a);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }

    let stats = heap.stats().alloc;
    assert_eq!(stats.live_objects, 0, "all blocks returned");
    assert_eq!(stats.allocs, stats.frees);
}

#[test]
fn nontx_writes_doom_real_concurrent_readers() {
    // One thread repeatedly runs read transactions over a block; another
    // free/reallocates it. Readers must either commit a consistent
    // snapshot or abort — never observe a torn mix (checked by writing
    // paired words that must always match).
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 16,
    }));
    let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 2));
    let board = Arc::new(ActivityBoard::new(Topology::haswell().hw_contexts()));
    let block = heap.alloc_untimed(2).unwrap();

    let writer = {
        let engine = engine.clone();
        let board = board.clone();
        thread::spawn(move || {
            let mut cpu = make_cpu(1, &board);
            for i in 1..=10_000u64 {
                // Paired update through the doomed-write primitive; pairs
                // are published one word at a time, so readers rely on
                // version validation to reject the torn middle state.
                engine.nontx_write(&mut cpu, block, 0, i);
                engine.nontx_write(&mut cpu, block, 1, i);
            }
        })
    };

    let mut cpu = make_cpu(0, &board);
    let mut committed = 0u64;
    for _ in 0..10_000 {
        let mut tx = engine.begin(&mut cpu);
        let Ok(a) = engine.tx_read(&mut cpu, &mut tx, block, 0) else {
            continue;
        };
        let Ok(b) = engine.tx_read(&mut cpu, &mut tx, block, 1) else {
            continue;
        };
        if engine.commit(&mut cpu, &mut tx).is_ok() {
            committed += 1;
            // Both words share one cache line, hence one stripe: the two
            // reads validated against the same version, so a committed
            // snapshot can be at most one update apart.
            assert!(a == b || a == b + 1, "torn read: {a} vs {b}");
        }
    }
    writer.join().expect("writer panicked");
    assert!(committed > 0, "reader must commit sometimes");
}

#[test]
fn readers_begun_before_a_free_never_see_its_poison() {
    // A writer frees a block, takes it back (its size class's LIFO free
    // list hands the same block out again) and writes word 0, 20,000
    // times. In lockstep, a reader begins a transaction before each free
    // and reads word 0 until the free dooms it. The free stamps the
    // block's lines before `Heap::free` poisons them, so a read that sees
    // the poison also sees the newer stamp and aborts. A read-only
    // transaction commits every read it validated, so each validated read
    // must return the value written before the free.
    const ROUNDS: u64 = 20_000;
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 16,
    }));
    let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 2));
    let board = Arc::new(ActivityBoard::new(Topology::haswell().hw_contexts()));
    let block = heap.alloc_untimed(2).unwrap();
    // The reader's latest begun transaction and the writer's latest
    // finished round.
    let begun = Arc::new(AtomicU64::new(0));
    let written = Arc::new(AtomicU64::new(0));

    let writer = {
        let engine = engine.clone();
        let board = board.clone();
        let begun = begun.clone();
        let written = written.clone();
        thread::spawn(move || {
            let mut cpu = make_cpu(1, &board);
            for i in 1..=ROUNDS {
                while begun.load(Ordering::Acquire) < i {
                    thread::yield_now();
                }
                engine.free_object(&mut cpu, block);
                let again = engine.heap().alloc(&mut cpu, 2).unwrap();
                assert_eq!(again, block, "the free list hands the block back");
                engine.nontx_write(&mut cpu, block, 0, i);
                written.store(i, Ordering::Release);
            }
        })
    };

    let mut cpu = make_cpu(0, &board);
    for i in 1..=ROUNDS {
        // Begin after the last round's write: the block holds i - 1, and
        // the only poison this transaction can meet is the free that
        // follows its begin.
        while written.load(Ordering::Acquire) < i - 1 {
            assert!(!writer.is_finished(), "the writer stopped at round {i}");
            thread::yield_now();
        }
        let mut tx = engine.begin(&mut cpu);
        begun.store(i, Ordering::Release);
        let mut reads = 0u64;
        while let Ok(v) = engine.tx_read(&mut cpu, &mut tx, block, 0) {
            assert_ne!(v, POISON, "a read validated a block freed after its begin");
            assert_eq!(v, i - 1, "a read saw a write made after its begin");
            reads += 1;
            if reads.is_multiple_of(64) {
                // Lets the writer run on a single-core host.
                thread::yield_now();
            }
        }
    }
    writer.join().expect("writer panicked");
}
