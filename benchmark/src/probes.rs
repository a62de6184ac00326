//! Isolated probes: host ns per call of each layer's public functions,
//! named with the same layer prefixes as the traced metrics.

use st_machine::{cpu::ActivityBoard, CostModel, Cpu, HwContext, Topology};
use st_reclaim::mem::{Mem, NodeType};
use st_reclaim::SchemeThread;
use st_simheap::{Heap, HeapConfig};
use st_simhtm::{util::U64Set, HtmConfig, HtmEngine};
use st_structures::list::{self, ListShape};
use stacktrack::{predictor::SplitPredictor, ScanMode, StConfig, StRuntime, Step};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed batches per probe; the probe reports their median.
const BATCHES: usize = 5;

/// Median of `v` (sorts it).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median over [`BATCHES`] batches of the mean ns per call of `f`, after
/// an untimed warm-up of a tenth of a batch.
fn per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let iters = iters.max(1);
    for _ in 0..iters / 10 {
        f();
    }
    let mut batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut batches)
}

/// Median ns of `run` over `iters` fresh states built by `setup` (untimed).
fn per_call_with_setup<S>(iters: u64, mut setup: impl FnMut() -> S, mut run: impl FnMut(S)) -> f64 {
    let mut times: Vec<f64> = (0..iters)
        .map(|_| {
            let state = setup();
            let t = Instant::now();
            run(state);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut times)
}

fn make_cpu(thread: usize) -> Cpu {
    let topo = Topology::haswell();
    Cpu::new(
        thread,
        HwContext::new(&topo, topo.place(thread)),
        Arc::new(CostModel::default()),
        Arc::new(ActivityBoard::new(topo.hw_contexts())),
        42,
    )
}

/// Runs every probe with `iters` calls per batch (`1` for a smoke run) and
/// returns `(metric name, ns per call)`.
pub fn run_all(iters: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    let heap = Heap::new(HeapConfig::default());
    let mut cpu = make_cpu(0);
    let addr = heap.alloc_untimed(8).expect("probe heap");
    out.push((
        "simheap.load_ns",
        per_call(iters, || {
            black_box(heap.load(&mut cpu, addr, 0));
        }),
    ));
    let mut v = 0u64;
    out.push((
        "simheap.store_ns",
        per_call(iters, || {
            v = v.wrapping_add(1);
            heap.store(&mut cpu, addr, 1, v);
        }),
    ));
    out.push((
        "simheap.alloc_free_ns",
        per_call(iters, || {
            let a = heap.alloc(&mut cpu, 2).expect("probe heap");
            heap.free(&mut cpu, a);
        }),
    ));

    // One split segment as StackTrack runs it: the descriptor is recycled
    // with `begin_reuse`, never allocated per segment.
    let heap = Arc::new(Heap::new(HeapConfig::default()));
    let engine = HtmEngine::new(heap.clone(), HtmConfig::default(), 1);
    let mut cpu = make_cpu(0);
    let arr = heap.alloc_untimed(1024).expect("probe heap");
    let mut tx = engine.begin(&mut cpu);
    engine.tx_abort(&mut cpu, &mut tx);
    for (name, reads) in [
        ("simhtm.segment4_ns", 4u64),
        ("simhtm.segment16_ns", 16),
        ("simhtm.segment64_ns", 64),
    ] {
        let ns = per_call(iters, || {
            // Best-effort HTM: retry on (probabilistic capacity) aborts,
            // exactly as client code must.
            'attempt: loop {
                engine.begin_reuse(&mut cpu, &mut tx);
                for i in 0..reads {
                    if engine.tx_read(&mut cpu, &mut tx, arr, i * 8).is_err() {
                        continue 'attempt;
                    }
                }
                if engine.tx_write(&mut cpu, &mut tx, arr, 0, reads).is_err() {
                    continue 'attempt;
                }
                if engine.commit(&mut cpu, &mut tx).is_ok() {
                    break;
                }
            }
        });
        out.push((name, ns));
    }

    let mut set = U64Set::with_capacity(64);
    out.push((
        "simhtm.u64set_insert64_ns",
        per_call(iters, || {
            set.clear();
            for i in 0..64u64 {
                set.insert(black_box(i * 64));
            }
        }),
    ));

    let mut p = SplitPredictor::new(50, 1, 200, 5, 5);
    out.push((
        "stacktrack.predictor_ns",
        per_call(iters, || {
            for split in 0..8usize {
                p.on_abort(0, split);
                p.on_commit(0, split);
                black_box(p.limit(0, split));
            }
        }),
    ));

    out.push(("stacktrack.list_contains_1k_ns", list_contains_1k(iters)));
    for (name, mode) in [
        ("stacktrack.scan_linear_ns", ScanMode::Linear),
        ("stacktrack.scan_hashed_ns", ScanMode::Hashed),
        ("stacktrack.scan_batched_ns", ScanMode::Batched),
    ] {
        out.push((name, scan(mode, (iters / 500).max(1))));
    }
    out
}

/// One full StackTrack-protected search of a 1K-key list.
fn list_contains_1k(iters: u64) -> f64 {
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 20,
        ..HeapConfig::default()
    }));
    let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 1));
    let rt = StRuntime::new(engine, StConfig::default(), 1);
    let mut th = rt.register_thread(0);
    let mut cpu = rt.test_cpu(0);
    let shape = ListShape::new_untimed(&heap);
    for k in 1..=1000u64 {
        shape.insert_untimed(&heap, k * 2);
    }
    let mut key = 1u64;
    per_call(iters / 100, || {
        key = key % 2000 + 1;
        let mut body = list::contains_body(shape, key);
        black_box(SchemeThread::run_op(
            &mut th,
            &mut cpu,
            0,
            list::LIST_SLOTS,
            &mut body,
        ));
    })
}

/// The two-word throwaway node the scan probes retire.
#[derive(Debug, Clone, Copy)]
struct ScanNode;

impl NodeType for ScanNode {
    const WORDS: usize = 2;
}

/// One `SCAN_AND_FREE` of 16 candidates against 8 registered threads.
fn scan(mode: ScanMode, iters: u64) -> f64 {
    per_call_with_setup(
        iters,
        || {
            let heap = Arc::new(Heap::new(HeapConfig {
                capacity_words: 1 << 20,
                ..HeapConfig::default()
            }));
            let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 8));
            let rt = StRuntime::new(
                engine,
                StConfig {
                    scan_mode: mode,
                    max_free: 64, // collect, then force one scan
                    ..StConfig::default()
                },
                8,
            );
            let mut threads: Vec<_> = (0..8).map(|t| rt.register_thread(t)).collect();
            let mut cpu = rt.test_cpu(0);
            // 16 retired nodes in thread 0's free set (disposing of a
            // never-published node routes through the same pipeline).
            for _ in 0..16 {
                threads[0].run_op(&mut cpu, 0, 1, &mut |m, cpu| {
                    let mut mem = Mem::new(m, cpu);
                    let n = mem.alloc::<ScanNode>();
                    n.dispose(&mut mem)?;
                    Ok(Step::Done(0))
                });
            }
            (threads, cpu)
        },
        |(mut threads, mut cpu)| {
            threads[0].force_full_scan(&mut cpu);
            black_box(threads[0].stats().scans);
        },
    )
}
