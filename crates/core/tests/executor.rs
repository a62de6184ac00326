//! End-to-end tests of the StackTrack executor: split engine, FREE/scan,
//! slow path, and the safety protocols of paper sections 5.2-5.6.

use st_simheap::{Addr, Heap, HeapConfig};
use st_simhtm::{HtmConfig, HtmEngine};
use stacktrack::{ScanMode, SchemeThread, StConfig, StRuntime, Step};
use std::sync::Arc;

fn runtime_with(config: StConfig, threads: usize) -> Arc<StRuntime> {
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 18,
    }));
    let engine = Arc::new(HtmEngine::new(heap, HtmConfig::default(), threads));
    StRuntime::new(engine, config, threads)
}

fn runtime(threads: usize) -> Arc<StRuntime> {
    runtime_with(StConfig::default(), threads)
}

#[test]
fn locals_survive_across_blocks_and_commits() {
    let rt = runtime_with(
        StConfig {
            initial_split_length: 1, // commit after every basic block
            ..StConfig::default()
        },
        1,
    );
    let mut th = rt.register_thread(0);
    let mut cpu = rt.test_cpu(0);

    let v = th.run_op(&mut cpu, 0, 2, &mut |m, cpu| {
        let i = m.get_local(cpu, 0);
        if i < 10 {
            let acc = m.get_local(cpu, 1);
            m.set_local(cpu, 0, i + 1);
            m.set_local(cpu, 1, acc + i);
            return Ok(Step::Continue);
        }
        let acc = m.get_local(cpu, 1);
        Ok(Step::Done(acc))
    });
    assert_eq!(v, 45, "0+1+...+9 accumulated across segment commits");
    assert!(th.stats().committed_segments >= 10);
    assert_eq!(th.stats().ops, 1);
}

#[test]
fn segments_split_at_the_predicted_limit() {
    let rt = runtime_with(
        StConfig {
            initial_split_length: 5,
            ..StConfig::default()
        },
        1,
    );
    let mut th = rt.register_thread(0);
    let mut cpu = rt.test_cpu(0);

    th.run_op(&mut cpu, 0, 1, &mut |m, cpu| {
        let i = m.get_local(cpu, 0);
        if i < 20 {
            m.set_local(cpu, 0, i + 1);
            return Ok(Step::Continue);
        }
        Ok(Step::Done(0))
    });
    // 21 blocks at limit 5 -> 4 full segments + the final one.
    assert_eq!(th.stats().committed_segments, 5);
    assert!((th.stats().avg_segment_length() - 21.0 / 5.0).abs() < 0.01);
}

#[test]
fn retire_frees_unreferenced_nodes() {
    let rt = runtime(1);
    let mut th = rt.register_thread(0);
    let mut cpu = rt.test_cpu(0);
    let heap = rt.heap().clone();

    let mut nodes = Vec::new();
    for _ in 0..5 {
        let v = th.run_op(&mut cpu, 0, 1, &mut |m, cpu| {
            let n = m.alloc(cpu, 2);
            m.store(cpu, n, 0, 7)?;
            m.retire_unlinked(cpu, n)?;
            Ok(Step::Done(n.raw()))
        });
        nodes.push(Addr::from_raw(v));
    }
    // max_free defaults to 10: nothing scanned yet.
    assert_eq!(th.stats().scans, 0);
    th.force_full_scan(&mut cpu);
    assert_eq!(th.stats().scans, 1);
    for n in nodes {
        assert!(!heap.is_live(n), "retired node {n:?} must be freed");
        assert!(heap.is_poisoned(n, 0));
    }
    assert_eq!(th.outstanding_garbage(), 0);
}

#[test]
fn scan_triggers_automatically_past_max_free() {
    let rt = runtime_with(
        StConfig {
            max_free: 3,
            ..StConfig::default()
        },
        1,
    );
    let mut th = rt.register_thread(0);
    let mut cpu = rt.test_cpu(0);

    for _ in 0..8 {
        th.run_op(&mut cpu, 0, 1, &mut |m, cpu| {
            let n = m.alloc(cpu, 2);
            m.retire_unlinked(cpu, n)?;
            Ok(Step::Done(0))
        });
        while th.idle_work_pending() {
            th.step_idle(&mut cpu);
        }
    }
    assert!(th.stats().scans >= 1, "scan must fire past max_free");
    assert!(th.stats().frees_completed >= 4);
}

#[test]
fn committed_stack_reference_blocks_reclamation() {
    let rt = runtime_with(
        StConfig {
            initial_split_length: 1, // B commits its slot immediately
            max_free: 0,
            ..StConfig::default()
        },
        2,
    );
    let mut a = rt.register_thread(0);
    let mut b = rt.register_thread(1);
    let mut cpu_a = rt.test_cpu(0);
    let mut cpu_b = rt.test_cpu(1);
    let heap = rt.heap().clone();

    // A shared cell A will unlink from; X is the node to reclaim.
    let cell = heap.alloc_untimed(1).unwrap();
    let x = heap.alloc_untimed(2).unwrap();
    heap.poke(cell, 0, x.raw());

    // B: loads X into a shadow slot and stays inside its operation.
    b.begin_op(&mut cpu_b, 0, 1);
    let b_body = |hold: bool| {
        move |m: &mut dyn stacktrack::OpMem, cpu: &mut st_machine::Cpu| {
            if m.get_local(cpu, 0) == 0 && hold {
                let p = m.load_ptr(cpu, cell, 0, 0)?;
                m.set_local(cpu, 0, p);
            }
            if hold {
                Ok(Step::Continue)
            } else {
                Ok(Step::Done(0))
            }
        }
    };
    // Step B until its slot is committed (limit 1: each block commits).
    for _ in 0..4 {
        let mut body = b_body(true);
        assert!(b.step_op(&mut cpu_b, &mut body).is_none());
    }
    assert_eq!(
        heap.peek(b.ctx_addr(), stacktrack::layout::OFF_STACK),
        x.raw(),
        "B's committed shadow slot must hold X"
    );

    // A: unlink X and retire it; the scan must see B's reference.
    let done = a.run_op(&mut cpu_a, 1, 1, &mut |m, cpu| {
        let cur = m.load(cpu, cell, 0)?;
        if cur == x.raw() {
            m.cas(cpu, cell, 0, cur, 0)?.expect("unlink");
            m.retire_unlinked(cpu, Addr::from_raw(cur))?;
        }
        Ok(Step::Done(1))
    });
    assert_eq!(done, 1);
    while a.idle_work_pending() {
        a.step_idle(&mut cpu_a);
    }
    assert!(heap.is_live(x), "X is still referenced by B");
    assert_eq!(a.stats().survivors, 1);
    assert_eq!(a.outstanding_garbage(), 1);

    // B finishes its operation; the reference disappears.
    loop {
        let mut body = b_body(false);
        if b.step_op(&mut cpu_b, &mut body).is_some() {
            break;
        }
    }
    a.force_full_scan(&mut cpu_a);
    assert!(!heap.is_live(x), "no references remain; X must be freed");
}

#[test]
fn in_flight_transactional_reader_is_doomed_not_corrupted() {
    // The paper's central safety scenario (section 5.6, fast-path case):
    // a reader holds X only inside an uncommitted segment; the reclaimer
    // cannot see the reference, frees X, and the reader's segment must
    // abort instead of observing freed memory.
    let rt = runtime_with(
        StConfig {
            max_free: 0,
            ..StConfig::default()
        },
        2,
    );
    let mut reader = rt.register_thread(0);
    let mut reclaimer = rt.register_thread(1);
    let mut cpu_r = rt.test_cpu(0);
    let mut cpu_f = rt.test_cpu(1);
    let heap = rt.heap().clone();

    let cell = heap.alloc_untimed(1).unwrap();
    let x = heap.alloc_untimed(2).unwrap();
    heap.poke(x, 0, 1234);
    heap.poke(cell, 0, x.raw());

    // Reader: one uncommitted segment that has read X.
    reader.begin_op(&mut cpu_r, 0, 1);
    let mut reader_body = |m: &mut dyn stacktrack::OpMem, cpu: &mut st_machine::Cpu| {
        let p = m.load(cpu, cell, 0)?;
        if p != 0 {
            let val = m.load(cpu, Addr::from_raw(p), 0)?;
            assert_ne!(val, st_simheap::heap::POISON, "zombie read of poison");
            m.set_local(cpu, 0, p);
            return Ok(Step::Continue);
        }
        Ok(Step::Done(0))
    };
    assert!(reader.step_op(&mut cpu_r, &mut reader_body).is_none());

    // Reclaimer: unlink + retire + scan; the reader's stack shows nothing.
    reclaimer.run_op(&mut cpu_f, 0, 1, &mut |m, cpu| {
        let cur = m.load(cpu, cell, 0)?;
        if cur != 0 {
            m.cas(cpu, cell, 0, cur, 0)?.expect("unlink");
            m.retire_unlinked(cpu, Addr::from_raw(cur))?;
        }
        Ok(Step::Done(0))
    });
    while reclaimer.idle_work_pending() {
        reclaimer.step_idle(&mut cpu_f);
    }
    assert!(!heap.is_live(x), "invisible reader cannot block the free");

    // Reader continues: its segment must abort (version bump), restart
    // from committed state, observe the empty cell, and finish cleanly.
    let result = loop {
        if let Some(v) = reader.step_op(&mut cpu_r, &mut reader_body) {
            break v;
        }
    };
    assert_eq!(result, 0);
    assert!(
        reader.stats().segment_aborts >= 1,
        "the doomed segment must have aborted"
    );
}

#[test]
fn forced_slow_path_completes_and_restores_counter() {
    let rt = runtime_with(
        StConfig {
            forced_slow_prob: 1.0,
            ..StConfig::default()
        },
        1,
    );
    let mut th = rt.register_thread(0);
    let mut cpu = rt.test_cpu(0);
    let heap = rt.heap().clone();
    let cell = heap.alloc_untimed(1).unwrap();

    let v = th.run_op(&mut cpu, 0, 1, &mut |m, cpu| {
        let i = m.get_local(cpu, 0);
        if i < 5 {
            m.set_local(cpu, 0, i + 1);
            m.store(cpu, cell, 0, i)?;
            return Ok(Step::Continue);
        }
        m.load(cpu, cell, 0).map(Step::Done)
    });
    assert_eq!(v, 4);
    assert_eq!(th.stats().forced_slow_ops, 1);
    assert_eq!(th.stats().slow_ops, 1);
    assert_eq!(rt.slow_path_count(), 0, "counter must return to zero");
    assert_eq!(th.stats().committed_segments, 0, "no HTM on the slow path");
}

#[test]
fn abandon_mid_slow_path_restores_the_counter() {
    // Teardown can catch a thread inside the software slow path; the
    // abandon must pair enter_slow's increment of the global counter, or
    // every future scan pays the slow-path-active penalty forever.
    let rt = runtime_with(
        StConfig {
            forced_slow_prob: 1.0,
            ..StConfig::default()
        },
        1,
    );
    let mut th = rt.register_thread(0);
    let mut cpu = rt.test_cpu(0);
    let heap = rt.heap().clone();
    let cell = heap.alloc_untimed(1).unwrap();

    th.begin_op(&mut cpu, 0, 1);
    let mut body = |m: &mut dyn stacktrack::OpMem, cpu: &mut st_machine::Cpu| {
        let i = m.get_local(cpu, 0);
        m.set_local(cpu, 0, i + 1);
        m.store(cpu, cell, 0, i)?;
        Ok(Step::Continue) // never finishes on its own
    };
    for _ in 0..4 {
        assert!(th.step_op(&mut cpu, &mut body).is_none());
    }
    assert_eq!(rt.slow_path_count(), 1, "mid-op: the slow path is active");

    th.abandon_op(&mut cpu);
    assert_eq!(
        rt.slow_path_count(),
        0,
        "abandon mid-slow-path must decrement the global counter"
    );

    // The thread stays usable after the abandon.
    let v = th.run_op(&mut cpu, 1, 1, &mut |m, cpu| {
        m.load(cpu, cell, 0).map(Step::Done)
    });
    assert_eq!(v, 3, "the abandoned op's last committed store is visible");
    assert_eq!(rt.slow_path_count(), 0);
}

#[test]
fn hopeless_segments_fall_back_to_the_slow_path() {
    // Every transactional access aborts spuriously: segments start at
    // length 1, so the fallback threshold trips and the op finishes in
    // software.
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 18,
    }));
    let engine = Arc::new(HtmEngine::new(
        heap,
        HtmConfig {
            spurious_abort_per_access: 1.0,
        },
        1,
    ));
    let rt = StRuntime::new(
        engine,
        StConfig {
            initial_split_length: 1,
            ..StConfig::default()
        },
        1,
    );
    let mut th = rt.register_thread(0);
    let mut cpu = rt.test_cpu(0);
    let cell = rt.heap().alloc_untimed(1).unwrap();

    let v = th.run_op(&mut cpu, 0, 1, &mut |m, cpu| {
        m.store(cpu, cell, 0, 9)?;
        m.load(cpu, cell, 0).map(Step::Done)
    });
    assert_eq!(v, 9);
    assert_eq!(th.stats().slow_ops, 1);
    assert!(th.stats().segment_aborts >= 2);
    assert_eq!(rt.slow_path_count(), 0);
}

#[test]
fn slow_path_references_block_reclamation() {
    // A slow-path thread's reference set must be honored by scanners.
    let rt = runtime_with(
        StConfig {
            forced_slow_prob: 1.0,
            max_free: 0,
            ..StConfig::default()
        },
        2,
    );
    let mut slow = rt.register_thread(0);
    let mut fast = rt.register_thread(1);
    let mut cpu_s = rt.test_cpu(0);
    let mut cpu_f = rt.test_cpu(1);
    let heap = rt.heap().clone();

    let cell = heap.alloc_untimed(1).unwrap();
    let x = heap.alloc_untimed(2).unwrap();
    heap.poke(cell, 0, x.raw());

    // Slow thread reads X (value lands in its reference set) and parks.
    slow.begin_op(&mut cpu_s, 0, 1);
    let mut slow_body = |m: &mut dyn stacktrack::OpMem, cpu: &mut st_machine::Cpu| {
        if m.get_local(cpu, 0) == 0 {
            let p = m.load_ptr(cpu, cell, 0, 0)?;
            m.set_local(cpu, 0, p);
        }
        Ok(Step::Continue)
    };
    assert!(slow.step_op(&mut cpu_s, &mut slow_body).is_none());
    assert_eq!(rt.slow_path_count(), 1);

    // NOTE: on the slow path the slot write is immediate, so the stack
    // already shows X; to isolate the *reference set* check, clear the
    // visible slot and keep only the refset entry.
    heap.poke(slow.ctx_addr(), stacktrack::layout::OFF_STACK, 0);

    // The reclaimer unlinks and scans: the refset must keep X alive.
    fast.run_op(&mut cpu_f, 0, 1, &mut |m, cpu| {
        let cur = m.load(cpu, cell, 0)?;
        if cur != 0 {
            m.cas(cpu, cell, 0, cur, 0)?.expect("unlink");
            m.retire_unlinked(cpu, Addr::from_raw(cur))?;
        }
        Ok(Step::Done(0))
    });
    while fast.idle_work_pending() {
        fast.step_idle(&mut cpu_f);
    }
    assert!(heap.is_live(x), "slow-path reference set must protect X");
}

#[test]
fn hashed_scan_matches_linear_semantics() {
    for mode in [ScanMode::Linear, ScanMode::Hashed] {
        let rt = runtime_with(
            StConfig {
                scan_mode: mode,
                ..StConfig::default()
            },
            1,
        );
        let mut th = rt.register_thread(0);
        let mut cpu = rt.test_cpu(0);
        let heap = rt.heap().clone();

        let mut nodes = Vec::new();
        for _ in 0..6 {
            let v = th.run_op(&mut cpu, 0, 1, &mut |m, cpu| {
                let n = m.alloc(cpu, 2);
                m.retire_unlinked(cpu, n)?;
                Ok(Step::Done(n.raw()))
            });
            nodes.push(Addr::from_raw(v));
        }
        th.force_full_scan(&mut cpu);
        for n in &nodes {
            assert!(!heap.is_live(*n), "{mode:?}: {n:?} must be freed");
        }
    }
}

#[test]
fn interior_pointers_resolved_when_enabled() {
    for (interior, expect_live) in [(true, true), (false, false)] {
        let rt = runtime_with(
            StConfig {
                interior_pointers: interior,
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
        let heap = rt.heap().clone();

        let cell = heap.alloc_untimed(1).unwrap();
        let x = heap.alloc_untimed(8).unwrap();
        heap.poke(cell, 0, x.raw());

        // Holder commits only an interior pointer (X + 3 words). A plain
        // `load` keeps the base address out of the register file, so the
        // range query is the only way the scan can connect slot and object.
        holder.begin_op(&mut cpu_h, 0, 1);
        let mut hold_body = |m: &mut dyn stacktrack::OpMem, cpu: &mut st_machine::Cpu| {
            if m.get_local(cpu, 0) == 0 {
                let p = m.load(cpu, cell, 0)?;
                m.set_local(cpu, 0, Addr::from_raw(p).offset(3).raw());
            }
            Ok(Step::Continue)
        };
        for _ in 0..3 {
            assert!(holder.step_op(&mut cpu_h, &mut hold_body).is_none());
        }

        reclaimer.run_op(&mut cpu_r, 0, 1, &mut |m, cpu| {
            let cur = m.load(cpu, cell, 0)?;
            if cur != 0 {
                m.cas(cpu, cell, 0, cur, 0)?.expect("unlink");
                m.retire_unlinked(cpu, Addr::from_raw(cur))?;
            }
            Ok(Step::Done(0))
        });
        while reclaimer.idle_work_pending() {
            reclaimer.step_idle(&mut cpu_r);
        }
        assert_eq!(
            heap.is_live(x),
            expect_live,
            "interior={interior}: range query must decide"
        );
    }
}

#[test]
fn register_file_exposure_protects_transient_pointers() {
    // A pointer held only via load_ptr (never set_local) is covered by the
    // exposed register file after the segment commits.
    let rt = runtime_with(
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
    let heap = rt.heap().clone();

    let cell = heap.alloc_untimed(1).unwrap();
    let x = heap.alloc_untimed(2).unwrap();
    heap.poke(cell, 0, x.raw());

    holder.begin_op(&mut cpu_h, 0, 1);
    let mut hold_body = |m: &mut dyn stacktrack::OpMem, cpu: &mut st_machine::Cpu| {
        let _ = m.load_ptr(cpu, cell, 0, 0)?; // register file only
        Ok(Step::Continue)
    };
    // Two steps: the second segment's commit exposes the register file.
    for _ in 0..3 {
        assert!(holder.step_op(&mut cpu_h, &mut hold_body).is_none());
    }

    reclaimer.run_op(&mut cpu_r, 0, 1, &mut |m, cpu| {
        let cur = m.load(cpu, cell, 0)?;
        if cur != 0 {
            m.cas(cpu, cell, 0, cur, 0)?.expect("unlink");
            m.retire_unlinked(cpu, Addr::from_raw(cur))?;
        }
        Ok(Step::Done(0))
    });
    while reclaimer.idle_work_pending() {
        reclaimer.step_idle(&mut cpu_r);
    }
    assert!(heap.is_live(x), "register-file reference must keep X alive");
}

#[test]
fn scan_restarts_when_inspected_thread_commits() {
    // Algorithm 1's consistency protocol: a segment commit by the
    // inspected thread mid-inspection forces a rescan of that thread.
    let rt = runtime_with(
        StConfig {
            initial_split_length: 1,
            max_free: 0,
            scan_chunk_words: 4, // multi-chunk inspections
            ..StConfig::default()
        },
        2,
    );
    let mut busy = rt.register_thread(0);
    let mut reclaimer = rt.register_thread(1);
    let mut cpu_b = rt.test_cpu(0);
    let mut cpu_r = rt.test_cpu(1);
    let _heap = rt.heap().clone();

    // Busy thread: wide frame, commits a segment on every step.
    busy.begin_op(&mut cpu_b, 0, 40);
    let mut busy_body = |m: &mut dyn stacktrack::OpMem, cpu: &mut st_machine::Cpu| {
        let i = m.get_local(cpu, 0);
        m.set_local(cpu, 0, i + 1);
        Ok(Step::Continue)
    };
    busy.step_op(&mut cpu_b, &mut busy_body);

    // Reclaimer: retire a node, then interleave its scan with the busy
    // thread's commits.
    reclaimer.run_op(&mut cpu_r, 0, 1, &mut |m, cpu| {
        let n = m.alloc(cpu, 2);
        m.retire_unlinked(cpu, n)?;
        Ok(Step::Done(0))
    });
    // Interleave for a while (each busy step commits a segment, tearing
    // the inspection), then let the scan finish alone — mirroring the
    // paper's progress argument: a retry implies the inspected thread
    // committed, and the scan completes once that thread quiets down.
    for _ in 0..8 {
        if !reclaimer.idle_work_pending() {
            break;
        }
        reclaimer.step_idle(&mut cpu_r);
        busy.step_op(&mut cpu_b, &mut busy_body);
    }
    while reclaimer.idle_work_pending() {
        reclaimer.step_idle(&mut cpu_r);
    }
    assert!(
        reclaimer.stats().scan_retries > 0,
        "interleaved commits must trigger inspection restarts"
    );
}

#[test]
fn user_defined_regions_suppress_splits() {
    // Paper section 5.5: a split is never performed inside a
    // programmer-defined transactional region, and the register file is
    // exposed at the region's end.
    let rt = runtime_with(
        StConfig {
            initial_split_length: 1, // would otherwise commit every block
            ..StConfig::default()
        },
        1,
    );
    let mut th = rt.register_thread(0);
    let mut cpu = rt.test_cpu(0);
    let heap = rt.heap().clone();
    let cell = heap.alloc_untimed(1).unwrap();

    let v = th.run_op(&mut cpu, 0, 1, &mut |m, cpu| {
        let i = m.get_local(cpu, 0);
        match i {
            0 => m.user_tx_begin(cpu),
            1..=5 => {
                // Inside the region: these blocks must share one segment.
                m.store(cpu, cell, 0, i)?;
            }
            6 => m.user_tx_end(cpu)?,
            _ => {
                let v = m.load(cpu, cell, 0)?;
                return Ok(Step::Done(v));
            }
        }
        m.set_local(cpu, 0, i + 1);
        Ok(Step::Continue)
    });
    assert_eq!(v, 5);
    // Blocks 0..=6 ran in one segment (the region held it open); at limit
    // 1, only the blocks after the region each get their own segment.
    let st = th.stats();
    assert!(
        st.committed_segments <= 3,
        "region must suppress splits (got {} segments)",
        st.committed_segments
    );
    assert_eq!(st.ops, 1);
}

#[test]
fn user_regions_reset_on_abort_and_slow_path() {
    // A region interrupted by an abort re-executes; the slow path treats
    // regions as hints. Force the slow path and run the same body.
    let rt = runtime_with(
        StConfig {
            forced_slow_prob: 1.0,
            ..StConfig::default()
        },
        1,
    );
    let mut th = rt.register_thread(0);
    let mut cpu = rt.test_cpu(0);
    let heap = rt.heap().clone();
    let cell = heap.alloc_untimed(1).unwrap();

    let v = th.run_op(&mut cpu, 0, 1, &mut |m, cpu| {
        let i = m.get_local(cpu, 0);
        if i == 0 {
            m.user_tx_begin(cpu);
            m.store(cpu, cell, 0, 7)?;
            m.user_tx_end(cpu)?;
            m.set_local(cpu, 0, 1);
            return Ok(Step::Continue);
        }
        m.load(cpu, cell, 0).map(Step::Done)
    });
    assert_eq!(v, 7);
    assert_eq!(th.stats().slow_ops, 1);
}

#[test]
fn force_split_creates_a_segment_boundary() {
    // Section 5.4's unsupported-instruction pattern: commit, do the
    // non-speculative thing, start a new transaction.
    let rt = runtime_with(
        StConfig {
            initial_split_length: 100, // far above the op length
            ..StConfig::default()
        },
        1,
    );
    let mut th = rt.register_thread(0);
    let mut cpu = rt.test_cpu(0);

    th.run_op(&mut cpu, 0, 1, &mut |m, cpu| {
        let i = m.get_local(cpu, 0);
        m.set_local(cpu, 0, i + 1);
        match i {
            0..=3 => Ok(Step::Continue),
            4 => {
                m.force_split(cpu); // boundary after this block
                Ok(Step::Continue)
            }
            5..=8 => Ok(Step::Continue),
            _ => Ok(Step::Done(0)),
        }
    });
    // Without the hint this op would be one segment; the hint makes two.
    assert_eq!(th.stats().committed_segments, 2);
}
