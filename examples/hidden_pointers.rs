//! Interior ("hidden") pointers and the allocation-table range query —
//! the paper's section 5.5 scenario as a runnable demo.
//!
//! A thread keeps only a pointer *into the middle* of an array object in
//! its shadow stack (as code that indexes `&arr[k]` does). A reclaimer
//! then tries to free the array. With `interior_pointers` disabled the
//! scan misses the reference (the word does not equal the object's base
//! address) and the array is freed under the holder; with it enabled the
//! scanner resolves every scanned word through the heap's allocation
//! table — the paper's `malloc` hook — and the array survives.
//!
//! Run with: `cargo run --release --example hidden_pointers`

use st_machine::Cpu;
use st_reclaim::mem::{Atomic, Mem, NodeType, Unlinked};
use st_simheap::{Addr, Heap, HeapConfig};
use st_simhtm::{HtmConfig, HtmEngine};
use stacktrack::{OpMem, StConfig, StRuntime, Step};
use std::sync::Arc;

/// The 16-word array the demo hides an interior pointer into.
#[derive(Debug, Clone, Copy)]
struct ArrayNode;

impl NodeType for ArrayNode {
    const WORDS: usize = 16;
}

fn scenario(interior_pointers: bool) -> bool {
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 18,
    }));
    let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 2));
    let rt = StRuntime::new(
        engine,
        StConfig {
            interior_pointers,
            initial_split_length: 1, // commit every block: expose fast
            max_free: 0,             // scan on every retire
            ..StConfig::default()
        },
        2,
    );
    let mut holder = rt.register_thread(0);
    let mut reclaimer = rt.register_thread(1);
    let mut cpu_h = rt.test_cpu(0);
    let mut cpu_r = rt.test_cpu(1);

    // A shared cell points at a 16-word array.
    let cell = heap.alloc_untimed(1).expect("cell");
    let array = heap.alloc_untimed(16).expect("array");
    heap.poke(cell, 0, array.raw());

    // The holder computes &array[5] and keeps ONLY that interior pointer.
    // It stays on the raw shadow-stack surface on purpose: the typed API
    // deliberately has no way to stash an interior pointer — this is the
    // "hidden pointer" code pattern the scanner must cope with.
    holder.begin_op(&mut cpu_h, 0, 1);
    let mut hold = |m: &mut dyn OpMem, cpu: &mut Cpu| {
        if m.get_local(cpu, 0) == 0 {
            let base = m.load(cpu, cell, 0)?;
            let elem5 = Addr::from_raw(base).offset(5);
            m.set_local(cpu, 0, elem5.raw());
        }
        Ok(Step::Continue)
    };
    for _ in 0..3 {
        holder.step_op(&mut cpu_h, &mut hold);
    }

    // The reclaimer unlinks the array and retires it. It runs unguarded
    // (StackTrack's transactions protect its own reads), so the unlink is
    // a raw-word CAS whose victory is the `assume_unlinked` proof.
    use st_reclaim::SchemeThread;
    SchemeThread::run_op(&mut reclaimer, &mut cpu_r, 0, 1, &mut |m, cpu| {
        let mut mem = Mem::new(m, cpu);
        let a_cell = Atomic::<ArrayNode>::root(cell, 0);
        let cur = a_cell.load_word(&mut mem)?;
        if cur != 0 {
            a_cell.cas_word(&mut mem, cur, 0)?.expect("unlink");
            Unlinked::<ArrayNode>::assume_unlinked(cur).retire(&mut mem)?;
        }
        Ok(Step::Done(0))
    });
    while reclaimer.idle_work_pending() {
        reclaimer.step_idle(&mut cpu_r);
    }
    heap.is_live(array)
}

fn main() {
    println!("holder keeps &array[5]; reclaimer frees the array...\n");

    let survived = scenario(true);
    println!(
        "interior_pointers = true : array {} (range query resolved &array[5] -> base)",
        if survived { "SURVIVED" } else { "was freed" }
    );
    assert!(survived);

    let survived = scenario(false);
    println!(
        "interior_pointers = false: array {} (raw compare missed the interior word)",
        if survived { "SURVIVED" } else { "was freed" }
    );
    assert!(!survived);

    println!(
        "\nThe paper's rule: code may hide interior pointers to arrays/structs;\n\
         hooking allocation and answering range queries keeps such objects safe\n\
         (at the price of one range query per scanned word)."
    );
}
