//! Lock-free reference counting (Valois-style), the ablation comparator.
//!
//! The paper excludes reference counting from the plots, arguing hazard
//! pointers upper-bound its performance; this implementation exists to
//! check that claim on the simulator. Every pointer hop performs an atomic
//! count update on the target (plus the release of the guard's previous
//! target) — two atomic read-modify-writes per hop, strictly more
//! coherence traffic than one hazard store + fence.
//!
//! Counts live in a **side table** keyed by node base address rather than
//! in a header word, so nodes created by the schemes-agnostic setup path
//! (sentinels, initial population) are counted uniformly. Each count
//! update is charged as one CAS plus the line traffic of the node itself,
//! which is what the real scheme pays. The increment-validate-retry
//! protocol is atomic at the simulator's basic-block granularity, which
//! closes the classic increment-after-free race (see DESIGN.md on
//! simulation atomicity).

use crate::frame::Protocol;
use st_machine::Cpu;
use st_obs::MetricsRegistry;
use st_simheap::tagged::TAG_MASK;
use st_simheap::{Addr, Heap, Word};
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;

/// Count-table entry.
#[derive(Debug, Default, Clone, Copy)]
struct Entry {
    count: u64,
    retired: bool,
}

/// Shared reference-count table.
#[derive(Debug, Default)]
pub struct RcGlobals {
    counts: Mutex<HashMap<Word, Entry>>,
}

impl RcGlobals {
    /// Creates an empty count table.
    pub fn new(_heap: &Arc<Heap>) -> Self {
        Self::default()
    }

    /// Current count of `base` (tests).
    pub fn count_of(&self, base: Word) -> u64 {
        self.counts
            .lock()
            .unwrap()
            .get(&base)
            .map_or(0, |e| e.count)
    }
}

/// Per-thread reference-counting state.
pub struct RefCount {
    globals: Arc<RcGlobals>,
    guards: Vec<Word>,
    /// Nodes this thread freed (statistics).
    pub freed: u64,
}

impl RefCount {
    /// The state of a thread with `guard_slots` guards.
    pub fn new(globals: Arc<RcGlobals>, guard_slots: usize) -> Self {
        Self {
            globals,
            guards: vec![0; guard_slots],
            freed: 0,
        }
    }

    /// Charges one atomic read-modify-write on the node's line.
    fn charge_rmw(&self, cpu: &mut Cpu) {
        cpu.charge(cpu.costs.cas);
        cpu.counters.cas_ops += 1;
    }

    fn acquire(&mut self, cpu: &mut Cpu, user: Word) {
        let base = user & !TAG_MASK;
        if base == 0 {
            return;
        }
        self.charge_rmw(cpu);
        self.globals
            .counts
            .lock()
            .unwrap()
            .entry(base)
            .or_default()
            .count += 1;
    }

    /// Drops one reference; frees the node when the count hits zero with
    /// the retired flag set.
    fn release(&mut self, heap: &Heap, cpu: &mut Cpu, user: Word) {
        let base = user & !TAG_MASK;
        if base == 0 {
            return;
        }
        self.charge_rmw(cpu);
        let free_now = {
            let mut counts = self.globals.counts.lock().unwrap();
            let e = counts.get_mut(&base).expect("release without acquire");
            debug_assert!(e.count > 0, "refcount underflow on {base:#x}");
            e.count -= 1;
            let free_now = e.count == 0 && e.retired;
            if free_now {
                counts.remove(&base);
            }
            free_now
        };
        if free_now {
            heap.free(cpu, Addr::from_raw(base));
            self.freed += 1;
        }
    }
}

impl Protocol for RefCount {
    const NAME: &'static str = "RefCount";

    /// Counted pointer load: bump the target, validate the source, release
    /// the guard's previous target.
    fn load_ptr(&mut self, heap: &Heap, cpu: &mut Cpu, addr: Addr, off: u64, guard: usize) -> Word {
        loop {
            let v = heap.load(cpu, addr, off);
            if v & !TAG_MASK == 0 {
                return v;
            }
            self.acquire(cpu, v);
            if heap.load(cpu, addr, off) == v {
                let old = std::mem::replace(&mut self.guards[guard], v & !TAG_MASK);
                self.release(heap, cpu, old);
                return v;
            }
            self.release(heap, cpu, v);
        }
    }

    /// Moves a counted reference into another guard: bump the new target,
    /// release the guard's previous one.
    fn protect(&mut self, heap: &Heap, cpu: &mut Cpu, guard: usize, value: Word) {
        self.acquire(cpu, value);
        let old = std::mem::replace(&mut self.guards[guard], value & !TAG_MASK);
        self.release(heap, cpu, old);
    }

    fn retire(&mut self, heap: &Heap, cpu: &mut Cpu, addr: Addr) {
        self.charge_rmw(cpu);
        let free_now = {
            let mut counts = self.globals.counts.lock().unwrap();
            let e = counts.entry(addr.raw()).or_default();
            debug_assert!(!e.retired, "double retire of {addr:?}");
            e.retired = true;
            let free_now = e.count == 0;
            if free_now {
                counts.remove(&addr.raw());
            }
            free_now
        };
        if free_now {
            heap.free(cpu, addr);
            self.freed += 1;
        }
    }

    fn end(&mut self, heap: &Heap, cpu: &mut Cpu) {
        for g in 0..self.guards.len() {
            let old = std::mem::take(&mut self.guards[g]);
            self.release(heap, cpu, old);
        }
    }

    fn garbage(&self) -> u64 {
        // Counts free instantly at zero; nothing is batched locally.
        0
    }

    fn report(&self, reg: &mut MetricsRegistry) {
        reg.add("scheme.rc.freed", self.freed);
    }
}

#[cfg(test)]
// Scheme tests drive the raw `OpMem` surface the executor implements —
// the layer beneath the typed `mem` API structures use.
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::test_support::{test_cpu, test_env};
    use crate::SchemeThread;
    use stacktrack::{OpMem, Step};

    fn thread(heap: &Arc<Heap>, globals: &Arc<RcGlobals>) -> Frame<RefCount> {
        Frame::new(heap.clone(), RefCount::new(globals.clone(), 4))
    }

    #[test]
    fn unreferenced_retire_frees_immediately() {
        let (heap, mut cpu) = test_env();
        let globals = Arc::new(RcGlobals::default());
        let mut th = thread(&heap, &globals);
        let user = th.run_op(&mut cpu, 0, 0, &mut |m, cpu| {
            let n = m.alloc(cpu, 2);
            m.retire_unlinked(cpu, n)?;
            Ok(Step::Done(n.raw()))
        });
        assert!(!heap.is_live(Addr::from_raw(user)));
        assert_eq!(th.scheme.freed, 1);
    }

    #[test]
    fn guarded_node_survives_until_release() {
        let (heap, mut cpu) = test_env();
        let globals = Arc::new(RcGlobals::default());
        let mut holder = thread(&heap, &globals);
        let mut owner = thread(&heap, &globals);
        let mut cpu2 = test_cpu(1);

        let cell = heap.alloc_untimed(1).unwrap();
        let node = heap.alloc_untimed(2).unwrap();
        heap.poke(cell, 0, node.raw());

        // Holder guards the node and stays in its operation.
        holder.begin_op(&mut cpu, 0, 1);
        let mut hold = |m: &mut dyn OpMem, cpu: &mut Cpu| {
            let v = m.load_ptr(cpu, cell, 0, 0)?;
            m.set_local(cpu, 0, v);
            Ok(Step::Continue)
        };
        holder.step_op(&mut cpu, &mut hold);
        assert_eq!(globals.count_of(node.raw()), 1);

        // Owner unlinks and retires: the holder's count pins the node.
        owner.run_op(&mut cpu2, 0, 0, &mut |m, cpu| {
            m.store(cpu, cell, 0, 0)?;
            m.retire_unlinked(cpu, node)?;
            Ok(Step::Done(0))
        });
        assert!(heap.is_live(node));

        // Holder finishes: guards release, count hits zero, node freed.
        let mut fin = |_: &mut dyn OpMem, _: &mut Cpu| Ok(Step::Done(0));
        holder.step_op(&mut cpu, &mut fin);
        assert!(!heap.is_live(node));
        assert_eq!(holder.scheme.freed, 1);
    }

    #[test]
    fn guard_reuse_releases_previous_target() {
        let (heap, mut cpu) = test_env();
        let globals = Arc::new(RcGlobals::default());
        let mut th = thread(&heap, &globals);

        let a = heap.alloc_untimed(2).unwrap();
        let b = heap.alloc_untimed(2).unwrap();
        let cell = heap.alloc_untimed(1).unwrap();

        th.begin_op(&mut cpu, 0, 0);
        heap.poke(cell, 0, a.raw());
        let mut load_a = |m: &mut dyn OpMem, cpu: &mut Cpu| {
            let _ = m.load_ptr(cpu, cell, 0, 0)?;
            Ok(Step::Continue)
        };
        th.step_op(&mut cpu, &mut load_a);
        assert_eq!(globals.count_of(a.raw()), 1);

        heap.poke(cell, 0, b.raw());
        let mut load_b = |m: &mut dyn OpMem, cpu: &mut Cpu| {
            let _ = m.load_ptr(cpu, cell, 0, 0)?;
            Ok(Step::Done(0))
        };
        th.step_op(&mut cpu, &mut load_b);
        assert_eq!(globals.count_of(a.raw()), 0, "guard reuse released a");
        assert_eq!(globals.count_of(b.raw()), 0, "op end released b");
    }

    #[test]
    fn marked_pointers_count_the_base() {
        let (heap, mut cpu) = test_env();
        let globals = Arc::new(RcGlobals::default());
        let mut th = thread(&heap, &globals);
        let cell = heap.alloc_untimed(1).unwrap();
        let node = heap.alloc_untimed(2).unwrap();
        heap.poke(cell, 0, node.raw() | 1); // marked

        th.begin_op(&mut cpu, 0, 0);
        let mut body = |m: &mut dyn OpMem, cpu: &mut Cpu| {
            let v = m.load_ptr(cpu, cell, 0, 0)?;
            Ok(Step::Done(v))
        };
        let v = th.step_op(&mut cpu, &mut body).unwrap();
        assert_eq!(v, node.raw() | 1);
        assert_eq!(globals.count_of(node.raw()), 0, "released at op end");
    }
}
