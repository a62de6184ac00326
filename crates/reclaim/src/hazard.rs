//! Hazard pointers (Michael 2004), the paper's main non-automatic
//! comparator.
//!
//! Every pointer dereference publishes the target in a per-thread hazard
//! slot, issues a full fence, and revalidates the source — "these
//! additional fence instructions ... induce significant overhead, as can
//! be seen in our experiments". Retired nodes collect in a per-thread
//! list; when it reaches the scan threshold, the thread snapshots all
//! hazard slots and frees the unprotected nodes.

use crate::frame::Protocol;
use crate::slots::ThreadSlots;
use st_machine::Cpu;
use st_obs::MetricsRegistry;
use st_simheap::tagged::TAG_MASK;
use st_simheap::{Addr, Heap, Word};
use stacktrack::Mutation;
use std::sync::Arc;

/// Per-thread hazard-pointer state.
pub struct Hazard {
    /// The hazard-slot matrix, one word per guard.
    slots: Arc<ThreadSlots>,
    thread_id: usize,
    used_guards: u64,
    rlist: Vec<Addr>,
    /// Retired-list size that triggers a scan.
    threshold: usize,
    /// **Mutation knob for the model checker.** When set, `load_ptr` skips
    /// the publish-fence-revalidate protocol and only records the intended
    /// publication; it lands at the *start of the next step*, so the node
    /// is unprotected across a scheduling point — the bug class the
    /// protocol exists to prevent.
    defer_publish: bool,
    /// Publications deferred by the mutation: `(guard, value)`.
    pending_publish: Vec<(usize, Word)>,
    /// **Mutation knob for the audit harness.** One-shot: the first
    /// retire is issued twice, planting a double-retire the heap ledger
    /// must catch (and, once both copies drain, a double free).
    double_retire: bool,
    /// Scans performed (statistics).
    pub scans: u64,
}

impl Hazard {
    /// The state of thread slot `thread_id`, scanning once `threshold`
    /// retired nodes wait (the factory's default is
    /// [`ThreadSlots::scan_threshold`]). `mutation` seeds
    /// [`Mutation::DeferHazardPublish`] or [`Mutation::DoubleRetire`]
    /// (checker/audit use only) and is ignored otherwise.
    pub fn new(
        slots: Arc<ThreadSlots>,
        thread_id: usize,
        threshold: usize,
        mutation: Mutation,
    ) -> Self {
        Self {
            slots,
            thread_id,
            used_guards: 0,
            rlist: Vec::new(),
            threshold,
            defer_publish: mutation == Mutation::DeferHazardPublish,
            pending_publish: Vec::new(),
            double_retire: mutation == Mutation::DoubleRetire,
            scans: 0,
        }
    }

    /// Scans all hazard slots and frees unprotected retired nodes.
    fn scan(&mut self, heap: &Heap, cpu: &mut Cpu) {
        self.scans += 1;
        self.slots.free_unprotected(heap, cpu, &mut self.rlist);
    }
}

impl Protocol for Hazard {
    const NAME: &'static str = "Hazards";

    /// The hazard protocol: publish, fence, revalidate (and retry until
    /// the source is stable).
    fn load_ptr(&mut self, heap: &Heap, cpu: &mut Cpu, addr: Addr, off: u64, guard: usize) -> Word {
        loop {
            let v = heap.load(cpu, addr, off);
            if v & !TAG_MASK == 0 {
                return v;
            }
            if self.defer_publish {
                // Mutation: no publish, no fence, no revalidation — the
                // hazard write is queued for the next step boundary.
                self.pending_publish.push((guard, v & !TAG_MASK));
                self.used_guards |= 1 << guard;
                return v;
            }
            self.slots
                .store(heap, cpu, self.thread_id, guard, v & !TAG_MASK);
            self.used_guards |= 1 << guard;
            heap.fence(cpu);
            if heap.load(cpu, addr, off) == v {
                return v;
            }
            // The source moved: the hazard may protect a stale node; retry.
        }
    }

    /// Copies an already-protected pointer into another hazard slot; no
    /// fence needed (see [`stacktrack::OpMem::protect_slot`]).
    fn protect(&mut self, heap: &Heap, cpu: &mut Cpu, guard: usize, value: Word) {
        self.slots
            .store(heap, cpu, self.thread_id, guard, value & !TAG_MASK);
        self.used_guards |= 1 << guard;
    }

    fn retire(&mut self, heap: &Heap, cpu: &mut Cpu, addr: Addr) {
        self.rlist.push(addr);
        if std::mem::take(&mut self.double_retire) {
            // Seeded defect: the same node enters the retired list twice.
            heap.note_retire(cpu.thread_id, cpu.now(), addr);
            self.rlist.push(addr);
        }
        if self.rlist.len() >= self.threshold {
            self.scan(heap, cpu);
        }
    }

    fn begin(&mut self, _heap: &Heap, _cpu: &mut Cpu) {
        self.used_guards = 0;
    }

    /// Mutation mode: publications deferred by `load_ptr` land here, one
    /// scheduling point too late.
    fn before_block(&mut self, heap: &Heap, cpu: &mut Cpu) -> bool {
        for (guard, value) in std::mem::take(&mut self.pending_publish) {
            self.slots.store(heap, cpu, self.thread_id, guard, value);
        }
        false
    }

    fn end(&mut self, heap: &Heap, cpu: &mut Cpu) {
        // Publications still pending at op end are dead.
        self.pending_publish.clear();
        // Release the guards this operation touched.
        self.slots
            .clear(heap, cpu, self.thread_id, self.used_guards);
    }

    fn garbage(&self) -> u64 {
        self.rlist.len() as u64
    }

    fn report(&self, reg: &mut MetricsRegistry) {
        reg.add("scheme.hazard.scans", self.scans);
    }

    fn teardown(&mut self, heap: &Heap, cpu: &mut Cpu) {
        if !self.rlist.is_empty() {
            self.scan(heap, cpu);
        }
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

    fn setup(threads: usize) -> (Arc<ThreadSlots>, Arc<Heap>) {
        let (heap, _) = test_env();
        let slots = Arc::new(ThreadSlots::new(&heap, threads, 4));
        (slots, heap)
    }

    #[test]
    fn protected_load_publishes_hazard_and_fences() {
        let (slots, heap) = setup(1);
        let mut th = Frame::new(
            heap.clone(),
            Hazard::new(slots.clone(), 0, slots.scan_threshold(), Mutation::None),
        );
        let mut cpu = test_cpu(0);
        let cell = heap.alloc_untimed(1).unwrap();
        let x = heap.alloc_untimed(2).unwrap();
        heap.poke(cell, 0, x.raw() | 1); // marked pointer

        th.begin_op(&mut cpu, 0, 0);
        let fences_before = cpu.counters.fences;
        let mut body = |m: &mut dyn OpMem, cpu: &mut Cpu| {
            let v = m.load_ptr(cpu, cell, 0, 2)?;
            Ok(Step::Done(v))
        };
        let v = th.step_op(&mut cpu, &mut body).unwrap();
        assert_eq!(v, x.raw() | 1, "tag bits pass through");
        assert!(cpu.counters.fences > fences_before, "hazard costs a fence");
        // Slot cleared at op end.
        assert_eq!(heap.peek(slots.region().0, 2), 0);
    }

    #[test]
    fn hazarded_node_survives_scan() {
        let (slots, heap) = setup(2);
        let mut holder = Frame::new(
            heap.clone(),
            Hazard::new(slots.clone(), 0, slots.scan_threshold(), Mutation::None),
        );
        let mut reclaimer = Frame::new(
            heap.clone(),
            Hazard::new(slots.clone(), 1, slots.scan_threshold(), Mutation::None),
        );
        let mut cpu_h = test_cpu(0);
        let mut cpu_r = test_cpu(1);

        let cell = heap.alloc_untimed(1).unwrap();
        let x = heap.alloc_untimed(2).unwrap();
        heap.poke(cell, 0, x.raw());

        // Holder publishes a hazard on X and stays inside its operation.
        holder.begin_op(&mut cpu_h, 0, 1);
        let mut hold = |m: &mut dyn OpMem, cpu: &mut Cpu| {
            let v = m.load_ptr(cpu, cell, 0, 0)?;
            m.set_local(cpu, 0, v);
            Ok(Step::Continue)
        };
        holder.step_op(&mut cpu_h, &mut hold);

        // Reclaimer retires X and scans explicitly.
        reclaimer.scheme.rlist.push(x);
        reclaimer.scheme.scan(&heap, &mut cpu_r);
        assert!(heap.is_live(x), "hazard must protect X");
        assert_eq!(reclaimer.outstanding_garbage(), 1);

        // Holder finishes; the next scan frees X.
        let mut finish = |_: &mut dyn OpMem, _: &mut Cpu| Ok(Step::Done(0));
        holder.step_op(&mut cpu_h, &mut finish);
        reclaimer.scheme.scan(&heap, &mut cpu_r);
        assert!(!heap.is_live(x));
        assert_eq!(reclaimer.outstanding_garbage(), 0);
    }

    #[test]
    fn scan_triggers_at_threshold() {
        let (slots, heap) = setup(1);
        let threshold = slots.scan_threshold();
        let mut th = Frame::new(
            heap.clone(),
            Hazard::new(slots, 0, threshold, Mutation::None),
        );
        let mut cpu = test_cpu(0);

        for i in 0..threshold {
            th.run_op(&mut cpu, 0, 0, &mut |m, cpu| {
                let n = m.alloc(cpu, 2);
                m.retire_unlinked(cpu, n)?;
                Ok(Step::Done(0))
            });
            if i < threshold - 1 {
                assert_eq!(th.scheme.scans, 0);
            }
        }
        assert_eq!(th.scheme.scans, 1, "scan exactly at the threshold");
        assert_eq!(th.outstanding_garbage(), 0);
    }

    #[test]
    fn teardown_frees_everything() {
        let (slots, heap) = setup(1);
        let mut th = Frame::new(
            heap.clone(),
            Hazard::new(slots.clone(), 0, slots.scan_threshold(), Mutation::None),
        );
        let mut cpu = test_cpu(0);
        let n = heap.alloc_untimed(2).unwrap();
        th.run_op(&mut cpu, 0, 0, &mut |m, cpu| {
            m.retire_unlinked(cpu, n)?;
            Ok(Step::Done(0))
        });
        th.teardown(&mut cpu);
        assert!(!heap.is_live(n));
    }

    #[test]
    fn null_loads_skip_the_protocol() {
        let (slots, heap) = setup(1);
        let mut th = Frame::new(
            heap.clone(),
            Hazard::new(slots.clone(), 0, slots.scan_threshold(), Mutation::None),
        );
        let mut cpu = test_cpu(0);
        let cell = heap.alloc_untimed(1).unwrap();
        th.begin_op(&mut cpu, 0, 0);
        let fences = cpu.counters.fences;
        let mut body = |m: &mut dyn OpMem, cpu: &mut Cpu| {
            let v = m.load_ptr(cpu, cell, 0, 0)?;
            Ok(Step::Done(v))
        };
        assert_eq!(th.step_op(&mut cpu, &mut body), Some(0));
        assert_eq!(cpu.counters.fences, fences, "null needs no hazard");
    }
}
