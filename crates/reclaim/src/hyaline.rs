//! Hyaline (Nikolaev & Ravindran), the second "beyond the paper"
//! comparator: snapshot-free reclamation by per-retire reference batching.
//!
//! Where epochs wait for a global quiescence snapshot and hazard pointers
//! fence on every hop, Hyaline makes *retirement itself* carry the
//! bookkeeping. Retired nodes collect into small batches; when a batch is
//! full the retiring thread *dispatches* it: the batch gets a shared
//! reference counter initialized to one (the dispatcher's own reference)
//! plus one per active reader it is handed to, and a copy lands in each
//! such reader's handoff list. Every thread decrements the batches in its
//! handoff list when it finishes its current operation; whoever drops the
//! counter to zero frees the whole batch. No thread ever waits on another,
//! and there is no global scan — reclamation cost is spread evenly over
//! retires, which is the scheme's signature property.
//!
//! This implements the *robust* variant's era bound: the global era is
//! bumped at every dispatch, each node records its birth era, readers
//! publish the era they observe (at operation start and refreshed on every
//! pointer load, *before* the load — so any pointer a reader holds targets
//! a node born no later than its published era), and a batch whose oldest
//! member was born after a reader's published era skips that reader. A
//! stalled reader therefore pins only batches containing nodes that
//! existed before it stalled — a bounded set — while epoch's limbo lists
//! grow without bound behind the same straggler.
//!
//! Simulator mapping: batch reference counters live in heap words (their
//! updates are timed fetch-adds, and the lifecycle ledger audits the
//! headers like any block); the handoff lists and the birth-era map are
//! Rust-side shared state, charged through the heap operations that
//! accompany every transfer.

use crate::frame::Protocol;
use crate::slots::ThreadSlots;
use st_machine::Cpu;
use st_obs::MetricsRegistry;
use st_simheap::{Addr, Heap, Word};
use stacktrack::Mutation;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Retires aggregated into one dispatched batch when the factory's
/// `retire_batch` is `None`. Smaller batches reclaim sooner but dispatch (and
/// hand off) more often.
pub const BATCH: usize = 8;

/// Words of a thread's slot record.
const RECORD_WORDS: usize = 2;
/// Slot word: 1 while the thread is inside an operation.
const SLOT_ACTIVE: usize = 0;
/// Slot word: the newest global era the thread has observed.
const SLOT_ERA: usize = 1;

/// A dispatched batch: a shared heap word holding the reference count and
/// the retired nodes it guards.
#[derive(Clone)]
struct Batch {
    /// One-word heap block holding the reference counter.
    header: Addr,
    /// The retired nodes; freed together when the counter hits zero.
    nodes: Arc<Vec<Addr>>,
    /// Thread that retired the nodes (its garbage gauge is credited back
    /// when the batch is freed).
    owner: usize,
}

/// Shared Hyaline state.
pub struct HyalineGlobals {
    /// Per-thread activity and published-era words.
    slots: ThreadSlots,
    era: Addr,
    /// Per-thread handoff lists (the lock-free lists of the real
    /// implementation; a mutex here models the same transfer, with the
    /// costs charged through the accompanying heap operations).
    mailboxes: Vec<Mutex<Vec<Batch>>>,
    /// Birth era of every live node allocated through the scheme; nodes
    /// prepopulated outside it default to era 0 (oldest, always handed
    /// off).
    births: Mutex<HashMap<u64, u64>>,
    /// Per-owner retired-but-not-freed gauges, credited back by whichever
    /// thread frees the batch.
    outstanding: Vec<AtomicU64>,
}

impl std::fmt::Debug for HyalineGlobals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HyalineGlobals")
            .field("max_threads", &self.slots.threads())
            .finish_non_exhaustive()
    }
}

impl HyalineGlobals {
    /// Allocates the per-thread slot records and the global era word.
    pub fn new(heap: &Arc<Heap>, max_threads: usize) -> Self {
        let slots = ThreadSlots::new(heap, max_threads, RECORD_WORDS);
        let era = heap
            .alloc_untimed(1)
            .expect("heap too small for hyaline era");
        heap.poke(era, 0, 1); // era 0 is reserved for pre-scheme nodes
        Self {
            slots,
            era,
            mailboxes: (0..max_threads).map(|_| Mutex::new(Vec::new())).collect(),
            births: Mutex::new(HashMap::new()),
            outstanding: (0..max_threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn birth_of(&self, addr: Addr) -> u64 {
        self.births
            .lock()
            .unwrap()
            .get(&addr.raw())
            .copied()
            .unwrap_or(0)
    }
}

/// Per-thread Hyaline state.
pub struct Hyaline {
    globals: Arc<HyalineGlobals>,
    thread_id: usize,
    /// Retires collected toward the next dispatch.
    pending: Vec<Addr>,
    /// Batch size that triggers a dispatch.
    batch_size: usize,
    /// Newest global era this thread has published to its slot.
    published_era: Word,
    /// **Mutation knob for the audit harness — never enable in real
    /// runs.** One-shot: the first dispatch skips the dispatcher's own
    /// reference decrement, so that batch's counter can never reach zero
    /// — the retired nodes leak, which the heap-ledger oracle must catch.
    drop_decrement: bool,
    /// Batches dispatched (statistics).
    pub dispatches: u64,
    /// Batch copies handed to active readers (statistics).
    pub batch_handoffs: u64,
    /// Nodes returned to the allocator by this thread (statistics).
    pub freed: u64,
}

impl Hyaline {
    /// The state of thread slot `thread_id`, dispatching once
    /// `batch_size` retired nodes wait. `mutation` seeds
    /// [`Mutation::HyalineDropDecrement`] (audit/checker use only) and is
    /// ignored otherwise.
    pub fn new(
        globals: Arc<HyalineGlobals>,
        thread_id: usize,
        batch_size: usize,
        mutation: Mutation,
    ) -> Self {
        Self {
            globals,
            thread_id,
            pending: Vec::new(),
            batch_size,
            published_era: 0,
            drop_decrement: mutation == Mutation::HyalineDropDecrement,
            dispatches: 0,
            batch_handoffs: 0,
            freed: 0,
        }
    }

    /// Publishes the current global era to this thread's slot. Must happen
    /// before any pointer load it covers: a pointer read afterwards targets
    /// a node born no later than the published era, which is what makes
    /// skipping this reader safe for younger batches.
    fn refresh_era(&mut self, heap: &Heap, cpu: &mut Cpu) {
        let e = heap.load(cpu, self.globals.era, 0);
        if e != self.published_era {
            let slots = &self.globals.slots;
            slots.store(heap, cpu, self.thread_id, SLOT_ERA, e);
            self.published_era = e;
        }
    }

    /// Marks this thread outside any operation in its shared slot.
    fn deactivate(&self, heap: &Heap, cpu: &mut Cpu) {
        let slots = &self.globals.slots;
        slots.store(heap, cpu, self.thread_id, SLOT_ACTIVE, 0);
    }

    /// Drops one reference from `batch`, freeing its nodes if this was the
    /// last one.
    fn dec_ref(&mut self, heap: &Heap, cpu: &mut Cpu, batch: &Batch) {
        let prev = heap.fetch_add(cpu, batch.header, 0, (-1i64) as u64);
        debug_assert!(prev >= 1, "hyaline refcount underflow");
        if prev != 1 {
            return;
        }
        let mut births = self.globals.births.lock().unwrap();
        for &node in batch.nodes.iter() {
            births.remove(&node.raw());
        }
        drop(births);
        for &node in batch.nodes.iter() {
            heap.free(cpu, node);
            self.freed += 1;
        }
        self.globals.outstanding[batch.owner]
            .fetch_sub(batch.nodes.len() as u64, Ordering::Relaxed);
        // The header was never published as a node: direct free.
        heap.free_unpublished(cpu, batch.header);
    }

    /// Dispatches the pending retires: bump the era, hand a reference to
    /// every active reader whose published era reaches back to the batch's
    /// oldest member, then drop the dispatcher's own reference.
    fn dispatch(&mut self, heap: &Heap, cpu: &mut Cpu) {
        if self.pending.is_empty() {
            return;
        }
        let nodes = std::mem::take(&mut self.pending);
        let min_birth = nodes
            .iter()
            .map(|&n| self.globals.birth_of(n))
            .min()
            .unwrap_or(0);
        heap.fetch_add(cpu, self.globals.era, 0, 1);

        let mut recipients = Vec::new();
        let slots = &self.globals.slots;
        for t in 0..slots.threads() {
            if t == self.thread_id {
                continue;
            }
            if slots.load(heap, cpu, t, SLOT_ACTIVE) == 0 {
                continue;
            }
            let reader_era = slots.load(heap, cpu, t, SLOT_ERA);
            // Robustness bound: a reader whose published era predates every
            // node in the batch cannot be holding any of them — skip it.
            if reader_era < min_birth {
                continue;
            }
            recipients.push(t);
        }

        let header = heap
            .alloc(cpu, 1)
            .expect("simulated heap exhausted; enlarge HeapConfig::capacity_words");
        heap.store(cpu, header, 0, recipients.len() as u64 + 1);
        let batch = Batch {
            header,
            nodes: Arc::new(nodes),
            owner: self.thread_id,
        };
        for &t in &recipients {
            self.globals.mailboxes[t]
                .lock()
                .unwrap()
                .push(batch.clone());
            self.batch_handoffs += 1;
        }
        self.dispatches += 1;

        if std::mem::take(&mut self.drop_decrement) {
            // Seeded defect: the dispatcher forgets its own reference, so
            // the counter bottoms out at one and the batch never frees.
            return;
        }
        self.dec_ref(heap, cpu, &batch);
    }

    /// Decrements every batch handed to this thread since its last drain.
    fn drain_mailbox(&mut self, heap: &Heap, cpu: &mut Cpu) {
        let handed = std::mem::take(&mut *self.globals.mailboxes[self.thread_id].lock().unwrap());
        for batch in handed {
            self.dec_ref(heap, cpu, &batch);
        }
    }
}

impl Protocol for Hyaline {
    const NAME: &'static str = "Hyaline";
    const TEARDOWN_ENDS_OP: bool = true;

    /// A pointer hop: refresh the published era, then a plain load — no
    /// fence, no revalidation (the era store is what keeps younger batches
    /// delivered to this reader).
    fn load_ptr(
        &mut self,
        heap: &Heap,
        cpu: &mut Cpu,
        addr: Addr,
        off: u64,
        _guard: usize,
    ) -> Word {
        self.refresh_era(heap, cpu);
        heap.load(cpu, addr, off)
    }

    /// Records the node's birth era.
    fn allocated(&mut self, heap: &Heap, cpu: &mut Cpu, addr: Addr) {
        let era = heap.load(cpu, self.globals.era, 0);
        self.globals.births.lock().unwrap().insert(addr.raw(), era);
    }

    fn retire(&mut self, heap: &Heap, cpu: &mut Cpu, addr: Addr) {
        self.globals.outstanding[self.thread_id].fetch_add(1, Ordering::Relaxed);
        self.pending.push(addr);
        if self.pending.len() >= self.batch_size {
            self.dispatch(heap, cpu);
        }
    }

    fn begin(&mut self, heap: &Heap, cpu: &mut Cpu) {
        let (slots, me) = (&self.globals.slots, self.thread_id);
        let e = heap.load(cpu, self.globals.era, 0);
        slots.store(heap, cpu, me, SLOT_ACTIVE, 1);
        slots.store(heap, cpu, me, SLOT_ERA, e);
        self.published_era = e;
        heap.fence(cpu);
    }

    fn end(&mut self, heap: &Heap, cpu: &mut Cpu) {
        self.deactivate(heap, cpu);
        self.drain_mailbox(heap, cpu);
    }

    fn garbage(&self) -> u64 {
        self.globals.outstanding[self.thread_id].load(Ordering::Relaxed)
    }

    fn report(&self, reg: &mut MetricsRegistry) {
        reg.add("scheme.hyaline.dispatches", self.dispatches);
        reg.add("scheme.hyaline.batch_handoffs", self.batch_handoffs);
        reg.add("scheme.hyaline.freed", self.freed);
    }

    /// Deactivates first so peers tearing down later skip this slot, then
    /// releases everything handed here and dispatches the tail batch
    /// (with everyone else inactive or draining later, it frees
    /// immediately or on their drain).
    fn teardown(&mut self, heap: &Heap, cpu: &mut Cpu) {
        self.deactivate(heap, cpu);
        self.drain_mailbox(heap, cpu);
        self.dispatch(heap, cpu);
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

    fn setup(threads: usize) -> (Arc<HyalineGlobals>, Arc<Heap>) {
        let (heap, _) = test_env();
        let globals = Arc::new(HyalineGlobals::new(&heap, threads));
        (globals, heap)
    }

    fn noop(th: &mut Frame<Hyaline>, cpu: &mut Cpu) {
        th.run_op(cpu, 0, 0, &mut |_, _| Ok(Step::Done(0)));
    }

    #[test]
    fn solo_dispatch_frees_immediately() {
        let (globals, heap) = setup(1);
        let mut th = Frame::new(heap.clone(), Hyaline::new(globals, 0, 1, Mutation::None));
        let mut cpu = test_cpu(0);
        let n = heap.alloc_untimed(2).unwrap();
        th.run_op(&mut cpu, 0, 0, &mut |m, cpu| {
            m.retire_unlinked(cpu, n)?;
            Ok(Step::Done(0))
        });
        assert!(!heap.is_live(n), "no active readers: freed at dispatch");
        assert_eq!(th.outstanding_garbage(), 0);
        assert_eq!(th.scheme.dispatches, 1);
        assert_eq!(th.scheme.batch_handoffs, 0);
    }

    #[test]
    fn active_reader_holds_the_batch_until_its_op_ends() {
        let (globals, heap) = setup(2);
        let mut writer = Frame::new(
            heap.clone(),
            Hyaline::new(globals.clone(), 0, 1, Mutation::None),
        );
        let mut reader = Frame::new(
            heap.clone(),
            Hyaline::new(globals.clone(), 1, 1, Mutation::None),
        );
        let mut cpu_w = test_cpu(0);
        let mut cpu_r = test_cpu(1);

        let cell = heap.alloc_untimed(1).unwrap();
        let x = heap.alloc_untimed(2).unwrap();
        heap.poke(cell, 0, x.raw());

        // Reader parks mid-operation, holding X in a local.
        reader.begin_op(&mut cpu_r, 0, 1);
        let mut hold = |m: &mut dyn OpMem, cpu: &mut Cpu| {
            let v = m.load_ptr(cpu, cell, 0, 0)?;
            m.set_local(cpu, 0, v);
            Ok(Step::Continue)
        };
        reader.step_op(&mut cpu_r, &mut hold);

        // Writer retires X; the batch is handed to the reader, not freed.
        writer.run_op(&mut cpu_w, 0, 0, &mut |m, cpu| {
            m.retire_unlinked(cpu, x)?;
            Ok(Step::Done(0))
        });
        assert!(heap.is_live(x), "handed-off batch must stay live");
        assert_eq!(writer.scheme.batch_handoffs, 1);
        assert_eq!(writer.outstanding_garbage(), 1);

        // Reader finishes: its drain drops the last reference and frees,
        // crediting the writer's garbage gauge.
        let mut fin = |_: &mut dyn OpMem, _: &mut Cpu| Ok(Step::Done(0));
        reader.step_op(&mut cpu_r, &mut fin);
        assert!(!heap.is_live(x));
        assert_eq!(writer.outstanding_garbage(), 0);
        assert_eq!(reader.scheme.freed, 1);
    }

    #[test]
    fn stale_era_reader_is_skipped() {
        let (globals, heap) = setup(2);
        let mut writer = Frame::new(
            heap.clone(),
            Hyaline::new(globals.clone(), 0, 1, Mutation::None),
        );
        let mut reader = Frame::new(
            heap.clone(),
            Hyaline::new(globals.clone(), 1, 1, Mutation::None),
        );
        let mut cpu_w = test_cpu(0);
        let mut cpu_r = test_cpu(1);

        // Reader activates at the current era and stalls without touching
        // anything younger.
        reader.begin_op(&mut cpu_r, 0, 0);

        // Writer allocates (and links nowhere the reader can see) after
        // the reader froze, then retires: the node's birth era postdates
        // the reader's slot, so the batch skips it entirely.
        writer.run_op(&mut cpu_w, 0, 0, &mut |m, cpu| {
            let n = m.alloc(cpu, 2);
            m.retire_unlinked(cpu, n)?;
            Ok(Step::Done(0))
        });
        // One dispatch already happened inside the op above (batch 1), so
        // the era the node was born under is younger than the reader's.
        writer.run_op(&mut cpu_w, 0, 0, &mut |m, cpu| {
            let n = m.alloc(cpu, 2);
            m.retire_unlinked(cpu, n)?;
            Ok(Step::Done(0))
        });
        assert_eq!(
            writer.scheme.batch_handoffs, 1,
            "the first batch's node was born at the reader's era and is \
             handed off; the second batch's node was born after the era \
             bump of the first dispatch and must skip the reader"
        );
        assert_eq!(writer.outstanding_garbage(), 1, "only batch 1 pinned");
    }

    #[test]
    fn prepopulated_nodes_default_to_the_oldest_era() {
        let (globals, heap) = setup(2);
        let mut writer = Frame::new(
            heap.clone(),
            Hyaline::new(globals.clone(), 0, 1, Mutation::None),
        );
        let mut reader = Frame::new(
            heap.clone(),
            Hyaline::new(globals.clone(), 1, 1, Mutation::None),
        );
        let mut cpu_w = test_cpu(0);
        let mut cpu_r = test_cpu(1);

        reader.begin_op(&mut cpu_r, 0, 0);
        // A node allocated outside the scheme (prepopulation) has no birth
        // record: it must be handed to every active reader.
        let n = heap.alloc_untimed(2).unwrap();
        writer.run_op(&mut cpu_w, 0, 0, &mut |m, cpu| {
            m.retire_unlinked(cpu, n)?;
            Ok(Step::Done(0))
        });
        assert_eq!(writer.scheme.batch_handoffs, 1);
        assert!(heap.is_live(n));
        let mut fin = |_: &mut dyn OpMem, _: &mut Cpu| Ok(Step::Done(0));
        reader.step_op(&mut cpu_r, &mut fin);
        assert!(!heap.is_live(n));
    }

    #[test]
    fn batches_aggregate_to_the_configured_size() {
        let (globals, heap) = setup(1);
        let mut th = Frame::new(heap.clone(), Hyaline::new(globals, 0, 4, Mutation::None));
        let mut cpu = test_cpu(0);
        for i in 0..8u64 {
            let n = heap.alloc_untimed(2).unwrap();
            th.run_op(&mut cpu, 0, 0, &mut |m, cpu| {
                m.retire_unlinked(cpu, n)?;
                Ok(Step::Done(0))
            });
            let expect = (i + 1) / 4;
            assert_eq!(th.scheme.dispatches, expect, "dispatch every 4 retires");
        }
        assert_eq!(th.outstanding_garbage(), 0);
    }

    #[test]
    fn teardown_drains_the_tail() {
        let (globals, heap) = setup(2);
        let mut a = Frame::new(
            heap.clone(),
            Hyaline::new(globals.clone(), 0, 100, Mutation::None),
        );
        let mut b = Frame::new(
            heap.clone(),
            Hyaline::new(globals.clone(), 1, 100, Mutation::None),
        );
        let mut cpu_a = test_cpu(0);
        let mut cpu_b = test_cpu(1);

        let n = heap.alloc_untimed(2).unwrap();
        a.run_op(&mut cpu_a, 0, 0, &mut |m, cpu| {
            m.retire_unlinked(cpu, n)?;
            Ok(Step::Done(0))
        });
        assert!(heap.is_live(n), "batch 100 not reached: still pending");
        noop(&mut b, &mut cpu_b);
        a.teardown(&mut cpu_a);
        b.teardown(&mut cpu_b);
        assert!(!heap.is_live(n));
        assert_eq!(a.outstanding_garbage(), 0);
    }

    #[test]
    fn teardown_ends_an_open_operation() {
        let (globals, heap) = setup(1);
        let mut th = Frame::new(heap.clone(), Hyaline::new(globals, 0, 1, Mutation::None));
        let mut cpu = test_cpu(0);
        th.begin_op(&mut cpu, 0, 0);
        th.teardown(&mut cpu);
        assert_eq!(th.run_op(&mut cpu, 0, 0, &mut |_, _| Ok(Step::Done(7))), 7);
    }

    #[test]
    fn drop_decrement_mutation_leaks_the_first_batch() {
        let (globals, heap) = setup(1);
        let mut th = Frame::new(
            heap.clone(),
            Hyaline::new(globals, 0, 1, Mutation::HyalineDropDecrement),
        );
        let mut cpu = test_cpu(0);
        let n1 = heap.alloc_untimed(2).unwrap();
        let n2 = heap.alloc_untimed(2).unwrap();
        for n in [n1, n2] {
            th.run_op(&mut cpu, 0, 0, &mut |m, cpu| {
                m.retire_unlinked(cpu, n)?;
                Ok(Step::Done(0))
            });
        }
        th.teardown(&mut cpu);
        assert!(heap.is_live(n1), "mutated batch can never reach zero");
        assert!(!heap.is_live(n2), "one-shot: later batches are clean");
        assert_eq!(th.outstanding_garbage(), 1);
    }
}
