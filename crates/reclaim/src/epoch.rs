//! Quiescence/epoch-based reclamation (the paper's "Epoch" comparator).
//!
//! "Every thread has a local timestamp, which it updates with every
//! operation start and finish. Before reclaiming a node, the free procedure
//! checks that all of the threads made progress, by taking a snapshot of
//! these timestamps and waiting for their progress (or change)."
//!
//! Concretely: timestamps live in shared memory, odd while the thread is
//! inside an operation and even while it is quiescent. A reclaimer snapshots
//! all timestamps after its own operation completes (so waiters never wait
//! on each other) and frees its limbo list once every snapshot entry has
//! either moved or is even. The wait is *bounded*: the reclaimer spins long
//! enough to ride out an ordinary scheduler preemption
//! ([`crate::ReclaimConfig::epoch_wait_budget`], sized to the quantum), and
//! that spinning is the >8-threads collapse of Figures 1 and 2 — one
//! preempted in-operation thread makes every reclaimer burn its budget.
//! Against a thread that stays gone (a stall or a crash), the budget
//! expires; the reclaimer then keeps operating and retiring, re-checking
//! the pinning straggler at each operation boundary, so its limbo list
//! hoards garbage without bound until the straggler moves — the robustness
//! failure the `st-bench robustness` experiment measures.

use crate::frame::Protocol;
use crate::slots::ThreadSlots;
use st_machine::Cpu;
use st_obs::MetricsRegistry;
use st_simheap::{Addr, Heap, Word};
use std::sync::Arc;

/// A pending quiescence wait.
#[derive(Debug)]
struct Wait {
    /// The threads not yet seen to progress or quiesce, ascending, each
    /// with the (odd) stamp it showed at the snapshot.
    pending: Vec<(usize, Word)>,
    /// Virtual time at which the reclaimer stops spinning and hoards.
    give_up_at: u64,
}

/// Per-thread epoch state.
pub struct Epoch {
    /// The timestamps, one word per thread.
    stamps: Arc<ThreadSlots>,
    thread_id: usize,
    /// Limbo size that arms a quiescence wait at operation end.
    threshold: usize,
    wait_budget: u64,
    timestamp: Word,
    limbo: Vec<Addr>,
    wait: Option<Wait>,
    /// Threads (and their stamps) that pinned an abandoned wait. While
    /// every one still shows its recorded stamp there is no point in a new
    /// snapshot — it would be pinned by the same stragglers.
    pinned_by: Vec<(usize, Word)>,
    /// Nodes returned to the allocator (statistics).
    pub freed: u64,
}

impl Epoch {
    /// The state of thread slot `thread_id`, arming a quiescence wait at
    /// the end of an operation once `threshold` retired nodes wait.
    pub fn new(
        stamps: Arc<ThreadSlots>,
        thread_id: usize,
        threshold: usize,
        wait_budget: u64,
    ) -> Self {
        Self {
            stamps,
            thread_id,
            threshold,
            wait_budget,
            timestamp: 0,
            limbo: Vec::new(),
            wait: None,
            pinned_by: Vec::new(),
            freed: 0,
        }
    }

    fn bump_timestamp(&mut self, heap: &Heap, cpu: &mut Cpu) {
        self.timestamp += 1;
        self.stamps
            .store(heap, cpu, self.thread_id, 0, self.timestamp);
        heap.fence(cpu);
    }

    /// One round of the quiescence wait; returns `true` when finished
    /// (freed, or the spin budget expired and the wait was abandoned).
    /// A round reloads only the threads still pending, in thread order.
    fn wait_round(&mut self, heap: &Heap, cpu: &mut Cpu) -> bool {
        let Some(wait) = &mut self.wait else {
            return true;
        };
        // Progress, or quiescence, clears a thread: its stamp was odd at
        // the snapshot, so anything but that same stamp clears it.
        let stamps = &self.stamps;
        wait.pending
            .retain(|&(t, stamp)| stamps.load(heap, cpu, t, 0) == stamp);
        if wait.pending.is_empty() {
            self.wait = None;
            self.pinned_by.clear();
            for node in std::mem::take(&mut self.limbo) {
                heap.free(cpu, node);
                self.freed += 1;
            }
            return true;
        }
        if cpu.now() >= wait.give_up_at {
            // The straggler outlasted the budget: stop spinning, remember
            // who pinned the snapshot, and go back to operating. Limbo is
            // kept and keeps growing — the hoarding failure mode.
            self.pinned_by = self.wait.take().expect("wait present").pending;
            return true;
        }
        false
    }

    /// `true` while every straggler of the last abandoned wait still shows
    /// the stamp it was abandoned at (one load per straggler, stopping at
    /// the first that moved).
    fn stragglers_unmoved(&mut self, heap: &Heap, cpu: &mut Cpu) -> bool {
        let stamps = &self.stamps;
        let moved = |&(t, stamp): &(usize, Word)| stamps.load(heap, cpu, t, 0) != stamp;
        if self.pinned_by.is_empty() || self.pinned_by.iter().any(moved) {
            self.pinned_by.clear();
            return false;
        }
        true
    }

    /// Snapshots every timestamp (one load each, in thread order) and
    /// waits on the threads caught inside an operation, except itself.
    fn arm_wait(&mut self, heap: &Heap, cpu: &mut Cpu) {
        let mut pending = Vec::new();
        for t in 0..self.stamps.threads() {
            let stamp = self.stamps.load(heap, cpu, t, 0);
            if t != self.thread_id && stamp % 2 == 1 {
                pending.push((t, stamp));
            }
        }
        self.wait = Some(Wait {
            pending,
            give_up_at: cpu.now().saturating_add(self.wait_budget),
        });
    }
}

impl Protocol for Epoch {
    const NAME: &'static str = "Epoch";

    fn retire(&mut self, _heap: &Heap, _cpu: &mut Cpu, addr: Addr) {
        self.limbo.push(addr);
    }

    fn begin(&mut self, heap: &Heap, cpu: &mut Cpu) {
        self.bump_timestamp(heap, cpu); // odd: in operation
        debug_assert_eq!(self.timestamp % 2, 1);
    }

    fn end(&mut self, heap: &Heap, cpu: &mut Cpu) {
        self.bump_timestamp(heap, cpu); // even: quiescent
        if self.wait.is_none()
            && self.limbo.len() >= self.threshold
            && !self.stragglers_unmoved(heap, cpu)
        {
            self.arm_wait(heap, cpu);
        }
    }

    fn idle_work_pending(&self) -> bool {
        self.wait.is_some()
    }

    fn step_idle(&mut self, heap: &Heap, cpu: &mut Cpu) {
        self.wait_round(heap, cpu);
    }

    fn garbage(&self) -> u64 {
        self.limbo.len() as u64
    }

    fn report(&self, reg: &mut MetricsRegistry) {
        reg.add("scheme.epoch.freed", self.freed);
    }

    fn teardown(&mut self, heap: &Heap, cpu: &mut Cpu) {
        if !self.limbo.is_empty() {
            if self.wait.is_none() {
                // Force a snapshot even below the threshold or with
                // a straggler on record.
                self.arm_wait(heap, cpu);
            }
            // Bounded drain: if some thread never quiesces, the budget
            // expires and garbage stays — the scheme's documented failure
            // mode.
            for _ in 0..1_000 {
                if self.wait_round(heap, cpu) {
                    break;
                }
            }
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
        let stamps = Arc::new(ThreadSlots::new(&heap, threads, 1));
        (stamps, heap)
    }

    /// Small spin budget so give-up paths are cheap to reach in tests.
    const BUDGET: u64 = 5_000;

    /// One operation that completes without retiring anything.
    fn noop(m: &mut Frame<Epoch>, cpu: &mut Cpu) {
        m.run_op(cpu, 0, 0, &mut |_, _| Ok(Step::Done(0)));
    }

    /// One operation that retires `node`; at threshold 1 it arms a wait at
    /// its end, which `run_op` leaves unpolled.
    fn retire_op(m: &mut Frame<Epoch>, cpu: &mut Cpu, node: Addr) {
        m.run_op(cpu, 0, 0, &mut |m, cpu| {
            m.retire_unlinked(cpu, node).map(|()| Step::Done(0))
        });
    }

    #[test]
    fn frees_after_quiescence() {
        let (stamps, heap) = setup(2);
        let mut a = Frame::new(heap.clone(), Epoch::new(stamps.clone(), 0, 1, BUDGET));
        let mut b = Frame::new(heap.clone(), Epoch::new(stamps, 1, 1, BUDGET));
        let mut cpu_a = test_cpu(0);
        let mut cpu_b = test_cpu(1);

        // B runs one full op so its timestamp is even (quiescent).
        noop(&mut b, &mut cpu_b);

        // A retires a node; threshold 1 arms the wait at op end, and with
        // everyone quiescent the first poll clears it.
        let node = heap.alloc_untimed(2).unwrap();
        retire_op(&mut a, &mut cpu_a, node);
        assert!(a.idle_work_pending(), "wait armed but not yet polled");
        a.step_idle(&mut cpu_a);
        assert!(!a.idle_work_pending());
        assert!(!heap.is_live(node));
        assert_eq!(a.outstanding_garbage(), 0);
    }

    #[test]
    fn in_operation_thread_makes_limbo_hoard() {
        let (stamps, heap) = setup(2);
        let mut a = Frame::new(heap.clone(), Epoch::new(stamps.clone(), 0, 1, BUDGET));
        let mut b = Frame::new(heap.clone(), Epoch::new(stamps, 1, 1, BUDGET));
        let mut cpu_a = test_cpu(0);
        let mut cpu_b = test_cpu(1);

        // B parks inside an operation (odd timestamp, never progresses).
        b.begin_op(&mut cpu_b, 0, 0);

        // A spins one budget on the pinned snapshot, gives up, and then
        // hoards: every further retire grows the limbo list — the
        // scheme's failure mode.
        let mut nodes = Vec::new();
        for i in 0..50u64 {
            let node = heap.alloc_untimed(2).unwrap();
            nodes.push(node);
            retire_op(&mut a, &mut cpu_a, node);
            assert_eq!(a.outstanding_garbage(), i + 1, "hoards while B is live");
        }
        assert!(nodes.iter().all(|&n| heap.is_live(n)));

        // B completes: A's next op boundary sees the straggler moved and
        // re-arms; the op after that drains the fresh snapshot.
        let mut fin = |_: &mut dyn OpMem, _: &mut Cpu| Ok(Step::Done(0));
        b.step_op(&mut cpu_b, &mut fin);
        noop(&mut a, &mut cpu_a);
        noop(&mut a, &mut cpu_a);
        assert_eq!(a.outstanding_garbage(), 0);
        assert!(nodes.iter().all(|&n| !heap.is_live(n)));
    }

    #[test]
    fn a_poll_reloads_only_the_straggler() {
        let (stamps, heap) = setup(16);
        let mut a = Frame::new(heap.clone(), Epoch::new(stamps.clone(), 0, 1, BUDGET));
        let mut b = Frame::new(heap.clone(), Epoch::new(stamps, 9, 1, BUDGET));
        let mut cpu_a = test_cpu(0);
        let mut cpu_b = test_cpu(9);

        // B parks inside an operation; the other 14 threads never ran, so
        // their stamps are even. A's op-end snapshot loads all 16 stamps.
        b.begin_op(&mut cpu_b, 0, 0);
        let node = heap.alloc_untimed(2).unwrap();
        retire_op(&mut a, &mut cpu_a, node);

        // Every round reloads B's stamp alone, until the budget expires
        // and the wait hands exactly B to `pinned_by`.
        let mut rounds = 0;
        while a.idle_work_pending() {
            let loads = cpu_a.counters.loads;
            a.step_idle(&mut cpu_a);
            assert_eq!(cpu_a.counters.loads - loads, 1, "round {rounds}");
            rounds += 1;
        }
        assert!(rounds > 1, "the budget outlasts one round");
        assert_eq!(a.scheme.pinned_by, [(9, b.scheme.timestamp)]);
        assert!(heap.is_live(node));
    }

    #[test]
    fn reclaimers_do_not_deadlock_each_other() {
        let (stamps, heap) = setup(2);
        let mut a = Frame::new(heap.clone(), Epoch::new(stamps.clone(), 0, 1, BUDGET));
        let mut b = Frame::new(heap.clone(), Epoch::new(stamps, 1, 1, BUDGET));
        let mut cpu_a = test_cpu(0);
        let mut cpu_b = test_cpu(1);

        let na = heap.alloc_untimed(2).unwrap();
        let nb = heap.alloc_untimed(2).unwrap();
        // Each reclaimer snapshots at its own op boundary, when it is
        // already quiescent — so their polls clear each other, no deadlock.
        retire_op(&mut a, &mut cpu_a, na);
        retire_op(&mut b, &mut cpu_b, nb);
        noop(&mut a, &mut cpu_a);
        noop(&mut b, &mut cpu_b);
        assert!(!heap.is_live(na));
        assert!(!heap.is_live(nb));
    }

    #[test]
    fn teardown_drains_when_everyone_is_idle() {
        let (stamps, heap) = setup(1);
        let mut a = Frame::new(heap.clone(), Epoch::new(stamps, 0, 100, BUDGET));
        let mut cpu = test_cpu(0);
        let node = heap.alloc_untimed(2).unwrap();
        retire_op(&mut a, &mut cpu, node);
        assert_eq!(
            a.outstanding_garbage(),
            1,
            "below threshold: still in limbo"
        );
        a.teardown(&mut cpu);
        assert_eq!(a.outstanding_garbage(), 0);
        assert!(!heap.is_live(node));
    }
}
