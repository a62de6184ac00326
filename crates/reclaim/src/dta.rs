//! Drop-the-Anchor (Braginsky, Kogan, Petrank; SPAA 2013), simplified.
//!
//! DTA elides hazard pointers: a thread publishes an *anchor* (with the
//! fence that makes it visible) only once every `K` pointer hops, plus one
//! at operation start. Between anchors the thread may hold references only
//! to nodes loaded since its previous anchor — true for linked-list
//! traversals, whose locals lag the head of the traversal by at most two
//! hops (the paper, like the original, applies DTA **to the linked list
//! only**).
//!
//! The reclamation rule: a node retired at era `T` may be freed once every
//! thread currently inside an operation has published **two** anchors after
//! `T` (so even references loaded just before its latest anchor postdate
//! the unlink), or is idle. Retires advance the era clock; anchors read it,
//! so "after `T`" is "observed era >= T". With Harris-style physical unlinking this
//! implies no live reference to the node can exist (see the safety sketch
//! in DESIGN.md).
//!
//! Substitution note: the original recovers from *crashed* threads with a
//! freezing protocol that rebuilds part of the list. This reproduction
//! keeps the freeze idea but simplifies recovery to an **operation
//! restart**: a sweeping thread that finds a peer whose newest anchor lags
//! the era clock by more than [`FREEZE_LAG`] retires sets the
//! peer's *frozen* flag and drops it from the reclamation horizon, so a
//! stalled (or killed) thread stops blocking frees. The victim checks its
//! own flag at the top of **every** [`crate::SchemeThread::step_op`] — before any
//! body code can touch a pointer — and, if frozen, discards its local
//! state, re-anchors, and restarts the operation from scratch. Because the
//! simulator interleaves at step granularity, the flag is always observed
//! before a stale local can be dereferenced, so freeing past a frozen
//! thread's anchors is safe without the original's list surgery. The cost
//! is one extra anchor-line load per step and, on restart, the loss of any
//! not-yet-linked allocation (bounded by `scheme.dta.recoveries`).

use crate::frame::Protocol;
use crate::slots::ThreadSlots;
use st_machine::Cpu;
use st_obs::MetricsRegistry;
use st_simheap::{Addr, Heap, Word};
use std::sync::Arc;

/// Era-clock lag (in retires) past which a sweeping thread freezes a peer
/// out of the reclamation horizon; the peer restarts its operation on its
/// next step. Freezing is always safe — a spurious freeze only costs the
/// victim one operation restart — so the lag sits close above the one a
/// healthy thread shows.
pub const FREEZE_LAG: u64 = 128;

/// Words of a thread's anchor record, at the `OFF_*` offsets below.
const RECORD_WORDS: usize = 5;
const OFF_ACTIVE: usize = 0;
const OFF_LAST_TS: usize = 1;
const OFF_PREV_TS: usize = 2;
const OFF_ANCHOR_VAL: usize = 3;
/// Set by a sweeping peer when this thread's anchors lag the era clock too
/// far; the owner must restart its operation before touching any pointer.
const OFF_FROZEN: usize = 4;

/// Shared DTA state: per-thread anchor records and the era clock.
#[derive(Debug)]
pub struct DtaGlobals {
    records: ThreadSlots,
    era: Addr,
}

impl DtaGlobals {
    /// Allocates anchor records for `max_threads` threads.
    pub fn new(heap: &Arc<Heap>, max_threads: usize) -> Self {
        let records = ThreadSlots::new(heap, max_threads, RECORD_WORDS);
        let era = heap
            .alloc_untimed(1)
            .expect("heap too small for the DTA era clock");
        // Eras start at 1 so "never anchored" (0) is distinguishable.
        heap.poke(era, 0, 1);
        Self { records, era }
    }
}

/// Per-thread DTA state.
pub struct Dta {
    globals: Arc<DtaGlobals>,
    thread_id: usize,
    k: u32,
    /// Limbo size that triggers a sweep.
    threshold: usize,
    freeze_lag: u64,
    hops: u32,
    limbo: Vec<(Addr, Word)>,
    /// Anchors published (statistics).
    pub anchors: u64,
    /// Lagging peers this thread froze (statistics).
    pub freezes: u64,
    /// Operation restarts after being frozen by a peer (statistics).
    pub recoveries: u64,
}

impl Dta {
    /// The state of thread slot `thread_id`, anchoring every `k` pointer
    /// hops and sweeping once `threshold` retired nodes wait. A peer whose newest anchor lags the era clock by more than
    /// `freeze_lag` retires is frozen out of the horizon (see the module
    /// docs; the factory passes [`FREEZE_LAG`]); [`u64::MAX`] disables
    /// freezing.
    ///
    /// # Panics
    ///
    /// Panics if `k < 4`: the safety argument needs the anchor period to
    /// exceed the traversal's local-variable lag.
    pub fn new(
        globals: Arc<DtaGlobals>,
        thread_id: usize,
        k: u32,
        threshold: usize,
        freeze_lag: u64,
    ) -> Self {
        assert!(k >= 4, "anchor period must exceed the traversal lag");
        Self {
            globals,
            thread_id,
            k,
            threshold,
            freeze_lag,
            hops: 0,
            limbo: Vec::new(),
            anchors: 0,
            freezes: 0,
            recoveries: 0,
        }
    }

    /// Publishes an anchor: rotate the timestamps, expose the value, fence.
    ///
    /// Anchors only *read* the era clock (a shared read of a rarely
    /// written line); retires advance it. A global fetch-add per anchor
    /// would manufacture contention the real scheme does not have.
    fn post_anchor(&mut self, heap: &Heap, cpu: &mut Cpu, value: Word) {
        self.anchors += 1;
        let (g, me) = (&self.globals, self.thread_id);
        let last = g.records.load(heap, cpu, me, OFF_LAST_TS);
        let now = heap.load(cpu, g.era, 0);
        g.records.store(heap, cpu, me, OFF_PREV_TS, last);
        g.records.store(heap, cpu, me, OFF_LAST_TS, now);
        g.records.store(heap, cpu, me, OFF_ANCHOR_VAL, value);
        heap.fence(cpu);
    }

    /// Frees every limbo node that all in-operation threads have anchored
    /// twice past; keeps the rest.
    fn sweep(&mut self, heap: &Heap, cpu: &mut Cpu) {
        let g = &self.globals;
        let era_now = heap.load(cpu, g.era, 0);
        // The horizon: the oldest prev-anchor among active threads. Peers
        // whose newest anchor lags the era clock by more than `freeze_lag`
        // are frozen (flagged to restart) and dropped from the horizon, so
        // a stalled or dead thread cannot block reclamation forever.
        let mut horizon = Word::MAX;
        for t in 0..g.records.threads() {
            if g.records.load(heap, cpu, t, OFF_ACTIVE) == 0 {
                continue;
            }
            if g.records.load(heap, cpu, t, OFF_FROZEN) != 0 {
                continue;
            }
            if t != self.thread_id {
                let last = g.records.load(heap, cpu, t, OFF_LAST_TS);
                if era_now.saturating_sub(last) > self.freeze_lag {
                    g.records.store(heap, cpu, t, OFF_FROZEN, 1);
                    heap.fence(cpu);
                    self.freezes += 1;
                    continue;
                }
            }
            let prev = g.records.load(heap, cpu, t, OFF_PREV_TS);
            horizon = horizon.min(prev);
        }
        let limbo = std::mem::take(&mut self.limbo);
        for (node, retired_at) in limbo {
            // An anchor ordered after retire(T) observed era >= T.
            if retired_at <= horizon {
                heap.free(cpu, node);
            } else {
                self.limbo.push((node, retired_at));
            }
        }
    }
}

impl Protocol for Dta {
    const NAME: &'static str = "DTA";

    fn load_ptr(
        &mut self,
        heap: &Heap,
        cpu: &mut Cpu,
        addr: Addr,
        off: u64,
        _guard: usize,
    ) -> Word {
        let v = heap.load(cpu, addr, off);
        self.hops += 1;
        if self.hops.is_multiple_of(self.k) {
            self.post_anchor(heap, cpu, v);
        }
        v
    }

    fn retire(&mut self, heap: &Heap, cpu: &mut Cpu, addr: Addr) {
        // Stamp with the *new* era: an anchor ordered after this retire
        // reads at least this value.
        let stamp = heap.fetch_add(cpu, self.globals.era, 0, 1) + 1;
        self.limbo.push((addr, stamp));
        if self.limbo.len() >= self.threshold {
            self.sweep(heap, cpu);
        }
    }

    fn begin(&mut self, heap: &Heap, cpu: &mut Cpu) {
        self.hops = 0;
        let records = &self.globals.records;
        records.store(heap, cpu, self.thread_id, OFF_ACTIVE, 1);
        // The operation-start anchor keeps short operations from pinning
        // the horizon.
        self.post_anchor(heap, cpu, 0);
    }

    /// Frozen by a peer? Restart before the body can touch a pointer: the
    /// frame discards the locals (which may reference freed nodes), and
    /// the re-anchored next step reruns the operation from scratch.
    fn before_block(&mut self, heap: &Heap, cpu: &mut Cpu) -> bool {
        let (records, me) = (&self.globals.records, self.thread_id);
        if records.load(heap, cpu, me, OFF_FROZEN) == 0 {
            return false;
        }
        records.store(heap, cpu, me, OFF_FROZEN, 0);
        self.hops = 0;
        self.recoveries += 1;
        self.post_anchor(heap, cpu, 0);
        true
    }

    fn end(&mut self, heap: &Heap, cpu: &mut Cpu) {
        let records = &self.globals.records;
        records.store(heap, cpu, self.thread_id, OFF_ACTIVE, 0);
        heap.fence(cpu);
    }

    fn garbage(&self) -> u64 {
        self.limbo.len() as u64
    }

    fn report(&self, reg: &mut MetricsRegistry) {
        reg.add("scheme.dta.anchors", self.anchors);
        reg.add("scheme.dta.freezes", self.freezes);
        reg.add("scheme.dta.recoveries", self.recoveries);
    }

    fn teardown(&mut self, heap: &Heap, cpu: &mut Cpu) {
        self.sweep(heap, cpu);
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

    fn setup(threads: usize) -> (Arc<DtaGlobals>, Arc<Heap>) {
        let (heap, _) = test_env();
        let globals = Arc::new(DtaGlobals::new(&heap, threads));
        (globals, heap)
    }

    #[test]
    fn anchors_post_every_k_hops() {
        let (globals, heap) = setup(1);
        let mut th = Frame::new(heap.clone(), Dta::new(globals, 0, 4, 100, u64::MAX));
        let mut cpu = test_cpu(0);
        let cell = heap.alloc_untimed(1).unwrap();

        th.run_op(&mut cpu, 0, 1, &mut |m, cpu| {
            let i = m.get_local(cpu, 0);
            if i < 12 {
                let _ = m.load_ptr(cpu, cell, 0, 0)?;
                m.set_local(cpu, 0, i + 1);
                return Ok(Step::Continue);
            }
            Ok(Step::Done(0))
        });
        // One at op start + one per 4 of the 12 hops.
        assert_eq!(th.scheme.anchors, 1 + 3);
    }

    #[test]
    fn idle_threads_do_not_pin_the_horizon() {
        let (globals, heap) = setup(2);
        let mut a = Frame::new(heap.clone(), Dta::new(globals.clone(), 0, 4, 1, u64::MAX));
        let _b = Frame::new(heap.clone(), Dta::new(globals, 1, 4, 1, u64::MAX));
        let mut cpu = test_cpu(0);
        let node = heap.alloc_untimed(2).unwrap();

        // Thread 1 never runs an op (inactive): only A's own anchors
        // matter. Retire, then anchor twice via two more ops.
        a.run_op(&mut cpu, 0, 0, &mut |m, cpu| {
            m.retire_unlinked(cpu, node)?;
            Ok(Step::Done(0))
        });
        assert!(heap.is_live(node), "own anchors too old at retire time");
        for _ in 0..2 {
            a.run_op(&mut cpu, 0, 0, &mut |_, _| Ok(Step::Done(0)));
        }
        a.teardown(&mut cpu);
        assert!(!heap.is_live(node));
    }

    #[test]
    fn active_thread_with_stale_anchors_blocks_frees() {
        let (globals, heap) = setup(2);
        let mut a = Frame::new(heap.clone(), Dta::new(globals.clone(), 0, 4, 1, u64::MAX));
        let mut b = Frame::new(heap.clone(), Dta::new(globals, 1, 4, 1, u64::MAX));
        let mut cpu_a = test_cpu(0);
        let mut cpu_b = test_cpu(1);
        let node = heap.alloc_untimed(2).unwrap();

        // B parks inside an operation with anchors from before the retire.
        b.begin_op(&mut cpu_b, 0, 0);

        a.run_op(&mut cpu_a, 0, 0, &mut |m, cpu| {
            m.retire_unlinked(cpu, node)?;
            Ok(Step::Done(0))
        });
        for _ in 0..3 {
            a.run_op(&mut cpu_a, 0, 0, &mut |_, _| Ok(Step::Done(0)));
        }
        a.teardown(&mut cpu_a);
        assert!(heap.is_live(node), "B's stale anchors must block the free");

        // B re-anchors twice (two hops cycles of K) and finishes.
        let cell = heap.alloc_untimed(1).unwrap();
        let mut hop = |m: &mut dyn OpMem, cpu: &mut Cpu| {
            for _ in 0..8 {
                let _ = m.load_ptr(cpu, cell, 0, 0)?;
            }
            Ok(Step::Continue)
        };
        b.step_op(&mut cpu_b, &mut hop);
        a.teardown(&mut cpu_a);
        assert!(!heap.is_live(node), "two post-retire anchors clear B");
    }

    #[test]
    fn lagging_thread_is_frozen_and_restarts() {
        let (globals, heap) = setup(2);
        let mut a = Frame::new(heap.clone(), Dta::new(globals.clone(), 0, 4, 1, 4));
        let mut b = Frame::new(heap.clone(), Dta::new(globals, 1, 4, 1, 4));
        let mut cpu_a = test_cpu(0);
        let mut cpu_b = test_cpu(1);

        // B parks mid-operation with local state and pre-stall anchors.
        b.begin_op(&mut cpu_b, 0, 1);
        b.step_op(&mut cpu_b, &mut |m, cpu| {
            m.set_local(cpu, 0, 5);
            Ok(Step::Continue)
        });

        // A retires ten nodes; each retire advances the era and sweeps.
        // Once B lags by more than freeze_lag=4 eras, A freezes it and the
        // horizon moves past B's stale anchors.
        let mut nodes = Vec::new();
        for _ in 0..10 {
            let node = heap.alloc_untimed(2).unwrap();
            nodes.push(node);
            a.run_op(&mut cpu_a, 0, 0, &mut |m, cpu| {
                m.retire_unlinked(cpu, node)?;
                Ok(Step::Done(0))
            });
        }
        for _ in 0..3 {
            a.run_op(&mut cpu_a, 0, 0, &mut |_, _| Ok(Step::Done(0)));
        }
        a.teardown(&mut cpu_a);
        assert_eq!(a.scheme.freezes, 1, "B must be frozen exactly once");
        assert!(
            !heap.is_live(nodes[0]),
            "frozen B must not block the horizon"
        );
        assert_eq!(a.outstanding_garbage(), 0, "limbo must fully drain");

        // B's next step must notice the flag and restart: the step is
        // consumed by recovery and the poisoned local state is gone.
        let stepped = b.step_op(&mut cpu_b, &mut |_, _| {
            panic!("body must not run on a frozen thread")
        });
        assert_eq!(stepped, None);
        assert_eq!(b.scheme.recoveries, 1);
        let result = b.step_op(&mut cpu_b, &mut |m, cpu| {
            Ok(Step::Done(m.get_local(cpu, 0)))
        });
        assert_eq!(result, Some(0), "locals must be reset by the restart");

        // Once recovered, B is unfrozen and participates normally again.
        let node = heap.alloc_untimed(2).unwrap();
        a.run_op(&mut cpu_a, 0, 0, &mut |m, cpu| {
            m.retire_unlinked(cpu, node)?;
            Ok(Step::Done(0))
        });
        a.teardown(&mut cpu_a);
        assert_eq!(a.scheme.freezes, 1, "recovered B must not be re-frozen");
    }
}
