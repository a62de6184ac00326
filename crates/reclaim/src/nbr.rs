//! NBR: neutralization-based reclamation (Singh, Brown, Prokopec), the
//! first "beyond the paper" comparator.
//!
//! NBR splits every operation into a *read phase* and a *write phase*. The
//! read phase traverses with **no per-hop protection at all** — no hazard
//! fence, no anchor, nothing — because it is restartable: a reclaimer that
//! wants memory back sends every peer a signal, and a peer caught in its
//! read phase simply abandons the traversal and starts the operation over.
//! Only at the transition to the write phase (the first store/CAS/retire
//! against shared memory) does a thread publish the handful of pointers
//! the write phase will dereference into per-thread *reservation* slots,
//! with a single fence. A reclaimer therefore never waits: it broadcasts
//! the neutralization signal, scans the reservation slots, and immediately
//! frees every retired node no reservation covers.
//!
//! In this simulator the signal is delivered by the scheduler
//! ([`st_machine::SignalBoard`]): the handler
//! ([`crate::SchemeThread::neutralize`]) runs before the victim's next step, the
//! exact analogue of a POSIX handler running before the next user
//! instruction. Because each step is an atomic basic block, the victim can
//! never be "mid-dereference" when neutralized — which is the same
//! argument real NBR makes at instruction granularity. Restarting is
//! trivial for the scheme-neutral operation bodies: all live state sits in
//! declared local slots, so zeroing them re-enters the body at its first
//! phase; allocations made by the abandoned attempt are returned through
//! the heap's unpublished-free path, keeping the ledger exact.
//!
//! The robustness story mirrors hazard pointers (a stalled or dead reader
//! pins at most its reservation slots' worth of nodes — in its read phase,
//! nothing at all) while the common-case read path costs the same as
//! epoch-based reclamation. The price is the signal broadcast, amortized
//! by batching retires ([`ThreadSlots::scan_threshold`]).

use crate::frame::Protocol;
use crate::slots::ThreadSlots;
use st_machine::Cpu;
use st_obs::MetricsRegistry;
use st_simheap::tagged::TAG_MASK;
use st_simheap::{Addr, Heap, Word};
use stacktrack::Mutation;
use std::sync::Arc;

/// Per-thread NBR state.
pub struct Nbr {
    /// The reservation-slot matrix, one word per guard (sized like hazard
    /// slots: one per guard the deepest operation body declares).
    slots: Arc<ThreadSlots>,
    thread_id: usize,
    /// `true` once the current operation crossed into its write phase
    /// (reservations published, restarts refused).
    in_write_phase: bool,
    /// Pointer last seen through each guard, kept thread-local during the
    /// read phase and published wholesale at the write-phase transition.
    guard_vals: [Word; 64],
    used_guards: u64,
    /// Blocks allocated by the current attempt; returned via
    /// [`Heap::free_unpublished`] if the attempt is neutralized.
    fresh: Vec<Addr>,
    limbo: Vec<Addr>,
    /// Limbo size that triggers a broadcast + scan.
    threshold: usize,
    /// **Mutation knob for the model checker — never enable in real
    /// runs.** The neutralization handler ignores the signal instead of
    /// restarting, so the thread keeps traversing through pointers the
    /// signaling reclaimer has already freed — the exact bug class the
    /// restart protocol exists to prevent.
    skip_restart: bool,
    /// Restarts taken in the neutralization handler (statistics).
    pub neutralizations: u64,
    /// Signals broadcast as a reclaimer (statistics).
    pub signals_sent: u64,
    /// Nodes returned to the allocator (statistics).
    pub freed: u64,
}

impl Nbr {
    /// The state of thread slot `thread_id`, broadcasting once
    /// `threshold` retired nodes wait (the factory's default is
    /// [`ThreadSlots::scan_threshold`]). `mutation` seeds
    /// [`Mutation::NbrSkipRestart`] (checker use only) and is ignored
    /// otherwise.
    pub fn new(
        slots: Arc<ThreadSlots>,
        thread_id: usize,
        threshold: usize,
        mutation: Mutation,
    ) -> Self {
        Self {
            slots,
            thread_id,
            in_write_phase: false,
            guard_vals: [0; 64],
            used_guards: 0,
            fresh: Vec::new(),
            limbo: Vec::new(),
            threshold,
            skip_restart: mutation == Mutation::NbrSkipRestart,
            neutralizations: 0,
            signals_sent: 0,
            freed: 0,
        }
    }

    /// The read-to-write transition: publish every pointer the read phase
    /// collected into this thread's reservation slots, with one fence.
    /// From here on the operation refuses neutralization.
    fn enter_write_phase(&mut self, heap: &Heap, cpu: &mut Cpu) {
        if self.in_write_phase {
            return;
        }
        let mut used = self.used_guards;
        while used != 0 {
            let g = used.trailing_zeros() as usize;
            used &= used - 1;
            self.slots
                .store(heap, cpu, self.thread_id, g, self.guard_vals[g]);
        }
        heap.fence(cpu);
        self.in_write_phase = true;
    }

    /// The reclaimer path: broadcast the neutralization signal to every
    /// peer, scan the reservation matrix, and free whatever no reservation
    /// covers — no waiting, no acknowledgment.
    fn broadcast_and_reclaim(&mut self, heap: &Heap, cpu: &mut Cpu) {
        let syscall = cpu.costs.signal_deliver;
        for t in 0..self.slots.threads() {
            if t == self.thread_id {
                continue;
            }
            cpu.raise_signal(t);
            cpu.charge(syscall);
            self.signals_sent += 1;
        }
        self.freed += self.slots.free_unprotected(heap, cpu, &mut self.limbo);
    }
}

impl Protocol for Nbr {
    const NAME: &'static str = "NBR";

    /// Read phase: a plain load — the pointer is only recorded locally
    /// (restartability is the protection). Write phase: publish + fence,
    /// hazard-style, since restarts are refused from here on.
    fn load_ptr(&mut self, heap: &Heap, cpu: &mut Cpu, addr: Addr, off: u64, guard: usize) -> Word {
        let v = heap.load(cpu, addr, off);
        if v & !TAG_MASK == 0 {
            return v;
        }
        self.guard_vals[guard] = v & !TAG_MASK;
        self.used_guards |= 1 << guard;
        if self.in_write_phase {
            self.slots
                .store(heap, cpu, self.thread_id, guard, v & !TAG_MASK);
            heap.fence(cpu);
        }
        v
    }

    fn protect(&mut self, heap: &Heap, cpu: &mut Cpu, guard: usize, value: Word) {
        self.guard_vals[guard] = value & !TAG_MASK;
        self.used_guards |= 1 << guard;
        if self.in_write_phase {
            self.slots
                .store(heap, cpu, self.thread_id, guard, value & !TAG_MASK);
        }
    }

    fn retire(&mut self, heap: &Heap, cpu: &mut Cpu, addr: Addr) {
        // A retire is a write intent by definition (the unlink it follows
        // certainly was); entering the write phase here keeps the
        // retire-then-restart double-retire impossible by construction.
        self.enter_write_phase(heap, cpu);
        self.limbo.push(addr);
        if self.limbo.len() >= self.threshold {
            self.broadcast_and_reclaim(heap, cpu);
        }
    }

    /// Initializing a private, not-yet-linked allocation is still part of
    /// the restartable read phase; any other store or CAS is a write
    /// intent.
    fn write_intent(&mut self, heap: &Heap, cpu: &mut Cpu, addr: Addr) {
        if !self.fresh.contains(&addr) {
            self.enter_write_phase(heap, cpu);
        }
    }

    fn allocated(&mut self, _heap: &Heap, _cpu: &mut Cpu, addr: Addr) {
        self.fresh.push(addr);
    }

    fn begin(&mut self, _heap: &Heap, _cpu: &mut Cpu) {
        self.in_write_phase = false;
        self.used_guards = 0;
        debug_assert!(self.fresh.is_empty());
    }

    fn end(&mut self, heap: &Heap, cpu: &mut Cpu) {
        // The slots only carry values once the operation published them
        // at its write-phase transition.
        if self.in_write_phase {
            self.slots
                .clear(heap, cpu, self.thread_id, self.used_guards);
        }
        self.used_guards = 0;
        self.in_write_phase = false;
        self.fresh.clear();
    }

    /// The neutralization handler. A signal caught past the write-phase
    /// transition is ignored (the reservations cover the write phase); a
    /// signal caught in the read phase abandons the attempt: the frame
    /// zeroes the locals (the body restarts from its first phase),
    /// attempt-private allocations go back to the allocator, and the
    /// collected guards are forgotten.
    fn neutralize(&mut self, heap: &Heap, cpu: &mut Cpu) -> bool {
        if self.in_write_phase {
            return false;
        }
        if self.skip_restart {
            // Seeded defect: pretend the handler never ran. The traversal
            // keeps its stale locals and walks into freed memory.
            return false;
        }
        self.neutralizations += 1;
        self.used_guards = 0;
        for addr in std::mem::take(&mut self.fresh) {
            heap.free_unpublished(cpu, addr);
        }
        true
    }

    fn garbage(&self) -> u64 {
        self.limbo.len() as u64
    }

    fn report(&self, reg: &mut MetricsRegistry) {
        reg.add("scheme.nbr.neutralizations", self.neutralizations);
        reg.add("scheme.nbr.signals_sent", self.signals_sent);
        reg.add("scheme.nbr.freed", self.freed);
    }

    fn teardown(&mut self, heap: &Heap, cpu: &mut Cpu) {
        if !self.limbo.is_empty() {
            self.broadcast_and_reclaim(heap, cpu);
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
    use st_machine::SignalBoard;
    use stacktrack::{OpMem, Step};

    fn setup(threads: usize) -> (Arc<ThreadSlots>, Arc<Heap>) {
        let (heap, _) = test_env();
        let slots = Arc::new(ThreadSlots::new(&heap, threads, 4));
        (slots, heap)
    }

    #[test]
    fn read_phase_loads_pay_no_fence() {
        let (slots, heap) = setup(1);
        let mut th = Frame::new(
            heap.clone(),
            Nbr::new(slots.clone(), 0, slots.scan_threshold(), Mutation::None),
        );
        let mut cpu = test_cpu(0);
        let cell = heap.alloc_untimed(1).unwrap();
        let x = heap.alloc_untimed(2).unwrap();
        heap.poke(cell, 0, x.raw());

        th.begin_op(&mut cpu, 0, 0);
        let fences = cpu.counters.fences;
        let mut body = |m: &mut dyn OpMem, cpu: &mut Cpu| {
            let v = m.load_ptr(cpu, cell, 0, 0)?;
            Ok(Step::Done(v))
        };
        assert_eq!(th.step_op(&mut cpu, &mut body), Some(x.raw()));
        assert_eq!(cpu.counters.fences, fences, "read phase is fence-free");
    }

    #[test]
    fn first_shared_store_publishes_reservations() {
        let (slots, heap) = setup(1);
        let mut th = Frame::new(
            heap.clone(),
            Nbr::new(slots.clone(), 0, slots.scan_threshold(), Mutation::None),
        );
        let mut cpu = test_cpu(0);
        let cell = heap.alloc_untimed(1).unwrap();
        let x = heap.alloc_untimed(2).unwrap();
        heap.poke(cell, 0, x.raw());

        th.begin_op(&mut cpu, 0, 0);
        let mut body = |m: &mut dyn OpMem, cpu: &mut Cpu| {
            let v = m.load_ptr(cpu, cell, 0, 1)?;
            // No publication yet...
            m.store(cpu, cell, 0, v)?; // ...until the first shared store.
            Ok(Step::Continue)
        };
        let fences = cpu.counters.fences;
        th.step_op(&mut cpu, &mut body);
        assert!(th.scheme.in_write_phase);
        assert!(cpu.counters.fences > fences, "transition costs one fence");
        assert_eq!(heap.peek(slots.region().0, 1), x.raw(), "reservation live");

        let mut fin = |_: &mut dyn OpMem, _: &mut Cpu| Ok(Step::Done(0));
        th.step_op(&mut cpu, &mut fin);
        assert_eq!(heap.peek(slots.region().0, 1), 0, "cleared at op end");
    }

    #[test]
    fn reclaimer_frees_immediately_and_respects_reservations() {
        let (slots, heap) = setup(2);
        let mut writer = Frame::new(
            heap.clone(),
            Nbr::new(slots.clone(), 0, slots.scan_threshold(), Mutation::None),
        );
        let mut reclaimer = Frame::new(heap.clone(), Nbr::new(slots.clone(), 1, 1, Mutation::None));
        let mut cpu_w = test_cpu(0);
        let mut cpu_r = test_cpu(1);

        let cell = heap.alloc_untimed(1).unwrap();
        let x = heap.alloc_untimed(2).unwrap();
        let y = heap.alloc_untimed(2).unwrap();
        heap.poke(cell, 0, x.raw());

        // Writer enters its write phase holding a reservation on X.
        writer.begin_op(&mut cpu_w, 0, 0);
        let mut hold = |m: &mut dyn OpMem, cpu: &mut Cpu| {
            let v = m.load_ptr(cpu, cell, 0, 0)?;
            m.store(cpu, cell, 0, v)?;
            Ok(Step::Continue)
        };
        writer.step_op(&mut cpu_w, &mut hold);

        // Reclaimer (batch 1) retires X and Y: Y is freed on the spot,
        // X survives because the writer's reservation covers it.
        reclaimer.run_op(&mut cpu_r, 0, 0, &mut |m, cpu| {
            m.retire_unlinked(cpu, x)?;
            Ok(Step::Done(0))
        });
        reclaimer.run_op(&mut cpu_r, 0, 0, &mut |m, cpu| {
            m.retire_unlinked(cpu, y)?;
            Ok(Step::Done(0))
        });
        assert!(heap.is_live(x), "reserved node must survive");
        assert!(!heap.is_live(y), "unreserved node freed without waiting");
        assert_eq!(reclaimer.outstanding_garbage(), 1);

        // Writer finishes; the next broadcast frees X too.
        let mut fin = |_: &mut dyn OpMem, _: &mut Cpu| Ok(Step::Done(0));
        writer.step_op(&mut cpu_w, &mut fin);
        reclaimer.teardown(&mut cpu_r);
        assert!(!heap.is_live(x));
        assert_eq!(reclaimer.outstanding_garbage(), 0);
    }

    #[test]
    fn neutralize_restarts_a_read_phase_attempt() {
        let (slots, heap) = setup(1);
        let mut th = Frame::new(
            heap.clone(),
            Nbr::new(slots.clone(), 0, slots.scan_threshold(), Mutation::None),
        );
        let mut cpu = test_cpu(0);

        th.begin_op(&mut cpu, 0, 2);
        let mut first = |m: &mut dyn OpMem, cpu: &mut Cpu| {
            m.set_local(cpu, 0, 7);
            let n = m.alloc(cpu, 2);
            m.set_local(cpu, 1, n.raw());
            Ok(Step::Continue)
        };
        th.step_op(&mut cpu, &mut first);
        let fresh = Addr::from_raw(th.locals[1]);
        assert!(heap.is_live(fresh));

        th.neutralize(&mut cpu);
        assert_eq!(th.scheme.neutralizations, 1);
        assert_eq!(th.locals[0], 0, "locals zeroed: body restarts");
        assert!(!heap.is_live(fresh), "abandoned allocation returned");

        // The body re-runs from scratch and completes.
        let mut retry = |m: &mut dyn OpMem, cpu: &mut Cpu| {
            let v = m.get_local(cpu, 0);
            Ok(Step::Done(v))
        };
        assert_eq!(th.step_op(&mut cpu, &mut retry), Some(0));
    }

    #[test]
    fn neutralize_is_refused_in_the_write_phase_and_when_idle() {
        let (slots, heap) = setup(1);
        let mut th = Frame::new(
            heap.clone(),
            Nbr::new(slots.clone(), 0, slots.scan_threshold(), Mutation::None),
        );
        let mut cpu = test_cpu(0);

        // Idle: ignored.
        th.neutralize(&mut cpu);
        assert_eq!(th.scheme.neutralizations, 0);

        // Write phase: ignored, locals keep their values.
        let cell = heap.alloc_untimed(1).unwrap();
        th.begin_op(&mut cpu, 0, 1);
        let mut body = |m: &mut dyn OpMem, cpu: &mut Cpu| {
            m.set_local(cpu, 0, 9);
            m.store(cpu, cell, 0, 1)?;
            Ok(Step::Continue)
        };
        th.step_op(&mut cpu, &mut body);
        th.neutralize(&mut cpu);
        assert_eq!(th.scheme.neutralizations, 0);
        assert_eq!(th.locals[0], 9, "write phase refuses the restart");
    }

    #[test]
    fn broadcast_raises_signals_against_every_peer() {
        let (slots, heap) = setup(3);
        let board = Arc::new(SignalBoard::new(3));
        let mut th = Frame::new(heap.clone(), Nbr::new(slots, 0, 1, Mutation::None));
        let mut cpu = test_cpu(0);
        cpu.attach_signals(board.clone());

        let n = heap.alloc_untimed(2).unwrap();
        th.run_op(&mut cpu, 0, 0, &mut |m, cpu| {
            m.retire_unlinked(cpu, n)?;
            Ok(Step::Done(0))
        });
        assert_eq!(th.scheme.signals_sent, 2);
        assert_eq!(board.pending(0), 0, "no self-signal");
        assert_eq!(board.pending(1), 1);
        assert_eq!(board.pending(2), 1);
        assert!(!heap.is_live(n), "freed without waiting for an ack");
    }

    #[test]
    fn skip_restart_mutation_keeps_stale_locals() {
        let (slots, heap) = setup(1);
        let mut th = Frame::new(
            heap.clone(),
            Nbr::new(
                slots.clone(),
                0,
                slots.scan_threshold(),
                Mutation::NbrSkipRestart,
            ),
        );
        let mut cpu = test_cpu(0);
        th.begin_op(&mut cpu, 0, 1);
        let mut body = |m: &mut dyn OpMem, cpu: &mut Cpu| {
            m.set_local(cpu, 0, 5);
            Ok(Step::Continue)
        };
        th.step_op(&mut cpu, &mut body);
        th.neutralize(&mut cpu);
        assert_eq!(th.locals[0], 5, "mutation ignores the signal");
        assert_eq!(th.scheme.neutralizations, 0);
    }
}
