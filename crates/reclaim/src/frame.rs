//! The one executor every baseline scheme runs in.
//!
//! The paper measures StackTrack against comparators that run the same
//! unmodified operation bodies (section 6), so the executor around a body
//! is the same under every baseline: the shadow-stack locals, the
//! operation flag, the `begin_op`/`step_op` checks and the plain heap
//! accesses. [`Frame`] is that executor, written once. A scheme is a
//! [`Protocol`]: its shared-state handle, its counters, and the hooks
//! where it departs from the plain path — the shape Meyer & Wolff and
//! Brown (PAPERS.md) give a reclamation scheme behind one interface.
//! StackTrack keeps its own executor ([`stacktrack::StThread`]), whose
//! accesses are transactional.

use crate::SchemeThread;
use st_machine::Cpu;
use st_obs::MetricsRegistry;
use st_simheap::{Addr, Heap, Word};
use st_simhtm::Abort;
use stacktrack::layout::STACK_SLOTS;
use stacktrack::{OpBody, OpMem, Step};
use std::sync::Arc;

/// A reclamation scheme's departures from the plain executor.
///
/// Every hook but [`Protocol::retire`], [`Protocol::garbage`] and
/// [`Protocol::report`] defaults to the plain path — a plain load, no
/// publication, no per-operation work — so a scheme implements only the
/// hooks where it differs. Hooks receive the frame's heap and charge the
/// scheme's simulated work through it.
pub trait Protocol {
    /// Display name (as [`crate::Scheme::name`]).
    const NAME: &'static str;

    /// Whether [`Protocol::teardown`] also ends the thread's operation in
    /// shared state, so the frame leaves the executor inactive after it.
    const TEARDOWN_ENDS_OP: bool = false;

    /// Loads a pointer word ([`OpMem::load_ptr`]) through guard slot
    /// `guard`.
    fn load_ptr(
        &mut self,
        heap: &Heap,
        cpu: &mut Cpu,
        addr: Addr,
        off: u64,
        _guard: usize,
    ) -> Word {
        heap.load(cpu, addr, off)
    }

    /// Re-announces an already-protected pointer in guard slot `guard`
    /// ([`OpMem::protect_slot`]).
    fn protect(&mut self, _heap: &Heap, _cpu: &mut Cpu, _guard: usize, _value: Word) {}

    /// Accepts an unlinked node ([`OpMem::retire_unlinked`]). The frame
    /// has already reported it to the heap's ledger with
    /// [`Heap::note_retire`], so a scheme that frees it at once still
    /// shows the ledger retire before free.
    fn retire(&mut self, heap: &Heap, cpu: &mut Cpu, addr: Addr);

    /// Runs at operation start, once the frame has cleared the locals.
    fn begin(&mut self, _heap: &Heap, _cpu: &mut Cpu) {}

    /// Runs when the body returns its result, once the frame has ended
    /// the operation.
    fn end(&mut self, _heap: &Heap, _cpu: &mut Cpu) {}

    /// Runs before each block of an operation; `true` restarts the
    /// operation instead: the frame zeroes the declared locals and the
    /// step ends without running the body.
    fn before_block(&mut self, _heap: &Heap, _cpu: &mut Cpu) -> bool {
        false
    }

    /// Runs before every store and CAS to `addr`.
    fn write_intent(&mut self, _heap: &Heap, _cpu: &mut Cpu, _addr: Addr) {}

    /// Runs after the frame allocated the node at `addr`.
    fn allocated(&mut self, _heap: &Heap, _cpu: &mut Cpu, _addr: Addr) {}

    /// Handles a neutralization signal caught inside an operation; `true`
    /// restarts the operation (the frame zeroes the declared locals).
    fn neutralize(&mut self, _heap: &Heap, _cpu: &mut Cpu) -> bool {
        false
    }

    /// Whether a deferred wait must run before the next operation.
    fn idle_work_pending(&self) -> bool {
        false
    }

    /// Advances the deferred wait by one step.
    fn step_idle(&mut self, _heap: &Heap, _cpu: &mut Cpu) {}

    /// Retired nodes not yet returned to the allocator.
    fn garbage(&self) -> u64;

    /// Adds the scheme's `scheme.<name>.*` counters.
    fn report(&self, reg: &mut MetricsRegistry);

    /// Best-effort drain of deferred frees at teardown.
    fn teardown(&mut self, _heap: &Heap, _cpu: &mut Cpu) {}
}

/// The executor of one thread under the baseline scheme `P`.
pub struct Frame<P> {
    heap: Arc<Heap>,
    pub(crate) locals: [Word; STACK_SLOTS],
    slots: usize,
    active: bool,
    /// The scheme's per-thread state and counters.
    pub scheme: P,
}

impl<P: Protocol> Frame<P> {
    /// An idle executor over `heap` running `scheme`.
    pub fn new(heap: Arc<Heap>, scheme: P) -> Self {
        Self {
            heap,
            locals: [0; STACK_SLOTS],
            slots: 0,
            active: false,
            scheme,
        }
    }

    /// `slot`, checked against the operation's declared locals.
    fn declared(&self, slot: usize) -> usize {
        assert!(slot < self.slots, "undeclared local slot {slot}");
        slot
    }

    /// Zeroes the declared locals: the body restarts at its first block.
    fn restart(&mut self) {
        self.locals[..self.slots].fill(0);
    }
}

impl<P: Protocol> OpMem for Frame<P> {
    fn load(&mut self, cpu: &mut Cpu, addr: Addr, off: u64) -> Result<Word, Abort> {
        Ok(self.heap.load(cpu, addr, off))
    }

    fn load_ptr(
        &mut self,
        cpu: &mut Cpu,
        addr: Addr,
        off: u64,
        guard: usize,
    ) -> Result<Word, Abort> {
        Ok(self.scheme.load_ptr(&self.heap, cpu, addr, off, guard))
    }

    fn store(&mut self, cpu: &mut Cpu, addr: Addr, off: u64, value: Word) -> Result<(), Abort> {
        self.scheme.write_intent(&self.heap, cpu, addr);
        self.heap.store(cpu, addr, off, value);
        Ok(())
    }

    fn cas(
        &mut self,
        cpu: &mut Cpu,
        addr: Addr,
        off: u64,
        expected: Word,
        new: Word,
    ) -> Result<Result<Word, Word>, Abort> {
        self.scheme.write_intent(&self.heap, cpu, addr);
        Ok(self.heap.cas(cpu, addr, off, expected, new))
    }

    fn alloc(&mut self, cpu: &mut Cpu, words: usize) -> Addr {
        let addr = self
            .heap
            .alloc(cpu, words)
            .expect("simulated heap exhausted; enlarge HeapConfig::capacity_words");
        self.scheme.allocated(&self.heap, cpu, addr);
        addr
    }

    fn retire_unlinked(&mut self, cpu: &mut Cpu, addr: Addr) -> Result<(), Abort> {
        self.heap.note_retire(cpu.thread_id, cpu.now(), addr);
        self.scheme.retire(&self.heap, cpu, addr);
        Ok(())
    }

    fn protect_slot(&mut self, cpu: &mut Cpu, guard: usize, value: Word) {
        self.scheme.protect(&self.heap, cpu, guard, value);
    }

    fn get_local(&mut self, _cpu: &mut Cpu, slot: usize) -> Word {
        self.locals[self.declared(slot)]
    }

    fn set_local(&mut self, _cpu: &mut Cpu, slot: usize, value: Word) {
        let slot = self.declared(slot);
        self.locals[slot] = value;
    }
}

impl<P: Protocol> SchemeThread for Frame<P> {
    fn begin_op(&mut self, cpu: &mut Cpu, _op_id: u32, slots: usize) {
        assert!(!self.active, "operation already active");
        assert!(slots <= STACK_SLOTS, "operation needs too many slots");
        self.slots = slots;
        self.restart();
        self.active = true;
        self.scheme.begin(&self.heap, cpu);
    }

    fn step_op(&mut self, cpu: &mut Cpu, body: &mut OpBody<'_>) -> Option<Word> {
        assert!(self.active, "step_op without an active operation");
        if self.scheme.before_block(&self.heap, cpu) {
            self.restart();
            return None;
        }
        match body(self, cpu) {
            Ok(Step::Continue) => None,
            Ok(Step::Done(v)) => {
                self.active = false;
                self.scheme.end(&self.heap, cpu);
                Some(v)
            }
            Err(abort) => unreachable!("abort without transactions: {abort}"),
        }
    }

    fn idle_work_pending(&self) -> bool {
        self.scheme.idle_work_pending()
    }

    fn step_idle(&mut self, cpu: &mut Cpu) {
        self.scheme.step_idle(&self.heap, cpu);
    }

    fn neutralize(&mut self, cpu: &mut Cpu) {
        if self.active && self.scheme.neutralize(&self.heap, cpu) {
            self.restart();
        }
    }

    fn outstanding_garbage(&self) -> u64 {
        self.scheme.garbage()
    }

    fn report_metrics(&self, reg: &mut MetricsRegistry) {
        reg.add("reclaim.outstanding_garbage", self.scheme.garbage());
        self.scheme.report(reg);
    }

    fn teardown(&mut self, cpu: &mut Cpu) {
        self.scheme.teardown(&self.heap, cpu);
        if P::TEARDOWN_ENDS_OP {
            self.active = false;
        }
    }

    fn scheme_name(&self) -> &'static str {
        P::NAME
    }
}
