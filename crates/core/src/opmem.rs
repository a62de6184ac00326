//! The scheme-neutral instruction set for operation bodies.
//!
//! Data structures in this repository are written once, as *basic-block
//! step closures* over [`OpMem`], and run unchanged under every
//! reclamation scheme (StackTrack fast path, StackTrack slow path, epoch,
//! hazard pointers, drop-the-anchor, reference counting, or no reclamation
//! at all). This mirrors the paper's claim that StackTrack is applied by
//! the compiler to unmodified data-structure code: here, `OpMem` is the
//! surface the "compiler" (the executor) instruments.
//!
//! # Contract for operation bodies
//!
//! - One closure invocation is **one basic block**: a bounded piece of
//!   straight-line work. The executor runs the split checkpoint between
//!   invocations.
//! - Any pointer that must remain live across a checkpoint **must** be
//!   stored in a shadow stack slot with [`OpMem::set_local`] in the same
//!   block that obtained it. (In C this is automatic — locals live in the
//!   scanned stack; in Rust the slot store is the explicit equivalent.)
//! - Bodies must be **re-executable from committed state**: a segment abort
//!   rolls the shadow slots back and the closure is invoked again. Reads of
//!   locals at block entry, via [`OpMem::get_local`], make this automatic.
//! - `Err(Abort)` simply propagates; the executor handles retry. Bodies
//!   never catch aborts.

use crate::StThreadStats;
use st_machine::Cpu;
use st_obs::MetricsRegistry;
use st_simheap::{Addr, Word};
use st_simhtm::Abort;

/// Outcome of one basic block of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The operation continues with another block.
    Continue,
    /// The operation finished with this result word.
    Done(Word),
}

/// One basic block of an operation body.
///
/// The executor invokes the body repeatedly until it returns
/// [`Step::Done`]; each invocation is one checkpointed basic block.
pub type OpBody<'a> = dyn FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + 'a;

/// Memory operations available to an operation body.
///
/// Implementations: the StackTrack fast path (transactional), the
/// StackTrack slow path (reference sets), and each baseline scheme.
pub trait OpMem {
    /// Loads a data word from `addr + off`.
    fn load(&mut self, cpu: &mut Cpu, addr: Addr, off: u64) -> Result<Word, Abort>;

    /// Loads a **pointer** word from `addr + off`.
    ///
    /// Schemes that must announce references before dereferencing (hazard
    /// pointers, drop-the-anchor) publish the loaded value through `guard`
    /// — a small per-operation guard-slot index — and perform their
    /// validate/retry protocol internally. Other schemes treat this as
    /// [`OpMem::load`] (StackTrack additionally records the value in the
    /// thread's register file, exposed at the next commit).
    fn load_ptr(
        &mut self,
        cpu: &mut Cpu,
        addr: Addr,
        off: u64,
        guard: usize,
    ) -> Result<Word, Abort>;

    /// Stores `value` to `addr + off`.
    fn store(&mut self, cpu: &mut Cpu, addr: Addr, off: u64, value: Word) -> Result<(), Abort>;

    /// Compare-and-swap on `addr + off`: `Ok(Ok(prev))` on success,
    /// `Ok(Err(actual))` on value mismatch, `Err` on abort.
    fn cas(
        &mut self,
        cpu: &mut Cpu,
        addr: Addr,
        off: u64,
        expected: Word,
        new: Word,
    ) -> Result<Result<Word, Word>, Abort>;

    /// Allocates a zeroed node of `words` words.
    ///
    /// # Panics
    ///
    /// Panics if the simulated heap is exhausted (benchmarks size the heap
    /// for their workload; exhaustion is a configuration error).
    fn alloc(&mut self, cpu: &mut Cpu, words: usize) -> Addr;

    /// Hands an **unlinked** node to the reclamation scheme.
    ///
    /// Must be called in the same basic block as the successful unlink
    /// (StackTrack commits the enclosing segment before running the
    /// non-transactional `FREE`, and the block may be re-executed if that
    /// commit fails).
    ///
    /// **Trait-internal.** This is the entry point the scheme executors
    /// implement; structures never call it directly. Nothing at this level
    /// enforces that the caller actually unlinked `addr`, or that it
    /// retires it exactly once — that proof obligation lives in the typed
    /// layer: structures reach retirement through
    /// `st_reclaim::mem::Unlinked`, whose move semantics make the unlink
    /// proof and the at-most-once contract type-checked (`st_reclaim` is
    /// the reclaim crate; see its `mem` module and `docs/MEMORY_API.md`).
    /// The only callers outside scheme implementations are the typed
    /// wrappers in `st_reclaim::mem` and the substrate's own tests.
    fn retire_unlinked(&mut self, cpu: &mut Cpu, addr: Addr) -> Result<(), Abort>;

    /// Returns a node that was **never published** (no other thread can
    /// hold a reference) straight to the allocator, bypassing the
    /// scheme's deferral pipeline.
    ///
    /// The default conservatively routes through
    /// [`OpMem::retire_unlinked`]: a spurious trip through the reclamation
    /// pipeline is always safe, and it keeps every scheme's retire/free
    /// accounting — and therefore the committed benchmark figures —
    /// unchanged. Schemes that track per-segment allocations (StackTrack's
    /// aborted-segment rollback already uses the heap-level shortcut
    /// internally) may override this with a direct `Live -> Freed`
    /// transition later. This is the drop path of
    /// `st_reclaim::mem::Owned`, the typed API's unpublished allocation
    /// token (`st_reclaim` is the reclaim crate).
    fn free_unpublished(&mut self, cpu: &mut Cpu, addr: Addr) -> Result<(), Abort> {
        self.retire_unlinked(cpu, addr)
    }

    /// Requests a segment boundary at the end of the current basic block.
    ///
    /// This is the mechanism the paper wraps around instructions the HTM
    /// cannot execute (section 5.4): "committing the current hardware
    /// transaction, executing the unsupported instruction, and starting a
    /// new hardware transaction". Code that must perform a
    /// non-speculative side effect calls `force_split`, returns
    /// [`Step::Continue`], performs the effect in the next block (which
    /// starts a fresh segment), and calls `force_split` again before
    /// resuming speculation-sensitive work. No-op outside the StackTrack
    /// fast path.
    fn force_split(&mut self, _cpu: &mut Cpu) {}

    /// Opens a programmer-defined transactional region (paper section 5.5).
    ///
    /// Between `user_tx_begin` and [`OpMem::user_tx_end`], the StackTrack
    /// split engine never commits the enclosing segment, so the region's
    /// accesses stay atomic: "the split procedure adapts to this case by
    /// ensuring that a split is never performed during a user-defined
    /// transaction". A segment abort rolls the whole region back and the
    /// body re-executes it from committed state. Schemes without
    /// transactions treat the region as a hint and ignore it — the
    /// programmer must not rely on atomicity there, exactly as the paper's
    /// best-effort contract demands a non-transactional backup.
    fn user_tx_begin(&mut self, _cpu: &mut Cpu) {}

    /// Closes a programmer-defined transactional region, exposing the
    /// register file ("the split procedure does have to insert the
    /// necessary register expose operations at the end of the user-defined
    /// transaction") and re-enabling splits.
    fn user_tx_end(&mut self, _cpu: &mut Cpu) -> Result<(), Abort> {
        Ok(())
    }

    /// Re-announces an **already-protected** pointer in guard slot `guard`.
    ///
    /// Traversals that keep several pointers protected at once (list
    /// `prev`/`cur`, the skip list's per-level predecessors) rotate values
    /// between guard slots as they advance; because the value is still
    /// covered by its previous guard while the new announcement is made,
    /// no fence or revalidation is needed (stores retire in order under
    /// TSO). Schemes without per-reference announcements ignore this.
    ///
    /// **Trait-internal.** This is the entry point the scheme executors
    /// implement; structures never call it directly. Raw guard indices
    /// made every protection point a hand-audited convention
    /// (`G_PREV`/`G_CUR` constants rotated by hand), so structures
    /// announce protections through typed guard handles instead
    /// (`st_reclaim::mem::Guard::shield`, where `st_reclaim` is the
    /// reclaim crate), which tie each protected borrow to the guard's
    /// borrow and make slot collisions unrepresentable. The only callers
    /// outside scheme implementations are the typed wrappers in
    /// `st_reclaim::mem` and the substrate's own tests.
    fn protect_slot(&mut self, _cpu: &mut Cpu, _guard: usize, _value: Word) {}

    /// Reads shadow stack slot `slot`.
    fn get_local(&mut self, cpu: &mut Cpu, slot: usize) -> Word;

    /// Writes shadow stack slot `slot`.
    fn set_local(&mut self, cpu: &mut Cpu, slot: usize, value: Word);
}

/// A per-thread executor for one reclamation scheme: [`crate::StThread`]
/// and every baseline of `st_reclaim` (which re-exports the trait), so
/// structures and benchmarks drive every scheme identically. One
/// [`SchemeThread::step_op`] call executes one basic block of the
/// operation body.
pub trait SchemeThread {
    /// Starts an operation. `op_id` names the operation kind; `slots` is
    /// the number of traced locals it uses.
    fn begin_op(&mut self, cpu: &mut Cpu, op_id: u32, slots: usize);

    /// Executes one basic block; `Some(result)` when the operation is done.
    fn step_op(&mut self, cpu: &mut Cpu, body: &mut OpBody<'_>) -> Option<Word>;

    /// Whether deferred reclamation work must run before the next
    /// operation (StackTrack scans, epoch waits).
    fn idle_work_pending(&self) -> bool {
        false
    }

    /// Advances deferred reclamation work by one step.
    fn step_idle(&mut self, _cpu: &mut Cpu) {}

    /// Runs one operation to completion, draining idle work first.
    fn run_op(&mut self, cpu: &mut Cpu, op_id: u32, slots: usize, body: &mut OpBody<'_>) -> Word {
        while self.idle_work_pending() {
            self.step_idle(cpu);
        }
        self.begin_op(cpu, op_id, slots);
        loop {
            if let Some(v) = self.step_op(cpu, body) {
                return v;
            }
        }
    }

    /// Handles a neutralization signal delivered by the scheduler
    /// ([`st_machine::Worker::neutralize`] forwards here). Only NBR reacts
    /// — a signal caught in its restartable read phase abandons the
    /// current attempt; every other scheme ignores inter-thread signals.
    fn neutralize(&mut self, _cpu: &mut Cpu) {}

    /// Retired nodes not yet returned to the allocator.
    fn outstanding_garbage(&self) -> u64;

    /// StackTrack-specific statistics, when the executor is StackTrack.
    fn st_stats(&self) -> Option<StThreadStats> {
        None
    }

    /// Zeroes measurement statistics, keeping learned/reclamation state
    /// (benchmark warm-up support).
    fn reset_stats(&mut self) {}

    /// Reports this executor's counters into the shared metrics registry
    /// (schema in `docs/METRICS.md`): the common surface every scheme has
    /// (`reclaim.outstanding_garbage`, StackTrack stats when present) —
    /// schemes override to add their own `scheme.<name>.*` keys on top.
    fn report_metrics(&self, reg: &mut MetricsRegistry) {
        reg.add("reclaim.outstanding_garbage", self.outstanding_garbage());
        if let Some(st) = self.st_stats() {
            st.report(reg);
        }
    }

    /// Best-effort drain of deferred frees at teardown (every other thread
    /// must be outside an operation for this to fully drain).
    fn teardown(&mut self, cpu: &mut Cpu);

    /// Scheme display name.
    fn scheme_name(&self) -> &'static str;
}
