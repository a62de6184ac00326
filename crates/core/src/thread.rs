//! The per-thread StackTrack executor: split engine, slow path, and
//! the `FREE` entry point.

use crate::config::{ABORT_STREAK, COMMIT_STREAK, SLOW_FAIL_THRESHOLD};
use crate::free::{Retired, ScanBuffers, ScanJob};
use crate::layout::{
    OFF_ACTIVE, OFF_OPER_COUNTER, OFF_OP_ID, OFF_REFSET, OFF_REFSET_COUNT, OFF_REGISTERS,
    OFF_SLOW_FLAG, OFF_SPLITS, OFF_STACK, OFF_STACK_DEPTH, OFF_STAGED, OFF_STAGED_COUNT,
    REFSET_CAP, REG_SLOTS, STACK_SLOTS, STAGED_CAP,
};
use crate::opmem::{OpBody, OpMem, SchemeThread, Step};
use crate::predictor::SplitPredictor;
use crate::runtime::StRuntime;
use crate::stats::StThreadStats;
use st_machine::Cpu;
use st_obs::AbortCause;
use st_simheap::{Addr, Word};
use st_simhtm::{Abort, Tx};
use std::sync::Arc;

/// Executor mode. While a `SCAN_AND_FREE` job is pending (`job` is
/// `Some`), steps drive the job and the mode is the one to resume after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No operation in flight.
    Idle,
    /// Inside an operation, on the transactional fast path.
    Fast,
    /// Inside an operation, on the software slow path (Algorithm 5).
    Slow,
}

/// A registered StackTrack thread.
///
/// Owns the thread's context block, split predictor, free set, and the
/// Rust-side mirrors of the shadow stack and register file. Operations are
/// driven through its [`SchemeThread`] implementation: one basic block at a
/// time with [`SchemeThread::step_op`] (the discrete-event simulator's
/// granularity) or to completion with [`SchemeThread::run_op`].
#[derive(Debug)]
pub struct StThread {
    rt: Arc<StRuntime>,
    ctx: Addr,
    predictor: SplitPredictor,
    tx: Option<Tx>,
    mode: Mode,
    op_id: u32,
    slots_used: usize,
    steps_in_segment: u32,
    segment_limit: u32,
    split_idx: u32,
    oper_counter: Word,
    locals: [Word; STACK_SLOTS],
    dirty: u64,
    regs: [Word; REG_SLOTS],
    reg_cursor: usize,
    refset_count: u64,
    refset_mirror: std::collections::HashMap<Word, u32>,
    staged: Vec<Addr>,
    seg_allocs: Vec<Addr>,
    free_set: Vec<Retired>,
    force_commit: bool,
    user_region: bool,
    fails_at_one: u32,
    op_used_slow: bool,
    /// `cpu.counters.context_switches` at `SPLIT_START`; a change while the
    /// segment is live means the scheduler preempted us mid-transaction.
    seg_switches: u64,
    /// The pending `SCAN_AND_FREE`, if any: steps drive it before the
    /// operation (or the next one) resumes.
    job: Option<ScanJob>,
    /// Scan scratch recycled across jobs (free-set storage, the sorted
    /// candidate index, hit flags, hash table): steady-state reclamation
    /// allocates nothing.
    scan_bufs: ScanBuffers,
    stats: StThreadStats,
}

impl StThread {
    pub(crate) fn new(rt: Arc<StRuntime>, ctx: Addr) -> Self {
        let c = &rt.config;
        let predictor = SplitPredictor::new(
            c.initial_split_length,
            c.min_split_length,
            c.max_split_length,
            ABORT_STREAK,
            COMMIT_STREAK,
        );
        Self {
            rt,
            ctx,
            predictor,
            tx: None,
            mode: Mode::Idle,
            op_id: 0,
            slots_used: 0,
            steps_in_segment: 0,
            segment_limit: 0,
            split_idx: 0,
            oper_counter: 0,
            locals: [0; STACK_SLOTS],
            dirty: 0,
            regs: [0; REG_SLOTS],
            reg_cursor: 0,
            refset_count: 0,
            refset_mirror: std::collections::HashMap::new(),
            staged: Vec::new(),
            seg_allocs: Vec::new(),
            free_set: Vec::new(),
            force_commit: false,
            user_region: false,
            fails_at_one: 0,
            op_used_slow: false,
            seg_switches: 0,
            job: None,
            scan_bufs: ScanBuffers::default(),
            stats: StThreadStats::default(),
        }
    }

    /// The thread's context block address (the scanners' view of it).
    pub fn ctx_addr(&self) -> Addr {
        self.ctx
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &StThreadStats {
        &self.stats
    }

    /// Whether an operation is in flight.
    pub fn op_active(&self) -> bool {
        self.mode != Mode::Idle
    }
}

// ----------------------------------------------------------------------
// Operation lifecycle.
// ----------------------------------------------------------------------

impl SchemeThread for StThread {
    /// Starts an operation (`SPLIT_INIT` + first `SPLIT_START`).
    ///
    /// `op_id` identifies the operation kind for the split predictor;
    /// `slots` is the shadow stack frame size this operation uses.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already active, a scan is pending, or
    /// `slots > STACK_SLOTS`.
    fn begin_op(&mut self, cpu: &mut Cpu, op_id: u32, slots: usize) {
        assert!(
            self.mode == Mode::Idle && self.job.is_none(),
            "begin_op while busy (mode {:?}, scan pending: {})",
            self.mode,
            self.job.is_some()
        );
        assert!(slots <= STACK_SLOTS, "operation needs too many slots");
        let heap = self.rt.heap();
        self.op_id = op_id;
        self.slots_used = slots;
        self.split_idx = 0;
        self.dirty = 0;
        self.locals[..slots].fill(0);
        self.reg_cursor = 0;
        self.force_commit = false;
        self.user_region = false;
        self.fails_at_one = 0;
        self.op_used_slow = false;
        self.staged.clear();
        self.seg_allocs.clear();

        // SPLIT_INIT: publish frame shape, reset the splits counter, fence.
        heap.store(cpu, self.ctx, OFF_OP_ID, u64::from(op_id));
        heap.store(cpu, self.ctx, OFF_STACK_DEPTH, slots as u64);
        // Clearing the shadow frame is a simulation artifact (the paper's
        // stack frame simply *exists*; stale sibling-frame values are not
        // possible there), so it is untimed.
        for i in 0..slots as u64 {
            heap.poke(self.ctx, OFF_STACK + i, 0);
        }
        heap.store(cpu, self.ctx, OFF_SPLITS, 0);
        heap.store(cpu, self.ctx, OFF_ACTIVE, 1);
        heap.fence(cpu);

        let forced = self.rt.config.forced_slow_prob > 0.0
            && cpu.rng.chance(self.rt.config.forced_slow_prob);
        if forced {
            self.stats.forced_slow_ops += 1;
            self.enter_slow(cpu);
        } else {
            self.mode = Mode::Fast;
            self.split_start(cpu);
        }
    }

    /// Executes one basic block of the operation (one checkpoint).
    ///
    /// Returns `Some(result)` when the operation completes (its final
    /// segment committed, or its slow path finished).
    fn step_op(&mut self, cpu: &mut Cpu, body: &mut OpBody<'_>) -> Option<Word> {
        match self.mode {
            Mode::Idle => panic!("step_op without an active operation"),
            _ if self.job.is_some() => {
                self.step_reclaim(cpu);
                None
            }
            Mode::Fast => self.step_fast(cpu, body),
            Mode::Slow => self.step_slow(cpu, body),
        }
    }

    /// Whether a scan must be drained before the next operation.
    fn idle_work_pending(&self) -> bool {
        self.mode == Mode::Idle && self.job.is_some()
    }

    /// Advances a pending scan while no operation is active.
    fn step_idle(&mut self, cpu: &mut Cpu) {
        assert!(
            self.idle_work_pending(),
            "step_idle without pending idle work"
        );
        self.step_reclaim(cpu);
    }

    /// Nodes retired but not yet proven unreferenced.
    fn outstanding_garbage(&self) -> u64 {
        self.free_set.len() as u64
    }

    fn st_stats(&self) -> Option<StThreadStats> {
        Some(self.stats.clone())
    }

    /// Zeroes the statistics, keeping predictor and reclamation state
    /// (benchmark warm-up support: measure a converged predictor).
    fn reset_stats(&mut self) {
        self.stats = StThreadStats::default();
    }

    fn teardown(&mut self, cpu: &mut Cpu) {
        // A worker cut off mid-operation by the simulation deadline
        // abandons the operation (the open segment rolls back) so the
        // free set can always be scanned; survivors stay for leak
        // accounting.
        self.abandon_op(cpu);
        self.force_full_scan(cpu);
    }

    fn scheme_name(&self) -> &'static str {
        "StackTrack"
    }
}

impl StThread {
    /// Abandons an in-flight operation without completing it (simulation
    /// deadline / teardown support). The open segment transaction is
    /// aborted and its speculative state rolled back, segment-local
    /// allocations are returned to the heap, the slow path (if taken) is
    /// exited so `slow_count` stays balanced, and the shadow frame is
    /// deactivated so scanners stop considering it. A scan already in
    /// flight keeps its job and resumes as idle work. No-op when the
    /// thread has no operation active.
    ///
    /// The abandoned operation is *not* counted in [`StThreadStats::ops`];
    /// it never completed.
    pub fn abandon_op(&mut self, cpu: &mut Cpu) {
        match self.mode {
            Mode::Idle => return,
            // Between segments: the previous segment committed (and
            // drained its staged retires) before the scan started, so
            // there is no speculative state to roll back.
            Mode::Fast if self.job.is_some() => {}
            Mode::Fast => {
                let tx = self.tx.as_mut().expect("fast path without a transaction");
                self.rt.engine.tx_abort(cpu, tx);
                // Nodes allocated in the aborted segment were never
                // published; return them to the heap.
                let heap = self.rt.heap();
                for a in self.seg_allocs.drain(..) {
                    heap.free_unpublished(cpu, a);
                }
                self.staged.clear();
            }
            Mode::Slow => self.slow_commit(cpu),
        }
        self.force_commit = false;
        self.user_region = false;
        let heap = self.rt.heap();
        heap.store(cpu, self.ctx, OFF_ACTIVE, 0);
        heap.fence(cpu);
        self.mode = Mode::Idle;
    }

    /// Forces a full scan of the free set, draining pending reclaim work
    /// (teardown / leak-accounting support). Survivors remain in the set.
    ///
    /// # Panics
    ///
    /// Panics if an operation is active.
    pub fn force_full_scan(&mut self, cpu: &mut Cpu) {
        assert!(!self.op_active(), "force_full_scan during an operation");
        while self.idle_work_pending() {
            self.step_idle(cpu);
        }
        if self.free_set.is_empty() {
            return;
        }
        self.start_scan(cpu);
        while self.idle_work_pending() {
            self.step_idle(cpu);
        }
    }

    // ------------------------------------------------------------------
    // Fast path: the split engine.
    // ------------------------------------------------------------------

    /// `SPLIT_START`: opens the next segment transaction.
    fn split_start(&mut self, cpu: &mut Cpu) {
        self.segment_limit = self
            .predictor
            .limit(self.op_id as usize, self.split_idx as usize);
        self.steps_in_segment = 0;
        self.seg_switches = cpu.counters.context_switches;
        match &mut self.tx {
            Some(tx) => self.rt.engine.begin_reuse(cpu, tx),
            None => self.tx = Some(self.rt.engine.begin(cpu)),
        }
    }

    fn step_fast(&mut self, cpu: &mut Cpu, body: &mut OpBody<'_>) -> Option<Word> {
        // A context switch between checkpoints aborts the live segment:
        // real HTM loses its speculative state on any preemption. Detected
        // here (the first step after being rescheduled) and attributed as
        // `AbortCause::Preempted` rather than a data conflict.
        if cpu.counters.context_switches != self.seg_switches {
            let tx = self.tx.as_mut().expect("fast path without a transaction");
            self.rt.engine.tx_abort_preempted(cpu, tx);
            self.on_segment_abort(cpu, AbortCause::Preempted);
            return None;
        }
        let result = body(self, cpu);
        // SPLIT_CHECKPOINT: count the basic block.
        cpu.charge(cpu.costs.local_op);
        self.steps_in_segment += 1;

        match result {
            Err(abort) => {
                self.on_segment_abort(cpu, abort.cause());
                None
            }
            Ok(Step::Continue) => {
                // A split is never performed inside a programmer-defined
                // transactional region (paper section 5.5).
                if !self.user_region
                    && (self.force_commit || self.steps_in_segment >= self.segment_limit)
                {
                    self.force_commit = false;
                    match self.split_commit(cpu, false) {
                        // A scan the commit started runs first; the next
                        // segment opens when it finishes.
                        Ok(()) if self.job.is_some() => {}
                        Ok(()) => self.split_start(cpu),
                        Err(abort) => self.on_segment_abort(cpu, abort.cause()),
                    }
                }
                None
            }
            Ok(Step::Done(v)) => match self.split_commit(cpu, true) {
                Ok(()) => {
                    self.finish_op(cpu);
                    self.mode = Mode::Idle;
                    Some(v)
                }
                Err(abort) => {
                    self.on_segment_abort(cpu, abort.cause());
                    None
                }
            },
        }
    }

    /// `SPLIT_COMMIT`: exposes registers, flushes dirty shadow slots, bumps
    /// the splits counter, and commits the segment. On success, staged
    /// retires enter the free path.
    fn split_commit(&mut self, cpu: &mut Cpu, is_final: bool) -> Result<(), Abort> {
        let engine = &self.rt.engine;
        let tx = self.tx.as_mut().expect("fast path without a transaction");

        // EXPOSE_REGISTERS (omitted on the final commit, as in the paper:
        // the frame is deactivated right after).
        if self.rt.config.expose_registers && !is_final {
            for i in 0..REG_SLOTS as u64 {
                engine.tx_write(cpu, tx, self.ctx, OFF_REGISTERS + i, self.regs[i as usize])?;
            }
        }
        // Flush dirty shadow stack slots (the paper's stack writes are
        // transactional stores; ours are batched here with identical
        // commit-time visibility).
        let mut dirty = self.dirty;
        while dirty != 0 {
            let i = dirty.trailing_zeros() as u64;
            dirty &= dirty - 1;
            engine.tx_write(cpu, tx, self.ctx, OFF_STACK + i, self.locals[i as usize])?;
        }
        engine.tx_write(cpu, tx, self.ctx, OFF_SPLITS, u64::from(self.split_idx + 1))?;
        engine.commit(cpu, tx)?;

        // Committed: bookkeeping.
        self.dirty = 0;
        self.seg_allocs.clear();
        self.predictor
            .on_commit(self.op_id as usize, self.split_idx as usize);
        self.split_idx += 1;
        self.fails_at_one = 0;
        self.stats.committed_segments += 1;
        self.stats.sum_segment_lengths += u64::from(self.steps_in_segment);
        self.stats
            .seg_lengths
            .record(u64::from(self.steps_in_segment));

        // Staged retires become FREE calls (non-transactional, post-commit).
        // `free` never touches `staged`, so the buffer goes back cleared
        // and keeps its capacity for the next retiring segment.
        if !self.staged.is_empty() {
            let mut staged = std::mem::take(&mut self.staged);
            self.rt.heap().store(cpu, self.ctx, OFF_STAGED_COUNT, 0);
            for (i, p) in (0..).zip(&staged) {
                self.rt.heap().store(cpu, self.ctx, OFF_STAGED + i, 0);
                self.free(cpu, *p);
            }
            staged.clear();
            self.staged = staged;
        }
        Ok(())
    }

    /// `MANAGE_SPLIT_ABORT` plus segment restart (or slow-path fallback).
    fn on_segment_abort(&mut self, cpu: &mut Cpu, cause: AbortCause) {
        self.stats.segment_aborts += 1;
        self.stats.abort_causes.add(cause);
        let at_minimum = self.segment_limit <= self.rt.config.min_split_length;
        self.predictor
            .on_abort(self.op_id as usize, self.split_idx as usize);
        if at_minimum {
            self.fails_at_one += 1;
        } else {
            self.fails_at_one = 0;
        }
        self.force_commit = false;
        self.user_region = false;
        self.staged.clear();

        // Nodes allocated in the aborted segment were never published;
        // return them to the heap.
        let heap = self.rt.heap();
        for a in self.seg_allocs.drain(..) {
            heap.free_unpublished(cpu, a);
        }

        self.restore_from_committed();

        if self.fails_at_one >= SLOW_FAIL_THRESHOLD {
            self.enter_slow(cpu);
        } else {
            self.split_start(cpu);
        }
    }

    /// Restores the local mirrors from committed shadow state — what the
    /// hardware's register checkpoint restore does on abort.
    fn restore_from_committed(&mut self) {
        let heap = self.rt.heap();
        for i in 0..self.slots_used as u64 {
            self.locals[i as usize] = heap.peek(self.ctx, OFF_STACK + i);
        }
        self.dirty = 0;
        for i in 0..REG_SLOTS as u64 {
            self.regs[i as usize] = heap.peek(self.ctx, OFF_REGISTERS + i);
        }
    }

    /// Common operation epilogue: bump `oper_counter` and deactivate. No
    /// fence: the final segment commit already published everything the
    /// scanners rely on.
    fn finish_op(&mut self, cpu: &mut Cpu) {
        let heap = self.rt.heap();
        self.oper_counter += 1;
        heap.store(cpu, self.ctx, OFF_OPER_COUNTER, self.oper_counter);
        heap.store(cpu, self.ctx, OFF_ACTIVE, 0);
        self.stats.ops += 1;
        self.stats.sum_splits_per_op += u64::from(self.split_idx);
        if self.op_used_slow {
            self.stats.slow_ops += 1;
        }
    }

    // ------------------------------------------------------------------
    // Slow path (Algorithm 5).
    // ------------------------------------------------------------------

    /// Switches the remainder of the operation to the software slow path.
    fn enter_slow(&mut self, cpu: &mut Cpu) {
        let heap = self.rt.heap();
        self.op_used_slow = true;
        self.refset_count = 0;
        self.refset_mirror.clear();
        heap.store(cpu, self.ctx, OFF_REFSET_COUNT, 0);
        heap.store(cpu, self.ctx, OFF_SLOW_FLAG, 1);
        heap.fetch_add(cpu, self.rt.slow_count, 0, 1);
        heap.fence(cpu);
        self.mode = Mode::Slow;
    }

    fn step_slow(&mut self, cpu: &mut Cpu, body: &mut OpBody<'_>) -> Option<Word> {
        let result = body(self, cpu);
        // SLOW_CHECKPOINT (policy bookkeeping only).
        cpu.charge(cpu.costs.local_op);
        match result {
            // The slow path has no transactions; bodies cannot observe
            // aborts here.
            Err(abort) => unreachable!("abort on the slow path: {abort}"),
            Ok(Step::Continue) => None,
            Ok(Step::Done(v)) => {
                self.slow_commit(cpu);
                self.finish_op(cpu);
                self.mode = Mode::Idle;
                Some(v)
            }
        }
    }

    /// `SLOW_COMMIT`: resets the reference set and leaves the slow path.
    fn slow_commit(&mut self, cpu: &mut Cpu) {
        let heap = self.rt.heap();
        self.refset_count = 0;
        self.refset_mirror.clear();
        heap.store(cpu, self.ctx, OFF_REFSET_COUNT, 0);
        heap.store(cpu, self.ctx, OFF_SLOW_FLAG, 0);
        let prev = heap.fetch_add(cpu, self.rt.slow_count, 0, 1u64.wrapping_neg());
        debug_assert!(
            prev >= 1,
            "slow_count underflow: slow_commit without a matching enter_slow"
        );
        heap.fence(cpu);
    }

    /// `SLOW_READ`: load, publish to the reference set, fence, revalidate.
    fn slow_read(&mut self, cpu: &mut Cpu, addr: Addr, off: u64) -> Word {
        loop {
            let v = self.rt.heap().load(cpu, addr, off);
            self.refset_add(cpu, v);
            self.rt.heap().fence(cpu);
            if self.rt.heap().load(cpu, addr, off) == v {
                return v;
            }
            // A restart implies another thread made progress.
            self.refset_remove(cpu, v);
        }
    }

    fn refset_add(&mut self, cpu: &mut Cpu, v: Word) {
        // Algorithm 5's reference set is a *set*: duplicate values (the
        // same node revisited, repeated key words) occupy one shared slot.
        // The mirror counts insertions so that a retry's REMOVE releases
        // only its own claim — dropping the shared slot while another read
        // still relies on it would unprotect a live reference. The
        // membership probe costs one load.
        cpu.charge(cpu.costs.load);
        let count = self.refset_mirror.entry(v).or_insert(0);
        *count += 1;
        if *count > 1 {
            return;
        }
        assert!(
            (self.refset_count as usize) < REFSET_CAP,
            "slow-path reference set overflow; raise layout::REFSET_CAP"
        );
        let heap = self.rt.heap();
        heap.store(cpu, self.ctx, OFF_REFSET + self.refset_count, v);
        self.refset_count += 1;
        heap.store(cpu, self.ctx, OFF_REFSET_COUNT, self.refset_count);
    }

    fn refset_remove(&mut self, cpu: &mut Cpu, v: Word) {
        match self.refset_mirror.get_mut(&v) {
            Some(count) if *count > 1 => {
                *count -= 1;
                return; // another read still claims this value
            }
            Some(_) => {
                self.refset_mirror.remove(&v);
            }
            None => return,
        }
        let heap = self.rt.heap();
        for i in (0..self.refset_count).rev() {
            if heap.load(cpu, self.ctx, OFF_REFSET + i) == v {
                let last = heap.load(cpu, self.ctx, OFF_REFSET + self.refset_count - 1);
                heap.store(cpu, self.ctx, OFF_REFSET + i, last);
                self.refset_count -= 1;
                heap.store(cpu, self.ctx, OFF_REFSET_COUNT, self.refset_count);
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // FREE (Algorithm 1 entry point) and the scan driver.
    // ------------------------------------------------------------------

    /// `FREE`: batches the candidate; schedules `SCAN_AND_FREE` when the
    /// batch exceeds `max_free`.
    fn free(&mut self, cpu: &mut Cpu, ptr: Addr) {
        self.stats.free_calls += 1;
        self.rt.heap().note_retire(cpu.thread_id, cpu.now(), ptr);
        self.free_set.push(Retired {
            addr: ptr,
            retired_at: cpu.now(),
        });
        if self.free_set.len() > self.rt.config.max_free && self.job.is_none() {
            self.start_scan(cpu);
        }
    }

    /// Moves the free set into a new [`ScanJob`], recycling the previous
    /// scan's buffers (the emptied candidates vector becomes the new
    /// free-set storage, so the hot path allocates nothing).
    fn start_scan(&mut self, cpu: &mut Cpu) {
        let spare = self.scan_bufs.take_spare();
        let candidates = std::mem::replace(&mut self.free_set, spare);
        let bufs = std::mem::take(&mut self.scan_bufs);
        self.job = Some(ScanJob::new(&self.rt, cpu, candidates, bufs));
    }

    /// Advances the pending scan by one chunk; when it finishes, the
    /// fast path opens the segment the scan deferred.
    fn step_reclaim(&mut self, cpu: &mut Cpu) {
        let job = self.job.as_mut().expect("step_reclaim without a job");
        if job.advance(&self.rt, cpu, &mut self.stats) {
            let job = self.job.take().expect("job present");
            self.scan_bufs = job.finish_into(&mut self.free_set);
            self.stats.scans += 1;
            if self.mode == Mode::Fast {
                self.split_start(cpu);
            }
        }
    }
}

// ----------------------------------------------------------------------
// The instrumented instruction set (fast + slow path dispatch).
// ----------------------------------------------------------------------

impl OpMem for StThread {
    fn load(&mut self, cpu: &mut Cpu, addr: Addr, off: u64) -> Result<Word, Abort> {
        match self.mode {
            Mode::Fast => {
                let engine = &self.rt.engine;
                let tx = self.tx.as_mut().expect("fast load without tx");
                engine.tx_read(cpu, tx, addr, off)
            }
            Mode::Slow => Ok(self.slow_read(cpu, addr, off)),
            _ => panic!("memory access outside an operation"),
        }
    }

    fn load_ptr(
        &mut self,
        cpu: &mut Cpu,
        addr: Addr,
        off: u64,
        _guard: usize,
    ) -> Result<Word, Abort> {
        let v = self.load(cpu, addr, off)?;
        if matches!(self.mode, Mode::Fast) {
            // Track the loaded pointer in the register file (exposed at the
            // next segment commit, like EXPOSE_REGISTERS).
            self.regs[self.reg_cursor] = v;
            self.reg_cursor = (self.reg_cursor + 1) % REG_SLOTS;
            cpu.charge(cpu.costs.local_op);
        }
        Ok(v)
    }

    fn store(&mut self, cpu: &mut Cpu, addr: Addr, off: u64, value: Word) -> Result<(), Abort> {
        match self.mode {
            Mode::Fast => {
                let engine = &self.rt.engine;
                let tx = self.tx.as_mut().expect("fast store without tx");
                engine.tx_write(cpu, tx, addr, off, value)
            }
            Mode::Slow => {
                // SLOW_WRITE: record the location, then write through the
                // engine so speculative readers are doomed.
                self.slow_read(cpu, addr, off);
                self.rt.engine.nontx_write(cpu, addr, off, value);
                Ok(())
            }
            _ => panic!("memory access outside an operation"),
        }
    }

    fn cas(
        &mut self,
        cpu: &mut Cpu,
        addr: Addr,
        off: u64,
        expected: Word,
        new: Word,
    ) -> Result<Result<Word, Word>, Abort> {
        match self.mode {
            Mode::Fast => {
                let engine = &self.rt.engine;
                let tx = self.tx.as_mut().expect("fast cas without tx");
                engine.tx_cas(cpu, tx, addr, off, expected, new)
            }
            Mode::Slow => {
                self.slow_read(cpu, addr, off);
                Ok(self.rt.engine.nontx_cas(cpu, addr, off, expected, new))
            }
            _ => panic!("memory access outside an operation"),
        }
    }

    fn alloc(&mut self, cpu: &mut Cpu, words: usize) -> Addr {
        let addr = self
            .rt
            .heap()
            .alloc(cpu, words)
            .expect("simulated heap exhausted; enlarge HeapConfig::capacity_words");
        if matches!(self.mode, Mode::Fast) {
            self.seg_allocs.push(addr);
        }
        addr
    }

    fn retire_unlinked(&mut self, cpu: &mut Cpu, addr: Addr) -> Result<(), Abort> {
        match self.mode {
            Mode::Fast => {
                // Stage transactionally; the forced commit below makes the
                // unlink + retire atomic, and a commit failure re-runs the
                // block with the stage rolled back (exactly-once FREE).
                let k = self.staged.len();
                assert!(k < STAGED_CAP, "too many retires in one segment");
                let engine = &self.rt.engine;
                let tx = self.tx.as_mut().expect("fast retire without tx");
                engine.tx_write(cpu, tx, self.ctx, OFF_STAGED + k as u64, addr.raw())?;
                engine.tx_write(cpu, tx, self.ctx, OFF_STAGED_COUNT, k as u64 + 1)?;
                self.staged.push(addr);
                self.force_commit = true;
                Ok(())
            }
            Mode::Slow => {
                // The slow path is non-speculative; FREE runs directly.
                self.free(cpu, addr);
                Ok(())
            }
            _ => panic!("retire outside an operation"),
        }
    }

    fn force_split(&mut self, cpu: &mut Cpu) {
        if matches!(self.mode, Mode::Fast) {
            cpu.charge(cpu.costs.local_op);
            self.force_commit = true;
        }
    }

    fn user_tx_begin(&mut self, cpu: &mut Cpu) {
        if matches!(self.mode, Mode::Fast) {
            cpu.charge(cpu.costs.local_op);
            self.user_region = true;
        }
    }

    fn user_tx_end(&mut self, cpu: &mut Cpu) -> Result<(), Abort> {
        if matches!(self.mode, Mode::Fast) && self.user_region {
            self.user_region = false;
            // Expose the register file at the region boundary, as the
            // paper requires; the values commit with the segment.
            if self.rt.config.expose_registers {
                let engine = &self.rt.engine;
                let tx = self.tx.as_mut().expect("fast path without tx");
                for i in 0..REG_SLOTS as u64 {
                    engine.tx_write(cpu, tx, self.ctx, OFF_REGISTERS + i, self.regs[i as usize])?;
                }
            }
        }
        Ok(())
    }

    fn get_local(&mut self, cpu: &mut Cpu, slot: usize) -> Word {
        assert!(slot < self.slots_used, "undeclared local slot {slot}");
        match self.mode {
            Mode::Fast => {
                cpu.charge(cpu.costs.local_op);
                self.locals[slot]
            }
            Mode::Slow => self.rt.heap().load(cpu, self.ctx, OFF_STACK + slot as u64),
            _ => panic!("local access outside an operation"),
        }
    }

    fn set_local(&mut self, cpu: &mut Cpu, slot: usize, value: Word) {
        assert!(slot < self.slots_used, "undeclared local slot {slot}");
        match self.mode {
            Mode::Fast => {
                cpu.charge(cpu.costs.local_op);
                self.locals[slot] = value;
                self.dirty |= 1 << slot;
            }
            Mode::Slow => {
                let heap = self.rt.heap();
                heap.store(cpu, self.ctx, OFF_STACK + slot as u64, value);
            }
            _ => panic!("local access outside an operation"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{SchemeThread, StConfig, StRuntime, Step};
    use st_simheap::{Heap, HeapConfig};
    use st_simhtm::{HtmConfig, HtmEngine};
    use std::sync::Arc;

    #[test]
    fn stacktrack_runs_through_the_trait() {
        let heap = Arc::new(Heap::new(HeapConfig {
            capacity_words: 1 << 18,
        }));
        let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 1));
        let rt = StRuntime::new(engine, StConfig::default(), 1);
        let mut th: Box<dyn SchemeThread> = Box::new(rt.register_thread(0));
        let mut cpu = rt.test_cpu(0);

        // Runtime metadata (activity array, slow counter, thread context)
        // stays allocated; only the retired node must come and go.
        let metadata_objects = heap.stats().alloc.live_objects;
        let v = th.run_op(&mut cpu, 0, 1, &mut |m, cpu| {
            let n = m.alloc(cpu, 2);
            m.store(cpu, n, 0, 3)?;
            m.retire_unlinked(cpu, n)?;
            Ok(Step::Done(9))
        });
        assert_eq!(v, 9);
        assert_eq!(th.scheme_name(), "StackTrack");
        assert_eq!(th.outstanding_garbage(), 1);
        th.teardown(&mut cpu);
        assert_eq!(th.outstanding_garbage(), 0);
        assert_eq!(heap.stats().alloc.live_objects, metadata_objects);
    }

    #[test]
    fn teardown_mid_operation_flushes_the_free_set() {
        let heap = Arc::new(Heap::new(HeapConfig {
            capacity_words: 1 << 18,
        }));
        let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 1));
        let rt = StRuntime::new(engine, StConfig::default(), 1);
        let mut th: Box<dyn SchemeThread> = Box::new(rt.register_thread(0));
        let mut cpu = rt.test_cpu(0);

        let metadata_objects = heap.stats().alloc.live_objects;
        // Retire a node so the free set is non-empty...
        th.run_op(&mut cpu, 0, 1, &mut |m, cpu| {
            let n = m.alloc(cpu, 2);
            m.store(cpu, n, 0, 3)?;
            m.retire_unlinked(cpu, n)?;
            Ok(Step::Done(0))
        });
        assert_eq!(th.outstanding_garbage(), 1);

        // ...then cut the worker off mid-operation, with an unpublished
        // allocation in the open segment — the simulation-deadline shape.
        th.begin_op(&mut cpu, 1, 1);
        let mut stepped = false;
        th.step_op(&mut cpu, &mut |m, cpu| {
            let n = m.alloc(cpu, 2);
            m.store(cpu, n, 0, 7)?;
            stepped = true;
            Ok(Step::Continue)
        });
        assert!(stepped);

        // Teardown abandons the operation (rolling back the segment and
        // its allocation) and drains the free set.
        th.teardown(&mut cpu);
        assert_eq!(th.outstanding_garbage(), 0);
        assert_eq!(heap.stats().alloc.live_objects, metadata_objects);
    }

    #[test]
    fn a_retiring_commit_keeps_the_staged_buffer() {
        let heap = Arc::new(Heap::new(HeapConfig {
            capacity_words: 1 << 18,
        }));
        let engine = Arc::new(HtmEngine::new(heap, HtmConfig::default(), 1));
        let rt = StRuntime::new(engine, StConfig::default(), 1);
        let mut th = rt.register_thread(0);
        let mut cpu = rt.test_cpu(0);
        let retire_one = |th: &mut super::StThread, cpu: &mut _| {
            th.run_op(cpu, 0, 1, &mut |m, cpu| {
                let n = m.alloc(cpu, 2);
                m.retire_unlinked(cpu, n)?;
                Ok(Step::Done(0))
            });
        };
        retire_one(&mut th, &mut cpu);
        assert!(th.staged.is_empty(), "the commit drained the stage");
        let capacity = th.staged.capacity();
        assert!(capacity > 0, "the drained buffer was put back");
        retire_one(&mut th, &mut cpu);
        assert_eq!(th.staged.capacity(), capacity);
        assert_eq!(th.stats().free_calls, 2);
    }
}
