//! The TL2-style best-effort transaction engine.

use crate::abort::Abort;
use crate::capacity;
use crate::stats::{HtmStats, HtmThreadStats};
use crate::stripes::StripeTable;
use crate::tx::Tx;
use st_machine::Cpu;
use st_obs::AbortCause;
use st_simheap::{Addr, Heap, Word};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stripes in the version-lock table.
const STRIPES: usize = 1 << 16;

/// Engine parameters. The L1 capacity model's parameters are constants
/// of [`capacity`].
#[derive(Debug, Clone, Default)]
pub struct HtmConfig {
    /// Probability that any single transactional access aborts spuriously
    /// ([`AbortCause::Spurious`]) — interrupts, unsupported instructions.
    /// The paper treats these as rare; default 0 keeps unit tests exact.
    pub spurious_abort_per_access: f64,
}

/// The best-effort HTM engine.
///
/// One engine guards one [`Heap`]. Transactions ([`Tx`]) are driven through
/// the `tx_*` methods; non-transactional code interacts with transactional
/// state through [`HtmEngine::nontx_write`] / [`HtmEngine::free_object`],
/// which advance stripe versions and thereby doom every in-flight
/// transaction that read those lines — the property StackTrack's safety
/// argument rests on.
#[derive(Debug)]
pub struct HtmEngine {
    heap: Arc<Heap>,
    stripes: StripeTable,
    clock: AtomicU64,
    config: HtmConfig,
    stats: Vec<HtmThreadStats>,
}

impl HtmEngine {
    /// Creates an engine over `heap` supporting up to `max_threads`
    /// simulated threads.
    pub fn new(heap: Arc<Heap>, config: HtmConfig, max_threads: usize) -> Self {
        Self {
            heap,
            stripes: StripeTable::new(STRIPES),
            clock: AtomicU64::new(0),
            stats: (0..max_threads)
                .map(|_| HtmThreadStats::default())
                .collect(),
            config,
        }
    }

    /// The heap this engine guards.
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    /// Snapshot of one thread's transaction statistics.
    pub fn thread_stats(&self, thread_id: usize) -> HtmStats {
        self.stats[thread_id].snapshot()
    }

    /// Clears all per-thread statistics (benchmark warm-up support).
    pub fn reset_stats(&self) {
        for s in &self.stats {
            s.reset();
        }
    }

    /// Sum of all threads' transaction statistics.
    pub fn total_stats(&self) -> HtmStats {
        self.stats
            .iter()
            .map(HtmThreadStats::snapshot)
            .fold(HtmStats::default(), HtmStats::merged)
    }

    // ------------------------------------------------------------------
    // Transactional interface.
    // ------------------------------------------------------------------

    /// Starts a transaction (XBEGIN).
    pub fn begin(&self, cpu: &mut Cpu) -> Tx {
        cpu.charge(cpu.costs.htm_begin);
        self.stats[cpu.thread_id].on_begin();
        Tx::new(self.clock.load(Ordering::Relaxed))
    }

    /// Starts a transaction, recycling a previous descriptor's buffers
    /// (the common path for split segments, which begin thousands of
    /// transactions per operation).
    pub fn begin_reuse(&self, cpu: &mut Cpu, tx: &mut Tx) {
        cpu.charge(cpu.costs.htm_begin);
        self.stats[cpu.thread_id].on_begin();
        tx.reset(self.clock.load(Ordering::Relaxed));
    }

    fn fail(&self, cpu: &mut Cpu, tx: &mut Tx, cause: AbortCause) -> Abort {
        debug_assert!(!tx.dead, "aborting a dead transaction");
        tx.dead = true;
        cpu.charge(cpu.costs.htm_abort);
        cpu.publish_footprint(0);
        self.stats[cpu.thread_id].on_abort(cause);
        Abort(cause)
    }

    /// Explicitly aborts the transaction (XABORT).
    pub fn tx_abort(&self, cpu: &mut Cpu, tx: &mut Tx) -> Abort {
        self.fail(cpu, tx, AbortCause::Explicit)
    }

    /// Aborts the transaction because the scheduler preempted its thread
    /// mid-flight. Real HTM cannot survive a context switch (the register
    /// checkpoint and speculative cache state are lost); the split engine
    /// calls this when it observes a context switch during a live segment,
    /// so preemption is attributed separately from data conflicts.
    pub fn tx_abort_preempted(&self, cpu: &mut Cpu, tx: &mut Tx) -> Abort {
        self.fail(cpu, tx, AbortCause::Preempted)
    }

    fn admit_line(&self, cpu: &mut Cpu, tx: &mut Tx, line: u64) -> Result<(), Abort> {
        // Consecutive accesses overwhelmingly land on the line just
        // admitted (fields of one node); the memo skips the set probe for
        // those. A memo hit implies the line is already in `lines`, so the
        // capacity check (and its RNG draw) was already skipped before.
        if line == tx.last_line {
            return Ok(());
        }
        if tx.lines.insert(line) {
            let lines = tx.footprint_lines();
            if !capacity::admits(cpu, lines) {
                return Err(self.fail(cpu, tx, AbortCause::Capacity));
            }
            cpu.publish_footprint(lines);
        }
        tx.last_line = line;
        Ok(())
    }

    fn maybe_spurious(&self, cpu: &mut Cpu, tx: &mut Tx) -> Result<(), Abort> {
        let p = self.config.spurious_abort_per_access;
        if p > 0.0 && cpu.rng.chance(p) {
            return Err(self.fail(cpu, tx, AbortCause::Spurious));
        }
        Ok(())
    }

    /// Transactional load of `addr + off`.
    ///
    /// Validated eagerly (TL2): the stripe must be unlocked and no newer
    /// than the transaction's read version, and must not change across the
    /// data read — so a transaction never observes an inconsistent snapshot
    /// (opacity), just like cache-coherence-based HTM.
    pub fn tx_read(&self, cpu: &mut Cpu, tx: &mut Tx, addr: Addr, off: u64) -> Result<Word, Abort> {
        debug_assert!(!tx.dead, "read on dead transaction");
        let line = addr.offset(off).line();
        cpu.charge_mem(line);
        cpu.charge(cpu.costs.tx_load);
        cpu.counters.tx_loads += 1;
        self.maybe_spurious(cpu, tx)?;

        let word_idx = addr.index() + off;
        if let Some(v) = tx.buffered(word_idx) {
            return Ok(v);
        }

        let stripe = self.stripes.index_of_line(line);
        let s1 = self.stripes.read(stripe);
        if s1.locked() || s1.version() > tx.rv {
            return Err(self.fail(cpu, tx, AbortCause::Conflict));
        }
        let value = self.heap.peek(addr, off);
        let s2 = self.stripes.read(stripe);
        if s2 != s1 {
            return Err(self.fail(cpu, tx, AbortCause::Conflict));
        }
        // Validated read of a freed block: the transaction began after the
        // free (doomed readers abort above), so this is a real
        // use-after-free when the heap's oracle is armed.
        self.heap.note_speculative_read(cpu.thread_id, addr, off);
        tx.record_read_stripe(stripe);
        self.admit_line(cpu, tx, line)?;
        Ok(value)
    }

    /// Transactional store to `addr + off` (buffered until commit).
    pub fn tx_write(
        &self,
        cpu: &mut Cpu,
        tx: &mut Tx,
        addr: Addr,
        off: u64,
        value: Word,
    ) -> Result<(), Abort> {
        debug_assert!(!tx.dead, "write on dead transaction");
        let line = addr.offset(off).line();
        cpu.charge_mem(line);
        cpu.charge(cpu.costs.tx_store);
        cpu.counters.tx_stores += 1;
        self.maybe_spurious(cpu, tx)?;
        tx.buffer_write(addr, off, value);
        self.admit_line(cpu, tx, line)
    }

    /// Transactional compare-and-swap: reads `addr + off` and, if it equals
    /// `expected`, buffers `new`. Returns `Ok(previous)` on success,
    /// `Err(actual)` on mismatch (outer `Err` is an abort).
    ///
    /// Inside a transaction a CAS needs no hardware atomicity of its own —
    /// the transaction provides it.
    pub fn tx_cas(
        &self,
        cpu: &mut Cpu,
        tx: &mut Tx,
        addr: Addr,
        off: u64,
        expected: Word,
        new: Word,
    ) -> Result<Result<Word, Word>, Abort> {
        let current = self.tx_read(cpu, tx, addr, off)?;
        if current != expected {
            return Ok(Err(current));
        }
        self.tx_write(cpu, tx, addr, off, new)?;
        Ok(Ok(current))
    }

    /// Commits the transaction (XEND).
    ///
    /// On success the descriptor is left dead (reset it with
    /// [`HtmEngine::begin_reuse`] to start the next segment); on failure it
    /// is dead too, with the abort accounted.
    pub fn commit(&self, cpu: &mut Cpu, tx: &mut Tx) -> Result<(), Abort> {
        debug_assert!(!tx.dead, "commit on dead transaction");
        cpu.charge(cpu.costs.htm_commit);

        if tx.is_read_only() {
            // Eagerly validated reads serialize the transaction at its read
            // version; nothing to publish.
            self.finish_commit(cpu, tx);
            return Ok(());
        }

        // Lock the write stripes in sorted order (livelock-free for the
        // real-thread stress tests; in the discrete-event simulator a
        // commit is atomic and these locks are never observed). The stripe
        // scratch lives in the descriptor, so a recycled `Tx` commits
        // without touching the allocator; because locking walks the sorted
        // slice front-to-back, "what we hold" is always a prefix and a
        // separate `locked` list is unnecessary.
        tx.write_stripes.clear();
        let stripes = &self.stripes;
        tx.write_stripes.extend(
            tx.writes
                .iter()
                .map(|&(addr, off, _)| stripes.index_of(addr, off)),
        );
        tx.write_stripes.sort_unstable();
        tx.write_stripes.dedup();

        let mut locked = 0;
        while locked < tx.write_stripes.len() {
            // A blind write to a stripe whose version advanced is still
            // serializable; only a *locked* stripe is a conflict. Writes to
            // lines the transaction also read are covered by read-set
            // validation below.
            let s = tx.write_stripes[locked];
            let seen = self.stripes.read(s);
            if seen.locked() || !self.stripes.try_lock(s, seen) {
                for &l in &tx.write_stripes[..locked] {
                    let v = self.stripes.read(l).version();
                    self.stripes.release(l, v);
                }
                return Err(self.fail(cpu, tx, AbortCause::Conflict));
            }
            locked += 1;
        }

        let wv = self.clock.fetch_add(1, Ordering::Relaxed) + 1;

        // Validate the read set unless nobody committed since we began.
        // Every write stripe is locked at this point, so ownership is a
        // binary search of the full sorted slice.
        if wv != tx.rv + 1 {
            for &s in &tx.read_stripes {
                let v = self.stripes.read(s);
                let own = tx.write_stripes.binary_search(&s).is_ok();
                if (v.locked() && !own) || v.version() > tx.rv {
                    for &l in &tx.write_stripes {
                        let ver = self.stripes.read(l).version();
                        self.stripes.release(l, ver);
                    }
                    return Err(self.fail(cpu, tx, AbortCause::Conflict));
                }
            }
        }

        // Publish the write buffer; these are real stores with real
        // coherence traffic.
        for &(addr, off, value) in &tx.writes {
            self.heap.store(cpu, addr, off, value);
        }
        tx.writes.clear();
        for &s in &tx.write_stripes {
            self.stripes.release(s, wv);
        }
        self.finish_commit(cpu, tx);
        Ok(())
    }

    fn finish_commit(&self, cpu: &mut Cpu, tx: &mut Tx) {
        tx.dead = true;
        cpu.publish_footprint(0);
        self.stats[cpu.thread_id]
            .on_commit(tx.read_stripes.len() as u64, tx.write_map.len() as u64);
    }

    // ------------------------------------------------------------------
    // Non-transactional interface.
    // ------------------------------------------------------------------

    /// Plain load; never conflicts (reads committed state).
    pub fn nontx_read(&self, cpu: &mut Cpu, addr: Addr, off: u64) -> Word {
        self.heap.load(cpu, addr, off)
    }

    /// Non-transactional store that **dooms** every in-flight transaction
    /// holding the line in its read set (advances the stripe version).
    pub fn nontx_write(&self, cpu: &mut Cpu, addr: Addr, off: u64, value: Word) {
        let stripe = self.stripes.index_of(addr, off);
        loop {
            let seen = self.stripes.read(stripe);
            if !seen.locked() && self.stripes.try_lock(stripe, seen) {
                break;
            }
            std::hint::spin_loop();
        }
        self.heap.store(cpu, addr, off, value);
        let wv = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        self.stripes.release(stripe, wv);
    }

    /// Non-transactional compare-and-swap that dooms transactional readers
    /// of the line on success (the slow path's CAS; see `SLOW_WRITE` in the
    /// paper's Algorithm 5, which funnels writes through the reference-set
    /// protocol and still conflicts with speculative readers).
    pub fn nontx_cas(
        &self,
        cpu: &mut Cpu,
        addr: Addr,
        off: u64,
        expected: Word,
        new: Word,
    ) -> Result<Word, Word> {
        let stripe = self.stripes.index_of(addr, off);
        loop {
            let seen = self.stripes.read(stripe);
            if !seen.locked() && self.stripes.try_lock(stripe, seen) {
                break;
            }
            std::hint::spin_loop();
        }
        let result = self.heap.cas(cpu, addr, off, expected, new);
        if result.is_ok() {
            let wv = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
            self.stripes.release(stripe, wv);
        } else {
            let v = self.stripes.read(stripe).version();
            self.stripes.release(stripe, v);
        }
        result
    }

    /// Frees the object based at `addr`: advances the versions of all its
    /// stripes (dooming transactional readers), then poisons and returns
    /// the block to the allocator.
    ///
    /// This is the reclaimer-side primitive behind StackTrack's `FREE`; the
    /// paper's safety argument ("if the node is still accessed inside an
    /// uncommitted transaction, a data conflict will force that transaction
    /// to abort") is exactly this version bump.
    pub fn free_object(&self, cpu: &mut Cpu, addr: Addr) {
        let block = self
            .heap
            .block_len(addr)
            .unwrap_or_else(|| panic!("free_object of unknown address {addr:?}"));
        // One stripe per *line*, not per word: consecutive words share a
        // line, so walking line numbers does 1/8th the hashing. Objects are
        // at most a few lines, so a stack buffer covers every real free;
        // the heap spill only triggers for pathological block sizes. The
        // engine is `&self` across OS threads, so the scratch cannot live
        // in the engine itself.
        let first = addr.line();
        let last = addr.offset(block.saturating_sub(1)).line();
        let n_lines = (last - first + 1) as usize;
        let mut buf = [0u32; 64];
        let mut spill: Vec<u32>;
        let slots: &mut [u32] = if n_lines <= buf.len() {
            &mut buf[..n_lines]
        } else {
            spill = vec![0; n_lines];
            &mut spill
        };
        for (slot, line) in slots.iter_mut().zip(first..=last) {
            *slot = self.stripes.index_of_line(line);
        }
        slots.sort_unstable();
        // Manual dedup-in-place (slices have no `dedup`).
        let mut n = 0;
        for i in 0..slots.len() {
            if n == 0 || slots[i] != slots[n - 1] {
                slots[n] = slots[i];
                n += 1;
            }
        }
        let stripes = &slots[..n];
        for &s in stripes {
            loop {
                let seen = self.stripes.read(s);
                if !seen.locked() && self.stripes.try_lock(s, seen) {
                    break;
                }
                std::hint::spin_loop();
            }
        }
        self.heap.free(cpu, addr);
        let wv = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        for &s in stripes {
            self.stripes.release(s, wv);
        }
    }

    /// Issues a full fence (cost only; ordering is virtual).
    pub fn fence(&self, cpu: &mut Cpu) {
        self.heap.fence(cpu);
    }

    /// Current global version clock (diagnostics).
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_machine::{cpu::ActivityBoard, CostModel, HwContext, Topology};
    use st_simheap::HeapConfig;

    fn setup() -> (Arc<HtmEngine>, Vec<Cpu>) {
        let heap = Arc::new(Heap::new(HeapConfig::small()));
        let engine = Arc::new(HtmEngine::new(heap, HtmConfig::default(), 4));
        let topo = Topology::haswell();
        let board = Arc::new(ActivityBoard::new(topo.hw_contexts()));
        let costs = Arc::new(CostModel::default());
        let cpus = (0..4)
            .map(|i| {
                Cpu::new(
                    i,
                    HwContext::new(&topo, topo.place(i)),
                    costs.clone(),
                    board.clone(),
                    99,
                )
            })
            .collect();
        (engine, cpus)
    }

    #[test]
    fn committed_writes_become_visible() {
        let (e, mut cpus) = setup();
        let c = &mut cpus[0];
        let a = e.heap().alloc(c, 2).unwrap();
        let mut tx = e.begin(c);
        e.tx_write(c, &mut tx, a, 0, 7).unwrap();
        e.tx_write(c, &mut tx, a, 1, 8).unwrap();
        assert_eq!(e.heap().peek(a, 0), 0, "buffered until commit");
        e.commit(c, &mut tx).unwrap();
        assert_eq!(e.heap().peek(a, 0), 7);
        assert_eq!(e.heap().peek(a, 1), 8);
    }

    #[test]
    fn reads_see_own_writes() {
        let (e, mut cpus) = setup();
        let c = &mut cpus[0];
        let a = e.heap().alloc(c, 1).unwrap();
        let mut tx = e.begin(c);
        e.tx_write(c, &mut tx, a, 0, 41).unwrap();
        assert_eq!(e.tx_read(c, &mut tx, a, 0).unwrap(), 41);
        e.commit(c, &mut tx).unwrap();
    }

    #[test]
    fn conflicting_commit_dooms_reader() {
        let (e, mut cpus) = setup();
        let a = {
            let c = &mut cpus[0];
            let a = e.heap().alloc(c, 1).unwrap();
            e.heap().poke(a, 0, 1);
            a
        };
        // Reader starts and reads.
        let mut rtx = {
            let c = &mut cpus[0];
            let mut tx = e.begin(c);
            assert_eq!(e.tx_read(c, &mut tx, a, 0).unwrap(), 1);
            tx
        };
        // Writer commits an update to the same line.
        {
            let c = &mut cpus[1];
            let mut tx = e.begin(c);
            e.tx_write(c, &mut tx, a, 0, 2).unwrap();
            e.commit(c, &mut tx).unwrap();
        }
        // Reader writes something (becomes a write tx) and must fail
        // commit-time validation.
        let c = &mut cpus[0];
        let b = e.heap().alloc(c, 1).unwrap();
        e.tx_write(c, &mut rtx, b, 0, 9).unwrap();
        let err = e.commit(c, &mut rtx).unwrap_err();
        assert_eq!(err.cause(), AbortCause::Conflict);
        assert_eq!(e.heap().peek(b, 0), 0, "aborted writes must not leak");
    }

    #[test]
    fn eager_validation_gives_opacity() {
        let (e, mut cpus) = setup();
        let a = {
            let c = &mut cpus[0];
            let a = e.heap().alloc(c, 8).unwrap();
            a
        };
        let mut rtx = {
            let c = &mut cpus[0];
            let mut tx = e.begin(c);
            let _ = e.tx_read(c, &mut tx, a, 0).unwrap();
            tx
        };
        {
            let c = &mut cpus[1];
            e.nontx_write(c, a, 7, 5);
        }
        // Reading any word whose stripe advanced past rv aborts immediately,
        // before the stale mix is observable.
        let c = &mut cpus[0];
        let err = e.tx_read(c, &mut rtx, a, 7).unwrap_err();
        assert_eq!(err.cause(), AbortCause::Conflict);
    }

    #[test]
    fn free_object_dooms_transactional_reader() {
        let (e, mut cpus) = setup();
        let a = {
            let c = &mut cpus[0];
            e.heap().alloc(c, 4).unwrap()
        };
        let mut rtx = {
            let c = &mut cpus[1];
            let mut tx = e.begin(c);
            let _ = e.tx_read(c, &mut tx, a, 0).unwrap();
            tx
        };
        {
            let c = &mut cpus[0];
            e.free_object(c, a);
        }
        let c = &mut cpus[1];
        // Writing elsewhere then committing must fail read validation.
        let b = e.heap().alloc(c, 1).unwrap();
        e.tx_write(c, &mut rtx, b, 0, 1).unwrap();
        assert_eq!(
            e.commit(c, &mut rtx).unwrap_err().cause(),
            AbortCause::Conflict
        );
        assert!(!e.heap().is_live(a));
    }

    #[test]
    fn capacity_abort_on_budget_overflow() {
        let heap = Arc::new(Heap::new(HeapConfig {
            capacity_words: 1 << 18,
        }));
        let e = HtmEngine::new(heap, HtmConfig::default(), 1);
        let topo = Topology::haswell();
        let mut c = Cpu::new(
            0,
            HwContext::new(&topo, 0),
            Arc::new(CostModel::default()),
            Arc::new(ActivityBoard::new(topo.hw_contexts())),
            5,
        );
        // One word per line across more lines than the L1 budget: an
        // eviction or the hard budget ends the transaction by line 449.
        let lines = capacity::L1_LINES + 8;
        let a = e.heap().alloc(&mut c, (lines * 8) as usize).unwrap();
        let mut tx = e.begin(&mut c);
        let mut failed = None;
        for line in 0..lines {
            if let Err(ab) = e.tx_read(&mut c, &mut tx, a, line * 8) {
                failed = Some((line, ab));
                break;
            }
        }
        let (line, ab) = failed.expect("the budget overflows");
        assert!(line <= capacity::L1_LINES, "admitted {line} lines");
        assert_eq!(ab.cause(), AbortCause::Capacity);
        assert_eq!(e.thread_stats(0).aborts_capacity, 1);
    }

    #[test]
    fn explicit_abort_counts() {
        let (e, mut cpus) = setup();
        let c = &mut cpus[0];
        let mut tx = e.begin(c);
        let ab = e.tx_abort(c, &mut tx);
        assert_eq!(ab.cause(), AbortCause::Explicit);
        assert_eq!(e.thread_stats(0).aborts_explicit, 1);
    }

    #[test]
    fn cas_semantics_inside_tx() {
        let (e, mut cpus) = setup();
        let c = &mut cpus[0];
        let a = e.heap().alloc(c, 1).unwrap();
        e.heap().poke(a, 0, 10);
        let mut tx = e.begin(c);
        assert_eq!(e.tx_cas(c, &mut tx, a, 0, 10, 11).unwrap(), Ok(10));
        assert_eq!(e.tx_cas(c, &mut tx, a, 0, 10, 12).unwrap(), Err(11));
        e.commit(c, &mut tx).unwrap();
        assert_eq!(e.heap().peek(a, 0), 11);
    }

    #[test]
    fn stats_track_commits_and_aborts() {
        let (e, mut cpus) = setup();
        let c = &mut cpus[0];
        let a = e.heap().alloc(c, 1).unwrap();
        for i in 0..3 {
            let mut tx = e.begin(c);
            e.tx_write(c, &mut tx, a, 0, i).unwrap();
            e.commit(c, &mut tx).unwrap();
        }
        let s = e.thread_stats(0);
        assert_eq!(s.begun, 3);
        assert_eq!(s.committed, 3);
        assert_eq!(s.committed_writes, 3);
        assert_eq!(s.total_aborts(), 0);
        assert_eq!(e.total_stats().committed, 3);
    }

    #[test]
    fn spurious_aborts_when_configured() {
        let heap = Arc::new(Heap::new(HeapConfig::small()));
        let e = HtmEngine::new(
            heap,
            HtmConfig {
                spurious_abort_per_access: 1.0,
            },
            1,
        );
        let topo = Topology::haswell();
        let mut c = Cpu::new(
            0,
            HwContext::new(&topo, 0),
            Arc::new(CostModel::default()),
            Arc::new(ActivityBoard::new(topo.hw_contexts())),
            5,
        );
        let a = e.heap().alloc(&mut c, 1).unwrap();
        let mut tx = e.begin(&mut c);
        assert_eq!(
            e.tx_read(&mut c, &mut tx, a, 0).unwrap_err().cause(),
            AbortCause::Spurious
        );
    }

    #[test]
    fn nontx_write_is_immediately_visible() {
        let (e, mut cpus) = setup();
        let c = &mut cpus[0];
        let a = e.heap().alloc(c, 1).unwrap();
        e.nontx_write(c, a, 0, 123);
        assert_eq!(e.nontx_read(c, a, 0), 123);
    }

    #[test]
    fn read_only_tx_commits_despite_later_writes() {
        let (e, mut cpus) = setup();
        let a = {
            let c = &mut cpus[0];
            e.heap().alloc(c, 1).unwrap()
        };
        let mut rtx = {
            let c = &mut cpus[0];
            let mut tx = e.begin(c);
            let _ = e.tx_read(c, &mut tx, a, 0).unwrap();
            tx
        };
        {
            let c = &mut cpus[1];
            e.nontx_write(c, a, 0, 9);
        }
        // Read-only: serializes at its read version, still commits.
        let c = &mut cpus[0];
        e.commit(c, &mut rtx).unwrap();
    }
}
