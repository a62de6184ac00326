//! The TL2-style best-effort transaction engine: versions plus one writer
//! lock. Readers validate against per-line stripe versions and take no
//! lock; the four writers run one at a time under the writer lock (see
//! `HtmEngine::write_locked`).

use crate::abort::Abort;
use crate::capacity;
use crate::stats::{HtmStats, HtmThreadStats};
use crate::stripes::StripeTable;
use crate::tx::Tx;
use st_machine::Cpu;
use st_obs::AbortCause;
use st_simheap::{Addr, Heap, Word};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    /// The version of the last finished write; a transaction's read
    /// version is its value at begin. Writers store it with `Release`
    /// after their heap writes and `begin` loads it with `Acquire`, so a
    /// transaction that begins after a write reads that write's data.
    clock: AtomicU64,
    /// Held by every writer from its version to its clock store (see
    /// `write_locked`).
    writer: Mutex<()>,
    config: HtmConfig,
    stats: Vec<HtmThreadStats>,
}

impl HtmEngine {
    /// Creates an engine over `heap` supporting up to `max_threads`
    /// simulated threads.
    pub fn new(heap: Arc<Heap>, config: HtmConfig, max_threads: usize) -> Self {
        Self {
            heap,
            stripes: StripeTable::new(),
            clock: AtomicU64::new(0),
            writer: Mutex::new(()),
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
        Tx::new(self.clock.load(Ordering::Acquire))
    }

    /// Starts a transaction, recycling a previous descriptor's buffers
    /// (the common path for split segments, which begin thousands of
    /// transactions per operation).
    pub fn begin_reuse(&self, cpu: &mut Cpu, tx: &mut Tx) {
        cpu.charge(cpu.costs.htm_begin);
        self.stats[cpu.thread_id].on_begin();
        tx.reset(self.clock.load(Ordering::Acquire));
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
    /// Validated eagerly (TL2): the stripe must be no newer than the
    /// transaction's read version, and must not change across the data
    /// read. A writer stamps before it writes the heap, so a read that
    /// overlaps a write sees the stamp on one side or the other and aborts:
    /// a transaction never observes an inconsistent snapshot (opacity),
    /// just like cache-coherence-based HTM.
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
        let s1 = self.stripes.version(stripe);
        if s1 > tx.rv {
            return Err(self.fail(cpu, tx, AbortCause::Conflict));
        }
        let value = self.heap.peek(addr, off);
        // Pairs with the writers' release fence: a data word written after
        // a stamp makes that stamp visible to the second read.
        fence(Ordering::Acquire);
        if self.stripes.version(stripe) != s1 {
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

        // Eagerly validated reads serialize a read-only transaction at its
        // read version; it has nothing to check or publish.
        let committed = tx.is_read_only()
            || self.write_locked(|wv| {
                // Validate the read set unless nobody wrote since we began.
                // A blind write needs no check: only this transaction's
                // reads can be stale.
                if wv != tx.rv + 1
                    && tx
                        .read_stripes
                        .iter()
                        .any(|&s| self.stripes.version(s) > tx.rv)
                {
                    return false;
                }
                self.stamp(
                    tx.writes
                        .iter()
                        .map(|&(addr, off, _)| self.stripes.index_of(addr, off)),
                    wv,
                );
                // Publish the write buffer; these are real stores with real
                // coherence traffic.
                for &(addr, off, value) in &tx.writes {
                    self.heap.store(cpu, addr, off, value);
                }
                true
            });
        if !committed {
            return Err(self.fail(cpu, tx, AbortCause::Conflict));
        }
        tx.writes.clear();
        self.finish_commit(cpu, tx);
        Ok(())
    }

    fn finish_commit(&self, cpu: &mut Cpu, tx: &mut Tx) {
        tx.dead = true;
        cpu.publish_footprint(0);
        self.stats[cpu.thread_id]
            .on_commit(tx.read_stripes.len() as u64, tx.write_map.len() as u64);
    }

    /// Runs one writer (a writing commit, `nontx_write`, `nontx_cas` or
    /// `free_object`) under the writer lock. `write(wv)` checks, stamps the
    /// lines it writes with `wv` (through [`HtmEngine::stamp`]), writes the
    /// heap and returns whether it wrote; only then does the clock move to
    /// `wv`. So a transaction that began before the write aborts on a stamp
    /// newer than its read version, and one that began after reads the
    /// written data. A writer that wrote nothing stamped nothing and leaves
    /// the clock alone.
    fn write_locked(&self, write: impl FnOnce(u64) -> bool) -> bool {
        let _writer = self
            .writer
            .lock()
            .expect("HTM writer lock poisoned: a writer panicked mid-write");
        // The lock orders this load after the last writer's store.
        let wv = self.clock.load(Ordering::Relaxed) + 1;
        let wrote = write(wv);
        if wrote {
            self.clock.store(wv, Ordering::Release);
        }
        wrote
    }

    /// Stamps `stripes` with the version `wv` ahead of a writer's heap
    /// writes. The release fence pairs with `tx_read`'s acquire fence: a
    /// reader whose data read sees one of those writes sees the stamp too.
    /// Stamping a stripe twice is harmless.
    fn stamp(&self, stripes: impl IntoIterator<Item = u32>, wv: u64) {
        for s in stripes {
            self.stripes.stamp(s, wv);
        }
        fence(Ordering::Release);
    }

    // ------------------------------------------------------------------
    // Non-transactional interface.
    // ------------------------------------------------------------------

    /// Non-transactional store that **dooms** every in-flight transaction
    /// holding the line in its read set (advances the stripe version).
    pub fn nontx_write(&self, cpu: &mut Cpu, addr: Addr, off: u64, value: Word) {
        self.write_locked(|wv| {
            self.stamp([self.stripes.index_of(addr, off)], wv);
            self.heap.store(cpu, addr, off, value);
            true
        });
    }

    /// Non-transactional compare-and-swap that dooms transactional readers
    /// of the line on success (the slow path's CAS; see `SLOW_WRITE` in the
    /// paper's Algorithm 5, which funnels writes through the reference-set
    /// protocol and still conflicts with speculative readers). A losing
    /// CAS writes nothing and dooms no one, but is charged like a winning
    /// one.
    pub fn nontx_cas(
        &self,
        cpu: &mut Cpu,
        addr: Addr,
        off: u64,
        expected: Word,
        new: Word,
    ) -> Result<Word, Word> {
        let mut result = Err(expected);
        self.write_locked(|wv| {
            if self.heap.peek(addr, off) == expected {
                self.stamp([self.stripes.index_of(addr, off)], wv);
            }
            result = self.heap.cas(cpu, addr, off, expected, new);
            result.is_ok()
        });
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
        // The stamps must precede the poison `Heap::free` writes, so the
        // lines to stamp come from a `block_len` call of their own.
        let block = self
            .heap
            .block_len(addr)
            .unwrap_or_else(|| panic!("free_object of unknown address {addr:?}"));
        // One stripe per *line*, not per word: consecutive words share a
        // line, so walking line numbers does 1/8th the hashing.
        let lines = addr.line()..=addr.offset(block.saturating_sub(1)).line();
        self.write_locked(|wv| {
            self.stamp(lines.map(|line| self.stripes.index_of_line(line)), wv);
            self.heap.free(cpu, addr);
            true
        });
    }

    /// Issues a full fence (cost only; ordering is virtual).
    pub fn fence(&self, cpu: &mut Cpu) {
        self.heap.fence(cpu);
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
        // A third transaction reads the line the reader is about to write.
        let b = e.heap().alloc(&mut cpus[0], 1).unwrap();
        let mut btx = e.begin(&mut cpus[2]);
        assert_eq!(e.tx_read(&mut cpus[2], &mut btx, b, 0), Ok(0));
        // Reader writes something (becomes a write tx) and must fail
        // commit-time validation.
        let c = &mut cpus[0];
        e.tx_write(c, &mut rtx, b, 0, 9).unwrap();
        let err = e.commit(c, &mut rtx).unwrap_err();
        assert_eq!(err.cause(), AbortCause::Conflict);
        assert_eq!(e.heap().peek(b, 0), 0, "aborted writes must not leak");
        // The failed commit stamped nothing, so the third transaction still
        // reads `b`, and it commits even when a later write to another line
        // (the last word of a two-line block) makes its commit validate the
        // read set.
        let c = &mut cpus[2];
        assert_eq!(e.tx_read(c, &mut btx, b, 0), Ok(0));
        let d = e.heap().alloc(c, 16).unwrap();
        e.nontx_write(&mut cpus[3], d, 15, 1);
        let c = &mut cpus[2];
        e.tx_write(c, &mut btx, d, 15, 2).unwrap();
        e.commit(c, &mut btx).unwrap();
        assert_eq!(e.heap().peek(d, 15), 2);
    }

    #[test]
    fn eager_validation_gives_opacity() {
        // A store or a winning CAS dooms the reader; a losing CAS writes
        // nothing and dooms no one.
        for cas in [false, true] {
            let (e, mut cpus) = setup();
            let a = e.heap().alloc(&mut cpus[0], 8).unwrap();
            let mut rtx = e.begin(&mut cpus[0]);
            e.tx_read(&mut cpus[0], &mut rtx, a, 0).unwrap();
            if cas {
                assert_eq!(e.nontx_cas(&mut cpus[1], a, 7, 1, 5), Err(0));
                assert_eq!(
                    e.tx_read(&mut cpus[0], &mut rtx, a, 7),
                    Ok(0),
                    "a losing CAS dooms no reader"
                );
                assert_eq!(e.nontx_cas(&mut cpus[1], a, 7, 0, 5), Ok(0));
            } else {
                e.nontx_write(&mut cpus[1], a, 7, 5);
            }
            // Reading any word whose stripe advanced past rv aborts
            // immediately, before the stale mix is observable.
            let err = e.tx_read(&mut cpus[0], &mut rtx, a, 7).unwrap_err();
            assert_eq!(err.cause(), AbortCause::Conflict);
        }
    }

    #[test]
    fn free_object_dooms_transactional_reader() {
        let (e, mut cpus) = setup();
        // Word 0 of a one-line block, and the last word of a 32-word block,
        // which spans four lines: the free stamps every one of them.
        for (words, off) in [(4, 0), (32, 31)] {
            let a = e.heap().alloc(&mut cpus[0], words).unwrap();
            let mut rtx = e.begin(&mut cpus[1]);
            e.tx_read(&mut cpus[1], &mut rtx, a, off).unwrap();
            e.free_object(&mut cpus[0], a);
            // Writing elsewhere then committing must fail read validation.
            let c = &mut cpus[1];
            let b = e.heap().alloc(c, 1).unwrap();
            e.tx_write(c, &mut rtx, b, 0, 1).unwrap();
            assert_eq!(
                e.commit(c, &mut rtx).unwrap_err().cause(),
                AbortCause::Conflict
            );
            assert!(!e.heap().is_live(a));
        }
    }

    #[test]
    fn capacity_abort_on_budget_overflow() {
        let heap = Arc::new(Heap::new(HeapConfig {
            capacity_words: 1 << 18,
        }));
        let e = HtmEngine::new(heap, HtmConfig::default(), 1);
        let mut c = Cpu::standalone(0, 5);
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
        let mut c = Cpu::standalone(0, 5);
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
        assert_eq!(e.heap().load(c, a, 0), 123);
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
