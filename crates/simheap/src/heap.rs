//! The heap façade: words + allocator + traffic + poison.

use crate::addr::{Addr, Word};
use crate::alloc::{AllocError, AllocStats, Allocator};
use crate::traffic::Traffic;
use st_machine::Cpu;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Pattern written to freed words; reading it back from a committed
/// operation is a use-after-free and fails tests loudly.
pub const POISON: Word = 0xDEAD_BEEF_DEAD_BEE8;

/// What the use-after-free oracle caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UafKind {
    /// A timed load from a freed block.
    Read,
    /// A timed store into a freed block.
    Write,
    /// A timed CAS/fetch-add on a freed block.
    Cas,
    /// A freed block was handed out again while a registered protection
    /// root still referenced it (the ABA re-exposure window).
    Reexposure,
}

impl std::fmt::Display for UafKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            UafKind::Read => "read-after-free",
            UafKind::Write => "write-after-free",
            UafKind::Cas => "cas-after-free",
            UafKind::Reexposure => "aba-reexposure",
        })
    }
}

/// One recorded memory-safety violation.
///
/// Recording does not stop the simulation — execution proceeds (and may
/// later panic on poison) so a checker can collect every violation of a
/// schedule and attribute it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UafViolation {
    /// Violation class.
    pub kind: UafKind,
    /// Simulated thread that performed the access (for
    /// [`UafKind::Reexposure`], the thread whose allocation recycled the
    /// block).
    pub thread: usize,
    /// Base address of the affected block.
    pub base: Addr,
    /// Raw address of the offending word: the accessed word, or for
    /// re-exposure the root word still holding the reference.
    pub raw: u64,
}

impl std::fmt::Display for UafViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            UafKind::Reexposure => write!(
                f,
                "{}: thread {} re-allocated block {:?} while root word {:#x} still references it",
                self.kind, self.thread, self.base, self.raw
            ),
            _ => write!(
                f,
                "{}: thread {} touched word {:#x} of freed block {:?}",
                self.kind, self.thread, self.raw, self.base
            ),
        }
    }
}

/// What the heap-ledger oracle caught (see `docs/AUDIT.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerKind {
    /// The same block was retired twice without an intervening free —
    /// downstream this becomes a double free once both retirements drain.
    DoubleRetire,
    /// The block was freed while the ledger already recorded it freed.
    /// The heap absorbs the second free, so it never reaches the
    /// allocator's free lists and the attribution survives.
    DoubleFree,
    /// The block was freed through the retire-aware path without ever
    /// being retired — a scheme bypassed its own deferral pipeline.
    FreeBeforeRetire,
    /// At teardown the block was still retired-but-not-freed (reported by
    /// [`Heap::ledger_leaks`], with the retiring thread and cycle).
    Leak,
}

impl std::fmt::Display for LedgerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LedgerKind::DoubleRetire => "double-retire",
            LedgerKind::DoubleFree => "double-free",
            LedgerKind::FreeBeforeRetire => "free-before-retire",
            LedgerKind::Leak => "leak-at-teardown",
        })
    }
}

/// One recorded lifecycle violation. Like [`UafViolation`], recording does
/// not stop the simulation; a harness collects and attributes afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerViolation {
    /// Violation class.
    pub kind: LedgerKind,
    /// Simulated thread that performed the offending (or for
    /// [`LedgerKind::Leak`], the original retiring) event.
    pub thread: usize,
    /// Base address of the affected block.
    pub base: Addr,
    /// Virtual cycle of the offending event (for leaks, of the retire).
    pub cycle: u64,
}

impl std::fmt::Display for LedgerViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: block {:?}, thread {}, cycle {}",
            self.kind, self.base, self.thread, self.cycle
        )
    }
}

/// Lifecycle position of one tracked block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    Live,
    Retired { thread: usize, cycle: u64 },
    Freed,
}

/// Ledger event counters for metrics snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Retire events observed since the oracles were armed.
    pub retire_events: u64,
    /// Free events observed since the oracles were armed.
    pub free_events: u64,
}

/// The allocator and every oracle record, behind the heap's one lock.
#[derive(Debug)]
struct State {
    allocator: Allocator,
    /// Protection roots of the re-exposure check: `(base, words)`.
    roots: Vec<(Addr, u64)>,
    uaf: Vec<UafViolation>,
    /// The ledger: each tracked block's lifecycle position, by raw base.
    blocks: BTreeMap<u64, BlockState>,
    ledger: Vec<LedgerViolation>,
    events: LedgerStats,
}

impl State {
    /// Records a free in the ledger. Returns `true` for a double free of
    /// a tracked block, which the caller must absorb: the block is already
    /// on a free list (or re-issued to someone else), and the oracle's
    /// contract is to report the defect, not to let it corrupt the
    /// allocator. `expect_retired` is false on the unpublished-rollback
    /// path ([`Heap::free_unpublished`]).
    fn ledger_free(&mut self, thread: usize, cycle: u64, addr: Addr, expect_retired: bool) -> bool {
        self.events.free_events += 1;
        // `Freed` over `Freed` changes nothing, so an absorbed double free
        // leaves the entry as it was.
        let kind = match self.blocks.insert(addr.raw(), BlockState::Freed) {
            Some(BlockState::Freed) => LedgerKind::DoubleFree,
            Some(BlockState::Live) if expect_retired => LedgerKind::FreeBeforeRetire,
            // Retired, rolled back unpublished, or untracked (allocated
            // before the oracles were armed).
            _ => return false,
        };
        self.ledger.push(LedgerViolation {
            kind,
            thread,
            base: addr,
            cycle,
        });
        kind == LedgerKind::DoubleFree
    }
}

/// Slots in the cache-line traffic table.
const TRAFFIC_SLOTS: usize = 1 << 14;

/// Heap sizing.
#[derive(Debug, Clone)]
pub struct HeapConfig {
    /// Total heap capacity in 64-bit words.
    pub capacity_words: u64,
}

impl Default for HeapConfig {
    fn default() -> Self {
        Self {
            capacity_words: 1 << 22,
        }
    }
}

impl HeapConfig {
    /// A small heap for unit tests.
    pub fn small() -> Self {
        Self {
            capacity_words: 1 << 14,
        }
    }
}

/// Snapshot of heap statistics.
#[derive(Debug, Clone, Default)]
pub struct HeapStats {
    /// Allocator statistics.
    pub alloc: AllocStats,
}

/// The simulated heap.
///
/// Word storage is a fixed slab of `AtomicU64` taken from zeroed pages
/// ([`crate::zeroed_words`]), so a run pays only for the words it touches.
/// Atomics make the heap `Sync` so it can also be exercised by real OS
/// threads in stress tests, even though the discrete-event simulator only
/// ever runs one at a time.
/// All orderings are `Relaxed` on purpose: *simulated* memory-model effects
/// (fences, coherence misses) are charged as virtual cycles by the cost
/// model, not delegated to the host's memory model.
#[derive(Debug)]
pub struct Heap {
    words: Box<[AtomicU64]>,
    traffic: Traffic,
    config: HeapConfig,
    /// Whether the oracles are armed ([`Heap::arm_oracles`]). Accesses
    /// test it before taking any lock, so unarmed oracles cost them one
    /// relaxed load.
    armed: AtomicBool,
    /// Taken only through `Heap::state`.
    state: Mutex<State>,
}

impl Heap {
    /// Creates a heap per `config`.
    pub fn new(config: HeapConfig) -> Self {
        let len = usize::try_from(config.capacity_words).expect("heap capacity fits in memory");
        Self {
            words: crate::zeroed_words(len),
            traffic: Traffic::new(TRAFFIC_SLOTS),
            armed: AtomicBool::new(false),
            state: Mutex::new(State {
                allocator: Allocator::new(config.capacity_words),
                roots: Vec::new(),
                uaf: Vec::new(),
                blocks: BTreeMap::new(),
                ledger: Vec::new(),
                events: LedgerStats::default(),
            }),
            config,
        }
    }

    /// The allocator and the oracle records. Every panic the heap raises
    /// under this lock (an unknown or double free) fires before the
    /// allocator changes, so a lock poisoned by one still guards
    /// consistent records: a checker reads them after a schedule that
    /// panicked.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    fn cell(&self, addr: Addr, off: u64) -> &AtomicU64 {
        let idx = addr.index() + off;
        assert!(
            idx > 0 && idx < self.config.capacity_words,
            "address {addr:?}+{off} outside the heap"
        );
        &self.words[idx as usize]
    }

    // ------------------------------------------------------------------
    // Timed accessors: charge virtual cycles to the running thread.
    // ------------------------------------------------------------------

    /// Plain load of `addr + off` (charges load cost + coherence traffic).
    pub fn load(&self, cpu: &mut Cpu, addr: Addr, off: u64) -> Word {
        let line = addr.offset(off).line();
        cpu.charge_mem(line);
        let extra = self.traffic.on_read(&cpu.costs, line, cpu.hw.id, cpu.now());
        cpu.charge(cpu.costs.load + extra);
        cpu.counters.loads += 1;
        self.uaf_check(cpu.thread_id, UafKind::Read, addr, off);
        self.cell(addr, off).load(Ordering::Relaxed)
    }

    /// Plain store to `addr + off` (charges store cost + coherence traffic).
    pub fn store(&self, cpu: &mut Cpu, addr: Addr, off: u64, value: Word) {
        let line = addr.offset(off).line();
        cpu.charge_mem(line);
        let extra = self
            .traffic
            .on_write(&cpu.costs, line, cpu.hw.id, cpu.now());
        cpu.charge(cpu.costs.store + extra);
        cpu.counters.stores += 1;
        self.uaf_check(cpu.thread_id, UafKind::Write, addr, off);
        self.cell(addr, off).store(value, Ordering::Relaxed);
    }

    /// Compare-and-swap on `addr + off`; returns the previous value on
    /// success, or `Err(actual)` on failure. Contended lines cost more.
    pub fn cas(
        &self,
        cpu: &mut Cpu,
        addr: Addr,
        off: u64,
        expected: Word,
        new: Word,
    ) -> Result<Word, Word> {
        let line = addr.offset(off).line();
        cpu.charge_mem(line);
        let extra = self
            .traffic
            .on_write(&cpu.costs, line, cpu.hw.id, cpu.now());
        cpu.charge(cpu.costs.cas + extra);
        cpu.counters.cas_ops += 1;
        self.uaf_check(cpu.thread_id, UafKind::Cas, addr, off);
        self.cell(addr, off)
            .compare_exchange(expected, new, Ordering::Relaxed, Ordering::Relaxed)
    }

    /// A full memory fence: charges fence cost only (ordering is free in a
    /// serialized simulation).
    pub fn fence(&self, cpu: &mut Cpu) {
        cpu.charge(cpu.costs.fence);
        cpu.counters.fences += 1;
    }

    /// Atomic fetch-and-add on `addr + off`; returns the previous value.
    ///
    /// Charged like a CAS (it is one on most hardware).
    pub fn fetch_add(&self, cpu: &mut Cpu, addr: Addr, off: u64, delta: Word) -> Word {
        let line = addr.offset(off).line();
        cpu.charge_mem(line);
        let extra = self
            .traffic
            .on_write(&cpu.costs, line, cpu.hw.id, cpu.now());
        cpu.charge(cpu.costs.cas + extra);
        cpu.counters.cas_ops += 1;
        self.uaf_check(cpu.thread_id, UafKind::Cas, addr, off);
        self.cell(addr, off).fetch_add(delta, Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Untimed accessors: for scanners and assertions that account their
    // costs in bulk, and for tests.
    // ------------------------------------------------------------------

    /// Reads a word without charging time.
    pub fn peek(&self, addr: Addr, off: u64) -> Word {
        self.cell(addr, off).load(Ordering::Relaxed)
    }

    /// Writes a word without charging time (test/bootstrap use).
    pub fn poke(&self, addr: Addr, off: u64, value: Word) {
        self.cell(addr, off).store(value, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Allocation.
    // ------------------------------------------------------------------

    /// Allocates `words` zeroed words.
    pub fn alloc(&self, cpu: &mut Cpu, words: usize) -> Result<Addr, AllocError> {
        cpu.charge(cpu.costs.alloc);
        self.carve(words, Some(cpu.thread_id))
    }

    /// Allocates `words` zeroed words without charging virtual time.
    ///
    /// For bootstrap only (building thread contexts and initial data
    /// structure population before the measured run starts).
    pub fn alloc_untimed(&self, words: usize) -> Result<Addr, AllocError> {
        self.carve(words, None)
    }

    /// Takes a block from the allocator and zeroes it if it was recycled.
    /// A block fresh from the bump pointer is already zero: the slab
    /// arrives zeroed and nothing writes above the bump, so its pages stay
    /// untouched until the program uses them. With the oracles armed, a
    /// timed allocation (by `thread`) also records every protection root
    /// that still references the block (ABA re-exposure), and the ledger
    /// starts the block's lifetime, superseding any record of the
    /// address's previous one.
    fn carve(&self, words: usize, thread: Option<usize>) -> Result<Addr, AllocError> {
        let mut guard = self.state();
        let state = &mut *guard;
        let block = state.allocator.alloc(words)?;
        if block.recycled {
            for off in 0..block.words {
                self.cell(block.addr, off).store(0, Ordering::Relaxed);
            }
        }
        if self.armed() {
            if let Some(thread) = thread {
                let (lo, hi) = (block.addr.raw(), block.addr.offset(block.words).raw());
                for &(root, len) in &state.roots {
                    for off in 0..len {
                        let stripped = self.peek(root, off) & !crate::tagged::TAG_MASK;
                        if (lo..hi).contains(&stripped) {
                            state.uaf.push(UafViolation {
                                kind: UafKind::Reexposure,
                                thread,
                                base: block.addr,
                                raw: root.offset(off).raw(),
                            });
                        }
                    }
                }
            }
            state.blocks.insert(block.addr.raw(), BlockState::Live);
        }
        Ok(block.addr)
    }

    /// Frees the block based at `addr` and poisons it.
    ///
    /// Callers that interact with transactional readers free through the
    /// HTM engine's `free_object`, which stamps the block's lines through
    /// [`Heap::free_with`] before the poison, so that in-flight
    /// transactions observing the block are doomed; this raw free is the
    /// allocator-level step.
    ///
    /// # Panics
    ///
    /// Panics on a never-allocated address, and on double free when the
    /// oracles are not armed. With the lifecycle ledger armed a double
    /// free of a tracked block is *recorded and absorbed* instead: the
    /// audit oracle's job is to report the defect with attribution, and
    /// re-freeing would corrupt the allocator's free lists before the
    /// report could be read.
    pub fn free(&self, cpu: &mut Cpu, addr: Addr) {
        self.free_block(cpu, addr, true, |_| {});
    }

    /// [`Heap::free`] with a hook: `before_poison(words)` runs once the
    /// block's length is known and before its first poison store, even on
    /// a double free the ledger absorbs. It runs under the heap's lock, so
    /// it must not call back into the heap.
    pub fn free_with(&self, cpu: &mut Cpu, addr: Addr, before_poison: impl FnOnce(u64)) {
        self.free_block(cpu, addr, true, before_poison);
    }

    /// Frees a block that was never published to other threads (e.g. an
    /// allocation rolled back by an aborted segment).
    ///
    /// Identical to [`Heap::free`] except that the lifecycle ledger does
    /// not require a prior retire: unpublished blocks are reclaimed
    /// directly by their allocating thread, which is the one legitimate
    /// free-without-retire path.
    pub fn free_unpublished(&self, cpu: &mut Cpu, addr: Addr) {
        self.free_block(cpu, addr, false, |_| {});
    }

    /// Every free, under one acquisition of the lock. `expect_retired`
    /// is false only for [`Heap::free_unpublished`].
    fn free_block(
        &self,
        cpu: &mut Cpu,
        addr: Addr,
        expect_retired: bool,
        before_poison: impl FnOnce(u64),
    ) {
        let mut state = self.state();
        let words = state
            .allocator
            .block_len(addr)
            .unwrap_or_else(|| panic!("free of unknown address {addr:?}"));
        before_poison(words);
        if self.armed() && state.ledger_free(cpu.thread_id, cpu.now(), addr, expect_retired) {
            return;
        }
        cpu.charge(cpu.costs.free);
        // Poison under the lock: once the block is on its free list another
        // OS thread may take it, and must find it zeroed, not poisoned.
        for off in 0..words {
            self.cell(addr, off).store(POISON, Ordering::Relaxed);
        }
        state.allocator.free(addr);
    }

    // ------------------------------------------------------------------
    // Oracles: use-after-free and the lifecycle ledger (allocated →
    // retired → freed).
    // ------------------------------------------------------------------

    /// Arms the use-after-free oracle and the lifecycle ledger, with
    /// `roots` as the re-exposure check's protection roots. The oracles
    /// stay armed for the heap's lifetime, and recording never stops the
    /// run.
    ///
    /// - Every *timed* access (the accesses simulated programs make) to a
    ///   word inside a freed block records a [`UafViolation`]. Untimed
    ///   `peek`/`poke` are exempt: they model test and scanner
    ///   introspection, not program reads.
    /// - Every timed allocation records each root word that still
    ///   references the recycled block (ABA re-exposure). A root
    ///   `(base, words)` is `words` heap words at `base` holding published
    ///   (possibly tag-marked) pointers. Only precise publication regions
    ///   belong here — words that always reference currently-protected
    ///   objects, like the hazard-slot matrix. Conservative regions
    ///   (StackTrack's committed shadow frames, which legitimately hold
    ///   stale values) would produce false positives.
    /// - Every allocation registers its block as live, every retire
    ///   reported via [`Heap::note_retire`] moves it to retired, and every
    ///   free moves it to freed, recording a [`LedgerViolation`] on any
    ///   out-of-order transition (double retire, double free, free before
    ///   retire). Blocks allocated before arming are untracked and exempt,
    ///   so arming *before* building structures and thread contexts gives
    ///   full coverage.
    pub fn arm_oracles(&self, roots: &[(Addr, u64)]) {
        self.state().roots.extend_from_slice(roots);
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Use-after-free violations recorded since the oracles were armed.
    pub fn uaf_violations(&self) -> Vec<UafViolation> {
        self.state().uaf.clone()
    }

    /// Oracle hook for *validated speculative* reads (the HTM engine's
    /// transactional loads, which go through `peek` plus version
    /// validation rather than [`Heap::load`]).
    ///
    /// A speculative read that passes validation yet lands in a freed
    /// block belongs to a transaction that *began after* the free —
    /// in-flight readers at free time are doomed by the version bump and
    /// never return data — so it is a genuine use-after-free, not HTM
    /// speculation that will be discarded.
    #[inline]
    pub fn note_speculative_read(&self, thread: usize, addr: Addr, off: u64) {
        self.uaf_check(thread, UafKind::Read, addr, off);
    }

    /// Records a violation if `addr + off` lies inside a freed block.
    #[inline]
    fn uaf_check(&self, thread: usize, kind: UafKind, addr: Addr, off: u64) {
        if self.armed() {
            self.uaf_check_armed(thread, kind, addr, off);
        }
    }

    #[cold]
    #[inline(never)]
    fn uaf_check_armed(&self, thread: usize, kind: UafKind, addr: Addr, off: u64) {
        let raw = addr.offset(off).raw();
        let mut state = self.state();
        if let Some((base, info)) = state.allocator.object_at(raw) {
            if !info.live {
                state.uaf.push(UafViolation {
                    kind,
                    thread,
                    base,
                    raw,
                });
            }
        }
    }

    /// Reports that `thread` retired the block based at `addr` at virtual
    /// cycle `cycle`. Reclamation schemes call this where they accept a
    /// block into their deferral pipeline (limbo list, hazard retire list,
    /// free set, ...). A retire of an already-retired or already-freed
    /// block records [`LedgerKind::DoubleRetire`].
    #[inline]
    pub fn note_retire(&self, thread: usize, cycle: u64, addr: Addr) {
        if self.armed() {
            self.note_retire_armed(thread, cycle, addr);
        }
    }

    #[cold]
    #[inline(never)]
    fn note_retire_armed(&self, thread: usize, cycle: u64, addr: Addr) {
        let mut state = self.state();
        state.events.retire_events += 1;
        match state.blocks.get(&addr.raw()) {
            Some(BlockState::Retired { .. }) | Some(BlockState::Freed) => {
                state.ledger.push(LedgerViolation {
                    kind: LedgerKind::DoubleRetire,
                    thread,
                    base: addr,
                    cycle,
                });
            }
            // Untracked blocks (allocated before the oracles were armed)
            // join the pipeline at their first observed event.
            Some(BlockState::Live) | None => {
                state
                    .blocks
                    .insert(addr.raw(), BlockState::Retired { thread, cycle });
            }
        }
    }

    /// Lifecycle violations recorded since the oracles were armed
    /// (excluding leaks, which only exist relative to a teardown point —
    /// see [`Heap::ledger_leaks`]).
    pub fn ledger_violations(&self) -> Vec<LedgerViolation> {
        self.state().ledger.clone()
    }

    /// Blocks currently retired but never freed, as [`LedgerKind::Leak`]
    /// violations attributed to the retiring thread and cycle.
    ///
    /// Only meaningful after teardown of a scheme that promises to drain
    /// its deferral pipeline; a truncated or faulted run legitimately
    /// holds retired blocks, so the caller decides when to ask.
    pub fn ledger_leaks(&self) -> Vec<LedgerViolation> {
        self.state()
            .blocks
            .iter()
            .filter_map(|(&raw, state)| match state {
                BlockState::Retired { thread, cycle } => Some(LedgerViolation {
                    kind: LedgerKind::Leak,
                    thread: *thread,
                    base: Addr::from_raw(raw),
                    cycle: *cycle,
                }),
                _ => None,
            })
            .collect()
    }

    /// Ledger event counters (for `audit.*` metrics snapshots).
    pub fn ledger_stats(&self) -> LedgerStats {
        self.state().events
    }

    // ------------------------------------------------------------------
    // Introspection (the paper's malloc-hook range queries, plus test
    // support).
    // ------------------------------------------------------------------

    /// Resolves a raw scanned word to the base of the live object it points
    /// into, if any (section 5.5 interior-pointer support).
    pub fn object_base(&self, raw: Word) -> Option<Addr> {
        self.state()
            .allocator
            .object_at(raw)
            .and_then(|(base, info)| info.live.then_some(base))
    }

    /// Whether `addr` is the base of a live object.
    pub fn is_live(&self, addr: Addr) -> bool {
        self.state().allocator.is_live(addr)
    }

    /// Whether the word at `addr + off` currently holds poison.
    pub fn is_poisoned(&self, addr: Addr, off: u64) -> bool {
        self.peek(addr, off) == POISON
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            alloc: self.state().allocator.stats(),
        }
    }

    /// Heap capacity in words.
    pub fn capacity_words(&self) -> u64 {
        self.config.capacity_words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_machine::{cpu::ActivityBoard, CostModel, HwContext, Topology};
    use std::sync::Arc;

    fn cpu() -> Cpu {
        Cpu::standalone(0, 7)
    }

    #[test]
    fn fresh_allocations_are_zeroed() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        let a = heap.alloc(&mut c, 4).unwrap();
        for off in 0..4 {
            assert_eq!(heap.load(&mut c, a, off), 0);
        }
    }

    #[test]
    fn recycled_allocations_are_zeroed() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        let a = heap.alloc(&mut c, 4).unwrap();
        for off in 0..4 {
            assert_eq!(heap.load(&mut c, a, off), 0, "fresh memory must be zeroed");
            heap.store(&mut c, a, off, 99 + off);
        }
        heap.free(&mut c, a);
        let b = heap.alloc(&mut c, 4).unwrap();
        assert_eq!(b, a, "type-stable recycle");
        for off in 0..4 {
            assert_eq!(
                heap.load(&mut c, b, off),
                0,
                "recycled memory must be zeroed"
            );
        }
    }

    #[test]
    fn store_load_roundtrip_charges_time() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        let a = heap.alloc(&mut c, 2).unwrap();
        let before = c.now();
        heap.store(&mut c, a, 1, 0xABCD);
        assert_eq!(heap.load(&mut c, a, 1), 0xABCD);
        assert!(c.now() > before);
        assert_eq!(c.counters.stores, 1);
        assert_eq!(c.counters.loads, 1);
    }

    #[test]
    fn cas_success_and_failure() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        let a = heap.alloc(&mut c, 1).unwrap();
        heap.store(&mut c, a, 0, 5);
        assert_eq!(heap.cas(&mut c, a, 0, 5, 6), Ok(5));
        assert_eq!(heap.cas(&mut c, a, 0, 5, 7), Err(6));
        assert_eq!(heap.peek(a, 0), 6);
    }

    #[test]
    fn free_poisons() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        let a = heap.alloc(&mut c, 3).unwrap();
        heap.store(&mut c, a, 0, 1);
        heap.free(&mut c, a);
        assert!(heap.is_poisoned(a, 0));
        assert!(
            heap.is_poisoned(a, 3),
            "whole block (class-rounded) poisoned"
        );
        assert!(!heap.is_live(a));
    }

    #[test]
    fn object_base_only_for_live_objects() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        let a = heap.alloc(&mut c, 6).unwrap();
        assert_eq!(heap.object_base(a.offset(4).raw()), Some(a));
        heap.free(&mut c, a);
        assert_eq!(heap.object_base(a.offset(4).raw()), None);
    }

    #[test]
    #[should_panic(expected = "outside the heap")]
    fn out_of_bounds_access_panics() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        let top = heap.capacity_words();
        heap.load(&mut c, Addr::from_index(top), 0);
    }

    #[test]
    #[should_panic(expected = "outside the heap")]
    fn null_access_panics() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        heap.load(&mut c, Addr::from_index(0), 0);
    }

    #[test]
    fn uaf_oracle_records_access_to_freed_block() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        heap.arm_oracles(&[]);
        let a = heap.alloc(&mut c, 2).unwrap();
        heap.free(&mut c, a);
        heap.load(&mut c, a, 1);
        heap.store(&mut c, a, 0, 9);
        let _ = heap.cas(&mut c, a, 0, 9, 10);
        let v = heap.uaf_violations();
        assert_eq!(
            v.iter().map(|x| x.kind).collect::<Vec<_>>(),
            vec![UafKind::Read, UafKind::Write, UafKind::Cas]
        );
        assert!(v.iter().all(|x| x.base == a && x.thread == 0));
        // The same call armed the ledger, which saw the un-retired free.
        let l = heap.ledger_violations();
        assert_eq!(l.len(), 1);
        assert_eq!((l[0].kind, l[0].base), (LedgerKind::FreeBeforeRetire, a));
    }

    #[test]
    fn a_panic_under_the_heap_lock_leaves_the_records_readable() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        heap.arm_oracles(&[]);
        let a = heap.alloc(&mut c, 2).unwrap();
        heap.free(&mut c, a);
        heap.load(&mut c, a, 0);
        // The unknown-address panic fires while the free holds the lock.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            heap.free(&mut c, Addr::from_raw(POISON));
        }));
        assert!(panicked.is_err(), "a free of poison is a free of nothing");
        let uaf = heap.uaf_violations();
        assert_eq!(uaf.len(), 1);
        assert_eq!((uaf[0].kind, uaf[0].base), (UafKind::Read, a));
        let ledger = heap.ledger_violations();
        assert_eq!(ledger.len(), 1);
        assert_eq!(
            (ledger[0].kind, ledger[0].base),
            (LedgerKind::FreeBeforeRetire, a)
        );
        assert!(heap.ledger_leaks().is_empty());
    }

    #[test]
    fn uaf_oracle_is_silent_when_disabled_or_block_live() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        let a = heap.alloc(&mut c, 2).unwrap();
        heap.load(&mut c, a, 0); // live: fine
        heap.free(&mut c, a);
        heap.load(&mut c, a, 0); // oracle off: unrecorded
        assert!(heap.uaf_violations().is_empty());
    }

    #[test]
    fn uaf_oracle_flags_reexposure_through_a_root() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        // A one-word "hazard slot" region still holding a (tagged) pointer
        // to the block when the allocator recycles it.
        let slot = heap.alloc(&mut c, 1).unwrap();
        heap.arm_oracles(&[(slot, 1)]);
        let a = heap.alloc(&mut c, 2).unwrap();
        heap.store(&mut c, slot, 0, a.raw() | 1);
        heap.free(&mut c, a);
        let b = heap.alloc(&mut c, 2).unwrap();
        assert_eq!(b, a, "size-class free list recycles the block");
        let v = heap.uaf_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, UafKind::Reexposure);
        assert_eq!(v[0].base, a);
        assert_eq!(v[0].raw, slot.raw());
        // Clearing the slot before recycling is clean.
        heap.store(&mut c, slot, 0, 0);
        heap.free(&mut c, b);
        let _ = heap.alloc(&mut c, 2).unwrap();
        assert_eq!(heap.uaf_violations().len(), 1, "no new violation");
    }

    #[test]
    fn ledger_tracks_the_clean_lifecycle() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        heap.arm_oracles(&[]);
        let a = heap.alloc(&mut c, 2).unwrap();
        heap.note_retire(0, c.now(), a);
        heap.free(&mut c, a);
        assert!(heap.ledger_violations().is_empty());
        assert!(heap.ledger_leaks().is_empty());
        let stats = heap.ledger_stats();
        assert_eq!(stats.retire_events, 1);
        assert_eq!(stats.free_events, 1);
    }

    #[test]
    fn ledger_flags_double_retire() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        heap.arm_oracles(&[]);
        let a = heap.alloc(&mut c, 2).unwrap();
        heap.note_retire(0, 10, a);
        heap.note_retire(1, 20, a);
        let v = heap.ledger_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, LedgerKind::DoubleRetire);
        assert_eq!(v[0].thread, 1);
        assert_eq!(v[0].base, a);
        assert_eq!(v[0].cycle, 20);
    }

    #[test]
    fn ledger_flags_free_before_retire() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        heap.arm_oracles(&[]);
        let a = heap.alloc(&mut c, 2).unwrap();
        heap.free(&mut c, a);
        let v = heap.ledger_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, LedgerKind::FreeBeforeRetire);
    }

    #[test]
    fn ledger_exempts_unpublished_rollback_frees() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        heap.arm_oracles(&[]);
        let a = heap.alloc(&mut c, 2).unwrap();
        heap.free_unpublished(&mut c, a);
        assert!(heap.ledger_violations().is_empty());
    }

    #[test]
    fn ledger_records_and_absorbs_a_double_free() {
        let heap = Arc::new(Heap::new(HeapConfig::small()));
        let mut c = cpu();
        heap.arm_oracles(&[]);
        let a = heap.alloc(&mut c, 2).unwrap();
        heap.note_retire(0, c.now(), a);
        heap.free(&mut c, a);
        // With the ledger armed the second free is recorded with full
        // attribution and absorbed: it must not reach the allocator,
        // whose free lists already hold (or re-issued) the block.
        heap.free(&mut c, a);
        let v = heap.ledger_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, LedgerKind::DoubleFree);
        // The absorbed free did not double-insert into a free list: the
        // address can be reallocated and freed exactly once again.
        let b = heap.alloc(&mut c, 2).unwrap();
        assert_eq!(b, a, "small heap re-issues the freed block");
        heap.note_retire(0, c.now(), b);
        heap.free(&mut c, b);
        assert_eq!(heap.ledger_violations().len(), 1, "clean second lifetime");
    }

    #[test]
    fn allocator_still_panics_on_double_free_without_the_ledger() {
        let heap = Arc::new(Heap::new(HeapConfig::small()));
        let mut c = cpu();
        let a = heap.alloc(&mut c, 2).unwrap();
        heap.free(&mut c, a);
        let h = heap.clone();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut c2 = cpu();
            h.free(&mut c2, a);
        }));
        assert!(panicked.is_err(), "unledgered double free stays loud");
    }

    #[test]
    fn ledger_reports_retired_but_unfreed_blocks_as_leaks() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        heap.arm_oracles(&[]);
        let a = heap.alloc(&mut c, 2).unwrap();
        let b = heap.alloc(&mut c, 2).unwrap();
        heap.note_retire(1, 42, a);
        heap.note_retire(0, 43, b);
        heap.free(&mut c, b);
        // Live-but-unretired blocks are not leaks: nodes still reachable
        // in a structure at teardown are legitimately alive.
        heap.alloc(&mut c, 2).unwrap();
        let leaks = heap.ledger_leaks();
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].kind, LedgerKind::Leak);
        assert_eq!(leaks[0].base, a);
        assert_eq!(leaks[0].thread, 1);
        assert_eq!(leaks[0].cycle, 42);
    }

    #[test]
    fn ledger_is_silent_until_armed_and_exempts_prior_blocks() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        let a = heap.alloc(&mut c, 2).unwrap(); // untracked: pre-arming
        let b = heap.alloc(&mut c, 2).unwrap();
        heap.free(&mut c, b); // unarmed: unrecorded
        heap.arm_oracles(&[]);
        heap.free(&mut c, a); // no free-before-retire for untracked blocks
        assert!(heap.ledger_violations().is_empty());
        assert_eq!(heap.ledger_stats().free_events, 1);
    }

    #[test]
    fn ledger_recycled_block_starts_a_fresh_lifetime() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        heap.arm_oracles(&[]);
        let a = heap.alloc(&mut c, 2).unwrap();
        heap.note_retire(0, 1, a);
        heap.free(&mut c, a);
        let b = heap.alloc(&mut c, 2).unwrap();
        assert_eq!(b, a, "size-class free list recycles the block");
        heap.note_retire(0, 2, b);
        heap.free(&mut c, b);
        assert!(heap.ledger_violations().is_empty(), "no stale double-free");
    }

    #[test]
    fn coherence_miss_charged_on_foreign_line() {
        let heap = Heap::new(HeapConfig::small());
        let topo = Topology::haswell();
        let board = Arc::new(ActivityBoard::new(topo.hw_contexts()));
        let costs = Arc::new(CostModel::default());
        let mut c0 = Cpu::new(0, HwContext::new(&topo, 0), costs.clone(), board.clone(), 7);
        let mut c1 = Cpu::new(1, HwContext::new(&topo, 1), costs.clone(), board, 7);
        let a = heap.alloc(&mut c0, 1).unwrap();
        heap.store(&mut c0, a, 0, 1);
        c1.advance_to(c0.now()); // make the write "recent" for c1
        let before = c1.now();
        heap.load(&mut c1, a, 0);
        assert!(
            c1.now() - before >= costs.load + costs.coherence_miss,
            "foreign read of a hot line must cost a miss"
        );
    }
}
