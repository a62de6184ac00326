//! The heap façade: words + allocator + traffic + poison.

use crate::addr::{Addr, Word};
use crate::alloc::{AllocError, AllocStats, Allocator, Block};
use crate::traffic::Traffic;
use st_machine::Cpu;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

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

/// A protection region the re-exposure check scans on every timed
/// allocation: `words` heap words starting at `base`, holding published
/// (possibly tag-marked) pointers — e.g. the hazard-slot matrix.
#[derive(Debug, Clone, Copy)]
struct UafRoot {
    base: Addr,
    words: u64,
}

#[derive(Debug, Default)]
struct UafState {
    roots: Vec<UafRoot>,
    violations: Vec<UafViolation>,
}

/// What the heap-ledger oracle caught (see `docs/AUDIT.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerKind {
    /// The same block was retired twice without an intervening free —
    /// downstream this becomes a double free once both retirements drain.
    DoubleRetire,
    /// The block was freed while the ledger already recorded it freed.
    /// Recorded *before* the allocator's own double-free panic, so a
    /// harness that catches the panic still sees the attribution.
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

/// Aggregate ledger counters for metrics snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Blocks currently tracked as live.
    pub live: u64,
    /// Blocks currently tracked as retired (not yet freed).
    pub retired: u64,
    /// Blocks currently tracked as freed.
    pub freed: u64,
    /// Retire events observed since the ledger was enabled.
    pub retire_events: u64,
    /// Free events observed since the ledger was enabled.
    pub free_events: u64,
}

#[derive(Debug, Default)]
struct LedgerBook {
    blocks: BTreeMap<u64, BlockState>,
    violations: Vec<LedgerViolation>,
    retire_events: u64,
    free_events: u64,
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
    allocator: Mutex<Allocator>,
    traffic: Traffic,
    config: HeapConfig,
    /// Fast-path flag for the use-after-free oracle; checked before any
    /// locking so a disabled oracle costs one relaxed atomic load.
    uaf_enabled: AtomicBool,
    uaf: Mutex<UafState>,
    /// Fast-path flag for the lifecycle ledger, same discipline as
    /// `uaf_enabled`.
    ledger_enabled: AtomicBool,
    ledger: Mutex<LedgerBook>,
}

impl Heap {
    /// Creates a heap per `config`.
    pub fn new(config: HeapConfig) -> Self {
        let len = usize::try_from(config.capacity_words).expect("heap capacity fits in memory");
        Self {
            words: crate::zeroed_words(len),
            allocator: Mutex::new(Allocator::new(config.capacity_words)),
            traffic: Traffic::new(TRAFFIC_SLOTS),
            config,
            uaf_enabled: AtomicBool::new(false),
            uaf: Mutex::new(UafState::default()),
            ledger_enabled: AtomicBool::new(false),
            ledger: Mutex::new(LedgerBook::default()),
        }
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
        let block = self.carve(words)?;
        self.uaf_check_reexposure(cpu.thread_id, block.addr, block.words);
        self.ledger_on_alloc(block.addr);
        Ok(block.addr)
    }

    /// Allocates `words` zeroed words without charging virtual time.
    ///
    /// For bootstrap only (building thread contexts and initial data
    /// structure population before the measured run starts).
    pub fn alloc_untimed(&self, words: usize) -> Result<Addr, AllocError> {
        let block = self.carve(words)?;
        self.ledger_on_alloc(block.addr);
        Ok(block.addr)
    }

    /// Takes a block from the allocator and zeroes it if it was recycled.
    /// A block fresh from the bump pointer is already zero: the slab
    /// arrives zeroed and nothing writes above the bump, so its pages stay
    /// untouched until the program uses them.
    fn carve(&self, words: usize) -> Result<Block, AllocError> {
        let block = self
            .allocator
            .lock()
            .expect("allocator lock poisoned by a panicking free")
            .alloc(words)?;
        if block.recycled {
            for off in 0..block.words {
                self.cell(block.addr, off).store(0, Ordering::Relaxed);
            }
        }
        Ok(block)
    }

    /// Frees the block based at `addr`, poisoning it first if configured.
    ///
    /// Callers that interact with transactional readers must poison through
    /// the HTM engine (`privatize`) *before* calling this, so that in-flight
    /// transactions observing the block are doomed; this raw free is the
    /// allocator-level step.
    ///
    /// # Panics
    ///
    /// Panics on a never-allocated address, and on double free when the
    /// lifecycle ledger is disabled. With the ledger armed a double free
    /// of a tracked block is *recorded and absorbed* instead: the audit
    /// oracle's job is to report the defect with attribution, and
    /// re-freeing would corrupt the allocator's free lists before the
    /// report could be read.
    pub fn free(&self, cpu: &mut Cpu, addr: Addr) {
        if self.ledger_on_free(cpu.thread_id, cpu.now(), addr, true) {
            return;
        }
        self.free_inner(cpu, addr);
    }

    /// Frees a block that was never published to other threads (e.g. an
    /// allocation rolled back by an aborted segment).
    ///
    /// Identical to [`Heap::free`] except that the lifecycle ledger does
    /// not require a prior retire: unpublished blocks are reclaimed
    /// directly by their allocating thread, which is the one legitimate
    /// free-without-retire path.
    pub fn free_unpublished(&self, cpu: &mut Cpu, addr: Addr) {
        if self.ledger_on_free(cpu.thread_id, cpu.now(), addr, false) {
            return;
        }
        self.free_inner(cpu, addr);
    }

    fn free_inner(&self, cpu: &mut Cpu, addr: Addr) {
        cpu.charge(cpu.costs.free);
        // Poison under the lock: once the block is on its free list another
        // OS thread may take it, and must find it zeroed, not poisoned.
        let mut a = self
            .allocator
            .lock()
            .expect("allocator lock poisoned by a panicking free");
        let block = a
            .block_len(addr)
            .unwrap_or_else(|| panic!("free of unknown address {addr:?}"));
        for off in 0..block {
            self.cell(addr, off).store(POISON, Ordering::Relaxed);
        }
        a.free(addr);
    }

    // ------------------------------------------------------------------
    // Use-after-free oracle.
    // ------------------------------------------------------------------

    /// Enables or disables the use-after-free oracle.
    ///
    /// While enabled, every *timed* access (the accesses simulated
    /// programs make) to a word inside a freed block records a
    /// [`UafViolation`], and every timed allocation checks the registered
    /// protection roots for references into the recycled block (ABA
    /// re-exposure). Untimed `peek`/`poke` are exempt: they model test and
    /// scanner introspection, not program reads.
    pub fn set_uaf_oracle(&self, enabled: bool) {
        self.uaf_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Registers a protection-root region for the re-exposure check:
    /// `words` heap words at `base` holding published (possibly
    /// tag-marked) pointers. Only precise publication regions belong here
    /// — words that always reference currently-protected objects, like the
    /// hazard-slot matrix. Conservative regions (StackTrack's committed
    /// shadow frames, which legitimately hold stale values) would produce
    /// false positives.
    pub fn add_uaf_root(&self, base: Addr, words: u64) {
        self.uaf.lock().unwrap().roots.push(UafRoot { base, words });
    }

    /// Violations recorded since the oracle was enabled.
    pub fn uaf_violations(&self) -> Vec<UafViolation> {
        self.uaf.lock().unwrap().violations.clone()
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
        if self.uaf_enabled.load(Ordering::Relaxed) {
            self.uaf_check_armed(thread, kind, addr, off);
        }
    }

    #[cold]
    #[inline(never)]
    fn uaf_check_armed(&self, thread: usize, kind: UafKind, addr: Addr, off: u64) {
        let raw = addr.offset(off).raw();
        let freed_base = {
            let a = self.allocator.lock().unwrap();
            match a.object_at(raw) {
                Some((base, info)) if !info.live => Some(base),
                _ => None,
            }
        };
        if let Some(base) = freed_base {
            self.uaf.lock().unwrap().violations.push(UafViolation {
                kind,
                thread,
                base,
                raw,
            });
        }
    }

    /// Records a violation if any registered root still references the
    /// just-(re)allocated block `[addr, addr + block)`.
    #[inline]
    fn uaf_check_reexposure(&self, thread: usize, addr: Addr, block: u64) {
        if self.uaf_enabled.load(Ordering::Relaxed) {
            self.uaf_check_reexposure_armed(thread, addr, block);
        }
    }

    #[cold]
    #[inline(never)]
    fn uaf_check_reexposure_armed(&self, thread: usize, addr: Addr, block: u64) {
        let lo = addr.raw();
        let hi = addr.offset(block).raw();
        let mut state = self.uaf.lock().unwrap();
        let roots = state.roots.clone();
        for root in roots {
            for off in 0..root.words {
                let stripped = self.peek(root.base, off) & !crate::tagged::TAG_MASK;
                if stripped >= lo && stripped < hi {
                    state.violations.push(UafViolation {
                        kind: UafKind::Reexposure,
                        thread,
                        base: addr,
                        raw: root.base.offset(off).raw(),
                    });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Lifecycle ledger (allocated → retired → freed audit oracle).
    // ------------------------------------------------------------------

    /// Enables or disables the heap-ledger oracle.
    ///
    /// While enabled, every allocation registers its block as live, every
    /// retire reported via [`Heap::note_retire`] moves it to retired, and
    /// every [`Heap::free`] moves it to freed — recording a
    /// [`LedgerViolation`] on any out-of-order transition (double retire,
    /// double free, free before retire). Blocks allocated while the ledger
    /// was disabled are untracked and exempt, so enabling the oracle
    /// *before* building structures and thread contexts gives full
    /// coverage. Recording never stops the run.
    pub fn set_ledger_oracle(&self, enabled: bool) {
        self.ledger_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Reports that `thread` retired the block based at `addr` at virtual
    /// cycle `cycle`. Reclamation schemes call this where they accept a
    /// block into their deferral pipeline (limbo list, hazard retire list,
    /// free set, ...). A retire of an already-retired or already-freed
    /// block records [`LedgerKind::DoubleRetire`].
    #[inline]
    pub fn note_retire(&self, thread: usize, cycle: u64, addr: Addr) {
        if self.ledger_enabled.load(Ordering::Relaxed) {
            self.note_retire_armed(thread, cycle, addr);
        }
    }

    #[cold]
    #[inline(never)]
    fn note_retire_armed(&self, thread: usize, cycle: u64, addr: Addr) {
        let mut book = self.ledger.lock().unwrap();
        book.retire_events += 1;
        match book.blocks.get(&addr.raw()) {
            Some(BlockState::Retired { .. }) | Some(BlockState::Freed) => {
                book.violations.push(LedgerViolation {
                    kind: LedgerKind::DoubleRetire,
                    thread,
                    base: addr,
                    cycle,
                });
            }
            // Untracked blocks (allocated before the ledger was enabled)
            // join the pipeline at their first observed event.
            Some(BlockState::Live) | None => {
                book.blocks
                    .insert(addr.raw(), BlockState::Retired { thread, cycle });
            }
        }
    }

    /// Lifecycle violations recorded since the ledger was enabled
    /// (excluding leaks, which only exist relative to a teardown point —
    /// see [`Heap::ledger_leaks`]).
    pub fn ledger_violations(&self) -> Vec<LedgerViolation> {
        self.ledger.lock().unwrap().violations.clone()
    }

    /// Blocks currently retired but never freed, as [`LedgerKind::Leak`]
    /// violations attributed to the retiring thread and cycle.
    ///
    /// Only meaningful after teardown of a scheme that promises to drain
    /// its deferral pipeline; a truncated or faulted run legitimately
    /// holds retired blocks, so the caller decides when to ask.
    pub fn ledger_leaks(&self) -> Vec<LedgerViolation> {
        let book = self.ledger.lock().unwrap();
        book.blocks
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

    /// Aggregate ledger counters (for `audit.*` metrics snapshots).
    pub fn ledger_stats(&self) -> LedgerStats {
        let book = self.ledger.lock().unwrap();
        let mut stats = LedgerStats {
            retire_events: book.retire_events,
            free_events: book.free_events,
            ..LedgerStats::default()
        };
        for state in book.blocks.values() {
            match state {
                BlockState::Live => stats.live += 1,
                BlockState::Retired { .. } => stats.retired += 1,
                BlockState::Freed => stats.freed += 1,
            }
        }
        stats
    }

    /// Registers an allocation with the ledger (block becomes live,
    /// superseding any record of the address's previous lifetime).
    #[inline]
    fn ledger_on_alloc(&self, addr: Addr) {
        if self.ledger_enabled.load(Ordering::Relaxed) {
            self.ledger_on_alloc_armed(addr);
        }
    }

    #[cold]
    #[inline(never)]
    fn ledger_on_alloc_armed(&self, addr: Addr) {
        self.ledger
            .lock()
            .unwrap()
            .blocks
            .insert(addr.raw(), BlockState::Live);
    }

    /// Registers a free with the ledger. `expect_retired` distinguishes
    /// the normal reclamation path (retire must have happened) from the
    /// unpublished-rollback path ([`Heap::free_unpublished`]). Returns
    /// `true` when the free was a recorded double free, in which case the
    /// caller must *not* touch the allocator: the block is already on a
    /// free list (or reallocated to someone else), and the oracle's
    /// contract is to report the defect, not to let it corrupt the heap.
    #[inline]
    fn ledger_on_free(&self, thread: usize, cycle: u64, addr: Addr, expect_retired: bool) -> bool {
        self.ledger_enabled.load(Ordering::Relaxed)
            && self.ledger_on_free_armed(thread, cycle, addr, expect_retired)
    }

    #[cold]
    #[inline(never)]
    fn ledger_on_free_armed(
        &self,
        thread: usize,
        cycle: u64,
        addr: Addr,
        expect_retired: bool,
    ) -> bool {
        let mut book = self.ledger.lock().unwrap();
        book.free_events += 1;
        let kind = match book.blocks.get(&addr.raw()) {
            Some(BlockState::Freed) => Some(LedgerKind::DoubleFree),
            Some(BlockState::Live) if expect_retired => Some(LedgerKind::FreeBeforeRetire),
            // Untracked blocks are exempt (allocated before enabling).
            _ => None,
        };
        let absorbed = matches!(kind, Some(LedgerKind::DoubleFree));
        if let Some(kind) = kind {
            book.violations.push(LedgerViolation {
                kind,
                thread,
                base: addr,
                cycle,
            });
        }
        if !absorbed {
            book.blocks.insert(addr.raw(), BlockState::Freed);
        }
        absorbed
    }

    // ------------------------------------------------------------------
    // Introspection (the paper's malloc-hook range queries, plus test
    // support).
    // ------------------------------------------------------------------

    /// Resolves a raw scanned word to the base of the live object it points
    /// into, if any (section 5.5 interior-pointer support).
    pub fn object_base(&self, raw: Word) -> Option<Addr> {
        let a = self.allocator.lock().unwrap();
        a.object_at(raw)
            .and_then(|(base, info)| info.live.then_some(base))
    }

    /// Whether `addr` is the base of a live object.
    pub fn is_live(&self, addr: Addr) -> bool {
        self.allocator.lock().unwrap().is_live(addr)
    }

    /// Block length in words of the object at `addr`, if it was ever
    /// allocated.
    pub fn block_len(&self, addr: Addr) -> Option<u64> {
        self.allocator.lock().unwrap().block_len(addr)
    }

    /// Whether the word at `addr + off` currently holds poison.
    pub fn is_poisoned(&self, addr: Addr, off: u64) -> bool {
        self.peek(addr, off) == POISON
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            alloc: self.allocator.lock().unwrap().stats(),
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
        let topo = Topology::haswell();
        Cpu::new(
            0,
            HwContext::new(&topo, 0),
            Arc::new(CostModel::default()),
            Arc::new(ActivityBoard::new(topo.hw_contexts())),
            7,
        )
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
        heap.set_uaf_oracle(true);
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
        heap.set_uaf_oracle(true);
        // A one-word "hazard slot" region still holding a (tagged) pointer
        // to the block when the allocator recycles it.
        let slot = heap.alloc(&mut c, 1).unwrap();
        heap.add_uaf_root(slot, 1);
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
        heap.set_ledger_oracle(true);
        let a = heap.alloc(&mut c, 2).unwrap();
        heap.note_retire(0, c.now(), a);
        heap.free(&mut c, a);
        assert!(heap.ledger_violations().is_empty());
        assert!(heap.ledger_leaks().is_empty());
        let stats = heap.ledger_stats();
        assert_eq!(stats.retire_events, 1);
        assert_eq!(stats.free_events, 1);
        assert_eq!(stats.freed, 1);
    }

    #[test]
    fn ledger_flags_double_retire() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        heap.set_ledger_oracle(true);
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
        heap.set_ledger_oracle(true);
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
        heap.set_ledger_oracle(true);
        let a = heap.alloc(&mut c, 2).unwrap();
        heap.free_unpublished(&mut c, a);
        assert!(heap.ledger_violations().is_empty());
    }

    #[test]
    fn ledger_records_and_absorbs_a_double_free() {
        let heap = Arc::new(Heap::new(HeapConfig::small()));
        let mut c = cpu();
        heap.set_ledger_oracle(true);
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
        heap.set_ledger_oracle(true);
        let a = heap.alloc(&mut c, 2).unwrap();
        let b = heap.alloc(&mut c, 2).unwrap();
        heap.note_retire(1, 42, a);
        heap.note_retire(0, 43, b);
        heap.free(&mut c, b);
        let leaks = heap.ledger_leaks();
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].kind, LedgerKind::Leak);
        assert_eq!(leaks[0].base, a);
        assert_eq!(leaks[0].thread, 1);
        assert_eq!(leaks[0].cycle, 42);
        // Live-but-unretired blocks are not leaks: nodes still reachable
        // in a structure at teardown are legitimately alive.
        assert_eq!(heap.ledger_stats().live, 0);
    }

    #[test]
    fn ledger_is_silent_when_disabled_and_exempts_prior_blocks() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        let a = heap.alloc(&mut c, 2).unwrap(); // untracked: pre-enable
        heap.set_ledger_oracle(true);
        heap.free(&mut c, a); // no free-before-retire for untracked blocks
        assert!(heap.ledger_violations().is_empty());
        heap.set_ledger_oracle(false);
        let b = heap.alloc(&mut c, 2).unwrap();
        heap.free(&mut c, b);
        assert!(heap.ledger_violations().is_empty());
        assert_eq!(heap.ledger_stats().free_events, 1);
    }

    #[test]
    fn ledger_recycled_block_starts_a_fresh_lifetime() {
        let heap = Heap::new(HeapConfig::small());
        let mut c = cpu();
        heap.set_ledger_oracle(true);
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
