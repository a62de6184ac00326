//! `SCAN_AND_FREE`: the stack/register scanning reclaimer (Algorithm 1).
//!
//! A `ScanJob` inspects every registered thread's exposed state for
//! references to a batch of free candidates, then frees the unreferenced
//! ones through [`st_simhtm::HtmEngine::free_object`] (which dooms any
//! in-flight transaction still holding the node in its data set).
//!
//! The job is a resumable state machine: each `ScanJob::advance` call
//! inspects a bounded number of words, so scans interleave with other
//! threads in the discrete-event simulator exactly like the paper's
//! non-transactional `FREE` interleaves with running threads. That is what
//! makes the split-counter consistency protocol observable: if the
//! inspected thread commits a segment between two chunks of its
//! inspection, `splits` moves and the inspection restarts (unless
//! `oper_counter` moved too, in which case the operation finished and the
//! thread holds no protected references).
//!
//! Word comparison strips the low three tag bits (lock-free structures
//! store Harris marks there), and optionally resolves interior pointers
//! through the heap's allocation-table range query (section 5.5).

use crate::config::{Mutation, ScanMode};
use crate::layout::{
    OFF_ACTIVE, OFF_OPER_COUNTER, OFF_REFSET, OFF_REFSET_COUNT, OFF_REGISTERS, OFF_SPLITS,
    OFF_STACK, OFF_STACK_DEPTH, REG_SLOTS,
};
use crate::runtime::StRuntime;
use crate::stats::StThreadStats;
use st_machine::{Cpu, Cycles};
use st_simheap::tagged::TAG_MASK;
use st_simheap::{Addr, Word};
use std::collections::HashSet;

/// A retired node awaiting proof of unreachability, stamped with its
/// retirement time so the registry can report retire-to-free latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Retired {
    /// Base address of the retired object.
    pub(crate) addr: Addr,
    /// Virtual time of the `FREE` call that enqueued it.
    pub(crate) retired_at: Cycles,
}

/// One thread inspection in progress.
#[derive(Debug)]
struct Inspection {
    ctx: Addr,
    oper_pre: Word,
    htm_pre: Word,
    depth: u64,
    refset_len: u64,
    cursor: u64,
    found: bool,
}

impl Inspection {
    fn total_words(&self) -> u64 {
        self.depth + REG_SLOTS as u64 + self.refset_len
    }

    fn word_offset(&self, i: u64) -> u64 {
        if i < self.depth {
            OFF_STACK + i
        } else if i < self.depth + REG_SLOTS as u64 {
            OFF_REGISTERS + (i - self.depth)
        } else {
            OFF_REFSET + (i - self.depth - REG_SLOTS as u64)
        }
    }
}

#[derive(Debug)]
enum State {
    /// Algorithm 1: per candidate, walk all threads.
    Linear {
        cand: usize,
        thread: usize,
        insp: Option<Inspection>,
        found: bool,
    },
    /// Single pass (section 5.2), phase 1: walk every thread once,
    /// marking each word in the candidate index.
    Collect {
        index: Index,
        thread: usize,
        insp: Option<Inspection>,
    },
    /// Single pass, phase 2: read each candidate's verdict off the index.
    Judge {
        index: Index,
        cand: usize,
    },
    Finished,
}

/// The candidate index a single-pass scan marks while it walks the frames
/// and reads its verdicts from afterwards: the one difference between
/// [`ScanMode::Hashed`] and [`ScanMode::Batched`].
#[derive(Debug, Clone, Copy)]
enum Index {
    /// Every scanned word goes into a hash set; a probe is one compare.
    Hashed,
    /// The candidates, sorted up front, each with a hit flag; a probe is a
    /// binary search.
    Sorted,
}

impl Index {
    /// Compares one probe of the index costs.
    fn compares(self, bufs: &ScanBuffers) -> u64 {
        match self {
            Index::Hashed => 1,
            Index::Sorted => search_compares(bufs.sorted.len()),
        }
    }

    /// Records that a frame holds `word`.
    fn mark(self, bufs: &mut ScanBuffers, word: Word) {
        match self {
            Index::Hashed => {
                bufs.table.insert(word);
            }
            Index::Sorted => {
                if let Ok(i) = bufs.sorted.binary_search(&word) {
                    bufs.hits[i] = true;
                }
            }
        }
    }

    /// Whether some frame held `addr`.
    fn marked(self, bufs: &ScanBuffers, addr: Word) -> bool {
        match self {
            Index::Hashed => bufs.table.contains(&addr),
            Index::Sorted => bufs.sorted.binary_search(&addr).is_ok_and(|i| bufs.hits[i]),
        }
    }
}

/// Scratch buffers a [`ScanJob`] works in, recycled across scans so the
/// steady state allocates nothing: the hot path of a long run is
/// retire → batch → scan → retire again, and each of these vectors (and
/// the hash table) keeps its capacity from one scan to the next.
#[derive(Debug, Default)]
pub(crate) struct ScanBuffers {
    /// Candidate base addresses, sorted for binary search ([`ScanMode::Batched`]).
    sorted: Vec<Word>,
    /// Hit flags parallel to `sorted` ([`ScanMode::Batched`]).
    hits: Vec<bool>,
    /// Scanned-word set ([`ScanMode::Hashed`]).
    table: HashSet<Word>,
    /// Candidates that survived the scan (drained back to the free set).
    survivors: Vec<Retired>,
    /// An emptied candidates vector, handed back as the next free set's
    /// storage.
    spare: Vec<Retired>,
}

impl ScanBuffers {
    /// Takes the recycled candidates vector (empty, capacity retained) to
    /// serve as the next free-set storage.
    pub(crate) fn take_spare(&mut self) -> Vec<Retired> {
        std::mem::take(&mut self.spare)
    }

    fn reset(&mut self) {
        self.sorted.clear();
        self.hits.clear();
        self.table.clear();
        self.survivors.clear();
    }
}

/// A resumable `SCAN_AND_FREE` over a batch of candidates.
#[derive(Debug)]
pub(crate) struct ScanJob {
    candidates: Vec<Retired>,
    state: State,
    slow_active: bool,
    interior: bool,
    chunk: u64,
    bufs: ScanBuffers,
    probe_cycles: Cycles,
    words_scanned: u64,
}

/// Compares a binary search over `n` sorted candidates costs (charged per
/// probed word in [`ScanMode::Batched`]).
fn search_compares(n: usize) -> u64 {
    u64::from(n.max(1).ilog2()) + 1
}

/// Charges `compares` candidate-comparison steps to the CPU and the job's
/// probe accounting (reported as `scan.candidate_probe_cycles`).
fn charge_probe(cpu: &mut Cpu, acc: &mut Cycles, compares: u64) {
    let cost = cpu.costs.local_op * compares;
    cpu.charge(cost);
    *acc += cost;
}

impl ScanJob {
    /// Builds a job over `candidates` (all already unlinked), working in
    /// the recycled `bufs`.
    pub(crate) fn new(
        rt: &StRuntime,
        cpu: &mut Cpu,
        mut candidates: Vec<Retired>,
        mut bufs: ScanBuffers,
    ) -> Self {
        debug_assert!(!candidates.is_empty());
        bufs.reset();
        // Check the global slow-path counter once, up front (paper 5.4).
        let slow_active = rt.heap().load(cpu, rt.slow_count, 0) != 0;
        let mut probe_cycles = 0;
        // A base address can land in one batch twice (the allocator reuses
        // it between two retires of the same free set). Duplicates corrupt
        // every mode's verdict: Linear and Hashed judge each copy
        // independently (double free), and the Batched index's binary
        // search over a sorted-with-duplicates slice can set the hit flag
        // on one twin while the judge reads the other, freeing a block a
        // frame still references. Collapse to the first occurrence — the
        // earliest retire — before building any index.
        if candidates.len() > 1 {
            let table = &mut bufs.table;
            candidates.retain(|r| table.insert(r.addr.raw()));
            table.clear();
            charge_probe(cpu, &mut probe_cycles, candidates.len() as u64);
        }
        let collect = |index| State::Collect {
            index,
            thread: 0,
            insp: None,
        };
        let state = match rt.config.scan_mode {
            ScanMode::Linear => State::Linear {
                cand: 0,
                thread: 0,
                insp: None,
                found: false,
            },
            ScanMode::Hashed => collect(Index::Hashed),
            ScanMode::Batched => {
                // Build the sorted candidate index up front; sorting the
                // batch costs n·log n compares, charged to the scanning
                // thread like every other probe.
                bufs.sorted.extend(candidates.iter().map(|r| r.addr.raw()));
                bufs.sorted.sort_unstable();
                bufs.hits.resize(bufs.sorted.len(), false);
                charge_probe(
                    cpu,
                    &mut probe_cycles,
                    candidates.len() as u64 * search_compares(candidates.len()),
                );
                collect(Index::Sorted)
            }
        };
        Self {
            candidates,
            state,
            slow_active,
            interior: rt.config.interior_pointers,
            chunk: rt.config.scan_chunk_words.max(1),
            bufs,
            probe_cycles,
            words_scanned: 0,
        }
    }

    /// Runs one bounded chunk of the scan; returns `true` when the job is
    /// complete and [`ScanJob::take_survivors`] may be called.
    pub(crate) fn advance(
        &mut self,
        rt: &StRuntime,
        cpu: &mut Cpu,
        stats: &mut StThreadStats,
    ) -> bool {
        let started = cpu.now();
        let words_before = stats.scan_words;
        let done = self.advance_inner(rt, cpu, stats);
        stats.scan_cycles += cpu.now() - started;
        self.words_scanned += stats.scan_words - words_before;
        if done {
            stats.scan_depths.record(self.words_scanned);
            stats.scan_probe_cycles += self.probe_cycles;
            stats.candidate_probe_cycles.record(self.probe_cycles);
        }
        done
    }

    fn advance_inner(&mut self, rt: &StRuntime, cpu: &mut Cpu, stats: &mut StThreadStats) -> bool {
        match &mut self.state {
            State::Linear {
                cand,
                thread,
                insp,
                found,
            } => {
                let Some(&target) = self.candidates.get(*cand) else {
                    self.state = State::Finished;
                    return true;
                };
                if *found || *thread >= rt.max_threads() {
                    // Verdict for this candidate.
                    if *found {
                        self.bufs.survivors.push(target);
                        stats.survivors += 1;
                    } else {
                        free_candidate(rt, cpu, stats, target);
                    }
                    *cand += 1;
                    *thread = 0;
                    *found = false;
                    *insp = None;
                    return false;
                }
                let interior = self.interior;
                let probe = &mut self.probe_cycles;
                match step_inspection(
                    rt,
                    cpu,
                    stats,
                    insp,
                    *thread,
                    self.slow_active,
                    self.chunk,
                    &mut |rt, cpu, word| {
                        charge_probe(cpu, probe, 1);
                        matches_candidate(rt, cpu, interior, target.addr, word)
                    },
                ) {
                    InspectStep::Skip | InspectStep::ThreadDone { hit: false } => {
                        *thread += 1;
                        *insp = None;
                    }
                    InspectStep::ThreadDone { hit: true } => {
                        *found = true;
                        *insp = None;
                    }
                    InspectStep::InProgress => {}
                }
                false
            }
            State::Collect {
                index,
                thread,
                insp,
            } => {
                let index = *index;
                if *thread >= rt.max_threads() {
                    self.state = State::Judge { index, cand: 0 };
                    return false;
                }
                let interior = self.interior;
                let compares = index.compares(&self.bufs);
                let bufs = &mut self.bufs;
                let probe = &mut self.probe_cycles;
                match step_inspection(
                    rt,
                    cpu,
                    stats,
                    insp,
                    *thread,
                    self.slow_active,
                    self.chunk,
                    &mut |rt, cpu, word| {
                        let stripped = word & !TAG_MASK;
                        charge_probe(cpu, probe, compares);
                        index.mark(bufs, stripped);
                        if interior {
                            if let Some(base) = resolve_base(rt, cpu, stripped) {
                                charge_probe(cpu, probe, compares);
                                index.mark(bufs, base.raw());
                            }
                        }
                        false // the verdict is read off the index later
                    },
                ) {
                    InspectStep::Skip | InspectStep::ThreadDone { .. } => {
                        *thread += 1;
                        *insp = None;
                    }
                    InspectStep::InProgress => {}
                }
                false
            }
            State::Judge { index, cand } => {
                let Some(&target) = self.candidates.get(*cand) else {
                    self.state = State::Finished;
                    return true;
                };
                charge_probe(cpu, &mut self.probe_cycles, index.compares(&self.bufs));
                if index.marked(&self.bufs, target.addr.raw()) {
                    self.bufs.survivors.push(target);
                    stats.survivors += 1;
                } else {
                    free_candidate(rt, cpu, stats, target);
                }
                *cand += 1;
                false
            }
            State::Finished => true,
        }
    }

    /// Completes the job: survivors (candidates with a found reference) are
    /// appended to `free_set`, and the scratch — including the emptied
    /// candidates vector — is returned for the next scan to reuse.
    pub(crate) fn finish_into(mut self, free_set: &mut Vec<Retired>) -> ScanBuffers {
        debug_assert!(matches!(self.state, State::Finished));
        free_set.append(&mut self.bufs.survivors);
        self.candidates.clear();
        self.bufs.spare = self.candidates;
        self.bufs
    }
}

/// Frees a candidate no inspection found a reference to — the one shared
/// exit of all three scan modes' judge phases — unless the one-shot
/// skip-free mutation swallows it, in which case the block is neither
/// freed nor kept as a survivor and the heap-ledger oracle must flag it
/// as a leak at teardown.
fn free_candidate(rt: &StRuntime, cpu: &mut Cpu, stats: &mut StThreadStats, target: Retired) {
    if rt.consume_skip_free() {
        return;
    }
    rt.engine.free_object(cpu, target.addr);
    stats.frees_completed += 1;
    stats
        .free_latency
        .record(cpu.now().saturating_sub(target.retired_at));
}

enum InspectStep {
    /// Thread slot empty or idle; move on.
    Skip,
    /// Inspection completed consistently; `hit` is the match verdict.
    ThreadDone { hit: bool },
    /// Chunk budget exhausted; call again.
    InProgress,
}

/// Advances the inspection of one thread by one chunk, applying the
/// Algorithm 1 consistency protocol.
#[allow(clippy::too_many_arguments)]
fn step_inspection(
    rt: &StRuntime,
    cpu: &mut Cpu,
    stats: &mut StThreadStats,
    insp: &mut Option<Inspection>,
    thread: usize,
    slow_active: bool,
    chunk: u64,
    visit: &mut dyn FnMut(&StRuntime, &mut Cpu, Word) -> bool,
) -> InspectStep {
    let heap = rt.heap();
    let current = match insp {
        Some(i) => i,
        None => {
            let Some(ctx) = rt.ctx_of(thread) else {
                return InspectStep::Skip;
            };
            // Idle threads hold no protected references and are skipped
            // ("a scan does not always need to consider all threads").
            if heap.load(cpu, ctx, OFF_ACTIVE) == 0 {
                return InspectStep::Skip;
            }
            let oper_pre = heap.load(cpu, ctx, OFF_OPER_COUNTER);
            let htm_pre = heap.load(cpu, ctx, OFF_SPLITS);
            let depth = heap.load(cpu, ctx, OFF_STACK_DEPTH);
            let refset_len = if slow_active {
                heap.load(cpu, ctx, OFF_REFSET_COUNT)
            } else {
                0
            };
            stats.threads_inspected += 1;
            insp.insert(Inspection {
                ctx,
                oper_pre,
                htm_pre,
                depth,
                refset_len,
                cursor: 0,
                found: false,
            })
        }
    };

    let total = current.total_words();
    let end = (current.cursor + chunk).min(total);
    while current.cursor < end {
        let off = current.word_offset(current.cursor);
        let word = heap.load(cpu, current.ctx, off);
        stats.scan_words += 1;
        current.cursor += 1;
        if visit(rt, cpu, word) {
            current.found = true;
            // A hit is conservative regardless of concurrent commits; no
            // need to finish or revalidate this thread.
            return InspectStep::ThreadDone { hit: true };
        }
    }
    if current.cursor < total {
        return InspectStep::InProgress;
    }

    // Consistency check (Algorithm 1, lines 23-29): if the thread committed
    // another segment while we scanned — and is still in the same
    // operation — the snapshot may be torn; restart the inspection.
    if rt.config.mutation == Mutation::SkipSplitsRecheck {
        return InspectStep::ThreadDone { hit: current.found };
    }
    let htm_post = heap.load(cpu, current.ctx, OFF_SPLITS);
    let oper_post = heap.load(cpu, current.ctx, OFF_OPER_COUNTER);
    if current.oper_pre == oper_post && current.htm_pre != htm_post {
        stats.scan_retries += 1;
        *insp = None;
        return InspectStep::InProgress;
    }
    InspectStep::ThreadDone { hit: false }
}

/// Whether `word` references `target`, stripping tag bits and optionally
/// resolving interior pointers.
fn matches_candidate(
    rt: &StRuntime,
    cpu: &mut Cpu,
    interior: bool,
    target: Addr,
    word: Word,
) -> bool {
    let stripped = word & !TAG_MASK;
    if stripped == target.raw() {
        return true;
    }
    if interior {
        if let Some(base) = resolve_base(rt, cpu, stripped) {
            return base == target;
        }
    }
    false
}

/// Range query against the allocation table (the paper's `malloc` hook),
/// charged as a couple of dependent loads.
fn resolve_base(rt: &StRuntime, cpu: &mut Cpu, stripped: Word) -> Option<Addr> {
    cpu.charge(cpu.costs.load * 2);
    rt.heap().object_base(stripped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StConfig;
    use crate::layout::{OFF_ACTIVE, OFF_STACK, OFF_STACK_DEPTH};
    use crate::runtime::StRuntime;
    use st_simheap::{Heap, HeapConfig};
    use st_simhtm::{HtmConfig, HtmEngine};
    use std::sync::Arc;

    fn runtime(mode: ScanMode, interior: bool, chunk: u64) -> Arc<StRuntime> {
        let heap = Arc::new(Heap::new(HeapConfig {
            capacity_words: 1 << 18,
        }));
        let engine = Arc::new(HtmEngine::new(heap, HtmConfig::default(), 4));
        StRuntime::new(
            engine,
            StConfig {
                scan_mode: mode,
                interior_pointers: interior,
                scan_chunk_words: chunk,
                ..StConfig::default()
            },
            4,
        )
    }

    /// Registers a thread and plants `refs` in its committed shadow stack.
    fn plant(rt: &Arc<StRuntime>, slot: usize, refs: &[u64]) -> Addr {
        let th = rt.register_thread(slot);
        let ctx = th.ctx_addr();
        let heap = rt.heap();
        heap.poke(ctx, OFF_ACTIVE, 1);
        heap.poke(ctx, OFF_STACK_DEPTH, refs.len() as u64);
        for (i, &r) in refs.iter().enumerate() {
            heap.poke(ctx, OFF_STACK + i as u64, r);
        }
        std::mem::forget(th); // keep the registration alive for the test
        ctx
    }

    fn retired(candidates: &[Addr]) -> Vec<Retired> {
        candidates
            .iter()
            .map(|&addr| Retired {
                addr,
                retired_at: 0,
            })
            .collect()
    }

    fn drive(rt: &Arc<StRuntime>, candidates: Vec<Addr>) -> Vec<Addr> {
        let mut cpu = rt.test_cpu(3);
        let mut job = ScanJob::new(rt, &mut cpu, retired(&candidates), ScanBuffers::default());
        let mut stats = StThreadStats::default();
        let mut rounds = 0;
        while !job.advance(rt, &mut cpu, &mut stats) {
            rounds += 1;
            assert!(rounds < 100_000, "scan must terminate");
        }
        let mut survivors = Vec::new();
        job.finish_into(&mut survivors);
        survivors.into_iter().map(|r| r.addr).collect()
    }

    #[test]
    fn unreferenced_candidates_are_freed_referenced_survive() {
        for mode in [ScanMode::Linear, ScanMode::Hashed, ScanMode::Batched] {
            let rt = runtime(mode, false, 4);
            let heap = rt.heap().clone();
            let held = heap.alloc_untimed(2).unwrap();
            let loose = heap.alloc_untimed(2).unwrap();
            plant(&rt, 0, &[held.raw()]);

            let survivors = drive(&rt, vec![held, loose]);
            assert_eq!(survivors, vec![held], "{mode:?}");
            assert!(heap.is_live(held), "{mode:?}");
            assert!(!heap.is_live(loose), "{mode:?}");
        }
    }

    #[test]
    fn duplicate_candidates_in_one_batch_free_once() {
        // Allocator reuse can retire the same base address twice into one
        // free set. Without dedup, Linear/Hashed double-free it (allocator
        // panic) and Batched can free a block a frame still references.
        for mode in [ScanMode::Linear, ScanMode::Hashed, ScanMode::Batched] {
            let rt = runtime(mode, false, 8);
            let heap = rt.heap().clone();
            let reused = heap.alloc_untimed(2).unwrap();
            let held = heap.alloc_untimed(2).unwrap();
            plant(&rt, 0, &[held.raw()]);

            let survivors = drive(&rt, vec![reused, held, reused]);
            assert_eq!(survivors, vec![held], "{mode:?}");
            assert!(!heap.is_live(reused), "{mode:?}: freed exactly once");
            assert!(heap.is_live(held), "{mode:?}");
        }
    }

    #[test]
    fn duplicate_referenced_candidates_survive_once() {
        for mode in [ScanMode::Linear, ScanMode::Hashed, ScanMode::Batched] {
            let rt = runtime(mode, false, 8);
            let heap = rt.heap().clone();
            let held = heap.alloc_untimed(2).unwrap();
            plant(&rt, 0, &[held.raw()]);

            let survivors = drive(&rt, vec![held, held]);
            assert_eq!(survivors, vec![held], "{mode:?}: one copy survives");
            assert!(heap.is_live(held), "{mode:?}");
        }
    }

    #[test]
    fn skip_free_mutation_swallows_exactly_one_candidate() {
        let heap = Arc::new(Heap::new(HeapConfig {
            capacity_words: 1 << 18,
        }));
        let engine = Arc::new(HtmEngine::new(heap, HtmConfig::default(), 4));
        let rt = StRuntime::new(
            engine,
            StConfig {
                scan_mode: ScanMode::Batched,
                scan_chunk_words: 8,
                mutation: Mutation::SkipFree,
                ..StConfig::default()
            },
            4,
        );
        let heap = rt.heap().clone();
        heap.set_ledger_oracle(true);
        let a = heap.alloc_untimed(2).unwrap();
        let b = heap.alloc_untimed(2).unwrap();
        let mut cpu = rt.test_cpu(3);
        heap.note_retire(3, cpu.now(), a);
        heap.note_retire(3, cpu.now(), b);

        let mut job = ScanJob::new(&rt, &mut cpu, retired(&[a, b]), ScanBuffers::default());
        let mut stats = StThreadStats::default();
        while !job.advance(&rt, &mut cpu, &mut stats) {}
        let mut survivors = Vec::new();
        job.finish_into(&mut survivors);

        assert!(
            survivors.is_empty(),
            "the swallowed block is not a survivor"
        );
        assert_eq!(stats.frees_completed, 1, "one of two verdicts freed");
        let leaks = heap.ledger_leaks();
        assert_eq!(leaks.len(), 1, "the ledger sees the swallowed block");
        assert_eq!(leaks[0].kind, st_simheap::LedgerKind::Leak);
    }

    #[test]
    fn tagged_references_protect_their_base() {
        let rt = runtime(ScanMode::Linear, false, 8);
        let heap = rt.heap().clone();
        let node = heap.alloc_untimed(2).unwrap();
        plant(&rt, 0, &[node.raw() | 1]); // Harris-marked pointer

        let survivors = drive(&rt, vec![node]);
        assert_eq!(survivors, vec![node]);
    }

    #[test]
    fn inactive_threads_are_skipped() {
        let rt = runtime(ScanMode::Linear, false, 8);
        let heap = rt.heap().clone();
        let node = heap.alloc_untimed(2).unwrap();
        let ctx = plant(&rt, 0, &[node.raw()]);
        heap.poke(ctx, OFF_ACTIVE, 0); // idle: its stale slot is ignored

        let survivors = drive(&rt, vec![node]);
        assert!(survivors.is_empty());
        assert!(!heap.is_live(node));
    }

    #[test]
    fn interior_pointers_need_the_range_query() {
        for (interior, expect_live) in [(true, true), (false, false)] {
            let rt = runtime(ScanMode::Linear, interior, 8);
            let heap = rt.heap().clone();
            let arr = heap.alloc_untimed(16).unwrap();
            plant(&rt, 0, &[arr.offset(7).raw()]);

            let survivors = drive(&rt, vec![arr]);
            assert_eq!(survivors.len(), usize::from(expect_live), "{interior}");
            assert_eq!(heap.is_live(arr), expect_live, "{interior}");
        }
    }

    #[test]
    fn chunk_size_does_not_change_the_verdict() {
        // The scan is resumable at any chunk granularity; the outcome is
        // identical (single-threaded: no concurrent commits).
        let mut baseline = None;
        for chunk in [1u64, 3, 7, 64] {
            let rt = runtime(ScanMode::Linear, false, chunk);
            let heap = rt.heap().clone();
            let a = heap.alloc_untimed(2).unwrap();
            let b = heap.alloc_untimed(2).unwrap();
            let c = heap.alloc_untimed(2).unwrap();
            plant(&rt, 0, &[a.raw(), 0, 0, c.raw()]);
            plant(&rt, 1, &[]);

            let mut survivors = drive(&rt, vec![a, b, c]);
            survivors.sort();
            let fingerprint = survivors.len();
            assert_eq!(survivors, vec![a, c], "chunk {chunk}");
            match baseline {
                None => baseline = Some(fingerprint),
                Some(f) => assert_eq!(f, fingerprint, "chunk {chunk}"),
            }
        }
    }

    #[test]
    fn single_pass_modes_collect_once_for_many_candidates() {
        // With N candidates, the single-pass modes' inspected word counts
        // stay flat while linear mode's grows with N.
        let count_words = |mode: ScanMode, n: u64| {
            let rt = runtime(mode, false, 64);
            let heap = rt.heap().clone();
            plant(&rt, 0, &[1, 2, 3, 4, 5, 6, 7, 8]);
            let candidates: Vec<Addr> = (0..n).map(|_| heap.alloc_untimed(2).unwrap()).collect();
            let mut cpu = rt.test_cpu(3);
            let mut job = ScanJob::new(&rt, &mut cpu, retired(&candidates), ScanBuffers::default());
            let mut stats = StThreadStats::default();
            while !job.advance(&rt, &mut cpu, &mut stats) {}
            stats.scan_words
        };
        let linear_1 = count_words(ScanMode::Linear, 1);
        let linear_8 = count_words(ScanMode::Linear, 8);
        assert!(linear_8 >= 8 * linear_1, "linear scales with candidates");
        for mode in [ScanMode::Hashed, ScanMode::Batched] {
            let one = count_words(mode, 1);
            let eight = count_words(mode, 8);
            assert_eq!(eight, one, "{mode:?} walks the stacks once");
        }
    }

    #[test]
    fn every_mode_records_probe_cycles() {
        for mode in [ScanMode::Linear, ScanMode::Hashed, ScanMode::Batched] {
            let rt = runtime(mode, false, 8);
            let heap = rt.heap().clone();
            let node = heap.alloc_untimed(2).unwrap();
            plant(&rt, 0, &[node.raw()]);
            let mut cpu = rt.test_cpu(3);
            let mut job = ScanJob::new(&rt, &mut cpu, retired(&[node]), ScanBuffers::default());
            let mut stats = StThreadStats::default();
            while !job.advance(&rt, &mut cpu, &mut stats) {}
            assert!(stats.scan_probe_cycles > 0, "{mode:?} charges probes");
            assert_eq!(
                stats.candidate_probe_cycles.count(),
                1,
                "{mode:?} records one histogram sample per scan"
            );
        }
    }

    #[test]
    fn finish_into_recycles_the_buffers() {
        let rt = runtime(ScanMode::Batched, false, 8);
        let heap = rt.heap().clone();
        let held = heap.alloc_untimed(2).unwrap();
        let loose = heap.alloc_untimed(2).unwrap();
        plant(&rt, 0, &[held.raw()]);
        let mut cpu = rt.test_cpu(3);
        let candidates = retired(&[held, loose]);
        let candidate_cap = candidates.capacity();
        let mut job = ScanJob::new(&rt, &mut cpu, candidates, ScanBuffers::default());
        let mut stats = StThreadStats::default();
        while !job.advance(&rt, &mut cpu, &mut stats) {}
        let mut free_set = Vec::new();
        let mut bufs = job.finish_into(&mut free_set);
        assert_eq!(free_set.len(), 1, "the referenced candidate survives");
        assert_eq!(free_set[0].addr, held);
        let spare = bufs.take_spare();
        assert!(spare.is_empty());
        assert_eq!(
            spare.capacity(),
            candidate_cap,
            "the candidates vector is handed back for the next free set"
        );
    }
}
