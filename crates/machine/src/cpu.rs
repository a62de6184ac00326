//! Per-simulated-thread execution context.

use crate::{CostModel, Cycles, HwContext, Pcg32};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters of simulated machine events, kept per thread.
///
/// Transactions and heap blocks are counted where they happen instead:
/// the HTM engine's per-thread `HtmStats` and the heap allocator's
/// `AllocStats`.
#[derive(Debug, Default, Clone)]
pub struct EventCounters {
    /// Plain loads issued.
    pub loads: u64,
    /// Plain stores issued.
    pub stores: u64,
    /// Memory fences issued.
    pub fences: u64,
    /// Compare-and-swap operations issued.
    pub cas_ops: u64,
    /// Transactional loads issued.
    pub tx_loads: u64,
    /// Transactional stores issued.
    pub tx_stores: u64,
    /// Context switches suffered.
    pub context_switches: u64,
}

/// Shared per-hardware-context activity board.
///
/// Each hardware context publishes a coarse "transactional footprint"
/// (distinct cache lines touched by its current transaction) so that the HTM
/// capacity model can ask how much L1 pressure the SMT sibling is creating.
#[derive(Debug)]
pub struct ActivityBoard {
    footprint: Vec<AtomicU64>,
    running: Vec<AtomicU64>,
}

impl ActivityBoard {
    /// Creates a board for `hw_contexts` contexts.
    pub fn new(hw_contexts: usize) -> Self {
        Self {
            footprint: (0..hw_contexts).map(|_| AtomicU64::new(0)).collect(),
            running: (0..hw_contexts).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Publishes the current transactional footprint of `ctx` (in lines).
    pub fn set_footprint(&self, ctx: usize, lines: u64) {
        self.footprint[ctx].store(lines, Ordering::Relaxed);
    }

    /// Reads the transactional footprint of `ctx` (in lines).
    pub fn footprint(&self, ctx: usize) -> u64 {
        self.footprint[ctx].load(Ordering::Relaxed)
    }

    /// Marks `ctx` as occupied by a runnable thread (or not).
    pub fn set_running(&self, ctx: usize, on: bool) {
        self.running[ctx].store(u64::from(on), Ordering::Relaxed);
    }

    /// Whether a runnable thread currently occupies `ctx`.
    pub fn is_running(&self, ctx: usize) -> bool {
        self.running[ctx].load(Ordering::Relaxed) != 0
    }
}

/// Shared board of pending inter-thread signals.
///
/// Models POSIX-style per-thread signals at the granularity the simulator
/// needs for neutralization-based reclamation: any thread may raise a
/// signal against any other through its [`Cpu`], and the scheduler delivers
/// all pending signals to a thread immediately before its next step (the
/// simulated analogue of "the handler runs before the next instruction").
/// Raises against out-of-range targets are ignored, so a board is safe to
/// share across differently sized runs.
#[derive(Debug)]
pub struct SignalBoard {
    pending: Vec<AtomicU64>,
}

impl SignalBoard {
    /// Creates a board for `threads` simulated threads.
    pub fn new(threads: usize) -> Self {
        Self {
            pending: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Raises one signal against `target` (ignored if out of range).
    pub fn raise(&self, target: usize) {
        if let Some(slot) = self.pending.get(target) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drains and returns the number of signals pending against `target`.
    ///
    /// The read-before-swap fast path keeps the common no-signal case a
    /// plain load. The simulator steps every thread of a run from one OS
    /// thread, so a raise can never race the check-then-swap; even under a
    /// hypothetical concurrent raiser the signal is not lost, only
    /// delivered at the next take.
    pub fn take(&self, target: usize) -> u64 {
        let Some(slot) = self.pending.get(target) else {
            return 0;
        };
        if slot.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        slot.swap(0, Ordering::Relaxed)
    }

    /// Signals currently pending against `target`, without draining.
    pub fn pending(&self, target: usize) -> u64 {
        self.pending
            .get(target)
            .map_or(0, |slot| slot.load(Ordering::Relaxed))
    }
}

/// A small direct-mapped model of the thread's private cache, used only
/// to decide whether an access pays the cold-miss charge.
#[derive(Debug)]
struct MiniCache {
    /// `line + 1` per slot; 0 = empty.
    slots: Box<[u64]>,
    mask: u64,
}

impl MiniCache {
    fn new(lines: usize) -> Self {
        let lines = lines.next_power_of_two();
        Self {
            slots: vec![0; lines].into_boxed_slice(),
            mask: lines as u64 - 1,
        }
    }

    /// Touches `line`; returns `true` on a miss.
    fn access(&mut self, line: u64) -> bool {
        let idx = ((line.wrapping_mul(0x9e3779b97f4a7c15) >> 32) & self.mask) as usize;
        let stored = line + 1;
        if self.slots[idx] == stored {
            false
        } else {
            self.slots[idx] = stored;
            true
        }
    }
}

/// The execution context handed to a simulated thread while it runs.
///
/// A `Cpu` owns the thread's virtual clock, PRNG stream, placement, and
/// event counters. Substrate layers (heap, HTM) charge costs through it; the
/// scheduler reads and advances the clock between steps.
#[derive(Debug)]
pub struct Cpu {
    /// Simulated thread id (dense, `0..n_threads`).
    pub thread_id: usize,
    /// Hardware placement of this thread.
    pub hw: HwContext,
    /// Cost model used for all charges.
    pub costs: Arc<CostModel>,
    /// Shared activity board (SMT pressure, run states).
    pub board: Arc<ActivityBoard>,
    /// Deterministic PRNG stream private to this thread.
    pub rng: Pcg32,
    /// Event counters.
    pub counters: EventCounters,
    now: Cell<Cycles>,
    cache: MiniCache,
    signals: Arc<SignalBoard>,
}

impl Cpu {
    /// Creates a context for `thread_id` placed on `hw`.
    pub fn new(
        thread_id: usize,
        hw: HwContext,
        costs: Arc<CostModel>,
        board: Arc<ActivityBoard>,
        seed: u64,
    ) -> Self {
        Self {
            thread_id,
            hw,
            costs,
            board,
            rng: Pcg32::new_stream(seed, thread_id as u64 + 1),
            counters: EventCounters::default(),
            now: Cell::new(0),
            cache: MiniCache::new(512),
            // Unattached zero-size board: raises and takes are no-ops until
            // the scheduler (or a test) attaches a shared board.
            signals: Arc::new(SignalBoard::new(0)),
        }
    }

    /// Attaches the shared signal board of the run. The simulator calls
    /// this for every thread it hosts; contexts built directly (scratch
    /// CPUs, teardown helpers) keep the default inert board.
    pub fn attach_signals(&mut self, board: Arc<SignalBoard>) {
        self.signals = board;
    }

    /// Raises a neutralization signal against `target` (no-op when no
    /// board is attached or `target` is out of range).
    pub fn raise_signal(&self, target: usize) {
        self.signals.raise(target);
    }

    /// Drains this thread's pending signals, returning how many were
    /// raised since the last delivery. Called by the scheduler before each
    /// step; also usable directly by tests driving a worker by hand.
    pub fn take_signals(&self) -> u64 {
        self.signals.take(self.thread_id)
    }

    /// Models one cache access to `line`, charging the cold-miss cost on a
    /// miss. Called by the heap and the HTM engine for every data access.
    pub fn charge_mem(&mut self, line: u64) {
        if self.cache.access(line) {
            self.now.set(self.now.get() + self.costs.mem_miss);
        }
    }

    /// Current virtual time of this thread.
    pub fn now(&self) -> Cycles {
        self.now.get()
    }

    /// Charges `c` cycles to this thread's clock.
    pub fn charge(&self, c: Cycles) {
        self.now.set(self.now.get() + c);
    }

    /// Advances the clock to at least `t` (used by the scheduler when the
    /// thread was parked on a busy hardware context).
    pub fn advance_to(&self, t: Cycles) {
        if t > self.now.get() {
            self.now.set(t);
        }
    }

    /// SMT capacity pressure from the sibling hardware context, in `[0, 1]`.
    ///
    /// `0.0` means the sibling context is idle (full private L1 budget);
    /// `1.0` means a co-tenant is actively running. The HTM layer halves the
    /// capacity budget and adds probabilistic evictions proportionally.
    pub fn smt_pressure(&self) -> f64 {
        match self.hw.sibling {
            Some(sib) if self.board.is_running(sib) => 1.0,
            _ => 0.0,
        }
    }

    /// Transactional footprint (lines) currently published by the sibling.
    pub fn sibling_footprint(&self) -> u64 {
        self.hw.sibling.map_or(0, |s| self.board.footprint(s))
    }

    /// Publishes this thread's current transactional footprint.
    pub fn publish_footprint(&self, lines: u64) {
        self.board.set_footprint(self.hw.id, lines);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    fn cpu(thread: usize) -> Cpu {
        let topo = Topology::haswell();
        let hw = HwContext::new(&topo, topo.place(thread));
        Cpu::new(
            thread,
            hw,
            Arc::new(CostModel::default()),
            Arc::new(ActivityBoard::new(topo.hw_contexts())),
            1,
        )
    }

    #[test]
    fn charge_advances_clock() {
        let c = cpu(0);
        assert_eq!(c.now(), 0);
        c.charge(10);
        c.charge(5);
        assert_eq!(c.now(), 15);
    }

    #[test]
    fn advance_to_never_rewinds() {
        let c = cpu(0);
        c.charge(100);
        c.advance_to(50);
        assert_eq!(c.now(), 100);
        c.advance_to(150);
        assert_eq!(c.now(), 150);
    }

    #[test]
    fn smt_pressure_tracks_sibling() {
        let c = cpu(0);
        assert_eq!(c.smt_pressure(), 0.0);
        let sib = c.hw.sibling.unwrap();
        c.board.set_running(sib, true);
        assert_eq!(c.smt_pressure(), 1.0);
        c.board.set_running(sib, false);
        assert_eq!(c.smt_pressure(), 0.0);
    }

    #[test]
    fn footprint_roundtrip() {
        let c0 = cpu(0);
        let c4 = Cpu::new(
            4,
            HwContext::new(&Topology::haswell(), 4),
            c0.costs.clone(),
            c0.board.clone(),
            1,
        );
        c4.publish_footprint(33);
        assert_eq!(c0.sibling_footprint(), 33);
    }

    #[test]
    fn signal_board_roundtrip() {
        let board = Arc::new(SignalBoard::new(2));
        let mut a = cpu(0);
        let mut b = cpu(1);
        a.attach_signals(board.clone());
        b.attach_signals(board.clone());

        // Unraised: nothing to take.
        assert_eq!(b.take_signals(), 0);
        a.raise_signal(1);
        a.raise_signal(1);
        assert_eq!(board.pending(1), 2);
        assert_eq!(b.take_signals(), 2, "both raises coalesce into one take");
        assert_eq!(b.take_signals(), 0, "take drains the slot");

        // Out-of-range targets are ignored, not a panic.
        a.raise_signal(99);
    }

    #[test]
    fn unattached_board_is_inert() {
        let c = cpu(0);
        c.raise_signal(0);
        assert_eq!(c.take_signals(), 0);
    }

    #[test]
    fn rng_streams_are_thread_private() {
        let mut a = cpu(0);
        let mut b = cpu(1);
        assert_ne!(a.rng.next_u64(), b.rng.next_u64());
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use crate::Topology;

    fn cpu() -> Cpu {
        let topo = Topology::haswell();
        Cpu::new(
            0,
            HwContext::new(&topo, 0),
            Arc::new(CostModel::default()),
            Arc::new(ActivityBoard::new(topo.hw_contexts())),
            3,
        )
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = cpu();
        let t0 = c.now();
        c.charge_mem(1234);
        let after_miss = c.now();
        assert_eq!(after_miss - t0, c.costs.mem_miss, "cold line: full miss");
        c.charge_mem(1234);
        assert_eq!(c.now(), after_miss, "warm line: free");
    }

    #[test]
    fn conflicting_lines_evict_each_other() {
        let mut c = cpu();
        // Touch far more distinct lines than the cache holds; re-touching
        // the first line must miss again.
        c.charge_mem(1);
        for line in 2..5_000u64 {
            c.charge_mem(line);
        }
        let before = c.now();
        c.charge_mem(1);
        assert_eq!(
            c.now() - before,
            c.costs.mem_miss,
            "line 1 must have been evicted by the working set"
        );
    }
}
