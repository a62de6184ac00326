//! Virtual-cycle cost model.
//!
//! Every simulated memory, synchronization, and HTM event charges a number
//! of virtual cycles to the thread that performs it. The defaults are
//! order-of-magnitude figures for a Haswell-class part (uncontended L1 load
//! a few cycles, fence/atomic tens of cycles, context switch tens of
//! thousands); the evaluation only relies on their *ratios*, which drive the
//! qualitative shapes the paper reports (fence-per-load makes hazard
//! pointers expensive, commit-per-segment amortizes StackTrack's cost, and
//! so on).

use crate::Cycles;

/// Per-event virtual-cycle charges.
///
/// All costs are in cycles of the simulated machine. The model is
/// intentionally flat (no cache hierarchy simulation beyond the HTM layer's
/// L1 capacity budget); contention-dependent costs take a small multiplier
/// computed by the caller.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Plain (non-transactional) load.
    pub load: Cycles,
    /// Plain (non-transactional) store.
    pub store: Cycles,
    /// Extra charge per load/store when the line was recently written by
    /// another hardware context (coherence miss).
    pub coherence_miss: Cycles,
    /// Extra charge when the accessed line is absent from the thread's
    /// modeled private cache (cold/capacity miss — the cost that makes a
    /// pointer hop through a large structure expensive).
    pub mem_miss: Cycles,
    /// Full memory fence (drains the store buffer; the per-protected-load
    /// cost that dominates hazard pointers).
    pub fence: Cycles,
    /// Compare-and-swap, uncontended.
    pub cas: Cycles,
    /// Extra compare-and-swap charge per recent contender on the same line
    /// (models the over-throttle effect on the queue benchmark).
    pub cas_contention: Cycles,
    /// Starting a hardware transaction (XBEGIN).
    pub htm_begin: Cycles,
    /// Committing a hardware transaction (XEND, includes the implicit
    /// publication fence).
    pub htm_commit: Cycles,
    /// Fixed penalty for an aborted hardware transaction, on top of the
    /// wasted work the transaction already charged.
    pub htm_abort: Cycles,
    /// Transactional load (speculative, L1-resident).
    pub tx_load: Cycles,
    /// Transactional store (speculative, write-buffered).
    pub tx_store: Cycles,
    /// Heap allocation (size-class free list pop).
    pub alloc: Cycles,
    /// Heap de-allocation (free-list push + poison).
    pub free: Cycles,
    /// Register-to-register / local bookkeeping step (checkpoint counter
    /// increment and similar).
    pub local_op: Cycles,
    /// Inter-thread signal, charged twice: to the sender per raise (the
    /// `pthread_kill` syscall) and to the receiver when the scheduler
    /// delivers pending signals before its next step (kernel-to-handler
    /// transition). This is the per-neutralization cost that NBR
    /// amortizes by batching retires between signal broadcasts.
    pub signal_deliver: Cycles,
    /// Direct cost of a context switch, charged when a quantum expires and
    /// another thread is waiting on the same hardware context.
    pub context_switch: Cycles,
    /// Scheduler quantum: virtual cycles a thread runs before it can be
    /// preempted (1 ms at 2 GHz by default, like a CFS-ish slice).
    pub quantum: Cycles,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            load: 4,
            store: 6,
            coherence_miss: 60,
            mem_miss: 60,
            fence: 90,
            cas: 40,
            cas_contention: 45,
            htm_begin: 45,
            htm_commit: 55,
            htm_abort: 160,
            tx_load: 5,
            tx_store: 7,
            alloc: 120,
            free: 90,
            local_op: 1,
            signal_deliver: 2_500,
            context_switch: 30_000,
            quantum: 2_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered_sensibly() {
        let m = CostModel::default();
        assert!(m.load < m.fence, "a fence must dwarf a cached load");
        assert!(m.tx_load < m.htm_commit);
        assert!(m.htm_abort > m.htm_commit);
        assert!(m.context_switch > m.fence * 100);
        assert!(m.quantum > m.context_switch);
        // A signal is far pricier than a fence (why NBR batches retires
        // between broadcasts) but cheaper than a full context switch.
        assert!(m.signal_deliver > m.fence * 10);
        assert!(m.signal_deliver < m.context_switch);
    }
}
