//! Per-thread HTM statistics (the raw material of Figures 3 and 4).
//!
//! [`HtmThreadStats`] is the atomic, always-on recording side; [`HtmStats`]
//! is the plain snapshot the bench harness aggregates and reports into a
//! [`MetricsRegistry`] via [`HtmStats::report`].

use st_obs::{AbortCause, CauseCounts, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic per-thread transaction counters.
#[derive(Debug, Default)]
pub struct HtmThreadStats {
    begun: AtomicU64,
    committed: AtomicU64,
    /// Aborts, one counter per cause in [`AbortCause::ALL`] order.
    aborts: [AtomicU64; AbortCause::ALL.len()],
    committed_reads: AtomicU64,
    committed_writes: AtomicU64,
}

impl HtmThreadStats {
    pub(crate) fn on_begin(&self) {
        self.begun.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_commit(&self, reads: u64, writes: u64) {
        self.committed.fetch_add(1, Ordering::Relaxed);
        self.committed_reads.fetch_add(reads, Ordering::Relaxed);
        self.committed_writes.fetch_add(writes, Ordering::Relaxed);
    }

    pub(crate) fn on_abort(&self, cause: AbortCause) {
        self.aborts[cause.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Zeroes the counters (benchmark warm-up support).
    pub fn reset(&self) {
        let counters = [
            &self.begun,
            &self.committed,
            &self.committed_reads,
            &self.committed_writes,
        ];
        for c in counters.into_iter().chain(&self.aborts) {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshots the counters.
    pub fn snapshot(&self) -> HtmStats {
        let aborts = |cause: AbortCause| self.aborts[cause.index()].load(Ordering::Relaxed);
        HtmStats {
            begun: self.begun.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            aborts_conflict: aborts(AbortCause::Conflict),
            aborts_capacity: aborts(AbortCause::Capacity),
            aborts_explicit: aborts(AbortCause::Explicit),
            aborts_preempted: aborts(AbortCause::Preempted),
            aborts_other: aborts(AbortCause::Spurious),
            committed_reads: self.committed_reads.load(Ordering::Relaxed),
            committed_writes: self.committed_writes.load(Ordering::Relaxed),
        }
    }
}

/// A plain snapshot of transaction counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HtmStats {
    /// Transactions started.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Aborts due to data conflicts.
    pub aborts_conflict: u64,
    /// Aborts due to the capacity model.
    pub aborts_capacity: u64,
    /// Explicitly requested aborts.
    pub aborts_explicit: u64,
    /// Aborts caused by scheduler preemption mid-transaction.
    pub aborts_preempted: u64,
    /// Spurious aborts ([`AbortCause::Spurious`]).
    pub aborts_other: u64,
    /// Transactional reads in committed transactions.
    pub committed_reads: u64,
    /// Transactional writes in committed transactions.
    pub committed_writes: u64,
}

impl HtmStats {
    /// Total aborts of all kinds.
    pub fn total_aborts(&self) -> u64 {
        self.aborts_conflict
            + self.aborts_capacity
            + self.aborts_explicit
            + self.aborts_preempted
            + self.aborts_other
    }

    /// The abort counters as a [`CauseCounts`] block (canonical taxonomy).
    pub fn cause_counts(&self) -> CauseCounts {
        let mut c = CauseCounts::new();
        c.add_n(AbortCause::Conflict, self.aborts_conflict);
        c.add_n(AbortCause::Capacity, self.aborts_capacity);
        c.add_n(AbortCause::Explicit, self.aborts_explicit);
        c.add_n(AbortCause::Preempted, self.aborts_preempted);
        c.add_n(AbortCause::Spurious, self.aborts_other);
        c
    }

    /// Reports every counter into `reg` under the `htm.` namespace.
    pub fn report(&self, reg: &mut MetricsRegistry) {
        reg.add("htm.tx_begun", self.begun);
        reg.add("htm.tx_committed", self.committed);
        reg.add("htm.committed_reads", self.committed_reads);
        reg.add("htm.committed_writes", self.committed_writes);
        self.cause_counts().report(reg, "htm");
    }

    /// Element-wise sum (for whole-run aggregation).
    pub fn merged(self, other: HtmStats) -> HtmStats {
        HtmStats {
            begun: self.begun + other.begun,
            committed: self.committed + other.committed,
            aborts_conflict: self.aborts_conflict + other.aborts_conflict,
            aborts_capacity: self.aborts_capacity + other.aborts_capacity,
            aborts_explicit: self.aborts_explicit + other.aborts_explicit,
            aborts_preempted: self.aborts_preempted + other.aborts_preempted,
            aborts_other: self.aborts_other + other.aborts_other,
            committed_reads: self.committed_reads + other.committed_reads,
            committed_writes: self.committed_writes + other.committed_writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_events() {
        let s = HtmThreadStats::default();
        s.on_begin();
        s.on_begin();
        s.on_commit(10, 3);
        s.on_abort(AbortCause::Capacity);
        let snap = s.snapshot();
        assert_eq!(snap.begun, 2);
        assert_eq!(snap.committed, 1);
        assert_eq!(snap.aborts_capacity, 1);
        assert_eq!(snap.committed_reads, 10);
        assert_eq!(snap.committed_writes, 3);
        assert_eq!(snap.total_aborts(), 1);
    }

    #[test]
    fn each_cause_lands_in_its_own_field() {
        for cause in AbortCause::ALL {
            let s = HtmThreadStats::default();
            s.on_abort(cause);
            let snap = s.snapshot();
            assert_eq!(snap.cause_counts().get(cause), 1, "{cause}");
            assert_eq!(snap.total_aborts(), 1, "{cause}");
            s.reset();
            assert_eq!(s.snapshot(), HtmStats::default(), "{cause}");
        }
    }

    #[test]
    fn merged_adds_fields() {
        let a = HtmStats {
            begun: 1,
            committed: 1,
            aborts_conflict: 2,
            ..Default::default()
        };
        let b = HtmStats {
            begun: 3,
            aborts_conflict: 1,
            aborts_other: 5,
            ..Default::default()
        };
        let m = a.merged(b);
        assert_eq!(m.begun, 4);
        assert_eq!(m.aborts_conflict, 3);
        assert_eq!(m.total_aborts(), 8);
    }

    #[test]
    fn preempted_aborts_are_counted_and_reported() {
        let s = HtmThreadStats::default();
        s.on_begin();
        s.on_abort(AbortCause::Preempted);
        let snap = s.snapshot();
        assert_eq!(snap.aborts_preempted, 1);
        assert_eq!(snap.total_aborts(), 1);
        assert_eq!(snap.cause_counts().get(AbortCause::Preempted), 1);
        let mut reg = MetricsRegistry::new();
        snap.report(&mut reg);
        assert_eq!(reg.counter("htm.aborts.preempted"), 1);
        assert_eq!(reg.counter("htm.tx_begun"), 1);
    }
}
