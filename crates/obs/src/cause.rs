//! The canonical abort-cause taxonomy.
//!
//! Every layer that can kill a transactional segment reports through this
//! enum so the bench harness can answer the paper's central question — *why*
//! do segments abort — uniformly across schemes. It is the only abort
//! taxonomy in the workspace:
//!
//! - `simhtm`'s `Abort` carries an [`AbortCause`], and the engine counts
//!   each abort under it: data conflicts, capacity overflow, spurious
//!   aborts, explicit `tx_abort`, and preemption (`tx_abort_preempted`,
//!   which StackTrack's split engine calls when the scheduler descheduled
//!   the thread mid-segment, as real HTM always aborts then).
//! - `stacktrack::thread` counts the same cause per aborted segment.
//!
//! [`CauseCounts`] is the fixed-size counter block used by per-thread stats;
//! it merges element-wise and reports into a [`MetricsRegistry`]
//! (`crate::MetricsRegistry`) under `<prefix>.aborts.<cause>` keys.

use crate::registry::MetricsRegistry;

/// Why a transactional segment (or HTM transaction) aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// Read/write or write/write conflict with a concurrent transaction.
    Conflict,
    /// The read or write set overflowed the simulated HTM capacity.
    Capacity,
    /// The program requested the abort (`XABORT`, the engine's `tx_abort`).
    Explicit,
    /// Spurious abort injected by the simulator (models interrupts,
    /// unsupported instructions and other unexplained HTM failures on real
    /// hardware).
    Spurious,
    /// The scheduler preempted the thread while a segment was live; real
    /// HTM aborts on any context switch.
    Preempted,
}

impl AbortCause {
    /// All causes, in serialization order.
    pub const ALL: [AbortCause; 5] = [
        AbortCause::Conflict,
        AbortCause::Capacity,
        AbortCause::Explicit,
        AbortCause::Spurious,
        AbortCause::Preempted,
    ];

    /// The stable snake_case key used in metric names and JSON snapshots.
    pub fn key(self) -> &'static str {
        match self {
            AbortCause::Conflict => "conflict",
            AbortCause::Capacity => "capacity",
            AbortCause::Explicit => "explicit",
            AbortCause::Spurious => "spurious",
            AbortCause::Preempted => "preempted",
        }
    }

    /// The cause's position in [`AbortCause::ALL`], for per-cause arrays.
    pub const fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for AbortCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// A fixed-size block of per-cause abort counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CauseCounts([u64; 5]);

impl CauseCounts {
    /// All-zero counters.
    pub const fn new() -> CauseCounts {
        CauseCounts([0; 5])
    }

    /// Increments the counter for `cause`.
    pub fn add(&mut self, cause: AbortCause) {
        self.0[cause.index()] += 1;
    }

    /// Adds `n` to the counter for `cause`.
    pub fn add_n(&mut self, cause: AbortCause, n: u64) {
        self.0[cause.index()] += n;
    }

    /// The count for one cause.
    pub fn get(&self, cause: AbortCause) -> u64 {
        self.0[cause.index()]
    }

    /// Total aborts across all causes.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Element-wise sum of two counter blocks.
    pub fn merged(&self, other: &CauseCounts) -> CauseCounts {
        let mut out = *self;
        for (a, b) in out.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
        out
    }

    /// Reports each cause as `<prefix>.aborts.<cause>` into `reg`.
    ///
    /// Zero counters are reported too, so every snapshot carries the full
    /// taxonomy and downstream tables never have missing columns.
    pub fn report(&self, reg: &mut MetricsRegistry, prefix: &str) {
        for cause in AbortCause::ALL {
            reg.add(&format!("{prefix}.aborts.{cause}"), self.get(cause));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_distinct() {
        let keys: Vec<_> = AbortCause::ALL.iter().map(|c| c.key()).collect();
        assert_eq!(
            keys,
            ["conflict", "capacity", "explicit", "spurious", "preempted"]
        );
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, cause) in AbortCause::ALL.into_iter().enumerate() {
            assert_eq!(cause.index(), i, "{cause}");
        }
    }

    #[test]
    fn add_get_total() {
        let mut c = CauseCounts::new();
        c.add(AbortCause::Conflict);
        c.add(AbortCause::Conflict);
        c.add_n(AbortCause::Preempted, 5);
        assert_eq!(c.get(AbortCause::Conflict), 2);
        assert_eq!(c.get(AbortCause::Preempted), 5);
        assert_eq!(c.get(AbortCause::Capacity), 0);
        assert_eq!(c.total(), 7);
    }

    #[test]
    fn merged_is_element_wise() {
        let mut a = CauseCounts::new();
        a.add(AbortCause::Capacity);
        let mut b = CauseCounts::new();
        b.add(AbortCause::Capacity);
        b.add(AbortCause::Explicit);
        let m = a.merged(&b);
        assert_eq!(m.get(AbortCause::Capacity), 2);
        assert_eq!(m.get(AbortCause::Explicit), 1);
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn report_emits_full_taxonomy() {
        let mut c = CauseCounts::new();
        c.add(AbortCause::Spurious);
        let mut reg = MetricsRegistry::new();
        c.report(&mut reg, "st");
        assert_eq!(reg.counter("st.aborts.spurious"), 1);
        // Zero causes are present, not absent.
        assert_eq!(reg.counter("st.aborts.conflict"), 0);
        assert!(reg.to_json().to_string().contains("st.aborts.preempted"));
    }
}
