//! StackTrack configuration knobs.

/// How `SCAN_AND_FREE` inspects thread contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Algorithm 1 as printed: for every free candidate, walk every
    /// thread's stack and registers.
    Linear,
    /// The section 5.2 optimization: walk every thread once, hashing all
    /// scanned words, then probe each candidate against the hash set.
    Hashed,
    /// The default: walk every thread once and binary-search each scanned
    /// word against a sorted slice of the candidate batch, marking hits in
    /// a bitmap. Same single-pass shape as [`ScanMode::Hashed`] but the
    /// per-word probe is `O(log max_free)` compares over a contiguous
    /// slice instead of a hash-table lookup, and the batch index is
    /// rebuilt in place from reused buffers (no per-scan allocation).
    Batched,
}

/// Consecutive aborts of one segment before its limit shrinks by 1
/// (paper section 5.3).
pub const ABORT_STREAK: u32 = 5;

/// Consecutive commits of one segment before its limit grows by 1
/// (paper section 5.3).
pub const COMMIT_STREAK: u32 = 5;

/// Consecutive failures of a length-1 segment before the operation falls
/// back to the software slow path.
pub const SLOW_FAIL_THRESHOLD: u32 = 3;

/// Protocol mutations the model checker and the audit harness inject to
/// prove their oracles have teeth (see `docs/TESTING.md` and
/// `docs/AUDIT.md`). **Never set one in a real run.** Each scheme reads
/// only its own variants: a baseline once, when its executor is built,
/// StackTrack where the seeded check sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Protocols intact.
    None,
    /// StackTrack: skip the `splits`/`oper_counter` re-read after an
    /// inspection (Algorithm 1 lines 23-29), accepting torn snapshots.
    SkipSplitsRecheck,
    /// Hazard pointers: defer the publish/fence/revalidate of `load_ptr`
    /// to the next step boundary, un-protecting the node across a
    /// scheduling point.
    DeferHazardPublish,
    /// StackTrack: swallow one scan verdict that would free a candidate
    /// (one-shot per runtime; the block is neither freed nor kept as a
    /// survivor). The heap ledger must report it as a leak at teardown.
    SkipFree,
    /// Hazard pointers: issue the first retire twice (one-shot), planting
    /// a double-retire (and eventually a double free) the heap ledger
    /// must catch.
    DoubleRetire,
    /// NBR: ignore delivered neutralization signals, leaving the read
    /// phase's stale locals live across the reclaimer's free (the classic
    /// missed-signal bug; the use-after-free oracle must catch it).
    NbrSkipRestart,
    /// Hyaline: the dispatching thread skips its own reference decrement
    /// on the first batch (one-shot), so the batch's count never reaches
    /// zero and the ledger reports its nodes as leaks at teardown.
    HyalineDropDecrement,
}

impl Mutation {
    /// Short name (used in replay tokens and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::SkipSplitsRecheck => "splits",
            Mutation::DeferHazardPublish => "hazard",
            Mutation::SkipFree => "skipfree",
            Mutation::DoubleRetire => "dretire",
            Mutation::NbrSkipRestart => "nbrskip",
            Mutation::HyalineDropDecrement => "hyadrop",
        }
    }
}

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Mutation {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Ok(Mutation::None),
            "splits" => Ok(Mutation::SkipSplitsRecheck),
            "hazard" => Ok(Mutation::DeferHazardPublish),
            "skipfree" => Ok(Mutation::SkipFree),
            "dretire" => Ok(Mutation::DoubleRetire),
            "nbrskip" => Ok(Mutation::NbrSkipRestart),
            "hyadrop" => Ok(Mutation::HyalineDropDecrement),
            _ => Err(format!(
                "unknown mutation {s:?} (expected none, splits, hazard, skipfree, \
                 dretire, nbrskip, or hyadrop)"
            )),
        }
    }
}

/// Tunable parameters of the StackTrack runtime.
///
/// Defaults follow the paper: initial split length 50 basic blocks,
/// limits adjusted by one after [`ABORT_STREAK`]/[`COMMIT_STREAK`]
/// consecutive aborts/commits, scans amortized over batches of frees
/// ("the cost of the global scan becomes negligible ... when it executes
/// once per every 10 free memory calls").
#[derive(Debug, Clone)]
pub struct StConfig {
    /// Initial segment length, in basic blocks (paper: 50).
    pub initial_split_length: u32,
    /// Lower bound on segment length.
    pub min_split_length: u32,
    /// Upper bound on segment length.
    pub max_split_length: u32,
    /// `SCAN_AND_FREE` runs once the free set exceeds this size (paper's
    /// `max_free`).
    pub max_free: usize,
    /// Probability that an operation is forced onto the slow path at start
    /// (the Figure 5 experiment; 0.0 in normal operation).
    pub forced_slow_prob: f64,
    /// Scan strategy.
    pub scan_mode: ScanMode,
    /// Resolve interior pointers during scans via heap range queries
    /// (section 5.5). Costs a range query per scanned word.
    pub interior_pointers: bool,
    /// Expose the register file at segment commits. Disabling this is an
    /// ablation; safety is carried by the shadow stack slots.
    pub expose_registers: bool,
    /// Words inspected per scheduler step during a scan (scan
    /// interruptibility granularity).
    pub scan_chunk_words: u64,
    /// Seeded defect for the checker and the audit harness; StackTrack
    /// reads [`Mutation::SkipSplitsRecheck`] and [`Mutation::SkipFree`].
    pub mutation: Mutation,
}

impl Default for StConfig {
    fn default() -> Self {
        Self {
            initial_split_length: 50,
            min_split_length: 1,
            max_split_length: 200,
            max_free: 10,
            forced_slow_prob: 0.0,
            scan_mode: ScanMode::Batched,
            interior_pointers: false,
            expose_registers: true,
            scan_chunk_words: 24,
            mutation: Mutation::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = StConfig::default();
        assert_eq!(c.initial_split_length, 50);
        assert_eq!(ABORT_STREAK, 5);
        assert_eq!(COMMIT_STREAK, 5);
        assert_eq!(c.min_split_length, 1);
        assert_eq!(c.forced_slow_prob, 0.0);
    }
}
