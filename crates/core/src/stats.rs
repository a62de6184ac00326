//! Per-thread StackTrack statistics (Figures 4-5 and the scan table).
//!
//! [`StThreadStats`] is built on the `st-obs` primitives: aborts are
//! attributed through a [`CauseCounts`] block and the paper's three skewed
//! distributions (segment lengths, scan depths, retire-to-free latency)
//! are recorded in [`LogHistogram`]s rather than sum-only counters. The
//! whole block reports into a [`MetricsRegistry`] under the `st.`
//! namespace via [`StThreadStats::report`].

use st_machine::Cycles;
use st_obs::{CauseCounts, LogHistogram, MetricsRegistry};

/// Counters a [`crate::StThread`] accumulates while executing operations.
#[derive(Debug, Default, Clone)]
pub struct StThreadStats {
    /// Operations completed.
    pub ops: u64,
    /// Operations that ran (at least partly) on the slow path.
    pub slow_ops: u64,
    /// Operations forced onto the slow path at start (Figure 5 mode).
    pub forced_slow_ops: u64,
    /// Segments committed.
    pub committed_segments: u64,
    /// Sum of committed segment lengths, in basic blocks.
    pub sum_segment_lengths: u64,
    /// Sum over operations of segments committed in that operation.
    pub sum_splits_per_op: u64,
    /// Segment aborts observed by the split engine.
    pub segment_aborts: u64,
    /// Calls to `FREE` (retires reaching the free set).
    pub free_calls: u64,
    /// `SCAN_AND_FREE` invocations.
    pub scans: u64,
    /// Words inspected across all scans.
    pub scan_words: u64,
    /// Thread inspections restarted by the split-counter protocol.
    pub scan_retries: u64,
    /// Objects actually freed.
    pub frees_completed: u64,
    /// Candidates kept alive by a found reference (returned to the set).
    pub survivors: u64,
    /// Virtual cycles spent inside scans.
    pub scan_cycles: Cycles,
    /// Virtual cycles spent probing scanned words against the candidate
    /// batch (index build + lookups), across all scans.
    pub scan_probe_cycles: Cycles,
    /// Thread inspections performed.
    pub threads_inspected: u64,
    /// Segment aborts attributed by cause (the canonical taxonomy).
    pub abort_causes: CauseCounts,
    /// Distribution of committed segment lengths, in basic blocks.
    pub seg_lengths: LogHistogram,
    /// Distribution of words inspected per completed scan.
    pub scan_depths: LogHistogram,
    /// Distribution of retire-to-free latency, in virtual cycles.
    pub free_latency: LogHistogram,
    /// Distribution of candidate-probe cycles per completed scan (the
    /// `scan.candidate_probe_cycles` metric).
    pub candidate_probe_cycles: LogHistogram,
}

impl StThreadStats {
    /// Average committed segment length, in basic blocks.
    pub fn avg_segment_length(&self) -> f64 {
        ratio(self.sum_segment_lengths, self.committed_segments)
    }

    /// Average committed segments ("splits") per operation.
    pub fn avg_splits_per_op(&self) -> f64 {
        ratio(self.sum_splits_per_op, self.ops)
    }

    /// Average words inspected per scan (the paper's "average stack depth
    /// inspected").
    pub fn avg_scan_depth(&self) -> f64 {
        ratio(self.scan_words, self.scans)
    }

    /// Element-wise sum.
    pub fn merged(&self, o: &StThreadStats) -> StThreadStats {
        StThreadStats {
            ops: self.ops + o.ops,
            slow_ops: self.slow_ops + o.slow_ops,
            forced_slow_ops: self.forced_slow_ops + o.forced_slow_ops,
            committed_segments: self.committed_segments + o.committed_segments,
            sum_segment_lengths: self.sum_segment_lengths + o.sum_segment_lengths,
            sum_splits_per_op: self.sum_splits_per_op + o.sum_splits_per_op,
            segment_aborts: self.segment_aborts + o.segment_aborts,
            free_calls: self.free_calls + o.free_calls,
            scans: self.scans + o.scans,
            scan_words: self.scan_words + o.scan_words,
            scan_retries: self.scan_retries + o.scan_retries,
            frees_completed: self.frees_completed + o.frees_completed,
            survivors: self.survivors + o.survivors,
            scan_cycles: self.scan_cycles + o.scan_cycles,
            scan_probe_cycles: self.scan_probe_cycles + o.scan_probe_cycles,
            threads_inspected: self.threads_inspected + o.threads_inspected,
            abort_causes: self.abort_causes.merged(&o.abort_causes),
            seg_lengths: merged_hist(&self.seg_lengths, &o.seg_lengths),
            scan_depths: merged_hist(&self.scan_depths, &o.scan_depths),
            free_latency: merged_hist(&self.free_latency, &o.free_latency),
            candidate_probe_cycles: merged_hist(
                &self.candidate_probe_cycles,
                &o.candidate_probe_cycles,
            ),
        }
    }

    /// Reports every counter and histogram into `reg` under the `st.`
    /// namespace (schema documented in `docs/METRICS.md`).
    pub fn report(&self, reg: &mut MetricsRegistry) {
        reg.add("st.ops", self.ops);
        reg.add("st.slow_ops", self.slow_ops);
        reg.add("st.forced_slow_ops", self.forced_slow_ops);
        reg.add("st.committed_segments", self.committed_segments);
        reg.add("st.segment_aborts", self.segment_aborts);
        reg.add("st.free_calls", self.free_calls);
        reg.add("st.scans", self.scans);
        reg.add("st.scan_words", self.scan_words);
        reg.add("st.scan_retries", self.scan_retries);
        reg.add("st.frees_completed", self.frees_completed);
        reg.add("st.survivors", self.survivors);
        reg.add("st.scan_cycles", self.scan_cycles);
        reg.add("st.scan_probe_cycles", self.scan_probe_cycles);
        reg.add("st.threads_inspected", self.threads_inspected);
        self.abort_causes.report(reg, "st");
        reg.record_hist("st.segment_length", &self.seg_lengths);
        reg.record_hist("st.scan_depth", &self.scan_depths);
        reg.record_hist("st.free_latency_cycles", &self.free_latency);
        reg.record_hist("scan.candidate_probe_cycles", &self.candidate_probe_cycles);
    }
}

fn merged_hist(a: &LogHistogram, b: &LogHistogram) -> LogHistogram {
    let mut out = a.clone();
    out.merge(b);
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_guard_division_by_zero() {
        let s = StThreadStats::default();
        assert_eq!(s.avg_segment_length(), 0.0);
        assert_eq!(s.avg_splits_per_op(), 0.0);
        assert_eq!(s.avg_scan_depth(), 0.0);
    }

    #[test]
    fn averages_compute() {
        let s = StThreadStats {
            ops: 2,
            committed_segments: 4,
            sum_segment_lengths: 40,
            sum_splits_per_op: 4,
            scans: 2,
            scan_words: 100,
            ..Default::default()
        };
        assert_eq!(s.avg_segment_length(), 10.0);
        assert_eq!(s.avg_splits_per_op(), 2.0);
        assert_eq!(s.avg_scan_depth(), 50.0);
    }

    #[test]
    fn merged_sums() {
        let a = StThreadStats {
            ops: 1,
            scans: 2,
            ..Default::default()
        };
        let b = StThreadStats {
            ops: 3,
            scan_retries: 1,
            ..Default::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.ops, 4);
        assert_eq!(m.scans, 2);
        assert_eq!(m.scan_retries, 1);
    }

    #[test]
    fn merged_combines_causes_and_histograms() {
        use st_obs::AbortCause;
        let mut a = StThreadStats::default();
        a.abort_causes.add(AbortCause::Conflict);
        a.seg_lengths.record(8);
        let mut b = StThreadStats::default();
        b.abort_causes.add(AbortCause::Conflict);
        b.abort_causes.add(AbortCause::Preempted);
        b.seg_lengths.record(32);
        b.free_latency.record(1_000);
        let m = a.merged(&b);
        assert_eq!(m.abort_causes.get(AbortCause::Conflict), 2);
        assert_eq!(m.abort_causes.get(AbortCause::Preempted), 1);
        assert_eq!(m.seg_lengths.count(), 2);
        assert_eq!(m.free_latency.count(), 1);
    }

    #[test]
    fn report_exports_the_full_schema() {
        let mut s = StThreadStats {
            ops: 5,
            scans: 1,
            scan_probe_cycles: 42,
            ..Default::default()
        };
        s.seg_lengths.record(4);
        s.scan_depths.record(64);
        s.free_latency.record(900);
        s.candidate_probe_cycles.record(42);
        let mut reg = MetricsRegistry::new();
        s.report(&mut reg);
        assert_eq!(reg.counter("st.ops"), 5);
        assert_eq!(reg.counter("st.aborts.preempted"), 0);
        assert_eq!(reg.counter("st.scan_probe_cycles"), 42);
        assert_eq!(reg.histogram("st.segment_length").unwrap().count(), 1);
        assert_eq!(reg.histogram("st.scan_depth").unwrap().count(), 1);
        assert_eq!(reg.histogram("st.free_latency_cycles").unwrap().sum(), 900);
        assert_eq!(
            reg.histogram("scan.candidate_probe_cycles").unwrap().sum(),
            42
        );
    }
}
