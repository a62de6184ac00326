//! Per-thread StackTrack statistics (Figures 4-5 and the scan table).
//!
//! [`StThreadStats`] is built on the `st-obs` primitives: aborts are
//! attributed through a [`CauseCounts`] block and the paper's three skewed
//! distributions (segment lengths, scan depths, retire-to-free latency)
//! are recorded in [`LogHistogram`]s rather than sum-only counters. The
//! whole block reports into a [`MetricsRegistry`] under the `st.`
//! namespace via [`StThreadStats::report`].

use st_machine::Cycles;
use st_obs::{CauseCounts, LogHistogram, MetricId, MetricSchema, MetricsRegistry, ScratchRegistry};
use std::sync::OnceLock;

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
    ///
    /// Keys are interned once per process (`st_schema`); each call fills
    /// a thread-local flat scratch and merges it in at the end, so the
    /// report path does no string lookups. The key set and JSON output are
    /// identical to direct string-keyed recording.
    pub fn report(&self, reg: &mut MetricsRegistry) {
        let ids = st_schema();
        let mut scratch = ScratchRegistry::for_schema(&ids.schema);
        scratch.add(ids.ops, self.ops);
        scratch.add(ids.slow_ops, self.slow_ops);
        scratch.add(ids.forced_slow_ops, self.forced_slow_ops);
        scratch.add(ids.committed_segments, self.committed_segments);
        scratch.add(ids.segment_aborts, self.segment_aborts);
        scratch.add(ids.free_calls, self.free_calls);
        scratch.add(ids.scans, self.scans);
        scratch.add(ids.scan_words, self.scan_words);
        scratch.add(ids.scan_retries, self.scan_retries);
        scratch.add(ids.frees_completed, self.frees_completed);
        scratch.add(ids.survivors, self.survivors);
        scratch.add(ids.scan_cycles, self.scan_cycles);
        scratch.add(ids.scan_probe_cycles, self.scan_probe_cycles);
        scratch.add(ids.threads_inspected, self.threads_inspected);
        self.abort_causes.report_interned(&mut scratch, &ids.aborts);
        scratch.record_hist(ids.segment_length, &self.seg_lengths);
        scratch.record_hist(ids.scan_depth, &self.scan_depths);
        scratch.record_hist(ids.free_latency_cycles, &self.free_latency);
        scratch.record_hist(ids.candidate_probe_cycles, &self.candidate_probe_cycles);
        scratch.merge_into(&ids.schema, reg);
    }
}

/// The interned `st.` metric schema: every key name is resolved to a
/// [`MetricId`] exactly once per process, at first report.
struct StSchemaIds {
    schema: MetricSchema,
    ops: MetricId,
    slow_ops: MetricId,
    forced_slow_ops: MetricId,
    committed_segments: MetricId,
    segment_aborts: MetricId,
    free_calls: MetricId,
    scans: MetricId,
    scan_words: MetricId,
    scan_retries: MetricId,
    frees_completed: MetricId,
    survivors: MetricId,
    scan_cycles: MetricId,
    scan_probe_cycles: MetricId,
    threads_inspected: MetricId,
    aborts: [MetricId; 5],
    segment_length: MetricId,
    scan_depth: MetricId,
    free_latency_cycles: MetricId,
    candidate_probe_cycles: MetricId,
}

fn st_schema() -> &'static StSchemaIds {
    static SCHEMA: OnceLock<StSchemaIds> = OnceLock::new();
    SCHEMA.get_or_init(|| {
        let mut s = MetricSchema::new();
        StSchemaIds {
            ops: s.intern("st.ops"),
            slow_ops: s.intern("st.slow_ops"),
            forced_slow_ops: s.intern("st.forced_slow_ops"),
            committed_segments: s.intern("st.committed_segments"),
            segment_aborts: s.intern("st.segment_aborts"),
            free_calls: s.intern("st.free_calls"),
            scans: s.intern("st.scans"),
            scan_words: s.intern("st.scan_words"),
            scan_retries: s.intern("st.scan_retries"),
            frees_completed: s.intern("st.frees_completed"),
            survivors: s.intern("st.survivors"),
            scan_cycles: s.intern("st.scan_cycles"),
            scan_probe_cycles: s.intern("st.scan_probe_cycles"),
            threads_inspected: s.intern("st.threads_inspected"),
            aborts: CauseCounts::intern_keys(&mut s, "st"),
            segment_length: s.intern("st.segment_length"),
            scan_depth: s.intern("st.scan_depth"),
            free_latency_cycles: s.intern("st.free_latency_cycles"),
            candidate_probe_cycles: s.intern("scan.candidate_probe_cycles"),
            schema: s,
        }
    })
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
