//! The [`MetricsRegistry`]: an ordered, string-keyed map of typed metrics.
//!
//! Each key holds either a monotonic counter or a [`LogHistogram`]. Keys are
//! dotted paths (`"st.aborts.conflict"`, `"scheme.epoch.retired"`); the
//! registry itself imposes no namespace, but the conventions are documented
//! in `docs/METRICS.md`. Per-thread registries merge element-wise into a
//! per-run registry, which serializes into the versioned snapshot the bench
//! harness writes to `results/*.metrics.json`.

use std::collections::BTreeMap;

use crate::hist::LogHistogram;
use crate::json::{Json, JsonError};

/// One named metric: a counter or a histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Metric {
    /// A monotonic `u64` counter.
    Counter(u64),
    /// A log-scale histogram of samples, boxed so that a counter entry
    /// does not take a histogram's size (registries are built at report
    /// time only).
    Histogram(Box<LogHistogram>),
}

/// An ordered map from metric name to [`Metric`].
///
/// Sorted key order (via `BTreeMap`) makes snapshots diffable and table
/// generation deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `n` to the counter named `key`, creating it at zero first.
    ///
    /// Re-recording an existing key allocates nothing; only a key's first
    /// touch copies the name into the map.
    ///
    /// # Panics
    /// If `key` already names a histogram.
    pub fn add(&mut self, key: &str, n: u64) {
        match self.metrics.get_mut(key) {
            Some(Metric::Counter(c)) => *c += n,
            Some(Metric::Histogram(_)) => {
                panic!("metric '{key}' is a histogram, not a counter")
            }
            None => {
                self.insert_owned(key, Metric::Counter(n));
            }
        }
    }

    /// Sets the counter named `key` to exactly `n` (for gauges sampled once
    /// per run, e.g. outstanding garbage at teardown).
    pub fn set(&mut self, key: &str, n: u64) {
        match self.metrics.get_mut(key) {
            Some(m) => *m = Metric::Counter(n),
            None => self.insert_owned(key, Metric::Counter(n)),
        }
    }

    /// Records one sample into the histogram named `key`, creating it empty
    /// first.
    ///
    /// # Panics
    /// If `key` already names a counter.
    pub fn record(&mut self, key: &str, value: u64) {
        self.record_n(key, value, 1);
    }

    /// Records `n` identical samples into the histogram named `key`.
    pub fn record_n(&mut self, key: &str, value: u64, n: u64) {
        match self.metrics.get_mut(key) {
            Some(Metric::Histogram(h)) => h.record_n(value, n),
            Some(Metric::Counter(_)) => {
                panic!("metric '{key}' is a counter, not a histogram")
            }
            None => {
                let mut h = Box::new(LogHistogram::new());
                h.record_n(value, n);
                self.insert_owned(key, Metric::Histogram(h));
            }
        }
    }

    /// Merges an existing histogram into the one named `key`.
    pub fn record_hist(&mut self, key: &str, hist: &LogHistogram) {
        match self.metrics.get_mut(key) {
            Some(Metric::Histogram(h)) => h.merge(hist),
            Some(Metric::Counter(_)) => {
                panic!("metric '{key}' is a counter, not a histogram")
            }
            None => {
                let mut h = Box::new(LogHistogram::new());
                h.merge(hist);
                self.insert_owned(key, Metric::Histogram(h));
            }
        }
    }

    /// The cold half of every record path: a key's *first* touch copies
    /// the name into the map. Everything hotter goes through `get_mut`
    /// above.
    #[cold]
    fn insert_owned(&mut self, key: &str, metric: Metric) {
        self.metrics.insert(String::from(key), metric); // alloc-gate: allow — one-time key registration.
    }

    /// The counter named `key`, or 0 if absent.
    pub fn counter(&self, key: &str) -> u64 {
        match self.metrics.get(key) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// The histogram named `key`, if present.
    pub fn histogram(&self, key: &str) -> Option<&LogHistogram> {
        match self.metrics.get(key) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Iterates over `(name, metric)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Merges `other` into `self`: counters sum, histograms merge.
    ///
    /// # Panics
    /// If a key names a counter on one side and a histogram on the other.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (key, metric) in &other.metrics {
            match metric {
                Metric::Counter(n) => self.add(key, *n),
                Metric::Histogram(h) => self.record_hist(key, h),
            }
        }
    }

    /// Serializes to the snapshot schema (see `docs/METRICS.md`).
    ///
    /// Counters appear as bare numbers, histograms as objects with a
    /// `"count"` field — the consumer distinguishes them by shape.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (key, metric) in &self.metrics {
            match metric {
                Metric::Counter(n) => obj.set(key, *n),
                Metric::Histogram(h) => obj.set(key, h.to_json()),
            };
        }
        obj
    }

    /// Deserializes a registry written by [`MetricsRegistry::to_json`].
    pub fn from_json(json: &Json) -> Result<MetricsRegistry, JsonError> {
        let bad = |msg| JsonError { at: 0, msg };
        let fields = json.as_obj().ok_or(bad("registry is not an object"))?;
        let mut reg = MetricsRegistry::new();
        for (key, value) in fields {
            let metric = match value {
                Json::Obj(_) => Metric::Histogram(Box::new(LogHistogram::from_json(value)?)),
                _ => Metric::Counter(
                    value
                        .as_u64()
                        .ok_or(bad("counter value is not an unsigned integer"))?,
                ),
            };
            reg.metrics.insert(key.clone(), metric);
        }
        Ok(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut reg = MetricsRegistry::new();
        reg.add("a", 1);
        reg.add("a", 2);
        assert_eq!(reg.counter("a"), 3);
        assert_eq!(reg.counter("missing"), 0);
        reg.set("a", 10);
        assert_eq!(reg.counter("a"), 10);
    }

    #[test]
    fn histograms_accumulate() {
        let mut reg = MetricsRegistry::new();
        reg.record("h", 4);
        reg.record_n("h", 9, 3);
        let h = reg.histogram("h").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 31);
        assert!(reg.histogram("a").is_none());
    }

    #[test]
    #[should_panic(expected = "is a histogram")]
    fn counter_add_on_histogram_panics() {
        let mut reg = MetricsRegistry::new();
        reg.record("x", 1);
        reg.add("x", 1);
    }

    #[test]
    #[should_panic(expected = "is a counter")]
    fn record_on_counter_panics() {
        let mut reg = MetricsRegistry::new();
        reg.add("x", 1);
        reg.record("x", 1);
    }

    #[test]
    fn merge_sums_counters_and_merges_histograms() {
        let mut a = MetricsRegistry::new();
        a.add("ops", 3);
        a.record("len", 17);
        let mut b = MetricsRegistry::new();
        b.add("ops", 4);
        b.add("only_b", 1);
        b.record("len", 2);
        a.merge(&b);
        assert_eq!(a.counter("ops"), 7);
        assert_eq!(a.counter("only_b"), 1);
        let h = a.histogram("len").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(2));
        assert_eq!(h.max(), Some(17));
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = MetricsRegistry::new();
        a.add("ops", 5);
        a.record("len", 9);
        let before = a.clone();
        a.merge(&MetricsRegistry::new());
        assert_eq!(a, before);
        let mut e = MetricsRegistry::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let mut reg = MetricsRegistry::new();
        reg.add("scheme.epoch.retired", 1_000_000);
        reg.add("st.aborts.conflict", u64::MAX); // exact u64 fidelity
        reg.record("st.segment_length", 17);
        reg.record("st.segment_length", 0);
        reg.record("st.scan_depth", 4096);
        let text = reg.to_json().to_string();
        let back = MetricsRegistry::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, reg);
    }

    #[test]
    fn serialized_keys_are_sorted() {
        let mut reg = MetricsRegistry::new();
        reg.add("zzz", 1);
        reg.add("aaa", 1);
        let text = reg.to_json().to_string();
        assert!(text.find("aaa").unwrap() < text.find("zzz").unwrap());
    }

    #[test]
    fn from_json_rejects_bad_shapes() {
        assert!(MetricsRegistry::from_json(&Json::Arr(vec![])).is_err());
        assert!(MetricsRegistry::from_json(&Json::parse("{\"k\": -1}").unwrap()).is_err());
        assert!(MetricsRegistry::from_json(&Json::parse("{\"k\": {}}").unwrap()).is_err());
    }
}
