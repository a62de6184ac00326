//! Log-scale histograms for skewed simulator distributions.
//!
//! Segment lengths, scan depths, and retire-to-free latencies all span
//! several orders of magnitude, so linear buckets are useless. A
//! [`LogHistogram`] keeps one bucket per power of two (65 buckets cover the
//! whole `u64` range), plus exact `count`/`sum`/`min`/`max` so means are not
//! distorted by bucketing. Merge is element-wise, making per-thread
//! histograms cheap to aggregate into a per-run view.

use crate::json::{Json, JsonError};

/// Number of buckets: one for zero plus one per power of two up to 2^63.
pub const BUCKETS: usize = 65;

/// A histogram with power-of-two buckets and exact summary statistics.
///
/// Bucket 0 holds the value `0`; bucket `k` (for `k >= 1`) holds values `v`
/// with `2^(k-1) <= v < 2^k`, i.e. `k = 64 - v.leading_zeros()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub const fn new() -> LogHistogram {
        LogHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records `n` identical samples at once.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Adds every sample of `other` into `self` (element-wise).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Serializes to the snapshot schema (see `docs/METRICS.md`).
    ///
    /// Buckets are written sparsely as `[index, count]` pairs so that empty
    /// histograms stay small.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("count", self.count);
        obj.set("sum", self.sum);
        match (self.min(), self.max()) {
            (Some(min), Some(max)) => {
                obj.set("min", min);
                obj.set("max", max);
            }
            _ => {
                obj.set("min", Json::Null);
                obj.set("max", Json::Null);
            }
        }
        let mut sparse = Vec::new();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                sparse.push(Json::Arr(vec![Json::U64(i as u64), Json::U64(n)]));
            }
        }
        obj.set("buckets", Json::Arr(sparse));
        obj
    }

    /// Deserializes a histogram written by [`LogHistogram::to_json`].
    pub fn from_json(json: &Json) -> Result<LogHistogram, JsonError> {
        let bad = |msg| JsonError { at: 0, msg };
        let mut h = LogHistogram::new();
        h.count = json
            .get("count")
            .and_then(Json::as_u64)
            .ok_or(bad("histogram missing 'count'"))?;
        h.sum = json
            .get("sum")
            .and_then(Json::as_u64)
            .ok_or(bad("histogram missing 'sum'"))?;
        if h.count > 0 {
            h.min = json
                .get("min")
                .and_then(Json::as_u64)
                .ok_or(bad("histogram missing 'min'"))?;
            h.max = json
                .get("max")
                .and_then(Json::as_u64)
                .ok_or(bad("histogram missing 'max'"))?;
        }
        let sparse = json
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or(bad("histogram missing 'buckets'"))?;
        for pair in sparse {
            let pair = pair.as_arr().ok_or(bad("bucket entry is not a pair"))?;
            let (Some(i), Some(n)) = (
                pair.first().and_then(Json::as_u64),
                pair.get(1).and_then(Json::as_u64),
            ) else {
                return Err(bad("bucket entry is not [index, count]"));
            };
            let i = usize::try_from(i).ok().filter(|&i| i < BUCKETS);
            let i = i.ok_or(bad("bucket index out of range"))?;
            h.buckets[i] = n;
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(1023), 10);
        assert_eq!(LogHistogram::bucket_of(1024), 11);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn summary_statistics_are_exact() {
        let mut h = LogHistogram::new();
        for v in [5, 0, 100, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 112);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
    }

    #[test]
    fn empty_histogram_has_no_extremes() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn merge_is_element_wise() {
        let mut a = LogHistogram::new();
        a.record(3);
        a.record(300);
        let mut b = LogHistogram::new();
        b.record(1);
        b.record_n(3, 2);
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 310);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(300));
        assert_eq!(a.buckets()[2], 3); // the three 3s
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LogHistogram::new();
        a.record(42);
        let before = a.clone();
        a.merge(&LogHistogram::new());
        assert_eq!(a, before);
        let mut e = LogHistogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn json_round_trip() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 17, 17, 9000, u64::MAX] {
            h.record(v);
        }
        let json = h.to_json();
        let back = LogHistogram::from_json(&json).unwrap();
        assert_eq!(back, h);
        // And through text.
        let text = json.to_string();
        let back2 = LogHistogram::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back2, h);
    }

    #[test]
    fn empty_json_round_trip() {
        let h = LogHistogram::new();
        let back = LogHistogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(LogHistogram::from_json(&Json::obj()).is_err());
        let mut bad = LogHistogram::new().to_json();
        bad.set("buckets", Json::Arr(vec![Json::U64(3)]));
        assert!(LogHistogram::from_json(&bad).is_err());
    }
}
