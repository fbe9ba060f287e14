//! Log₂ latency histograms.

use serde::{Deserialize, Serialize};

/// A log₂-bucketed histogram: bucket *i* covers `[2^i, 2^(i+1))` (bucket 0
/// covers `{0, 1}`). Good for long-tailed latency distributions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Log2Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
        }
    }

    /// Records one sample. The running sum saturates instead of
    /// overflowing, so pathological inputs (`u64::MAX` latencies)
    /// degrade the mean rather than aborting the run.
    pub fn record(&mut self, value: u64) {
        let idx = 64 - value.max(1).leading_zeros() as usize - 1;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value, `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Count in log bucket `i`.
    #[must_use]
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Index of the highest nonempty bucket, `None` if empty.
    #[must_use]
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&b| b > 0)
    }

    /// Folds another histogram into this one (sum saturates).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn log2_bucketing() {
        let mut h = Log2Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.bucket(10), 1);
        assert_eq!(h.max_bucket(), Some(10));
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn log2_empty() {
        let h = Log2Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.max_bucket(), None);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn log2_single_sample() {
        let mut h = Log2Histogram::new();
        h.record(37);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 37);
        assert_eq!(h.mean(), Some(37.0));
        assert_eq!(h.max_bucket(), Some(5));
    }

    #[test]
    fn log2_u64_max_lands_in_top_bucket_and_saturates() {
        let mut h = Log2Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX); // sum would overflow; must saturate instead
        assert_eq!(h.bucket(63), 2);
        assert_eq!(h.max_bucket(), Some(63));
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u64::MAX);
        assert!(h.mean().unwrap().is_finite());
    }

    #[test]
    fn log2_merge_empty_both_ways() {
        let mut full = Log2Histogram::new();
        full.record(8);
        full.record(9);
        let before = full.clone();
        full.merge(&Log2Histogram::new()); // nonempty ← empty
        assert_eq!(full, before);

        let mut empty = Log2Histogram::new();
        empty.merge(&before); // empty ← nonempty
        assert_eq!(empty, before);
    }

    #[test]
    fn log2_merge_saturates_sum() {
        let mut a = Log2Histogram::new();
        a.record(u64::MAX);
        let mut b = Log2Histogram::new();
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.sum(), u64::MAX);
        assert_eq!(a.count(), 2);
    }

    proptest! {
        #[test]
        fn log2_bucket_contains_value(v in 0u64..u64::MAX / 2) {
            let mut h = Log2Histogram::new();
            h.record(v);
            let i = h.max_bucket().unwrap();
            let lo = if i == 0 { 0 } else { 1u64 << i };
            prop_assert!(v.max(1) >= lo);
            prop_assert!(v.max(1) < (1u128 << (i + 1)) as u64 || i == 63);
        }
    }
}
