//! Event counters and derived ratios.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::AddAssign;

/// A monotonically increasing event counter.
///
/// Wraps a `u64` with an API that makes accumulation sites explicit and
/// supports merging counters from independent components.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Self(0)
    }

    /// Records one event.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Records `n` events.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Count as `f64`, for ratio math.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Folds another counter into this one (for merging per-vault stats).
    pub fn merge(&mut self, other: Counter) {
        self.0 += other.0;
    }
}

impl AddAssign<u64> for Counter {
    fn add_assign(&mut self, rhs: u64) {
        self.add(rhs);
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// A hits-over-total ratio (hit rates, accuracies, conflict rates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ratio {
    /// Numerator events.
    pub hits: Counter,
    /// Denominator events.
    pub total: Counter,
}

impl Ratio {
    /// A zeroed ratio.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one denominator event that also counts toward the numerator.
    pub fn hit(&mut self) {
        self.hits.inc();
        self.total.inc();
    }

    /// Records one denominator-only event.
    pub fn miss(&mut self) {
        self.total.inc();
    }

    /// The ratio in `[0, 1]`; `None` when no events were recorded.
    #[must_use]
    pub fn value(self) -> Option<f64> {
        (self.total.get() > 0).then(|| self.hits.as_f64() / self.total.as_f64())
    }

    /// Folds another ratio into this one.
    pub fn merge(&mut self, other: Ratio) {
        self.hits.merge(other.hits);
        self.total.merge(other.total);
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value() {
            Some(v) => write!(f, "{:.2}% ({}/{})", v * 100.0, self.hits, self.total),
            None => write!(f, "n/a (0 events)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        c += 5;
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn counter_merge() {
        let mut a = Counter::new();
        a.add(3);
        let mut b = Counter::new();
        b.add(4);
        a.merge(b);
        assert_eq!(a.get(), 7);
    }

    #[test]
    fn empty_ratio_is_none() {
        assert_eq!(Ratio::new().value(), None);
    }

    #[test]
    fn ratio_math() {
        let mut r = Ratio::new();
        r.hit();
        r.hit();
        r.miss();
        r.miss();
        assert_eq!(r.value(), Some(0.5));
    }

    #[test]
    fn ratio_merge() {
        let mut a = Ratio::new();
        a.hit();
        let mut b = Ratio::new();
        b.miss();
        b.miss();
        b.hit();
        a.merge(b);
        assert_eq!(a.hits.get(), 2);
        assert_eq!(a.total.get(), 4);
    }

    #[test]
    fn display_formats() {
        let mut r = Ratio::new();
        r.hit();
        r.miss();
        assert!(r.to_string().starts_with("50.00%"));
        assert!(Ratio::new().to_string().contains("n/a"));
    }
}
