//! Fixed-bucket log2 histograms (HDR-style, no deps).
//!
//! 64 power-of-two buckets cover the full `u64` range; recording is one
//! `leading_zeros` plus a few adds, so the scheduler can feed it from
//! inside the critical section without a measurable cost.

use std::fmt;

pub(crate) const BUCKETS: usize = 64;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket `b` covers `[2^(b-1), 2^b)` (bucket 0 holds the value 0), which
/// bounds the relative error of any percentile estimate to 2x — plenty
/// for latency distributions that span six orders of magnitude.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The bucket holding `v`: the one log2 bucket rule both histograms use.
pub(crate) fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Rebuilds a histogram from raw parts (the atomic metrics mirror).
    /// `min` uses the `u64::MAX`-when-empty sentinel.
    pub(crate) fn from_parts(
        buckets: [u64; BUCKETS],
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) -> Self {
        Histogram {
            buckets,
            count,
            sum,
            min,
            max,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (`q` in `[0, 1]`): the top edge
    /// of the bucket holding the `ceil(q * count)`-th sample.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Top edge of bucket b, clamped to the observed max.
                let edge = if b == 0 { 0 } else { 1u64 << (b.min(63)) };
                return edge.min(self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self` (bucket-wise add; sum saturates like
    /// [`Histogram::record`]). Merging is associative and commutative, so
    /// per-shard histograms can be combined in any order.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*n);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        // `min` keeps the empty sentinel (u64::MAX) unless `other` has
        // samples; `min()`/`max()` already guard the empty case.
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Raw bucket counts (bucket `b` covers `[2^(b-1), 2^b)`).
    #[must_use]
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// A one-line summary: `count / mean / p50 / p99 / max`.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:.0} p50<={} p99<={} max={}",
            self.count,
            self.mean(),
            self.percentile(0.50),
            self.percentile(0.99),
            self.max()
        )
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn records_and_summarises() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - (1110.0 / 6.0)).abs() < 1e-9);
        // p50 of 6 samples is the 3rd (value 3, bucket [2,4)) -> edge 4.
        assert_eq!(h.percentile(0.5), 4);
        // p100 clamps to the observed max.
        assert_eq!(h.percentile(1.0), 1000);
    }

    #[test]
    fn merge_combines_and_keeps_empty_sentinel() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(3);
        a.record(100);
        b.record(1);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.min(), 1);
        assert_eq!(merged.max(), 100);
        assert_eq!(merged.sum(), 104);
        // Merging an empty histogram changes nothing (identity element).
        let before = format!("{a:?}");
        a.merge(&Histogram::new());
        assert_eq!(format!("{a:?}"), before);
        // Empty-into-empty keeps min()/max() reporting 0.
        let mut e = Histogram::new();
        e.merge(&Histogram::new());
        assert_eq!(e.min(), 0);
        assert_eq!(e.max(), 0);
    }

    #[test]
    fn empty_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
