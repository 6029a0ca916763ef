//! Log-linear latency histogram.
//!
//! An HdrHistogram-style structure: values are bucketed with a fixed number
//! of linear sub-buckets per power-of-two range, giving bounded relative
//! error (< 1.6% with 6 sub-bucket bits) at O(1) record cost and a few KiB
//! of memory — suitable for recording millions of per-operation latencies.

use crate::time::SimDuration;

/// Number of low-order bits resolved exactly within each power-of-two range.
const SUB_BITS: u32 = 6;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Number of power-of-two ranges above the exact region (covers u64).
const RANGES: usize = 64;

/// A histogram of `u64` values (nanoseconds, in practice).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Exact counts for values < 2^(SUB_BITS+1).
    /// Bucket layout: `buckets[range][sub]`, flattened.
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

// Bucket arithmetic: indices are `< RANGES * SUB_COUNT` by construction
// and quantile targets are clamped into `[1, total]`, so the `as` casts
// in this impl cannot truncate meaningfully.
#[allow(clippy::cast_possible_truncation)]
impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; RANGES * SUB_COUNT as usize],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Index of the bucket holding `v`.
    #[inline]
    fn index_of(v: u64) -> usize {
        if v < 2 * SUB_COUNT {
            // Values below 2*SUB_COUNT are exact: ranges 0 and 1.
            v as usize
        } else {
            // range = position of the highest set bit above the sub-bits.
            let msb = 63 - v.leading_zeros() as u64; // >= SUB_BITS+1 here
            let range = msb - SUB_BITS as u64; // >= 1
            let sub = (v >> (msb - SUB_BITS as u64)) & (SUB_COUNT - 1);
            (range * SUB_COUNT + SUB_COUNT + sub) as usize
        }
    }

    /// Representative (midpoint) value of bucket `idx`.
    fn value_of(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < 2 * SUB_COUNT {
            idx
        } else {
            let range = (idx - SUB_COUNT) / SUB_COUNT;
            let sub = idx & (SUB_COUNT - 1);
            // Bucket covers [(SUB_COUNT+sub) << range, (SUB_COUNT+sub+1) << range).
            let base = (SUB_COUNT + sub)
                .checked_shl(range as u32)
                .unwrap_or(u64::MAX);
            let span = 1u64.checked_shl(range as u32).unwrap_or(u64::MAX);
            base.saturating_add(span / 2)
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = Self::index_of(v).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += v as u128;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Record a duration (as nanoseconds).
    #[inline]
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate value at quantile `q` in `[0, 1]`.
    ///
    /// Returns 0 when empty. Relative error is bounded by the sub-bucket
    /// resolution (< 1.6%).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_of(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }
    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }
    /// 99th percentile — the paper's "99% tail latency".
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Reset to empty without releasing memory.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 99);
        assert!((h.mean() - 49.5).abs() < 1e-9);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn quantiles_bounded_relative_error() {
        let mut h = Histogram::new();
        // Uniform 1..=1_000_000 ns.
        for v in (1..=1_000_000u64).step_by(37) {
            h.record(v);
        }
        for (q, expect) in [(0.5, 500_000.0), (0.95, 950_000.0), (0.99, 990_000.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.03, "q={q}: got {got}, expect {expect}, rel {rel}");
        }
    }

    #[test]
    fn quantile_clamped_to_observed_range() {
        let mut h = Histogram::new();
        h.record(1000);
        assert_eq!(h.quantile(0.01), 1000);
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.p50(), 1000);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(5);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn index_monotone_in_value() {
        let mut last = 0usize;
        for shift in 0..60 {
            let v = 1u64 << shift;
            let idx = Histogram::index_of(v);
            assert!(idx >= last, "index must be monotone at v={v}");
            last = idx;
        }
    }
}
