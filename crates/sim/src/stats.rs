//! Streaming statistics used to build the paper's figures.
//!
//! * [`Histogram`] — log-linear bucket histogram (HdrHistogram-style, two
//!   decimal digits of precision) supporting percentile queries; used for the
//!   NAPI→copy latency distribution (Fig. 3f) and the post-GRO skb size
//!   distribution (Fig. 8c).

/// Percentile summary extracted from a [`Histogram`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Percentiles {
    /// 50th percentile (median).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Maximum recorded value.
    pub max: u64,
}

/// Log-linear histogram over `u64` values.
///
/// Values are bucketed with ~1.6% relative resolution (64 linear buckets per
/// power of two), which is plenty for latency distributions spanning ns to
/// seconds. Memory is lazily grown, so an idle histogram costs nothing.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Default for Histogram {
    /// Delegates to [`Histogram::new`]: a derived `Default` would zero
    /// `min`, breaking the `min == u64::MAX` empty-state invariant that
    /// [`Histogram::record`] relies on.
    fn default() -> Self {
        Histogram::new()
    }
}

const SUB_BUCKET_BITS: u32 = 6; // 64 sub-buckets per octave
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        // Values below 64 get exact unit buckets.
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as u64;
    // Octave 0 covers [64, 128), octave 1 covers [128, 256), ...
    let octave = msb - SUB_BUCKET_BITS as u64;
    let sub = (value >> octave) - SUB_BUCKETS;
    (SUB_BUCKETS + octave * SUB_BUCKETS + sub) as usize
}

#[inline]
fn bucket_lower_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let octave = (index - SUB_BUCKETS) / SUB_BUCKETS;
    let sub = (index - SUB_BUCKETS) % SUB_BUCKETS;
    (SUB_BUCKETS + sub) << octave
}

impl Histogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Value at quantile `q` in `[0, 1]` (bucket lower bound, clamped to
    /// the recorded `[min, max]` range; 0 if empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // The bucket floor can undershoot the smallest recorded
                // value (record one 100 → the bucket holding it starts at
                // 96), so clamp from below as well as above.
                return bucket_lower_bound(i).min(self.max).max(self.min());
            }
        }
        self.max
    }

    /// Convenience percentile summary.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max,
        }
    }

    /// Reset all state (end of warmup).
    pub fn reset(&mut self) {
        self.buckets.clear();
        self.count = 0;
        self.sum = 0;
        self.max = 0;
        self.min = u64::MAX;
    }

    /// Iterate `(bucket_lower_bound, count)` over non-empty buckets, in
    /// increasing value order. Used to print distribution figures.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower_bound(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone() {
        let mut last = 0usize;
        for v in (0..100_000u64).step_by(37) {
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotone at {v}");
            last = idx;
        }
    }

    #[test]
    fn bucket_bounds_contain_values() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 65_535, 1 << 30] {
            let idx = bucket_index(v);
            let lb = bucket_lower_bound(idx);
            assert!(lb <= v, "lb {lb} > v {v}");
            // Upper bound of the bucket is the lower bound of the next one.
            let next_lb = bucket_lower_bound(idx + 1);
            assert!(v < next_lb, "v {v} >= next lb {next_lb}");
        }
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.percentiles().max, 63);
        assert_eq!(h.count(), 64);
    }

    #[test]
    fn histogram_percentiles_reasonable() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p = h.percentiles();
        // Log-linear buckets have ~1.6% resolution.
        assert!(
            (p.p50 as f64 - 5_000.0).abs() / 5_000.0 < 0.05,
            "p50={}",
            p.p50
        );
        assert!(
            (p.p99 as f64 - 9_900.0).abs() / 9_900.0 < 0.05,
            "p99={}",
            p.p99
        );
        assert_eq!(p.max, 10_000);
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert!((h.mean() - 20.0).abs() < 1e-9);
        assert_eq!(h.min(), 10);
    }

    #[test]
    fn histogram_default_keeps_empty_state_invariant() {
        // Regression: `#[derive(Default)]` zeroed `min`, so a defaulted
        // histogram reported `min() == 0` forever after the first record.
        let mut h = Histogram::default();
        h.record(100);
        assert_eq!(h.min(), 100);
        assert_eq!(h.percentiles().max, 100);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn quantile_never_undershoots_min() {
        // Regression: a single value of 100 lands in the [96, 100) bucket's
        // successor, whose lower bound is below 100; quantiles reported the
        // bucket floor.
        let mut h = Histogram::new();
        h.record(100);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 100, "q={q}");
        }
    }

    #[test]
    fn histogram_reset() {
        let mut h = Histogram::new();
        h.record(5);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }
}
