//! Deterministic, mergeable DDSketch over `u64` nanosecond samples.
//!
//! The sketch stores counts in logarithmically-spaced buckets: a value
//! `v > 0` lands in bucket `key = ceil(ln v / ln γ)` where
//! `γ = (1 + α) / (1 - α)`, so every bucket's midpoint estimate
//! `2 γ^key / (γ + 1)` is within relative error `α` of any value the
//! bucket holds. Two properties matter here beyond the usual DDSketch
//! guarantees:
//!
//! - **Determinism.** Buckets live in a `BTreeMap` keyed by the integer
//!   bucket index; iteration order is the key order, never insertion
//!   order, so two sketches fed the same multiset of samples — in any
//!   order — serialize and answer quantile queries identically.
//! - **Merge order invariance.** Merging adds bucket counts, and `u64`
//!   addition is associative and commutative, so folding N per-interval
//!   (or per-core) sketches together yields the same quantiles no matter
//!   how the fold is parenthesized. This is what lets the monitor keep
//!   cheap per-interval sketches and still report exact-window
//!   cumulative quantiles.
//!
//! At the default `α = 0.01` the full simulated-latency range (1 ns to
//! ~100 s) spans fewer than 1300 buckets, so no bucket collapsing is
//! needed: accuracy never degrades with sample count.

use std::collections::BTreeMap;

/// Relative-error-bounded quantile sketch over non-negative integers.
#[derive(Clone, Debug, PartialEq)]
pub struct DdSketch {
    alpha: f64,
    gamma: f64,
    ln_gamma: f64,
    /// Bucket index -> count. BTreeMap for deterministic order.
    buckets: BTreeMap<i32, u64>,
    /// Exact count of zero-valued samples (log buckets can't hold 0).
    zero_count: u64,
    count: u64,
    min: u64,
    max: u64,
}

impl DdSketch {
    /// New sketch with relative-error bound `alpha` (e.g. `0.01` for 1%).
    ///
    /// # Panics
    /// If `alpha` is not in `(0, 0.5)`.
    pub fn new(alpha: f64) -> DdSketch {
        assert!(
            alpha > 0.0 && alpha < 0.5,
            "DDSketch alpha must be in (0, 0.5), got {alpha}"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        DdSketch {
            alpha,
            gamma,
            ln_gamma: gamma.ln(),
            buckets: BTreeMap::new(),
            zero_count: 0,
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        if v == 0 {
            self.zero_count += 1;
        } else {
            let key = ((v as f64).ln() / self.ln_gamma).ceil() as i32;
            *self.buckets.entry(key).or_insert(0) += 1;
        }
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another sketch into this one. Requires matching `alpha`.
    ///
    /// # Panics
    /// If the two sketches were built with different error bounds.
    pub fn merge(&mut self, other: &DdSketch) {
        assert!(
            self.alpha == other.alpha,
            "cannot merge sketches with different alpha ({} vs {})",
            self.alpha,
            other.alpha
        );
        for (&key, &n) in &other.buckets {
            *self.buckets.entry(key).or_insert(0) += n;
        }
        self.zero_count += other.zero_count;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Drop all samples, keeping the configured error bound.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.zero_count = 0;
        self.count = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) of the recorded samples.
    ///
    /// Uses the lower-rank convention `rank = floor(q * (count - 1))`,
    /// matching an exact sorted-sample lookup, and clamps the bucket
    /// midpoint to the observed `[min, max]` so extreme quantiles never
    /// overshoot the data. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).floor() as u64;
        if rank < self.zero_count {
            return 0;
        }
        let mut seen = self.zero_count;
        for (&key, &n) in &self.buckets {
            seen += n;
            if rank < seen {
                let est = 2.0 * self.gamma.powi(key) / (self.gamma + 1.0);
                let est = est.round() as u64;
                return est.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = (q * (sorted.len() - 1) as f64).floor() as usize;
        sorted[rank]
    }

    #[test]
    fn empty_sketch_is_all_zeros() {
        let s = DdSketch::new(0.01);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), 0);
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        let mut s = DdSketch::new(0.01);
        s.record(1234);
        for q in [0.0, 0.5, 0.99, 1.0] {
            // min/max clamping pins a single sample exactly.
            assert_eq!(s.quantile(q), 1234);
        }
    }

    #[test]
    fn zeros_are_handled_exactly() {
        let mut s = DdSketch::new(0.01);
        for _ in 0..10 {
            s.record(0);
        }
        s.record(100);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(s.quantile(0.0), 0);
    }

    #[test]
    fn quantiles_track_exact_values_within_alpha() {
        let alpha = 0.01;
        let mut s = DdSketch::new(alpha);
        // Deterministic heavy-tail-ish spread over four decades.
        let mut vals: Vec<u64> = (1..=2000u64).map(|i| i * i * 37 % 900_001 + 1).collect();
        for &v in &vals {
            s.record(v);
        }
        vals.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&vals, q) as f64;
            let got = s.quantile(q) as f64;
            assert!(
                (got - exact).abs() <= alpha * exact + 1.0,
                "q={q}: sketch {got} vs exact {exact} exceeds alpha={alpha}"
            );
        }
    }

    #[test]
    fn merge_equals_bulk_record() {
        let mut a = DdSketch::new(0.02);
        let mut b = DdSketch::new(0.02);
        let mut all = DdSketch::new(0.02);
        for i in 0..500u64 {
            let v = (i * 7919) % 100_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all, "merge must equal recording into one sketch");
    }

    #[test]
    #[should_panic(expected = "different alpha")]
    fn merging_mismatched_alpha_panics() {
        let mut a = DdSketch::new(0.01);
        let b = DdSketch::new(0.02);
        a.merge(&b);
    }

    #[test]
    fn clear_resets_but_keeps_alpha() {
        let mut s = DdSketch::new(0.03);
        s.record(42);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.alpha, 0.03);
        assert_eq!(s.quantile(0.5), 0);
    }
}
