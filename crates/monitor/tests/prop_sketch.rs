//! Property tests for the DDSketch quantile sketch.
//!
//! The monitor's correctness rests on two sketch guarantees: quantile
//! answers stay within the configured relative-error bound of the exact
//! sorted-sample quantiles (for *any* input multiset), and merging is
//! associative and commutative so interval roll-ups can be folded in any
//! order — per-core, per-interval, or all at once — without changing one
//! reported percentile.

use hns_monitor::DdSketch;
use proptest::prelude::*;

/// Exact lower-rank quantile, matching `DdSketch::quantile`'s convention.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * (sorted.len() - 1) as f64).floor() as usize;
    sorted[rank]
}

fn sketch_of(alpha: f64, vals: &[u64]) -> DdSketch {
    let mut s = DdSketch::new(alpha);
    for &v in vals {
        s.record(v);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every quantile answer is within `alpha` (relative) of the exact
    /// sorted-sample quantile, across a 7-decade value range and both
    /// supported error bounds.
    #[test]
    fn quantiles_respect_relative_error_bound(
        tight in any::<bool>(),
        vals in proptest::collection::vec(0u64..10_000_000, 1..500),
    ) {
        let alpha = if tight { 0.01 } else { 0.05 };
        let s = sketch_of(alpha, &vals);
        let mut vals = vals;
        vals.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&vals, q);
            let got = s.quantile(q);
            let err = (got as f64 - exact as f64).abs();
            prop_assert!(
                err <= alpha * exact as f64 + 1.0,
                "q={} sketch={} exact={} alpha={}",
                q, got, exact, alpha
            );
        }
    }

    /// Merge is commutative: a∪b answers exactly like b∪a.
    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(0u64..1_000_000, 0..200),
        b in proptest::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let (sa, sb) = (sketch_of(0.01, &a), sketch_of(0.01, &b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba, "merge order changed the sketch");
        for q in [0.0, 0.5, 0.99, 1.0] {
            prop_assert_eq!(ab.quantile(q), ba.quantile(q));
        }
    }

    /// Merge is associative: (a∪b)∪c equals a∪(b∪c), and both equal
    /// recording everything into one sketch.
    #[test]
    fn merge_is_associative_and_lossless(
        a in proptest::collection::vec(0u64..1_000_000, 0..150),
        b in proptest::collection::vec(0u64..1_000_000, 0..150),
        c in proptest::collection::vec(0u64..1_000_000, 0..150),
    ) {
        let (sa, sb, sc) = (
            sketch_of(0.02, &a),
            sketch_of(0.02, &b),
            sketch_of(0.02, &c),
        );
        let mut left = sa.clone(); // (a ∪ b) ∪ c
        left.merge(&sb);
        left.merge(&sc);
        let mut right = sb.clone(); // a ∪ (b ∪ c)
        right.merge(&sc);
        let mut right_full = sa.clone();
        right_full.merge(&right);
        prop_assert_eq!(&left, &right_full, "associativity broke the sketch");
        // Both equal the bulk sketch over the concatenation.
        let mut all: Vec<u64> = a.clone();
        all.extend(&b);
        all.extend(&c);
        let bulk = sketch_of(0.02, &all);
        prop_assert_eq!(&left, &bulk, "merge lost or invented samples");
    }

    /// Sample order never matters: any permutation of the input yields
    /// an identical sketch (count, sum, buckets, quantiles).
    #[test]
    fn record_order_is_irrelevant(
        vals in proptest::collection::vec(0u64..1_000_000, 1..300),
        rot in 0usize..300,
    ) {
        let fwd = sketch_of(0.01, &vals);
        let mut rotated = vals.clone();
        rotated.rotate_left(rot % vals.len());
        let rev: Vec<u64> = rotated.into_iter().rev().collect();
        let bwd = sketch_of(0.01, &rev);
        prop_assert_eq!(&fwd, &bwd, "sample order leaked into the sketch");
    }

    /// The count is exact regardless of bucketing, every quantile lies in
    /// the observed `[min, max]`, and the extreme quantiles are within α
    /// of the extreme samples.
    #[test]
    fn count_is_exact_and_quantiles_stay_in_range(
        vals in proptest::collection::vec(0u64..1_000_000, 1..300),
    ) {
        let s = sketch_of(0.01, &vals);
        prop_assert_eq!(s.count(), vals.len() as u64);
        let (min, max) = (*vals.iter().min().unwrap(), *vals.iter().max().unwrap());
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = s.quantile(q);
            prop_assert!(min <= v && v <= max, "q={} gave {} outside [{}, {}]", q, v, min, max);
        }
        for (q, exact) in [(0.0, min), (1.0, max)] {
            let got = s.quantile(q) as f64;
            prop_assert!((got - exact as f64).abs() <= 0.01 * exact as f64 + 1.0);
        }
    }
}
