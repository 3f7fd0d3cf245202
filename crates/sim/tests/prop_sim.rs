//! Property-based tests for the simulation engine.

use hns_sim::{
    cycles_to_time, time_to_cycles, Duration, EventQueue, Histogram, SimRng, SimTime, CPU_HZ,
};
use proptest::prelude::*;

proptest! {
    /// Events always pop in non-decreasing time order, and same-time events
    /// pop in scheduling (FIFO) order.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut popped: Vec<(u64, usize)> = Vec::new();
        while let Some((t, id)) = q.pop() {
            popped.push((t.as_nanos(), id));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Serialization time rounds exactly as `f64::round` does: random
    /// sizes and rates, exact .5 ties (odd byte counts at 16 Gb/s), and
    /// quotients above 2^52, where every f64 is already an integer.
    #[test]
    fn serialization_time_matches_f64_round(
        bytes in any::<u64>(),
        gbps in 0.001f64..1_000.0,
        pick in 0u8..4,
    ) {
        let (bytes, gbps) = match pick {
            0 => (bytes % 100_000, gbps),
            1 => ((bytes % 100_000) | 1, 16.0),
            2 => ((1 << 53) + bytes % (1 << 60), gbps.min(8.0)),
            _ => (bytes, gbps),
        };
        let want = ((bytes as f64 * 8.0) / gbps).round() as u64;
        prop_assert_eq!(
            Duration::for_bytes_at_gbps(bytes, gbps).as_nanos(),
            want,
            "{} B at {} Gb/s",
            bytes,
            gbps
        );
        if pick == 1 {
            prop_assert_eq!(want, bytes.div_ceil(2), "a .5 tie rounds up");
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn event_queue_cancellation(
        times in proptest::collection::vec(0u64..100, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let tok = q.schedule(SimTime::from_nanos(t), i);
            let cancel = *cancel_mask.get(i).unwrap_or(&false);
            if cancel {
                q.cancel(tok);
            } else {
                expected.push(i);
            }
        }
        let mut got: Vec<usize> = Vec::new();
        while let Some((_, id)) = q.pop() {
            got.push(id);
        }
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Histogram quantiles never exceed max, never undershoot min, and the
    /// count is exact.
    #[test]
    fn histogram_invariants(values in proptest::collection::vec(0u64..1_000_000_000, 1..500)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let max = *values.iter().max().unwrap();
        let min = *values.iter().min().unwrap();
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.percentiles().max, max);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            prop_assert!(v <= max, "quantile {q} = {v} above max {max}");
            prop_assert!(v >= min, "quantile {q} = {v} below min {min}");
        }
        prop_assert_eq!(h.quantile(0.0), min);
        let exact_mean = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
        prop_assert!((h.mean() - exact_mean).abs() < 1e-6 * exact_mean.max(1.0));
    }

    /// The median of a histogram is within bucket resolution (~3%) of the
    /// true median for well-populated data.
    #[test]
    fn histogram_median_accuracy(seed in 0u64..1_000) {
        let mut rng = SimRng::new(seed);
        let mut h = Histogram::new();
        let mut vals = Vec::with_capacity(2000);
        for _ in 0..2000 {
            let v = rng.range(1_000, 1_000_000);
            h.record(v);
            vals.push(v);
        }
        vals.sort_unstable();
        let true_median = vals[vals.len() / 2] as f64;
        let est = h.quantile(0.5) as f64;
        prop_assert!((est - true_median).abs() / true_median < 0.05,
            "est {est} true {true_median}");
    }

    /// RNG range stays within bounds.
    #[test]
    fn rng_range_bounds(seed in any::<u64>(), lo in 0u64..1_000, span in 1u64..1_000) {
        let mut r = SimRng::new(seed);
        for _ in 0..100 {
            let v = r.range(lo, lo + span);
            prop_assert!(v >= lo && v < lo + span);
        }
    }

    /// Duration arithmetic is consistent: (a + b) - b == a for non-saturating
    /// values.
    #[test]
    fn duration_add_sub_roundtrip(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64) {
        let da = Duration::from_nanos(a);
        let db = Duration::from_nanos(b);
        prop_assert_eq!((da + db) - db, da);
    }

    /// The cycle/time conversions equal the 128-bit formulas bit for bit
    /// over the whole `u64` range, huge inputs (whose products truncate)
    /// included: `x` is spread over every magnitude by its top bits.
    #[test]
    fn cycle_conversions_match_u128_formula(x in any::<u64>()) {
        for v in [x, x >> (x % 64), x % 1_000_000_007] {
            let ns = ((v as u128 * 1_000_000_000) / CPU_HZ as u128) as u64;
            prop_assert_eq!(cycles_to_time(v).as_nanos(), ns);
            let cycles = ((v as u128 * CPU_HZ as u128) / 1_000_000_000) as u64;
            prop_assert_eq!(time_to_cycles(Duration::from_nanos(v)), cycles);
        }
    }
}
