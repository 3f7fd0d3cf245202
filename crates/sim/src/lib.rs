//! # hns-sim — deterministic discrete-event simulation engine
//!
//! This crate is the substrate every other `hostnet` crate is built on. It
//! provides:
//!
//! * [`SimTime`] / [`Duration`] — nanosecond-resolution simulated time with
//!   convenience constructors and Gbps/cycles arithmetic helpers,
//! * [`EventQueue`] — a priority queue of timestamped events with
//!   deterministic FIFO tie-breaking for events scheduled at the same
//!   instant: each event is stored once in a slab, ordered by a
//!   hierarchical timer wheel of slot indices. A caller may keep events of
//!   its own outside the queue under keys from [`EventQueue::reserve`] —
//!   in FIFO [`Lanes`] for streams that are FIFO by construction — and
//!   [`EventQueue::pop_before`] merges both sides in one order
//!   ([`HeapEventQueue`] keeps the old binary heap around as the
//!   differential-testing oracle and benchmark baseline),
//! * [`SimRng`] — a small, fast, seedable PRNG (SplitMix64 seeded
//!   xoshiro256++) so simulations are bit-reproducible across platforms,
//! * [`stats`] — fixed-resolution histograms used to build the paper's
//!   figures.
//!
//! Each *run* of the engine is intentionally single-threaded: the paper's
//! experiments are about *modeled* CPU parallelism (simulated cores), not
//! host parallelism, and single-threaded execution keeps every run exactly
//! reproducible. Host parallelism lives one level up — `hns-core` executes
//! independent runs of a figure sweep concurrently, which preserves that
//! reproducibility because no engine state is shared between runs.

pub mod event;
pub mod rng;
pub mod stats;
pub mod time;
mod wheel;

pub use event::{EventKey, EventQueue, HeapEventQueue, Lanes, Next, ScheduledEvent, MAX_LANES};
pub use rng::SimRng;
pub use stats::{Histogram, Percentiles};
pub use time::{Duration, SimTime};

/// Frequency of the simulated CPU cores, in cycles per second.
///
/// The paper's testbed uses Intel Xeon Gold 6128 CPUs at 3.4GHz; all cycle
/// budgets in the cost model assume this clock.
pub const CPU_HZ: u64 = 3_400_000_000;

/// Nanoseconds per second.
const NS_PER_SEC: u64 = 1_000_000_000;

const fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The cycles-to-nanoseconds ratio `1e9 / CPU_HZ` in lowest terms
/// (`NS_PER_CYCLE_NUM / NS_PER_CYCLE_DEN`, 5 / 17 at 3.4 GHz).
const NS_PER_CYCLE_NUM: u64 = NS_PER_SEC / gcd(NS_PER_SEC, CPU_HZ);
const NS_PER_CYCLE_DEN: u64 = CPU_HZ / gcd(NS_PER_SEC, CPU_HZ);
// A remainder times the other term must fit in u64 (see `scale`).
const _: () = assert!(NS_PER_CYCLE_NUM.checked_mul(NS_PER_CYCLE_DEN).is_some());

/// `floor(x * num / den)`, truncated to 64 bits exactly as
/// `((x as u128 * num) / den) as u64` would be, without a 128-bit
/// division: with `x = q·den + r`, the product is `q·num + r·num/den`.
#[inline]
fn scale(x: u64, num: u64, den: u64) -> u64 {
    let (q, r) = (x / den, x % den);
    q.wrapping_mul(num).wrapping_add(r * num / den)
}

/// Convert a number of CPU cycles into simulated time at [`CPU_HZ`].
#[inline]
pub fn cycles_to_time(cycles: u64) -> Duration {
    Duration::from_nanos(scale(cycles, NS_PER_CYCLE_NUM, NS_PER_CYCLE_DEN))
}

/// Convert a simulated duration into CPU cycles at [`CPU_HZ`].
#[inline]
pub fn time_to_cycles(d: Duration) -> u64 {
    scale(d.as_nanos(), NS_PER_CYCLE_DEN, NS_PER_CYCLE_NUM)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_time_round_trip() {
        for cycles in [0u64, 1, 340, 3_400, 1_000_000, 3_400_000_000] {
            let t = cycles_to_time(cycles);
            let back = time_to_cycles(t);
            // Round trip may lose sub-cycle precision but never more than one
            // cycle per ns of rounding.
            assert!(back <= cycles && cycles - back <= 4, "{cycles} -> {back}");
        }
    }

    #[test]
    fn one_second_of_cycles() {
        assert_eq!(cycles_to_time(CPU_HZ), Duration::from_secs(1));
    }

    /// The 128-bit formulas the split arithmetic must reproduce bit for
    /// bit, including the `as u64` truncation of huge products.
    fn wide_cycles_to_ns(c: u64) -> u64 {
        ((c as u128 * NS_PER_SEC as u128) / CPU_HZ as u128) as u64
    }
    fn wide_ns_to_cycles(ns: u64) -> u64 {
        ((ns as u128 * CPU_HZ as u128) / NS_PER_SEC as u128) as u64
    }

    #[test]
    fn conversions_match_wide_formula_at_the_edges() {
        let (num, den) = (NS_PER_CYCLE_NUM, NS_PER_CYCLE_DEN);
        assert_eq!((num, den), (5, 17));
        let mut edges = vec![0, 1, u64::MAX, u64::MAX - 1, u64::MAX / den, u64::MAX / num];
        for d in [num, den] {
            edges.extend([d - 1, d, d + 1, 2 * d, 1_000 * d, (u64::MAX / d) * d]);
            edges.extend([(u64::MAX / d) * d - 1, 7 * d - 1]);
        }
        for x in edges {
            assert_eq!(
                cycles_to_time(x).as_nanos(),
                wide_cycles_to_ns(x),
                "cycles {x}"
            );
            assert_eq!(
                time_to_cycles(Duration::from_nanos(x)),
                wide_ns_to_cycles(x),
                "ns {x}"
            );
        }
    }
}
