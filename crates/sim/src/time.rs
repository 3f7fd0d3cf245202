//! Simulated time.
//!
//! All of `hostnet` measures time in integer nanoseconds. [`SimTime`] is an
//! absolute instant since simulation start; [`Duration`] is a span. Both are
//! thin wrappers around `u64` so they are `Copy`, ordered, and hashable, and
//! arithmetic saturates rather than panicking in release-mode corner cases.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in simulated time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);
    /// Maximum representable span; used as "infinite".
    pub const MAX: Duration = Duration(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Construct from a float number of seconds (rounds to nearest ns).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration");
        Duration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds, truncated.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Serialization delay for `bytes` at `gbps` gigabits per second.
    ///
    /// This is the workhorse for the link model: a 9000-byte jumbo frame on a
    /// 100Gbps link takes 720ns on the wire.
    #[inline]
    pub fn for_bytes_at_gbps(bytes: u64, gbps: f64) -> Duration {
        debug_assert!(gbps > 0.0);
        let x = (bytes as f64 * 8.0) / gbps;
        // `x.round() as u64` without a libm call (`x - trunc(x)` is exact);
        // the casts saturate exactly as `round`'s would.
        let t = x as u64;
        Duration(t.saturating_add(u64::from(x - t as f64 >= 0.5)))
    }

    /// True if this span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Duration(self.0))
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + Duration::from_micros(5);
        assert_eq!(t1.as_nanos(), 5_000);
        assert_eq!(t1 - t0, Duration::from_micros(5));
        assert_eq!(t0 - t1, Duration::ZERO, "saturating");
        assert_eq!(t1.since(t0).as_micros(), 5);
    }

    #[test]
    fn serialization_delay() {
        // 9000 bytes at 100Gbps = 720ns.
        assert_eq!(
            Duration::for_bytes_at_gbps(9000, 100.0),
            Duration::from_nanos(720)
        );
        // 1500 bytes at 100Gbps = 120ns.
        assert_eq!(
            Duration::for_bytes_at_gbps(1500, 100.0),
            Duration::from_nanos(120)
        );
        // Ties round away from zero, and an unrepresentable span saturates.
        assert_eq!(Duration::for_bytes_at_gbps(1, 16.0).as_nanos(), 1);
        assert_eq!(Duration::for_bytes_at_gbps(3, 16.0).as_nanos(), 2);
        assert_eq!(
            Duration::for_bytes_at_gbps(u64::MAX, 1e-300).as_nanos(),
            u64::MAX
        );
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Duration::from_nanos(17)), "17ns");
        assert_eq!(format!("{}", Duration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", Duration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", Duration::from_secs(1)), "1.000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(5) < SimTime::from_nanos(6));
        assert!(Duration::from_millis(1) > Duration::from_micros(999));
        assert_eq!(
            SimTime::from_nanos(3).max(SimTime::from_nanos(9)),
            SimTime::from_nanos(9)
        );
    }

    #[test]
    fn saturating_behaviour() {
        let m = SimTime::MAX;
        assert_eq!(m + Duration::from_secs(1), SimTime::MAX);
        assert_eq!(Duration::MAX + Duration::from_secs(1), Duration::MAX);
        assert_eq!(
            Duration::from_nanos(3).saturating_sub(Duration::from_nanos(10)),
            Duration::ZERO
        );
    }
}
