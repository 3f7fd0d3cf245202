//! Per-core CPU utilization accounting.
//!
//! The paper measures "total CPU utilization across all cores" with sysstat
//! and defines *throughput-per-core* as total throughput divided by total
//! CPU utilization (in units of cores) at the bottleneck side. The simulator
//! can account busy time exactly: every dispatched work item adds its busy
//! span to the owning core's [`CoreUsage`].

use hns_sim::{Duration, SimTime};

/// Busy-time accounting for one simulated core.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreUsage {
    busy_ns: u64,
    /// Start of the measurement window (busy time before this is excluded).
    window_start_ns: u64,
}

impl CoreUsage {
    /// New accounting starting at t = 0.
    pub fn new() -> Self {
        CoreUsage::default()
    }

    /// Record a busy span.
    #[inline]
    pub fn add_busy(&mut self, span: Duration) {
        self.busy_ns += span.as_nanos();
    }

    /// Busy nanoseconds inside the measurement window.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_ns)
    }

    /// Utilization in `[0, 1]` over the window ending at `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let window = now.as_nanos().saturating_sub(self.window_start_ns);
        if window == 0 {
            0.0
        } else {
            (self.busy_ns as f64 / window as f64).min(1.0)
        }
    }

    /// Begin the measurement window at `now`, discarding earlier busy time
    /// (warmup exclusion).
    pub fn start_window(&mut self, now: SimTime) {
        self.busy_ns = 0;
        self.window_start_ns = now.as_nanos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_basic() {
        let mut u = CoreUsage::new();
        u.add_busy(Duration::from_millis(50));
        let now = SimTime::from_nanos(100_000_000);
        assert!((u.utilization(now) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn window_reset_excludes_warmup() {
        let mut u = CoreUsage::new();
        u.add_busy(Duration::from_millis(10));
        u.start_window(SimTime::from_nanos(10_000_000));
        u.add_busy(Duration::from_millis(5));
        let now = SimTime::from_nanos(20_000_000);
        assert!((u.utilization(now) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn utilization_clamped_to_one() {
        let mut u = CoreUsage::new();
        u.add_busy(Duration::from_millis(200));
        assert_eq!(u.utilization(SimTime::from_nanos(100_000_000)), 1.0);
    }

    #[test]
    fn zero_window_is_zero() {
        let u = CoreUsage::new();
        assert_eq!(u.utilization(SimTime::ZERO), 0.0);
    }
}
