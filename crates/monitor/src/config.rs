//! Monitor configuration. `Copy` plain data so it can ride inside the
//! simulation's `SimConfig` without breaking its `Copy` derive.

use hns_sim::Duration;

/// Streaming-telemetry knobs. Absent from `SimConfig` (i.e. `None`) the
/// monitor costs nothing and every report stays byte-identical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonitorConfig {
    /// Sim-time spacing between snapshot emissions. Snapshots are cut at
    /// the first autotune tick at or past each interval boundary, so the
    /// effective spacing is `interval` rounded up to the 1 ms tick.
    pub interval: Duration,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            interval: Duration::from_millis(10),
        }
    }
}

impl MonitorConfig {
    /// Reject configurations the scheduler cannot honor.
    pub fn validate(&self) -> Result<(), String> {
        if self.interval == Duration::ZERO {
            return Err("monitor interval must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert_eq!(MonitorConfig::default().validate(), Ok(()));
    }

    #[test]
    fn rejects_bad_knobs() {
        let mut c = MonitorConfig {
            interval: Duration::ZERO,
        };
        assert!(c.validate().is_err());
        c.interval = Duration::from_millis(5);
        assert_eq!(c.validate(), Ok(()));
    }
}
