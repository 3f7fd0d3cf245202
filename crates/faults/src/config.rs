//! The aggregate fault plan threaded through `SimConfig`.

use crate::schedule::PhaseSchedule;

/// The host every resource fault hits: host 1, which receives the data of
/// every long-flow scenario.
pub const VICTIM_HOST: u8 = 1;

/// The core a core stall freezes on [`VICTIM_HOST`]: core 0, where a
/// single flow's receiving application and IRQs land.
pub const STALLED_CORE: u16 = 0;

/// Deterministic host-side fault plan for one run; the wire's faults
/// (loss, flaps, latency spikes) are part of the link's configuration.
/// Each fault hits [`VICTIM_HOST`] while its window is active.
/// `Default` injects nothing, so every existing experiment is unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Rx descriptor-ring exhaustion: while active, the victim's Rx rings
    /// hold back every free descriptor, so arriving frames drop at the NIC
    /// and senders must recover via RTO/zero-window machinery.
    pub ring_exhaust: Option<PhaseSchedule>,
    /// Page-pool allocation failure: while active, descriptor replenish
    /// cannot be backed by pages, so rings drain and subsequent arrivals
    /// drop (attributed to the `pool` bucket).
    pub pool_pressure: Option<PhaseSchedule>,
    /// Core stall ("noisy neighbor"): while active, [`STALLED_CORE`]
    /// executes no stack work — dispatches are deferred to the end of the
    /// window, backlog builds, and NAPI must re-arm afterwards.
    pub core_stall: Option<PhaseSchedule>,
}

impl FaultConfig {
    /// Validate every schedule in the plan.
    pub fn validate(&self) -> Result<(), String> {
        let windows = [
            ("ring exhaust", self.ring_exhaust),
            ("pool pressure", self.pool_pressure),
            ("core stall", self.core_stall),
        ];
        for (name, window) in windows {
            if let Some(w) = window {
                w.validate().map_err(|e| format!("{name}: {e}"))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hns_sim::Duration;

    #[test]
    fn default_is_quiet_and_valid() {
        let f = FaultConfig::default();
        assert!(f.ring_exhaust.is_none() && f.pool_pressure.is_none() && f.core_stall.is_none());
        assert!(f.validate().is_ok());
    }

    #[test]
    fn any_fault_breaks_quiet() {
        let window = PhaseSchedule::once(Duration::from_millis(5), Duration::from_millis(1));
        let f = FaultConfig {
            pool_pressure: Some(window),
            ..Default::default()
        };
        assert_ne!(f, FaultConfig::default());

        let f = FaultConfig {
            core_stall: Some(window),
            ..Default::default()
        };
        assert_ne!(f, FaultConfig::default());
    }

    #[test]
    fn validation_catches_bad_schedules() {
        // Active for 2 ms every 1 ms: the fault never clears.
        let stuck = PhaseSchedule {
            start: Duration::ZERO,
            duration: Duration::from_millis(2),
            period: Duration::from_millis(1),
        };
        let plans = [
            FaultConfig {
                ring_exhaust: Some(stuck),
                ..Default::default()
            },
            FaultConfig {
                pool_pressure: Some(stuck),
                ..Default::default()
            },
            FaultConfig {
                core_stall: Some(stuck),
                ..Default::default()
            },
        ];
        for (plan, name) in plans
            .iter()
            .zip(["ring exhaust", "pool pressure", "core stall"])
        {
            let err = plan.validate().unwrap_err();
            assert!(err.starts_with(name), "{err}");
        }
    }
}
