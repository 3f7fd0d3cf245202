//! The aggregate fault plan threaded through `SimConfig`.

use crate::schedule::PhaseSchedule;
use hns_sim::Duration;

/// Added one-way delay during a scheduled window (in-network latency spike:
/// failover reroute, congested core switch, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencySpike {
    /// When the spike applies.
    pub window: PhaseSchedule,
    /// Extra propagation delay while active.
    pub extra: Duration,
}

/// Rx descriptor-ring exhaustion: while active, the victim host's Rx rings
/// hold back every free descriptor, so arriving frames drop at the NIC and
/// senders must recover via RTO/zero-window machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingExhaust {
    /// When the exhaustion applies.
    pub window: PhaseSchedule,
    /// Victim host (0 = sender side, 1 = receiver side).
    pub host: u8,
}

/// Page-pool allocation failure: while active, descriptor replenish cannot
/// be backed by pages, so rings drain and subsequent arrivals drop
/// (attributed to the `pool` bucket).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolPressure {
    /// When the allocation failures apply.
    pub window: PhaseSchedule,
    /// Victim host (0 = sender side, 1 = receiver side).
    pub host: u8,
}

/// Core stall ("noisy neighbor"): while active, the victim core executes no
/// stack work — dispatches are deferred to the end of the window, backlog
/// builds, and NAPI must re-arm afterwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreStall {
    /// When the stall applies.
    pub window: PhaseSchedule,
    /// Victim host (0 = sender side, 1 = receiver side).
    pub host: u8,
    /// Victim core index on that host.
    pub core: u16,
}

/// Deterministic host-side fault plan for one run; the wire's faults
/// (loss, flaps, latency spikes) are part of the link's configuration.
/// `Default` injects nothing, so every existing experiment is unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Rx descriptor-ring exhaustion.
    pub ring_exhaust: Option<RingExhaust>,
    /// Page-pool allocation failure.
    pub pool_pressure: Option<PoolPressure>,
    /// Core stall window.
    pub core_stall: Option<CoreStall>,
}

impl FaultConfig {
    /// Validate every schedule in the plan.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(ring) = &self.ring_exhaust {
            ring.window
                .validate()
                .map_err(|e| format!("ring exhaust: {e}"))?;
            if ring.host > 1 {
                return Err(format!("ring exhaust host {} out of range", ring.host));
            }
        }
        if let Some(pool) = &self.pool_pressure {
            pool.window
                .validate()
                .map_err(|e| format!("pool pressure: {e}"))?;
            if pool.host > 1 {
                return Err(format!("pool pressure host {} out of range", pool.host));
            }
        }
        if let Some(stall) = &self.core_stall {
            stall
                .window
                .validate()
                .map_err(|e| format!("core stall: {e}"))?;
            if stall.host > 1 {
                return Err(format!("core stall host {} out of range", stall.host));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            pool_pressure: Some(PoolPressure { window, host: 1 }),
            ..Default::default()
        };
        assert_ne!(f, FaultConfig::default());

        let f = FaultConfig {
            core_stall: Some(CoreStall {
                window,
                host: 1,
                core: 0,
            }),
            ..Default::default()
        };
        assert_ne!(f, FaultConfig::default());
    }

    #[test]
    fn validation_catches_bad_schedules_and_hosts() {
        let f = FaultConfig {
            ring_exhaust: Some(RingExhaust {
                window: PhaseSchedule {
                    start: Duration::ZERO,
                    duration: Duration::from_millis(2),
                    period: Duration::from_millis(1),
                },
                host: 1,
            }),
            ..Default::default()
        };
        assert!(f.validate().is_err());

        let f = FaultConfig {
            ring_exhaust: Some(RingExhaust {
                window: PhaseSchedule::once(Duration::ZERO, Duration::from_millis(1)),
                host: 3,
            }),
            ..Default::default()
        };
        assert!(f.validate().is_err());
    }
}
