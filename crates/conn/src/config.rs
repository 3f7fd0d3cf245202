//! Churn workload configuration.
//!
//! Lives here (rather than in the workload crate) so the stack engine can
//! embed it in `SimConfig` without a dependency cycle. Everything is `Copy`
//! because `SimConfig` is.

use hns_sim::Duration;

use crate::overload::OverloadConfig;

/// What each arriving connection does once established.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnMode {
    /// Connect, complete the 3-way handshake, then immediately close.
    /// Isolates pure per-connection overhead: no payload ever moves.
    HandshakeOnly,
    /// Connect, exchange one request/response RPC of `rpc_size` bytes each
    /// way, then close — the paper's short-flow regime with the setup cost
    /// the original figures omit.
    ShortRpc,
    /// A long-lived pool of `conns` pre-established connections with
    /// partial churn: each arrival closes the oldest pool member and opens
    /// a replacement through a full handshake. Models a busy front-end's
    /// steady state ("Scouting the Path to a Million-Client Server").
    Pool {
        /// Pool size (pre-established at t = 0).
        conns: u32,
    },
}

impl ChurnMode {
    /// Short label for CSV/CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            ChurnMode::HandshakeOnly => "handshake",
            ChurnMode::ShortRpc => "short-rpc",
            ChurnMode::Pool { .. } => "pool",
        }
    }
}

/// Per-request payload size distribution for [`ChurnMode::ShortRpc`].
///
/// Like think times, sizes are hashed off connection ids — a pure function
/// of `(seed, conn)` — so the draw is policy-invariant: admission decisions
/// and job counts can never perturb which connection gets which request
/// size, and a retransmitted request resends exactly the bytes it first
/// sent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RpcSizeDist {
    /// Every request/response carries exactly `rpc_size` bytes (the
    /// pre-existing behaviour, and the default).
    Fixed,
    /// Bounded Pareto: heavy-tailed sizes in `[min, cap]` with tail index
    /// `shape` (smaller = heavier tail). Models real RPC fan-out where
    /// most requests are small and a few drag megabytes.
    Pareto {
        /// Smallest request size, bytes (> 0).
        min: u32,
        /// Pareto tail index (finite, > 0).
        shape: f64,
        /// Largest request size, bytes (>= `min`).
        cap: u32,
    },
}

impl RpcSizeDist {
    fn validate(&self) -> Result<(), String> {
        if let RpcSizeDist::Pareto { min, shape, cap } = *self {
            if min == 0 {
                return Err("rpc size dist needs min > 0".into());
            }
            if !shape.is_finite() || shape <= 0.0 {
                return Err(format!(
                    "rpc size dist needs a positive finite shape, got {shape}"
                ));
            }
            if cap < min {
                return Err(format!("rpc size dist cap ({cap}) must be >= min ({min})"));
            }
        }
        Ok(())
    }
}

/// Connection-churn knobs, carried inside `SimConfig`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnConfig {
    /// Workload shape.
    pub mode: ChurnMode,
    /// Open-loop connection arrival rate (connections per second). Arrivals
    /// are exponentially spaced (Poisson process) off the workload RNG.
    pub rate_cps: f64,
    /// Request and response payload size per connection, bytes
    /// (ignored for [`ChurnMode::HandshakeOnly`]).
    pub rpc_size: u32,
    /// Per-request size distribution (short-RPC mode). [`RpcSizeDist::
    /// Fixed`] reproduces the constant `rpc_size` behaviour exactly.
    pub rpc_size_dist: RpcSizeDist,
    /// Initial SYN retransmission timeout. Linux uses 1s; the default here
    /// is scaled down to suit millisecond-scale simulation horizons while
    /// preserving the exponential-backoff shape.
    pub syn_rto: Duration,
    /// TIME_WAIT residence (the 2MSL stand-in, scaled like `syn_rto`).
    pub time_wait: Duration,
    /// How often the TIME_WAIT reaper runs (batch reaping, like the
    /// kernel's timewait timer wheel cadence).
    pub reap_interval: Duration,
    /// Sample every Nth connection for lifecycle tracing (0 = never).
    pub trace_sample: u32,
    /// Overload model (accept queue, admission control, memory budget,
    /// slow clients). Inert by default.
    pub overload: OverloadConfig,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            mode: ChurnMode::ShortRpc,
            rate_cps: 100_000.0,
            rpc_size: 4096,
            rpc_size_dist: RpcSizeDist::Fixed,
            syn_rto: Duration::from_millis(5),
            time_wait: Duration::from_millis(10),
            reap_interval: Duration::from_millis(1),
            trace_sample: 0,
            overload: OverloadConfig::default(),
        }
    }
}

impl ChurnConfig {
    /// Validate the knobs, normalising out-of-range values is the caller's
    /// job — this returns a human-readable error instead.
    pub fn validate(&self) -> Result<(), String> {
        if !self.rate_cps.is_finite() || self.rate_cps <= 0.0 {
            return Err(format!(
                "churn rate must be positive, got {}",
                self.rate_cps
            ));
        }
        if self.syn_rto.is_zero() {
            return Err("syn_rto must be non-zero".into());
        }
        if let ChurnMode::Pool { conns } = self.mode {
            if conns == 0 {
                return Err("pool mode needs at least one connection".into());
            }
        }
        if self.mode == ChurnMode::ShortRpc && self.rpc_size == 0 {
            return Err("short-rpc mode needs rpc_size > 0".into());
        }
        self.rpc_size_dist.validate()?;
        if self.rpc_size_dist != RpcSizeDist::Fixed && self.mode != ChurnMode::ShortRpc {
            return Err(format!(
                "rpc size distribution only applies to short-rpc mode, not {}",
                self.mode.label()
            ));
        }
        self.overload.validate()?;
        if self.overload.enabled && matches!(self.mode, ChurnMode::Pool { .. }) {
            // Pool members are idle by design; the overload model's accept
            // backpressure and idle reaping contradict a pre-established
            // steady-state pool.
            return Err("overload model does not support pool mode".into());
        }
        Ok(())
    }

    /// Mean inter-arrival gap implied by `rate_cps`.
    pub fn mean_interarrival(&self) -> Duration {
        Duration::from_secs_f64(1.0 / self.rate_cps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        ChurnConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_knobs() {
        let bad = |f: fn(&mut ChurnConfig)| {
            let mut c = ChurnConfig::default();
            f(&mut c);
            c
        };
        assert!(bad(|c| c.rate_cps = 0.0).validate().is_err());
        assert!(bad(|c| c.mode = ChurnMode::Pool { conns: 0 })
            .validate()
            .is_err());
        let mut c = bad(|c| c.rpc_size = 0);
        assert!(c.validate().is_err(), "short-rpc needs a payload");
        c.mode = ChurnMode::HandshakeOnly;
        c.validate().unwrap();
    }

    #[test]
    fn rpc_size_dist_knobs_validate() {
        let mut c = ChurnConfig {
            rpc_size_dist: RpcSizeDist::Pareto {
                min: 64,
                shape: 1.2,
                cap: 1 << 20,
            },
            ..ChurnConfig::default()
        };
        c.validate().unwrap();
        c.rpc_size_dist = RpcSizeDist::Pareto {
            min: 0,
            shape: 1.2,
            cap: 100,
        };
        assert!(c.validate().is_err(), "zero min");
        c.rpc_size_dist = RpcSizeDist::Pareto {
            min: 64,
            shape: 0.0,
            cap: 100,
        };
        assert!(c.validate().is_err(), "zero shape");
        c.rpc_size_dist = RpcSizeDist::Pareto {
            min: 64,
            shape: 1.2,
            cap: 63,
        };
        assert!(c.validate().is_err(), "cap below min");
        c.rpc_size_dist = RpcSizeDist::Pareto {
            min: 64,
            shape: 1.2,
            cap: 4096,
        };
        c.mode = ChurnMode::HandshakeOnly;
        assert!(
            c.validate().is_err(),
            "sized requests need a mode that sends requests"
        );
        c.rpc_size_dist = RpcSizeDist::Fixed;
        c.validate().unwrap();
    }

    #[test]
    fn overload_knobs_validate_through_churn() {
        let mut c = ChurnConfig::default();
        c.overload.enabled = true;
        c.validate().unwrap();
        c.overload.accept_queue = 0;
        assert!(c.validate().is_err(), "bad overload knobs must surface");
        c.overload.accept_queue = 64;
        c.mode = ChurnMode::Pool { conns: 100 };
        assert!(c.validate().is_err(), "overload + pool is rejected");
    }

    #[test]
    fn interarrival_matches_rate() {
        let c = ChurnConfig {
            rate_cps: 1_000_000.0,
            ..ChurnConfig::default()
        };
        assert_eq!(c.mean_interarrival(), Duration::from_micros(1));
    }

    #[test]
    fn mode_labels() {
        assert_eq!(ChurnMode::HandshakeOnly.label(), "handshake");
        assert_eq!(ChurnMode::ShortRpc.label(), "short-rpc");
        assert_eq!(ChurnMode::Pool { conns: 5 }.label(), "pool");
    }
}
