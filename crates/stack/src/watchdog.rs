//! Run watchdog: structured non-quiescence detection.
//!
//! A fault plan can wedge a buggy simulation in ways plain assertions never
//! catch: a sender whose RTO timer was lost spins forever, a leaked event
//! storm replays the same instant millions of times, or the event queue
//! grows without bound. Instead of hanging (wall-clock) or aborting, the
//! event loop trips one of three tripwires and [`crate::World::try_run`]
//! returns a [`RunError`] carrying a [`Snapshot`] of where everything was
//! stuck, so fault experiments can report *why* a run failed.

use hns_sim::SimTime;
use std::fmt;

/// What the watchdog tripped on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunErrorKind {
    /// The fault plan itself is inconsistent (bad schedule, core out of
    /// range, a wire loss rate outside [0, 1)); nothing was simulated.
    BadFaultPlan,
    /// The churn plan is inconsistent (zero arrival rate, empty pool, an
    /// overload budget below one socket); nothing was simulated.
    BadChurnPlan,
    /// The monitor config is one the snapshot schedule cannot honour (zero
    /// interval), or a monitor runs with tracing off, so its stage sketches
    /// could never fill; nothing was simulated.
    BadMonitorConfig,
    /// The lifecycle tracer is on with a sampling period of zero; nothing
    /// was simulated.
    BadTraceConfig,
    /// The scenario references a host or core outside the configured
    /// topology (flow/app host index past the fabric's host count, core
    /// index past the per-host core count), its link rate is not a
    /// finite positive Gb/s, a host is sized outside what its datapath
    /// takes (MTU, Rx ring, write size), or the scenario has nothing to
    /// measure (no flow, client or RPC byte); nothing was simulated.
    BadTopology,
    /// No forward progress — no frame offered to the wire and no byte
    /// delivered to an application — for a full watchdog horizon while
    /// flows still had outstanding data.
    Stalled,
    /// Too many events fired at one sim-time instant (a zero-delay
    /// rescheduling loop).
    EventStorm,
    /// The event queue grew past any plausible working size (events are
    /// being scheduled faster than they can ever drain).
    QueueLeak,
    /// A conservation law failed under audit mode: a byte, frame, descriptor,
    /// or cycle left the ledgers (see `hns-audit` for the invariant list).
    InvariantViolation,
}

impl RunErrorKind {
    /// Short stable name for logs.
    pub fn name(&self) -> &'static str {
        match self {
            RunErrorKind::BadFaultPlan => "bad-fault-plan",
            RunErrorKind::BadChurnPlan => "bad-churn-plan",
            RunErrorKind::BadMonitorConfig => "bad-monitor-config",
            RunErrorKind::BadTraceConfig => "bad-trace-config",
            RunErrorKind::BadTopology => "bad-topology",
            RunErrorKind::Stalled => "stalled",
            RunErrorKind::EventStorm => "event-storm",
            RunErrorKind::QueueLeak => "queue-leak",
            RunErrorKind::InvariantViolation => "invariant-violation",
        }
    }
}

/// One flow with work outstanding at the moment the watchdog fired.
#[derive(Clone, Copy, Debug)]
pub struct StuckFlow {
    /// Flow id.
    pub flow: u64,
    /// Bytes sent but not acknowledged.
    pub in_flight: u64,
    /// Bytes written but never transmitted.
    pub unsent: u64,
}

/// Diagnostic state captured when the watchdog fires.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Pending (non-cancelled) events in the queue.
    pub queue_len: usize,
    /// Frames sitting in softirq backlogs across both hosts.
    pub backlog_frames: u64,
    /// Flows with unacked or unsent bytes (capped at the first eight).
    pub stuck_flows: Vec<StuckFlow>,
    /// Total frames ever offered to the wire (both directions).
    pub wire_frames: u64,
    /// Total retransmissions across all flows.
    pub retransmissions: u64,
}

/// A run that did not reach quiescence. Returned by
/// [`crate::World::try_run`].
#[derive(Clone, Debug)]
pub struct RunError {
    /// Which tripwire fired.
    pub kind: RunErrorKind,
    /// Sim time at which it fired.
    pub at: SimTime,
    /// Human-readable specifics.
    pub detail: String,
    /// World state at that moment.
    pub snapshot: Snapshot,
}

impl RunError {
    /// An error found before anything was simulated: at t = 0, with an
    /// empty snapshot.
    pub fn preflight(kind: RunErrorKind, detail: String) -> Self {
        RunError {
            kind,
            at: SimTime::ZERO,
            detail,
            snapshot: Snapshot::default(),
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at t={}ns: {} (queue={}, backlog={} frames, {} stuck flows, \
             {} wire frames, {} rtx)",
            self.kind.name(),
            self.at.as_nanos(),
            self.detail,
            self.snapshot.queue_len,
            self.snapshot.backlog_frames,
            self.snapshot.stuck_flows.len(),
            self.snapshot.wire_frames,
            self.snapshot.retransmissions,
        )?;
        for sf in &self.snapshot.stuck_flows {
            write!(
                f,
                "; flow {}: {} in flight, {} unsent",
                sf.flow, sf.in_flight, sf.unsent
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_flows() {
        let e = RunError {
            kind: RunErrorKind::Stalled,
            at: SimTime::from_nanos(42),
            detail: "no progress for 5s".into(),
            snapshot: Snapshot {
                queue_len: 3,
                backlog_frames: 7,
                stuck_flows: vec![StuckFlow {
                    flow: 1,
                    in_flight: 1448,
                    unsent: 100,
                }],
                wire_frames: 9,
                retransmissions: 2,
            },
        };
        let s = e.to_string();
        assert!(s.contains("stalled"));
        assert!(s.contains("t=42ns"));
        assert!(s.contains("flow 1: 1448 in flight"));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(RunErrorKind::BadFaultPlan.name(), "bad-fault-plan");
        assert_eq!(RunErrorKind::BadTopology.name(), "bad-topology");
        assert_eq!(RunErrorKind::BadMonitorConfig.name(), "bad-monitor-config");
        assert_eq!(RunErrorKind::BadTraceConfig.name(), "bad-trace-config");
        assert_eq!(RunErrorKind::EventStorm.name(), "event-storm");
        assert_eq!(RunErrorKind::QueueLeak.name(), "queue-leak");
        assert_eq!(
            RunErrorKind::InvariantViolation.name(),
            "invariant-violation"
        );
    }
}
