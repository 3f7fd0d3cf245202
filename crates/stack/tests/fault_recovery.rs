//! Injected resource faults must exercise recovery paths, not abort: the
//! world keeps running through ring exhaustion, pool pressure, core stalls
//! and link flaps, attributes every dropped frame to a taxonomy bucket, and
//! the watchdog fires only when a run genuinely cannot make progress.

use hns_faults::PhaseSchedule;
use hns_sim::Duration;
use hns_stack::{AppSpec, FlowSpec, RunErrorKind, SimConfig, World};

fn single_flow_world(cfg: SimConfig) -> World {
    let mut w = World::new(cfg);
    let f = w.add_flow(FlowSpec::forward(0, 0));
    w.add_app(0, 0, AppSpec::LongSender { flow: f });
    w.add_app(1, 0, AppSpec::LongReceiver { flow: f });
    w
}

/// Fault window in the middle of the 30ms measurement window (20ms warmup).
fn mid_measure(duration_ms: u64) -> PhaseSchedule {
    PhaseSchedule::once(
        Duration::from_millis(30),
        Duration::from_millis(duration_ms),
    )
}

fn run(cfg: SimConfig) -> hns_metrics::Report {
    single_flow_world(cfg)
        .try_run(Duration::from_millis(20), Duration::from_millis(30))
        .expect("faulted run must still quiesce")
}

#[test]
fn ring_exhaustion_drops_at_the_nic_and_recovers() {
    let mut cfg = SimConfig::default();
    cfg.faults.ring_exhaust = Some(mid_measure(2));
    let r = run(cfg);
    assert!(
        r.drops.rx_ring > 0,
        "exhausted rings must drop: {:?}",
        r.drops
    );
    assert_eq!(r.drops.rx_ring + r.drops.pool, r.ring_drops);
    assert!(
        r.retransmissions > 0,
        "the sender must have recovered the losses"
    );
    assert!(
        r.total_gbps > 1.0,
        "flow must recover after the window: {:.2} Gbps",
        r.total_gbps
    );
}

#[test]
fn pool_pressure_starves_replenish_and_recovers() {
    let mut cfg = SimConfig::default();
    // Long enough that the 512-descriptor ring fully drains un-backed.
    cfg.faults.pool_pressure = Some(mid_measure(3));
    let r = run(cfg);
    assert!(
        r.drops.pool > 0,
        "drained rings under pool failure must attribute to pool: {:?}",
        r.drops
    );
    assert_eq!(r.drops.rx_ring + r.drops.pool, r.ring_drops);
    assert!(
        r.total_gbps > 1.0,
        "flow must recover once allocations succeed again: {:.2} Gbps",
        r.total_gbps
    );
}

#[test]
fn core_stall_defers_work_and_recovers() {
    let mut cfg = SimConfig::default();
    cfg.faults.core_stall = Some(mid_measure(2));
    let r = run(cfg);
    // A single flow lands on core 0 (aRFS): the stall freezes the receive
    // path, yet the run completes and still moves real data overall.
    assert!(
        r.total_gbps > 1.0,
        "stalled core must resume: {:.2} Gbps",
        r.total_gbps
    );
    let healthy = run(SimConfig::default());
    assert!(
        r.delivered_bytes < healthy.delivered_bytes,
        "a 2ms stall must cost something: {} vs {}",
        r.delivered_bytes,
        healthy.delivered_bytes
    );
}

#[test]
fn link_flap_is_attributed_to_the_wire() {
    let mut cfg = SimConfig::default();
    cfg.link.flap = Some(mid_measure(1));
    let r = run(cfg);
    assert!(
        r.drops.wire > 0,
        "flapped frames die on the wire: {:?}",
        r.drops
    );
    assert_eq!(r.drops.wire, r.wire_drops);
    assert!(r.total_gbps > 1.0, "flow must survive a 1ms flap");
}

#[test]
fn combined_faults_complete_without_panic() {
    // The acceptance scenario: link flap + Rx-ring exhaustion in one run.
    let mut cfg = SimConfig::default();
    cfg.link.flap = Some(PhaseSchedule::once(
        Duration::from_millis(25),
        Duration::from_millis(1),
    ));
    cfg.faults.ring_exhaust = Some(mid_measure(2));
    let r = run(cfg);
    assert!(r.delivered_bytes > 0);
    assert_eq!(r.drops.wire, r.wire_drops);
    assert_eq!(r.drops.rx_ring + r.drops.pool, r.ring_drops);
}

#[test]
fn periodic_fault_windows_apply_and_clear_repeatedly() {
    let mut cfg = SimConfig::default();
    cfg.faults.ring_exhaust = Some(PhaseSchedule {
        start: Duration::from_millis(22),
        duration: Duration::from_millis(1),
        period: Duration::from_millis(5),
    });
    let r = run(cfg);
    assert!(r.drops.rx_ring > 0);
    assert!(
        r.total_gbps > 1.0,
        "flow must ride through periodic exhaustion: {:.2} Gbps",
        r.total_gbps
    );
}

#[test]
fn watchdog_trips_on_a_permanent_outage() {
    let mut cfg = SimConfig::default();
    // Link goes down at 5ms and never comes back; the sender retransmits
    // into the void with growing backoff. A short horizon must declare the
    // run stalled instead of silently reporting zero throughput.
    cfg.link.flap = Some(PhaseSchedule::once(
        Duration::from_millis(5),
        Duration::from_secs(100),
    ));
    cfg.watchdog_horizon = Duration::from_millis(3);
    let err = single_flow_world(cfg)
        .try_run(Duration::from_millis(20), Duration::from_millis(30))
        .expect_err("a dead link must trip the watchdog");
    assert_eq!(err.kind, RunErrorKind::Stalled);
    assert!(
        !err.snapshot.stuck_flows.is_empty(),
        "snapshot must name the stuck flow: {err}"
    );
}

#[test]
fn watchdog_stays_quiet_when_disabled() {
    let mut cfg = SimConfig::default();
    cfg.link.flap = Some(PhaseSchedule::once(
        Duration::from_millis(5),
        Duration::from_secs(100),
    ));
    cfg.watchdog_horizon = Duration::ZERO;
    let r = single_flow_world(cfg)
        .try_run(Duration::from_millis(20), Duration::from_millis(30))
        .expect("with the watchdog off the run ends at the horizon");
    assert_eq!(r.drops.wire, r.wire_drops);
}
