//! Connection-lifecycle integration: churn workloads drive the full wire
//! path (handshake frames serialize on the link, consume Rx descriptors,
//! and lost SYNs heal through the client's retry timer), and reports carry
//! a measurement-window-scoped connection summary.

use hns_conn::{AdmissionPolicy, ChurnConfig, ChurnMode, OverloadConfig};
use hns_faults::LossModel;
use hns_sim::Duration;
use hns_stack::{AppSpec, FlowSpec, RunErrorKind, SimConfig, World};

fn churn_cfg(mode: ChurnMode, rate_cps: f64) -> SimConfig {
    SimConfig {
        churn: Some(ChurnConfig {
            mode,
            rate_cps,
            ..ChurnConfig::default()
        }),
        ..SimConfig::default()
    }
}

fn run(cfg: SimConfig) -> hns_metrics::Report {
    let mut w = World::new(cfg);
    w.set_label("churn");
    w.try_run(Duration::from_millis(10), Duration::from_millis(30))
        .expect("churn run must quiesce")
}

#[test]
fn handshake_churn_establishes_and_reaps() {
    let r = run(churn_cfg(ChurnMode::HandshakeOnly, 100_000.0));
    let c = r.conn.expect("churn run reports a conn summary");
    assert!(c.established > 1_000, "handshakes complete: {c:?}");
    assert_eq!(c.failed, 0, "a lossless wire fails no handshakes");
    assert!(c.closed > 0, "the TIME_WAIT reaper frees records");
    assert!(c.handshake.samples > 0 && c.handshake.avg_us > 0.0);
    assert!(c.time_wait_high_water > 0, "closes pass through TIME_WAIT");
    // Open-loop arrivals: achieved rate tracks the offered 100k conn/s.
    assert!(c.conn_rate_cps > 50_000.0, "rate {}", c.conn_rate_cps);
    // Lifecycle work costs cycles on both the client and server hosts.
    assert!(r.sender.breakdown.total() > 0, "client side untouched");
    assert!(r.receiver.breakdown.total() > 0, "server side untouched");
}

#[test]
fn short_rpc_churn_completes_rpcs_and_delivers_bytes() {
    let r = run(churn_cfg(ChurnMode::ShortRpc, 50_000.0));
    let c = r.conn.expect("conn summary");
    assert!(
        c.rpcs > 500,
        "request/response exchanges complete: {}",
        c.rpcs
    );
    assert!(
        r.delivered_bytes > 0 && r.total_gbps > 0.0,
        "RPC payloads count as delivered application bytes"
    );
    assert!(
        c.epoll_wakeups > 0 && c.epoll_events >= c.epoll_wakeups,
        "server readiness flows through epoll accounting: {c:?}"
    );
}

#[test]
fn pool_churn_keeps_population_and_capacity_flat() {
    let pool = 20_000u32;
    let r = run(churn_cfg(ChurnMode::Pool { conns: pool }, 50_000.0));
    let c = r.conn.expect("conn summary");
    // Partial churn holds the live population near the pool size: the slab
    // never grows past the pool plus the handshake/TIME_WAIT fringe.
    assert!(c.established_high_water >= pool as u64);
    assert!(
        c.established_high_water < pool as u64 + pool as u64 / 4,
        "population crept: high water {}",
        c.established_high_water
    );
    assert!(c.table_slot_reuse > 0, "churned slots are recycled");
    assert!(
        c.opened > 0 && c.closed > 0,
        "the pool actually churned: {c:?}"
    );
}

/// A slow client lingering after its response still receives the
/// server's answers to its retransmitted requests: each is a duplicate,
/// not another RPC. A 5 µs RTO retransmits nearly every request.
#[test]
fn duplicate_responses_to_a_lingering_client_are_not_rpcs() {
    let mut cfg = churn_cfg(ChurnMode::ShortRpc, 50_000.0);
    let churn = cfg.churn.as_mut().unwrap();
    churn.rpc_size = 4096;
    churn.syn_rto = Duration::from_micros(5);
    churn.overload = OverloadConfig {
        enabled: true,
        policy: AdmissionPolicy::Queue,
        slow_prob: 1.0,
        ..OverloadConfig::default()
    };
    let mut w = World::new(cfg);
    let r = w
        .try_run(Duration::from_millis(5), Duration::from_millis(30))
        .expect("churn run must quiesce");
    let c = r.conn.expect("conn summary");
    let cap = r.capacity.expect("capacity summary");
    assert!(c.retransmits > c.opened, "requests were resent: {c:?}");
    assert!(c.rpcs > 1000 && c.rpcs <= c.opened, "{c:?}");
    assert_eq!(cap.rpc.samples, c.rpcs, "one latency sample per RPC");
}

#[test]
fn syn_loss_heals_through_the_retry_path() {
    let mut cfg = churn_cfg(ChurnMode::HandshakeOnly, 50_000.0);
    cfg.link.loss = LossModel::uniform(0.05);
    let r = run(cfg);
    let c = r.conn.expect("conn summary");
    assert!(c.retransmits > 0, "lost lifecycle segments must be retried");
    assert!(
        c.established > 500,
        "handshakes still complete under 5% loss: {c:?}"
    );
}

#[test]
fn churn_rides_alongside_a_long_flow() {
    let mut cfg = churn_cfg(ChurnMode::HandshakeOnly, 20_000.0);
    cfg.churn.as_mut().unwrap().trace_sample = 1;
    let mut w = World::new(cfg);
    let f = w.add_flow(FlowSpec::forward(0, 0));
    w.add_app(0, 0, AppSpec::LongSender { flow: f });
    w.add_app(1, 0, AppSpec::LongReceiver { flow: f });
    let r = w
        .try_run(Duration::from_millis(10), Duration::from_millis(30))
        .expect("mixed run must quiesce");
    let c = r.conn.expect("conn summary");
    assert!(c.established > 100, "handshakes complete beside bulk data");
    assert!(
        r.total_gbps > 1.0,
        "the long flow still moves data: {:.2} Gbps",
        r.total_gbps
    );
}

#[test]
fn churn_runs_are_deterministic() {
    let cfg = churn_cfg(ChurnMode::ShortRpc, 50_000.0);
    let a = run(cfg).to_json();
    let b = run(cfg).to_json();
    assert_eq!(a, b, "same seed, same config, same report");
    assert!(
        a.contains("\"conn\""),
        "churn report serializes its summary"
    );
}

#[test]
fn non_churn_runs_report_no_conn_summary() {
    let mut w = World::new(SimConfig::default());
    let f = w.add_flow(FlowSpec::forward(0, 0));
    w.add_app(0, 0, AppSpec::LongSender { flow: f });
    w.add_app(1, 0, AppSpec::LongReceiver { flow: f });
    let r = w
        .try_run(Duration::from_millis(10), Duration::from_millis(20))
        .expect("plain run");
    assert!(r.conn.is_none());
    assert!(!r.to_json().contains("\"conn\""));
}

#[test]
fn invalid_churn_plan_is_rejected_before_simulating() {
    let cfg = SimConfig {
        churn: Some(ChurnConfig {
            rate_cps: 0.0,
            ..ChurnConfig::default()
        }),
        ..SimConfig::default()
    };
    let err = World::new(cfg)
        .try_run(Duration::from_millis(1), Duration::from_millis(1))
        .expect_err("zero-rate churn plan must be rejected");
    assert_eq!(err.kind, RunErrorKind::BadChurnPlan);
    assert_eq!(err.kind.name(), "bad-churn-plan");
}
