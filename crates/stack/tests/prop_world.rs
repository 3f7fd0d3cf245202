//! Property tests over the assembled world: arbitrary configurations and
//! placements must never panic, never violate physical bounds, and stay
//! deterministic.

use hns_nic::steering::SteeringMode;
use hns_proto::cc::CcAlgo;
use hns_sim::Duration;
use hns_stack::config::RcvBufPolicy;
use hns_stack::{AppSpec, FlowSpec, RunErrorKind, SimConfig, World};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Cfg {
    seed: u64,
    loss_milli: u32, // loss = milli / 1000 / 10  (0..3%)
    mtu: u32,
    tso_gro: bool,
    arfs: bool,
    dca: bool,
    iommu: bool,
    zc_rx: bool,
    cc: u8,
    ring_shift: u32,
    rcvbuf_kb: u32, // 0 = auto
    n_flows: u16,
}

fn cfg_strategy() -> impl Strategy<Value = Cfg> {
    (
        any::<u64>(),
        0u32..30,
        prop_oneof![Just(1500u32), Just(4000), Just(9000)],
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u8..4,
        7u32..13, // ring = 2^shift (128..4096)
        prop_oneof![Just(0u32), 256u32..8192],
        1u16..6,
    )
        .prop_map(
            |(
                seed,
                loss_milli,
                mtu,
                tso_gro,
                arfs,
                dca,
                iommu,
                zc_rx,
                cc,
                ring_shift,
                rcvbuf_kb,
                n_flows,
            )| Cfg {
                seed,
                loss_milli,
                mtu,
                tso_gro,
                arfs,
                dca,
                iommu,
                zc_rx,
                cc,
                ring_shift,
                rcvbuf_kb,
                n_flows,
            },
        )
}

#[allow(clippy::field_reassign_with_default)] // config builder style
fn build(c: &Cfg) -> World {
    let mut cfg = SimConfig::default();
    cfg.seed = c.seed;
    cfg.link.loss = hns_faults::LossModel::uniform(c.loss_milli as f64 / 1000.0 / 10.0);
    cfg.stack.mtu = c.mtu;
    cfg.stack.tso = c.tso_gro;
    cfg.stack.gro = c.tso_gro;
    cfg.stack.steering = if c.arfs {
        SteeringMode::Arfs
    } else {
        SteeringMode::Rss
    };
    cfg.stack.dca = c.dca;
    cfg.stack.iommu = c.iommu;
    cfg.stack.zerocopy_rx = c.zc_rx;
    cfg.stack.cc = match c.cc {
        0 => CcAlgo::Cubic,
        1 => CcAlgo::Reno,
        2 => CcAlgo::Dctcp,
        _ => CcAlgo::Bbr,
    };
    cfg.stack.rx_descriptors = 1 << c.ring_shift;
    if c.rcvbuf_kb > 0 {
        cfg.stack.rcvbuf = RcvBufPolicy::Fixed(c.rcvbuf_kb as u64 * 1024);
    }

    let mut w = World::new(cfg);
    for i in 0..c.n_flows {
        let f = w.add_flow(FlowSpec::forward(i, i));
        w.add_app(0, i, AppSpec::LongSender { flow: f });
        w.add_app(1, i, AppSpec::LongReceiver { flow: f });
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any configuration runs to completion with physically sane output.
    #[test]
    fn arbitrary_configs_are_sane(c in cfg_strategy()) {
        let mut w = build(&c);
        let r = w.run(Duration::from_millis(3), Duration::from_millis(4));
        prop_assert!(r.total_gbps >= 0.0 && r.total_gbps < 100.0, "{c:?}: {}", r.total_gbps);
        prop_assert!(r.sender.cores_used <= 24.0 + 1e-9);
        prop_assert!(r.receiver.cores_used <= 24.0 + 1e-9);
        let miss = r.receiver.cache.miss_rate();
        prop_assert!((0.0..=1.0).contains(&miss));
        if c.loss_milli == 0 {
            prop_assert_eq!(r.wire_drops, 0);
        }
        // Every flow's in-order stream is consistent: delivered bytes per
        // flow never exceed the sender's acked range.
        for f in &w.flows {
            prop_assert!(f.app_bytes <= f.receiver.rcv_nxt(), "{c:?}");
        }
    }

    /// Determinism holds for arbitrary configurations, not just defaults.
    #[test]
    fn arbitrary_configs_are_deterministic(c in cfg_strategy()) {
        let r1 = build(&c).run(Duration::from_millis(2), Duration::from_millis(3));
        let r2 = build(&c).run(Duration::from_millis(2), Duration::from_millis(3));
        prop_assert_eq!(r1.delivered_bytes, r2.delivered_bytes);
        prop_assert_eq!(r1.retransmissions, r2.retransmissions);
        prop_assert_eq!(r1.receiver.breakdown, r2.receiver.breakdown);
    }

    /// The DMA frame arena never leaks: after the run, live frames are
    /// bounded by what can actually be pending (ring + socket queues).
    #[test]
    fn frame_arena_bounded(c in cfg_strategy()) {
        let mut w = build(&c);
        let _ = w.run(Duration::from_millis(2), Duration::from_millis(3));
        // Everything still live must be accounted to a socket queue or the
        // softirq backlog — bounded by rcvbuf-scale numbers, not unbounded.
        let queued: usize = w.flows.iter().map(|f| f.rx_queue.len()).sum();
        prop_assert!(queued < 100_000, "rx queues exploded: {queued}");
    }
}

/// One knob of an otherwise runnable config pushed out of range, and the
/// error kind `try_run` must refuse it with.
fn bad_config(knob: u8, r: u64) -> (SimConfig, RunErrorKind) {
    use hns_conn::overload::SOCK_BYTES;
    use hns_conn::{ChurnConfig, ChurnMode};
    use hns_faults::{CoreStall, PhaseSchedule};
    use hns_monitor::MonitorConfig;
    use hns_stack::{DatapathKind, FabricConfig};
    use hns_trace::TraceConfig;

    let mut cfg = SimConfig::default();
    let mut churn = ChurnConfig::default();
    let x = (r >> 8) as f64;
    let kind = match knob {
        0 => {
            cfg.monitor = Some(MonitorConfig {
                interval: Duration::ZERO,
            });
            cfg.trace = TraceConfig::enabled();
            RunErrorKind::BadMonitorConfig
        }
        1 => {
            churn.rate_cps = [0.0, -x, f64::NAN, f64::INFINITY][(r % 4) as usize];
            cfg.churn = Some(churn);
            RunErrorKind::BadChurnPlan
        }
        2 => {
            let ov = &mut churn.overload;
            ov.enabled = true;
            match r % 3 {
                0 => ov.accept_queue = 0,
                1 => ov.slow_prob = [-1.0 - x, 1.0 + x + 1e-9][(r % 2) as usize],
                _ => ov.mem_budget = 1 + (r >> 8) % (SOCK_BYTES - 1),
            }
            cfg.churn = Some(churn);
            RunErrorKind::BadChurnPlan
        }
        3 => {
            churn.mode = ChurnMode::Pool { conns: 1000 };
            churn.overload.enabled = true;
            cfg.churn = Some(churn);
            RunErrorKind::BadChurnPlan
        }
        4 => {
            let cores = cfg.topology.total_cores();
            cfg.faults.core_stall = Some(CoreStall {
                window: PhaseSchedule::once(Duration::ZERO, Duration::from_millis(1)),
                host: 1,
                core: cores + (r % (u16::MAX - cores) as u64) as u16,
            });
            RunErrorKind::BadFaultPlan
        }
        5 => {
            cfg.datapath = [DatapathKind::ToeOffload, DatapathKind::UserBypass][(r % 2) as usize];
            cfg.churn = Some(churn);
            RunErrorKind::BadChurnPlan
        }
        6 => {
            cfg.fabric = Some(FabricConfig::neutral([0, 1, 257][(r % 3) as usize]));
            RunErrorKind::BadTopology
        }
        7 => {
            cfg.link.gbps = [0.0, -x, f64::NAN, f64::INFINITY][(r % 4) as usize];
            RunErrorKind::BadTopology
        }
        8 => {
            cfg.trace = TraceConfig {
                sample_every: 0,
                ..TraceConfig::enabled()
            };
            RunErrorKind::BadTraceConfig
        }
        _ => {
            // A valid monitor whose stage sketches the tracer never feeds.
            cfg.monitor = Some(MonitorConfig::default());
            RunErrorKind::BadMonitorConfig
        }
    };
    (cfg, kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No reachable `SimConfig` panics: an out-of-range knob is a
    /// `RunError` from `try_run`, of the kind that names the knob, and
    /// never a panic in `World::new` or the run.
    #[test]
    fn out_of_range_configs_are_run_errors_not_panics(knob in 0u8..10, r in any::<u64>()) {
        let (cfg, kind) = bad_config(knob, r);
        let outcome = std::panic::catch_unwind(|| {
            World::new(cfg).try_run(Duration::from_millis(1), Duration::from_millis(1))
        });
        match outcome {
            Ok(Err(e)) => prop_assert_eq!(e.kind, kind, "{:?}: {}", cfg, e),
            Ok(Ok(_)) => prop_assert!(false, "knob {knob} ran: {cfg:?}"),
            Err(_) => prop_assert!(false, "knob {knob} panicked: {cfg:?}"),
        }
    }
}
