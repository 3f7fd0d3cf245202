//! Integration tests for the paper's §4 "future directions", implemented
//! as simulator features: zero-copy datapaths, offload/bypass datapath
//! backends, application-aware scheduling, and open-loop latency
//! behaviour.

use hostnet::building_blocks::stack::DatapathKind;
use hostnet::{Category, Experiment, ScenarioKind};

/// §4: receiver-side zero copy removes the dominant overhead — the paper
/// projects large gains because "receiver is likely to be the throughput
/// bottleneck".
#[test]
fn zerocopy_rx_removes_copy_and_lifts_throughput() {
    let base = Experiment::new(ScenarioKind::Single).quick().run();
    let zc = Experiment::new(ScenarioKind::Single)
        .configure(|c| c.stack.zerocopy_rx = true)
        .quick()
        .run();
    assert_eq!(
        zc.receiver.breakdown[Category::DataCopy],
        0,
        "zero-copy receive must not copy"
    );
    assert!(
        zc.thpt_per_core_gbps > 1.3 * base.thpt_per_core_gbps,
        "zc {:.1} vs base {:.1}",
        zc.thpt_per_core_gbps,
        base.thpt_per_core_gbps
    );
}

/// §4: sender-side zero copy approaches the paper's "~100Gbps of
/// throughput-per-core" projection on the outcast pattern.
#[test]
fn zerocopy_tx_approaches_100g_per_sender_core() {
    let r = Experiment::new(ScenarioKind::Outcast { flows: 8 })
        .configure(|c| c.stack.zerocopy_tx = true)
        .run();
    let per_sender = r.total_gbps / r.sender.cores_used.max(1e-9);
    assert!(
        per_sender > 85.0,
        "sender-side zero-copy should near 100Gbps/core, got {per_sender:.1}"
    );
}

/// Zero-copy on both sides: copies vanish from both breakdowns and the
/// wire (or remaining per-frame costs) becomes the limit.
#[test]
fn zerocopy_both_sides() {
    let r = Experiment::new(ScenarioKind::Single)
        .configure(|c| {
            c.stack.zerocopy_tx = true;
            c.stack.zerocopy_rx = true;
        })
        .quick()
        .run();
    assert_eq!(r.receiver.breakdown[Category::DataCopy], 0);
    assert_eq!(r.sender.breakdown[Category::DataCopy], 0);
    assert!(r.total_gbps > 40.0, "got {:.1}", r.total_gbps);
}

/// §4: a TCP-offload NIC moves protocol, skb and memory management
/// on-NIC; what remains on the host is exactly the copy + syscall +
/// descriptor residue the paper predicts — and with the protocol gone,
/// the data copy towers over everything else.
#[test]
fn toe_offload_leaves_copy_as_the_residue() {
    let base = Experiment::new(ScenarioKind::Single).quick().run();
    let toe = Experiment::new(ScenarioKind::Single)
        .configure(|c| c.datapath = DatapathKind::ToeOffload)
        .quick()
        .run();
    for cat in [Category::TcpIp, Category::SkbMgmt, Category::Memory] {
        assert_eq!(
            toe.receiver.breakdown[cat] + toe.sender.breakdown[cat],
            0,
            "{} must move on-NIC under TOE",
            cat.label()
        );
    }
    assert_eq!(toe.receiver.breakdown.dominant(), Some(Category::DataCopy));
    assert!(
        toe.thpt_per_core_gbps > 1.5 * base.thpt_per_core_gbps,
        "toe {:.1} vs in-kernel {:.1}",
        toe.thpt_per_core_gbps,
        base.thpt_per_core_gbps
    );
}

/// §4: kernel bypass beats every in-kernel variant — including both-sides
/// zero copy — because it also sheds syscalls, interrupts and the rest of
/// the stack, leaving only descriptor polling on a dedicated core.
#[test]
fn kernel_bypass_exceeds_every_in_kernel_variant() {
    let zc_both = Experiment::new(ScenarioKind::Single)
        .configure(|c| {
            c.stack.zerocopy_tx = true;
            c.stack.zerocopy_rx = true;
        })
        .quick()
        .run();
    let byp = Experiment::new(ScenarioKind::Single)
        .configure(|c| c.datapath = DatapathKind::UserBypass)
        .quick()
        .run();
    for side in [&byp.sender, &byp.receiver] {
        assert_eq!(side.breakdown[Category::DataCopy], 0, "bypass is zero-copy");
        assert_eq!(side.breakdown[Category::Etc], 0, "no syscalls, no IRQs");
        assert_eq!(
            side.breakdown[Category::TcpIp],
            0,
            "protocol in userspace lib"
        );
    }
    assert!(
        byp.thpt_per_core_gbps > zc_both.thpt_per_core_gbps,
        "bypass {:.1} should beat zero-copy in-kernel {:.1}",
        byp.thpt_per_core_gbps,
        zc_both.thpt_per_core_gbps
    );
}

/// §4 application-aware CPU scheduling: moving the Fig. 11 short flows
/// onto their own core pair recovers most of the long flow's mixing
/// penalty, and the RPCs complete no fewer round trips for it.
#[test]
fn app_aware_isolation_recovers_the_mixing_penalty() {
    use hostnet::building_blocks::sim::Duration;
    use hostnet::building_blocks::stack::{AppSpec, FlowSpec, SimConfig, World};

    let colocated = Experiment::new(ScenarioKind::Mixed {
        shorts: 16,
        size: 4096,
    })
    .run();
    let isolated = {
        // The long flow on core pair 0, the 16 RPC pairs on core pair 1.
        let mut w = World::new(SimConfig::default());
        let long = w.add_flow(FlowSpec::forward(0, 0));
        w.add_app(0, 0, AppSpec::LongSender { flow: long });
        w.add_app(1, 0, AppSpec::LongReceiver { flow: long });
        let conns: Vec<_> = (0..16)
            .map(|_| {
                let req = w.add_flow(FlowSpec::forward(1, 1));
                let resp = w.add_flow(FlowSpec::reverse(1, 1));
                w.add_app(
                    0,
                    1,
                    AppSpec::RpcClient {
                        tx: req,
                        rx: resp,
                        size: 4096,
                    },
                );
                (req, resp)
            })
            .collect();
        w.add_app(1, 1, AppSpec::RpcServer { conns, size: 4096 });
        w.run(Duration::from_millis(20), Duration::from_millis(30))
    };
    assert!(
        isolated.flow_gbps(0) >= 1.5 * colocated.flow_gbps(0),
        "isolated long flow {:.2} vs colocated {:.2} Gbps",
        isolated.flow_gbps(0),
        colocated.flow_gbps(0)
    );
    assert!(
        isolated.rpcs_completed >= colocated.rpcs_completed,
        "isolated rpcs {} vs colocated {}",
        isolated.rpcs_completed,
        colocated.rpcs_completed
    );
}

/// Open-loop RPC: latency rises with offered load (the hockey-stick), and
/// throughput tracks the offered load while unsaturated.
#[test]
fn open_loop_latency_hockey_stick() {
    let light = Experiment::new(ScenarioKind::OpenLoop {
        clients: 8,
        size: 4096,
        rate_rps: 2_500.0, // 20k rps aggregate
    })
    .run();
    let heavy = Experiment::new(ScenarioKind::OpenLoop {
        clients: 8,
        size: 4096,
        rate_rps: 36_000.0, // 288k rps aggregate, near server capacity
    })
    .run();
    assert!(light.rpcs_completed > 0 && heavy.rpcs_completed > 0);
    assert!(
        heavy.rpc_latency.avg_us > 1.5 * light.rpc_latency.avg_us,
        "no hockey stick: light {:.1}us heavy {:.1}us",
        light.rpc_latency.avg_us,
        heavy.rpc_latency.avg_us
    );
    assert!(heavy.rpc_latency.p99_us > heavy.rpc_latency.avg_us);
    // Light load is essentially unqueued: round trip in the tens of µs.
    assert!(
        light.rpc_latency.avg_us < 50.0,
        "light-load latency {:.1}us",
        light.rpc_latency.avg_us
    );
}

/// Open-loop throughput matches the offered load when the server has
/// headroom (conservation of requests).
#[test]
fn open_loop_conserves_offered_load() {
    let r = Experiment::new(ScenarioKind::OpenLoop {
        clients: 4,
        size: 4096,
        rate_rps: 10_000.0,
    })
    .run();
    let achieved = r.rpcs_completed as f64 / 2.0 / r.window_secs;
    let offered = 4.0 * 10_000.0;
    let rel = (achieved - offered).abs() / offered;
    assert!(
        rel < 0.15,
        "achieved {achieved:.0} vs offered {offered:.0} (rel {rel:.2})"
    );
}
