//! Build a simulation directly from the building blocks instead of the
//! canned scenarios: a skewed workload with two long flows and a latency-
//! sensitive RPC pair, and DCTCP with ECN marking at the switch.
//!
//! Run with: `cargo run --release --example custom_world`

use hostnet::building_blocks::proto::cc::CcAlgo;
use hostnet::building_blocks::sim::Duration;
use hostnet::building_blocks::stack::{AppSpec, FabricConfig, FlowSpec, SimConfig, World};

fn main() {
    // A switch that CE-marks past a shallow queue (20 us at 100 Gbps),
    // the environment DCTCP is designed for.
    let mut cfg = SimConfig {
        fabric: Some(FabricConfig {
            ecn_threshold_bytes: Some(250_000),
            ..FabricConfig::neutral(2)
        }),
        seed: 42,
        ..SimConfig::default()
    };
    cfg.stack.cc = CcAlgo::Dctcp;

    let mut world = World::new(cfg);
    world.set_label("custom: 2 long + 1 rpc, dctcp with ecn");

    // Two bulk flows on their own cores.
    for core in 0..2u16 {
        let f = world.add_flow(FlowSpec::forward(core, core));
        world.add_app(0, core, AppSpec::LongSender { flow: f });
        world.add_app(1, core, AppSpec::LongReceiver { flow: f });
    }
    // A latency-sensitive 2KB RPC pair on its own core (core 2), away
    // from the bulk flows — the scheduling hygiene §4 recommends.
    let req = world.add_flow(FlowSpec::forward(2, 2));
    let resp = world.add_flow(FlowSpec::reverse(2, 2));
    world.add_app(
        0,
        2,
        AppSpec::RpcClient {
            tx: req,
            rx: resp,
            size: 2048,
        },
    );
    world.add_app(
        1,
        2,
        AppSpec::RpcServer {
            conns: vec![(req, resp)],
            size: 2048,
        },
    );

    let report = world.run(Duration::from_millis(20), Duration::from_millis(30));

    println!("{}", report.label);
    println!("  total throughput    {:.2} Gbps", report.total_gbps);
    for flow in 0..2u64 {
        println!(
            "  bulk flow {flow}        {:.2} Gbps",
            report.flow_gbps(flow)
        );
    }
    println!(
        "  rpc round trips     {} ({:.0}/s)",
        report.rpcs_completed / 2,
        report.rpcs_completed as f64 / 2.0 / report.window_secs
    );
    println!(
        "  retransmissions     {} (wire drops: {})",
        report.retransmissions, report.wire_drops
    );
    println!("\nreceiver breakdown:");
    for (cat, _) in report.receiver.breakdown.iter() {
        println!(
            "  {:<12} {:>5.1}%",
            cat.label(),
            report.receiver.breakdown.fraction(cat) * 100.0
        );
    }
}
