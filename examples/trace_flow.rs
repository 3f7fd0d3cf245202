//! Trace a flow through loss: run one TCP flow over a lossy link with the
//! lifecycle tracer on, then print where its skbs spent their time and the
//! flow's sender state at the end of the run.
//!
//! The lifecycle tracer (`hns-trace`, `cfg.trace`) stamps each sampled skb
//! at every pipeline stage and reports per-stage residency — the
//! simulator's answer to a BPF tracepoint suite.
//!
//! Run with: `cargo run --release --example trace_flow`

use hostnet::building_blocks::sim::Duration;
use hostnet::building_blocks::stack::{AppSpec, FlowSpec, SimConfig, World};
use hostnet::building_blocks::trace::TraceConfig;

fn main() {
    let mut cfg = SimConfig::default();
    cfg.link.loss = hns_faults::LossModel::uniform(1.5e-3);
    // Lifecycle tracer: sample every 4th skb to keep the rings cheap.
    cfg.trace = TraceConfig {
        sample_every: 4,
        ..TraceConfig::enabled()
    };

    let mut world = World::new(cfg);
    let flow = world.add_flow(FlowSpec::forward(0, 0));
    world.add_app(0, 0, AppSpec::LongSender { flow });
    world.add_app(1, 0, AppSpec::LongReceiver { flow });
    let report = world.run(Duration::from_millis(2), Duration::from_millis(28));

    println!(
        "flow 0 over a 0.15%-loss link: {:.2} Gbps, {} retransmissions\n",
        report.total_gbps, report.retransmissions
    );

    // ── Packet view: where each skb spent its time ──────────────────────
    println!("lifecycle tracer, every 4th skb:");
    print!(
        "{}",
        hostnet::building_blocks::metrics::format_sections(&report)
    );
    let lifecycle = world.trace();
    println!(
        "({} stamps across {} skbs)\n",
        lifecycle.events(),
        lifecycle.skbs()
    );

    // ── Protocol view: the sender at the end of the run ─────────────────
    let sender = &world.flows[flow as usize].sender;
    let kb = |bytes: u64| bytes as f64 / 1024.0;
    println!("sender state at {}:", world.now());
    for (name, value) in [
        ("cwnd", format!("{:.1} KB", kb(sender.cwnd()))),
        ("in flight", format!("{:.1} KB", kb(sender.in_flight()))),
        ("unsent", format!("{:.1} KB", kb(sender.unsent()))),
        ("acked", format!("{:.1} MB", kb(sender.acked()) / 1024.0)),
        (
            "srtt",
            sender.srtt().map_or("-".into(), |d| format!("{d:?}")),
        ),
        ("retransmissions", sender.retransmissions.to_string()),
    ] {
        println!("  {name:<16}{value:>14}");
    }
}
