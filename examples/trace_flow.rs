//! Trace a flow through loss: run one TCP flow over a lossy link with
//! both tracers enabled and render what each sees.
//!
//! * The **protocol tracer** (`FlowTracer`, `cfg.trace_flows`) records
//!   per-flow TCP events — cwnd samples, retransmissions, timer fires —
//!   the simulator's answer to `tcp_probe`.
//! * The **lifecycle tracer** (`hns-trace`, `cfg.trace`) stamps each skb
//!   at every pipeline stage and reports per-stage residency — the
//!   simulator's answer to a BPF tracepoint suite.
//!
//! Run with: `cargo run --release --example trace_flow`

use hostnet::building_blocks::sim::Duration;
use hostnet::building_blocks::stack::trace::TraceEvent;
use hostnet::building_blocks::stack::{AppSpec, FlowSpec, SimConfig, World};
use hostnet::building_blocks::trace::TraceConfig;

fn main() {
    let mut cfg = SimConfig::default();
    cfg.link.loss = hns_faults::LossModel::uniform(1.5e-3);
    cfg.trace_flows = true;
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

    // ── Protocol view: the congestion-window timeline ───────────────────
    let trace = &world.flows[flow as usize].trace;
    let max_cwnd = trace
        .cwnd_series()
        .map(|(_, c)| c)
        .max()
        .unwrap_or(1)
        .max(1);

    println!("congestion-window timeline (each row ≈ 1ms, # = cwnd, R = retransmit, T = timer):");
    let mut last_ms = u64::MAX;
    let mut marks: Vec<char> = Vec::new();
    let mut cwnd_now = 0u64;
    for &(t, ev) in trace.events() {
        let ms = t.as_nanos() / 1_000_000;
        if ms != last_ms {
            if last_ms != u64::MAX {
                render_row(last_ms, cwnd_now, max_cwnd, &marks);
            }
            last_ms = ms;
            marks.clear();
        }
        match ev {
            TraceEvent::CwndSample { cwnd, .. } => cwnd_now = cwnd,
            TraceEvent::Retransmit { .. } => marks.push('R'),
            TraceEvent::TimerFired => marks.push('T'),
            TraceEvent::WindowClosed => marks.push('w'),
            TraceEvent::WindowReopened => marks.push('W'),
        }
    }
    if last_ms != u64::MAX {
        render_row(last_ms, cwnd_now, max_cwnd, &marks);
    }

    println!(
        "\n(max cwnd: {:.2} MB; every loss event shows the multiplicative\n\
         decrease followed by CUBIC's recovery — at datacenter RTTs driven\n\
         by the TCP-friendly region, exactly as in the kernel)",
        max_cwnd as f64 / (1024.0 * 1024.0)
    );

    // ── Packet view: where each skb spent its time ──────────────────────
    println!("\nlifecycle tracer, every 4th skb:");
    print!(
        "{}",
        hostnet::building_blocks::metrics::format_sections(&report)
    );
    let lifecycle = world.trace();
    println!(
        "({} stamps across {} skbs; the sock_queue row is the receive-side\n\
         buffering the cwnd timeline above cannot see)",
        lifecycle.events(),
        lifecycle.skbs()
    );
}

fn render_row(ms: u64, cwnd: u64, max: u64, marks: &[char]) {
    let width = (cwnd as f64 / max as f64 * 58.0).round() as usize;
    let tags: String = marks.iter().collect();
    println!("{ms:>4}ms |{:<58}| {}", "#".repeat(width), tags);
}
