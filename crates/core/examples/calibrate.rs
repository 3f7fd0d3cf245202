//! Calibration dashboard: runs the headline operating points of every
//! figure and prints measured-vs-paper values. Used while tuning the cost
//! model; EXPERIMENTS.md is generated from the full `hostnet figures` runs.

use hns_core::figures;
use hns_core::Category;

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| which.is_empty() || which.iter().any(|w| w == name);

    if want("fig03") {
        println!("== Fig 3a-d: single flow, incremental opts (paper: ~5?,?,?,42 Gbps/core; rx copy ~49% at aRFS; receiver bottleneck) ==");
        for r in figures::fig03_single_flow() {
            println!(
                "{:<18} thpt/core={:6.2} total={:6.2} snd={:5.2} rcv={:5.2} miss={:5.1}% rx[copy={:.2} tcp={:.2} dev={:.2} mem={:.2} sched={:.2} lock={:.2}] tx[copy={:.2} tcp={:.2}]",
                r.label, r.thpt_per_core_gbps, r.total_gbps,
                r.sender.cores_used, r.receiver.cores_used,
                r.receiver.cache.miss_rate() * 100.0,
                r.receiver.breakdown.fraction(Category::DataCopy),
                r.receiver.breakdown.fraction(Category::TcpIp),
                r.receiver.breakdown.fraction(Category::NetDevice),
                r.receiver.breakdown.fraction(Category::Memory),
                r.receiver.breakdown.fraction(Category::Sched),
                r.receiver.breakdown.fraction(Category::Lock),
                r.sender.breakdown.fraction(Category::DataCopy),
                r.sender.breakdown.fraction(Category::TcpIp),
            );
        }
    }

    if want("fig03e") {
        println!("\n== Fig 3e: ring × rcvbuf (paper: miss rises with both; 3200KB+512 → ~55Gbps optimum) ==");
        for (ring, buf, r) in figures::fig03e_ring_buffer() {
            println!(
                "ring={ring:<5} buf={buf:<8} thpt/core={:6.2} miss={:5.1}%",
                r.thpt_per_core_gbps,
                r.receiver.cache.miss_rate() * 100.0
            );
        }
    }

    if want("fig03f") {
        println!("\n== Fig 3f: NAPI→copy latency vs rcvbuf (paper: rises sharply beyond 1600KB; ~3000us p99 at 12800KB) ==");
        for (kb, r) in figures::fig03f_latency() {
            println!(
                "rcvbuf={kb:>6}KB avg={:8.1}us p99={:8.1}us thpt/core={:6.2} miss={:5.1}%",
                r.napi_to_copy.avg_us,
                r.napi_to_copy.p99_us,
                r.thpt_per_core_gbps,
                r.receiver.cache.miss_rate() * 100.0
            );
        }
    }

    if want("fig04") {
        println!("\n== Fig 4: NUMA (paper: remote ≈ −20% thpt/core, much higher miss) ==");
        for r in figures::fig04_numa() {
            println!(
                "{:<12} thpt/core={:6.2} miss={:5.1}%",
                r.label,
                r.thpt_per_core_gbps,
                r.receiver.cache.miss_rate() * 100.0
            );
        }
    }

    if want("fig05") {
        println!("\n== Fig 5: one-to-one (paper aRFS: 42→~15 Gbps/core at 24 flows; rcv cores 1,3.75,5.21,6.58; sched grows) ==");
        for (flows, level, r) in figures::fig05_one_to_one() {
            if level == hns_core::OptLevel::Arfs {
                println!(
                    "flows={flows:<3} thpt/core={:6.2} total={:6.2} rcv_cores={:5.2} miss={:5.1}% sched={:.3} mem={:.3}",
                    r.thpt_per_core_gbps, r.total_gbps, r.receiver.cores_used,
                    r.receiver.cache.miss_rate() * 100.0,
                    r.receiver.breakdown.fraction(Category::Sched),
                    r.receiver.breakdown.fraction(Category::Memory),
                );
            }
        }
    }

    if want("fig06") {
        println!("\n== Fig 6: incast (paper: ~19% thpt/core drop at 8 flows; miss 48→78%) ==");
        for (flows, level, r) in figures::fig06_incast() {
            if level == hns_core::OptLevel::Arfs {
                println!(
                    "flows={flows:<3} thpt/core={:6.2} total={:6.2} miss={:5.1}%",
                    r.thpt_per_core_gbps,
                    r.total_gbps,
                    r.receiver.cache.miss_rate() * 100.0
                );
            }
        }
    }

    if want("fig07") {
        println!("\n== Fig 7: outcast (paper: thpt/sender-core up to ~89Gbps at 8; snd miss ~11% at 24; copy dominant) ==");
        for (flows, level, r) in figures::fig07_outcast() {
            if level == hns_core::OptLevel::Arfs {
                let per_sender = r.total_gbps / r.sender.cores_used.max(1e-9);
                println!(
                    "flows={flows:<3} thpt/snd-core={per_sender:6.2} total={:6.2} snd_cores={:5.2} snd_miss={:5.1}% snd_copy={:.2}",
                    r.total_gbps, r.sender.cores_used,
                    r.sender.cache.miss_rate() * 100.0,
                    r.sender.breakdown.fraction(Category::DataCopy),
                );
            }
        }
    }

    if want("fig08") {
        println!("\n== Fig 8: all-to-all (paper: −67% thpt/core at 24x24; rcv cores 1,4.07,5.56,6.98; avg skb shrinks) ==");
        for (x, level, r) in figures::fig08_all_to_all() {
            if level == hns_core::OptLevel::Arfs {
                println!(
                    "x={x:<3} thpt/core={:6.2} total={:6.2} rcv_cores={:5.2} avg_skb={:7.0}B tcp={:.3} sched={:.3}",
                    r.thpt_per_core_gbps, r.total_gbps, r.receiver.cores_used, r.avg_skb_bytes,
                    r.receiver.breakdown.fraction(Category::TcpIp),
                    r.receiver.breakdown.fraction(Category::Sched),
                );
            }
        }
    }

    if want("fig09") {
        println!("\n== Fig 9: loss (paper: thpt/core −24% at 1.5e-2; slight ↑ at 1.5e-4; miss 48→37 at 1.5e-4) ==");
        for (loss, r) in figures::fig09_loss() {
            println!(
                "loss={loss:<8} thpt/core={:6.2} total={:6.2} snd={:5.2} rcv={:5.2} miss={:5.1}% rtx={} rx_tcp={:.3} tx_tcp={:.3}",
                r.thpt_per_core_gbps, r.total_gbps,
                r.sender.cores_used, r.receiver.cores_used,
                r.receiver.cache.miss_rate() * 100.0, r.retransmissions,
                r.receiver.breakdown.fraction(Category::TcpIp),
                r.sender.breakdown.fraction(Category::TcpIp),
            );
        }
    }

    if want("fig10") {
        println!("\n== Fig 10: RPC sizes (paper: thpt/core rises with size; 4KB not copy-bound, 16KB+ copy-bound; 16 shorts alone ≈ 6.15Gbps) ==");
        for (kb, r) in figures::fig10_short_flows() {
            println!(
                "rpc={kb:>2}KB thpt/core={:6.2} total={:6.2} rpcs={:>8} rx[copy={:.2} tcp={:.2} sched={:.2}]",
                r.thpt_per_core_gbps, r.total_gbps, r.rpcs_completed,
                r.receiver.breakdown.fraction(Category::DataCopy),
                r.receiver.breakdown.fraction(Category::TcpIp),
                r.receiver.breakdown.fraction(Category::Sched),
            );
        }
        for r in figures::fig10c_rpc_numa() {
            println!(
                "{:<22} thpt/core={:6.2} miss={:5.1}%",
                r.label,
                r.thpt_per_core_gbps,
                r.receiver.cache.miss_rate() * 100.0
            );
        }
    }

    if want("fig11") {
        println!("\n== Fig 11: mixed (paper: thpt/core −43% at 16 shorts; long 42→20, shorts 6.15→2.6) ==");
        for (shorts, r) in figures::fig11_mixed() {
            println!(
                "shorts={shorts:<3} thpt/core={:6.2} long={:6.2}Gbps rpcs={:>7} sched={:.3} tcp={:.3}",
                r.thpt_per_core_gbps,
                r.flow_gbps(hns_workload::MIXED_LONG_FLOW),
                r.rpcs_completed,
                r.receiver.breakdown.fraction(Category::Sched),
                r.receiver.breakdown.fraction(Category::TcpIp),
            );
        }
    }

    if want("fig12") {
        println!("\n== Fig 12: DCA/IOMMU (paper: DCA off −19%; IOMMU −26% with mem ≈30% of rx cycles) ==");
        for r in figures::fig12_dca_iommu() {
            println!(
                "{:<14} thpt/core={:6.2} miss={:5.1}% rx_mem={:.3}",
                r.label,
                r.thpt_per_core_gbps,
                r.receiver.cache.miss_rate() * 100.0,
                r.receiver.breakdown.fraction(Category::Memory),
            );
        }
    }

    if want("fig13") {
        println!("\n== Fig 13: CC (paper: minimal thpt difference; BBR ↑ sender sched) ==");
        for (name, r) in figures::fig13_congestion_control() {
            println!(
                "{name:<6} thpt/core={:6.2} snd_sched={:.3} rcv[copy={:.2}]",
                r.thpt_per_core_gbps,
                r.sender.breakdown.fraction(Category::Sched),
                r.receiver.breakdown.fraction(Category::DataCopy),
            );
        }
    }
}
