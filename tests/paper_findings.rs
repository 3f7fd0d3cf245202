//! Integration tests asserting the paper's headline findings hold in the
//! reproduction — the *shapes* (who wins, what dominates, direction of
//! effects), not exact Gbps values.
//!
//! Tests use shortened measurement windows; the full-length numbers are
//! produced by `hostnet figures` and recorded in EXPERIMENTS.md.

use hostnet::building_blocks::stack::config::RcvBufPolicy;
use hostnet::{Category, Experiment, OptLevel, Placement, ScenarioKind};

fn quick(kind: ScenarioKind) -> Experiment {
    Experiment::new(kind).quick()
}

/// §3.1: "A single core is no longer sufficient" — a single flow with all
/// optimizations cannot reach line rate, landing near 40Gbps per core.
#[test]
fn single_core_cannot_do_line_rate() {
    let r = quick(ScenarioKind::Single).run();
    assert!(
        r.thpt_per_core_gbps < 70.0,
        "single core should be far from 100Gbps, got {:.1}",
        r.thpt_per_core_gbps
    );
    assert!(
        r.thpt_per_core_gbps > 25.0,
        "all-opts single flow should still be tens of Gbps, got {:.1}",
        r.thpt_per_core_gbps
    );
}

/// §3.1: data copy dominates the receiver with all optimizations on.
#[test]
fn data_copy_dominates_receiver() {
    let r = quick(ScenarioKind::Single).run();
    assert_eq!(r.receiver.breakdown.dominant(), Some(Category::DataCopy));
    let f = r.receiver.breakdown.fraction(Category::DataCopy);
    assert!((0.35..0.70).contains(&f), "copy fraction {f:.2}");
}

/// §3.1 / Fig. 3b: the receiver is the bottleneck at every optimization
/// level.
#[test]
fn receiver_is_bottleneck_at_every_level() {
    for level in OptLevel::ALL {
        let r = quick(ScenarioKind::Single).at_level(level).run();
        assert!(
            r.receiver.cores_used > r.sender.cores_used,
            "{}: rcv {:.2} vs snd {:.2}",
            level.label(),
            r.receiver.cores_used,
            r.sender.cores_used
        );
    }
}

/// Fig. 3a: each optimization level improves throughput-per-core.
#[test]
fn optimizations_stack_up() {
    let mut last = 0.0;
    for level in OptLevel::ALL {
        let r = quick(ScenarioKind::Single).at_level(level).run();
        assert!(
            r.thpt_per_core_gbps > last,
            "{} did not improve: {:.2} after {:.2}",
            level.label(),
            r.thpt_per_core_gbps,
            last
        );
        last = r.thpt_per_core_gbps;
    }
}

/// §3.1: even a single flow sees ~49% DCA misses under default
/// auto-tuning.
#[test]
fn single_flow_high_cache_miss() {
    let r = quick(ScenarioKind::Single).run();
    let miss = r.receiver.cache.miss_rate();
    assert!((0.30..0.70).contains(&miss), "miss = {miss:.2}");
}

/// Fig. 3e: larger rings and larger buffers both raise the miss rate.
#[test]
fn ring_and_buffer_raise_misses() {
    let small = quick(ScenarioKind::Single)
        .configure(|c| {
            c.stack.rx_descriptors = 128;
            c.stack.rcvbuf = RcvBufPolicy::Fixed(1600 * 1024);
        })
        .run();
    let big_buffer = quick(ScenarioKind::Single)
        .configure(|c| {
            c.stack.rx_descriptors = 128;
            c.stack.rcvbuf = RcvBufPolicy::Fixed(12800 * 1024);
        })
        .run();
    let big_ring = quick(ScenarioKind::Single)
        .configure(|c| {
            c.stack.rx_descriptors = 4096;
            c.stack.rcvbuf = RcvBufPolicy::Fixed(1600 * 1024);
        })
        .run();
    assert!(
        big_buffer.receiver.cache.miss_rate() > small.receiver.cache.miss_rate() + 0.2,
        "buffer: {:.2} vs {:.2}",
        big_buffer.receiver.cache.miss_rate(),
        small.receiver.cache.miss_rate()
    );
    assert!(
        big_ring.receiver.cache.miss_rate() > small.receiver.cache.miss_rate() + 0.05,
        "ring: {:.2} vs {:.2}",
        big_ring.receiver.cache.miss_rate(),
        small.receiver.cache.miss_rate()
    );
    assert!(big_buffer.thpt_per_core_gbps < small.thpt_per_core_gbps);
}

/// Fig. 3f: NAPI→copy latency rises steeply with the receive buffer.
#[test]
fn latency_rises_with_buffer() {
    let small = quick(ScenarioKind::Single)
        .configure(|c| c.stack.rcvbuf = RcvBufPolicy::Fixed(400 * 1024))
        .run();
    let large = quick(ScenarioKind::Single)
        .configure(|c| c.stack.rcvbuf = RcvBufPolicy::Fixed(12800 * 1024))
        .run();
    assert!(
        large.napi_to_copy.avg_us > 5.0 * small.napi_to_copy.avg_us,
        "small {:.1}us vs large {:.1}us",
        small.napi_to_copy.avg_us,
        large.napi_to_copy.avg_us
    );
    assert!(large.napi_to_copy.p99_us >= large.napi_to_copy.avg_us);
}

/// Fig. 4: NIC-remote NUMA placement costs ~20% for long flows.
#[test]
fn numa_remote_hurts_long_flows() {
    let local = quick(ScenarioKind::Single).run();
    let remote = quick(ScenarioKind::SingleNicRemote).run();
    let drop = 1.0 - remote.thpt_per_core_gbps / local.thpt_per_core_gbps;
    assert!(
        (0.05..0.40).contains(&drop),
        "NUMA-remote drop = {:.2} (local {:.1}, remote {:.1})",
        drop,
        local.thpt_per_core_gbps,
        remote.thpt_per_core_gbps
    );
    assert!(remote.receiver.cache.miss_rate() > 0.9, "no DCA remotely");
}

/// §3.2: one-to-one throughput-per-core decays with flow count even
/// though every flow has a dedicated core.
#[test]
fn one_to_one_efficiency_decays() {
    let one = quick(ScenarioKind::Single).run();
    let eight = quick(ScenarioKind::OneToOne { flows: 8 }).run();
    assert!(
        eight.thpt_per_core_gbps < 0.75 * one.thpt_per_core_gbps,
        "8 flows: {:.1} vs 1 flow {:.1}",
        eight.thpt_per_core_gbps,
        one.thpt_per_core_gbps
    );
    // Link saturates.
    assert!(eight.total_gbps > 90.0, "total {:.1}", eight.total_gbps);
    // Scheduling overhead appears once cores idle between bursts (§3.2).
    assert!(
        eight.receiver.breakdown.fraction(Category::Sched)
            > one.receiver.breakdown.fraction(Category::Sched)
    );
    // Memory management overhead *shrinks* (better page recycling).
    assert!(
        eight.receiver.breakdown.fraction(Category::Memory)
            < one.receiver.breakdown.fraction(Category::Memory)
    );
}

/// §3.3: incast drops throughput-per-core ~19% at 8 flows via cache
/// pollution.
#[test]
fn incast_pollutes_cache() {
    // Full-length windows: 8 incast flows need longer than quick() to
    // settle their buffer auto-tuning into steady state.
    let one = Experiment::new(ScenarioKind::Single).run();
    let eight = Experiment::new(ScenarioKind::Incast { flows: 8 }).run();
    assert!(
        eight.receiver.cache.miss_rate() > one.receiver.cache.miss_rate() + 0.2,
        "incast miss {:.2} vs single {:.2}",
        eight.receiver.cache.miss_rate(),
        one.receiver.cache.miss_rate()
    );
    let drop = 1.0 - eight.thpt_per_core_gbps / one.thpt_per_core_gbps;
    assert!((0.05..0.45).contains(&drop), "drop = {drop:.2}");
}

/// §3.4: the sender-side pipeline is roughly 2× more CPU-efficient than
/// the receiver's.
#[test]
fn sender_pipeline_more_efficient() {
    let outcast = quick(ScenarioKind::Outcast { flows: 8 }).run();
    let incast = quick(ScenarioKind::Incast { flows: 8 }).run();
    let per_sender_core = outcast.total_gbps / outcast.sender.cores_used;
    let per_receiver_core = incast.total_gbps / incast.receiver.cores_used;
    let ratio = per_sender_core / per_receiver_core;
    assert!(
        (1.5..3.5).contains(&ratio),
        "sender/receiver efficiency ratio = {ratio:.2} \
         ({per_sender_core:.1} vs {per_receiver_core:.1})"
    );
}

/// §3.5: all-to-all shrinks post-GRO skb sizes (Fig. 8c) and decays
/// throughput-per-core.
#[test]
fn all_to_all_shrinks_skbs() {
    let single = quick(ScenarioKind::Single).run();
    let a2a = quick(ScenarioKind::AllToAll { x: 8 }).run();
    assert!(
        a2a.avg_skb_bytes < 0.5 * single.avg_skb_bytes,
        "a2a skb {:.0}B vs single {:.0}B",
        a2a.avg_skb_bytes,
        single.avg_skb_bytes
    );
    assert!(a2a.thpt_per_core_gbps < 0.8 * single.thpt_per_core_gbps);
}

/// §3.6: loss costs retransmissions; heavy loss reduces total throughput;
/// light loss slightly *helps* cache hit rates.
#[test]
fn loss_effects() {
    let clean = quick(ScenarioKind::Single).run();
    let light = quick(ScenarioKind::Single)
        .configure(|c| c.link.loss = hns_faults::LossModel::uniform(1.5e-4))
        .run();
    let heavy = quick(ScenarioKind::Single)
        .configure(|c| c.link.loss = hns_faults::LossModel::uniform(1.5e-2))
        .run();
    assert!(heavy.retransmissions > 0);
    // SACK-assisted recovery keeps the throughput cost of 1.5% loss
    // modest, but it must still be visible.
    assert!(
        heavy.total_gbps < 0.95 * clean.total_gbps,
        "heavy {:.1} vs clean {:.1}",
        heavy.total_gbps,
        clean.total_gbps
    );
    // Light loss: miss rate does not get worse (the paper observed it
    // improving 48% → 37%).
    assert!(
        light.receiver.cache.miss_rate() <= clean.receiver.cache.miss_rate() + 0.02,
        "light-loss miss {:.2} vs clean {:.2}",
        light.receiver.cache.miss_rate(),
        clean.receiver.cache.miss_rate()
    );
    // TCP processing share grows under heavy loss on both sides.
    assert!(
        heavy.receiver.breakdown.fraction(Category::TcpIp)
            > clean.receiver.breakdown.fraction(Category::TcpIp)
    );
}

/// §3.7: 4KB RPCs are not copy-dominated; 64KB RPCs are.
#[test]
fn rpc_size_shifts_bottleneck() {
    let tiny = quick(ScenarioKind::RpcIncast {
        clients: 16,
        size: 4 * 1024,
        server: Placement::NicLocalFirst,
    })
    .run();
    let big = quick(ScenarioKind::RpcIncast {
        clients: 16,
        size: 64 * 1024,
        server: Placement::NicLocalFirst,
    })
    .run();
    assert!(tiny.rpcs_completed > 0 && big.rpcs_completed > 0);
    assert_ne!(tiny.receiver.breakdown.dominant(), Some(Category::DataCopy));
    assert!(
        big.receiver.breakdown.fraction(Category::DataCopy)
            > 2.0 * tiny.receiver.breakdown.fraction(Category::DataCopy)
    );
    assert!(big.thpt_per_core_gbps > 1.5 * tiny.thpt_per_core_gbps);
}

/// §3.7 / Fig. 10c: NUMA placement barely matters for 4KB RPCs.
#[test]
fn numa_placement_marginal_for_small_rpcs() {
    let local = quick(ScenarioKind::RpcIncast {
        clients: 16,
        size: 4096,
        server: Placement::NicLocalFirst,
    })
    .run();
    let remote = quick(ScenarioKind::RpcIncast {
        clients: 16,
        size: 4096,
        server: Placement::NicRemote,
    })
    .run();
    let delta =
        (local.thpt_per_core_gbps - remote.thpt_per_core_gbps).abs() / local.thpt_per_core_gbps;
    assert!(delta < 0.10, "4KB RPC NUMA delta = {delta:.2}");
    // But the *cache miss rate* is much higher remotely — the bytes just
    // don't matter at this size.
    assert!(remote.receiver.cache.miss_rate() > local.receiver.cache.miss_rate() + 0.2);
}

/// §3.7 / Fig. 11: mixing long and short flows on one core hurts both.
#[test]
fn mixing_long_and_short_is_harmful() {
    let pure = quick(ScenarioKind::Mixed {
        shorts: 0,
        size: 4096,
    })
    .run();
    let mixed = quick(ScenarioKind::Mixed {
        shorts: 16,
        size: 4096,
    })
    .run();
    let long_before = pure.flow_gbps(0);
    let long_after = mixed.flow_gbps(0);
    assert!(
        long_after < 0.8 * long_before,
        "long flow {long_before:.1} → {long_after:.1}"
    );
    assert!(mixed.rpcs_completed > 0);
}

/// §3.8: disabling DCA costs ~19% throughput-per-core.
#[test]
fn dca_disabled_hurts() {
    let default = quick(ScenarioKind::Single).run();
    let no_dca = quick(ScenarioKind::Single)
        .configure(|c| c.stack.dca = false)
        .run();
    let drop = 1.0 - no_dca.thpt_per_core_gbps / default.thpt_per_core_gbps;
    assert!((0.05..0.35).contains(&drop), "DCA-off drop = {drop:.2}");
    assert!(no_dca.receiver.cache.miss_rate() > 0.99);
}

/// §3.9: the IOMMU costs ~26% and pushes memory management toward ~30% of
/// receiver cycles.
#[test]
fn iommu_inflates_memory_management() {
    let default = quick(ScenarioKind::Single).run();
    let iommu = quick(ScenarioKind::Single)
        .configure(|c| c.stack.iommu = true)
        .run();
    let drop = 1.0 - iommu.thpt_per_core_gbps / default.thpt_per_core_gbps;
    assert!((0.10..0.45).contains(&drop), "IOMMU drop = {drop:.2}");
    let mem = iommu.receiver.breakdown.fraction(Category::Memory);
    assert!((0.20..0.60).contains(&mem), "IOMMU rx memory = {mem:.2}");
    assert!(mem > 1.5 * default.receiver.breakdown.fraction(Category::Memory));
}

/// §4: the datapath architectures order by how much host work each one
/// sheds — in-kernel pays the full taxonomy, TOE keeps copy + syscall +
/// descriptors, bypass keeps descriptors alone — so goodput-per-host-core
/// orders the other way around.
#[test]
fn offload_datapaths_order_by_remaining_host_work() {
    use hostnet::building_blocks::stack::DatapathKind;
    let per_core = |kind: DatapathKind| {
        quick(ScenarioKind::Single)
            .configure(|c| c.datapath = kind)
            .run()
            .thpt_per_core_gbps
    };
    let ik = per_core(DatapathKind::InKernel);
    let toe = per_core(DatapathKind::ToeOffload);
    let byp = per_core(DatapathKind::UserBypass);
    assert!(
        byp > toe && toe > ik,
        "bypass {byp:.1} / toe {toe:.1} / inkernel {ik:.1}"
    );
}

/// §4: TOE reassembles in hardware regardless of the host GRO knob — at
/// the paper's no-opt level the in-kernel stack delivers MTU-sized skbs
/// while the TOE still hands the host large aggregates.
#[test]
fn toe_aggregates_even_at_no_opt() {
    use hostnet::building_blocks::stack::DatapathKind;
    let ik = quick(ScenarioKind::Single).at_level(OptLevel::NoOpt).run();
    let toe = quick(ScenarioKind::Single)
        .at_level(OptLevel::NoOpt)
        .configure(|c| c.datapath = DatapathKind::ToeOffload)
        .run();
    // Without TSO the sender emits MTU frames, so reassembly is bounded
    // by NAPI batch occupancy — still roughly 2× the in-kernel skbs.
    assert!(
        toe.avg_skb_bytes > 1.5 * ik.avg_skb_bytes,
        "toe skb {:.0}B vs no-opt in-kernel {:.0}B",
        toe.avg_skb_bytes,
        ik.avg_skb_bytes
    );
    assert!(
        toe.thpt_per_core_gbps > 2.0 * ik.thpt_per_core_gbps,
        "offload should dwarf the unoptimized stack: toe {:.1} vs {:.1}",
        toe.thpt_per_core_gbps,
        ik.thpt_per_core_gbps
    );
}

/// §3.10: congestion control choice barely moves throughput-per-core, but
/// BBR pays extra sender-side scheduling for pacing.
#[test]
fn congestion_control_is_not_the_bottleneck() {
    use hostnet::building_blocks::proto::cc::CcAlgo;
    let cubic = quick(ScenarioKind::Single).run();
    let bbr = quick(ScenarioKind::Single)
        .configure(|c| c.stack.cc = CcAlgo::Bbr)
        .run();
    let dctcp = quick(ScenarioKind::Single)
        .configure(|c| c.stack.cc = CcAlgo::Dctcp)
        .run();
    for (name, r) in [("bbr", &bbr), ("dctcp", &dctcp)] {
        let delta =
            (r.thpt_per_core_gbps - cubic.thpt_per_core_gbps).abs() / cubic.thpt_per_core_gbps;
        assert!(delta < 0.25, "{name} delta = {delta:.2}");
    }
    assert!(
        bbr.sender.breakdown.fraction(Category::Sched)
            > cubic.sender.breakdown.fraction(Category::Sched),
        "BBR should pay for pacing: {:.3} vs {:.3}",
        bbr.sender.breakdown.fraction(Category::Sched),
        cubic.sender.breakdown.fraction(Category::Sched)
    );
}
