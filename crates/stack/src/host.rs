//! Per-host state: cores, NIC, memory subsystem, and measurement
//! accumulators for one of the two machines.

use std::collections::VecDeque;

use hns_mem::numa::NodeId;
use hns_mem::{DcaCache, FrameArena, FrameId, Iommu, PageAllocator, SenderL3};
use hns_metrics::{CacheStats, CoreUsage, CycleBreakdown};
use hns_nic::{InterruptCoalescer, RxRing};
use hns_sched::Scheduler;
use hns_sim::{EventKey, Histogram, SimTime};

use crate::config::SimConfig;
use crate::gro::GroEngine;

/// A frame sitting in a core's softirq backlog, DMAed but not yet polled.
/// Its segment stays parked in the world's segment slab from Tx enqueue
/// until the NAPI poll takes it, so the backlog queues only the slot.
#[derive(Clone, Copy, Debug)]
pub struct PendingFrame {
    /// Slab slot of the protocol segment the frame carries.
    pub slot: u32,
    /// Backing DMA buffer (None for pure ACKs, which we model as
    /// header-only frames whose payload buffer is trivially recycled).
    pub frame: Option<FrameId>,
    /// Arrival time at the NIC (IRQ latency reference).
    pub arrived: SimTime,
}

/// Per-core mutable state.
pub struct CoreData {
    /// Frames awaiting NAPI processing.
    pub backlog: VecDeque<PendingFrame>,
    /// GRO aggregation state.
    pub gro: GroEngine,
    /// Hard IRQs taken since last softirq step (each charges handler cost).
    pub irqs_pending: u32,
    /// Frames processed since the last GRO full flush (NAPI budget
    /// tracking).
    pub budget_used: u32,
    /// Flows with a pacer release pending on this core (BBR).
    pub pacer_ready: VecDeque<u64>,
    /// Busy-time accounting.
    pub usage: CoreUsage,
    /// Cycle taxonomy for work executed on this core.
    pub breakdown: CycleBreakdown,
    /// Whether the currently-running step should requeue its task.
    pub pending_runnable: bool,
    /// The running step's end, reserved but not filed: a step that leaves
    /// nothing waiting files its `StepDone` only when work reaches the
    /// core before the end (`World::settle`). [`EventKey::NONE`] when
    /// nothing is held.
    pub step_end: EventKey,
    /// Rx descriptors consumed whose replenish could not be page-backed
    /// (injected pool pressure); repaid when the pressure clears.
    pub ring_deficit: u32,
    /// Injected core stall ("noisy neighbor"): while set, no stack work is
    /// dispatched on this core.
    pub stalled: bool,
    /// The core's NUMA node ([`hns_mem::numa::Topology::node_of`]), kept
    /// here so the per-frame DMA, copy and free paths read it instead of
    /// dividing.
    pub node: NodeId,
}

impl CoreData {
    fn new(node: NodeId) -> Self {
        CoreData {
            backlog: VecDeque::new(),
            gro: GroEngine::new(),
            irqs_pending: 0,
            budget_used: 0,
            pacer_ready: VecDeque::new(),
            usage: CoreUsage::new(),
            breakdown: CycleBreakdown::new(),
            pending_runnable: false,
            step_end: EventKey::NONE,
            ring_deficit: 0,
            stalled: false,
            node,
        }
    }
}

/// One simulated machine.
pub struct Host {
    /// Host index (0 or 1).
    pub id: usize,
    /// CPU scheduler (cores + threads).
    pub sched: Scheduler,
    /// Per-core state, indexed by core id.
    pub cores: Vec<CoreData>,
    /// Live DMA frames.
    pub arena: FrameArena,
    /// DDIO cache (NIC-local node's L3 slice).
    pub dca: DcaCache,
    /// Kernel page allocator.
    pub pages: PageAllocator,
    /// IOMMU state.
    pub iommu: Iommu,
    /// Statistical sender-side L3 model.
    pub sender_l3: SenderL3,
    /// Rx descriptor rings, one per core (mlx5-style per-queue rings; a
    /// flow's frames land on its IRQ core's ring).
    pub rings: Vec<RxRing>,
    /// IRQ masking state.
    pub coalescer: InterruptCoalescer,
    /// Active send-buffer bytes per NUMA node (drives the sender-L3 miss
    /// rate).
    pub node_send_active: Vec<u64>,
    /// Sending flows homed on each node (their fixed working-set
    /// footprint — user buffers, skb metadata churn — adds to L3
    /// pressure).
    pub node_sender_flows: Vec<u32>,
    /// Map thread id → application index in the world's app table.
    pub thread_app: Vec<usize>,
    /// Receive-copy cache statistics (measurement window).
    pub rx_copy_cache: CacheStats,
    /// Send-copy cache statistics.
    pub tx_copy_cache: CacheStats,
    /// NAPI→copy latency histogram, in nanoseconds.
    pub napi_to_copy_ns: Histogram,
    /// Post-aggregation skb sizes delivered to TCP/IP.
    pub skb_sizes: Histogram,
    /// A NIC drain is pending for this host (on its lane in `World::lanes`).
    pub txdrain_armed: bool,
}

impl Host {
    /// Build a host from the experiment configuration.
    pub fn new(id: usize, cfg: &SimConfig) -> Self {
        let cores = cfg.topology.total_cores() as usize;
        let mut dca = DcaCache::new(cfg.stack.dca, cfg.dca_capacity, cfg.seed ^ (id as u64 + 1));
        dca.set_descriptor_footprint(cfg.stack.rx_descriptors as u64 * cfg.stack.mtu as u64);
        Host {
            id,
            sched: Scheduler::new(cores),
            cores: (0..cores as u16)
                .map(|c| CoreData::new(cfg.topology.node_of(c)))
                .collect(),
            arena: FrameArena::new(),
            dca,
            pages: PageAllocator::new(cores as u16, cfg.topology.cores_per_node),
            iommu: Iommu::new(cfg.stack.iommu),
            sender_l3: SenderL3::with_defaults(),
            rings: (0..cores)
                .map(|_| RxRing::new(cfg.stack.rx_descriptors))
                .collect(),
            coalescer: InterruptCoalescer::new(cores),
            node_send_active: vec![0; cfg.topology.nodes as usize],
            node_sender_flows: vec![0; cfg.topology.nodes as usize],
            thread_app: Vec::new(),
            rx_copy_cache: CacheStats::default(),
            tx_copy_cache: CacheStats::default(),
            napi_to_copy_ns: Histogram::new(),
            skb_sizes: Histogram::new(),
            txdrain_armed: false,
        }
    }

    /// Total active send-buffer bytes on `node`.
    pub fn send_active(&self, node: NodeId) -> u64 {
        self.node_send_active[node as usize]
    }

    /// Adjust active send-buffer accounting for `node` by `delta` bytes.
    pub fn adjust_send_active(&mut self, node: NodeId, delta: i64) {
        let v = &mut self.node_send_active[node as usize];
        *v = v.saturating_add_signed(delta);
    }

    /// Reset the measurement accumulators (end of warmup).
    pub fn reset_measurement(&mut self, now: SimTime) {
        for c in &mut self.cores {
            c.usage.start_window(now);
            c.breakdown.reset();
        }
        self.rx_copy_cache = CacheStats::default();
        self.tx_copy_cache = CacheStats::default();
        self.napi_to_copy_ns.reset();
        self.skb_sizes.reset();
    }

    /// Sum of per-core breakdowns.
    pub fn total_breakdown(&self) -> CycleBreakdown {
        self.cores
            .iter()
            .fold(CycleBreakdown::new(), |acc, c| acc + c.breakdown)
    }

    /// Cores' worth of CPU consumed over the window ending at `now`.
    pub fn cores_used(&self, now: SimTime) -> f64 {
        self.cores.iter().map(|c| c.usage.utilization(now)).sum()
    }

    /// Frames dropped across all Rx rings for want of descriptors.
    pub fn ring_drops(&self) -> u64 {
        self.rings.iter().map(|r| r.drops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hns_metrics::Category;

    #[test]
    fn host_builds_from_default_config() {
        let cfg = SimConfig::default();
        let h = Host::new(0, &cfg);
        assert_eq!(h.cores.len(), 24);
        assert_eq!(h.rings.len(), 24, "one Rx ring per core");
        assert!(h
            .rings
            .iter()
            .all(|r| r.capacity() == cfg.stack.rx_descriptors));
        assert!(!h.iommu.enabled());
    }

    #[test]
    fn cores_store_their_numa_node() {
        use hns_mem::numa::Topology;
        for nodes in [1, 2, 4] {
            let cfg = SimConfig {
                topology: Topology {
                    nodes,
                    ..Topology::default()
                },
                ..SimConfig::default()
            };
            let h = Host::new(0, &cfg);
            assert_eq!(h.cores.len(), cfg.topology.total_cores() as usize);
            for (c, core) in h.cores.iter().enumerate() {
                assert_eq!(
                    core.node,
                    cfg.topology.node_of(c as u16),
                    "{nodes} nodes, core {c}"
                );
            }
        }
    }

    #[test]
    fn send_active_accounting() {
        let cfg = SimConfig::default();
        let mut h = Host::new(0, &cfg);
        h.adjust_send_active(1, 1000);
        h.adjust_send_active(1, -400);
        assert_eq!(h.send_active(1), 600);
        h.adjust_send_active(1, -10_000);
        assert_eq!(h.send_active(1), 0, "saturates at zero");
    }

    #[test]
    fn reset_measurement_clears_accumulators() {
        let cfg = SimConfig::default();
        let mut h = Host::new(0, &cfg);
        h.cores[0].breakdown.charge(Category::DataCopy, 1000);
        h.rx_copy_cache.hit_bytes = 5;
        h.napi_to_copy_ns.record(100);
        h.reset_measurement(SimTime::from_nanos(1_000));
        assert_eq!(h.total_breakdown().total(), 0);
        assert_eq!(h.rx_copy_cache.hit_bytes, 0);
        assert_eq!(h.napi_to_copy_ns.count(), 0);
    }

    #[test]
    fn breakdown_aggregates_cores() {
        let cfg = SimConfig::default();
        let mut h = Host::new(0, &cfg);
        h.cores[0].breakdown.charge(Category::TcpIp, 10);
        h.cores[5].breakdown.charge(Category::TcpIp, 20);
        assert_eq!(h.total_breakdown()[Category::TcpIp], 30);
    }
}
