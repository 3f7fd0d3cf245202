//! The CPU-cycle cost model.
//!
//! Every constant here is in **cycles on a 3.4GHz core** (the paper's Xeon
//! Gold 6128). The constants are calibrated jointly so the headline
//! operating points land near the paper's:
//!
//! * single flow, all optimizations: ≈ 40-45 Gbps per receiver core with
//!   data copy ≈ half the receiver cycles (Fig. 3a/3d),
//! * outcast, 8 flows: ≈ 85-95 Gbps per *sender* core with copy dominant
//!   (Fig. 7a/7b),
//! * no-opt baseline: protocol processing dominant, single-digit Gbps
//!   (Fig. 3a/3c/3d leftmost columns),
//! * IOMMU on: memory management ≈ 30% of receiver cycles (Fig. 12c).
//!
//! Per-byte costs are expressed in millicycles-per-byte (`mcyc/B`) so they
//! stay integer arithmetic; helpers convert to cycles for a given size.
//! Where a number models a *mechanism* (pcp-miss page allocation, IOMMU
//! map) the ratio to its fast path follows kernel-profiling folklore
//! (global-list page alloc ≈ 10× a pcp hit; IOMMU map/unmap ≈ 400-600
//! cycles each, dominated by IOTLB invalidation).

use hns_mem::numa::MemClass;

/// Integer per-byte costs: millicycles per byte.
pub type MilliCyclesPerByte = u64;

/// The full cost model. One instance per simulation; experiments never
/// modify it (ablations construct variants explicitly).
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    // ---- data copy (per byte, millicycles) -------------------------------
    /// Receiver copy when bytes are DDIO-resident in NIC-local L3.
    pub copy_dca_hit_mcyc: MilliCyclesPerByte,
    /// Receiver copy from local-node DRAM.
    pub copy_local_dram_mcyc: MilliCyclesPerByte,
    /// Receiver copy from remote-node DRAM (cross-socket).
    pub copy_remote_dram_mcyc: MilliCyclesPerByte,
    /// Sender copy when the send buffer is L3-warm.
    pub copy_sender_warm_mcyc: MilliCyclesPerByte,
    /// Sender copy on a sender-L3 miss.
    pub copy_sender_cold_mcyc: MilliCyclesPerByte,

    // ---- per-frame receiver costs ----------------------------------------
    /// Driver Rx work per frame (descriptor processing, `etc` + netdev mix
    /// charged as netdevice).
    pub driver_rx_frame: u64,
    /// skb allocation per frame (Memory).
    pub skb_alloc: u64,
    /// skb build/init per frame (SkbMgmt).
    pub skb_build: u64,
    /// GRO merge attempt per frame (NetDevice). Zero when LRO does it in
    /// hardware.
    pub gro_per_frame: u64,

    // ---- per-skb (post-aggregation) receiver costs -----------------------
    /// TCP/IP receive processing per delivered skb: fixed part.
    pub tcp_rx_base: u64,
    /// TCP/IP receive processing per KB of skb payload (page refs grow
    /// with skb size).
    pub tcp_rx_per_kb: u64,
    /// Extra TCP/IP work for an out-of-order skb: out-of-order queue
    /// insertion, SACK-ish bookkeeping, and the immediate dup-ACK (§3.6:
    /// receiver ACK-generation cycles grow 4.87× at 1.5% loss).
    pub tcp_ofo_per_skb: u64,
    /// ACK generation (TCP) per ACK sent.
    pub ack_gen: u64,
    /// Socket lock/unlock per skb enqueue/dequeue, uncontended.
    pub sock_lock: u64,
    /// Extra lock cost per skb when app and softirq run on different cores
    /// and contend on the socket (the paper's no-aRFS lock overhead).
    pub sock_lock_contended: u64,
    /// skb free per skb (SkbMgmt).
    pub skb_free: u64,
    /// Receive-queue append/dequeue bookkeeping (TcpIp).
    pub rx_queue_ops: u64,

    // ---- sender-side costs -------------------------------------------------
    /// TCP/IP transmit processing per emitted skb: fixed part.
    pub tcp_tx_base: u64,
    /// TCP/IP transmit processing per KB of payload (buffer mapping).
    pub tcp_tx_per_kb: u64,
    /// qdisc + driver enqueue per skb: fixed part (NetDevice).
    pub qdisc_tx_base: u64,
    /// Driver Tx work per produced frame/descriptor (NetDevice).
    pub driver_tx_per_frame: u64,
    /// skb allocation per tx skb (Memory).
    pub skb_alloc_tx: u64,
    /// skb build per tx skb (SkbMgmt).
    pub skb_build_tx: u64,
    /// ACK receive processing at the sender, per ACK (TcpIp).
    pub ack_rx: u64,
    /// Driver work per received pure-ACK frame (NetDevice).
    pub driver_rx_ack: u64,
    /// Retransmission path extra per retransmitted segment (TcpIp).
    pub retransmit_extra: u64,

    // ---- memory management -------------------------------------------------
    /// Page allocation from the per-core pageset (Memory), per page.
    pub page_alloc_fast: u64,
    /// Page allocation hitting the global free list (Memory), per page.
    pub page_alloc_slow: u64,
    /// Page free to the pageset (Memory), per page.
    pub page_free_fast: u64,
    /// Page free taking the slow path (remote node or pcp drain), per page.
    pub page_free_slow: u64,
    /// IOMMU map per page (Memory).
    pub iommu_map: u64,
    /// IOMMU unmap per page, incl. IOTLB invalidation (Memory).
    pub iommu_unmap: u64,

    // ---- scheduling / syscalls / interrupts --------------------------------
    /// Context switch between tasks on a core (Sched).
    pub context_switch: u64,
    /// try_to_wake_up + enqueue of a blocked thread (Sched, charged to the
    /// waker).
    pub wakeup: u64,
    /// Thread block/yield path (Sched, charged to the blocker).
    pub block: u64,
    /// Hard IRQ handler execution (Etc).
    pub irq_handler: u64,
    /// NAPI poll-loop fixed overhead per poll cycle (NetDevice).
    pub napi_poll: u64,
    /// Syscall entry/exit for write() (Etc).
    pub syscall_write: u64,
    /// Syscall entry/exit for recv() (Etc).
    pub syscall_recv: u64,
    /// Software steering cost per frame for RPS/RFS (NetDevice).
    pub steering_sw: u64,
    /// Pacing timer fire + qdisc requeue (Sched) — BBR's extra sender
    /// overhead (Fig. 13b).
    pub pacer_fire: u64,

    // ---- offload datapaths (§4: TOE and kernel bypass) ---------------------
    /// Post one Tx descriptor to an offload NIC: write the descriptor,
    /// amortized doorbell (NetDevice). Shared by TOE and bypass.
    pub desc_post: u64,
    /// Harvest one Tx completion from the completion queue (NetDevice).
    pub desc_complete: u64,
    /// TOE Rx: process one delivered completion descriptor. The NIC did
    /// segmentation/aggregation/ACK clocking, so this replaces the whole
    /// driver + skb + GRO + TCP-rx pipeline (NetDevice).
    pub toe_rx_desc: u64,
    /// Bypass: busy-poll harvest of one Rx frame descriptor on the
    /// dedicated polling core, incl. prefetch + ring bookkeeping
    /// (NetDevice). Per *frame*: bypass gets no aggregation.
    pub bypass_poll_frame: u64,

    // ---- zero-copy (§4 future directions) ----------------------------------
    /// MSG_ZEROCOPY: pin + later unpin one user page for DMA (Memory).
    pub zc_tx_pin_page: u64,
    /// MSG_ZEROCOPY completion notification, per send (Etc).
    pub zc_tx_completion: u64,
    /// TCP mmap receive: remap one page into the application's address
    /// space incl. TLB shootdown share (Memory).
    pub zc_rx_remap_page: u64,
}

impl CostModel {
    /// The calibrated model (see module docs for anchor points).
    pub fn calibrated() -> Self {
        CostModel {
            copy_dca_hit_mcyc: 200,     // 0.20 cyc/B: L3-resident copy
            copy_local_dram_mcyc: 500,  // 0.50 cyc/B: DRAM fetch + copy
            copy_remote_dram_mcyc: 640, // 0.64 cyc/B: cross-socket (UPI-bound)
            copy_sender_warm_mcyc: 170, // sender buffers are cache-warm
            copy_sender_cold_mcyc: 500,

            driver_rx_frame: 440,
            skb_alloc: 420,
            skb_build: 180,
            gro_per_frame: 270,

            tcp_rx_base: 1_400,
            tcp_rx_per_kb: 24,
            tcp_ofo_per_skb: 2_600,
            ack_gen: 650,
            sock_lock: 160,
            sock_lock_contended: 1_100,
            skb_free: 230,
            rx_queue_ops: 120,

            tcp_tx_base: 1_100,
            tcp_tx_per_kb: 42,
            qdisc_tx_base: 300,
            driver_tx_per_frame: 120,
            skb_alloc_tx: 550,
            skb_build_tx: 320,
            ack_rx: 900,
            driver_rx_ack: 420,
            retransmit_extra: 1_500,

            page_alloc_fast: 70,
            page_alloc_slow: 700,
            page_free_fast: 60,
            page_free_slow: 450,
            iommu_map: 340,
            iommu_unmap: 380,

            context_switch: 1_600,
            wakeup: 1_000,
            block: 700,
            irq_handler: 650,
            napi_poll: 350,
            syscall_write: 1_500,
            syscall_recv: 1_600,
            steering_sw: 150,
            pacer_fire: 1_300,

            desc_post: 120,
            desc_complete: 90,
            toe_rx_desc: 400,
            bypass_poll_frame: 220,

            zc_tx_pin_page: 240,
            zc_tx_completion: 400,
            zc_rx_remap_page: 300,
        }
    }

    /// Cycles to copy `bytes` found in memory class `class` at the
    /// receiver.
    pub fn copy_cycles(&self, class: MemClass, bytes: u64) -> u64 {
        let mcyc = match class {
            MemClass::DcaHit => self.copy_dca_hit_mcyc,
            MemClass::LocalDram => self.copy_local_dram_mcyc,
            MemClass::RemoteDram => self.copy_remote_dram_mcyc,
        };
        bytes * mcyc / 1000
    }

    /// TCP/IP receive cycles for one delivered skb of `len` bytes.
    pub fn tcp_rx_cycles(&self, len: u32) -> u64 {
        self.tcp_rx_base + self.tcp_rx_per_kb * (len as u64) / 1024
    }

    /// TCP/IP transmit cycles for one emitted skb of `len` bytes.
    pub fn tcp_tx_cycles(&self, len: u32) -> u64 {
        self.tcp_tx_base + self.tcp_tx_per_kb * (len as u64) / 1024
    }

    /// qdisc + driver Tx cycles for one skb split into `frames` frames.
    pub fn qdisc_tx_cycles(&self, frames: u64) -> u64 {
        self.qdisc_tx_base + self.driver_tx_per_frame * frames
    }

    /// Cycles for the sender-side copy of `bytes` with statistical miss
    /// rate `miss` from the sender-L3 model.
    pub fn sender_copy_cycles(&self, bytes: u64, miss: f64) -> u64 {
        let warm = self.copy_sender_warm_mcyc as f64;
        let cold = self.copy_sender_cold_mcyc as f64;
        let mcyc = warm * (1.0 - miss) + cold * miss;
        (bytes as f64 * mcyc / 1000.0) as u64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_cost_ordering() {
        let c = CostModel::calibrated();
        let hit = c.copy_cycles(MemClass::DcaHit, 65536);
        let local = c.copy_cycles(MemClass::LocalDram, 65536);
        let remote = c.copy_cycles(MemClass::RemoteDram, 65536);
        assert!(hit < local && local < remote);
    }

    #[test]
    fn sender_copy_interpolates() {
        let c = CostModel::calibrated();
        let warm = c.sender_copy_cycles(10_000, 0.0);
        let cold = c.sender_copy_cycles(10_000, 1.0);
        let mid = c.sender_copy_cycles(10_000, 0.5);
        assert!(warm < mid && mid < cold);
        assert_eq!(warm, 10_000 * c.copy_sender_warm_mcyc / 1000);
    }

    #[test]
    fn slow_paths_cost_more() {
        let c = CostModel::calibrated();
        assert!(c.page_alloc_slow > 5 * c.page_alloc_fast);
        assert!(c.page_free_slow > 5 * c.page_free_fast);
        assert!(c.sock_lock_contended > 3 * c.sock_lock);
    }

    /// The point of offloading: per unit of data, descriptor bookkeeping
    /// must cost far less than the skb pipeline it replaces, and the TOE
    /// per-completion cost must undercut even the per-skb TCP-rx fixed
    /// part.
    #[test]
    fn descriptor_paths_undercut_skb_pipeline() {
        let c = CostModel::calibrated();
        let skb_per_frame = c.driver_rx_frame + c.skb_alloc + c.skb_build + c.gro_per_frame;
        assert!(c.bypass_poll_frame < skb_per_frame / 2);
        assert!(c.toe_rx_desc < c.tcp_rx_base);
        assert!(c.desc_post < c.skb_alloc_tx + c.skb_build_tx);
        assert!(c.desc_complete < c.desc_post * 2);
    }

    /// Back-of-envelope sanity: the calibrated receiver cost per byte at
    /// the all-opts single-flow operating point is in the range that puts
    /// a 3.4GHz core at ~40-50Gbps.
    #[test]
    fn receiver_budget_sanity() {
        let c = CostModel::calibrated();
        // Per 64KB skb made of 8 jumbo frames, ~50% DCA hit rate:
        let frames = 8u64;
        let per_frame = frames * (c.driver_rx_frame + c.skb_alloc + c.skb_build + c.gro_per_frame);
        let per_skb =
            c.tcp_rx_cycles(65536) + c.ack_gen + c.sock_lock + c.skb_free + c.rx_queue_ops;
        let copy = (c.copy_cycles(MemClass::DcaHit, 65536)
            + c.copy_cycles(MemClass::LocalDram, 65536))
            / 2;
        // Page ops: ~3 pages per jumbo frame.
        let pages = frames * 3 * (c.page_alloc_fast + c.page_free_fast);
        let total = per_frame + per_skb + copy + pages;
        let cyc_per_byte = total as f64 / 65536.0;
        let gbps = 3.4e9 / cyc_per_byte * 8.0 / 1e9;
        assert!(
            (35.0..60.0).contains(&gbps),
            "single-core estimate {gbps:.1} Gbps out of calibration band"
        );
    }
}
