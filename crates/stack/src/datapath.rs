//! Datapath backends: where do host cycles go for a given backend?
//!
//! The paper's taxonomy (Fig. 3d) shows the in-kernel stack spending its
//! cores on copy, skb management, and softirq scheduling rather than
//! protocol arithmetic — which is precisely the cost that TCP-offload NICs
//! (FlexTOE-style) and kernel-bypass stacks (DPDK-class) claim back. The
//! *charging policy* of each architecture is its cost table
//! (`DatapathKind::cost_model`): the calibrated [`CostModel`] with every
//! cost the host does not pay under that backend set to zero. The
//! [`crate::World`] pipeline charges every cost against that table
//! unconditionally, so the backend decision lives here and nowhere else.
//!
//! One invariant governs every backend: **backends change where
//! cycles are charged, never what moves.** Protocol state machines, frame
//! arenas, page pools, IOMMU mappings and the Rx descriptor rings operate
//! identically under all three backends; only the cost table differs. The
//! one ring that is not everywhere is the Tx `DescRing`, which only the
//! offload backends keep ([`DatapathKind::keeps_tx_desc_rings`]).
//! That keeps every `hns-audit` conservation ledger balanced with
//! no per-backend ledger cases, and makes the cross-backend differential
//! test (`tests/backend_differential.rs`) meaningful: application bytes
//! are conserved regardless of who pays the cycles. The few predicates
//! below decide what a backend *does* rather than what it pays: whether
//! payload is copied, whether descriptor rings are kept, how completions
//! are harvested, and whether frames are aggregated.

use crate::config::{DatapathKind, StackConfig};
use crate::costs::CostModel;

impl DatapathKind {
    /// The backend's host-side cost table: [`CostModel::calibrated`] with
    /// every cost the host does not pay under this backend set to zero. TOE
    /// and bypass move the protocol pipeline off the host (TCP/IP, skbs,
    /// qdisc and driver, NAPI, steering, the pacer, per-frame page and IOMMU
    /// work); bypass also drops syscalls, interrupts and copies. Each pays
    /// its own Rx harvest: [`CostModel::toe_rx_desc`] per TOE completion,
    /// [`CostModel::bypass_poll_frame`] per polled frame.
    pub(crate) fn cost_model(self) -> CostModel {
        let mut c = CostModel::calibrated();
        if self == DatapathKind::InKernel {
            c.desc_post = 0;
            c.desc_complete = 0;
            c.toe_rx_desc = 0;
            c.bypass_poll_frame = 0;
            return c;
        }
        for cost in [
            &mut c.tcp_rx_base,
            &mut c.tcp_rx_per_kb,
            &mut c.tcp_ofo_per_skb,
            &mut c.ack_gen,
            &mut c.sock_lock,
            &mut c.sock_lock_contended,
            &mut c.rx_queue_ops,
            &mut c.tcp_tx_base,
            &mut c.tcp_tx_per_kb,
            &mut c.ack_rx,
            &mut c.retransmit_extra,
            &mut c.skb_alloc,
            &mut c.skb_build,
            &mut c.skb_free,
            &mut c.skb_alloc_tx,
            &mut c.skb_build_tx,
            &mut c.driver_rx_frame,
            &mut c.driver_rx_ack,
            &mut c.driver_tx_per_frame,
            &mut c.qdisc_tx_base,
            &mut c.gro_per_frame,
            &mut c.napi_poll,
            &mut c.steering_sw,
            &mut c.pacer_fire,
            &mut c.page_alloc_fast,
            &mut c.page_alloc_slow,
            &mut c.page_free_fast,
            &mut c.page_free_slow,
            &mut c.iommu_map,
            &mut c.iommu_unmap,
        ] {
            *cost = 0;
        }
        if self == DatapathKind::ToeOffload {
            c.bypass_poll_frame = 0;
            return c;
        }
        for cost in [
            &mut c.toe_rx_desc,
            &mut c.syscall_write,
            &mut c.syscall_recv,
            &mut c.irq_handler,
            &mut c.copy_dca_hit_mcyc,
            &mut c.copy_local_dram_mcyc,
            &mut c.copy_remote_dram_mcyc,
            &mut c.copy_sender_warm_mcyc,
            &mut c.copy_sender_cold_mcyc,
            &mut c.zc_tx_pin_page,
            &mut c.zc_tx_completion,
            &mut c.zc_rx_remap_page,
        ] {
            *cost = 0;
        }
        c
    }

    /// Payload is copied between application buffers and DMA memory: the
    /// receive copy probes the DCA cache, which changes its state, and
    /// both directions count copied bytes in the copy-cache statistics.
    /// Bypass is zero-copy by construction (pre-registered buffers).
    #[inline]
    pub fn copies_payload(self) -> bool {
        !matches!(self, DatapathKind::UserBypass)
    }

    /// The host keeps a Tx descriptor ring to the offload NIC: a post per
    /// transmitted frame, a completion harvested at the next transmit.
    /// The in-kernel stack hands frames to the NIC's Tx queues instead.
    #[inline]
    pub fn keeps_tx_desc_rings(self) -> bool {
        !matches!(self, DatapathKind::InKernel)
    }

    /// Rx completions are harvested by a busy-polling core rather than
    /// IRQ + softirq: interrupt latency is zero and each harvested frame
    /// costs [`crate::CostModel::bypass_poll_frame`] on the polling core.
    #[inline]
    pub fn busy_polls(self) -> bool {
        matches!(self, DatapathKind::UserBypass)
    }

    /// Arriving frames are aggregated into large skbs before delivery
    /// (software GRO, hardware LRO, or on-NIC TOE reassembly). The TOE
    /// reassembles in hardware regardless of the GRO knob; bypass never
    /// aggregates.
    #[inline]
    pub fn rx_aggregates(self, stack: &StackConfig) -> bool {
        match self {
            DatapathKind::InKernel => stack.gro || stack.lro,
            DatapathKind::ToeOffload => true,
            DatapathKind::UserBypass => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_match_their_kind() {
        for kind in DatapathKind::ALL {
            assert_eq!(DatapathKind::parse(kind.label()), Some(kind));
            // Exactly the polling backend skips the interrupt.
            let irq = kind.cost_model().irq_handler;
            assert_eq!(irq > 0, kind != DatapathKind::UserBypass);
        }
    }

    #[test]
    fn cost_surface_shrinks_monotonically() {
        // Each architecture strictly removes host costs relative to the
        // previous one; nothing reappears.
        let stack = StackConfig::all_opts();
        let ik = DatapathKind::InKernel;
        let toe = DatapathKind::ToeOffload;
        let byp = DatapathKind::UserBypass;
        let (cik, ctoe, cbyp) = (ik.cost_model(), toe.cost_model(), byp.cost_model());
        let protocol = |c: &CostModel| c.tcp_rx_base + c.tcp_tx_base + c.ack_gen + c.ack_rx;
        assert!(protocol(&cik) > 0 && protocol(&ctoe) == 0 && protocol(&cbyp) == 0);
        let memory = |c: &CostModel| c.page_alloc_fast + c.page_free_fast + c.iommu_map;
        assert!(memory(&cik) > 0 && memory(&ctoe) == 0 && memory(&cbyp) == 0);
        assert!(toe.copies_payload() && !byp.copies_payload());
        assert!(ctoe.syscall_write > 0 && cbyp.syscall_write == 0);
        assert!(!ik.keeps_tx_desc_rings() && toe.keeps_tx_desc_rings());
        assert!(byp.busy_polls() && !toe.busy_polls() && !ik.busy_polls());
        assert!(cik.irq_handler > 0 && ctoe.irq_handler > 0 && cbyp.irq_handler == 0);
        assert!(toe.rx_aggregates(&stack) && !byp.rx_aggregates(&stack));
    }

    /// Each backend's table, field by field: which costs it pays (non-zero)
    /// and which it leaves to the NIC or never incurs (zero).
    #[test]
    fn each_backend_names_its_zero_and_paid_costs() {
        let cal = CostModel::calibrated();
        for kind in DatapathKind::ALL {
            let c = kind.cost_model();
            let pipeline = [
                c.tcp_rx_base,
                c.tcp_rx_per_kb,
                c.tcp_ofo_per_skb,
                c.ack_gen,
                c.sock_lock,
                c.sock_lock_contended,
                c.rx_queue_ops,
                c.tcp_tx_base,
                c.tcp_tx_per_kb,
                c.ack_rx,
                c.retransmit_extra,
                c.skb_alloc,
                c.skb_build,
                c.skb_free,
                c.skb_alloc_tx,
                c.skb_build_tx,
                c.driver_rx_frame,
                c.driver_rx_ack,
                c.driver_tx_per_frame,
                c.qdisc_tx_base,
                c.gro_per_frame,
                c.napi_poll,
                c.steering_sw,
                c.pacer_fire,
                c.page_alloc_fast,
                c.page_alloc_slow,
                c.page_free_fast,
                c.page_free_slow,
                c.iommu_map,
                c.iommu_unmap,
            ];
            let host_io = [c.syscall_write, c.syscall_recv, c.irq_handler];
            let copies = [
                c.copy_dca_hit_mcyc,
                c.copy_local_dram_mcyc,
                c.copy_remote_dram_mcyc,
                c.copy_sender_warm_mcyc,
                c.copy_sender_cold_mcyc,
                c.zc_tx_pin_page,
                c.zc_tx_completion,
                c.zc_rx_remap_page,
            ];
            let sched = [c.context_switch, c.wakeup, c.block];
            let all_paid = |xs: &[u64]| xs.iter().all(|&x| x > 0);
            let all_zero = |xs: &[u64]| xs.iter().all(|&x| x == 0);
            assert!(
                all_paid(&sched),
                "{}: scheduling is always host work",
                kind.label()
            );
            assert_eq!(c.wakeup, cal.wakeup);
            match kind {
                DatapathKind::InKernel => {
                    assert!(all_paid(&pipeline) && all_paid(&host_io) && all_paid(&copies));
                    assert_eq!(c.tcp_rx_base, cal.tcp_rx_base);
                    assert_eq!(c.iommu_unmap, cal.iommu_unmap);
                    assert!(all_zero(&[
                        c.desc_post,
                        c.desc_complete,
                        c.toe_rx_desc,
                        c.bypass_poll_frame
                    ]));
                }
                DatapathKind::ToeOffload => {
                    assert!(all_zero(&pipeline) && c.bypass_poll_frame == 0);
                    assert!(all_paid(&host_io) && all_paid(&copies));
                    assert!(all_paid(&[c.desc_post, c.desc_complete, c.toe_rx_desc]));
                }
                DatapathKind::UserBypass => {
                    assert!(all_zero(&pipeline) && all_zero(&host_io) && all_zero(&copies));
                    assert_eq!(c.toe_rx_desc, 0);
                    assert!(all_paid(&[
                        c.desc_post,
                        c.desc_complete,
                        c.bypass_poll_frame
                    ]));
                }
            }
        }
    }

    #[test]
    fn inkernel_aggregation_follows_the_knobs() {
        let ik = DatapathKind::InKernel;
        let mut s = StackConfig::all_opts();
        assert!(ik.rx_aggregates(&s));
        s.lro = true;
        assert!(ik.rx_aggregates(&s));
        s.gro = false;
        s.lro = false;
        assert!(!ik.rx_aggregates(&s));
    }
}
