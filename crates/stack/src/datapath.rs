//! The datapath seam: where do host cycles go for a given backend?
//!
//! The paper's taxonomy (Fig. 3d) shows the in-kernel stack spending its
//! cores on copy, skb management, and softirq scheduling rather than
//! protocol arithmetic — which is precisely the cost that TCP-offload NICs
//! (FlexTOE-style) and kernel-bypass stacks (DPDK-class) claim back. The
//! *charging policy* of each architecture is a set of pure predicates on
//! [`DatapathKind`] that the [`crate::World`] pipeline consults at every
//! cost juncture.
//!
//! One invariant governs every backend: **backends change where
//! cycles are charged, never what moves.** Protocol state machines, frame
//! arenas, page pools, IOMMU mappings and descriptor rings operate
//! identically under all three backends; only `Charges::add` calls are
//! gated. That keeps every `hns-audit` conservation ledger balanced with
//! no per-backend ledger cases, and makes the cross-backend differential
//! test (`tests/backend_differential.rs`) meaningful: application bytes
//! are conserved regardless of who pays the cycles.

use crate::config::{DatapathKind, StackConfig};

/// The charging policy of each backend, as predicates on its kind. All
/// state lives in the world; these only decide which costs the host
/// observes. Each is a `match` the optimizer folds into its caller.
impl DatapathKind {
    /// Application I/O goes through syscalls (`write`/`recv` entry/exit
    /// cycles). Bypass links the stack into the process: no syscalls.
    #[inline]
    pub fn charges_syscalls(self) -> bool {
        !matches!(self, DatapathKind::UserBypass)
    }

    /// Payload is copied between application buffers and DMA memory,
    /// charged through the DCA/NUMA copy model. Bypass is zero-copy by
    /// construction (pre-registered buffers).
    #[inline]
    pub fn charges_copies(self) -> bool {
        !matches!(self, DatapathKind::UserBypass)
    }

    /// The host runs — and pays for — the in-kernel protocol pipeline:
    /// TCP/IP rx/tx, skb alloc/build/free, qdisc, software GRO, ACK
    /// generation and processing, socket locking, retransmit overhead.
    /// Off-host backends still *execute* the state machines (correctness)
    /// but charge them zero host cycles.
    #[inline]
    pub fn charges_protocol(self) -> bool {
        matches!(self, DatapathKind::InKernel)
    }

    /// The host pays page-pool and IOMMU map/unmap cycles per frame.
    /// Offload backends use long-lived pre-registered buffer pools, so
    /// per-frame memory management vanishes from the host taxonomy.
    #[inline]
    pub fn charges_memory(self) -> bool {
        matches!(self, DatapathKind::InKernel)
    }

    /// Descriptor-ring bookkeeping (post / completion harvest) is a host
    /// cost. This is the residual cost the offload architectures keep.
    #[inline]
    pub fn charges_descriptors(self) -> bool {
        !matches!(self, DatapathKind::InKernel)
    }

    /// Rx completions are harvested by a busy-polling core rather than
    /// IRQ + softirq: interrupt latency is zero and each harvested frame
    /// costs [`crate::CostModel::bypass_poll_frame`] on the polling core.
    #[inline]
    pub fn busy_polls(self) -> bool {
        matches!(self, DatapathKind::UserBypass)
    }

    /// Hard-IRQ handler cycles are charged on Rx delivery. Polling
    /// backends never take the interrupt.
    #[inline]
    pub fn charges_irq(self) -> bool {
        !self.busy_polls()
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

    /// Aggregation costs host cycles per merged frame (software GRO).
    /// Hardware aggregation (LRO, TOE) is free; bypass never aggregates.
    #[inline]
    pub fn rx_aggregation_charged(self, stack: &StackConfig) -> bool {
        matches!(self, DatapathKind::InKernel) && stack.gro && !stack.lro
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
            assert_eq!(kind.charges_irq(), kind != DatapathKind::UserBypass);
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
        assert!(ik.charges_protocol() && !toe.charges_protocol() && !byp.charges_protocol());
        assert!(ik.charges_memory() && !toe.charges_memory() && !byp.charges_memory());
        assert!(toe.charges_copies() && !byp.charges_copies());
        assert!(toe.charges_syscalls() && !byp.charges_syscalls());
        assert!(!ik.charges_descriptors() && toe.charges_descriptors());
        assert!(byp.busy_polls() && !toe.busy_polls() && !ik.busy_polls());
        assert!(ik.charges_irq() && toe.charges_irq() && !byp.charges_irq());
        assert!(toe.rx_aggregates(&stack) && !byp.rx_aggregates(&stack));
    }

    #[test]
    fn inkernel_aggregation_follows_the_knobs() {
        let ik = DatapathKind::InKernel;
        let mut s = StackConfig::all_opts();
        assert!(ik.rx_aggregates(&s) && ik.rx_aggregation_charged(&s));
        s.lro = true;
        assert!(ik.rx_aggregates(&s) && !ik.rx_aggregation_charged(&s));
        s.gro = false;
        s.lro = false;
        assert!(!ik.rx_aggregates(&s));
    }
}
