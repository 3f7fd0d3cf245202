//! NUMA topology and memory-access classification.
//!
//! The paper's testbed has four NUMA nodes with six cores each and the NIC
//! attached to node 0. Data copy cost depends on *where the bytes are*:
//! resident in the NIC-local L3 (DDIO hit), in local-node DRAM, or in a
//! remote node's DRAM. DDIO can only push into the L3 of the NIC-local node,
//! which is what produces the ~20% throughput drop of Fig. 4.

/// A NUMA node index.
pub type NodeId = u8;
/// A CPU core index (global across nodes).
pub type CoreId = u16;

/// Where copied bytes were found, in increasing order of per-byte cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemClass {
    /// Resident in the DCA (DDIO) slice of the NIC-local L3.
    DcaHit,
    /// DRAM on the same NUMA node as the copying core.
    LocalDram,
    /// DRAM on a different NUMA node (cross-socket interconnect).
    RemoteDram,
}

/// Node the NIC's PCIe lanes attach to (paper: 0).
pub const NIC_NODE: NodeId = 0;

/// Host NUMA topology. Matches the paper's testbed by default; the NIC
/// sits on [`NIC_NODE`].
#[derive(Clone, Copy, Debug)]
pub struct Topology {
    /// Number of NUMA nodes (paper: 4).
    pub nodes: u8,
    /// Cores per node (paper: 6).
    pub cores_per_node: u8,
}

impl Default for Topology {
    fn default() -> Self {
        Topology {
            nodes: 4,
            cores_per_node: 6,
        }
    }
}

impl Topology {
    /// Total core count.
    pub fn total_cores(&self) -> u16 {
        self.nodes as u16 * self.cores_per_node as u16
    }

    /// NUMA node of a core.
    pub fn node_of(&self, core: CoreId) -> NodeId {
        debug_assert!(core < self.total_cores());
        (core / self.cores_per_node as u16) as NodeId
    }

    /// The `i`-th core of a node.
    pub fn core_on_node(&self, node: NodeId, i: u8) -> CoreId {
        debug_assert!(node < self.nodes && i < self.cores_per_node);
        node as u16 * self.cores_per_node as u16 + i as u16
    }

    /// Classify a copy by a core on `copier_node` of data on `data_node`,
    /// given whether the bytes are DCA-resident.
    ///
    /// DCA residency only helps a copier on the NIC-local node — DDIO
    /// writes land in the NIC-local L3, which remote-node cores cannot hit.
    pub fn classify(&self, copier_node: NodeId, data_node: NodeId, dca_resident: bool) -> MemClass {
        if dca_resident && copier_node == NIC_NODE && data_node == NIC_NODE {
            MemClass::DcaHit
        } else if copier_node == data_node {
            MemClass::LocalDram
        } else {
            MemClass::RemoteDram
        }
    }

    /// Pick the core for the `i`-th application using the paper's placement:
    /// fill the NIC-local node first, then spill to remote nodes, one thread
    /// per core.
    pub fn app_core(&self, i: u16) -> CoreId {
        i % self.total_cores()
    }

    /// Pick a core on a node different from `avoid_node` — the paper's
    /// deterministic worst-case IRQ mapping when aRFS is disabled (§3.1:
    /// "we explicitly map the IRQs to a core on a NUMA node different from
    /// the application core"). `None` when no other node exists.
    pub fn remote_core(&self, avoid_node: NodeId, i: u16) -> Option<CoreId> {
        let other_nodes: Vec<NodeId> = (0..self.nodes).filter(|&n| n != avoid_node).collect();
        if other_nodes.is_empty() {
            return None;
        }
        let node = other_nodes[(i as usize / self.cores_per_node as usize) % other_nodes.len()];
        Some(self.core_on_node(node, (i % self.cores_per_node as u16) as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let t = Topology::default();
        assert_eq!(t.total_cores(), 24);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(5), 0);
        assert_eq!(t.node_of(6), 1);
        assert_eq!(t.node_of(23), 3);
    }

    #[test]
    fn core_on_node_inverse_of_node_of() {
        let t = Topology::default();
        for node in 0..t.nodes {
            for i in 0..t.cores_per_node {
                let c = t.core_on_node(node, i);
                assert_eq!(t.node_of(c), node);
            }
        }
    }

    #[test]
    fn classify_dca_requires_nic_local() {
        let t = Topology::default();
        assert_eq!(t.classify(0, 0, true), MemClass::DcaHit);
        assert_eq!(t.classify(0, 0, false), MemClass::LocalDram);
        // Remote copier cannot exploit DDIO even if flagged resident.
        assert_eq!(t.classify(1, 1, true), MemClass::LocalDram);
        assert_eq!(t.classify(1, 0, true), MemClass::RemoteDram);
        assert_eq!(t.classify(2, 3, false), MemClass::RemoteDram);
    }

    #[test]
    fn remote_core_avoids_node() {
        let t = Topology::default();
        for i in 0..48 {
            let c = t.remote_core(0, i).unwrap();
            assert_ne!(t.node_of(c), 0, "core {c} is on the avoided node");
        }
        let one_node = Topology { nodes: 1, ..t };
        assert_eq!(one_node.remote_core(0, 0), None, "no other node to pick");
        // Deterministic.
        assert_eq!(t.remote_core(0, 3), t.remote_core(0, 3));
    }

    #[test]
    fn app_core_fills_local_node_first() {
        let t = Topology::default();
        for i in 0..6 {
            assert_eq!(t.node_of(t.app_core(i)), NIC_NODE);
        }
        assert_ne!(t.node_of(t.app_core(6)), NIC_NODE);
        // Wraps around.
        assert_eq!(t.app_core(24), t.app_core(0));
    }
}
