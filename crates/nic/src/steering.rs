//! Receive-side steering — the paper's Table 2.
//!
//! | Mechanism | Description |
//! |---|---|
//! | RSS  | NIC hashes the 4-tuple to pick the IRQ core |
//! | RPS  | Software version of RSS (hash in the IRQ handler) |
//! | RFS  | Software: steer to the core the application runs on |
//! | aRFS | Hardware RFS: the NIC itself steers to the app core |
//!
//! What matters for CPU accounting is *where IRQ/softirq processing lands*
//! relative to the application core:
//!
//! * **aRFS** → the application's own core (co-located softirq + app, DMA
//!   into the app's NUMA node, DCA effective when that node is NIC-local);
//! * **RFS** → application core too, but the steering decision costs
//!   software cycles in the IRQ path rather than NIC hardware;
//! * **RSS/RPS** → a hash-picked core. The paper pins the worst case for
//!   determinism (§3.1: "we explicitly map the IRQs to a core on a NUMA
//!   node different from the application core") — we reproduce exactly
//!   that deterministic worst-case mapping.

use hns_mem::numa::{CoreId, Topology};

/// Which steering mechanism the receiver uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SteeringMode {
    /// Hardware hash steering (worst-case-pinned, per the paper).
    Rss,
    /// Software hash steering (worst-case-pinned, plus software cost).
    Rps,
    /// Software flow steering to the application core.
    Rfs,
    /// Hardware flow steering to the application core (the paper's "+aRFS"
    /// optimization level).
    Arfs,
}

impl SteeringMode {
    /// Core that receives the IRQ/NAPI processing for a flow whose
    /// application runs on `app_core`. `flow_index` makes the worst-case
    /// mapping deterministic and distinct per flow. On a one-node
    /// topology hash steering has no remote core to pick and falls back to
    /// `app_core`; `hns_stack::SimConfig::validate` refuses that pairing.
    pub fn irq_core(self, topo: &Topology, app_core: CoreId, flow_index: u16) -> CoreId {
        match self {
            SteeringMode::Arfs | SteeringMode::Rfs => app_core,
            SteeringMode::Rss | SteeringMode::Rps => topo
                .remote_core(topo.node_of(app_core), flow_index)
                .unwrap_or(app_core),
        }
    }

    /// True when the steering decision costs software cycles in the IRQ
    /// path (RPS/RFS); hardware variants are free.
    pub fn software_cost(self) -> bool {
        matches!(self, SteeringMode::Rps | SteeringMode::Rfs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arfs_lands_on_app_core() {
        let topo = Topology::default();
        assert_eq!(SteeringMode::Arfs.irq_core(&topo, 3, 0), 3);
        assert_eq!(SteeringMode::Rfs.irq_core(&topo, 17, 5), 17);
    }

    #[test]
    fn rss_lands_on_remote_numa_node() {
        let topo = Topology::default();
        for flow in 0..24 {
            let irq = SteeringMode::Rss.irq_core(&topo, 2, flow);
            assert_ne!(topo.node_of(irq), topo.node_of(2));
        }
    }

    #[test]
    fn rss_on_one_node_falls_back_to_the_app_core() {
        let topo = Topology {
            nodes: 1,
            ..Topology::default()
        };
        assert_eq!(SteeringMode::Rss.irq_core(&topo, 2, 0), 2);
        assert_eq!(SteeringMode::Rps.irq_core(&topo, 5, 3), 5);
    }

    #[test]
    fn rss_is_deterministic() {
        let topo = Topology::default();
        assert_eq!(
            SteeringMode::Rss.irq_core(&topo, 0, 7),
            SteeringMode::Rss.irq_core(&topo, 0, 7)
        );
    }

    #[test]
    fn software_cost_flags() {
        assert!(SteeringMode::Rps.software_cost());
        assert!(SteeringMode::Rfs.software_cost());
        assert!(!SteeringMode::Rss.software_cost());
        assert!(!SteeringMode::Arfs.software_cost());
    }
}
