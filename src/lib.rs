//! # hostnet — facade crate
//!
//! Re-exports the public API of the `hostnet` workspace: a simulation-based
//! reproduction of *Understanding Host Network Stack Overheads* (SIGCOMM
//! 2021). See the repository README for a tour and `hns-core` for the
//! experiment API.

pub use hns_core::*;

/// The building-block crates, re-exported for advanced users who want to
/// compose their own hosts, NICs, or workloads.
pub mod building_blocks {
    pub use hns_audit as audit;
    pub use hns_conn as conn;
    pub use hns_core::figures as core_figures;
    pub use hns_faults as faults;
    pub use hns_mem as mem;
    pub use hns_metrics as metrics;
    pub use hns_monitor as monitor;
    pub use hns_nic as nic;
    pub use hns_proto as proto;
    pub use hns_sched as sched;
    pub use hns_sim as sim;
    pub use hns_stack as stack;
    pub use hns_trace as trace;
    pub use hns_workload as workload;
}
