//! # hns-nic — NIC hardware models
//!
//! Models the commodity-NIC features the paper's experiments toggle
//! (ConnectX-5-class hardware):
//!
//! * [`WireFaults`] — the wire's fault plan, run by every port of the
//!   switch fabric: per-port Bernoulli or bursty loss (the §3.6 "program
//!   the switch to drop packets randomly" substitute), link flaps and
//!   latency spikes; [`Link`] is the two-port 100Gbps cable built on it,
//! * [`RxRing`] — Rx descriptor accounting: frames consume descriptors,
//!   NAPI replenishes them from the page pool, and an empty ring drops
//!   frames (the paper's Fig. 3e descriptor sweep),
//! * [`TxArbiter`] — per-core Tx queues served round-robin, one frame per
//!   non-empty queue in turn, which is what interleaves different flows'
//!   frames onto the wire and starves GRO of aggregation opportunities as
//!   flow counts grow (§3.5),
//! * [`tso`] — hardware segmentation of up-to-64KB skbs into MTU frames,
//! * [`steering`] — the paper's Table 2: RSS/RPS/RFS/aRFS receive steering,
//! * [`InterruptCoalescer`] — NAPI-style IRQ masking: no new interrupt
//!   while a poll cycle is pending/running,
//! * [`DescRing`] — the post/complete/harvest descriptor ring shared by
//!   the TOE-offload and kernel-bypass datapath backends (§4), where
//!   descriptor bookkeeping is the dominant remaining host cost.

pub mod descring;
pub mod interrupts;
pub mod link;
pub mod rxring;
pub mod steering;
pub mod tso;
pub mod txqueue;

pub use descring::DescRing;
pub use interrupts::InterruptCoalescer;
pub use link::{Link, LinkConfig, TransmitOutcome, WireFaults};
pub use rxring::RxRing;
pub use steering::SteeringMode;
pub use txqueue::TxArbiter;

/// Standard Ethernet MTU payload bytes.
pub const MTU_STANDARD: u32 = 1500;

/// Jumbo-frame MTU payload bytes.
pub const MTU_JUMBO: u32 = 9000;

/// Maximum TSO/GSO/GRO aggregate size (Linux: 64KB).
pub const MAX_AGGREGATE: u32 = 65536;
