//! # hns-stack — the Linux network-stack pipeline model
//!
//! This crate assembles the substrates (`hns-mem`, `hns-nic`, `hns-proto`,
//! `hns-sched`) into the end-to-end packet-processing pipeline of the
//! paper's Fig. 1 and runs it under a discrete-event loop:
//!
//! **Sender path** — application `write()` → user→kernel data copy →
//! TCP/IP processing → TSO segmentation (NIC) → qdisc /
//! driver Tx queue → NIC DMA → wire.
//!
//! **Receiver path** — NIC DMA (into DDIO cache when eligible) → IRQ →
//! NAPI polling → skb allocation → GRO aggregation → TCP/IP processing →
//! socket receive queue → application `recv()` → kernel→user data copy →
//! page/skb free.
//!
//! Every operation charges CPU cycles to the taxonomy of the paper's
//! Table 1 ([`hns_metrics::Category`]) on the core that executes it; cores
//! are modeled by [`hns_sched::Scheduler`]. The cycle constants live in
//! [`costs::CostModel`] with their calibration rationale.
//!
//! The public surface is [`World`]: build one with a [`config::SimConfig`],
//! add flows and applications, call [`World::run`], get a
//! [`hns_metrics::Report`].

pub mod app;
pub mod config;
pub mod costs;
pub mod datapath;
pub mod fabric;
pub mod flow;
pub mod gro;
pub mod host;
pub mod skb;
pub mod watchdog;
pub mod world;

pub use app::AppSpec;
pub use config::{DatapathKind, OptLevel, SimConfig, StackConfig};
pub use costs::CostModel;
pub use fabric::{Fabric, FabricConfig};
pub use flow::FlowSpec;
pub use watchdog::{RunError, RunErrorKind};
pub use world::World;
