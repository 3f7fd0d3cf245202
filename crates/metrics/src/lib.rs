//! # hns-metrics — measurement machinery for the reproduction
//!
//! The paper classifies every CPU cycle the kernel spends into eight
//! categories (Table 1) and reports, per experiment:
//!
//! * throughput and throughput-per-core,
//! * sender/receiver CPU utilization,
//! * per-category CPU-cycle breakdowns,
//! * L3/DCA cache miss rates during data copy,
//! * NAPI→data-copy latency distributions (Fig. 3f),
//! * post-GRO skb size distributions (Fig. 8c).
//!
//! This crate provides those accumulators plus text-table formatting used by
//! `hostnet figures`, and JSON export for EXPERIMENTS.md tooling.

pub mod csv;
pub mod drops;
pub mod json;
pub mod report;
pub mod table;
pub mod taxonomy;
pub mod util;

pub use csv::reports_to_csv;
pub use drops::{DropStats, LayerDrops};
pub use report::{
    CacheStats, CapacitySummary, ConnSummary, LatencyStats, MonitorStage, MonitorSummary, Report,
    SideReport, StageLatency,
};
pub use table::{
    format_breakdown_table, format_capacity_table, format_conn_table, format_gbps,
    format_monitor_table, format_series_table, format_stage_table,
};
pub use taxonomy::{Category, CycleBreakdown, ALL_CATEGORIES};
pub use util::CoreUsage;
