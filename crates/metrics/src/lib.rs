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
//! This crate provides those accumulators and the [`Report`] that carries
//! them. The report schema lives in one place: each section lists its
//! fields once (JSON key, CSV column and precision, table label), and one
//! generic driver renders that list as JSON out ([`Report::to_json`]), JSON
//! in ([`Report::from_json`]), CSV ([`reports_to_csv`]) and the CLI's
//! section tables ([`format_sections`]). Adding a report field is adding
//! one entry to its section's list.

pub mod csv;
pub mod drops;
pub mod json;
pub mod report;
mod schema;
pub mod table;
pub mod taxonomy;
pub mod util;

pub use csv::reports_to_csv;
pub use drops::{DropStats, LayerDrops};
pub use report::{
    CacheStats, CapacitySummary, ConnSummary, LatencyStats, MonitorStage, MonitorSummary, Report,
    SideReport, StageLatency,
};
pub use table::{format_breakdown_table, format_gbps, format_sections, format_series_table};
pub use taxonomy::{Category, CycleBreakdown, ALL_CATEGORIES};
pub use util::CoreUsage;
