//! # hns-core — experiment orchestration
//!
//! The public API of the reproduction. An [`Experiment`] pairs a traffic
//! [`ScenarioKind`] with a [`SimConfig`] and measurement windows; running
//! it yields an [`hns_metrics::Report`] with everything the paper's
//! figures plot (throughput-per-core, CPU breakdowns, cache miss rates,
//! latency distributions, skb size histograms).
//!
//! The [`figures`] module declares every table/figure of the paper's
//! evaluation (§3) as a list of experiments in one registry
//! ([`figures::FIGURES`]); `hostnet figures` runs and prints them, on the
//! threads of [`par::map_ordered`].
//!
//! ```
//! use hns_core::{Experiment, ScenarioKind};
//!
//! let report = Experiment::new(ScenarioKind::Single)
//!     .quick() // short windows for doc tests
//!     .run();
//! assert!(report.total_gbps > 1.0);
//! ```

pub mod audit;
pub mod experiment;
pub mod figures;
pub mod par;

pub use audit::{run_audit, AuditOptions, AuditOutcome, FieldDelta, Property};
pub use experiment::{Experiment, ScenarioKind};
pub use hns_metrics::{Category, CycleBreakdown, Report};
pub use hns_stack::{OptLevel, SimConfig, StackConfig};
pub use hns_workload::Placement;
