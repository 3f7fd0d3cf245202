//! # hns-monitor — always-on streaming telemetry
//!
//! The paper measures host-stack overheads offline: run, then aggregate.
//! Production stacks cannot afford that — you need live tail latencies to
//! catch a capacity knee *while* it happens, yet full tracing at line
//! rate is exactly the overhead the paper warns about. This crate is the
//! middle road: it rides the existing sampled per-skb lifecycle tracer
//! (`hns-trace`) — no second instrumentation layer — and folds the
//! sampled stage residencies, delivered bytes, drop-taxonomy deltas, and
//! churn/overload counters into mergeable DDSketch quantile sketches,
//! cutting an interval snapshot at each emission boundary.
//!
//! Design constraints, in the same order the tracer states them:
//!
//! 1. **Zero cost when off.** `SimConfig::monitor` is `None` by default;
//!    the world then holds no state, takes one `Option` branch per
//!    housekeeping tick, and every report stays byte-identical.
//! 2. **Bounded state.** Sketch buckets are logarithmic: the whole
//!    nanosecond-to-minutes range fits in ~1300 buckets per stage, so a
//!    week-long run costs the same memory as a millisecond one. This is
//!    what the trace collector's bounded rings cannot give you — rings
//!    overflow and stop, sketches never do.
//! 3. **Deterministic output.** Snapshots are sim-time-stamped (never
//!    wall clock) and sketches answer quantiles independent of sample
//!    and merge order, so identically-seeded monitored runs emit
//!    byte-identical JSONL streams.
//!
//! The pieces: [`DdSketch`] (the sketch), [`MonitorConfig`] (knobs),
//! [`MonitorState`] (the fold driven by the simulation's autotune tick),
//! and [`MonitorSnapshot`] (one interval of the stream). The whole-window
//! roll-up lands in the report as `hns_metrics::MonitorSummary`.

pub mod config;
pub mod sketch;
pub mod snapshot;
pub mod state;

pub use config::MonitorConfig;
pub use sketch::DdSketch;
pub use snapshot::{ConnCounters, MonitorSnapshot};
pub use state::MonitorState;
