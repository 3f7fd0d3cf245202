//! Experiment report: the measurement output of one simulated scenario.
//!
//! Every figure bench runs one or more experiments and renders the resulting
//! [`Report`]s. Reports serialize to JSON so EXPERIMENTS.md entries can be
//! regenerated mechanically. Each section's `Section` impl lists its fields
//! once; that list is the whole JSON, CSV and table schema.

use crate::drops::DropStats;
use crate::json::{JsonError, Value};
use crate::schema::{field, Field, Node, Section};
use crate::taxonomy::CycleBreakdown;

/// Cache behaviour observed during receive-side (or send-side) data copy.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Bytes copied that were resident in the DCA/L3 cache.
    pub hit_bytes: u64,
    /// Bytes copied that had to be fetched from DRAM (local or remote).
    pub miss_bytes: u64,
}

impl CacheStats {
    /// Cache miss rate in `[0, 1]` (0 if no copies happened).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hit_bytes + self.miss_bytes;
        if total == 0 {
            0.0
        } else {
            self.miss_bytes as f64 / total as f64
        }
    }

    /// Merge another sample set into this one.
    pub fn merge(&mut self, other: CacheStats) {
        self.hit_bytes += other.hit_bytes;
        self.miss_bytes += other.miss_bytes;
    }
}

impl Section for CacheStats {
    const FIELDS: &'static [Field<Self>] = &[field!(hit_bytes), field!(miss_bytes)];
}

/// Latency distribution summary in microseconds (paper Fig. 3f reports the
/// NAPI→start-of-data-copy delay).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Mean latency.
    pub avg_us: f64,
    /// 99th-percentile latency.
    pub p99_us: f64,
    /// Number of samples.
    pub samples: u64,
}

impl LatencyStats {
    /// The summary of `ns`, a histogram of latencies in nanoseconds.
    pub fn from_ns(ns: &hns_sim::Histogram) -> Self {
        LatencyStats {
            avg_us: ns.mean() / 1e3,
            p99_us: ns.quantile(0.99) as f64 / 1e3,
            samples: ns.count(),
        }
    }
}

impl Section for LatencyStats {
    const FIELDS: &'static [Field<Self>] = &[
        field!(avg_us csv("avg_us", 2) table("avg_us", 2)),
        field!(p99_us csv("p99_us", 2) table("p99_us", 2)),
        field!(samples),
    ];
}

/// Residency summary for one pipeline stage, produced by the per-skb
/// lifecycle tracer (`hns-trace`). Times are nanoseconds a packet spent
/// *in* the stage (stamp to next stamp); the synthetic `end_to_end` row
/// covers the whole app-write→recv-copy path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageLatency {
    /// Stage label (`tcp_tx`, `wire`, …, or `end_to_end`).
    pub stage: String,
    /// Number of residency samples.
    pub samples: u64,
    /// Mean residency in nanoseconds.
    pub mean_ns: f64,
    /// Median residency.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Maximum observed residency.
    pub max_ns: u64,
}

impl Section for StageLatency {
    const FIELDS: &'static [Field<Self>] = &[
        field!(stage table("stage", 0)),
        field!(samples table("samples", 0)),
        field!(mean_ns),
        field!(p50_ns csv("p50_ns", 0) table_scaled("p50_us", 1e-3, 3)),
        field!(p90_ns table_scaled("p90_us", 1e-3, 3)),
        field!(p99_ns csv("p99_ns", 0) table_scaled("p99_us", 1e-3, 3)),
        field!(p999_ns table_scaled("p999_us", 1e-3, 3)),
        field!(max_ns),
    ];

    fn key(&self) -> &str {
        &self.stage
    }
}

/// Connection-lifecycle summary from a churn run (`hns-conn`): how many
/// connections moved through each lifecycle stage in the measurement
/// window, what the handshake cost, and how flat the flow table stayed.
/// Present only when the run had a churn workload — non-churn reports
/// keep the exact pre-churn JSON shape.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ConnSummary {
    /// Connections opened (SYN sent) in the window.
    pub opened: u64,
    /// Connections that completed the three-way handshake.
    pub established: u64,
    /// Connections fully closed (FIN exchange done and TIME_WAIT reaped).
    pub closed: u64,
    /// Connections aborted after exhausting handshake retries.
    pub failed: u64,
    /// Lifecycle-segment retransmissions (SYN, request, FIN resends).
    pub retransmits: u64,
    /// Short-RPC exchanges completed over churned connections.
    pub rpcs: u64,
    /// Frames that arrived for an already-torn-down connection (late
    /// retransmits racing teardown) and were dropped at lookup.
    pub stale_frames: u64,
    /// Achieved connection-establishment rate (connections per second).
    pub conn_rate_cps: f64,
    /// Client-observed handshake latency (SYN sent → SYN-ACK processed),
    /// reported in microseconds like the other latency stats.
    pub handshake: LatencyStats,
    /// Peak concurrent live connections in the flow table.
    pub established_high_water: u64,
    /// Peak TIME_WAIT ring occupancy.
    pub time_wait_high_water: u64,
    /// Flow-table slot capacity at end of run. Flat-memory churn keeps
    /// this near the concurrency high-water mark, not the open count.
    pub table_capacity: u64,
    /// Installs that reused a freed slot instead of growing the table.
    pub table_slot_reuse: u64,
    /// Epoll wakeups charged (first ready event of each poll batch).
    pub epoll_wakeups: u64,
    /// Ready events delivered across all wakeups.
    pub epoll_events: u64,
}

impl ConnSummary {
    /// Mean ready events coalesced per epoll wakeup.
    pub fn epoll_events_per_wakeup(&self) -> f64 {
        if self.epoll_wakeups == 0 {
            0.0
        } else {
            self.epoll_events as f64 / self.epoll_wakeups as f64
        }
    }
}

impl Section for ConnSummary {
    const FIELDS: &'static [Field<Self>] = &[
        field!(opened csv("conn_opened", 0) table("opened", 0)),
        field!(established csv("conn_established", 0) table("established", 0)),
        field!(closed csv("conn_closed", 0) table("closed", 0)),
        field!(failed csv("conn_failed", 0) table("failed", 0)),
        field!(retransmits csv("conn_retransmits", 0) table("retransmits", 0)),
        field!(rpcs table("rpcs", 0)),
        field!(stale_frames),
        field!(conn_rate_cps csv("conn_rate_cps", 1) table("conn_rate_cps", 0)),
        field!(handshake csv("handshake_", 0) table("handshake_", 0)),
        field!(established_high_water csv("conn_live_hw", 0) table("live_high_water", 0)),
        field!(time_wait_high_water),
        field!(table_capacity csv("conn_table_capacity", 0) table("table_capacity", 0)),
        field!(table_slot_reuse),
        field!(epoll_wakeups),
        field!(epoll_events),
        field!(Derived(ConnSummary::epoll_events_per_wakeup)
            csv("epoll_evts_per_wakeup", 2) table("epoll_evts_per_wakeup", 2)),
    ];
}

/// Overload/capacity summary from a churn run with the overload model
/// enabled: accept-queue pressure, admission-policy outcomes, connection
/// memory, slow-client reaping, and the client-observed RPC latency tail.
/// Absent from non-overload reports, so their JSON shape is unchanged.
///
/// Queue/memory counters are whole-run (they describe pressure and peaks,
/// not rates); `refused`/`idle_reaped`/`slow_conns` and the RPC latency are
/// measurement-window scoped like the rest of the report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CapacitySummary {
    /// Admission policy label (`drop` / `queue` / `shed`).
    pub policy: String,
    /// Configured accept-queue depth.
    pub accept_depth: u64,
    /// Peak accept-queue occupancy (never exceeds the depth).
    pub accept_high_water: u64,
    /// SYNs that found the accept queue full.
    pub accept_overflows: u64,
    /// Overflows answered with a stateless SYN cookie.
    pub syn_cookies: u64,
    /// Overflows silently dropped (client retries on RTO).
    pub accept_drops: u64,
    /// Overflows refused with an immediate RST.
    pub sheds: u64,
    /// Connections the server refused with a RST in the window (sheds
    /// plus memory-pressure refusals, as the client observed them).
    pub refused: u64,
    /// Connection-memory budget in bytes (0 = unlimited).
    pub mem_budget_bytes: u64,
    /// Peak connection memory pinned, bytes.
    pub mem_peak_bytes: u64,
    /// Allocations refused by the memory budget.
    pub alloc_fails: u64,
    /// Server-side established connections torn down by the idle reaper
    /// in the window.
    pub idle_reaped: u64,
    /// Arrivals marked as slow (heavy-tailed on/off) clients in the
    /// window.
    pub slow_conns: u64,
    /// Client-observed RPC latency (request sent → response delivered)
    /// over churned connections, microseconds.
    pub rpc: LatencyStats,
}

impl Section for CapacitySummary {
    const FIELDS: &'static [Field<Self>] = &[
        field!(policy csv("policy", 0) table("policy", 0)),
        field!(accept_depth table("accept_depth", 0)),
        field!(accept_high_water csv("accept_hw", 0) table("accept_high_water", 0)),
        field!(accept_overflows csv("accept_overflows", 0) table("accept_overflows", 0)),
        field!(syn_cookies csv("syn_cookies", 0) table("syn_cookies", 0)),
        field!(accept_drops csv("accept_drops", 0) table("accept_drops", 0)),
        field!(sheds csv("sheds", 0) table("sheds", 0)),
        field!(refused csv("refused", 0) table("refused", 0)),
        field!(mem_budget_bytes),
        field!(mem_peak_bytes csv("mem_peak_bytes", 0) table("mem_peak_bytes", 0)),
        field!(alloc_fails csv("alloc_fails", 0) table("alloc_fails", 0)),
        field!(idle_reaped csv("idle_reaped", 0) table("idle_reaped", 0)),
        field!(slow_conns csv("slow_conns", 0) table("slow_conns", 0)),
        field!(rpc csv("conn_rpc_", 0) table("rpc_", 0)),
    ];
}

/// Whole-window roll-up of the streaming monitor (`hns-monitor`): how many
/// interval snapshots were emitted, the goodput envelope they observed, and
/// per-stage residency quantiles from the cumulative (merged-interval)
/// DDSketches. Present only when `SimConfig::monitor` was set — unmonitored
/// reports keep the exact pre-monitor JSON shape.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MonitorSummary {
    /// Interval snapshots emitted during the measurement window.
    pub snapshots: u64,
    /// Configured snapshot interval, seconds.
    pub interval_secs: f64,
    /// DDSketch relative-error bound the quantiles are good to.
    pub sketch_alpha: f64,
    /// Mean per-interval goodput, Gbit/s (0 when no snapshots).
    pub goodput_avg_gbps: f64,
    /// Quietest interval's goodput, Gbit/s.
    pub goodput_min_gbps: f64,
    /// Busiest interval's goodput, Gbit/s.
    pub goodput_max_gbps: f64,
    /// Cumulative per-stage residency quantiles, pipeline order.
    pub stages: Vec<MonitorStage>,
}

/// One stage row of a [`MonitorSummary`]: sketch-estimated residency
/// quantiles over every sample the monitor folded in the window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MonitorStage {
    /// Stage label (`tcp_rx`, `sock_queue`, …).
    pub stage: String,
    /// Residency samples folded into the sketch.
    pub samples: u64,
    /// Median residency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile residency, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile residency, nanoseconds.
    pub p999_ns: u64,
}

impl Section for MonitorStage {
    const FIELDS: &'static [Field<Self>] = &[
        field!(stage table("stage", 0)),
        field!(samples table("samples", 0)),
        field!(p50_ns table_scaled("p50_us", 1e-3, 3)),
        field!(p99_ns table_scaled("p99_us", 1e-3, 3)),
        field!(p999_ns table_scaled("p999_us", 1e-3, 3)),
    ];

    fn key(&self) -> &str {
        &self.stage
    }
}

impl Section for MonitorSummary {
    const FIELDS: &'static [Field<Self>] = &[
        field!(snapshots csv("mon_snapshots", 0) table("snapshots", 0)),
        field!(interval_secs csv("mon_interval_secs", 6) table_scaled("interval_ms", 1e3, 3)),
        field!(sketch_alpha table("sketch_alpha", 4)),
        field!(goodput_avg_gbps csv("mon_goodput_avg_gbps", 4) table("goodput_avg_gbps", 3)),
        field!(goodput_min_gbps csv("mon_goodput_min_gbps", 4) table("goodput_min_gbps", 3)),
        field!(goodput_max_gbps csv("mon_goodput_max_gbps", 4) table("goodput_max_gbps", 3)),
        field!(stages table("stages", 0)),
    ];
}

/// Measurements for one side (sender or receiver) of the experiment.
#[derive(Clone, Debug, Default)]
pub struct SideReport {
    /// Cycle breakdown across the eight taxonomy categories.
    pub breakdown: CycleBreakdown,
    /// Total CPU consumed, in cores (e.g. `3.75` = 3.75 fully-busy cores).
    pub cores_used: f64,
    /// Cache statistics for data copies performed on this side.
    pub cache: CacheStats,
}

impl Section for SideReport {
    const FIELDS: &'static [Field<Self>] = &[field!(breakdown), field!(cores_used), field!(cache)];
}

/// Full result of one experiment run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Human-readable experiment label.
    pub label: String,
    /// Measurement window length in seconds (warmup excluded).
    pub window_secs: f64,
    /// Application-level bytes delivered (receiver side) in the window.
    pub delivered_bytes: u64,
    /// Total application-level throughput in Gbps.
    pub total_gbps: f64,
    /// Throughput per bottleneck core in Gbps: `total_gbps / max(sender
    /// cores, receiver cores)` — matches the paper's definition of dividing
    /// by CPU utilization at the bottleneck.
    pub thpt_per_core_gbps: f64,
    /// Sender-side measurements.
    pub sender: SideReport,
    /// Receiver-side measurements.
    pub receiver: SideReport,
    /// NAPI→start-of-copy latency distribution.
    pub napi_to_copy: LatencyStats,
    /// RPC round-trip latency distribution (client-observed), short-flow
    /// workloads only.
    pub rpc_latency: LatencyStats,
    /// Post-GRO skb size histogram: `(bucket_lower_bound_bytes, count)`.
    pub skb_size_hist: Vec<(u64, u64)>,
    /// Mean post-GRO skb size in bytes.
    pub avg_skb_bytes: f64,
    /// Packets dropped by the in-network loss injector.
    pub wire_drops: u64,
    /// Packets dropped at the receiver NIC for want of Rx descriptors.
    pub ring_drops: u64,
    /// Full drop taxonomy: every lost frame attributed to the layer that
    /// dropped it (`drops.wire == wire_drops`, `drops.rx_ring + drops.pool
    /// == ring_drops`; the extra buckets cover backlog and socket drops).
    pub drops: DropStats,
    /// Segments retransmitted by senders.
    pub retransmissions: u64,
    /// RPC round-trips completed (short-flow workloads only).
    pub rpcs_completed: u64,
    /// Per-flow delivered application bytes in the window, keyed by flow id,
    /// so mixed workloads can report long-flow vs short-flow throughput.
    pub per_flow_bytes: Vec<(u64, u64)>,
    /// Aggregate throughput timeline: `(seconds_into_window, gbps)` sampled
    /// once per millisecond — convergence/stability diagnostics.
    pub gbps_timeline: Vec<(f64, f64)>,
    /// Per-stage residency summaries from the lifecycle tracer, pipeline
    /// order, plus an `end_to_end` row. Empty when tracing is off — and
    /// then completely absent from the JSON/CSV output, so untraced
    /// reports stay byte-identical to pre-tracing ones.
    pub stage_latency: Vec<StageLatency>,
    /// Stage stamps dropped because a trace ring filled up (0 when tracing
    /// is off). Non-zero means the residency distributions are partial.
    pub trace_overflow: u64,
    /// Connection-lifecycle summary, churn workloads only. `None` (and
    /// absent from the JSON) when the run had no churn, so non-churn
    /// reports stay byte-identical to pre-churn ones.
    pub conn: Option<ConnSummary>,
    /// Overload/capacity summary, present only when the churn run had the
    /// overload model enabled (same absent-when-unused discipline).
    pub capacity: Option<CapacitySummary>,
    /// Streaming-monitor roll-up, present only when `SimConfig::monitor`
    /// was set (same absent-when-unused discipline).
    pub monitor: Option<MonitorSummary>,
}

impl Report {
    /// Throughput of one flow in Gbps (0 if the flow is unknown).
    pub fn flow_gbps(&self, flow_id: u64) -> f64 {
        if self.window_secs <= 0.0 {
            return 0.0;
        }
        self.per_flow_bytes
            .iter()
            .find(|(id, _)| *id == flow_id)
            .map(|(_, b)| *b as f64 * 8.0 / 1e9 / self.window_secs)
            .unwrap_or(0.0)
    }

    /// Jain's fairness index over per-flow delivered bytes:
    /// `(Σxᵢ)² / (n·Σxᵢ²)` ∈ (0, 1], 1 = perfectly fair. Used to check
    /// that saturated multi-flow patterns (one-to-one, all-to-all) share
    /// the link evenly.
    pub fn fairness_index(&self) -> f64 {
        let xs: Vec<f64> = self.per_flow_bytes.iter().map(|&(_, b)| b as f64).collect();
        if xs.is_empty() {
            return 1.0;
        }
        let sum: f64 = xs.iter().sum();
        let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
        if sum_sq == 0.0 {
            return 1.0;
        }
        sum * sum / (xs.len() as f64 * sum_sq)
    }

    /// Serialize to pretty JSON. Output is byte-identical for identical
    /// reports, which the determinism regression tests rely on.
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }

    /// Parse a report previously rendered by [`Report::to_json`].
    pub fn from_json(text: &str) -> Result<Report, JsonError> {
        let mut report = Report::default();
        report.read(&Value::parse(text)?)?;
        Ok(report)
    }

    /// Coefficient of variation of the throughput timeline — a steadiness
    /// check for the measurement window (0 = perfectly steady; empty or
    /// idle timelines return 0).
    pub fn throughput_cv(&self) -> f64 {
        let xs: Vec<f64> = self.gbps_timeline.iter().map(|&(_, g)| g).collect();
        if xs.len() < 2 {
            return 0.0;
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        if mean <= 0.0 {
            return 0.0;
        }
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        var.sqrt() / mean
    }
}

/// Trace keys exist only when tracing ran, so untraced reports keep the
/// exact pre-tracing shape.
fn traced(r: &Report) -> bool {
    !r.stage_latency.is_empty()
}

impl Section for Report {
    const FIELDS: &'static [Field<Self>] = &[
        field!(label csv("label", 0)),
        field!(window_secs csv("window_secs", 6)),
        field!(delivered_bytes),
        field!(total_gbps csv("total_gbps", 4)),
        field!(thpt_per_core_gbps csv("thpt_per_core_gbps", 4)),
        field!(sender),
        field!(receiver),
        // The CSV interleaves the two sides, so their columns are this
        // section's, reading into `sender` and `receiver`.
        field!(Derived(|r| r.sender.cores_used) csv("snd_cores", 4)),
        field!(Derived(|r| r.receiver.cores_used) csv("rcv_cores", 4)),
        field!(Derived(|r| r.receiver.cache.miss_rate()) csv("rx_miss_rate", 4)),
        field!(Derived(|r| r.sender.cache.miss_rate()) csv("tx_miss_rate", 4)),
        field!(napi_to_copy csv("napi_copy_", 0)),
        field!(rpc_latency csv("rpc_latency_", 0)),
        field!(skb_size_hist),
        field!(avg_skb_bytes csv("avg_skb_bytes", 1)),
        field!(wire_drops csv("wire_drops", 0)),
        field!(ring_drops csv("ring_drops", 0)),
        field!(drops),
        field!(retransmissions csv("retransmissions", 0)),
        field!(rpcs_completed csv("rpcs_completed", 0)),
        field!(per_flow_bytes),
        field!(gbps_timeline),
        field!(Derived(Report::fairness_index) csv("fairness", 4)),
        field!(PerCategory(|r| &r.receiver.breakdown) csv("rx_", 4)),
        field!(PerCategory(|r| &r.sender.breakdown) csv("tx_", 4)),
        field!(stage_latency when(traced) csv("", 0) table("stage residency (tracer)", 0)),
        field!(trace_overflow when(traced)
            csv("trace_overflow", 0) table("trace stamps lost to full rings", 0)),
        field!(conn csv("", 0) table("connection lifecycle", 0)),
        field!(capacity csv("", 0) table("overload model", 0)),
        field!(monitor csv("", 0) table("monitor summary", 0)),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::Category;

    #[test]
    fn cache_miss_rate() {
        let cs = CacheStats {
            hit_bytes: 30,
            miss_bytes: 70,
        };
        assert!((cs.miss_rate() - 0.7).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn cache_merge() {
        let mut a = CacheStats {
            hit_bytes: 1,
            miss_bytes: 2,
        };
        a.merge(CacheStats {
            hit_bytes: 3,
            miss_bytes: 4,
        });
        assert_eq!(a.hit_bytes, 4);
        assert_eq!(a.miss_bytes, 6);
    }

    #[test]
    fn flow_gbps_lookup() {
        let r = Report {
            window_secs: 1.0,
            per_flow_bytes: vec![(7, 125_000_000)], // 1 Gbps
            ..Report::default()
        };
        assert!((r.flow_gbps(7) - 1.0).abs() < 1e-9);
        assert_eq!(r.flow_gbps(8), 0.0);
    }

    #[test]
    fn fairness_index_properties() {
        let mut r = Report {
            per_flow_bytes: vec![(0, 100), (1, 100), (2, 100)],
            ..Report::default()
        };
        assert!((r.fairness_index() - 1.0).abs() < 1e-12, "equal shares");
        r.per_flow_bytes = vec![(0, 300), (1, 0), (2, 0)];
        assert!((r.fairness_index() - 1.0 / 3.0).abs() < 1e-12, "one hog");
        r.per_flow_bytes = vec![];
        assert_eq!(r.fairness_index(), 1.0, "vacuous");
    }

    #[test]
    fn throughput_cv_behaviour() {
        let mut r = Report::default();
        assert_eq!(r.throughput_cv(), 0.0, "empty timeline");
        r.gbps_timeline = vec![(0.001, 40.0), (0.002, 40.0), (0.003, 40.0)];
        assert!(r.throughput_cv() < 1e-12, "steady timeline");
        r.gbps_timeline = vec![(0.001, 10.0), (0.002, 70.0)];
        assert!(r.throughput_cv() > 0.5, "bursty timeline");
    }

    #[test]
    fn untraced_report_json_has_no_trace_keys() {
        let r = Report::default();
        let j = r.to_json();
        assert!(!j.contains("stage_latency"));
        assert!(!j.contains("trace_overflow"));
        let back = Report::from_json(&j).unwrap();
        assert!(back.stage_latency.is_empty());
        assert_eq!(back.trace_overflow, 0);
    }

    #[test]
    fn stage_latency_round_trips() {
        let r = Report {
            stage_latency: vec![StageLatency {
                stage: "tcp_rx".into(),
                samples: 100,
                mean_ns: 512.5,
                p50_ns: 400,
                p90_ns: 900,
                p99_ns: 1800,
                p999_ns: 2500,
                max_ns: 3000,
            }],
            trace_overflow: 7,
            ..Report::default()
        };
        let j = r.to_json();
        let back = Report::from_json(&j).unwrap();
        assert_eq!(back.stage_latency, r.stage_latency);
        assert_eq!(back.trace_overflow, 7);
        assert_eq!(back.to_json(), j, "serialization is stable");
    }

    #[test]
    fn non_churn_report_json_has_no_conn_key() {
        let r = Report::default();
        let j = r.to_json();
        assert!(!j.contains("\"conn\""));
        let back = Report::from_json(&j).unwrap();
        assert!(back.conn.is_none());
    }

    #[test]
    fn conn_summary_round_trips() {
        let r = Report {
            conn: Some(ConnSummary {
                opened: 1000,
                established: 990,
                closed: 980,
                failed: 2,
                retransmits: 12,
                rpcs: 970,
                stale_frames: 1,
                conn_rate_cps: 99_000.0,
                handshake: LatencyStats {
                    avg_us: 12.5,
                    p99_us: 40.0,
                    samples: 990,
                },
                established_high_water: 64,
                time_wait_high_water: 32,
                table_capacity: 80,
                table_slot_reuse: 920,
                epoll_wakeups: 100,
                epoll_events: 990,
            }),
            ..Report::default()
        };
        let j = r.to_json();
        let back = Report::from_json(&j).unwrap();
        assert_eq!(back.conn, r.conn);
        assert_eq!(back.to_json(), j, "serialization is stable");
        let c = back.conn.unwrap();
        assert!((c.epoll_events_per_wakeup() - 9.9).abs() < 1e-12);
        assert_eq!(ConnSummary::default().epoll_events_per_wakeup(), 0.0);
    }

    #[test]
    fn non_overload_report_json_has_no_capacity_key() {
        let r = Report {
            conn: Some(ConnSummary::default()),
            ..Report::default()
        };
        let j = r.to_json();
        assert!(
            !j.contains("\"capacity\""),
            "churn without overload stays capacity-free"
        );
        assert!(Report::from_json(&j).unwrap().capacity.is_none());
    }

    #[test]
    fn capacity_summary_round_trips() {
        let r = Report {
            conn: Some(ConnSummary::default()),
            capacity: Some(CapacitySummary {
                policy: "queue".into(),
                accept_depth: 64,
                accept_high_water: 64,
                accept_overflows: 123,
                syn_cookies: 123,
                accept_drops: 0,
                sheds: 0,
                refused: 5,
                mem_budget_bytes: 2 << 20,
                mem_peak_bytes: 1_900_000,
                alloc_fails: 7,
                idle_reaped: 11,
                slow_conns: 40,
                rpc: LatencyStats {
                    avg_us: 80.0,
                    p99_us: 900.0,
                    samples: 400,
                },
            }),
            ..Report::default()
        };
        let j = r.to_json();
        let back = Report::from_json(&j).unwrap();
        assert_eq!(back.capacity, r.capacity);
        assert_eq!(back.to_json(), j, "serialization is stable");
    }

    #[test]
    fn unmonitored_report_json_has_no_monitor_key() {
        let r = Report {
            conn: Some(ConnSummary::default()),
            capacity: Some(CapacitySummary::default()),
            ..Report::default()
        };
        let j = r.to_json();
        assert!(
            !j.contains("\"monitor\""),
            "monitor-off reports stay monitor-free"
        );
        assert!(Report::from_json(&j).unwrap().monitor.is_none());
    }

    #[test]
    fn monitor_summary_round_trips() {
        let r = Report {
            monitor: Some(MonitorSummary {
                snapshots: 30,
                interval_secs: 0.01,
                sketch_alpha: 0.01,
                goodput_avg_gbps: 21.5,
                goodput_min_gbps: 18.0,
                goodput_max_gbps: 24.25,
                stages: vec![MonitorStage {
                    stage: "sock_queue".into(),
                    samples: 4000,
                    p50_ns: 900,
                    p99_ns: 8200,
                    p999_ns: 15000,
                }],
            }),
            ..Report::default()
        };
        let j = r.to_json();
        let back = Report::from_json(&j).unwrap();
        assert_eq!(back.monitor, r.monitor);
        assert_eq!(back.to_json(), j, "serialization is stable");
    }

    #[test]
    fn json_round_trip() {
        let mut r = Report {
            label: "unit".into(),
            total_gbps: 42.0,
            ..Report::default()
        };
        r.receiver.breakdown.charge(Category::DataCopy, 99);
        r.drops.wire = 3;
        r.drops.pool = 4;
        r.skb_size_hist = vec![(0, 5), (4096, 9)];
        r.gbps_timeline = vec![(0.001, 41.5)];
        let j = r.to_json();
        let back = Report::from_json(&j).unwrap();
        assert_eq!(back.label, "unit");
        assert_eq!(back.receiver.breakdown[Category::DataCopy], 99);
        assert_eq!(back.drops.total(), 7);
        assert_eq!(back.skb_size_hist, r.skb_size_hist);
        assert_eq!(back.gbps_timeline, r.gbps_timeline);
        assert_eq!(back.to_json(), j, "serialization is stable");
    }
}
