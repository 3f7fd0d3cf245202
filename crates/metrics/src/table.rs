//! Plain-text table rendering for the `hostnet` CLI.
//!
//! The CLI prints the same rows/series the paper's figures report; these
//! helpers keep the formatting consistent across all of them.

use crate::report::Report;
use crate::taxonomy::{CycleBreakdown, ALL_CATEGORIES};

/// Format a Gbps value the way the figure tables do.
pub fn format_gbps(gbps: f64) -> String {
    format!("{gbps:6.2}")
}

/// Render a CPU-breakdown table: one column per labelled breakdown, one row
/// per taxonomy category, cells showing the fraction of CPU cycles — the
/// textual equivalent of the paper's stacked-bar breakdown figures.
pub fn format_breakdown_table(columns: &[(String, CycleBreakdown)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<14}", "category"));
    for (label, _) in columns {
        out.push_str(&format!(" {label:>14}"));
    }
    out.push('\n');
    for cat in ALL_CATEGORIES {
        out.push_str(&format!("{:<14}", cat.label()));
        for (_, bd) in columns {
            out.push_str(&format!(" {:>14.3}", bd.fraction(cat)));
        }
        out.push('\n');
    }
    out
}

/// Render a series table: one row per report with throughput-per-core, total
/// throughput, utilizations and cache miss rates — the scaffolding of the
/// paper's line/bar figures.
pub fn format_series_table(reports: &[Report]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>10} {:>10} {:>9} {:>9} {:>8} {:>8}\n",
        "experiment", "thpt/core", "total", "snd_cores", "rcv_cores", "rx_miss", "tx_miss"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<28} {:>10.2} {:>10.2} {:>9.2} {:>9.2} {:>7.1}% {:>7.1}%\n",
            r.label,
            r.thpt_per_core_gbps,
            r.total_gbps,
            r.sender.cores_used,
            r.receiver.cores_used,
            r.receiver.cache.miss_rate() * 100.0,
            r.sender.cache.miss_rate() * 100.0,
        ));
    }
    out
}

/// Render the per-stage residency table from a traced report: one row per
/// pipeline stage with sample count and p50/p90/p99/p999 in microseconds.
/// Empty string when the report carries no trace data.
pub fn format_stage_table(report: &Report) -> String {
    if report.stage_latency.is_empty() {
        return String::new();
    }
    let us = |ns: u64| ns as f64 / 1e3;
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "stage", "samples", "p50_us", "p90_us", "p99_us", "p999_us"
    ));
    for s in &report.stage_latency {
        out.push_str(&format!(
            "{:<12} {:>10} {:>10.3} {:>10.3} {:>10.3} {:>10.3}\n",
            s.stage,
            s.samples,
            us(s.p50_ns),
            us(s.p90_ns),
            us(s.p99_ns),
            us(s.p999_ns),
        ));
    }
    if report.trace_overflow > 0 {
        out.push_str(&format!(
            "warning: {} stamps lost to full trace rings (distributions are partial)\n",
            report.trace_overflow
        ));
    }
    out
}

/// Render the connection-lifecycle summary from a churn report: lifecycle
/// counters, handshake latency, flow-table footprint and epoll batching.
/// Empty string when the report carries no churn data.
pub fn format_conn_table(report: &Report) -> String {
    let Some(c) = &report.conn else {
        return String::new();
    };
    let mut out = String::new();
    out.push_str(&format!("{:<24} {:>12}\n", "conn metric", "value"));
    let rows: [(&str, String); 12] = [
        ("opened", c.opened.to_string()),
        ("established", c.established.to_string()),
        ("closed", c.closed.to_string()),
        ("failed", c.failed.to_string()),
        ("retransmits", c.retransmits.to_string()),
        ("rpcs", c.rpcs.to_string()),
        ("conn_rate_cps", format!("{:.0}", c.conn_rate_cps)),
        ("handshake_avg_us", format!("{:.2}", c.handshake.avg_us)),
        ("handshake_p99_us", format!("{:.2}", c.handshake.p99_us)),
        ("live_high_water", c.established_high_water.to_string()),
        ("table_capacity", c.table_capacity.to_string()),
        (
            "epoll_evts_per_wakeup",
            format!("{:.2}", c.epoll_events_per_wakeup()),
        ),
    ];
    for (label, value) in rows {
        out.push_str(&format!("{label:<24} {value:>12}\n"));
    }
    out
}

/// Render the overload/capacity summary from an overload-enabled churn
/// report: accept-queue pressure, admission outcomes, memory pinning, and
/// the RPC latency tail. Empty string when the report carries no capacity
/// data.
pub fn format_capacity_table(report: &Report) -> String {
    let Some(c) = &report.capacity else {
        return String::new();
    };
    let mut out = String::new();
    out.push_str(&format!("{:<24} {:>12}\n", "capacity metric", "value"));
    let rows: [(&str, String); 14] = [
        ("policy", c.policy.clone()),
        ("accept_depth", c.accept_depth.to_string()),
        ("accept_high_water", c.accept_high_water.to_string()),
        ("accept_overflows", c.accept_overflows.to_string()),
        ("syn_cookies", c.syn_cookies.to_string()),
        ("accept_drops", c.accept_drops.to_string()),
        ("sheds", c.sheds.to_string()),
        ("refused", c.refused.to_string()),
        ("mem_peak_bytes", c.mem_peak_bytes.to_string()),
        ("alloc_fails", c.alloc_fails.to_string()),
        ("idle_reaped", c.idle_reaped.to_string()),
        ("slow_conns", c.slow_conns.to_string()),
        ("rpc_avg_us", format!("{:.2}", c.rpc.avg_us)),
        ("rpc_p99_us", format!("{:.2}", c.rpc.p99_us)),
    ];
    for (label, value) in rows {
        out.push_str(&format!("{label:<24} {value:>12}\n"));
    }
    out
}

/// Render the streaming-telemetry summary from a monitored report: snapshot
/// cadence, goodput envelope across intervals, and the per-stage sketch
/// quantiles accumulated over the whole measurement window. Empty string
/// when the report carries no monitor data.
pub fn format_monitor_table(report: &Report) -> String {
    let Some(m) = &report.monitor else {
        return String::new();
    };
    let mut out = String::new();
    out.push_str(&format!("{:<24} {:>12}\n", "monitor metric", "value"));
    let rows: [(&str, String); 6] = [
        ("snapshots", m.snapshots.to_string()),
        ("interval_ms", format!("{:.3}", m.interval_secs * 1e3)),
        ("sketch_alpha", format!("{:.4}", m.sketch_alpha)),
        ("goodput_avg_gbps", format!("{:.3}", m.goodput_avg_gbps)),
        ("goodput_min_gbps", format!("{:.3}", m.goodput_min_gbps)),
        ("goodput_max_gbps", format!("{:.3}", m.goodput_max_gbps)),
    ];
    for (label, value) in rows {
        out.push_str(&format!("{label:<24} {value:>12}\n"));
    }
    if !m.stages.is_empty() {
        let us = |ns: u64| ns as f64 / 1e3;
        out.push_str(&format!(
            "{:<12} {:>10} {:>10} {:>10} {:>10}\n",
            "stage", "samples", "p50_us", "p99_us", "p999_us"
        ));
        for s in &m.stages {
            out.push_str(&format!(
                "{:<12} {:>10} {:>10.3} {:>10.3} {:>10.3}\n",
                s.stage,
                s.samples,
                us(s.p50_ns),
                us(s.p99_ns),
                us(s.p999_ns),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::Category;

    #[test]
    fn breakdown_table_contains_all_categories() {
        let mut bd = CycleBreakdown::new();
        bd.charge(Category::DataCopy, 50);
        bd.charge(Category::TcpIp, 50);
        let t = format_breakdown_table(&[("all-opts".into(), bd)]);
        for cat in ALL_CATEGORIES {
            assert!(t.contains(cat.label()), "missing {cat}");
        }
        assert!(t.contains("0.500"));
    }

    #[test]
    fn series_table_has_rows() {
        let r = Report {
            label: "single-flow".into(),
            thpt_per_core_gbps: 42.0,
            total_gbps: 42.0,
            ..Report::default()
        };
        let t = format_series_table(&[r]);
        assert!(t.contains("single-flow"));
        assert!(t.contains("42.00"));
    }

    #[test]
    fn gbps_formatting() {
        assert_eq!(format_gbps(42.0), " 42.00");
    }

    #[test]
    fn stage_table_rows_and_overflow_warning() {
        use crate::report::StageLatency;
        let mut r = Report::default();
        assert_eq!(
            format_stage_table(&r),
            "",
            "untraced report renders nothing"
        );
        r.stage_latency = vec![StageLatency {
            stage: "sock_queue".into(),
            samples: 42,
            mean_ns: 1500.0,
            p50_ns: 1000,
            p90_ns: 2000,
            p99_ns: 5000,
            p999_ns: 9000,
            max_ns: 12000,
        }];
        let t = format_stage_table(&r);
        assert!(t.contains("sock_queue"));
        assert!(t.contains("1.000"));
        assert!(t.contains("5.000"));
        assert!(!t.contains("warning"));
        r.trace_overflow = 3;
        assert!(format_stage_table(&r).contains("3 stamps lost"));
    }

    #[test]
    fn conn_table_renders_only_for_churn_reports() {
        use crate::report::{ConnSummary, LatencyStats};
        let mut r = Report::default();
        assert_eq!(
            format_conn_table(&r),
            "",
            "non-churn report renders nothing"
        );
        r.conn = Some(ConnSummary {
            opened: 500,
            established: 495,
            conn_rate_cps: 50_000.0,
            handshake: LatencyStats {
                avg_us: 10.0,
                p99_us: 25.0,
                samples: 495,
            },
            epoll_wakeups: 10,
            epoll_events: 40,
            ..ConnSummary::default()
        });
        let t = format_conn_table(&r);
        assert!(t.contains("opened"));
        assert!(t.contains("500"));
        assert!(t.contains("50000"));
        assert!(t.contains("4.00"), "epoll coalescing ratio");
    }

    #[test]
    fn capacity_table_renders_only_for_overload_reports() {
        use crate::report::{CapacitySummary, LatencyStats};
        let mut r = Report::default();
        assert_eq!(
            format_capacity_table(&r),
            "",
            "non-overload report renders nothing"
        );
        r.capacity = Some(CapacitySummary {
            policy: "queue".into(),
            accept_depth: 64,
            accept_high_water: 64,
            accept_overflows: 250,
            syn_cookies: 250,
            rpc: LatencyStats {
                avg_us: 75.0,
                p99_us: 640.0,
                samples: 900,
            },
            ..CapacitySummary::default()
        });
        let t = format_capacity_table(&r);
        assert!(t.contains("policy"));
        assert!(t.contains("queue"));
        assert!(t.contains("250"));
        assert!(t.contains("640.00"));
    }

    #[test]
    fn monitor_table_renders_only_for_monitored_reports() {
        use crate::report::{MonitorStage, MonitorSummary};
        let mut r = Report::default();
        assert_eq!(
            format_monitor_table(&r),
            "",
            "unmonitored report renders nothing"
        );
        r.monitor = Some(MonitorSummary {
            snapshots: 12,
            interval_secs: 0.01,
            sketch_alpha: 0.01,
            goodput_avg_gbps: 38.5,
            goodput_min_gbps: 30.0,
            goodput_max_gbps: 42.0,
            stages: vec![MonitorStage {
                stage: "sock_queue".into(),
                samples: 400,
                p50_ns: 1000,
                p99_ns: 5000,
                p999_ns: 9000,
            }],
        });
        let t = format_monitor_table(&r);
        assert!(t.contains("snapshots"));
        assert!(t.contains("12"));
        assert!(t.contains("38.500"));
        assert!(t.contains("sock_queue"));
        assert!(t.contains("5.000"), "p99 rendered in microseconds");
    }
}
