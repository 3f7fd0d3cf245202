//! Plain-text table rendering for the `hostnet` CLI.
//!
//! The CLI prints the same rows/series the paper's figures report; these
//! helpers keep the formatting consistent across all of them.

use crate::report::Report;
use crate::schema::{At, Section, View};
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

/// Render every present section of a report under its title: the traced
/// stage residency, the connection, capacity and monitor summaries, each
/// only when the run produced it. Scalar entries print as `title: value`.
/// Empty string when the report has none.
pub fn format_sections(report: &Report) -> String {
    let mut out = String::new();
    for f in Report::FIELDS {
        let (At::Stored(key, get, _), Some(title)) = (&f.at, f.table) else {
            continue;
        };
        if !f.on(report) {
            continue;
        }
        match get(report).block(key) {
            Some(body) => out.push_str(&format!("\n{}:\n{body}", title.name)),
            None => {
                let mut cells = Vec::new();
                f.cells(report, View::Table, "", &[], &mut cells);
                for (label, value) in cells {
                    out.push_str(&format!("{label}: {value}\n"));
                }
            }
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
        assert_eq!(format_sections(&r), "", "untraced report renders nothing");
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
        let t = format_sections(&r);
        assert!(t.contains("\nstage residency (tracer):\nstage "));
        assert!(t.contains("sock_queue"));
        assert!(t.contains("1.000"));
        assert!(t.contains("5.000"));
        assert!(t.contains("trace stamps lost to full rings: 0\n"));
        r.trace_overflow = 3;
        assert!(format_sections(&r).contains("trace stamps lost to full rings: 3\n"));
    }

    #[test]
    fn conn_table_renders_only_for_churn_reports() {
        use crate::report::{ConnSummary, LatencyStats};
        let mut r = Report::default();
        assert_eq!(format_sections(&r), "", "non-churn report renders nothing");
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
        let t = format_sections(&r);
        assert!(t.starts_with("\nconnection lifecycle:\nconn metric "));
        assert!(t.contains("opened"));
        assert!(t.contains("500"));
        assert!(t.contains("50000"));
        assert!(t.contains("handshake_p99_us"));
        assert!(t.contains("4.00"), "epoll coalescing ratio");
    }

    #[test]
    fn capacity_table_renders_only_for_overload_reports() {
        use crate::report::{CapacitySummary, LatencyStats};
        let mut r = Report::default();
        assert_eq!(
            format_sections(&r),
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
        let t = format_sections(&r);
        assert!(t.starts_with("\noverload model:\ncapacity metric "));
        assert!(t.contains("policy"));
        assert!(t.contains("queue"));
        assert!(t.contains("250"));
        assert!(t.contains("rpc_p99_us"));
        assert!(t.contains("640.00"));
    }

    #[test]
    fn monitor_table_renders_only_for_monitored_reports() {
        use crate::report::{MonitorStage, MonitorSummary};
        let mut r = Report::default();
        assert_eq!(
            format_sections(&r),
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
        let t = format_sections(&r);
        assert!(t.starts_with("\nmonitor summary:\nmonitor metric "));
        assert!(t.contains("snapshots"));
        assert!(t.contains("12"));
        assert!(t.contains("10.000"), "interval rendered in milliseconds");
        assert!(t.contains("38.500"));
        assert!(t.contains("sock_queue"));
        assert!(t.contains("5.000"), "p99 rendered in microseconds");
    }

    #[test]
    fn sections_print_in_schema_order() {
        use crate::report::{CapacitySummary, ConnSummary, MonitorSummary};
        let r = Report {
            conn: Some(ConnSummary::default()),
            capacity: Some(CapacitySummary::default()),
            monitor: Some(MonitorSummary::default()),
            ..Report::default()
        };
        let t = format_sections(&r);
        let at = |title: &str| t.find(title).unwrap_or_else(|| panic!("no {title}"));
        assert!(at("connection lifecycle:") < at("overload model:"));
        assert!(at("overload model:") < at("monitor summary:"));
        assert!(!t.contains("stage "), "an empty stage list prints no table");
    }
}
