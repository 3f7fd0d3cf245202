//! Interval snapshots: the unit of the monitor's JSONL stream.
//!
//! A snapshot covers one emission interval and is entirely sim-time
//! stamped — no wall clock anywhere — so two identically-seeded runs
//! emit byte-identical streams regardless of host load.

use hns_metrics::json::{obj, Value};
use hns_metrics::{DropStats, MonitorStage};

/// Churn/overload counters sampled from the connection engine.
///
/// All fields except `live` are cumulative counts; [`ConnCounters::since`]
/// turns two samples into a per-interval delta. `live` is a gauge (table
/// occupancy at sample time) and passes through unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnCounters {
    /// SYNs sent (active opens).
    pub opened: u64,
    /// Handshakes completed.
    pub established: u64,
    /// Connections fully closed.
    pub closed: u64,
    /// Connections that gave up (SYN retry exhaustion, aborts).
    pub failed: u64,
    /// RPCs completed over churned connections.
    pub rpcs: u64,
    /// SYNs refused by admission policy.
    pub refused: u64,
    /// Accept-queue overflow events.
    pub accept_overflows: u64,
    /// SYN-cookie fallbacks issued.
    pub syn_cookies: u64,
    /// Load-shed decisions.
    pub sheds: u64,
    /// Live connections in the table right now (gauge, not a delta).
    pub live: u64,
}

impl ConnCounters {
    /// Per-interval delta: counters subtract, the `live` gauge carries.
    pub fn since(&self, base: ConnCounters) -> ConnCounters {
        ConnCounters {
            opened: self.opened.saturating_sub(base.opened),
            established: self.established.saturating_sub(base.established),
            closed: self.closed.saturating_sub(base.closed),
            failed: self.failed.saturating_sub(base.failed),
            rpcs: self.rpcs.saturating_sub(base.rpcs),
            refused: self.refused.saturating_sub(base.refused),
            accept_overflows: self.accept_overflows.saturating_sub(base.accept_overflows),
            syn_cookies: self.syn_cookies.saturating_sub(base.syn_cookies),
            sheds: self.sheds.saturating_sub(base.sheds),
            live: self.live,
        }
    }

    fn to_value(self) -> Value {
        obj(vec![
            ("opened", Value::UInt(self.opened)),
            ("established", Value::UInt(self.established)),
            ("closed", Value::UInt(self.closed)),
            ("failed", Value::UInt(self.failed)),
            ("rpcs", Value::UInt(self.rpcs)),
            ("refused", Value::UInt(self.refused)),
            ("accept_overflows", Value::UInt(self.accept_overflows)),
            ("syn_cookies", Value::UInt(self.syn_cookies)),
            ("sheds", Value::UInt(self.sheds)),
            ("live", Value::UInt(self.live)),
        ])
    }
}

/// One interval of the monitor stream.
#[derive(Clone, Debug, PartialEq)]
pub struct MonitorSnapshot {
    /// Sim-time of emission, seconds since the measurement window opened.
    pub t_secs: f64,
    /// Interval actually covered (>= configured interval; tick-quantized).
    pub interval_secs: f64,
    /// Goodput over the interval, Gbit/s.
    pub goodput_gbps: f64,
    /// Drop-taxonomy delta over the interval.
    pub drops: DropStats,
    /// Stage residency quantiles for stages sampled this interval.
    pub stages: Vec<MonitorStage>,
    /// Churn/overload interval counters (churn scenarios only).
    pub conn: Option<ConnCounters>,
}

impl MonitorSnapshot {
    /// JSON form. Keys follow the repo's absent-when-unused convention:
    /// `drops` only when any drop occurred, `stages` only when non-empty,
    /// `conn` only on churn runs.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("t", Value::Num(self.t_secs)),
            ("interval", Value::Num(self.interval_secs)),
            ("goodput_gbps", Value::Num(self.goodput_gbps)),
        ];
        if self.drops.total() > 0 {
            let mut d = vec![("total", Value::UInt(self.drops.total()))];
            for (name, n) in self.drops.buckets() {
                if n > 0 {
                    d.push((name, Value::UInt(n)));
                }
            }
            fields.push(("drops", obj(d)));
        }
        if !self.stages.is_empty() {
            let rows = self
                .stages
                .iter()
                .map(|s| {
                    obj(vec![
                        ("stage", Value::Str(s.stage.clone())),
                        ("samples", Value::UInt(s.samples)),
                        ("p50_ns", Value::UInt(s.p50_ns)),
                        ("p99_ns", Value::UInt(s.p99_ns)),
                        ("p999_ns", Value::UInt(s.p999_ns)),
                    ])
                })
                .collect();
            fields.push(("stages", Value::Arr(rows)));
        }
        if let Some(c) = self.conn {
            fields.push(("conn", c.to_value()));
        }
        obj(fields)
    }

    /// One compact JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        self.to_value().compact()
    }

    /// One human interval line for live streaming output.
    pub fn human_line(&self) -> String {
        let mut line = format!("[{:>9.4}s] {:>8.3} Gbps", self.t_secs, self.goodput_gbps);
        let secs = self.interval_secs.max(1e-12);
        if self.drops.total() > 0 {
            line.push_str(&format!(
                " | drops {:>6.0}/s",
                self.drops.total() as f64 / secs
            ));
        }
        if let Some(c) = self.conn {
            line.push_str(&format!(
                " | est {:>6.0}/s live {}",
                c.established as f64 / secs,
                c.live
            ));
            if c.accept_overflows + c.refused + c.sheds > 0 {
                line.push_str(&format!(
                    " acceptq {:.0}/s",
                    (c.accept_overflows + c.refused + c.sheds) as f64 / secs
                ));
            }
        }
        let mut tails: Vec<&MonitorStage> = self.stages.iter().collect();
        tails.sort_by(|a, b| b.p99_ns.cmp(&a.p99_ns).then(a.stage.cmp(&b.stage)));
        if !tails.is_empty() {
            line.push_str(" | p99/p999 us:");
            for s in tails.iter().take(3) {
                line.push_str(&format!(
                    " {} {:.1}/{:.1}",
                    s.stage,
                    s.p99_ns as f64 / 1e3,
                    s.p999_ns as f64 / 1e3
                ));
            }
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_counters_delta_keeps_live_gauge() {
        let a = ConnCounters {
            opened: 10,
            established: 8,
            live: 100,
            ..Default::default()
        };
        let b = ConnCounters {
            opened: 25,
            established: 20,
            live: 97,
            ..Default::default()
        };
        let d = b.since(a);
        assert_eq!(d.opened, 15);
        assert_eq!(d.established, 12);
        assert_eq!(d.live, 97, "live is a gauge, not a delta");
    }

    #[test]
    fn quiet_snapshot_omits_empty_keys() {
        let s = MonitorSnapshot {
            t_secs: 0.01,
            interval_secs: 0.01,
            goodput_gbps: 1.5,
            drops: DropStats::new(),
            stages: vec![],
            conn: None,
        };
        let j = s.to_jsonl();
        assert!(!j.contains("\"drops\""), "no drops key when none: {j}");
        assert!(!j.contains("\"stages\""), "no stages key when empty: {j}");
        assert!(!j.contains("\"conn\""), "no conn key when None: {j}");
        assert!(j.contains("\"goodput_gbps\""));
    }

    #[test]
    fn busy_snapshot_carries_all_sections() {
        let mut drops = DropStats::new();
        drops.accept_queue = 3;
        let s = MonitorSnapshot {
            t_secs: 0.02,
            interval_secs: 0.01,
            goodput_gbps: 12.0,
            drops,
            stages: vec![MonitorStage {
                stage: "tcp_rx".to_string(),
                samples: 42,
                p50_ns: 1000,
                p99_ns: 5000,
                p999_ns: 9000,
            }],
            conn: Some(ConnCounters {
                established: 7,
                live: 3,
                ..Default::default()
            }),
        };
        let j = s.to_jsonl();
        assert!(j.contains("\"accept_queue\":3"), "{j}");
        assert!(j.contains("\"stage\":\"tcp_rx\""), "{j}");
        assert!(j.contains("\"live\":3"), "{j}");
        let line = s.human_line();
        assert!(line.contains("Gbps"), "{line}");
        assert!(line.contains("tcp_rx"), "{line}");
    }
}
