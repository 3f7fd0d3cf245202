//! Property tests for the report schema's absent-when-off rule.
//!
//! A series mixes reports that draw every combination of the optional
//! parts {trace, conn, capacity, monitor}, plus nonzero optional drop
//! classes. Whatever the mix, every CSV row must have the header's column
//! count, JSON must survive a round trip byte for byte, and each section's
//! keys must appear exactly when that section is present.

use hns_metrics::{
    reports_to_csv, CapacitySummary, ConnSummary, LatencyStats, MonitorStage, MonitorSummary,
    Report, StageLatency,
};
use proptest::prelude::*;

/// SplitMix64: every report field below is one draw from its seed.
struct Draw(u64);

impl Draw {
    fn u(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn small(&mut self) -> u64 {
        self.u() % 1000
    }
    fn f(&mut self) -> f64 {
        (self.u() % 1_000_000) as f64 / 7.0
    }
    fn lat(&mut self) -> LatencyStats {
        LatencyStats {
            avg_us: self.f(),
            p99_us: self.f(),
            samples: self.small(),
        }
    }
    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[(self.u() % from.len() as u64) as usize]
    }
}

/// Stage labels, including ones a CSV writer must quote.
const STAGES: [&str; 4] = ["wire", "tcp_rx", "sock,queue", "odd\"stage"];

/// A report whose optional parts are the bits of `mask`: 1 trace, 2 conn,
/// 4 capacity, 8 monitor. Every other value is drawn from `seed`.
fn report(mask: u8, seed: u64) -> Report {
    let mut d = Draw(seed);
    let mut r = Report {
        label: d.pick(&["plain", "with,comma", "with\"quote"]).to_string(),
        window_secs: d.f(),
        total_gbps: d.f(),
        napi_to_copy: d.lat(),
        wire_drops: d.small(),
        per_flow_bytes: vec![(d.small(), d.small())],
        gbps_timeline: vec![(d.f(), d.f())],
        ..Report::default()
    };
    r.receiver.cache.miss_bytes = d.small();
    r.sender.cores_used = d.f();
    // Optional drop classes: each nonzero about half the time.
    r.drops.wire = d.small();
    r.drops.switch_buffer = d.small() % 2;
    r.drops.handshake_abort = d.small() % 2;
    r.drops.accept_queue = d.small() % 2;
    r.drops.conn_memory = d.small() % 2;
    if mask & 1 != 0 {
        let n = 1 + d.small() as usize % STAGES.len();
        r.stage_latency = STAGES[..n]
            .iter()
            .map(|s| StageLatency {
                stage: s.to_string(),
                samples: d.small(),
                mean_ns: d.f(),
                p50_ns: d.small(),
                p99_ns: d.small(),
                ..StageLatency::default()
            })
            .rev()
            .collect();
        r.trace_overflow = d.small() % 3;
    }
    if mask & 2 != 0 {
        r.conn = Some(ConnSummary {
            opened: d.small(),
            conn_rate_cps: d.f(),
            handshake: d.lat(),
            epoll_wakeups: d.small(),
            epoll_events: d.small(),
            ..ConnSummary::default()
        });
    }
    if mask & 4 != 0 {
        r.capacity = Some(CapacitySummary {
            policy: d.pick(&["queue", "shed,odd"]).to_string(),
            sheds: d.small(),
            rpc: d.lat(),
            ..CapacitySummary::default()
        });
    }
    if mask & 8 != 0 {
        r.monitor = Some(MonitorSummary {
            snapshots: d.small(),
            interval_secs: d.f(),
            goodput_avg_gbps: d.f(),
            stages: vec![MonitorStage {
                stage: d.pick(&STAGES).to_string(),
                p99_ns: d.small(),
                ..MonitorStage::default()
            }],
            ..MonitorSummary::default()
        });
    }
    r
}

/// Fields of one CSV line, with quoted commas kept inside their field.
fn columns(line: &str) -> Vec<String> {
    let (mut cols, mut quoted) = (vec![String::new()], false);
    for ch in line.chars() {
        match ch {
            '"' => quoted = !quoted,
            ',' if !quoted => cols.push(String::new()),
            _ => cols.last_mut().unwrap().push(ch),
        }
    }
    cols
}

/// Whether `json` has the top-level object key `key`.
fn has_key(json: &str, key: &str) -> bool {
    json.contains(&format!("\n  \"{key}\": "))
}

fn check_series(series: &[Report]) {
    let csv = reports_to_csv(series);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), series.len() + 1);
    let names = columns(lines[0]);
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "column names are distinct");
    for (i, row) in lines[1..].iter().enumerate() {
        assert_eq!(
            columns(row).len(),
            names.len(),
            "row {i} vs header:\n{}\n{row}",
            lines[0]
        );
    }
    let header = lines[0];
    let any = |f: fn(&Report) -> bool| series.iter().any(f);
    assert_eq!(
        header.contains(",trace_overflow"),
        any(|r| !r.stage_latency.is_empty())
    );
    assert_eq!(header.contains(",conn_opened,"), any(|r| r.conn.is_some()));
    assert_eq!(
        header.contains(",accept_hw,"),
        any(|r| r.capacity.is_some())
    );
    assert_eq!(
        header.contains(",mon_snapshots,"),
        any(|r| r.monitor.is_some())
    );

    for r in series {
        let json = r.to_json();
        let back = Report::from_json(&json).expect("parse");
        assert_eq!(back.to_json(), json, "JSON round trip");
        let traced = !r.stage_latency.is_empty();
        assert_eq!(has_key(&json, "stage_latency"), traced);
        assert_eq!(has_key(&json, "trace_overflow"), traced);
        assert_eq!(has_key(&json, "conn"), r.conn.is_some());
        assert_eq!(has_key(&json, "capacity"), r.capacity.is_some());
        assert_eq!(has_key(&json, "monitor"), r.monitor.is_some());
        for (class, n) in [
            ("switch_buffer", r.drops.switch_buffer),
            ("handshake_abort", r.drops.handshake_abort),
            ("accept_queue", r.drops.accept_queue),
            ("conn_memory", r.drops.conn_memory),
        ] {
            assert_eq!(json.contains(&format!("\"{class}\": ")), n > 0, "{class}");
        }
        assert!(json.contains("\"socket_queue\": "), "required classes stay");
    }
}

#[test]
fn every_combination_in_one_series() {
    let series: Vec<Report> = (0..16u8).map(|mask| report(mask, mask as u64)).collect();
    check_series(&series);
    check_series(&series[..0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random series of random combinations keep the header aligned, the
    /// JSON stable and every section's keys tied to its presence.
    #[test]
    fn mixed_series_keep_the_schema(parts in proptest::collection::vec((0u8..16, any::<u64>()), 0..8)) {
        let series: Vec<Report> = parts.iter().map(|&(mask, seed)| report(mask, seed)).collect();
        check_series(&series);
    }
}
