//! CSV export for experiment series — feed the figure data straight into
//! a plotting pipeline.

use crate::report::Report;
use crate::schema::{At, Section, View};

/// Escape a CSV field (quotes fields containing commas/quotes/newlines).
fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Render a series of reports as CSV: one row per report, one column per
/// CSV entry of the report schema. A field that can be off (tracing, churn,
/// overload, monitor) has columns only when some report of the series has
/// it; a list (the traced stages) gets one column group per row key found
/// across the series, in first-appearance order.
pub fn reports_to_csv(reports: &[Report]) -> String {
    let off = Report::default();
    let mut header = Vec::new();
    let mut rows = vec![Vec::new(); reports.len()];
    for f in Report::FIELDS.iter().filter(|f| f.csv.is_some()) {
        if !f.on(&off) && !reports.iter().any(|r| f.on(r)) {
            continue;
        }
        let mut keys: Vec<&str> = Vec::new();
        if let At::Stored(_, get, _) = f.at {
            for key in reports.iter().flat_map(|r| get(r).keys()) {
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        f.cells(&off, View::Csv, "", &keys, &mut header);
        for (r, row) in reports.iter().zip(&mut rows) {
            f.cells(r, View::Csv, "", &keys, row);
        }
    }
    let mut out = String::new();
    let mut line = |cells: Vec<String>| {
        let cells: Vec<String> = cells.iter().map(|c| escape(c)).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    };
    line(header.into_iter().map(|(name, _)| name).collect());
    for row in rows {
        line(row.into_iter().map(|(_, text)| text).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::Category;

    #[test]
    fn header_and_rows_align() {
        let mut r = Report {
            label: "unit".into(),
            window_secs: 0.03,
            total_gbps: 41.0,
            ..Report::default()
        };
        r.receiver.breakdown.charge(Category::DataCopy, 10);
        let csv = reports_to_csv(&[r]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        let header_cols = lines[0].split(',').count();
        let row_cols = lines[1].split(',').count();
        assert_eq!(header_cols, row_cols, "header/row column mismatch");
        assert!(lines[1].starts_with("unit,"));
    }

    #[test]
    fn labels_with_commas_are_quoted() {
        let r = Report {
            label: "a,b".into(),
            ..Report::default()
        };
        let csv = reports_to_csv(&[r]);
        assert!(csv.contains("\"a,b\""));
        // Column count still aligns despite the comma.
        let lines: Vec<&str> = csv.lines().collect();
        // Quoted commas must not split: count via a tiny state machine.
        let mut cols = 1;
        let mut quoted = false;
        for ch in lines[1].chars() {
            match ch {
                '"' => quoted = !quoted,
                ',' if !quoted => cols += 1,
                _ => {}
            }
        }
        assert_eq!(cols, lines[0].split(',').count());
    }

    #[test]
    fn empty_series_is_header_only() {
        let csv = reports_to_csv(&[]);
        assert_eq!(csv.lines().count(), 1);
    }

    #[test]
    fn churn_series_appends_conn_columns() {
        use crate::report::ConnSummary;
        let plain = Report {
            label: "plain".into(),
            ..Report::default()
        };
        let legacy_header = reports_to_csv(std::slice::from_ref(&plain))
            .lines()
            .next()
            .unwrap()
            .to_string();
        let churn = Report {
            label: "churn".into(),
            conn: Some(ConnSummary {
                opened: 100,
                established: 99,
                conn_rate_cps: 1000.0,
                ..ConnSummary::default()
            }),
            ..Report::default()
        };
        let csv = reports_to_csv(&[churn, plain]);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with(&legacy_header));
        assert!(lines[0].contains(",conn_opened,"));
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "header/churn-row column mismatch"
        );
        assert_eq!(
            lines[0].split(',').count(),
            lines[2].split(',').count(),
            "header/plain-row column mismatch"
        );
        assert!(
            lines[2].ends_with(",,,,,,,,,,,"),
            "non-churn row gets empty cells"
        );
    }

    #[test]
    fn overload_series_appends_capacity_columns() {
        use crate::report::{CapacitySummary, ConnSummary};
        let churn_only = Report {
            label: "plain-churn".into(),
            conn: Some(ConnSummary::default()),
            ..Report::default()
        };
        let churn_header = reports_to_csv(std::slice::from_ref(&churn_only))
            .lines()
            .next()
            .unwrap()
            .to_string();
        let overload = Report {
            label: "overload".into(),
            conn: Some(ConnSummary::default()),
            capacity: Some(CapacitySummary {
                policy: "shed".into(),
                accept_high_water: 64,
                sheds: 42,
                refused: 42,
                ..CapacitySummary::default()
            }),
            ..Report::default()
        };
        let csv = reports_to_csv(&[overload, churn_only]);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(
            lines[0].starts_with(&churn_header),
            "churn columns keep their positions"
        );
        assert!(lines[0].contains(",policy,accept_hw,"));
        assert!(lines[1].contains(",shed,"));
        for row in &lines[1..] {
            assert_eq!(
                lines[0].split(',').count(),
                row.split(',').count(),
                "header/row column mismatch"
            );
        }
        assert!(
            lines[2].ends_with(",,,,,,,,,,,,,"),
            "non-overload row gets empty capacity cells"
        );
    }

    #[test]
    fn monitored_series_appends_monitor_columns() {
        use crate::report::MonitorSummary;
        let plain = Report {
            label: "plain".into(),
            ..Report::default()
        };
        let legacy_header = reports_to_csv(std::slice::from_ref(&plain))
            .lines()
            .next()
            .unwrap()
            .to_string();
        let monitored = Report {
            label: "monitored".into(),
            monitor: Some(MonitorSummary {
                snapshots: 10,
                interval_secs: 0.01,
                sketch_alpha: 0.01,
                goodput_avg_gbps: 40.0,
                goodput_min_gbps: 35.0,
                goodput_max_gbps: 45.0,
                stages: Vec::new(),
            }),
            ..Report::default()
        };
        let csv = reports_to_csv(&[monitored, plain.clone()]);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(
            lines[0].starts_with(&legacy_header),
            "legacy columns keep their positions"
        );
        assert!(lines[0].ends_with(
            ",mon_snapshots,mon_interval_secs,mon_goodput_avg_gbps,\
             mon_goodput_min_gbps,mon_goodput_max_gbps"
        ));
        for row in &lines[1..] {
            assert_eq!(
                lines[0].split(',').count(),
                row.split(',').count(),
                "header/row column mismatch"
            );
        }
        assert!(
            lines[2].ends_with(",,,,,"),
            "unmonitored row gets empty monitor cells"
        );
        // Unmonitored-only series keeps the exact legacy header.
        assert_eq!(
            reports_to_csv(std::slice::from_ref(&plain))
                .lines()
                .next()
                .unwrap(),
            legacy_header
        );
    }

    #[test]
    fn stage_labels_with_commas_are_quoted_in_header() {
        use crate::report::StageLatency;
        let traced = Report {
            label: "on".into(),
            stage_latency: vec![StageLatency {
                stage: "weird,stage".into(),
                samples: 1,
                mean_ns: 10.0,
                p50_ns: 10,
                p90_ns: 10,
                p99_ns: 10,
                p999_ns: 10,
                max_ns: 10,
            }],
            ..Report::default()
        };
        let csv = reports_to_csv(&[traced]);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].contains("\"weird,stage_p50_ns\""));
        assert!(lines[0].contains("\"weird,stage_p99_ns\""));
        // Quote-aware column count still aligns between header and row.
        let count = |line: &str| {
            let (mut cols, mut quoted) = (1, false);
            for ch in line.chars() {
                match ch {
                    '"' => quoted = !quoted,
                    ',' if !quoted => cols += 1,
                    _ => {}
                }
            }
            cols
        };
        assert_eq!(count(lines[0]), count(lines[1]));
    }

    #[test]
    fn traced_series_appends_stage_columns() {
        use crate::report::StageLatency;
        let untraced = Report {
            label: "off".into(),
            ..Report::default()
        };
        let legacy_header = reports_to_csv(std::slice::from_ref(&untraced))
            .lines()
            .next()
            .unwrap()
            .to_string();

        let traced = Report {
            label: "on".into(),
            stage_latency: vec![StageLatency {
                stage: "wire".into(),
                samples: 10,
                mean_ns: 100.0,
                p50_ns: 90,
                p90_ns: 150,
                p99_ns: 200,
                p999_ns: 250,
                max_ns: 300,
            }],
            trace_overflow: 1,
            ..Report::default()
        };
        let csv = reports_to_csv(&[traced, untraced]);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(
            lines[0].starts_with(&legacy_header),
            "legacy columns keep their positions"
        );
        assert!(lines[0].ends_with(",wire_p50_ns,wire_p99_ns,trace_overflow"));
        assert!(lines[1].ends_with(",90,200,1"));
        assert!(
            lines[2].ends_with(",,,0"),
            "untraced row gets empty stage cells"
        );
        // Untraced-only series keeps the exact legacy header.
        assert_eq!(
            reports_to_csv(&[Report::default()]).lines().next().unwrap(),
            legacy_header
        );
    }
}
