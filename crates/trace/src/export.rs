//! Timeline exporters.
//!
//! * [`to_jsonl`] — one stamp per line, sorted by (time, skb, stage); the
//!   simulation is deterministic under a fixed seed so this file is
//!   byte-identical run to run and diffs cleanly.
//! * [`to_chrome`] — Chrome `trace_event` JSON (the "JSON Array Format"
//!   with a `traceEvents` wrapper). Open it in <https://ui.perfetto.dev>
//!   or `chrome://tracing`: one process per host, one track per core,
//!   stage residencies drawn as complete (`ph:"X"`) spans.

use crate::collector::TraceCollector;
use std::fmt::Write as _;

/// Render all records as JSON Lines, one stamp per line.
pub fn to_jsonl(c: &TraceCollector) -> String {
    let mut out = String::new();
    for (host, core, r) in c.sorted_records() {
        let _ = writeln!(
            out,
            "{{\"t_ns\":{},\"skb\":{},\"flow\":{},\"stage\":\"{}\",\"host\":{},\"core\":{}}}",
            r.t.as_nanos(),
            r.skb,
            r.flow,
            r.stage.label(),
            host,
            core
        );
    }
    out
}

/// Nanoseconds rendered as microseconds with fixed three decimal places —
/// Chrome's `ts`/`dur` unit, kept exact and byte-stable.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Render timelines as Chrome `trace_event` JSON.
///
/// The exported records are grouped per skb in skb-id order, each timeline
/// in (time, stage) order. Each residency (stamp *i* to stamp *i+1* of a
/// timeline) becomes one complete event named after stage *i*, on the
/// (host, core) track where stamp *i* was taken. The final stamp of each timeline becomes an
/// instant event so the end of life is visible.
pub fn to_chrome(c: &TraceCollector) -> String {
    let mut events: Vec<String> = Vec::new();
    let mut tracks: Vec<(usize, usize)> = Vec::new();
    let mut records = c.sorted_records();
    records.sort_by_key(|(_, _, r)| r.skb); // stable: (time, stage) per skb
    for tl in records.chunk_by(|a, b| a.2.skb == b.2.skb) {
        let skb = tl[0].2.skb;
        for (host, core, _) in tl {
            if !tracks.contains(&(*host, *core)) {
                tracks.push((*host, *core));
            }
        }
        for pair in tl.windows(2) {
            let (host, core, a) = pair[0];
            let (_, _, b) = pair[1];
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"skb\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"skb\":{},\"flow\":{}}}}}",
                a.stage.label(),
                us(a.t.as_nanos()),
                us(b.t.since(a.t).as_nanos()),
                host,
                core,
                skb,
                a.flow
            ));
        }
        if let Some((host, core, last)) = tl.last() {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"skb\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"skb\":{},\"flow\":{}}}}}",
                last.stage.label(),
                us(last.t.as_nanos()),
                host,
                core,
                skb,
                last.flow
            ));
        }
    }
    tracks.sort_unstable();
    let mut meta: Vec<String> = Vec::new();
    let mut hosts_seen: Vec<usize> = Vec::new();
    for (host, core) in &tracks {
        if !hosts_seen.contains(host) {
            hosts_seen.push(*host);
            meta.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{host},\"args\":{{\"name\":\"host{host}\"}}}}"
            ));
        }
        meta.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{host},\"tid\":{core},\"args\":{{\"name\":\"core{core}\"}}}}"
        ));
    }
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for e in meta.into_iter().chain(events) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&e);
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StageId, TraceConfig};
    use hns_sim::time::SimTime;

    fn sample_collector() -> TraceCollector {
        let mut c = TraceCollector::new(TraceConfig::enabled(), 2, 2);
        let a = c.alloc(1);
        let b = c.alloc(1);
        c.stamp(a, 1, StageId::TcpTx, 0, 0, SimTime::from_nanos(1_500));
        c.stamp(a, 1, StageId::Wire, 0, 0, SimTime::from_nanos(2_750));
        c.stamp(a, 1, StageId::RecvCopy, 1, 1, SimTime::from_nanos(9_001));
        c.stamp(b, 1, StageId::TcpTx, 0, 1, SimTime::from_nanos(1_600));
        c
    }

    #[test]
    fn jsonl_one_line_per_event_sorted_by_time() {
        let c = sample_collector();
        let s = to_jsonl(&c);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"t_ns\":1500,\"skb\":0,\"flow\":1,\"stage\":\"tcp_tx\",\"host\":0,\"core\":0}"
        );
        assert!(lines[1].contains("\"skb\":1"));
        assert!(lines[3].contains("\"recv_copy\""));
        // Deterministic: same collector renders byte-identically.
        assert_eq!(s, to_jsonl(&c));
    }

    #[test]
    fn chrome_export_parses_and_has_track_metadata() {
        let c = sample_collector();
        let s = to_chrome(&c);
        let v = hns_metrics::json::Value::parse(&s).expect("valid JSON");
        let events = match v.get("traceEvents").unwrap() {
            hns_metrics::json::Value::Arr(a) => a,
            other => panic!("traceEvents not an array: {other:?}"),
        };
        // 3 tracks -> 3 thread_name + 2 process_name, plus 2 spans (skb 0)
        // and 2 instants (one per timeline).
        assert_eq!(events.len(), 9);
        let names: Vec<String> = events
            .iter()
            .filter_map(|e| match e.get("name") {
                Ok(hns_metrics::json::Value::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(names.iter().filter(|n| *n == "thread_name").count(), 3);
        assert_eq!(names.iter().filter(|n| *n == "process_name").count(), 2);
        assert!(names.iter().any(|n| n == "tcp_tx"));
    }

    #[test]
    fn chrome_spans_use_microsecond_timestamps() {
        let c = sample_collector();
        let s = to_chrome(&c);
        // 1500ns span start -> ts 1.500µs; 1250ns residency -> dur 1.250µs.
        assert!(s.contains("\"ts\":1.500"), "missing µs ts in {s}");
        assert!(s.contains("\"dur\":1.250"), "missing µs dur in {s}");
    }

    #[test]
    fn empty_collector_exports_empty_but_valid_documents() {
        let c = TraceCollector::disabled();
        assert_eq!(to_jsonl(&c), "");
        let s = to_chrome(&c);
        assert!(hns_metrics::json::Value::parse(&s).is_ok());
    }
}
