//! Integration tests for the skb lifecycle tracer (`hns-trace`).
//!
//! The contract under test: tracing is an *observer*. Stamps charge no
//! simulated cycles, so enabling the tracer must not move a single
//! number in the report — and the exports must be deterministic enough
//! to diff across runs.

use hostnet::building_blocks::stack::DatapathKind;
use hostnet::building_blocks::trace::{export, StageId, TraceConfig};
use hostnet::building_blocks::workload;
use hostnet::{Experiment, ScenarioKind};

fn untraced() -> Experiment {
    Experiment::new(ScenarioKind::Single).quick()
}

fn traced(sample_every: u32) -> Experiment {
    with_trace(untraced(), sample_every)
}

fn with_trace(exp: Experiment, sample_every: u32) -> Experiment {
    exp.configure(|c| {
        c.trace = TraceConfig {
            sample_every,
            ..TraceConfig::enabled()
        }
    })
}

/// Satellite: record the tracing overhead honestly. The tracer stamps
/// every skb (sample-every-1) and the throughput delta against the
/// untraced run must stay under the stated bound — which is zero, not
/// "small": stamps never charge cycles, so the simulated timeline is
/// bit-identical by construction. Wall-clock overhead (ring pushes,
/// hashing) exists but is not simulated time.
#[test]
fn full_tracing_has_zero_simulated_overhead() {
    const BOUND_PCT: f64 = 0.1; // stated bound; measured delta must be 0
    let off = untraced().run();
    let on = traced(1).run();

    let delta_pct = (on.total_gbps - off.total_gbps).abs() / off.total_gbps * 100.0;
    println!(
        "tracing overhead: {:.4}% throughput delta at sample-every-1 \
         ({:.2} → {:.2} Gbps, bound {BOUND_PCT}%)",
        delta_pct, off.total_gbps, on.total_gbps
    );
    assert!(
        delta_pct < BOUND_PCT,
        "tracing perturbed throughput by {delta_pct}%"
    );
    assert_eq!(
        off.total_gbps, on.total_gbps,
        "stamps must not charge simulated cycles"
    );
}

/// With tracing off the report must be byte-identical to one from a
/// traced run once the trace-only fields are cleared — i.e. tracing
/// adds keys, it never perturbs existing ones. Each case names a stage
/// only its path stamps, so the comparison covers that hook: the TOE
/// completion, the bypass poll and a traced connection's lifecycle.
#[test]
fn traced_report_differs_only_in_trace_fields() {
    let mut churn = workload::churn_short_rpc(50_000.0, 4096);
    churn.trace_sample = 4;
    let datapath = |kind| untraced().configure(move |c| c.datapath = kind);
    let cases = [
        ("in-kernel", untraced(), StageId::Gro),
        (
            "toe",
            datapath(DatapathKind::ToeOffload),
            StageId::ToeComplete,
        ),
        (
            "bypass",
            datapath(DatapathKind::UserBypass),
            StageId::BypassPoll,
        ),
        (
            "churn",
            Experiment::new(ScenarioKind::Churn { churn }).quick(),
            StageId::SynTx,
        ),
    ];
    for (name, exp, stage) in cases {
        let off = exp.clone().run();
        let mut on = with_trace(exp, 1).run();

        assert!(
            on.stage_latency.iter().any(|s| s.stage == stage.label()),
            "{name}: no {} residency in {:?}",
            stage.label(),
            on.stage_latency
        );
        on.stage_latency.clear();
        on.trace_overflow = 0;
        assert_eq!(
            off.to_json(),
            on.to_json(),
            "{name}: tracing must not drift any non-trace report field"
        );
    }
}

/// JSONL export: deterministic under a fixed seed (replay/diff-able)
/// and honours sampling.
#[test]
fn jsonl_export_is_deterministic_and_sampled() {
    let (_, t1) = traced(4).try_run_traced().unwrap();
    let (_, t2) = traced(4).try_run_traced().unwrap();
    let a = export::to_jsonl(&t1);
    let b = export::to_jsonl(&t2);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must give a byte-identical JSONL trace");

    let (_, full) = traced(1).try_run_traced().unwrap();
    assert!(
        full.events() > t1.events() * 3,
        "sample-every-4 should record ~1/4 of the events ({} vs {})",
        t1.events(),
        full.events()
    );
}

/// Chrome export: parses as JSON, has per-core thread metadata for both
/// hosts, and carries stage spans (the acceptance criterion behind
/// "loads in Perfetto with one track per core").
#[test]
fn chrome_export_has_per_core_tracks_and_spans() {
    use hostnet::building_blocks::metrics::json::Value;

    let (_, trace) = traced(8).try_run_traced().unwrap();
    let doc = Value::parse(&export::to_chrome(&trace)).expect("chrome export must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");

    let mut process_names = Vec::new();
    let mut tracks = std::collections::BTreeSet::new();
    let mut spans = 0u64;
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).unwrap();
        match ph {
            "M" if ev.get("name").and_then(|v| v.as_str()) == Ok("process_name") => {
                process_names.push(
                    ev.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(|v| v.as_str())
                        .unwrap()
                        .to_string(),
                );
            }
            "X" => {
                spans += 1;
                let pid = ev.get("pid").and_then(|v| v.as_u64()).unwrap();
                let tid = ev.get("tid").and_then(|v| v.as_u64()).unwrap();
                tracks.insert((pid, tid));
                assert!(ev.get("dur").is_ok(), "complete spans carry a duration");
            }
            _ => {}
        }
    }
    assert_eq!(process_names, vec!["host0", "host1"]);
    assert!(spans > 0, "single flow must produce stage spans");
    assert!(
        tracks.iter().any(|&(pid, _)| pid == 0) && tracks.iter().any(|&(pid, _)| pid == 1),
        "spans must land on both the sender and receiver tracks: {tracks:?}"
    );
}

/// Per-stage residency percentiles surface in the report JSON and the
/// CSV exporter, including the synthetic end-to-end row.
#[test]
fn stage_percentiles_reach_json_and_csv() {
    use hostnet::building_blocks::metrics::json::Value;

    let report = traced(1).run();
    let doc = Value::parse(&report.to_json()).unwrap();
    let stages = doc
        .get("stage_latency")
        .and_then(|v| v.as_arr())
        .expect("traced report exports stage_latency");
    let names: Vec<_> = stages
        .iter()
        .map(|s| s.get("stage").and_then(|v| v.as_str()).unwrap().to_string())
        .collect();
    for want in ["copy_in", "wire", "sock_queue", "end_to_end"] {
        assert!(names.iter().any(|n| n == want), "missing stage {want}");
    }
    for s in stages {
        for key in ["samples", "p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns"] {
            assert!(s.get(key).is_ok(), "stage row missing {key}");
        }
    }

    let csv = hostnet::building_blocks::metrics::reports_to_csv(std::slice::from_ref(&report));
    let header = csv.lines().next().unwrap();
    assert!(header.contains("sock_queue_p50_ns"));
    assert!(header.contains("end_to_end_p99_ns"));
    assert!(header.contains("trace_overflow"));
}

/// A slow-start run: a 200 µs warmup, then a 3 ms window, with rings
/// large enough to keep every stamp for the exact comparison.
fn slow_start() -> Experiment {
    use hostnet::building_blocks::sim::Duration;
    let mut exp = Experiment::new(ScenarioKind::Single).configure(|c| {
        c.trace = TraceConfig {
            ring_capacity: 1 << 20,
            ..TraceConfig::enabled()
        }
    });
    exp.warmup = Duration::from_micros(200);
    exp.measure = Duration::from_millis(3);
    exp
}

/// Traced stage latency covers the measurement window only, like every
/// other report field: the report's rows equal the ones computed from the
/// exported records when a residency counts only if its closing stamp
/// lands in the window, and end to end only if the timeline's terminal
/// `recv_copy` does.
#[test]
fn stage_latency_covers_the_window_only() {
    use hostnet::building_blocks::metrics::StageLatency;
    use hostnet::building_blocks::sim::{Histogram, SimTime};
    use hostnet::building_blocks::trace::{StageId, TraceRecord, N_STAGES};
    use std::collections::BTreeMap;

    let exp = slow_start();
    let (report, trace) = exp.try_run_traced().unwrap();
    assert_eq!(report.trace_overflow, 0, "the rings must hold every stamp");
    let start = SimTime::ZERO + exp.warmup;

    let mut timelines: BTreeMap<u64, Vec<TraceRecord>> = BTreeMap::new();
    for (_, _, r) in trace.sorted_records() {
        timelines.entry(r.skb).or_default().push(r);
    }
    let mut stages: Vec<Histogram> = (0..N_STAGES).map(|_| Histogram::new()).collect();
    let mut end_to_end = Histogram::new();
    let mut warmup_pairs = 0;
    for tl in timelines.values() {
        for pair in tl.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if b.t < start {
                warmup_pairs += 1;
            } else {
                stages[a.stage as usize].record(b.t.since(a.t).as_nanos());
            }
        }
        let (first, last) = (tl[0], tl[tl.len() - 1]);
        if last.stage == StageId::RecvCopy && last.t >= start {
            end_to_end.record(last.t.since(first.t).as_nanos());
        }
    }
    assert!(
        warmup_pairs > 1_000,
        "the warmup must hold residencies the window leaves out ({warmup_pairs})"
    );

    let row = |stage: &str, h: &Histogram| {
        let p = h.percentiles();
        StageLatency {
            stage: stage.to_string(),
            samples: h.count(),
            mean_ns: h.mean(),
            p50_ns: p.p50,
            p90_ns: p.p90,
            p99_ns: p.p99,
            p999_ns: p.p999,
            max_ns: p.max,
        }
    };
    let mut want: Vec<StageLatency> = StageId::ALL
        .iter()
        .zip(&stages)
        .filter(|(_, h)| h.count() > 0)
        .map(|(s, h)| row(s.label(), h))
        .collect();
    want.push(row("end_to_end", &end_to_end));
    assert_eq!(report.stage_latency, want);
}

/// The monitor is fed the residencies the report folds, so the two agree
/// on every stage's sample count.
#[test]
fn monitor_and_stage_latency_fold_the_same_residencies() {
    use hostnet::building_blocks::monitor::MonitorConfig;
    use hostnet::building_blocks::sim::Duration;

    let report = slow_start()
        .configure(|c| {
            c.monitor = Some(MonitorConfig {
                interval: Duration::from_millis(1),
            })
        })
        .run();
    let monitor: Vec<(String, u64)> = report
        .monitor
        .expect("monitored report")
        .stages
        .into_iter()
        .map(|s| (s.stage, s.samples))
        .collect();
    let traced: Vec<(String, u64)> = report
        .stage_latency
        .into_iter()
        .filter(|s| s.stage != "end_to_end")
        .map(|s| (s.stage, s.samples))
        .collect();
    assert!(!traced.is_empty());
    assert_eq!(monitor, traced);
}

/// FNV-1a 64-bit hash of an export's bytes.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The per-skb exports' bytes, pinned by digest: `hostnet run single
/// --trace-sample-every 8`, `hostnet run incast --flows 4 --trace` and a
/// filtered incast (`--trace-flow 2 --trace-sample-every 3`), at quick
/// windows, with rings that hold every stamp. Each line holds a run, an
/// export format, its stamp count and its digest. A change to how the
/// sender hands frames to the NIC must keep every trace id, sampling
/// decision and stamp where it was.
/// Re-bless with `HNS_BLESS=1 cargo test --test trace_lifecycle
/// golden_trace_export_digests`.
#[test]
fn golden_trace_export_digests() {
    let incast = || Experiment::new(ScenarioKind::Incast { flows: 4 }).quick();
    let runs = [
        ("single/every-8", traced(8)),
        ("incast4/every-1", with_trace(incast(), 1)),
        (
            "incast4/flow-2/every-3",
            with_trace(incast(), 3).configure(|c| c.trace.flow = Some(2)),
        ),
    ];
    let mut body = String::new();
    for (name, exp) in runs {
        let exp = exp.configure(|c| c.trace.ring_capacity = 1 << 20);
        let (report, trace) = exp.try_run_traced().unwrap();
        assert_eq!(
            report.trace_overflow, 0,
            "{name}: the rings must hold every stamp"
        );
        assert!(trace.events() > 0, "{name}: no stamps");
        for (format, bytes) in [
            ("jsonl", export::to_jsonl(&trace)),
            ("chrome", export::to_chrome(&trace)),
        ] {
            body += &format!(
                "{name}\t{format}\t{}\t{:016x}\n",
                trace.events(),
                digest(bytes.as_bytes())
            );
        }
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_digests.txt");
    if std::env::var_os("HNS_BLESS").is_some() {
        std::fs::write(&path, &body).expect("bless: cannot write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {}: {e}\n(generate it with `HNS_BLESS=1 cargo test --test \
             trace_lifecycle golden_trace_export_digests`)",
            path.display()
        )
    });
    assert_eq!(want, body, "a trace export moved (re-bless if intended)");
}
