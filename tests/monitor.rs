//! Streaming-telemetry (`hns-monitor`) integration contracts.
//!
//! Three promises pin the subsystem:
//!
//! 1. **Off means invisible.** With `SimConfig::monitor = None` (the
//!    default) every report is byte-identical to one from a build that
//!    never heard of the monitor — and turning it *on* must not perturb
//!    the simulation either, only add the `monitor` key.
//! 2. **Deterministic snapshots.** Two identically-seeded monitored runs
//!    emit identical snapshot JSONL, end to end through the CLI.
//! 3. **Honest sketches.** Per-stage quantiles from the DDSketches match
//!    exact quantiles computed offline from the trace timelines on the
//!    same seeded run, within the sketch's relative-error bound.

use hostnet::building_blocks::conn::AdmissionPolicy;
use hostnet::building_blocks::core_figures as figures;
use hostnet::building_blocks::monitor::MonitorConfig;
use hostnet::building_blocks::sim::Duration;
use hostnet::building_blocks::stack::SimConfig;
use hostnet::building_blocks::trace::{StageId, TraceConfig};
use hostnet::building_blocks::workload;
use hostnet::{Experiment, ScenarioKind};

/// A short traced capacity run; `monitored` only toggles the monitor.
fn capacity_experiment(monitored: bool) -> Experiment {
    let mut churn = workload::churn_capacity(60, AdmissionPolicy::Queue);
    churn.trace_sample = 4;
    traced(ScenarioKind::Churn { churn }, monitored)
}

/// A short run of `scenario` with every 4th skb traced; `monitored` only
/// toggles a 2 ms monitor.
fn traced(scenario: ScenarioKind, monitored: bool) -> Experiment {
    Experiment::new(scenario).quick().configure(move |c| {
        c.trace = TraceConfig {
            enabled: true,
            sample_every: 4,
            ..TraceConfig::DISABLED
        };
        if monitored {
            c.monitor = Some(MonitorConfig {
                interval: Duration::from_millis(2),
            });
        }
    })
}

#[test]
fn default_config_and_golden_sweeps_are_unmonitored() {
    assert!(
        SimConfig::default().monitor.is_none(),
        "monitoring must be opt-in"
    );
    // Every registered figure — the golden sweeps, whose outputs are
    // byte-compared against checked-in files, among them — must run
    // unmonitored.
    for (name, points) in figures::FIGURES {
        for e in points() {
            assert!(
                e.cfg.monitor.is_none(),
                "{name} point `{}` must run unmonitored",
                e.report_label()
            );
        }
    }
}

#[test]
fn monitor_only_adds_the_monitor_key() {
    // A churn run and a long-flow run: every scenario can be monitored.
    for (plain, monitored) in [
        (capacity_experiment(false), capacity_experiment(true)),
        (
            traced(ScenarioKind::Incast { flows: 4 }, false),
            traced(ScenarioKind::Incast { flows: 4 }, true),
        ),
    ] {
        let label = plain.report_label();
        let plain = plain.run();
        let mut monitored = monitored.run();

        let summary = monitored.monitor.clone().expect("monitored report");
        assert!(
            summary.snapshots >= 2,
            "{label}: expected snapshots in an 8ms window"
        );
        assert!(
            !summary.stages.is_empty(),
            "{label}: the sketches saw no stage residencies"
        );
        assert!(monitored.to_json().contains("\"monitor\""));
        assert!(!plain.to_json().contains("\"monitor\""));

        // Strip the summary: everything else must be byte-identical, i.e.
        // the monitor observed the run without perturbing it.
        monitored.monitor = None;
        assert_eq!(
            plain.to_json(),
            monitored.to_json(),
            "{label}: monitoring must not change simulation outcomes"
        );
    }
}

#[test]
fn monitored_snapshot_stream_is_deterministic() {
    use std::cell::RefCell;
    use std::rc::Rc;

    let stream = || {
        let mut churn = workload::churn_capacity(60, AdmissionPolicy::Drop);
        churn.trace_sample = 4;
        let mut exp = traced(ScenarioKind::Churn { churn }, true).configure(|c| c.seed = 42);
        exp.measure = Duration::from_millis(10);
        let lines = Rc::new(RefCell::new(Vec::<String>::new()));
        let sink = Rc::clone(&lines);
        let mut world = exp.world();
        world.set_monitor_emit(Box::new(move |s| {
            sink.borrow_mut().push(s.to_jsonl());
        }));
        world
            .try_run(exp.warmup, exp.measure)
            .expect("monitored run quiesces");
        drop(world); // releases the emit closure's clone of `lines`
        Rc::try_unwrap(lines).unwrap().into_inner()
    };

    let a = stream();
    let b = stream();
    assert!(
        a.len() >= 2,
        "expected at least two snapshots, got {}",
        a.len()
    );
    assert_eq!(a, b, "identically-seeded runs must emit identical JSONL");
}

#[test]
fn sketch_quantiles_match_offline_trace_quantiles() {
    use std::collections::HashMap;

    // Zero warmup aligns the monitor's window with the trace rings: both
    // see the same stamps from t = 0.
    let mut churn = workload::churn_short_rpc(150_000.0, 4096);
    churn.trace_sample = 2;
    let mut exp = Experiment::new(ScenarioKind::Churn { churn }).configure(|c| {
        c.trace = TraceConfig {
            enabled: true,
            sample_every: 2,
            ..TraceConfig::DISABLED
        };
        c.monitor = Some(MonitorConfig {
            interval: Duration::from_millis(2),
        });
    });
    exp.warmup = Duration::ZERO;
    exp.measure = Duration::from_millis(10);
    let (report, trace) = exp.try_run_traced().expect("run quiesces");
    assert_eq!(
        report.trace_overflow, 0,
        "rings must not overflow for an exact comparison"
    );
    let summary = report.monitor.as_ref().expect("monitored report");
    let alpha = summary.sketch_alpha;

    // Offline ground truth: exact residencies from the exported records,
    // every consecutive pair of one skb's timeline. The run's last drain
    // at EndRun hands the monitor every pair the tracer folded. The tracer
    // treats RecvCopy as terminal, so pairs starting there are skipped.
    let mut timelines: HashMap<u64, Vec<_>> = HashMap::new();
    for (_, _, r) in trace.sorted_records() {
        timelines.entry(r.skb).or_default().push(r);
    }
    let mut exact: HashMap<&'static str, Vec<u64>> = HashMap::new();
    for tl in timelines.values() {
        for pair in tl.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if a.stage == StageId::RecvCopy {
                continue;
            }
            exact
                .entry(a.stage.label())
                .or_default()
                .push(b.t.since(a.t).as_nanos());
        }
    }

    assert_eq!(
        exact.len(),
        summary.stages.len(),
        "every stage with a residency reaches the monitor"
    );
    assert!(
        summary.stages.iter().any(|s| s.samples >= 100),
        "need a well-populated stage for the tail quantiles to mean anything"
    );
    for s in &summary.stages {
        let vals = exact
            .get_mut(s.stage.as_str())
            .unwrap_or_else(|| panic!("stage {} missing from offline trace", s.stage));
        vals.sort_unstable();
        assert_eq!(
            s.samples,
            vals.len() as u64,
            "sketch and offline sample sets must agree for {}",
            s.stage
        );
        let rank = |q: f64| vals[(q * (vals.len() - 1) as f64).floor() as usize];
        for (q, got) in [(0.5, s.p50_ns), (0.99, s.p99_ns), (0.999, s.p999_ns)] {
            let want = rank(q) as f64;
            let err = (got as f64 - want).abs();
            assert!(
                err <= alpha * want + 1.0,
                "{} q{q}: sketch {got} vs exact {want} exceeds the \
                 relative-error bound (alpha = {alpha})",
                s.stage
            );
        }
    }
}

#[test]
fn cli_monitor_streams_deterministic_jsonl() {
    let bin = env!("CARGO_BIN_EXE_hostnet");
    let dir = std::env::temp_dir();
    let run = |tag: &str| {
        let path = dir.join(format!(
            "hostnet-monitor-{tag}-{}.jsonl",
            std::process::id()
        ));
        let out = std::process::Command::new(bin)
            .args(
                "run churn --churn-mode rpc --admission queue --slow-prob 0.25 \
                   --monitor-ms 5 --trace-sample-every 8 --warmup-ms 5 --measure-ms 30 \
                   --seed 11 --metrics-out"
                    .split_whitespace(),
            )
            .arg(&path)
            .output()
            .expect("spawn hostnet run");
        assert!(out.status.success(), "hostnet run failed: {out:?}");
        let jsonl = std::fs::read_to_string(&path).expect("metrics file");
        let _ = std::fs::remove_file(&path);
        (out.stdout, jsonl)
    };
    let (stdout_a, jsonl_a) = run("a");
    let (stdout_b, jsonl_b) = run("b");
    assert!(
        jsonl_a.lines().count() >= 2,
        "expected at least two snapshot lines, got:\n{jsonl_a}"
    );
    assert!(jsonl_a.lines().all(|l| l.starts_with("{\"t\":")));
    assert_eq!(jsonl_a, jsonl_b, "snapshot stream must be deterministic");
    assert_eq!(stdout_a, stdout_b, "live output must be deterministic");
}

#[test]
fn cli_run_ends_quietly_when_stdout_closes() {
    // `hostnet run … | head -1`: the reader takes one live line and closes
    // the pipe. The run prints ~95 KB of live lines, more than a pipe
    // buffer holds, so the binary is still printing when the pipe closes.
    use std::io::BufRead;
    use std::process::{Command, Stdio};
    let bin = env!("CARGO_BIN_EXE_hostnet");
    let mut child = Command::new(bin)
        .args("run incast --flows 4 --monitor-ms 1 --measure-ms 1000".split_whitespace())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hostnet run");
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("first live line");
    assert!(line.contains("Gbps"), "not a live line: {line}");
    drop(stdout);
    let out = child.wait_with_output().expect("wait for hostnet run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "stderr: {stderr}");
}

#[test]
fn cli_help_list_and_audit_end_quietly_when_stdout_is_closed() {
    // The reader is gone before the command writes a byte, so every write
    // to stdout fails with a broken pipe.
    use std::process::{Command, Stdio};
    let bin = env!("CARGO_BIN_EXE_hostnet");
    for args in ["help", "list", "audit --runs 1 --quiet"] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(bin)
            .args(args.split_whitespace())
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn hostnet");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{args}: {stderr}");
    }
    // A stdout that refuses the write is an error, named, not a panic.
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = Command::new(bin)
        .arg("help")
        .stdout(full)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn hostnet");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: writing to stdout"), "{stderr}");
}

#[test]
fn golden_monitor_stream() {
    // The snapshot JSONL bytes themselves are pinned: a traced incast run
    // (`stages`) and a monitored churn run (`stages` and `conn`), as CI's
    // monitor smoke drives them, concatenated in that order. To accept a
    // new stream: `HNS_BLESS=1 cargo test --test monitor golden_monitor_stream`.
    let bin = env!("CARGO_BIN_EXE_hostnet");
    let runs = [
        "run incast --flows 4 --monitor-ms 2",
        "run churn --churn-mode rpc --admission queue --mem-budget-kb 4096 \
         --idle-timeout-ms 12 --slow-prob 0.25 --monitor-ms 5 --trace-sample-every 8 \
         --warmup-ms 5 --measure-ms 30 --seed 11",
    ];
    let mut stream = String::new();
    for (i, args) in runs.iter().enumerate() {
        let path = std::env::temp_dir().join(format!(
            "hostnet-golden-monitor-{i}-{}.jsonl",
            std::process::id()
        ));
        let out = std::process::Command::new(bin)
            .args(args.split_whitespace())
            .arg("--metrics-out")
            .arg(&path)
            .output()
            .expect("spawn hostnet run");
        assert!(out.status.success(), "hostnet {args} failed: {out:?}");
        stream.push_str(&std::fs::read_to_string(&path).expect("metrics file"));
        let _ = std::fs::remove_file(&path);
    }
    assert!(stream.contains("\"stages\":[{") && stream.contains("\"conn\":{"));
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/monitor_stream.jsonl");
    if std::env::var_os("HNS_BLESS").is_some() {
        std::fs::write(&golden, stream).expect("bless: cannot write golden file");
        return;
    }
    let want = std::fs::read_to_string(&golden).expect("golden monitor stream");
    if let Some((i, (w, g))) = want
        .lines()
        .zip(stream.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
    {
        panic!(
            "monitor stream differs at line {}:\n  golden: {w}\n  got:    {g}",
            i + 1
        );
    }
    assert_eq!(want, stream, "monitor stream line count differs");
}
