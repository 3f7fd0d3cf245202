//! Golden-figure regression suite.
//!
//! The simulator is deterministic end to end, so every figure's reports
//! can be pinned byte-for-byte. These tests render representative sweeps
//! (fig. 3e's ring × buffer grid, the fig. 9b resilience extension,
//! fig. 13's congestion-control matrix, the fig_capacity overload sweep,
//! the fig_backend datapath comparison, the fig_incast fabric sweep, the
//! ablation grid) to canonical JSONL and compare against the checked-in
//! files under `tests/golden/`. A further check parses every golden back
//! and pins the CSV the whole set renders to (`tests/golden/reports.csv`),
//! so JSON in and CSV out are held byte-for-byte too. One audited
//! latency-spike run is pinned on its own (`single_latency_spike.json`).
//! Every point of every registered figure, at `--quick` windows, plus one
//! pool-mode churn point, one monitored, traced capacity point and one
//! single flow with a stalled receiver core, is pinned by an FNV-64
//! digest of its report JSON (`figure_digests.txt`), so a change that
//! moves any figure names the points that moved.
//!
//! Any intentional change to the engine, cost model, or report schema
//! shows up here first. To accept new goldens (the `--bless` path):
//!
//! ```text
//! HNS_BLESS=1 cargo test --test golden_figures
//! ```
//!
//! then review the golden diff like any other code change.

use hostnet::building_blocks::core_figures as figures;
use hostnet::{Experiment, Report, ScenarioKind};
use std::path::PathBuf;

/// Run the figure registered as `name` — looked up by name, so a renamed
/// or dropped figure fails here instead of leaving the goldens unnoticed.
fn figure(name: &str) -> Vec<Report> {
    let (_, points) = figures::FIGURES
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no figure `{name}` in the registry"));
    figures::run(1, &points()).unwrap()
}

/// Canonical rendering: one report JSON object per line, sweep order.
fn render(reports: &[Report]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `body` against the golden file, or rewrite it under
/// `HNS_BLESS=1`. On mismatch, report the first differing line so the
/// failure is readable without an external diff.
fn check(name: &str, body: String) {
    let path = golden_path(name);
    if std::env::var_os("HNS_BLESS").is_some() {
        std::fs::write(&path, body).expect("bless: cannot write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {}: {e}\n(generate it with `HNS_BLESS=1 cargo test --test golden_figures`)",
            path.display()
        )
    });
    if want == body {
        return;
    }
    let mismatch = want
        .lines()
        .zip(body.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g);
    match mismatch {
        Some((i, (w, g))) => panic!(
            "golden mismatch for {name} at line {}:\n  golden: {w}\n  got:    {g}\n\
             (if intended, re-bless with `HNS_BLESS=1 cargo test --test golden_figures`)",
            i + 1
        ),
        None => panic!(
            "golden mismatch for {name}: line count {} vs {} (re-bless if intended)",
            want.lines().count(),
            body.lines().count()
        ),
    }
}

#[test]
fn golden_fig03e_ring_buffer_grid() {
    let reports = figure("fig03e");
    assert_eq!(reports.len(), 24);
    check("fig03e.jsonl", render(&reports));
}

#[test]
fn golden_fig09b_resilience() {
    let reports = figure("fig09b");
    check("fig09b.jsonl", render(&reports));
}

#[test]
fn golden_fig13_congestion_control() {
    let reports = figure("fig13");
    check("fig13.jsonl", render(&reports));
}

#[test]
fn inkernel_backend_is_the_legacy_pipeline() {
    // Explicit form of what every other golden test asserts implicitly:
    // the default datapath is the in-kernel backend, and selecting it
    // explicitly changes nothing — the datapath seam is
    // charge-transparent, so every pre-seam golden stays byte-identical.
    use hostnet::building_blocks::stack::DatapathKind;
    use hostnet::{Experiment, ScenarioKind};
    assert_eq!(
        hostnet::building_blocks::stack::SimConfig::default().datapath,
        DatapathKind::InKernel
    );
    let implicit = Experiment::new(ScenarioKind::Single).quick().run();
    let explicit = Experiment::new(ScenarioKind::Single)
        .configure(|c| c.datapath = DatapathKind::InKernel)
        .quick()
        .run();
    assert_eq!(implicit.to_json(), explicit.to_json());
}

#[test]
fn golden_fig_backend() {
    // The datapath comparison: in-kernel vs TOE vs kernel-bypass over the
    // same scenarios. The in-kernel rows double as a pin that the
    // datapath seam is charge-transparent: they must match what the
    // legacy pipeline produced before the seam existed (the other golden
    // suites enforce that too — all pre-seam goldens stay byte-identical).
    let reports = figure("figback");
    assert_eq!(reports.len(), 6);
    check("fig_backend.jsonl", render(&reports));
}

#[test]
fn golden_fig_capacity() {
    // The overload sweep: admission policy × concurrent clients. Pins
    // the whole capacity summary (queue books, cookies, sheds, memory
    // peaks, RPC tail) byte-for-byte, on top of the usual report fields.
    let reports = figure("figcap");
    assert_eq!(reports.len(), 12);
    check("fig_capacity.jsonl", render(&reports));
}

#[test]
fn golden_fig_incast() {
    // The fabric fan-in sweep: ECN off/on × sender count through the
    // shared-buffer ToR model. Pins the switch drop counts, per-flow
    // fairness, and the ECN recovery byte-for-byte.
    let reports = figure("figincast");
    assert_eq!(reports.len(), 10);
    check("fig_incast.jsonl", render(&reports));
}

#[test]
fn golden_ablations() {
    // The design-choice grid: Table 2 steering, LRO, MTU, NAPI budget,
    // DCA slice, IRQ moderation and pinned receive buffers, each varied
    // alone around the default.
    let reports = figure("ablations");
    assert_eq!(reports.len(), 21);
    check("ablations.jsonl", render(&reports));
}

#[test]
fn golden_reports_csv() {
    // JSON in and CSV out: every committed golden parses back into its
    // reports, and the CSV of the whole set (files in name order) is
    // pinned byte-for-byte.
    let dir = golden_path("");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("golden dir")
        .map(|e| e.expect("golden entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        // The monitor snapshot stream is pinned by tests/monitor.rs.
        .filter(|p| !p.ends_with("monitor_stream.jsonl"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 7, "every JSONL golden is covered");
    let mut reports = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("read golden");
        // `render` writes pretty JSON; each report closes with a bare `}`.
        for doc in text.split_inclusive("\n}\n") {
            let doc = doc.trim_end();
            let r = Report::from_json(doc).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(r.to_json(), doc, "JSON round trip in {}", path.display());
            reports.push(r);
        }
    }
    check(
        "reports.csv",
        hostnet::building_blocks::metrics::reports_to_csv(&reports),
    );
}

/// FNV-1a 64-bit hash of a report's JSON bytes (the benchmark's digest).
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn golden_figure_digests() {
    // Every figure at `--quick` windows, in registry order, then one
    // pool-mode churn point (no figure runs pool mode), one monitored,
    // traced capacity point (no figure runs a monitor) and one single
    // flow whose receiver core 0 stalls for 4 ms inside the window (no
    // figure stalls a core: the `--fault-stall-ms 4` shape). One line per
    // point: figure, report label, digest.
    use hostnet::building_blocks::conn::AdmissionPolicy;
    use hostnet::building_blocks::faults::{CoreStall, PhaseSchedule};
    use hostnet::building_blocks::monitor::MonitorConfig;
    use hostnet::building_blocks::sim::Duration;
    use hostnet::building_blocks::trace::TraceConfig;
    use hostnet::building_blocks::workload::{churn_capacity, churn_pool};
    let mut names = Vec::new();
    let mut points = Vec::new();
    for (name, figure) in figures::FIGURES {
        for e in figure() {
            names.push(name);
            points.push(e.quick());
        }
    }
    names.push("pool");
    points.push(
        Experiment::new(ScenarioKind::Churn {
            churn: churn_pool(1000, 50_000.0),
        })
        .quick(),
    );
    names.push("monitor");
    let mut churn = churn_capacity(500, AdmissionPolicy::Queue);
    churn.trace_sample = 8;
    points.push(
        Experiment::new(ScenarioKind::Churn { churn })
            .quick()
            .configure(|c| {
                c.trace = TraceConfig {
                    enabled: true,
                    sample_every: 8,
                    ..TraceConfig::DISABLED
                };
                c.monitor = Some(MonitorConfig {
                    interval: Duration::from_millis(10),
                });
            }),
    );
    names.push("stall");
    points.push(
        Experiment::new(ScenarioKind::Single)
            .quick()
            .configure(|c| {
                c.faults.core_stall = Some(CoreStall {
                    window: PhaseSchedule::once(Duration::from_millis(7), Duration::from_millis(4)),
                    host: 1,
                    core: 0,
                });
            }),
    );
    let reports = figures::run(2, &points).unwrap();
    let monitored = reports[reports.len() - 2].monitor.as_ref();
    assert!(
        monitored.is_some_and(|m| !m.stages.is_empty()),
        "the monitored point must fold stage residencies: {monitored:?}"
    );
    let lines: Vec<String> = names
        .iter()
        .zip(&reports)
        .map(|(name, r)| {
            format!(
                "{name}\t{}\t{:016x}",
                r.label,
                digest(r.to_json().as_bytes())
            )
        })
        .collect();
    let body = lines.join("\n") + "\n";
    let path = golden_path("figure_digests.txt");
    if std::env::var_os("HNS_BLESS").is_none() {
        if let Ok(want) = std::fs::read_to_string(&path) {
            let moved: Vec<&str> = want
                .lines()
                .zip(&lines)
                .filter(|(w, g)| w != g)
                .map(|(w, _)| w.rsplit_once('\t').map_or(w, |(point, _)| point))
                .collect();
            assert!(
                moved.is_empty() && want.lines().count() == lines.len(),
                "{} of {} figure points moved (golden has {} lines):\n  {}\n\
                 (if intended, re-bless with `HNS_BLESS=1 cargo test --test golden_figures`)",
                moved.len(),
                lines.len(),
                want.lines().count(),
                moved.join("\n  ")
            );
        }
    }
    check("figure_digests.txt", body);
}

#[test]
fn golden_latency_spike_keeps_event_order() {
    // A +100 us one-way spike from 25 ms to 30 ms. When it ends, frames
    // sent afterwards arrive before frames still on the wire, so their
    // arrivals cannot join the port's FIFO lane and go to the timer wheel
    // instead. The auditor checks that events still pop in time order, and
    // the golden pins the report.
    use hostnet::building_blocks::faults::{LatencySpike, PhaseSchedule};
    use hostnet::building_blocks::sim::Duration;
    let report = Experiment::new(ScenarioKind::Single)
        .audited()
        .configure(|c| {
            c.link.latency_spike = Some(LatencySpike {
                window: PhaseSchedule::once(Duration::from_millis(25), Duration::from_millis(5)),
                extra: Duration::from_micros(100),
            });
        })
        .try_run()
        .unwrap_or_else(|e| panic!("audited latency-spike run tripped: {e}"));
    check("single_latency_spike.json", report.to_json() + "\n");
}
