//! Parallel sweeps must be byte-identical to sequential ones.
//!
//! Every sweep point is an independent deterministic run and `map_ordered`
//! collects results in declared order, so the job count must never leak
//! into any output: not the reports' JSON, not the traced stage tables,
//! not the CLI's rendered bytes. These tests pin that contract for the
//! sweeps the issue calls out (fig. 3e's ring × buffer grid, fig. 13's
//! CC matrix, and the traced fig. 3g runs) and for the `hostnet
//! figures --jobs N` surface end to end.

use hostnet::building_blocks::core_figures as figures;
use hostnet::Experiment;

/// JSON-serialize every report of a sweep at the given job count.
fn sweep_json(jobs: usize, points: &[Experiment]) -> Vec<String> {
    figures::run(jobs, points)
        .unwrap()
        .iter()
        .map(|r| r.to_json())
        .collect()
}

#[test]
fn fig03e_grid_is_jobs_invariant() {
    let seq = sweep_json(1, &figures::fig03e_points());
    let par = sweep_json(8, &figures::fig03e_points());
    assert_eq!(seq.len(), 24);
    assert_eq!(seq, par, "fig03e reports differ between --jobs 1 and 8");
}

#[test]
fn fig13_cc_matrix_is_jobs_invariant() {
    let seq = sweep_json(1, &figures::fig13_points());
    let par = sweep_json(8, &figures::fig13_points());
    assert_eq!(seq, par, "fig13 reports differ between --jobs 1 and 8");
}

#[test]
fn traced_fig03g_is_jobs_invariant() {
    // fig. 3g runs with the lifecycle tracer enabled; its stage-latency
    // percentiles ride in the report, so this also pins traced runs.
    let seq = sweep_json(1, &figures::fig03g_points());
    let par = sweep_json(8, &figures::fig03g_points());
    assert!(
        seq.iter().all(|j| j.contains("stage_latency")),
        "fig03g reports should carry traced stage latencies"
    );
    assert_eq!(
        seq, par,
        "traced fig03g reports differ between jobs 1 and 8"
    );
}

#[test]
fn fig05c_conn_rate_sweep_is_jobs_invariant() {
    // The churn engine's conn summary (rates, handshake percentiles,
    // epoll ratios) must not leak the job count either.
    let seq = sweep_json(1, &figures::fig05c_points());
    let par = sweep_json(8, &figures::fig05c_points());
    assert!(
        seq.iter().all(|j| j.contains("\"conn\"")),
        "churn reports should carry a conn summary"
    );
    assert_eq!(seq, par, "fig05c reports differ between --jobs 1 and 8");
}

#[test]
fn fig_capacity_sweep_is_jobs_invariant() {
    // The overload sweep's admission outcomes (cookies, sheds, accept
    // drops) and capacity summary must not leak the job count: think
    // times hash off connection ids, never a shared RNG stream.
    let seq = sweep_json(1, &figures::fig_capacity_points());
    let par = sweep_json(8, &figures::fig_capacity_points());
    assert!(
        seq.iter().all(|j| j.contains("\"capacity\"")),
        "overload reports should carry a capacity summary"
    );
    assert_eq!(
        seq, par,
        "fig_capacity reports differ between --jobs 1 and 8"
    );
}

#[test]
fn monitored_capacity_sweep_is_jobs_invariant() {
    // Streaming telemetry folds sketches at autotune ticks inside each
    // run; the per-stage quantiles and goodput envelope in the monitor
    // summary must not leak the job count either.
    use hostnet::building_blocks::monitor::MonitorConfig;
    use hostnet::building_blocks::sim::Duration;
    use hostnet::building_blocks::trace::TraceConfig;

    let points = || -> Vec<Experiment> {
        figures::fig_capacity_points()
            .into_iter()
            .take(4)
            .map(|e| {
                e.configure(|c| {
                    c.monitor = Some(MonitorConfig {
                        interval: Duration::from_millis(2),
                    });
                    c.trace = TraceConfig {
                        enabled: true,
                        sample_every: 8,
                        ..TraceConfig::DISABLED
                    };
                })
            })
            .collect()
    };
    let seq = sweep_json(1, &points());
    let par = sweep_json(8, &points());
    assert!(
        seq.iter().all(|j| j.contains("\"monitor\"")),
        "monitored reports should carry a monitor summary"
    );
    assert_eq!(
        seq, par,
        "monitored capacity reports differ between --jobs 1 and 8"
    );
}

#[test]
fn cli_figures_output_is_jobs_invariant() {
    let bin = env!("CARGO_BIN_EXE_hostnet");
    let run = |jobs: &str| {
        let out = std::process::Command::new(bin)
            .args(["figures", "fig13", "--csv", "--jobs", jobs])
            .output()
            .expect("spawn hostnet");
        assert!(out.status.success(), "hostnet figures --jobs {jobs} failed");
        out.stdout
    };
    let seq = run("1");
    let par = run("8");
    assert!(!seq.is_empty());
    assert_eq!(seq, par, "CLI output differs between --jobs 1 and --jobs 8");
}

#[test]
fn cli_capacity_output_is_jobs_invariant() {
    let bin = env!("CARGO_BIN_EXE_hostnet");
    let run = |jobs: &str| {
        let out = std::process::Command::new(bin)
            .args(["figures", "figcap", "--quick", "--csv", "--jobs", jobs])
            .output()
            .expect("spawn hostnet");
        assert!(
            out.status.success(),
            "hostnet figures figcap --jobs {jobs} failed"
        );
        out.stdout
    };
    let seq = run("1");
    let par = run("8");
    assert!(!seq.is_empty());
    assert_eq!(
        seq, par,
        "figcap CLI output differs between --jobs 1 and --jobs 8"
    );
}

#[test]
fn fig_incast_sweep_is_jobs_invariant() {
    // The fabric sweep adds ECMP uplink hashing and shared-buffer drop
    // ordering to the mix: the flow-keyed Fibonacci hash and the
    // event-ordered switch clocks must make every fan-in point
    // byte-identical whatever the job count.
    let seq = sweep_json(1, &figures::fig_incast_points());
    let par = sweep_json(4, &figures::fig_incast_points());
    assert_eq!(seq.len(), 10);
    assert!(
        seq.iter().any(|j| j.contains("switch_buffer")),
        "incast reports should carry switch-buffer drops"
    );
    assert_eq!(seq, par, "fig_incast reports differ between --jobs 1 and 4");
}
