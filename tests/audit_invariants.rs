//! End-to-end tests of the invariant auditor (`Experiment::audited`) and
//! the differential config fuzzer (`hostnet audit`).
//!
//! The auditor must (a) stay silent on every healthy scenario — including
//! churn, loss, and fault-window runs — and (b) catch a deliberately broken
//! ledger. `SimConfig::inject_rx_leak` consumes one Rx descriptor at the
//! end of warmup without delivering its frame, exactly the kind of
//! single-counter drift the conservation laws exist to catch; the fuzzer's
//! bisection must then shrink a multi-delta failing config down to that
//! one delta.

use hostnet::audit::{bisect_case, check_case, run_audit};
use hostnet::building_blocks::faults::LossModel;
use hostnet::building_blocks::stack::RunErrorKind;
use hostnet::{
    AuditOptions, Experiment, FieldDelta, Placement, Property, Report, ScenarioKind, SimConfig,
};

fn audited(scenario: ScenarioKind) -> Experiment {
    Experiment::new(scenario).quick().audited()
}

#[test]
fn audited_scenarios_stay_silent() {
    let scenarios = [
        ScenarioKind::Single,
        ScenarioKind::SingleNicRemote,
        ScenarioKind::OneToOne { flows: 2 },
        ScenarioKind::Incast { flows: 4 },
        ScenarioKind::RpcIncast {
            clients: 4,
            size: 4096,
            server: Placement::NicLocalFirst,
        },
        ScenarioKind::Mixed {
            shorts: 2,
            size: 4096,
        },
        ScenarioKind::OpenLoop {
            clients: 2,
            size: 16 * 1024,
            rate_rps: 20_000.0,
        },
        ScenarioKind::Churn {
            churn: hostnet::building_blocks::workload::churn_open_loop(100_000.0),
        },
        ScenarioKind::Churn {
            churn: hostnet::building_blocks::workload::churn_short_rpc(50_000.0, 4096),
        },
        ScenarioKind::Churn {
            churn: hostnet::building_blocks::workload::churn_pool(1000, 50_000.0),
        },
    ];
    for s in scenarios {
        let r = audited(s)
            .try_run()
            .unwrap_or_else(|e| panic!("{}: audited run tripped: {e}", s.label()));
        assert!(r.delivered_bytes > 0 || r.conn.is_some());
    }
    // Short-RPC churn on a lossy wire (`hostnet run churn --churn-mode rpc
    // --loss 0.002 --seed 3`): first sends arm the connection-timer lane,
    // retries back off on the wheel, and the two interleave under the
    // conn-timer ledger.
    let churn = hostnet::building_blocks::workload::churn_short_rpc(100_000.0, 4096);
    let r = Experiment::new(ScenarioKind::Churn { churn })
        .audited()
        .configure(|c| {
            c.link.loss = LossModel::uniform(0.002);
            c.seed = 3;
        })
        .try_run()
        .unwrap_or_else(|e| panic!("lossy short-RPC churn: audited run tripped: {e}"));
    let c = r.conn.expect("churn runs carry a conn summary");
    assert!(r.drops.total() > 0 && c.retransmits > 0, "{c:?}");
}

#[test]
fn audited_capacity_runs_stay_silent() {
    // Every admission policy under real overload (250 clients push the
    // depth-128 accept queue past its bound at quick windows): the
    // accept-queue, connection-memory, and abort-reconciliation ledgers
    // must all balance at teardown.
    use hostnet::building_blocks::conn::AdmissionPolicy;
    for policy in [
        AdmissionPolicy::Drop,
        AdmissionPolicy::Queue,
        AdmissionPolicy::Shed,
    ] {
        let churn = hostnet::building_blocks::workload::churn_capacity(250, policy);
        let r = audited(ScenarioKind::Churn { churn })
            .try_run()
            .unwrap_or_else(|e| panic!("audited capacity/{} tripped: {e}", policy.label()));
        let cap = r
            .capacity
            .expect("overload runs must carry a capacity summary");
        assert_eq!(cap.policy, policy.label());
        assert!(
            cap.accept_overflows > 0,
            "capacity/{}: 250 clients should overflow the depth-128 queue",
            policy.label()
        );
    }
}

#[test]
fn audited_overload_composes_with_wire_loss() {
    // Overload + lossy handshakes: SYN retransmissions interleave with
    // admission drops/cookies/sheds, and the ledgers must still close.
    use hostnet::building_blocks::conn::AdmissionPolicy;
    let churn = hostnet::building_blocks::workload::churn_capacity(250, AdmissionPolicy::Queue);
    let r = audited(ScenarioKind::Churn { churn })
        .configure(|c| c.link.loss = LossModel::uniform(0.002))
        .try_run()
        .expect("lossy overload run must still balance its ledgers");
    let c = r.conn.expect("churn runs carry a conn summary");
    assert!(c.retransmits > 0, "the loss should hit some handshakes");
    assert!(r.capacity.is_some());
}

#[test]
fn audited_run_tolerates_loss_drops_and_faults() {
    // Wire loss + a tight backlog cap + an Rx-ring exhaustion window: every
    // drop bucket gets exercised, and the teardown reconciliation against
    // the drop taxonomy must still balance.
    use hostnet::building_blocks::faults::PhaseSchedule;
    use hostnet::building_blocks::sim::Duration;
    let r = audited(ScenarioKind::Incast { flows: 4 })
        .configure(|c| {
            c.link.loss = LossModel::uniform(0.001);
            c.max_backlog = 64;
            c.faults.ring_exhaust = Some(PhaseSchedule::once(
                Duration::from_millis(6),
                Duration::from_millis(1),
            ));
        })
        .try_run()
        .expect("lossy faulted run must still balance its ledgers");
    assert!(
        r.drops.total() > 0,
        "the config should actually drop frames"
    );
}

#[test]
fn injected_rx_leak_is_caught_by_the_auditor() {
    let err = audited(ScenarioKind::Single)
        .configure(|c| c.inject_rx_leak = true)
        .try_run()
        .expect_err("a leaked descriptor must trip the auditor");
    assert_eq!(err.kind, RunErrorKind::InvariantViolation);
    assert!(
        err.detail.contains("arrival-attribution"),
        "unexpected detail: {}",
        err.detail
    );
}

#[test]
fn injected_rx_leak_is_invisible_without_audit() {
    // Control: the same broken world passes when the auditor is off,
    // proving detection comes from the conservation checks and not from
    // the leak disturbing the run.
    let r = Experiment::new(ScenarioKind::Single)
        .quick()
        .configure(|c| c.inject_rx_leak = true)
        .try_run()
        .expect("one consumed descriptor must not wedge an unaudited run");
    assert!(r.total_gbps > 5.0);
}

#[test]
fn check_case_flags_the_leak_delta() {
    assert!(check_case(ScenarioKind::Single, Property::Conservation, &[]).is_ok());
    let err = check_case(
        ScenarioKind::Single,
        Property::Conservation,
        &[FieldDelta::InjectRxLeak],
    )
    .expect_err("leak delta must fail the conservation property");
    assert!(err.contains("invariant-violation"), "got: {err}");
}

#[test]
fn bisection_shrinks_to_the_single_culprit_delta() {
    // Three deltas, two innocent: the fuzzer's bisection must re-run the
    // case with subsets and come back with exactly the leak.
    let deltas = [
        FieldDelta::RxDescriptors(1024),
        FieldDelta::IrqCoalesceUs(8),
        FieldDelta::InjectRxLeak,
    ];
    let minimal = bisect_case(ScenarioKind::Single, Property::Conservation, &deltas);
    assert_eq!(minimal, vec![FieldDelta::InjectRxLeak]);
}

#[test]
fn fuzzer_smoke_sweep_is_clean() {
    // A short in-process sweep of the real fuzzer entry point; the CI job
    // runs the full 25/200-case sweeps through the CLI.
    let outcome = run_audit(&AuditOptions {
        runs: 4,
        seed: 1,
        out_dir: None,
        progress: None,
    });
    assert_eq!(outcome.runs, 4);
    assert!(outcome.ok(), "failures: {:?}", outcome.failures);
}

/// Fabric incast at fan-in `n`, fig_incast knobs (shared 256KB switch
/// buffer, 4 ECMP uplinks, optional 64KB ECN threshold).
fn audited_incast(n: u16, ecn: bool) -> Experiment {
    use hostnet::building_blocks::stack::FabricConfig;
    audited(ScenarioKind::FabricIncast { senders: n }).configure(move |c| {
        let mut f = FabricConfig::neutral((n + 1).max(2));
        f.uplinks = 4;
        f.buffer_bytes = 256 * 1024;
        f.ecn_threshold_bytes = if ecn { Some(64 * 1024) } else { None };
        c.fabric = Some(f);
    })
}

#[test]
fn audited_incast_fan_in_degrees_stay_silent() {
    // Frame/drop/cycle conservation must hold with switch-buffer drops
    // present: every fan-in degree of the fig_incast grid, ECN off (drops
    // happen) and on (marks happen), under the full auditor.
    for n in [1, 2, 4, 8, 16] {
        for ecn in [false, true] {
            let r = audited_incast(n, ecn)
                .try_run()
                .unwrap_or_else(|e| panic!("incast {n}s ecn={ecn}: auditor tripped: {e}"));
            assert!(
                r.total_gbps > 5.0,
                "incast {n}s ecn={ecn}: goodput collapsed to {:.2}",
                r.total_gbps
            );
        }
    }
}

#[test]
fn two_sender_incast_does_not_livelock() {
    // Regression: a min-cwnd sender whose final in-order segment fell
    // under the every-second-MSS delayed-ACK threshold used to wait out a
    // full RTO per segment (no delack timer), which re-collapsed cwnd
    // every cycle — one flow of the 2-sender fan-in wedged at ~0 goodput
    // with zero drops. The delack flush timer plus hole-quickack must keep
    // both flows moving.
    let r = audited_incast(2, false).try_run().expect("clean audit");
    assert!(
        r.total_gbps > 50.0,
        "2-sender incast goodput {:.2} Gbps — delack livelock is back?",
        r.total_gbps
    );
    let min = r.per_flow_bytes.iter().map(|&(_, b)| b).min().unwrap();
    assert!(
        min > 0,
        "a starved flow delivered nothing in the window: {:?}",
        r.per_flow_bytes
    );
}

#[test]
fn audited_mixed_tenant_fabric_stays_silent() {
    use hostnet::building_blocks::stack::FabricConfig;
    let r = audited(ScenarioKind::FabricMixed {
        longs: 3,
        shorts: 2,
        size: 4096,
    })
    .configure(|c| {
        let mut f = FabricConfig::neutral(5);
        f.uplinks = 2;
        f.buffer_bytes = 512 * 1024;
        c.fabric = Some(f);
    })
    .try_run()
    .expect("mixed-tenant fabric run must stay silent under audit");
    assert!(r.total_gbps > 1.0);
}

/// 3-sender fabric incast on a neutral 4-host rack with the world's link
/// settings perturbed by `link`.
fn audited_fabric_with_link(link: impl FnOnce(&mut SimConfig)) -> Report {
    use hostnet::building_blocks::stack::FabricConfig;
    audited(ScenarioKind::FabricIncast { senders: 3 })
        .configure(move |c| {
            c.fabric = Some(FabricConfig::neutral(4));
            link(c);
        })
        .try_run()
        .expect("fabric run with link settings must stay silent under audit")
}

#[test]
fn link_settings_reach_fabric_runs() {
    // The fabric's ports take their faults from `SimConfig::link`: wire
    // loss must drop frames on a fabric run too,
    // charged to the `wire` class and recovered by retransmission, with
    // every ledger balanced.
    let r = audited_fabric_with_link(|c| c.link.loss = LossModel::uniform(0.01));
    assert!(r.drops.wire > 0, "1% wire loss dropped nothing");
    assert_eq!(r.drops.switch_buffer, 0, "a neutral fabric never refuses");
    assert!(
        r.retransmissions > 0,
        "lost frames were never retransmitted"
    );

    // And the line rate caps the receiver's egress port.
    let r = audited_fabric_with_link(|_| {});
    assert!(
        r.total_gbps <= 100.0,
        "3 senders through a 100 Gbps port delivered {:.2} Gbps",
        r.total_gbps
    );
}
