//! Cross-backend differential suite.
//!
//! The datapath policy's contract is that backends change *where host
//! cycles are charged*, never *what moves*: the protocol state machines,
//! frame arenas, page pools and descriptor rings run identically under
//! all three architectures. That makes matched-config runs directly
//! comparable — every backend must satisfy the same conservation and
//! accounting identities, and the deltas that do appear (goodput per
//! core, taxonomy shape) must go in the documented direction:
//!
//! * in-kernel pays the full paper taxonomy,
//! * TOE collapses it to copy + syscall + descriptor bookkeeping,
//! * bypass keeps only descriptor/polling work on a dedicated core,
//!
//! so goodput-per-host-core orders bypass ≥ TOE ≥ in-kernel.

use hostnet::building_blocks::core_figures as figures;
use hostnet::building_blocks::metrics::Category;
use hostnet::building_blocks::stack::config::RcvBufPolicy;
use hostnet::building_blocks::stack::DatapathKind;
use hostnet::{Experiment, Report, ScenarioKind};

/// Matched-config audited runs: same scenario, seed, windows and receive
/// buffer, one run per backend, every conservation ledger checked at
/// quiesce/teardown.
fn matched_runs(scenario: ScenarioKind, rcvbuf: RcvBufPolicy) -> Vec<(DatapathKind, Report)> {
    DatapathKind::ALL
        .into_iter()
        .map(|kind| {
            let r = Experiment::new(scenario)
                .configure(|c| {
                    c.datapath = kind;
                    c.stack.rcvbuf = rcvbuf;
                })
                .quick()
                .audited()
                .try_run()
                .unwrap_or_else(|e| panic!("{} under {}: {e}", scenario.label(), kind.label()));
            (kind, r)
        })
        .collect()
}

/// Identities every backend must satisfy on its own report: delivered
/// bytes are what the throughput figure is computed from, and the drop
/// taxonomy attributes every lost frame exactly once.
fn check_accounting(kind: DatapathKind, r: &Report) {
    let ctx = kind.label();
    assert!(r.delivered_bytes > 0, "{ctx}: no application bytes moved");
    let gbps = r.delivered_bytes as f64 * 8.0 / r.window_secs / 1e9;
    assert!(
        (gbps - r.total_gbps).abs() < 1e-6 * r.total_gbps.max(1.0),
        "{ctx}: total_gbps {} inconsistent with delivered_bytes ({gbps})",
        r.total_gbps
    );
    assert_eq!(r.drops.wire, r.wire_drops, "{ctx}: wire drop split");
    assert_eq!(
        r.drops.rx_ring + r.drops.pool,
        r.ring_drops,
        "{ctx}: ring drop split"
    );
}

#[test]
fn backends_conserve_bytes_and_accounting_under_audit() {
    for scenario in [ScenarioKind::Single, ScenarioKind::OneToOne { flows: 4 }] {
        for (kind, r) in matched_runs(scenario, RcvBufPolicy::Auto) {
            check_accounting(kind, &r);
        }
    }
}

#[test]
fn goodput_per_core_orders_bypass_toe_inkernel() {
    for scenario in [ScenarioKind::Single, ScenarioKind::OneToOne { flows: 4 }] {
        let runs = matched_runs(scenario, RcvBufPolicy::Auto);
        let per_core = |k: DatapathKind| {
            runs.iter()
                .find(|(kind, _)| *kind == k)
                .map(|(_, r)| r.thpt_per_core_gbps)
                .unwrap()
        };
        let ik = per_core(DatapathKind::InKernel);
        let toe = per_core(DatapathKind::ToeOffload);
        let byp = per_core(DatapathKind::UserBypass);
        assert!(
            byp >= toe && toe >= ik,
            "{}: goodput/core out of order: bypass {byp:.2} / toe {toe:.2} / inkernel {ik:.2}",
            scenario.label()
        );
    }
}

/// A pinned 64 KB receive buffer closes the window and reopens it with an
/// explicit window update, whose ACK generation is protocol work: the
/// offload backends must not pay for it either.
#[test]
fn taxonomies_collapse_per_backend_contract() {
    for rcvbuf in [RcvBufPolicy::Auto, RcvBufPolicy::Fixed(64 * 1024)] {
        for (kind, r) in matched_runs(ScenarioKind::Single, rcvbuf) {
            check_taxonomy(kind, &r);
        }
    }
}

fn check_taxonomy(kind: DatapathKind, r: &Report) {
    let total = |cat: Category| r.sender.breakdown[cat] + r.receiver.breakdown[cat];
    match kind {
        DatapathKind::InKernel => {
            for cat in [
                Category::DataCopy,
                Category::TcpIp,
                Category::SkbMgmt,
                Category::Memory,
            ] {
                assert!(total(cat) > 0, "inkernel: {} cycles missing", cat.label());
            }
        }
        DatapathKind::ToeOffload => {
            // Protocol, skb and memory management moved on-NIC; the
            // host keeps copies, syscalls (Etc) and descriptor work.
            assert!(total(Category::DataCopy) > 0, "toe: copies are host work");
            assert!(total(Category::Etc) > 0, "toe: syscalls are host work");
            assert!(total(Category::NetDevice) > 0, "toe: descriptor work");
            assert_eq!(total(Category::TcpIp), 0, "toe: protocol on-NIC");
            assert_eq!(total(Category::SkbMgmt), 0, "toe: no host skbs");
            assert_eq!(total(Category::Memory), 0, "toe: preregistered pools");
        }
        DatapathKind::UserBypass => {
            // Zero-copy busy-poll: only descriptor/polling work (plus
            // scheduling) survives on the host.
            assert!(total(Category::NetDevice) > 0, "bypass: polling work");
            for cat in [
                Category::DataCopy,
                Category::TcpIp,
                Category::SkbMgmt,
                Category::Memory,
                Category::Etc,
            ] {
                assert_eq!(total(cat), 0, "bypass: {} must be zero", cat.label());
            }
        }
    }
}

#[test]
fn fig_backend_sweep_is_jobs_invariant() {
    // The backend sweep is a set of independent deterministic runs, so
    // the worker count must never leak into the rendered reports.
    let sweep = |jobs: usize| -> Vec<String> {
        figures::run(jobs, &figures::fig_backend_points())
            .unwrap()
            .iter()
            .map(|r| r.to_json())
            .collect()
    };
    let seq = sweep(1);
    let par = sweep(4);
    assert_eq!(seq.len(), 6);
    assert_eq!(seq, par, "fig_backend differs between --jobs 1 and 4");
}
