//! Cross-cutting invariants of the simulation itself: determinism,
//! conservation, and sanity bounds that must hold for *every* scenario.

use hostnet::building_blocks::faults::{
    CoreStall, LossModel, PhaseSchedule, PoolPressure, RingExhaust,
};
use hostnet::building_blocks::sim::Duration;
use hostnet::{Experiment, Report, ScenarioKind};
use proptest::prelude::*;

fn all_scenarios() -> Vec<ScenarioKind> {
    vec![
        ScenarioKind::Single,
        ScenarioKind::SingleNicRemote,
        ScenarioKind::OneToOne { flows: 4 },
        ScenarioKind::Incast { flows: 4 },
        ScenarioKind::Outcast { flows: 4 },
        ScenarioKind::AllToAll { x: 3 },
        ScenarioKind::RpcIncast {
            clients: 4,
            size: 4096,
            server: hostnet::Placement::NicLocalFirst,
        },
        ScenarioKind::Mixed {
            shorts: 2,
            size: 4096,
        },
    ]
}

fn run(kind: ScenarioKind, seed: u64) -> Report {
    Experiment::new(kind)
        .configure(|c| c.seed = seed)
        .quick()
        .run()
}

/// Same seed → bit-identical measurements, for every scenario.
#[test]
fn deterministic_across_all_scenarios() {
    for kind in all_scenarios() {
        let a = run(kind, 7);
        let b = run(kind, 7);
        assert_eq!(a.delivered_bytes, b.delivered_bytes, "{kind:?}");
        assert_eq!(a.receiver.breakdown, b.receiver.breakdown, "{kind:?}");
        assert_eq!(a.sender.breakdown, b.sender.breakdown, "{kind:?}");
        assert_eq!(a.retransmissions, b.retransmissions, "{kind:?}");
    }
}

/// Different seeds still produce valid (similar-magnitude) results.
#[test]
fn seed_changes_are_bounded() {
    let a = run(ScenarioKind::Single, 1);
    let b = run(ScenarioKind::Single, 999);
    let rel = (a.total_gbps - b.total_gbps).abs() / a.total_gbps;
    assert!(rel < 0.15, "seed sensitivity too high: {rel:.2}");
}

/// Physical sanity for every scenario: nothing beats the wire, CPU
/// utilizations are within core counts, fractions sum to 1.
#[test]
fn physical_bounds_hold_everywhere() {
    for kind in all_scenarios() {
        let r = run(kind, 3);
        assert!(
            r.total_gbps >= 0.0 && r.total_gbps < 100.0,
            "{kind:?}: {}",
            r.total_gbps
        );
        assert!(r.sender.cores_used <= 24.0 + 1e-6, "{kind:?}");
        assert!(r.receiver.cores_used <= 24.0 + 1e-6, "{kind:?}");
        for side in [&r.sender, &r.receiver] {
            let total = side.breakdown.total();
            if total > 0 {
                let s: f64 = hostnet::building_blocks::metrics::ALL_CATEGORIES
                    .iter()
                    .map(|&c| side.breakdown.fraction(c))
                    .sum();
                assert!((s - 1.0).abs() < 1e-9, "{kind:?}: fractions sum {s}");
            }
        }
        let miss = r.receiver.cache.miss_rate();
        assert!((0.0..=1.0).contains(&miss), "{kind:?}");
        // Per-flow bytes sum to the total delivered.
        let per_flow: u64 = r.per_flow_bytes.iter().map(|(_, b)| b).sum();
        assert_eq!(per_flow, r.delivered_bytes, "{kind:?}");
    }
}

/// Without loss injection nothing is dropped in-network. Retransmissions
/// may still occur — incast patterns legitimately overrun the Rx
/// descriptor ring — but only when ring drops actually happened.
#[test]
fn lossless_conservation() {
    for kind in all_scenarios() {
        let r = run(kind, 11);
        assert_eq!(r.wire_drops, 0, "{kind:?}");
        if r.ring_drops == 0 {
            // A handful of tail-loss-probe retransmissions are genuine
            // even without loss: TLP fires on delay-acked burst tails
            // (it beats the delayed-ACK timer in real kernels too). They
            // must stay rare.
            assert!(
                r.retransmissions < 100,
                "{kind:?}: {} spurious retransmissions",
                r.retransmissions
            );
        }
        assert!(r.delivered_bytes > 0, "{kind:?} moved no data");
    }
}

/// The measurement window is respected: doubling the window roughly
/// doubles delivered bytes (steady state), and throughput stays put.
#[test]
fn window_scaling_is_linear() {
    use hostnet::building_blocks::sim::Duration;
    let mut short = Experiment::new(ScenarioKind::Single);
    short.warmup = Duration::from_millis(10);
    short.measure = Duration::from_millis(10);
    let mut long = Experiment::new(ScenarioKind::Single);
    long.warmup = Duration::from_millis(10);
    long.measure = Duration::from_millis(20);
    let rs = short.run();
    let rl = long.run();
    let ratio = rl.delivered_bytes as f64 / rs.delivered_bytes as f64;
    assert!((1.8..2.2).contains(&ratio), "bytes ratio = {ratio:.2}");
    let thpt_rel = (rl.total_gbps - rs.total_gbps).abs() / rs.total_gbps;
    assert!(thpt_rel < 0.1, "throughput shifted {thpt_rel:.2}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Resilience: under bursty loss up to 5% — any seed, any burst
    /// length — every flow in every scenario eventually completes data and
    /// the run quiesces without tripping the watchdog. The window must
    /// outlast the worst *legitimate* silence: a flow that loses its whole
    /// initial flight waits out the 100ms initial RTO before its first
    /// successful byte.
    #[test]
    fn flows_survive_bursty_loss(
        seed in any::<u64>(),
        rate_pm in 1u32..51,
        burst in 1u32..17,
    ) {
        for kind in all_scenarios() {
            let mut exp = Experiment::new(kind).configure(|c| {
                c.seed = seed;
                c.link.loss = LossModel::bursty(rate_pm as f64 / 1000.0, burst as f64);
            });
            exp.warmup = Duration::from_millis(5);
            exp.measure = Duration::from_millis(120);
            let r = exp
                .try_run()
                .unwrap_or_else(|e| panic!("{kind:?} seed={seed}: {e}"));
            prop_assert!(r.delivered_bytes > 0, "{kind:?} seed={seed} moved no data");
            for &(flow, bytes) in r.per_flow_bytes.iter() {
                prop_assert!(
                    bytes > 0,
                    "{kind:?} seed={seed} rate={rate_pm}e-3 burst={burst}: flow {flow} wedged"
                );
            }
        }
    }
}

/// A fault plan is part of the deterministic state: the same seed and the
/// same plan reproduce a byte-identical report.
#[test]
fn fault_plans_are_deterministic() {
    let build = || {
        let mut exp = Experiment::new(ScenarioKind::Incast { flows: 4 }).configure(|c| {
            c.seed = 42;
            c.link.loss = LossModel::bursty(0.02, 8.0);
            c.link.flap = Some(PhaseSchedule::once(
                Duration::from_millis(14),
                Duration::from_micros(500),
            ));
            c.faults.ring_exhaust = Some(RingExhaust {
                window: PhaseSchedule::once(Duration::from_millis(16), Duration::from_millis(2)),
                host: 1,
            });
            c.faults.pool_pressure = Some(PoolPressure {
                window: PhaseSchedule::once(Duration::from_millis(20), Duration::from_millis(2)),
                host: 1,
            });
            c.faults.core_stall = Some(CoreStall {
                window: PhaseSchedule::once(Duration::from_millis(24), Duration::from_millis(1)),
                host: 1,
                core: 0,
            });
            c.max_backlog = 2048;
        });
        exp.warmup = Duration::from_millis(10);
        exp.measure = Duration::from_millis(20);
        exp
    };
    let a = build().try_run().expect("faulted run quiesces");
    let b = build().try_run().expect("faulted run quiesces");
    assert_eq!(a.to_json(), b.to_json(), "fault plan broke determinism");
    assert!(a.drops.total() > 0, "the plan must actually inject losses");
}

/// The watchdog never fires on healthy runs, even with a horizon far
/// tighter than the default 5s.
#[test]
fn watchdog_never_fires_on_healthy_runs() {
    for kind in all_scenarios() {
        let r = Experiment::new(kind)
            .configure(|c| {
                c.seed = 5;
                c.watchdog_horizon = Duration::from_millis(2);
            })
            .quick()
            .try_run();
        match r {
            Ok(_) => {}
            Err(e) => panic!("{kind:?}: watchdog fired on a healthy run: {e}"),
        }
    }
}

/// `hostnet help` is pinned byte for byte; its option lines come from the
/// CLI's flag tables. To accept a new text:
/// `HNS_BLESS=1 cargo test --test simulation_invariants cli_help_matches_its_golden`.
#[test]
fn cli_help_matches_its_golden() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hostnet"))
        .arg("help")
        .output()
        .expect("run hostnet");
    assert!(out.status.success(), "{out:?}");
    let got = String::from_utf8(out.stdout).expect("utf-8 help text");
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/help.txt");
    if std::env::var_os("HNS_BLESS").is_some() {
        std::fs::write(&golden, got).expect("bless: cannot write golden file");
        return;
    }
    let want = std::fs::read_to_string(&golden).expect("golden help text");
    if let Some((i, (w, g))) = want
        .lines()
        .zip(got.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
    {
        panic!(
            "help differs at line {}:\n  golden: {w}\n  got:    {g}",
            i + 1
        );
    }
    assert_eq!(got, want, "help text differs from tests/golden/help.txt");
}

#[test]
fn cli_exit_codes_name_a_stall_and_refuse_bad_sizes() {
    let hostnet = |args: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_hostnet"))
            .args(args.split_whitespace())
            .output()
            .expect("run hostnet")
    };
    // A flap that outlasts the watchdog horizon: exit 1, the trip named.
    let out = hostnet("run single --fault-flap-ms 100000 --fault-at-ms 5 --watchdog-ms 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("stalled"), "{stderr}");
    // Sizes the datapath cannot build: exit 2 with an `error:` line.
    for args in ["run single --ring 0", "run single --mtu 40"] {
        let out = hostnet(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args}: {stderr}");
    }
}

/// Drop taxonomy accounts for 100% of lost frames: the wire bucket matches
/// the link's drop counters and the ring/pool buckets match the NIC's.
#[test]
fn drop_taxonomy_accounts_for_every_lost_frame() {
    let mut exp = Experiment::new(ScenarioKind::Single).configure(|c| {
        c.seed = 9;
        // Periodic, interleaved fault windows over a long run: whatever
        // the flow's recovery state, each fault catches traffic at full
        // rate at least once, so every bucket gets populated.
        c.faults.ring_exhaust = Some(RingExhaust {
            window: PhaseSchedule {
                start: Duration::from_millis(25),
                duration: Duration::from_millis(1),
                period: Duration::from_millis(20),
            },
            host: 1,
        });
        c.faults.pool_pressure = Some(PoolPressure {
            window: PhaseSchedule {
                start: Duration::from_millis(33),
                duration: Duration::from_millis(3),
                period: Duration::from_millis(20),
            },
            host: 1,
        });
        c.link.flap = Some(PhaseSchedule {
            start: Duration::from_millis(41),
            duration: Duration::from_millis(1),
            period: Duration::from_millis(20),
        });
    });
    exp.warmup = Duration::from_millis(20);
    exp.measure = Duration::from_millis(100);
    let r = exp.try_run().expect("faulted run quiesces");
    assert!(r.drops.total() > 0, "faults must inject losses");
    assert_eq!(r.drops.wire, r.wire_drops, "wire bucket != link drops");
    assert_eq!(
        r.drops.rx_ring + r.drops.pool,
        r.ring_drops,
        "NIC buckets != ring drops"
    );
    assert!(r.drops.rx_ring > 0, "ring exhaustion must be attributed");
    assert!(r.drops.pool > 0, "pool pressure must be attributed");
}

/// Reports serialize to JSON and back without loss (EXPERIMENTS tooling).
#[test]
fn reports_round_trip_json() {
    let r = run(ScenarioKind::Single, 5);
    let json = r.to_json();
    let back = Report::from_json(&json).expect("parse");
    assert_eq!(back.delivered_bytes, r.delivered_bytes);
    assert_eq!(back.receiver.breakdown, r.receiver.breakdown);
}

/// The throughput timeline integrates back to the delivered bytes and the
/// measurement window is steady for a converged single flow.
#[test]
fn timeline_integrates_and_is_steady() {
    let r = Experiment::new(ScenarioKind::Single).run();
    assert!(!r.gbps_timeline.is_empty());
    // Integrate: each sample covers ~1ms.
    let integrated_bytes: f64 = r
        .gbps_timeline
        .iter()
        .map(|&(_, g)| g * 1e9 / 8.0 * 0.001)
        .sum();
    let rel = (integrated_bytes - r.delivered_bytes as f64).abs() / r.delivered_bytes as f64;
    assert!(rel < 0.05, "timeline does not integrate: rel {rel:.3}");
    // Post-warmup, a lossless single flow is steady: the coefficient of
    // variation of the timeline stays small.
    let xs: Vec<f64> = r.gbps_timeline.iter().map(|&(_, g)| g).collect();
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    let cv = var.sqrt() / mean;
    assert!(cv < 0.25, "unsteady measurement window: cv = {cv:.3}");
}
