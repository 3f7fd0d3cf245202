//! Every table and figure of the paper's evaluation (§3), as data.
//!
//! Each `*_points()` function declares one figure's sweep as a list of
//! configured, labeled [`Experiment`]s; [`FIGURES`] names them in the
//! order `hostnet figures` runs them, and [`run`] executes any list on
//! [`crate::par::map_ordered`]'s scoped threads. Every experiment is an
//! independent, deterministic run (its own world, its own RNG seeds), and
//! reports come back in declared order, so sweep output is byte-identical
//! whatever the job count. EXPERIMENTS.md records paper-vs-measured for
//! all of them.

use std::fmt;

use hns_conn::AdmissionPolicy;
use hns_metrics::Report;
use hns_nic::SteeringMode;
use hns_proto::cc::CcAlgo;
use hns_stack::config::RcvBufPolicy;
use hns_stack::{DatapathKind, OptLevel, RunError};

use crate::experiment::{Experiment, ScenarioKind};
use crate::Placement;

/// A figure: builds its sweep's experiments in declared order.
pub type Figure = fn() -> Vec<Experiment>;

/// Every figure `hostnet figures` knows, in the order it runs them.
pub const FIGURES: [(&str, Figure); 20] = [
    ("fig03", fig03_points),
    ("fig03e", fig03e_points),
    ("fig03f", fig03f_points),
    ("fig03g", fig03g_points),
    ("fig04", fig04_points),
    ("fig05", fig05_points),
    ("fig06", fig06_points),
    ("fig07", fig07_points),
    ("fig08", fig08_points),
    ("fig09", fig09_points),
    ("fig09b", fig09b_points),
    ("fig05c", fig05c_points),
    ("fig10", fig10_points),
    ("fig11", fig11_points),
    ("fig12", fig12_points),
    ("fig13", fig13_points),
    ("figcap", fig_capacity_points),
    ("figincast", fig_incast_points),
    ("figback", fig_backend_points),
    ("ablations", ablation_points),
];

/// A sweep experiment whose run failed, named by its report label.
#[derive(Debug)]
pub struct SweepError {
    /// Report label of the failing experiment.
    pub label: String,
    /// Why its run failed.
    pub error: RunError,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.label, self.error)
    }
}

impl std::error::Error for SweepError {}

/// Run `experiments` on up to `jobs` worker threads. Reports come back in
/// declared order and are byte-identical for every `jobs` value (each run
/// owns its world and RNGs); `jobs <= 1` is the plain sequential loop.
/// Every experiment runs; the first failure in declared order is returned.
pub fn run(jobs: usize, experiments: &[Experiment]) -> Result<Vec<Report>, SweepError> {
    crate::par::map_ordered(jobs, experiments, |e| {
        e.try_run().map_err(|error| SweepError {
            label: e.report_label(),
            error,
        })
    })
    .into_iter()
    .collect()
}

/// Flow counts the multi-flow figures sweep (paper: 1, 8, 16, 24).
pub const FLOW_SWEEP: [u16; 4] = [1, 8, 16, 24];

/// An experiment running `scenario` at the default configuration.
fn point(scenario: ScenarioKind, label: impl Into<String>) -> Experiment {
    Experiment::new(scenario).labeled(label)
}

/// Fig. 3a-d: single flow under incremental optimizations.
pub fn fig03_points() -> Vec<Experiment> {
    OptLevel::ALL
        .into_iter()
        .map(|level| {
            point(ScenarioKind::Single, format!("single/{}", level.label())).at_level(level)
        })
        .collect()
}

/// Fig. 3e: cache miss rate and throughput vs NIC ring size × TCP Rx
/// buffer size — the full grid (24 runs) in row-major ring order.
pub fn fig03e_points() -> Vec<Experiment> {
    const RINGS: [u32; 6] = [128, 256, 512, 1024, 2048, 4096];
    const BUFFERS: [(&str, Option<u64>); 4] = [
        ("default", None),
        ("3200KB", Some(3200 * 1024)),
        ("6400KB", Some(6400 * 1024)),
        ("12800KB", Some(12800 * 1024)),
    ];
    let mut out = Vec::new();
    for ring in RINGS {
        for (label, buf) in BUFFERS {
            out.push(
                point(ScenarioKind::Single, format!("ring{ring}/{label}")).configure(|c| {
                    c.stack.rx_descriptors = ring;
                    if let Some(b) = buf {
                        c.stack.rcvbuf = RcvBufPolicy::Fixed(b);
                    }
                }),
            );
        }
    }
    out
}

/// Fig. 3f: NAPI→start-of-copy latency vs TCP Rx buffer size, one run
/// per buffer size.
pub fn fig03f_points() -> Vec<Experiment> {
    [100u64, 200, 400, 800, 1600, 3200, 6400, 12800]
        .into_iter()
        .map(|kb| {
            point(ScenarioKind::Single, format!("rcvbuf/{kb}KB"))
                .configure(|c| c.stack.rcvbuf = RcvBufPolicy::Fixed(kb * 1024))
        })
        .collect()
}

/// Fig. 3g (ours, beyond the paper): per-stage latency breakdown from the
/// skb lifecycle tracer, swept over flow counts. Where the paper splits
/// *cycles* by component, this splits *packet time* by pipeline stage —
/// showing, e.g., socket-queue residency growing as receiver cores
/// saturate. Each report carries `stage_latency` percentiles and the
/// end-to-end row. These runs carry `cfg.trace` enabled, so they double
/// as the parallel-determinism check for traced runs.
pub fn fig03g_points() -> Vec<Experiment> {
    FLOW_SWEEP
        .into_iter()
        .map(|flows| {
            let kind = ScenarioKind::OneToOne { flows };
            point(kind, format!("latency/{}", kind.label()))
                .configure(|c| c.trace = hns_trace::TraceConfig::enabled())
        })
        .collect()
}

/// Fig. 4: single flow on NIC-local vs NIC-remote NUMA node.
pub fn fig04_points() -> Vec<Experiment> {
    vec![
        point(ScenarioKind::Single, "nic-local"),
        point(ScenarioKind::SingleNicRemote, "nic-remote"),
    ]
}

/// Fig. 5: one-to-one over the flow × level grid; the breakdowns come
/// from the aRFS rows.
pub fn fig05_points() -> Vec<Experiment> {
    level_sweep_points(|flows| ScenarioKind::OneToOne { flows })
}

/// Fig. 6: incast over the flow × level grid.
pub fn fig06_points() -> Vec<Experiment> {
    level_sweep_points(|flows| ScenarioKind::Incast { flows })
}

/// Fig. 7: outcast over the flow × level grid. The paper reports
/// throughput-per-*sender*-core; the report's sender side carries the
/// relevant cores/breakdown.
pub fn fig07_points() -> Vec<Experiment> {
    level_sweep_points(|flows| ScenarioKind::Outcast { flows })
}

/// Fig. 8: all-to-all with x = 1, 8, 16, 24 cores per side, at every
/// optimization level.
pub fn fig08_points() -> Vec<Experiment> {
    level_sweep_points(|x| ScenarioKind::AllToAll { x })
}

/// The flow × optimization-level grid figs. 5–8 share, flows outermost.
fn level_sweep_points(mk: impl Fn(u16) -> ScenarioKind) -> Vec<Experiment> {
    let mut out = Vec::new();
    for flows in FLOW_SWEEP {
        for level in OptLevel::ALL {
            let kind = mk(flows);
            out.push(point(kind, format!("{}/{}", kind.label(), level.label())).at_level(level));
        }
    }
    out
}

/// Connection arrival rates (conn/s) the churn figure sweeps.
pub const CONN_RATE_SWEEP: [f64; 4] = [50e3, 100e3, 200e3, 400e3];

/// RPC payload sizes (bytes) the churn figure sweeps at a fixed rate.
pub const CONN_RPC_SIZES: [u32; 4] = [65536, 16384, 4096, 1024];

/// Fig. 5 extension: connection-rate scaling (`hns-conn`).
///
/// The paper's workloads reuse long-lived connections, so per-connection
/// costs never show up in its breakdowns. This sweep drives open-loop
/// connection arrivals — pure handshakes at growing rates, then one-RPC
/// connections with shrinking payloads at a fixed 100k conn/s — so the
/// reports expose where cycles go when the connection lifecycle itself is
/// the workload: per-byte categories (data copy) fade and per-connection
/// categories (memory management, locking, TCP/IP state) dominate as RPCs
/// shrink.
pub fn fig05c_points() -> Vec<Experiment> {
    let mut out: Vec<Experiment> = CONN_RATE_SWEEP
        .into_iter()
        .map(|rate| {
            point(
                ScenarioKind::Churn {
                    churn: hns_workload::churn_open_loop(rate),
                },
                format!("conn-rate/handshake/{:.0}k", rate / 1e3),
            )
        })
        .collect();
    for size in CONN_RPC_SIZES {
        out.push(point(
            ScenarioKind::Churn {
                churn: hns_workload::churn_short_rpc(100e3, size),
            },
            format!("conn-rate/rpc/{size}B"),
        ));
    }
    out
}

/// Concurrent-client counts fig_capacity sweeps at fixed server cores
/// (each contributes [`hns_workload::CAPACITY_CLIENT_CPS`] attempts/s).
pub const CAPACITY_CLIENTS: [u32; 4] = [125, 250, 500, 1000];

/// Admission policies fig_capacity compares at every client count.
pub const CAPACITY_POLICIES: [AdmissionPolicy; 3] = [
    AdmissionPolicy::Drop,
    AdmissionPolicy::Queue,
    AdmissionPolicy::Shed,
];

/// Overload extension: server capacity under admission control.
///
/// Goodput and p99 handshake/RPC latency versus concurrent clients at
/// fixed cores, once per admission policy (policies outermost, so each
/// policy's knee reads as four consecutive rows). Slow clients pin
/// accept-queue slots and socket memory for heavy-tailed think times, so
/// past the knee the policies diverge: `drop` pushes retries (and
/// handshake tail latency) onto clients, `queue` rides SYN cookies
/// statelessly past the queue bound, and `shed` refuses fast to keep the
/// tail flat at the cost of completed connections.
pub fn fig_capacity_points() -> Vec<Experiment> {
    let mut out = Vec::new();
    for policy in CAPACITY_POLICIES {
        for clients in CAPACITY_CLIENTS {
            out.push(point(
                ScenarioKind::Churn {
                    churn: hns_workload::churn_capacity(clients, policy),
                },
                format!("capacity/{}/{}c", policy.label(), clients),
            ));
        }
    }
    out
}

/// Fan-in degrees fig_incast sweeps (sender hosts per receiver).
pub const INCAST_SENDERS: [u16; 5] = [1, 2, 4, 8, 16];

/// Shared switch buffer fig_incast configures (bytes). Shallow enough
/// that ~8 senders' initial windows overrun it.
pub const INCAST_BUFFER_BYTES: u64 = 256 * 1024;

/// Per-port ECN marking threshold for the ecn-on rows (bytes): about one
/// BDP at 100Gbps / ~5us RTT, a quarter of the shared buffer.
pub const INCAST_ECN_THRESHOLD: u64 = 64 * 1024;

/// Fabric extension: incast collapse and ECN recovery at the ToR switch.
///
/// The paper's two-host testbed can't see the switch: every drop it
/// reports is host-side (rings, backlogs, sockets). This sweep puts `n`
/// sender hosts behind a shared-buffer ToR model and drives them into one
/// receiver, ECN off then on (so each marking mode's collapse curve reads
/// as five consecutive rows). Every point sizes the fabric to
/// `senders + 1` hosts over 4 ECMP uplinks with the shared
/// [`INCAST_BUFFER_BYTES`] switch buffer. With ECN off, aggregate goodput
/// collapses past the fan-in knee — concurrent windows overrun the
/// shallow shared buffer, the `switch_buffer` drop class fills, and p99
/// RPC-equivalent latency blows up with retransmission timeouts. With ECN
/// marking at one BDP of port depth, senders back off on echoed marks
/// before the buffer overflows and goodput stays near the line rate.
pub fn fig_incast_points() -> Vec<Experiment> {
    let mut out = Vec::new();
    for (mode, ecn) in [("ecn-off", None), ("ecn-on", Some(INCAST_ECN_THRESHOLD))] {
        for senders in INCAST_SENDERS {
            out.push(
                point(
                    ScenarioKind::FabricIncast { senders },
                    format!("incast/{mode}/{senders}s"),
                )
                .configure(|c| {
                    let mut f = hns_stack::FabricConfig::neutral((senders + 1).max(2));
                    f.uplinks = 4;
                    f.buffer_bytes = INCAST_BUFFER_BYTES;
                    f.ecn_threshold_bytes = ecn;
                    c.fabric = Some(f);
                }),
            );
        }
    }
    out
}

/// Scenario grid the cross-backend comparison runs every datapath
/// against: the paper's single-flow microscope plus a multi-flow
/// one-to-one so per-core effects (polling-core saturation, descriptor
/// batching) show up under contention.
pub const BACKEND_SCENARIOS: [(&str, ScenarioKind); 2] = [
    ("single", ScenarioKind::Single),
    ("o2o-8", ScenarioKind::OneToOne { flows: 8 }),
];

/// Backend extension (§4): where do the cycles go under three datapath
/// architectures?
///
/// Reruns the paper's "where do the cycles go" question with the host
/// stack itself as the variable: the in-kernel baseline, a full TCP
/// offload (host taxonomy collapses to copy + syscall + descriptor
/// bookkeeping), and a kernel-bypass busy-poll stack (descriptor work on
/// a dedicated polling core, nothing else), backends outermost so each
/// backend's rows group together. Application bytes and wire behaviour
/// are identical across backends; only the host cycle ledger moves.
/// Expected ordering: bypass ≥ TOE ≥ in-kernel goodput-per-host-core.
pub fn fig_backend_points() -> Vec<Experiment> {
    let mut out = Vec::new();
    for kind in DatapathKind::ALL {
        for (name, scenario) in BACKEND_SCENARIOS {
            out.push(
                point(scenario, format!("backend/{}/{}", kind.label(), name))
                    .configure(|c| c.datapath = kind),
            );
        }
    }
    out
}

/// Fig. 9: single flow under in-network loss, one run per loss rate, at
/// all optimizations.
pub fn fig09_points() -> Vec<Experiment> {
    [0.0, 1.5e-4, 1.5e-3, 1.5e-2]
        .into_iter()
        .map(|loss| {
            point(ScenarioKind::Single, format!("loss/{loss}"))
                .configure(|c| c.link.loss = hns_faults::LossModel::uniform(loss))
        })
        .collect()
}

/// Fig. 9 extension: resilience under *bursty* loss and link flaps.
///
/// The paper's Fig. 9 sweeps only uniform random loss. Real networks lose
/// frames in bursts (shallow-buffer overflow) and in contiguous outages
/// (link flaps). This sweep holds the long-run loss rate at the paper's
/// 1.5e-3 midpoint while growing the mean burst length, then injects
/// one-shot flaps of increasing duration mid-measurement. Each report's
/// drop taxonomy attributes every lost frame, so the rows show both the
/// throughput cost of burstiness and where the losses landed.
pub fn fig09b_points() -> Vec<Experiment> {
    use hns_faults::{LossModel, PhaseSchedule};
    use hns_sim::Duration;

    let mut out = Vec::new();
    for mean_burst in [1.0, 8.0, 32.0] {
        out.push(
            point(
                ScenarioKind::Single,
                format!("burst-loss/1.5e-3x{mean_burst:.0}"),
            )
            .configure(|c| c.link.loss = LossModel::bursty(1.5e-3, mean_burst)),
        );
    }
    for flap_us in [250u64, 1000, 4000] {
        out.push(
            point(ScenarioKind::Single, format!("flap/{flap_us}us")).configure(|c| {
                // One outage in the middle of the default 30ms measurement
                // window (warmup is 20ms).
                c.link.flap = Some(PhaseSchedule::once(
                    Duration::from_millis(30),
                    Duration::from_micros(flap_us),
                ));
            }),
        );
    }
    out
}

/// Fig. 10: 16:1 RPC incast — one run per request size (10a/b), then the
/// 4KB RPC server on the NIC-local vs NIC-remote NUMA node (10c).
pub fn fig10_points() -> Vec<Experiment> {
    let rpc = |size: u32, server| ScenarioKind::RpcIncast {
        clients: 16,
        size,
        server,
    };
    let mut out: Vec<Experiment> = [4u32, 16, 32, 64]
        .into_iter()
        .map(|kb| {
            point(
                rpc(kb * 1024, Placement::NicLocalFirst),
                format!("rpc/{kb}KB"),
            )
        })
        .collect();
    out.push(point(
        rpc(4096, Placement::NicLocalFirst),
        "rpc-4KB/nic-local",
    ));
    out.push(point(rpc(4096, Placement::NicRemote), "rpc-4KB/nic-remote"));
    out
}

/// Fig. 11: one long flow + n short flows on a single core pair.
pub fn fig11_points() -> Vec<Experiment> {
    [0u16, 1, 4, 16]
        .into_iter()
        .map(|shorts| {
            let kind = ScenarioKind::Mixed { shorts, size: 4096 };
            point(kind, kind.label())
        })
        .collect()
}

/// Fig. 12: DCA disabled and IOMMU enabled vs the default, single flow.
pub fn fig12_points() -> Vec<Experiment> {
    vec![
        point(ScenarioKind::Single, "default"),
        point(ScenarioKind::Single, "dca-disabled").configure(|c| c.stack.dca = false),
        point(ScenarioKind::Single, "iommu-enabled").configure(|c| c.stack.iommu = true),
    ]
}

/// Fig. 13: congestion control comparison, single flow, one run per
/// algorithm.
pub fn fig13_points() -> Vec<Experiment> {
    [
        ("cubic", CcAlgo::Cubic),
        ("bbr", CcAlgo::Bbr),
        ("dctcp", CcAlgo::Dctcp),
    ]
    .into_iter()
    .map(|(name, cc)| {
        point(ScenarioKind::Single, format!("cc/{name}")).configure(|c| c.stack.cc = cc)
    })
    .collect()
}

/// Ablations beyond the figures: Table 2's receive steering, footnote
/// 3's LRO, MTU, NAPI budget, the §4 DCA slice size, IRQ moderation
/// (`ethtool -C rx-usecs`) and §4's DCA-aware receive buffer, pinned
/// near the slice — each design choice the figures hold fixed, varied
/// alone around the default single flow. Settings equal to the default
/// (aRFS, GRO, MTU 9000, no IRQ moderation, auto-tuned buffer) share the
/// one `ablation/default` row. The NAPI budget runs on a 16-flow incast,
/// whose flows all share one receiver core's polls.
pub fn ablation_points() -> Vec<Experiment> {
    let single = |name: String| point(ScenarioKind::Single, format!("ablation/{name}"));
    let mut out = vec![single("default".into())];
    for (name, mode) in [
        ("rss", SteeringMode::Rss),
        ("rps", SteeringMode::Rps),
        ("rfs", SteeringMode::Rfs),
    ] {
        out.push(single(format!("steering/{name}")).configure(|c| c.stack.steering = mode));
    }
    out.push(single("aggregation/lro".into()).configure(|c| {
        c.stack.lro = true;
        c.stack.gro = false;
    }));
    for mtu in [1500u32, 3000, 6000] {
        out.push(single(format!("mtu/{mtu}")).configure(|c| c.stack.mtu = mtu));
    }
    for budget in [16u32, 64, 300, 1024] {
        out.push(
            point(
                ScenarioKind::Incast { flows: 16 },
                format!("ablation/budget/{budget}"),
            )
            .configure(|c| c.napi_budget = budget),
        );
    }
    for mb in [2u64, 3, 6, 12] {
        out.push(single(format!("dca/{mb}MB")).configure(|c| c.dca_capacity = mb << 20));
    }
    for us in [10u64, 50, 200] {
        out.push(
            single(format!("coalesce/{us}us"))
                .configure(|c| c.irq_coalesce = hns_sim::Duration::from_micros(us)),
        );
    }
    for kb in [1600u64, 3200] {
        out.push(
            single(format!("rcvbuf/{kb}KB"))
                .configure(|c| c.stack.rcvbuf = RcvBufPolicy::Fixed(kb * 1024)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    // Figures are exercised end-to-end by the integration tests and the
    // CLI; here we check the registry, the runner's error path and cheap
    // structural properties of the point lists.
    use super::*;

    fn labels(points: &[Experiment]) -> Vec<String> {
        points.iter().map(Experiment::report_label).collect()
    }

    #[test]
    fn flow_sweep_matches_paper() {
        assert_eq!(FLOW_SWEEP, [1, 8, 16, 24]);
    }

    #[test]
    fn registry_names_and_labels_are_unique() {
        let mut names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIGURES.len(), "duplicate figure name");
        for (name, points) in FIGURES {
            let mut l = labels(&points());
            assert!(!l.is_empty(), "{name} declares no points");
            l.sort();
            l.dedup();
            assert_eq!(l.len(), points().len(), "{name} repeats a label");
        }
    }

    #[test]
    fn fig04_runs_both_placements() {
        let rows = run(1, &fig04_points()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "nic-local");
        assert_eq!(rows[1].label, "nic-remote");
    }

    #[test]
    fn a_failing_point_is_named_not_panicked() {
        // A one-host fabric is a `BadTopology` run error; the sweep must
        // hand it back labeled, at any job count.
        let mut points: Vec<Experiment> = fig04_points().into_iter().map(|e| e.quick()).collect();
        points.insert(
            1,
            point(ScenarioKind::Single, "bad/one-host-fabric")
                .quick()
                .configure(|c| c.fabric = Some(hns_stack::FabricConfig::neutral(1))),
        );
        for jobs in [1, 2] {
            let err = run(jobs, &points).unwrap_err();
            assert_eq!(err.label, "bad/one-host-fabric", "jobs {jobs}");
            assert!(
                err.to_string().starts_with("bad/one-host-fabric: "),
                "{err}"
            );
        }
    }

    #[test]
    fn point_grids_have_expected_shapes() {
        assert_eq!(fig03_points().len(), OptLevel::ALL.len());
        let grid = labels(&fig03e_points());
        assert_eq!(grid.len(), 24);
        assert_eq!(grid[0], "ring128/default");
        assert_eq!(grid[23], "ring4096/12800KB");
        assert_eq!(fig03f_points().len(), 8);
        assert_eq!(fig03g_points().len(), FLOW_SWEEP.len());
        assert_eq!(fig05_points().len(), FLOW_SWEEP.len() * OptLevel::ALL.len());
        assert_eq!(fig09_points().len(), 4);
        assert_eq!(fig09b_points().len(), 6);
        let rpc = labels(&fig10_points());
        assert_eq!(rpc.len(), 6);
        assert_eq!(rpc[3], "rpc/64KB");
        assert_eq!(rpc[5], "rpc-4KB/nic-remote");
        assert_eq!(fig11_points().len(), 4);
        assert_eq!(fig12_points().len(), 3);
        assert_eq!(fig13_points().len(), 3);
        let cap = labels(&fig_capacity_points());
        assert_eq!(cap.len(), CAPACITY_POLICIES.len() * CAPACITY_CLIENTS.len());
        assert_eq!(cap[0], "capacity/drop/125c");
        assert_eq!(cap[11], "capacity/shed/1000c");
        let inc = labels(&fig_incast_points());
        assert_eq!(inc.len(), 2 * INCAST_SENDERS.len());
        assert_eq!(inc[0], "incast/ecn-off/1s");
        assert_eq!(inc[9], "incast/ecn-on/16s");
        let back = labels(&fig_backend_points());
        assert_eq!(
            back.len(),
            DatapathKind::ALL.len() * BACKEND_SCENARIOS.len()
        );
        assert_eq!(back[0], "backend/inkernel/single");
        assert_eq!(back[5], "backend/bypass/o2o-8");
        let abl = ablation_points();
        assert_eq!(abl.len(), 21);
        assert_eq!(abl[0].report_label(), "ablation/default");
        assert_eq!(abl[20].report_label(), "ablation/rcvbuf/3200KB");
        let budget: Vec<_> = abl
            .iter()
            .filter(|p| p.report_label().starts_with("ablation/budget/"))
            .collect();
        assert_eq!(budget.len(), 4);
        assert!(budget
            .iter()
            .all(|p| p.scenario == ScenarioKind::Incast { flows: 16 }));
    }

    #[test]
    fn backend_points_set_the_datapath() {
        for (p, kind) in fig_backend_points()
            .iter()
            .zip(DatapathKind::ALL.iter().flat_map(|k| [k; 2]))
        {
            assert_eq!(p.cfg.datapath, *kind, "{}", p.report_label());
        }
    }

    #[test]
    fn incast_points_size_the_fabric_to_the_fan_in() {
        for (p, senders) in fig_incast_points()
            .iter()
            .zip(INCAST_SENDERS.iter().cycle())
        {
            let f = p.cfg.fabric.expect("incast points set a fabric");
            assert_eq!(f.hosts, senders + 1, "{}", p.report_label());
            assert_eq!(f.buffer_bytes, INCAST_BUFFER_BYTES);
            assert_eq!(f.uplinks, 4);
        }
        let ecn: Vec<_> = fig_incast_points()
            .iter()
            .map(|p| p.cfg.fabric.unwrap().ecn_threshold_bytes)
            .collect();
        assert!(ecn[..INCAST_SENDERS.len()].iter().all(|e| e.is_none()));
        assert!(ecn[INCAST_SENDERS.len()..]
            .iter()
            .all(|e| *e == Some(INCAST_ECN_THRESHOLD)));
    }
}
