//! Every table and figure of the paper's evaluation (§3), as runnable
//! experiment sets. Each function returns the reports `hostnet figures`
//! renders; EXPERIMENTS.md records paper-vs-measured for all of them.
//!
//! Figures are declared as data — a list of [`SweepPoint`]s — and
//! executed by [`run_sweep`] on `hns-par`'s work-stealing thread pool.
//! Every point is an independent, deterministic run (its own world, its
//! own RNG seeds), and results come back in declared order, so sweep
//! output is byte-identical whatever the job count. The pool size
//! defaults to 1 and is set once at startup from the CLI's `--jobs`
//! flag via [`set_jobs`]; library callers that want explicit control
//! (tests, benches) use [`run_sweep_with`].

use std::sync::atomic::{AtomicUsize, Ordering};

use hns_conn::AdmissionPolicy;
use hns_metrics::Report;
use hns_nic::SteeringMode;
use hns_proto::cc::CcAlgo;
use hns_stack::config::RcvBufPolicy;
use hns_stack::{DatapathKind, OptLevel, SimConfig};

use crate::experiment::{Experiment, ScenarioKind};
use crate::Placement;

/// Flow counts the multi-flow figures sweep (paper: 1, 8, 16, 24).
pub const FLOW_SWEEP: [u16; 4] = [1, 8, 16, 24];

/// Worker threads figure sweeps use (process-wide; see [`set_jobs`]).
static JOBS: AtomicUsize = AtomicUsize::new(1);

/// Set the sweep thread-pool size for all subsequent [`run_sweep`]
/// calls. Clamped to at least 1. The CLI calls this once at startup
/// from `--jobs`; output is identical for every value.
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs.max(1), Ordering::SeqCst);
}

/// Current sweep thread-pool size.
pub fn jobs() -> usize {
    JOBS.load(Ordering::SeqCst)
}

type ConfigureFn = Box<dyn Fn(&mut SimConfig) + Send + Sync>;

/// One data-declared point of a figure sweep: a scenario plus the
/// configuration delta and label that distinguish it from its neighbors.
/// Building is cheap; all the cost is in [`SweepPoint::run`].
pub struct SweepPoint {
    /// Report label.
    pub label: String,
    /// Traffic pattern.
    pub scenario: ScenarioKind,
    level: Option<OptLevel>,
    configure: Option<ConfigureFn>,
}

impl SweepPoint {
    /// A point running `scenario` at the default configuration.
    pub fn new(scenario: ScenarioKind, label: impl Into<String>) -> Self {
        SweepPoint {
            label: label.into(),
            scenario,
            level: None,
            configure: None,
        }
    }

    /// Run at one of the paper's incremental optimization levels.
    pub fn at_level(mut self, level: OptLevel) -> Self {
        self.level = Some(level);
        self
    }

    /// Apply a configuration delta on top of the (possibly leveled)
    /// defaults. The closure must be `Send + Sync`: sweep points are
    /// shared with pool workers.
    pub fn configure(mut self, f: impl Fn(&mut SimConfig) + Send + Sync + 'static) -> Self {
        self.configure = Some(Box::new(f));
        self
    }

    /// Materialize the [`Experiment`] this point declares.
    pub fn build(&self) -> Experiment {
        let mut e = Experiment::new(self.scenario);
        if let Some(level) = self.level {
            e = e.at_level(level);
        }
        if let Some(f) = &self.configure {
            f(&mut e.cfg);
        }
        e.labeled(self.label.clone())
    }

    /// Build and run, returning the report.
    pub fn run(&self) -> Report {
        self.build().run()
    }
}

/// Run a sweep on the process-wide pool size ([`jobs`]), results in
/// declared order.
pub fn run_sweep(points: &[SweepPoint]) -> Vec<Report> {
    run_sweep_with(jobs(), points)
}

/// Run a sweep on an explicit pool size. `jobs <= 1` is the plain
/// sequential loop; any other value produces byte-identical reports in
/// the same order (each run owns its world and RNGs, and `map_ordered`
/// collects by declared index).
pub fn run_sweep_with(jobs: usize, points: &[SweepPoint]) -> Vec<Report> {
    hns_par::map_ordered(jobs, points, |p| p.run())
}

/// Fig. 3a-d points: single flow under incremental optimizations.
pub fn fig03_points() -> Vec<SweepPoint> {
    OptLevel::ALL
        .into_iter()
        .map(|level| {
            SweepPoint::new(ScenarioKind::Single, format!("single/{}", level.label()))
                .at_level(level)
        })
        .collect()
}

/// Fig. 3a-d: single flow under incremental optimizations.
pub fn fig03_single_flow() -> Vec<Report> {
    run_sweep(&fig03_points())
}

/// Ring sizes × buffer sizes fig. 3e sweeps.
const FIG03E_RINGS: [u32; 6] = [128, 256, 512, 1024, 2048, 4096];
const FIG03E_BUFFERS: [(&str, Option<u64>); 4] = [
    ("default", None),
    ("3200KB", Some(3200 * 1024)),
    ("6400KB", Some(6400 * 1024)),
    ("12800KB", Some(12800 * 1024)),
];

/// Fig. 3e points: the full ring × buffer grid (24 runs), declared in
/// row-major order matching [`fig03e_ring_buffer`]'s rows.
pub fn fig03e_points() -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for ring in FIG03E_RINGS {
        for (label, buf) in FIG03E_BUFFERS {
            out.push(
                SweepPoint::new(ScenarioKind::Single, format!("ring{ring}/{label}")).configure(
                    move |c| {
                        c.stack.rx_descriptors = ring;
                        if let Some(b) = buf {
                            c.stack.rcvbuf = RcvBufPolicy::Fixed(b);
                        }
                    },
                ),
            );
        }
    }
    out
}

/// Fig. 3e: cache miss rate and throughput vs NIC ring size × TCP Rx
/// buffer size. Returns `(ring, buffer_label, report)` rows.
pub fn fig03e_ring_buffer() -> Vec<(u32, &'static str, Report)> {
    let meta = FIG03E_RINGS.into_iter().flat_map(|ring| {
        FIG03E_BUFFERS
            .into_iter()
            .map(move |(label, _)| (ring, label))
    });
    meta.zip(run_sweep(&fig03e_points()))
        .map(|((ring, label), r)| (ring, label, r))
        .collect()
}

/// Rx buffer sizes (KB) fig. 3f sweeps.
const FIG03F_BUFFERS_KB: [u64; 8] = [100, 200, 400, 800, 1600, 3200, 6400, 12800];

/// Fig. 3f points: one per Rx buffer size.
pub fn fig03f_points() -> Vec<SweepPoint> {
    FIG03F_BUFFERS_KB
        .into_iter()
        .map(|kb| {
            SweepPoint::new(ScenarioKind::Single, format!("rcvbuf/{kb}KB"))
                .configure(move |c| c.stack.rcvbuf = RcvBufPolicy::Fixed(kb * 1024))
        })
        .collect()
}

/// Fig. 3f: NAPI→start-of-copy latency vs TCP Rx buffer size.
/// Returns `(buffer_kb, report)` rows.
pub fn fig03f_latency() -> Vec<(u64, Report)> {
    FIG03F_BUFFERS_KB
        .into_iter()
        .zip(run_sweep(&fig03f_points()))
        .collect()
}

/// Fig. 3g points: traced one-to-one runs over the flow sweep. These
/// carry `cfg.trace` enabled, so they double as the parallel-determinism
/// check for traced runs.
pub fn fig03g_points() -> Vec<SweepPoint> {
    FLOW_SWEEP
        .into_iter()
        .map(|flows| {
            let kind = ScenarioKind::OneToOne { flows };
            SweepPoint::new(kind, format!("latency/{}", kind.label()))
                .configure(|c| c.trace = hns_trace::TraceConfig::enabled())
        })
        .collect()
}

/// Fig. 3g (ours, beyond the paper): per-stage latency breakdown from the
/// skb lifecycle tracer, swept over flow counts. Where the paper splits
/// *cycles* by component, this splits *packet time* by pipeline stage —
/// showing, e.g., socket-queue residency growing as receiver cores
/// saturate. Returns `(flows, report)` rows; each report carries
/// `stage_latency` percentiles and the end-to-end row.
pub fn fig03g_latency_breakdown() -> Vec<(u16, Report)> {
    FLOW_SWEEP
        .into_iter()
        .zip(run_sweep(&fig03g_points()))
        .collect()
}

/// Fig. 4 points: single flow, NIC-local vs NIC-remote NUMA node.
pub fn fig04_points() -> Vec<SweepPoint> {
    vec![
        SweepPoint::new(ScenarioKind::Single, "nic-local"),
        SweepPoint::new(ScenarioKind::SingleNicRemote, "nic-remote"),
    ]
}

/// Fig. 4: single flow on NIC-local vs NIC-remote NUMA node.
pub fn fig04_numa() -> Vec<Report> {
    run_sweep(&fig04_points())
}

/// Fig. 5: one-to-one. Returns `(flows, level, report)` for the
/// level-stacked throughput columns; breakdowns come from the aRFS rows.
pub fn fig05_one_to_one() -> Vec<(u16, OptLevel, Report)> {
    sweep_levels(|flows| ScenarioKind::OneToOne { flows })
}

/// Connection arrival rates (conn/s) the churn figure sweeps.
pub const CONN_RATE_SWEEP: [f64; 4] = [50e3, 100e3, 200e3, 400e3];

/// RPC payload sizes (bytes) the churn figure sweeps at a fixed rate.
pub const CONN_RPC_SIZES: [u32; 4] = [65536, 16384, 4096, 1024];

/// fig05_conn_rate points: handshake-only arrivals across the rate sweep,
/// then short RPCs over fresh connections with shrinking payloads at a
/// fixed 100k conn/s.
pub fn fig05_conn_rate_points() -> Vec<SweepPoint> {
    let mut out: Vec<SweepPoint> = CONN_RATE_SWEEP
        .into_iter()
        .map(|rate| {
            SweepPoint::new(
                ScenarioKind::Churn {
                    churn: hns_workload::churn_open_loop(rate),
                },
                format!("conn-rate/handshake/{:.0}k", rate / 1e3),
            )
        })
        .collect();
    for size in CONN_RPC_SIZES {
        out.push(SweepPoint::new(
            ScenarioKind::Churn {
                churn: hns_workload::churn_short_rpc(100e3, size),
            },
            format!("conn-rate/rpc/{size}B"),
        ));
    }
    out
}

/// Fig. 5 extension: connection-rate scaling (`hns-conn`).
///
/// The paper's workloads reuse long-lived connections, so per-connection
/// costs never show up in its breakdowns. This sweep drives open-loop
/// connection arrivals — pure handshakes at growing rates, then one-RPC
/// connections with shrinking payloads — so the reports expose where
/// cycles go when the connection lifecycle itself is the workload:
/// per-byte categories (data copy) fade and per-connection categories
/// (memory management, locking, TCP/IP state) dominate as RPCs shrink.
/// Returns `(label, report)` rows.
pub fn fig05_conn_rate() -> Vec<(String, Report)> {
    let points = fig05_conn_rate_points();
    let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
    labels.into_iter().zip(run_sweep(&points)).collect()
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

/// fig_capacity points: the policy × client-count grid, policies outermost
/// so each policy's knee reads as four consecutive rows.
pub fn fig_capacity_points() -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for policy in CAPACITY_POLICIES {
        for clients in CAPACITY_CLIENTS {
            out.push(SweepPoint::new(
                ScenarioKind::Churn {
                    churn: hns_workload::churn_capacity(clients, policy),
                },
                format!("capacity/{}/{}c", policy.label(), clients),
            ));
        }
    }
    out
}

/// Overload extension: server capacity under admission control.
///
/// Goodput and p99 handshake/RPC latency versus concurrent clients at
/// fixed cores, once per admission policy. Slow clients pin accept-queue
/// slots and socket memory for heavy-tailed think times, so past the knee
/// the policies diverge: `drop` pushes retries (and handshake tail
/// latency) onto clients, `queue` rides SYN cookies statelessly past the
/// queue bound, and `shed` refuses fast to keep the tail flat at the cost
/// of completed connections. Returns `(label, report)` rows.
pub fn fig_capacity() -> Vec<(String, Report)> {
    let points = fig_capacity_points();
    let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
    labels.into_iter().zip(run_sweep(&points)).collect()
}

/// Fan-in degrees fig_incast sweeps (sender hosts per receiver).
pub const INCAST_SENDERS: [u16; 5] = [1, 2, 4, 8, 16];

/// Shared switch buffer fig_incast configures (bytes). Shallow enough
/// that ~8 senders' initial windows overrun it.
pub const INCAST_BUFFER_BYTES: u64 = 256 * 1024;

/// Per-port ECN marking threshold for the ecn-on rows (bytes): about one
/// BDP at 100Gbps / ~5us RTT, a quarter of the shared buffer.
pub const INCAST_ECN_THRESHOLD: u64 = 64 * 1024;

/// fig_incast points: ECN off/on × fan-in degree, ECN outermost so each
/// marking mode's collapse curve reads as five consecutive rows. Every
/// point sizes the fabric to `senders + 1` hosts over 4 ECMP uplinks
/// with the shared [`INCAST_BUFFER_BYTES`] switch buffer.
pub fn fig_incast_points() -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for (mode, ecn) in [("ecn-off", None), ("ecn-on", Some(INCAST_ECN_THRESHOLD))] {
        for senders in INCAST_SENDERS {
            out.push(
                SweepPoint::new(
                    ScenarioKind::FabricIncast { senders },
                    format!("incast/{mode}/{senders}s"),
                )
                .configure(move |c| {
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

/// Fabric extension: incast collapse and ECN recovery at the ToR switch.
///
/// The paper's two-host testbed can't see the switch: every drop it
/// reports is host-side (rings, backlogs, sockets). This sweep puts `n`
/// sender hosts behind a shared-buffer ToR model and drives them into one
/// receiver. With ECN off, aggregate goodput collapses past the fan-in
/// knee — concurrent windows overrun the shallow shared buffer, the new
/// `switch_buffer` drop class fills, and p99 RPC-equivalent latency blows
/// up with retransmission timeouts. With ECN marking at one BDP of port
/// depth, senders back off on echoed marks before the buffer overflows
/// and goodput stays near the line rate. Returns `(label, report)` rows.
pub fn fig_incast() -> Vec<(String, Report)> {
    let points = fig_incast_points();
    let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
    labels.into_iter().zip(run_sweep(&points)).collect()
}

/// Scenario grid the cross-backend comparison runs every datapath
/// against: the paper's single-flow microscope plus a multi-flow
/// one-to-one so per-core effects (polling-core saturation, descriptor
/// batching) show up under contention.
pub const BACKEND_SCENARIOS: [(&str, ScenarioKind); 2] = [
    ("single", ScenarioKind::Single),
    ("o2o-8", ScenarioKind::OneToOne { flows: 8 }),
];

/// fig_backend points: the datapath × scenario grid, backends outermost
/// so each backend's rows group together.
pub fn fig_backend_points() -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for kind in DatapathKind::ALL {
        for (name, scenario) in BACKEND_SCENARIOS {
            out.push(
                SweepPoint::new(scenario, format!("backend/{}/{}", kind.label(), name))
                    .configure(move |c| c.datapath = kind),
            );
        }
    }
    out
}

/// Backend extension (§4): where do the cycles go under three datapath
/// architectures?
///
/// Reruns the paper's "where do the cycles go" question with the host
/// stack itself as the variable: the in-kernel baseline, a full TCP
/// offload (host taxonomy collapses to copy + syscall + descriptor
/// bookkeeping), and a kernel-bypass busy-poll stack (descriptor work on
/// a dedicated polling core, nothing else). Application bytes and wire
/// behaviour are identical across backends; only the host cycle ledger
/// moves. Expected ordering: bypass ≥ TOE ≥ in-kernel
/// goodput-per-host-core. Returns `(label, report)` rows.
pub fn fig_backend() -> Vec<(String, Report)> {
    let points = fig_backend_points();
    let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
    labels.into_iter().zip(run_sweep(&points)).collect()
}

/// Fig. 6: incast.
pub fn fig06_incast() -> Vec<(u16, OptLevel, Report)> {
    sweep_levels(|flows| ScenarioKind::Incast { flows })
}

/// Fig. 7: outcast. The paper reports throughput-per-*sender*-core; the
/// report's sender side carries the relevant cores/breakdown.
pub fn fig07_outcast() -> Vec<(u16, OptLevel, Report)> {
    sweep_levels(|flows| ScenarioKind::Outcast { flows })
}

/// Fig. 8: all-to-all with x = 1, 8, 16, 24 cores per side.
pub fn fig08_all_to_all() -> Vec<(u16, OptLevel, Report)> {
    sweep_levels(|x| ScenarioKind::AllToAll { x })
}

/// The flow × optimization-level grid figs. 5–8 share.
fn level_sweep_points(mk: impl Fn(u16) -> ScenarioKind) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for flows in FLOW_SWEEP {
        for level in OptLevel::ALL {
            let kind = mk(flows);
            out.push(
                SweepPoint::new(kind, format!("{}/{}", kind.label(), level.label()))
                    .at_level(level),
            );
        }
    }
    out
}

fn sweep_levels(mk: impl Fn(u16) -> ScenarioKind) -> Vec<(u16, OptLevel, Report)> {
    let meta = FLOW_SWEEP
        .into_iter()
        .flat_map(|flows| OptLevel::ALL.into_iter().map(move |level| (flows, level)));
    meta.zip(run_sweep(&level_sweep_points(mk)))
        .map(|((flows, level), r)| (flows, level, r))
        .collect()
}

/// Loss rates fig. 9 sweeps.
const FIG09_LOSS: [f64; 4] = [0.0, 1.5e-4, 1.5e-3, 1.5e-2];

/// Fig. 9 points: one per in-network loss rate.
pub fn fig09_points() -> Vec<SweepPoint> {
    FIG09_LOSS
        .into_iter()
        .map(|loss| {
            SweepPoint::new(ScenarioKind::Single, format!("loss/{loss}"))
                .configure(move |c| c.link.loss = hns_faults::LossModel::uniform(loss))
        })
        .collect()
}

/// Fig. 9: single flow under in-network loss. Returns
/// `(loss_rate, report)` rows at all optimizations.
pub fn fig09_loss() -> Vec<(f64, Report)> {
    FIG09_LOSS
        .into_iter()
        .zip(run_sweep(&fig09_points()))
        .collect()
}

/// Fig. 9 extension points: bursty loss then one-shot link flaps.
pub fn fig09b_points() -> Vec<SweepPoint> {
    use hns_faults::{LossModel, PhaseSchedule};
    use hns_sim::Duration;

    let mut out = Vec::new();
    for mean_burst in [1.0, 8.0, 32.0] {
        out.push(
            SweepPoint::new(
                ScenarioKind::Single,
                format!("burst-loss/1.5e-3x{mean_burst:.0}"),
            )
            .configure(move |c| c.link.loss = LossModel::bursty(1.5e-3, mean_burst)),
        );
    }
    for flap_us in [250u64, 1000, 4000] {
        out.push(
            SweepPoint::new(ScenarioKind::Single, format!("flap/{flap_us}us")).configure(
                move |c| {
                    // One outage in the middle of the default 30ms measurement
                    // window (warmup is 20ms).
                    c.link.flap = Some(PhaseSchedule::once(
                        Duration::from_millis(30),
                        Duration::from_micros(flap_us),
                    ));
                },
            ),
        );
    }
    out
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
pub fn fig09b_resilience() -> Vec<(String, Report)> {
    let points = fig09b_points();
    let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
    labels.into_iter().zip(run_sweep(&points)).collect()
}

/// Request sizes (KB) fig. 10a/b sweeps.
const FIG10_SIZES_KB: [u32; 4] = [4, 16, 32, 64];

/// Fig. 10a/b points: one per request size.
pub fn fig10_points() -> Vec<SweepPoint> {
    FIG10_SIZES_KB
        .into_iter()
        .map(|kb| {
            SweepPoint::new(
                ScenarioKind::RpcIncast {
                    clients: 16,
                    size: kb * 1024,
                    server: Placement::NicLocalFirst,
                },
                format!("rpc/{kb}KB"),
            )
        })
        .collect()
}

/// Fig. 10a/b: 16:1 RPC incast across request sizes.
pub fn fig10_short_flows() -> Vec<(u32, Report)> {
    FIG10_SIZES_KB
        .into_iter()
        .zip(run_sweep(&fig10_points()))
        .collect()
}

/// Fig. 10c points: 4KB RPC server NIC-local vs NIC-remote.
pub fn fig10c_points() -> Vec<SweepPoint> {
    [Placement::NicLocalFirst, Placement::NicRemote]
        .into_iter()
        .map(|server| {
            SweepPoint::new(
                ScenarioKind::RpcIncast {
                    clients: 16,
                    size: 4096,
                    server,
                },
                match server {
                    Placement::NicLocalFirst => "rpc-4KB/nic-local",
                    Placement::NicRemote => "rpc-4KB/nic-remote",
                },
            )
        })
        .collect()
}

/// Fig. 10c: 4KB RPC server on NIC-local vs NIC-remote NUMA node.
pub fn fig10c_rpc_numa() -> Vec<Report> {
    run_sweep(&fig10c_points())
}

/// Short-flow counts fig. 11 sweeps.
const FIG11_SHORTS: [u16; 4] = [0, 1, 4, 16];

/// Fig. 11 points: one long flow + n short flows.
pub fn fig11_points() -> Vec<SweepPoint> {
    FIG11_SHORTS
        .into_iter()
        .map(|shorts| {
            let kind = ScenarioKind::Mixed { shorts, size: 4096 };
            SweepPoint::new(kind, kind.label())
        })
        .collect()
}

/// Fig. 11: one long flow + n short flows on a single core pair.
pub fn fig11_mixed() -> Vec<(u16, Report)> {
    FIG11_SHORTS
        .into_iter()
        .zip(run_sweep(&fig11_points()))
        .collect()
}

/// Fig. 12 points: DCA disabled and IOMMU enabled vs the default.
pub fn fig12_points() -> Vec<SweepPoint> {
    vec![
        SweepPoint::new(ScenarioKind::Single, "default"),
        SweepPoint::new(ScenarioKind::Single, "dca-disabled").configure(|c| c.stack.dca = false),
        SweepPoint::new(ScenarioKind::Single, "iommu-enabled").configure(|c| c.stack.iommu = true),
    ]
}

/// Fig. 12: DCA disabled and IOMMU enabled vs the default, single flow.
pub fn fig12_dca_iommu() -> Vec<Report> {
    run_sweep(&fig12_points())
}

/// Congestion-control algorithms fig. 13 compares.
const FIG13_CCS: [(&str, CcAlgo); 3] = [
    ("cubic", CcAlgo::Cubic),
    ("bbr", CcAlgo::Bbr),
    ("dctcp", CcAlgo::Dctcp),
];

/// Fig. 13 points: one per congestion-control algorithm.
pub fn fig13_points() -> Vec<SweepPoint> {
    FIG13_CCS
        .into_iter()
        .map(|(name, cc)| {
            SweepPoint::new(ScenarioKind::Single, format!("cc/{name}"))
                .configure(move |c| c.stack.cc = cc)
        })
        .collect()
}

/// Fig. 13: congestion control comparison, single flow.
pub fn fig13_congestion_control() -> Vec<(&'static str, Report)> {
    FIG13_CCS
        .into_iter()
        .map(|(name, _)| name)
        .zip(run_sweep(&fig13_points()))
        .collect()
}

/// Ablation points: each design choice the figures hold fixed, varied
/// alone around the default single flow. Settings equal to the default
/// (aRFS, GRO, MTU 9000, no IRQ moderation, auto-tuned buffer) share the
/// one `ablation/default` row. The NAPI budget runs on a 16-flow incast,
/// whose flows all share one receiver core's polls.
pub fn ablation_points() -> Vec<SweepPoint> {
    let single = |name: String| SweepPoint::new(ScenarioKind::Single, format!("ablation/{name}"));
    let mut out = vec![single("default".into())];
    for (name, mode) in [
        ("rss", SteeringMode::Rss),
        ("rps", SteeringMode::Rps),
        ("rfs", SteeringMode::Rfs),
    ] {
        out.push(single(format!("steering/{name}")).configure(move |c| c.stack.steering = mode));
    }
    out.push(single("aggregation/lro".into()).configure(|c| {
        c.stack.lro = true;
        c.stack.gro = false;
    }));
    for mtu in [1500u32, 3000, 6000] {
        out.push(single(format!("mtu/{mtu}")).configure(move |c| c.stack.mtu = mtu));
    }
    for budget in [16u32, 64, 300, 1024] {
        out.push(
            SweepPoint::new(
                ScenarioKind::Incast { flows: 16 },
                format!("ablation/budget/{budget}"),
            )
            .configure(move |c| c.napi_budget = budget),
        );
    }
    for mb in [2u64, 3, 6, 12] {
        out.push(single(format!("dca/{mb}MB")).configure(move |c| c.dca_capacity = mb << 20));
    }
    for us in [10u64, 50, 200] {
        out.push(
            single(format!("coalesce/{us}us"))
                .configure(move |c| c.irq_coalesce = hns_sim::Duration::from_micros(us)),
        );
    }
    for kb in [1600u64, 3200] {
        out.push(
            single(format!("rcvbuf/{kb}KB"))
                .configure(move |c| c.stack.rcvbuf = RcvBufPolicy::Fixed(kb * 1024)),
        );
    }
    out
}

/// Ablations beyond the figures: Table 2's receive steering, footnote
/// 3's LRO, MTU, NAPI budget, the §4 DCA slice size, IRQ moderation
/// (`ethtool -C rx-usecs`) and §4's DCA-aware receive buffer, pinned
/// near the slice. Returns `(label, report)` rows.
pub fn ablations() -> Vec<(String, Report)> {
    let points = ablation_points();
    let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
    labels.into_iter().zip(run_sweep(&points)).collect()
}

#[cfg(test)]
mod tests {
    // Figure functions are exercised end-to-end by the integration tests
    // and the CLI; here we only check cheap structural properties.
    use super::*;

    #[test]
    fn flow_sweep_matches_paper() {
        assert_eq!(FLOW_SWEEP, [1, 8, 16, 24]);
    }

    #[test]
    fn fig04_runs_both_placements() {
        let rows = fig04_numa();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "nic-local");
        assert_eq!(rows[1].label, "nic-remote");
    }

    #[test]
    fn point_grids_have_expected_shapes() {
        assert_eq!(fig03_points().len(), OptLevel::ALL.len());
        assert_eq!(fig03e_points().len(), 24);
        assert_eq!(fig03e_points()[0].label, "ring128/default");
        assert_eq!(fig03e_points()[23].label, "ring4096/12800KB");
        assert_eq!(fig03f_points().len(), 8);
        assert_eq!(fig03g_points().len(), FLOW_SWEEP.len());
        assert_eq!(
            level_sweep_points(|flows| ScenarioKind::OneToOne { flows }).len(),
            FLOW_SWEEP.len() * OptLevel::ALL.len()
        );
        assert_eq!(fig09_points().len(), 4);
        assert_eq!(fig09b_points().len(), 6);
        assert_eq!(fig10_points().len(), 4);
        assert_eq!(fig10c_points().len(), 2);
        assert_eq!(fig11_points().len(), 4);
        assert_eq!(fig12_points().len(), 3);
        assert_eq!(fig13_points().len(), 3);
        let cap = fig_capacity_points();
        assert_eq!(cap.len(), CAPACITY_POLICIES.len() * CAPACITY_CLIENTS.len());
        assert_eq!(cap[0].label, "capacity/drop/125c");
        assert_eq!(cap[11].label, "capacity/shed/1000c");
        let inc = fig_incast_points();
        assert_eq!(inc.len(), 2 * INCAST_SENDERS.len());
        assert_eq!(inc[0].label, "incast/ecn-off/1s");
        assert_eq!(inc[9].label, "incast/ecn-on/16s");
        let back = fig_backend_points();
        assert_eq!(
            back.len(),
            DatapathKind::ALL.len() * BACKEND_SCENARIOS.len()
        );
        assert_eq!(back[0].label, "backend/inkernel/single");
        assert_eq!(back[5].label, "backend/bypass/o2o-8");
        let abl = ablation_points();
        assert_eq!(abl.len(), 21);
        assert_eq!(abl[0].label, "ablation/default");
        assert_eq!(abl[20].label, "ablation/rcvbuf/3200KB");
        let budget: Vec<_> = abl
            .iter()
            .filter(|p| p.label.starts_with("ablation/budget/"))
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
            assert_eq!(p.build().cfg.datapath, *kind, "{}", p.label);
        }
    }

    #[test]
    fn incast_points_size_the_fabric_to_the_fan_in() {
        for (p, senders) in fig_incast_points()
            .iter()
            .zip(INCAST_SENDERS.iter().cycle())
        {
            let f = p.build().cfg.fabric.expect("incast points set a fabric");
            assert_eq!(f.hosts, senders + 1, "{}", p.label);
            assert_eq!(f.buffer_bytes, INCAST_BUFFER_BYTES);
            assert_eq!(f.uplinks, 4);
        }
        let ecn: Vec<_> = fig_incast_points()
            .iter()
            .map(|p| p.build().cfg.fabric.unwrap().ecn_threshold_bytes)
            .collect();
        assert!(ecn[..INCAST_SENDERS.len()].iter().all(|e| e.is_none()));
        assert!(ecn[INCAST_SENDERS.len()..]
            .iter()
            .all(|e| *e == Some(INCAST_ECN_THRESHOLD)));
    }

    #[test]
    fn sweep_point_build_applies_level_and_delta() {
        let p = SweepPoint::new(ScenarioKind::Single, "x")
            .at_level(OptLevel::TsoGro)
            .configure(|c| c.stack.rx_descriptors = 77);
        let e = p.build();
        assert_eq!(e.cfg.stack.rx_descriptors, 77);
        assert_eq!(e.label.as_deref(), Some("x"));
    }

    #[test]
    fn set_jobs_clamps_to_one() {
        set_jobs(0);
        assert_eq!(jobs(), 1);
        set_jobs(4);
        assert_eq!(jobs(), 4);
        set_jobs(1);
    }
}
