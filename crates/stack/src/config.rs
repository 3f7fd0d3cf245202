//! Experiment configuration: every knob the paper turns.

use hns_faults::FaultConfig;
use hns_mem::numa::Topology;
use hns_nic::link::LinkConfig;
use hns_nic::steering::SteeringMode;
use hns_nic::{MAX_AGGREGATE, MTU_JUMBO, MTU_STANDARD};
use hns_proto::cc::CcAlgo;
use hns_proto::sender::SNDBUF_MAX;
use hns_sim::Duration;

use crate::fabric::MAX_HOSTS;
use crate::watchdog::{RunError, RunErrorKind};

/// The paper's incremental optimization levels (Fig. 3a columns): each
/// level enables everything the previous one does plus one more feature.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OptLevel {
    /// No optimizations: no GSO/TSO, no GRO, 1500B MTU, worst-case IRQ
    /// steering (the paper's modified-kernel "No Opt." baseline).
    NoOpt,
    /// + TSO at the sender, GRO at the receiver.
    TsoGro,
    /// + 9000B jumbo frames.
    Jumbo,
    /// + accelerated receive flow steering (and with it effective DCA).
    Arfs,
}

impl OptLevel {
    /// All levels in the order the paper's figures show them.
    pub const ALL: [OptLevel; 4] = [
        OptLevel::NoOpt,
        OptLevel::TsoGro,
        OptLevel::Jumbo,
        OptLevel::Arfs,
    ];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::NoOpt => "no-opt",
            OptLevel::TsoGro => "+tso/gro",
            OptLevel::Jumbo => "+jumbo",
            OptLevel::Arfs => "+arfs",
        }
    }
}

/// Which datapath architecture carries the flows (§4 "possible future
/// directions" — the cross-backend comparison the `fig_backend` family
/// sweeps). Selects *where host cycles are charged*, never what moves:
/// protocol state machines, descriptor rings, page pools and the wire
/// model behave identically under every backend, so the conservation
/// ledgers hold without per-backend cases.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DatapathKind {
    /// The kernel stack modeled throughout the paper: syscalls, data
    /// copies, skb management, softirq/NAPI processing, TCP/IP protocol
    /// work all charged to host cores.
    InKernel,
    /// Full TCP offload (FlexTOE / PnO-TCP style): handshake,
    /// segmentation, aggregation, ACK clocking and retransmit state live
    /// on-NIC. The host still issues syscalls and copies payload between
    /// application buffers and DMA memory, but sees only descriptor-ring
    /// completions — no skb, no softirq protocol work.
    ToeOffload,
    /// Kernel-bypass busy-poll path (DPDK-class): a dedicated polling
    /// core harvests descriptors directly from pre-registered zero-copy
    /// buffers. No syscalls, no copies, no interrupts, no skb.
    UserBypass,
}

impl DatapathKind {
    /// All backends in the order `fig_backend` reports them.
    pub const ALL: [DatapathKind; 3] = [
        DatapathKind::InKernel,
        DatapathKind::ToeOffload,
        DatapathKind::UserBypass,
    ];

    /// Stable label used in figure rows and CLI parsing.
    pub fn label(self) -> &'static str {
        match self {
            DatapathKind::InKernel => "inkernel",
            DatapathKind::ToeOffload => "toe",
            DatapathKind::UserBypass => "bypass",
        }
    }

    /// Parse a CLI spelling. Accepts the canonical labels plus a few
    /// forgiving aliases.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "inkernel" | "in-kernel" | "kernel" => Some(DatapathKind::InKernel),
            "toe" | "offload" | "toe-offload" => Some(DatapathKind::ToeOffload),
            "bypass" | "userbypass" | "user-bypass" | "dpdk" => Some(DatapathKind::UserBypass),
            _ => None,
        }
    }
}

/// Receive-buffer sizing policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RcvBufPolicy {
    /// Linux dynamic right-sizing with the default 6MB cap.
    Auto,
    /// Fixed size in bytes (the Fig. 3e/3f sweeps).
    Fixed(u64),
}

/// Host-stack feature configuration (shared by both hosts in a run).
#[derive(Clone, Copy, Debug)]
pub struct StackConfig {
    /// Sender segmentation offload: TCP hands the driver
    /// [`MAX_AGGREGATE`]-byte skbs. Off, as in the paper's No-Opt
    /// baseline, TCP emits MTU-sized skbs.
    pub tso: bool,
    /// Receiver software aggregation.
    pub gro: bool,
    /// Receiver *hardware* aggregation (LRO) — replaces GRO when set;
    /// aggregation becomes CPU-free (the paper's footnote 3 "~55Gbps with
    /// LRO" variant).
    pub lro: bool,
    /// MTU payload bytes ([`MTU_STANDARD`] or [`MTU_JUMBO`]).
    pub mtu: u32,
    /// Receive steering mechanism.
    pub steering: SteeringMode,
    /// DDIO/DCA enabled (§3.8 disables it).
    pub dca: bool,
    /// IOMMU enabled (§3.9 enables it).
    pub iommu: bool,
    /// NIC Rx descriptor count (Fig. 3e sweeps 128–4096). Default 512 —
    /// the paper identifies ≤512 descriptors (≈4MB of buffer footprint)
    /// as the point below which descriptor-pool conflicts stay negligible.
    pub rx_descriptors: u32,
    /// Receive buffer sizing.
    pub rcvbuf: RcvBufPolicy,
    /// Congestion control algorithm.
    pub cc: CcAlgo,
    /// Sender-side zero-copy (`MSG_ZEROCOPY`, kernel ≥4.14, paper §4):
    /// the user→kernel payload copy is replaced by per-page pinning and a
    /// completion notification.
    pub zerocopy_tx: bool,
    /// Receiver-side zero-copy (TCP `mmap` receive, kernel ≥4.18, paper
    /// §4): the kernel→user payload copy is replaced by per-page
    /// remapping. Requires page-aligned reception; the paper notes it
    /// needs non-trivial application changes.
    pub zerocopy_rx: bool,
}

impl StackConfig {
    /// Configuration for one of the paper's incremental optimization
    /// levels, everything else at defaults.
    pub fn at_level(level: OptLevel) -> Self {
        let mut cfg = StackConfig {
            tso: false,
            gro: false,
            lro: false,
            mtu: MTU_STANDARD,
            steering: SteeringMode::Rss,
            dca: true,
            iommu: false,
            rx_descriptors: 512,
            rcvbuf: RcvBufPolicy::Auto,
            cc: CcAlgo::Cubic,
            zerocopy_tx: false,
            zerocopy_rx: false,
        };
        match level {
            OptLevel::NoOpt => {}
            OptLevel::TsoGro => {
                cfg.tso = true;
                cfg.gro = true;
            }
            OptLevel::Jumbo => {
                cfg.tso = true;
                cfg.gro = true;
                cfg.mtu = MTU_JUMBO;
            }
            OptLevel::Arfs => {
                cfg.tso = true;
                cfg.gro = true;
                cfg.mtu = MTU_JUMBO;
                cfg.steering = SteeringMode::Arfs;
            }
        }
        cfg
    }

    /// All optimizations on (the default for most experiments).
    pub fn all_opts() -> Self {
        Self::at_level(OptLevel::Arfs)
    }

    /// MSS: MTU minus protocol headers.
    pub fn mss(&self) -> u32 {
        self.mtu - 52
    }

    /// Largest skb the sender TCP layer emits per transmission.
    pub fn max_tx_payload(&self) -> u32 {
        if self.tso {
            MAX_AGGREGATE
        } else {
            self.mss()
        }
    }
}

impl Default for StackConfig {
    fn default() -> Self {
        Self::all_opts()
    }
}

/// Whole-simulation configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Stack features (same on both hosts, like the paper's testbed).
    pub stack: StackConfig,
    /// Datapath backend (same on both hosts). [`DatapathKind::InKernel`]
    /// reproduces the legacy pipeline bit-for-bit.
    pub datapath: DatapathKind,
    /// NUMA topology of each host.
    pub topology: Topology,
    /// The wire's rate, propagation and in-network faults (loss, flaps,
    /// latency spikes), applied at every egress port of the fabric.
    pub link: LinkConfig,
    /// The ToR switch every world's hosts sit behind
    /// ([`crate::fabric::Fabric`]). `None` (the default) builds
    /// [`crate::fabric::FabricConfig::neutral`]`(2)`: two hosts, no uplinks,
    /// an infinite buffer and no marking, frame-for-frame the paper's
    /// back-to-back cable. `Some` adds uplinks, a shared buffer or ECN
    /// marking and sizes the world to `fabric.hosts` hosts; the ports
    /// still run at [`SimConfig::link`]'s rate and suffer its faults.
    pub fabric: Option<crate::fabric::FabricConfig>,
    /// DCA-usable cache capacity in bytes (≈18% of L3).
    pub dca_capacity: u64,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// NAPI budget in frames per poll cycle (Linux netdev_budget = 300).
    pub napi_budget: u32,
    /// Frames processed per softirq *step* (sub-batch granularity for the
    /// scheduler; Linux polls in per-queue batches of 64).
    pub napi_batch: u32,
    /// Application `write()` size for long flows (iPerf default: 128KB).
    pub write_size: u32,
    /// Interrupt moderation (`ethtool -C rx-usecs`): the NIC delays the
    /// IRQ after the first unmasked frame by this much, batching further
    /// arrivals into one interrupt. Zero (the default here, and typical
    /// with NAPI doing the real coalescing) fires immediately.
    pub irq_coalesce: Duration,
    /// Per-skb lifecycle tracing (stage stamps, `hns-trace`). Disabled by
    /// default; when off every hook is a single dead branch.
    pub trace: hns_trace::TraceConfig,
    /// Per-core softirq backlog cap in frames (`netdev_max_backlog`-style):
    /// arrivals beyond it are dropped before consuming a descriptor and
    /// attributed to the `gro_overflow` bucket. Zero (the default, matching
    /// NAPI where the ring itself bounds the backlog) disables the cap;
    /// fault experiments set it so stalled cores shed load visibly.
    pub max_backlog: u32,
    /// Deterministic fault plan (resource faults; wire faults live in
    /// [`LinkConfig`]). Default injects nothing.
    pub faults: FaultConfig,
    /// Connection-churn workload (`hns-conn`): open-loop connection
    /// arrivals with full SYN/accept/FIN lifecycles. `None` (the default)
    /// runs no churn and leaves the engine entirely out of the event loop.
    pub churn: Option<hns_conn::ChurnConfig>,
    /// Streaming telemetry (`hns-monitor`): fold sampled stage residencies,
    /// goodput, drop deltas and churn counters into quantile sketches at
    /// every autotune tick and emit interval snapshots. `None` (the
    /// default) keeps the monitor entirely out of the loop, so every
    /// report stays byte-identical to an unmonitored run.
    pub monitor: Option<hns_monitor::MonitorConfig>,
    /// Run watchdog: declare the run wedged if nothing moves — no wire
    /// frames, no delivered bytes, no retransmissions — for this much
    /// sim time while flows still have outstanding data. Must exceed the
    /// longest legitimate silence (deepest RTO backoff the fault plan can
    /// provoke). `Duration::ZERO` disables the stall check.
    pub watchdog_horizon: Duration,
    /// Audit mode: check conservation laws (`hns-audit`) at every autotune
    /// tick and at teardown, tripping
    /// [`crate::RunErrorKind::InvariantViolation`] on the first imbalance.
    /// Off by default — the ledgers cost a few counters per event.
    pub audit: bool,
    /// Audit self-test hook: consume one Rx descriptor on host 1 at the end
    /// of warmup without delivering its frame, deliberately unbalancing the
    /// frame ledgers. Exists so tests and the fuzzer's bisection can prove a
    /// broken ledger is *caught*; never set outside audit tests.
    pub inject_rx_leak: bool,
}

impl SimConfig {
    /// Number of hosts in the world: `fabric.hosts`, or two on the
    /// default neutral fabric.
    pub fn hosts(&self) -> usize {
        self.fabric.map_or(2, |f| f.hosts as usize)
    }

    /// Reject every plan a run cannot honour, before anything is
    /// simulated: the fault plan (including the stalled core's range, the
    /// wire's loss rate in [0, 1) and the link's flap and latency-spike
    /// windows), the churn and overload plan (which only the in-kernel
    /// datapath prices), the tracer's sampling, the monitor (which reads
    /// the tracer's residencies, so needs it on), the link rate, the
    /// fabric size, the host sizing (an MTU in `MTU_STANDARD..=MTU_JUMBO`,
    /// at least one Rx descriptor, and a write that fits twice in the send
    /// buffer), and a second NUMA node for hash steering's remote IRQ
    /// cores. [`crate::World::try_run`] calls it first; front ends call it
    /// (through `Experiment::validate`) to refuse bad input before running.
    pub fn validate(&self) -> Result<(), RunError> {
        let fail = |kind| move |detail| RunError::preflight(kind, detail);
        self.faults
            .validate()
            .map_err(fail(RunErrorKind::BadFaultPlan))?;
        self.link
            .loss
            .validate()
            .map_err(fail(RunErrorKind::BadFaultPlan))?;
        if let Some(cs) = &self.faults.core_stall {
            let cores = self.topology.total_cores();
            if cs.core >= cores {
                return Err(RunError::preflight(
                    RunErrorKind::BadFaultPlan,
                    format!(
                        "core stall victim core {} out of range (host has {cores})",
                        cs.core
                    ),
                ));
            }
        }
        let link_windows = [
            ("link flap", self.link.flap),
            ("latency spike", self.link.latency_spike.map(|s| s.window)),
        ];
        for (name, window) in link_windows {
            if let Some(w) = window {
                w.validate()
                    .map_err(|e| format!("{name}: {e}"))
                    .map_err(fail(RunErrorKind::BadFaultPlan))?;
            }
        }
        if let Some(churn) = &self.churn {
            churn.validate().map_err(fail(RunErrorKind::BadChurnPlan))?;
            if self.datapath != DatapathKind::InKernel {
                return Err(RunError::preflight(
                    RunErrorKind::BadChurnPlan,
                    format!(
                        "datapath `{}` is only valid with long-flow scenarios: churn and \
                         overload handshakes are priced by the in-kernel cost model only, \
                         so the TOE and bypass backends would mischarge their lifecycle \
                         frames",
                        self.datapath.label()
                    ),
                ));
            }
        }
        if self.trace.enabled && self.trace.sample_every == 0 {
            let detail = "trace sample_every must be at least 1".into();
            return Err(fail(RunErrorKind::BadTraceConfig)(detail));
        }
        if let Some(monitor) = &self.monitor {
            let traced = self
                .trace
                .enabled
                .then_some(())
                .ok_or_else(|| "a monitor needs tracing on to feed its sketches".to_string());
            monitor
                .validate()
                .and(traced)
                .map_err(fail(RunErrorKind::BadMonitorConfig))?;
        }
        // Every port of the wire serializes at this rate.
        if !self.link.rate_is_valid() {
            return Err(RunError::preflight(
                RunErrorKind::BadTopology,
                format!("link rate {} Gb/s cannot serialize a frame", self.link.gbps),
            ));
        }
        // Events pack a host into a `u8`, and the world's event lanes are
        // sized for at most `MAX_HOSTS` hosts.
        let hosts = self.hosts();
        if !(2..=MAX_HOSTS as usize).contains(&hosts) {
            return Err(RunError::preflight(
                RunErrorKind::BadTopology,
                format!("fabric of {hosts} hosts outside 2..={MAX_HOSTS}"),
            ));
        }
        self.validate_host_sizing()
            .map_err(fail(RunErrorKind::BadTopology))?;
        // Hash steering pins a flow's IRQs to a NUMA node other than its
        // application's (§3.1), which a one-node host lacks.
        let steering = self.stack.steering;
        if self.topology.nodes < 2 && matches!(steering, SteeringMode::Rss | SteeringMode::Rps) {
            return Err(RunError::preflight(
                RunErrorKind::BadTopology,
                format!(
                    "{steering:?} steering maps IRQs to a NUMA node other than the \
                     application's, and a 1-node topology has no node 1"
                ),
            ));
        }
        Ok(())
    }

    /// Clamp a host sizing [`SimConfig::validate`] refuses into its range
    /// and return the refusal: [`crate::World::new`] builds from the
    /// clamped sizes, so no structure is built from a size it cannot take,
    /// and `try_run` reports the refusal.
    pub(crate) fn clamp_host_sizing(&mut self) -> Option<String> {
        let refusal = self.validate_host_sizing().err()?;
        self.stack.mtu = self.stack.mtu.clamp(MTU_STANDARD, MTU_JUMBO);
        self.stack.rx_descriptors = self.stack.rx_descriptors.max(1);
        self.write_size = self.write_size.clamp(1, (SNDBUF_MAX / 2) as u32);
        self.topology.nodes = self.topology.nodes.max(1);
        self.topology.cores_per_node = self.topology.cores_per_node.max(1);
        Some(refusal)
    }

    /// The host sizes the datapath is built for: a core to run on, the MTU
    /// range the MSS and the congestion controllers assume, a ring with a
    /// descriptor, and a write of at least one byte that
    /// [`hns_proto::TcpSender::can_write`] can admit twice over.
    fn validate_host_sizing(&self) -> Result<(), String> {
        let Topology {
            nodes,
            cores_per_node,
            ..
        } = self.topology;
        if nodes == 0 || cores_per_node == 0 {
            return Err(format!(
                "topology of {nodes} nodes x {cores_per_node} cores has no core"
            ));
        }
        let mtu = self.stack.mtu;
        if !(MTU_STANDARD..=MTU_JUMBO).contains(&mtu) {
            return Err(format!("MTU {mtu} outside {MTU_STANDARD}..={MTU_JUMBO}"));
        }
        if self.stack.rx_descriptors == 0 {
            return Err("Rx ring needs at least one descriptor".into());
        }
        let write = self.write_size as u64;
        if write == 0 {
            return Err("write size 0 B writes nothing".into());
        }
        if write > SNDBUF_MAX / 2 {
            return Err(format!(
                "write size {write} B above half the {SNDBUF_MAX} B send buffer"
            ));
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            stack: StackConfig::default(),
            datapath: DatapathKind::InKernel,
            topology: Topology::default(),
            link: LinkConfig::default(),
            fabric: None,
            dca_capacity: hns_mem::dca::DEFAULT_DCA_CAPACITY,
            seed: 1,
            napi_budget: 300,
            napi_batch: 64,
            write_size: 128 * 1024,
            irq_coalesce: Duration::ZERO,
            trace: hns_trace::TraceConfig::DISABLED,
            max_backlog: 0,
            faults: FaultConfig::default(),
            churn: None,
            monitor: None,
            watchdog_horizon: Duration::from_secs(5),
            audit: false,
            inject_rx_leak: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_levels_are_incremental() {
        let no = StackConfig::at_level(OptLevel::NoOpt);
        assert!(!no.tso && !no.gro && no.mtu == 1500);
        assert_eq!(no.steering, SteeringMode::Rss);

        let tg = StackConfig::at_level(OptLevel::TsoGro);
        assert!(tg.tso && tg.gro && tg.mtu == 1500);

        let j = StackConfig::at_level(OptLevel::Jumbo);
        assert!(j.tso && j.gro && j.mtu == 9000);
        assert_eq!(j.steering, SteeringMode::Rss);

        let a = StackConfig::at_level(OptLevel::Arfs);
        assert_eq!(a.steering, SteeringMode::Arfs);
        assert!(a.tso && a.gro && a.mtu == 9000);
    }

    #[test]
    fn max_tx_payload_depends_on_offloads() {
        let mut c = StackConfig::all_opts();
        assert_eq!(c.max_tx_payload(), 65536);
        c.tso = false;
        assert_eq!(c.max_tx_payload(), c.mss());
    }

    #[test]
    fn mss_subtracts_headers() {
        let c = StackConfig::at_level(OptLevel::NoOpt);
        assert_eq!(c.mss(), 1448);
        let j = StackConfig::at_level(OptLevel::Jumbo);
        assert_eq!(j.mss(), 8948);
    }

    #[test]
    fn link_fault_windows_that_never_clear_are_rejected() {
        use hns_faults::{LatencySpike, PhaseSchedule};
        let ms = Duration::from_millis;
        // Active for 2 ms every 1 ms: the link never comes back.
        let stuck = PhaseSchedule::every(Duration::ZERO, ms(2), ms(1));
        let clears = PhaseSchedule::every(Duration::ZERO, ms(1), ms(2));
        let flap = |window| {
            let mut c = SimConfig::default();
            c.link.flap = Some(window);
            c.validate().map_err(|e| e.kind)
        };
        let spike = |window| {
            let mut c = SimConfig::default();
            c.link.latency_spike = Some(LatencySpike {
                window,
                extra: ms(1),
            });
            c.validate().map_err(|e| e.kind)
        };
        assert_eq!(flap(stuck), Err(RunErrorKind::BadFaultPlan));
        assert_eq!(spike(stuck), Err(RunErrorKind::BadFaultPlan));
        assert_eq!(flap(clears), Ok(()));
        assert_eq!(spike(clears), Ok(()));
    }

    #[test]
    fn datapath_labels_round_trip() {
        for k in DatapathKind::ALL {
            assert_eq!(DatapathKind::parse(k.label()), Some(k));
        }
        assert_eq!(DatapathKind::parse("dpdk"), Some(DatapathKind::UserBypass));
        assert_eq!(
            DatapathKind::parse("in-kernel"),
            Some(DatapathKind::InKernel)
        );
        assert!(DatapathKind::parse("quic").is_none());
        assert_eq!(SimConfig::default().datapath, DatapathKind::InKernel);
    }

    #[test]
    fn validate_refuses_a_fabric_outside_the_host_range() {
        let with_hosts = |hosts| SimConfig {
            fabric: Some(crate::fabric::FabricConfig::neutral(hosts)),
            ..SimConfig::default()
        };
        for hosts in [1, MAX_HOSTS + 1] {
            let err = with_hosts(hosts).validate().unwrap_err();
            assert_eq!(err.kind, RunErrorKind::BadTopology, "{hosts} hosts");
            assert!(
                err.detail.contains(&format!("fabric of {hosts} hosts")),
                "{}",
                err.detail
            );
        }
        for hosts in [2, MAX_HOSTS] {
            assert!(with_hosts(hosts).validate().is_ok(), "{hosts} hosts");
        }
    }

    #[test]
    fn validate_refuses_host_sizes_the_datapath_cannot_build() {
        let sized = |mtu, ring, write| {
            let mut c = SimConfig::default();
            (c.stack.mtu, c.stack.rx_descriptors, c.write_size) = (mtu, ring, write);
            c.validate().map_err(|e| (e.kind, e.detail))
        };
        let half_sndbuf = (SNDBUF_MAX / 2) as u32;
        for (mtu, ring, write, refusal) in [
            (0, 512, 1 << 17, "MTU 0 outside"),
            (40, 512, 1 << 17, "MTU 40 outside"),
            (MTU_STANDARD - 1, 512, 1 << 17, "MTU 1499"),
            (MTU_JUMBO + 1, 512, 1 << 17, "MTU 9001"),
            (MTU_JUMBO, 0, 1 << 17, "at least one descriptor"),
            (MTU_JUMBO, 512, 16 << 20, "write size 16777216 B"),
            (MTU_JUMBO, 512, half_sndbuf + 1, "above half"),
            (MTU_JUMBO, 512, 0, "writes nothing"),
        ] {
            let (kind, detail) = sized(mtu, ring, write).unwrap_err();
            assert_eq!(kind, RunErrorKind::BadTopology, "{detail}");
            assert!(detail.contains(refusal), "{detail}");
        }
        assert_eq!(sized(MTU_STANDARD, 1, half_sndbuf), Ok(()));
        assert_eq!(sized(MTU_JUMBO, 4096, 1), Ok(()));
    }

    #[test]
    fn validate_refuses_loss_rates_outside_the_unit_interval() {
        use hns_faults::LossModel;
        let lossy = |loss| {
            let mut c = SimConfig::default();
            c.link.loss = loss;
            c.validate().map_err(|e| e.kind)
        };
        let ge = |rate, mean_burst| LossModel::GilbertElliott { rate, mean_burst };
        for loss in [
            LossModel::Uniform { rate: f64::NAN },
            LossModel::Uniform { rate: 1.5 },
            LossModel::Uniform { rate: -0.1 },
            ge(1.0, 8.0),
            ge(f64::INFINITY, 8.0),
            ge(0.01, f64::NAN),
        ] {
            assert_eq!(lossy(loss), Err(RunErrorKind::BadFaultPlan), "{loss:?}");
        }
        for loss in [
            LossModel::None,
            LossModel::Uniform { rate: 0.0 },
            LossModel::Uniform { rate: 0.999 },
            ge(0.02, 0.5),
        ] {
            assert_eq!(lossy(loss), Ok(()), "{loss:?}");
        }
    }

    #[test]
    fn validate_refuses_unsampled_tracing_and_untraced_monitors() {
        let mut c = SimConfig {
            trace: hns_trace::TraceConfig {
                sample_every: 0,
                ..hns_trace::TraceConfig::enabled()
            },
            ..SimConfig::default()
        };
        assert_eq!(c.validate().unwrap_err().kind, RunErrorKind::BadTraceConfig);
        c.trace.enabled = false;
        assert!(c.validate().is_ok(), "an off tracer's sampling is moot");

        c.trace = hns_trace::TraceConfig::DISABLED;
        c.monitor = Some(hns_monitor::MonitorConfig::default());
        let err = c.validate().unwrap_err();
        assert_eq!(err.kind, RunErrorKind::BadMonitorConfig);
        assert!(err.detail.contains("tracing"), "{}", err.detail);
        c.trace.enabled = true;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn default_simconfig_matches_testbed() {
        let c = SimConfig::default();
        assert_eq!(c.topology.total_cores(), 24);
        assert_eq!(c.napi_budget, 300);
        assert!((c.link.gbps - 100.0).abs() < f64::EPSILON);
    }
}
