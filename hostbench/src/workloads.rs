//! The three benchmark workloads, built through the public
//! `hns_core`/`hns_stack` API exactly as `Experiment::try_run` builds them,
//! but with `World::new`, `Scenario::install` and `World::try_run` kept
//! apart so each can be timed on its own.

use hns_conn::AdmissionPolicy;
use hns_core::figures::{INCAST_BUFFER_BYTES, INCAST_ECN_THRESHOLD};
use hns_core::ScenarioKind;
use hns_monitor::MonitorConfig;
use hns_sim::Duration;
use hns_stack::{FabricConfig, SimConfig, World};
use hns_trace::TraceConfig;
use hns_workload::{Placement, Scenario};

/// Lifecycle-tracer sampling period: every 8th skb, as `hostnet monitor`
/// runs it. Used by `churn_capacity` always and by every traced run.
pub const TRACE_SAMPLE_EVERY: u32 = 8;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One long flow on the legacy two-host link: the per-frame receive
    /// path (NAPI, GRO, DCA, TCP, copy) with no fabric, churn or monitor.
    SingleLong,
    /// Sixteen sender hosts into one receiver through a 17-host ToR fabric
    /// with 4 uplinks, a 256 KiB shared buffer and a 64 KiB ECN threshold
    /// (the `fig_incast` ecn-on/16s point).
    Incast16Ecn,
    /// Short-RPC connection churn from 500 clients (200k conn/s, past the
    /// capacity knee) with SYN-cookie admission, monitored every 10 ms.
    ChurnCapacity,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::SingleLong,
        Workload::Incast16Ecn,
        Workload::ChurnCapacity,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SingleLong => "single_long",
            Workload::Incast16Ecn => "incast16_ecn",
            Workload::ChurnCapacity => "churn_capacity",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The simulator scenario this workload runs.
    pub fn scenario(self) -> ScenarioKind {
        match self {
            Workload::SingleLong => ScenarioKind::Single,
            Workload::Incast16Ecn => ScenarioKind::FabricIncast { senders: 16 },
            Workload::ChurnCapacity => ScenarioKind::Churn {
                churn: hns_workload::churn_capacity(500, AdmissionPolicy::Queue),
            },
        }
    }

    /// Simulated warmup and measure windows of one run. `smoke` shrinks
    /// them to a few milliseconds for the self-check.
    pub fn windows(self, smoke: bool) -> (Duration, Duration) {
        if smoke {
            return (Duration::from_millis(2), Duration::from_millis(3));
        }
        let measure_ms = match self {
            Workload::SingleLong => 480,
            Workload::Incast16Ecn => 100,
            Workload::ChurnCapacity => 300,
        };
        (Duration::from_millis(20), Duration::from_millis(measure_ms))
    }

    /// Simulator configuration: `SimConfig::default()` (all optimisations,
    /// in-kernel datapath, cubic, no loss) plus what the scenario needs.
    pub fn config(self, seed: u64) -> SimConfig {
        let mut cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        match self.scenario() {
            ScenarioKind::FabricIncast { senders } => {
                let mut f = FabricConfig::neutral(senders + 1);
                f.uplinks = 4;
                f.buffer_bytes = INCAST_BUFFER_BYTES;
                f.ecn_threshold_bytes = Some(INCAST_ECN_THRESHOLD);
                cfg.fabric = Some(f);
            }
            ScenarioKind::Churn { churn } => {
                cfg.churn = Some(churn);
                cfg.monitor = Some(MonitorConfig {
                    interval: Duration::from_millis(10),
                    ..MonitorConfig::default()
                });
                cfg.trace = lifecycle_sampling();
            }
            _ => {}
        }
        cfg
    }

    /// `World::new` with the scenario's report label.
    pub fn new_world(self, cfg: SimConfig) -> World {
        let mut world = World::new(cfg);
        world.set_label(self.scenario().label());
        world
    }

    /// `Scenario::install` of the workload's flows and applications.
    /// Churn installs nothing: its engine is driven by `SimConfig::churn`.
    pub fn install(self, world: &mut World) {
        let topo = world.cfg.topology;
        let scenario = match self.scenario() {
            ScenarioKind::Single => hns_workload::single_flow(&topo, Placement::NicLocalFirst),
            ScenarioKind::FabricIncast { senders } => hns_workload::fabric_incast(&topo, senders),
            _ => Scenario::default(),
        };
        scenario.install(world);
    }
}

/// Lifecycle tracing at the monitor's sampling period.
pub fn lifecycle_sampling() -> TraceConfig {
    TraceConfig {
        enabled: true,
        sample_every: TRACE_SAMPLE_EVERY,
        ..TraceConfig::DISABLED
    }
}
