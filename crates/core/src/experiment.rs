//! The experiment builder.

use hns_conn::ChurnConfig;
use hns_mem::numa::Topology;
use hns_metrics::Report;
use hns_sim::Duration;
use hns_stack::{OptLevel, RunError, RunErrorKind, SimConfig, World};
use hns_workload::{Placement, Scenario};

/// Which traffic pattern / workload to run (paper Fig. 2 + §3.7).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScenarioKind {
    /// One long flow, NIC-local cores (§3.1).
    Single,
    /// One long flow with both applications on NIC-remote cores (Fig. 4).
    SingleNicRemote,
    /// `flows` long flows, one per core pair (§3.2).
    OneToOne {
        /// Number of flows (1..=24).
        flows: u16,
    },
    /// `flows` sender cores into one receiver core (§3.3).
    Incast {
        /// Number of flows.
        flows: u16,
    },
    /// One sender core into `flows` receiver cores (§3.4).
    Outcast {
        /// Number of flows.
        flows: u16,
    },
    /// `x` × `x` flows (§3.5).
    AllToAll {
        /// Cores per side.
        x: u16,
    },
    /// `clients` ping-pong RPC clients against one server thread (§3.7).
    RpcIncast {
        /// Client application count (paper: 16).
        clients: u16,
        /// Request/response size in bytes.
        size: u32,
        /// Server thread placement (Fig. 10c compares local vs remote).
        server: Placement,
    },
    /// One long flow + `shorts` 4KB RPC flows on a single core pair
    /// (§3.7, Fig. 11).
    Mixed {
        /// Number of colocated short flows.
        shorts: u16,
        /// RPC size in bytes (paper: 4KB).
        size: u32,
    },
    /// Open-loop Poisson RPC against one server core: the latency-vs-load
    /// workload (future work the paper calls for).
    OpenLoop {
        /// Poisson client sources (one per sender core).
        clients: u16,
        /// Request/response size in bytes.
        size: u32,
        /// Offered load per client, requests/second.
        rate_rps: f64,
    },
    /// Connection-lifecycle churn (`hns-conn`): open-loop handshake /
    /// short-RPC / pool workloads driven by `SimConfig::churn` — no long
    /// flows, every byte moves over freshly opened connections.
    Churn {
        /// Churn workload knobs (mode, arrival rate, RPC size, pool size).
        churn: ChurnConfig,
    },
    /// Switch-level incast: `senders` hosts each run one long flow into
    /// host 1 through the shared ToR egress port (fig_incast). Requires
    /// `SimConfig::fabric` with at least `senders + 1` hosts.
    FabricIncast {
        /// Sender host count (fan-in degree).
        senders: u16,
    },
    /// Mixed-tenant fabric: `longs` long flows from distinct hosts plus
    /// `shorts` RPC pairs, all sharing the receiver's core 0 and its
    /// switch egress port.
    FabricMixed {
        /// Long-flow tenant hosts.
        longs: u16,
        /// Colocated 4KB-class RPC pairs.
        shorts: u16,
        /// RPC size in bytes.
        size: u32,
    },
}

impl ScenarioKind {
    fn build(self, topo: &Topology) -> Scenario {
        match self {
            ScenarioKind::Single => hns_workload::single_flow(topo, Placement::NicLocalFirst),
            ScenarioKind::SingleNicRemote => hns_workload::single_flow(topo, Placement::NicRemote),
            ScenarioKind::OneToOne { flows } => hns_workload::one_to_one(topo, flows),
            ScenarioKind::Incast { flows } => hns_workload::incast(topo, flows),
            ScenarioKind::Outcast { flows } => hns_workload::outcast(topo, flows),
            ScenarioKind::AllToAll { x } => hns_workload::all_to_all(topo, x),
            ScenarioKind::RpcIncast {
                clients,
                size,
                server,
            } => hns_workload::rpc_incast(topo, clients, size, server),
            ScenarioKind::Mixed { shorts, size } => {
                hns_workload::mixed_long_short(topo, shorts, size)
            }
            ScenarioKind::OpenLoop {
                clients,
                size,
                rate_rps,
            } => hns_workload::open_loop_rpc(topo, clients, size, rate_rps),
            // Churn installs no flows or apps: the engine drives the world
            // from `SimConfig::churn` (applied in `Experiment::sim_config`).
            ScenarioKind::Churn { .. } => Scenario::default(),
            ScenarioKind::FabricIncast { senders } => hns_workload::fabric_incast(topo, senders),
            ScenarioKind::FabricMixed {
                longs,
                shorts,
                size,
            } => hns_workload::fabric_mixed_tenant(topo, longs, shorts, size),
        }
    }

    /// Refuse a scenario with nothing to measure: no flow, no client, no
    /// sender, or an empty RPC. Each once ran to an empty 0 Gbps report.
    fn validate(self) -> Result<(), String> {
        let empty = match self {
            ScenarioKind::OneToOne { flows }
            | ScenarioKind::Incast { flows }
            | ScenarioKind::Outcast { flows }
            | ScenarioKind::AllToAll { x: flows }
            | ScenarioKind::FabricIncast { senders: flows } => flows == 0,
            ScenarioKind::RpcIncast { clients, size, .. } => clients == 0 || size == 0,
            _ => false,
        };
        if empty {
            let label = self.label();
            return Err(format!(
                "scenario {label} has no flow, client or RPC byte to measure"
            ));
        }
        Ok(())
    }

    /// Short label for reports.
    pub fn label(self) -> String {
        match self {
            ScenarioKind::Single => "single".into(),
            ScenarioKind::SingleNicRemote => "single/nic-remote".into(),
            ScenarioKind::OneToOne { flows } => format!("one-to-one/{flows}"),
            ScenarioKind::Incast { flows } => format!("incast/{flows}"),
            ScenarioKind::Outcast { flows } => format!("outcast/{flows}"),
            ScenarioKind::AllToAll { x } => format!("all-to-all/{x}x{x}"),
            ScenarioKind::RpcIncast { clients, size, .. } => {
                format!("rpc/{clients}:1/{}KB", size / 1024)
            }
            ScenarioKind::Mixed { shorts, .. } => format!("mixed/1long+{shorts}short"),
            ScenarioKind::OpenLoop {
                clients, rate_rps, ..
            } => format!("open-loop/{clients}x{rate_rps:.0}rps"),
            ScenarioKind::Churn { churn } => {
                format!("churn/{}@{:.0}k", churn.mode.label(), churn.rate_cps / 1e3)
            }
            ScenarioKind::FabricIncast { senders } => format!("fabric-incast/{senders}s"),
            ScenarioKind::FabricMixed { longs, shorts, .. } => {
                format!("fabric-mixed/{longs}long+{shorts}short")
            }
        }
    }
}

/// A runnable experiment.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Full simulation configuration.
    pub cfg: SimConfig,
    /// Traffic pattern.
    pub scenario: ScenarioKind,
    /// Warmup window (measurements discarded).
    pub warmup: Duration,
    /// Measurement window.
    pub measure: Duration,
    /// Report label (defaults to the scenario label).
    pub label: Option<String>,
}

impl Experiment {
    /// Experiment with default configuration (all optimizations, 100Gbps,
    /// paper-testbed topology) and standard windows.
    pub fn new(scenario: ScenarioKind) -> Self {
        Experiment {
            cfg: SimConfig::default(),
            scenario,
            warmup: Duration::from_millis(20),
            measure: Duration::from_millis(30),
            label: None,
        }
    }

    /// Use one of the paper's incremental optimization levels.
    pub fn at_level(mut self, level: OptLevel) -> Self {
        let keep_rcvbuf = self.cfg.stack.rcvbuf;
        let keep_desc = self.cfg.stack.rx_descriptors;
        let keep_cc = self.cfg.stack.cc;
        self.cfg.stack = hns_stack::StackConfig::at_level(level);
        self.cfg.stack.rcvbuf = keep_rcvbuf;
        self.cfg.stack.rx_descriptors = keep_desc;
        self.cfg.stack.cc = keep_cc;
        self
    }

    /// Mutate the configuration in place.
    pub fn configure(mut self, f: impl FnOnce(&mut SimConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Override the report label.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The label the report will carry: the override, else the scenario
    /// label.
    pub fn report_label(&self) -> String {
        self.label.clone().unwrap_or_else(|| self.scenario.label())
    }

    /// Short windows (5ms + 8ms) for unit/doc tests.
    pub fn quick(mut self) -> Self {
        self.warmup = Duration::from_millis(5);
        self.measure = Duration::from_millis(8);
        self
    }

    /// Run under the invariant auditor: conservation laws (`hns-audit`) are
    /// checked at every quiesce point and at teardown, and the first
    /// imbalance fails the run with
    /// [`hns_stack::RunErrorKind::InvariantViolation`].
    pub fn audited(mut self) -> Self {
        self.cfg.audit = true;
        self
    }

    /// Build the world, run it, return the report. Panics if the run does
    /// not quiesce; fault experiments should prefer [`Experiment::try_run`].
    pub fn run(&self) -> Report {
        self.try_run()
            .unwrap_or_else(|e| panic!("{}: run did not quiesce: {e}", self.scenario.label()))
    }

    /// Build the world and run it; a wedged run (stalled flows, event
    /// storm, queue leak, invalid fault plan) returns the watchdog's
    /// [`RunError`] with a diagnostic snapshot instead of panicking.
    pub fn try_run(&self) -> Result<Report, RunError> {
        self.try_run_traced().map(|(report, _)| report)
    }

    /// Like [`Experiment::try_run`] but also hands back the lifecycle-trace
    /// collector so callers can export timelines (JSONL / Chrome JSON).
    /// The collector is disabled (and empty) unless `cfg.trace.enabled`.
    pub fn try_run_traced(&self) -> Result<(Report, hns_trace::TraceCollector), RunError> {
        self.validate()?;
        let mut world = self.world();
        let report = world.try_run(self.warmup, self.measure)?;
        Ok((report, world.take_trace()))
    }

    /// The configuration the run simulates: `cfg`, plus the workload of a
    /// [`ScenarioKind::Churn`] scenario as `cfg.churn`.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = self.cfg;
        if let ScenarioKind::Churn { churn } = self.scenario {
            cfg.churn = Some(churn);
        }
        cfg
    }

    /// The run's preflight check: [`SimConfig::validate`] of
    /// [`Experiment::sim_config`], then a scenario with something to
    /// measure. [`Experiment::try_run`] calls it first; front ends call it
    /// to refuse bad input before running.
    pub fn validate(&self) -> Result<(), RunError> {
        self.sim_config().validate()?;
        self.scenario
            .validate()
            .map_err(|detail| RunError::preflight(RunErrorKind::BadTopology, detail))
    }

    /// Build the world this experiment runs: its configuration, report
    /// label and installed scenario. The one build path; a caller that
    /// hooks the world (e.g. with [`World::set_monitor_emit`]) runs it with
    /// `world.try_run(exp.warmup, exp.measure)`.
    pub fn world(&self) -> World {
        let cfg = self.sim_config();
        let mut world = World::new(cfg);
        world.set_label(self.report_label());
        self.scenario.build(&world.cfg.topology).install(&mut world);
        world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hns_metrics::Category;

    #[test]
    fn try_run_rejects_bad_fault_plan() {
        use hns_faults::{CoreStall, PhaseSchedule};
        use hns_sim::Duration;
        let e = Experiment::new(ScenarioKind::Single)
            .configure(|c| {
                c.faults.core_stall = Some(CoreStall {
                    window: PhaseSchedule::once(Duration::ZERO, Duration::from_millis(1)),
                    host: 1,
                    core: 9999,
                });
            })
            .quick();
        let err = e.try_run().unwrap_err();
        assert_eq!(err.kind, hns_stack::RunErrorKind::BadFaultPlan);
    }

    #[test]
    fn try_run_rejects_out_of_range_hosts() {
        // A 4-sender fabric incast needs 5 hosts; on the default 2-host
        // world the build must fail the preflight, not panic out of bounds.
        let e = Experiment::new(ScenarioKind::FabricIncast { senders: 4 }).quick();
        let err = e.try_run().unwrap_err();
        assert_eq!(err.kind, hns_stack::RunErrorKind::BadTopology);
        assert!(err.detail.contains("host"), "detail: {}", err.detail);
    }

    #[test]
    fn try_run_rejects_host_sizes_out_of_range() {
        // (MTU, Rx descriptors, write size): each once panicked building
        // or running the world — an empty Rx ring, an MSS that wraps below
        // the headers, and a write too big for the send buffer's two-write
        // floor — or, for an empty write, reported an empty 0 Gbps run.
        for sizes in [
            (9000, 0, 1 << 17),
            (40, 512, 1 << 17),
            (0, 512, 1 << 17),
            (9000, 512, 16 << 20),
            (9000, 512, 0),
        ] {
            let err = Experiment::new(ScenarioKind::Single)
                .configure(|c| (c.stack.mtu, c.stack.rx_descriptors, c.write_size) = sizes)
                .quick()
                .try_run()
                .unwrap_err();
            assert_eq!(err.kind, hns_stack::RunErrorKind::BadTopology, "{sizes:?}");
        }
    }

    #[test]
    fn try_run_rejects_scenarios_that_measure_nothing() {
        // Each once returned an empty 0 Gbps report.
        for scenario in [
            ScenarioKind::OneToOne { flows: 0 },
            ScenarioKind::Incast { flows: 0 },
            ScenarioKind::Outcast { flows: 0 },
            ScenarioKind::AllToAll { x: 0 },
            ScenarioKind::FabricIncast { senders: 0 },
            ScenarioKind::RpcIncast {
                clients: 0,
                size: 4096,
                server: Placement::NicLocalFirst,
            },
            ScenarioKind::RpcIncast {
                clients: 16,
                size: 0,
                server: Placement::NicLocalFirst,
            },
        ] {
            let err = Experiment::new(scenario).quick().try_run().unwrap_err();
            assert_eq!(
                err.kind,
                hns_stack::RunErrorKind::BadTopology,
                "{scenario:?}"
            );
            assert!(err.detail.contains("to measure"), "detail: {}", err.detail);
        }
        // One flow, client or sender is enough.
        for scenario in [
            ScenarioKind::Incast { flows: 1 },
            ScenarioKind::AllToAll { x: 1 },
            ScenarioKind::RpcIncast {
                clients: 1,
                size: 1,
                server: Placement::NicLocalFirst,
            },
        ] {
            let r = Experiment::new(scenario).quick().try_run();
            assert!(r.is_ok_and(|r| r.total_gbps > 0.0), "{scenario:?}");
        }
    }

    #[test]
    fn try_run_rejects_a_topology_without_cores() {
        // Each once panicked building the world's Tx queues.
        for (nodes, cores_per_node) in [(0, 6), (4, 0)] {
            let err = Experiment::new(ScenarioKind::Single)
                .configure(|c| {
                    (c.topology.nodes, c.topology.cores_per_node) = (nodes, cores_per_node)
                })
                .quick()
                .try_run()
                .unwrap_err();
            assert_eq!(err.kind, hns_stack::RunErrorKind::BadTopology);
            assert!(err.detail.contains("no core"), "detail: {}", err.detail);
        }
    }

    #[test]
    fn try_run_rejects_hash_steering_on_one_node() {
        // RSS maps a flow's IRQs to a NUMA node other than its
        // application's; building such a flow on one node once panicked.
        for level in [OptLevel::NoOpt, OptLevel::TsoGro, OptLevel::Jumbo] {
            let err = Experiment::new(ScenarioKind::Single)
                .at_level(level)
                .configure(|c| c.topology.nodes = 1)
                .quick()
                .try_run()
                .unwrap_err();
            assert_eq!(err.kind, hns_stack::RunErrorKind::BadTopology, "{level:?}");
            assert!(err.detail.contains("node 1"), "detail: {}", err.detail);
        }
        // aRFS keeps IRQs on the application's core: one node runs.
        let r = Experiment::new(ScenarioKind::Single)
            .configure(|c| c.topology.nodes = 1)
            .quick()
            .run();
        assert!(r.total_gbps > 0.0);
    }

    #[test]
    fn try_run_rejects_a_nic_remote_placement_on_one_node() {
        // The placement's first remote node does not exist; choosing a
        // core on it once divided by zero, also on a node-less topology
        // the world clamps to one node.
        for (nodes, detail) in [(1, "NUMA node 1"), (0, "no core")] {
            let err = Experiment::new(ScenarioKind::SingleNicRemote)
                .configure(|c| c.topology.nodes = nodes)
                .quick()
                .try_run()
                .unwrap_err();
            assert_eq!(err.kind, hns_stack::RunErrorKind::BadTopology);
            assert!(err.detail.contains(detail), "detail: {}", err.detail);
        }
    }

    #[test]
    fn try_run_rejects_out_of_range_cores() {
        use hns_stack::FlowSpec;
        // Scenario builders can't produce this, but a hand-rolled world
        // can: core 9999 on the receiver side.
        let mut w = hns_stack::World::new(SimConfig::default());
        w.add_flow(FlowSpec::between(0, 0, 1, 9999));
        let err = w
            .try_run(Duration::from_millis(1), Duration::from_millis(2))
            .unwrap_err();
        assert_eq!(err.kind, hns_stack::RunErrorKind::BadTopology);
        assert!(err.detail.contains("core"), "detail: {}", err.detail);
    }

    #[test]
    fn fabric_incast_runs_on_a_sized_fabric() {
        let r = Experiment::new(ScenarioKind::FabricIncast { senders: 4 })
            .configure(|c| c.fabric = Some(hns_stack::FabricConfig::neutral(5)))
            .quick()
            .run();
        assert_eq!(r.label, "fabric-incast/4s");
        assert!(r.total_gbps > 1.0, "got {}", r.total_gbps);
    }

    #[test]
    fn neutral_two_host_fabric_matches_legacy_link() {
        // `fabric: None` must build exactly the neutral 2-host fabric: same
        // goodput, breakdowns, drops, everything. (That this fabric times
        // frames like the two-port cable is pinned frame by frame in
        // `fabric::tests::two_host_neutral_fabric_matches_link`.)
        let legacy = Experiment::new(ScenarioKind::Single).quick().run();
        let fabric = Experiment::new(ScenarioKind::Single)
            .configure(|c| c.fabric = Some(hns_stack::FabricConfig::neutral(2)))
            .quick()
            .run();
        assert_eq!(
            format!("{legacy:?}"),
            format!("{fabric:?}"),
            "explicit neutral 2-host fabric diverged from the default wire"
        );
    }

    #[test]
    fn churn_scenario_runs_through_the_experiment_api() {
        let churn = hns_workload::churn_open_loop(100_000.0);
        let r = Experiment::new(ScenarioKind::Churn { churn }).quick().run();
        assert_eq!(r.label, "churn/handshake@100k");
        let c = r.conn.expect("churn runs must carry a conn summary");
        assert!(c.established > 100, "got {}", c.established);
        assert_eq!(c.failed, 0);
    }

    #[test]
    fn single_flow_quick_run() {
        let r = Experiment::new(ScenarioKind::Single).quick().run();
        assert!(r.total_gbps > 5.0, "got {}", r.total_gbps);
        assert_eq!(r.label, "single");
    }

    #[test]
    fn opt_levels_rank_correctly() {
        let mut last = 0.0;
        for level in OptLevel::ALL {
            let r = Experiment::new(ScenarioKind::Single)
                .at_level(level)
                .quick()
                .run();
            assert!(
                r.thpt_per_core_gbps > last * 0.9,
                "{} regressed: {} after {}",
                level.label(),
                r.thpt_per_core_gbps,
                last
            );
            last = r.thpt_per_core_gbps;
        }
    }

    #[test]
    fn incast_bottlenecks_receiver_core() {
        let r = Experiment::new(ScenarioKind::Incast { flows: 4 })
            .quick()
            .run();
        // The single receiver core is pegged (paper: "receiver core is
        // bottlenecked in all cases"); four sender cores each run well
        // below saturation.
        assert!(r.receiver.cores_used < 1.2, "got {}", r.receiver.cores_used);
        assert!(r.receiver.cores_used > 0.9, "got {}", r.receiver.cores_used);
    }

    #[test]
    fn mixed_scenario_runs_and_reports_flows() {
        let r = Experiment::new(ScenarioKind::Mixed {
            shorts: 2,
            size: 4096,
        })
        .quick()
        .run();
        assert!(r.flow_gbps(hns_workload::MIXED_LONG_FLOW) > 0.5);
        assert!(r.rpcs_completed > 0);
    }

    #[test]
    fn rpc_scenario_reports_copy_shift() {
        // 4KB RPCs: data copy must NOT dominate (paper Fig. 10b).
        let r = Experiment::new(ScenarioKind::RpcIncast {
            clients: 16,
            size: 4096,
            server: Placement::NicLocalFirst,
        })
        .quick()
        .run();
        assert!(r.rpcs_completed > 100);
        let copy = r.receiver.breakdown.fraction(Category::DataCopy);
        assert!(copy < 0.4, "4KB RPCs should not be copy-bound: {copy}");
    }
}
