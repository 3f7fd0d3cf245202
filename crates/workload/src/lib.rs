//! # hns-workload — traffic patterns and application placement
//!
//! Builders for the paper's five traffic patterns (Fig. 2) plus the
//! short-flow and mixed workloads of §3.7:
//!
//! * **single** — one flow, one sender core, one receiver core;
//! * **one-to-one** — each sender core sends to one unique receiver core;
//! * **incast** — every sender core targets a single receiver core;
//! * **outcast** — one sender core feeds every receiver core;
//! * **all-to-all** — a flow between every pair of x sender and x receiver
//!   cores;
//! * **RPC incast** — n netperf-style ping-pong clients against a single
//!   server application (16:1 in the paper);
//! * **mixed** — one long flow plus n 4KB RPC flows sharing a single core
//!   on each side.
//!
//! Placement follows the paper's method: application threads fill the
//! NIC-local NUMA node first and spill to remote nodes
//! ([`Topology::app_core`]); a [`Placement`] override pins everything to
//! NIC-remote cores for the Fig. 4 / Fig. 10c experiments.

use hns_conn::{AdmissionPolicy, ChurnConfig, ChurnMode, OverloadConfig};
use hns_mem::numa::{CoreId, Topology};
use hns_sim::Duration;
use hns_stack::{AppSpec, FlowSpec, World};

/// Where application threads are placed relative to the NIC.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// Fill the NIC-local NUMA node first (the paper's default).
    NicLocalFirst,
    /// Use only NIC-remote cores (Fig. 4, Fig. 10c).
    NicRemote,
}

impl Placement {
    /// Core for the `i`-th application thread on a host. On a one-node
    /// topology `NicRemote` names a core of node 1, which does not exist:
    /// `World::try_run` refuses it as out of range.
    pub fn core(self, topo: &Topology, i: u16) -> CoreId {
        match self {
            Placement::NicLocalFirst => topo.app_core(i),
            Placement::NicRemote => {
                let remote_nodes = topo.nodes.saturating_sub(1).max(1);
                let per = topo.cores_per_node as u16;
                let node = 1 + (i / per) % remote_nodes as u16;
                node * per + i % per
            }
        }
    }
}

/// A scenario: flows plus applications, ready to instantiate on a world.
#[derive(Clone, Debug, Default)]
pub struct Scenario {
    /// Flow placements (indices become [`hns_stack::flow::Flow`] ids).
    pub flows: Vec<FlowSpec>,
    /// Applications: `(host, core, spec)` — flow ids refer to `flows`.
    pub apps: Vec<(usize, CoreId, AppSpec)>,
}

impl Scenario {
    /// Install the scenario into a world.
    pub fn install(self, world: &mut World) {
        for spec in self.flows {
            world.add_flow(spec);
        }
        for (host, core, app) in self.apps {
            world.add_app(host, core, app);
        }
    }
}

/// One long flow between the first cores of each host (Fig. 3).
pub fn single_flow(topo: &Topology, placement: Placement) -> Scenario {
    let s = placement.core(topo, 0);
    let d = placement.core(topo, 0);
    Scenario {
        flows: vec![FlowSpec::forward(s, d)],
        apps: vec![
            (0, s, AppSpec::LongSender { flow: 0 }),
            (1, d, AppSpec::LongReceiver { flow: 0 }),
        ],
    }
}

/// `n` flows, one per (sender core, receiver core) pair (Fig. 5).
pub fn one_to_one(topo: &Topology, n: u16) -> Scenario {
    let mut sc = Scenario::default();
    for i in 0..n {
        let s = topo.app_core(i);
        let d = topo.app_core(i);
        let id = sc.flows.len() as u64;
        sc.flows.push(FlowSpec::forward(s, d));
        sc.apps.push((0, s, AppSpec::LongSender { flow: id }));
        sc.apps.push((1, d, AppSpec::LongReceiver { flow: id }));
    }
    sc
}

/// `n` sender cores all feeding receiver core 0 (Fig. 6).
pub fn incast(topo: &Topology, n: u16) -> Scenario {
    let mut sc = Scenario::default();
    let d = topo.app_core(0);
    for i in 0..n {
        let s = topo.app_core(i);
        let id = sc.flows.len() as u64;
        sc.flows.push(FlowSpec::forward(s, d));
        sc.apps.push((0, s, AppSpec::LongSender { flow: id }));
        sc.apps.push((1, d, AppSpec::LongReceiver { flow: id }));
    }
    sc
}

/// One sender core feeding `n` receiver cores (Fig. 7).
pub fn outcast(topo: &Topology, n: u16) -> Scenario {
    let mut sc = Scenario::default();
    let s = topo.app_core(0);
    for i in 0..n {
        let d = topo.app_core(i);
        let id = sc.flows.len() as u64;
        sc.flows.push(FlowSpec::forward(s, d));
        sc.apps.push((0, s, AppSpec::LongSender { flow: id }));
        sc.apps.push((1, d, AppSpec::LongReceiver { flow: id }));
    }
    sc
}

/// A flow between every pair of `x` sender and `x` receiver cores
/// (Fig. 8): `x²` flows, `x` sender apps per core.
pub fn all_to_all(topo: &Topology, x: u16) -> Scenario {
    let mut sc = Scenario::default();
    for i in 0..x {
        for j in 0..x {
            let s = topo.app_core(i);
            let d = topo.app_core(j);
            let id = sc.flows.len() as u64;
            sc.flows.push(FlowSpec::forward(s, d));
            sc.apps.push((0, s, AppSpec::LongSender { flow: id }));
            sc.apps.push((1, d, AppSpec::LongReceiver { flow: id }));
        }
    }
    sc
}

/// `clients` ping-pong RPC clients (one per sender core) against a single
/// server application on one receiver core (Fig. 10: 16:1 incast).
pub fn rpc_incast(
    topo: &Topology,
    clients: u16,
    rpc_size: u32,
    server_placement: Placement,
) -> Scenario {
    let mut sc = Scenario::default();
    let server_core = server_placement.core(topo, 0);
    let mut conns = Vec::new();
    for i in 0..clients {
        let c = topo.app_core(i);
        let req = sc.flows.len() as u64;
        sc.flows.push(FlowSpec::forward(c, server_core));
        let resp = sc.flows.len() as u64;
        sc.flows.push(FlowSpec::reverse(server_core, c));
        sc.apps.push((
            0,
            c,
            AppSpec::RpcClient {
                tx: req,
                rx: resp,
                size: rpc_size,
            },
        ));
        conns.push((req, resp));
    }
    sc.apps.push((
        1,
        server_core,
        AppSpec::RpcServer {
            conns,
            size: rpc_size,
        },
    ));
    sc
}

/// One long flow plus `shorts` RPC flows, everything sharing core 0 on
/// both hosts (Fig. 11).
pub fn mixed_long_short(topo: &Topology, shorts: u16, rpc_size: u32) -> Scenario {
    let core = topo.app_core(0);
    let mut sc = Scenario::default();
    // The long flow.
    sc.flows.push(FlowSpec::forward(core, core));
    sc.apps.push((0, core, AppSpec::LongSender { flow: 0 }));
    sc.apps.push((1, core, AppSpec::LongReceiver { flow: 0 }));
    // Short RPC flows, one client app each, one server app for all.
    let mut conns = Vec::new();
    for _ in 0..shorts {
        let req = sc.flows.len() as u64;
        sc.flows.push(FlowSpec::forward(core, core));
        let resp = sc.flows.len() as u64;
        sc.flows.push(FlowSpec::reverse(core, core));
        sc.apps.push((
            0,
            core,
            AppSpec::RpcClient {
                tx: req,
                rx: resp,
                size: rpc_size,
            },
        ));
        conns.push((req, resp));
    }
    if !conns.is_empty() {
        sc.apps.push((
            1,
            core,
            AppSpec::RpcServer {
                conns,
                size: rpc_size,
            },
        ));
    }
    sc
}

/// The long-flow id in a [`mixed_long_short`] scenario.
pub const MIXED_LONG_FLOW: u64 = 0;

// ----------------------------------------------------------------------
// Fabric workloads (N hosts behind a ToR switch; `SimConfig::fabric`)
// ----------------------------------------------------------------------

/// Host id of the `i`-th sender in a fabric scenario. The receiver is
/// pinned at host 1 (the churn engine's server host), so senders occupy
/// 0, 2, 3, … — `n` senders need a fabric of `n + 1` hosts.
pub fn fabric_sender_host(i: u16) -> usize {
    if i == 0 {
        0
    } else {
        i as usize + 1
    }
}

/// Switch-level incast (fig_incast): `n` sender hosts each run one long
/// flow from their local core 0 into the single receiver host 1, whose
/// ToR egress port is the shared bottleneck. Receive processing spreads
/// across the receiver's application cores, so the collapse that shows
/// up is the *switch buffer* filling — not a pinned receiver core.
/// Requires `SimConfig::fabric` with at least `n + 1` hosts.
pub fn fabric_incast(topo: &Topology, n: u16) -> Scenario {
    let mut sc = Scenario::default();
    let s = topo.app_core(0);
    for i in 0..n {
        let host = fabric_sender_host(i);
        let d = topo.app_core(i);
        let id = sc.flows.len() as u64;
        sc.flows.push(FlowSpec::between(host, s, 1, d));
        sc.apps.push((host, s, AppSpec::LongSender { flow: id }));
        sc.apps.push((1, d, AppSpec::LongReceiver { flow: id }));
    }
    sc
}

/// Mixed-tenant fabric workload: `longs` long flows from distinct sender
/// hosts plus `shorts` 4KB-class RPC pairs from host 0, every byte landing
/// on the receiver's core 0 — the long flows and the latency-sensitive
/// RPCs share one DCA slice, one softirq core, and one switch egress port.
/// Layer connection churn on top with [`churn_short_rpc`] (the churn
/// engine's client/server pair is hosts 0/1, which this placement keeps
/// busy) for the full long + short + lifecycle contention mix.
pub fn fabric_mixed_tenant(topo: &Topology, longs: u16, shorts: u16, rpc_size: u32) -> Scenario {
    let core = topo.app_core(0);
    let mut sc = Scenario::default();
    for i in 0..longs {
        let host = fabric_sender_host(i);
        let id = sc.flows.len() as u64;
        sc.flows.push(FlowSpec::between(host, core, 1, core));
        sc.apps.push((host, core, AppSpec::LongSender { flow: id }));
        sc.apps.push((1, core, AppSpec::LongReceiver { flow: id }));
    }
    let mut conns = Vec::new();
    for _ in 0..shorts {
        let req = sc.flows.len() as u64;
        sc.flows.push(FlowSpec::between(0, core, 1, core));
        let resp = sc.flows.len() as u64;
        sc.flows.push(FlowSpec::between(1, core, 0, core));
        sc.apps.push((
            0,
            core,
            AppSpec::RpcClient {
                tx: req,
                rx: resp,
                size: rpc_size,
            },
        ));
        conns.push((req, resp));
    }
    if !conns.is_empty() {
        sc.apps.push((
            1,
            core,
            AppSpec::RpcServer {
                conns,
                size: rpc_size,
            },
        ));
    }
    sc
}

// ----------------------------------------------------------------------
// Churn workloads (connection lifecycle; `hns-conn`)
// ----------------------------------------------------------------------

/// Open-loop connection churn at `rate_cps`: each arrival performs a full
/// 3-way handshake and immediately closes — pure per-connection overhead
/// with no payload. The conn/s scaling workload (fig05_conn_rate).
pub fn churn_open_loop(rate_cps: f64) -> ChurnConfig {
    ChurnConfig {
        mode: ChurnMode::HandshakeOnly,
        rate_cps,
        ..ChurnConfig::default()
    }
}

/// Short-RPC-with-handshake churn: every arrival opens a connection,
/// exchanges one `rpc_size`-byte request/response, and closes — the
/// paper's short-flow regime *including* the setup cost its figures omit.
pub fn churn_short_rpc(rate_cps: f64, rpc_size: u32) -> ChurnConfig {
    ChurnConfig {
        mode: ChurnMode::ShortRpc,
        rate_cps,
        rpc_size,
        ..ChurnConfig::default()
    }
}

/// A long-lived pool of `conns` pre-established connections with partial
/// churn at `rate_cps` (each arrival closes the oldest member and opens a
/// replacement) — a busy front-end's steady state, sized for million-flow
/// scaling runs.
pub fn churn_pool(conns: u32, rate_cps: f64) -> ChurnConfig {
    ChurnConfig {
        mode: ChurnMode::Pool { conns },
        rate_cps,
        ..ChurnConfig::default()
    }
}

/// Connection attempts per second each simulated capacity client issues.
pub const CAPACITY_CLIENT_CPS: f64 = 400.0;

/// Overload capacity probe: `clients` concurrent short-RPC clients (at
/// [`CAPACITY_CLIENT_CPS`] attempts/s each) against a server with a finite
/// listen queue, a connection-memory budget, and an idle reaper — under the
/// given admission `policy`. A quarter of the clients are heavy-tailed slow
/// thinkers, so accept-queue slots and sockets get pinned for milliseconds
/// at a time; that pinning, not raw packet rate, is what bends the goodput
/// and tail-latency curves at the capacity knee (fig_capacity).
pub fn churn_capacity(clients: u32, policy: AdmissionPolicy) -> ChurnConfig {
    ChurnConfig {
        mode: ChurnMode::ShortRpc,
        rate_cps: clients as f64 * CAPACITY_CLIENT_CPS,
        rpc_size: 4096,
        overload: OverloadConfig {
            enabled: true,
            policy,
            accept_queue: 128,
            mem_budget: 4 << 20,
            idle_timeout: Duration::from_millis(12),
            slow_prob: 0.25,
        },
        ..ChurnConfig::default()
    }
}

/// Open-loop RPC: `clients` Poisson sources (one per sender core) at
/// `rate_rps` requests/second each against one server core — the
/// latency-vs-load workload (a future-work direction the paper names).
pub fn open_loop_rpc(topo: &Topology, clients: u16, rpc_size: u32, rate_rps: f64) -> Scenario {
    let mut sc = Scenario::default();
    let server_core = topo.app_core(0);
    let mean_ns = (1e9 / rate_rps.max(1.0)) as u64;
    let mut conns = Vec::new();
    for i in 0..clients {
        let c = topo.app_core(i);
        let req = sc.flows.len() as u64;
        sc.flows.push(FlowSpec::forward(c, server_core));
        let resp = sc.flows.len() as u64;
        sc.flows.push(FlowSpec::reverse(server_core, c));
        sc.apps.push((
            0,
            c,
            AppSpec::OpenLoopClient {
                tx: req,
                rx: resp,
                size: rpc_size,
                mean_interarrival_ns: mean_ns,
            },
        ));
        conns.push((req, resp));
    }
    sc.apps.push((
        1,
        server_core,
        AppSpec::RpcServer {
            conns,
            size: rpc_size,
        },
    ));
    sc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::default()
    }

    #[test]
    fn single_flow_shape() {
        let sc = single_flow(&topo(), Placement::NicLocalFirst);
        assert_eq!(sc.flows.len(), 1);
        assert_eq!(sc.apps.len(), 2);
        assert_eq!(sc.flows[0].src_core, 0);
    }

    #[test]
    fn nic_remote_placement_avoids_node_zero() {
        let t = topo();
        for i in 0..36 {
            let c = Placement::NicRemote.core(&t, i);
            assert_ne!(
                t.node_of(c),
                hns_mem::numa::NIC_NODE,
                "core {c} is NIC-local"
            );
        }
        let one = Topology { nodes: 1, ..t };
        let c = Placement::NicRemote.core(&one, 0);
        assert_eq!(c, one.total_cores(), "node 1's first core, out of range");
    }

    #[test]
    fn one_to_one_uses_distinct_cores() {
        let sc = one_to_one(&topo(), 24);
        assert_eq!(sc.flows.len(), 24);
        let mut src: Vec<_> = sc.flows.iter().map(|f| f.src_core).collect();
        src.sort_unstable();
        src.dedup();
        assert_eq!(src.len(), 24, "each flow on its own sender core");
    }

    #[test]
    fn incast_converges_on_one_receiver_core() {
        let sc = incast(&topo(), 16);
        assert!(sc.flows.iter().all(|f| f.dst_core == 0));
        let senders: std::collections::BTreeSet<_> = sc.flows.iter().map(|f| f.src_core).collect();
        assert_eq!(senders.len(), 16);
    }

    #[test]
    fn outcast_fans_out_from_one_sender_core() {
        let sc = outcast(&topo(), 8);
        assert!(sc.flows.iter().all(|f| f.src_core == 0));
        let dsts: std::collections::BTreeSet<_> = sc.flows.iter().map(|f| f.dst_core).collect();
        assert_eq!(dsts.len(), 8);
    }

    #[test]
    fn all_to_all_is_quadratic() {
        let sc = all_to_all(&topo(), 8);
        assert_eq!(sc.flows.len(), 64);
        assert_eq!(sc.apps.len(), 128);
    }

    #[test]
    fn rpc_incast_builds_paired_flows() {
        let sc = rpc_incast(&topo(), 16, 4096, Placement::NicLocalFirst);
        assert_eq!(sc.flows.len(), 32, "request+response per client");
        // One server app plus 16 clients.
        assert_eq!(sc.apps.len(), 17);
        let servers = sc
            .apps
            .iter()
            .filter(|(h, _, a)| *h == 1 && matches!(a, AppSpec::RpcServer { .. }))
            .count();
        assert_eq!(servers, 1);
    }

    #[test]
    fn mixed_keeps_everything_on_core_zero() {
        let sc = mixed_long_short(&topo(), 4, 4096);
        assert!(sc.apps.iter().all(|(_, core, _)| *core == 0));
        assert_eq!(sc.flows.len(), 1 + 8);
        assert_eq!(sc.flows[MIXED_LONG_FLOW as usize].src_core, 0);
    }

    #[test]
    fn mixed_without_shorts_is_just_long_flow() {
        let sc = mixed_long_short(&topo(), 0, 4096);
        assert_eq!(sc.flows.len(), 1);
        assert_eq!(sc.apps.len(), 2);
    }

    #[test]
    fn open_loop_builder_shape() {
        let sc = open_loop_rpc(&topo(), 8, 4096, 10_000.0);
        assert_eq!(sc.flows.len(), 16);
        assert_eq!(sc.apps.len(), 9);
        let mean = sc.apps.iter().find_map(|(_, _, a)| match a {
            AppSpec::OpenLoopClient {
                mean_interarrival_ns,
                ..
            } => Some(*mean_interarrival_ns),
            _ => None,
        });
        assert_eq!(mean, Some(100_000), "10k rps = 100us mean gap");
    }

    #[test]
    fn fabric_incast_places_one_sender_per_host() {
        let sc = fabric_incast(&topo(), 8);
        assert_eq!(sc.flows.len(), 8);
        let hosts: std::collections::BTreeSet<_> = sc.flows.iter().map(|f| f.src_host).collect();
        assert_eq!(hosts.len(), 8, "each long flow on its own sender host");
        assert!(!hosts.contains(&1), "host 1 is the receiver");
        assert!(sc.flows.iter().all(|f| f.dst_host == 1));
        // Receive processing fans out across receiver cores.
        let dsts: std::collections::BTreeSet<_> = sc.flows.iter().map(|f| f.dst_core).collect();
        assert_eq!(dsts.len(), 8);
    }

    #[test]
    fn fabric_mixed_tenant_shares_receiver_core_zero() {
        let sc = fabric_mixed_tenant(&topo(), 3, 4, 4096);
        assert_eq!(sc.flows.len(), 3 + 8);
        // Every data byte lands on the receiver's core 0.
        assert!(sc
            .flows
            .iter()
            .filter(|f| f.dst_host == 1)
            .all(|f| f.dst_core == 0));
        let long_hosts: std::collections::BTreeSet<_> =
            sc.flows[..3].iter().map(|f| f.src_host).collect();
        assert_eq!(
            long_hosts,
            [0usize, 2, 3].into_iter().collect(),
            "long flows come from distinct tenant hosts"
        );
    }

    #[test]
    fn fabric_sender_hosts_skip_the_receiver() {
        let hosts: Vec<_> = (0..5).map(fabric_sender_host).collect();
        assert_eq!(hosts, vec![0, 2, 3, 4, 5]);
    }

    #[test]
    fn churn_builders_produce_valid_plans() {
        for cfg in [
            churn_open_loop(250_000.0),
            churn_short_rpc(100_000.0, 4096),
            churn_pool(1_000_000, 200_000.0),
        ] {
            cfg.validate().expect("builder output must validate");
        }
        assert_eq!(churn_open_loop(250_000.0).mode, ChurnMode::HandshakeOnly);
        assert_eq!(
            churn_short_rpc(1.0, 512),
            ChurnConfig {
                mode: ChurnMode::ShortRpc,
                rate_cps: 1.0,
                rpc_size: 512,
                ..ChurnConfig::default()
            }
        );
        assert!(matches!(
            churn_pool(42, 1.0).mode,
            ChurnMode::Pool { conns: 42 }
        ));
    }

    #[test]
    fn scenarios_install_cleanly() {
        use hns_stack::SimConfig;
        let t = topo();
        for sc in [
            single_flow(&t, Placement::NicLocalFirst),
            one_to_one(&t, 4),
            incast(&t, 4),
            outcast(&t, 4),
            all_to_all(&t, 3),
            rpc_incast(&t, 4, 4096, Placement::NicLocalFirst),
            mixed_long_short(&t, 2, 4096),
            open_loop_rpc(&t, 4, 4096, 50_000.0),
        ] {
            let n_flows = sc.flows.len();
            let mut w = World::new(SimConfig::default());
            sc.install(&mut w);
            assert_eq!(w.flows.len(), n_flows);
        }
    }
}
