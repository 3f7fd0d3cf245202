//! Application models.
//!
//! The paper deliberately uses applications with *minimal* logic so the
//! network stack dominates: iPerf for long flows (blocking write/recv
//! loop) and netperf for short flows (ping-pong RPC over a long-lived
//! connection). Both are modeled here as scheduler-driven state machines;
//! the world executes one "step" per dispatch and charges the syscall,
//! copy, and protocol cycles the step performs.

use hns_mem::numa::CoreId;
use hns_proto::FlowId;

/// Bytes a long-flow sender passes to each `write()` (iPerf's default
/// 128 KiB). [`hns_proto::TcpSender::can_write`] admits two of them to an
/// empty send buffer.
pub(crate) const WRITE_SIZE: u64 = 128 * 1024;

/// What kind of application a thread runs.
#[derive(Clone, Debug)]
pub enum AppSpec {
    /// iPerf-style sender: blocking `write(WRITE_SIZE)` loop on one flow.
    LongSender {
        /// The flow this application writes to.
        flow: FlowId,
    },
    /// iPerf-style receiver: blocking `recv(recv_size)` loop on one flow.
    LongReceiver {
        /// The flow this application reads from.
        flow: FlowId,
    },
    /// netperf-style RPC client: write a `size`-byte request on `tx`,
    /// block until the `size`-byte response arrives on `rx`, repeat.
    RpcClient {
        /// Request flow (this host → peer).
        tx: FlowId,
        /// Response flow (peer → this host).
        rx: FlowId,
        /// Request/response size in bytes.
        size: u32,
    },
    /// RPC server handling one or more connections from a single thread
    /// (the paper's 16:1 incast uses one server application): read each
    /// complete request, write the response.
    RpcServer {
        /// Connections served: (request flow in, response flow out).
        conns: Vec<(FlowId, FlowId)>,
        /// Request/response size in bytes.
        size: u32,
    },
    /// Open-loop RPC client: requests arrive by a Poisson process at
    /// `mean_interarrival_ns` regardless of completions (possibly many
    /// outstanding) — the workload for latency-vs-load studies, which the
    /// paper names as important future work.
    OpenLoopClient {
        /// Request flow (this host → peer).
        tx: FlowId,
        /// Response flow (peer → this host).
        rx: FlowId,
        /// Request/response size in bytes.
        size: u32,
        /// Mean Poisson inter-arrival time in nanoseconds.
        mean_interarrival_ns: u64,
    },
}

/// Per-connection RPC progress.
#[derive(Clone, Copy, Debug, Default)]
pub struct RpcConnState {
    /// Bytes of the in-progress inbound message consumed so far.
    pub received: u64,
    /// Completed round trips (client) or requests served (server).
    pub completed: u64,
}

/// A live application instance bound to a scheduler thread.
pub struct AppInstance {
    /// Behaviour.
    pub spec: AppSpec,
    /// Host the thread runs on.
    pub host: usize,
    /// Core the thread is pinned to.
    pub core: CoreId,
    /// Scheduler thread id on that host.
    pub tid: u32,
    /// RPC progress, one entry per connection (empty for long flows).
    pub rpc: Vec<RpcConnState>,
    /// For the client: are we waiting for a response right now?
    pub awaiting_response: bool,
    /// Round-robin service pointer for multi-connection servers.
    pub next_conn: usize,
    /// RPC completions within the measurement window.
    pub completions: u64,
    /// When the in-progress request was written (client round-trip
    /// latency measurement).
    pub sent_at: hns_sim::SimTime,
    /// Open-loop state: arrivals not yet written to the socket.
    pub pending_arrivals: u32,
    /// Open-loop state: send timestamps of outstanding requests (FIFO —
    /// responses return in order on the byte stream).
    pub outstanding: std::collections::VecDeque<hns_sim::SimTime>,
}

impl AppInstance {
    /// Bind a spec to a (host, core, thread).
    pub fn new(spec: AppSpec, host: usize, core: CoreId, tid: u32) -> Self {
        let conns = match &spec {
            AppSpec::RpcClient { .. } | AppSpec::OpenLoopClient { .. } => 1,
            AppSpec::RpcServer { conns, .. } => conns.len(),
            _ => 0,
        };
        AppInstance {
            spec,
            host,
            core,
            tid,
            rpc: vec![RpcConnState::default(); conns],
            awaiting_response: false,
            next_conn: 0,
            completions: 0,
            sent_at: hns_sim::SimTime::ZERO,
            pending_arrivals: 0,
            outstanding: std::collections::VecDeque::new(),
        }
    }

    /// Flows this application reads from (used to register reader wakeups).
    pub fn read_flows(&self) -> Vec<FlowId> {
        match &self.spec {
            AppSpec::LongSender { .. } => vec![],
            AppSpec::LongReceiver { flow } => vec![*flow],
            AppSpec::RpcClient { rx, .. } | AppSpec::OpenLoopClient { rx, .. } => vec![*rx],
            AppSpec::RpcServer { conns, .. } => conns.iter().map(|(rx, _)| *rx).collect(),
        }
    }

    /// Flows this application writes to (used to register writer wakeups).
    pub fn write_flows(&self) -> Vec<FlowId> {
        match &self.spec {
            AppSpec::LongSender { flow } => vec![*flow],
            AppSpec::LongReceiver { .. } => vec![],
            AppSpec::RpcClient { tx, .. } | AppSpec::OpenLoopClient { tx, .. } => vec![*tx],
            AppSpec::RpcServer { conns, .. } => conns.iter().map(|(_, tx)| *tx).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_server_tracks_connections() {
        let spec = AppSpec::RpcServer {
            conns: vec![(0, 1), (2, 3), (4, 5)],
            size: 4096,
        };
        let app = AppInstance::new(spec, 1, 0, 0);
        assert_eq!(app.rpc.len(), 3);
        assert_eq!(app.read_flows(), vec![0, 2, 4]);
        assert_eq!(app.write_flows(), vec![1, 3, 5]);
    }

    #[test]
    fn long_flow_apps_have_one_side() {
        let tx = AppInstance::new(AppSpec::LongSender { flow: 7 }, 0, 0, 0);
        assert!(tx.read_flows().is_empty());
        assert_eq!(tx.write_flows(), vec![7]);
        let rx = AppInstance::new(AppSpec::LongReceiver { flow: 7 }, 1, 0, 0);
        assert_eq!(rx.read_flows(), vec![7]);
        assert!(rx.write_flows().is_empty());
    }

    #[test]
    fn client_reads_rx_writes_tx() {
        let c = AppInstance::new(
            AppSpec::RpcClient {
                tx: 1,
                rx: 2,
                size: 4096,
            },
            0,
            3,
            9,
        );
        assert_eq!(c.read_flows(), vec![2]);
        assert_eq!(c.write_flows(), vec![1]);
        assert_eq!(c.rpc.len(), 1);
    }
}
