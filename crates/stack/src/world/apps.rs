//! The application steps: one scheduling quantum of each application
//! thread (long-flow sender and receiver, closed-loop RPC client and
//! server, open-loop client), built on the `write()`/`recv()` surface of
//! the send and receive paths.

use hns_metrics::{Category, CycleBreakdown};
use hns_proto::FlowId;
use hns_sim::Duration;

use super::{Event, World};
use crate::app::{AppSpec, WRITE_SIZE};

/// Application read size per `recv()` call of a long-flow receiver.
const RECV_SIZE: u64 = 128 * 1024;

/// The socket pair and message size one RPC-style app step works on —
/// the syscall surface the client builders share, minus the execution
/// context (host/core/charges), which stays in the argument list.
#[derive(Clone, Copy)]
struct RpcIo {
    /// Index into `World::apps`.
    app_idx: usize,
    /// Request-direction flow (client → server).
    tx: usize,
    /// Response-direction flow (server → client).
    rx: usize,
    /// Request/response payload size, bytes.
    size: u32,
}

impl World {
    /// One step of application thread `tid` on (host `h`, `core`). Returns
    /// whether the thread stays runnable; a thread that does not blocks,
    /// and pays the block path.
    pub(super) fn exec_app(
        &mut self,
        h: usize,
        core: usize,
        tid: u32,
        ch: &mut CycleBreakdown,
    ) -> bool {
        let app_idx = self.hosts[h].thread_app[tid as usize];
        let io = |tx: FlowId, rx: FlowId, size| RpcIo {
            app_idx,
            tx: tx as usize,
            rx: rx as usize,
            size,
        };
        // RPC progress lives in `self.apps[app_idx]` and is updated in
        // place; a server's connection list is taken out for its step and
        // put back, so no step copies it.
        let again = match self.apps[app_idx].spec {
            AppSpec::LongSender { flow } => self.step_long_sender(flow as usize, ch),
            AppSpec::LongReceiver { flow } => self.step_long_receiver(h, core, flow as usize, ch),
            AppSpec::RpcClient { tx, rx, size } => {
                self.step_rpc_client(h, core, io(tx, rx, size), ch)
            }
            AppSpec::RpcServer {
                ref mut conns,
                size,
            } => {
                let conns = std::mem::take(conns);
                let again = self.step_rpc_server(h, core, app_idx, &conns, size, ch);
                if let AppSpec::RpcServer { conns: slot, .. } = &mut self.apps[app_idx].spec {
                    *slot = conns;
                }
                again
            }
            AppSpec::OpenLoopClient { tx, rx, size, .. } => {
                self.step_open_loop_client(h, core, io(tx, rx, size), ch)
            }
        };
        if !again {
            ch.charge(Category::Sched, self.cost.block);
        }
        again
    }

    fn step_long_sender(&mut self, fid: usize, ch: &mut CycleBreakdown) -> bool {
        if !self.flows[fid].sender.can_write(WRITE_SIZE) {
            return false;
        }
        self.app_send(fid, WRITE_SIZE, ch);
        self.flows[fid].sender.can_write(WRITE_SIZE)
    }

    fn step_long_receiver(
        &mut self,
        h: usize,
        core: usize,
        fid: usize,
        ch: &mut CycleBreakdown,
    ) -> bool {
        if !self.readable(fid) {
            return false;
        }
        self.app_recv(h, core, fid, RECV_SIZE, ch);
        self.readable(fid)
    }

    fn step_rpc_client(
        &mut self,
        h: usize,
        core: usize,
        io: RpcIo,
        ch: &mut CycleBreakdown,
    ) -> bool {
        let app_idx = io.app_idx;
        if self.apps[app_idx].awaiting_response {
            // Drain whatever response bytes have arrived.
            if !self.readable(io.rx) {
                return false;
            }
            let copied = self.app_recv(h, core, io.rx, u64::MAX, ch);
            self.apps[app_idx].rpc[0].received += copied;
            if self.apps[app_idx].rpc[0].received >= io.size as u64 {
                self.apps[app_idx].rpc[0].received -= io.size as u64;
                self.apps[app_idx].rpc[0].completed += 1;
                if self.measuring {
                    self.apps[app_idx].completions += 1;
                    let rtt = self.queue.now().since(self.apps[app_idx].sent_at);
                    self.rpc_latency_ns.record(rtt.as_nanos());
                }
                self.apps[app_idx].awaiting_response = false;
                return true; // immediately send the next request
            }
            return false;
        }
        // Send the next request.
        self.apps[app_idx].sent_at = self.queue.now();
        self.app_send(io.tx, io.size as u64, ch);
        self.apps[app_idx].awaiting_response = true;
        // Block until the response wakes us (unless it's somehow already
        // here).
        self.readable(io.rx)
    }

    fn step_rpc_server(
        &mut self,
        h: usize,
        core: usize,
        app_idx: usize,
        conns: &[(FlowId, FlowId)],
        size: u32,
        ch: &mut CycleBreakdown,
    ) -> bool {
        // Epoll-style service: one wakeup drains every ready connection
        // (round-robin start for fairness).
        let n = conns.len();
        let start = self.apps[app_idx].next_conn;
        let mut served = false;
        for i in 0..n {
            let ci = (start + i) % n;
            let (rx, tx) = (conns[ci].0 as usize, conns[ci].1 as usize);
            if !self.readable(rx) {
                continue;
            }
            let copied = self.app_recv(h, core, rx, u64::MAX, ch);
            self.apps[app_idx].rpc[ci].received += copied;
            while self.apps[app_idx].rpc[ci].received >= size as u64 {
                self.apps[app_idx].rpc[ci].received -= size as u64;
                // Write the response.
                self.app_send(tx, size as u64, ch);
                self.apps[app_idx].rpc[ci].completed += 1;
                if self.measuring {
                    self.apps[app_idx].completions += 1;
                }
            }
            served = true;
        }
        self.apps[app_idx].next_conn = (start + 1) % n.max(1);
        // Stay runnable if any connection already has more data.
        served && conns.iter().any(|&(rx, _)| self.readable(rx as usize))
    }

    /// An open-loop request arrived: queue it, wake the client, schedule
    /// the next arrival.
    pub(super) fn open_loop_arrival(&mut self, app_idx: usize) {
        let mean = match self.apps[app_idx].spec {
            AppSpec::OpenLoopClient {
                mean_interarrival_ns,
                ..
            } => mean_interarrival_ns,
            _ => return,
        };
        self.apps[app_idx].pending_arrivals += 1;
        let (h, tid) = (self.apps[app_idx].host, self.apps[app_idx].tid);
        let mut ch = CycleBreakdown::default();
        self.wake(h, tid, &mut ch);
        // Arrival-process overhead (timer) charged to the client's core.
        self.charge_core(h, self.apps[app_idx].core as usize, ch);
        let gap = Duration::from_nanos((self.workload_rng.exp(mean as f64) as u64).max(1));
        let app = app_idx as u32;
        self.queue
            .schedule_after(gap, Event::OpenLoopArrival { app });
    }

    fn step_open_loop_client(
        &mut self,
        h: usize,
        core: usize,
        io: RpcIo,
        ch: &mut CycleBreakdown,
    ) -> bool {
        let app_idx = io.app_idx;
        let mut progressed = false;
        // Drain any response bytes first.
        if self.readable(io.rx) {
            let copied = self.app_recv(h, core, io.rx, u64::MAX, ch);
            self.apps[app_idx].rpc[0].received += copied;
            while self.apps[app_idx].rpc[0].received >= io.size as u64 {
                self.apps[app_idx].rpc[0].received -= io.size as u64;
                self.apps[app_idx].rpc[0].completed += 1;
                if let Some(sent) = self.apps[app_idx].outstanding.pop_front() {
                    if self.measuring {
                        self.apps[app_idx].completions += 1;
                        let rtt = self.queue.now().since(sent);
                        self.rpc_latency_ns.record(rtt.as_nanos());
                    }
                }
            }
            progressed = true;
        }
        // Write one queued request per step (fine-grained fairness).
        if self.apps[app_idx].pending_arrivals > 0 {
            self.apps[app_idx].pending_arrivals -= 1;
            self.apps[app_idx].outstanding.push_back(self.queue.now());
            self.app_send(io.tx, io.size as u64, ch);
            progressed = true;
        }
        progressed && (self.apps[app_idx].pending_arrivals > 0 || self.readable(io.rx))
    }

    /// True if the flow's socket has in-order data ready for the app.
    fn readable(&self, fid: usize) -> bool {
        let f = &self.flows[fid];
        f.rx_queue
            .front()
            .map(|s| s.end() <= f.receiver.rcv_nxt())
            .unwrap_or(false)
    }
}
