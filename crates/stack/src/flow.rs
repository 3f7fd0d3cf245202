//! Flow state: one unidirectional TCP connection between two hosts.
//!
//! A flow bundles the protocol endpoints (`TcpSender` with its send buffer
//! at the source host; at the destination host, `TcpReceiver`, which owns
//! the socket's window and copy accounting, and the queue of skbs awaiting
//! the copy) with the event filing of their timers and the placement
//! decisions that drive the memory model: which core runs the
//! application on each side and which core the receive IRQ lands on.

use std::collections::VecDeque;

use hns_mem::numa::CoreId;
use hns_proto::{CcAlgo, FlowId, RcvBufAutotune, TcpReceiver, TcpSender};
use hns_sim::event::EventToken;
use hns_sim::{EventKey, SimTime};

use crate::config::{RcvBufPolicy, SimConfig};
use crate::skb::RxSkb;

/// Placement and policy for one flow. Built by the workload layer.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Host transmitting the data.
    pub src_host: usize,
    /// Core of the sending application.
    pub src_core: CoreId,
    /// Host receiving the data.
    pub dst_host: usize,
    /// Core of the receiving application.
    pub dst_core: CoreId,
    /// Congestion control override (`None` → the experiment default).
    pub cc: Option<CcAlgo>,
    /// Receive-buffer override (`None` → the experiment default).
    pub rcvbuf: Option<RcvBufPolicy>,
}

impl FlowSpec {
    /// The common case: host 0 sends to host 1 with default policies.
    pub fn forward(src_core: CoreId, dst_core: CoreId) -> Self {
        FlowSpec {
            src_host: 0,
            src_core,
            dst_host: 1,
            dst_core,
            cc: None,
            rcvbuf: None,
        }
    }

    /// Reverse-direction flow (host 1 sends to host 0), used for RPC
    /// responses.
    pub fn reverse(src_core: CoreId, dst_core: CoreId) -> Self {
        FlowSpec {
            src_host: 1,
            src_core,
            dst_host: 0,
            dst_core,
            cc: None,
            rcvbuf: None,
        }
    }

    /// A flow between arbitrary hosts of an N-host fabric topology.
    pub fn between(src_host: usize, src_core: CoreId, dst_host: usize, dst_core: CoreId) -> Self {
        FlowSpec {
            src_host,
            src_core,
            dst_host,
            dst_core,
            cc: None,
            rcvbuf: None,
        }
    }
}

/// Live state of one flow inside the [`crate::World`].
pub struct Flow {
    /// Flow id (index into the world's flow table).
    pub id: FlowId,
    /// Placement.
    pub spec: FlowSpec,
    /// Core receiving data-direction IRQ/softirq processing (dst host).
    pub irq_core: CoreId,
    /// Core receiving ACK-direction IRQ/softirq processing (src host).
    pub ack_irq_core: CoreId,
    /// Protocol sender (lives on `src_host`).
    pub sender: TcpSender,
    /// Protocol receiver (lives on `dst_host`).
    pub receiver: TcpReceiver,
    /// Socket receive queue: skbs awaiting application copy (in-order ones
    /// first; out-of-order skbs are parked here too, sorted by sequence).
    /// The receiver owns the byte accounting: the in-order skbs cover
    /// `[receiver.copied_seq(), receiver.rcv_nxt())`.
    pub rx_queue: VecDeque<RxSkb>,
    /// Reader application thread blocked on this flow (wake on delivery).
    pub reader_tid: Option<u32>,
    /// Writer application thread blocked on send-buffer space.
    pub writer_tid: Option<u32>,
    /// Bytes copied to the application within the measurement window.
    pub app_bytes: u64,
    /// Deadline of the armed retransmission timer, as
    /// `TcpSender::rto_deadline` last reported it; `None` when disarmed.
    pub rto_scheduled_for: Option<SimTime>,
    /// Where the armed timer fires in the event order: the key reserved
    /// when the deadline last moved, so the timer fires at the same
    /// `(time, seq)` as an event scheduled then.
    pub rto_key: Option<EventKey>,
    /// The flow's one pending `Rto` event while armed ([`EventToken::NONE`]
    /// when disarmed). It fires at `rto_key` or, when later ACKs pushed
    /// the deadline out, earlier, and is then re-filed under the key.
    pub rto_token: EventToken,
    /// When the pending `Rto` event fires.
    pub rto_filed_at: SimTime,
    /// BBR pacer: release timer armed.
    pub pacer_armed: bool,
    /// Delayed-ACK flush timer armed (one pending event at most).
    pub delack_armed: bool,
    /// Retransmission count at warmup end (measurement subtracts it).
    pub rtx_baseline: u64,
    /// When the application last issued a `write()` for this flow; lets the
    /// lifecycle tracer stamp AppWrite/CopyIn retroactively when a wire
    /// frame is later emitted from those bytes.
    pub last_write_at: SimTime,
}

impl Flow {
    /// Build a flow from its spec and the experiment configuration.
    pub fn new(id: FlowId, spec: FlowSpec, cfg: &SimConfig, flow_index: u16) -> Self {
        let cc = spec.cc.unwrap_or(cfg.stack.cc);
        let rcvbuf = spec.rcvbuf.unwrap_or(cfg.stack.rcvbuf);
        let autotune = match rcvbuf {
            RcvBufPolicy::Auto => RcvBufAutotune::auto(),
            RcvBufPolicy::Fixed(bytes) => RcvBufAutotune::fixed(bytes),
        };
        let steering = cfg.stack.steering;
        Flow {
            id,
            spec,
            irq_core: steering.irq_core(&cfg.topology, spec.dst_core, flow_index),
            ack_irq_core: steering.irq_core(&cfg.topology, spec.src_core, flow_index),
            sender: TcpSender::new(id, cfg.stack.mss(), cc),
            receiver: TcpReceiver::new(id, cfg.stack.mss(), autotune),
            rx_queue: VecDeque::new(),
            reader_tid: None,
            writer_tid: None,
            app_bytes: 0,
            rto_scheduled_for: None,
            rto_key: None,
            rto_token: EventToken::NONE,
            rto_filed_at: SimTime::ZERO,
            pacer_armed: false,
            delack_armed: false,
            rtx_baseline: 0,
            last_write_at: SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hns_nic::steering::SteeringMode;

    #[test]
    fn arfs_colocates_irq_with_apps() {
        let cfg = SimConfig::default(); // aRFS
        let f = Flow::new(0, FlowSpec::forward(2, 3), &cfg, 0);
        assert_eq!(f.irq_core, 3);
        assert_eq!(f.ack_irq_core, 2);
    }

    #[test]
    fn rss_pins_irq_to_remote_node() {
        let mut cfg = SimConfig::default();
        cfg.stack.steering = SteeringMode::Rss;
        let f = Flow::new(0, FlowSpec::forward(0, 0), &cfg, 0);
        assert_ne!(cfg.topology.node_of(f.irq_core), cfg.topology.node_of(0));
    }

    #[test]
    fn rcvbuf_override_applies() {
        let cfg = SimConfig::default();
        let mut spec = FlowSpec::forward(0, 0);
        spec.rcvbuf = Some(RcvBufPolicy::Fixed(3200 * 1024));
        let f = Flow::new(0, spec, &cfg, 0);
        // Nothing received yet: the whole buffer is advertised.
        assert_eq!(f.receiver.advertised_window(), 3200 * 1024);
    }

    #[test]
    fn reverse_spec_flips_hosts() {
        let s = FlowSpec::reverse(4, 5);
        assert_eq!(s.src_host, 1);
        assert_eq!(s.dst_host, 0);
    }
}
