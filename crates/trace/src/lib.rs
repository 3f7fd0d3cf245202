//! # hns-trace — per-skb lifecycle tracing
//!
//! The paper attributes CPU *cycles* to eight categories but never shows
//! where an individual packet spends its *time*. This crate is the missing
//! observability layer: a low-overhead event collector that stamps each skb
//! at every pipeline stage it crosses — application write through wire,
//! DMA, NAPI, GRO and the final `recv()` copy — and folds the stamps into
//! per-stage residency histograms and exportable timeline files.
//!
//! Design constraints (in order):
//!
//! 1. **Zero cost when disabled.** Every hook compiles down to a branch on
//!    [`TraceCollector::enabled`]; a disabled collector allocates nothing
//!    and records nothing, and the simulation's behaviour (event order,
//!    cycle charges, RNG draws) is identical with tracing on or off —
//!    stamps observe the world, they never mutate it.
//! 2. **One fold over the window, bounded export.** Each stamp closes the
//!    skb's previous residency, which folds if the stamp lands in the
//!    measurement window; reports and the monitor read that fold. Records
//!    also land in fixed-capacity per-core rings for export only; a full
//!    ring counts what it drops, which never touches the quantiles.
//! 3. **Deterministic output.** Under a fixed seed the simulation is
//!    bit-reproducible, so the exported JSONL is byte-identical run to run
//!    and can be diffed like any other artifact.
//!
//! The collector identifies a packet by a [`SkbId`] allocated when the
//! sender's TCP layer emits the wire frame; the id rides the segment across
//! the link and onto the receive-side skb, surviving GRO aggregation as the
//! head frame's id (merged frames' timelines end at the [`StageId::Gro`]
//! stamp, exactly like their skbs end in `kfree_skb`).
//!
//! Exporters: [`export::to_jsonl`] (one event per line, replay/diff-able)
//! and [`export::to_chrome`] (Chrome `trace_event` JSON — open it in
//! Perfetto or `chrome://tracing` to see one track per core with stage
//! spans). Both read the rings, which fill from t = 0.

pub mod collector;
pub mod export;

pub use collector::{SkbId, TraceCollector, TraceRecord, NO_SKB};

/// Pipeline stages a packet crosses, sender application to receiver
/// application (the paper's Fig. 1 read left to right).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum StageId {
    /// Application `write()` issued the bytes.
    AppWrite = 0,
    /// User→kernel payload copy (or zero-copy pin).
    CopyIn = 1,
    /// Sender TCP/IP processing emitted the segment.
    TcpTx = 2,
    /// GSO/TSO segmentation into wire frames.
    Gso = 3,
    /// Queued on the qdisc / driver Tx queue.
    Qdisc = 4,
    /// NIC pulled the frame for serialization.
    NicTx = 5,
    /// On the wire (serialization + propagation).
    Wire = 6,
    /// DMA landed the frame in an Rx descriptor.
    RxDma = 7,
    /// Hard IRQ raised for the frame's batch.
    Irq = 8,
    /// NAPI poll picked the frame up in softirq context.
    Napi = 9,
    /// Offered to GRO aggregation.
    Gro = 10,
    /// Receiver TCP/IP processing accepted the skb.
    TcpRx = 11,
    /// Parked on the socket receive queue.
    SockQueue = 12,
    /// Application `recv()` copied the bytes out (end of life).
    RecvCopy = 13,
    /// Connection lifecycle: client emitted the SYN (active open).
    SynTx = 14,
    /// Connection lifecycle: server processed the SYN (request sock made).
    SynRx = 15,
    /// Connection lifecycle: client processed the SYN-ACK — `connect()`
    /// returns here, so SynTx→SynAckRx is the client handshake latency.
    SynAckRx = 16,
    /// Connection lifecycle: server promoted the request sock and the
    /// `accept()`/epoll path dispatched the new connection.
    ConnAccept = 17,
    /// Connection lifecycle: client sent FIN (active close).
    FinTx = 18,
    /// Connection lifecycle: TIME_WAIT expired and the record was reaped
    /// (true end of the connection's kernel footprint).
    TimeWaitReap = 19,
    /// Offload datapaths: the TOE delivered a completion descriptor for a
    /// NIC-reassembled aggregate (replaces driver/skb/GRO/TCP-rx stamps).
    ToeComplete = 20,
    /// Offload datapaths: the bypass poller harvested the frame from the
    /// descriptor ring on the dedicated polling core.
    BypassPoll = 21,
}

/// Number of distinct stages.
pub const N_STAGES: usize = 22;

impl StageId {
    /// All stages in pipeline order.
    pub const ALL: [StageId; N_STAGES] = [
        StageId::AppWrite,
        StageId::CopyIn,
        StageId::TcpTx,
        StageId::Gso,
        StageId::Qdisc,
        StageId::NicTx,
        StageId::Wire,
        StageId::RxDma,
        StageId::Irq,
        StageId::Napi,
        StageId::Gro,
        StageId::TcpRx,
        StageId::SockQueue,
        StageId::RecvCopy,
        StageId::SynTx,
        StageId::SynRx,
        StageId::SynAckRx,
        StageId::ConnAccept,
        StageId::FinTx,
        StageId::TimeWaitReap,
        StageId::ToeComplete,
        StageId::BypassPoll,
    ];

    /// Stable machine-readable label (JSONL / CSV column names).
    pub fn label(self) -> &'static str {
        match self {
            StageId::AppWrite => "app_write",
            StageId::CopyIn => "copy_in",
            StageId::TcpTx => "tcp_tx",
            StageId::Gso => "gso",
            StageId::Qdisc => "qdisc",
            StageId::NicTx => "nic_tx",
            StageId::Wire => "wire",
            StageId::RxDma => "rx_dma",
            StageId::Irq => "irq",
            StageId::Napi => "napi",
            StageId::Gro => "gro",
            StageId::TcpRx => "tcp_rx",
            StageId::SockQueue => "sock_queue",
            StageId::RecvCopy => "recv_copy",
            StageId::SynTx => "syn_tx",
            StageId::SynRx => "syn_rx",
            StageId::SynAckRx => "synack_rx",
            StageId::ConnAccept => "conn_accept",
            StageId::FinTx => "fin_tx",
            StageId::TimeWaitReap => "timewait_reap",
            StageId::ToeComplete => "toe_complete",
            StageId::BypassPoll => "bypass_poll",
        }
    }
}

impl std::fmt::Display for StageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Collector configuration. `Copy` so it can live inside the simulation's
/// plain-data `SimConfig`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceConfig {
    /// Master switch. Off (the default) keeps every hook a dead branch.
    pub enabled: bool,
    /// Trace every Nth emitted skb (1 = all). `SimConfig::validate`
    /// refuses zero.
    pub sample_every: u32,
    /// Only trace this flow when set (per-flow filter).
    pub flow: Option<u64>,
    /// Per-core export ring capacity in records; the overflow counter
    /// absorbs the excess.
    pub ring_capacity: u32,
}

impl TraceConfig {
    /// Tracing off.
    pub const DISABLED: TraceConfig = TraceConfig {
        enabled: false,
        sample_every: 1,
        flow: None,
        ring_capacity: DEFAULT_RING_CAPACITY,
    };

    /// Tracing on with default sampling (every skb) and ring capacity.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::DISABLED
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::DISABLED
    }
}

/// Default per-core ring capacity: 64Ki records ≈ 1.5MB per core, enough
/// for tens of milliseconds of single-flow traffic at 100Gbps.
pub const DEFAULT_RING_CAPACITY: u32 = 1 << 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_order_matches_discriminants() {
        for (i, s) in StageId::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
        }
    }

    #[test]
    fn labels_are_unique_and_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for s in StageId::ALL {
            assert!(seen.insert(s.label()), "duplicate label {s}");
            assert!(
                s.label()
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '_'),
                "label {s} not snake_case"
            );
        }
    }

    #[test]
    fn default_config_is_disabled() {
        let c = TraceConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.sample_every, 1);
        assert!(TraceConfig::enabled().enabled);
    }
}
