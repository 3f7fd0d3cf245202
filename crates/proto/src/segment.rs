//! Wire segments.
//!
//! Segments are the protocol-level unit: a data segment covers a byte range
//! of the flow's stream; a pure ACK carries cumulative acknowledgment and
//! window information back to the sender. The NIC layer wraps these in
//! frames (one segment per frame post-TSO).

use crate::sack::SackBlocks;

/// Flow identifier, unique per (sender app, receiver app) connection.
pub type FlowId = u64;

/// Sentinel for [`Segment::trace`]: the frame is not lifecycle-traced.
/// Matches `hns_trace::NO_SKB` without making this crate depend on the
/// tracing layer.
pub const NO_TRACE: u64 = u64::MAX;

/// What a segment carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentKind {
    /// Payload bytes `[seq, seq + len)` of the flow's stream.
    Data {
        /// Stream offset of the first payload byte.
        seq: u64,
        /// Payload length in bytes.
        len: u32,
        /// True if this is a retransmission (for accounting).
        retransmit: bool,
    },
    /// A pure acknowledgment.
    Ack {
        /// Cumulative ACK: all bytes below this offset received.
        ack: u64,
        /// Receive window in bytes, measured from `ack`.
        window: u64,
        /// ECN echo: fraction-of-CE feedback for DCTCP (0 when unused).
        ecn_echo: bool,
        /// Selective-acknowledgment blocks: up to three received ranges
        /// beyond `ack` (RFC 2018). Drives the sender's scoreboard-based
        /// loss recovery.
        sack: SackBlocks,
    },
    /// A connection-lifecycle control segment (SYN/FIN family plus the
    /// short-RPC payload frames churn workloads exchange). For these, the
    /// segment's `flow` field carries a packed connection id from the
    /// connection layer rather than an index into the long-flow table.
    Conn {
        /// Which lifecycle step this segment performs.
        phase: ConnPhase,
    },
}

/// Lifecycle step carried by a [`SegmentKind::Conn`] segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnPhase {
    /// Active open request (client → server).
    Syn,
    /// Passive-open reply (server → client).
    SynAck,
    /// Stateless passive-open reply carrying a SYN cookie (server →
    /// client): sent instead of [`ConnPhase::SynAck`] when the accept
    /// queue is full and the admission policy is `Queue`. The server
    /// holds no request sock for this connection yet.
    SynAckCookie,
    /// Handshake-completing bare ACK (client → server, no payload).
    HsAck,
    /// Handshake-completing ACK echoing a SYN cookie (client → server):
    /// the server validates the cookie and materialises the connection
    /// from it — the first state it ever holds for this peer.
    CookieAck,
    /// Connection refused (server → client): admission shed or
    /// memory-pressure refusal. The client aborts immediately.
    Reset,
    /// Request payload chunk (client → server). The first request chunk
    /// doubles as the handshake-completing ACK (piggybacked, as real
    /// clients do).
    Request {
        /// Payload bytes in this chunk.
        len: u32,
    },
    /// Response payload chunk (server → client).
    Response {
        /// Payload bytes in this chunk.
        len: u32,
    },
    /// Active close (client → server).
    Fin,
    /// Close acknowledgment (server → client).
    FinAck,
}

impl ConnPhase {
    /// Payload bytes this phase carries on the wire.
    pub fn payload_len(&self) -> u32 {
        match *self {
            ConnPhase::Request { len } | ConnPhase::Response { len } => len,
            _ => 0,
        }
    }
}

/// A protocol segment travelling the simulated wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Owning flow.
    pub flow: FlowId,
    /// Payload or ACK content.
    pub kind: SegmentKind,
    /// ECN Congestion-Experienced mark set by the network (DCTCP marking).
    pub ecn_ce: bool,
    /// Lifecycle-trace id riding the frame across the wire so the receive
    /// side can continue the same timeline ([`NO_TRACE`] when untraced —
    /// the common case; ACKs and control segments are never traced).
    pub trace: u64,
}

impl Segment {
    /// Build a data segment.
    pub fn data(flow: FlowId, seq: u64, len: u32, retransmit: bool) -> Self {
        Segment {
            flow,
            kind: SegmentKind::Data {
                seq,
                len,
                retransmit,
            },
            ecn_ce: false,
            trace: NO_TRACE,
        }
    }

    /// Build a pure ACK with its SACK blocks.
    pub fn ack(flow: FlowId, ack: u64, window: u64, ecn_echo: bool, sack: SackBlocks) -> Self {
        Segment {
            flow,
            kind: SegmentKind::Ack {
                ack,
                window,
                ecn_echo,
                sack,
            },
            ecn_ce: false,
            trace: NO_TRACE,
        }
    }

    /// Build a connection-lifecycle control segment. `conn` is the packed
    /// connection id from the connection layer.
    pub fn conn(conn: u64, phase: ConnPhase) -> Self {
        Segment {
            flow: conn,
            kind: SegmentKind::Conn { phase },
            ecn_ce: false,
            trace: NO_TRACE,
        }
    }

    /// Payload bytes carried (0 for ACKs and payload-free control phases).
    pub fn payload_len(&self) -> u32 {
        match self.kind {
            SegmentKind::Data { len, .. } => len,
            SegmentKind::Ack { .. } => 0,
            SegmentKind::Conn { phase, .. } => phase.payload_len(),
        }
    }

    /// Typed accessor: the data fields, or `None` for any other segment.
    /// Prefer this over matching [`SegmentKind`] with a panicking
    /// catch-all arm.
    pub fn data_view(&self) -> Option<DataView> {
        match self.kind {
            SegmentKind::Data {
                seq,
                len,
                retransmit,
            } => Some(DataView {
                seq,
                len,
                retransmit,
            }),
            _ => None,
        }
    }
}

/// The fields of a data segment ([`Segment::data_view`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataView {
    /// Stream offset of the first payload byte.
    pub seq: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// True if this is a retransmission.
    pub retransmit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_segment_fields() {
        let s = Segment::data(3, 1000, 1448, false);
        assert!(s.data_view().is_some());
        assert_eq!(s.payload_len(), 1448);
        assert_eq!(s.flow, 3);
    }

    #[test]
    fn ack_segment_fields() {
        let blocks = SackBlocks::from_ranges([(6000, 7000)]);
        let s = Segment::ack(9, 5000, 65535, true, blocks);
        assert!(s.data_view().is_none());
        assert_eq!(s.payload_len(), 0);
        assert_eq!(
            s.kind,
            SegmentKind::Ack {
                ack: 5000,
                window: 65535,
                ecn_echo: true,
                sack: blocks
            }
        );
    }

    #[test]
    fn conn_segment_fields() {
        let s = Segment::conn(0xdead_beef, ConnPhase::Syn);
        assert_eq!(s.payload_len(), 0, "SYN is headers only");
        assert_eq!(s.flow, 0xdead_beef);
        assert_eq!(
            s.kind,
            SegmentKind::Conn {
                phase: ConnPhase::Syn
            }
        );
        assert!(s.data_view().is_none());

        let r = Segment::conn(7, ConnPhase::Request { len: 4096 });
        assert_eq!(r.payload_len(), 4096);
        assert_eq!(ConnPhase::FinAck.payload_len(), 0);
    }

    #[test]
    fn overload_phases_are_header_only() {
        for phase in [
            ConnPhase::SynAckCookie,
            ConnPhase::CookieAck,
            ConnPhase::Reset,
        ] {
            let s = Segment::conn(1, phase);
            assert_eq!(s.payload_len(), 0);
            assert_eq!(s.kind, SegmentKind::Conn { phase });
        }
    }

    #[test]
    fn typed_views_reject_wrong_kind() {
        let d = Segment::data(1, 0, 100, false);
        let dv = d.data_view().expect("data");
        assert_eq!((dv.seq, dv.len, dv.retransmit), (0, 100, false));
        let a = Segment::ack(1, 5, 10, false, SackBlocks::EMPTY);
        assert!(a.data_view().is_none());
    }
}
