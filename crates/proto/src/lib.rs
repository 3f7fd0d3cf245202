//! # hns-proto — the transport protocol engine
//!
//! A sender-driven, TCP-like reliable byte-stream protocol, written as pure
//! state machines: the host stack (`hns-stack`) drives them, moves their
//! segments across the simulated link, and charges CPU cycles for the
//! processing they trigger. Splitting protocol *correctness* from CPU
//! *cost* keeps both testable in isolation.
//!
//! What is implemented (all of it exercised by the paper's experiments):
//!
//! * cumulative ACKs, duplicate-ACK counting, fast retransmit, a
//!   retransmission timeout with exponential backoff, and Linux's
//!   send-buffer sizing ([`sender`]),
//! * out-of-order segment reassembly at the receiver ([`reassembly`]),
//! * delayed ACKs (every second full-sized segment, Linux-style) and
//!   immediate dup-ACKs on out-of-order arrival ([`receiver`]),
//! * receive-window advertisement from the socket's copy backlog, with an
//!   update when a closed window reopens ([`receiver`]), and Linux-like
//!   dynamic right-sizing auto-tuning ([`autotune`]),
//! * pluggable congestion control ([`cc`]): Reno, CUBIC (Linux default),
//!   DCTCP (ECN-fraction window scaling), and BBR (model-based rate with
//!   pacing — the pacing timer is what produces BBR's extra sender-side
//!   scheduling overhead in the paper's Fig. 13b).
//!
//! Loss recovery is SACK-based: receivers report up to three received
//! ranges per ACK (RFC 2018), senders keep a [`sack::Scoreboard`] and
//! retransmit lost gaps lowest-first under RFC 6675-style pipe limiting,
//! with tail-loss probes and HyStart slow-start exit rounding out the
//! Linux-equivalent behaviours.
//!
//! Simplifications, each documented where it lives: sequence numbers are
//! 64-bit stream offsets (no 32-bit wraparound), and there is no
//! handshake or teardown (the paper measures long-running established
//! connections).

pub mod autotune;
pub mod cc;
#[cfg(test)]
mod prop_merge;
pub mod reassembly;
pub mod receiver;
pub mod sack;
pub mod segment;
pub mod sender;

pub use autotune::RcvBufAutotune;
pub use cc::{make_cc, CcAlgo, CongestionControl};
pub use reassembly::ReassemblyQueue;
pub use receiver::{AckAction, TcpReceiver, DELACK_TIMEOUT};
pub use sack::{SackBlocks, Scoreboard};
pub use segment::{ConnPhase, DataView, FlowId, Segment, SegmentKind};
pub use sender::{SendAction, TcpSender};

/// Bytes of TCP/IP/Ethernet header overhead per wire frame.
pub const HEADER_BYTES: u32 = 78;
