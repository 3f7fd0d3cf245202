//! TCP receiver state machine: the receive side of one socket.
//!
//! Consumes (possibly GRO-merged) data segments, reassembles them in order,
//! and produces ACKs. The host stack calls [`TcpReceiver::on_data`] once per
//! merged skb it delivers to the TCP layer — which matches Linux's behaviour
//! under GRO of acknowledging per aggregated skb (effectively one ACK per up
//! to 64KB instead of the textbook every-other-MSS), and produces immediate
//! duplicate ACKs for out-of-order arrivals, feeding the sender's fast
//! retransmit.
//!
//! The receiver also owns the socket's buffer: [`TcpReceiver::on_copy`]
//! advances the application's read position `copied_seq`, and window
//! advertisement charges the backlog `rcv_nxt − copied_seq` at
//! *skb truesize* — the kernel charges each queued skb roughly twice its
//! payload against `sk_rcvbuf` (struct + page overheads), so a 6MB receive
//! buffer holds at most ≈3MB of payload backlog. The application draining
//! slowly closes the window, which is the coupling that lets host
//! processing latency inflate the BDP (paper §3.1, Fig. 3f) — and the
//! truesize factor is why the copy lag at the default auto-tuned buffer is
//! ≈3MB, the operating point behind the paper's 49% DCA miss rate.
//! A read that reopens a window delivery closed sends an explicit update
//! ([`TcpReceiver::reopen_update`]), and copies feed dynamic right-sizing.

use hns_sim::{Duration, SimTime};

use crate::autotune::RcvBufAutotune;
use crate::reassembly::ReassemblyQueue;
use crate::segment::{FlowId, Segment};

/// Delayed-ACK flush timeout: how long the stack's timer lets an ACK sit
/// before it calls [`TcpReceiver::delack_flush`]. Linux holds a delayed
/// ACK up to 40–200ms against a 200ms RTO floor; with this simulation's
/// microsecond RTTs and millisecond RTOs the same ratio lands at half a
/// millisecond. Without the timer, an in-order segment below the
/// every-second-MSS ACK threshold is never acknowledged once the sender
/// goes quiet — a min-cwnd sender (post-RTO) then crawls at one segment
/// per RTO, each RTO re-collapsing cwnd: a permanent livelock at ~0
/// goodput.
pub const DELACK_TIMEOUT: Duration = Duration::from_micros(500);

/// Outcome of delivering one data segment to the receiver.
#[derive(Clone, Copy, Debug)]
pub struct AckAction {
    /// ACK to transmit back to the sender (the stack charges its cost and
    /// enqueues it). `None` only for wholly-duplicate old data when an ACK
    /// was just sent.
    pub ack: Option<Segment>,
    /// Bytes that became in-order deliverable to the socket queue.
    pub delivered: u64,
    /// True if the segment was a (wholly or partially) duplicate.
    pub duplicate: bool,
    /// True if the segment landed out of order — this ACK is a dup-ACK.
    pub out_of_order: bool,
}

/// The receiver half of one flow.
pub struct TcpReceiver {
    flow: FlowId,
    mss: u32,
    reasm: ReassemblyQueue,
    autotune: RcvBufAutotune,
    /// Stream offset up to which the application has copied.
    copied_seq: u64,
    /// In-order delivery left less than 2·MSS of window.
    window_closed: bool,
    /// Bytes copied since the last DRS tick.
    copied_since_tick: u64,
    /// EWMA of host-side NAPI→copy latency, feeds the DRS RTT hint.
    host_latency_ewma: Duration,
    /// Unacknowledged in-order bytes (delayed-ACK accounting).
    unacked_bytes: u64,
}

impl TcpReceiver {
    /// New established flow with the given buffer policy.
    pub fn new(flow: FlowId, mss: u32, autotune: RcvBufAutotune) -> Self {
        TcpReceiver {
            flow,
            mss,
            reasm: ReassemblyQueue::new(),
            autotune,
            copied_seq: 0,
            window_closed: false,
            copied_since_tick: 0,
            host_latency_ewma: Duration::from_micros(10),
            unacked_bytes: 0,
        }
    }

    /// Next expected in-order byte.
    pub fn rcv_nxt(&self) -> u64 {
        self.reasm.rcv_nxt()
    }

    /// Stream offset up to which the application has copied.
    pub fn copied_seq(&self) -> u64 {
        self.copied_seq
    }

    /// Current receive buffer size.
    pub fn rcvbuf(&self) -> u64 {
        self.autotune.rcvbuf()
    }

    /// Window to advertise: the buffer minus what the socket holds —
    /// payload delivered but not yet copied, plus out-of-order bytes —
    /// charged at truesize (≈2× payload), as in the kernel.
    pub fn advertised_window(&self) -> u64 {
        let backlog = self.reasm.rcv_nxt() - self.copied_seq;
        let truesize = 2 * (backlog + self.reasm.ooo_bytes());
        self.autotune.rcvbuf().saturating_sub(truesize)
    }

    /// Deliver a data segment of `len` bytes at stream offset `seq`;
    /// `ce` is the wire ECN mark.
    ///
    /// ACK policy follows Linux: out-of-order or duplicate data elicits an
    /// immediate (dup-)ACK; in-order data is delay-acknowledged every
    /// second MSS. GRO-merged skbs (≥ 2×MSS) therefore always ACK — one
    /// ACK per aggregate — while the no-GRO path ACKs every other frame.
    /// The advertised window already counts the bytes just delivered (the
    /// copy hasn't happened yet).
    pub fn on_data(&mut self, seq: u64, len: u32, ce: bool) -> AckAction {
        let outcome = self.reasm.insert(seq, len);
        // Immediate ACK on: out-of-order / duplicate data (dup-ACK), ECN
        // marks, a hole fill that released previously-buffered ranges
        // (delivered > this segment's own bytes) — recovery must learn
        // about the repaired hole at once — or any arrival while holes
        // remain (Linux quickack during recovery; RFC 5681 §4.2 asks for
        // an immediate ACK when a segment fills part of a gap). Delaying
        // ACKs mid-recovery starves a min-cwnd sender of its ACK clock.
        let immediate = outcome.out_of_order
            || outcome.duplicate
            || ce
            || outcome.delivered > len as u64
            || self.reasm.ooo_bytes() > 0;
        let ack = if immediate {
            true
        } else {
            self.unacked_bytes += outcome.delivered;
            self.unacked_bytes >= 2 * self.mss as u64
        };
        let ack_seg = if ack {
            self.unacked_bytes = 0;
            Some(Segment::ack(
                self.flow,
                self.reasm.rcv_nxt(),
                self.advertised_window(),
                ce,
                self.reasm.sack_blocks(),
            ))
        } else {
            None
        };
        if outcome.delivered > 0 && self.advertised_window() < 2 * self.mss as u64 {
            self.window_closed = true;
        }
        AckAction {
            ack: ack_seg,
            delivered: outcome.delivered,
            duplicate: outcome.duplicate,
            out_of_order: outcome.out_of_order,
        }
    }

    /// The application copied the skb `[seq, end)`, `napi_latency` after
    /// NAPI polled it. Returns the bytes new to the application: only the
    /// overlap with `[copied_seq, rcv_nxt)` counts, so overlapping
    /// retransmits never double-count. Each skb folds one sample into the
    /// host-latency EWMA (gain 1/8).
    pub fn on_copy(&mut self, seq: u64, end: u64, napi_latency: Duration) -> u64 {
        let hi = end.min(self.reasm.rcv_nxt());
        let new = hi.saturating_sub(seq.max(self.copied_seq));
        self.copied_seq = self.copied_seq.max(hi);
        self.copied_since_tick += new;
        let old = self.host_latency_ewma.as_nanos();
        let sample = napi_latency.as_nanos();
        self.host_latency_ewma = Duration::from_nanos(old - old / 8 + sample / 8);
        new
    }

    /// After a read: the window update that reopens a closed window, once
    /// at least 2·MSS is free again.
    pub fn reopen_update(&mut self) -> Option<Segment> {
        if !self.window_closed || self.advertised_window() < 2 * self.mss as u64 {
            return None;
        }
        self.window_closed = false;
        Some(self.window_update())
    }

    /// DRS tick: size the buffer from the bytes copied over the last
    /// `interval` and an RTT hint of 2·`propagation` plus host latency.
    pub fn on_tick(&mut self, interval: Duration, propagation: Duration) {
        let copied = std::mem::take(&mut self.copied_since_tick);
        let rtt = propagation * 2 + self.host_latency_ewma;
        self.autotune.on_copied(copied, interval, rtt);
    }

    /// Generate a pure window update at the current cumulative edge.
    pub fn window_update(&self) -> Segment {
        Segment::ack(
            self.flow,
            self.reasm.rcv_nxt(),
            self.advertised_window(),
            false,
            self.reasm.sack_blocks(),
        )
    }

    /// While in-order bytes were delivered but the delayed-ACK policy
    /// still holds their ACK back: when a flush timer armed at `now` fires,
    /// [`DELACK_TIMEOUT`] later. Without the flush, a one-MSS-per-RTT
    /// sender (cwnd collapsed after an RTO) gets no ACK clock at all and
    /// crawls at one RTO per segment.
    pub fn delack_deadline(&self, now: SimTime) -> Option<SimTime> {
        (self.unacked_bytes > 0).then(|| now + DELACK_TIMEOUT)
    }

    /// Delayed-ACK timer fired: flush the held ACK at the current
    /// cumulative edge and window; `None` when a data-driven ACK already
    /// flushed it.
    pub fn delack_flush(&mut self) -> Option<Segment> {
        (std::mem::take(&mut self.unacked_bytes) > 0).then(|| self.window_update())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack_fields(s: &Segment) -> (u64, u64, bool) {
        let v = s.ack_view().expect("receiver emits acks");
        (v.ack, v.window, v.ecn_echo)
    }

    fn rx() -> TcpReceiver {
        TcpReceiver::new(1, 1448, RcvBufAutotune::fixed(1 << 20))
    }

    #[test]
    fn in_order_data_acks_cumulative() {
        let mut r = rx();
        let a = r.on_data(0, 10_000, false);
        assert_eq!(a.delivered, 10_000);
        let (ack, win, ecn) = ack_fields(&a.ack.unwrap());
        assert_eq!(ack, 10_000);
        assert_eq!(win, (1 << 20) - 20_000, "window shrinks by skb truesize");
        assert!(!ecn);
        assert!(!a.out_of_order);
    }

    #[test]
    fn out_of_order_generates_dup_ack() {
        let mut r = rx();
        r.on_data(0, 1_000, false);
        let a = r.on_data(2_000, 1_000, false);
        assert!(a.out_of_order);
        assert_eq!(a.delivered, 0);
        let (ack, _, _) = ack_fields(&a.ack.unwrap());
        assert_eq!(ack, 1_000, "dup ack repeats rcv_nxt");
        assert!(!a.duplicate);
    }

    #[test]
    fn hole_fill_delivers_everything() {
        let mut r = rx();
        r.on_data(0, 1_000, false);
        r.on_data(2_000, 1_000, false);
        let a = r.on_data(1_000, 1_000, false);
        assert_eq!(a.delivered, 2_000);
        let (ack, _, _) = ack_fields(&a.ack.unwrap());
        assert_eq!(ack, 3_000);
    }

    #[test]
    fn ecn_mark_echoed() {
        let mut r = rx();
        let a = r.on_data(0, 1_000, true);
        let (_, _, ecn) = ack_fields(&a.ack.unwrap());
        assert!(ecn);
    }

    #[test]
    fn window_counts_ooo_bytes() {
        let mut r = rx();
        r.on_data(10_000, 5_000, false);
        // 5KB held out-of-order reduces the advertised window by its
        // truesize.
        assert_eq!(r.advertised_window(), (1 << 20) - 10_000);
    }

    #[test]
    fn window_reaches_zero_at_half_buffer() {
        // Truesize doubling: payload backlog of rcvbuf/2 closes the window.
        let mut r = rx();
        r.on_data(0, 1 << 19, false);
        assert_eq!(r.advertised_window(), 0);
        let mut r = rx();
        r.on_data(0, 2 << 20, false);
        assert_eq!(r.advertised_window(), 0, "saturating");
    }

    #[test]
    fn window_update_segment() {
        let mut r = rx();
        r.on_data(0, 1_000, false);
        r.on_copy(0, 1_000, Duration::ZERO);
        let u = r.window_update();
        let (ack, win, _) = ack_fields(&u);
        assert_eq!(ack, 1_000);
        assert_eq!(win, 1 << 20);
    }

    #[test]
    fn copy_counts_only_new_bytes() {
        let mut r = rx();
        r.on_data(0, 3_000, false);
        assert_eq!(r.on_copy(0, 2_000, Duration::ZERO), 2_000);
        // An overlapping retransmit's skb counts only its unread tail.
        assert_eq!(r.on_copy(1_000, 3_000, Duration::ZERO), 1_000);
        assert_eq!(r.on_copy(0, 3_000, Duration::ZERO), 0, "all read");
        assert_eq!(r.copied_seq(), 3_000);
        assert_eq!(r.advertised_window(), 1 << 20, "backlog drained");
    }

    #[test]
    fn closed_window_reopens_with_one_update() {
        let mut r = rx();
        // Fill to within 2·MSS of a closed window: rcvbuf/2 − 1KB payload.
        let a = r.on_data(0, (1 << 19) - 1_000, false);
        assert_eq!(ack_fields(&a.ack.unwrap()).1, 2_000);
        assert!(r.reopen_update().is_none(), "no read yet");
        // A read that frees less than 2·MSS keeps it closed.
        r.on_copy(0, 100, Duration::ZERO);
        assert!(r.reopen_update().is_none());
        r.on_copy(100, 10_000, Duration::ZERO);
        let u = r.reopen_update().expect("window reopened");
        let (ack, win, _) = ack_fields(&u);
        assert_eq!(ack, (1 << 19) - 1_000);
        assert_eq!(win, 2_000 + 2 * 10_000);
        assert!(r.reopen_update().is_none(), "one update per close");
    }

    #[test]
    fn open_window_sends_no_update() {
        let mut r = rx();
        r.on_data(0, 10_000, false);
        r.on_copy(0, 10_000, Duration::ZERO);
        assert!(r.reopen_update().is_none());
    }

    #[test]
    fn latency_ewma_feeds_the_drs_rtt_hint() {
        let mut r = TcpReceiver::new(1, 1448, RcvBufAutotune::auto());
        r.on_data(0, 1_000_000, false);
        for i in 0..100 {
            r.on_copy(i * 10_000, (i + 1) * 10_000, Duration::from_micros(200));
        }
        let us = r.host_latency_ewma.as_micros();
        assert!((150..=205).contains(&us), "ewma = {us}us");
        // 1MB per 1ms at an RTT of 2 × 50us + the EWMA: 4× the bytes per
        // RTT, which beats the doubling rule's 2 × 256KB.
        let rtt = Duration::from_micros(100) + r.host_latency_ewma;
        r.on_tick(Duration::from_millis(1), Duration::from_micros(50));
        let rate = 1e6 / Duration::from_millis(1).as_secs_f64();
        let want = (4.0 * (rate * rtt.as_secs_f64())) as u64;
        assert_eq!(r.rcvbuf(), want);
        // The tick consumed the copied bytes: an idle tick changes nothing.
        r.on_tick(Duration::from_millis(1), Duration::from_micros(50));
        assert_eq!(r.rcvbuf(), want);
    }

    #[test]
    fn duplicate_data_counted() {
        let mut r = rx();
        r.on_data(0, 10_000, false);
        let a = r.on_data(0, 1_000, false);
        assert!(a.duplicate);
        let (ack, _, _) = ack_fields(&a.ack.expect("duplicate data acks at once"));
        assert_eq!(ack, 10_000, "the dup ack repeats rcv_nxt");
    }

    #[test]
    fn delayed_ack_every_second_mss() {
        let mut r = rx();
        // First MSS-sized in-order segment: ACK withheld.
        let a1 = r.on_data(0, 1_448, false);
        assert!(a1.ack.is_none(), "first MSS is delay-acked");
        // Second: cumulative ACK released.
        let a2 = r.on_data(1_448, 1_448, false);
        let (ack, _, _) = ack_fields(&a2.ack.expect("second MSS acks"));
        assert_eq!(ack, 2 * 1_448);
        assert!(r.delack_flush().is_none(), "the ack left nothing held");
    }

    #[test]
    fn gro_aggregates_always_ack() {
        let mut r = rx();
        // A 64KB merged skb is ≥ 2×MSS: immediate ACK.
        let a = r.on_data(0, 65_536, false);
        assert!(a.ack.is_some());
    }

    #[test]
    fn ooo_acks_immediately_even_after_delack() {
        let mut r = rx();
        let a1 = r.on_data(0, 1_448, false);
        assert!(a1.ack.is_none());
        // Out-of-order arrival: immediate dup-ACK despite pending delack.
        let a2 = r.on_data(10_000, 1_448, false);
        assert!(a2.ack.is_some());
        assert!(a2.out_of_order);
    }

    #[test]
    fn quickack_while_holes_remain() {
        let mut r = rx();
        // Open a hole: [10_000, 11_448) parked out of order.
        assert!(r.on_data(10_000, 1_448, false).ack.is_some());
        // In-order single MSS with the hole still open: must ACK at once
        // (Linux quickack in recovery) — a delayed ACK here would starve a
        // min-cwnd sender mid-recovery of its ACK clock.
        let a = r.on_data(0, 1_448, false);
        assert!(a.ack.is_some(), "in-order data acks immediately mid-hole");
        // Once the hole closes, the delayed-ACK policy resumes.
        assert!(r.on_data(1_448, 8_552, false).ack.is_some()); // fills to 10_000, releases hole
        assert!(r.on_data(11_448, 1_448, false).ack.is_none());
    }

    #[test]
    fn delack_flush_releases_held_ack() {
        let mut r = rx();
        assert!(r.on_data(0, 1_448, false).ack.is_none());
        let now = SimTime::from_nanos(7);
        let held = r.delack_deadline(now);
        assert_eq!(held, Some(now + DELACK_TIMEOUT), "one MSS held back");
        let seg = r.delack_flush().expect("flush emits an ack");
        assert_eq!(seg.ack_view().unwrap().ack, 1_448);
        assert_eq!(r.delack_deadline(now), None);
        assert!(r.delack_flush().is_none(), "nothing left to flush");
        // Next odd MSS starts a fresh delack cycle, not an immediate ACK.
        assert!(r.on_data(1_448, 1_448, false).ack.is_none());
        assert!(r.delack_deadline(now).is_some());
    }
}
