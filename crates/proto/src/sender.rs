//! TCP sender state machine.
//!
//! Owns the send-side sequence space: which bytes the application has
//! written (`stream_end`), which are acknowledged (`snd_una`), which have
//! been transmitted (`snd_nxt`), and how many may be outstanding
//! (min of congestion window and peer receive window). Loss recovery is
//! SACK-based (RFC 2018 blocks + an RFC 6675-style scoreboard): recovery
//! starts on the third duplicate ACK or when the scoreboard proves a
//! loss, retransmissions walk the lost gaps lowest-first under pipe
//! limiting, and an RTO collapses the window and rewinds `snd_nxt`.
//!
//! The state machine is driven by the host stack which charges CPU cycles
//! for each operation; no costs live here.

use hns_sim::{Duration, SimTime};

use crate::cc::{CcAlgo, CongestionControl};
use crate::sack::{SackBlocks, Scoreboard};
use crate::segment::{FlowId, Segment};

/// Send-buffer cap in bytes (`tcp_wmem[2]`). Set above the receive-buffer
/// cap so the receiver window, not the send buffer, is the binding
/// constraint, as in the paper's tuned testbed.
pub const SNDBUF_MAX: u64 = 16 * 1024 * 1024;

/// Result of processing one ACK.
#[derive(Clone, Copy, Debug, Default)]
pub struct SendAction {
    /// Bytes newly acknowledged.
    pub newly_acked: u64,
    /// This ACK was the third duplicate: a fast retransmission was queued.
    pub fast_retransmit: bool,
    /// The ACK made transmission possible again (window opened or data
    /// acked) — the stack should try `next_segment`.
    pub try_transmit: bool,
}

/// RTT estimator per RFC 6298.
#[derive(Clone, Copy, Debug)]
struct RttEstimator {
    srtt: Option<Duration>,
    rttvar: Duration,
    rto: Duration,
    min_rto: Duration,
}

impl RttEstimator {
    fn new(min_rto: Duration) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: Duration::ZERO,
            rto: Duration::from_millis(100),
            min_rto,
        }
    }

    fn sample(&mut self, rtt: Duration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let delta = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                // rttvar = 3/4 rttvar + 1/4 |srtt - rtt|
                self.rttvar = self.rttvar * 3 / 4 + delta / 4;
                // srtt = 7/8 srtt + 1/8 rtt
                self.srtt = Some(srtt * 7 / 8 + rtt / 8);
            }
        }
        let srtt = self.srtt.expect("set above");
        self.rto = (srtt + (self.rttvar * 4).max(Duration::from_micros(1))).max(self.min_rto);
    }
}

/// The sender half of one flow.
pub struct TcpSender {
    flow: FlowId,
    mss: u32,
    /// First unacknowledged byte.
    snd_una: u64,
    /// Next byte to transmit.
    snd_nxt: u64,
    /// Highest byte ever transmitted (snd_nxt rewinds on RTO; this doesn't).
    snd_max: u64,
    /// End of the data the application has written so far.
    stream_end: u64,
    /// Highest `ack + window` the peer has advertised.
    rwnd_edge: u64,
    cc: Box<dyn CongestionControl>,
    dupacks: u32,
    /// `Some(high_seq)` while in fast recovery; exit when `snd_una ≥ high`.
    recovery: Option<u64>,
    /// SACK scoreboard: ranges the receiver holds beyond `snd_una`.
    scoreboard: Scoreboard,
    /// Retransmission cursor: lost gaps below this are already resent in
    /// the current recovery epoch.
    rtx_next: u64,
    /// One-shot probe retransmission (TLP), bypasses the scoreboard.
    pending_probe: Option<(u64, u64)>,
    /// Retransmitted bytes in flight since the last cumulative-ACK
    /// advance (RFC 6675-style pipe accounting: retransmission bursts are
    /// clocked by the congestion window, or a lost-window's worth of
    /// retransmissions would instantly re-overrun whatever dropped the
    /// originals).
    rtx_out: u64,
    /// A zero-window probe is queued (persist timer fired): the next
    /// segment may ignore the peer's advertised window for one MSS.
    probe_pending: bool,
    rtt: RttEstimator,
    /// One outstanding RTT probe: (sequence that must be acked, send time).
    rtt_probe: Option<(u64, SimTime)>,
    /// True if a retransmission happened since the probe was set (Karn's
    /// algorithm: discard the sample).
    probe_tainted: bool,
    /// Exponential RTO backoff exponent.
    backoff: u32,
    /// A tail-loss probe was already sent for the current flight (one TLP
    /// per flight, per RFC 8985 / Linux).
    tlp_sent: bool,
    /// When the RTO timer was last (re)armed.
    rto_armed_at: Option<SimTime>,
    // ECN window sampling for DCTCP.
    ecn_acks: u64,
    ecn_ce: u64,
    ecn_window_end: u64,
    /// Total segments retransmitted (reporting).
    pub retransmissions: u64,
}

/// Minimum RTO. Linux's default is 200ms; datacenter deployments tune it
/// down aggressively. We default to 10ms so tail losses don't stall a whole
/// measurement window; the recovery *dynamics* (dup-ACK driven) dominate at
/// the paper's loss rates anyway.
pub const MIN_RTO: Duration = Duration::from_millis(10);

impl TcpSender {
    /// New established flow.
    pub fn new(flow: FlowId, mss: u32, algo: CcAlgo) -> Self {
        TcpSender {
            flow,
            mss,
            snd_una: 0,
            snd_nxt: 0,
            snd_max: 0,
            stream_end: 0,
            rwnd_edge: 64 * 1024, // pre-handshake default window
            cc: crate::cc::make_cc(algo, mss),
            dupacks: 0,
            recovery: None,
            scoreboard: Scoreboard::new(),
            rtx_next: 0,
            pending_probe: None,
            rtx_out: 0,
            probe_pending: false,
            rtt: RttEstimator::new(MIN_RTO),
            rtt_probe: None,
            probe_tainted: false,
            backoff: 0,
            tlp_sent: false,
            rto_armed_at: None,
            ecn_acks: 0,
            ecn_ce: 0,
            ecn_window_end: 0,
            retransmissions: 0,
        }
    }

    /// Bytes in flight (sent, unacked).
    pub fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Unsent bytes queued in the send buffer.
    pub fn unsent(&self) -> u64 {
        self.stream_end - self.snd_nxt
    }

    /// Bytes occupying the send buffer (written, not yet acked).
    pub fn buffered(&self) -> u64 {
        self.stream_end - self.snd_una
    }

    /// Bytes cumulatively acknowledged (`snd_una`).
    pub fn acked(&self) -> u64 {
        self.snd_una
    }

    /// Bytes the application has written into the stream (`stream_end`).
    pub fn stream_written(&self) -> u64 {
        self.stream_end
    }

    /// Current congestion window (bytes).
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }

    /// Smoothed RTT, if sampled.
    pub fn srtt(&self) -> Option<Duration> {
        self.rtt.srtt
    }

    /// Pacing rate if the CC algorithm paces (BBR).
    pub fn pacing_rate(&self) -> Option<f64> {
        self.cc.pacing_rate()
    }

    /// The application wrote `bytes` into the socket. The caller enforces
    /// send-buffer capacity via [`TcpSender::can_write`].
    pub fn app_write(&mut self, bytes: u64) {
        self.stream_end += bytes;
    }

    /// Whether the send buffer has room for one more `write`-byte write.
    /// Linux autotunes `sk_sndbuf` toward twice the congestion window
    /// (`tcp_sndbuf_expand`), here at least two writes and at most
    /// [`SNDBUF_MAX`] (the cap wins for a write above half of it). Without
    /// this, thousands of idle-ish flows would each buffer the full static
    /// maximum and the measurement would be dominated by buffer-fill copies
    /// that never reach the wire.
    pub fn can_write(&self, write: u64) -> bool {
        let sndbuf = (2 * self.cwnd()).max(2 * write).min(SNDBUF_MAX);
        sndbuf.saturating_sub(self.buffered()) >= write
    }

    /// Whether the windows admit new data and there is unsent data to
    /// admit: the next transmission attempt would emit a segment.
    pub fn can_send(&self) -> bool {
        self.usable_window() > 0 && self.unsent() > 0
    }

    /// RFC 6675 pipe estimate: bytes believed to be in the network —
    /// transmitted data minus what the receiver holds (SACKed) minus what
    /// is presumed lost (gaps below the SACK frontier not yet resent),
    /// plus retransmissions in flight.
    fn pipe(&self) -> u64 {
        let flight = self.in_flight();
        let sacked = self.scoreboard.sacked_bytes();
        let lost_unresent = self.scoreboard.gap_bytes(
            self.snd_una
                .max(self.rtx_next)
                .min(self.scoreboard.high_sacked()),
        );
        flight
            .saturating_sub(sacked)
            .saturating_sub(lost_unresent)
            .saturating_add(self.rtx_out)
    }

    /// Usable transmission window right now: how many *new* bytes may enter
    /// the network.
    pub fn usable_window(&self) -> u64 {
        let by_cc = self.cc.cwnd().saturating_sub(self.pipe());
        let by_peer = self.rwnd_edge.saturating_sub(self.snd_nxt);
        by_cc.min(by_peer)
    }

    /// True when the flow is stalled on a zero peer window with data
    /// queued — the state the persist timer guards (a lost window update
    /// would otherwise deadlock the connection).
    pub fn zero_window_stalled(&self) -> bool {
        self.in_flight() == 0 && self.unsent() > 0 && self.usable_window() == 0
    }

    /// Produce the next segment to hand to the NIC path, at most
    /// `max_payload` bytes (64KB with TSO/GSO, one MSS without), or `None`
    /// if nothing can be sent. The stack calls this repeatedly until `None`.
    pub fn next_segment(&mut self, now: SimTime, max_payload: u32) -> Option<Segment> {
        // Zero-window probe: one MSS of new data sent despite the window,
        // to elicit a fresh ACK carrying the peer's current window.
        if self.probe_pending {
            self.probe_pending = false;
            let len = (self.mss as u64).min(self.unsent()).min(max_payload as u64) as u32;
            if len > 0 {
                let seq = self.snd_nxt;
                self.snd_nxt += len as u64;
                self.snd_max = self.snd_max.max(self.snd_nxt);
                self.arm_rto(now);
                return Some(Segment::data(self.flow, seq, len, false));
            }
        }
        // Probe retransmission (TLP) bypasses the scoreboard and window.
        if let Some((start, end)) = self.pending_probe.take() {
            let len = (end - start).min(max_payload as u64) as u32;
            if len > 0 {
                self.rtx_out += len as u64;
                self.retransmissions += 1;
                self.probe_tainted = true;
                self.arm_rto(now);
                return Some(Segment::data(self.flow, start, len, true));
            }
        }

        // Scoreboard-driven recovery: resend lost gaps lowest-first,
        // clocked by the pipe.
        if self.recovery.is_some() {
            if let Some((gap_start, gap_end)) = self.scoreboard.next_lost_gap(
                self.rtx_next.max(self.snd_una),
                self.snd_una,
                self.mss,
            ) {
                let budget = self.cc.cwnd().saturating_sub(self.pipe());
                let len = (gap_end - gap_start).min(max_payload as u64).min(budget) as u32;
                if len > 0 {
                    self.rtx_next = gap_start + len as u64;
                    self.rtx_out += len as u64;
                    self.retransmissions += 1;
                    self.probe_tainted = true;
                    self.arm_rto(now);
                    return Some(Segment::data(self.flow, gap_start, len, true));
                }
                // Pipe exhausted: wait for ACKs to clock out more.
                return None;
            }
        }

        let window = self.usable_window();
        let sendable = window.min(self.unsent());
        if sendable == 0 {
            return None;
        }
        let len = sendable.min(max_payload as u64) as u32;
        let seq = self.snd_nxt;
        self.snd_nxt += len as u64;
        // Bytes below snd_max were already on the wire once: this is a
        // go-back-N retransmission after an RTO rewind.
        let is_retransmit = seq < self.snd_max;
        if is_retransmit {
            self.retransmissions += 1;
            self.probe_tainted = true;
        }
        self.snd_max = self.snd_max.max(self.snd_nxt);

        // Arm an RTT probe on this segment if none outstanding.
        if self.rtt_probe.is_none() {
            self.rtt_probe = Some((seq + len as u64, now));
            self.probe_tainted = false;
        }
        if self.rto_armed_at.is_none() {
            self.arm_rto(now);
        }
        Some(Segment::data(self.flow, seq, len, is_retransmit))
    }

    /// Enter fast recovery at the current send frontier.
    fn enter_recovery(&mut self, now: SimTime) {
        self.recovery = Some(self.snd_nxt);
        self.rtx_next = self.snd_una;
        self.cc.on_loss(now);
    }

    /// Process an incoming ACK carrying `sack` blocks.
    pub fn on_ack(
        &mut self,
        now: SimTime,
        ack: u64,
        window: u64,
        ecn_echo: bool,
        sack: &SackBlocks,
    ) -> SendAction {
        let mut action = SendAction::default();
        self.rwnd_edge = self.rwnd_edge.max(ack + window);
        self.scoreboard.merge(sack, ack.max(self.snd_una));

        // ECN accounting (DCTCP): one sample per window of data.
        self.ecn_acks += 1;
        if ecn_echo {
            self.ecn_ce += 1;
        }
        if ack >= self.ecn_window_end {
            let frac = if self.ecn_acks > 0 {
                self.ecn_ce as f64 / self.ecn_acks as f64
            } else {
                0.0
            };
            self.cc.on_ecn_sample(frac);
            self.ecn_acks = 0;
            self.ecn_ce = 0;
            self.ecn_window_end = self.snd_nxt;
        }

        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            self.snd_una = ack;
            // After an RTO rewind, ACKs for data sent before the rewind can
            // overtake snd_nxt; transmission resumes from the ACK point.
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            self.dupacks = 0;
            self.backoff = 0;
            self.tlp_sent = false; // progress: new flight, TLP re-armed
            self.rtx_out = self.rtx_out.saturating_sub(newly);
            self.scoreboard.prune(self.snd_una);
            self.rtx_next = self.rtx_next.max(self.snd_una);
            action.newly_acked = newly;
            action.try_transmit = true;

            // RTT sample (Karn: only if no retransmission tainted it).
            let mut rtt_sample = Duration::ZERO;
            if let Some((probe_seq, sent_at)) = self.rtt_probe {
                if ack >= probe_seq {
                    if !self.probe_tainted {
                        rtt_sample = now.since(sent_at);
                        self.rtt.sample(rtt_sample);
                    }
                    self.rtt_probe = None;
                }
            }

            match self.recovery {
                Some(high) if ack < high => {
                    // Partial ACK: stay in recovery; the scoreboard keeps
                    // driving retransmissions, no further window
                    // reduction (NewReno semantics under SACK).
                    action.fast_retransmit = true;
                }
                Some(_) => {
                    self.recovery = None;
                    self.rtx_out = 0;
                    self.cc.on_ack(now, newly, rtt_sample, self.in_flight());
                }
                None => {
                    self.cc.on_ack(now, newly, rtt_sample, self.in_flight());
                }
            }

            if self.in_flight() > 0 || self.zero_window_stalled() {
                self.arm_rto(now);
            } else {
                self.rto_armed_at = None;
            }
        } else if ack == self.snd_una && self.in_flight() > 0 {
            // Duplicate ACK.
            self.dupacks += 1;
            // Enter recovery on the classic third dup-ACK, or as soon as
            // the scoreboard proves a loss (RFC 6675 allows acting on
            // SACK evidence directly).
            let sack_loss = self
                .scoreboard
                .next_lost_gap(self.snd_una, self.snd_una, self.mss)
                .is_some();
            if self.recovery.is_none() && (self.dupacks >= 3 || sack_loss) {
                self.enter_recovery(now);
                action.fast_retransmit = true;
            }
            action.try_transmit = true;
        } else {
            // Pure window update.
            action.try_transmit = true;
        }
        action
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_armed_at = Some(now);
    }

    /// Deadline of the loss-detection timer, if armed. The first timer of
    /// a flight is the *tail-loss probe* (PTO = max(2·srtt, 500µs), per
    /// Linux), which recovers tail losses without waiting out a full RTO;
    /// subsequent timers are the RTO with exponential backoff. The stack
    /// re-reads this value after every call that may move it and fires
    /// [`Self::on_rto`] once the latest deadline is reached.
    pub fn rto_deadline(&self) -> Option<SimTime> {
        let armed = self.rto_armed_at?;
        let delay = match (self.tlp_sent, self.rtt.srtt, self.in_flight() > 0) {
            (false, Some(srtt), true) => {
                // PTO: only while data is actually in flight.
                ((srtt * 2).max(Duration::from_micros(500)))
                    .min(self.rtt.rto * (1u64 << self.backoff.min(6)))
            }
            _ => self.rtt.rto * (1u64 << self.backoff.min(6)),
        };
        Some(armed + delay)
    }

    /// The loss-detection timer fired. Three personalities:
    /// * zero-window stall → persist probe,
    /// * first fire of a flight → tail-loss probe (retransmit the head,
    ///   no window reduction; the resulting ACK restarts recovery),
    /// * otherwise → full RTO: collapse the window and go-back-N.
    pub fn on_rto(&mut self, now: SimTime) {
        if self.in_flight() == 0 {
            if self.zero_window_stalled() {
                self.probe_pending = true;
                self.backoff = (self.backoff + 1).min(10);
                self.arm_rto(now);
            } else {
                self.rto_armed_at = None;
            }
            return;
        }
        if !self.tlp_sent && self.rtt.srtt.is_some() {
            self.tlp_sent = true;
            // Probe with one MSS at the head of the window.
            let end = (self.snd_una + self.mss as u64).min(self.snd_nxt);
            self.pending_probe = Some((self.snd_una, end));
            self.arm_rto(now);
            return;
        }
        self.cc.on_rto(now);
        self.recovery = Some(self.snd_nxt);
        // Go-back-N: rewind transmission to the first unacked byte. The
        // scoreboard is cleared (conservative, RFC 6675 §5.1 option) —
        // the rewind will resend everything anyway.
        self.snd_nxt = self.snd_una;
        self.scoreboard.clear();
        self.rtx_next = self.snd_una;
        self.rtx_out = 0;
        self.pending_probe = None;
        self.dupacks = 0;
        self.backoff = (self.backoff + 1).min(10);
        self.probe_tainted = true;
        self.rtt_probe = None;
        self.arm_rto(now);
    }

    /// True once every written byte is acknowledged.
    pub fn all_acked(&self) -> bool {
        self.snd_una == self.stream_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg_range(s: &Segment) -> (u64, u64, bool) {
        let d = s.data_view().expect("sender emits data");
        (d.seq, d.end(), d.retransmit)
    }

    fn sender() -> TcpSender {
        TcpSender::new(1, 1000, CcAlgo::Reno)
    }

    #[test]
    fn transmits_up_to_initial_window() {
        let mut s = sender();
        s.app_write(100_000);
        let mut sent = 0;
        while let Some(seg) = s.next_segment(SimTime::ZERO, 1000) {
            sent += seg.payload_len() as u64;
        }
        assert_eq!(sent, 10_000, "initial cwnd = 10 MSS");
        assert_eq!(s.in_flight(), 10_000);
    }

    #[test]
    fn respects_peer_window() {
        let mut s = sender();
        s.app_write(1_000_000);
        // Peer advertised 64KB pre-handshake; grow cwnd past it.
        let mut now = SimTime::ZERO;
        for _ in 0..20 {
            while s.next_segment(now, 1000).is_some() {}
            let ack = s.snd_nxt;
            now += Duration::from_micros(100);
            s.on_ack(now, ack, 64 * 1024, false, &SackBlocks::EMPTY);
        }
        assert!(s.snd_nxt <= s.rwnd_edge, "violated receive window");
    }

    #[test]
    fn ack_advances_and_frees_window() {
        let mut s = sender();
        s.app_write(50_000);
        while s.next_segment(SimTime::ZERO, 1000).is_some() {}
        let t = SimTime::from_nanos(100_000);
        let a = s.on_ack(t, 5_000, 1 << 20, false, &SackBlocks::EMPTY);
        assert_eq!(a.newly_acked, 5_000);
        assert!(a.try_transmit);
        assert_eq!(s.in_flight(), 5_000);
        assert!(s.next_segment(t, 1000).is_some(), "window freed");
    }

    #[test]
    fn sack_evidence_triggers_fast_retransmit() {
        let mut s = sender();
        s.app_write(50_000);
        while s.next_segment(SimTime::ZERO, 1000).is_some() {}
        let t = SimTime::from_nanos(100_000);
        let cwnd_before = s.cwnd();
        // First dup-ACK carries only 2 MSS of SACK — not yet proof.
        let a1 = s.on_ack(
            t,
            0,
            1 << 20,
            false,
            &SackBlocks::from_ranges([(1000, 3000)]),
        );
        assert!(!a1.fast_retransmit);
        // 3 MSS SACKed above the hole: recovery starts immediately
        // (RFC 6675), without waiting for the third duplicate.
        let a2 = s.on_ack(
            t,
            0,
            1 << 20,
            false,
            &SackBlocks::from_ranges([(1000, 4000)]),
        );
        assert!(a2.fast_retransmit);
        assert!(s.cwnd() < cwnd_before, "loss should shrink window");
        // Right after the window reduction the pipe still exceeds cwnd
        // (most of the flight is neither SACKed nor lost) — RFC 6675
        // withholds the retransmission until more SACKs drain the pipe.
        assert!(s.next_segment(t, 1000).is_none(), "pipe-limited");
        s.on_ack(
            t,
            0,
            1 << 20,
            false,
            &SackBlocks::from_ranges([(1000, 9000)]),
        );
        // The retransmission covers exactly the hole [0, 1000).
        let seg = s.next_segment(t, 1000).expect("retransmission");
        let (start, end, rtx) = seg_range(&seg);
        assert_eq!((start, end), (0, 1000));
        assert!(rtx);
        assert_eq!(s.retransmissions, 1);
    }

    #[test]
    fn classic_triple_dupack_without_sack_still_works() {
        let mut s = sender();
        s.app_write(50_000);
        while s.next_segment(SimTime::ZERO, 1000).is_some() {}
        let t = SimTime::from_nanos(100_000);
        assert!(
            !s.on_ack(t, 0, 1 << 20, false, &SackBlocks::EMPTY)
                .fast_retransmit
        );
        assert!(
            !s.on_ack(t, 0, 1 << 20, false, &SackBlocks::EMPTY)
                .fast_retransmit
        );
        let a3 = s.on_ack(t, 0, 1 << 20, false, &SackBlocks::EMPTY);
        assert!(a3.fast_retransmit, "third dup-ACK enters recovery");
        // With no scoreboard evidence there is no gap to resend yet; the
        // next SACKed dup-ACKs provide it (and drain the pipe estimate).
        s.on_ack(
            t,
            0,
            1 << 20,
            false,
            &SackBlocks::from_ranges([(1000, 9000)]),
        );
        let seg = s.next_segment(t, 1000).expect("retransmission");
        let (start, _, rtx) = seg_range(&seg);
        assert_eq!(start, 0);
        assert!(rtx);
    }

    #[test]
    fn scoreboard_walks_multiple_holes() {
        let mut s = sender();
        s.app_write(50_000);
        while s.next_segment(SimTime::ZERO, 1000).is_some() {}
        let t = SimTime::from_nanos(100_000);
        // Two holes: [0,1000) and [3000,4000); plenty SACKed above both.
        let blocks = SackBlocks::from_ranges([(1000, 3000), (4000, 9000)]);
        let a = s.on_ack(t, 0, 1 << 20, false, &blocks);
        assert!(a.fast_retransmit);
        let seg1 = s.next_segment(t, 1000).expect("first hole");
        assert_eq!(seg_range(&seg1).0, 0);
        let seg2 = s.next_segment(t, 1000).expect("second hole");
        assert_eq!(seg_range(&seg2).0, 3_000);
        assert!(seg_range(&seg2).2, "marked as retransmission");
        // Partial ACK past the first hole keeps recovery going.
        let a = s.on_ack(
            t,
            3_000,
            1 << 20,
            false,
            &SackBlocks::from_ranges([(4000, 9000)]),
        );
        assert!(a.fast_retransmit, "partial ack stays in recovery");
        assert_eq!(s.retransmissions, 2);
    }

    #[test]
    fn recovery_exits_on_full_ack() {
        let mut s = sender();
        s.app_write(50_000);
        while s.next_segment(SimTime::ZERO, 1000).is_some() {}
        let t = SimTime::from_nanos(100_000);
        let high = s.snd_nxt;
        for _ in 0..3 {
            s.on_ack(t, 0, 1 << 20, false, &SackBlocks::EMPTY);
        }
        let _ = s.next_segment(t, 1000);
        let a = s.on_ack(t, high, 1 << 20, false, &SackBlocks::EMPTY);
        assert!(!a.fast_retransmit);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn rto_rewinds_and_backs_off() {
        let mut s = sender();
        s.app_write(50_000);
        let t0 = SimTime::ZERO;
        while s.next_segment(t0, 1000).is_some() {}
        let d1 = s.rto_deadline().expect("armed");
        s.on_rto(d1);
        assert_eq!(s.snd_nxt, 0, "go-back-N rewind");
        assert_eq!(s.cwnd(), 1000, "RTO collapses window");
        let d2 = s.rto_deadline().expect("re-armed");
        assert!(d2.since(d1) > d1.since(t0), "exponential backoff");
        // Retransmission flows again.
        let seg = s.next_segment(d1, 1000).expect("resend");
        let (start, end, _) = seg_range(&seg);
        assert_eq!((start, end), (0, 1000));
    }

    #[test]
    fn rtt_estimator_converges() {
        let mut s = sender();
        s.app_write(10_000_000);
        let mut now = SimTime::ZERO;
        let rtt = Duration::from_micros(80);
        for _ in 0..50 {
            while s.next_segment(now, 1000).is_some() {}
            now += rtt;
            s.on_ack(now, s.snd_nxt, 1 << 24, false, &SackBlocks::EMPTY);
        }
        let srtt = s.srtt().expect("sampled");
        let err = (srtt.as_nanos() as f64 - 80_000.0).abs() / 80_000.0;
        assert!(err < 0.05, "srtt = {srtt}");
    }

    #[test]
    fn no_rtt_sample_from_retransmitted_data() {
        let mut s = sender();
        s.app_write(10_000);
        while s.next_segment(SimTime::ZERO, 1000).is_some() {}
        let t = SimTime::from_nanos(50_000);
        // SACK evidence → recovery → a retransmission happens (the near-
        // total SACK coverage also drains the pipe enough to permit it).
        s.on_ack(
            t,
            0,
            1 << 20,
            false,
            &SackBlocks::from_ranges([(1000, 10_000)]),
        );
        let seg = s.next_segment(t, 1000).expect("retransmission");
        assert!(seg_range(&seg).2);
        // ACK covering the probe after a retransmission: Karn discards it.
        s.on_ack(
            SimTime::from_nanos(60_000),
            10_000,
            1 << 20,
            false,
            &SackBlocks::EMPTY,
        );
        assert!(s.srtt().is_none(), "tainted sample must be dropped");
    }

    #[test]
    fn send_buffer_holds_written_unacked_bytes() {
        let mut s = sender();
        assert_eq!(s.buffered(), 0);
        s.app_write(4_000);
        assert_eq!(s.buffered(), 4_000);
        while s.next_segment(SimTime::ZERO, 1000).is_some() {}
        // Buffer holds written-unacked bytes even after transmission.
        assert_eq!(s.buffered(), 4_000);
        s.on_ack(
            SimTime::from_nanos(1),
            4_000,
            1 << 20,
            false,
            &SackBlocks::EMPTY,
        );
        assert_eq!(s.buffered(), 0);
        assert!(s.all_acked());
    }

    #[test]
    fn sndbuf_follows_cwnd_between_two_writes_and_the_cap() {
        // (write size, expected send buffer): twice the congestion window,
        // at least two writes, at most the cap.
        let cwnd = sender().cwnd();
        for (write, sndbuf) in [
            (100, 2 * cwnd),
            (cwnd, 2 * cwnd),
            (4 * cwnd, 8 * cwnd),
            (SNDBUF_MAX / 2, SNDBUF_MAX),
        ] {
            let mut s = sender();
            s.app_write(sndbuf - write);
            assert!(s.can_write(write), "room for the last write of {write}");
            s.app_write(1);
            assert!(!s.can_write(write), "send buffer of {sndbuf} is full");
        }
    }

    #[test]
    fn sndbuf_cap_wins_over_two_writes() {
        // A write above half the cap gets the cap, not two writes' worth.
        let mut s = sender();
        assert!(s.can_write(SNDBUF_MAX), "an empty buffer takes one write");
        assert!(!s.can_write(SNDBUF_MAX + 1), "no write exceeds the cap");
        s.app_write(1);
        assert!(!s.can_write(SNDBUF_MAX));
    }

    #[test]
    fn can_send_needs_window_and_unsent_data() {
        let mut s = sender();
        assert!(!s.can_send(), "nothing written");
        s.app_write(4 * s.cwnd());
        assert!(s.can_send());
        while s.next_segment(SimTime::ZERO, 1000).is_some() {}
        assert!(s.unsent() > 0 && !s.can_send(), "cwnd full");
    }

    #[test]
    fn tail_loss_probe_fires_before_rto() {
        let mut s = sender();
        s.app_write(10_000);
        let mut now = SimTime::ZERO;
        // Establish an RTT sample so the PTO arms.
        while s.next_segment(now, 1000).is_some() {}
        now += Duration::from_micros(80);
        s.on_ack(now, 5_000, 1 << 20, false, &SackBlocks::EMPTY);
        // Remaining 5KB in flight; no more ACKs arrive. The first timer
        // fire is the tail-loss probe, well before a full RTO.
        let deadline = s.rto_deadline().expect("armed");
        let wait = deadline.since(now);
        assert!(
            wait < Duration::from_millis(5),
            "PTO should be ~2·srtt-ish, got {wait}"
        );
        let cwnd_before = s.cwnd();
        s.on_rto(deadline);
        let probe = s.next_segment(deadline, 64 * 1024).expect("probe");
        let (start, end, rtx) = seg_range(&probe);
        assert!(rtx, "probe is a retransmission");
        assert_eq!(start, 5_000, "probes the head of the unacked window");
        assert!(end - start <= 1000, "one MSS probe");
        assert_eq!(s.cwnd(), cwnd_before, "TLP does not reduce the window");
        // The *next* timer is the full RTO, later than the PTO was.
        let rto2 = s.rto_deadline().expect("re-armed");
        assert!(rto2.since(deadline) > wait);
    }

    #[test]
    fn zero_window_persist_probe() {
        let mut s = sender();
        s.app_write(200_000);
        let mut now = SimTime::ZERO;
        while s.next_segment(now, 1000).is_some() {}
        // Walk the peer's window edge up to exactly 65_536 and then close
        // it: the receiver's buffer fills while the edge never moves.
        now += Duration::from_micros(50);
        s.on_ack(now, 10_000, 55_536, false, &SackBlocks::EMPTY);
        while s.next_segment(now, 1000).is_some() {}
        now += Duration::from_micros(50);
        s.on_ack(now, 30_000, 35_536, false, &SackBlocks::EMPTY);
        while s.next_segment(now, 1000).is_some() {}
        now += Duration::from_micros(50);
        s.on_ack(now, 65_536, 0, false, &SackBlocks::EMPTY);
        assert_eq!(s.in_flight(), 0);
        assert!(s.unsent() > 0);
        assert!(s.zero_window_stalled());
        assert!(s.next_segment(now, 1000).is_none(), "window closed");
        // Persist timer must be armed — without it a lost window update
        // would deadlock the connection.
        let deadline = s.rto_deadline().expect("persist timer armed");
        s.on_rto(deadline);
        let probe = s.next_segment(deadline, 1000).expect("window probe");
        assert_eq!(probe.payload_len(), 1000, "one MSS ignores the window");
        // The probe elicits an ACK with a fresh window; flow resumes.
        s.on_ack(
            deadline + Duration::from_micros(50),
            66_536,
            1 << 20,
            false,
            &SackBlocks::EMPTY,
        );
        assert!(!s.zero_window_stalled());
        assert!(s
            .next_segment(deadline + Duration::from_micros(50), 1000)
            .is_some());
    }

    #[test]
    fn tso_sized_segments() {
        let mut s = sender();
        s.app_write(100_000);
        let seg = s.next_segment(SimTime::ZERO, 64 * 1024).unwrap();
        assert_eq!(seg.payload_len(), 10_000, "capped by initial cwnd");
    }

    #[test]
    fn sacked_bytes_free_pipe_for_new_data() {
        let mut s = sender();
        s.app_write(1_000_000);
        while s.next_segment(SimTime::ZERO, 1000).is_some() {}
        let t = SimTime::from_nanos(10_000);
        // Most of the window is SACKed; only [0, 1000) is lost. The pipe
        // shrinks accordingly, so after resending the hole the sender can
        // push *new* data during recovery.
        let blocks = SackBlocks::from_ranges([(1000, 9000)]);
        let a = s.on_ack(t, 0, 1 << 24, false, &blocks);
        assert!(a.fast_retransmit);
        let mut new_sent = 0;
        let mut rtx_sent = 0;
        while let Some(seg) = s.next_segment(t, 1000) {
            if seg_range(&seg).2 {
                rtx_sent += 1;
            } else {
                new_sent += 1;
            }
        }
        assert_eq!(rtx_sent, 1, "one hole to repair");
        assert!(new_sent > 0, "SACKed pipe should admit new data");
    }
}
