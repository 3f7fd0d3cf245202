//! TCP Reno / NewReno congestion control.
//!
//! Slow start doubles the window each RTT until `ssthresh`; congestion
//! avoidance then adds one MSS per RTT. Fast-retransmit losses halve the
//! window; an RTO collapses it to one MSS.

use hns_sim::{Duration, SimTime};

use super::{initial_cwnd, min_cwnd, CongestionControl, MAX_CWND};

/// Reno state.
#[derive(Debug)]
pub struct Reno {
    mss: u32,
    cwnd: u64,
    ssthresh: u64,
    /// Fractional cwnd accumulator for congestion avoidance.
    avoid_acc: u64,
    /// HyStart: smallest RTT seen (delay-increase detection).
    hystart_min_rtt: Option<Duration>,
}

impl Reno {
    /// New flow at the initial window.
    pub fn new(mss: u32) -> Self {
        Reno {
            mss,
            cwnd: initial_cwnd(mss),
            ssthresh: MAX_CWND,
            avoid_acc: 0,
            hystart_min_rtt: None,
        }
    }

    /// HyStart delay-based slow-start exit (Linux `tcp_cubic` hystart):
    /// when the RTT inflates well past the minimum observed, queues are
    /// building — leave slow start *before* overrunning them.
    fn hystart(&mut self, rtt: Duration) {
        if rtt.is_zero() {
            return;
        }
        let min = match self.hystart_min_rtt {
            Some(m) => {
                let m = m.min(rtt);
                self.hystart_min_rtt = Some(m);
                m
            }
            None => {
                self.hystart_min_rtt = Some(rtt);
                rtt
            }
        };
        if self.cwnd < self.ssthresh {
            let threshold = min + (min / 2).max(Duration::from_micros(8));
            if rtt > threshold {
                self.ssthresh = self.cwnd;
            }
        }
    }
}

impl CongestionControl for Reno {
    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn on_ack(&mut self, _now: SimTime, acked: u64, rtt: Duration, _in_flight: u64) {
        self.hystart(rtt);
        if self.cwnd < self.ssthresh {
            // Slow start: cwnd grows by the bytes acked.
            self.cwnd = (self.cwnd + acked).min(MAX_CWND).min(self.ssthresh.max(1));
        } else {
            // Congestion avoidance: one MSS per cwnd's worth of ACKed bytes.
            self.avoid_acc += acked * self.mss as u64;
            if self.avoid_acc >= self.cwnd {
                let increments = self.avoid_acc / self.cwnd.max(1);
                self.cwnd = (self.cwnd + increments).min(MAX_CWND);
                self.avoid_acc %= self.cwnd.max(1);
            }
        }
    }

    fn on_loss(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2).max(min_cwnd(self.mss));
        self.cwnd = self.ssthresh;
        self.avoid_acc = 0;
    }

    fn on_rto(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2).max(min_cwnd(self.mss));
        self.cwnd = min_cwnd(self.mss);
        self.avoid_acc = 0;
    }

    fn on_ecn_sample(&mut self, ce_fraction: f64) {
        // ECN echo: treat a marked window like a fast-retransmit loss
        // (RFC 3168 §6.1.2). The sample fires every window, usually with
        // 0.0 — an unmarked window must be a strict no-op.
        if ce_fraction > 0.0 {
            self.ssthresh = (self.cwnd / 2).max(min_cwnd(self.mss));
            self.cwnd = self.ssthresh;
            self.avoid_acc = 0;
        }
    }

    fn name(&self) -> &'static str {
        "reno"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rtt() -> Duration {
        Duration::from_micros(50)
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = Reno::new(1000);
        let w0 = cc.cwnd();
        // One RTT's worth of ACKs: every byte in the window acked.
        cc.on_ack(SimTime::ZERO, w0, rtt(), w0);
        assert_eq!(cc.cwnd(), 2 * w0);
    }

    #[test]
    fn congestion_avoidance_linear() {
        let mut cc = Reno::new(1000);
        // Force CA by setting up a loss first.
        for _ in 0..20 {
            cc.on_ack(SimTime::ZERO, cc.cwnd(), rtt(), cc.cwnd());
        }
        cc.on_loss(SimTime::ZERO);
        let w = cc.cwnd();
        assert_eq!(cc.ssthresh, w);
        // One full window of ACKs should add ~1 MSS.
        cc.on_ack(SimTime::ZERO, w, rtt(), w);
        assert!(
            cc.cwnd() >= w + 900 && cc.cwnd() <= w + 1100,
            "{} -> {}",
            w,
            cc.cwnd()
        );
    }

    #[test]
    fn loss_halves() {
        let mut cc = Reno::new(1000);
        for _ in 0..10 {
            cc.on_ack(SimTime::ZERO, cc.cwnd(), rtt(), cc.cwnd());
        }
        let before = cc.cwnd();
        cc.on_loss(SimTime::ZERO);
        assert_eq!(cc.cwnd(), before / 2);
    }

    #[test]
    fn ecn_sample_halves_only_when_marked() {
        let mut cc = Reno::new(1000);
        for _ in 0..10 {
            cc.on_ack(SimTime::ZERO, cc.cwnd(), rtt(), cc.cwnd());
        }
        let before = cc.cwnd();
        cc.on_ecn_sample(0.0);
        assert_eq!(cc.cwnd(), before);
        cc.on_ecn_sample(0.5);
        assert_eq!(cc.cwnd(), before / 2);
        assert_eq!(cc.ssthresh, before / 2);
    }

    #[test]
    fn never_below_one_mss() {
        let mut cc = Reno::new(1000);
        for _ in 0..20 {
            cc.on_loss(SimTime::ZERO);
            cc.on_rto(SimTime::ZERO);
        }
        assert_eq!(cc.cwnd(), 1000);
    }
}
