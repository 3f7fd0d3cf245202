//! TCP CUBIC — the Linux default congestion control (RFC 8312).
//!
//! After a loss at window `w_max`, the window follows the cubic
//! `W(t) = C·(t − K)³ + w_max` where `K = ∛(w_max·β/C)` — concave recovery
//! toward `w_max`, then convex probing beyond it. β = 0.3 (multiplicative
//! decrease to 70%), C = 0.4 in MSS/sec³ units, matching Linux.

use hns_sim::{Duration, SimTime};

use super::{initial_cwnd, min_cwnd, CongestionControl, MAX_CWND};

/// CUBIC constants (RFC 8312 / Linux defaults).
const BETA: f64 = 0.7; // window retained after loss
const C: f64 = 0.4; // aggressiveness, MSS/s³

/// CUBIC state.
#[derive(Debug)]
pub struct Cubic {
    mss: u32,
    cwnd: u64,
    ssthresh: u64,
    /// Window size (bytes) just before the last reduction.
    w_max: f64,
    /// Time of the last reduction.
    epoch_start: Option<SimTime>,
    /// Cubic inflection offset in seconds.
    k: f64,
    /// TCP-friendly (Reno-rate) window estimate in bytes. At datacenter
    /// RTTs the cubic term (whose time constant is seconds) is far slower
    /// than Reno's one-MSS-per-RTT, so Linux takes `max(w_cubic, w_est)` —
    /// without this CUBIC would take tens of seconds to recover a
    /// multi-MB window after a loss.
    w_est: f64,
    /// Fractional accumulator for the Reno-rate estimate.
    est_acc: f64,
    /// HyStart: smallest RTT seen (delay-increase detection).
    hystart_min_rtt: Option<Duration>,
}

impl Cubic {
    /// New flow at the initial window.
    pub fn new(mss: u32) -> Self {
        Cubic {
            mss,
            cwnd: initial_cwnd(mss),
            ssthresh: MAX_CWND,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            w_est: 0.0,
            est_acc: 0.0,
            hystart_min_rtt: None,
        }
    }

    fn mss_f(&self) -> f64 {
        self.mss as f64
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

    /// Target window from the cubic function at time `now`.
    fn w_cubic(&self, now: SimTime) -> f64 {
        let t = match self.epoch_start {
            Some(e) => now.since(e).as_secs_f64(),
            None => 0.0,
        };
        let dt = t - self.k;
        (C * dt * dt * dt) * self.mss_f() + self.w_max
    }
}

impl CongestionControl for Cubic {
    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn on_ack(&mut self, now: SimTime, acked: u64, rtt: Duration, _in_flight: u64) {
        self.hystart(rtt);
        if self.cwnd < self.ssthresh {
            // Slow start identical to Reno.
            self.cwnd = (self.cwnd + acked).min(MAX_CWND);
            return;
        }
        if self.epoch_start.is_none() {
            // Entering congestion avoidance without a prior loss epoch.
            self.epoch_start = Some(now);
            self.w_max = self.cwnd as f64;
            self.k = 0.0;
            self.w_est = self.cwnd as f64;
        }

        // TCP-friendly estimate: Reno growth rate, 3(1−β)/(1+β) MSS per
        // acked window (RFC 8312 §4.2).
        let cur = self.cwnd as f64;
        self.est_acc += acked as f64;
        if self.est_acc >= cur {
            let windows = self.est_acc / cur.max(1.0);
            self.w_est += 3.0 * (1.0 - BETA) / (1.0 + BETA) * self.mss_f() * windows;
            self.est_acc = 0.0;
        }

        let target = self
            .w_cubic(now)
            .max(self.w_est)
            .clamp(self.mss_f(), MAX_CWND as f64);
        if target > cur {
            // Approach the target: Linux raises cwnd by (target − cwnd)/cwnd
            // per ACK; scale by acked bytes.
            let growth = (target - cur) * (acked as f64 / cur.max(1.0));
            self.cwnd = ((cur + growth) as u64).min(MAX_CWND);
        } else {
            // Plateau: probe very slowly.
            let growth = self.mss_f() * 0.05 * (acked as f64 / cur.max(1.0));
            self.cwnd = ((cur + growth) as u64).min(MAX_CWND);
        }
    }

    fn on_loss(&mut self, now: SimTime) {
        self.w_max = self.cwnd as f64;
        self.cwnd = ((self.cwnd as f64 * BETA) as u64).max(min_cwnd(self.mss));
        self.ssthresh = self.cwnd;
        self.epoch_start = Some(now);
        // K = cbrt(w_max·(1−β)/C), with w_max in MSS units.
        let w_max_mss = self.w_max / self.mss_f();
        self.k = (w_max_mss * (1.0 - BETA) / C).cbrt();
        self.w_est = self.cwnd as f64;
        self.est_acc = 0.0;
    }

    fn on_rto(&mut self, now: SimTime) {
        self.on_loss(now);
        self.cwnd = min_cwnd(self.mss);
    }

    fn on_ecn_sample(&mut self, ce_fraction: f64) {
        // ECN echo: halve once per marked window, like a loss epoch but
        // without retransmission. The sample fires every window (usually
        // with 0.0), so an unmarked window must be a strict no-op.
        if ce_fraction > 0.0 {
            self.w_max = self.cwnd as f64;
            self.cwnd = ((self.cwnd as f64 * BETA) as u64).max(min_cwnd(self.mss));
            self.ssthresh = self.cwnd;
            // No `now` here; clearing the epoch re-anchors the cubic clock
            // at the next ACK.
            self.epoch_start = None;
            let w_max_mss = self.w_max / self.mss_f();
            self.k = (w_max_mss * (1.0 - BETA) / C).cbrt();
            self.w_est = self.cwnd as f64;
            self.est_acc = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_retains_70_percent() {
        let mut cc = Cubic::new(1448);
        for _ in 0..20 {
            cc.on_ack(
                SimTime::ZERO,
                cc.cwnd(),
                Duration::from_micros(50),
                cc.cwnd(),
            );
        }
        let before = cc.cwnd();
        cc.on_loss(SimTime::from_nanos(1_000_000));
        let after = cc.cwnd();
        let ratio = after as f64 / before as f64;
        assert!((ratio - BETA).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn recovers_toward_w_max() {
        let mut cc = Cubic::new(1448);
        // Slow start to a ~1.5MB window, lose, then feed ACKs over
        // simulated time and check the window climbs back toward w_max.
        let mut t = SimTime::ZERO;
        let rtt = Duration::from_micros(100);
        while cc.cwnd() < 1_500_000 {
            t += rtt;
            cc.on_ack(t, cc.cwnd(), rtt, cc.cwnd());
        }
        let w_before_loss = cc.cwnd();
        cc.on_loss(t);
        let w_after_loss = cc.cwnd();
        // Recovery is dominated by the TCP-friendly Reno-rate region at
        // datacenter RTTs: ~0.53 MSS per RTT. Regaining the lost 30%
        // (~450KB ≈ 310 MSS) needs ~600 RTTs; give it 1500.
        for _ in 0..1_500 {
            t += rtt;
            cc.on_ack(t, cc.cwnd(), rtt, cc.cwnd());
        }
        assert!(cc.cwnd() > w_after_loss, "no recovery");
        assert!(
            cc.cwnd() as f64 > 0.9 * w_before_loss as f64,
            "recovered only to {} of {}",
            cc.cwnd(),
            w_before_loss
        );
    }

    #[test]
    fn recovery_is_monotone_and_passes_w_max() {
        // With a small w_max the cubic term matters at test timescales:
        // recovery must be monotone non-decreasing and eventually probe
        // beyond the pre-loss window (convex region).
        let mut cc = Cubic::new(1448);
        let mut t = SimTime::ZERO;
        let rtt = Duration::from_micros(100);
        while cc.cwnd() < 120_000 {
            t += rtt;
            cc.on_ack(t, cc.cwnd(), rtt, cc.cwnd());
        }
        let w_max = cc.cwnd();
        cc.on_loss(t);
        let mut last = cc.cwnd();
        let mut passed = false;
        for _ in 0..5_000 {
            t += rtt;
            cc.on_ack(t, cc.cwnd(), rtt, cc.cwnd());
            assert!(cc.cwnd() >= last, "window shrank without loss");
            last = cc.cwnd();
            if cc.cwnd() > w_max {
                passed = true;
                break;
            }
        }
        assert!(passed, "never probed beyond w_max {w_max}, ended at {last}");
    }

    #[test]
    fn ecn_sample_halves_only_when_marked() {
        let mut cc = Cubic::new(1448);
        for _ in 0..20 {
            cc.on_ack(
                SimTime::ZERO,
                cc.cwnd(),
                Duration::from_micros(50),
                cc.cwnd(),
            );
        }
        let before = cc.cwnd();
        // Unmarked windows (the common case) must not move the window.
        cc.on_ecn_sample(0.0);
        assert_eq!(cc.cwnd(), before);
        cc.on_ecn_sample(0.25);
        let ratio = cc.cwnd() as f64 / before as f64;
        assert!((ratio - BETA).abs() < 0.01, "ratio = {ratio}");
        // Recovery resumes from the reduced window on the next ACKs.
        let w = cc.cwnd();
        cc.on_ack(SimTime::from_nanos(1_000), w, Duration::from_micros(50), w);
        assert!(cc.cwnd() >= w);
    }

    #[test]
    fn rto_goes_to_one_mss() {
        let mut cc = Cubic::new(1448);
        for _ in 0..10 {
            cc.on_ack(
                SimTime::ZERO,
                cc.cwnd(),
                Duration::from_micros(50),
                cc.cwnd(),
            );
        }
        cc.on_rto(SimTime::ZERO);
        assert_eq!(cc.cwnd(), 1448);
    }
}
