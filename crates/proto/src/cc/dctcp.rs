//! DCTCP — Data Center TCP (Alizadeh et al., SIGCOMM 2010).
//!
//! DCTCP reacts to the *fraction* of ECN-marked bytes per window: the
//! estimator `α ← (1−g)·α + g·F` tracks the marking fraction and the window
//! shrinks proportionally, `cwnd ← cwnd·(1 − α/2)`, instead of halving.
//! Growth is Reno-like. On the paper's uncongested point-to-point link no
//! CE marks appear and DCTCP behaves like Reno — which is exactly the
//! paper's finding (Fig. 13a: no significant difference across protocols).

use hns_sim::{Duration, SimTime};

use super::{initial_cwnd, min_cwnd, CongestionControl, MAX_CWND};

/// Estimator gain g = 1/16 (the DCTCP paper's recommendation).
const G: f64 = 1.0 / 16.0;

/// DCTCP state.
#[derive(Debug)]
pub struct Dctcp {
    mss: u32,
    cwnd: u64,
    ssthresh: u64,
    /// Smoothed marking-fraction estimate α ∈ [0, 1].
    alpha: f64,
    avoid_acc: u64,
    /// HyStart: smallest RTT seen (delay-increase detection).
    hystart_min_rtt: Option<Duration>,
}

impl Dctcp {
    /// New flow.
    pub fn new(mss: u32) -> Self {
        Dctcp {
            mss,
            cwnd: initial_cwnd(mss),
            ssthresh: MAX_CWND,
            alpha: 0.0,
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

impl CongestionControl for Dctcp {
    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn on_ack(&mut self, _now: SimTime, acked: u64, rtt: Duration, _in_flight: u64) {
        self.hystart(rtt);
        if self.cwnd < self.ssthresh {
            self.cwnd = (self.cwnd + acked).min(MAX_CWND);
        } else {
            self.avoid_acc += acked * self.mss as u64;
            if self.avoid_acc >= self.cwnd {
                let inc = self.avoid_acc / self.cwnd.max(1);
                self.cwnd = (self.cwnd + inc).min(MAX_CWND);
                self.avoid_acc %= self.cwnd.max(1);
            }
        }
    }

    fn on_ecn_sample(&mut self, ce_fraction: f64) {
        self.alpha = (1.0 - G) * self.alpha + G * ce_fraction.clamp(0.0, 1.0);
        if ce_fraction > 0.0 {
            // Proportional decrease once per window with marks.
            let shrink = 1.0 - self.alpha / 2.0;
            self.cwnd = ((self.cwnd as f64 * shrink) as u64).max(min_cwnd(self.mss));
            self.ssthresh = self.cwnd;
        }
    }

    fn on_loss(&mut self, _now: SimTime) {
        // Packet loss (as opposed to marks) still halves, per the DCTCP spec.
        self.ssthresh = (self.cwnd / 2).max(min_cwnd(self.mss));
        self.cwnd = self.ssthresh;
        self.avoid_acc = 0;
    }

    fn on_rto(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2).max(min_cwnd(self.mss));
        self.cwnd = min_cwnd(self.mss);
        self.avoid_acc = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_marks_behaves_like_reno() {
        let mut d = Dctcp::new(1000);
        let mut r = super::super::Reno::new(1000);
        for _ in 0..50 {
            d.on_ack(SimTime::ZERO, d.cwnd(), Duration::from_micros(50), d.cwnd());
            r.on_ack(SimTime::ZERO, r.cwnd(), Duration::from_micros(50), r.cwnd());
        }
        assert_eq!(d.cwnd(), r.cwnd());
        assert_eq!(d.alpha, 0.0);
    }

    #[test]
    fn alpha_tracks_marking_fraction() {
        let mut d = Dctcp::new(1000);
        // Sustained 30% marking should converge α toward 0.3.
        for _ in 0..200 {
            d.on_ecn_sample(0.3);
        }
        assert!((d.alpha - 0.3).abs() < 0.01, "alpha = {}", d.alpha);
    }

    #[test]
    fn light_marking_shrinks_gently() {
        let mut d = Dctcp::new(1000);
        for _ in 0..30 {
            d.on_ack(SimTime::ZERO, d.cwnd(), Duration::from_micros(50), d.cwnd());
        }
        // Seed a small alpha.
        for _ in 0..10 {
            d.on_ecn_sample(0.05);
        }
        let before = d.cwnd();
        d.on_ecn_sample(0.05);
        let after = d.cwnd();
        // Shrink should be far less than halving.
        assert!(after > before * 90 / 100, "{before} -> {after}");
        assert!(after < before);
    }

    #[test]
    fn full_marking_approaches_halving() {
        let mut d = Dctcp::new(1000);
        // Converge α → 1 (this collapses cwnd to the floor as a side
        // effect).
        for _ in 0..500 {
            d.on_ecn_sample(1.0);
        }
        assert!(d.alpha > 0.99);
        // Regrow the window with unmarked traffic so the floor isn't
        // binding, then measure a single marked-window shrink.
        for _ in 0..5_000 {
            d.on_ack(SimTime::ZERO, d.cwnd(), Duration::from_micros(50), d.cwnd());
        }
        let before = d.cwnd();
        assert!(before > 100_000, "window should have regrown: {before}");
        d.on_ecn_sample(1.0);
        let after = d.cwnd();
        assert!(
            (after as f64 / before as f64 - 0.5).abs() < 0.05,
            "{before} -> {after}"
        );
    }
}
