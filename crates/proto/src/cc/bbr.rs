//! BBR — Bottleneck Bandwidth and RTT (Cardwell et al., 2016), simplified.
//!
//! BBR builds an explicit model of the path: the windowed maximum delivery
//! rate (`btl_bw`) and the windowed minimum RTT (`min_rtt`), then sends at
//! `pacing_gain × btl_bw` with an in-flight cap of `cwnd_gain × BDP`.
//!
//! The reproduction needs two behaviours from BBR (paper §3.10):
//! 1. throughput-per-core comparable to CUBIC (receiver-bound anyway), and
//! 2. **pacing**: segments are released by qdisc timers rather than ACK
//!    clocking, producing the extra sender-side scheduling overhead of
//!    Fig. 13b. The host stack reads [`CongestionControl::pacing_rate`] and
//!    schedules pacer wakeups accordingly.
//!
//! This implementation keeps BBR's startup/drain/probe-bandwidth structure
//! but compresses ProbeRTT away (irrelevant on a 2-host lossless link with
//! stable RTT).

use hns_sim::{Duration, SimTime};

use super::{initial_cwnd, min_cwnd, CongestionControl, MAX_CWND};

/// Startup/drain gains (2/ln2 and its inverse, per the BBR paper).
const STARTUP_GAIN: f64 = 2.885;
const DRAIN_GAIN: f64 = 1.0 / 2.885;
/// Steady-state gain cycle: one probe up, one drain, six cruise phases.
const PROBE_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// cwnd cap as a multiple of BDP.
const CWND_GAIN: f64 = 2.0;
/// Bandwidth filter window, in delivery-rate samples.
const BW_FILTER_LEN: usize = 10;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Mode {
    Startup,
    Drain,
    ProbeBw,
}

/// Simplified BBR state.
#[derive(Debug)]
pub struct Bbr {
    mss: u32,
    /// Recent delivery-rate samples (bytes/sec), windowed max = btl_bw.
    bw_samples: Vec<f64>,
    min_rtt: Duration,
    mode: Mode,
    /// Full-pipe detection: consecutive rounds without 25% bw growth.
    full_bw: f64,
    full_bw_rounds: u32,
    /// ProbeBw gain-cycle phase index and the time the phase started.
    cycle_idx: usize,
    cycle_start: SimTime,
    cwnd: u64,
    /// Bytes acked since the last RTT sample (delivery-rate accumulator —
    /// several ACKs arrive per RTT, and the rate sample must cover all of
    /// them, not just the ACK that happened to carry the RTT probe).
    acked_since_sample: u64,
}

impl Bbr {
    /// New flow in Startup.
    pub fn new(mss: u32) -> Self {
        Bbr {
            mss,
            bw_samples: Vec::with_capacity(BW_FILTER_LEN),
            min_rtt: Duration::from_millis(10), // placeholder until sampled
            mode: Mode::Startup,
            full_bw: 0.0,
            full_bw_rounds: 0,
            cycle_idx: 0,
            cycle_start: SimTime::ZERO,
            cwnd: initial_cwnd(mss),
            acked_since_sample: 0,
        }
    }

    /// Windowed-max bottleneck bandwidth estimate (bytes/sec).
    pub fn btl_bw(&self) -> f64 {
        self.bw_samples.iter().cloned().fold(0.0, f64::max)
    }

    /// Current mode name (tests).
    fn pacing_gain(&self) -> f64 {
        match self.mode {
            Mode::Startup => STARTUP_GAIN,
            Mode::Drain => DRAIN_GAIN,
            Mode::ProbeBw => PROBE_CYCLE[self.cycle_idx],
        }
    }

    fn bdp(&self) -> f64 {
        self.btl_bw() * self.min_rtt.as_secs_f64()
    }

    fn push_bw_sample(&mut self, bw: f64) {
        if self.bw_samples.len() == BW_FILTER_LEN {
            self.bw_samples.remove(0);
        }
        self.bw_samples.push(bw);
    }
}

impl CongestionControl for Bbr {
    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn on_ack(&mut self, now: SimTime, acked: u64, rtt: Duration, in_flight: u64) {
        self.acked_since_sample += acked;
        if !rtt.is_zero() {
            self.min_rtt = self.min_rtt.min(rtt);
            // Delivery rate sample: everything acked over the last RTT.
            let bw = self.acked_since_sample as f64 / rtt.as_secs_f64().max(1e-9);
            self.acked_since_sample = 0;
            self.push_bw_sample(bw);
        }

        match self.mode {
            Mode::Startup => {
                let bw = self.btl_bw();
                if bw > self.full_bw * 1.25 {
                    self.full_bw = bw;
                    self.full_bw_rounds = 0;
                } else {
                    self.full_bw_rounds += 1;
                    if self.full_bw_rounds >= 3 {
                        self.mode = Mode::Drain;
                    }
                }
            }
            Mode::Drain => {
                if (in_flight as f64) <= self.bdp() {
                    self.mode = Mode::ProbeBw;
                    self.cycle_start = now;
                    self.cycle_idx = 2; // start cruising
                }
            }
            Mode::ProbeBw => {
                // Advance the gain cycle once per min_rtt.
                if now.since(self.cycle_start) >= self.min_rtt {
                    self.cycle_idx = (self.cycle_idx + 1) % PROBE_CYCLE.len();
                    self.cycle_start = now;
                }
            }
        }

        let target = (CWND_GAIN * self.bdp()) as u64;
        self.cwnd = target.max(initial_cwnd(self.mss)).min(MAX_CWND);
    }

    fn on_loss(&mut self, _now: SimTime) {
        // BBR does not treat loss as a primary congestion signal; it caps
        // in-flight modestly (Linux BBRv1 sets cwnd to in-flight on RTO
        // only). We shave the cwnd slightly to keep retransmission storms
        // bounded in high-loss scenarios (§3.6 drop-rate sweep).
        self.cwnd = (self.cwnd * 9 / 10).max(min_cwnd(self.mss));
    }

    fn on_rto(&mut self, _now: SimTime) {
        self.cwnd = initial_cwnd(self.mss);
    }

    fn pacing_rate(&self) -> Option<f64> {
        let bw = self.btl_bw();
        if bw <= 0.0 {
            // No samples yet: pace at initial-window-per-assumed-RTT.
            return Some(initial_cwnd(self.mss) as f64 / 1e-3);
        }
        Some(self.pacing_gain() * bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed BBR a steady pipe and watch it converge.
    fn run_steady(bw_bytes_per_sec: f64, rtt: Duration, rounds: usize) -> Bbr {
        let mut b = Bbr::new(1448);
        let mut t = SimTime::ZERO;
        let acked_per_rtt = (bw_bytes_per_sec * rtt.as_secs_f64()) as u64;
        for _ in 0..rounds {
            t += rtt;
            b.on_ack(t, acked_per_rtt, rtt, acked_per_rtt);
        }
        b
    }

    #[test]
    fn discovers_bottleneck_bandwidth() {
        // 12.5 GB/s = 100Gbps, 50us RTT.
        let b = run_steady(12.5e9, Duration::from_micros(50), 100);
        let bw = b.btl_bw();
        assert!(
            (bw - 12.5e9).abs() / 12.5e9 < 0.01,
            "estimated {bw}, expected 12.5e9"
        );
    }

    #[test]
    fn leaves_startup_when_pipe_full() {
        let b = run_steady(1e9, Duration::from_micros(100), 50);
        assert_eq!(b.mode, Mode::ProbeBw, "should reach steady state");
    }

    #[test]
    fn cwnd_tracks_bdp() {
        let rtt = Duration::from_micros(100);
        let b = run_steady(1e9, rtt, 100);
        let bdp = 1e9 * rtt.as_secs_f64();
        let expect = (CWND_GAIN * bdp) as u64;
        let cw = b.cwnd();
        let rel_err = (cw as f64 - expect as f64).abs() / expect as f64;
        assert!(rel_err < 0.1, "cwnd {cw} vs 2*BDP {expect}");
    }

    #[test]
    fn pacing_rate_near_bottleneck() {
        let b = run_steady(1e9, Duration::from_micros(100), 200);
        let rate = b.pacing_rate().unwrap();
        // Cruise/probe gains keep it within [0.75, 1.25] of btl_bw.
        assert!((0.7e9..=1.3e9).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn pacing_rate_defined_before_samples() {
        let b = Bbr::new(1448);
        assert!(b.pacing_rate().unwrap() > 0.0);
    }

    #[test]
    fn gain_cycle_advances() {
        let rtt = Duration::from_micros(100);
        let mut b = run_steady(1e9, rtt, 100);
        let idx0 = b.cycle_idx;
        let mut t = SimTime::from_nanos(1_000_000_000);
        for _ in 0..4 {
            t += rtt;
            b.on_ack(t, 100_000, rtt, 100_000);
        }
        assert_ne!(b.cycle_idx, idx0, "cycle stuck");
    }
}
