//! Congestion control algorithms.
//!
//! The paper (§3.10, Fig. 13) compares TCP CUBIC (the Linux default), BBR,
//! and DCTCP, finding minimal throughput-per-core differences because all
//! three are *sender-driven* and the receiver is the bottleneck — but BBR's
//! pacing produces measurably higher sender-side scheduling overhead. All
//! three are implemented here, plus Reno as the textbook baseline.
//!
//! Windows are in **bytes**. Implementations are pure state machines: the
//! host stack feeds them ACK/loss/ECN events and reads `cwnd()` /
//! `pacing_rate()`.

mod bbr;
mod cubic;
mod dctcp;
mod reno;

pub use bbr::Bbr;
pub use cubic::Cubic;
pub use dctcp::Dctcp;
pub use reno::Reno;

use hns_sim::{Duration, SimTime};

/// Which congestion control algorithm a flow uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CcAlgo {
    /// TCP CUBIC — the Linux default, used by every experiment except §3.10.
    Cubic,
    /// TCP Reno/NewReno — textbook AIMD baseline.
    Reno,
    /// DCTCP — ECN-fraction proportional backoff.
    Dctcp,
    /// BBR — model-based rate control with pacing.
    Bbr,
}

/// Events and queries every algorithm answers.
pub trait CongestionControl {
    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// Process a cumulative ACK of `acked` new bytes with an RTT sample
    /// (`rtt` is `Duration::ZERO` when no fresh sample is available) and
    /// the bytes in flight after the ACK.
    fn on_ack(&mut self, now: SimTime, acked: u64, rtt: Duration, in_flight: u64);

    /// A loss was detected by fast retransmit (triple duplicate ACK).
    fn on_loss(&mut self, now: SimTime);

    /// The retransmission timer fired (severe loss).
    fn on_rto(&mut self, now: SimTime);

    /// Fraction of the last window's bytes that carried ECN CE marks
    /// (DCTCP only; others ignore).
    fn on_ecn_sample(&mut self, _ce_fraction: f64) {}

    /// Pacing rate in bytes/second, if this algorithm paces (BBR).
    /// `None` means pure window-based transmission.
    fn pacing_rate(&self) -> Option<f64> {
        None
    }
}

/// Construct an algorithm instance for a flow. `mss` is the maximum segment
/// size in bytes; initial window follows Linux (10 × MSS).
pub fn make_cc(algo: CcAlgo, mss: u32) -> Box<dyn CongestionControl> {
    match algo {
        CcAlgo::Cubic => Box::new(Cubic::new(mss)),
        CcAlgo::Reno => Box::new(Reno::new(mss)),
        CcAlgo::Dctcp => Box::new(Dctcp::new(mss)),
        CcAlgo::Bbr => Box::new(Bbr::new(mss)),
    }
}

/// Linux's initial congestion window: 10 segments.
pub(crate) fn initial_cwnd(mss: u32) -> u64 {
    10 * mss as u64
}

/// Ceiling on cwnd growth so a lossless simulated link cannot overflow
/// arithmetic: 256MB is far above any window the experiments reach.
pub(crate) const MAX_CWND: u64 = 256 * 1024 * 1024;

/// Floor: one segment.
pub(crate) fn min_cwnd(mss: u32) -> u64 {
    mss as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_makes_all_algorithms() {
        for algo in [CcAlgo::Cubic, CcAlgo::Reno, CcAlgo::Dctcp, CcAlgo::Bbr] {
            let cc = make_cc(algo, 1448);
            assert_eq!(cc.cwnd(), 14480, "{algo:?}: initial window is 10 MSS");
        }
    }

    #[test]
    fn all_algorithms_grow_from_acks() {
        let now = SimTime::ZERO;
        for algo in [CcAlgo::Cubic, CcAlgo::Reno, CcAlgo::Dctcp, CcAlgo::Bbr] {
            let mut cc = make_cc(algo, 1448);
            let start = cc.cwnd();
            let rtt = Duration::from_micros(50);
            let mut t = now;
            for _ in 0..200 {
                t += rtt;
                cc.on_ack(t, 14480, rtt, 14480);
            }
            assert!(
                cc.cwnd() > start,
                "{algo:?} did not grow: {start} -> {}",
                cc.cwnd()
            );
        }
    }

    #[test]
    fn all_algorithms_shrink_on_loss() {
        for algo in [CcAlgo::Cubic, CcAlgo::Reno, CcAlgo::Dctcp, CcAlgo::Bbr] {
            let mut cc = make_cc(algo, 1448);
            let rtt = Duration::from_micros(50);
            let mut t = SimTime::ZERO;
            for _ in 0..100 {
                t += rtt;
                cc.on_ack(t, 14480, rtt, 14480);
            }
            let before = cc.cwnd();
            cc.on_loss(t);
            assert!(
                cc.cwnd() < before,
                "{algo:?} did not back off: {before} -> {}",
                cc.cwnd()
            );
            assert!(cc.cwnd() >= min_cwnd(1448));
        }
    }

    #[test]
    fn rto_collapses_window() {
        for algo in [CcAlgo::Cubic, CcAlgo::Reno, CcAlgo::Dctcp] {
            let mut cc = make_cc(algo, 1448);
            let rtt = Duration::from_micros(50);
            let mut t = SimTime::ZERO;
            for _ in 0..50 {
                t += rtt;
                cc.on_ack(t, 14480, rtt, 14480);
            }
            cc.on_rto(t);
            assert_eq!(cc.cwnd(), 1448, "{algo:?} RTO should go to 1 MSS");
        }
    }

    #[test]
    fn only_bbr_paces() {
        assert!(make_cc(CcAlgo::Bbr, 1448).pacing_rate().is_some());
        for algo in [CcAlgo::Cubic, CcAlgo::Reno, CcAlgo::Dctcp] {
            assert!(make_cc(algo, 1448).pacing_rate().is_none());
        }
    }
}
