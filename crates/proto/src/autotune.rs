//! Receive-buffer auto-tuning (Linux dynamic right-sizing).
//!
//! Linux sizes the TCP receive buffer automatically: each RTT it measures
//! how much the application copied, doubles it for the advertised-window
//! target, and doubles *again* to convert payload bytes to the skb-truesize
//! units `sk_rcvbuf` is accounted in — a 4× factor overall, capped at
//! `tcp_rmem[2]`. The receiver-side RTT estimate this uses is itself
//! inflated by host queueing delay, so the loop has gain > 1 and runs away
//! to the cap on a fast, receiver-bottlenecked flow. The paper's Fig. 3e/3f
//! point out the consequence: the mechanism is **DCA-oblivious**, it keeps
//! growing the window to maximize raw throughput, "overshooting beyond the
//! optimal operating point" where in-flight data still fits the ~3MB DDIO
//! slice — which is why manually pinning the buffer to 3200KB yields
//! ~55Gbps while auto-tuning settles at ~42Gbps with ~49% misses.
//!
//! [`RcvBufAutotune`] implements the grow-only DRS rule; experiments pin a
//! manual size with [`RcvBufAutotune::fixed`].

use hns_sim::Duration;

/// Initial receive buffer (Linux `tcp_rmem[1]` is 128KB-ish by default).
pub const INITIAL_RCVBUF: u64 = 256 * 1024;

/// Default auto-tuning cap, Linux `tcp_rmem[2]` = 6MB.
pub const DEFAULT_RCVBUF_MAX: u64 = 6 * 1024 * 1024;

/// Receive-buffer sizing policy for one flow.
#[derive(Clone, Copy, Debug)]
pub struct RcvBufAutotune {
    rcvbuf: u64,
    max: u64,
    auto: bool,
}

impl RcvBufAutotune {
    /// Linux-default auto-tuning.
    pub fn auto() -> Self {
        RcvBufAutotune {
            rcvbuf: INITIAL_RCVBUF,
            max: DEFAULT_RCVBUF_MAX,
            auto: true,
        }
    }

    /// Manually pinned buffer (the paper's Fig. 3e/3f sweeps).
    pub fn fixed(bytes: u64) -> Self {
        RcvBufAutotune {
            rcvbuf: bytes,
            max: bytes,
            auto: false,
        }
    }

    /// Current receive buffer size in bytes.
    pub fn rcvbuf(&self) -> u64 {
        self.rcvbuf
    }

    /// DRS step: the application copied `copied` bytes over `interval`;
    /// `rtt` is the (host-latency-inflated) receiver RTT estimate. Grows
    /// (never shrinks) the buffer toward `4 × copied-per-RTT` — 2× for the
    /// window target and 2× for the payload→truesize conversion — clamped
    /// to the cap.
    pub fn on_copied(&mut self, copied: u64, interval: Duration, rtt: Duration) {
        if !self.auto || interval.is_zero() || rtt.is_zero() || copied == 0 {
            return;
        }
        let rate = copied as f64 / interval.as_secs_f64();
        let per_rtt = rate * rtt.as_secs_f64();
        let mut target = (4.0 * per_rtt) as u64;
        // tcp_rcv_space_adjust's doubling rule: if the application consumed
        // at least a full advertised window's worth (rcvbuf/2 payload after
        // truesize accounting) during the measurement round, the flow is
        // window-limited and the space doubles — this is what guarantees
        // DRS escapes any window-limited equilibrium and climbs to the
        // cap, the "overshoot" the paper measures.
        if copied >= self.rcvbuf / 2 {
            target = target.max(2 * self.rcvbuf);
        }
        if target > self.rcvbuf {
            self.rcvbuf = target.min(self.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_never_moves() {
        let mut t = RcvBufAutotune::fixed(3200 * 1024);
        t.on_copied(
            100 << 20,
            Duration::from_millis(1),
            Duration::from_micros(100),
        );
        assert_eq!(t.rcvbuf(), 3200 * 1024);
    }

    #[test]
    fn grows_toward_twice_bandwidth_delay() {
        let mut t = RcvBufAutotune::auto();
        // 5 GB/s copy rate, 100us RTT → per-RTT = 500KB → target 2MB
        // (2× window + 2× truesize).
        t.on_copied(
            5_000_000,
            Duration::from_millis(1),
            Duration::from_micros(100),
        );
        assert_eq!(t.rcvbuf(), 2_000_000);
    }

    #[test]
    fn grow_only() {
        let mut t = RcvBufAutotune::auto();
        t.on_copied(
            5_000_000,
            Duration::from_millis(1),
            Duration::from_micros(100),
        );
        let big = t.rcvbuf();
        // Slower copy later must not shrink the buffer.
        t.on_copied(
            100_000,
            Duration::from_millis(1),
            Duration::from_micros(100),
        );
        assert_eq!(t.rcvbuf(), big);
    }

    #[test]
    fn window_limited_flow_doubles_to_cap() {
        // A flow that cycles its whole window every round escapes any
        // low-buffer equilibrium: repeated doubling reaches the cap even
        // when rate × rtt alone would justify a tiny buffer.
        let mut t = RcvBufAutotune::auto();
        for _ in 0..20 {
            let copied = t.rcvbuf(); // consumed ≥ rcvbuf/2 ⇒ window-limited
            t.on_copied(copied, Duration::from_millis(1), Duration::from_micros(20));
        }
        assert_eq!(t.rcvbuf(), DEFAULT_RCVBUF_MAX);
    }

    #[test]
    fn slow_flow_does_not_double() {
        // An RPC-ish flow consuming far less than a window per round keeps
        // a small buffer.
        let mut t = RcvBufAutotune::auto();
        for _ in 0..20 {
            t.on_copied(20_000, Duration::from_millis(1), Duration::from_micros(20));
        }
        assert!(t.rcvbuf() < 1 << 20, "rcvbuf = {}", t.rcvbuf());
    }

    #[test]
    fn capped_at_max() {
        let mut t = RcvBufAutotune::auto();
        t.on_copied(1 << 40, Duration::from_millis(1), Duration::from_millis(1));
        assert_eq!(t.rcvbuf(), DEFAULT_RCVBUF_MAX);
    }

    #[test]
    fn degenerate_inputs_ignored() {
        let mut t = RcvBufAutotune::auto();
        let before = t.rcvbuf();
        t.on_copied(0, Duration::from_millis(1), Duration::from_micros(100));
        t.on_copied(100, Duration::ZERO, Duration::from_micros(100));
        t.on_copied(100, Duration::from_millis(1), Duration::ZERO);
        assert_eq!(t.rcvbuf(), before);
    }
}
