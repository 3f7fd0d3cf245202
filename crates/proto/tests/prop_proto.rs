//! End-to-end protocol property tests: a sender and receiver wired through
//! a lossy, reordering "network" must still deliver the complete stream.
//! The receiving application reads through the receiver's socket
//! ([`TcpReceiver::on_copy`]), so a slow reader closes the advertised
//! window and its reads reopen it; the delayed-ACK flush runs at
//! [`DELACK_TIMEOUT`](hns_proto::DELACK_TIMEOUT), as the host stack files it.

use hns_proto::{CcAlgo, RcvBufAutotune, Segment, SegmentKind, TcpReceiver, TcpSender};
use hns_sim::{Duration, SimRng, SimTime};
use proptest::prelude::*;

/// One transfer's shape.
struct Transfer {
    total: u64,
    loss: f64,
    reorder: bool,
    seed: u64,
    algo: CcAlgo,
    /// Fixed receive buffer.
    rcvbuf: u64,
    /// Bytes the application reads per step (`u64::MAX`: everything
    /// delivered).
    read_per_step: u64,
}

/// What a finished transfer did.
struct Outcome {
    /// Bytes the receiver delivered in order.
    delivered: u64,
    /// Bytes the application read.
    read: u64,
    retransmissions: u64,
    wire_drops: u64,
    /// Window updates sent because a read reopened a closed window.
    reopen_updates: u64,
}

/// A read-everything application over a 1MB buffer: the receive window
/// only ever closes on reassembly backlog.
fn run_transfer(total: u64, loss: f64, reorder: bool, seed: u64, algo: CcAlgo) -> (u64, u64, u64) {
    let out = run(Transfer {
        total,
        loss,
        reorder,
        seed,
        algo,
        rcvbuf: 1 << 20,
        read_per_step: u64::MAX,
    });
    assert_eq!(out.read, out.delivered, "the app reads each byte once");
    (out.delivered, out.retransmissions, out.wire_drops)
}

/// ACKs travel reliably and at once (the property under test is data-path
/// recovery).
fn deliver_ack(snd: &mut TcpSender, now: SimTime, ack: Segment) {
    if let SegmentKind::Ack {
        ack,
        window,
        ecn_echo,
        sack,
    } = ack.kind
    {
        snd.on_ack(now, ack, window, ecn_echo, &sack);
    }
}

/// Drive one sender/receiver pair until the application has read the
/// whole stream, over a lossy pipe that delivers one data segment per
/// 10us step. Panics on livelock.
fn run(t: Transfer) -> Outcome {
    let mss = 1448u32;
    let mut snd = TcpSender::new(1, mss, t.algo);
    let mut rcv = TcpReceiver::new(1, mss, RcvBufAutotune::fixed(t.rcvbuf));
    let mut rng = SimRng::new(t.seed);
    snd.app_write(t.total);

    let mut now = SimTime::ZERO;
    let step = Duration::from_micros(10);
    let mut in_transit: Vec<Segment> = Vec::new();
    let mut delack_due: Option<SimTime> = None;
    let mut out = Outcome {
        delivered: 0,
        read: 0,
        retransmissions: 0,
        wire_drops: 0,
        reopen_updates: 0,
    };
    let mut iterations = 0u64;

    while rcv.copied_seq() < t.total {
        iterations += 1;
        assert!(
            iterations < 2_000_000,
            "livelock: {} delivered, {} read / {}",
            rcv.rcv_nxt(),
            rcv.copied_seq(),
            t.total
        );
        now += step;

        // Sender transmits whatever the window allows.
        while let Some(seg) = snd.next_segment(now, 64 * 1024) {
            if rng.chance(t.loss) {
                out.wire_drops += 1;
            } else {
                in_transit.push(seg);
            }
        }

        // RTO handling.
        if let Some(deadline) = snd.rto_deadline() {
            if now >= deadline {
                snd.on_rto(now);
            }
        }

        // Delayed-ACK flush timer.
        if delack_due.is_some_and(|due| now >= due) {
            delack_due = None;
            if let Some(ack) = rcv.delack_flush() {
                deliver_ack(&mut snd, now, ack);
            }
        }

        // The application reads, and a read that reopens the window sends
        // the update.
        let from = rcv.copied_seq();
        let to = from.saturating_add(t.read_per_step).min(rcv.rcv_nxt());
        if to > from {
            out.read += rcv.on_copy(from, to, Duration::ZERO);
            if let Some(update) = rcv.reopen_update() {
                out.reopen_updates += 1;
                deliver_ack(&mut snd, now, update);
            }
        }

        if in_transit.is_empty() {
            continue;
        }

        // Deliver one segment (optionally out of order).
        let idx = if t.reorder && in_transit.len() > 1 && rng.chance(0.3) {
            rng.next_below(in_transit.len() as u64) as usize
        } else {
            0
        };
        let seg = in_transit.remove(idx);
        match seg.kind {
            SegmentKind::Data { seq, len, .. } => {
                let action = rcv.on_data(seq, len, false);
                out.delivered += action.delivered;
                match action.ack {
                    Some(ack) => deliver_ack(&mut snd, now, ack),
                    None => {
                        if delack_due.is_none() {
                            delack_due = rcv.delack_deadline(now);
                        }
                    }
                }
            }
            SegmentKind::Ack { .. } | SegmentKind::Conn { .. } => {
                unreachable!("pipe carries only data")
            }
        }
    }
    out.retransmissions = snd.retransmissions;
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lossless transfer delivers every byte exactly once with no
    /// retransmissions.
    #[test]
    fn lossless_delivery_exact(total in 1_000u64..500_000, seed in any::<u64>()) {
        let (delivered, rtx, _) = run_transfer(total, 0.0, false, seed, CcAlgo::Cubic);
        prop_assert_eq!(delivered, total);
        prop_assert_eq!(rtx, 0);
    }

    /// With random loss, the stream still completes and every byte is
    /// delivered in order exactly once.
    #[test]
    fn lossy_delivery_complete(
        total in 10_000u64..200_000,
        loss in 0.0f64..0.05,
        seed in any::<u64>(),
    ) {
        let (delivered, _, _) = run_transfer(total, loss, false, seed, CcAlgo::Cubic);
        prop_assert_eq!(delivered, total);
    }

    /// Reordering on top of loss is also recovered.
    #[test]
    fn reordered_lossy_delivery(
        total in 10_000u64..100_000,
        loss in 0.0f64..0.03,
        seed in any::<u64>(),
    ) {
        let (delivered, _, _) = run_transfer(total, loss, true, seed, CcAlgo::Cubic);
        prop_assert_eq!(delivered, total);
    }

    /// Every congestion-control algorithm completes a lossy transfer.
    #[test]
    fn all_cc_algorithms_complete(seed in any::<u64>()) {
        for algo in [CcAlgo::Cubic, CcAlgo::Reno, CcAlgo::Dctcp, CcAlgo::Bbr] {
            let (delivered, _, _) = run_transfer(50_000, 0.01, false, seed, algo);
            prop_assert_eq!(delivered, 50_000);
        }
    }

    /// Whenever segments were actually dropped, recovery retransmitted
    /// something — and the stream still completed exactly.
    #[test]
    fn loss_causes_retransmissions(seed in any::<u64>()) {
        let (delivered, rtx, drops) = run_transfer(200_000, 0.05, false, seed, CcAlgo::Cubic);
        prop_assert_eq!(delivered, 200_000);
        if drops > 0 {
            prop_assert!(rtx > 0, "{drops} drops but no retransmissions");
        }
    }

    /// A slow reader behind a small buffer: in-order delivery closes the
    /// window, the reads reopen it with an explicit update, and sub-2·MSS
    /// segments sent into the narrow window wait for the delayed-ACK
    /// flush. The transfer still completes.
    #[test]
    fn slow_reader_closes_and_reopens_the_window(
        total in 200_000u64..400_000,
        rcvbuf in 32_768u64..98_304,
        read_per_step in 256u64..4_096,
        seed in any::<u64>(),
    ) {
        let out = run(Transfer {
            total,
            loss: 0.0,
            reorder: false,
            seed,
            algo: CcAlgo::Cubic,
            rcvbuf,
            read_per_step,
        });
        prop_assert_eq!(out.delivered, total);
        prop_assert_eq!(out.read, total);
        prop_assert!(out.reopen_updates > 0, "the window never reopened");
    }
}
