//! Differential property test for the Tx arbiter.
//!
//! `TxArbiter` queues runs of frames and finds the next queue to serve
//! through a bitmap of non-empty queues. The reference below queues single
//! frames and is the plain linear-scan round robin: probe every queue from
//! the round-robin pointer on, serve the first non-empty one, and move the
//! pointer past it. A run of `n` frames enters the reference as its `n`
//! frames, each carrying the run's tag and whether it is the run's last.
//! Under any interleaving of runs of one or more frames and dequeues, over
//! queue counts on both sides of every 64-queue word boundary, both must
//! hand out the identical frame sequence and agree on `len()` and
//! `is_empty()` after every operation.

use hns_nic::TxArbiter;
use proptest::prelude::*;
use std::collections::VecDeque;

/// A queued frame: its run's tag and whether it is the run's last.
type Frame = (u32, bool);

/// The linear-scan round robin over single frames: `O(queues)` per
/// dequeue.
struct Reference {
    queues: Vec<VecDeque<Frame>>,
    next: usize,
    queued: usize,
}

impl Reference {
    fn new(queues: usize) -> Self {
        Reference {
            queues: (0..queues).map(|_| VecDeque::new()).collect(),
            next: 0,
            queued: 0,
        }
    }

    /// A run of `frames` frames, queued frame by frame.
    fn enqueue(&mut self, queue: usize, frames: u32, tag: u32) {
        for i in 1..=frames {
            self.queues[queue].push_back((tag, i == frames));
        }
        self.queued += frames as usize;
    }

    fn dequeue(&mut self) -> Option<Frame> {
        if self.queued == 0 {
            return None;
        }
        let n = self.queues.len();
        for _ in 0..n {
            let q = self.next;
            self.next = (self.next + 1) % n;
            if let Some(frame) = self.queues[q].pop_front() {
                self.queued -= 1;
                return Some(frame);
            }
        }
        None
    }
}

/// Queue counts on each side of the 64-queue word boundaries, plus the
/// world's default of 24 cores.
const QUEUE_COUNTS: [usize; 7] = [1, 2, 24, 63, 64, 65, 130];

/// One step of a driver interleaving. Queue picks are reduced modulo the
/// queue count; `Dequeue`'s weight keeps queues short, so many of them
/// empty and refill.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A run of this many frames (one, as an ACK's, or a TSO burst's
    /// several) on a queue.
    Enqueue(usize, u32),
    Dequeue,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..1024).prop_map(|q| Op::Enqueue(q, 1)),
        (0usize..1024, 1u32..6).prop_map(|(q, n)| Op::Enqueue(q, n)),
        Just(Op::Dequeue),
        Just(Op::Dequeue),
        Just(Op::Dequeue),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same dequeue sequence, `len()` and `is_empty()` as the per-frame
    /// linear scan after every operation, then the same drain order.
    #[test]
    fn run_round_robin_matches_per_frame_linear_scan(
        count in 0usize..QUEUE_COUNTS.len(),
        hot in 0usize..1024,
        ops in proptest::collection::vec(op_strategy(), 1..600),
    ) {
        let n = QUEUE_COUNTS[count];
        let mut arb: TxArbiter<u32> = TxArbiter::new(n);
        let mut reference = Reference::new(n);
        // Half the picks land on one of two hot queues 61 apart, so the
        // pointer often skips long runs of empty queues.
        let pick = |q: usize| match q % 4 {
            0 => hot % n,
            1 => (hot + 61) % n,
            _ => q % n,
        };
        let mut tag = 0u32;
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Enqueue(q, frames) => {
                    let q = pick(q);
                    arb.enqueue(q, frames, tag);
                    reference.enqueue(q, frames, tag);
                    tag += 1;
                }
                Op::Dequeue => {
                    prop_assert_eq!(arb.dequeue(), reference.dequeue(), "op {}, {} queues", i, n);
                }
            }
            prop_assert_eq!(arb.len(), reference.queued, "op {}, {} queues", i, n);
            prop_assert_eq!(arb.is_empty(), reference.queued == 0, "op {}, {} queues", i, n);
        }
        loop {
            let (a, b) = (arb.dequeue(), reference.dequeue());
            prop_assert_eq!(a, b, "drain, {} queues", n);
            prop_assert_eq!(arb.len(), reference.queued);
            if a.is_none() {
                break;
            }
        }
        prop_assert!(arb.is_empty());
    }
}
