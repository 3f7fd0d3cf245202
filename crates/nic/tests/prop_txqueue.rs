//! Differential property test for the Tx arbiter.
//!
//! `TxArbiter` finds the next queue to serve through a bitmap of
//! non-empty queues. The reference below is the plain linear-scan round
//! robin it replaced: probe every queue from the round-robin pointer on,
//! serve the first non-empty one, and move the pointer past it. Under any
//! interleaving of single enqueues, batch enqueues and dequeues, over
//! queue counts on both sides of every 64-queue word boundary, both must
//! hand out the identical frame sequence and agree on `len()` and
//! `is_empty()` after every operation.

use hns_nic::txqueue::QueuedFrame;
use hns_nic::TxArbiter;
use proptest::prelude::*;
use std::collections::VecDeque;

/// The linear-scan round robin: `O(queues)` per dequeue.
struct Reference {
    queues: Vec<VecDeque<QueuedFrame<u32>>>,
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

    fn enqueue(&mut self, queue: usize, payload: u32, tag: u32) {
        self.queues[queue].push_back((payload, tag));
        self.queued += 1;
    }

    fn dequeue(&mut self) -> Option<QueuedFrame<u32>> {
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
    Enqueue(usize),
    EnqueueAll(usize, u32),
    Dequeue,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..1024).prop_map(Op::Enqueue),
        (0usize..1024, 0u32..6).prop_map(|(q, n)| Op::EnqueueAll(q, n)),
        Just(Op::Dequeue),
        Just(Op::Dequeue),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same dequeue sequence, `len()` and `is_empty()` as the linear
    /// scan after every operation, then the same drain order.
    #[test]
    fn bitmap_round_robin_matches_linear_scan(
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
                Op::Enqueue(q) => {
                    let q = pick(q);
                    arb.enqueue(q, 100 + tag % 1400, tag);
                    reference.enqueue(q, 100 + tag % 1400, tag);
                    tag += 1;
                }
                Op::EnqueueAll(q, frames) => {
                    let q = pick(q);
                    let run: Vec<(u32, u32)> =
                        (tag..tag + frames).map(|t| (100 + t % 1400, t)).collect();
                    arb.enqueue_all(q, run.iter().copied());
                    for &(payload, t) in &run {
                        reference.enqueue(q, payload, t);
                    }
                    tag += frames;
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
