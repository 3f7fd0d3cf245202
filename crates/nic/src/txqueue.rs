//! Tx queues and the NIC's transmit arbiter.
//!
//! Each sender core enqueues its (post-TSO) frames on its own hardware Tx
//! queue; the NIC serves the queues in round-robin. With one active flow
//! the wire carries long same-flow runs (GRO merges them back into 64KB
//! skbs at the receiver); with many flows on *different* cores the arbiter
//! interleaves them frame-by-frame, which — together with shrinking
//! per-flow windows — is what starves GRO of batching opportunities as the
//! paper's all-to-all experiment scales (§3.5, Fig. 8c).
//!
//! The queues are unbounded (the stack's windows bound them). One bit per
//! non-empty queue lets [`TxArbiter::dequeue`] find the next queue to serve
//! with a `trailing_zeros` per 64 queues instead of probing every queue.

use std::collections::VecDeque;

/// A frame queued for transmission: `(payload_bytes, tag)`. The tag is an
/// opaque handle the stack uses to recover the segment on dequeue.
pub type QueuedFrame<T> = (u32, T);

/// Round-robin transmit arbiter over per-core Tx queues: each non-empty
/// queue sends one frame in turn.
#[derive(Debug)]
pub struct TxArbiter<T> {
    queues: Vec<VecDeque<QueuedFrame<T>>>,
    /// Bit `q % 64` of word `q / 64` is set iff queue `q` is non-empty.
    active: Vec<u64>,
    /// Next queue to serve (round-robin pointer).
    next: usize,
    /// Total frames currently queued.
    queued: usize,
}

impl<T> TxArbiter<T> {
    /// Arbiter over `queues` hardware queues.
    pub fn new(queues: usize) -> Self {
        assert!(queues > 0);
        TxArbiter {
            queues: (0..queues).map(|_| VecDeque::new()).collect(),
            active: vec![0; queues.div_ceil(64)],
            next: 0,
            queued: 0,
        }
    }

    /// Enqueue a frame on `queue`.
    pub fn enqueue(&mut self, queue: usize, payload: u32, tag: T) {
        self.queues[queue].push_back((payload, tag));
        self.active[queue / 64] |= 1 << (queue % 64);
        self.queued += 1;
    }

    /// Enqueue a run of frames on `queue` in one call — the TSO path
    /// splits a 64KB write into dozens of MTU frames that all target the
    /// sender core's queue, so the queue lookup is hoisted out of the
    /// per-frame loop. Identical to calling [`Self::enqueue`] per frame.
    pub fn enqueue_all<I>(&mut self, queue: usize, frames: I)
    where
        I: IntoIterator<Item = QueuedFrame<T>>,
    {
        let q = &mut self.queues[queue];
        let before = q.len();
        q.extend(frames);
        let added = q.len() - before;
        if added > 0 {
            self.active[queue / 64] |= 1 << (queue % 64);
            self.queued += added;
        }
    }

    /// Dequeue the next frame in round-robin order: from the first
    /// non-empty queue at or after the round-robin pointer, wrapping.
    pub fn dequeue(&mut self) -> Option<QueuedFrame<T>> {
        if self.queued == 0 {
            return None;
        }
        let q = self.next_active();
        let frame = self.queues[q]
            .pop_front()
            .expect("an active queue holds a frame");
        if self.queues[q].is_empty() {
            self.active[q / 64] &= !(1 << (q % 64));
        }
        self.next = if q + 1 == self.queues.len() { 0 } else { q + 1 };
        self.queued -= 1;
        Some(frame)
    }

    /// The first non-empty queue at or after `next`, wrapping. Only called
    /// with at least one frame queued.
    fn next_active(&self) -> usize {
        let words = self.active.len();
        let w0 = self.next / 64;
        let at_or_after = self.active[w0] & (!0u64 << (self.next % 64));
        if at_or_after != 0 {
            return w0 * 64 + at_or_after.trailing_zeros() as usize;
        }
        // The words after `w0`, then from word 0 round to `w0` itself,
        // whose bits at or after `next` are already known to be clear.
        let mut w = w0;
        for _ in 0..words {
            w = if w + 1 == words { 0 } else { w + 1 };
            if self.active[w] != 0 {
                return w * 64 + self.active[w].trailing_zeros() as usize;
            }
        }
        unreachable!("a queued frame has no active queue")
    }

    /// Frames queued across all queues.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_queue_is_fifo() {
        let mut a: TxArbiter<u32> = TxArbiter::new(1);
        for i in 0..5 {
            a.enqueue(0, 100, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| a.dequeue()).map(|(_, t)| t).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn round_robin_interleaves_queues() {
        let mut a: TxArbiter<(usize, u32)> = TxArbiter::new(3);
        for q in 0..3 {
            for i in 0..3 {
                a.enqueue(q, 100, (q, i));
            }
        }
        let order: Vec<(usize, u32)> = std::iter::from_fn(|| a.dequeue()).map(|(_, t)| t).collect();
        // Frame-by-frame interleaving across queues.
        assert_eq!(
            order,
            vec![
                (0, 0),
                (1, 0),
                (2, 0),
                (0, 1),
                (1, 1),
                (2, 1),
                (0, 2),
                (1, 2),
                (2, 2)
            ]
        );
    }

    #[test]
    fn enqueue_all_matches_per_frame_enqueue() {
        let mut batch: TxArbiter<u32> = TxArbiter::new(2);
        let mut serial: TxArbiter<u32> = TxArbiter::new(2);
        let frames: Vec<(u32, u32)> = (0..5).map(|i| (100, i)).collect();
        batch.enqueue_all(0, frames.iter().copied());
        batch.enqueue_all(1, std::iter::empty());
        for &(p, t) in &frames {
            serial.enqueue(0, p, t);
        }
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.len(), serial.len());
        loop {
            let (a, b) = (batch.dequeue(), serial.dequeue());
            assert_eq!(a, b);
            assert_eq!(batch.len(), serial.len());
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn skips_empty_queues() {
        let mut a: TxArbiter<u8> = TxArbiter::new(4);
        a.enqueue(2, 10, 42);
        assert_eq!(a.dequeue().map(|(_, t)| t), Some(42));
        assert!(a.dequeue().is_none());
        assert!(a.is_empty());
    }
}
