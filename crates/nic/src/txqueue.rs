//! Tx queues and the NIC's transmit arbiter.
//!
//! Each sender core enqueues its TSO bursts on its own hardware Tx queue;
//! the NIC serves the queues in round-robin, one frame per turn. With one active flow
//! the wire carries long same-flow runs (GRO merges them back into 64KB
//! skbs at the receiver); with many flows on *different* cores the arbiter
//! interleaves them frame-by-frame, which — together with shrinking
//! per-flow windows — is what starves GRO of batching opportunities as the
//! paper's all-to-all experiment scales (§3.5, Fig. 8c).
//!
//! A queue holds *runs*: a TSO burst is queued as one `(frames, tag)`
//! entry, as the stack hands the NIC one 64KB skb, and the arbiter takes
//! it apart a frame per turn, as the NIC slices the skb while it sends.
//! The queues are unbounded (the stack's windows bound them). One bit per
//! non-empty queue lets [`TxArbiter::dequeue`] find the next queue to serve
//! with a `trailing_zeros` per 64 queues instead of probing every queue.

use std::collections::VecDeque;

/// A run queued for transmission: `(frames, tag)`, the frames the run has
/// left to send and an opaque handle the stack resolves each of them
/// through.
pub type QueuedRun<T> = (u32, T);

/// Round-robin transmit arbiter over per-core Tx queues: each non-empty
/// queue sends one frame in turn, from the run at its head.
#[derive(Debug)]
pub struct TxArbiter<T> {
    queues: Vec<VecDeque<QueuedRun<T>>>,
    /// Bit `q % 64` of word `q / 64` is set iff queue `q` is non-empty.
    active: Vec<u64>,
    /// Next queue to serve (round-robin pointer).
    next: usize,
    /// Total frames currently queued, over every run.
    queued: usize,
}

impl<T: Copy> TxArbiter<T> {
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

    /// Enqueue a run of `frames` frames (at least one) on `queue`, all
    /// sent under `tag`.
    pub fn enqueue(&mut self, queue: usize, frames: u32, tag: T) {
        debug_assert!(frames > 0, "an empty run");
        self.queues[queue].push_back((frames, tag));
        self.active[queue / 64] |= 1 << (queue % 64);
        self.queued += frames as usize;
    }

    /// Dequeue the next frame in round-robin order: from the head run of
    /// the first non-empty queue at or after the round-robin pointer,
    /// wrapping. Returns the run's tag and whether this frame was the
    /// run's last.
    pub fn dequeue(&mut self) -> Option<(T, bool)> {
        if self.queued == 0 {
            return None;
        }
        let q = self.next_active();
        let queue = &mut self.queues[q];
        let run = queue.front_mut().expect("an active queue holds a run");
        run.0 -= 1;
        let (left, tag) = *run;
        if left == 0 {
            queue.pop_front();
            if queue.is_empty() {
                self.active[q / 64] &= !(1 << (q % 64));
            }
        }
        self.next = if q + 1 == self.queues.len() { 0 } else { q + 1 };
        self.queued -= 1;
        Some((tag, left == 0))
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

    /// Runs queued across all queues: the tags held.
    pub fn runs(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every frame's `(tag, last)` until the arbiter is empty.
    fn drain<T: Copy>(a: &mut TxArbiter<T>) -> Vec<(T, bool)> {
        std::iter::from_fn(|| a.dequeue()).collect()
    }

    #[test]
    fn single_queue_is_fifo() {
        let mut a: TxArbiter<u32> = TxArbiter::new(1);
        for i in 0..5 {
            a.enqueue(0, 1, i);
        }
        let order: Vec<u32> = drain(&mut a).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn round_robin_interleaves_queues() {
        let mut a: TxArbiter<(usize, u32)> = TxArbiter::new(3);
        for q in 0..3 {
            for i in 0..3 {
                a.enqueue(q, 1, (q, i));
            }
        }
        let order: Vec<(usize, u32)> = drain(&mut a).into_iter().map(|(t, _)| t).collect();
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
    fn runs_leave_a_frame_per_turn() {
        let mut a: TxArbiter<char> = TxArbiter::new(2);
        a.enqueue(0, 3, 'a');
        a.enqueue(0, 1, 'b');
        a.enqueue(1, 2, 'c');
        assert_eq!((a.len(), a.runs()), (6, 3));
        assert_eq!(
            drain(&mut a),
            vec![
                ('a', false),
                ('c', false),
                ('a', false),
                ('c', true),
                ('a', true),
                ('b', true)
            ]
        );
        assert_eq!((a.len(), a.runs()), (0, 0));
    }

    #[test]
    fn skips_empty_queues() {
        let mut a: TxArbiter<u8> = TxArbiter::new(4);
        a.enqueue(2, 1, 42);
        assert_eq!(a.dequeue(), Some((42, true)));
        assert!(a.dequeue().is_none());
        assert!(a.is_empty());
    }
}
