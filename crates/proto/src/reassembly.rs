//! Receiver-side out-of-order reassembly.
//!
//! Tracks which byte ranges beyond the in-order delivery point (`rcv_nxt`)
//! have arrived. Arrival of the missing bytes advances `rcv_nxt` across any
//! contiguous stored ranges — exactly TCP's OFO-queue behaviour, and the
//! source of the receiver's extra TCP/IP cycles under loss (§3.6: the
//! receiver "gets out-of-order TCP segments, and ends up sending duplicate
//! ACKs").

use crate::sack::{overlap_window, SackBlocks};

/// Outcome of offering one data segment to the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Bytes newly deliverable in order (advance of `rcv_nxt`).
    pub delivered: u64,
    /// True if the segment was entirely duplicate data.
    pub duplicate: bool,
    /// True if the segment landed out of order (beyond `rcv_nxt`).
    pub out_of_order: bool,
}

/// Out-of-order range store for one flow.
#[derive(Debug, Default)]
pub struct ReassemblyQueue {
    /// Next in-order byte expected.
    rcv_nxt: u64,
    /// Sorted, non-overlapping, non-adjacent stored ranges beyond rcv_nxt.
    ranges: Vec<(u64, u64)>, // (start, end) half-open
}

impl ReassemblyQueue {
    /// Empty queue expecting byte 0.
    pub fn new() -> Self {
        ReassemblyQueue::default()
    }

    /// Next expected in-order byte (the cumulative ACK value).
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Bytes held out-of-order (not yet deliverable).
    pub fn ooo_bytes(&self) -> u64 {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }

    /// The stored out-of-order ranges: sorted, disjoint and non-adjacent.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// SACK blocks for the next outgoing ACK: the first stored
    /// out-of-order ranges (RFC 2018 prefers most-recently-received
    /// first; lowest-first conveys the same hole boundaries to our
    /// scoreboard).
    pub fn sack_blocks(&self) -> SackBlocks {
        SackBlocks::from_ranges(self.ranges.iter().copied())
    }

    /// Offer segment `[seq, seq+len)`.
    pub fn insert(&mut self, seq: u64, len: u32) -> InsertOutcome {
        let end = seq + len as u64;
        if end <= self.rcv_nxt {
            // Entirely old data (spurious retransmission).
            return InsertOutcome {
                delivered: 0,
                duplicate: true,
                out_of_order: false,
            };
        }
        let seq = seq.max(self.rcv_nxt);

        if seq > self.rcv_nxt {
            // Out of order: store the range, merging overlaps.
            let was_new = self.store(seq, end);
            return InsertOutcome {
                delivered: 0,
                duplicate: !was_new,
                out_of_order: true,
            };
        }

        // In-order: advance rcv_nxt, then absorb any now-contiguous ranges.
        let before = self.rcv_nxt;
        self.rcv_nxt = end;
        self.absorb_contiguous();
        InsertOutcome {
            delivered: self.rcv_nxt - before,
            duplicate: false,
            out_of_order: false,
        }
    }

    /// Store `[start, end)` into the sorted range list, coalescing in place
    /// with every range it overlaps or touches; returns true if any new
    /// bytes were added.
    fn store(&mut self, start: u64, end: u64) -> bool {
        let (lo, hi) = overlap_window(&self.ranges, start, end);
        if lo == hi {
            self.ranges.insert(lo, (start, end));
            return start < end;
        }
        let (s, e) = (self.ranges[lo].0, self.ranges[hi - 1].1);
        // Nothing new only when one stored range already covers it all.
        let added = hi - lo > 1 || start < s || end > e;
        self.ranges[lo] = (start.min(s), end.max(e));
        self.ranges.drain(lo + 1..hi);
        added
    }

    /// Pull ranges now contiguous with rcv_nxt.
    fn absorb_contiguous(&mut self) {
        while let Some(&(s, e)) = self.ranges.first() {
            if s <= self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.max(e);
                self.ranges.remove(0);
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream() {
        let mut q = ReassemblyQueue::new();
        let o = q.insert(0, 1000);
        assert_eq!(o.delivered, 1000);
        assert!(!o.out_of_order && !o.duplicate);
        let o = q.insert(1000, 500);
        assert_eq!(o.delivered, 500);
        assert_eq!(q.rcv_nxt(), 1500);
        assert!(q.ranges().is_empty());
    }

    #[test]
    fn single_hole_fill() {
        let mut q = ReassemblyQueue::new();
        q.insert(0, 100);
        let o = q.insert(200, 100); // hole at [100,200)
        assert!(o.out_of_order);
        assert_eq!(o.delivered, 0);
        assert_eq!(q.ooo_bytes(), 100);
        let o = q.insert(100, 100); // fills the hole
        assert_eq!(o.delivered, 200, "hole + stored range delivered together");
        assert_eq!(q.rcv_nxt(), 300);
        assert_eq!(q.ooo_bytes(), 0);
    }

    #[test]
    fn duplicate_old_data() {
        let mut q = ReassemblyQueue::new();
        q.insert(0, 1000);
        let o = q.insert(0, 1000);
        assert!(o.duplicate);
        assert_eq!(o.delivered, 0);
        let o = q.insert(500, 200);
        assert!(o.duplicate);
    }

    #[test]
    fn partial_overlap_with_delivered() {
        let mut q = ReassemblyQueue::new();
        q.insert(0, 1000);
        // Segment straddling rcv_nxt delivers only the new part.
        let o = q.insert(500, 1000);
        assert_eq!(o.delivered, 500);
        assert_eq!(q.rcv_nxt(), 1500);
    }

    #[test]
    fn multiple_holes() {
        let mut q = ReassemblyQueue::new();
        q.insert(0, 100);
        q.insert(200, 100);
        q.insert(400, 100);
        assert_eq!(q.ranges(), [(200, 300), (400, 500)]);
        assert_eq!(q.ooo_bytes(), 200);
        q.insert(100, 100);
        assert_eq!(q.rcv_nxt(), 300);
        assert_eq!(q.ranges(), [(400, 500)]);
        q.insert(300, 100);
        assert_eq!(q.rcv_nxt(), 500);
        assert!(q.ranges().is_empty());
    }

    #[test]
    fn overlapping_ooo_ranges_merge() {
        let mut q = ReassemblyQueue::new();
        q.insert(200, 100);
        q.insert(250, 100);
        assert_eq!(q.ranges(), [(200, 350)]);
        assert_eq!(q.ooo_bytes(), 150);
        let o = q.insert(220, 50);
        assert!(o.duplicate, "fully contained range adds nothing");
    }

    #[test]
    fn adjacent_ooo_ranges_merge() {
        let mut q = ReassemblyQueue::new();
        q.insert(200, 100);
        q.insert(300, 100);
        assert_eq!(q.ranges(), [(200, 400)]);
        assert_eq!(q.ooo_bytes(), 200);
        q.insert(0, 200);
        assert_eq!(q.rcv_nxt(), 400);
    }

    #[test]
    fn ooo_then_full_catchup() {
        let mut q = ReassemblyQueue::new();
        // Segments 2..10 arrive before segment 0..2.
        for i in (2..10).rev() {
            q.insert(i * 100, 100);
        }
        assert_eq!(q.rcv_nxt(), 0);
        let o = q.insert(0, 200);
        assert_eq!(o.delivered, 1000);
        assert_eq!(q.rcv_nxt(), 1000);
    }
}
