//! Differential property tests for the in-place range merges.
//!
//! [`Scoreboard::merge`] and [`ReassemblyQueue::insert`] coalesce a new
//! range into a sorted range list in place. The reference models below
//! are the earlier copying merges: they rebuild the whole list into a
//! fresh vector on every call. Random insert streams drive both, and the
//! stored ranges and every outcome must agree after every operation.

use crate::reassembly::{InsertOutcome, ReassemblyQueue};
use crate::sack::{SackBlocks, Scoreboard};
use proptest::prelude::*;

/// The copying SACK scoreboard merge.
#[derive(Default)]
struct RefScoreboard {
    ranges: Vec<(u64, u64)>,
}

impl RefScoreboard {
    fn merge(&mut self, blocks: &SackBlocks, snd_una: u64) {
        for &(s, e) in blocks.as_slice() {
            let s = s.max(snd_una);
            if e <= s {
                continue;
            }
            self.insert(s, e);
        }
        self.prune(snd_una);
    }

    fn insert(&mut self, mut start: u64, mut end: u64) {
        let mut merged = Vec::with_capacity(self.ranges.len() + 1);
        let mut placed = false;
        for &(s, e) in &self.ranges {
            if e < start || s > end {
                if s > end && !placed {
                    merged.push((start, end));
                    placed = true;
                }
                merged.push((s, e));
            } else {
                start = start.min(s);
                end = end.max(e);
            }
        }
        if !placed {
            merged.push((start, end));
        }
        merged.sort_unstable();
        self.ranges = merged;
    }

    fn prune(&mut self, snd_una: u64) {
        self.ranges.retain_mut(|r| {
            r.0 = r.0.max(snd_una);
            r.1 > r.0
        });
    }
}

/// The copying receiver reassembly queue.
#[derive(Default)]
struct RefReassembly {
    rcv_nxt: u64,
    ranges: Vec<(u64, u64)>,
}

impl RefReassembly {
    fn insert(&mut self, seq: u64, len: u32) -> InsertOutcome {
        let end = seq + len as u64;
        if end <= self.rcv_nxt {
            return InsertOutcome {
                delivered: 0,
                duplicate: true,
                out_of_order: false,
            };
        }
        let seq = seq.max(self.rcv_nxt);
        if seq > self.rcv_nxt {
            let was_new = self.store(seq, end);
            return InsertOutcome {
                delivered: 0,
                duplicate: !was_new,
                out_of_order: true,
            };
        }
        let before = self.rcv_nxt;
        self.rcv_nxt = end;
        while let Some(&(s, e)) = self.ranges.first() {
            if s <= self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.max(e);
                self.ranges.remove(0);
            } else {
                break;
            }
        }
        InsertOutcome {
            delivered: self.rcv_nxt - before,
            duplicate: false,
            out_of_order: false,
        }
    }

    fn store(&mut self, mut start: u64, mut end: u64) -> bool {
        let mut added_new = false;
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.ranges.len() + 1);
        let mut placed = false;
        for &(s, e) in &self.ranges {
            if e < start || s > end {
                if s > end && !placed && start < end {
                    merged.push((start, end));
                    placed = true;
                }
                merged.push((s, e));
            } else {
                if start < s || end > e {
                    added_new = added_new || start < s || end > e;
                }
                start = start.min(s);
                end = end.max(e);
            }
        }
        if !placed {
            merged.push((start, end));
        }
        merged.sort_unstable();
        let old_bytes: u64 = self.ranges.iter().map(|(s, e)| e - s).sum();
        let new_bytes: u64 = merged.iter().map(|(s, e)| e - s).sum();
        self.ranges = merged;
        new_bytes > old_bytes || added_new
    }
}

/// A range endpoint on a coarse grid plus a small jitter, so overlapping,
/// touching and nested ranges are all common.
fn point(base: u64, x: u64) -> u64 {
    base + (x % 64) * 100 + (x >> 8) % 3 * 50
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// SACK blocks of up to three ranges, a creeping cumulative ACK, and
    /// occasional clears: identical ranges and loss-recovery answers.
    #[test]
    fn scoreboard_merge_matches_copying_merge(
        ops in proptest::collection::vec((0u64..8, any::<u64>(), any::<u64>()), 1..200),
    ) {
        let mut sb = Scoreboard::new();
        let mut model = RefScoreboard::default();
        let mut una = 0u64;
        for (kind, a, b) in ops {
            match kind {
                0 => {
                    una += a % 400;
                    sb.prune(una);
                    model.prune(una);
                }
                1 if a % 16 == 0 => {
                    sb.clear();
                    model.ranges.clear();
                }
                _ => {
                    let n = 1 + (b % 3) as usize;
                    let ranges = (0..n).map(|k| {
                        let x = a.rotate_left(17 * k as u32);
                        let s = point(una.saturating_sub(200), x);
                        (s, s + (x >> 20) % 700)
                    });
                    let blocks = SackBlocks::from_ranges(ranges);
                    sb.merge(&blocks, una);
                    model.merge(&blocks, una);
                }
            }
            prop_assert_eq!(sb.ranges(), &model.ranges[..]);
            prop_assert_eq!(sb.gap_bytes(una), {
                let mut cursor = una;
                let mut gaps = 0;
                for &(s, e) in &model.ranges {
                    if cursor < s {
                        gaps += s - cursor;
                    }
                    cursor = cursor.max(e);
                }
                gaps
            });
        }
    }

    /// Segments before, at and beyond `rcv_nxt`, zero-length ones
    /// included: identical outcomes, ranges and delivery point.
    #[test]
    fn reassembly_store_matches_copying_merge(
        ops in proptest::collection::vec((any::<u64>(), 0u32..900), 1..200),
    ) {
        let mut q = ReassemblyQueue::new();
        let mut model = RefReassembly::default();
        for (x, len) in ops {
            let seq = point(model.rcv_nxt.saturating_sub(300), x);
            let len = if x % 11 == 0 { 0 } else { len };
            let got = q.insert(seq, len);
            let want = model.insert(seq, len);
            prop_assert_eq!(got, want, "outcome for [{}, +{})", seq, len);
            prop_assert_eq!(q.ranges(), &model.ranges[..]);
            prop_assert_eq!(q.rcv_nxt(), model.rcv_nxt);
        }
    }
}
