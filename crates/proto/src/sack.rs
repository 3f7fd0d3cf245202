//! Selective acknowledgment: SACK blocks and the sender scoreboard.
//!
//! The receiver reports up to [`MAX_SACK_BLOCKS`] received ranges beyond
//! the cumulative ACK (RFC 2018); the sender folds them into a
//! [`Scoreboard`] and drives loss recovery from it (RFC 6675): a gap is
//! *lost* once at least `3·MSS` of data above it has been SACKed, and
//! retransmissions walk the lost gaps lowest-first, clocked by the pipe.
//! This is what lets a flow repair hundreds of holes (an incast ring
//! overrun, a slow-start overshoot burst) in a handful of round trips
//! instead of one hole per RTT.

/// Maximum SACK blocks carried per ACK (RFC 2018 allows 3-4 with
/// timestamps; we use 3).
pub const MAX_SACK_BLOCKS: usize = 3;

/// SACK blocks carried on an ACK: up to three `[start, end)` ranges of
/// received-but-not-yet-acknowledged data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SackBlocks {
    blocks: [(u64, u64); MAX_SACK_BLOCKS],
    len: u8,
}

impl SackBlocks {
    /// No blocks.
    pub const EMPTY: SackBlocks = SackBlocks {
        blocks: [(0, 0); MAX_SACK_BLOCKS],
        len: 0,
    };

    /// Build from an iterator of ranges (first [`MAX_SACK_BLOCKS`] kept).
    pub fn from_ranges(ranges: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut out = SackBlocks::EMPTY;
        for (s, e) in ranges {
            if out.len as usize == MAX_SACK_BLOCKS {
                break;
            }
            if e > s {
                out.blocks[out.len as usize] = (s, e);
                out.len += 1;
            }
        }
        out
    }

    /// The blocks as a slice.
    pub fn as_slice(&self) -> &[(u64, u64)] {
        &self.blocks[..self.len as usize]
    }

    /// True when no blocks are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The window `lo..hi` of sorted, disjoint, non-adjacent `ranges` that
/// overlap or touch `[start, end]`: everything before `lo` ends below
/// `start`, everything from `hi` on begins above `end`.
pub(crate) fn overlap_window(ranges: &[(u64, u64)], start: u64, end: u64) -> (usize, usize) {
    let lo = ranges.partition_point(|&(_, e)| e < start);
    let hi = lo + ranges[lo..].partition_point(|&(s, _)| s <= end);
    (lo, hi)
}

/// Sender-side scoreboard of SACKed ranges above `snd_una`.
#[derive(Debug, Default)]
pub struct Scoreboard {
    /// Sorted, disjoint SACKed ranges.
    ranges: Vec<(u64, u64)>,
}

impl Scoreboard {
    /// Empty scoreboard.
    pub fn new() -> Self {
        Scoreboard::default()
    }

    /// Merge the blocks of one ACK. Ranges at or below `snd_una` are
    /// irrelevant and clipped away.
    pub fn merge(&mut self, blocks: &SackBlocks, snd_una: u64) {
        for &(s, e) in blocks.as_slice() {
            let s = s.max(snd_una);
            if e <= s {
                continue;
            }
            self.insert(s, e);
        }
        self.prune(snd_una);
    }

    /// Merge `[start, end)` in place: the stored ranges it overlaps or
    /// touches form one window, which becomes a single coalesced range.
    fn insert(&mut self, start: u64, end: u64) {
        let (lo, hi) = overlap_window(&self.ranges, start, end);
        if lo == hi {
            self.ranges.insert(lo, (start, end));
            return;
        }
        let merged = (start.min(self.ranges[lo].0), end.max(self.ranges[hi - 1].1));
        self.ranges[lo] = merged;
        self.ranges.drain(lo + 1..hi);
    }

    /// The SACKed ranges: sorted, disjoint and non-adjacent.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Drop everything at or below the cumulative ACK.
    pub fn prune(&mut self, snd_una: u64) {
        self.ranges.retain_mut(|r| {
            r.0 = r.0.max(snd_una);
            r.1 > r.0
        });
    }

    /// Forget everything (RTO: the rewind retransmits from scratch).
    pub fn clear(&mut self) {
        self.ranges.clear();
    }

    /// Total SACKed bytes.
    pub fn sacked_bytes(&self) -> u64 {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }

    /// Highest SACKed sequence (0 when empty).
    pub fn high_sacked(&self) -> u64 {
        self.ranges.last().map(|&(_, e)| e).unwrap_or(0)
    }

    /// RFC 6675-style loss inference: the first unSACKed gap at or above
    /// `from` whose start has at least `3 × mss` SACKed above it. Returns
    /// `[gap_start, gap_end)` clipped to SACKed boundaries.
    pub fn next_lost_gap(&self, from: u64, snd_una: u64, mss: u32) -> Option<(u64, u64)> {
        if self.ranges.is_empty() {
            return None;
        }
        let threshold = 3 * mss as u64;
        let mut cursor = from.max(snd_una);
        for i in 0..self.ranges.len() {
            let (s, e) = self.ranges[i];
            if cursor < s {
                // Gap [cursor, s): lost if ≥ 3·MSS SACKed above `cursor`.
                let sacked_above: u64 = self
                    .ranges
                    .iter()
                    .map(|&(rs, re)| re.saturating_sub(rs.max(cursor)))
                    .sum();
                if sacked_above >= threshold {
                    return Some((cursor, s));
                }
                return None;
            }
            cursor = cursor.max(e);
        }
        None
    }

    /// Bytes in unSACKed gaps below the highest SACKed sequence, starting
    /// at `snd_una` (the data presumed lost or still flying below the
    /// SACK frontier).
    pub fn gap_bytes(&self, snd_una: u64) -> u64 {
        let mut cursor = snd_una;
        let mut gaps = 0;
        for &(s, e) in &self.ranges {
            if cursor < s {
                gaps += s - cursor;
            }
            cursor = cursor.max(e);
        }
        gaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_builder_caps_and_filters() {
        let b = SackBlocks::from_ranges([(10, 20), (30, 30), (40, 50), (60, 70), (80, 90)]);
        // Empty range (30,30) skipped; capped at 3.
        assert_eq!(b.as_slice(), &[(10, 20), (40, 50), (60, 70)]);
        assert!(SackBlocks::EMPTY.is_empty());
    }

    #[test]
    fn scoreboard_merges_and_coalesces() {
        let mut sb = Scoreboard::new();
        sb.merge(&SackBlocks::from_ranges([(100, 200), (300, 400)]), 0);
        sb.merge(&SackBlocks::from_ranges([(150, 320)]), 0);
        assert_eq!(sb.sacked_bytes(), 300);
        assert_eq!(sb.high_sacked(), 400);
        assert_eq!(sb.ranges(), [(100, 400)]);
    }

    #[test]
    fn prune_clips_below_una() {
        let mut sb = Scoreboard::new();
        sb.merge(&SackBlocks::from_ranges([(100, 200), (300, 400)]), 0);
        sb.prune(150);
        assert_eq!(sb.sacked_bytes(), 150);
        sb.prune(500);
        assert_eq!(sb.sacked_bytes(), 0);
        assert_eq!(sb.high_sacked(), 0);
    }

    #[test]
    fn lost_gap_detection_needs_three_mss_above() {
        let mut sb = Scoreboard::new();
        // Hole at [0, 1000); only 2000 bytes SACKed above with mss=1000 →
        // not yet lost.
        sb.merge(&SackBlocks::from_ranges([(1000, 3000)]), 0);
        assert_eq!(sb.next_lost_gap(0, 0, 1000), None);
        // One more MSS of SACK crosses the threshold.
        sb.merge(&SackBlocks::from_ranges([(3000, 4000)]), 0);
        assert_eq!(sb.next_lost_gap(0, 0, 1000), Some((0, 1000)));
    }

    #[test]
    fn lost_gap_walks_forward() {
        let mut sb = Scoreboard::new();
        sb.merge(&SackBlocks::from_ranges([(1000, 2000), (3000, 9000)]), 0);
        // First gap [0,1000).
        assert_eq!(sb.next_lost_gap(0, 0, 1000), Some((0, 1000)));
        // After retransmitting it, the cursor moves past: next gap
        // [2000,3000).
        assert_eq!(sb.next_lost_gap(1000, 0, 1000), Some((2000, 3000)));
        // Nothing above the SACK frontier.
        assert_eq!(sb.next_lost_gap(3000, 0, 1000), None);
    }

    #[test]
    fn gap_bytes_counts_holes() {
        let mut sb = Scoreboard::new();
        sb.merge(&SackBlocks::from_ranges([(1000, 2000), (3000, 5000)]), 0);
        // Holes: [0,1000) + [2000,3000) = 2000 bytes.
        assert_eq!(sb.gap_bytes(0), 2000);
        assert_eq!(sb.gap_bytes(500), 1500);
    }

    #[test]
    fn clear_resets() {
        let mut sb = Scoreboard::new();
        sb.merge(&SackBlocks::from_ranges([(10, 20)]), 0);
        sb.clear();
        assert_eq!(sb.sacked_bytes(), 0);
        assert_eq!(sb.next_lost_gap(0, 0, 1000), None);
    }
}
