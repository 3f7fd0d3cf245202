//! TCP Segmentation Offload.
//!
//! With TSO the stack hands the NIC skbs of up to 64KB and the NIC slices
//! them into MTU-sized frames in hardware — for free, CPU-wise, which is
//! why the paper finds TSO more effective than (software) GSO or
//! receive-side GRO (§3.4: "unlike GRO which is software-based, there are
//! no CPU overheads associated with TSO processing").
//!
//! [`segment`] yields the per-frame payload sizes for one send of `len`
//! bytes at a given MTU payload. The simulated NIC does the same slicing
//! as it sends: a burst waits in its Tx queue as one run of
//! [`frame_count`] frames, and the drain takes `min(rest, mss)` bytes off
//! it per frame, which is [`segment`]'s sequence.

/// Iterator over the frame payload sizes of a segmented send.
#[derive(Clone, Copy, Debug)]
pub struct Segments {
    remaining: u32,
    mss: u32,
}

impl Iterator for Segments {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        let take = self.remaining.min(self.mss);
        self.remaining -= take;
        Some(take)
    }
}

impl ExactSizeIterator for Segments {
    fn len(&self) -> usize {
        self.remaining.div_ceil(self.mss) as usize
    }
}

/// Split `len` payload bytes into MTU-payload (`mss`)-sized frames.
pub fn segment(len: u32, mss: u32) -> Segments {
    assert!(mss > 0);
    Segments {
        remaining: len,
        mss,
    }
}

/// Number of frames a `len`-byte send produces at `mss`.
pub fn frame_count(len: u32, mss: u32) -> u32 {
    len.div_ceil(mss)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_multiple() {
        let frames: Vec<u32> = segment(3000, 1500).collect();
        assert_eq!(frames, vec![1500, 1500]);
    }

    #[test]
    fn remainder_frame() {
        let frames: Vec<u32> = segment(64 * 1024, 9000).collect();
        assert_eq!(frames.len(), 8);
        assert_eq!(frames[..7], [9000; 7]);
        assert_eq!(frames[7], 65536 - 7 * 9000);
        assert_eq!(frames.iter().sum::<u32>(), 65536);
    }

    #[test]
    fn small_send_single_frame() {
        let frames: Vec<u32> = segment(100, 1500).collect();
        assert_eq!(frames, vec![100]);
    }

    #[test]
    fn zero_len_yields_nothing() {
        assert_eq!(segment(0, 1500).count(), 0);
        assert_eq!(frame_count(0, 1500), 0);
    }

    #[test]
    fn counts_match_iterator() {
        for (len, mss) in [(1u32, 1500u32), (1500, 1500), (1501, 1500), (65536, 9000)] {
            assert_eq!(frame_count(len, mss) as usize, segment(len, mss).count());
            assert_eq!(segment(len, mss).len(), segment(len, mss).count());
        }
    }

    #[test]
    fn payload_conserved() {
        for len in [1u32, 999, 9000, 12345, 65536] {
            assert_eq!(segment(len, 9000).sum::<u32>(), len);
            assert_eq!(segment(len, 1500).sum::<u32>(), len);
        }
    }
}
