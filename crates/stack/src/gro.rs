//! Generic Receive Offload.
//!
//! GRO runs inside NAPI polling: it holds a small per-core table of
//! in-progress aggregates and merges each arriving frame into its flow's
//! aggregate when the bytes are contiguous. Aggregates flush to the TCP/IP
//! layer when (a) they reach 64KB, (b) a non-mergeable frame of the same
//! flow arrives (gap — e.g. after a loss), (c) the table overflows, or
//! (d) the poll cycle ends (`gro_flush_timeout = 0`, the kernel default).
//!
//! This is the machinery whose *effectiveness decays with flow count*: a
//! poll cycle holding frames of many flows gives each flow only a few
//! contiguous frames to merge, so upper layers see many small skbs — the
//! paper's §3.5 and the Fig. 8c skb-size distribution.

use crate::skb::{FragPool, RxSkb};
#[cfg(test)]
use hns_proto::FlowId;

/// Linux holds at most 8 GRO flows per NAPI instance per bucket; the
/// effective table is small. We model one bucket of 8.
const GRO_TABLE_SLOTS: usize = 8;

/// Per-core GRO engine.
#[derive(Debug, Default)]
pub struct GroEngine {
    table: Vec<RxSkb>,
    /// Aggregates flushed (reporting).
    pub flushed: u64,
    /// Frames merged into an existing aggregate (reporting).
    pub merged: u64,
}

impl GroEngine {
    /// Fresh engine.
    pub fn new() -> Self {
        GroEngine::default()
    }

    /// Offer one driver-built skb, appending any aggregate(s) flushed by
    /// this arrival to `out` (0, 1 or 2 — a gap flushes the old aggregate
    /// and an overflow may flush another). Returns true when the skb merged
    /// into its flow's aggregate: it is absorbed, and its own timeline ends
    /// here. A successful merge recycles the absorbed skb's frag vector
    /// into `pool`; nothing here allocates.
    pub fn offer_into(
        &mut self,
        skb: RxSkb,
        max_aggregate: u32,
        pool: &mut FragPool,
        out: &mut Vec<RxSkb>,
    ) -> bool {
        // Find this flow's slot.
        if let Some(idx) = self.table.iter().position(|s| s.flow == skb.flow) {
            let slot = &mut self.table[idx];
            return match slot.try_merge(skb, max_aggregate) {
                Ok(spare) => {
                    pool.put(spare);
                    self.merged += 1;
                    if self.table[idx].len >= max_aggregate {
                        self.flushed += 1;
                        out.push(self.table.remove(idx));
                    }
                    true
                }
                Err(skb) => {
                    // Gap or size overflow: flush the old aggregate, start
                    // a new one.
                    self.flushed += 1;
                    out.push(std::mem::replace(&mut self.table[idx], skb));
                    false
                }
            };
        }
        // New flow: claim a slot, evicting the oldest on overflow.
        if self.table.len() == GRO_TABLE_SLOTS {
            self.flushed += 1;
            out.push(self.table.remove(0));
        }
        self.table.push(skb);
        false
    }

    /// End of NAPI poll: flush everything into `out`.
    pub fn flush_all_into(&mut self, out: &mut Vec<RxSkb>) {
        self.flushed += self.table.len() as u64;
        out.append(&mut self.table);
    }

    /// Aggregates currently held.
    pub fn pending(&self) -> usize {
        self.table.len()
    }

    /// Total frames referenced by held aggregates (the audit ledger's view
    /// of what GRO owns).
    pub fn held_frags(&self) -> u64 {
        self.table.iter().map(|s| s.frags.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hns_mem::FrameArena;
    use hns_sim::SimTime;

    /// A GRO engine with what the softirq hands it: a frame arena for the
    /// receive skbs and a frag pool.
    #[derive(Default)]
    struct Rig {
        arena: FrameArena,
        pool: FragPool,
        gro: GroEngine,
    }

    impl Rig {
        fn skb(&mut self, flow: FlowId, seq: u64, len: u32) -> RxSkb {
            let f = self.arena.insert(len, 0);
            let pool = &mut self.pool;
            RxSkb::from_frame_pooled(pool, flow, seq, len, f, SimTime::ZERO, false, false)
        }

        /// Offer one frame under a 64 KiB cap; returns what it flushed.
        fn offer(&mut self, flow: FlowId, seq: u64, len: u32) -> Vec<RxSkb> {
            let skb = self.skb(flow, seq, len);
            let mut out = Vec::new();
            self.gro.offer_into(skb, 65536, &mut self.pool, &mut out);
            out
        }

        fn flush(&mut self) -> Vec<RxSkb> {
            let mut out = Vec::new();
            self.gro.flush_all_into(&mut out);
            out
        }
    }

    #[test]
    fn contiguous_frames_aggregate() {
        let mut rig = Rig::default();
        let mut out = Vec::new();
        for i in 0..4 {
            let skb = rig.skb(1, i * 9000, 9000);
            let absorbed = rig.gro.offer_into(skb, 65536, &mut rig.pool, &mut out);
            assert_eq!(absorbed, i > 0, "every frame after the head merges");
            assert!(out.is_empty());
        }
        let out = rig.flush();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len, 36_000);
        assert_eq!(out[0].frags.len(), 4);
        assert_eq!(rig.gro.merged, 3);
    }

    #[test]
    fn flush_at_64kb() {
        let mut rig = Rig::default();
        let mut flushed = Vec::new();
        // 8 × 9000B = 72KB > 64KB: the 8th frame can't fit (64800 > 65536?
        // no: 7×9000=63000, +9000 = 72000 > 65536 → flush at 8th offer).
        for i in 0..8 {
            flushed.extend(rig.offer(1, i * 9000, 9000));
        }
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].len, 63_000);
        // The 8th frame started a new aggregate.
        assert_eq!(rig.gro.pending(), 1);
    }

    #[test]
    fn gap_flushes_aggregate() {
        let mut rig = Rig::default();
        rig.offer(1, 0, 9000);
        rig.offer(1, 9000, 9000);
        // Loss: next frame skips 9000 bytes.
        let flushed = rig.offer(1, 27_000, 9000);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].len, 18_000);
        assert_eq!(rig.gro.pending(), 1);
    }

    #[test]
    fn flows_aggregate_independently() {
        let mut rig = Rig::default();
        for i in 0..3 {
            assert!(rig.offer(1, i * 1500, 1500).is_empty());
            assert!(rig.offer(2, i * 1500, 1500).is_empty());
        }
        let mut out = rig.flush();
        out.sort_by_key(|s| s.flow);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|s| s.len == 4500));
    }

    #[test]
    fn table_overflow_evicts_oldest() {
        let mut rig = Rig::default();
        for flow in 0..GRO_TABLE_SLOTS as u64 {
            assert!(rig.offer(flow, 0, 1500).is_empty());
        }
        // Ninth distinct flow evicts flow 0's aggregate.
        let flushed = rig.offer(99, 0, 1500);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].flow, 0);
    }

    #[test]
    fn many_interleaved_flows_shrink_aggregates() {
        // The §3.5 effect in miniature: interleave 24 flows round-robin and
        // observe that per-flow aggregates stay small within a poll.
        let mut rig = Rig::default();
        let mut sizes = Vec::new();
        let mut next_seq = [0u64; 24];
        for round in 0..48 {
            let flow = (round % 24) as u64;
            let seq = next_seq[flow as usize];
            next_seq[flow as usize] += 9000;
            sizes.extend(rig.offer(flow, seq, 9000).into_iter().map(|s| s.len));
        }
        sizes.extend(rig.flush().into_iter().map(|s| s.len));
        let avg = sizes.iter().map(|&l| l as u64).sum::<u64>() / sizes.len() as u64;
        assert!(
            avg <= 2 * 9000,
            "interleaving should cap aggregates near frame size, avg {avg}"
        );
    }
}
