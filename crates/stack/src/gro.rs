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

use crate::skb::{FragPool, RxFrame, RxSkb, MAX_SKB_FRAGS};

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

    /// Offer one polled frame, appending any aggregate(s) flushed by this
    /// arrival to `out` (0, 1 or 2 — a gap flushes the old aggregate and
    /// an overflow may flush another). Returns true when the frame merged
    /// into its flow's aggregate: it carries the next bytes, the aggregate
    /// stays within `max_aggregate` bytes and [`MAX_SKB_FRAGS`] frags, and
    /// it is appended in place, so its own timeline ends here. Only a
    /// frame that starts an aggregate builds an skb, its frag vector taken
    /// from `pool`.
    pub fn offer_frame(
        &mut self,
        frame: RxFrame,
        max_aggregate: u32,
        pool: &mut FragPool,
        out: &mut Vec<RxSkb>,
    ) -> bool {
        // Find this flow's slot.
        if let Some(idx) = self.table.iter().position(|s| s.flow == frame.flow) {
            let agg = &mut self.table[idx];
            if frame.seq == agg.end()
                && agg.len + frame.len <= max_aggregate
                && agg.frags.len() < MAX_SKB_FRAGS
            {
                agg.len += frame.len;
                agg.frags.push(frame.frame);
                agg.ce |= frame.ce;
                agg.retransmit |= frame.retransmit;
                self.merged += 1;
                if agg.len >= max_aggregate {
                    self.flushed += 1;
                    out.push(self.table.remove(idx));
                }
                return true;
            }
            // Gap or size overflow: flush the old aggregate, start a new
            // one.
            self.flushed += 1;
            out.push(std::mem::replace(agg, frame.into_skb(pool)));
            return false;
        }
        // New flow: claim a slot, evicting the oldest on overflow.
        if self.table.len() == GRO_TABLE_SLOTS {
            self.flushed += 1;
            out.push(self.table.remove(0));
        }
        self.table.push(frame.into_skb(pool));
        false
    }

    /// [`GroEngine::offer_frame`] for a single-frame skb already built
    /// ([`RxSkb::from_frame_pooled`]): its frag vector goes back to `pool`
    /// and its frame is offered. The `stack.gro_offer_ns` probe of
    /// `hostbench` drives this entry; the world offers frames.
    pub fn offer_into(
        &mut self,
        skb: RxSkb,
        max_aggregate: u32,
        pool: &mut FragPool,
        out: &mut Vec<RxSkb>,
    ) -> bool {
        debug_assert_eq!(skb.frags.len(), 1, "offer_into takes an unmerged skb");
        let frame = RxFrame {
            flow: skb.flow,
            seq: skb.seq,
            len: skb.len,
            frame: skb.frags[0],
            napi_ts: skb.napi_ts,
            ce: skb.ce,
            retransmit: skb.retransmit,
            trace: skb.trace,
        };
        pool.put(skb.frags);
        self.offer_frame(frame, max_aggregate, pool, out)
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
    use hns_proto::FlowId;
    use hns_sim::SimTime;
    use proptest::prelude::*;

    /// A GRO engine with what the softirq hands it: a frame arena for the
    /// DMA buffers and a frag pool.
    #[derive(Default)]
    struct Rig {
        arena: FrameArena,
        pool: FragPool,
        gro: GroEngine,
    }

    impl Rig {
        fn frame(&mut self, flow: FlowId, seq: u64, len: u32) -> RxFrame {
            RxFrame {
                flow,
                seq,
                len,
                frame: self.arena.insert(len, 0),
                napi_ts: SimTime::ZERO,
                ce: false,
                retransmit: false,
                trace: hns_proto::segment::NO_TRACE,
            }
        }

        /// Offer one frame under a 64 KiB cap; returns what it flushed.
        fn offer(&mut self, flow: FlowId, seq: u64, len: u32) -> Vec<RxSkb> {
            let frame = self.frame(flow, seq, len);
            self.offer_frame(frame)
        }

        fn offer_frame(&mut self, frame: RxFrame) -> Vec<RxSkb> {
            let mut out = Vec::new();
            self.gro.offer_frame(frame, 65536, &mut self.pool, &mut out);
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
            let frame = rig.frame(1, i * 9000, 9000);
            let absorbed = rig.gro.offer_frame(frame, 65536, &mut rig.pool, &mut out);
            assert_eq!(absorbed, i > 0, "every frame after the head merges");
            assert!(out.is_empty());
        }
        let out = rig.flush();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len, 36_000);
        assert_eq!(out[0].end(), 36_000);
        assert_eq!(out[0].frags.len(), 4);
        assert_eq!(rig.gro.merged, 3);
    }

    #[test]
    fn flush_at_64kb() {
        let mut rig = Rig::default();
        let mut flushed = Vec::new();
        // 7 × 9000 = 63000 B fit under 64 KiB; the 8th frame would make
        // 72000 B, so it flushes the aggregate and starts the next.
        for i in 0..8 {
            flushed.extend(rig.offer(1, i * 9000, 9000));
        }
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].len, 63_000);
        // The 8th frame started a new aggregate.
        assert_eq!(rig.gro.pending(), 1);
    }

    #[test]
    fn cap_refuses_a_frame_that_would_overflow() {
        let mut rig = Rig::default();
        rig.offer(1, 0, 60_000);
        let flushed = rig.offer(1, 60_000, 9_000);
        assert_eq!(flushed.len(), 1, "60000 + 9000 B would exceed 64 KiB");
        assert_eq!(flushed[0].len, 60_000);
    }

    #[test]
    fn aggregate_reaching_the_cap_flushes_at_once() {
        let mut rig = Rig::default();
        rig.offer(1, 0, 65_536 - 1448);
        let flushed = rig.offer(1, 65_536 - 1448, 1448);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].len, 65_536);
        assert_eq!(rig.gro.pending(), 0);
        assert_eq!((rig.gro.merged, rig.gro.flushed), (1, 1));
    }

    #[test]
    fn seventeen_frags_cap_an_aggregate() {
        let mut rig = Rig::default();
        for i in 0..MAX_SKB_FRAGS as u64 {
            assert!(
                rig.offer(1, i * 1448, 1448).is_empty(),
                "frag {i} should fit"
            );
        }
        let flushed = rig.offer(1, MAX_SKB_FRAGS as u64 * 1448, 1448);
        assert_eq!(flushed.len(), 1, "the 18th frag must be refused");
        assert_eq!(flushed[0].frags.len(), MAX_SKB_FRAGS);
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
    fn flags_propagate_to_the_aggregate() {
        let mut rig = Rig::default();
        let head = rig.frame(1, 0, 100);
        rig.offer_frame(head);
        let mut tail = rig.frame(1, 100, 100);
        (tail.ce, tail.retransmit) = (true, true);
        rig.offer_frame(tail);
        let out = rig.flush();
        assert!(out[0].ce);
        assert!(out[0].retransmit);
    }

    #[test]
    fn merged_frames_build_no_skb() {
        let mut rig = Rig::default();
        rig.pool.put(Vec::with_capacity(MAX_SKB_FRAGS));
        rig.offer(1, 0, 9000);
        assert_eq!(rig.pool.cached(), 0, "the head takes the pooled vector");
        for i in 1..4 {
            rig.offer(1, i * 9000, 9000);
        }
        assert_eq!(rig.pool.cached(), 0, "a merge takes no vector");
        assert_eq!(rig.flush()[0].frags.len(), 4);
    }

    #[test]
    fn offered_skb_returns_its_vector() {
        let mut rig = Rig::default();
        let mut out = Vec::new();
        let f = rig.arena.insert(9000, 0);
        let skb =
            RxSkb::from_frame_pooled(&mut rig.pool, 1, 0, 9000, f, SimTime::ZERO, false, false);
        assert!(!rig.gro.offer_into(skb, 65536, &mut rig.pool, &mut out));
        let g = rig.arena.insert(9000, 0);
        let skb =
            RxSkb::from_frame_pooled(&mut rig.pool, 1, 9000, 9000, g, SimTime::ZERO, false, false);
        assert!(rig.gro.offer_into(skb, 65536, &mut rig.pool, &mut out));
        assert_eq!(rig.pool.cached(), 1, "the merged skb's vector is recycled");
        let out = rig.flush();
        assert_eq!(out[0].frags, vec![f, g]);
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

    /// The skb-merge GRO that [`GroEngine::offer_frame`] replaced, kept as
    /// its oracle: every frame builds a single-frame skb, and a merge
    /// appends that skb to its flow's aggregate and discards it.
    #[derive(Default)]
    struct SkbGro {
        table: Vec<RxSkb>,
        flushed: u64,
        merged: u64,
    }

    /// The old `RxSkb::try_merge`: append `other` when it holds the next
    /// bytes of the same flow and fits under `max_len` and the frag cap.
    fn try_merge(agg: &mut RxSkb, mut other: RxSkb, max_len: u32) -> Result<(), RxSkb> {
        if other.flow != agg.flow
            || other.seq != agg.end()
            || agg.len + other.len > max_len
            || agg.frags.len() + other.frags.len() > MAX_SKB_FRAGS
        {
            return Err(other);
        }
        agg.len += other.len;
        agg.frags.append(&mut other.frags);
        agg.ce |= other.ce;
        agg.retransmit |= other.retransmit;
        Ok(())
    }

    impl SkbGro {
        fn offer(&mut self, skb: RxSkb, max: u32, out: &mut Vec<RxSkb>) -> bool {
            if let Some(idx) = self.table.iter().position(|s| s.flow == skb.flow) {
                return match try_merge(&mut self.table[idx], skb, max) {
                    Ok(()) => {
                        self.merged += 1;
                        if self.table[idx].len >= max {
                            self.flushed += 1;
                            out.push(self.table.remove(idx));
                        }
                        true
                    }
                    Err(skb) => {
                        self.flushed += 1;
                        out.push(std::mem::replace(&mut self.table[idx], skb));
                        false
                    }
                };
            }
            if self.table.len() == GRO_TABLE_SLOTS {
                self.flushed += 1;
                out.push(self.table.remove(0));
            }
            self.table.push(skb);
            false
        }

        fn flush_all_into(&mut self, out: &mut Vec<RxSkb>) {
            self.flushed += self.table.len() as u64;
            out.append(&mut self.table);
        }
    }

    /// Every field of a flushed skb.
    type SkbKey = (
        FlowId,
        u64,
        u32,
        Vec<hns_mem::FrameId>,
        SimTime,
        bool,
        bool,
        u64,
    );

    fn key(s: &RxSkb) -> SkbKey {
        let frags = s.frags.clone();
        (
            s.flow,
            s.seq,
            s.len,
            frags,
            s.napi_ts,
            s.ce,
            s.retransmit,
            s.trace,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Streams over up to 9 flows (so the 8-slot table evicts) with
        /// gaps, rewinds, CE and retransmit flags, and 1500 B and 9000 B
        /// frames that reach the 17-frag and 64 KiB caps: the frame API
        /// flushes the same skbs, in the same order, with the same counts,
        /// as the skb-merge rule.
        #[test]
        fn frame_offers_match_the_skb_merge_rule(
            steps in proptest::collection::vec((0u64..16, 0u32..24, 0u32..8), 1..600),
            jumbo in any::<bool>(),
        ) {
            let mtu_len = if jumbo { 8948 } else { 1448 };
            let max = hns_nic::MAX_AGGREGATE;
            let mut arena = FrameArena::new();
            let (mut pool, mut gro, mut oracle) = (FragPool::new(), GroEngine::new(), SkbGro::default());
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut next_seq = [0u64; 9];
            for (i, &(draw, shape, flags)) in steps.iter().enumerate() {
                // Half the frames are flow 0's, so its aggregates grow to
                // the caps; flows 1..=8 crowd the table.
                let flow = draw.saturating_sub(7);
                if shape == 0 {
                    // End of a NAPI poll.
                    gro.flush_all_into(&mut got);
                    oracle.flush_all_into(&mut want);
                    continue;
                }
                let len = match shape {
                    1 => 1 + flags * 97,
                    2 => mtu_len / 2,
                    _ => mtu_len,
                };
                let seq = &mut next_seq[flow as usize];
                match shape {
                    3 => *seq += mtu_len as u64,         // a lost frame: gap
                    4 => *seq = seq.saturating_sub(mtu_len as u64), // a resend
                    _ => {}
                }
                let frame = RxFrame {
                    flow,
                    seq: *seq,
                    len,
                    frame: arena.insert(len, 0),
                    napi_ts: SimTime::from_nanos(i as u64),
                    ce: flags & 1 != 0 && shape % 5 == 0,
                    retransmit: flags & 2 != 0 && shape % 7 == 0,
                    trace: i as u64,
                };
                *seq += len as u64;
                let skb = RxSkb { trace: frame.trace, ..RxSkb::from_frame_pooled(
                    &mut pool, flow, frame.seq, len, frame.frame, frame.napi_ts, frame.ce, frame.retransmit,
                ) };
                let absorbed = gro.offer_frame(frame, max, &mut pool, &mut got);
                prop_assert_eq!(absorbed, oracle.offer(skb, max, &mut want));
            }
            gro.flush_all_into(&mut got);
            oracle.flush_all_into(&mut want);
            prop_assert_eq!(got.iter().map(key).collect::<Vec<_>>(), want.iter().map(key).collect::<Vec<_>>());
            prop_assert_eq!((gro.merged, gro.flushed), (oracle.merged, oracle.flushed));
        }
    }
}
