//! Socket buffers (skbs).
//!
//! An skb is pure metadata: it references payload bytes by byte-range and,
//! on the receive side, by the DMA frames ([`hns_mem::FrameId`]) that hold
//! them. This mirrors the kernel: "all other operations within the kernel
//! are performed using metadata and pointer manipulations on skbs, and do
//! not require data copy" (§2.1).

use hns_mem::FrameId;
use hns_proto::FlowId;
use hns_sim::SimTime;

/// Maximum fragments one skb can hold (Linux `MAX_SKB_FRAGS`). This is why
/// jumbo frames help GRO even though GRO already aggregates: a 64KB
/// aggregate needs 8 jumbo frags but would need 45 standard-MTU frags —
/// far over the limit — so at 1500B MTU aggregates cap out near 24KB.
pub const MAX_SKB_FRAGS: usize = 17;

/// Most retained frag vectors the pool will hold. Steady state needs one
/// per in-flight skb (GRO table + socket queues); the cap only bounds the
/// worst case after a queue-depth spike.
const FRAG_POOL_CAP: usize = 4096;

/// Freelist of frag vectors, the skb allocation cache.
///
/// Every received data frame builds an [`RxSkb`] whose only heap
/// allocation is its `frags` vector; at line rate that is one allocation
/// and one free per frame. The pool recycles the vectors instead —
/// [`FragPool::get`] hands back a cleared vector with its capacity intact
/// (grown once to [`MAX_SKB_FRAGS`] and never again), and consumed skbs
/// return theirs via [`FragPool::put`]. The world owns one pool per run,
/// so recycling is deterministic and free of synchronization.
#[derive(Debug, Default)]
pub struct FragPool {
    free: Vec<Vec<FrameId>>,
}

impl FragPool {
    /// Empty pool.
    pub fn new() -> Self {
        FragPool::default()
    }

    /// A cleared frag vector, recycled when one is available.
    pub fn get(&mut self) -> Vec<FrameId> {
        self.free
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(MAX_SKB_FRAGS))
    }

    /// Return a vector to the pool (dropped if the pool is full).
    pub fn put(&mut self, mut v: Vec<FrameId>) {
        if self.free.len() < FRAG_POOL_CAP {
            v.clear();
            self.free.push(v);
        }
    }

    /// Vectors currently cached (introspection for tests/benches).
    pub fn cached(&self) -> usize {
        self.free.len()
    }
}

/// A receive-side skb, possibly GRO-aggregated from multiple frames.
#[derive(Clone, Debug)]
pub struct RxSkb {
    /// Owning flow.
    pub flow: FlowId,
    /// Stream offset of the first payload byte.
    pub seq: u64,
    /// Total payload bytes.
    pub len: u32,
    /// DMA frames backing the payload, in order.
    pub frags: Vec<FrameId>,
    /// NAPI processing timestamp of the *first* frame (paper Fig. 3f
    /// measures NAPI→start-of-copy from this).
    pub napi_ts: SimTime,
    /// ECN CE seen on any constituent frame.
    pub ce: bool,
    /// Any constituent frame was a retransmission (for accounting).
    pub retransmit: bool,
    /// Lifecycle-trace id inherited from the wire frame
    /// ([`hns_proto::segment::NO_TRACE`] when untraced). A GRO merge keeps
    /// the head's id; merged frames' timelines end at their GRO stamp.
    pub trace: u64,
}

impl RxSkb {
    /// Single-frame skb as NAPI polling builds it before GRO, its frag
    /// vector recycled from `pool` (nothing allocates once it is warm).
    #[allow(clippy::too_many_arguments)]
    pub fn from_frame_pooled(
        pool: &mut FragPool,
        flow: FlowId,
        seq: u64,
        len: u32,
        frame: FrameId,
        napi_ts: SimTime,
        ce: bool,
        retransmit: bool,
    ) -> Self {
        let mut frags = pool.get();
        frags.push(frame);
        RxSkb {
            flow,
            seq,
            len,
            frags,
            napi_ts,
            ce,
            retransmit,
            trace: hns_proto::segment::NO_TRACE,
        }
    }

    /// Stream offset one past the last byte.
    pub fn end(&self) -> u64 {
        self.seq + self.len as u64
    }

    /// Try to append `other` (must be the immediately following bytes of
    /// the same flow and fit under `max_len`). Returns `other` back on
    /// failure; on success returns `other`'s drained frag vector so the
    /// caller can recycle it into a [`FragPool`].
    pub fn try_merge(&mut self, mut other: RxSkb, max_len: u32) -> Result<Vec<FrameId>, RxSkb> {
        if other.flow != self.flow
            || other.seq != self.end()
            || self.len + other.len > max_len
            || self.frags.len() + other.frags.len() > MAX_SKB_FRAGS
        {
            return Err(other);
        }
        self.len += other.len;
        self.frags.append(&mut other.frags);
        self.ce |= other.ce;
        self.retransmit |= other.retransmit;
        Ok(other.frags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skb(flow: FlowId, seq: u64, len: u32) -> RxSkb {
        // Frame ids need an arena in real use; tests fabricate them.
        let mut arena = hns_mem::FrameArena::new();
        let f = arena.insert(len, 0);
        frame_skb(flow, seq, len, f, false)
    }

    /// A single-frame skb from a fresh pool.
    fn frame_skb(flow: FlowId, seq: u64, len: u32, frame: FrameId, flags: bool) -> RxSkb {
        let mut pool = FragPool::new();
        RxSkb::from_frame_pooled(
            &mut pool,
            flow,
            seq,
            len,
            frame,
            SimTime::ZERO,
            flags,
            flags,
        )
    }

    #[test]
    fn merge_contiguous_same_flow() {
        let mut a = skb(1, 0, 9000);
        let b = skb(1, 9000, 9000);
        assert!(a.try_merge(b, 65536).is_ok());
        assert_eq!(a.len, 18000);
        assert_eq!(a.end(), 18000);
        assert_eq!(a.frags.len(), 2);
    }

    #[test]
    fn merge_rejects_gap() {
        let mut a = skb(1, 0, 9000);
        let b = skb(1, 18000, 9000);
        assert!(a.try_merge(b, 65536).is_err());
        assert_eq!(a.len, 9000);
    }

    #[test]
    fn merge_rejects_other_flow() {
        let mut a = skb(1, 0, 9000);
        let b = skb(2, 9000, 9000);
        assert!(a.try_merge(b, 65536).is_err());
    }

    #[test]
    fn merge_respects_frag_limit() {
        let mut arena = hns_mem::FrameArena::new();
        let f = arena.insert(1448, 0);
        let mut a = frame_skb(1, 0, 1448, f, false);
        for i in 1..MAX_SKB_FRAGS as u64 {
            let g = arena.insert(1448, 0);
            let b = frame_skb(1, i * 1448, 1448, g, false);
            assert!(a.try_merge(b, 65536).is_ok(), "frag {i} should fit");
        }
        let g = arena.insert(1448, 0);
        let b = frame_skb(1, MAX_SKB_FRAGS as u64 * 1448, 1448, g, false);
        assert!(a.try_merge(b, 65536).is_err(), "18th frag must be rejected");
        assert_eq!(a.frags.len(), MAX_SKB_FRAGS);
    }

    #[test]
    fn merge_respects_cap() {
        let mut a = skb(1, 0, 60_000);
        let b = skb(1, 60_000, 9_000);
        assert!(a.try_merge(b, 65_536).is_err(), "would exceed 64KB");
    }

    #[test]
    fn merge_returns_recyclable_vec() {
        let mut a = skb(1, 0, 9000);
        let b = skb(1, 9000, 9000);
        let spare = a.try_merge(b, 65536).unwrap();
        assert!(spare.is_empty(), "merged skb's vec comes back drained");
        assert!(spare.capacity() >= 1, "capacity survives for reuse");
    }

    #[test]
    fn frag_pool_recycles_capacity() {
        let mut pool = FragPool::new();
        let mut v = pool.get();
        assert_eq!(v.capacity(), MAX_SKB_FRAGS);
        let mut arena = hns_mem::FrameArena::new();
        v.push(arena.insert(100, 0));
        let cap = v.capacity();
        pool.put(v);
        assert_eq!(pool.cached(), 1);
        let v2 = pool.get();
        assert!(v2.is_empty(), "recycled vectors come back cleared");
        assert_eq!(v2.capacity(), cap);
        assert_eq!(pool.cached(), 0);
    }

    #[test]
    fn pooled_skb_holds_its_one_frame() {
        let mut arena = hns_mem::FrameArena::new();
        let (f, g) = (arena.insert(9000, 0), arena.insert(100, 0));
        let mut pool = FragPool::new();
        let mut used = pool.get();
        used.push(g);
        pool.put(used);
        let b = RxSkb::from_frame_pooled(&mut pool, 1, 0, 9000, f, SimTime::ZERO, false, false);
        assert_eq!(b.flow, 1);
        assert_eq!(b.seq, 0);
        assert_eq!(b.len, 9000);
        assert_eq!(b.frags, vec![f], "a recycled vector comes back cleared");
        assert_eq!(pool.cached(), 0);
    }

    #[test]
    fn merge_propagates_flags() {
        let mut arena = hns_mem::FrameArena::new();
        let f1 = arena.insert(100, 0);
        let f2 = arena.insert(100, 0);
        let mut a = frame_skb(1, 0, 100, f1, false);
        let b = frame_skb(1, 100, 100, f2, true);
        a.try_merge(b, 65536).unwrap();
        assert!(a.ce);
        assert!(a.retransmit);
    }
}
