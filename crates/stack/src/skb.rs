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
/// Every received data frame that starts a GRO aggregate (or skips GRO)
/// builds an [`RxSkb`] whose only heap allocation is its `frags` vector;
/// at line rate that is one allocation and one free per skb. The pool
/// recycles the vectors instead — [`FragPool::get`] hands back a cleared
/// vector with its capacity intact (grown once to [`MAX_SKB_FRAGS`] and
/// never again), and consumed skbs return theirs via [`FragPool::put`]. The world owns one pool per run,
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

    /// Vectors currently cached.
    #[cfg(test)]
    pub(crate) fn cached(&self) -> usize {
        self.free.len()
    }
}

/// One polled data frame as the NAPI poll hands it to GRO, before any skb
/// exists. Only a frame that starts an aggregate (or that TCP/IP receives
/// without GRO) becomes an [`RxSkb`]; one that merges is appended to its
/// flow's aggregate in place ([`crate::gro::GroEngine::offer_frame`]).
#[derive(Clone, Copy, Debug)]
pub struct RxFrame {
    /// Owning flow.
    pub flow: FlowId,
    /// Stream offset of the first payload byte.
    pub seq: u64,
    /// Payload bytes.
    pub len: u32,
    /// DMA frame holding the payload.
    pub frame: FrameId,
    /// NAPI processing timestamp.
    pub napi_ts: SimTime,
    /// ECN CE mark.
    pub ce: bool,
    /// A retransmission (for accounting).
    pub retransmit: bool,
    /// Lifecycle-trace id ([`hns_proto::segment::NO_TRACE`] when untraced).
    pub trace: u64,
}

impl RxFrame {
    /// The single-frame skb this frame builds, its frag vector recycled
    /// from `pool` (nothing allocates once the pool is warm).
    pub fn into_skb(self, pool: &mut FragPool) -> RxSkb {
        let mut frags = pool.get();
        frags.push(self.frame);
        RxSkb {
            flow: self.flow,
            seq: self.seq,
            len: self.len,
            frags,
            napi_ts: self.napi_ts,
            ce: self.ce,
            retransmit: self.retransmit,
            trace: self.trace,
        }
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
    /// Untraced single-frame skb ([`RxFrame::into_skb`]), its frag vector
    /// recycled from `pool`.
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
        let trace = hns_proto::segment::NO_TRACE;
        RxFrame {
            flow,
            seq,
            len,
            frame,
            napi_ts,
            ce,
            retransmit,
            trace,
        }
        .into_skb(pool)
    }

    /// Stream offset one past the last byte.
    pub fn end(&self) -> u64 {
        self.seq + self.len as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(b.end(), 9000);
        assert_eq!(b.frags, vec![f], "a recycled vector comes back cleared");
        assert_eq!(b.trace, hns_proto::segment::NO_TRACE);
        assert_eq!(pool.cached(), 0);
    }

    #[test]
    fn frame_skb_keeps_the_frames_fields() {
        let mut arena = hns_mem::FrameArena::new();
        let f = arena.insert(1448, 0);
        let mut pool = FragPool::new();
        let skb = RxFrame {
            flow: 3,
            seq: 1448,
            len: 1448,
            frame: f,
            napi_ts: SimTime::from_nanos(7),
            ce: true,
            retransmit: true,
            trace: 42,
        }
        .into_skb(&mut pool);
        assert_eq!((skb.flow, skb.seq, skb.len), (3, 1448, 1448));
        assert_eq!(skb.frags, vec![f]);
        assert_eq!(skb.napi_ts, SimTime::from_nanos(7));
        assert!(skb.ce && skb.retransmit);
        assert_eq!(skb.trace, 42);
    }
}
