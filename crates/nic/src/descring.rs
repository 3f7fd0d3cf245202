//! Descriptor-ring model shared by the TOE and kernel-bypass datapaths.
//!
//! Both offload architectures replace the in-kernel skb pipeline with a
//! producer/consumer ring of DMA descriptors: the host *posts* work (Tx
//! payload descriptors, or Rx buffer credits), the NIC *completes* them,
//! and the host later *harvests* the completions — from an interrupt-driven
//! completion queue under TOE, or by busy-polling under bypass. The paper's
//! point is that once protocol work moves on-NIC, descriptor bookkeeping is
//! one of the only host costs left, so this model is where those cycles are
//! metered.
//!
//! The ring is modeled with three monotonically increasing counters rather
//! than physical slot state, which makes the conservation invariants
//! directly checkable:
//!
//! * `harvested ≤ completed ≤ posted` — a descriptor is never completed
//!   before it is posted, never harvested before it is completed;
//! * `posted − harvested ≤ capacity` — the producer can never overwrite a
//!   slot whose completion has not been reaped.
//!
//! Descriptor ids are the monotone post counter; the physical slot is
//! `id % capacity`, so wraparound is exercised by construction once more
//! than `capacity` descriptors have flowed through.

/// Bounded single-producer/single-consumer descriptor ring.
#[derive(Clone, Debug)]
pub struct DescRing {
    cap: u64,
    posted: u64,
    completed: u64,
    harvested: u64,
}

impl DescRing {
    /// New ring with `cap` slots. `cap` must be non-zero.
    pub fn new(cap: u64) -> Self {
        assert!(cap > 0, "descriptor ring needs at least one slot");
        DescRing {
            cap,
            posted: 0,
            completed: 0,
            harvested: 0,
        }
    }

    /// Total descriptors ever posted.
    pub fn posted(&self) -> u64 {
        self.posted
    }

    /// Total descriptors ever completed by the device.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Total completions ever harvested by the host.
    pub fn harvested(&self) -> u64 {
        self.harvested
    }

    /// Descriptors posted but not yet completed (owned by the device).
    pub fn in_flight(&self) -> u64 {
        self.posted - self.completed
    }

    /// Completions waiting to be harvested.
    pub fn unharvested(&self) -> u64 {
        self.completed - self.harvested
    }

    /// Slots currently free for posting.
    pub fn free_slots(&self) -> u64 {
        self.cap - (self.posted - self.harvested)
    }

    /// Post one descriptor. Returns its id, or `None` if every slot is
    /// occupied by an unharvested descriptor.
    pub fn try_post(&mut self) -> Option<u64> {
        if self.free_slots() == 0 {
            return None;
        }
        let id = self.posted;
        self.posted += 1;
        self.assert_invariants();
        Some(id)
    }

    /// Device completes up to `n` in-flight descriptors, in post order.
    /// Returns how many were completed.
    pub fn complete(&mut self, n: u64) -> u64 {
        let done = n.min(self.in_flight());
        self.completed += done;
        self.assert_invariants();
        done
    }

    /// Host harvests up to `max` pending completions, freeing their
    /// slots. Returns how many were harvested.
    pub fn harvest(&mut self, max: u64) -> u64 {
        let reaped = max.min(self.unharvested());
        self.harvested += reaped;
        self.assert_invariants();
        reaped
    }

    /// The conservation invariants, as a checkable predicate (the property
    /// suite calls this after every operation).
    pub fn invariants_hold(&self) -> bool {
        self.harvested <= self.completed
            && self.completed <= self.posted
            && self.posted - self.harvested <= self.cap
    }

    fn assert_invariants(&self) {
        debug_assert!(
            self.invariants_hold(),
            "descriptor ring invariant broken: {self:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_complete_harvest_cycle() {
        let mut r = DescRing::new(4);
        let a = r.try_post().unwrap();
        let b = r.try_post().unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(r.in_flight(), 2);
        assert_eq!(r.complete(10), 2);
        assert_eq!(r.unharvested(), 2);
        assert_eq!(r.harvest(1), 1);
        assert_eq!(r.harvest(10), 1);
        assert_eq!(r.free_slots(), 4);
    }

    #[test]
    fn full_ring_rejects_posts_until_harvest() {
        let mut r = DescRing::new(2);
        assert!(r.try_post().is_some());
        assert!(r.try_post().is_some());
        assert!(r.try_post().is_none(), "ring full");
        r.complete(2);
        assert!(r.try_post().is_none(), "completion alone frees nothing");
        r.harvest(1);
        assert!(r.try_post().is_some());
        assert!(r.try_post().is_none());
    }

    #[test]
    fn slots_wrap_around() {
        let mut r = DescRing::new(3);
        for round in 0..5u64 {
            for i in 0..3u64 {
                let id = r.try_post().unwrap();
                assert_eq!(id, round * 3 + i);
            }
            r.complete(3);
            r.harvest(3);
        }
        assert_eq!(r.posted(), 15);
        assert_eq!(r.harvested(), 15);
    }
}
