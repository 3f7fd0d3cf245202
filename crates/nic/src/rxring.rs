//! Rx descriptor ring.
//!
//! The NIC owns a configurable number of Rx descriptors, each pointing at
//! one MTU-sized DMA buffer. An arriving frame consumes a descriptor; if
//! none are available the frame is dropped on the floor (counted — these
//! show up as ring drops in reports). The driver replenishes descriptors
//! from the page pool during NAPI polling, which is also the moment the
//! IOMMU map cost is charged (§3.9).
//!
//! The *number* of descriptors is a first-order knob in the paper: Fig. 3e
//! sweeps it from 128 to 4096 and finds large rings hurt DCA hit rates
//! (the descriptor-pool footprint drives [`hns_mem::DcaCache`]'s conflict
//! model).

/// Rx descriptor accounting for one NIC.
#[derive(Debug)]
pub struct RxRing {
    capacity: u32,
    available: u32,
    /// Descriptors taken out of service by fault injection; returned by
    /// [`RxRing::restore`].
    withheld: u32,
    faulted: bool,
    /// Frames dropped for want of a descriptor.
    pub drops: u64,
    /// Frames successfully received.
    pub received: u64,
}

impl RxRing {
    /// Ring with `capacity` descriptors, initially fully stocked.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "ring needs at least one descriptor");
        RxRing {
            capacity,
            available: capacity,
            withheld: 0,
            faulted: false,
            drops: 0,
            received: 0,
        }
    }

    /// Total descriptors.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Descriptors currently ready for DMA.
    pub fn available(&self) -> u32 {
        self.available
    }

    /// Descriptors held out of service by fault injection.
    pub fn withheld(&self) -> u32 {
        self.withheld
    }

    /// True while fault injection holds this ring's descriptors hostage.
    pub fn faulted(&self) -> bool {
        self.faulted
    }

    /// Fault injection: pull every free descriptor out of service so
    /// arriving frames drop at the NIC. Replenishes during the fault are
    /// withheld too; [`RxRing::restore`] returns everything at once.
    pub fn force_exhaust(&mut self) {
        self.faulted = true;
        self.withheld += self.available;
        self.available = 0;
    }

    /// End of an injected exhaustion window: withheld descriptors go back
    /// into service.
    pub fn restore(&mut self) {
        self.faulted = false;
        self.available += self.withheld;
        self.withheld = 0;
    }

    /// A frame arrived: consume one descriptor. Returns `false` (and counts
    /// a drop) when the ring is empty.
    pub fn try_receive(&mut self) -> bool {
        if self.available == 0 {
            self.drops += 1;
            return false;
        }
        self.available -= 1;
        self.received += 1;
        true
    }

    /// Driver replenishes up to `n` descriptors (NAPI refill). Returns how
    /// many were actually added — the caller charges page-allocation and
    /// IOMMU-map costs for exactly that many buffers. While an injected
    /// exhaustion fault is active the descriptors are withheld instead of
    /// entering service.
    pub fn replenish(&mut self, n: u32) -> u32 {
        let add = n.min(self.capacity - self.available - self.withheld);
        if self.faulted {
            self.withheld += add;
        } else {
            self.available += add;
        }
        add
    }

    /// Undo (part of) a replenish that could not be backed by pages: take
    /// up to `n` descriptors back out of the ring. Returns how many were
    /// actually removed; the caller tracks them as a deficit to repay.
    pub fn unreplenish(&mut self, n: u32) -> u32 {
        let pool = if self.faulted {
            &mut self.withheld
        } else {
            &mut self.available
        };
        let take = n.min(*pool);
        *pool -= take;
        take
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_and_replenish() {
        let mut r = RxRing::new(4);
        assert!(r.try_receive());
        assert!(r.try_receive());
        assert_eq!(r.available(), 2);
        assert_eq!(r.replenish(10), 2, "cannot overfill");
        assert_eq!(r.available(), 4);
    }

    #[test]
    fn empty_ring_drops() {
        let mut r = RxRing::new(2);
        assert!(r.try_receive());
        assert!(r.try_receive());
        assert!(!r.try_receive());
        assert!(!r.try_receive());
        assert_eq!(r.drops, 2);
        assert_eq!(r.received, 2);
    }

    #[test]
    fn partial_replenish() {
        let mut r = RxRing::new(8);
        for _ in 0..6 {
            r.try_receive();
        }
        assert_eq!(r.replenish(3), 3);
        assert_eq!(r.available(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_rejected() {
        RxRing::new(0);
    }

    #[test]
    fn force_exhaust_and_restore() {
        let mut r = RxRing::new(4);
        assert!(r.try_receive());
        r.force_exhaust();
        assert!(r.faulted());
        assert_eq!(r.available(), 0);
        assert!(!r.try_receive(), "exhausted ring drops");
        // Replenishes during the fault are withheld, not served.
        assert_eq!(r.replenish(1), 1);
        assert!(!r.try_receive());
        r.restore();
        assert!(!r.faulted());
        assert_eq!(r.available(), 4, "all descriptors back in service");
        assert!(r.try_receive());
        assert_eq!(r.drops, 2);
    }

    #[test]
    fn unreplenish_takes_back_descriptors() {
        let mut r = RxRing::new(8);
        for _ in 0..6 {
            r.try_receive();
        }
        assert_eq!(r.replenish(4), 4);
        assert_eq!(r.unreplenish(4), 4);
        assert_eq!(r.available(), 2);
        // Cannot take back more than what's in service.
        assert_eq!(r.unreplenish(100), 2);
        assert_eq!(r.available(), 0);
        assert_eq!(r.replenish(100), 8, "every descriptor awaits replenishment");
    }
}
