//! Kernel page allocator with per-core pagesets.
//!
//! The Linux page allocator keeps a per-CPU list of free pages (the
//! "pageset" / pcp list). Allocations served from the pageset are cheap;
//! when it runs dry the allocator must take the zone lock and pull a batch
//! from the global free list — much more expensive. Frees are likewise
//! cheap until the pageset hits its high watermark, at which point a batch
//! is drained back.
//!
//! §3.2 of the paper leans on these dynamics: at link saturation each core
//! serves less traffic, the socket queue stays shallow, pages recycle back
//! to the pageset before it empties, and memory-management overhead *drops*.
//! This model reproduces that: the number of pages "in flight" between NAPI
//! allocation and post-copy free determines how often the pcp under/overflows.

use crate::numa::CoreId;

/// Outcome of an allocation or free, used by the cost model to charge
/// cheap (pcp hit) vs expensive (global list) cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocOutcome {
    /// Pages served by the per-core pageset (cheap path).
    pub fast_pages: u64,
    /// Pages that required the global free list (zone lock, batch refill).
    pub slow_pages: u64,
}

#[derive(Clone, Copy, Debug)]
struct Pcp {
    /// Free pages currently cached on this core.
    free: u64,
    /// High watermark: frees beyond this drain a batch to the global list.
    high: u64,
    /// Refill batch size when the pageset runs dry.
    batch: u64,
}

/// Per-core pagesets over an (unbounded) global free list.
///
/// The global list is modeled as infinite — the paper's hosts have 256GB of
/// RAM and never approach OOM; what matters is the *cost asymmetry* between
/// pcp hits and global refills, not global exhaustion.
#[derive(Debug)]
pub struct PageAllocator {
    pcps: Vec<Pcp>,
    /// Fault injection: while set, [`PageAllocator::try_alloc`] refuses
    /// every request (allocator under pressure / reclaim stall).
    failing: bool,
}

/// Linux defaults: pcp batch is 63 pages on large machines; high watermark
/// a few batches. We use round numbers of the same magnitude.
const PCP_HIGH: u64 = 384;
const PCP_BATCH: u64 = 64;

impl PageAllocator {
    /// Build pagesets for `cores` cores.
    pub fn new(cores: u16) -> Self {
        PageAllocator {
            pcps: (0..cores)
                .map(|_| Pcp {
                    free: PCP_HIGH / 2,
                    high: PCP_HIGH,
                    batch: PCP_BATCH,
                })
                .collect(),
            failing: false,
        }
    }

    /// Toggle injected allocation failure (pool-pressure fault window).
    pub fn set_failing(&mut self, failing: bool) {
        self.failing = failing;
    }

    /// True while injected allocation failure is active.
    pub fn failing(&self) -> bool {
        self.failing
    }

    /// Fallible allocation: `None` while an injected failure window is
    /// active (the caller must cope — e.g. leave Rx descriptors unbacked),
    /// otherwise identical to [`PageAllocator::alloc`].
    pub fn try_alloc(&mut self, core: CoreId, pages: u64) -> Option<AllocOutcome> {
        if self.failing {
            return None;
        }
        Some(self.alloc(core, pages))
    }

    /// Allocate `pages` pages on `core` (driver replenishing Rx descriptors,
    /// skb data allocation, …).
    pub fn alloc(&mut self, core: CoreId, pages: u64) -> AllocOutcome {
        let pcp = &mut self.pcps[core as usize];
        let fast = pages.min(pcp.free);
        pcp.free -= fast;
        let mut slow = 0;
        let mut remaining = pages - fast;
        while remaining > 0 {
            // Refill a batch from the global list; the batch beyond what we
            // consume stays in the pageset.
            let take = remaining.min(pcp.batch);
            slow += take;
            remaining -= take;
            if remaining == 0 {
                pcp.free += pcp.batch - take;
            }
        }
        AllocOutcome {
            fast_pages: fast,
            slow_pages: slow,
        }
    }

    /// Free `pages` pages on `core`. `local` is true when the pages belong
    /// to this core's NUMA node; remote frees always take the slow path
    /// (they cannot enter this core's pageset) — this is the §3.1 point that
    /// "page free operations to local NUMA memory are significantly cheaper
    /// than those for remote NUMA memory".
    pub fn free(&mut self, core: CoreId, pages: u64, local: bool) -> AllocOutcome {
        if !local {
            return AllocOutcome {
                fast_pages: 0,
                slow_pages: pages,
            };
        }
        let pcp = &mut self.pcps[core as usize];
        let room = pcp.high.saturating_sub(pcp.free);
        let fast = pages.min(room);
        pcp.free += fast;
        let slow = pages - fast;
        if slow > 0 {
            // Drain a batch back to the global list so the pageset has room
            // again (mirrors Linux's free_pcppages_bulk).
            pcp.free = pcp.high.saturating_sub(pcp.batch);
        }
        AllocOutcome {
            fast_pages: fast,
            slow_pages: slow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_fast_until_dry() {
        let mut pa = PageAllocator::new(1);
        let start = pa.pcps[0].free;
        let o = pa.alloc(0, start);
        assert_eq!(o.fast_pages, start);
        assert_eq!(o.slow_pages, 0);
        // Next allocation must hit the global list.
        let o2 = pa.alloc(0, 10);
        assert_eq!(o2.slow_pages, 10);
        assert_eq!(o2.fast_pages, 0);
        // Refill batch left leftover pages in the pcp.
        assert_eq!(pa.pcps[0].free, PCP_BATCH - 10);
    }

    #[test]
    fn free_fast_until_high_watermark() {
        let mut pa = PageAllocator::new(1);
        let room = PCP_HIGH - pa.pcps[0].free;
        let o = pa.free(0, room, true);
        assert_eq!(o.fast_pages, room);
        assert_eq!(o.slow_pages, 0);
        // Pageset is now full: further frees drain.
        let o2 = pa.free(0, 5, true);
        assert_eq!(o2.slow_pages, 5);
        assert!(pa.pcps[0].free < PCP_HIGH);
    }

    #[test]
    fn remote_free_is_always_slow() {
        let mut pa = PageAllocator::new(2);
        let o = pa.free(0, 20, false);
        assert_eq!(o.fast_pages, 0);
        assert_eq!(o.slow_pages, 20);
    }

    #[test]
    fn steady_state_recycling_is_fast() {
        // Alloc/free in small balanced batches: after warmup everything is
        // pcp-hit — the saturation regime of §3.2.
        let mut pa = PageAllocator::new(1);
        let mut slow_total = 0;
        for _ in 0..1_000 {
            let a = pa.alloc(0, 16);
            let f = pa.free(0, 16, true);
            slow_total += a.slow_pages + f.slow_pages;
        }
        assert_eq!(slow_total, 0, "balanced recycling should never go global");
    }

    #[test]
    fn deep_in_flight_causes_global_traffic() {
        // Allocate a large burst (deep socket queue) before freeing: the
        // pageset underflows on alloc and overflows on the bulk free — the
        // high-rate regime of §3.2.
        let mut pa = PageAllocator::new(1);
        let a = pa.alloc(0, 2_000);
        assert!(a.slow_pages > 0);
        let f = pa.free(0, 2_000, true);
        assert!(f.slow_pages > 0);
    }

    #[test]
    fn injected_failure_window() {
        let mut pa = PageAllocator::new(1);
        assert!(pa.try_alloc(0, 4).is_some());
        pa.set_failing(true);
        assert!(pa.failing());
        assert!(pa.try_alloc(0, 4).is_none());
        // The infallible path is unaffected (used by non-fault call sites).
        let o = pa.alloc(0, 4);
        assert_eq!(o.fast_pages + o.slow_pages, 4);
        pa.set_failing(false);
        assert!(pa.try_alloc(0, 4).is_some());
    }
}
