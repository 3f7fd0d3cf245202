//! IOMMU model (§3.9).
//!
//! With the IOMMU enabled, DMA addresses are virtual: the NIC driver must
//! (1) insert every newly allocated DMA page into the device's IOMMU
//! page table (domain), and (2) unmap those pages once DMA completes. Both
//! are per-page operations, and the paper measures them pushing memory
//! management to ~30% of receiver CPU cycles and costing 26% of
//! throughput-per-core.
//!
//! The model is bookkeeping only: the *costs* of map/unmap are
//! charged by the stack's cost model using the page counts returned here.

/// IOMMU state for one host.
#[derive(Clone, Copy, Debug, Default)]
pub struct Iommu {
    enabled: bool,
    /// Pages currently mapped in the device domain.
    mapped_pages: u64,
}

impl Iommu {
    /// Create; `enabled = false` (the paper's default) makes map/unmap free.
    pub fn new(enabled: bool) -> Self {
        Iommu {
            enabled,
            ..Default::default()
        }
    }

    /// Whether the IOMMU is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Map `pages` pages for device DMA. Returns the number of page-table
    /// insertions to charge (0 when disabled).
    pub fn map(&mut self, pages: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.mapped_pages += pages;
        pages
    }

    /// Unmap `pages` pages after DMA completion. Returns the number of
    /// page-table removals (plus IOTLB invalidations) to charge.
    pub fn unmap(&mut self, pages: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        debug_assert!(self.mapped_pages >= pages, "unmapping more than mapped");
        self.mapped_pages = self.mapped_pages.saturating_sub(pages);
        pages
    }

    /// Pages currently mapped (diagnostics).
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_free() {
        let mut io = Iommu::new(false);
        assert_eq!(io.map(10), 0);
        assert_eq!(io.unmap(10), 0);
        assert_eq!(io.mapped_pages(), 0);
    }

    #[test]
    fn enabled_tracks_domain() {
        let mut io = Iommu::new(true);
        assert_eq!(io.map(10), 10);
        assert_eq!(io.mapped_pages(), 10);
        assert_eq!(io.unmap(4), 4);
        assert_eq!(io.mapped_pages(), 6);
    }

    #[test]
    fn balanced_map_unmap_returns_to_zero() {
        let mut io = Iommu::new(true);
        let (mut maps, mut unmaps) = (0, 0);
        for _ in 0..100 {
            maps += io.map(3);
            unmaps += io.unmap(3);
        }
        assert_eq!(io.mapped_pages(), 0);
        assert_eq!((maps, unmaps), (300, 300), "every page charged both ways");
    }
}
