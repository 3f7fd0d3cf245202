//! Property tests for the memory subsystem models.

use hns_mem::{DcaCache, FrameArena, PageAllocator};
use proptest::prelude::*;

proptest! {
    /// The DCA survival model is a valid probability, monotone
    /// non-increasing in copy lag, and exactly 1-at-zero-lag when no
    /// conflict hazard applies.
    #[test]
    fn dca_survival_is_monotone_probability(
        capacity_kb in 64u64..65_536,
        lags in proptest::collection::vec(0u64..(64 << 20), 2..50),
    ) {
        let cache = DcaCache::new(true, capacity_kb << 10, 1);
        let mut sorted = lags.clone();
        sorted.sort_unstable();
        let mut last = f64::INFINITY;
        for lag in sorted {
            let p = cache.survival_probability(lag);
            prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
            prop_assert!(p <= last + 1e-12, "not monotone");
            last = p;
        }
        prop_assert!((cache.survival_probability(0) - 1.0).abs() < 1e-12);
    }

    /// DMA clock advances by exactly the inserted bytes, and probes of
    /// never-inserted frames always miss.
    #[test]
    fn dca_clock_and_probe(
        sizes in proptest::collection::vec(1u32..65_536, 1..100),
        seed in any::<u64>(),
    ) {
        let mut arena = FrameArena::new();
        let mut cache = DcaCache::new(true, 4 << 20, seed);
        let mut total = 0u64;
        for &s in &sizes {
            let f = arena.insert(s, 0);
            cache.insert(&mut arena, f);
            total += s as u64;
        }
        // The next frame's DMA-clock stamp is every byte DMAed before it.
        let next = arena.insert(1, 0);
        cache.insert(&mut arena, next);
        prop_assert_eq!(arena.dca_mark(next), Some(total));
        let stray = arena.insert(1000, 0);
        prop_assert!(!cache.probe_copy(&arena, stray), "uninserted frame must miss");
    }

    /// The page allocator conserves pages: every request is fully served,
    /// split between fast and slow paths, and the pageset never exceeds its
    /// high watermark by more than transient drain behaviour.
    #[test]
    fn page_allocator_conserves(
        reqs in proptest::collection::vec((1u64..200, any::<bool>(), any::<bool>()), 1..300),
    ) {
        let mut pa = PageAllocator::new(4);
        for (pages, is_alloc, local) in reqs {
            let out = if is_alloc {
                pa.alloc(1, pages)
            } else {
                pa.free(1, pages, local)
            };
            prop_assert_eq!(out.fast_pages + out.slow_pages, pages);
        }
    }

    /// Frame arena: live count tracks insertions minus releases; ids stay
    /// valid until released.
    #[test]
    fn frame_arena_live_count(sizes in proptest::collection::vec(1u32..65536, 1..200)) {
        let mut a = FrameArena::new();
        let ids: Vec<_> = sizes.iter().map(|&s| a.insert(s, 0)).collect();
        prop_assert_eq!(a.live_count(), ids.len());
        for (i, &id) in ids.iter().enumerate() {
            prop_assert_eq!(a.bytes(id), sizes[i] as u64);
        }
        for &id in &ids {
            a.release(id);
        }
        prop_assert_eq!(a.live_count(), 0);
    }
}
