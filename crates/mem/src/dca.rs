//! DCA / Intel DDIO cache model.
//!
//! DDIO lets the NIC DMA incoming frames directly into a slice of the
//! NIC-local L3 cache — by default 2 of the 11 ways, which on the paper's
//! testbed is ~18% of the 20MB L3, "~3MB" (§3.1, footnote 7). The paper
//! finds two distinct reasons why even a single flow sees ~49% cache
//! misses, and this model reproduces both analytically:
//!
//! 1. **BDP/backlog exceeding the DCA slice.** DDIO writes allocate into
//!    `w = 2` ways per cache set; the set a line maps to is effectively
//!    uniform. A frame DMAed now is evicted before its copy iff at least
//!    `w` newer DMA writes land in its set first. If `D` bytes are DMAed
//!    between a frame's arrival and its copy, arrivals to its set are
//!    ≈ Poisson with mean `μ = w·D/C` (C = slice capacity), so
//!    `P(survive) = P(Poisson(μ) < w) = e^{−μ}(1 + μ)`.
//!    At the paper's default operating point the copy lag is ≈ half the
//!    auto-tuned 6MB receive buffer (skb truesize accounting — see
//!    `hns-proto`'s receiver), i.e. D ≈ 3MB against C ≈ 3.6MB → μ ≈ 1.7 →
//!    51% survival — the measured 49% miss rate.
//!
//! 2. **Suboptimal utilization from large descriptor pools** (Fig. 3e):
//!    with many Rx descriptors the NIC's writes spread over more distinct
//!    physical addresses and complex addressing wastes capacity. Modeled
//!    as an additive hazard `μ_conflict` growing with the descriptor-pool
//!    footprint.
//!
//! The model is *lazy*: `insert` stamps the frame with the cumulative DMA
//! byte counter; `probe_copy` computes survival at copy time and draws the
//! outcome deterministically from the seeded RNG. Cross-flow pollution
//! (§3.3 incast) emerges because the DMA counter is global: other flows'
//! arrivals raise every frame's `D`.

use hns_sim::SimRng;

use crate::frame::{FrameArena, FrameId};

/// DDIO allocation ways per set (Intel default: 2 of 11).
const DDIO_WAYS: f64 = 2.0;

/// Conflict-hazard slope per unit of (footprint/capacity − 1); calibrated
/// against Fig. 3e (rings ≤512×9000B ≈ 4.4MB barely conflict; the mlx5
/// default of 1024 descriptors adds a mild floor; 4096 descriptors hurt
/// badly).
const CONFLICT_SLOPE: f64 = 0.16;
/// Hazard ceiling.
const CONFLICT_MAX: f64 = 2.2;

/// The DDIO slice of the NIC-local L3 cache.
#[derive(Debug)]
pub struct DcaCache {
    enabled: bool,
    capacity: u64,
    /// Cumulative bytes DMAed through the slice.
    dma_bytes: u64,
    /// Additive eviction hazard from the descriptor-pool footprint.
    conflict_mu: f64,
    rng: SimRng,
}

/// Default DCA capacity: 18% of the 20MB L3 (paper footnote 7: "~3 MB").
pub const DEFAULT_DCA_CAPACITY: u64 = (20 * 1024 * 1024) * 18 / 100;

impl DcaCache {
    /// Create the cache. `enabled = false` models BIOS-disabled DDIO
    /// (§3.8): frames are never inserted so every copy misses.
    pub fn new(enabled: bool, capacity: u64, seed: u64) -> Self {
        DcaCache {
            enabled,
            capacity,
            dma_bytes: 0,
            conflict_mu: 0.0,
            rng: SimRng::new(seed),
        }
    }

    /// Cache with the paper-testbed default capacity.
    pub fn with_defaults(enabled: bool, seed: u64) -> Self {
        Self::new(enabled, DEFAULT_DCA_CAPACITY, seed)
    }

    /// Configure the Rx descriptor-pool footprint (descriptors × buffer
    /// size) which drives the conflict hazard.
    pub fn set_descriptor_footprint(&mut self, footprint_bytes: u64) {
        let ratio = footprint_bytes as f64 / self.capacity as f64;
        self.conflict_mu = (CONFLICT_SLOPE * (ratio - 1.0).max(0.0)).min(CONFLICT_MAX);
    }

    /// NIC DMA of `frame` into the slice: stamp it with the DMA clock.
    /// No-op when DDIO is disabled (the frame then counts as never
    /// cached).
    pub fn insert(&mut self, arena: &mut FrameArena, frame: FrameId) {
        let bytes = arena.bytes(frame);
        if !self.enabled || bytes == 0 {
            return;
        }
        arena.set_dca_inserted(frame, self.dma_bytes);
        self.dma_bytes += bytes;
    }

    /// Probability that a frame survives until copy after `lag` bytes of
    /// subsequent DMA traffic: `P(Poisson(w·lag/C + μ_conflict) < w)`.
    pub fn survival_probability(&self, lag_bytes: u64) -> f64 {
        let mu = DDIO_WAYS * lag_bytes as f64 / self.capacity as f64 + self.conflict_mu;
        (-mu).exp() * (1.0 + mu)
    }

    /// At copy time: is this frame's data still in the DCA slice? Draws
    /// the survival Bernoulli exactly once (callers probe each frame once,
    /// at its copy).
    pub fn probe_copy(&mut self, arena: &FrameArena, frame: FrameId) -> bool {
        let mark = match arena.dca_mark(frame) {
            Some(m) => m,
            None => return false, // never inserted (DCA off / remote node)
        };
        let lag = self.dma_bytes.saturating_sub(mark);
        let p = self.survival_probability(lag);
        self.rng.chance(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena_with_frames(n: usize, bytes: u32) -> (FrameArena, Vec<FrameId>) {
        let mut a = FrameArena::new();
        let ids = (0..n).map(|_| a.insert(bytes, 0)).collect();
        (a, ids)
    }

    #[test]
    fn disabled_cache_always_misses() {
        let (mut a, ids) = arena_with_frames(1, 9000);
        let mut c = DcaCache::new(false, DEFAULT_DCA_CAPACITY, 1);
        c.insert(&mut a, ids[0]);
        assert!(!c.probe_copy(&a, ids[0]));
        assert_eq!(a.dca_mark(ids[0]), None, "never stamped");
        assert_eq!(c.dma_bytes, 0);
    }

    #[test]
    fn immediate_copy_almost_always_hits() {
        let mut hits = 0;
        for seed in 0..200 {
            let (mut a, ids) = arena_with_frames(1, 9000);
            let mut c = DcaCache::with_defaults(true, seed);
            c.insert(&mut a, ids[0]);
            if c.probe_copy(&a, ids[0]) {
                hits += 1;
            }
        }
        // lag = 0 → survival ≈ 1.
        assert!(hits >= 198, "hits = {hits}");
    }

    #[test]
    fn survival_decreases_with_lag() {
        let c = DcaCache::with_defaults(true, 1);
        let mut last = 1.1;
        for mb in [0u64, 1, 2, 4, 8, 16] {
            let p = c.survival_probability(mb << 20);
            assert!(p < last, "not monotone at {mb}MB");
            last = p;
        }
    }

    #[test]
    fn paper_operating_point_near_half() {
        // D ≈ 3MB lag vs 3.6MB slice → ≈51% survival (the paper's 49%
        // miss).
        let c = DcaCache::with_defaults(true, 1);
        let p = c.survival_probability(3 << 20);
        assert!((0.45..0.58).contains(&p), "survival = {p}");
    }

    #[test]
    fn small_lag_mostly_survives() {
        let c = DcaCache::with_defaults(true, 1);
        let p = c.survival_probability(800 << 10); // 800KB
        assert!(p > 0.9, "survival = {p}");
    }

    #[test]
    fn conflict_hazard_grows_with_footprint() {
        let mut c = DcaCache::with_defaults(true, 1);
        c.set_descriptor_footprint(512 * 9000);
        let small = c.conflict_mu;
        let p_small = c.survival_probability(0);
        c.set_descriptor_footprint(8192 * 9000);
        let large = c.conflict_mu;
        let p_large = c.survival_probability(0);
        assert!(
            small < 0.08,
            "512-descriptor pool should barely conflict: {small}"
        );
        assert!(large > 0.5, "8192-descriptor pool should conflict: {large}");
        assert!(p_large < p_small);
    }

    #[test]
    fn empirical_miss_rate_matches_analytic() {
        // Simulate a steady pipeline with 3MB of copy lag and check the
        // sampled miss rate tracks the formula.
        let mut a = FrameArena::new();
        let mut c = DcaCache::with_defaults(true, 42);
        let lag_frames = (3 << 20) / 9000;
        let mut queue = std::collections::VecDeque::new();
        let mut hits = 0u64;
        let mut probes = 0u64;
        for i in 0..5_000u64 {
            let f = a.insert(9000, 0);
            c.insert(&mut a, f);
            queue.push_back(f);
            if i >= lag_frames {
                let victim = queue.pop_front().unwrap();
                if c.probe_copy(&a, victim) {
                    hits += 1;
                }
                probes += 1;
                a.release(victim);
            }
        }
        let hit_rate = hits as f64 / probes as f64;
        let expect = c.survival_probability(3 << 20);
        assert!(
            (hit_rate - expect).abs() < 0.05,
            "hit {hit_rate:.3} vs analytic {expect:.3}"
        );
    }

    #[test]
    fn cross_flow_pollution_raises_lag() {
        // Two flows DMA concurrently: each frame's lag includes the other
        // flow's bytes — the §3.3 incast pollution effect.
        let mut a = FrameArena::new();
        let mut c = DcaCache::with_defaults(true, 9);
        let f1 = a.insert(9000, 0);
        c.insert(&mut a, f1);
        // 2MB of other-flow traffic before f1's copy.
        for _ in 0..233 {
            let g = a.insert(9000, 0);
            c.insert(&mut a, g);
        }
        let lag = c.dma_bytes;
        assert!(lag > 2 << 20);
        // Survival must reflect the polluted lag, not f1's own traffic.
        let p = c.survival_probability(lag - 9000);
        assert!(p < 0.8, "pollution should hurt: {p}");
    }
}
