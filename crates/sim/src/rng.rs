//! Deterministic pseudo-random number generation.
//!
//! The simulator must be bit-reproducible given a seed, across platforms and
//! across versions of third-party crates. We therefore implement the PRNG
//! in-tree: xoshiro256++ (public domain, Blackman & Vigna) seeded through
//! SplitMix64. It is used for loss injection, RSS hash placement, workload
//! jitter and cache conflict sampling — nothing cryptographic.

/// A seedable xoshiro256++ PRNG.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed. Different seeds give
    /// independent streams; the all-zero internal state is impossible by
    /// construction.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Lemire's multiply-shift; the tiny modulo bias is irrelevant for
        // simulation sampling.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.next_below(hi - lo)
    }

    /// Bernoulli trial with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Exponentially distributed sample with the given mean (for Poisson
    /// inter-arrivals in workload generators).
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Inverse CDF; guard against ln(0).
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(9);
        for _ in 0..10_000 {
            assert!(r.next_below(17) < 17);
        }
        // All residues reachable.
        let mut seen = [false; 17];
        for _ in 0..5_000 {
            seen[r.next_below(17) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // p = 0.5 should be roughly half.
        let hits = (0..10_000).filter(|_| r.chance(0.5)).count();
        assert!((4_000..6_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn chance_small_probability() {
        let mut r = SimRng::new(11);
        let hits = (0..1_000_000).filter(|_| r.chance(1.5e-3)).count();
        // Expect ~1500; allow generous tolerance.
        assert!((1_000..2_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn exp_has_roughly_right_mean() {
        let mut r = SimRng::new(5);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.exp(3.0)).sum();
        let mean = sum / n as f64;
        assert!((2.9..3.1).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn mean_of_uniform_is_half() {
        let mut r = SimRng::new(77);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((0.49..0.51).contains(&mean), "mean = {mean}");
    }
}
